"""Kriging surrogates for time-variant system responses via dimension
reduction in a functional basis space, with forward Monte Carlo and
Bayesian inverse uncertainty quantification on top."""

from .core import (
    ResponseEnsemble,
    TimeGrid,
    derive_seed,
    latin_hypercube,
    load_ensemble,
    make_rng,
    model_nrmse,
    save_ensemble,
)
from .basis import BasisSystem, design_matrix, gram_matrix, roughness_matrix
from .smoothing import fit_coefficients, gcv, select_nb, select_tau
from .fpca import Reducer, fit_pca_reducer, fit_reducer, select_m
from .kriging import KrigingModel, fit_kriging, log_marginal_likelihood
from .surrogate import (
    FitConfig,
    LatentSurrogate,
    fit_surrogate,
    load_surrogate,
    save_surrogate,
)
from .uq import (
    ForwardUqResult,
    InputDistribution,
    Lognormal,
    Normal,
    PosteriorSamples,
    Uniform,
    ensemble_mcmc,
    forward_uq,
    kde_pdf,
    log_posterior,
    log_posterior_block,
    posterior_summary,
)
from .bench import generate_dataset, rk4_integrate

__version__ = "0.1.0"
