"""Dimension reduction of curve ensembles: functional principal component
analysis, and plain PCA as the baseline.

In the functional reduction, curves are fitted to a basis by penalized
least squares, the coefficient-space covariance eigenproblem is symmetrized
through the Gram matrix square root, and the leading eigenpairs give an
orthonormal set of latent functions.  Either fitter returns a Reducer and
the training curves' score vectors; a curve is rebuilt from its scores as
the mean curve plus the latent functions times the scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .basis import BSPLINE, FOURIER, BasisSystem, design_matrix, gram_matrix, roughness_matrix
from .core import ResponseEnsemble, TimeGrid, fit_nodes, mirror_rows
from .smoothing import effective_nb, fit_coefficients, select_nb, select_tau

VARIANCE_TARGET = 0.99

# Eigenvalues of the symmetrized covariance below -1e-10 * lambda_1 indicate
# a broken Gram factorization rather than roundoff.
_EIG_CLAMP_REL = 1e-10


def select_m(eigenvalues) -> int:
    """Smallest m whose leading eigenvalues cover 99% of the total."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0:
        raise ValueError("empty spectrum")
    if np.any(np.diff(lam) > 0):
        raise ValueError("eigenvalues must be sorted descending")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    total = lam.sum()
    if total <= 0.0:
        raise ValueError("all-zero spectrum; caller should handle m = 0")
    fractions = np.cumsum(lam) / total
    return int(np.searchsorted(fractions, VARIANCE_TARGET) + 1)


def _matrix_sqrt(W: np.ndarray):
    vals, vecs = eigh(W)
    if vals.min() <= 0.0:
        raise np.linalg.LinAlgError("Gram matrix is not positive definite")
    root = np.sqrt(vals)
    return (vecs * root) @ vecs.T, (vecs / root) @ vecs.T


def _fix_signs(B: np.ndarray) -> np.ndarray:
    # Reproducible eigenvector orientation: largest-magnitude entry positive.
    for j in range(B.shape[1]):
        idx = np.argmax(np.abs(B[:, j]))
        if B[idx, j] < 0:
            B[:, j] = -B[:, j]
    return B


@dataclass(frozen=True, eq=False)
class Reducer:
    """A fitted reduction: a curve is mean_curve + phi @ scores.

    Attributes
    ----------
    grid : TimeGrid
        Grid of the original curves.
    mean_curve : ndarray (n_t,)
    phi : ndarray (n_t, m)
        The retained latent functions sampled on the grid.
    eigenvalues : ndarray
        Full spectrum, sorted descending, nonnegative.
    m : int
        Retained latent dimension.
    variance_fraction : float
    description : dict
        The JSON-ready fields from which a model file rebuilds phi:
        {"kind": "fdr", "basis": {"kind", "n_b", "order"}, "tau", "mirror",
        "B"} with B (n_b, m) the basis coordinates of phi on the fitted
        nodes (B' W B = I), or {"kind": "pca", "components"} with
        components = phi.
    basis : BasisSystem or None
        Basis of a functional reduction; None for PCA.
    tau : float or None
        Smoothing parameter of a functional reduction; None for PCA.
    """

    grid: TimeGrid
    mean_curve: np.ndarray
    phi: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray
    m: int
    variance_fraction: float
    description: dict = field(repr=False)
    basis: BasisSystem | None = None
    tau: float | None = None


def fit_reducer(
    ensemble: ResponseEnsemble,
    kind: str = BSPLINE,
    order: int = 4,
    n_b0: int | None = None,
    delta_r: float = 0.05,
    n_tau: int = 25,
    tau_override: float | None = None,
    mirror: bool | None = None,
    nb_override: int | None = None,
    nb_trace: list | None = None,
):
    """Fit a functional reducer to an ensemble.

    Centers the curves, selects the basis count and smoothing parameter,
    fits coefficients, and solves the symmetrized covariance eigenproblem
    (N-1)^-1 W^(1/2) C C' W^(1/2) u = lambda u, retaining enough latent
    functions to cover 99% of the variance.

    Parameters
    ----------
    ensemble : ResponseEnsemble with N >= 2 curves.
    kind : "fourier" or "bspline".
    mirror : bool, optional
        Reflect curves to one full period before fitting.  Defaults to
        True for Fourier (making non-periodic data periodic) and False
        for B-splines.
    nb_override : int, optional
        Pin the basis count, skipping the error-based growth loop.
    tau_override : float, optional
        Pin the smoothing parameter, skipping the GCV grid search.

    Returns
    -------
    (reducer, scores) : Reducer and the (N, m) training scores.
    """
    if ensemble.n < 2:
        raise ValueError("need at least 2 curves")
    if mirror is None:
        mirror = kind == FOURIER
    grid = ensemble.grid
    Y = mirror_rows(ensemble.responses) if mirror else ensemble.responses
    nodes, interval = fit_nodes(grid, mirror)
    mean_fit = Y.mean(axis=0)
    centered = Y - mean_fit

    if nb_override is not None:
        n_b = effective_nb(kind, nb_override, order)
        sys = BasisSystem(kind, n_b, *interval, order=order)
        H = design_matrix(sys, nodes)
        R = roughness_matrix(sys)
        tau = (
            tau_override
            if tau_override is not None
            else select_tau(H, R, centered, n_tau)
        )
    else:
        n_b, tau = select_nb(
            kind,
            centered,
            nodes,
            interval,
            n_b0=n_b0,
            delta_r=delta_r,
            order=order,
            n_tau=n_tau,
            tau_override=tau_override,
            trace=nb_trace,
        )
        sys = BasisSystem(kind, n_b, *interval, order=order)
        H = design_matrix(sys, nodes)
        R = roughness_matrix(sys)

    C = fit_coefficients(H, R, tau, centered)
    W = gram_matrix(sys)
    W_half, W_half_inv = _matrix_sqrt(W)

    G = W_half @ C
    M = (G @ G.T) / (ensemble.n - 1)
    lam, U = eigh(M)
    lam, U = lam[::-1], U[:, ::-1]
    if lam.size and lam[0] > 0 and lam.min() < -_EIG_CLAMP_REL * lam[0]:
        raise np.linalg.LinAlgError(
            f"covariance eigenvalue {lam.min():.3e} is too negative"
        )
    lam = np.clip(lam, 0.0, None)

    total = lam.sum()
    data_scale = float(np.max(np.abs(Y))) if Y.size else 0.0
    if total <= 1e-14 * max(1.0, data_scale**2):
        # All curves identical: constant-mean reducer with no latent modes.
        m = 0
        B = np.zeros((n_b, 0))
        variance_fraction = 1.0
        scores = np.zeros((ensemble.n, 0))
    else:
        m = select_m(lam)
        B = _fix_signs(W_half_inv @ U[:, :m])
        variance_fraction = float(lam[:m].sum() / total)
        scores = (B.T @ (W @ C)).T

    reducer = Reducer(
        grid=grid,
        mean_curve=mean_fit[: grid.n_t],
        phi=(H @ B)[: grid.n_t],
        eigenvalues=lam,
        m=m,
        variance_fraction=variance_fraction,
        description={
            "kind": "fdr",
            "basis": {"kind": sys.kind, "n_b": sys.n_b, "order": sys.order},
            "tau": float(tau),
            "mirror": bool(mirror),
            "B": B.tolist(),
        },
        basis=sys,
        tau=float(tau),
    )
    return reducer, scores


def fit_pca_reducer(ensemble: ResponseEnsemble):
    """PCA of the centered response matrix via SVD: Euclidean-orthonormal
    components covering 99% of the variance.  Returns (reducer, scores)."""
    if ensemble.n < 2:
        raise ValueError("need at least 2 curves")
    Y = ensemble.responses
    mean_curve = Y.mean(axis=0)
    centered = Y - mean_curve
    _, svals, Vt = np.linalg.svd(centered, full_matrices=False)
    lam = svals**2 / (ensemble.n - 1)
    total = lam.sum()
    scale = float(np.max(np.abs(Y))) if Y.size else 0.0
    if total <= 1e-14 * max(1.0, scale**2):
        m = 0
        components = np.zeros((ensemble.grid.n_t, 0))
        variance_fraction = 1.0
        scores = np.zeros((ensemble.n, 0))
    else:
        m = select_m(np.clip(lam, 0.0, None))
        components = _fix_signs(Vt[:m].T.copy())
        variance_fraction = float(lam[:m].sum() / total)
        scores = centered @ components
    reducer = Reducer(
        grid=ensemble.grid,
        mean_curve=mean_curve,
        phi=components,
        eigenvalues=np.clip(lam, 0.0, None),
        m=m,
        variance_fraction=variance_fraction,
        description={"kind": "pca", "components": components.tolist()},
    )
    return reducer, scores
