"""Assembly of latent-space surrogates: a functional (or plain PCA)
reducer plus one Kriging model per retained score, curve-level mean and
variance prediction, cross-validation, and a versioned text model file.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import fpca
from .basis import BSPLINE, FOURIER, BasisSystem, design_matrix
from .core import (
    ResponseEnsemble,
    TimeGrid,
    fit_nodes,
    json_field,
    make_rng,
    model_nrmse,
    one_blas_thread,
    run_tasks,
    usable_cpus,
    write_atomic,
)
from .fpca import Reducer
from .kriging import KrigingModel, condition, fit_kriging, normalize_inputs

FORMAT_VERSION = "funcuq-surrogate-v2"

KFDR_F = "kfdr-f"
KFDR_B = "kfdr-b"
PCA = "pca"
REDUCERS = (KFDR_F, KFDR_B, PCA)
# The scalars of a score model's model-file entry, beside y_std and theta.
MODEL_SCALARS = ("y_offset", "y_scale", "mu", "sigma_z2", "sigma_n2")


@dataclass
class FitConfig:
    """Settings for one surrogate fit; defaults match the study pipeline."""

    reducer: str = KFDR_B
    n_b0: int | None = None
    order: int = 4
    delta_r: float = 0.05
    n_tau: int = 25
    tau_override: float | None = None
    mirror: bool | None = None
    nb_override: int | None = None
    n_starts: int = 10
    budget: int = 400
    fix_nugget: float | None = None

    def __post_init__(self):
        if self.reducer not in REDUCERS:
            raise ValueError(f"reducer must be one of {REDUCERS}, got {self.reducer!r}")
        if self.mirror is not None and not isinstance(self.mirror, bool):
            raise ValueError(f"mirror must be True, False or None, got {self.mirror!r}")


class LatentSurrogate:
    """A reducer plus one Kriging model per latent score.

    The score models share one training design (input normalization and
    normalized inputs), as fit_surrogate and the loader build them, so
    curve-level predictions are consistent affine images of the latent
    predictions and the model file stores the design once.
    """

    def __init__(self, reducer: Reducer, models, input_lo, input_hi, metadata=None):
        if len(models) != reducer.m:
            raise ValueError(f"need {reducer.m} score models, got {len(models)}")
        self.reducer = reducer
        self.models = list(models)
        self.input_lo = np.asarray(input_lo, dtype=float)
        self.input_hi = np.asarray(input_hi, dtype=float)
        self.metadata = dict(metadata or {})

    @property
    def grid(self) -> TimeGrid:
        return self.reducer.grid

    @property
    def m(self) -> int:
        return self.reducer.m

    def predict_scores(self, X_star, with_var: bool = True):
        """Latent predictive means (and variances) for raw input rows.

        The inputs are normalized once for all score models, which share
        the normalization, and every model builds its cross-kernel in one
        shared buffer.
        """
        Xn = normalize_inputs(X_star, self.input_lo, self.input_hi)
        means = np.empty((Xn.shape[0], self.m))
        var = np.empty((Xn.shape[0], self.m)) if with_var else None
        n_train = self.models[0].X_norm.shape[0] if self.models else 0
        kernel = np.empty((n_train, Xn.shape[0]))
        for j, mod in enumerate(self.models):
            mj, vj = mod._predict_normalized(Xn, with_var, out=kernel)
            means[:, j] = mj
            if with_var:
                var[:, j] = vj
        return means, var

    def predict_curves(self, X_star):
        """Predictive mean and variance curves for raw input rows; each of
        shape (M, n_t).

        The latent predictive covariance is diagonal, so the variance at
        each time node is the squared latent-function row weighted by the
        per-score variances.
        """
        means, var = self.predict_scores(X_star)
        phi = self.reducer.phi
        return self.reducer.mean_curve + means @ phi.T, var @ (phi**2).T

    def predict_curve(self, x_star):
        """predict_curves of the single input point x_star."""
        means, var = self.predict_curves(np.atleast_2d(x_star))
        return means[0], var[0]

    def predict_mean_curves(self, X_star) -> np.ndarray:
        """Predictive mean curves for raw input rows; a new (M, n_t) array."""
        means, _ = self.predict_scores(X_star, with_var=False)
        curves = means @ self.reducer.phi.T
        curves += self.reducer.mean_curve
        return curves

    # A surrogate is a batched model: (n, p) inputs to (n, n_t) mean curves.
    __call__ = predict_mean_curves


def fit_surrogate(
    ensemble: ResponseEnsemble,
    config: FitConfig | None = None,
    rng: np.random.Generator | None = None,
) -> LatentSurrogate:
    """Fit a latent surrogate: reduce the curves, then fit one Kriging
    model per retained score on the training inputs.

    The fit runs with BLAS at one thread (core.one_blas_thread), so the
    model is the same whatever the host's BLAS thread count.  When that pin
    holds, the score models are fitted on up to usable_cpus() processes
    (core.run_tasks).
    """
    config = config or FitConfig()
    rng = rng if rng is not None else make_rng(0)
    if ensemble.n < 2 * ensemble.p:
        warnings.warn(
            f"only {ensemble.n} samples for {ensemble.p} input dimensions; "
            "surrogate accuracy may suffer",
            stacklevel=2,
        )
    with one_blas_thread() as pinned:
        nb_trace: list = []
        if config.reducer == PCA:
            reducer, scores = fpca.fit_pca_reducer(ensemble)
        else:
            kind = FOURIER if config.reducer == KFDR_F else BSPLINE
            reducer, scores = fpca.fit_reducer(
                ensemble,
                kind=kind,
                order=config.order,
                n_b0=config.n_b0,
                delta_r=config.delta_r,
                n_tau=config.n_tau,
                tau_override=config.tau_override,
                mirror=config.mirror,
                nb_override=config.nb_override,
                nb_trace=nb_trace,
            )
        lo, hi = ensemble.inputs.min(axis=0), ensemble.inputs.max(axis=0)
        model_seeds = rng.integers(0, 2**63 - 1, size=max(reducer.m, 1))

        def fit_score_model(j):
            # The module attribute, looked up per call, so that a traced
            # or substituted fit_kriging sees this process's calls.
            return fit_kriging(ensemble.inputs, scores[:, j], make_rng(model_seeds[j]),
                               n_starts=config.n_starts, budget=config.budget,
                               fix_nugget=config.fix_nugget)

        # A model depends only on its score column and seed, so the models
        # are the same for any number of processes.
        models = run_tasks(fit_score_model, range(scores.shape[1]),
                           usable_cpus() if pinned else 1, lambda j: f"score model {j}",
                           "models")
    metadata = {
        "reducer": config.reducer,
        "n_train": ensemble.n,
        "p": ensemble.p,
        "input_names": list(ensemble.input_names),
    }
    if nb_trace:
        metadata["nb_trace"] = nb_trace
    return LatentSurrogate(reducer, models, lo, hi, metadata)


def cross_validate(
    ensemble: ResponseEnsemble,
    k: int,
    config: FitConfig | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-fold test errors from seeded k-fold cross-validation.

    Folds are contiguous blocks of a seeded permutation, so the split is
    replayable from the generator state alone.
    """
    if k < 2:
        raise ValueError("need at least 2 folds")
    if ensemble.n < k:
        raise ValueError(f"cannot split {ensemble.n} samples into {k} folds")
    rng = rng if rng is not None else make_rng(0)
    perm = rng.permutation(ensemble.n)
    folds = np.array_split(perm, k)
    fit_seeds = rng.integers(0, 2**63 - 1, size=k)
    errors = np.empty(k)
    for i, fold in enumerate(folds):
        train = np.setdiff1d(perm, fold)
        if train.size < 2:
            raise ValueError("fold leaves fewer than 2 training samples")
        sub = ResponseEnsemble(
            ensemble.inputs[train],
            ensemble.responses[train],
            ensemble.grid,
            input_names=ensemble.input_names,
        )
        sur = fit_surrogate(sub, config, make_rng(fit_seeds[i]))
        pred = sur.predict_mean_curves(ensemble.inputs[fold])
        errors[i] = model_nrmse(ensemble.responses[fold], pred)
    return errors


def _array(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def surrogate_to_dict(s: LatentSurrogate) -> dict:
    """JSON-ready description of a fitted surrogate.  A functional reducer is
    stored by its basis, tau, mirror and B, from which phi is rebuilt, and
    a PCA reducer by its components phi."""
    red = s.reducer
    if red.basis is None:
        reducer = {"kind": "pca", "components": _array(red.phi)}
    else:
        reducer = {"kind": "fdr", "tau": red.tau, "mirror": red.mirror, "B": _array(red.B),
                   "basis": {"kind": red.basis.kind, "n_b": red.basis.n_b,
                             "order": red.basis.order}}
    reducer.update(mean_curve=_array(red.mean_curve), eigenvalues=_array(red.eigenvalues),
                   m=red.m, variance_fraction=red.variance_fraction)
    models = [
        {"y_std": _array(mod.y_std), "theta": _array(mod.theta),
         **{key: getattr(mod, key) for key in MODEL_SCALARS}}
        for mod in s.models
    ]
    return {
        "format": FORMAT_VERSION,
        "grid": {"t0": red.grid.t0, "te": red.grid.te, "n_t": red.grid.n_t},
        "reducer": reducer,
        "models": models,
        "X_norm": _array(s.models[0].X_norm) if s.models else [],
        "input_lo": _array(s.input_lo),
        "input_hi": _array(s.input_hi),
        "metadata": s.metadata,
    }


def save_surrogate(s: LatentSurrogate, path) -> None:
    """Write the surrogate as deterministic JSON text."""
    write_atomic(path, [json.dumps(surrogate_to_dict(s), sort_keys=True, separators=(",", ":"))])


def _rebuild_kriging(d: dict, where: str, input_lo, input_hi, X_norm) -> KrigingModel:
    if not isinstance(d, dict):
        raise ValueError(f"model file: {where} must be an object, got {d!r}")
    ys = json_field(d, "model file", where, "y_std", shape=(X_norm.shape[0],))
    theta = json_field(d, "model file", where, "theta", shape=(input_lo.size,))
    v = {key: json_field(d, "model file", where, key) for key in MODEL_SCALARS}
    try:
        L, _, _, alpha = condition(X_norm, ys, v["sigma_z2"], theta, v["sigma_n2"], v["mu"])
    except np.linalg.LinAlgError as err:
        raise ValueError(f"model file: {where} has a kernel matrix that is {err}") from None
    return KrigingModel(input_lo=input_lo, input_hi=input_hi, X_norm=X_norm, y_std=ys,
                        theta=theta, _L=L, _alpha=alpha, **v)


def _rebuild_reducer(red: dict, grid: TimeGrid) -> Reducer:
    """The Reducer of a model file's reducer block.  A functional reducer's
    latent functions are rebuilt from B alone, as the fitter built them."""
    kind = json_field(red, "model file", "reducer", "kind", str)
    if kind not in ("fdr", "pca"):
        raise ValueError(f"model file: reducer.kind must be 'fdr' or 'pca', got {kind!r}")
    m = json_field(red, "model file", "reducer", "m", int)
    basis = tau = mirror = B = None
    if kind == "pca":
        phi = json_field(red, "model file", "reducer", "components", shape=(grid.n_t, m))
    else:
        b = json_field(red, "model file", "reducer", "basis", dict)
        spec = {key: json_field(b, "model file", "reducer.basis", key, json_type)
                for key, json_type in (("kind", str), ("n_b", int), ("order", int))}
        tau = json_field(red, "model file", "reducer", "tau")
        if tau < 0.0:
            raise ValueError(f"model file: reducer.tau must be nonnegative, got {tau!r}")
        mirror = json_field(red, "model file", "reducer", "mirror", bool)
        nodes, interval = fit_nodes(grid, mirror)
        try:
            basis = BasisSystem(spec["kind"], spec["n_b"], *interval, order=spec["order"])
        except ValueError as err:
            raise ValueError(f"model file: reducer.basis: {err}") from None
        B = json_field(red, "model file", "reducer", "B", shape=(spec["n_b"], m))
        # fit_reducer's expression: evaluating the basis on grid.nodes, or
        # on the first n_t nodes only, changes phi in its last bits.
        phi = (design_matrix(basis, nodes) @ B)[: grid.n_t]
    return Reducer(
        grid=grid,
        mean_curve=json_field(red, "model file", "reducer", "mean_curve", shape=(grid.n_t,)),
        phi=phi,
        eigenvalues=json_field(red, "model file", "reducer", "eigenvalues", shape=(None,)),
        m=m,
        variance_fraction=json_field(red, "model file", "reducer", "variance_fraction"),
        basis=basis,
        tau=tau,
        mirror=mirror,
        B=B,
    )


def surrogate_from_dict(doc: dict) -> LatentSurrogate:
    """Rebuild a surrogate from surrogate_to_dict's description.

    Every field must be present and of its type, and every array finite,
    made of numbers (core.json_field) and of the shape the rest of the file
    implies; an error names the offending key, e.g. `models[2].theta`.
    """
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model-file format {doc.get('format')!r}, this version reads "
            f"{FORMAT_VERSION!r}: refit the model from its config and seed"
        )
    g = json_field(doc, "model file", "", "grid", dict)
    t0, te = (json_field(g, "model file", "grid", key) for key in ("t0", "te"))
    grid = TimeGrid(t0, te, json_field(g, "model file", "grid", "n_t", int))
    reducer = _rebuild_reducer(json_field(doc, "model file", "", "reducer", dict), grid)
    input_lo = json_field(doc, "model file", "", "input_lo", shape=(None,))
    input_hi = json_field(doc, "model file", "", "input_hi", shape=input_lo.shape)
    # JSON writes the (0, p) design of a surrogate without score models as [].
    X_norm = json_field(
        doc, "model file", "", "X_norm", shape=(None, input_lo.size) if reducer.m else (0,)
    )
    entries = json_field(doc, "model file", "", "models", list)
    if len(entries) != reducer.m:
        raise ValueError(
            f"model file: models has {len(entries)} entries, expected m = {reducer.m}"
        )
    models = [
        _rebuild_kriging(d, f"models[{j}]", input_lo, input_hi, X_norm)
        for j, d in enumerate(entries)
    ]
    metadata = json_field(doc, "model file", "", "metadata", dict) if "metadata" in doc else {}
    if "input_names" in metadata:
        names = json_field(metadata, "model file", "metadata", "input_names", list)
        if len(names) != input_lo.size:
            raise ValueError(
                f"model file: metadata.input_names has {len(names)} names, "
                f"expected {input_lo.size}"
            )
    return LatentSurrogate(reducer, models, input_lo, input_hi, metadata)


def load_surrogate(path) -> LatentSurrogate:
    with open(path, "r", encoding="utf-8") as fh:
        return surrogate_from_dict(json.load(fh))
