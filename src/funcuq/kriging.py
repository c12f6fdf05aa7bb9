"""Ordinary Kriging with a homoscedastic nugget: Gaussian kernel,
marginal-likelihood hyperparameter estimation by a gradient search with the
mean and the process variance profiled out, and mean/variance prediction.

Inputs are mapped to the unit hypercube and targets standardized before
fitting; the hyperparameter search ranges assume that scaling.

The search sweeps log10 theta across its whole box.  At large theta most
kernel entries exp(-theta.D) fall into the subnormal range or just above it,
where exp, dpotrf and dpotri take the processor's slow path and one
evaluation can take five times as long.  So the search's likelihood sets
every entry whose exponent theta.D exceeds CUT to exactly 0.0 and counts
the evaluations where it did.  exp(-CUT) is about 3.7e-44, far below eps^2
next to the unit diagonal, so no rounded value changes.  Conditioning and
prediction build the kernel without the cut, so the fitted model and its
predictions are computed as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from .core import cho_with_jitter, latin_hypercube

THETA_BOUNDS = (1e-4, 1e4)
SIGMA_Z2_BOUNDS = (1e-4, 1e2)
SIGMA_N2_BOUNDS = (1e-8, 1e1)
# Box of the searched ratio g = sigma_n2 / sigma_z2 when the nugget is free.
NUGGET_RATIO_BOUNDS = (
    SIGMA_N2_BOUNDS[0] / SIGMA_Z2_BOUNDS[1],
    SIGMA_N2_BOUNDS[1] / SIGMA_Z2_BOUNDS[0],
)
# Exponent above which the search's likelihood takes a kernel entry as 0.0.
CUT = 100.0
DEFAULT_N_STARTS = 10
DEFAULT_BUDGET = 400


def _kernel_matrix(sigma_z2, theta, A, B=None, out=None):
    """Gaussian kernel between the rows of A and of B (default A).

    Written in place into `out`, a C-contiguous float (len(A), len(B))
    array, when one is given; each step is an elementwise operation of
    sigma_z2 * exp(-cdist(...)) in its order, so the entries are the same
    bits either way.
    """
    root = np.sqrt(np.asarray(theta, dtype=float))
    As = np.atleast_2d(A) * root
    Bs = As if B is None else np.atleast_2d(B) * root
    K = cdist(As, Bs, "sqeuclidean", out=out)
    np.negative(K, out=K)
    np.exp(K, out=K)
    K *= sigma_z2
    return K


def log_marginal_likelihood(X, y, mu, sigma_z2, theta, sigma_n2) -> float:
    """Marginal log likelihood of targets y at inputs X.

    -(1/2) r' A^-1 r - (1/2) ln|A| - (N/2) ln(2 pi) with A = K + sigma_n2 I
    and r = y - mu; the log-determinant comes from a Cholesky factorization.
    Returns -inf when the factorization fails.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    A = _kernel_matrix(sigma_z2, theta, X)
    A[np.diag_indices_from(A)] += sigma_n2
    try:
        cho = cho_factor(A, lower=True)
    except np.linalg.LinAlgError:
        return -math.inf
    r = y - mu
    logdet = 2.0 * np.sum(np.log(np.diag(cho[0])))
    return float(
        -0.5 * r @ cho_solve(cho, r) - 0.5 * logdet - 0.5 * y.size * math.log(2 * math.pi)
    )


def normalize_inputs(X, lo, hi):
    """Map raw inputs to [0,1]^p by training bounds; constant dims go to 0.5.

    Raises ValueError naming the first (row, column) that is NaN or inf.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    finite = np.isfinite(X)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"input row {row}, column {col} is {X[row, col]}: inputs must be finite")
    span = hi - lo
    out = np.full_like(X, 0.5)
    ok = span > 0.0
    out[:, ok] = (X[:, ok] - lo[ok]) / span[ok]
    return out


@dataclass
class KrigingModel:
    """A fitted single-output Kriging model.

    Stores the normalization bounds and normalized training inputs, the
    standardized targets, the hyperparameters, and condition()'s factor L
    and weights alpha.  sigma_z2 and sigma_n2 live on the standardized
    scale; noise_variance_raw reports the nugget on the original target
    scale.  `search` holds fit_kriging's search record; it is empty for a
    model rebuilt from a file.
    """

    input_lo: np.ndarray
    input_hi: np.ndarray
    X_norm: np.ndarray = field(repr=False)
    y_std: np.ndarray = field(repr=False)
    y_offset: float
    y_scale: float
    mu: float
    sigma_z2: float
    theta: np.ndarray
    sigma_n2: float
    _L: np.ndarray = field(repr=False)
    _alpha: np.ndarray = field(repr=False)
    search: dict = field(default_factory=dict, repr=False)

    @property
    def noise_variance_raw(self) -> float:
        return self.sigma_n2 * self.y_scale**2

    def predict_batch(self, X_star, with_var: bool = True):
        """Predictive means (and variances) at raw input rows.

        Variance is k(x*,x*) - k' A^-1 k on the standardized scale,
        clamped at zero from below, then rescaled by the target variance.
        """
        Xn = normalize_inputs(X_star, self.input_lo, self.input_hi)
        return self._predict_normalized(Xn, with_var)

    def _predict_normalized(self, Xn, with_var: bool, out=None):
        """predict_batch at normalized rows Xn; the (N_train, len(Xn))
        cross-kernel is built in `out` when one is given."""
        Ks = _kernel_matrix(self.sigma_z2, self.theta, self.X_norm, Xn, out=out)
        mean = self.mu + Ks.T @ self._alpha
        mean = mean * self.y_scale + self.y_offset
        if not with_var:
            return mean, None
        var = self.sigma_z2 - np.einsum("ij,ij->j", Ks, dpotrs(self._L, Ks, lower=1)[0])
        var = np.clip(var, 0.0, None) * self.y_scale**2
        return mean, var


def condition(X_norm, y_std, sigma_z2, theta, sigma_n2, mu=None):
    """(L, jitter, mu, alpha) of A = K + sigma_n2 I on normalized inputs:
    cho_with_jitter's factor and jitter (its LinAlgError passes through),
    mu as given or, when None, the GLS mean (1' A^-1 y) / (1' A^-1 1), and
    alpha = A^-1 (y - mu)."""
    A = _kernel_matrix(sigma_z2, theta, X_norm)
    A[np.diag_indices_from(A)] += sigma_n2
    L, jitter = cho_with_jitter(A)
    if mu is None:
        ones = np.ones_like(y_std)
        w = dpotrs(L, ones, lower=1)[0]
        mu = float(w @ y_std / (w @ ones))
    return L, jitter, mu, dpotrs(L, y_std - mu, lower=1)[0]


def _squared_differences(Xn):
    """(p, N*N) per-dimension squared differences between the rows of Xn,
    each row a flattened (N, N) matrix D_d."""
    return ((Xn.T[:, :, None] - Xn.T[:, None, :]) ** 2).reshape(Xn.shape[1], -1)


def _log10_gradient(Q, K, D, theta, sigma_n2):
    """d(-LML)/d log10 of (theta_1..theta_p, sigma_n2, sigma_z2) at fixed mu.

    Each entry is (ln 10 / 2) tr(Q dA/d ln psi), with Q = A^-1 - alpha alpha'
    and alpha = A^-1 r (Rasmussen & Williams 2006, eq. 5.9).  For
    A = K + sigma_n2 I and K = sigma_z2 exp(-sum_d theta_d D_d):
    dA/d ln theta_d = -theta_d K o D_d, dA/d ln sigma_n2 = sigma_n2 I and
    dA/d ln sigma_z2 = K.  The GLS mean is stationary, so it adds no term
    (envelope theorem).  D is _squared_differences.
    """
    W = Q * K
    d_theta = -theta * (D @ W.ravel())
    return 0.5 * math.log(10.0) * np.append(d_theta, [sigma_n2 * np.trace(Q), W.sum()])


def _neg_lml(D, y, theta, sigma_z2, nugget, on_cut=None):
    """-LML of targets y under the GLS mean, its _log10_gradient, and sigma_z2.

    With sigma_z2=None the nugget is the ratio g = sigma_n2 / sigma_z2 and
    sigma_z2 is profiled out: clip(r'C^-1 r / N, SIGMA_Z2_BOUNDS) with
    C = E + g I, E = exp(-sum_d theta_d D_d).  Otherwise the nugget is
    sigma_n2 and A = sigma_z2 E + sigma_n2 I.  One Cholesky factorization
    serves the value and the gradient; LinAlgError when it fails.

    Entries of E whose exponent exceeds CUT are set to exactly 0.0, and
    on_cut() is called when any is.  Such an entry is below 3.7e-44 and
    changes no rounded value next to the unit diagonal, while entries in
    or near the subnormal range make exp, dpotrf and dpotri several times
    slower.  Where every off-diagonal entry is cut, the theta gradient is
    exactly 0.0 instead of a number below about 1e-40.
    """
    n = y.size
    arg = theta @ D
    if arg.max() > CUT:
        # exp at exponents clamped to CUT stays on the fast path; the mask
        # then zeroes the cut entries and keeps the others' bits.
        keep = arg <= CUT
        E = np.exp(-np.minimum(arg, CUT))
        E *= keep
        if on_cut is not None:
            on_cut()
    else:
        E = np.exp(-arg)
    E = E.reshape(n, n)
    scale = 1.0 if sigma_z2 is None else sigma_z2
    M = scale * E
    M.flat[:: n + 1] += nugget
    L, info = dpotrf(M, lower=1, clean=1)
    if info != 0:
        raise np.linalg.LinAlgError("kernel matrix is not positive definite")
    w, v = dpotrs(L, np.column_stack([np.ones(n), y]), lower=1)[0].T
    mu = float(w @ y / w.sum())
    r = y - mu
    beta = v - mu * w  # M^-1 r
    quad = float(r @ beta)
    # A = s M: s is the profiled sigma_z2, or 1 when M is already A.
    s = float(np.clip(quad / n, *SIGMA_Z2_BOUNDS)) if sigma_z2 is None else 1.0
    logdet = n * math.log(s) + 2.0 * np.sum(np.log(np.diag(L)))
    value = 0.5 * quad / s + 0.5 * logdet + 0.5 * n * math.log(2 * math.pi)
    # dpotri fills the lower triangle of M^-1; the upper one is zero.
    M_inv = dpotri(L, lower=1)[0]
    Q = M_inv + M_inv.T
    Q.flat[:: n + 1] *= 0.5
    Q -= np.outer(beta, beta / s)
    Q /= s
    grad = _log10_gradient(Q, s * scale * E, D, theta, s * nugget)
    if not (math.isfinite(value) and np.all(np.isfinite(grad))):
        raise np.linalg.LinAlgError("non-finite likelihood")
    return value, grad, s * scale


class _BudgetSpent(Exception):
    """A start has used its evaluation budget."""


def fit_kriging(
    X,
    y,
    rng: np.random.Generator,
    n_starts: int = DEFAULT_N_STARTS,
    budget: int = DEFAULT_BUDGET,
    fix_nugget: float | None = None,
) -> KrigingModel:
    """Fit an ordinary Kriging model with nugget by maximum likelihood.

    The global mean is profiled by generalized least squares.  With a free
    nugget the search runs over log10 theta and log10 g, g = sigma_n2 /
    sigma_z2, with sigma_z2 profiled in closed form (the concentrated
    likelihood); sigma_n2 = g sigma_z2 is then clamped into
    SIGMA_N2_BOUNDS.  L-BFGS-B with the analytic gradient runs inside the
    log10 boxes from n_starts Latin-hypercube starts.  A start whose first
    kernel matrix does not factorize fails; one that reaches a matrix that
    does not factorize ends at its best point so far.

    Parameters
    ----------
    X : (N, p) raw training inputs, normalized by their per-column range.
    y : (N,) training targets.
    rng : generator driving the multi-start design.
    n_starts : number of starts.
    budget : most likelihood evaluations (value and gradient) per start.
    fix_nugget : float, optional
        Pin the nugget variance (on the standardized scale) instead of
        estimating it; theta and sigma_z2 are then searched.  0.0 gives an
        interpolating model (g = 0), with sigma_z2 profiled.

    The returned model's `search` records the search: -LML at the returned
    hyperparameters, likelihood evaluations, those of them in which the
    kernel cut (CUT) zeroed an entry, failed starts, the winning
    start, the parameters at a bound or clamped to one, the jitter of the
    final factorization and the nugget share sigma_n2/(sigma_z2+sigma_n2).
    Raises ValueError on a NaN or inf input or target, naming its index,
    and LinAlgError when every start fails.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n < 2:
        raise ValueError("need at least 2 training points")
    if y.shape != (n,):
        raise ValueError("target length does not match inputs")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"target {bad[0]} is {y[bad[0]]}: targets must be finite")

    lo, hi = X.min(axis=0), X.max(axis=0)
    Xn = normalize_inputs(X, lo, hi)

    y_offset = float(y.mean())
    y_scale = float(y.std())
    if y_scale <= 1e-30 * max(1.0, abs(y_offset)):
        y_scale = 1.0
    ys = (y - y_offset) / y_scale

    D = _squared_differences(Xn)
    names = [f"theta[{d}]" for d in range(p)]
    box = [THETA_BOUNDS] * p
    keep = list(range(p))
    if fix_nugget is None:
        names.append("nugget_ratio")
        box.append(NUGGET_RATIO_BOUNDS)
        keep.append(p)
    elif fix_nugget != 0.0:
        names.append("sigma_z2")
        box.append(SIGMA_Z2_BOUNDS)
        keep.append(p + 1)
    bounds = np.log10(box)

    cut_evaluations = 0

    def count_cut():
        nonlocal cut_evaluations
        cut_evaluations += 1

    def evaluate(z):
        theta = 10.0 ** z[:p]
        if fix_nugget is None:
            return _neg_lml(D, ys, theta, None, 10.0 ** z[p], count_cut)
        if fix_nugget == 0.0:
            return _neg_lml(D, ys, theta, None, 0.0, count_cut)
        return _neg_lml(D, ys, theta, 10.0 ** z[p], fix_nugget, count_cut)

    def search(z0):
        """Best (value, z, sigma_z2) one start evaluated, or None."""
        best, used = None, 0

        def objective(z):
            nonlocal best, used
            if used == budget:
                raise _BudgetSpent
            used += 1
            value, grad, sigma_z2 = evaluate(z)
            if best is None or value < best[0]:
                best = (value, z.copy(), sigma_z2)
            return value, grad[keep]

        # L-BFGS-B checks maxfun only between iterations, so a line search
        # can overrun it; objective() enforces the budget exactly.
        try:
            minimize(objective, z0, jac=True, method="L-BFGS-B", bounds=bounds,
                     options={"maxfun": budget})
        except (np.linalg.LinAlgError, _BudgetSpent):
            pass
        return best, used

    evaluations, failed, best, best_start = 0, 0, None, -1
    for i, z0 in enumerate(latin_hypercube(n_starts, len(box), bounds, rng)):
        found, used = search(z0)
        evaluations += used
        if found is None:
            failed += 1
        elif best is None or found[0] < best[0]:
            best, best_start = found, i
    if best is None:
        raise np.linalg.LinAlgError(
            f"all {n_starts} hyperparameter starts failed: the kernel matrix "
            "at each start is not positive definite"
        )

    _, z, sigma_z2 = best
    theta = 10.0 ** z[:p]
    on_bound = [name for name, zi, (b_lo, b_hi) in zip(names, z, bounds)
                if min(zi - b_lo, b_hi - zi) <= 1e-9]
    if fix_nugget is None or fix_nugget == 0.0:
        if sigma_z2 in SIGMA_Z2_BOUNDS:
            on_bound.append("sigma_z2")
    if fix_nugget is None:
        sigma_n2 = float(np.clip(10.0 ** z[p] * sigma_z2, *SIGMA_N2_BOUNDS))
        if sigma_n2 in SIGMA_N2_BOUNDS:
            on_bound.append("sigma_n2")
    else:
        sigma_n2 = float(fix_nugget)

    try:
        L, jitter, mu, alpha = condition(Xn, ys, sigma_z2, theta, sigma_n2)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"kernel matrix is {err}") from None
    neg_lml = 0.5 * (ys - mu) @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * n * math.log(2 * math.pi)
    return KrigingModel(
        input_lo=lo,
        input_hi=hi,
        X_norm=Xn,
        y_std=ys,
        y_offset=y_offset,
        y_scale=y_scale,
        mu=mu,
        sigma_z2=float(sigma_z2),
        theta=np.asarray(theta, dtype=float),
        sigma_n2=sigma_n2,
        _L=L,
        _alpha=alpha,
        search={
            "neg_lml": float(neg_lml),
            "evaluations": evaluations,
            "cut_evaluations": cut_evaluations,
            "failed_starts": failed,
            "best_start": best_start,
            "on_bound": on_bound,
            "jitter": float(jitter),
            "nugget_share": sigma_n2 / (sigma_z2 + sigma_n2),
        },
    )
