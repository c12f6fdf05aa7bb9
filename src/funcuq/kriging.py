"""Ordinary Kriging with a homoscedastic nugget: Gaussian kernel,
marginal-likelihood hyperparameter estimation by a gradient search with the
mean and the process variance profiled out, and mean/variance prediction.

Inputs are mapped to the unit hypercube and targets standardized before
fitting; the hyperparameter search ranges assume that scaling.

The search is L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995): each start is one
_lbfgsb loop over scipy's reverse-communication routine setulb with
scipy.optimize.minimize's defaults.  It evaluates the points minimize
would, bit for bit, without minimize's per-evaluation wrappers, and itself
holds the start to its budget, keeps its best point and names its stop.
setulb is private to scipy; its signature here is that of scipy 1.15 and
later.

Every Gaussian kernel of the layer, in the search's likelihood,
conditioning, the log likelihood and prediction, is exp(-theta.D) with
theta.D one GEMV over the C-ordered squared differences D of
_squared_differences, so it has the same bits wherever it is built.  The
search's likelihood takes its gradient from one triangle of the inverse
kernel matrix, as dpotri and a rank-one dsyr update leave it.

The search sweeps log10 theta across its whole box.  At large theta most
kernel entries exp(-theta.D) fall into the subnormal range or just above it,
where exp, dpotrf and dpotri take the processor's slow path and one
evaluation can take five times as long.  So the search's likelihood sets
every entry whose exponent theta.D exceeds CUT to exactly 0.0 and counts
the evaluations where it did.  exp(-CUT) is about 3.7e-44, far below eps^2
next to the unit diagonal, so no rounded value changes.  Conditioning and
prediction build the kernel without the cut.  Prediction (predict_stack)
builds the cross-kernels of every model that shares a training design from
one set of squared differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize._lbfgsb import setulb
from scipy.optimize._lbfgsb_py import status_messages, task_messages

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
# The stop message of a start that spent its budget, in minimize's words.
BUDGET_STOP = f"{status_messages[5]}: {task_messages[502]}"
# Rows per chunk of predict_stack.  Fixed, never a function of the model
# count, so that a model's predictions have the same bits alone or in a
# stack.  The chunk's scratch, (p + m) N PREDICT_ROWS doubles, is 1.7 MB
# for 13 models on 100 training points in 4 dimensions.
PREDICT_ROWS = 128


def log_marginal_likelihood(X, y, mu, sigma_z2, theta, sigma_n2) -> float:
    """Marginal log likelihood of targets y at inputs X.

    -(1/2) r' A^-1 r - (1/2) ln|A| - (N/2) ln(2 pi) with A = K + sigma_n2 I
    and r = y - mu, from condition()'s factor.  Returns -inf when A does
    not factorize without jitter; raises ValueError on a NaN or inf in A.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    try:
        L, jitter, _, alpha = condition(_squared_differences(X), y, sigma_z2, theta, sigma_n2, mu)
    except np.linalg.LinAlgError:
        return -math.inf
    if jitter > 0.0:
        return -math.inf
    return float(
        -0.5 * (y - mu) @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * y.size * math.log(2 * math.pi)
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
    scale (times y_scale**2 on the original target scale).  `search` holds
    fit_kriging's search record; it is empty for a model rebuilt from a
    file.
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

    def predict_batch(self, X_star, with_var: bool = True):
        """Predictive means (and variances) at raw input rows: predict_stack
        of this model alone.

        Variance is k(x*,x*) - k' A^-1 k on the standardized scale,
        clamped at zero from below, then rescaled by the target variance.
        """
        Xn = normalize_inputs(X_star, self.input_lo, self.input_hi)
        means, var = predict_stack([self], Xn, with_var)
        return means[:, 0], None if var is None else var[:, 0]


def condition(D, y_std, sigma_z2, theta, sigma_n2, mu=None):
    """(L, jitter, mu, alpha) of A = K + sigma_n2 I on the training design
    whose _squared_differences are D, with K the one-model
    _stacked_kernels: cho_with_jitter's factor and jitter (its errors pass
    through), mu as given or, when None, the GLS mean
    (1' A^-1 y) / (1' A^-1 1), and alpha = A^-1 (y - mu)."""
    n = y_std.size
    A = _stacked_kernels(D, np.asarray(theta, dtype=float).reshape(1, -1),
                         np.array([sigma_z2], dtype=float)).reshape(n, n)
    A.flat[:: n + 1] += sigma_n2
    L, jitter = cho_with_jitter(A)
    if mu is None:
        ones = np.ones_like(y_std)
        w = dpotrs(L, ones, lower=1)[0]
        mu = float(w @ y_std / (w @ ones))
    return L, jitter, mu, dpotrs(L, y_std - mu, lower=1)[0]


def predict_stack(models, Xn, with_var: bool = True):
    """Predictive means and variances, each (len(Xn), len(models)), of
    KrigingModels that share one X_norm, at normalized rows Xn; the
    variances are None when with_var is False.

    The rows go in chunks of PREDICT_ROWS.  Per chunk, _stacked_kernels
    builds every model's cross-kernel from one set of squared differences,
    one batched matmul contracts each with its alpha, and the variance
    path solves dpotrs per model on its slice of the same buffer.  Every
    step is per model or elementwise and the chunks do not depend on the
    model count, so a model's column has the same bits alone or in any
    stack.
    """
    n, m = Xn.shape[0], len(models)
    means = np.empty((n, m))
    var = np.empty((n, m)) if with_var else None
    if m == 0:
        return means, var
    X_norm = models[0].X_norm
    theta = np.array([mod.theta for mod in models])
    sigma_z2 = np.array([mod.sigma_z2 for mod in models])
    alpha = np.array([mod._alpha for mod in models])[:, None, :]
    N, rows = X_norm.shape[0], min(n, PREDICT_ROWS)
    D_buf, K_buf = np.empty(X_norm.size * rows), np.empty(m * N * rows)
    for start in range(0, n, PREDICT_ROWS):
        stop = min(start + PREDICT_ROWS, n)
        D = _squared_differences(X_norm, Xn[start:stop], D_buf)
        K = _stacked_kernels(D, theta, sigma_z2, K_buf).reshape(m, N, stop - start)
        means[start:stop] = np.matmul(alpha, K)[:, 0].T
        if with_var:
            for k, mod in enumerate(models):
                solved = dpotrs(mod._L, K[k], lower=1)[0]
                var[start:stop, k] = sigma_z2[k] - np.einsum("ij,ij->j", K[k], solved)
    means += [mod.mu for mod in models]
    y_scale = np.array([mod.y_scale for mod in models])
    means *= y_scale
    means += [mod.y_offset for mod in models]
    if with_var:
        np.clip(var, 0.0, None, out=var)
        var *= y_scale**2
    return means, var


def _stacked_kernels(D, theta, sigma_z2, out=None):
    """(m, D.shape[1]) Gaussian kernels sigma_z2[k] exp(-theta[k].D) for the
    m rows of theta, on squared differences D from _squared_differences,
    built in the leading entries of the flat buffer `out` when one is given.

    Each exponent -theta[k].D is its own GEMV, as theta.D is in the
    search's likelihood: a GEMM row across the models would differ from the
    same model's GEMV in its last bits (FMA).  exp and the sigma_z2 scale
    then run once over the whole stack.
    """
    m, size = theta.shape[0], D.shape[1]
    K = np.empty((m, size)) if out is None else out[: m * size].reshape(m, size)
    neg_theta = -theta
    for k in range(m):
        np.matmul(neg_theta[k], D, out=K[k])
    np.exp(K, out=K)
    K *= sigma_z2[:, None]
    return K


def _squared_differences(A, B=None, out=None):
    """(p, len(A) * len(B)) per-dimension squared differences
    (a_id - b_jd)^2 between the rows of A and of B (default A), C-ordered:
    row d is the flattened (len(A), len(B)) matrix D_d.  Built in the
    leading entries of the flat buffer `out` when one is given.  Every
    kernel of the layer is a GEMV over this one layout."""
    AT = A.T
    BT = AT if B is None else B.T
    shape = (AT.shape[0], AT.shape[1], BT.shape[1])
    D = np.empty(shape) if out is None else out[: math.prod(shape)].reshape(shape)
    np.subtract(AT[:, :, None], BT[:, None, :], out=D)
    np.square(D, out=D)
    return D.reshape(shape[0], -1)


def _neg_lml(D, y, theta, sigma_z2, nugget, on_cut=None, ones_y=None):
    """-LML of targets y under the GLS mean, its gradient in log10 of
    (theta_1..theta_p, sigma_n2, sigma_z2) at fixed mu, and sigma_z2.

    With sigma_z2=None the nugget is the ratio g = sigma_n2 / sigma_z2 and
    sigma_z2 is profiled out: clip(r'C^-1 r / N, SIGMA_Z2_BOUNDS) with
    C = E + g I, E = exp(-sum_d theta_d D_d).  Otherwise the nugget is
    sigma_n2 and A = sigma_z2 E + sigma_n2 I.  One Cholesky factorization
    serves the value and the gradient; LinAlgError when it fails.  ones_y
    is column_stack([1, y]), which the search passes in once instead of
    every call building it.

    Entries of E whose exponent exceeds CUT are set to exactly 0.0, and
    on_cut() is called when any is.  Such an entry is below 3.7e-44 and
    changes no rounded value next to the unit diagonal, while entries in
    or near the subnormal range make exp, dpotrf and dpotri several times
    slower.  Where every off-diagonal entry is cut, the theta gradient is
    exactly 0.0 instead of a number below about 1e-40.

    Gradient entry psi is (ln 10 / 2) tr(Q dA/d ln psi), Q = A^-1 - alpha
    alpha', alpha = A^-1 r (Rasmussen & Williams 2006, eq. 5.9), with
    dA/d ln theta_d = -theta_d K_A o D_d, dA/d ln sigma_n2 = sigma_n2 I and
    dA/d ln sigma_z2 = K_A for the kernel part K_A of A.  The GLS mean is
    stationary, so it adds no term (envelope theorem).  Here A = s M with
    M = K + nugget I and K = scale E, so Q = P / s for P = M^-1 - beta
    beta' / s, beta = M^-1 r, and the entries are -theta_d sum(P o K o D_d),
    nugget tr P and sum(P o K).  P is read from one triangle: dpotri and
    dsyr leave U = tril(P) in the factor's buffer, and W = U' o K (U' its
    C-ordered transpose view) overwrites K.  As D_d is symmetric with a
    zero diagonal and diag(K) = scale, sum(P o K o D_d) = 2 sum(W o D_d),
    sum(P o K) = 2 sum(W) - scale tr U and tr P = tr U.

    Two N x N arrays per call: K (theta.D, then E, K and W) and dpotrf's
    Fortran-ordered copy of M (L, then M^-1, then U).
    """
    n, p = y.size, theta.size
    E = (-theta) @ D
    if E.min() < -CUT:
        # exp at exponents clamped to -CUT stays on the fast path; the mask
        # then zeroes the cut entries and keeps the others' bits.
        keep = E >= -CUT
        np.maximum(E, -CUT, out=E)
        np.exp(E, out=E)
        E *= keep
        if on_cut is not None:
            on_cut()
    else:
        np.exp(E, out=E)
    K = E.reshape(n, n)
    scale = 1.0
    if sigma_z2 is not None:
        scale = sigma_z2
        K *= scale
    # dpotrf factors a Fortran-ordered copy of M = K + nugget I, so the
    # nugget stays on K's diagonal for that call only: K_ii = scale exp(0).
    diag = K.ravel()[:: n + 1]
    diag += nugget
    L, info = dpotrf(K, lower=1, clean=1)
    diag[:] = scale
    if info != 0:
        raise np.linalg.LinAlgError("kernel matrix is not positive definite")
    if ones_y is None:
        ones_y = np.column_stack([np.ones(n), y])
    w, v = dpotrs(L, ones_y, lower=1)[0].T
    mu = float(w @ y / w.sum())
    r = y - mu
    beta = v - mu * w  # M^-1 r
    quad = float(r @ beta)
    # A = s M: s is the profiled sigma_z2, or 1 when M is already A.
    s = min(max(quad / n, SIGMA_Z2_BOUNDS[0]), SIGMA_Z2_BOUNDS[1]) if sigma_z2 is None else 1.0
    logdet = n * math.log(s) + 2.0 * np.sum(np.log(L.ravel(order="K")[:: n + 1]))
    value = 0.5 * quad / s + 0.5 * logdet + 0.5 * n * math.log(2 * math.pi)
    # clean=1 zeroed the upper triangle; dpotri and dsyr fill the lower one.
    U = dsyr(-1.0 / s, beta, a=dpotri(L, lower=1, overwrite_c=1)[0], lower=1, overwrite_a=1)
    trace = U.ravel(order="K")[:: n + 1].sum()
    W = np.multiply(U.T, K, out=K)
    grad = np.empty(p + 2)
    np.multiply(theta, D @ W.ravel(), out=grad[:p])
    grad[:p] *= -2.0
    grad[p], grad[p + 1] = nugget * trace, 2.0 * W.sum() - scale * trace
    grad *= 0.5 * math.log(10.0)
    if not (math.isfinite(value) and np.isfinite(grad).all()):
        raise np.linalg.LinAlgError("non-finite likelihood")
    return value, grad, s * scale


def _lbfgsb(fun, x0, bounds, budget: int):
    """One L-BFGS-B start of at most `budget` evaluations of fun, driven
    through scipy's reverse-communication routine setulb.

    bounds is a finite (n, 2) box; fun(x) returns (value, gradient, info),
    and may keep its x, a copy, but not change it.  The loop keeps
    minimize's defaults and rules: x0 clipped into the box, a stop after
    maxiter iterations, and a point that setulb requests twice in a row
    evaluated once, its (value, gradient) reused.  So fun sees the points
    minimize would, bit for bit.  Before it evaluates a new point the loop
    stops with BUDGET_STOP once `budget` evaluations are spent, and a
    LinAlgError of fun, which counts as an evaluation, stops it with its
    text.  Returns (value, x, info) of the lowest value evaluated (the
    first on a tie), or None; the evaluation count; and why it stopped, in
    minimize's words.
    """
    # minimize's defaults: stored corrections, ftol (factr = ftol / eps),
    # pgtol, line-search steps and iterations.
    m, ftol, pgtol, maxls, maxiter = 10, 2.2204460492503131e-09, 1e-5, 20, 15000
    n = x0.size
    lo, hi = np.ascontiguousarray(bounds.T)
    x = np.clip(x0, lo, hi)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    both = np.full(n, 2, np.int32)  # setulb's code for a variable bounded on both sides
    factr = ftol / np.finfo(float).eps
    f, g, last, best, nfev, nit = 0.0, np.zeros(n), None, None, 0, 0
    while True:
        setulb(m, x, lo, hi, both, f, g, factr, pgtol, wa, iwa, task, lsave, isave, dsave,
               maxls, ln_task)
        if task[0] == 3:  # FG: the value and gradient at x
            if last is None or not np.array_equal(x, last):
                if nfev == budget:
                    return best, nfev, BUDGET_STOP
                last = x.copy()
                nfev += 1
                try:
                    f, grad, info = fun(last)
                except np.linalg.LinAlgError as err:
                    return best, nfev, str(err)
                if best is None or f < best[0]:
                    best = (f, last, info)
            g = grad.copy()  # setulb overwrites g; a reused gradient stays intact
        elif task[0] == 1:  # NEW_X: an iteration ended
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504  # STOP: the iteration limit
        else:
            return best, nfev, f"{status_messages[task[0]]}: {task_messages[task[1]]}"


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
    log10 boxes from n_starts Latin-hypercube starts, one _lbfgsb call
    each.  A start ends at convergence or a failed line search, at its
    budget or at a kernel matrix that does not factorize, and keeps its
    best point so far; one whose first kernel matrix does not factorize
    fails.

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
    start, why each start stopped (`stops`: minimize's message, e.g.
    "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL" or "ABNORMAL: " for
    a failed line search, BUDGET_STOP, or the error of a kernel matrix
    that did not factorize), the parameters at a bound or clamped to one,
    the jitter of the final factorization and the nugget share
    sigma_n2/(sigma_z2+sigma_n2).
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
    # The gradient entries the search moves, as an index array built once.
    bounds, keep = np.log10(box), np.array(keep)

    cut_evaluations = 0

    def count_cut():
        nonlocal cut_evaluations
        cut_evaluations += 1

    ones_y = np.column_stack([np.ones(n), ys])

    def evaluate(z):
        theta = 10.0 ** z[:p]
        if fix_nugget is None:
            scale_nugget = None, 10.0 ** z[p]
        elif fix_nugget == 0.0:
            scale_nugget = None, 0.0
        else:
            scale_nugget = 10.0 ** z[p], fix_nugget
        value, grad, sigma_z2 = _neg_lml(D, ys, theta, *scale_nugget, count_cut, ones_y)
        return value, grad[keep], sigma_z2

    evaluations, failed, best, best_start, stops = 0, 0, None, -1, []
    for i, z0 in enumerate(latin_hypercube(n_starts, len(box), bounds, rng)):
        found, used, stop = _lbfgsb(evaluate, z0, bounds, budget)
        evaluations += used
        stops.append(stop)
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
        L, jitter, mu, alpha = condition(D, ys, sigma_z2, theta, sigma_n2)
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
            "stops": stops,
            "on_bound": on_bound,
            "jitter": float(jitter),
            "nugget_share": sigma_n2 / (sigma_z2 + sigma_n2),
        },
    )
