"""Roughness-penalized least-squares projection of curves onto a basis,
GCV-driven smoothing-parameter selection on a fixed logarithmic grid, and
error-based growth of the basis count until the training-set projection
error stagnates.

The GCV curve of one basis comes from one generalized eigendecomposition
(Demmler-Reinsch; Craven & Wahba 1979, Ramsay & Silverman 2005 ch. 5).
With s = tr(H'H) / tr(R), V'(H'H + s R) V = I and V'H'H V = diag(mu); over
the mu > 0, the columns of Q = H V / sqrt(mu) are an orthonormal basis of
span(H) in which S(tau) = H (H'H + tau R)^-1 H' is diagonal, with entries
1 / (1 + tau lam), lam = (1 - mu) / (s mu).  Every tau then costs O(n_b).
Only H'H + s R must be definite, so this holds for every basis count.
"""

from __future__ import annotations

import math
import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dpotrs

from .basis import (BSPLINE, FOURIER, MIN_BSPLINE_ORDER, BasisSystem, design_matrix,
                    roughness_matrix)
from .core import cho_with_jitter

# tau grid spans 1e-6 .. 1e6; 25 points give half-decade resolution.
TAU_GRID_SIZE = 25
DEFAULT_DELTA_R = 0.05
DEFAULT_NB0 = {FOURIER: 11, BSPLINE: 8}


class SingularSystemError(np.linalg.LinAlgError):
    """Raised when the penalized normal equations H'H + tau R are singular."""


def _factor(HtH, R, tau):
    """dpotrs factor of H'H + tau R, for tau >= 0."""
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    try:
        return cho_with_jitter(HtH + tau * R)[0]
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(f"penalized normal equations are {err}") from None


def fit_coefficients(H, R, tau, centered) -> np.ndarray:
    """Penalized least-squares coefficients, one column per curve.

    Each column solves (H'H + tau R) c = H' y_c via a symmetric
    factorization; the matrix is never inverted explicitly.
    """
    return dpotrs(_factor(H.T @ H, R, tau), H.T @ np.atleast_2d(centered).T, lower=1)[0]


def gcv(tau, H, R, centered) -> float:
    """Generalized cross-validation score for one smoothing parameter.

    n / [n - trace(S(tau))]^2 times the residual sum of squares over all
    curves, with n the per-curve observation count (rows of H) and
    S(tau) = H (H'H + tau R)^-1 H'.  The trace is the effective degrees
    of freedom of one curve's smoother, so it is compared against the
    same curve's observation count.
    """
    HtH = H.T @ H
    L = _factor(HtH, R, tau)
    centered = np.atleast_2d(centered)
    C = dpotrs(L, H.T @ centered.T, lower=1)[0]
    n_obs = H.shape[0]
    sse = float(np.sum((centered.T - H @ C) ** 2))
    # trace(S(tau)) without forming the n_t x n_t smoother.
    denom = n_obs - float(np.trace(dpotrs(L, HtH, lower=1)[0]))
    if abs(denom) < _trace_guard(n_obs):
        return math.inf
    return n_obs / denom**2 * sse


def _trace_guard(n_obs: int) -> float:
    # |n - trace S| below this scores inf: the smoother interpolates.
    return 1e-12 * max(1.0, n_obs)


def _gcv_curve(grid, H, R, centered):
    """The gcv score at every tau of the grid (see the module docstring)."""
    HtH = H.T @ H
    s = np.trace(HtH) / np.trace(R) if np.trace(R) > 0.0 else 1.0
    try:
        mu, V = eigh(HtH, HtH + s * R)
    except np.linalg.LinAlgError:
        raise SingularSystemError("penalized normal equations H'H + s R are singular") from None
    # mu within rounding of 0 marks a null direction of H, which S(tau) ignores.
    keep = mu > mu.size * np.finfo(float).eps * mu.max()
    mu, V = mu[keep], V[:, keep]
    # 1 - mu within rounding of 0 marks a null direction of R, whose lam is
    # exactly 0: the rounding noise would bias the score low at large tau.
    one_minus = 1.0 - mu
    one_minus[one_minus <= H.shape[1] * np.finfo(float).eps] = 0.0
    lam = one_minus / (s * mu)
    Q = H @ (V / np.sqrt(mu))
    Y = np.atleast_2d(centered).T
    Z = Q.T @ Y
    # The out-of-span residual is summed directly: subtracting the fitted
    # part from |Y|^2 would cancel most of its digits at large n_b.
    sse_out = float(np.sum((Y - Q @ Z) ** 2))
    tl = grid[:, None] * lam[None, :]
    sse = sse_out + (tl / (1.0 + tl)) ** 2 @ np.sum(Z**2, axis=1)
    n_obs = H.shape[0]
    denom = n_obs - np.sum(1.0 / (1.0 + tl), axis=1)
    values = np.full(grid.size, math.inf)
    ok = np.abs(denom) >= _trace_guard(n_obs)
    values[ok] = n_obs / denom[ok] ** 2 * sse[ok]
    return values


def tau_grid(n_tau: int = TAU_GRID_SIZE) -> np.ndarray:
    """Logarithmic grid 10^-6 .. 10^6 with n_tau points."""
    if n_tau < 2:
        raise ValueError("need at least 2 grid points")
    i = np.arange(1, n_tau + 1)
    return 10.0 ** (-6.0 + 12.0 * (i - 1) / (n_tau - 1))


def select_tau(H, R, centered, n_tau: int = TAU_GRID_SIZE) -> float:
    """Grid minimizer of the GCV score; ties break toward smaller tau.

    The whole curve comes from one generalized eigendecomposition, for any
    basis count.  Raises SingularSystemError when H'H + s R is not definite,
    or when no grid point has a finite score (the smoother reproduces the
    curves at every tau, e.g. on no more nodes than the roughness null
    space has dimensions).
    """
    grid = tau_grid(n_tau)
    scores = _gcv_curve(grid, H, R, centered)
    if not np.isfinite(scores).any():
        raise SingularSystemError(
            f"GCV has no finite score on the tau grid for {H.shape[1]} basis functions on "
            f"{H.shape[0]} nodes: the smoother reproduces the curves at every tau")
    return float(grid[int(np.argmin(scores))])


def effective_nb(kind: str, n_b: int, order: int = MIN_BSPLINE_ORDER) -> int:
    """Usable basis count: odd (>= 3) for Fourier, >= order for B-splines."""
    if kind == FOURIER:
        n_b = max(n_b, 3)
        return n_b if n_b % 2 == 1 else n_b + 1
    return max(n_b, order)


def _mean_projection_nrmse(centered: np.ndarray, fitted: np.ndarray) -> float:
    # Zero-range (constant) centered curves are exactly representable by a
    # zero coefficient vector, so they contribute zero error.
    spans = centered.max(axis=1) - centered.min(axis=1)
    resid = np.linalg.norm(centered - fitted, axis=1)
    out = np.zeros_like(resid)
    ok = spans > 0.0
    out[ok] = resid[ok] / spans[ok]
    return float(out.mean())


def fit_basis(kind: str, n_b: int, centered: np.ndarray, nodes: np.ndarray,
              interval: tuple[float, float], order: int, n_tau: int,
              tau_override: float | None):
    """One fit of the centered curves to a basis of n_b functions on the
    interval: its design matrix H on the nodes and roughness matrix R, tau
    from the GCV grid (unless tau_override pins it), and the coefficients.

    Returns (basis, H, tau, C), with C the (n_b, N) coefficient matrix.
    """
    basis = BasisSystem(kind, n_b, *interval, order=order)
    H = design_matrix(basis, nodes)
    R = roughness_matrix(basis)
    tau = select_tau(H, R, centered, n_tau) if tau_override is None else tau_override
    return basis, H, tau, fit_coefficients(H, R, tau, centered)


def select_nb(
    kind: str,
    centered: np.ndarray,
    nodes: np.ndarray,
    interval: tuple[float, float],
    n_b0: int | None = None,
    delta_r: float = DEFAULT_DELTA_R,
    order: int = MIN_BSPLINE_ORDER,
    n_tau: int = TAU_GRID_SIZE,
    tau_override: float | None = None,
    trace: list | None = None,
):
    """Grow the basis count until the mean projection NRMSE stagnates.

    Starting from n_b0, the count is increased by k * n_b0 in round k.
    Each round is one fit_basis call, which reselects tau on the GCV grid
    (unless tau_override pins it); the round's training-set mean NRMSE is
    compared with the previous round's, and the loop stops when the
    relative change falls below delta_r.

    Parameters
    ----------
    kind : "fourier" or "bspline".
    centered : ndarray (N, n_nodes)
        Centered curves.
    nodes : ndarray
        Sample times of the curve columns.
    interval : (t0, te)
        Basis interval; may extend past the last node for periodic bases.
    trace : list, optional
        If given, one dict per round with keys n_b, tau, delta is appended.

    Returns
    -------
    (basis, H, tau, C) : the fit_basis result of the selected round.
    """
    if delta_r <= 0.0:
        raise ValueError("delta_r must be positive")
    if n_b0 is None:
        n_b0 = DEFAULT_NB0[kind]
    if n_b0 < 2:
        raise ValueError("n_b0 must be at least 2")
    nodes = np.asarray(nodes, dtype=float)
    centered = np.atleast_2d(np.asarray(centered, dtype=float))
    cap = 4 * nodes.size

    nb_raw, k, previous = n_b0, 0, None
    while True:
        nb_eff = effective_nb(kind, nb_raw, order)
        if k and nb_eff > cap:
            raise RuntimeError(
                f"basis-count selection did not converge below {cap} functions"
            )
        fit = fit_basis(kind, nb_eff, centered, nodes, interval, order, n_tau, tau_override)
        _, H, tau, C = fit
        delta = _mean_projection_nrmse(centered, (H @ C).T)
        if trace is not None:
            trace.append({"n_b": nb_eff, "tau": tau, "delta": delta})
        # A zero-error round (e.g. constant curves) has converged.
        if delta < 1e-12 or (k and abs(previous - delta) / delta < delta_r):
            return fit
        previous, k = delta, k + 1
        nb_raw += k * n_b0
