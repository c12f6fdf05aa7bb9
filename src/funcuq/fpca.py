"""Dimension reduction of curve ensembles: functional principal component
analysis, and plain PCA as the baseline.

In the functional reduction, curves are fitted to a basis by penalized
least squares, the coefficient-space covariance eigenproblem is solved by
one SVD of the Cholesky-weighted coefficients, and the leading eigenpairs
give an orthonormal set of latent functions.  Either fitter returns a
Reducer and the training curves' score vectors; a curve is rebuilt from
its scores as the mean curve plus the latent functions times the scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .basis import BSPLINE, FOURIER, MIN_BSPLINE_ORDER, BasisSystem, gram_matrix
from .core import ResponseEnsemble, TimeGrid, fit_nodes, mirror_rows
from .smoothing import DEFAULT_DELTA_R, TAU_GRID_SIZE, effective_nb, fit_basis, select_nb

VARIANCE_TARGET = 0.99


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


def _principal_axes(X: np.ndarray, Y: np.ndarray):
    """(lam, V, m, variance_fraction) of the N-row data matrix X of curves Y:
    lam = s^2 / (N-1) of X's singular values s, V the first m right singular
    vectors as columns; m = 0 and fraction 1 when the curves are identical
    (the total is roundoff at the data's scale), else select_m's count."""
    _, svals, Vt = np.linalg.svd(X, full_matrices=False)
    lam = svals**2 / (X.shape[0] - 1)
    total = lam.sum()
    scale = float(np.max(np.abs(Y))) if Y.size else 0.0
    if total <= 1e-14 * max(1.0, scale**2):
        m, fraction = 0, 1.0
    else:
        m = select_m(lam)
        fraction = float(lam[:m].sum() / total)
    return lam, Vt[:m].T.copy(), m, fraction


def _fix_signs(B: np.ndarray) -> np.ndarray:
    # Reproducible eigenvector orientation: largest-magnitude entry positive.
    peaks = B[np.argmax(np.abs(B), axis=0), np.arange(B.shape[1])]
    B[:, peaks < 0] *= -1.0
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
        Spectrum, sorted descending, nonnegative: min(N, n_b) entries for a
        functional reduction of N curves, min(N, n_t) for PCA.
    m : int
        Retained latent dimension.
    variance_fraction : float
    basis : BasisSystem or None
        Basis of a functional reduction; None for PCA.
    tau : float or None
        Smoothing parameter of a functional reduction; None for PCA.
    mirror : bool or None
        Whether a functional reduction fitted mirror_rows' curves; None for PCA.
    B : ndarray (n_b, m) or None
        Basis coordinates of phi on the fitted nodes (B' W B = I), from which
        phi is rebuilt; None for PCA.
    """

    grid: TimeGrid
    mean_curve: np.ndarray
    phi: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray
    m: int
    variance_fraction: float
    basis: BasisSystem | None = None
    tau: float | None = None
    mirror: bool | None = None
    B: np.ndarray | None = field(default=None, repr=False)


def fit_reducer(
    ensemble: ResponseEnsemble,
    kind: str = BSPLINE,
    order: int = MIN_BSPLINE_ORDER,
    n_b0: int | None = None,
    delta_r: float = DEFAULT_DELTA_R,
    n_tau: int = TAU_GRID_SIZE,
    tau_override: float | None = None,
    mirror: bool | None = None,
    nb_override: int | None = None,
    nb_trace: list | None = None,
):
    """Fit a functional reducer to an ensemble.

    Centers the curves, selects the basis count and smoothing parameter,
    fits coefficients C, and solves the covariance eigenproblem
    (N-1)^-1 W^(1/2) C C' W^(1/2) u = lambda u through the SVD of C' L,
    W = L L' the Gram matrix's Cholesky factorization, retaining enough
    latent functions to cover 99% of the variance.

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
        basis, H, tau, C = fit_basis(
            kind, effective_nb(kind, nb_override, order), centered, nodes, interval,
            order, n_tau, tau_override,
        )
    else:
        basis, H, tau, C = select_nb(
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

    W = gram_matrix(basis)
    try:
        L = np.linalg.cholesky(W)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("Gram matrix is numerically singular (redundant basis)") from exc
    # With W^(1/2) = Q L' (Q orthogonal), X'X = L' C C' L is similar to
    # W^(1/2) C C' W^(1/2): eigenvectors u = Q v, and B = W^(-1/2) u = L^-T v.
    lam, V, m, variance_fraction = _principal_axes(C.T @ L, Y)
    B = _fix_signs(solve_triangular(L, V, trans="T", lower=True))
    scores = (B.T @ (W @ C)).T

    reducer = Reducer(
        grid=grid,
        mean_curve=mean_fit[: grid.n_t],
        phi=(H @ B)[: grid.n_t],
        eigenvalues=lam,
        m=m,
        variance_fraction=variance_fraction,
        basis=basis,
        tau=float(tau),
        mirror=bool(mirror),
        B=B,
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
    lam, V, m, variance_fraction = _principal_axes(centered, Y)
    components = _fix_signs(V)
    scores = centered @ components
    reducer = Reducer(
        grid=ensemble.grid,
        mean_curve=mean_curve,
        phi=components,
        eigenvalues=lam,
        m=m,
        variance_fraction=variance_fraction,
    )
    return reducer, scores
