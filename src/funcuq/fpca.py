"""Functional principal component analysis of curve ensembles.

Curves are projected onto a basis by penalized least squares, the
coefficient-space covariance eigenproblem is symmetrized through the Gram
matrix square root, and the leading eigenpairs give an orthonormal set of
latent functions.  A fitted reducer maps curves to low-dimensional score
vectors and back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .basis import BSPLINE, FOURIER, BasisSystem, design_matrix, gram_matrix, roughness_matrix
from .core import ResponseEnsemble, TimeGrid, mirror_periodic, mirror_rows
from .smoothing import PenalizedSolver, effective_nb, select_nb, select_tau

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


@dataclass
class FunctionalReducer:
    """Fitted dimension-reduction state for curve ensembles.

    Attributes
    ----------
    grid : TimeGrid
        Grid of the original curves.
    basis : BasisSystem
    tau : float
        Smoothing parameter used for the coefficient fits.
    mirror : bool
        Whether curves are reflected to a full period before fitting
        (used with Fourier bases on non-periodic data).
    mean_curve : ndarray (n_t,)
    B : ndarray (n_b, m)
        Basis coordinates of the retained latent functions; B' W B = I.
    eigenvalues : ndarray (n_b,)
        Full spectrum, sorted descending, nonnegative.
    m : int
        Retained latent dimension.
    variance_fraction : float
    """

    grid: TimeGrid
    basis: BasisSystem
    tau: float
    mirror: bool
    mean_curve: np.ndarray
    H: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray
    m: int
    variance_fraction: float
    _solver: PenalizedSolver = field(repr=False)

    @property
    def kind(self) -> str:
        return self.basis.kind

    @property
    def _fit_mean(self) -> np.ndarray:
        return mirror_periodic(self.mean_curve) if self.mirror else self.mean_curve

    def basis_curves(self) -> np.ndarray:
        """Latent functions sampled on the original grid; shape (n_t, m)."""
        return (self.H @ self.B)[: self.grid.n_t]

    def project(self, y_star) -> np.ndarray:
        """Score vector of a new curve on the reducer's grid."""
        y_star = np.asarray(y_star, dtype=float)
        if y_star.shape != (self.grid.n_t,):
            raise ValueError(f"expected curve of length {self.grid.n_t}")
        z = mirror_periodic(y_star) if self.mirror else y_star
        c = self._solver.coefficients_single(z - self._fit_mean)
        return self.B.T @ (self.W @ c)

    def project_rows(self, curves) -> np.ndarray:
        curves = np.atleast_2d(np.asarray(curves, dtype=float))
        z = mirror_rows(curves) if self.mirror else curves
        C = self._solver.coefficients(z - self._fit_mean)
        return (self.B.T @ (self.W @ C)).T

    def reconstruct(self, xi) -> np.ndarray:
        """Curve on the original grid from a score vector."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.m,):
            raise ValueError(f"expected score vector of length {self.m}")
        return self.mean_curve + self.basis_curves() @ xi


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
    (reducer, scores) : FunctionalReducer and the (N, m) training scores.
    """
    if ensemble.n < 2:
        raise ValueError("need at least 2 curves")
    if mirror is None:
        mirror = kind == FOURIER
    grid = ensemble.grid
    Y = mirror_rows(ensemble.responses) if mirror else ensemble.responses
    if mirror:
        n_fit = 2 * grid.n_t - 2
        nodes = grid.t0 + grid.dt * np.arange(n_fit)
        interval = (grid.t0, grid.t0 + 2.0 * grid.span)
    else:
        nodes = grid.nodes
        interval = (grid.t0, grid.te)
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

    solver = PenalizedSolver(H, R, tau)
    C = solver.coefficients(centered)
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

    mean_curve = mean_fit[: grid.n_t]
    reducer = FunctionalReducer(
        grid=grid,
        basis=sys,
        tau=float(tau),
        mirror=mirror,
        mean_curve=mean_curve,
        H=H,
        W=W,
        B=B,
        eigenvalues=lam,
        m=m,
        variance_fraction=variance_fraction,
        _solver=solver,
    )
    return reducer, scores
