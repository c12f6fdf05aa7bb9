"""Fourier and B-spline basis systems over an interval, with the three
structural matrices used throughout the pipeline: the evaluation matrix H,
the roughness matrix R of integrated squared second derivatives, and the
Gram matrix W of basis inner products.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.interpolate import BSpline

FOURIER = "fourier"
BSPLINE = "bspline"
# Cubic, the lowest B-spline order with nonzero piecewise second derivatives.
MIN_BSPLINE_ORDER = 4

# 5-point Gauss-Legendre per knot interval: exact for polynomial integrands
# up to degree 9, which covers products of cubic splines.
_GL_POINTS = 5


class BasisSystem:
    """An immutable Fourier or B-spline basis on [t0, te].

    Fourier uses the orthonormal convention (constant 1/sqrt(T), then
    sqrt(2/T) sin/cos pairs of increasing frequency), so its Gram matrix is
    the identity.  B-splines use uniform clamped knots and default to
    MIN_BSPLINE_ORDER (cubic).
    """

    def __init__(self, kind: str, n_b: int, t0: float, te: float, order: int = MIN_BSPLINE_ORDER):
        if kind not in (FOURIER, BSPLINE):
            raise ValueError(f"unknown basis kind {kind!r}")
        if not te > t0:
            raise ValueError("te must exceed t0")
        if kind == FOURIER:
            if n_b < 3 or n_b % 2 == 0:
                raise ValueError(f"Fourier basis count must be odd and >= 3, got {n_b}")
        else:
            if order < MIN_BSPLINE_ORDER:
                raise ValueError(f"B-spline order must be >= {MIN_BSPLINE_ORDER}, got {order}")
            if n_b < order:
                raise ValueError(f"need at least {order} B-splines, got {n_b}")
        self.kind = kind
        self.n_b = int(n_b)
        self.t0 = float(t0)
        self.te = float(te)
        self.order = int(order)

    @property
    def span(self) -> float:
        return self.te - self.t0

    @cached_property
    def knots(self) -> np.ndarray:
        """Full clamped knot vector (B-spline only)."""
        if self.kind != BSPLINE:
            raise ValueError("Fourier systems have no knots")
        k = self.order
        breakpoints = np.linspace(self.t0, self.te, self.n_b - k + 2)
        return np.concatenate(
            [np.full(k - 1, self.t0), breakpoints, np.full(k - 1, self.te)]
        )

    @cached_property
    def _spline(self) -> BSpline:
        # One vector-valued spline whose coefficient matrix is the identity:
        # evaluating it yields all basis values at once.
        return BSpline(self.knots, np.eye(self.n_b), self.order - 1, extrapolate=True)

    def _check_inside(self, t: np.ndarray) -> None:
        tol = 1e-12 * max(1.0, abs(self.t0), abs(self.te))
        if np.any(t < self.t0 - tol) or np.any(t > self.te + tol):
            raise ValueError(f"evaluation point outside [{self.t0}, {self.te}]")

    def evaluate(self, t) -> np.ndarray:
        """Basis values at the points t; shape (len(t), n_b)."""
        return self._evaluate(t, 0)

    def evaluate_d2(self, t) -> np.ndarray:
        """Second derivatives of all basis functions at t; shape (len(t), n_b)."""
        return self._evaluate(t, 2)

    def _evaluate(self, t, nu: int) -> np.ndarray:
        """The nu-th derivatives (nu 0 or 2) of all basis functions at t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_inside(t)
        if self.kind == BSPLINE:
            spline = self._spline.derivative(nu) if nu else self._spline
            return spline(np.clip(t, self.t0, self.te))
        T = self.span
        omega = 2.0 * np.pi / T
        out = np.empty((t.size, self.n_b))
        out[:, 0] = 0.0 if nu else 1.0 / np.sqrt(T)
        amp = np.sqrt(2.0 / T)
        for k in range(1, (self.n_b - 1) // 2 + 1):
            # Twice differentiated, sin and cos(k omega t) gain -(k omega)^2.
            scale = -(k * omega) ** 2 * amp if nu else amp
            out[:, 2 * k - 1] = scale * np.sin(k * omega * t)
            out[:, 2 * k] = scale * np.cos(k * omega * t)
        return out


def design_matrix(sys: BasisSystem, grid) -> np.ndarray:
    """H[i, j] = eta_j(t_i) on the grid nodes (TimeGrid or node array)."""
    nodes = grid.nodes if hasattr(grid, "nodes") else np.asarray(grid, dtype=float)
    return sys.evaluate(nodes)


def _quadrature_nodes(sys: BasisSystem):
    """Gauss-Legendre nodes/weights over each distinct knot interval."""
    edges = np.unique(sys.knots)
    x, w = np.polynomial.legendre.leggauss(_GL_POINTS)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def roughness_matrix(sys: BasisSystem) -> np.ndarray:
    """R[i, j] = integral of D2 eta_i * D2 eta_j over the interval.

    Diagonal in closed form for Fourier; exact Gauss-Legendre quadrature
    per knot interval for B-splines.
    """
    if sys.kind == FOURIER:
        omega = 2.0 * np.pi / sys.span
        diag = np.zeros(sys.n_b)
        for k in range(1, (sys.n_b - 1) // 2 + 1):
            diag[2 * k - 1] = diag[2 * k] = (k * omega) ** 4
        return np.diag(diag)
    pts, wts = _quadrature_nodes(sys)
    D2 = sys.evaluate_d2(pts)
    return D2.T @ (wts[:, None] * D2)


def gram_matrix(sys: BasisSystem) -> np.ndarray:
    """W[i, j] = integral of eta_i * eta_j; identity for orthonormal Fourier."""
    if sys.kind == FOURIER:
        return np.eye(sys.n_b)
    pts, wts = _quadrature_nodes(sys)
    E = sys.evaluate(pts)
    W = E.T @ (wts[:, None] * E)
    return 0.5 * (W + W.T)
