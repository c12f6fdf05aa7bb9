"""Reference dynamical systems solved by fixed-step Runge-Kutta: a Duffing
oscillator with cubic stiffness and a Bouc-Wen hysteretic oscillator under
a fixed random-series excitation, plus Latin-hypercube dataset generation
with optional additive output noise.

The excitation costs more than the rest of a right-hand side (three
transcendentals per row for Duffing, a 150-term series for Bouc-Wen), so
each solver call keeps its last (t, forcing) pair and evaluates the
excitation again only when the stage time changes.  RK4's k2 and k3 share
t + h/2, and a substep's t + h is most often the next substep's t bit for
bit: on either model's 401-node grid at 4 substeps that is 3,508
evaluations for 6,400 right-hand-side calls.  The cubes are products
(y2 * y, and |z|**2 * |z| for n = 3): numpy's power of a negative base to
the third takes a scalar path, over 20 times slower than a product, and it
rounds differently from the positive path, while a product rounds the
same way on every host.
"""

from __future__ import annotations

import numpy as np

from .core import ResponseEnsemble, TimeGrid, latin_hypercube, make_rng

DUFFING = "duffing"
BOUCWEN = "boucwen"

# Grid step is subdivided inside the integrator; 4 is enough to put the
# Duffing reference solutions below 1e-6 step error.
DEFAULT_SUBSTEPS = 4

DUFFING_GRID = TimeGrid(0.0, 2.0, 401)
DUFFING_NAMES = ("alpha", "beta", "c", "y0")
DUFFING_BOUNDS = ((0.6, 1.4), (1.5, 2.5), (0.6, 1.4), (-1e-4, 0.0))
# Fixed Duffing constants: mass, linear/quadratic/cubic stiffness.
DUFFING_M = 1.0
DUFFING_K = 1e4
DUFFING_K2 = 1e7
DUFFING_K3 = 5e9

BOUCWEN_GRID = TimeGrid(0.0, 16.0, 401)
BOUCWEN_NAMES = ("m", "c", "k", "alpha", "y0")
BOUCWEN_BOUNDS = ((4e4, 8e4), (8e4, 1.2e5), (4e6, 6e6), (0.1, 0.3), (-0.02, 0.02))
# Fixed hysteresis shape parameters; the exponent n is 3.
BOUCWEN_A = 1.0
BOUCWEN_BETA = 7.8e3
BOUCWEN_GAMMA = 7.8e3
BOUCWEN_SERIES_TERMS = 150
# The excitation series coefficients are drawn once from this fixed seed so
# the force is identical across every train/test dataset.
BOUCWEN_EXCITATION_SEED = 24601

MODEL_GRIDS = {DUFFING: DUFFING_GRID, BOUCWEN: BOUCWEN_GRID}
MODEL_NAMES = {DUFFING: DUFFING_NAMES, BOUCWEN: BOUCWEN_NAMES}
MODEL_BOUNDS = {DUFFING: DUFFING_BOUNDS, BOUCWEN: BOUCWEN_BOUNDS}


def rk4_integrate(f, y0, grid: TimeGrid, substeps: int = DEFAULT_SUBSTEPS):
    """Classical fixed-step 4th-order Runge-Kutta sampled at grid nodes.

    The state may carry leading batch dimensions; f(t, y) must return an
    array of the same shape.  Each grid step is subdivided into substeps
    equal internal steps.

    Returns an array of shape (n_t,) + y0.shape.
    """
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    y = np.array(y0, dtype=float)
    out = np.empty((grid.n_t,) + y.shape)
    out[0] = y
    h = grid.dt / substeps
    for j in range(1, grid.n_t):
        base = (j - 1) * substeps
        for s in range(substeps):
            t = grid.t0 + (base + s) * h
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise FloatingPointError(f"non-finite state at grid step {j}")
        out[j] = y
    return out


def _per_stage_time(excitation, *args):
    """t -> excitation(t, *args), evaluated again only when t differs from
    the last call's."""
    last_t, last_value = None, None

    def at(t):
        nonlocal last_t, last_value
        if t != last_t:
            last_t, last_value = t, excitation(t, *args)
        return last_value

    return at


def duffing_excitation(t, alpha, beta):
    """alpha cos(beta t) + sin((beta + 3) t) + sin(2 beta t)."""
    return alpha * np.cos(beta * t) + np.sin((beta + 3.0) * t) + np.sin(2.0 * beta * t)


def duffing_batch(params, grid: TimeGrid = DUFFING_GRID,
                  substeps: int = DEFAULT_SUBSTEPS):
    """Displacement curves for rows of (alpha, beta, c, y0); shape (n, n_t)."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    alpha, beta, c, y0 = params.T
    forcing = _per_stage_time(duffing_excitation, alpha, beta)

    def rhs(t, state):
        y, v = state[..., 0], state[..., 1]
        y2 = y * y
        out = np.empty_like(state)
        out[..., 0] = v
        out[..., 1] = (
            forcing(t) - c * v - DUFFING_K * y - DUFFING_K2 * y2 - DUFFING_K3 * (y2 * y)
        ) / DUFFING_M
        return out

    state0 = np.stack([y0, np.zeros_like(y0)], axis=-1)
    traj = rk4_integrate(rhs, state0, grid, substeps)
    return traj[:, :, 0].T


def boucwen_excitation_coeffs(seed: int = BOUCWEN_EXCITATION_SEED):
    """The fixed standard-normal series coefficients (2 x 150 values)."""
    return make_rng(seed).standard_normal(2 * BOUCWEN_SERIES_TERMS)


def boucwen_excitation(t, m, theta):
    """-sqrt(0.006 pi m) sum_k [theta_k cos(0.1 pi k t) + theta_{150+k} sin(.)]."""
    k = np.arange(1, BOUCWEN_SERIES_TERMS + 1)
    phase = 0.1 * np.pi * k * t
    series = theta[:BOUCWEN_SERIES_TERMS] @ np.cos(phase) + theta[
        BOUCWEN_SERIES_TERMS:
    ] @ np.sin(phase)
    return -np.sqrt(0.006 * np.pi * m) * series


def boucwen_batch(params, grid: TimeGrid = BOUCWEN_GRID,
                  substeps: int = DEFAULT_SUBSTEPS, theta=None):
    """Displacement curves for rows of (m, c, k, alpha, y0); shape (n, n_t)."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    m, c, k, alpha, y0 = params.T
    if theta is None:
        theta = boucwen_excitation_coeffs()
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2 * BOUCWEN_SERIES_TERMS,):
        raise ValueError(f"need {2 * BOUCWEN_SERIES_TERMS} excitation coefficients")
    forcing = _per_stage_time(boucwen_excitation, m, theta)

    def rhs(t, state):
        y, v, z = state[..., 0], state[..., 1], state[..., 2]
        az = np.abs(z)
        az2 = az * az
        out = np.empty_like(state)
        out[..., 0] = v
        out[..., 1] = (forcing(t) - c * v - k * (alpha * y + (1.0 - alpha) * z)) / m
        out[..., 2] = (
            BOUCWEN_A * v
            - BOUCWEN_BETA * np.abs(v) * az2 * z
            - BOUCWEN_GAMMA * v * (az2 * az)
        )
        return out

    state0 = np.stack([y0, np.zeros_like(y0), np.zeros_like(y0)], axis=-1)
    traj = rk4_integrate(rhs, state0, grid, substeps)
    return traj[:, :, 0].T


MODEL_SOLVERS = {DUFFING: duffing_batch, BOUCWEN: boucwen_batch}


def generate_dataset(
    model: str,
    n: int,
    rng: np.random.Generator,
    noise_std: float = 0.0,
    substeps: int = DEFAULT_SUBSTEPS,
) -> ResponseEnsemble:
    """Latin-hypercube inputs within the model bounds, solved responses,
    and optional zero-mean Gaussian noise added at every time node."""
    if model not in MODEL_GRIDS:
        raise ValueError(f"unknown model {model!r}")
    if noise_std < 0.0:
        raise ValueError("noise_std must be nonnegative")
    grid = MODEL_GRIDS[model]
    bounds = MODEL_BOUNDS[model]
    inputs = latin_hypercube(n, len(bounds), bounds, rng)
    responses = MODEL_SOLVERS[model](inputs, grid, substeps)
    if noise_std > 0.0:
        responses = responses + rng.normal(0.0, noise_std, responses.shape)
    return ResponseEnsemble(inputs, responses, grid, input_names=MODEL_NAMES[model])
