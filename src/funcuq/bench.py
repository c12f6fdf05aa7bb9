"""Reference dynamical systems solved by fixed-step Runge-Kutta: a Duffing
oscillator with cubic stiffness and a Bouc-Wen hysteretic oscillator under
a fixed random-series excitation, plus Latin-hypercube dataset generation
with optional additive output noise.

A solve of up to a few hundred rows is bound by numpy's cost per call, not
by its arithmetic: on either model's 401-node grid at 4 substeps, RK4 takes
1,600 substeps and calls the right-hand side 6,400 times.  So each substep
makes few numpy calls.  The integrator forms its stage sums in place, and
each right-hand side multiplies a block of coefficients by a stacked block
of states in one call and folds its terms left to right with
np.subtract.reduce.  Every
operation is one the model's formula names, in its order, so the curves
round as a term-by-term evaluation does.

The excitation costs more than the rest of a right-hand side (three
transcendentals per row for Duffing, a 150-term series for Bouc-Wen), so
it is evaluated once per distinct stage time, over blocks of times ahead of
the calls that use them.  RK4's k2 and k3 share t + h/2, and a substep's
t + h is most often the next substep's t bit for bit: on either model's
grid at 4 substeps that is 3,508 evaluations for 6,400 right-hand-side
calls.  The cubes are products (y2 * y, and |z|**2 * |z| for n = 3): numpy's
power of a negative base to the third takes a scalar path, over 20 times
slower than a product, and it rounds differently from the positive path,
while a product rounds the same way on every host.
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
    equal internal steps.  The stage sums are formed in buffers of the
    integrator's own, which f may read and may return, one operation at a
    time in the order y + h/6 (((k1 + 2 k2) + 2 k3) + k4).  Each k is read
    after f's next call, so f must not return an array that call reuses.

    Returns an array of shape (n_t,) + y0.shape.
    """
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    y = np.array(y0, dtype=float)
    out = np.empty((grid.n_t,) + y.shape)
    out[0] = y
    h = grid.dt / substeps
    # 0-d arrays: numpy 2 multiplies a small array by one in about 0.33 us,
    # and by a Python float in about 0.57 us.
    half, step, sixth, two = (np.array(x) for x in (0.5 * h, h, h / 6.0, 2.0))
    stage, acc, scaled = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    mul, add = np.multiply, np.add
    for j in range(1, grid.n_t):
        base = (j - 1) * substeps
        for s in range(substeps):
            t = grid.t0 + (base + s) * h
            k1 = f(t, y)
            add(y, mul(half, k1, stage), stage)
            k2 = f(t + 0.5 * h, stage)
            add(k1, mul(two, k2, acc), acc)
            add(y, mul(half, k2, stage), stage)
            k3 = f(t + 0.5 * h, stage)
            add(acc, mul(two, k3, scaled), acc)
            add(y, mul(step, k3, stage), stage)
            k4 = f(t + h, stage)
            add(y, mul(sixth, add(acc, k4, acc), acc), y)
        if not np.all(np.isfinite(y)):
            raise FloatingPointError(f"non-finite state at grid step {j}")
        out[j] = y
    return out


# Values in one block of forcing evaluations (1 MB of float64).
FORCING_BLOCK = 2**17


def _stage_forcing(excitation, grid: TimeGrid, substeps: int, width: int, *args):
    """t -> excitation(t, *args) at rk4_integrate's stage times, in its call
    order.

    The distinct stage times are formed with the integrator's expressions and
    passed to the excitation as a column, max(1, FORCING_BLOCK // width) at a
    time, where width is the number of values one time costs.
    """
    h = grid.dt / substeps
    t = grid.t0 + np.arange((grid.n_t - 1) * substeps) * h
    times = np.stack([t, t + 0.5 * h, t + 0.5 * h, t + h], axis=-1).ravel()
    times = times[np.r_[True, times[1:] != times[:-1]]]
    per_block = max(1, FORCING_BLOCK // max(width, 1))

    def evaluated():
        for i in range(0, len(times), per_block):
            block = times[i:i + per_block]
            yield from zip(block.tolist(), excitation(block[:, None], *args))

    upcoming = evaluated()
    last_t, last_value = None, None

    def at(t):
        nonlocal last_t, last_value
        if t != last_t:
            last_value = None  # frees the previous block, which a row of it keeps alive
            last_t, last_value = next(upcoming)
            if last_t != t:
                raise RuntimeError(f"stage time {t!r} is not the planned {last_t!r}")
        return last_value

    return at


def duffing_excitation(t, alpha, beta):
    """alpha cos(beta t) + sin((beta + 3) t) + sin(2 beta t), in place by the
    formula's operations in its order; a column of times gives one row per
    time."""
    out = np.cos(beta * t)
    out *= alpha
    part = np.asarray((beta + 3.0) * t)
    out += np.sin(part, out=part)
    out += np.sin(np.multiply(2.0 * beta, t, out=part), out=part)
    return out


def duffing_batch(params, grid: TimeGrid = DUFFING_GRID,
                  substeps: int = DEFAULT_SUBSTEPS):
    """Displacement curves for rows of (alpha, beta, c, y0); shape (n, n_t)."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    alpha, beta, c, y0 = params.T
    n = len(params)
    forcing = _stage_forcing(duffing_excitation, grid, substeps, n, alpha, beta)
    coeffs = np.stack([c] + [np.full(n, k) for k in (DUFFING_K, DUFFING_K2, DUFFING_K3)])
    powers = np.empty((4, n))  # v, y, y^2, y^3
    terms = np.empty((5, n))  # F, c v, K y, K2 y^2, K3 y^3
    y, y2, y3 = powers[1:]

    def rhs(t, state):
        powers[:2] = state.T[::-1]
        np.multiply(y, y, y2)
        np.multiply(y2, y, y3)
        terms[0] = forcing(t)
        np.multiply(coeffs, powers, terms[1:])
        out = np.empty_like(state)
        out[:, 0] = state[:, 1]
        np.divide(np.subtract.reduce(terms, axis=0), DUFFING_M, out[:, 1])
        return out

    state0 = np.stack([y0, np.zeros_like(y0)], axis=-1)
    traj = rk4_integrate(rhs, state0, grid, substeps)
    return traj[:, :, 0].T


def boucwen_excitation_coeffs(seed: int = BOUCWEN_EXCITATION_SEED):
    """The fixed standard-normal series coefficients (2 x 150 values)."""
    return make_rng(seed).standard_normal(2 * BOUCWEN_SERIES_TERMS)


def boucwen_excitation(t, m, theta):
    """-sqrt(0.006 pi m) sum_k [theta_k cos(0.1 pi k t) + theta_{150+k} sin(.)].

    A column of times gives one row per time.  Each time's series is its
    own pair of dot products, which round as a matrix-vector product over
    the times would not.
    """
    k = np.arange(1, BOUCWEN_SERIES_TERMS + 1)
    phase = (0.1 * np.pi * k * np.expand_dims(t, -1))[..., :, None]
    series = (theta[None, :BOUCWEN_SERIES_TERMS] @ np.cos(phase)
              + theta[None, BOUCWEN_SERIES_TERMS:] @ np.sin(phase))[..., 0, 0]
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
    n = len(params)
    forcing = _stage_forcing(boucwen_excitation, grid, substeps,
                             max(n, BOUCWEN_SERIES_TERMS), m, theta)
    coeffs = np.stack([c, alpha, np.full(n, BOUCWEN_A), np.full(n, BOUCWEN_BETA),
                       np.full(n, BOUCWEN_GAMMA), 1.0 - alpha])
    # v, y, v, |v|, v, z: the states the coefficients multiply; then |z|,
    # |z|^2, |z|^3.
    states = np.empty((9, n))
    abs_vz, az, az2, az3, az23 = states[3:7:3], states[6], states[7], states[8], states[7:]
    # The acceleration's terms F, c v, k (alpha y + (1 - alpha) z), then the
    # hysteresis rate's A v, beta |v| |z|^2 z, gamma v |z|^3, then
    # (1 - alpha) z.  The product block fills rows 1-6; rows 2, 4 and 5 are
    # finished in place from alpha y, beta |v| and gamma v.
    terms = np.empty((7, n))
    products, rates = terms[1:], terms[:6].reshape(2, 3, n)
    kw, beta_term, hysteresis, z_part = terms[2], terms[4], terms[4:6], terms[6]

    def rhs(t, state):
        v, z = state[:, 1], state[:, 2]
        states[0:5:2] = v
        states[1:6:4] = state.T[::2]
        np.abs(state.T[1:], abs_vz)
        np.multiply(az, az, az2)
        np.multiply(az2, az, az3)
        np.multiply(coeffs, states[:6], products)
        np.add(kw, z_part, kw)
        np.multiply(k, kw, kw)
        np.multiply(hysteresis, az23, hysteresis)
        np.multiply(beta_term, z, beta_term)
        terms[0] = forcing(t)
        out = np.empty_like(state)
        out[:, 0] = v
        np.subtract.reduce(rates, axis=1, out=out.T[1:])
        np.divide(out[:, 1], m, out[:, 1])
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
