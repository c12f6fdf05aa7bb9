import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funcuq as fq
from funcuq import bench
from funcuq.bench import (
    BOUCWEN_A,
    BOUCWEN_BETA,
    BOUCWEN_BOUNDS,
    BOUCWEN_GAMMA,
    BOUCWEN_GRID,
    DUFFING_BOUNDS,
    DUFFING_GRID,
    DUFFING_K,
    DUFFING_K2,
    DUFFING_K3,
    DUFFING_M,
    boucwen_excitation,
    boucwen_batch,
    boucwen_excitation_coeffs,
    duffing_batch,
    duffing_excitation,
    generate_dataset,
    rk4_integrate,
)

# Converged reference (32 substeps) for alpha=1, beta=2, c=1, y0=-5e-5.
DUFFING_REF = {
    "max_abs": 0.00040416806807318603,
    100: 0.00026974122202060816,
    200: -0.00036494205459524834,
    400: 1.4834713330446277e-05,
}


def test_rk4_zero_field_constant():
    grid = fq.TimeGrid(0.0, 1.0, 11)
    traj = rk4_integrate(lambda t, y: np.zeros_like(y), np.array([2.0, -1.0]), grid)
    assert np.all(traj == np.array([2.0, -1.0]))


def test_rk4_exponential_oracle():
    grid = fq.TimeGrid(0.0, 1.0, 401)
    traj = rk4_integrate(lambda t, y: y, np.array([1.0]), grid, substeps=1)
    assert abs(traj[-1, 0] - np.e) <= 1e-8


def test_rk4_fourth_order_convergence():
    def run(n_t):
        grid = fq.TimeGrid(0.0, 1.0, n_t)
        return rk4_integrate(lambda t, y: y, np.array([1.0]), grid, substeps=1)[-1, 0]

    e_coarse = abs(run(51) - np.e)
    e_fine = abs(run(101) - np.e)
    assert 12.0 <= e_coarse / e_fine <= 20.0


def test_rk4_nonfinite_state_errors():
    grid = fq.TimeGrid(0.0, 1.0, 21)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="step"):
            rk4_integrate(lambda t, y: y**3, np.array([5.0]), grid)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), h=st.floats(1e-3, 0.5))
def test_rk4_step_rounds_as_written(seed, h):
    # One substep against the classical formula, term by term, for an f
    # that returns its input and for one that returns a new array.
    y0 = fq.make_rng(seed).normal(size=(3, 2))
    for f in (lambda t, y: y, lambda t, y: np.cos(t) - y * y * y):
        k1 = f(0.0, y0)
        k2 = f(0.5 * h, y0 + 0.5 * h * k1)
        k3 = f(0.5 * h, y0 + 0.5 * h * k2)
        k4 = f(h, y0 + h * k3)
        want = y0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(rk4_integrate(f, y0, fq.TimeGrid(0.0, h, 2), 1)[1], want)


def test_rk4_batch_matches_scalar():
    grid = fq.TimeGrid(0.0, 1.0, 31)

    def f(t, y):
        return -2.0 * y

    batch = rk4_integrate(f, np.array([[1.0], [3.0]]), grid)
    single = rk4_integrate(f, np.array([3.0]), grid)
    assert np.array_equal(batch[:, 1, 0], single[:, 0])


# The right-hand sides as first written, kept as reference oracles: the
# forcing evaluated on every call, and the cubes through numpy's power.
def reference_duffing(params, substeps):
    alpha, beta, c, y0 = np.atleast_2d(params).T

    def rhs(t, state):
        y, v = state[..., 0], state[..., 1]
        force = duffing_excitation(t, alpha, beta)
        acc = (
            force - c * v - DUFFING_K * y - DUFFING_K2 * y**2 - DUFFING_K3 * y**3
        ) / DUFFING_M
        return np.stack([v, acc], axis=-1)

    state0 = np.stack([y0, np.zeros_like(y0)], axis=-1)
    return rk4_integrate(rhs, state0, DUFFING_GRID, substeps)[:, :, 0].T


def reference_boucwen(params, substeps):
    m, c, k, alpha, y0 = np.atleast_2d(params).T
    theta = boucwen_excitation_coeffs()

    def rhs(t, state):
        y, v, z = state[..., 0], state[..., 1], state[..., 2]
        force = boucwen_excitation(t, m, theta)
        acc = (force - c * v - k * (alpha * y + (1.0 - alpha) * z)) / m
        zdot = (
            BOUCWEN_A * v
            - BOUCWEN_BETA * np.abs(v) * np.abs(z) ** 2 * z
            - BOUCWEN_GAMMA * v * np.abs(z) ** 3
        )
        return np.stack([v, acc, zdot], axis=-1)

    state0 = np.stack([y0, np.zeros_like(y0), np.zeros_like(y0)], axis=-1)
    return rk4_integrate(rhs, state0, BOUCWEN_GRID, substeps)[:, :, 0].T


# model: (solver, input bounds, grid, state size, reference oracle)
SOLVERS = {
    "duffing": (duffing_batch, DUFFING_BOUNDS, DUFFING_GRID, 2, reference_duffing),
    "boucwen": (boucwen_batch, BOUCWEN_BOUNDS, BOUCWEN_GRID, 3, reference_boucwen),
}


# The right-hand sides before the forcing was evaluated in blocks, kept as
# exact oracles: each keeps its last (t, forcing) pair, evaluates the
# excitation again only when the stage time changes, and forms the cubes
# as products.
def cached_forcing(excitation, *args):
    last_t, last_value = None, None

    def at(t):
        nonlocal last_t, last_value
        if t != last_t:
            last_t, last_value = t, excitation(t, *args)
        return last_value

    return at


def cached_duffing(params, grid, substeps):
    alpha, beta, c, y0 = np.atleast_2d(params).T
    forcing = cached_forcing(duffing_excitation, alpha, beta)

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
    return rk4_integrate(rhs, state0, grid, substeps)[:, :, 0].T


def series_excitation(t, m, theta):
    """Bouc-Wen's excitation at one time t, its series as two 1-D dot products."""
    phase = 0.1 * np.pi * np.arange(1, 151) * t
    series = theta[:150] @ np.cos(phase) + theta[150:] @ np.sin(phase)
    return -np.sqrt(0.006 * np.pi * m) * series


def cached_boucwen(params, grid, substeps):
    m, c, k, alpha, y0 = np.atleast_2d(params).T
    forcing = cached_forcing(series_excitation, m, boucwen_excitation_coeffs())

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
    return rk4_integrate(rhs, state0, grid, substeps)[:, :, 0].T


def three_node_grid(grid):
    """The first two steps of a model grid."""
    return fq.TimeGrid(grid.t0, grid.t0 + 2.0 * grid.dt, 3)


CACHED = {"duffing": cached_duffing, "boucwen": cached_boucwen}


def batch_draws(bounds):
    """1-30 input rows inside the bounds, and a substep count of 1, 2 or 4."""
    row = st.tuples(*(st.floats(lo, hi) for lo, hi in bounds))
    return st.tuples(st.lists(row, min_size=1, max_size=30).map(np.array),
                     st.sampled_from([1, 2, 4]))


@pytest.mark.parametrize("model", sorted(SOLVERS))
@settings(max_examples=6)
@given(data=st.data())
def test_batch_rows_equal_rows_solved_alone(model, data):
    solver, bounds, grid, dim, _ = SOLVERS[model]
    params, substeps = data.draw(batch_draws(bounds))
    curves = solver(params, grid, substeps)
    # The (n, n_t) result is the transposed slice of rk4_integrate's
    # (n_t, n, dim) trajectory, strides included.
    assert curves.strides == np.empty((grid.n_t, len(params), dim))[:, :, 0].T.strides
    for i, row in enumerate(params):
        assert np.array_equal(curves[i], solver(row[None, :], grid, substeps)[0])


@pytest.mark.parametrize("model", sorted(SOLVERS))
@settings(max_examples=10)
@given(data=st.data())
def test_batch_agrees_with_reference_rhs(model, data):
    solver, bounds, grid, _, reference = SOLVERS[model]
    params, substeps = data.draw(batch_draws(bounds))
    want = reference(params, substeps)
    got = solver(params, grid, substeps)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("model", sorted(SOLVERS))
@settings(max_examples=10)
@given(data=st.data())
def test_batch_equals_the_cached_forcing_rhs(model, data):
    solver, bounds, grid, _, _ = SOLVERS[model]
    params, substeps = data.draw(batch_draws(bounds))
    want = CACHED[model](params, grid, substeps)
    got = solver(params, grid, substeps)
    assert np.array_equal(got, want)
    assert got.strides == want.strides


@pytest.mark.parametrize("model", sorted(SOLVERS))
@pytest.mark.parametrize("n_rows", [50_000, 70_000])
def test_batch_equals_the_cached_forcing_rhs_across_forcing_blocks(model, n_rows):
    # A forcing block holds FORCING_BLOCK // n_rows stage times: two at
    # 50,000 rows and one at 70,000, so the solve crosses block edges.
    assert bench.FORCING_BLOCK // n_rows == {50_000: 2, 70_000: 1}[n_rows]
    solver, bounds, grid, _, _ = SOLVERS[model]
    grid = three_node_grid(grid)
    params = fq.latin_hypercube(n_rows, len(bounds), bounds, fq.make_rng(n_rows))
    for substeps in (1, 2, 4):
        want = CACHED[model](params, grid, substeps)
        got = solver(params, grid, substeps)
        assert np.array_equal(got, want)
        assert got.strides == want.strides


def stage_times(grid, substeps):
    """Every time at which rk4_integrate calls f, in call order."""
    h = grid.dt / substeps
    for j in range(1, grid.n_t):
        for s in range(substeps):
            t = grid.t0 + ((j - 1) * substeps + s) * h
            yield from (t, t + 0.5 * h, t + 0.5 * h, t + h)


@pytest.mark.parametrize("model, excitation", [
    ("duffing", "duffing_excitation"), ("boucwen", "boucwen_excitation")])
def test_forcing_evaluated_once_per_stage_time(monkeypatch, model, excitation):
    solver, bounds, grid, _, _ = SOLVERS[model]
    excite = getattr(bench, excitation)
    # 1 row on the model grid, and 70,000 rows on its first two steps, where
    # a forcing block holds one stage time.
    for n_rows, grid, n_calls, n_times in ((1, grid, 6400, 3508),
                                           (70_000, three_node_grid(grid), 32, 19)):
        forcing_times, forcing_sizes, rhs_calls = [], [], [0]

        def counting_excitation(t, *args):
            value = excite(t, *args)
            forcing_times.extend(np.ravel(t).tolist())
            forcing_sizes.append(np.size(value))
            return value

        def counting_integrate(f, *args):
            def counted(t, y):
                rhs_calls[0] += 1
                return f(t, y)
            return rk4_integrate(counted, *args)

        monkeypatch.setattr(bench, excitation, counting_excitation)
        monkeypatch.setattr(bench, "rk4_integrate", counting_integrate)
        solver(np.tile([lo for lo, _ in bounds], (n_rows, 1)), grid, 4)
        times = list(stage_times(grid, 4))
        assert rhs_calls[0] == len(times) == n_calls
        # Every distinct stage time, each exactly once.
        assert sorted(forcing_times) == sorted(set(times))
        assert len(forcing_times) == n_times
        assert max(forcing_sizes) <= bench.FORCING_BLOCK


@pytest.mark.parametrize("model", sorted(SOLVERS))
def test_solvers_take_zero_rows(model):
    solver, bounds, grid, _, _ = SOLVERS[model]
    assert solver(np.empty((0, len(bounds))), grid).shape == (0, grid.n_t)


def test_duffing_excitation_at_zero_is_alpha():
    for alpha in (0.6, 1.0, 1.4):
        assert duffing_excitation(0.0, alpha, 2.2) == alpha


def test_duffing_solve_holds_few_forcing_blocks():
    # A block of forcing values is 1 MB.  A 100-row solve peaked at 4.9 MB
    # holding the previous block and three temporaries, at 3.9-4.0 MB with
    # either one freed, and at 3.0 MB with both.
    params = np.tile([lo for lo, _ in DUFFING_BOUNDS], (100, 1))
    tracemalloc.start()
    try:
        duffing_batch(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_duffing_initial_condition_exact():
    y = duffing_batch([[1.1, 2.0, 0.8, -7e-5]])[0]
    assert y[0] == -7e-5
    assert y.shape == (DUFFING_GRID.n_t,)


def test_duffing_reference_regression():
    y = duffing_batch([[1.0, 2.0, 1.0, -5e-5]])[0]
    assert abs(np.abs(y).max() - DUFFING_REF["max_abs"]) < 1e-6
    for idx in (100, 200, 400):
        assert y[idx] == pytest.approx(DUFFING_REF[idx], abs=1e-6)


def test_duffing_step_refinement_converged():
    y4 = duffing_batch([[1.0, 2.0, 1.0, -5e-5]], substeps=4)[0]
    y16 = duffing_batch([[1.0, 2.0, 1.0, -5e-5]], substeps=16)[0]
    assert np.abs(y4 - y16).max() < 1e-6


def test_boucwen_initial_conditions():
    y = boucwen_batch([[6e4, 1e5, 5e6, 0.2, 0.013]])[0]
    assert y[0] == 0.013
    assert y.shape == (BOUCWEN_GRID.n_t,)


def test_boucwen_alpha_one_matches_linear_oscillator():
    m, c, k, y0 = 6e4, 1e5, 5e6, 0.01
    theta = boucwen_excitation_coeffs()

    def linear_rhs(t, s):
        force = boucwen_excitation(t, np.array([m]), theta)
        return np.stack([s[..., 1], (force - c * s[..., 1] - k * s[..., 0]) / m], axis=-1)

    linear = rk4_integrate(linear_rhs, np.array([[y0, 0.0]]), BOUCWEN_GRID)[:, 0, 0]
    full = boucwen_batch([[m, c, k, 1.0, y0]])[0]
    assert np.abs(full - linear).max() <= 1e-6


def test_boucwen_excitation_scales_with_sqrt_mass():
    theta = boucwen_excitation_coeffs()
    f1 = boucwen_excitation(0.37, 1.0, theta)
    f2 = boucwen_excitation(0.37, 2.0, theta)
    assert f2 == pytest.approx(np.sqrt(2.0) * f1, rel=1e-12)


def test_boucwen_excitation_coeffs_fixed():
    a = boucwen_excitation_coeffs()
    b = boucwen_excitation_coeffs()
    assert a.shape == (300,)
    assert np.array_equal(a, b)


def test_generate_dataset_deterministic():
    a = generate_dataset("duffing", 6, fq.make_rng(7))
    b = generate_dataset("duffing", 6, fq.make_rng(7))
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.responses, b.responses)


def test_generate_dataset_bounds():
    ens = generate_dataset("duffing", 50, fq.make_rng(8))
    for j, (lo, hi) in enumerate(DUFFING_BOUNDS):
        assert ens.inputs[:, j].min() >= lo
        assert ens.inputs[:, j].max() <= hi
    ens_b = generate_dataset("boucwen", 20, fq.make_rng(9))
    for j, (lo, hi) in enumerate(BOUCWEN_BOUNDS):
        assert ens_b.inputs[:, j].min() >= lo
        assert ens_b.inputs[:, j].max() <= hi


def test_generate_dataset_noise_level():
    clean = generate_dataset("duffing", 100, fq.make_rng(10))
    noisy = generate_dataset("duffing", 100, fq.make_rng(10), noise_std=1e-4)
    assert np.array_equal(clean.inputs, noisy.inputs)
    diff = noisy.responses - clean.responses
    assert abs(diff.std() - 1e-4) <= 0.03e-4
    assert abs(diff.mean()) <= 4.0 * 1e-4 / np.sqrt(diff.size)


def test_generate_dataset_validation():
    with pytest.raises(ValueError):
        generate_dataset("pendulum", 5, fq.make_rng(0))
    with pytest.raises(ValueError):
        generate_dataset("duffing", 5, fq.make_rng(0), noise_std=-1.0)


def test_trajectories_finite_across_parameter_space():
    # Broad draws across both tables stay finite over the full interval.
    ens = generate_dataset("duffing", 1000, fq.make_rng(11))
    assert np.all(np.isfinite(ens.responses))
    ens_b = generate_dataset("boucwen", 1000, fq.make_rng(12))
    assert np.all(np.isfinite(ens_b.responses))
