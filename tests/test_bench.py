import numpy as np
import pytest

import funcuq as fq
from funcuq.bench import (
    BOUCWEN_BOUNDS,
    BOUCWEN_GRID,
    DUFFING_BOUNDS,
    DUFFING_GRID,
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


def test_rk4_batch_matches_scalar():
    grid = fq.TimeGrid(0.0, 1.0, 31)

    def f(t, y):
        return -2.0 * y

    batch = rk4_integrate(f, np.array([[1.0], [3.0]]), grid)
    single = rk4_integrate(f, np.array([3.0]), grid)
    assert np.allclose(batch[:, 1, 0], single[:, 0], rtol=1e-14)


def test_duffing_excitation_at_zero_is_alpha():
    for alpha in (0.6, 1.0, 1.4):
        assert duffing_excitation(0.0, alpha, 2.2) == alpha


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
