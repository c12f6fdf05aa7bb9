import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import funcuq as fq
from funcuq import kriging
from funcuq.kriging import (
    CUT,
    NUGGET_RATIO_BOUNDS,
    SIGMA_N2_BOUNDS,
    SIGMA_Z2_BOUNDS,
    THETA_BOUNDS,
    _neg_lml,
    _squared_differences,
    _stacked_kernels,
    condition,
    fit_kriging,
    log_marginal_likelihood,
    normalize_inputs,
)
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize
from scipy.spatial.distance import cdist


def dense_lml(X, y, mu, sigma_z2, theta, sigma_n2):
    n = len(y)
    D = np.zeros((n, n))
    for d in range(X.shape[1]):
        D += theta[d] * np.subtract.outer(X[:, d], X[:, d]) ** 2
    K = sigma_z2 * np.exp(-D) + sigma_n2 * np.eye(n)
    r = y - mu
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return -0.5 * r @ np.linalg.inv(K) @ r - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi)


def kernel(sigma_z2, theta, A, B):
    """The layer's (len(A), len(B)) kernel between the rows of A and of B."""
    A, B = np.atleast_2d(np.asarray(A, dtype=float)), np.atleast_2d(np.asarray(B, dtype=float))
    K = _stacked_kernels(_squared_differences(A, B), np.atleast_2d(theta), np.array([sigma_z2]))
    return K.reshape(len(A), len(B))


def cdist_kernel(sigma_z2, theta, A, B):
    """sigma_z2 exp(-|sqrt(theta) (a - b)|^2) through cdist on inputs scaled
    by sqrt(theta): an independent form, whose exponent differs from the
    layer's by a few ulps."""
    root = np.sqrt(np.asarray(theta, dtype=float))
    return sigma_z2 * np.exp(-cdist(np.atleast_2d(A) * root, np.atleast_2d(B) * root, "sqeuclidean"))


def test_kernel_zero_distance():
    assert kernel(2.5, [1.0, 3.0], [[0.2, 0.4]], [[0.2, 0.4]])[0, 0] == 2.5


def test_kernel_unit_case():
    val = kernel(1.0, [1.0], [[1.0]], [[0.0]])[0, 0]
    assert val == pytest.approx(np.exp(-1), rel=1e-12)


def test_kernel_weighted_case():
    val = kernel(1.0, [2.0, 3.0], [[1.0, 1.0]], [[0.0, 0.0]])[0, 0]
    assert val == pytest.approx(np.exp(-5.0), rel=1e-12)


def test_kernel_matches_cdist_reference():
    # Exponents up to about 370: an entry differs by about |exponent| eps.
    rng = fq.make_rng(40)
    A, B = rng.uniform(0, 1, (9, 3)), rng.uniform(-0.5, 1.5, (13, 3))
    theta, sigma_z2 = np.array([0.3, 12.0, 150.0]), 2.7
    np.testing.assert_allclose(kernel(sigma_z2, theta, A, B),
                               cdist_kernel(sigma_z2, theta, A, B), rtol=1e-12)


def test_squared_differences_are_c_ordered_rows():
    rng = fq.make_rng(41)
    A, B = rng.random((5, 3)), rng.random((7, 3))
    D = _squared_differences(A, B)
    assert D.shape == (3, 35) and D.flags.c_contiguous
    for d in range(3):
        assert np.array_equal(D[d].reshape(5, 7), np.subtract.outer(A[:, d], B[:, d]) ** 2)
    buf = np.full(200, np.nan)
    assert np.array_equal(_squared_differences(A, B, buf), D)
    assert np.shares_memory(_squared_differences(A, B, buf), buf)
    assert np.array_equal(_squared_differences(A), _squared_differences(A, A))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    p=st.integers(1, 5),
    log_theta=st.lists(st.floats(-4.0, 4.0), min_size=5, max_size=5),
    log_sigma_z2=st.floats(-4.0, 2.0),
)
@example(seed=0, n=40, p=4, log_theta=[-4.0] * 5, log_sigma_z2=0.0)
@example(seed=1, n=33, p=5, log_theta=[4.0] * 5, log_sigma_z2=2.0)
@example(seed=2, n=17, p=1, log_theta=[2.0] * 5, log_sigma_z2=-4.0)
def test_one_kernel_in_search_conditioning_and_prediction(seed, n, p, log_theta, log_sigma_z2):
    X = fq.make_rng(seed).random((n, p))
    D = _squared_differences(X)
    theta, sigma_z2 = 10.0 ** np.array(log_theta[:p]), 10.0**log_sigma_z2
    # With no nugget, the matrices the search and conditioning factor are
    # their kernels.  The stubs keep a copy and stop there.
    factored = []

    def search_dpotrf(M, **kwargs):
        factored.append(np.array(M))
        return M, 1

    def conditioning_cho(A):
        factored.append(A.copy())
        return np.eye(n), 0.0

    with mock.patch.object(kriging, "dpotrf", search_dpotrf):
        with pytest.raises(np.linalg.LinAlgError):
            _neg_lml(D, np.zeros(n), theta, sigma_z2, 0.0)
    with mock.patch.object(kriging, "cho_with_jitter", conditioning_cho):
        condition(D, np.zeros(n), sigma_z2, theta, 0.0)
    search, conditioned = factored
    stacked = _stacked_kernels(_squared_differences(X, X), theta[None], np.array([sigma_z2]))
    assert np.array_equal(stacked.reshape(n, n), conditioned)
    # The search takes the entries with exponent above CUT as 0.0: the
    # others are the same bits.
    cut = (theta @ D).reshape(n, n) > CUT
    assert np.array_equal(search, np.where(cut, 0.0, conditioned))
    assert np.all(conditioned[cut] <= sigma_z2 * math.exp(-CUT))


def test_lml_scalar_case():
    for sz2, sn2 in ((1.0, 0.0), (0.7, 0.3)):
        got = log_marginal_likelihood(np.array([[0.5]]), np.array([2.0]), 2.0, sz2, [1.0], sn2)
        expected = -0.5 * np.log(sz2 + sn2) - 0.5 * np.log(2 * np.pi)
        assert got == pytest.approx(expected, abs=1e-12)


def test_lml_dense_oracle():
    rng = fq.make_rng(40)
    for n in (2, 5, 8):
        X = rng.random((n, 3))
        y = rng.normal(size=n)
        theta = 10.0 ** rng.uniform(-1, 1, size=3)
        mu, sz2, sn2 = 0.3, 1.7, 0.05
        got = log_marginal_likelihood(X, y, mu, sz2, theta, sn2)
        assert got == pytest.approx(dense_lml(X, y, mu, sz2, theta, sn2), abs=1e-10)


def test_lml_failed_factorization_and_non_finite_kernel():
    # Identical inputs with no nugget: a rank-one kernel matrix.
    X, y = np.zeros((3, 2)), np.array([0.1, -0.2, 0.3])
    assert log_marginal_likelihood(X, y, 0.0, 1.0, [1.0, 2.0], 0.0) == -math.inf
    assert math.isfinite(log_marginal_likelihood(X, y, 0.0, 1.0, [1.0, 2.0], 0.1))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            log_marginal_likelihood(X, y, 0.0, bad, [1.0, 2.0], 0.1)


def test_logdet_monotone_in_nugget():
    rng = fq.make_rng(41)
    for _ in range(20):
        X = rng.random((6, 2))
        A = np.exp(-np.sum((X[:, None] - X[None]) ** 2, axis=-1))
        base = np.linalg.slogdet(A + 1e-6 * np.eye(6))[1]
        bumped = np.linalg.slogdet(A + (1e-6 + 0.1) * np.eye(6))[1]
        assert bumped >= base


def test_normalize_inputs_constant_dim():
    X = np.array([[1.0, 5.0], [2.0, 5.0]])
    lo, hi = X.min(axis=0), X.max(axis=0)
    Xn = normalize_inputs(X, lo, hi)
    assert np.allclose(Xn[:, 0], [0.0, 1.0])
    assert np.allclose(Xn[:, 1], 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_named(bad):
    X = fq.make_rng(42).random((5, 3))
    X[3, 0] = X[2, 2] = bad
    lo, hi = np.zeros(3), np.ones(3)
    with pytest.raises(ValueError, match=f"^input row 2, column 2 is {bad}: "):
        normalize_inputs(X, lo, hi)
    model = fit_kriging(X[:2], np.array([0.0, 1.0]), fq.make_rng(0), n_starts=1, budget=5)
    with pytest.raises(ValueError, match=f"^input row 2, column 2 is {bad}: "):
        model.predict_batch(X)
    with pytest.raises(ValueError, match=f"^input row 2, column 2 is {bad}: "):
        fit_kriging(X, np.arange(5.0), fq.make_rng(0))


def test_fit_constant_target():
    X = np.linspace(0, 1, 10)[:, None]
    y = np.full(10, 3.7)
    model = fit_kriging(X, y, fq.make_rng(1), n_starts=4, budget=100)
    mean, _ = model.predict_batch([[0.31]])
    assert mean[0] == pytest.approx(3.7, abs=1e-6)
    means, _ = model.predict_batch(np.linspace(0, 1, 7)[:, None])
    assert np.allclose(means, 3.7, atol=1e-6)


def test_fit_noiseless_smooth_function():
    X = np.linspace(0, 1, 20)[:, None]
    y = np.sin(5 * X[:, 0]) + 2.0
    model = fit_kriging(X, y, fq.make_rng(2))
    assert model.sigma_n2 * model.y_scale**2 <= 1e-4
    xs = np.linspace(0.05, 0.95, 9)[:, None]
    means, _ = model.predict_batch(xs)
    assert np.abs(means - (np.sin(5 * xs[:, 0]) + 2.0)).max() <= 1e-3


def test_fit_deterministic():
    rng_data = fq.make_rng(3)
    X = rng_data.random((15, 2))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
    a = fit_kriging(X, y, fq.make_rng(7), n_starts=5, budget=150)
    b = fit_kriging(X, y, fq.make_rng(7), n_starts=5, budget=150)
    assert np.array_equal(a.theta, b.theta)
    assert a.sigma_z2 == b.sigma_z2
    assert a.sigma_n2 == b.sigma_n2
    assert a.mu == b.mu


def test_interpolation_with_pinned_zero_nugget():
    rng = fq.make_rng(4)
    X = rng.random((12, 2))
    y = np.cos(2 * X[:, 0]) + 0.5 * X[:, 1]
    model = fit_kriging(X, y, fq.make_rng(5), fix_nugget=0.0)
    means, vars_ = model.predict_batch(X)
    assert np.abs((means - y) / y).max() <= 1e-6
    assert vars_.max() <= 1e-8 * model.sigma_z2 * model.y_scale**2


def test_far_field_reverts_to_mean():
    X = np.linspace(0.4, 0.6, 8)[:, None]
    y = np.sin(20 * X[:, 0])
    model = fit_kriging(X, y, fq.make_rng(6), n_starts=5, budget=200)
    far = np.array([[1e3]])
    (mean,), (var,) = model.predict_batch(far)
    mu_raw = model.mu * model.y_scale + model.y_offset
    sz2_raw = model.sigma_z2 * model.y_scale**2
    assert mean == pytest.approx(mu_raw, abs=0.01 * max(1.0, abs(mu_raw)))
    assert var == pytest.approx(sz2_raw, rel=0.01)


def test_two_point_closed_form_oracle():
    X = np.array([[0.0], [1.0]])
    y = np.array([1.0, 3.0])
    model = fit_kriging(X, y, fq.make_rng(7), n_starts=3, budget=100)
    x_star = np.array([0.3])
    (mean,), (var,) = model.predict_batch(x_star[None, :])
    # Dense 2x2 formula in the standardized space.
    theta, sz2, sn2 = model.theta, model.sigma_z2, model.sigma_n2
    Xn = model.X_norm
    ys = model.y_std
    k12 = sz2 * np.exp(-theta[0] * (Xn[0, 0] - Xn[1, 0]) ** 2)
    K = np.array([[sz2 + sn2, k12], [k12, sz2 + sn2]])
    xs = (x_star[0] - model.input_lo[0]) / (model.input_hi[0] - model.input_lo[0])
    k_vec = sz2 * np.exp(-theta[0] * (Xn[:, 0] - xs) ** 2)
    Kinv = np.linalg.inv(K)
    mean_std = model.mu + k_vec @ Kinv @ (ys - model.mu)
    var_std = sz2 - k_vec @ Kinv @ k_vec
    assert mean == pytest.approx(mean_std * model.y_scale + model.y_offset, abs=1e-12)
    assert var == pytest.approx(max(var_std, 0.0) * model.y_scale**2, abs=1e-12)


def test_variance_bounds():
    rng = fq.make_rng(8)
    X = rng.random((20, 3))
    y = np.sin(4 * X[:, 0]) * X[:, 1] + rng.normal(scale=0.05, size=20)
    model = fit_kriging(X, y, fq.make_rng(9), n_starts=4, budget=150)
    queries = rng.random((100, 3)) * 2.0 - 0.5
    _, vars_ = model.predict_batch(queries)
    sz2_raw = model.sigma_z2 * model.y_scale**2
    assert np.all(vars_ >= 0.0)
    assert np.all(vars_ <= sz2_raw * (1 + 1e-10))


def test_affine_input_rescaling_invariance():
    rng = fq.make_rng(10)
    X = rng.random((15, 2))
    y = np.sin(3 * X[:, 0]) + X[:, 1]
    # Power-of-two scales with no shift keep the normalization bit-exact.
    scale = np.array([128.0, 0.0078125])
    a = fit_kriging(X, y, fq.make_rng(11), n_starts=4, budget=150)
    b = fit_kriging(X * scale, y, fq.make_rng(11), n_starts=4, budget=150)
    assert np.array_equal(a.X_norm, b.X_norm)
    q = rng.random((6, 2))
    ma, _ = a.predict_batch(q)
    mb, _ = b.predict_batch(q * scale)
    assert np.allclose(ma, mb, rtol=1e-12, atol=1e-12)


def test_hyperparameters_within_bounds():
    rng = fq.make_rng(12)
    X = rng.random((18, 2))
    y = X[:, 0] ** 2 + rng.normal(scale=0.1, size=18)
    model = fit_kriging(X, y, fq.make_rng(13), n_starts=4, budget=150)
    assert np.all(model.theta >= THETA_BOUNDS[0]) and np.all(model.theta <= THETA_BOUNDS[1])
    assert SIGMA_Z2_BOUNDS[0] <= model.sigma_z2 <= SIGMA_Z2_BOUNDS[1]
    assert SIGMA_N2_BOUNDS[0] <= model.sigma_n2 <= SIGMA_N2_BOUNDS[1]


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_kriging(np.zeros((1, 2)), np.zeros(1), fq.make_rng(0))
    with pytest.raises(ValueError):
        fit_kriging(np.zeros((4, 2)), np.zeros(3), fq.make_rng(0))
    for bad in (np.nan, np.inf, -np.inf):
        y = np.arange(6.0)
        y[4] = y[5] = bad
        with pytest.raises(ValueError, match=f"^target 4 is {bad}: targets must be finite"):
            fit_kriging(fq.make_rng(43).random((6, 2)), y, fq.make_rng(0))


# ---------------------------------------------------------------------------
# The likelihood search: objective, gradient and search record


def search_problem(seed, n, p):
    rng = fq.make_rng(seed)
    X = rng.random((n, p))
    y = np.sin(3 * X[:, 0]) + X[:, -1] ** 2 + 0.1 * rng.normal(size=n)
    return X, (y - y.mean()) / y.std()


def gls_mu(X, y, sigma_z2, theta, sigma_n2):
    n = len(y)
    D = sum(theta[d] * np.subtract.outer(X[:, d], X[:, d]) ** 2 for d in range(X.shape[1]))
    A = sigma_z2 * np.exp(-D) + sigma_n2 * np.eye(n)
    w = np.linalg.solve(A, np.ones(n))
    return w @ y / w.sum()


def kernel_condition(D, z, case, sigma_z2=1.0):
    """Condition number of sigma_z2 E + nugget I, E the search's correlation
    matrix at z and the nugget that of the case (0.05 when it is fixed)."""
    p = D.shape[0]
    n = int(round(np.sqrt(D.shape[1])))
    E = np.exp(-(10.0 ** z[:p] @ D)).reshape(n, n)
    nugget = {"free": 10.0 ** z[-1], "zero": 0.0, "fixed": 0.05}[case]
    return np.linalg.cond(sigma_z2 * E + nugget * np.eye(n))


def well_conditioned(D, z, case, limit=1e8):
    """The search's kernel matrix at z has condition number below limit."""
    return kernel_condition(D, z, case) < limit


def objective(D, y, z, case, on_cut=None):
    """_neg_lml in the search's log10 coordinates for each nugget case."""
    p = D.shape[0]
    theta = 10.0 ** z[:p]
    if case == "free":
        return _neg_lml(D, y, theta, None, 10.0 ** z[p], on_cut)
    if case == "zero":
        return _neg_lml(D, y, theta, None, 0.0, on_cut)
    return _neg_lml(D, y, theta, 10.0 ** z[p], 0.05, on_cut)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    p=st.integers(1, 3),
    log_theta=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
    log_extra=st.floats(-3.0, 0.5),
    case=st.sampled_from(["free", "zero", "fixed"]),
)
@example(seed=2, n=12, p=2, log_theta=[0.0, 0.0, 0.0], log_extra=0.0, case="zero")
def test_gradient_matches_central_differences(seed, n, p, log_theta, log_extra, case):
    X, y = search_problem(seed, n, p)
    D = _squared_differences(X)
    z = np.array(log_theta[:p] + ([] if case == "zero" else [log_extra]))
    assume(well_conditioned(D, z, case))
    value, grad, _ = objective(D, y, z, case)
    # The searched entries: theta, then the nugget (g) or sigma_z2.
    grad = grad[[*range(p), *{"free": [p], "zero": [], "fixed": [p + 1]}[case]]]
    h = 1e-6
    fd = np.array([
        (objective(D, y, z + h * e, case)[0] - objective(D, y, z - h * e, case)[0]) / (2 * h)
        for e in np.eye(z.size)
    ])
    # The central difference's own error: each value is off by about
    # cond(A) eps |f|, divided by h.  Near the condition limit it exceeds
    # the relative bound.
    sigma_z2 = 10.0 ** z[p] if case == "fixed" else 1.0
    rounding = kernel_condition(D, z, case, sigma_z2) * np.finfo(float).eps * abs(value) / h
    assert np.abs(grad - fd).max() <= max(1e-5 * max(np.abs(fd).max(), 1e-3), rounding)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    log_theta=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
    log_g=st.floats(-4.0, 1.0),
)
def test_objective_is_lml_at_profiled_sigma_z2(seed, n, log_theta, log_g):
    X, y = search_problem(seed, n, 2)
    D = _squared_differences(X)
    assume(well_conditioned(D, np.append(log_theta, log_g), "free", limit=1e5))
    theta, g = 10.0 ** np.array(log_theta), 10.0**log_g
    value, _, sigma_z2 = _neg_lml(D, y, theta, None, g)
    mu = gls_mu(X, y, sigma_z2, theta, g * sigma_z2)
    expected = -log_marginal_likelihood(X, y, mu, sigma_z2, theta, g * sigma_z2)
    assert value == pytest.approx(expected, abs=1e-10)


def test_profiled_sigma_z2_maximizes_likelihood():
    X, y = search_problem(3, 10, 2)
    theta, g = np.array([2.0, 5.0]), 1e-2
    value, _, sigma_z2 = _neg_lml(_squared_differences(X), y, theta, None, g)
    assert SIGMA_Z2_BOUNDS[0] < sigma_z2 < SIGMA_Z2_BOUNDS[1]
    for factor in (0.9, 1.1):
        scaled = factor * sigma_z2
        other, _, _ = _neg_lml(_squared_differences(X), y, theta, scaled, g * scaled)
        assert other > value


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    case=st.sampled_from(["free", "zero", "fixed"]),
)
def test_likelihood_invariant_to_row_permutation(seed, n, case):
    X, y = search_problem(seed, n, 3)
    perm = fq.make_rng(seed).permutation(n)
    theta = np.array([1.0, 3.0, 10.0])
    got = log_marginal_likelihood(X[perm], y[perm], 0.2, 1.3, theta, 0.01)
    assert got == pytest.approx(log_marginal_likelihood(X, y, 0.2, 1.3, theta, 0.01), rel=1e-12)
    z = np.log10([1.0, 3.0, 10.0, 0.1])[: 3 if case == "zero" else 4]
    a_val, a_grad, a_sz2 = objective(_squared_differences(X), y, z, case)
    b_val, b_grad, b_sz2 = objective(_squared_differences(X[perm]), y[perm], z, case)
    assert b_val == pytest.approx(a_val, rel=1e-12)
    assert np.allclose(b_grad, a_grad, rtol=1e-9, atol=1e-9 * np.abs(a_grad).max())
    assert b_sz2 == pytest.approx(a_sz2, rel=1e-12)


def test_search_record():
    X, y = search_problem(21, 15, 2)
    model = fit_kriging(X, y, fq.make_rng(22), n_starts=3, budget=40)
    rec = model.search
    assert 3 <= rec["evaluations"] <= 3 * 40
    assert rec["failed_starts"] == 0
    assert rec["best_start"] in (0, 1, 2)
    assert rec["jitter"] == 0.0
    expected = -log_marginal_likelihood(
        model.X_norm, model.y_std, model.mu, model.sigma_z2, model.theta, model.sigma_n2
    )
    assert rec["neg_lml"] == pytest.approx(expected, rel=1e-12)
    share = model.sigma_n2 / (model.sigma_z2 + model.sigma_n2)
    assert rec["nugget_share"] == pytest.approx(share, rel=1e-12)


def test_budget_caps_evaluations_per_start():
    X, y = search_problem(23, 15, 2)
    model = fit_kriging(X, y, fq.make_rng(24), n_starts=2, budget=5)
    assert model.search["evaluations"] <= 10


def test_every_start_failing_raises_with_count():
    # Identical inputs make the noiseless kernel matrix all ones: singular
    # at every theta.
    X = np.zeros((5, 2))
    y = np.arange(5.0)
    with pytest.raises(np.linalg.LinAlgError, match="all 3 hyperparameter starts failed"):
        fit_kriging(X, y, fq.make_rng(25), n_starts=3, budget=20, fix_nugget=0.0)


def test_clamped_nugget_stays_in_its_box():
    # A noiseless smooth target drives the nugget ratio to its lower edge,
    # so sigma_n2 = g sigma_z2 is clamped up to SIGMA_N2_BOUNDS[0].
    X = np.linspace(0, 1, 20)[:, None]
    y = np.sin(5 * X[:, 0]) + 2.0
    model = fit_kriging(X, y, fq.make_rng(2))
    assert "sigma_n2" in model.search["on_bound"]
    assert model.sigma_n2 == SIGMA_N2_BOUNDS[0]
    assert np.all((model.theta >= THETA_BOUNDS[0]) & (model.theta <= THETA_BOUNDS[1]))
    assert SIGMA_Z2_BOUNDS[0] <= model.sigma_z2 <= SIGMA_Z2_BOUNDS[1]
    assert NUGGET_RATIO_BOUNDS == pytest.approx((1e-10, 1e5), rel=1e-12)


def test_fixed_nugget_searches_sigma_z2():
    X, y = search_problem(26, 12, 2)
    model = fit_kriging(X, y, fq.make_rng(27), n_starts=3, budget=60, fix_nugget=0.05)
    assert model.sigma_n2 == 0.05
    assert SIGMA_Z2_BOUNDS[0] <= model.sigma_z2 <= SIGMA_Z2_BOUNDS[1]
    assert "sigma_n2" not in model.search["on_bound"]


# ---------------------------------------------------------------------------
# The L-BFGS-B loop: scipy.optimize.minimize is its oracle


def recording(D, y, case):
    """(fun, points): fun is objective() on the searched entries, with
    sigma_z2 as its info, and appends each x it is given to points."""
    p = D.shape[0]
    searched = [*range(p), *{"free": [p], "zero": [], "fixed": [p + 1]}[case]]
    points = []

    def fun(x):
        points.append(x.copy())
        value, grad, sigma_z2 = objective(D, y, x, case)
        return value, grad[searched], sigma_z2

    return fun, points


class BudgetSpent(Exception):
    """The oracle's objective was asked for one evaluation past the budget."""


def minimize_lbfgsb(fun, x0, bounds, budget):
    """kriging._lbfgsb's contract, kept with minimize: an objective that
    raises at evaluation budget + 1 and keeps the best point."""
    best, used = None, 0

    def objective(x):
        nonlocal best, used
        if used == budget:
            raise BudgetSpent
        used += 1
        value, grad, info = fun(x)
        if best is None or value < best[0]:
            best = (value, x.copy(), info)
        return value, grad

    try:
        stop = minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                        options={"maxfun": 15000}).message
    except BudgetSpent:
        stop = kriging.BUDGET_STOP
    except np.linalg.LinAlgError as err:
        stop = str(err)
    return best, used, stop


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 10),
    p=st.integers(1, 3),
    case=st.sampled_from(["free", "zero", "fixed"]),
    noiseless=st.booleans(),
    lows=st.lists(st.floats(-4.0, 1.0), min_size=4, max_size=4),
    widths=st.lists(st.floats(0.01, 5.0), min_size=4, max_size=4),
    starts=st.lists(st.floats(-0.2, 1.2), min_size=4, max_size=4),
    budget=st.just(15000) | st.integers(1, 60),
)
# The search's own box for p = 2 and a free nugget, the start's nugget
# ratio above it.
@example(seed=0, n=8, p=2, case="free", noiseless=False, lows=[-4.0, -4.0, -10.0, 0.0],
         widths=[8.0, 8.0, 15.0, 1.0], starts=[0.5, 0.5, 1.2, 0.0], budget=60)
# A kernel matrix that does not factorize after 4 evaluations, and a
# line search that fails after 33.
@example(seed=38, n=10, p=1, case="zero", noiseless=True, lows=[-0.9] * 4, widths=[1.4] * 4,
         starts=[0.42] * 4, budget=15000)
@example(seed=30, n=8, p=1, case="zero", noiseless=True, lows=[-0.6] * 4, widths=[3.8] * 4,
         starts=[0.11] * 4, budget=15000)
@example(seed=1, n=6, p=1, case="zero", noiseless=False, lows=[-1.0] * 4, widths=[3.0] * 4,
         starts=[-0.2] * 4, budget=3)
def test_lbfgsb_requests_the_points_minimize_requests(seed, n, p, case, noiseless, lows, widths,
                                                       starts, budget):
    # Random boxes (a start outside one is clipped into it), budgets and a
    # kernel matrix that does not factorize: the loop and minimize evaluate
    # the same points, bit for bit, and return the same best point,
    # evaluation count and stop.
    X, y = search_problem(seed, n, p)
    if noiseless:
        y = np.sin(3 * X[:, 0])
    D = _squared_differences(X)
    k = p + (case != "zero")
    lo, width = np.array(lows[:k]), np.array(widths[:k])
    bounds = np.column_stack([lo, lo + width])
    x0 = lo + np.array(starts[:k]) * width
    runs = []
    for lbfgsb in (minimize_lbfgsb, kriging._lbfgsb):
        fun, points = recording(D, y, case)
        runs.append((lbfgsb(fun, x0, bounds, budget), points))
    (want, want_points), (got, got_points) = runs
    assert got[1:] == want[1:]
    assert len(got_points) == len(want_points) == got[1] <= budget
    assert all(np.array_equal(a, b) for a, b in zip(got_points, want_points))
    assert (got[0] is None) == (want[0] is None)
    if want[0] is not None:
        (got_value, got_x, got_info), (want_value, want_x, want_info) = got[0], want[0]
        assert (got_value, got_info) == (want_value, want_info)
        assert np.array_equal(got_x, want_x)


def test_lbfgsb_keeps_the_first_of_tied_values():
    # A flat value with a steady slope: no step decreases it, so every
    # evaluation ties and the line search fails.  info is the call number.
    def flat(x):
        calls.append(x)
        return 1.0, np.ones(1), len(calls)

    results = []
    for lbfgsb in (minimize_lbfgsb, kriging._lbfgsb):
        calls = []
        (value, x, info), used, stop = lbfgsb(flat, np.array([0.5]), np.array([[0.0, 1.0]]), 50)
        results.append((value, x.tolist(), info, used, stop))
    assert results[1] == results[0] == (1.0, [0.5], 1, 21, "ABNORMAL: ")


@pytest.mark.parametrize("fix_nugget, budget", [(None, 400), (None, 7), (0.0, 100), (0.05, 60)])
def test_search_record_equals_the_minimize_search(monkeypatch, fix_nugget, budget):
    X, y = search_problem(26, 12, 2)
    fits = [fit_kriging(X, y, fq.make_rng(26), n_starts=3, budget=budget, fix_nugget=fix_nugget)]
    monkeypatch.setattr(kriging, "_lbfgsb", minimize_lbfgsb)
    fits.append(fit_kriging(X, y, fq.make_rng(26), n_starts=3, budget=budget,
                            fix_nugget=fix_nugget))
    got, want = fits
    assert got.search == want.search
    assert np.array_equal(got.theta, want.theta)
    assert (got.sigma_z2, got.sigma_n2, got.mu) == (want.sigma_z2, want.sigma_n2, want.mu)


def test_stops_name_why_each_start_ended(monkeypatch):
    X, y = search_problem(21, 15, 2)

    def search(budget=400):
        return fit_kriging(X, y, fq.make_rng(22), n_starts=3, budget=budget).search

    assert all(stop.startswith("CONVERGENCE: ") for stop in search()["stops"])
    assert search(budget=3)["stops"] == [kriging.BUDGET_STOP] * 3
    neg_lml, calls = kriging._neg_lml, []

    def failing_first(*args):
        # The first start's first kernel matrix does not factorize.
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("kernel matrix is not positive definite")
        return neg_lml(*args)

    monkeypatch.setattr(kriging, "_neg_lml", failing_first)
    record = search()
    assert record["stops"][0] == "kernel matrix is not positive definite"
    assert record["failed_starts"] == 1
    assert all(stop.startswith("CONVERGENCE: ") for stop in record["stops"][1:])

    def uphill(*args):
        # A gradient of the wrong sign: no line search finds a decrease.
        value, grad, sigma_z2 = neg_lml(*args)
        return value, -grad, sigma_z2

    monkeypatch.setattr(kriging, "_neg_lml", uphill)
    assert search()["stops"] == ["ABNORMAL: "] * 3


# ---------------------------------------------------------------------------
# The kernel cut: the search takes entries exp(-x) with x > CUT as 0.0


def evaluate_or_none(D, y, z, case, cut=CUT, on_cut=None):
    """objective() with the kernel cut at `cut`, or None when it raises."""
    with mock.patch.object(kriging, "CUT", cut):
        try:
            return objective(D, y, z, case, on_cut)
        except np.linalg.LinAlgError:
            return None


def cut_gradient_terms(D, y, z, case, sigma_z2):
    """What the cut drops from each _log10_gradient entry, in absolute value.

    The theta entries are (ln 10 / 2) theta_d sum_ij D_d,ij Q_ij K_ij and
    the sigma_z2 entry (ln 10 / 2) sum_ij Q_ij K_ij, with Q = A^-1 - alpha
    alpha'; the nugget entry holds no K.  Returns those sums over the cut
    entries (exponent above CUT) with |Q_ij|, from the Cholesky factor of
    the uncut matrix.
    """
    p, n = D.shape[0], y.size
    theta = 10.0 ** z[:p]
    arg = theta @ D
    E = np.exp(-arg)
    # The matrix _neg_lml factors, M, and s with A = s M.
    if case == "fixed":
        M, s = sigma_z2 * E.reshape(n, n) + 0.05 * np.eye(n), 1.0
    else:
        g = 10.0 ** z[-1] if case == "free" else 0.0
        M, s = E.reshape(n, n) + g * np.eye(n), sigma_z2
    A_inv = cho_solve(cho_factor(M, lower=True), np.eye(n)) / s
    w = A_inv.sum(axis=1)
    alpha = A_inv @ (y - w @ y / w.sum())
    Q = A_inv - np.outer(alpha, alpha)
    dropped = np.where(arg > CUT, sigma_z2 * E * np.abs(Q).ravel(), 0.0)
    return 0.5 * math.log(10.0) * np.append(theta * (D @ dropped), [0.0, dropped.sum()])


LOG_THETA = st.one_of(st.sampled_from([-4.0, 4.0]), st.floats(-4.0, 4.0))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    p=st.integers(1, 3),
    log_theta=st.lists(LOG_THETA, min_size=3, max_size=3),
    u=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    case=st.sampled_from(["free", "zero", "fixed"]),
)
@example(seed=0, n=12, p=3, log_theta=[4.0] * 3, u=0.0, case="free")
@example(seed=0, n=12, p=3, log_theta=[-4.0] * 3, u=1.0, case="fixed")
@example(seed=1, n=12, p=3, log_theta=[4.0, -4.0, 4.0], u=0.5, case="zero")
@example(seed=986325, n=4, p=3, log_theta=[-4.0, 4.0, 3.52734375], u=0.0, case="fixed")
def test_kernel_cut_changes_no_rounded_value(seed, n, p, log_theta, u, case):
    X, y = search_problem(seed, n, p)
    D = _squared_differences(X)
    z = np.array(log_theta[:p])
    if case != "zero":
        lo, hi = np.log10(NUGGET_RATIO_BOUNDS if case == "free" else SIGMA_Z2_BOUNDS)
        z = np.append(z, lo + u * (hi - lo))
    cuts = []
    got = evaluate_or_none(D, y, z, case, on_cut=lambda: cuts.append(z))
    assert len(cuts) == int((10.0 ** z[:p] @ D).max() > CUT)
    reference = evaluate_or_none(D, y, z, case, cut=math.inf)
    assert (got is None) == (reference is None)
    if got is None:
        return
    (value, grad, sigma_z2), (ref_value, ref_grad, ref_sigma_z2) = got, reference
    assert value == pytest.approx(ref_value, rel=1e-13)
    assert sigma_z2 == pytest.approx(ref_sigma_z2, rel=1e-13)
    # Gradient entries may differ by at most the terms the cut drops: below
    # about 1e-40 where every off-diagonal entry is cut, negligible next to
    # any entry that is not cut.  Subnormal terms round in steps of the
    # smallest subnormal, so the bound has a floor of a few of them.
    atol = cut_gradient_terms(D, y, z, case, ref_sigma_z2)
    floor = 4 * math.ulp(0.0)
    assert np.all(np.abs(grad - ref_grad) <= 1e-12 * np.abs(ref_grad) + 1.001 * atol + floor)


def test_every_entry_cut_gives_a_zero_theta_gradient(monkeypatch):
    # Six equispaced points: at theta = 1e4 neighbours have exponent 400
    # (E = 1.9e-174 uncut) and every other pair underflows to 0.0.
    X = np.linspace(0.0, 1.0, 6)[:, None]
    y = np.array([0.3, -1.2, 0.8, 1.5, -0.4, -1.0])
    D = _squared_differences(X)
    z = np.array([4.0, -2.0])
    cuts = []
    value, grad, _ = objective(D, y, z, "free", on_cut=lambda: cuts.append(z))
    assert math.isfinite(value) and len(cuts) == 1
    assert grad[0] == 0.0
    _, uncut_grad, _ = evaluate_or_none(D, y, z, "free", cut=math.inf)
    assert uncut_grad[0] != 0.0
    # The search record counts every evaluation the cut applied to.
    counted = []

    def counting(D, y, theta, *args):
        counted.append(bool((theta @ D).max() > CUT))
        return _neg_lml(D, y, theta, *args)

    monkeypatch.setattr(kriging, "_neg_lml", counting)
    rec = fit_kriging(X, y, fq.make_rng(3), n_starts=3, budget=30).search
    assert rec["evaluations"] == len(counted)
    assert rec["cut_evaluations"] == sum(counted) > 0


# ---------------------------------------------------------------------------
# _neg_lml works in two N x N buffers and reads one triangle of M^-1; the
# allocating form, with the full symmetric Q, is its oracle


def allocating_neg_lml(D, y, theta, sigma_z2, nugget):
    """_neg_lml with fresh arrays at every step and the full Q = A^-1 -
    alpha alpha', as first written: the reference whose value and sigma_z2
    the buffered form must equal bit for bit.  Also returns each gradient
    entry's sum of absolute terms, the scale of its rounding error: (ln 10
    / 2) times theta_d (D @ (|Q| o K)) for theta_d, sigma_n2 sum_i |Q_ii|
    for the nugget and sum(|Q| o K) for sigma_z2, with |Q| taken term by
    term as |A^-1| + |alpha| |alpha|', since A^-1 and alpha alpha' can
    cancel."""
    n = y.size
    arg = theta @ D
    if arg.max() > CUT:
        keep = arg <= CUT
        E = np.exp(-np.minimum(arg, CUT))
        E *= keep
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
    beta = v - mu * w
    quad = float(r @ beta)
    s = float(np.clip(quad / n, *SIGMA_Z2_BOUNDS)) if sigma_z2 is None else 1.0
    logdet = n * math.log(s) + 2.0 * np.sum(np.log(np.diag(L)))
    value = 0.5 * quad / s + 0.5 * logdet + 0.5 * n * math.log(2 * math.pi)
    M_inv = dpotri(L, lower=1)[0]
    Q = M_inv + M_inv.T
    Q.flat[:: n + 1] *= 0.5
    abs_q = (np.abs(Q) + np.outer(np.abs(beta), np.abs(beta / s))) / s
    Q -= np.outer(beta, beta / s)
    Q /= s
    K = s * scale * E
    W = Q * K
    d_theta = -theta * (D @ W.ravel())
    grad = 0.5 * math.log(10.0) * np.append(d_theta, [s * nugget * np.trace(Q), W.sum()])
    if not (math.isfinite(value) and np.all(np.isfinite(grad))):
        raise np.linalg.LinAlgError("non-finite likelihood")
    abs_w = abs_q * K
    terms = np.append(theta * (D @ abs_w.ravel()), [s * nugget * np.trace(abs_q), abs_w.sum()])
    return value, grad, s * scale, 0.5 * math.log(10.0) * terms


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    p=st.integers(1, 3),
    log_theta=st.lists(LOG_THETA, min_size=3, max_size=3),
    u=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    case=st.sampled_from(["free", "zero", "fixed"]),
    pass_ones_y=st.booleans(),
)
@example(seed=0, n=12, p=3, log_theta=[4.0] * 3, u=0.5, case="free", pass_ones_y=True)
@example(seed=2, n=12, p=3, log_theta=[2.0] * 3, u=0.5, case="fixed", pass_ones_y=True)
@example(seed=3, n=12, p=2, log_theta=[-1.0] * 3, u=0.0, case="zero", pass_ones_y=False)
def test_neg_lml_equals_allocating_reference(seed, n, p, log_theta, u, case, pass_ones_y):
    X, y = search_problem(seed, n, p)
    D = _squared_differences(X)
    D_before, y_before = D.copy(), y.copy()
    theta = 10.0 ** np.array(log_theta[:p])
    if case == "zero":
        args = (None, 0.0)
    else:
        lo, hi = np.log10(NUGGET_RATIO_BOUNDS if case == "free" else SIGMA_Z2_BOUNDS)
        extra = 10.0 ** (lo + u * (hi - lo))
        # The free nugget is the ratio g; a pinned one is sigma_n2 beside sigma_z2.
        args = (None, extra) if case == "free" else (extra, 0.05)
    ones_y = np.column_stack([np.ones(n), y]) if pass_ones_y else None
    try:
        want = allocating_neg_lml(D, y, theta, *args)
    except np.linalg.LinAlgError:
        want = None
    try:
        got = _neg_lml(D, y, theta, *args, None, ones_y)
    except np.linalg.LinAlgError:
        got = None
    assert (got is None) == (want is None)
    if got is not None:
        value, grad, sigma_z2 = got
        assert np.array_equal(value, want[0])
        assert np.array_equal(sigma_z2, want[2])
        # The gradient sums one triangle of M^-1 in another order.
        assert np.all(np.abs(grad - want[1]) <= 1e-12 * want[3])
    assert np.array_equal(D, D_before) and np.array_equal(y, y_before)
    if pass_ones_y:
        assert np.array_equal(ones_y, np.column_stack([np.ones(n), y]))
