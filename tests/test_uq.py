import dataclasses
import math
import multiprocessing
import os
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funcuq as fq
from funcuq import core, uq
from funcuq.core import one_blas_thread, write_table
from funcuq.kriging import PREDICT_ROWS, normalize_inputs
from funcuq.uq import (
    KDE_REACH,
    InputDistribution,
    Lognormal,
    Normal,
    Uniform,
    ensemble_mcmc,
    forward_uq,
    kde_pdf,
    load_observations,
    log_posterior,
    log_posterior_block,
    posterior_summary,
    save_observations,
    silverman_bandwidth,
    stretch_draw,
)

GRID = fq.TimeGrid(0.0, 1.0, 21)
T = GRID.nodes


def linear_hook(X):
    X = np.atleast_2d(X)
    return X[:, 0:1] * T[None, :] + X[:, 1:2]


# ---------------------------------------------------------------------------
# Marginals


def test_marginal_validation():
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)
    with pytest.raises(ValueError):
        Lognormal(-1.0, 1.0)
    with pytest.raises(ValueError):
        Uniform(2.0, 2.0)


def test_lognormal_moments():
    dist = Lognormal(mean=6e4, std=3e3)
    x = dist.sample(fq.make_rng(0), 200_000)
    assert np.all(x > 0)
    assert x.mean() == pytest.approx(6e4, rel=0.01)
    assert x.std() == pytest.approx(3e3, rel=0.02)


def test_uniform_logpdf_support():
    u = Uniform(0.0, 2.0)
    assert u.logpdf(1.0) == pytest.approx(-math.log(2.0))
    assert u.logpdf(2.5) == -math.inf


def test_input_distribution_logpdf_sums():
    dist = InputDistribution([Normal(0, 1), Uniform(0, 1)])
    assert dist.logpdf([0.0, 0.5]) == pytest.approx(
        Normal(0, 1).logpdf(0.0) + Uniform(0, 1).logpdf(0.5)
    )
    assert dist.logpdf([0.0, 2.0]) == -math.inf


# ---------------------------------------------------------------------------
# Forward UQ


def test_forward_uq_linear_oracle():
    dist = InputDistribution([Normal(0, 1), Normal(0, 1)])
    res = forward_uq(linear_hook, dist.sample(fq.make_rng(42), 100_000))
    assert np.abs(res.mean).max() <= 0.02
    expected_std = np.sqrt(T**2 + 1.0)
    assert np.abs(res.std / expected_std - 1.0).max() <= 0.02


def test_forward_uq_point_mass_degenerate():
    dist = InputDistribution([Uniform(0.5 - 1e-13, 0.5 + 1e-13),
                              Uniform(1.0 - 1e-13, 1.0 + 1e-13)])
    res = forward_uq(linear_hook, dist.sample(fq.make_rng(1), 500))
    assert res.std.max() <= 1e-10


def test_forward_uq_factored_mean_identity():
    # Through a surrogate, the mean equals the average of the per-sample
    # curves to rounding.
    ens_rng = fq.make_rng(2)
    X = ens_rng.uniform(0, 1, (25, 2))
    Y = linear_hook(X)
    ens = fq.ResponseEnsemble(X, Y, GRID)
    s = fq.fit_surrogate(ens, fq.FitConfig(reducer="pca", n_starts=3, budget=100),
                         fq.make_rng(3))
    dist = InputDistribution([Uniform(0.1, 0.9), Uniform(0.1, 0.9)])
    res = forward_uq(s, dist.sample(fq.make_rng(4), 100))
    X_same = dist.sample(fq.make_rng(4), 100)
    naive = s.predict_mean_curves(X_same).mean(axis=0)
    assert np.abs(res.mean - naive).max() <= 1e-10 * max(1.0, np.abs(naive).max())


def test_forward_uq_std_nonnegative_and_kde_normalized():
    dist = InputDistribution([Normal(0, 1), Normal(0, 1)])
    res = forward_uq(linear_hook, dist.sample(fq.make_rng(5), 5000))
    assert np.all(res.std >= 0.0)
    for dens in (res.kde_max, res.kde_min):
        integral = np.trapezoid(dens, res.kde_grid)
        assert integral == pytest.approx(1.0, abs=1e-3)


def test_forward_uq_monte_carlo_rate():
    # Mean-absolute moment errors roughly halve when n_mcs quadruples.
    dist = InputDistribution([Normal(0, 1), Normal(0, 1)])
    true_std = np.sqrt(T**2 + 1.0)

    def moment_error(n_mcs, seed):
        res = forward_uq(linear_hook, dist.sample(fq.make_rng(seed), n_mcs))
        return (np.abs(res.mean).max()
                + np.abs(res.std - true_std).max())

    coarse = np.mean([moment_error(2_500, 100 + s) for s in range(5)])
    fine = np.mean([moment_error(10_000, 200 + s) for s in range(5)])
    assert 1.2 <= coarse / fine <= 3.5


def test_forward_uq_constant_response_gives_empty_kde():
    dist = InputDistribution([Normal(0, 1), Normal(0, 1)])
    res = forward_uq(lambda X: np.ones((X.shape[0], T.size)), dist.sample(fq.make_rng(1), 500))
    assert np.array_equal(res.mean, np.ones(T.size))
    assert res.kde_grid.size == res.kde_max.size == res.kde_min.size == 0


def test_forward_uq_rejects_non_finite_responses():
    dist = InputDistribution([Normal(0, 1), Normal(0, 1)])

    def hook(X):
        curves = linear_hook(X)
        curves[X[:, 0] > 1.5, 3] = np.nan
        curves[X[:, 1] < -2.0, 7] = np.inf
        return curves

    X = dist.sample(fq.make_rng(26), 2000)
    bad = int(np.count_nonzero((X[:, 0] > 1.5) | (X[:, 1] < -2.0)))
    assert bad > 0
    with pytest.raises(ValueError, match=f"^{bad} of 2000 Monte Carlo samples"):
        forward_uq(hook, dist.sample(fq.make_rng(26), 2000), batch_size=300)


def test_forward_uq_kde_errors_are_not_swallowed(monkeypatch):
    # Only a zero-spread sample gives an empty KDE; other errors propagate.
    def broken_kde(samples, eval_points):
        raise ValueError("broken kde")

    monkeypatch.setattr(uq, "kde_pdf", broken_kde)
    dist = InputDistribution([Normal(0, 1), Normal(0, 1)])
    with pytest.raises(ValueError, match="broken kde"):
        forward_uq(linear_hook, dist.sample(fq.make_rng(27), 200))


BATCH_DIST = InputDistribution([Normal(0, 1), Normal(0, 1)])
BATCH_N = 300


@settings(max_examples=15)
@given(batch_size=st.integers(1, BATCH_N + 5))
def test_forward_uq_batch_size_invariant(batch_size):
    # An exact-model hook maps each sample to the same curve in any block,
    # so everything but the running sums is bit-identical.
    ref = forward_uq(linear_hook, BATCH_DIST.sample(fq.make_rng(28), BATCH_N),
                     batch_size=BATCH_N)
    res = forward_uq(linear_hook, BATCH_DIST.sample(fq.make_rng(28), BATCH_N),
                     batch_size=batch_size)
    for name in ("maxima", "minima", "kde_grid", "kde_max", "kde_min"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name
    np.testing.assert_allclose(res.mean, ref.mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.std, ref.std, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def batch_surrogate():
    X = fq.make_rng(2).uniform(-2, 2, (25, 2))
    # Surrogate curves of a sample depend on its block only through BLAS
    # summation order, to about cond(A) * eps relative to the curve scale;
    # a nugget of 0.1 keeps the kernel systems well conditioned.
    cfg = fq.FitConfig(reducer="pca", n_starts=3, budget=100, fix_nugget=0.1)
    sur = fq.fit_surrogate(fq.ResponseEnsemble(X, linear_hook(X), GRID), cfg, fq.make_rng(3))
    ref = forward_uq(sur, BATCH_DIST.sample(fq.make_rng(28), BATCH_N), batch_size=BATCH_N)
    return sur, ref


@settings(max_examples=10)
@given(batch_size=st.integers(1, BATCH_N + 5))
def test_forward_uq_surrogate_batch_size_invariant(batch_surrogate, batch_size):
    sur, ref = batch_surrogate
    res = forward_uq(sur, BATCH_DIST.sample(fq.make_rng(28), BATCH_N), batch_size=batch_size)
    for name in ("maxima", "minima", "kde_grid", "kde_max", "kde_min", "mean", "std"):
        expected = getattr(ref, name)
        np.testing.assert_allclose(getattr(res, name), expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max(), err_msg=name)


def reference_scores(sur, X):
    """Latent means with a fresh array for every step, as predict_stack
    computes them: per chunk of PREDICT_ROWS rows, each model's kernel is
    sigma_z2 exp(-theta.D), with D the per-dimension squared differences to
    the training inputs, contracted with alpha."""
    scores = np.empty((X.shape[0], sur.m))
    for start in range(0, X.shape[0], PREDICT_ROWS):
        for j, mod in enumerate(sur.models):
            Xn = normalize_inputs(X[start : start + PREDICT_ROWS], mod.input_lo, mod.input_hi)
            # C order, as predict_stack's buffer holds it: the GEMV's bits
            # depend on the layout.
            D = np.ascontiguousarray((mod.X_norm.T[:, :, None] - Xn.T[:, None, :]) ** 2)
            Ks = mod.sigma_z2 * np.exp(-mod.theta @ D.reshape(D.shape[0], -1))
            Ks = Ks.reshape(mod.X_norm.shape[0], -1)
            scores[start : start + Xn.shape[0], j] = (
                (mod.mu + mod._alpha @ Ks) * mod.y_scale + mod.y_offset
            )
    return scores


def allocating_forward(model, samples, batch_size, kde_points=512):
    """forward_uq with a fresh array for every intermediate, as first
    written: the reference its in-place loop must equal bit for bit."""
    n_mcs = samples.shape[0]
    ref = None
    maxima, minima = np.empty(n_mcs), np.empty(n_mcs)
    for start in range(0, n_mcs, batch_size):
        block = samples[start : start + batch_size]
        if isinstance(model, fq.LatentSurrogate):
            curves = model.reducer.mean_curve + reference_scores(model, block) @ model.reducer.phi.T
        else:
            curves = model(block)
        if ref is None:
            ref = curves[0].copy()
            shift_sum, shift_sumsq = np.zeros(ref.size), np.zeros(ref.size)
        shifted = curves - ref
        shift_sum += shifted.sum(axis=0)
        shift_sumsq += (shifted**2).sum(axis=0)
        maxima[start : start + block.shape[0]] = curves.max(axis=1)
        minima[start : start + block.shape[0]] = curves.min(axis=1)
    mean = ref + shift_sum / n_mcs
    mu_shift = mean - ref
    var = shift_sumsq / n_mcs - 2.0 * mu_shift * (shift_sum / n_mcs) + mu_shift**2
    h_max, h_min = silverman_bandwidth(maxima), silverman_bandwidth(minima)
    lo = min(maxima.min() - 6 * h_max, minima.min() - 6 * h_min)
    hi = max(maxima.max() + 6 * h_max, minima.max() + 6 * h_min)
    kde_grid = np.linspace(lo, hi, kde_points)
    return {
        "mean": mean,
        "std": np.sqrt(np.clip(var, 0.0, None)),
        "maxima": maxima,
        "minima": minima,
        "kde_grid": kde_grid,
        "kde_max": windowed_kde_reference(maxima, kde_grid),
        "kde_min": windowed_kde_reference(minima, kde_grid),
    }


@pytest.mark.parametrize("batch_size", [1, 7, 128, BATCH_N, BATCH_N + 5])
@pytest.mark.parametrize("kind", ["surrogate", "hook"])
def test_forward_uq_equals_allocating_reference(batch_surrogate, kind, batch_size):
    # 7 and 128 leave a partial last block of the 300 samples.
    model = batch_surrogate[0] if kind == "surrogate" else linear_hook
    samples = BATCH_DIST.sample(fq.make_rng(28), BATCH_N)
    res = forward_uq(model, samples, batch_size=batch_size)
    ref = allocating_forward(model, samples, batch_size)
    for name, expected in ref.items():
        assert np.array_equal(getattr(res, name), expected), name


@pytest.mark.parametrize("batch_size", [7, BATCH_N])
def test_forward_uq_one_path_for_every_model(batch_surrogate, batch_size):
    # A surrogate is just a batched model: wrapping it in a plain function
    # changes no bit of any result field.
    sur = batch_surrogate[0]
    samples = BATCH_DIST.sample(fq.make_rng(28), BATCH_N)
    res = forward_uq(sur, samples, batch_size=batch_size)
    wrapped = forward_uq(lambda B: sur(B), samples, batch_size=batch_size)
    for f in dataclasses.fields(res):
        assert np.array_equal(getattr(res, f.name), getattr(wrapped, f.name)), f.name


def test_forward_uq_copies_results_that_are_not_c_ordered(monkeypatch):
    # A hook that returns a transposed view of an array it keeps: forward_uq
    # works on a C-ordered copy, leaves the hook's array alone, and gives
    # the same bits as for a C-ordered result.  One process, so that every
    # block the hook evaluates is kept in this process's list.
    monkeypatch.setattr(core, "usable_cpus", lambda: 1)
    kept = []

    def view_hook(X):
        kept.append(np.ascontiguousarray(linear_hook(X).T))
        return kept[-1].T

    samples = BATCH_DIST.sample(fq.make_rng(29), BATCH_N)
    res = forward_uq(view_hook, samples, batch_size=128)
    ref = forward_uq(linear_hook, samples, batch_size=128)
    for f in dataclasses.fields(res):
        assert np.array_equal(getattr(res, f.name), getattr(ref, f.name)), f.name
    for start, array in zip(range(0, BATCH_N, 128), kept):
        assert np.array_equal(array.T, linear_hook(samples[start : start + 128]))


@settings(max_examples=12)
@given(kind=st.sampled_from(["surrogate", "hook"]),
       batch_size=st.integers(1, BATCH_N - 1).filter(lambda b: BATCH_N % b))
def test_forward_uq_is_the_same_on_any_number_of_processes(batch_surrogate, kind, batch_size):
    # Every batch size leaves a partial last block.
    model = batch_surrogate[0] if kind == "surrogate" else linear_hook
    samples = BATCH_DIST.sample(fq.make_rng(31), BATCH_N)
    results = []
    with pytest.MonkeyPatch.context() as mp:
        for cpus in (1, 2, 3):
            mp.setattr(core, "usable_cpus", lambda: cpus)
            results.append(forward_uq(model, samples, batch_size=batch_size))
    for res in results[1:]:
        for f in dataclasses.fields(res):
            assert np.array_equal(getattr(res, f.name), getattr(results[0], f.name)), f.name
    assert multiprocessing.active_children() == []


# Samples whose first input is the row index, so a hook knows its block.
INDEXED_SAMPLES = np.column_stack([np.arange(500.0), np.zeros(500)])


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_forward_uq_names_the_lowest_failing_block_for_any_cpu_count(monkeypatch, cpus):
    # Blocks 2 and 3 fail.  Every block after block 0 takes a while in this
    # process, and block 2 a while longer in a helper: with helpers, this
    # process tends to fail on block 3 before a helper fails on block 2,
    # and block 2 still wins.
    main_pid = os.getpid()

    def hook(X):
        block = int(X[0, 0]) // 100
        if block:
            time.sleep(0.2 if os.getpid() == main_pid else 0.3 if block == 2 else 0.0)
        if block in (2, 3):
            raise ArithmeticError(f"failed on block {block}")
        return linear_hook(X)

    monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
    with pytest.raises(ArithmeticError,
                       match=r"^Monte Carlo block 2 \(rows 200-299\): failed on block 2$"):
        forward_uq(hook, INDEXED_SAMPLES, batch_size=100)
    assert multiprocessing.active_children() == []


def test_forward_uq_reports_a_helper_that_dies(monkeypatch, tmp_path):
    with one_blas_thread() as pinned:
        if not pinned:
            pytest.skip("no bundled OpenBLAS to pin, so forward_uq starts no helper")
    main_pid, marker = os.getpid(), tmp_path / "died"

    def hook(X):
        # A helper dies on its first block; this process waits for that,
        # so that the helper gets a block.
        if os.getpid() != main_pid:
            marker.touch()
            os._exit(3)
        if X[0, 0] > 0:
            deadline = time.monotonic() + 60.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        return linear_hook(X)

    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="exited with code 3 before sending its blocks"):
        forward_uq(hook, INDEXED_SAMPLES, batch_size=100)
    assert multiprocessing.active_children() == []


def test_forward_uq_rejects_a_change_of_curve_length():
    # n_t comes from the first block; a later block must match it.
    def shrinking_hook(X):
        return linear_hook(X)[:, : T.size - (X[0, 0] != samples[0, 0])]

    samples = BATCH_DIST.sample(fq.make_rng(30), BATCH_N)
    with pytest.raises(ValueError, match=r"shape \(100, 20\), expected \(100, 21\)"):
        forward_uq(shrinking_hook, samples, batch_size=100)


def test_forward_uq_surrogate_memory_bounded():
    # A block of 4096 curves on 401 nodes is 12.5 MiB.  The loop holds one
    # block of curves, the model's own, worked on in place, and one kernel
    # buffer (peak 15.7 MiB); a second curve buffer that the curves were
    # copied into peaked at 28.3 MiB, and fresh arrays for every step at
    # 53.3 MiB.
    grid = fq.TimeGrid(0.0, 1.0, 401)
    X = fq.make_rng(2).uniform(-2, 2, (30, 2))
    Y = X[:, 0:1] * grid.nodes[None, :] + X[:, 1:2] * np.sin(3 * grid.nodes)[None, :]
    cfg = fq.FitConfig(reducer="pca", n_starts=1, budget=30, fix_nugget=0.1)
    sur = fq.fit_surrogate(fq.ResponseEnsemble(X, Y, grid), cfg, fq.make_rng(3))
    tracemalloc.start()
    try:
        res = forward_uq(sur, BATCH_DIST.sample(fq.make_rng(4), 100_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(res.std)) and res.kde_max.size == 512
    assert peak < 24 * 2**20


def test_forward_uq_validation():
    dist = InputDistribution([Normal(0, 1)])
    with pytest.raises(ValueError):
        forward_uq(lambda X: X, dist.sample(fq.make_rng(0), 1))


# ---------------------------------------------------------------------------
# KDE


def test_silverman_bandwidth_formula():
    rng = fq.make_rng(6)
    x = rng.normal(size=400)
    sd = x.std(ddof=1)
    iqr = np.percentile(x, 75) - np.percentile(x, 25)
    expected = 0.9 * min(sd, iqr / 1.34) * 400 ** (-0.2)
    assert silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)


def test_silverman_bandwidth_rejects_non_finite():
    with pytest.raises(ValueError, match="1 of 5 samples are not finite"):
        silverman_bandwidth([np.nan, 1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="2 of 4 samples are not finite"):
        silverman_bandwidth([np.inf, 1.0, -np.inf, 3.0])


def test_kde_far_from_cluster_vanishes():
    x = np.array([0.0, 0.01, -0.02, 0.005, -0.01])
    dens = kde_pdf(x, np.array([50.0]))
    assert dens[0] <= 1e-12


def test_kde_integrates_to_one():
    rng = fq.make_rng(7)
    x = rng.normal(size=2000)
    h = silverman_bandwidth(x)
    grid = np.linspace(x.min() - 6 * h, x.max() + 6 * h, 2001)
    dens = kde_pdf(x, grid)
    assert np.all(dens >= 0.0)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_standard_normal_peak():
    x = fq.make_rng(8).standard_normal(10_000)
    dens = kde_pdf(x, np.array([0.0]))[0]
    assert dens == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=0.05)


def test_kde_identical_samples_error():
    with pytest.raises(ValueError):
        kde_pdf(np.full(10, 3.0), np.array([3.0]))
    for samples in ([], [3.0], np.full(10, 3.0)):
        with pytest.raises(ValueError, match="need at least 2 distinct samples"):
            silverman_bandwidth(samples)


def dense_kde(samples, eval_points):
    """The all-pairs Gaussian KDE that kde_pdf replaced, kept as its oracle:
    one (points x samples) matrix of terms, summed along each row."""
    samples = np.asarray(samples, dtype=float)
    eval_points = np.asarray(eval_points, dtype=float)
    h = silverman_bandwidth(samples)
    z = (eval_points[:, None] - samples[None, :]) / h
    # A z whose square overflows contributes exp(-inf) = 0, its exact term.
    with np.errstate(over="ignore"):
        terms = np.exp(-0.5 * z * z)
    return terms.sum(axis=1) / (samples.size * h * math.sqrt(2 * math.pi))


def windowed_kde_reference(samples, eval_points):
    """kde_pdf with fresh arrays for every window, as first written: the
    reference its buffered loop must equal bit for bit."""
    h = silverman_bandwidth(samples)
    ordered = np.sort(samples)
    reach = KDE_REACH * h
    starts = np.searchsorted(ordered, eval_points - reach, side="left")
    stops = np.searchsorted(ordered, eval_points + reach, side="right")
    sums = np.empty(eval_points.size)
    for i, (x, start, stop) in enumerate(zip(eval_points, starts, stops)):
        z = (x - ordered[start:stop]) / h
        sums[i] = np.exp(-0.5 * z * z).sum()
    return sums / (samples.size * h * math.sqrt(2 * math.pi))


def assert_matches_dense(samples, eval_points):
    windowed = kde_pdf(samples, eval_points)
    assert np.array_equal(windowed, windowed_kde_reference(samples, eval_points))
    dense = dense_kde(samples, eval_points)
    np.testing.assert_allclose(windowed, dense, rtol=1e-12, atol=0)
    assert np.array_equal(windowed == 0.0, dense == 0.0)


def test_kde_reach_covers_every_nonzero_term():
    assert np.exp(-0.5 * (0.999 * KDE_REACH) ** 2) == 0.0
    # ...and is no wider than double precision needs.
    assert np.exp(-0.5 * (0.995 * KDE_REACH) ** 2) > 0.0


def test_kde_matches_dense_on_heavy_tails():
    # Most (point, sample) pairs lie outside the window, as for the
    # benchmark's per-curve extremes.
    x = fq.make_rng(29).standard_cauchy(4000)
    h = silverman_bandwidth(x)
    grid = np.linspace(x.min() - 6 * h, x.max() + 6 * h, 512)
    assert_matches_dense(x, grid)
    assert_matches_dense(x, np.linspace(-5.0, 5.0, 301))


kde_values = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, 0.25, 1.0]),
)


@settings(max_examples=200)
@given(
    base=st.lists(kde_values, min_size=2, max_size=60),
    repeats=st.integers(1, 4),
    scale=st.sampled_from([1e-6, 1.0, 1e4]),
    shift=st.sampled_from([0.0, 3.0, -1e8]),
    points=st.lists(st.floats(-1e7, 1e7), max_size=30),
)
def test_kde_windowed_equals_dense(base, repeats, scale, shift, points):
    samples = shift + scale * np.repeat(np.array(base), repeats)
    try:
        h = silverman_bandwidth(samples)
    except ValueError:
        with pytest.raises(ValueError):
            kde_pdf(samples, np.array([shift]))
        return
    eval_points = np.concatenate([
        shift + scale * np.array(points),
        samples[:10],
        np.linspace(samples.min() - 40 * h, samples.max() + 40 * h, 41),
    ])
    assert_matches_dense(samples, eval_points)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kde_rejects_non_finite(bad):
    x = fq.make_rng(30).normal(size=50)
    with pytest.raises(ValueError, match="1 non-finite samples"):
        kde_pdf(np.append(x, bad), np.array([0.0]))
    with pytest.raises(ValueError, match="2 non-finite evaluation points"):
        kde_pdf(x, np.array([0.0, bad, 1.0, bad]))


def test_kde_memory_linear_in_samples():
    # The dense form holds several 512 x 100,000 float64 matrices (> 1 GB).
    x = fq.make_rng(31).standard_normal(100_000)
    grid = np.linspace(x.min(), x.max(), 512)
    tracemalloc.start()
    try:
        dens = kde_pdf(x, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(dens > 0.0)
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# Posterior density


def model_1d(x):
    return float(x[0]) * T


def test_log_posterior_outside_prior_support():
    obs = model_1d([1.0])[None, :]
    lp = log_posterior(model_1d, [Uniform(0, 2)], Uniform(1e-4, 1.0), obs, [2.5], 0.1)
    assert lp == -math.inf
    lp = log_posterior(model_1d, [Uniform(0, 2)], Uniform(1e-4, 1.0), obs, [1.0], -0.1)
    assert lp == -math.inf


def test_log_posterior_zero_residual():
    x = [1.3]
    obs = model_1d(x)[None, :]
    sigma = 0.2
    lp = log_posterior(model_1d, [Uniform(0, 2)], Uniform(1e-4, 1.0), obs, x, sigma)
    expected_ll = -0.5 * T.size * math.log(2 * math.pi * sigma**2)
    expected = expected_ll + Uniform(0, 2).logpdf(1.3) + Uniform(1e-4, 1.0).logpdf(sigma)
    assert lp == pytest.approx(expected, abs=1e-12)


def test_log_posterior_conjugate_quadratic():
    sigma = 0.1
    rng = fq.make_rng(9)
    obs = np.array([2.0 * T + rng.normal(0, sigma, T.size) for _ in range(3)])
    prior = Normal(1.5, 1.0)
    prec = 1 / prior.std**2 + 3 * np.sum(T**2) / sigma**2
    mu_post = (prior.mean / prior.std**2 + np.sum(obs @ T) / sigma**2) / prec

    def lp(x):
        return log_posterior(model_1d, [prior], Uniform(1e-6, 1.0), obs, [x], sigma)

    for x1, x2 in ((1.9, 2.1), (1.99, 2.03), (1.7, 2.4)):
        analytic = -0.5 * prec * ((x1 - mu_post) ** 2 - (x2 - mu_post) ** 2)
        assert lp(x1) - lp(x2) == pytest.approx(analytic, abs=1e-10)


def test_log_posterior_observation_order_invariant():
    rng = fq.make_rng(10)
    obs = np.array([model_1d([1.0]) + rng.normal(0, 0.1, T.size) for _ in range(4)])
    args = ([Uniform(0, 2)], Uniform(1e-4, 1.0))
    a = log_posterior(model_1d, *args, obs, [1.1], 0.1)
    b = log_posterior(model_1d, *args, obs[::-1], [1.1], 0.1)
    assert a == pytest.approx(b, abs=1e-12)


def test_log_posterior_needs_observations():
    with pytest.raises(ValueError):
        log_posterior(model_1d, [Uniform(0, 2)], Uniform(1e-4, 1.0),
                      np.zeros((0, T.size)), [1.0], 0.1)


def block_model_1d(X):
    return X[:, 0:1] * T[None, :]


BLOCK_PRIORS = ([Uniform(0, 2)], Uniform(1e-4, 1.0))


def noisy_observations(x, n_obs, seed):
    rng = fq.make_rng(seed)
    return np.array([model_1d([x]) + rng.normal(0, 0.1, T.size) for _ in range(n_obs)])


def test_log_posterior_block_matches_scalar():
    obs = noisy_observations(1.2, 3, 18)
    # In support, outside the x support, sigma <= 0, sigma outside its prior.
    thetas = np.array([[1.0, 0.1], [1.9, 0.3], [2.5, 0.1], [-0.1, 0.2],
                       [1.3, -0.1], [0.5, 0.0], [1.0, 1.5], [0.7, 0.05]])
    block = log_posterior_block(block_model_1d, *BLOCK_PRIORS, obs, thetas)
    assert np.sum(np.isfinite(block)) == 3
    for row, value in zip(thetas, block):
        scalar = log_posterior(model_1d, *BLOCK_PRIORS, obs, row[:-1], row[-1])
        assert value == pytest.approx(scalar, rel=1e-12, abs=1e-12)


def test_log_posterior_block_rejects_wrong_model_shape():
    obs = noisy_observations(1.2, 2, 18)
    with pytest.raises(ValueError, match="model returned shape"):
        log_posterior_block(lambda X: model_1d(X[0]), *BLOCK_PRIORS, obs,
                            np.array([[1.0, 0.1], [1.1, 0.1]]))


@pytest.mark.parametrize("columns", [1, 3])
def test_log_posterior_block_rejects_wrong_column_count(columns):
    obs = noisy_observations(1.2, 2, 18)
    with pytest.raises(ValueError, match=f"thetas have {columns} columns, expected 2"):
        log_posterior_block(block_model_1d, *BLOCK_PRIORS, obs, np.full((4, columns), 0.5))


def test_log_posterior_block_same_bits_for_any_observation_layout():
    obs = noisy_observations(1.2, 3, 25)
    # An observation file's columns, as load_observations reads them.
    file_view = np.column_stack([T, obs.T])[:, 1:].T
    thetas = np.column_stack([np.linspace(-0.2, 2.2, 40), np.linspace(-0.05, 1.1, 40)])
    layouts = [np.ascontiguousarray(obs), np.asfortranarray(obs), file_view]
    lps = [log_posterior_block(block_model_1d, *BLOCK_PRIORS, o, thetas) for o in layouts]
    assert np.count_nonzero(np.isfinite(lps[0])) > 10
    for lp in lps[1:]:
        assert np.array_equal(lp, lps[0])


def reference_logpdf(marginal, x):
    """The scalar marginal log densities, written with math."""
    if isinstance(marginal, Normal):
        z = (x - marginal.mean) / marginal.std
        return -0.5 * z * z - math.log(marginal.std) - 0.5 * math.log(2.0 * math.pi)
    if isinstance(marginal, Uniform):
        if marginal.lower <= x <= marginal.upper:
            return -math.log(marginal.upper - marginal.lower)
        return -math.inf
    if x <= 0:
        return -math.inf
    s2 = math.log1p((marginal.std / marginal.mean) ** 2)
    z = math.log(x) - (math.log(marginal.mean) - 0.5 * s2)
    return -0.5 * z * z / s2 - math.log(x) - 0.5 * math.log(s2) - 0.5 * math.log(2.0 * math.pi)


def reference_block(model, x_priors, sigma_prior, observations, thetas):
    """The per-row loop over walkers and priors, then the block's likelihood.
    Also returns each row's sum of absolute terms, which bounds its rounding."""
    lp = np.full(thetas.shape[0], -math.inf)
    scale = np.zeros(thetas.shape[0])
    for i, row in enumerate(thetas):
        sigma = float(row[-1])
        if sigma <= 0 or sigma * sigma == 0:
            continue
        total = reference_logpdf(sigma_prior, sigma)
        scale[i] = abs(total)
        for prior, value in zip(x_priors, row[:-1], strict=True):
            term = reference_logpdf(prior, float(value))
            total += term
            scale[i] += abs(term)
        lp[i] = total
    inside = np.flatnonzero(lp > -math.inf)
    if inside.size:
        curves = model(thetas[inside, :-1])
        sigma2 = thetas[inside, -1:] ** 2
        resid2 = ((observations[None, :, :] - curves[:, None, :]) ** 2).sum(axis=2)
        with np.errstate(over="ignore"):
            loglik = -0.5 * T.size * np.log(2 * math.pi * sigma2) - resid2 / (2 * sigma2)
        loglik = loglik.sum(axis=1)
        lp[inside] += loglik
        scale[inside] += np.abs(loglik)
    return lp, scale


marginals = st.one_of(
    st.builds(Normal, st.floats(-2.0, 2.0), st.floats(0.05, 2.0)),
    st.builds(Lognormal, st.floats(0.1, 3.0), st.floats(0.05, 2.0)),
    st.builds(Uniform, st.floats(-2.0, 0.0), st.floats(0.1, 2.0)),
)
# Wide enough for rows outside every support, x <= 0 and sigma <= 0, and
# for sigmas whose square underflows or whose residual term overflows.
block_values = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1e-155, 1e-170]))


@settings(max_examples=200, deadline=None)
@given(x_priors=st.lists(marginals, min_size=1, max_size=3), sigma_prior=marginals,
       data=st.data())
def test_log_posterior_block_matches_the_per_row_loop(x_priors, sigma_prior, data):
    p = len(x_priors)
    rows = data.draw(st.lists(st.lists(block_values, min_size=p + 1, max_size=p + 1),
                              min_size=1, max_size=12))
    thetas = np.array(rows)
    obs = noisy_observations(1.2, 2, 26)

    def model(X):
        return X.sum(axis=1)[:, None] * T[None, :]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp = log_posterior_block(model, x_priors, sigma_prior, obs, thetas)
    expected, scale = reference_block(model, x_priors, sigma_prior, obs, thetas)
    assert np.array_equal(np.isinf(lp), np.isinf(expected))
    if not any(isinstance(m, Lognormal) for m in [*x_priors, sigma_prior]):
        assert np.array_equal(lp, expected)
    else:
        finite = np.isfinite(expected)
        assert np.all(np.abs(lp[finite] - expected[finite]) <= 1e-14 * scale[finite])


theta_rows = st.lists(
    st.tuples(st.floats(-0.5, 2.5), st.floats(-0.1, 1.2)), min_size=1, max_size=10
)


@settings(max_examples=50, deadline=None)
@given(rows=theta_rows, data=st.data())
def test_log_posterior_block_row_permutation_equivariant(rows, data):
    thetas = np.array(rows)
    perm = np.array(data.draw(st.permutations(range(len(rows)))))
    obs = noisy_observations(1.2, 3, 19)
    lp = log_posterior_block(block_model_1d, *BLOCK_PRIORS, obs, thetas)
    lp_perm = log_posterior_block(block_model_1d, *BLOCK_PRIORS, obs, thetas[perm])
    np.testing.assert_allclose(lp_perm, lp[perm], rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(rows=theta_rows, perm=st.permutations(range(5)))
def test_log_posterior_block_observation_order_invariant(rows, perm):
    thetas = np.array(rows)
    obs = noisy_observations(0.8, 5, 20)
    lp = log_posterior_block(block_model_1d, *BLOCK_PRIORS, obs, thetas)
    lp_perm = log_posterior_block(block_model_1d, *BLOCK_PRIORS, obs[list(perm)], thetas)
    np.testing.assert_allclose(lp_perm, lp, rtol=1e-12)


# ---------------------------------------------------------------------------
# Ensemble sampler


def row_logpost(logpost):
    """A block log posterior from one that scores a single row."""
    return lambda block: np.array([logpost(row) for row in block], dtype=float)


def test_stretch_z_density_oracle():
    rng = fq.make_rng(11)
    z = np.array([stretch_draw(rng) for _ in range(1_000_000)])
    assert z.min() >= 0.5 and z.max() <= 2.0
    # Quadrature of z g(z) with g proportional to 1/sqrt(z) on [1/2, 2].
    grid = np.linspace(0.5, 2.0, 20001)
    g = 1.0 / np.sqrt(grid)
    mean_true = np.trapezoid(grid * g, grid) / np.trapezoid(g, grid)
    assert z.mean() == pytest.approx(mean_true, rel=0.01)


def test_mcmc_standard_normal_target():
    ps = ensemble_mcmc(
        row_logpost(lambda x: -0.5 * float(x[0]) ** 2),
        [Normal(0, 1)],
        walkers=100,
        iterations=2000,
        burn_in=0.5,
        rng=fq.make_rng(12),
    )
    assert abs(ps.draws.mean()) <= 0.05
    assert abs(ps.draws.var() - 1.0) <= 0.1
    from scipy.stats import skew

    assert abs(skew(ps.draws[:, 0])) <= 0.1
    assert 0.1 <= ps.acceptance_rate <= 0.95


def test_mcmc_defaults():
    import inspect

    sig = inspect.signature(ensemble_mcmc)
    assert sig.parameters["walkers"].default == 100
    assert sig.parameters["iterations"].default == 300
    assert sig.parameters["burn_in"].default == 0.5


def test_mcmc_burn_in_discard_count():
    ps = ensemble_mcmc(
        row_logpost(lambda x: -0.5 * float(x[0]) ** 2),
        [Normal(0, 1)],
        walkers=10,
        iterations=40,
        burn_in=0.5,
        rng=fq.make_rng(13),
    )
    assert ps.draws.shape == (20 * 10, 1)


def test_mcmc_walker_minimum():
    with pytest.raises(ValueError):
        ensemble_mcmc(row_logpost(lambda x: 0.0), [Normal(0, 1), Normal(0, 1)],
                      walkers=5, iterations=10, rng=fq.make_rng(0))


def test_mcmc_all_infinite_start_errors():
    with pytest.raises(ValueError):
        ensemble_mcmc(row_logpost(lambda x: -math.inf), [Normal(0, 1)],
                      walkers=8, iterations=10, rng=fq.make_rng(1))


def test_mcmc_draws_inside_uniform_support():
    prior = Uniform(0.0, 1.0)

    def lp(x):
        return prior.logpdf(float(x[0]))

    ps = ensemble_mcmc(row_logpost(lp), [prior], walkers=20, iterations=200,
                       rng=fq.make_rng(14))
    assert ps.draws.min() >= 0.0 and ps.draws.max() <= 1.0


def test_mcmc_deterministic():
    lp = row_logpost(lambda x: -0.5 * float(x[0]) ** 2)
    a = ensemble_mcmc(lp, [Normal(0, 1)], walkers=12, iterations=50, rng=fq.make_rng(15))
    b = ensemble_mcmc(lp, [Normal(0, 1)], walkers=12, iterations=50, rng=fq.make_rng(15))
    assert np.array_equal(a.draws, b.draws)
    assert a.acceptance_rate == b.acceptance_rate


def test_mcmc_odd_walker_count_inside_support():
    priors = [Uniform(0.0, 1.0), Uniform(-2.0, 3.0)]
    dist = InputDistribution(priors)
    walkers = 2 * (len(priors) + 1) + 1
    ps = ensemble_mcmc(row_logpost(dist.logpdf), priors, walkers=walkers, iterations=100,
                       rng=fq.make_rng(22))
    assert ps.draws.shape == (50 * walkers, 2)
    for j, prior in enumerate(priors):
        assert prior.lower <= ps.draws[:, j].min() and ps.draws[:, j].max() <= prior.upper
    assert 0.0 < ps.acceptance_rate < 1.0


def test_mcmc_block_model_calls_bounded_and_in_support():
    # The truth sits near the upper bound, so many proposals leave the support.
    obs = noisy_observations(1.95, 2, 23)
    blocks = []

    def model(X):
        blocks.append(X.copy())
        return block_model_1d(X)

    def lp(thetas):
        return log_posterior_block(model, *BLOCK_PRIORS, obs, thetas)

    iterations = 25
    ensemble_mcmc(lp, BLOCK_PRIORS[0] + [BLOCK_PRIORS[1]], walkers=16,
                  iterations=iterations, rng=fq.make_rng(24))
    assert 1 < len(blocks) <= 1 + 2 * iterations
    rows = np.concatenate(blocks)
    assert rows.shape[0] < 16 * (1 + iterations)
    assert rows.min() >= 0.0 and rows.max() <= 2.0


@pytest.mark.parametrize("walkers, iterations", [(100, 20), (9, 3), (16, 5)])
def test_mcmc_scores_one_block_per_half_step(walkers, iterations):
    sizes = []

    def lp(block):
        sizes.append(block.shape[0])
        return -0.5 * block[:, 0] ** 2

    ensemble_mcmc(lp, [Normal(0, 1)], walkers=walkers, iterations=iterations,
                  rng=fq.make_rng(27))
    half = walkers // 2
    assert sizes == [walkers] + [half, walkers - half] * iterations
    assert max(sizes[1:]) == math.ceil(walkers / 2)


# ---------------------------------------------------------------------------
# Posterior summary


def test_posterior_summary_constant():
    from funcuq.uq import PosteriorSamples

    ps = PosteriorSamples(
        draws=np.full((50, 2), 3.0), walkers=10, iterations=5,
        burn_in=0.0, acceptance_rate=1.0, names=("a", "b"),
    )
    summary = posterior_summary(ps)
    for row in summary:
        assert row["mean"] == 3.0
        assert row["ci_low"] == 3.0 and row["ci_high"] == 3.0


def test_posterior_summary_normal_quantiles():
    from funcuq.uq import PosteriorSamples

    draws = fq.make_rng(16).standard_normal((100_000, 1))
    ps = PosteriorSamples(draws=draws, walkers=1, iterations=1, burn_in=0.0,
                          acceptance_rate=1.0, names=("x",))
    row = posterior_summary(ps)[0]
    assert abs(row["ci_low"] - (-1.96)) <= 0.03
    assert abs(row["ci_high"] - 1.96) <= 0.03


def test_posterior_summary_empty_errors():
    from funcuq.uq import PosteriorSamples

    ps = PosteriorSamples(draws=np.zeros((0, 1)), walkers=1, iterations=1,
                          burn_in=0.0, acceptance_rate=0.0, names=("x",))
    with pytest.raises(ValueError):
        posterior_summary(ps)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_observations_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "obs.csv"
    save_observations(path, T, fq.make_rng(32).normal(size=(3, T.size)))
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = bad
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_observations(path)
    message = str(info.value)
    assert str(path) in message
    assert "data row 5, column 3 (obs2)" in message


def test_load_observations_names_the_file_of_a_ragged_row(tmp_path):
    path = tmp_path / "obs.csv"
    save_observations(path, T, fq.make_rng(33).normal(size=(2, T.size)))
    lines = path.read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^observations file {re.escape(str(path))}: "
                                         "the number of columns changed from 3 to 2"):
        load_observations(path)


def test_load_observations_names_the_file_without_observation_columns(tmp_path):
    path = tmp_path / "obs.csv"
    write_table(path, ["t"], T[:, None])
    with pytest.raises(ValueError, match=f"^observations file {re.escape(str(path))}: "
                                         "no observation columns"):
        load_observations(path)


def test_observations_roundtrip(tmp_path):
    rng = fq.make_rng(17)
    obs = rng.normal(size=(3, T.size))
    path = tmp_path / "obs.csv"
    save_observations(path, T, obs)
    times, back = load_observations(path)
    assert np.allclose(times, T, rtol=1e-9)
    assert back.shape == (3, T.size)
    assert back.flags.c_contiguous
    assert np.allclose(back, obs, rtol=1e-9, atol=1e-12)
