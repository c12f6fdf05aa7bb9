"""End-to-end acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line;
run with `pytest tests/test_acceptance.py -s` to watch the lines stream.
Criteria 6 and 7 share one seeded Duffing study, a module-scoped fixture
that calls surrogate.run_study, the loop behind the `study` command, so the
expensive fits happen once.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

import funcuq as fq
from funcuq import bench
from funcuq.basis import BSPLINE, FOURIER
from funcuq.cli import main as cli_main
from funcuq.fpca import fit_reducer
from funcuq.kriging import fit_kriging, log_marginal_likelihood
from funcuq.smoothing import effective_nb, select_nb, tau_grid
from funcuq.surrogate import FitConfig, run_study
from funcuq.uq import (
    InputDistribution,
    Normal,
    Uniform,
    ensemble_mcmc,
    forward_uq,
    log_posterior_block,
    save_observations,
)

MASTER_SEED = 20260808


def report(number, name):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number} {name}: PASS")
            return result

        return wrapper

    return decorator


# ---------------------------------------------------------------------------
# 1. FPCA oracle equivalence


@report(1, "fpca dense-oracle equivalence")
def test_criterion_1_fpca_oracle():
    t_start = time.perf_counter()
    rng = fq.make_rng(fq.derive_seed(MASTER_SEED, "acc1"))
    grid = fq.TimeGrid(0.0, 1.0, 161)
    sys = fq.BasisSystem(FOURIER, 9, 0.0, 1.0)
    H = fq.design_matrix(sys, grid)
    coeffs = rng.normal(size=(50, 9))
    Y = coeffs @ H.T + 0.7
    ens = fq.ResponseEnsemble(rng.normal(size=(50, 2)), Y, grid)
    red, scores = fit_reducer(ens, kind="fourier", mirror=False,
                              tau_override=0.0, nb_override=9)

    W, H_fit = fq.gram_matrix(red.basis), fq.design_matrix(red.basis, grid)
    assert np.abs(W - np.eye(red.basis.n_b)).max() <= 1e-10

    C = np.linalg.solve(H_fit.T @ H_fit, H_fit.T @ (Y - red.mean_curve).T)
    lam_pca, U = np.linalg.eigh(C @ C.T / (ens.n - 1))
    lam_pca, U = lam_pca[::-1], U[:, ::-1]
    m = red.m
    scale = lam_pca[0]
    assert np.abs(red.eigenvalues[:m] - lam_pca[:m]).max() <= 1e-8 * scale
    pca_scores = (U[:, :m].T @ C).T
    assert np.abs(np.abs(scores) - np.abs(pca_scores)).max() <= 1e-8 * math.sqrt(scale)
    assert time.perf_counter() - t_start < 5.0


# ---------------------------------------------------------------------------
# 2. Variance accounting


@report(2, "variance accounting")
def test_criterion_2_variance_accounting():
    rng = fq.make_rng(fq.derive_seed(MASTER_SEED, "acc2"))
    grid = fq.TimeGrid(0.0, 2.0, 121)
    t = grid.nodes
    fits = []

    sysF = fq.BasisSystem(FOURIER, 9, 0.0, 2.0)
    Y1 = rng.normal(size=(40, 9)) @ fq.design_matrix(sysF, grid).T
    ens1 = fq.ResponseEnsemble(rng.normal(size=(40, 2)), Y1, grid)
    fits.append(fit_reducer(ens1, kind="fourier", mirror=False, tau_override=0.0, n_b0=9))

    Y2 = (rng.normal(size=(30, 1)) * np.sin(np.pi * t)
          + rng.normal(size=(30, 1)) * t**2
          + rng.normal(size=(30, 1)))
    ens2 = fq.ResponseEnsemble(rng.normal(size=(30, 3)), Y2, grid)
    fits.append(fit_reducer(ens2, kind="bspline", n_b0=8))

    ens3 = bench.generate_dataset("duffing", 30, fq.make_rng(fq.derive_seed(MASTER_SEED, "acc2/duffing")))
    fits.append(fit_reducer(ens3, kind="bspline", nb_override=201, tau_override=0.0))

    for red, scores in fits:
        assert red.variance_fraction >= 0.99
        lam = red.eigenvalues[: red.m]
        emp = scores.var(axis=0, ddof=1)
        assert np.abs(emp / lam - 1.0).max() <= 1e-6


# ---------------------------------------------------------------------------
# 3. Kriging interpolation + likelihood oracle


@report(3, "kriging interpolation and likelihood oracle")
def test_criterion_3_kriging():
    rng = fq.make_rng(fq.derive_seed(MASTER_SEED, "acc3"))
    X = rng.random((20, 2))
    y = np.sin(4 * X[:, 0]) + 0.5 * X[:, 1] ** 2 + 2.0
    model = fit_kriging(X, y, fq.make_rng(fq.derive_seed(MASTER_SEED, "acc3/fit")),
                        fix_nugget=0.0)
    means, vars_ = model.predict_batch(X)
    assert np.abs((means - y) / y).max() <= 1e-6
    sz2_raw = model.sigma_z2 * model.y_scale**2
    assert vars_.max() <= 1e-8 * sz2_raw

    for n in (2, 4, 6, 8):
        Xo = rng.random((n, 3))
        yo = rng.normal(size=n)
        theta = 10.0 ** rng.uniform(-1, 1, size=3)
        mu, sz2, sn2 = 0.4, 1.3, 0.02
        D = np.zeros((n, n))
        for d in range(3):
            D += theta[d] * np.subtract.outer(Xo[:, d], Xo[:, d]) ** 2
        K = sz2 * np.exp(-D) + sn2 * np.eye(n)
        r = yo - mu
        dense = (-0.5 * r @ np.linalg.inv(K) @ r
                 - 0.5 * np.linalg.slogdet(K)[1]
                 - 0.5 * n * np.log(2 * np.pi))
        got = log_marginal_likelihood(Xo, yo, mu, sz2, theta, sn2)
        assert abs(got - dense) <= 1e-10


# ---------------------------------------------------------------------------
# 4. Forward UQ oracle


@report(4, "forward UQ analytic-moments oracle")
def test_criterion_4_forward_uq():
    t_start = time.perf_counter()
    grid = fq.TimeGrid(0.0, 1.0, 21)
    t = grid.nodes

    def hook(X):
        X = np.atleast_2d(X)
        return X[:, 0:1] * t[None, :] + X[:, 1:2]

    dist = InputDistribution([Normal(0.0, 1.0), Normal(0.0, 1.0)])
    res = forward_uq(hook, dist.sample(fq.make_rng(fq.derive_seed(MASTER_SEED, "acc4")), 100_000))
    assert np.abs(res.mean).max() <= 0.02
    expected_std = np.sqrt(t**2 + 1.0)
    assert np.abs(res.std / expected_std - 1.0).max() <= 0.02
    assert time.perf_counter() - t_start < 30.0


# ---------------------------------------------------------------------------
# 5. Inverse UQ conjugate oracle


@report(5, "inverse UQ conjugate-posterior oracle")
def test_criterion_5_inverse_uq():
    t_start = time.perf_counter()
    grid = fq.TimeGrid(0.0, 1.0, 21)
    t = grid.nodes
    sigma = 0.1
    x_true = 2.0
    rng = fq.make_rng(fq.derive_seed(MASTER_SEED, "acc5/data"))
    observations = np.array([x_true * t + rng.normal(0, sigma, t.size) for _ in range(3)])

    prior = Normal(1.5, 1.0)
    sigma_prior = Uniform(sigma / 2, 2 * sigma)

    def logpost(block):
        # The walkers sample x alone; sigma is a fixed column.
        thetas = np.column_stack([block, np.full(block.shape[0], sigma)])
        return log_posterior_block(lambda X: X[:, :1] * t, [prior], sigma_prior,
                                   observations, thetas)

    precision = 1.0 / prior.std**2 + observations.shape[0] * np.sum(t**2) / sigma**2
    mean_post = (prior.mean / prior.std**2 + np.sum(observations @ t) / sigma**2) / precision
    std_post = 1.0 / math.sqrt(precision)

    samples = ensemble_mcmc(
        logpost, [prior], walkers=100, iterations=2000, burn_in=0.5,
        rng=fq.make_rng(fq.derive_seed(MASTER_SEED, "acc5/mcmc")),
    )
    draws = samples.draws[:, 0]
    print(f"\n  {draws.size} draws: mean {draws.mean():.17g} (exact {mean_post:.17g}), "
          f"std {draws.std():.17g} (exact {std_post:.17g}), {time.perf_counter() - t_start:.2f} s")
    assert abs(draws.mean() - mean_post) <= 0.02 * abs(mean_post)
    assert abs(draws.std() - std_post) <= 0.10 * std_post
    assert time.perf_counter() - t_start < 60.0


# ---------------------------------------------------------------------------
# 6 + 7. Duffing study: method ordering and regularization benefit


STUDY_CONFIGS = {
    "gcv": FitConfig(reducer="kfdr-b", nb_override=401, n_starts=3, budget=120),
    "tau0": FitConfig(reducer="kfdr-b", nb_override=401, tau_override=0.0,
                      n_starts=3, budget=120),
    "pca": FitConfig(reducer="pca", n_starts=3, budget=120),
}


@pytest.fixture(scope="module")
def duffing_study():
    """10 repetitions, shared noisy training sets, 1000-sample clean test."""
    t_start = time.perf_counter()
    records = run_study(
        "duffing", STUDY_CONFIGS, [100], 10, 1000, 1e-4, bench.DEFAULT_SUBSTEPS,
        lambda stage, n, rep: fq.derive_seed(
            MASTER_SEED, "acc6/test" if stage == "test" else f"acc6/{stage}/{rep}"),
    )
    elapsed = time.perf_counter() - t_start
    for label, _, rep, err in records:
        print(f"  study rep {rep} {label}: nrmse={err:.5f}")
    return {label: np.array([r[3] for r in records if r[0] == label])
            for label in STUDY_CONFIGS}, elapsed


@report(6, "Duffing study: KFDR-B below PCA baseline")
def test_criterion_6_method_ordering(duffing_study):
    errors, elapsed = duffing_study
    median_kfdr = float(np.median(errors["gcv"]))
    median_pca = float(np.median(errors["pca"]))
    print(f"  median KFDR-B {median_kfdr:.5f} vs PCA {median_pca:.5f} "
          f"(study wall time {elapsed:.0f}s)")
    assert median_kfdr < median_pca
    assert elapsed < 600.0


@report(7, "Duffing noise study: regularization helps")
def test_criterion_7_regularization(duffing_study):
    errors, _ = duffing_study
    median_gcv = float(np.median(errors["gcv"]))
    median_tau0 = float(np.median(errors["tau0"]))
    print(f"  median GCV-tau {median_gcv:.5f} vs tau=0 {median_tau0:.5f}")
    assert median_gcv <= median_tau0


# ---------------------------------------------------------------------------
# 8. Solver validity


@report(8, "integrator and oscillator validity")
def test_criterion_8_solvers():
    def run(n_t):
        grid = fq.TimeGrid(0.0, 1.0, n_t)
        return bench.rk4_integrate(lambda t, y: y, np.array([1.0]), grid, substeps=1)[-1, 0]

    e_coarse = abs(run(51) - np.e)
    e_fine = abs(run(101) - np.e)
    assert 12.0 <= e_coarse / e_fine <= 20.0

    m, c, k, y0 = 6e4, 1e5, 5e6, 0.01
    theta = bench.boucwen_excitation_coeffs()

    def linear_rhs(t, s):
        force = bench.boucwen_excitation(t, np.array([m]), theta)
        return np.stack(
            [s[..., 1], (force - c * s[..., 1] - k * s[..., 0]) / m], axis=-1
        )

    linear = bench.rk4_integrate(linear_rhs, np.array([[y0, 0.0]]),
                                 bench.BOUCWEN_GRID)[:, 0, 0]
    full = bench.boucwen_batch([[m, c, k, 1.0, y0]])[0]
    assert np.abs(full - linear).max() <= 1e-6

    for alpha in (0.6, 0.9375, 1.4):
        assert bench.duffing_excitation(0.0, alpha, 1.9) == alpha


# ---------------------------------------------------------------------------
# 9. CLI determinism


def _duffing_dists():
    return [
        {"name": "alpha", "dist": "normal", "mean": 1.0, "std": 0.05},
        {"name": "beta", "dist": "normal", "mean": 2.0, "std": 0.1},
        {"name": "c", "dist": "normal", "mean": 1.0, "std": 0.05},
        {"name": "y0", "dist": "normal", "mean": -5e-5, "std": 5e-6},
    ]


@report(9, "CLI rerun byte determinism")
def test_criterion_9_determinism(tmp_path):
    base = {
        "model": "duffing",
        "seed": 21,
        "dataset": {"n_train": 10, "substeps": 2},
        "kriging": {"n_starts": 2, "budget": 60},
        "basis": {"n_b0": 16},
        "smoothing": {"tau_override": 0.0},
        "study": {"train_sizes": [10], "repetitions": 2, "test_size": 10,
                  "noise_std": 0.0, "methods": ["kfdr-b", "pca"]},
        "forward": {"use_exact_model": True, "distributions": _duffing_dists(),
                    "n_mcs": 200, "kde_points": 64},
    }
    grid = bench.DUFFING_GRID
    curve = bench.duffing_batch([[1.19, 1.82, 0.94, -3.3e-5]], substeps=2)[0]
    rng = fq.make_rng(fq.derive_seed(MASTER_SEED, "acc9/obs"))
    obs = curve[None, :] + rng.normal(0, 1e-5, (2, grid.n_t))
    obs_path = tmp_path / "obs.csv"
    save_observations(obs_path, grid.nodes, obs)
    base["inverse"] = {
        "use_exact_model": True,
        "observations": str(obs_path),
        "priors": [
            {"name": "alpha", "dist": "uniform", "lower": 0.6, "upper": 1.4},
            {"name": "beta", "dist": "uniform", "lower": 1.5, "upper": 2.5},
            {"name": "c", "dist": "uniform", "lower": 0.6, "upper": 1.4},
            {"name": "y0", "dist": "uniform", "lower": -1e-4, "upper": 0.0},
        ],
        "sigma_prior": {"lower": 1e-7, "upper": 1e-3},
        "walkers": 12,
        "iterations": 16,
        "burn_in": 0.5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base))

    outputs = {
        "study": ["study.csv"],
        "forward": ["mean_std.csv", "extremes_kde.csv"],
        "inverse": ["posterior_draws.csv", "posterior_summary.csv"],
    }
    for command, files in outputs.items():
        blobs = []
        for attempt in ("one", "two"):
            out = tmp_path / f"{command}_{attempt}"
            rc = cli_main([command, "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0
            blobs.append(b"".join((out / f).read_bytes() for f in files))
        assert blobs[0] == blobs[1], f"{command} rerun differs"


# ---------------------------------------------------------------------------
# 10. Algorithm fidelity


@report(10, "selection-algorithm fidelity")
def test_criterion_10_algorithm_fidelity():
    rng = fq.make_rng(fq.derive_seed(MASTER_SEED, "acc10"))
    grid = fq.TimeGrid(0.0, 1.0, 41)
    t = grid.nodes
    sys = fq.BasisSystem(FOURIER, 7, 0.0, 1.0)
    H = fq.design_matrix(sys, grid)
    R = fq.roughness_matrix(sys)
    amps = rng.normal(size=(15, 1))
    Y = amps * np.sin(2 * np.pi * t)[None, :] + 0.05 * rng.normal(size=(15, t.size))
    Yc = Y - Y.mean(axis=0)

    # select_tau returns the exhaustive grid argmin of the GCV score.
    for n_tau in (13, 25):
        tau_star = fq.select_tau(H, R, Yc, n_tau)
        values = [fq.gcv(tau, H, R, Yc) for tau in tau_grid(n_tau)]
        assert tau_star == tau_grid(n_tau)[int(np.argmin(values))]
        assert all(fq.gcv(tau_star, H, R, Yc) <= v + 1e-15 for v in values)

    # select_nb transcript matches a line-by-line replay on a seeded
    # Duffing fit.
    ens = bench.generate_dataset(
        "duffing", 20, fq.make_rng(fq.derive_seed(MASTER_SEED, "acc10/duffing"))
    )
    centered = ens.responses - ens.responses.mean(axis=0)
    nodes = ens.grid.nodes
    trace: list = []
    basis_sel, _, tau_sel, _ = select_nb(
        "bspline", centered, nodes, (0.0, 2.0), n_b0=8, trace=trace
    )
    n_b_sel = basis_sel.n_b

    def replay_round(nb_raw):
        nb_eff = effective_nb("bspline", nb_raw)
        sys_r = fq.BasisSystem(BSPLINE, nb_eff, 0.0, 2.0)
        H_r = fq.design_matrix(sys_r, nodes)
        R_r = fq.roughness_matrix(sys_r)
        tau_r = fq.select_tau(H_r, R_r, centered, 25)
        C_r = fq.fit_coefficients(H_r, R_r, tau_r, centered)
        fitted = (H_r @ C_r).T
        spans = centered.max(axis=1) - centered.min(axis=1)
        vals = np.linalg.norm(centered - fitted, axis=1) / spans
        return nb_eff, tau_r, float(vals.mean())

    nb_raw, k, expected = 8, 1, []
    expected.append(replay_round(nb_raw))
    if expected[-1][2] >= 1e-12:
        while True:
            nb_raw += k * 8
            expected.append(replay_round(nb_raw))
            d1, d2 = expected[-2][2], expected[-1][2]
            if d2 < 1e-12 or abs(d1 - d2) / d2 < 0.05:
                break
            k += 1
    assert len(trace) == len(expected)
    for got, (nb_e, tau_e, delta_e) in zip(trace, expected):
        assert got["n_b"] == nb_e
        assert got["tau"] == tau_e
        assert got["delta"] == pytest.approx(delta_e, abs=1e-12)
    assert (n_b_sel, tau_sel) == (expected[-1][0], expected[-1][1])
    # The stop rule must not have fired on any earlier round.
    for i in range(1, len(expected) - 1):
        d1, d2 = expected[i - 1][2], expected[i][2]
        assert d2 >= 1e-12 and abs(d1 - d2) / d2 >= 0.05
