import copy
import dataclasses
import inspect
import json
import multiprocessing
import os
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import funcuq as fq
from funcuq import bench, core, fpca, kriging, smoothing, surrogate
from funcuq.core import one_blas_thread
from funcuq.kriging import PREDICT_ROWS, _squared_differences, _stacked_kernels, normalize_inputs
from funcuq.surrogate import (
    FitConfig,
    fit_surrogate,
    load_surrogate,
    run_study,
    save_surrogate,
    surrogate_from_dict,
    surrogate_to_dict,
)

GRID = fq.TimeGrid(0.0, 1.0, 51)
T = GRID.nodes


def nrmse_curve(y, y_hat) -> float:
    """Range-normalized l2 error of one curve: ||y - y_hat|| / (max y - min y)."""
    span = np.max(y) - np.min(y)
    assert span > 0.0
    return float(np.linalg.norm(np.asarray(y) - y_hat) / span)


def linear_generator(X):
    """One latent mode with a linear score in x1, plus a fixed base curve."""
    return np.cos(2 * np.pi * T)[None, :] + (2.0 * X[:, 0:1]) * np.sin(2 * np.pi * T)[None, :]


def make_linear_ensemble(n=30, seed=5):
    rng = fq.make_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, 2))
    return fq.ResponseEnsemble(X, linear_generator(X), GRID)


def test_fit_surrogate_linear_toy():
    ens = make_linear_ensemble()
    s = fit_surrogate(ens, FitConfig(reducer="kfdr-b"), fq.make_rng(11))
    rng = fq.make_rng(77)
    X_test = rng.uniform(0.05, 0.95, (100, 2))
    err = fq.model_nrmse(linear_generator(X_test), s.predict_mean_curves(X_test))
    assert err <= 1e-3


@pytest.mark.parametrize("nb_override, rounds", [(None, [8, 16]), (401, [401])])
def test_select_tau_gives_the_model_of_the_direct_gcv_argmin(monkeypatch, nb_override, rounds):
    # Each round's tau from the one-eigensolve GCV curve must give the same
    # model as the grid argmin of the direct gcv, with n_b below the 401
    # nodes or equal to them.
    ens = bench.generate_dataset("duffing", 12, fq.make_rng(3))
    cfg = FitConfig(reducer="kfdr-b", n_starts=1, budget=10, nb_override=nb_override)
    fast = surrogate_to_dict(fit_surrogate(ens, cfg, fq.make_rng(4)))
    scored = []

    def direct_argmin(H, R, centered, n_tau):
        scored.append(H.shape[1])
        grid = smoothing.tau_grid(n_tau)
        return float(grid[int(np.argmin([smoothing.gcv(t, H, R, centered) for t in grid]))])

    monkeypatch.setattr(smoothing, "select_tau", direct_argmin)
    assert surrogate_to_dict(fit_surrogate(ens, cfg, fq.make_rng(4))) == fast
    assert scored == rounds


def test_refit_same_seed_identical_file_bytes(tmp_path):
    ens = make_linear_ensemble()
    cfg = FitConfig(reducer="kfdr-b", n_starts=3, budget=100)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_surrogate(fit_surrogate(ens, cfg, fq.make_rng(11)), p1)
    save_surrogate(fit_surrogate(ens, cfg, fq.make_rng(11)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_load_roundtrip(tmp_path):
    # The loader rebuilds phi and each Kriging factorization by the fitter's
    # own expressions, so a loaded surrogate predicts the same bits.
    ens = make_linear_ensemble()
    X = fq.make_rng(1).uniform(0.1, 0.9, (5, 2))
    for reducer in ("kfdr-b", "kfdr-f", "pca"):
        cfg = FitConfig(reducer=reducer, n_starts=3, budget=100)
        s = fit_surrogate(ens, cfg, fq.make_rng(4))
        path = tmp_path / f"{reducer}.json"
        save_surrogate(s, path)
        back = load_surrogate(path)
        assert np.array_equal(back.reducer.phi, s.reducer.phi)
        assert np.array_equal(back.predict_mean_curves(X), s.predict_mean_curves(X))
        for got, want in zip(back.predict_curves(X), s.predict_curves(X)):
            assert np.array_equal(got, want)
        assert surrogate_to_dict(back) == surrogate_to_dict(s)
        # perfbench/traced.py reads reducer.basis and reducer.tau of a loaded
        # kfdr-b model; a pca reducer has neither.
        if reducer == "pca":
            assert back.reducer.basis is None and back.reducer.tau is None
        else:
            assert isinstance(back.reducer.basis, fq.BasisSystem)
            assert back.reducer.tau == s.reducer.tau >= 0.0


def test_duffing_end_to_end_records_m():
    ens = fq.generate_dataset("duffing", 20, fq.make_rng(3))
    cfg = FitConfig(reducer="kfdr-b", n_b0=45, tau_override=0.0, n_starts=2, budget=60)
    s = fit_surrogate(ens, cfg, fq.make_rng(5))
    assert s.m >= 1
    assert s.metadata["n_train"] == 20
    assert s.metadata["reducer"] == "kfdr-b"


def test_duffing_fourier_pipeline_mirrors():
    # The Fourier variant reflects the non-periodic responses to one period.
    ens = fq.generate_dataset("duffing", 15, fq.make_rng(35))
    cfg = FitConfig(reducer="kfdr-f", nb_override=201, tau_override=0.0,
                    n_starts=2, budget=60)
    s = fit_surrogate(ens, cfg, fq.make_rng(36))
    assert s.reducer.mirror
    # The basis spans the reflected period.
    assert s.reducer.basis.te == pytest.approx(ens.grid.t0 + 2 * ens.grid.span)
    mean, var = s.predict_curve(ens.inputs[0])
    assert mean.shape == (ens.grid.n_t,)
    assert np.all(var >= 0.0)


def test_predict_curve_variance_nonnegative():
    ens = make_linear_ensemble()
    s = fit_surrogate(ens, FitConfig(reducer="kfdr-b", n_starts=3, budget=100), fq.make_rng(6))
    rng = fq.make_rng(9)
    for _ in range(100):
        _, var = s.predict_curve(rng.uniform(-0.5, 1.5, 2))
        assert np.all(var >= 0.0)


def test_predict_curves_matches_row_loop():
    X = fq.make_rng(31).uniform(0.0, 1.0, (30, 2))
    Y = linear_generator(X) + X[:, 1:2] ** 2 * np.sin(4 * np.pi * T)[None, :]
    # A nugget of 0.1 keeps the kernel systems well conditioned: one-row
    # and many-row Kriging predictions sum in different BLAS orders and
    # agree only to about cond(A) * eps.
    cfg = FitConfig(reducer="pca", n_starts=3, budget=100, fix_nugget=0.1)
    s = fit_surrogate(fq.ResponseEnsemble(X, Y, GRID), cfg, fq.make_rng(32))
    assert s.m >= 2
    X_new = fq.make_rng(33).uniform(-0.2, 1.2, (40, 2))
    means, var = s.predict_curves(X_new)
    assert means.shape == var.shape == (40, GRID.n_t)
    phi = s.reducer.phi
    score_means, score_var = s.predict_scores(X_new)
    for i, x in enumerate(X_new):
        # The per-row curve formula, on the batched latent predictions.
        np.testing.assert_allclose(means[i], s.reducer.mean_curve + phi @ score_means[i],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(var[i], (phi**2) @ score_var[i], rtol=1e-12, atol=0)
        # The row loop cmd_predict used to run.
        row_mean, row_var = s.predict_curve(x)
        for row, batched in ((row_mean, means[i]), (row_var, var[i])):
            np.testing.assert_allclose(batched, row, rtol=1e-12,
                                       atol=1e-12 * np.abs(row).max())


def test_training_point_prediction_matches_roundtrip():
    ens = make_linear_ensemble()
    cfg = FitConfig(reducer="kfdr-b", fix_nugget=0.0, n_starts=4, budget=150)
    s = fit_surrogate(ens, cfg, fq.make_rng(8))
    # The same reducer again, for the training curves' projections.
    red, scores = fpca.fit_reducer(ens, kind="bspline")
    assert np.array_equal(red.phi, s.reducer.phi)
    for i in (0, 7, 19):
        mean, _ = s.predict_curve(ens.inputs[i])
        target = red.mean_curve + red.phi @ scores[i]
        assert nrmse_curve(target, mean) <= 1e-6


def test_rank_one_variance_identity():
    ens = make_linear_ensemble()
    cfg = FitConfig(reducer="kfdr-b", n_starts=3, budget=100)
    s = fit_surrogate(ens, cfg, fq.make_rng(10))
    assert s.m == 1
    x = np.array([0.4, 0.6])
    _, var_curve = s.predict_curve(x)
    _, score_var = s.predict_scores(x[None])
    phi = s.reducer.phi[:, 0]
    assert np.allclose(var_curve, score_var[0, 0] * phi**2, rtol=1e-10, atol=1e-18)


def test_predict_mean_is_affine_in_scores():
    ens = make_linear_ensemble()
    s = fit_surrogate(ens, FitConfig(reducer="pca"), fq.make_rng(2))
    red = s.reducer
    xi1 = np.full(red.m, 0.3)
    xi2 = -1.2 * np.ones(red.m)
    a, b = 0.7, 0.3
    lhs = red.mean_curve + red.phi @ (a * xi1 + b * xi2)
    rhs = a * (red.mean_curve + red.phi @ xi1) + b * (red.mean_curve + red.phi @ xi2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_pca_single_mode_exact():
    reducer, scores = fpca.fit_pca_reducer(make_linear_ensemble())
    assert reducer.m == 1
    rec = reducer.mean_curve + reducer.phi @ scores[0]
    assert nrmse_curve(make_linear_ensemble().responses[0], rec) <= 1e-8


def test_pca_eigenvalues_match_dense_covariance():
    rng = fq.make_rng(14)
    Y = rng.normal(size=(25, 1)) * np.sin(2 * np.pi * T) + rng.normal(size=(25, 1)) * T
    ens = fq.ResponseEnsemble(rng.normal(size=(25, 2)), Y + 1.0, GRID)
    reducer, _ = fpca.fit_pca_reducer(ens)
    centered = ens.responses - ens.responses.mean(axis=0)
    lam_dense = np.linalg.eigvalsh(centered.T @ centered / (ens.n - 1))[::-1]
    k = min(reducer.m + 3, lam_dense.size)
    assert np.allclose(reducer.eigenvalues[:k], lam_dense[:k], atol=1e-8 * lam_dense[0])
    assert reducer.variance_fraction >= 0.99
    ortho = reducer.phi.T @ reducer.phi
    assert np.abs(ortho - np.eye(reducer.m)).max() <= 1e-10


def test_pca_baseline_uses_same_kriging_stage():
    ens = make_linear_ensemble()
    s = fit_surrogate(ens, FitConfig(reducer="pca", n_starts=3, budget=100), fq.make_rng(4))
    assert s.metadata["reducer"] == "pca"
    rng = fq.make_rng(20)
    X_test = rng.uniform(0.1, 0.9, (50, 2))
    err = fq.model_nrmse(linear_generator(X_test), s.predict_mean_curves(X_test))
    assert err <= 1e-3


def test_reconstruction_bounds_prediction_error():
    ens = fq.generate_dataset("duffing", 24, fq.make_rng(31))
    cfg = FitConfig(reducer="kfdr-b", nb_override=201, tau_override=0.0,
                    n_starts=2, budget=60)
    s = fit_surrogate(ens, cfg, fq.make_rng(32))
    # The same reducer again, for the training curves' projections; at one
    # BLAS thread, as fit_surrogate computes it.
    with one_blas_thread():
        red, scores = fpca.fit_reducer(ens, kind="bspline", nb_override=201, tau_override=0.0)
    assert np.array_equal(red.phi, s.reducer.phi)
    rec_err, pred_err = [], []
    for i in range(ens.n):
        y = ens.responses[i]
        rec = red.mean_curve + red.phi @ scores[i]
        mean, _ = s.predict_curve(ens.inputs[i])
        rec_err.append(nrmse_curve(y, rec))
        pred_err.append(nrmse_curve(y, mean))
    assert np.median(rec_err) <= np.median(pred_err) + 1e-12


def test_small_sample_warning():
    ens = make_linear_ensemble(n=3)
    with pytest.warns(UserWarning):
        fit_surrogate(ens, FitConfig(reducer="pca", n_starts=2, budget=50), fq.make_rng(0))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(reducer="kfdr-x")
    for mirror in ("no", 0, 1.0):
        with pytest.raises(ValueError, match="mirror"):
            FitConfig(mirror=mirror)
    assert FitConfig(mirror=False).mirror is False


def test_fit_config_defaults_are_the_library_keyword_defaults():
    config, fields = FitConfig(), {f.name for f in dataclasses.fields(FitConfig)}
    for fn in (fpca.fit_reducer, smoothing.select_nb, kriging.fit_kriging):
        shared = [p for p in inspect.signature(fn).parameters.values() if p.name in fields]
        assert shared, fn.__name__
        for p in shared:
            assert p.default == getattr(config, p.name), (fn.__name__, p.name)


def test_run_study_fits_every_label_on_the_same_data_and_seed():
    config = FitConfig(reducer="pca", n_starts=1, budget=30)
    records = run_study("duffing", {"a": config, "b": config}, [8, 10], 2, 4, 1e-4, 1,
                        lambda stage, n, rep: fq.derive_seed(0, f"{stage}/{n}/{rep}"))
    assert [r[:3] for r in records] == [(label, n, rep) for n in (8, 10) for rep in (0, 1)
                                        for label in ("a", "b")]
    errors = [err for _, _, _, err in records]
    # The labels agree in every repetition; the repetitions differ.
    assert errors[0::2] == errors[1::2]
    assert len(set(errors[0::2])) == 4


def test_model_count_matches_m():
    ens = make_linear_ensemble()
    s = fit_surrogate(ens, FitConfig(reducer="pca", n_starts=2, budget=50), fq.make_rng(1))
    assert len(s.models) == s.m
    for mod in s.models:
        assert np.array_equal(mod.input_lo, s.input_lo)
        assert np.array_equal(mod.input_hi, s.input_hi)
        # One training design, so the model file stores it once.
        assert np.array_equal(mod.X_norm, s.models[0].X_norm)


@pytest.fixture(scope="module")
def three_mode_doc():
    """JSON round trip of a kfdr-b surrogate with three score models."""
    X = fq.make_rng(5).uniform(0.0, 1.0, (25, 3))
    Y = sum(
        np.sin((k + 1) * 3 * X[:, k : k + 1]) / (k + 1) * np.sin((k + 1) * np.pi * T)[None, :]
        for k in range(3)
    )
    s = fit_surrogate(
        fq.ResponseEnsemble(X, Y, GRID), FitConfig(n_starts=2, budget=20), fq.make_rng(1)
    )
    assert s.m == 3
    return json.loads(json.dumps(surrogate_to_dict(s)))


def test_model_file_loads_unchanged(three_mode_doc):
    back = surrogate_from_dict(copy.deepcopy(three_mode_doc))
    assert surrogate_to_dict(back) == three_mode_doc
    # The file holds the training design once; every score model gets it.
    assert all(mod.X_norm is back.models[0].X_norm for mod in back.models)


def test_model_file_rejects_other_formats(three_mode_doc):
    # The same surrogate in the v1 layout: the design in every score model.
    doc = copy.deepcopy(three_mode_doc)
    X_norm = doc.pop("X_norm")
    for entry in doc["models"]:
        entry.update(X_norm=X_norm, input_lo=doc["input_lo"], input_hi=doc["input_hi"])
    doc["format"] = "funcuq-surrogate-v1"
    with pytest.raises(ValueError, match=r"format 'funcuq-surrogate-v1'.*refit"):
        surrogate_from_dict(doc)


@settings(max_examples=15)
@given(
    reducer=st.sampled_from(["kfdr-b", "kfdr-f", "pca"]),
    n=st.integers(5, 9),
    seed=st.integers(0, 2**16),
    identical=st.booleans(),
)
def test_model_file_round_trip_is_bit_exact(reducer, n, seed, identical):
    # Identical curves give m = 0: no score model, an empty design.
    rng = fq.make_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, 2))
    modes = np.sin(np.pi * np.outer(np.arange(1, 4), T))
    Y = np.cos(2 * np.pi * T) + (X @ rng.normal(size=(2, 3))) @ modes
    if identical:
        Y = np.repeat(Y[:1], n, axis=0)
    cfg = FitConfig(reducer=reducer, n_starts=1, budget=10)
    s = fit_surrogate(fq.ResponseEnsemble(X, Y, GRID), cfg, fq.make_rng(seed))
    assert (s.m == 0) == identical
    doc = surrogate_to_dict(s)
    back = surrogate_from_dict(json.loads(json.dumps(doc)))
    assert surrogate_to_dict(back) == doc
    X_star = rng.uniform(-0.2, 1.2, (4, 2))
    for got, want in zip(back.predict_curves(X_star), s.predict_curves(X_star)):
        assert np.array_equal(got, want)


def written(tmp_path, doc):
    """The path of a model file holding doc."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "path, key, value",
    [
        (("reducer", "mean_curve", 7), "reducer.mean_curve", float("nan")),
        (("reducer", "B", 3, 1), "reducer.B", float("nan")),
        (("models", 2, "mu"), "models[2].mu", float("nan")),
        (("models", 2, "theta", 1), "models[2].theta", float("nan")),
        (("X_norm", 0, 0), "X_norm", float("inf")),
        (("input_hi", 0), "input_hi", float("-inf")),
    ],
)
def test_model_file_rejects_non_finite(three_mode_doc, tmp_path, path, key, value):
    doc = copy.deepcopy(three_mode_doc)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    # A path ending in a key sets a number field; one ending in an index, an
    # entry of an array field.
    problem = f"must be a finite number, got {value}" if isinstance(path[-1], str) else (
        "has a non-finite")
    file = written(tmp_path, doc)
    with pytest.raises(ValueError, match=re.escape(f"model file {file}: {key} {problem}")):
        load_surrogate(file)


@pytest.mark.parametrize(
    "key, edit",
    [
        ("reducer.mean_curve", lambda doc: doc["reducer"]["mean_curve"].pop()),
        ("reducer.B", lambda doc: doc["reducer"]["B"].pop()),
        ("models[2].theta", lambda doc: doc["models"][2]["theta"].append(1.0)),
        ("X_norm", lambda doc: doc["X_norm"][4].pop()),
        ("models[1].y_std", lambda doc: doc["models"][1].pop("y_std")),
        # One training row fewer than the design all score models share.
        ("models[2].y_std", lambda doc: doc["models"][2]["y_std"].pop()),
    ],
)
def test_model_file_rejects_wrong_shapes(three_mode_doc, tmp_path, key, edit):
    doc = copy.deepcopy(three_mode_doc)
    edit(doc)
    file = written(tmp_path, doc)
    with pytest.raises(ValueError, match=re.escape(f"model file {file}: {key} ")):
        load_surrogate(file)


@pytest.mark.parametrize(
    "message, edit",
    [
        ("grid is missing", lambda doc: doc.pop("grid")),
        ("models is missing", lambda doc: doc.pop("models")),
        ("models has 2 entries, expected m = 3", lambda doc: doc["models"].pop()),
        ("reducer.kind is missing", lambda doc: doc["reducer"].pop("kind")),
        ("reducer.mirror is missing", lambda doc: doc["reducer"].pop("mirror")),
        ("reducer.basis is missing", lambda doc: doc["reducer"].pop("basis")),
        ("reducer.kind must be one of ['fdr', 'pca']",
         lambda doc: doc["reducer"].update(kind="foo")),
        ("reducer.mirror must be true or false",
         lambda doc: doc["reducer"].update(mirror="no")),
        ("reducer.basis: unknown basis kind",
         lambda doc: doc["reducer"]["basis"].update(kind="spline")),
        ("reducer.tau must be a finite number >= 0",
         lambda doc: doc["reducer"].update(tau=-0.5)),
        ("metadata must be an object", lambda doc: doc.update(metadata=[])),
        ("models[1] must be an object, got 5", lambda doc: doc["models"].__setitem__(1, 5)),
        ("metadata.input_names has 2 names, expected 3",
         lambda doc: doc["metadata"]["input_names"].pop()),
        ("grid.n_t must be an integer >= 2, got 1", lambda doc: doc["grid"].update(n_t=1)),
        ("grid.te must be a finite number > 0.0, got 0.0",
         lambda doc: doc["grid"].update(te=doc["grid"]["t0"])),
        ("grid.te must be a finite number > 0.0, got -1e-05",
         lambda doc: doc["grid"].update(te=-1e-5)),
    ],
)
def test_model_file_rejects_bad_fields(three_mode_doc, tmp_path, message, edit):
    doc = copy.deepcopy(three_mode_doc)
    edit(doc)
    file = written(tmp_path, doc)
    with pytest.raises(ValueError, match=re.escape(f"model file {file}: {message}")):
        load_surrogate(file)


def test_load_surrogate_names_a_file_whose_top_level_is_not_an_object(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]")
    message = f"model file {path}: the top level must be a JSON object, got [1, 2]"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_surrogate(path)


def _set_theta(start, *entries):
    def edit(doc):
        doc["models"][0]["theta"][start:start + len(entries)] = entries
    return edit


@pytest.mark.parametrize(
    "key, edit",
    [
        ("models[0].mu", lambda doc: doc["models"][0].update(mu="0.5")),
        ("models[0].mu", lambda doc: doc["models"][0].update(mu=True)),
        ("models[0].mu", lambda doc: doc["models"][0].update(mu=10**400)),
        ("models[0].theta", _set_theta(1, "1e-2")),
        ("models[0].theta", _set_theta(1, True)),
        ("models[0].theta", _set_theta(0, 10**20, "0.5")),
        ("reducer.tau", lambda doc: doc["reducer"].update(tau=10**400)),
        ("X_norm", lambda doc: doc["X_norm"][2].pop()),
    ],
    ids=["string", "boolean", "huge integer", "string in array", "boolean in array",
         "string beside an integer beyond int64", "huge tau", "ragged"],
)
def test_model_file_numbers_follow_the_config_rule(three_mode_doc, tmp_path, key, edit):
    # As in a config: strings, booleans and integers too large for a float
    # are not numbers, and the error names the file and the key.
    doc = copy.deepcopy(three_mode_doc)
    edit(doc)
    file = written(tmp_path, doc)
    with pytest.raises(ValueError, match=re.escape(f"model file {file}: {key} ")):
        load_surrogate(file)


@pytest.mark.parametrize("rows", [1, 37])
def test_predict_scores_equals_each_model(three_mode_doc, rows):
    # Normalizing once and sharing one kernel buffer changes no bit.
    s = surrogate_from_dict(copy.deepcopy(three_mode_doc))
    X = fq.make_rng(12).uniform(-0.2, 1.2, (rows, 3))
    means, var = s.predict_scores(X)
    means_only, none = s.predict_scores(X, with_var=False)
    assert none is None
    for j, mod in enumerate(s.models):
        mj, vj = mod.predict_batch(X)
        assert np.array_equal(means[:, j], mj)
        assert np.array_equal(var[:, j], vj)
        assert np.array_equal(means_only[:, j], mod.predict_batch(X, with_var=False)[0])


@pytest.fixture(scope="module")
def three_mode_stacks(three_mode_doc):
    """The three-mode surrogate cut to its first m score models, m = 0, 1, 3."""
    s = surrogate_from_dict(copy.deepcopy(three_mode_doc))
    red = s.reducer
    return {
        m: surrogate.LatentSurrogate(
            dataclasses.replace(red, m=m, phi=red.phi[:, :m], B=red.B[:, :m]),
            s.models[:m], s.input_lo, s.input_hi)
        for m in (0, 1, 3)
    }


@settings(max_examples=40)
@given(rows=st.sampled_from([1, PREDICT_ROWS - 1, PREDICT_ROWS, PREDICT_ROWS + 1,
                             3 * PREDICT_ROWS + 5]),
       m=st.sampled_from([0, 1, 3]), outside=st.booleans(), with_var=st.booleans(),
       seed=st.integers(0, 2**16))
@example(rows=3 * PREDICT_ROWS + 5, m=3, outside=True, with_var=True, seed=0)
@example(rows=1, m=0, outside=False, with_var=True, seed=1)
def test_score_columns_do_not_depend_on_the_stack(three_mode_stacks, rows, m, outside,
                                                  with_var, seed):
    s = three_mode_stacks[m]
    span = s.input_hi - s.input_lo
    # Inside the training box, or up to one box width beyond it on each side.
    low, high = (-1.0, 2.0) if outside else (0.0, 1.0)
    X = s.input_lo + span * fq.make_rng(seed).uniform(low, high, (rows, 3))
    means, var = s.predict_scores(X, with_var)
    assert means.shape == (rows, m)
    assert (var is None) == (not with_var)
    for j, mod in enumerate(s.models):
        mj, vj = mod.predict_batch(X, with_var)
        assert np.array_equal(means[:, j], mj)
        assert vj is None if var is None else np.array_equal(var[:, j], vj)
    if m == 0:
        curves, curve_var = s.predict_curves(X)
        assert np.array_equal(curves, np.broadcast_to(s.reducer.mean_curve, curves.shape))
        assert np.array_equal(curve_var, np.zeros_like(curves))
        return
    # The stacked cross-kernels against each model's sigma_z2 exp(-theta.D)
    # on the same squared differences, the search's GEMV: the same bits.
    X_norm, Xn = s.models[0].X_norm, normalize_inputs(X, s.input_lo, s.input_hi)
    D = _squared_differences(X_norm, Xn)
    theta = np.array([mod.theta for mod in s.models])
    sigma_z2 = np.array([mod.sigma_z2 for mod in s.models])
    K = _stacked_kernels(D, theta, sigma_z2)
    for j, mod in enumerate(s.models):
        assert np.array_equal(K[j], mod.sigma_z2 * np.exp(-(mod.theta @ D)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predictions_reject_non_finite_inputs(three_mode_doc, bad):
    s = surrogate_from_dict(copy.deepcopy(three_mode_doc))
    X = fq.make_rng(13).uniform(0.0, 1.0, (6, 3))
    X[4, 1] = bad
    message = f"^input row 4, column 1 is {bad}: inputs must be finite"
    for predict in (s.predict_scores, s.predict_curves, s.predict_mean_curves,
                    s.models[0].predict_batch):
        with pytest.raises(ValueError, match=message):
            predict(X)


def modes_ensemble(n_modes: int, seed: int):
    """Curves on GRID spanned by n_modes sine modes, with scores linear in
    three inputs: n_modes = 0 gives identical curves."""
    rng = fq.make_rng(seed)
    X = rng.uniform(0.0, 1.0, (20, 3))
    modes = np.sin(np.pi * np.outer(np.arange(1, n_modes + 1), T))
    Y = np.cos(2 * np.pi * T) + (X @ rng.normal(size=(3, n_modes))) @ modes
    return fq.ResponseEnsemble(X, Y, GRID)


@settings(max_examples=8)
@given(reducer=st.sampled_from(["kfdr-b", "pca"]), n_modes=st.integers(0, 3),
       seed=st.integers(0, 2**16))
@example(reducer="kfdr-b", n_modes=0, seed=1)
@example(reducer="pca", n_modes=1, seed=2)
def test_process_count_leaves_the_model_unchanged(reducer, n_modes, seed):
    ens = modes_ensemble(n_modes, seed)
    cfg = FitConfig(reducer=reducer, n_starts=2, budget=15)
    docs = []
    with pytest.MonkeyPatch.context() as mp:
        for cpus in (1, 2, 3):
            mp.setattr(core, "usable_cpus", lambda: cpus)
            s = fit_surrogate(ens, cfg, fq.make_rng(seed))
            docs.append(surrogate_to_dict(s))
    assert s.m <= n_modes and (s.m == n_modes or n_modes > 1)
    assert docs[1] == docs[0] and docs[2] == docs[0]
    assert multiprocessing.active_children() == []


@pytest.fixture
def two_processes(monkeypatch, tmp_path):
    """Two processes for three score models, if helpers can be forked here,
    and a fit_kriging substitute maker: in the process that `fails` (by
    pid), `failure(j)` runs for the first score model it takes; the other
    process waits for that to happen, so that each takes a model, and then
    returns no model."""
    with one_blas_thread() as pinned:
        if not pinned:
            pytest.skip("no bundled OpenBLAS to pin, so the fit starts no helper")
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    ens = modes_ensemble(3, 4)
    scores = fpca.fit_pca_reducer(ens)[1]
    assert scores.shape[1] == 3
    main_pid, marker = os.getpid(), tmp_path / "failed"

    def substitute(fails, failure):
        def fake_fit(X, y, rng, **kwargs):
            if (os.getpid() == main_pid) == (fails == "main"):
                marker.touch()
                failure(int(np.argmin(np.abs(scores - y[:, None]).sum(axis=0))))
            deadline = time.monotonic() + 60.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)

        monkeypatch.setattr(surrogate, "fit_kriging", fake_fit)

    return ens, substitute


@pytest.mark.parametrize("fails", ["main", "helper"])
def test_a_failing_score_model_is_named(two_processes, fails):
    ens, substitute = two_processes

    def failure(j):
        raise np.linalg.LinAlgError(f"failed on column {j}")

    substitute(fails, failure)
    with pytest.raises(np.linalg.LinAlgError, match=r"^score model (\d): failed on column \1$"):
        fit_surrogate(ens, FitConfig(reducer="pca"), fq.make_rng(0))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_lowest_failing_score_model_is_named_for_any_cpu_count(monkeypatch, cpus):
    # Score models 1 and 2 fail.  Every model takes a while in this process,
    # and model 1 a while longer in a helper: with helpers, this process
    # tends to fail on model 2 before a helper fails on model 1, and model
    # 1 still wins.
    ens = modes_ensemble(3, 4)
    scores = fpca.fit_pca_reducer(ens)[1]
    main_pid = os.getpid()

    def fake_fit(X, y, rng, **kwargs):
        j = int(np.argmin(np.abs(scores - y[:, None]).sum(axis=0)))
        time.sleep(0.2 if os.getpid() == main_pid else 0.3 if j == 1 else 0.0)
        if j in (1, 2):
            raise np.linalg.LinAlgError(f"failed on column {j}")

    monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(surrogate, "fit_kriging", fake_fit)
    with pytest.raises(np.linalg.LinAlgError, match=r"^score model 1: failed on column 1$"):
        fit_surrogate(ens, FitConfig(reducer="pca"), fq.make_rng(0))
    assert multiprocessing.active_children() == []


def test_a_helper_that_dies_is_reported(two_processes):
    ens, substitute = two_processes
    substitute("helper", lambda j: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3 before sending its models"):
        fit_surrogate(ens, FitConfig(reducer="pca"), fq.make_rng(0))
    assert multiprocessing.active_children() == []
