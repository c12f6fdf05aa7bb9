import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import funcuq as fq
from funcuq import bench, cli
from funcuq.bench import duffing_batch
from funcuq.core import FLOAT_FMT, _loaded_openblas
from funcuq.cli import DEFAULT_CONFIG, _build_marginal, _calibration_model, load_config, main
from funcuq.surrogate import FitConfig, run_study
from funcuq.uq import Uniform, log_posterior, log_posterior_block, save_observations


def write_config(path, **overrides):
    cfg = {
        "model": "duffing",
        "seed": 11,
        "dataset": {"n_train": 12},
        "kriging": {"n_starts": 2, "budget": 60},
        "surrogate": {"reducer": "kfdr-b"},
        "basis": {"n_b0": 16},
        "smoothing": {"tau_override": 0.0},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return cfg


def test_generate_writes_dataset(tmp_path):
    out = tmp_path / "data"
    rc = main(["generate", "--model", "duffing", "--n", "7", "--seed", "3",
               "--noise", "0", "--out", str(out)])
    assert rc == 0
    inputs = out / "inputs.csv"
    responses = out / "responses.csv"
    assert inputs.exists() and responses.exists()
    ens = fq.load_ensemble(responses, inputs)
    assert ens.n == 7
    assert ens.input_names == ("alpha", "beta", "c", "y0")


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "--model", "duffing", "--n", "5",
                     "--seed", "9", "--noise", "1e-5", "--out", str(out)]) == 0
    assert (a / "responses.csv").read_bytes() == (b / "responses.csv").read_bytes()
    assert (a / "inputs.csv").read_bytes() == (b / "inputs.csv").read_bytes()


@pytest.mark.parametrize("flag, value, message", [
    ("--n", "0", "--n must be an integer >= 1, got 0"),
    ("--noise", "-1", "--noise must be a finite number >= 0, got -1.0"),
], ids=["n", "noise"])
def test_generate_flags_fail_naming_the_flag(tmp_path, capsys, flag, value, message):
    out = tmp_path / "data"
    assert main(["generate", "--model", "duffing", flag, value, "--out", str(out)]) == 1
    assert f"command line: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_writes_model_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["m"] >= 1
    assert report["n_b"] >= 16
    assert "tau" in report and "timing_s" in report
    assert len(report["kriging"]) == report["m"]
    sur = fq.load_surrogate(out / "model.json")
    assert sur.m == report["m"]


def test_fit_report_records_each_search(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    search_keys = {"neg_lml", "evaluations", "cut_evaluations", "failed_starts", "best_start",
                   "on_bound", "jitter", "nugget_share"}
    for entry in report["kriging"]:
        assert search_keys <= set(entry)
        assert 1 <= entry["evaluations"] <= 2 * 60
        assert 0 <= entry["cut_evaluations"] <= entry["evaluations"]
        assert 0 <= entry["best_start"] < 2
        share = entry["sigma_n2"] / (entry["sigma_z2"] + entry["sigma_n2"])
        assert entry["nugget_share"] == pytest.approx(share, rel=1e-12)
    # The model file keeps its keys: the search record is not part of it,
    # and the design the score models share is stored once, at the top.
    doc = json.loads((out / "model.json").read_text())
    assert set(doc["models"][0]) == {"y_std", "y_offset", "y_scale", "mu", "sigma_z2",
                                     "theta", "sigma_n2"}


def test_fit_deterministic_report_numbers(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    reports = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 0
        rep = json.loads((out / "fit_report.json").read_text())
        rep.pop("timing_s")
        reports.append(rep)
        models = (out / "model.json").read_bytes()
        if name == "r1":
            first_model = models
    assert reports[0] == reports[1]
    assert (tmp_path / "r2" / "model.json").read_bytes() == first_model


def run_cli_at_blas_threads(threads: str, argv) -> None:
    """Run the CLI in a subprocess with OPENBLAS_NUM_THREADS=threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fq.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "funcuq.cli", *argv], env=env, check=True,
                   capture_output=True, timeout=300)


def test_fit_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 40 curves at n_b = 315 are large enough for OpenBLAS to split calls
    # over two threads, which changed the model's last bits before the pin.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "duffing", "seed": 1, "dataset": {"n_train": 40},
                                    "basis": {"n_b0": 45},
                                    "kriging": {"n_starts": 1, "budget": 20}}))
    models, reports = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run_cli_at_blas_threads(threads, ["fit", "--config", str(cfg_path), "--out", str(out)])
        models.append((out / "model.json").read_bytes())
        reports.append(json.loads((out / "fit_report.json").read_text()))
    assert models[0] == models[1]
    assert reports[0]["blas_pinned"] is True and reports[1]["blas_pinned"] is True


@pytest.fixture(scope="module")
def predict_argv(tmp_path_factory):
    """predict's arguments for 1000 Duffing inputs and a PCA model with 12
    scores, fitted on 40 curves: large enough for OpenBLAS to split the
    prediction's products over two threads, which changed the predicted
    arrays' last bits before the pin."""
    tmp = tmp_path_factory.mktemp("predict")
    cfg_path = tmp / "cfg.json"
    write_config(cfg_path, dataset={"n_train": 40}, surrogate={"reducer": "pca"})
    assert main(["fit", "--config", str(cfg_path), "--out", str(tmp / "fit")]) == 0
    assert main(["generate", "--model", "duffing", "--n", "1000", "--seed", "2",
                 "--out", str(tmp / "data")]) == 0
    return ["predict", "--model-file", str(tmp / "fit" / "model.json"),
            "--inputs", str(tmp / "data" / "inputs.csv")]


def test_predict_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, predict_argv):
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run_cli_at_blas_threads(threads, predict_argv + ["--out", str(out)])
        tables.append([(out / name).read_bytes()
                       for name in ("predictions.csv", "predictions_std.csv")])
    assert tables[0] == tables[1]


def test_predict_arrays_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch,
                                                               predict_argv):
    # The printed 10 digits hide most last-bit differences, so compare the
    # arrays predict writes, with this process's BLAS set to 1 and 2 threads.
    libs = _loaded_openblas()
    if not libs:
        pytest.skip("no bundled OpenBLAS whose thread count can be set")
    written = []
    monkeypatch.setattr(cli, "write_table",
                        lambda path, header, rows: written.append(np.array(rows)))
    previous = [getter() for _, getter in libs]
    try:
        for threads in (1, 2):
            for setter, _ in libs:
                setter(threads)
            assert main(predict_argv + ["--out", str(tmp_path)]) == 0
    finally:
        for (setter, _), count in zip(libs, previous):
            setter(count)
    assert len(written) == 4
    assert np.array_equal(written[0], written[2]) and np.array_equal(written[1], written[3])


def test_main_runs_every_command_under_the_blas_pin(monkeypatch):
    # This process's BLAS is set to two threads; every command sees one,
    # and main restores two afterwards.
    libs = _loaded_openblas()
    if not libs:
        pytest.skip("no bundled OpenBLAS whose thread count can be set")
    commands, seen = list(cli.COMMANDS), []

    def stub(args):
        seen.append(([getter() for _, getter in libs], args.blas_pinned))
        return 0

    monkeypatch.setattr(cli, "COMMANDS", dict.fromkeys(commands, stub))
    previous = [getter() for _, getter in libs]
    try:
        for setter, _ in libs:
            setter(2)
        for command in commands:
            assert main([command]) == 0
        after = [getter() for _, getter in libs]
    finally:
        for (setter, _), count in zip(libs, previous):
            setter(count)
    assert seen == [([1] * len(libs), True)] * len(commands)
    assert after == [2] * len(libs)


@pytest.mark.parametrize("missing", ["inputs", "responses"])
def test_fit_missing_dataset_fails_without_outputs(tmp_path, capsys, missing):
    data = tmp_path / "data"
    assert main(["generate", "--model", "duffing", "--n", "3", "--out", str(data)]) == 0
    (data / f"{missing}.csv").unlink()
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        dataset={"inputs": str(data / "inputs.csv"), "responses": str(data / "responses.csv")},
    )
    out = tmp_path / "fit"
    rc = main(["fit", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert str(data / f"{missing}.csv") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("unset", ["inputs", "responses"])
def test_fit_with_one_dataset_path_fails_naming_the_other(tmp_path, capsys, unset):
    # Without the check, fit would sample the config's model instead.
    dataset = {"inputs": str(tmp_path / "inputs.csv"), "responses": str(tmp_path / "r.csv")}
    dataset[unset] = None
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, dataset=dataset)
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert (f"config {cfg_path}: dataset.{unset} is not set; the training data needs both "
            "dataset.inputs and dataset.responses") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    ("fit", "model is not set; the training data needs a model or dataset.inputs and "
            "dataset.responses"),
    ("study", "model is not set; study needs a model"),
    ("generate", "model is not set; generate needs --model or a model"),
    ("predict", "forward.model_file is not set; predict needs it or --model-file"),
], ids=["fit", "study", "generate", "predict"])
@pytest.mark.parametrize("with_config", [True, False], ids=["config", "default config"])
def test_a_run_without_a_model_names_the_config(tmp_path, capsys, command, message,
                                                 with_config):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model=None)
    out = tmp_path / "o"
    argv = [command, "--out", str(out)] + (["--config", str(cfg_path)] if with_config else [])
    assert main(argv) == 1
    source = f"config {cfg_path}" if with_config else "default config"
    assert f"{source}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_predict_without_inputs_names_the_flag(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["predict", "--model-file", str(tmp_path / "model.json"), "--out", str(out)]) == 1
    assert "predict needs --inputs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "forward"])
def test_missing_model_file_fails_without_outputs(tmp_path, capsys, command):
    missing = tmp_path / "nope" / "model.json"
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("alpha,beta,c,y0\n1.0,2.0,1.0,-5e-05\n")
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, forward={"model_file": str(missing), "distributions": DUFFING_DISTS,
                                    "n_mcs": 50})
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if command == "predict":
        argv += ["--inputs", str(inputs)]
    assert main(argv) == 1
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


def test_predict_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg_path), "--out", str(fit_dir)]) == 0
    data_dir = tmp_path / "data"
    assert main(["generate", "--model", "duffing", "--n", "3", "--seed", "4",
                 "--noise", "0", "--out", str(data_dir)]) == 0
    out = tmp_path / "pred"
    rc = main(["predict", "--model-file", str(fit_dir / "model.json"),
               "--inputs", str(data_dir / "inputs.csv"), "--out", str(out)])
    assert rc == 0
    pred = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=1, ndmin=2)
    assert pred.shape == (3, 401)
    std = np.loadtxt(out / "predictions_std.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.all(std >= 0.0)


def edit_csv(path, line, column, text):
    """Replace one cell of a CSV file (line 0 is the first line)."""
    lines = path.read_text().splitlines()
    cells = lines[line].split(",")
    cells[column] = text
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("kind", ["inputs", "responses"])
def test_fit_rejects_non_finite_dataset_value(tmp_path, capsys, kind):
    data = tmp_path / "data"
    assert main(["generate", "--model", "duffing", "--n", "12", "--seed", "4",
                 "--noise", "0", "--out", str(data)]) == 0
    path = data / f"{kind}.csv"
    edit_csv(path, 3, 1, "nan")
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, dataset={"inputs": str(data / "inputs.csv"),
                                    "responses": str(data / "responses.csv")})
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{kind} file {path}: data row 3, column 2" in err
    assert "is nan" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def fitted_model(tmp_path_factory):
    """A fitted model file and a generated inputs file for `predict`."""
    tmp = tmp_path_factory.mktemp("predict")
    cfg_path = tmp / "cfg.json"
    write_config(cfg_path)
    assert main(["fit", "--config", str(cfg_path), "--out", str(tmp / "fit")]) == 0
    assert main(["generate", "--model", "duffing", "--n", "3", "--seed", "4",
                 "--noise", "0", "--out", str(tmp / "data")]) == 0
    return tmp / "fit" / "model.json", (tmp / "data" / "inputs.csv").read_text()


def drop_last_column(path):
    lines = path.read_text().splitlines()
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))


@pytest.mark.parametrize("edit, message", [
    (lambda path: edit_csv(path, 2, 1, "nan"), "data row 2, column 2 (beta) is nan"),
    (drop_last_column, "3 columns, the model has 4 inputs"),
    (lambda path: edit_csv(path, 2, 1, "abc"), "could not convert string 'abc' to float64"),
])
def test_predict_rejects_bad_inputs(tmp_path, capsys, fitted_model, edit, message):
    model_path, inputs_text = fitted_model
    inputs = tmp_path / "inputs.csv"
    inputs.write_text(inputs_text)
    edit(inputs)
    out = tmp_path / "pred"
    assert main(["predict", "--model-file", str(model_path), "--inputs", str(inputs),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"inputs file {inputs}: {message}" in err
    assert not out.exists()


def test_study_table_shape_and_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        study={"train_sizes": [10], "repetitions": 2, "test_size": 12,
               "noise_std": 0.0, "methods": ["kfdr-b", "pca"]},
        basis={"n_b0": 16},
    )
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(["study", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append((out / "study.csv").read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().strip().splitlines()
    assert lines[0] == "method,n_train,repetition,nrmse"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 1 * 2  # methods x sizes x repetitions
    assert {r[0] for r in rows} == {"kfdr-b", "pca"}
    for r in rows:
        assert float(r[3]) >= 0.0


def test_study_csv_rows_are_the_run_study_records(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    study = {"train_sizes": [10, 12], "repetitions": 2, "test_size": 6, "noise_std": 1e-4,
             "methods": ["pca", "kfdr-b"]}
    cfg = write_config(cfg_path, study=study)
    out = tmp_path / "s"
    assert main(["study", "--config", str(cfg_path), "--out", str(out)]) == 0
    configs = {method: FitConfig(reducer=method, n_b0=16, tau_override=0.0, n_starts=2,
                                 budget=60) for method in study["methods"]}
    records = run_study(
        "duffing", configs, study["train_sizes"], study["repetitions"], study["test_size"],
        study["noise_std"], bench.DEFAULT_SUBSTEPS,
        lambda stage, n, rep: fq.derive_seed(
            cfg["seed"], "study/test" if stage == "test" else f"study/{stage}/n{n}/rep{rep}"),
    )
    lines = (out / "study.csv").read_text().splitlines()
    assert lines[1:] == [f"{method},{n},{rep},{FLOAT_FMT % err}"
                         for method, n, rep, err in records]


def test_study_default_repetitions_is_ten():
    from funcuq.cli import DEFAULT_CONFIG

    assert DEFAULT_CONFIG["study"]["repetitions"] == 10
    assert DEFAULT_CONFIG["study"]["methods"] == ["kfdr-f", "kfdr-b", "pca"]
    assert DEFAULT_CONFIG["forward"]["n_mcs"] == 100_000
    assert DEFAULT_CONFIG["inverse"]["walkers"] == 100
    assert DEFAULT_CONFIG["inverse"]["iterations"] == 300
    assert DEFAULT_CONFIG["inverse"]["burn_in"] == 0.5


DUFFING_DISTS = [
    {"name": "alpha", "dist": "normal", "mean": 1.0, "std": 0.05},
    {"name": "beta", "dist": "normal", "mean": 2.0, "std": 0.1},
    {"name": "c", "dist": "normal", "mean": 1.0, "std": 0.05},
    {"name": "y0", "dist": "normal", "mean": -5e-5, "std": 5e-6},
]


def test_forward_exact_model(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        forward={"use_exact_model": True, "distributions": DUFFING_DISTS,
                 "n_mcs": 200, "kde_points": 101},
    )
    out = tmp_path / "fwd"
    assert main(["forward", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = np.loadtxt(out / "mean_std.csv", delimiter=",", skiprows=1)
    assert table.shape == (401, 3)
    assert np.all(table[:, 2] >= 0.0)
    kde = np.loadtxt(out / "extremes_kde.csv", delimiter=",", skiprows=1)
    assert kde.shape == (101, 3)
    # An exact model has no training box.
    report = json.loads((out / "forward_report.json").read_text())
    assert report == {"n_mcs": 200, "n_outside": None, "n_outside_by_input": None}


def test_forward_deterministic_bytes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        forward={"use_exact_model": True, "distributions": DUFFING_DISTS,
                 "n_mcs": 100, "kde_points": 51},
    )
    blobs = []
    for name in ("f1", "f2"):
        out = tmp_path / name
        assert main(["forward", "--config", str(cfg_path), "--out", str(out)]) == 0
        blobs.append((out / "mean_std.csv").read_bytes()
                     + (out / "extremes_kde.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_forward_with_model_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg_path), "--out", str(fit_dir)]) == 0
    write_config(
        cfg_path,
        forward={"model_file": str(fit_dir / "model.json"),
                 "distributions": DUFFING_DISTS, "n_mcs": 500, "kde_points": 64},
    )
    out = tmp_path / "fwd"
    assert main(["forward", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = np.loadtxt(out / "mean_std.csv", delimiter=",", skiprows=1)
    assert table.shape == (401, 3)
    assert np.all(np.isfinite(table))
    report = json.loads((out / "forward_report.json").read_text())
    assert list(report) == ["n_mcs", "n_outside", "n_outside_by_input"]
    assert report["n_mcs"] == 500
    by_input = report["n_outside_by_input"]
    assert sorted(by_input) == sorted(d["name"] for d in DUFFING_DISTS)
    assert max(by_input.values()) <= report["n_outside"] <= min(500, sum(by_input.values()))
    assert f"({report['n_outside']} outside the training box)" in capsys.readouterr().out


def test_forward_counts_samples_outside_the_training_box(tmp_path):
    # The counts are those of the forward/mcs draws against the model
    # file's training box.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg_path), "--out", str(fit_dir)]) == 0
    sur = fq.load_surrogate(fit_dir / "model.json")
    lo, hi = sur.input_lo, sur.input_hi
    names = list(sur.metadata["input_names"])
    # Each input leaves its training range with probability 1/2, so a
    # sample leaves the box with probability 1 - 1/2^4.
    dists = [{"name": name, "dist": "uniform", "lower": a - (b - a) / 2, "upper": b + (b - a) / 2}
             for name, a, b in zip(names, lo, hi)]
    n = 4000
    write_config(cfg_path, forward={"model_file": str(fit_dir / "model.json"),
                                    "distributions": dists, "n_mcs": n, "kde_points": 16})
    out = tmp_path / "fwd"
    assert main(["forward", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "forward_report.json").read_text())
    dist = fq.InputDistribution([Uniform(d["lower"], d["upper"]) for d in dists])
    draws = dist.sample(fq.make_rng(fq.derive_seed(11, "forward/mcs")), n)
    outside = (draws < lo) | (draws > hi)
    assert report["n_outside"] == np.count_nonzero(outside.any(axis=1))
    assert report["n_outside_by_input"] == dict(zip(names, outside.sum(axis=0).tolist()))
    assert report["n_outside"] / n == pytest.approx(15 / 16, abs=0.02)
    np.testing.assert_allclose(outside.sum(axis=0) / n, 0.5, atol=0.03)


def unnamed_model(tmp_path, fitted_model):
    """fitted_model's model file (4 inputs) without metadata.input_names."""
    doc = json.loads(fitted_model[0].read_text())
    del doc["metadata"]["input_names"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    return model


UNNAMED_DISTS = [{key: v for key, v in d.items() if key != "name"} for d in DUFFING_DISTS]


def test_forward_names_unnamed_inputs_from_x1(tmp_path, fitted_model):
    # A model file without input names and distributions without names:
    # the report names the inputs x1..xp, as ResponseEnsemble does.
    model = unnamed_model(tmp_path, fitted_model)
    dists = UNNAMED_DISTS
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, forward={"model_file": str(model), "distributions": dists,
                                    "n_mcs": 50, "kde_points": 16})
    out = tmp_path / "fwd"
    assert main(["forward", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "forward_report.json").read_text())
    assert list(report["n_outside_by_input"]) == ["x1", "x2", "x3", "x4"]


X_INPUTS = "the model's inputs ['x1', 'x2', 'x3', 'x4']"


@pytest.mark.parametrize("command, edit, message", [
    ("forward", lambda cfg: cfg["forward"]["distributions"].pop(),
     "forward.distributions names ['x1', 'x2', 'x3'] do not match " + X_INPUTS),
    ("inverse", lambda cfg: cfg["inverse"]["priors"].pop(),
     "inverse.priors names ['alpha', 'beta', 'c'] do not match " + X_INPUTS),
    ("inverse", lambda cfg: cfg["inverse"].update(priors=cfg["inverse"]["priors"][:3],
                                                  fixed={"y0": -5e-5}),
     "inverse.fixed names ['y0'] are not model inputs ['x1', 'x2', 'x3', 'x4']"),
    ("inverse", lambda cfg: cfg["inverse"].update(fixed={"y0": -5e-5}),
     "inverse.fixed names ['y0'] are not model inputs ['x1', 'x2', 'x3', 'x4']"),
], ids=["forward, 3 distributions", "inverse, 3 priors", "inverse, 3 priors and fixed",
        "inverse, 4 priors and fixed"])
def test_a_model_file_without_input_names_checks_the_entries(tmp_path, capsys, fitted_model,
                                                             command, edit, message):
    # Without names, the model's inputs are x1..x4, and entries match them by name.
    model = unnamed_model(tmp_path, fitted_model)
    cfg_path = make_inverse_config(tmp_path, write_duffing_observations(tmp_path),
                                   use_exact_model=False, model_file=str(model))
    cfg = json.loads(cfg_path.read_text())
    cfg["forward"] = {"model_file": str(model), "distributions": UNNAMED_DISTS, "n_mcs": 50,
                      "kde_points": 16}
    edit(cfg)
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config {cfg_path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_forward_wrong_distribution_names(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    bad = [dict(d) for d in DUFFING_DISTS]
    bad[0]["name"] = "mass"
    write_config(cfg_path, forward={"use_exact_model": True,
                                    "distributions": bad, "n_mcs": 50})
    assert main(["forward", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
    assert (f"config {cfg_path}: forward.distributions names ['mass', 'beta', 'c', 'y0'] do not "
            "match the model's inputs ['alpha', 'beta', 'c', 'y0']") in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_inverse_names_unnamed_inputs_from_x1(tmp_path, fitted_model):
    # A model file without input names and priors without names: the
    # calibrated inputs are x1..x4, as forward names them.
    model = unnamed_model(tmp_path, fitted_model)
    priors = [{key: v for key, v in p.items() if key != "name"} for p in INVERSE_PRIORS]
    cfg_path = make_inverse_config(tmp_path, write_duffing_observations(tmp_path),
                                   use_exact_model=False, model_file=str(model), priors=priors,
                                   iterations=4)
    out = tmp_path / "inv"
    assert main(["inverse", "--config", str(cfg_path), "--out", str(out)]) == 0
    header = (out / "posterior_draws.csv").read_text().splitlines()[0]
    assert header == "x1,x2,x3,x4,sigma"


@pytest.mark.parametrize("fixed, message", [
    ({"mass": 1.0}, "inverse.fixed names ['mass'] are not model inputs "
                    "['alpha', 'beta', 'c', 'y0']"),
    ({"y0": "abc"}, "inverse.fixed.y0 must be a finite number, got 'abc'"),
    ({"y0": None}, "inverse.fixed.y0 must be a finite number, got None"),
    ({"y0": float("nan")}, "inverse.fixed.y0 must be a finite number, got nan"),
    ({"y0": True}, "inverse.fixed.y0 must be a finite number, got True"),
    ([-5e-5], "inverse.fixed must be an object, got [-5e-05]"),
], ids=["unknown name", "string", "null", "NaN", "boolean", "array"])
def test_inverse_fixed_fails_naming_the_config_and_the_key(tmp_path, capsys, fixed, message):
    cfg_path = make_inverse_config(tmp_path, write_duffing_observations(tmp_path),
                                   priors=INVERSE_PRIORS[:3], fixed=fixed)
    out = tmp_path / "inv"
    assert main(["inverse", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config {cfg_path}: {message}" in capsys.readouterr().err
    assert not out.exists()


INVERSE_PRIORS = [
    {"name": "alpha", "dist": "uniform", "lower": 0.6, "upper": 1.4},
    {"name": "beta", "dist": "uniform", "lower": 1.5, "upper": 2.5},
    {"name": "c", "dist": "uniform", "lower": 0.6, "upper": 1.4},
    {"name": "y0", "dist": "uniform", "lower": -1e-4, "upper": 0.0},
]


def make_inverse_config(tmp_path, observations_path, **inv_overrides):
    inverse = {
        "use_exact_model": True,
        "observations": str(observations_path),
        "priors": INVERSE_PRIORS,
        "sigma_prior": {"lower": 1e-7, "upper": 1e-3},
        "walkers": 12,
        "iterations": 20,
        "burn_in": 0.5,
    }
    inverse.update(inv_overrides)
    cfg_path = tmp_path / "inv_cfg.json"
    write_config(cfg_path, inverse=inverse, dataset={"n_train": 12, "substeps": 2})
    return cfg_path


def write_duffing_observations(tmp_path, n_obs=3):
    grid = fq.TimeGrid(0.0, 2.0, 401)
    curve = duffing_batch([[1.19, 1.82, 0.94, -3.3e-5]], substeps=2)[0]
    rng = fq.make_rng(50)
    obs = curve[None, :] + rng.normal(0.0, 1e-5, (n_obs, grid.n_t))
    path = tmp_path / "obs.csv"
    save_observations(path, grid.nodes, obs)
    return path


def test_inverse_exact_model(tmp_path, capsys):
    obs_path = write_duffing_observations(tmp_path)
    cfg_path = make_inverse_config(tmp_path, obs_path)
    out = tmp_path / "inv"
    assert main(["inverse", "--config", str(cfg_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "acceptance rate" in printed
    lines = (out / "posterior_summary.csv").read_text().strip().splitlines()
    assert lines[0] == "variable,mean,ci_low,ci_high"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["alpha", "beta", "c", "y0", "sigma"]
    draws = np.loadtxt(out / "posterior_draws.csv", delimiter=",", skiprows=1)
    assert draws.shape == (12 * 10, 5)


def test_inverse_deterministic_bytes(tmp_path):
    obs_path = write_duffing_observations(tmp_path)
    cfg_path = make_inverse_config(tmp_path, obs_path)
    blobs = []
    for name in ("i1", "i2"):
        out = tmp_path / name
        assert main(["inverse", "--config", str(cfg_path), "--out", str(out)]) == 0
        blobs.append((out / "posterior_draws.csv").read_bytes()
                     + (out / "posterior_summary.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_inverse_with_surrogate_and_fixed_parameter(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg_path), "--out", str(fit_dir)]) == 0
    obs_path = write_duffing_observations(tmp_path)
    inv_cfg = make_inverse_config(
        tmp_path, obs_path,
        use_exact_model=False,
        model_file=str(fit_dir / "model.json"),
        fixed={"alpha": 1.19},
        priors=[
            {"name": "beta", "dist": "uniform", "lower": 1.5, "upper": 2.5},
            {"name": "c", "dist": "uniform", "lower": 0.6, "upper": 1.4},
            {"name": "y0", "dist": "uniform", "lower": -1e-4, "upper": 0.0},
        ],
        walkers=10,
        iterations=12,
    )
    out = tmp_path / "inv"
    assert main(["inverse", "--config", str(inv_cfg), "--out", str(out)]) == 0
    lines = (out / "posterior_summary.csv").read_text().strip().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["beta", "c", "y0", "sigma"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_forward_and_inverse_bytes_do_not_depend_on_the_blas_thread_count(tmp_path,
                                                                          predict_argv):
    # Every command runs under the BLAS pin, and forward's helpers inherit
    # it: both must write the same bytes at one and two threads.  With predict's
    # 12-score model on 40 points, 128 walkers score up to 64 proposals per
    # call, and 8,200 samples make two full forward blocks of 4,096 and a
    # partial one.
    model_file = predict_argv[predict_argv.index("--model-file") + 1]
    cfg_path = make_inverse_config(tmp_path, write_duffing_observations(tmp_path),
                                   use_exact_model=False, model_file=model_file,
                                   walkers=128, iterations=4)
    cfg = json.loads(cfg_path.read_text())
    cfg["forward"] = {"model_file": model_file, "distributions": DUFFING_DISTS,
                      "n_mcs": 8200, "kde_points": 64}
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for threads in ("1", "2"):
        files = {}
        for command, names in (("forward", ("mean_std.csv", "extremes_kde.csv")),
                               ("inverse", ("posterior_draws.csv", "posterior_summary.csv"))):
            out = tmp_path / f"{command}{threads}"
            run_cli_at_blas_threads(threads, [command, "--config", str(cfg_path),
                                              "--out", str(out)])
            files.update({name: (out / name).read_bytes() for name in names})
        outputs.append(files)
    assert outputs[0] == outputs[1]


def test_calibration_model_block_matches_scalar_posterior():
    t = fq.TimeGrid(0.0, 1.0, 11).nodes

    def hook(X):
        X = np.atleast_2d(X)
        return X[:, 0:1] * t + X[:, 1:2] * t**2 + X[:, 2:3]

    model = _calibration_model(hook, ("a", "b", "c"), {"b": 0.5}, ["a", "c"])
    priors, sigma_prior = [Uniform(0.0, 2.0), Uniform(-1.0, 1.0)], Uniform(1e-3, 1.0)
    rng = fq.make_rng(51)
    obs = hook([1.2, 0.5, 0.1]) + rng.normal(0.0, 0.05, (2, t.size))
    thetas = np.array([[1.2, 0.1, 0.05], [0.3, -0.7, 0.2], [2.2, 0.0, 0.1],
                       [1.0, 0.0, -0.1], [1.0, 0.3, 2.0]])
    block = log_posterior_block(model, priors, sigma_prior, obs, thetas)
    for row, value in zip(thetas, block):
        scalar = log_posterior(lambda x: hook([x[0], 0.5, x[1]])[0], priors, sigma_prior,
                               obs, row[:-1], row[-1])
        assert value == pytest.approx(scalar, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("command, edit, message", [
    ("inverse", lambda cfg: cfg["inverse"].update(observations=None),
     "inverse.observations is not set; inverse needs an observations file"),
    ("inverse", lambda cfg: cfg["inverse"].update(sigma_prior=None),
     "inverse.sigma_prior is not set; inverse needs a sigma_prior range"),
    ("forward", lambda cfg: cfg["forward"].update(use_exact_model=False),
     "forward.model_file is not set and forward.use_exact_model is false; "
     "forward needs one of them"),
    ("inverse", lambda cfg: cfg.update(model=None),
     "model must be one of ['boucwen', 'duffing'] for inverse.use_exact_model, got None"),
    # 4 calibrated inputs and sigma: uq.ensemble_mcmc needs 2 (5 + 1) walkers.
    ("inverse", lambda cfg: cfg["inverse"].update(walkers=11),
     "inverse.walkers must be an integer >= 12, got 11"),
    ("fit", lambda cfg: cfg["basis"].update(order=3),
     "basis.order must be an integer >= 4, got 3"),
    ("study", lambda cfg: cfg.update(study={"methods": ["pca", "kfdr-b", "pca"]}),
     "study.methods names a method twice: ['pca', 'kfdr-b', 'pca']"),
], ids=["observations", "sigma_prior", "model_file", "model", "walkers", "order", "methods"])
def test_model_run_settings_fail_naming_the_config_and_the_key(tmp_path, capsys, command, edit,
                                                                message):
    cfg_path = make_inverse_config(tmp_path, write_duffing_observations(tmp_path))
    cfg = json.loads(cfg_path.read_text())
    cfg["forward"] = {"use_exact_model": True, "distributions": DUFFING_DISTS, "n_mcs": 50}
    edit(cfg)
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config {cfg_path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_a_run_without_config_names_the_default_config(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["inverse", "--out", str(out)]) == 1
    assert ("default config: inverse.model_file is not set and inverse.use_exact_model is "
            "false") in capsys.readouterr().err
    assert not out.exists()


def test_inverse_zero_observations_errors(tmp_path, capsys):
    grid = fq.TimeGrid(0.0, 2.0, 401)
    path = tmp_path / "empty_obs.csv"
    with open(path, "w") as fh:
        fh.write("t\n")
        for t in grid.nodes:
            fh.write(f"{t}\n")
    cfg_path = make_inverse_config(tmp_path, path)
    assert main(["inverse", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1


def test_inverse_rejects_shifted_observation_nodes(tmp_path, capsys):
    grid = fq.TimeGrid(0.0, 2.0, 401)
    path = tmp_path / "shifted_obs.csv"
    save_observations(path, grid.nodes + 0.25 * grid.dt, np.zeros((2, grid.n_t)))
    cfg_path = make_inverse_config(tmp_path, path)
    assert main(["inverse", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "time node 1 is 0.00125, model grid has 0" in err


def test_inverse_rejects_non_finite_observation(tmp_path, capsys):
    path = write_duffing_observations(tmp_path)
    lines = path.read_text().splitlines()
    cells = lines[10].split(",")
    cells[2] = "nan"
    lines[10] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    cfg_path = make_inverse_config(tmp_path, path)
    out = tmp_path / "o"
    assert main(["inverse", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "data row 10, column 3 (obs2) is nan" in err
    assert not out.exists()


def test_inverse_rejects_observations_one_node_short(tmp_path, capsys):
    grid = fq.TimeGrid(0.0, 2.0, 401)
    path = tmp_path / "short_obs.csv"
    save_observations(path, grid.nodes[:-1], np.zeros((2, grid.n_t - 1)))
    cfg_path = make_inverse_config(tmp_path, path)
    out = tmp_path / "o"
    assert main(["inverse", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"observations file {path}: 400 time nodes, model grid has 401" in err
    assert not out.exists()


def test_inverse_missing_observations_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    cfg_path = make_inverse_config(tmp_path, missing)
    out = tmp_path / "o"
    assert main(["inverse", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_section_rejected(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"modle": "duffing"}))
    assert main(["fit", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("override, key", [
    ({"basis": {"mirror": "no"}}, "basis.mirror"),
    ({"basis": {"mirror": 1}}, "basis.mirror"),
    ({"kriging": {"n_start": 3}}, "kriging.n_start"),
    ({"smoothing": {"n_b0": 16}}, "smoothing.n_b0"),
    ({"basis": 16}, "basis"),
    ({"forward": {"n_mcs": 1e3}}, "forward.n_mcs must be an integer >= 2, got 1000.0"),
    ({"forward": {"kde_points": -1}}, "forward.kde_points must be a nonnegative integer, got -1"),
    ({"surrogate": {"reducer": "kfdr"}}, "surrogate.reducer must be one of"),
    ({"study": {"methods": ["pca", "fpca"]}}, "study.methods[1] must be one of"),
    ({"study": {"methods": "pca"}}, "study.methods must be an array"),
    ({"kriging": {"n_starts": 1.5}}, "kriging.n_starts must be an integer >= 1, got 1.5"),
    ({"kriging": {"budget": "10"}}, "kriging.budget must be an integer >= 1"),
    ({"smoothing": {"n_tau": 25.0}}, "smoothing.n_tau must be an integer >= 2, got 25.0"),
    ({"basis": {"order": True}}, "basis.order must be a nonnegative integer, got True"),
    ({"dataset": {"n_train": -5}}, "dataset.n_train must be an integer >= 1, got -5"),
    ({"dataset": {"substeps": None}}, "dataset.substeps must be an integer >= 1, got None"),
    ({"study": {"repetitions": "10"}}, "study.repetitions must be a nonnegative integer"),
    ({"study": {"test_size": 1e3}}, "study.test_size must be an integer >= 1, got 1000.0"),
    ({"study": {"train_sizes": [100, 50.5]}},
     "study.train_sizes[1] must be an integer >= 1, got 50.5"),
    ({"study": {"train_sizes": 100}}, "study.train_sizes must be an array, got 100"),
    ({"dataset": {"noise_std": "0.1"}}, "dataset.noise_std must be a finite number"),
    ({"study": {"noise_std": float("nan")}}, "study.noise_std must be a finite number >= 0, got nan"),
    ({"smoothing": {"delta_r": None}}, "smoothing.delta_r must be a finite number > 0, got None"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"basis": {"kind": "fourier"}}, "basis.kind must be one of"),
    ({"forward": {"use_exact_model": "false"}}, "forward.use_exact_model must be true or false"),
    ({"kriging": {"fix_nugget": "x"}}, "kriging.fix_nugget must be a finite number"),
    ({"out_dir": 5}, "out_dir must be a string, got 5"),
    ({"model": "duffin"}, "model must be one of"),
    ({"inverse": {"fixed": {"y0": "abc"}}}, "inverse.fixed.y0 must be a finite number"),
    ({"forward": {"n_mcs": 1}}, "forward.n_mcs must be an integer >= 2, got 1"),
    ({"smoothing": {"n_tau": 0}}, "smoothing.n_tau must be an integer >= 2, got 0"),
    ({"basis": {"n_b0": 1}}, "basis.n_b0 must be an integer >= 2, got 1"),
    ({"dataset": {"substeps": 0}}, "dataset.substeps must be an integer >= 1, got 0"),
    ({"dataset": {"n_train": 0}}, "dataset.n_train must be an integer >= 1, got 0"),
    ({"study": {"test_size": 0}}, "study.test_size must be an integer >= 1, got 0"),
    ({"study": {"train_sizes": [100, 0]}}, "study.train_sizes[1] must be an integer >= 1, got 0"),
    ({"kriging": {"n_starts": 0}}, "kriging.n_starts must be an integer >= 1, got 0"),
    ({"kriging": {"budget": 0}}, "kriging.budget must be an integer >= 1, got 0"),
    ({"kriging": {"fix_nugget": -1}}, "kriging.fix_nugget must be a finite number >= 0, got -1"),
    ({"smoothing": {"tau_override": -1e-3}},
     "smoothing.tau_override must be a finite number >= 0, got -0.001"),
    ({"dataset": {"noise_std": -1e-5}}, "dataset.noise_std must be a finite number >= 0, got -1e-05"),
    ({"study": {"noise_std": -1e-5}}, "study.noise_std must be a finite number >= 0, got -1e-05"),
    ({"smoothing": {"delta_r": -0.05}}, "smoothing.delta_r must be a finite number > 0, got -0.05"),
    ({"smoothing": {"delta_r": 0}}, "smoothing.delta_r must be a finite number > 0, got 0"),
    ({"inverse": {"burn_in": 1.0}},
     "inverse.burn_in must be a finite number >= 0 and < 1, got 1.0"),
    ({"inverse": {"burn_in": -0.5}},
     "inverse.burn_in must be a finite number >= 0 and < 1, got -0.5"),
    ({"inverse": {"iterations": 1}}, "inverse.iterations must be an integer >= 2, got 1"),
], ids=["mirror string", "mirror integer", "key typo", "dropped key", "section not an object",
        "float count", "negative count", "unknown reducer", "unknown method",
        "methods not an array", "float n_starts", "string budget", "float n_tau",
        "boolean order", "negative n_train", "null substeps", "string repetitions",
        "float test_size", "float train size", "train_sizes not an array",
        "string dataset noise", "NaN study noise", "null delta_r", "float seed",
        "boolean seed", "fourier basis kind", "string use_exact_model", "string fix_nugget",
        "integer out_dir", "unknown model", "string fixed value", "n_mcs 1", "n_tau 0",
        "n_b0 1", "substeps 0", "n_train 0", "test_size 0", "train size 0", "n_starts 0",
        "budget 0", "negative fix_nugget", "negative tau_override", "negative dataset noise",
        "negative study noise", "negative delta_r", "zero delta_r", "burn_in 1",
        "negative burn_in", "iterations 1"])
def test_config_rejects_bad_keys(tmp_path, capsys, override, key):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(override))
    with pytest.raises(ValueError, match=rf"{re.escape(str(cfg_path))}: .*\b{re.escape(key)}\b"):
        load_config(cfg_path)
    assert main(["fit", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# One value of another kind for each kind a cli.SCHEMA entry can have.
WRONG_KIND = {int: 1.5, float: "1.0", str: 5, bool: "false", dict: [], list: {}}


def wrong_value(kind):
    if isinstance(kind, tuple):  # accepted strings
        return "not-" + kind[0]
    if isinstance(kind, list):  # an array of kind[0]
        return [wrong_value(kind[0])]
    if isinstance(kind, dict):  # an object of kind[str]
        return {"name": wrong_value(kind[str])}
    return WRONG_KIND[kind]


SCHEMA_ENTRIES = [(f"{section}.{key}", entry) for section, keys in cli.SCHEMA.items()
                  if isinstance(keys, dict) for key, entry in keys.items()]
SCHEMA_ENTRIES += [(key, entry) for key, entry in cli.SCHEMA.items() if isinstance(entry, tuple)]


@pytest.mark.parametrize("name, entry", SCHEMA_ENTRIES, ids=[name for name, _ in SCHEMA_ENTRIES])
def test_every_schema_key_rejects_a_value_of_another_kind(tmp_path, capsys, name, entry):
    value = wrong_value(entry[1])
    section, _, key = name.rpartition(".")
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({section: {key: value}} if section else {key: value}))
    out = tmp_path / "o"
    assert main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config {cfg_path}: {name}" in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A config covering all commands:")[1].split("```json\n")[1]
    cfg_path = tmp_path / "readme.json"
    cfg_path.write_text(block.split("```")[0])
    cfg = load_config(cfg_path)
    for section, value in json.loads(cfg_path.read_text()).items():
        if isinstance(value, dict):
            assert cfg[section] == {**DEFAULT_CONFIG[section], **value}
        else:
            assert cfg[section] == value


def test_config_seed_may_be_negative(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": -3}))
    assert load_config(cfg_path)["seed"] == -3


@pytest.mark.parametrize("document", ["[]", "5", '"x"', "null"])
def test_config_top_level_must_be_an_object(tmp_path, capsys, document):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(document)
    message = f"config {cfg_path}: the top level must be a JSON object, got "
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(cfg_path)
    assert main(["fit", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["fit", "predict"])
def test_a_file_that_is_not_json_fails_naming_the_file(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1,}')
    if command == "fit":
        args, source = ["--config", str(bad)], f"config {bad}"
    else:
        args, source = ["--model-file", str(bad), "--inputs", "x.csv"], f"model file {bad}"
    out = tmp_path / "o"
    assert main([command, *args, "--out", str(out)]) == 1
    assert f"{source}: not valid JSON: Expecting property name" in capsys.readouterr().err
    assert not out.exists()


def _set(entry, key, value):
    entry[key] = value


@pytest.mark.parametrize("section, edit, message", [
    ("forward.distributions", lambda e: e[0].pop("std"),
     "forward.distributions[0].std is missing"),
    ("forward.distributions", lambda e: _set(e[1], "mean", "2.0"),
     "forward.distributions[1].mean must be a finite number, got '2.0'"),
    ("forward.distributions", lambda e: _set(e[2], "mean", float("nan")),
     "forward.distributions[2].mean must be a finite number, got nan"),
    ("forward.distributions", lambda e: _set(e[2], "std", 10**400),
     "forward.distributions[2].std must be a finite number, got 1000"),
    ("forward.distributions", lambda e: _set(e[3], "std", 0.0),
     "forward.distributions[3]: std must be positive"),
    ("forward.distributions", lambda e: e[0].update(dist="lognormal", mean=-1.0),
     "forward.distributions[0]: lognormal needs positive mean and std"),
    ("forward.distributions", lambda e: _set(e[1], "dist", "gamma"),
     "forward.distributions[1].dist must be one of"),
    ("inverse.priors", lambda e: e[2].pop("upper"), "inverse.priors[2].upper is missing"),
    ("inverse.priors", lambda e: _set(e[0], "lower", True),
     "inverse.priors[0].lower must be a finite number, got True"),
    ("inverse.priors", lambda e: _set(e[1], "lower", 3.0),
     "inverse.priors[1]: lower bound must be below upper bound"),
    ("inverse.sigma_prior", lambda e: e.pop("lower"), "inverse.sigma_prior.lower is missing"),
    ("inverse.sigma_prior", lambda e: _set(e, "upper", float("inf")),
     "inverse.sigma_prior.upper must be a finite number, got inf"),
    ("inverse.sigma_prior", lambda e: _set(e, "upper", 1e-8),
     "inverse.sigma_prior: lower bound must be below upper bound"),
    ("inverse.sigma_prior", lambda e: e.update(dist="lognormal", mean=1e-5, std=5e-6),
     "inverse.sigma_prior.dist must be one of ['uniform'], got 'lognormal'"),
])
def test_bad_distribution_entry_names_its_key(tmp_path, capsys, section, edit, message):
    obs_path = write_duffing_observations(tmp_path)
    cfg_path = make_inverse_config(tmp_path, obs_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["forward"] = {"use_exact_model": True, "n_mcs": 50,
                      "distributions": [dict(d) for d in DUFFING_DISTS]}
    part, key = section.split(".")
    edit(cfg[part][key])
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main([part, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config {cfg_path}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry", [{"lower": 1e-7, "upper": 1e-3},
                                   {"dist": "uniform", "lower": 1e-7, "upper": 1e-3}])
def test_sigma_prior_dist_may_be_missing_or_uniform(entry):
    sigma_prior = _build_marginal("c.json", "inverse.sigma_prior", entry, ("uniform",))
    assert sigma_prior == Uniform(1e-7, 1e-3)


def test_config_fit_sections_name_the_fit_settings():
    # The fit reads its settings by name from these sections (basis.kind is
    # not read, nb_override is library-only), so a setting added to one side
    # only fails here.
    keys = [key for section in ("basis", "smoothing", "kriging", "surrogate")
            for key in DEFAULT_CONFIG[section] if (section, key) != ("basis", "kind")]
    fields = [f.name for f in dataclasses.fields(FitConfig) if f.name != "nb_override"]
    assert sorted(keys) == sorted(fields)


def test_config_accepts_known_keys_and_free_parameter_names(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "basis": {"kind": "bspline", "mirror": False},
        "inverse": {"fixed": {"any_parameter_name": 1.0}},
    }))
    cfg = load_config(cfg_path)
    assert cfg["basis"]["mirror"] is False
    assert cfg["inverse"]["fixed"] == {"any_parameter_name": 1.0}
