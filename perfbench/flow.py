"""Workloads of the README flow: their configs, their set-up, one CLI
operation, and the checks that decide whether an operation failed.

Inputs derive from the workload seed: the CLI master seed of `forward`
and `inverse` is the workload seed itself (the CLI draws the Monte Carlo
samples and the sampler from it), and the benchmark's own inputs (test
curves, exact reference, observation noise) use labelled sub-seeds of it.
Every `fit`, and so the training data, the Kriging starts and the model that
`forward` and `inverse` read, and the true input behind the observations
come from SCENARIO_SEED instead.  Their cost depends on the data: m is 12 or
13, and a fit on seeds 1-5, run interleaved, took from 3.4 to 4.1 s (median
of three each).  With a model and a truth per seed, the operation times over
ten seeds spread by 18% (`forward`) and 25% (`inverse`), as interquartile
range over median.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time

import numpy as np

from funcuq import bench, cli, uq
from funcuq.core import derive_seed, make_rng, model_nrmse
from funcuq.surrogate import load_surrogate

WORKLOADS = ("fit", "forward", "inverse")

# The acceptance-study Kriging budget, not the README's 10 starts x 400
# evaluations: the simplex always spends all 120 evaluations, so a fit
# (~3.5 s, both searches timed) costs the same on the same data, while the
# README search stops early by a data-dependent amount and its ~25 s fits
# spread by 13% over ten seeds.  Prediction cost depends only on N, p, m and n_t.
SEARCH = {"n_starts": 3, "budget": 120}

# Per-workload sizes.  Each workload times one command at full size; in a
# traced run the other two commands run at these probe sizes so that every
# layer reports a number.  `inverse` uses 20 iterations instead of the
# README's 300: operations of about 2 s let the yardstick, timed between
# them, follow the host's speed closely (see yardstick.py).
SIZES = {
    "fit": {"n_mcs": 4096, "walkers": 20, "iterations": 20},
    "forward": {"n_mcs": 100_000, "walkers": 20, "iterations": 20},
    "inverse": {"n_mcs": 4096, "walkers": 100, "iterations": 20},
}

DISTRIBUTIONS = [
    {"name": "alpha", "dist": "normal", "mean": 1.0, "std": 0.05},
    {"name": "beta", "dist": "normal", "mean": 2.0, "std": 0.1},
    {"name": "c", "dist": "normal", "mean": 1.0, "std": 0.05},
    {"name": "y0", "dist": "normal", "mean": -5e-5, "std": 5e-6},
]
PRIORS = [
    {"name": "alpha", "dist": "uniform", "lower": 0.6, "upper": 1.4},
    {"name": "beta", "dist": "uniform", "lower": 1.5, "upper": 2.5},
    {"name": "c", "dist": "uniform", "lower": 0.6, "upper": 1.4},
    {"name": "y0", "dist": "uniform", "lower": -1e-4, "upper": 0.0},
]
SIGMA_PRIOR = {"lower": 1e-7, "upper": 1e-3}

N_TEST = 1000
N_REFERENCE = 1000
N_OBSERVATIONS = 2
OBSERVATION_NOISE = 1e-5
SETUP_REPEATS = 3
SCENARIO_SEED = 1

# Fixed accuracy limits; an operation past its limit counts as failed.
# Seeds 1-10 on the unchanged code give fit_nrmse 0.053-0.054, forward_err
# 0.110-0.116 and inverse_err 0.039-0.069.
LIMITS = {"fit": 0.1, "forward": 0.2, "inverse": 0.25}
ACCURACY_NAMES = {"fit": "fit_nrmse", "forward": "forward_err", "inverse": "inverse_err"}

OUTPUTS = {
    "fit": ("model.json",),
    "forward": ("mean_std.csv", "extremes_kde.csv"),
    "inverse": ("posterior_draws.csv", "posterior_summary.csv"),
}


def build_config(workload: str, seed: int, work: str, sizes: dict) -> dict:
    model_file = os.path.join(work, "fit", "model.json")
    return {
        "model": "duffing",
        "seed": seed,
        "dataset": {"n_train": 100, "noise_std": 0.0},
        "basis": {"kind": "bspline", "n_b0": 45, "order": 4},
        "smoothing": {"n_tau": 25, "delta_r": 0.05, "tau_override": None},
        "kriging": {**SEARCH, "fix_nugget": None},
        "surrogate": {"reducer": "kfdr-b"},
        "forward": {
            "model_file": model_file,
            "n_mcs": sizes["n_mcs"],
            "kde_points": 512,
            "distributions": DISTRIBUTIONS,
        },
        "inverse": {
            "model_file": model_file,
            "observations": os.path.join(work, "obs.csv"),
            "priors": PRIORS,
            "sigma_prior": SIGMA_PRIOR,
            "walkers": sizes["walkers"],
            "iterations": sizes["iterations"],
            "burn_in": 0.5,
        },
    }


def input_distribution() -> uq.InputDistribution:
    return uq.InputDistribution([uq.Normal(d["mean"], d["std"]) for d in DISTRIBUTIONS])


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(command: str, state: dict, out: str):
    """One in-process CLI call into the fresh output directory `out`; `fit`
    runs on SCENARIO_SEED instead of the config's master seed.

    Returns (wall seconds, exit code, captured output)."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [command, "--config", state["cfg_path"], "--out", out]
    if command == "fit":
        argv += ["--seed", str(SCENARIO_SEED)]
    log = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            print(f"{type(exc).__name__}: {exc}")
            rc = -1
    return time.perf_counter() - t0, rc, log.getvalue()


def set_up(workload: str, seed: int, work: str, sizes: dict | None = None) -> dict:
    """Write the config and the observations, and build what the workload's
    checks compare against: test curves (`fit`), or the model file plus an
    exact Monte Carlo reference (`forward`) or the truth (`inverse`).
    `sizes` defaults to the workload's entry in SIZES."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg = build_config(workload, seed, work, sizes or SIZES[workload])
    state = {
        "work": work,
        "cfg": cfg,
        "cfg_path": os.path.join(work, "config.json"),
    }
    with open(state["cfg_path"], "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)

    truth = input_distribution().sample(make_rng(derive_seed(SCENARIO_SEED, "perfbench/truth")), 1)[0]
    curve = bench.duffing_batch(truth[None, :], bench.DUFFING_GRID)[0]
    noise = make_rng(derive_seed(seed, "perfbench/observations")).normal(
        0.0, OBSERVATION_NOISE, (N_OBSERVATIONS, curve.size)
    )
    uq.save_observations(cfg["inverse"]["observations"], bench.DUFFING_GRID.nodes, curve + noise)
    state["truth"] = truth

    if workload == "fit":
        state["test"] = bench.generate_dataset(
            "duffing", N_TEST, make_rng(derive_seed(seed, "perfbench/test"))
        )
        return state
    wall, rc, log = run_cli("fit", state, os.path.join(work, "fit"))
    if rc != 0:
        raise RuntimeError(f"set-up fit failed with exit code {rc}: {log.strip()}")
    state["fit_wall"] = wall
    state["setup_digest"] = sha256(cfg["forward"]["model_file"])
    if workload == "forward":
        X = input_distribution().sample(
            make_rng(derive_seed(seed, "perfbench/reference")), N_REFERENCE
        )
        Y = bench.duffing_batch(X, bench.DUFFING_GRID)
        state["reference"] = (Y.mean(axis=0), Y.std(axis=0))
    return state


def _finite_json(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return True


def _table(path) -> np.ndarray:
    """Numeric CSV rows below the header; a table without rows is an error."""
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    if not rows:
        raise ValueError(f"{os.path.basename(path)} has no rows")
    return np.loadtxt(rows, delimiter=",", ndmin=2)


def _summary(path) -> dict:
    """posterior_summary.csv as {variable: (mean, ci_low, ci_high)}."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh.readlines()[1:]]
    return {row[0]: tuple(float(v) for v in row[1:]) for row in rows}


def _rel_rms(a, b) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)) / (b.max() - b.min()))


def _accuracy(command: str, out: str, state: dict) -> float:
    if command == "fit":
        sur = load_surrogate(os.path.join(out, "model.json"))
        test = state["test"]
        return model_nrmse(test.responses, sur.predict_mean_curves(test.inputs))
    if command == "forward":
        table = _table(os.path.join(out, "mean_std.csv"))
        ref_mean, ref_std = state["reference"]
        return max(_rel_rms(table[:, 1], ref_mean), _rel_rms(table[:, 2], ref_std))
    summary = _summary(os.path.join(out, "posterior_summary.csv"))
    errors = [
        abs(summary[p["name"]][0] - state["truth"][j]) / (p["upper"] - p["lower"])
        for j, p in enumerate(PRIORS)
    ]
    return float(np.mean(errors))


def check(command: str, state: dict, out: str, rc: int, log: str, with_accuracy: bool):
    """Digests, accuracy and the list of problems of one CLI operation
    that wrote to `out`."""
    digests, accuracy, problems = {}, None, []
    if rc != 0:
        problems.append(f"exit code {rc}: {log.strip()[-300:]}")
    for name in OUTPUTS[command]:
        path = os.path.join(out, name)
        if os.path.isfile(path):
            digests[name] = sha256(path)
        else:
            problems.append(f"missing output {name}")
    if problems:
        return digests, accuracy, problems
    try:
        for name in OUTPUTS[command]:
            path = os.path.join(out, name)
            if name.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    finite = _finite_json(json.load(fh))
            elif name == "posterior_summary.csv":
                finite = np.all(np.isfinite(list(_summary(path).values())))
            else:
                finite = np.all(np.isfinite(_table(path)))
            if not finite:
                problems.append(f"non-finite value in {name}")
        if with_accuracy and not problems:
            accuracy = _accuracy(command, out, state)
            if not accuracy <= LIMITS[command]:
                problems.append(
                    f"{ACCURACY_NAMES[command]} {accuracy:.4g} is past its limit {LIMITS[command]}"
                )
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return digests, accuracy, problems


def operate(command: str, state: dict, with_accuracy: bool, reference_digests=None,
            out: str | None = None) -> dict:
    """Run one CLI operation and check it; digests that differ from a same-seed
    earlier operation count as a problem.  `out` defaults to the command's
    directory in the work tree, which `forward` and `inverse` read the model from."""
    out = out or os.path.join(state["work"], command)
    wall, rc, log = run_cli(command, state, out)
    digests, accuracy, problems = check(command, state, out, rc, log, with_accuracy)
    if reference_digests is not None and not problems and digests != reference_digests:
        problems.append("outputs differ from an earlier operation with the same seed")
    return {
        "command": command,
        "wall_s": wall,
        "exit_code": rc,
        "digests": digests,
        ACCURACY_NAMES[command]: accuracy,
        "problems": problems,
        "log": log.strip()[-300:],
    }
