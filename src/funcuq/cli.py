"""Config-driven command line: dataset generation, surrogate fitting,
error-vs-training-size studies, forward Monte Carlo UQ, and Bayesian
inverse UQ, all emitting plot-ready CSV tables.

Every command is a deterministic function of (config, seed): a master seed
fans out to named sub-seeds, and floats are printed with 10 significant
digits, so reruns reproduce output files byte for byte.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from . import bench, uq
from .core import (
    ResponseEnsemble,
    check_nodes,
    derive_seed,
    json_field,
    load_ensemble,
    make_rng,
    model_nrmse,
    one_blas_thread,
    read_table,
    save_ensemble,
    write_atomic,
    write_table,
)
from .surrogate import (
    FitConfig,
    LatentSurrogate,
    fit_surrogate,
    load_surrogate,
    save_surrogate,
)

DEFAULT_CONFIG = {
    "model": None,
    "seed": 0,
    "out_dir": ".",
    "dataset": {
        "inputs": None,
        "responses": None,
        "n_train": 100,
        "noise_std": 0.0,
        "substeps": bench.DEFAULT_SUBSTEPS,
    },
    "basis": {"kind": "bspline", "n_b0": None, "order": 4, "mirror": None},
    "smoothing": {"n_tau": 25, "delta_r": 0.05, "tau_override": None},
    "kriging": {"n_starts": 10, "budget": 400, "fix_nugget": None},
    "surrogate": {"reducer": "kfdr-b"},
    "study": {
        "train_sizes": [100],
        "repetitions": 10,
        "test_size": 1000,
        "noise_std": 0.0,
        "methods": ["kfdr-f", "kfdr-b", "pca"],
    },
    "forward": {
        "model_file": None,
        "use_exact_model": False,
        "distributions": [],
        "n_mcs": 100_000,
        "kde_points": 512,
    },
    "inverse": {
        "model_file": None,
        "use_exact_model": False,
        "observations": None,
        "priors": [],
        "sigma_prior": None,
        "fixed": {},
        "walkers": 100,
        "iterations": 300,
        "burn_in": 0.5,
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path=None) -> dict:
    """The defaults, overridden by the JSON config at path.  A top level
    that is not an object, an unknown section or section key (keys below
    that level, e.g. inverse.fixed's parameter names, are not checked), a
    section that is not an object, a non-boolean basis.mirror, a count of
    forward or inverse that is not a nonnegative integer and a non-finite
    inverse.burn_in fail, naming the file and the key."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    with open(path, "r", encoding="utf-8") as fh:
        user = json.load(fh)
    if not isinstance(user, dict):
        raise ValueError(f"config {path}: the top level must be a JSON object, got {user!r}")
    unknown = set(user) - set(DEFAULT_CONFIG)
    if unknown:
        raise ValueError(f"config {path}: unknown sections {sorted(unknown)}")
    for section in user:
        if not isinstance(DEFAULT_CONFIG[section], dict):
            continue
        for key in json_field(user, f"config {path}", "", section, dict):
            if key not in DEFAULT_CONFIG[section]:
                raise ValueError(f"config {path}: unknown key {section}.{key}")
    mirror = user.get("basis", {}).get("mirror")
    if mirror is not None and not isinstance(mirror, bool):
        raise ValueError(f"config {path}: basis.mirror must be true, false or null, got {mirror!r}")
    cfg = _merge(DEFAULT_CONFIG, user)
    for section, key, kind in (("forward", "n_mcs", int), ("forward", "kde_points", int),
                               ("inverse", "walkers", int), ("inverse", "iterations", int),
                               ("inverse", "burn_in", float)):
        json_field(cfg[section], f"config {path}", section, key, kind, shape=None)
    return cfg


def _fit_config(cfg: dict) -> FitConfig:
    """FitConfig's fields are the keys of the fit sections; basis.kind is not read."""
    return FitConfig(**{key: value for section in ("basis", "smoothing", "kriging", "surrogate")
                        for key, value in cfg[section].items() if key != "kind"})


def _load_training_data(cfg: dict, seed: int, sample: bool = False) -> ResponseEnsemble:
    """The dataset files if both are given and `sample` is not set, else
    the config's model sampled under the data/train seed (what `generate`
    writes)."""
    ds = cfg["dataset"]
    if ds["inputs"] and ds["responses"] and not sample:
        return load_ensemble(ds["responses"], ds["inputs"])
    if cfg["model"] is None:
        raise ValueError("config needs either dataset paths or a model name")
    return bench.generate_dataset(
        cfg["model"],
        ds["n_train"],
        make_rng(derive_seed(seed, "data/train")),
        noise_std=ds["noise_std"],
        substeps=ds["substeps"],
    )


_DIST_KINDS = {"normal": uq.Normal, "lognormal": uq.Lognormal, "uniform": uq.Uniform}


def _build_marginal(path, key: str, entry, kinds=tuple(_DIST_KINDS)):
    """The marginal of config entry `key`, of its "dist" kind, one of
    `kinds`; a missing "dist" means the only kind when there is one.  A
    missing, non-numeric or non-finite parameter, a kind not in `kinds`
    and a value the distribution rejects fail, naming the config file and
    the key."""
    if not isinstance(entry, dict):
        raise ValueError(f"config {path}: {key} must be an object, got {entry!r}")
    kind = entry.get("dist", kinds[0] if len(kinds) == 1 else None)
    if kind not in kinds:
        raise ValueError(f"config {path}: {key}.dist must be one of {sorted(kinds)}, got {kind!r}")
    params = [json_field(entry, f"config {path}", key, name, shape=None)
              for name in (("lower", "upper") if kind == "uniform" else ("mean", "std"))]
    try:
        return _DIST_KINDS[kind](*params)
    except ValueError as err:
        raise ValueError(f"config {path}: {key}: {err}") from None


def _check_names(given, expected, what: str) -> None:
    if list(given) != list(expected):
        raise ValueError(
            f"{what} names {list(given)} do not match model parameters {list(expected)}"
        )


def _forward_model(cfg: dict, section: str):
    """Return (model, grid, param_names) for forward/inverse runs."""
    sec = cfg[section]
    if sec["use_exact_model"]:
        model_name = cfg["model"]
        if model_name not in bench.MODEL_GRIDS:
            raise ValueError("use_exact_model requires a known model name")
        grid = bench.MODEL_GRIDS[model_name]
        hook = functools.partial(bench.MODEL_SOLVERS[model_name], grid=grid,
                                 substeps=cfg["dataset"]["substeps"])
        return hook, grid, bench.MODEL_NAMES[model_name]
    path = sec["model_file"]
    if not path:
        raise ValueError(f"{section} needs model_file or use_exact_model")
    sur = load_surrogate(path)
    names = tuple(sur.metadata.get("input_names", ()))
    return sur, sur.grid, names


# ---------------------------------------------------------------------------
# Commands


def cmd_generate(args) -> int:
    cfg, seed, out_dir = args.cfg, args.seed, args.out
    ds = cfg["dataset"]
    cfg["model"] = args.model or cfg["model"]
    if cfg["model"] is None:
        raise ValueError("generate needs --model or a model in the config")
    for key, value in (("n_train", args.n), ("noise_std", args.noise)):
        if value is not None:
            ds[key] = value
    ens = _load_training_data(cfg, seed, sample=True)
    os.makedirs(out_dir, exist_ok=True)
    save_ensemble(
        ens,
        os.path.join(out_dir, "responses.csv"),
        os.path.join(out_dir, "inputs.csv"),
    )
    print(f"wrote {ds['n_train']} {cfg['model']} samples to {out_dir}")
    return 0


def _fit_report(sur: LatentSurrogate, seed: int, blas_pinned: bool, elapsed: float) -> dict:
    reducer = sur.reducer
    report = {
        "blas_pinned": blas_pinned,
        "reducer": sur.metadata.get("reducer"),
        "n_train": sur.metadata.get("n_train"),
        "seed": seed,
        "m": reducer.m,
        "variance_fraction": reducer.variance_fraction,
        "eigenvalues": np.asarray(reducer.eigenvalues[: max(reducer.m, 1)]).tolist(),
        "kriging": [
            {
                "mu": mod.mu,
                "sigma_z2": mod.sigma_z2,
                "theta": mod.theta.tolist(),
                "sigma_n2": mod.sigma_n2,
                **mod.search,
            }
            for mod in sur.models
        ],
        "timing_s": elapsed,
    }
    if reducer.basis is not None:
        report["n_b"] = reducer.basis.n_b
        report["tau"] = reducer.tau
        report["basis_kind"] = reducer.basis.kind
    return report


def cmd_fit(args) -> int:
    cfg, seed, out_dir = args.cfg, args.seed, args.out
    ens = _load_training_data(cfg, seed)
    t0 = time.perf_counter()
    # fit_surrogate pins BLAS itself; the pin here only reports whether it held.
    with one_blas_thread() as blas_pinned:
        sur = fit_surrogate(ens, _fit_config(cfg), make_rng(derive_seed(seed, "fit")))
    elapsed = time.perf_counter() - t0
    os.makedirs(out_dir, exist_ok=True)
    save_surrogate(sur, os.path.join(out_dir, "model.json"))
    report = _fit_report(sur, seed, blas_pinned, elapsed)
    write_atomic(
        os.path.join(out_dir, "fit_report.json"),
        [json.dumps(report, sort_keys=True, indent=2)],
    )
    print(f"fitted {report['reducer']} surrogate: m={report['m']}"
          + (f", n_b={report['n_b']}, tau={report['tau']:g}" if "n_b" in report else ""))
    return 0


def cmd_predict(args) -> int:
    cfg, out_dir = args.cfg, args.out
    model_path = args.model_file or cfg["forward"]["model_file"]
    inputs_path = args.inputs
    if not model_path or not inputs_path:
        raise ValueError("predict needs --model-file and --inputs")
    sur = load_surrogate(model_path)
    _, X = read_table("inputs", inputs_path)
    if X.shape[1] != sur.input_lo.size:
        raise ValueError(
            f"inputs file {inputs_path}: {X.shape[1]} columns, the model has "
            f"{sur.input_lo.size} inputs"
        )
    # A BLAS call split over threads changes the predictions' last bits.
    with one_blas_thread():
        means, var = sur.predict_curves(X)
    os.makedirs(out_dir, exist_ok=True)
    for name, table in (("predictions.csv", means), ("predictions_std.csv", np.sqrt(var))):
        write_table(os.path.join(out_dir, name), sur.grid.nodes, table)
    print(f"wrote predictions for {X.shape[0]} inputs to {out_dir}")
    return 0


def cmd_study(args) -> int:
    cfg, seed, out_dir = args.cfg, args.seed, args.out
    if cfg["model"] is None:
        raise ValueError("study needs a model in the config")
    st = cfg["study"]
    substeps = cfg["dataset"]["substeps"]

    test = bench.generate_dataset(
        cfg["model"], st["test_size"], make_rng(derive_seed(seed, "study/test")),
        substeps=substeps,
    )
    base = _fit_config(cfg)
    rows = []
    for n_train in st["train_sizes"]:
        for rep in range(st["repetitions"]):
            train = bench.generate_dataset(
                cfg["model"],
                n_train,
                make_rng(derive_seed(seed, f"study/train/n{n_train}/rep{rep}")),
                noise_std=st["noise_std"],
                substeps=substeps,
            )
            # Identical training data and fit seed for every method within
            # a repetition, so method comparisons share all randomness.
            fit_seed = derive_seed(seed, f"study/fit/n{n_train}/rep{rep}")
            for method in st["methods"]:
                fit_cfg = dataclasses.replace(base, reducer=method)
                sur = fit_surrogate(train, fit_cfg, make_rng(fit_seed))
                err = model_nrmse(
                    test.responses, sur.predict_mean_curves(test.inputs)
                )
                # str(): FLOAT_FMT would print an integer of 11 or more digits in e-notation.
                rows.append([method, str(n_train), str(rep), err])
    os.makedirs(out_dir, exist_ok=True)
    write_table(os.path.join(out_dir, "study.csv"), ["method", "n_train", "repetition", "nrmse"],
                rows)
    print(f"wrote {len(rows)} study rows to {out_dir}/study.csv")
    return 0


def cmd_forward(args) -> int:
    cfg, seed, out_dir = args.cfg, args.seed, args.out
    fw = cfg["forward"]
    model, grid, names = _forward_model(cfg, "forward")
    entries = fw["distributions"]
    if not entries:
        raise ValueError("forward needs input distributions")
    dist = uq.InputDistribution([
        _build_marginal(args.config, f"forward.distributions[{j}]", e)
        for j, e in enumerate(entries)
    ])
    if names:
        _check_names([e.get("name") for e in entries], names, "distribution")
    X = dist.sample(make_rng(derive_seed(seed, "forward/mcs")), fw["n_mcs"])
    report = {"n_mcs": X.shape[0], "n_outside": None, "n_outside_by_input": None}
    if not fw["use_exact_model"]:
        # Samples with any input, and per input the samples with that
        # input, outside the surrogate's training box.
        outside = (X < model.input_lo) | (X > model.input_hi)
        report["n_outside"] = int(np.count_nonzero(outside.any(axis=1)))
        report["n_outside_by_input"] = {
            entry.get("name", f"x{j}"): int(count)
            for j, (entry, count) in enumerate(zip(entries, outside.sum(axis=0)))
        }
    result = uq.forward_uq(model, X, kde_points=fw["kde_points"])
    os.makedirs(out_dir, exist_ok=True)
    write_table(os.path.join(out_dir, "mean_std.csv"), ["t", "mean", "std"],
                zip(grid.nodes, result.mean, result.std))
    write_table(os.path.join(out_dir, "extremes_kde.csv"), ["value", "pdf_max", "pdf_min"],
                zip(result.kde_grid, result.kde_max, result.kde_min))
    write_atomic(
        os.path.join(out_dir, "forward_report.json"),
        [json.dumps(report, sort_keys=True, indent=2)],
    )
    n_outside = report["n_outside"]
    where = "" if n_outside is None else f" ({n_outside} outside the training box)"
    print(f"forward UQ with {result.n_mcs} samples{where} written to {out_dir}")
    return 0


def _calibration_model(model, names, fixed: dict, calibrated):
    """Batched model over the calibrated inputs: each (n, len(calibrated))
    block is widened to the model's full input order, with the fixed
    parameters filled in."""
    order = {n: i for i, n in enumerate(names)}
    full = np.zeros(len(names))
    for name, value in fixed.items():
        if name not in order:
            raise ValueError(f"fixed parameter {name!r} unknown to the model")
        full[order[name]] = value
    cal_idx = np.array([order[n] for n in calibrated], dtype=int)

    def block_model(X):
        block = np.tile(full, (X.shape[0], 1))
        block[:, cal_idx] = X
        return model(block)

    return block_model


def cmd_inverse(args) -> int:
    cfg, seed, out_dir = args.cfg, args.seed, args.out
    inv = cfg["inverse"]
    model, grid, names = _forward_model(cfg, "inverse")
    if not inv["observations"]:
        raise ValueError("inverse needs an observations file")
    times, observations = uq.load_observations(inv["observations"])
    check_nodes(f"observations file {inv['observations']}", times, grid, "model grid")

    entries = inv["priors"]
    if not entries:
        raise ValueError("inverse needs calibration priors")
    priors = [
        _build_marginal(args.config, f"inverse.priors[{j}]", e) for j, e in enumerate(entries)
    ]
    fixed = dict(inv["fixed"] or {})
    calibrated = [e.get("name") for e in entries]
    if names:
        _check_names(calibrated, [n for n in names if n not in fixed], "prior")
        model = _calibration_model(model, names, fixed, calibrated)

    if not inv["sigma_prior"]:
        raise ValueError("inverse needs a sigma_prior range")
    sigma_prior = _build_marginal(args.config, "inverse.sigma_prior", inv["sigma_prior"],
                                  ("uniform",))

    def logpost(thetas):
        return uq.log_posterior_block(model, priors, sigma_prior, observations, thetas)

    samples = uq.ensemble_mcmc(
        logpost,
        priors + [sigma_prior],
        walkers=inv["walkers"],
        iterations=inv["iterations"],
        burn_in=inv["burn_in"],
        rng=make_rng(derive_seed(seed, "inverse/mcmc")),
        names=calibrated + ["sigma"],
    )
    summary = uq.posterior_summary(samples)
    os.makedirs(out_dir, exist_ok=True)
    write_table(os.path.join(out_dir, "posterior_draws.csv"), samples.names, samples.draws)
    write_table(os.path.join(out_dir, "posterior_summary.csv"),
                ["variable", "mean", "ci_low", "ci_high"],
                [[s["name"], s["mean"], s["ci_low"], s["ci_high"]] for s in summary])
    print(f"acceptance rate: {samples.acceptance_rate:.4f}")
    print(f"posterior tables written to {out_dir}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "study": cmd_study,
    "forward": cmd_forward,
    "inverse": cmd_inverse,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcuq",
        description="Latent-space Kriging surrogates and UQ for time-variant responses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "sample a benchmark dataset to inputs.csv/responses.csv"),
        ("fit", "fit a surrogate and write model.json + fit_report.json"),
        ("predict", "predict curves for an inputs CSV with a fitted model"),
        ("study", "error-vs-training-size table across methods"),
        ("forward", "Monte Carlo forward UQ through a model"),
        ("inverse", "Bayesian calibration from observed curves"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="JSON config file")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        cmd.add_argument("--out", default=None, help="output directory override")
        if name == "generate":
            cmd.add_argument("--model", choices=sorted(bench.MODEL_GRIDS))
            cmd.add_argument("--n", type=int, default=None)
            cmd.add_argument("--noise", type=float, default=None)
        if name == "predict":
            cmd.add_argument("--model-file", dest="model_file", default=None)
            cmd.add_argument("--inputs", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Resolve the config and the --seed/--out overrides once for every command.
        args.cfg = load_config(args.config)
        args.seed = args.cfg["seed"] if args.seed is None else args.seed
        args.out = args.out or args.cfg["out_dir"]
        return COMMANDS[args.command](args)
    except Exception as exc:  # surface module provenance, fail nonzero
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
