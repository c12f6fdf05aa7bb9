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
from .basis import MIN_BSPLINE_ORDER
from .core import (
    ResponseEnsemble,
    check_nodes,
    derive_seed,
    json_field,
    load_ensemble,
    make_rng,
    one_blas_thread,
    read_json,
    read_table,
    save_ensemble,
    write_atomic,
    write_table,
)
from .surrogate import (
    KFDR_B,
    REDUCERS,
    FitConfig,
    LatentSurrogate,
    fit_surrogate,
    load_surrogate,
    run_study,
    save_surrogate,
)

# Every config key: its default, its kind and, for a number, the bounds it
# must meet (e.g. ">= 2"), as load_config hands them to core.json_field: int,
# float, str, bool, dict, list, a tuple of accepted strings, [kind] for an
# array of kind or {str: kind} for an object of kind.  A key whose default is
# None also accepts null.
# The fit sections' keys are FitConfig's fields, and its defaults theirs.
SCHEMA = {
    "model": (None, tuple(sorted(bench.MODEL_GRIDS))),
    "seed": (0, int),
    "out_dir": (".", str),
    "dataset": {"inputs": (None, str), "responses": (None, str), "n_train": (100, int, ">= 1"),
                "noise_std": (0.0, float, ">= 0"),
                "substeps": (bench.DEFAULT_SUBSTEPS, int, ">= 1")},
    # basis.kind is not read: the reducer chooses the basis.  _fit_config
    # checks the B-spline order floor, which applies to the B-spline reducer.
    "basis": {"kind": ("bspline", ("bspline",)), "n_b0": (FitConfig.n_b0, int, ">= 2"),
              "order": (FitConfig.order, int, ">= 0"), "mirror": (FitConfig.mirror, bool)},
    "smoothing": {"n_tau": (FitConfig.n_tau, int, ">= 2"),
                  "delta_r": (FitConfig.delta_r, float, "> 0"),
                  "tau_override": (FitConfig.tau_override, float, ">= 0")},
    "kriging": {"n_starts": (FitConfig.n_starts, int, ">= 1"),
                "budget": (FitConfig.budget, int, ">= 1"),
                "fix_nugget": (FitConfig.fix_nugget, float, ">= 0")},
    "surrogate": {"reducer": (FitConfig.reducer, REDUCERS)},
    "study": {"train_sizes": ([100], [int], ">= 1"), "repetitions": (10, int, ">= 0"),
              "test_size": (1000, int, ">= 1"), "noise_std": (0.0, float, ">= 0"),
              "methods": (list(REDUCERS), [REDUCERS])},
    "forward": {"model_file": (None, str), "use_exact_model": (False, bool),
                "distributions": ([], [dict]), "n_mcs": (100_000, int, ">= 2"),
                "kde_points": (512, int, ">= 0")},
    # cmd_inverse checks the walker floor, uq.min_walkers(d), which depends on
    # the number of calibrated inputs.
    "inverse": {"model_file": (None, str), "use_exact_model": (False, bool),
                "observations": (None, str), "priors": ([], [dict]), "sigma_prior": (None, dict),
                "fixed": ({}, {str: float}), "walkers": (100, int, ">= 0"),
                "iterations": (300, int, ">= 2"), "burn_in": (0.5, float, ">= 0", "< 1")},
}
DEFAULT_CONFIG = {key: {k: e[0] for k, e in entry.items()} if isinstance(entry, dict) else entry[0]
                  for key, entry in SCHEMA.items()}

def load_config(path=None) -> dict:
    """The defaults, overridden by the JSON config at path.  Text that is not
    JSON, a top level or section that is not an object, and a key that is
    not in SCHEMA or not of its kind fail, naming the file and the key."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return cfg
    source = f"config {path}"
    user = read_json(source, path)
    for section, settings in user.items():
        schema = SCHEMA.get(section)
        if isinstance(schema, dict):
            json_field(user, source, "", section, dict)
            where, target = section, cfg[section]
        else:  # a top-level key, or an unknown one
            schema, where, target, settings = SCHEMA, "", cfg, {section: settings}
        for key, value in settings.items():
            if key not in schema:
                raise ValueError(f"{source}: unknown key {where + '.' if where else ''}{key}")
            default, kind, *bounds = schema[key]
            if value is not None or default is not None:
                json_field(settings, source, where, key, kind, *bounds)
            target[key] = value
    return cfg


def _fit_config(args, reducers) -> FitConfig:
    """FitConfig's fields are the keys of the fit sections; basis.kind is not
    read.  When one of `reducers` fits B-splines, a basis.order below their
    floor fails naming the config (args.source) and the key."""
    cfg = args.cfg
    if KFDR_B in reducers:
        json_field(cfg["basis"], args.source, "basis", "order", int, f">= {MIN_BSPLINE_ORDER}")
    return FitConfig(**{key: value for section in ("basis", "smoothing", "kriging", "surrogate")
                        for key, value in cfg[section].items() if key != "kind"})


def _load_training_data(args, sample: bool = False) -> ResponseEnsemble:
    """The dataset files if either is given and `sample` is not set, else
    the config's model sampled under the data/train seed (what `generate`
    writes).  One dataset path without the other, and neither the paths nor
    a model, fail naming the config (args.source) and the key."""
    cfg, ds = args.cfg, args.cfg["dataset"]
    if (ds["inputs"] or ds["responses"]) and not sample:
        missing = [key for key in ("inputs", "responses") if not ds[key]]
        if missing:
            raise ValueError(f"{args.source}: dataset.{missing[0]} is not set; the training "
                             "data needs both dataset.inputs and dataset.responses")
        return load_ensemble(ds["responses"], ds["inputs"])
    if cfg["model"] is None:
        raise ValueError(f"{args.source}: model is not set; the training data needs a model "
                         "or dataset.inputs and dataset.responses")
    return bench.generate_dataset(
        cfg["model"],
        ds["n_train"],
        make_rng(derive_seed(args.seed, "data/train")),
        noise_std=ds["noise_std"],
        substeps=ds["substeps"],
    )


_DIST_KINDS = {"normal": uq.Normal, "lognormal": uq.Lognormal, "uniform": uq.Uniform}


def _build_marginal(source: str, key: str, entry, kinds=tuple(sorted(_DIST_KINDS))):
    """The marginal of config object `key`, of its "dist" kind, one of
    `kinds`; a missing "dist" means the only kind when there is one.  A
    missing, non-numeric or non-finite parameter, a kind not in `kinds`
    and a value the distribution rejects fail, naming the config (`source`,
    as main() words it) and the key."""
    kind = json_field({"dist": entry.get("dist", kinds[0] if len(kinds) == 1 else None)},
                      source, key, "dist", kinds)
    params = [json_field(entry, source, key, name)
              for name in (("lower", "upper") if kind == "uniform" else ("mean", "std"))]
    try:
        return _DIST_KINDS[kind](*params)
    except ValueError as err:
        raise ValueError(f"{source}: {key}: {err}") from None


def _marginals(args, key: str, inputs) -> list:
    """The marginals of the config entries at `key` (forward.distributions
    or inverse.priors).  Entry j is named by its "name", or x{j + 1}; names
    that are not `inputs`, in order, fail naming the config file and the
    key."""
    section, field = key.split(".")
    entries = args.cfg[section][field]
    marginals = [_build_marginal(args.source, f"{key}[{j}]", e) for j, e in enumerate(entries)]
    names = [e.get("name", f"x{j + 1}") for j, e in enumerate(entries)]
    if names != list(inputs):
        raise ValueError(f"{args.source}: {key} names {names} do not match "
                         f"the model's inputs {list(inputs)}")
    return marginals


def _forward_model(cfg: dict, section: str, source: str):
    """Return (model, grid, input names) for forward/inverse runs.  A model
    file's input names are its metadata.input_names, or x1..xp.  Neither a
    model file nor the exact model, and the exact model without a known
    model name, fail naming the config (`source`) and the key."""
    sec = cfg[section]
    if sec["use_exact_model"]:
        model_name = cfg["model"]
        if model_name not in bench.MODEL_GRIDS:
            raise ValueError(f"{source}: model must be one of {sorted(bench.MODEL_GRIDS)} "
                             f"for {section}.use_exact_model, got {model_name!r}")
        grid = bench.MODEL_GRIDS[model_name]
        hook = functools.partial(bench.MODEL_SOLVERS[model_name], grid=grid,
                                 substeps=cfg["dataset"]["substeps"])
        return hook, grid, bench.MODEL_NAMES[model_name]
    path = sec["model_file"]
    if not path:
        raise ValueError(f"{source}: {section}.model_file is not set and "
                         f"{section}.use_exact_model is false; {section} needs one of them")
    sur = load_surrogate(path)
    names = sur.metadata.get("input_names") or [f"x{j + 1}" for j in range(sur.input_lo.size)]
    return sur, sur.grid, tuple(names)


# ---------------------------------------------------------------------------
# Commands


def cmd_generate(args) -> int:
    cfg, out_dir = args.cfg, args.out
    ds = cfg["dataset"]
    cfg["model"] = args.model or cfg["model"]
    if cfg["model"] is None:
        raise ValueError(f"{args.source}: model is not set; generate needs --model or a model")
    for key, flag, value in (("n_train", "--n", args.n), ("noise_std", "--noise", args.noise)):
        if value is not None:
            json_field({flag: value}, "command line", "", flag, *SCHEMA["dataset"][key][1:])
            ds[key] = value
    ens = _load_training_data(args, sample=True)
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
    config = _fit_config(args, [cfg["surrogate"]["reducer"]])
    ens = _load_training_data(args)
    t0 = time.perf_counter()
    sur = fit_surrogate(ens, config, make_rng(derive_seed(seed, "fit")))
    elapsed = time.perf_counter() - t0
    os.makedirs(out_dir, exist_ok=True)
    save_surrogate(sur, os.path.join(out_dir, "model.json"))
    report = _fit_report(sur, seed, args.blas_pinned, elapsed)
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
    if not model_path:
        raise ValueError(f"{args.source}: forward.model_file is not set; predict needs it "
                         "or --model-file")
    if not args.inputs:
        raise ValueError("predict needs --inputs")
    sur = load_surrogate(model_path)
    _, X = read_table("inputs", args.inputs)
    if X.shape[1] != sur.input_lo.size:
        raise ValueError(
            f"inputs file {args.inputs}: {X.shape[1]} columns, the model has "
            f"{sur.input_lo.size} inputs"
        )
    means, var = sur.predict_curves(X)
    os.makedirs(out_dir, exist_ok=True)
    for name, table in (("predictions.csv", means), ("predictions_std.csv", np.sqrt(var))):
        write_table(os.path.join(out_dir, name), sur.grid.nodes, table)
    print(f"wrote predictions for {X.shape[0]} inputs to {out_dir}")
    return 0


def cmd_study(args) -> int:
    cfg, seed, out_dir = args.cfg, args.seed, args.out
    if cfg["model"] is None:
        raise ValueError(f"{args.source}: model is not set; study needs a model")
    st = cfg["study"]
    base = _fit_config(args, st["methods"])
    configs = {method: dataclasses.replace(base, reducer=method) for method in st["methods"]}
    if len(configs) < len(st["methods"]):
        raise ValueError(f"{args.source}: study.methods names a method twice: {st['methods']}")
    records = run_study(
        cfg["model"], configs, st["train_sizes"], st["repetitions"], st["test_size"],
        st["noise_std"], cfg["dataset"]["substeps"],
        lambda stage, n, rep: derive_seed(
            seed, "study/test" if stage == "test" else f"study/{stage}/n{n}/rep{rep}"),
    )
    os.makedirs(out_dir, exist_ok=True)
    # str(): FLOAT_FMT would print an integer of 11 or more digits in e-notation.
    write_table(os.path.join(out_dir, "study.csv"), ["method", "n_train", "repetition", "nrmse"],
                [[method, str(n), str(rep), err] for method, n, rep, err in records])
    print(f"wrote {len(records)} study rows to {out_dir}/study.csv")
    return 0


def cmd_forward(args) -> int:
    cfg, seed, out_dir = args.cfg, args.seed, args.out
    fw = cfg["forward"]
    model, grid, names = _forward_model(cfg, "forward", args.source)
    dist = uq.InputDistribution(_marginals(args, "forward.distributions", names))
    X = dist.sample(make_rng(derive_seed(seed, "forward/mcs")), fw["n_mcs"])
    report = {"n_mcs": X.shape[0], "n_outside": None, "n_outside_by_input": None}
    if not fw["use_exact_model"]:
        # Samples with any input, and per input the samples with that
        # input, outside the surrogate's training box.
        outside = (X < model.input_lo) | (X > model.input_hi)
        report["n_outside"] = int(np.count_nonzero(outside.any(axis=1)))
        report["n_outside_by_input"] = dict(zip(names, map(int, outside.sum(axis=0))))
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
    source = args.source
    model, grid, names = _forward_model(cfg, "inverse", source)
    if not inv["observations"]:
        raise ValueError(f"{source}: inverse.observations is not set; inverse needs an "
                         "observations file")
    times, observations = uq.load_observations(inv["observations"])
    check_nodes(f"observations file {inv['observations']}", times, grid, "model grid")

    fixed = inv["fixed"]
    unknown = sorted(set(fixed) - set(names))
    if unknown:
        raise ValueError(f"{source}: inverse.fixed names {unknown} are not model inputs "
                         f"{list(names)}")
    calibrated = [n for n in names if n not in fixed]
    # The sampler draws the calibrated inputs and sigma.
    json_field(inv, source, "inverse", "walkers", int,
               f">= {uq.min_walkers(len(calibrated) + 1)}")
    priors = _marginals(args, "inverse.priors", calibrated)
    model = _calibration_model(model, names, fixed, calibrated)

    if not inv["sigma_prior"]:
        raise ValueError(f"{source}: inverse.sigma_prior is not set; inverse needs a "
                         "sigma_prior range")
    sigma_prior = _build_marginal(source, "inverse.sigma_prior", inv["sigma_prior"],
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every main() call can reuse it."""
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
        # How errors name the config: its path, or the defaults without --config.
        args.source = "default config" if args.config is None else f"config {args.config}"
        args.seed = args.cfg["seed"] if args.seed is None else args.seed
        args.out = args.out or args.cfg["out_dir"]
        # Every command runs with BLAS at one thread: a BLAS call split over
        # threads sums in another order and changes the outputs' last bits.
        with one_blas_thread() as args.blas_pinned:
            return COMMANDS[args.command](args)
    except Exception as exc:  # surface module provenance, fail nonzero
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
