"""Traced run of the README flow: each CLI command is called once more
through `funcuq.cli.main`, with spans around the library functions it calls.

For the length of one call, the module attributes the CLI reaches through
are swapped for timed wrappers, so every span times the code the CLI runs:
`bench`, `smoothing`, `fpca`, `kriging`, `surrogate`, `uq`, and `cli` (the
command's own glue: its span minus its library child spans).  A few
single-layer probes on the written model (`basis`, one log marginal
likelihood, batched and one-row prediction) time what no span isolates.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import numpy as np

from funcuq import basis, bench, cli, fpca, kriging, smoothing, surrogate, uq
from funcuq.core import make_rng
from funcuq.surrogate import LatentSurrogate, load_surrogate

import flow

# (owner, attribute, span name): the attributes the CLI path looks up at
# call time, so that swapping them times the real calls.
TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "fit_surrogate", "surrogate.fit_surrogate"),
    (cli, "save_surrogate", "surrogate.save_surrogate"),
    (cli, "load_surrogate", "surrogate.load_surrogate"),
    (bench, "generate_dataset", "bench.generate_dataset"),
    (fpca, "fit_reducer", "fpca.fit_reducer"),
    (fpca, "select_nb", "smoothing.select_nb"),
    (smoothing, "select_tau", "smoothing.select_tau"),
    (smoothing, "gcv", "smoothing.gcv"),
    (surrogate, "fit_kriging", "kriging.fit_kriging"),
    (LatentSurrogate, "predict_scores", "surrogate.predict_scores"),
    (LatentSurrogate, "predict_curve", "surrogate.predict_curve"),
    (uq, "forward_uq", "uq.forward_uq"),
    (uq, "kde_pdf", "uq.kde_pdf"),
    (uq, "ensemble_mcmc", "uq.ensemble_mcmc"),
    (uq, "log_posterior", "uq.log_posterior"),
)


class Spans:
    """In-memory spans [name, parent index, start, end], and the last
    value each span name returned."""

    def __init__(self):
        self.spans = []
        self.results = {}
        self._stack = []

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), None])
            self._stack.append(index)
            try:
                self.results[name] = fn(*args, **kwargs)
                return self.results[name]
            finally:
                self._stack.pop()
                self.spans[index][3] = time.perf_counter()
        return wrapper

    def durations(self, name):
        return [end - start for n, _, start, end in self.spans if n == name]

    def total(self, name) -> float:
        return sum(self.durations(name))

    def self_time(self, name) -> float:
        """Total time of `name` spans minus the time their children cover."""
        ids = {i for i, s in enumerate(self.spans) if s[0] == name}
        children = sum(end - start for _, parent, start, end in self.spans if parent in ids)
        return self.total(name) - children

    def dump(self):
        return [[n, p, round(s, 7), round(e, 7)] for n, p, s, e in self.spans]


@contextlib.contextmanager
def traced(spans: Spans):
    """Swap every TARGETS attribute for a wrapper that records a span."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
    try:
        for owner, attr, name in TARGETS:
            setattr(owner, attr, spans.wrap(name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _per_call(fn, calls: int, repeats: int = 3) -> float:
    """Median over repeats of the mean seconds per call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def ess_min(samples) -> float:
    """Smallest effective sample size over parameters, from the integrated
    autocorrelation time with Sokal's automated window (c = 5), computed on
    the walker-summed autocorrelation as in emcee."""
    d = samples.draws.shape[1]
    chain = samples.draws.reshape(-1, samples.walkers, d)
    n = chain.shape[0]
    ess = []
    for j in range(d):
        x = chain[:, :, j] - chain[:, :, j].mean(axis=0)
        f = np.fft.rfft(x, n=2 * n, axis=0)
        acf = np.fft.irfft(f * np.conj(f), axis=0)[:n].sum(axis=1)
        if acf[0] <= 0.0:
            ess.append(float(samples.walkers))
            continue
        taus = 2.0 * np.cumsum(acf / acf[0]) - 1.0
        inside = np.arange(n) < 5.0 * taus
        tau = taus[np.argmin(inside)] if not inside.all() else taus[-1]
        ess.append(n * samples.walkers / max(tau, 1.0))
    return float(min(ess))


def probes(sur) -> dict:
    """Single-layer timings on the CLI's model, outside any command."""
    system, nodes = sur.reducer.basis, sur.grid.nodes
    mod = sur.models[0]
    X = flow.input_distribution().sample(make_rng(0), 4096)
    x0 = X[0]
    return {
        "basis.matrices_s": _per_call(
            lambda: (basis.design_matrix(system, nodes), basis.roughness_matrix(system),
                     basis.gram_matrix(system)), 1),
        "kriging.lml_s": _per_call(lambda: kriging.log_marginal_likelihood(
            mod.X_norm, mod.y_std, mod.mu, mod.sigma_z2, mod.theta, mod.sigma_n2), 100),
        "surrogate.predict_batch_s": _per_call(lambda: sur.predict_mean_curves(X), 1) / X.shape[0],
        "surrogate.predict_curve_s": _per_call(lambda: sur.predict_curve(x0), 200),
        "surrogate.predict_mean_s": _per_call(lambda: sur.predict_mean_curves(x0[None, :]), 200),
    }


def run(state: dict, untraced: dict, digests: dict):
    """Run fit, forward and inverse once more through the CLI, traced.

    `untraced` maps each command to its fastest untraced wall time and `digests`
    to its output digests; a traced command whose outputs differ from
    those digests is a failed operation.  Returns (per-layer metrics,
    traced operations, span dumps)."""
    cfg, work = state["cfg"], state["work"]
    spans, ops = {}, []
    for command in flow.WORKLOADS:
        spans[command] = Spans()
        with traced(spans[command]):
            ops.append(flow.operate(
                command, state, False, digests[command],
                out=os.path.join(work, "traced", command),
            ))
    dumps = {command: s.dump() for command, s in spans.items()}
    if any(op["problems"] for op in ops):
        return {}, ops, dumps

    fit, fwd, inv = spans["fit"], spans["forward"], spans["inverse"]
    sur = load_surrogate(cfg["forward"]["model_file"])
    probe = probes(sur)
    generate_s = fit.total("bench.generate_dataset")
    kriging_fits = fit.durations("kriging.fit_kriging")
    tau_grid = smoothing.tau_grid(cfg["smoothing"]["n_tau"])
    samples = inv.results["uq.ensemble_mcmc"]
    layers = {
        "bench.generate_s": (generate_s, "s"),
        "bench.curves_per_s": (cfg["dataset"]["n_train"] / generate_s, "1/s"),
        "basis.matrices_s": (probe["basis.matrices_s"], "s"),
        "smoothing.select_nb_s": (fit.total("smoothing.select_nb"), "s"),
        "smoothing.select_tau_s": (fit.durations("smoothing.select_tau")[-1], "s"),
        "smoothing.rounds": (len(fit.durations("smoothing.select_tau")), "count"),
        "smoothing.gcv_fits": (len(fit.durations("smoothing.gcv")), "count"),
        "smoothing.tau_at_edge": (int(sur.reducer.tau in (tau_grid[0], tau_grid[-1])), "count"),
        "fpca.fit_reducer_s": (fit.self_time("fpca.fit_reducer"), "s"),
        "fpca.m": (sur.m, "count"),
        "kriging.fit_s": (sum(kriging_fits), "s"),
        "kriging.fit_model_s": (statistics.median(kriging_fits), "s"),
        "kriging.lml_us": (probe["kriging.lml_s"] * 1e6, "us"),
        "kriging.lml_evals_est": (sum(kriging_fits) / probe["kriging.lml_s"], "count"),
        "surrogate.predict_batch_us": (probe["surrogate.predict_batch_s"] * 1e6, "us"),
        "surrogate.predict_curve_us": (probe["surrogate.predict_curve_s"] * 1e6, "us"),
        "surrogate.predict_mean_us": (probe["surrogate.predict_mean_s"] * 1e6, "us"),
        "surrogate.save_s": (fit.total("surrogate.save_surrogate"), "s"),
        "surrogate.load_s": (statistics.median(
            fwd.durations("surrogate.load_surrogate") + inv.durations("surrogate.load_surrogate")), "s"),
        "surrogate.model_bytes": (os.path.getsize(cfg["forward"]["model_file"]), "bytes"),
        "uq.forward_predict_s": (fwd.total("surrogate.predict_scores"), "s"),
        "uq.kde_s": (fwd.total("uq.kde_pdf"), "s"),
        "uq.forward_self_s": (fwd.self_time("uq.forward_uq"), "s"),
        "uq.logpost_calls": (len(inv.durations("uq.log_posterior")), "count"),
        "uq.model_calls": (len(inv.durations("surrogate.predict_curve")), "count"),
        "uq.logpost_s": (inv.total("uq.log_posterior"), "s"),
        "uq.model_s": (inv.total("surrogate.predict_curve"), "s"),
        "uq.sampler_self_s": (inv.self_time("uq.ensemble_mcmc"), "s"),
        "uq.acceptance": (samples.acceptance_rate, "ratio"),
        "uq.ess_min": (ess_min(samples), "count"),
        "cli.fit_glue_s": (fit.self_time("cli.main"), "s"),
        "cli.forward_glue_s": (fwd.self_time("cli.main"), "s"),
        "cli.inverse_glue_s": (inv.self_time("cli.main"), "s"),
        "trace.overhead_s": (sum(op["wall_s"] - untraced[op["command"]] for op in ops), "s"),
    }
    metrics = {name: {"value": float(v), "unit": unit} for name, (v, unit) in layers.items()}
    return metrics, ops, dumps
