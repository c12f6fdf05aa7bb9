"""Benchmark of the README flow: `funcuq fit`, `forward` and `inverse`.

Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

With `--trace 0` the workload's CLI command runs untraced, again and again
on the same inputs until `--seconds` have passed (at least once), and the
end-to-end metrics are printed.  With `--trace 1` the flow runs once through
the CLI untraced and once traced (traced.py), and the per-layer metrics are
printed.  The last line of standard output is the result as JSON; the line
before it is the full record (environment, every operation with its digests
and accuracy, fail_ratio), which is also written to `.perfbench/`.  See
NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fit", "forward", "inverse")
UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported.

    The flow's matrices are small (100 x 100 kernels, 401-point curves).
    On a 2-CPU host, two OpenBLAS threads made the `inverse` set-up take
    twice as long as one thread did (median of 9 set-ups: 7.9 s against
    3.9 s), and made its time vary more."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def git_sha(root: str):
    """HEAD of a git checkout, read from .git without starting git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def environment(root: str) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed, seconds, work):
    """Set up SETUP_REPEATS times, then operate until `seconds` have passed,
    with the yardstick timed before, between and after all of them.  The
    times in the metrics are wall times scaled by the yardstick."""
    import flow
    import yardstick

    sticks = [yardstick.measure()]
    setup_times, setup_digests = [], set()
    for _ in range(flow.SETUP_REPEATS):
        t0 = time.perf_counter()
        state = flow.set_up(workload, seed, work)
        setup_times.append(time.perf_counter() - t0)
        sticks.append(yardstick.measure())
        setup_digests.add(state.get("setup_digest"))
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        first = ops[0]["digests"] if ops and not ops[0]["problems"] else None
        ops.append(flow.operate(workload, state, True, first))
        sticks.append(yardstick.measure())
    walls = setup_times + [op["wall_s"] for op in ops]
    scaled = [yardstick.scaled(t, sticks[i], sticks[i + 1]) for i, t in enumerate(walls)]
    for op, value in zip(ops, scaled[len(setup_times):]):
        op["scaled_s"] = value
    problems = [] if len(setup_digests) == 1 else ["repeated set-ups wrote different model files"]
    metrics = {
        "op_s": statistics.median(scaled[len(setup_times):]),
        "setup_s": statistics.median(scaled[:len(setup_times)]),
        "peak_rss_mb": peak_rss_mb(),
    }
    record = {
        "setup_wall_s": setup_times,
        "op_wall_median_s": statistics.median(op["wall_s"] for op in ops),
        "setup_wall_median_s": statistics.median(setup_times),
        "yardstick_s": sticks,
        "setup_model_sha256": sorted(map(str, setup_digests)),
    }
    return metrics, ops, problems, record


def run_traced(workload, seed, work):
    import flow
    import traced

    state = flow.set_up(workload, seed, work)
    ops, untraced, digests = [], {}, {}
    for command in WORKLOADS:
        if command == "fit" and workload != "fit":
            # The set-up fit is this command's untraced run.
            untraced["fit"] = state["fit_wall"]
            digests["fit"] = {"model.json": state["setup_digest"]}
            continue
        ops.append(flow.operate(command, state, command == workload))
        if command == workload:  # same-seed rerun: outputs must be byte-identical
            first = ops[-1]["digests"] if not ops[-1]["problems"] else None
            ops.append(flow.operate(command, state, True, first))
        # The fastest untraced run is the one least disturbed by the host.
        untraced[command] = min(op["wall_s"] for op in ops if op["command"] == command)
        digests[command] = ops[-1]["digests"]
    if any(op["problems"] for op in ops):
        return {}, ops, ["the untraced flow failed, so there is nothing to trace"], {}
    metrics, traced_ops, spans = traced.run(state, untraced, digests)
    ops += traced_ops
    spans_file = os.path.join(work, "spans.json")
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return metrics, ops, [], {"untraced_s": untraced, "spans_file": spans_file}


def run_workload(args, root, src) -> int:
    pin_threads()
    sys.path[:0] = [src, HERE]
    import flow

    work = os.path.join(root, ".perfbench", f"{args.workload}-trace{args.trace}")
    if args.trace:
        metrics, ops, problems, extra = run_traced(args.workload, args.seed, work)
    else:
        metrics, ops, problems, extra = run_untraced(args.workload, args.seed, args.seconds, work)
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    failed = sum(1 for op in ops if op["problems"])
    accuracy = flow.ACCURACY_NAMES[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "fail_ratio": failed / len(ops),
        accuracy: next((op[accuracy] for op in ops if op.get(accuracy) is not None), None),
        "problems": problems,
        "operations": ops,
        **extra,
    }
    with open(os.path.join(root, ".perfbench", f"BENCH_{args.workload}_trace{args.trace}_seed{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak RSS is per workload.

    Prints every metric by name with its unit; for untraced runs also under
    the command's own name (`fit_s` for `op_s` on `fit`), with the accuracy
    (`fit_nrmse`, `forward_err`, `inverse_err`) and `fail_ratio`."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        results[workload] = result
        print(f"{workload}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        if not args.trace:
            print(f"  {workload}_s = {result['metrics']['op_s']['value']:.6g} s")
        for name in ("fit_nrmse", "forward_err", "inverse_err"):
            if record.get(name) is not None:
                print(f"  {name} = {record[name]:.6g} ratio")
        print(f"  fail_ratio = {record['fail_ratio']:.6g} ratio")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "funcuq", "cli.py")):
        print(f"perfbench: no funcuq sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root, src)


if __name__ == "__main__":
    sys.exit(main())
