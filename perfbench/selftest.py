"""Miniature self-test of the failure accounting: injected failures are
counted in fail_ratio instead of crashing the run.

Run from the repository root (about 15 s):

    python3 perfbench/selftest.py

It sets up a small `forward` workload, runs one good operation, then
replaces the model file with unreadable bytes and with a NaN-poisoned
copy, and requires exactly those two operations to count as failed.
"""

from __future__ import annotations

import json
import os
import sys

MINIATURE = {"n_mcs": 2000, "walkers": 12, "iterations": 4}


def main() -> int:
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]
    import flow

    state = flow.set_up("forward", 1, os.path.join(root, ".perfbench", "selftest"), MINIATURE)
    model_file = state["cfg"]["forward"]["model_file"]
    with open(model_file, encoding="utf-8") as fh:
        model = json.load(fh)

    ops = [flow.operate("forward", state, True)]
    with open(model_file, "w", encoding="utf-8") as fh:
        fh.write("\x00 not a model file")
    ops.append(flow.operate("forward", state, True))
    model["reducer"]["mean_curve"][0] = float("nan")
    with open(model_file, "w", encoding="utf-8") as fh:
        json.dump(model, fh)
    ops.append(flow.operate("forward", state, True))

    failed = [bool(op["problems"]) for op in ops]
    fail_ratio = sum(failed) / len(ops)
    for label, op in zip(("good model", "unreadable model", "NaN in model"), ops):
        print(f"{label}: problems={op['problems']}")
    print(f"fail_ratio = {fail_ratio:.4f}")
    if failed != [False, True, True]:
        print("SELFTEST FAILED: expected only the two injected failures to count", file=sys.stderr)
        return 1
    print("SELFTEST PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
