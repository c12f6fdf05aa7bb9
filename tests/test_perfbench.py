"""The benchmark under perfbench/ reaches into the package by name: its
traced run swaps module attributes for timed wrappers, and its workloads
write a config for the CLI.  Removing such an attribute or rejecting such a
config key breaks every benchmark run, so these tests import the benchmark's
modules, without running them, and check both."""

import json
import pathlib
import sys

import pytest

from funcuq.cli import load_config

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's flow and traced modules; traced imports flow by its
    bare name, as perfbench/run.py puts the directory on the path.  No
    bytecode is written under perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import flow
        import traced
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write_bytecode
    return flow, traced


def test_traced_targets_exist(perfbench):
    _, traced = perfbench
    missing = [name for owner, attr, name in traced.TARGETS if not hasattr(owner, attr)]
    assert missing == []


def test_workload_configs_pass_load_config(perfbench, tmp_path):
    flow, _ = perfbench
    for workload in flow.WORKLOADS:
        cfg = flow.build_config(workload, 1, str(tmp_path), flow.SIZES[workload])
        path = tmp_path / f"{workload}.json"
        path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        loaded = load_config(path)
        for section, value in cfg.items():
            if isinstance(value, dict):
                assert {key: loaded[section][key] for key in value} == value, section
            else:
                assert loaded[section] == value, section
