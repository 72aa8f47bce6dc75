"""The benchmark's traced leaves name live library functions.

A leaf that was renamed or moved shows up in the benchmark only as a
``missing`` entry of a traced run; this reads the leaf tables instead.
"""

import importlib
import runpy
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench_run(monkeypatch):
    """The namespace of ``perfbench/run.py``, loaded without running it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    fresh = {"expected", "tracer"} - set(sys.modules)
    yield runpy.run_path(str(PERFBENCH / "run.py"))
    for name in fresh:
        sys.modules.pop(name, None)


def test_every_traced_leaf_is_a_library_function(bench_run):
    leaves = set(bench_run["LEAVES"]) | set(bench_run["_SWEEP_LEAVES"])
    assert leaves
    for leaf in sorted(leaves):
        module, _, name = leaf.partition(".")
        assert callable(getattr(importlib.import_module(f"conelines.{module}"), name, None)), leaf
