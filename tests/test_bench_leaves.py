"""The benchmark's traced leaves name live library functions, and its
cache clearing reaches the tables kept on the lattices.

A leaf that was renamed or moved shows up in the benchmark only as a
``missing`` entry of a traced run; this reads the leaf tables instead.
A table the tracer cannot clear makes a traced pass warm, so that it
records no calls of the leaves the table's builder calls.
"""

import importlib
import runpy
import sys
from pathlib import Path

import pytest

from conelines import tritangents
from conelines.lattices import SexticType

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


def test_the_tracer_clears_the_lattice_tables(bench_run, monkeypatch):
    tracer = sys.modules["tracer"]
    caches = tracer.find_caches()
    assert "lattices.build_lattice" in caches
    sextic = SexticType.from_key("1|0")
    census = tritangents.enumerate_tritangents(sextic)
    calls = []
    classify = tritangents.classify_root
    monkeypatch.setattr(tritangents, "classify_root", lambda *args: calls.append(args) or classify(*args))
    assert tritangents.enumerate_tritangents(sextic) == census and calls == []
    ledger = tracer.CacheLedger(caches)
    ledger.clear()
    assert ledger.misses["lattices.build_lattice"] > 0
    assert tritangents.enumerate_tritangents(sextic) == census and len(calls) == len(census)
