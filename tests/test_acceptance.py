"""Acceptance gate: one test per numbered criterion, exact comparisons only.

Criteria 1-11 share a single deterministic verification run; criterion 12
drives the command-line entry point itself, including `verify --fault`.
"""

import hashlib
import subprocess
import sys

import pytest

from conelines import cli
from conelines.verify import run_all
from conftest import src_env

#: sha256 of the markdown reports of ``verify`` and ``verify --fault gram``
#: at the default seed: the reports are byte-identical from run to run.
CLEAN_REPORT_SHA256 = "7b4e249a44bc253096ed1c94818d42c59f2977ce7acd24868905ee4f109f5b67"
HURT_REPORT_SHA256 = "a6b73943a77c5d34b0c84f18351362c961f85e0007598f630cf46682d1ec0f59"


@pytest.fixture(scope="module")
def results():
    return run_all(seed=0)


def _criterion(results, number):
    family = [r for r in results if r.name.split(".")[0] == str(number)]
    assert family, f"criterion {number} produced no checks"
    failures = [r for r in family if not r.passed]
    detail = "\n".join(
        f"{r.name}: observed {r.observed}, expected {r.expected}" for r in failures
    )
    assert not failures, f"criterion {number} failed:\n{detail}"


def test_criterion_01_tritangent_census(results):
    _criterion(results, 1)


def test_criterion_02_mod2_strata(results):
    _criterion(results, 2)


def test_criterion_03_pair_census(results):
    _criterion(results, 3)


def test_criterion_04_code_census(results):
    _criterion(results, 4)


def test_criterion_05_translation_analysis(results):
    _criterion(results, 5)


def test_criterion_06_group_laws(results):
    _criterion(results, 6)


def test_criterion_07_homology_matrices(results):
    _criterion(results, 7)


def test_criterion_08_unipotent_action(results):
    _criterion(results, 8)


def test_criterion_09_realizability_sweeps(results):
    _criterion(results, 9)


def test_criterion_10_conic_pencil_count(results):
    _criterion(results, 10)


def test_criterion_11_line_class_counts(results):
    _criterion(results, 11)


def test_criterion_12_cli_self_check(tmp_path, capsys):
    assert cli.main(["verify", "--out", str(tmp_path / "clean.md")]) == 0
    assert cli.main(["verify", "--fault", "gram", "--out", str(tmp_path / "hurt.md")]) == 1
    # the fault hook must leave no state behind for the next run
    assert cli.main(["verify", "--out", str(tmp_path / "after.md")]) == 0
    capsys.readouterr()
    clean = (tmp_path / "clean.md").read_text(encoding="utf-8")
    hurt = (tmp_path / "hurt.md").read_text(encoding="utf-8")
    after = (tmp_path / "after.md").read_text(encoding="utf-8")
    assert "FAIL" not in clean
    assert "| FAIL |" in hurt
    assert "FAIL" not in after
    for name, sha256 in (("clean.md", CLEAN_REPORT_SHA256), ("hurt.md", HURT_REPORT_SHA256)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha256, name


def test_verify_runs_without_numpy():
    # numpy is not a dependency: with its import blocked, criterion 9's
    # exhaustive sweep must still complete and pass, and the CLI with it
    # must load nothing from outside the standard library.
    probe = """
import sys
sys.modules["numpy"] = None
before = set(sys.modules)
import conelines.cli
from conelines.verify import run_criterion
results = run_criterion(9)
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
for r in results:
    print(r.passed, r.name, r.observed, sep="\t")
"""
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(), timeout=300
    )
    assert done.returncode == 0, done.stderr
    loaded, *lines = done.stdout.splitlines()
    foreign = set(loaded.split()) - set(sys.stdlib_module_names) - {"conelines"}
    assert not foreign, foreign
    checks = [line.split("\t", 2) for line in lines]
    assert checks, "criterion 9 produced no checks"
    assert "9.aborted" not in {name for _, name, _ in checks}, done.stdout
    assert all(passed == "True" for passed, _, _ in checks), done.stdout
