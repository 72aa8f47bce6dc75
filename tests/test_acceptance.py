"""Acceptance gate: one test per numbered criterion, exact comparisons only.

Criteria 1-11 and the rng pins share one deterministic run of the eleven
check families; criterion 12 drives the command-line entry point itself,
including `verify --fault`.  The reports' bytes are pinned in the table of
``scripts/pins.py``, which ``test_cli.test_pinned_output`` runs.
"""

import ast
import dataclasses
import gc
import random
import subprocess
import sys
from collections import Counter
from collections.abc import Mapping
from pathlib import Path

import pytest

from conelines import cli, verify
from conelines.intlinalg import GroupInvariants
from conelines.lattices import ALL_SEXTIC_TYPES, GeometricLattice, SexticType, SurfaceType, unit_vec
from conelines.mapping_class import (
    fiber_twist,
    from_linear_coordinates,
    is_translation_class,
    linear_coordinates,
    split_twist,
    translation_analysis,
)
from conelines.mod2 import q0
from conftest import HANDLE_KEYS, TYPE_KEYS, src_env

@pytest.fixture(scope="module")
def families():
    """Per family N, once: its rows from ``random.Random(N)``, the generator
    ``run_criterion(N, seed=0)`` gives it, and ``rng.getrandbits(32)`` after
    them.  Filled on first use, so a family that raises fails only its own
    tests."""
    return {}


def _family(families, number):
    if number not in families:
        rng = random.Random(number)
        families[number] = list(verify._CRITERIA[number](rng)), rng.getrandbits(32)
    return families[number]


def _criterion(families, number):
    rows, _ = _family(families, number)
    family = [r for r in rows if r.name.split(".")[0] == str(number)]
    assert family, f"criterion {number} produced no checks"
    failures = [r for r in family if not r.passed]
    detail = "\n".join(
        f"{r.name}: observed {r.observed}, expected {r.expected}" for r in failures
    )
    assert not failures, f"criterion {number} failed:\n{detail}"


def test_criterion_01_tritangent_census(families):
    _criterion(families, 1)


def test_criterion_02_mod2_strata(families):
    _criterion(families, 2)


def test_criterion_03_pair_census(families):
    _criterion(families, 3)


def test_criterion_04_code_census(families):
    _criterion(families, 4)


def test_criterion_05_translation_analysis(families):
    _criterion(families, 5)


def test_criterion_06_group_laws(families):
    _criterion(families, 6)


def test_criterion_07_homology_matrices(families):
    _criterion(families, 7)


def test_criterion_08_unipotent_action(families):
    _criterion(families, 8)


def test_criterion_09_realizability_sweeps(families):
    _criterion(families, 9)


def test_criterion_10_conic_pencil_count(families):
    _criterion(families, 10)


def test_criterion_11_line_class_counts(families):
    _criterion(families, 11)


#: ``rng.getrandbits(32)`` after family N has drawn all its samples from
#: ``random.Random(N)``, the generator ``run_criterion(N, seed=0)`` gives
#: it.  Sampled checks report only ``True``, so the report's sha256 stays
#: the same when a family draws fewer samples; these values do not.
RNG_AFTER_FAMILY = {
    1: 577090037,
    2: 4106135923,
    3: 1022050301,
    4: 1013818839,
    5: 2675342405,
    6: 676311796,
    7: 4000497960,
    8: 782052062,
    9: 1364503142,
    10: 2454155475,
    11: 1942955373,
}


@pytest.mark.parametrize("number", sorted(RNG_AFTER_FAMILY))
def test_each_family_draws_a_pinned_share_of_its_rng(families, number):
    rows, after = _family(families, number)
    assert rows and all(r.passed for r in rows)
    assert after == RNG_AFTER_FAMILY[number]


def test_every_draw_of_verify_is_the_randrange_stream(monkeypatch):
    """Every (lo, hi, count) that the families draw gives what ``randrange``
    gives, draw for draw, and leaves the rng in the same state; ``verify``
    calls ``randrange`` nowhere."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    assert "randrange" not in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    drawn, draws = set(), verify._draws

    def recorded(rng, lo, hi, count):
        drawn.add((lo, hi, count))
        return draws(rng, lo, hi, count)

    monkeypatch.setattr(verify, "_draws", recorded)
    for number in verify._CRITERIA:
        list(verify._CRITERIA[number](random.Random(number)))
    assert {(-4, 5, 8), (-4, 5, 0), (0, 2, 2), (-5, 6, 1), (-3, 4, 1)} <= drawn
    for lo, hi, count in sorted(drawn):
        ours, theirs = random.Random(f"{lo} {hi} {count}"), random.Random(f"{lo} {hi} {count}")
        for _ in range(50):
            assert draws(ours, lo, hi, count) == tuple(theirs.randrange(lo, hi) for _ in range(count))
            assert ours.getstate() == theirs.getstate()


def test_criterion_09_checks_d6_against_the_librarys_realizability_rule(monkeypatch):
    """A rule that forces the fiber bit on every type is caught on D6, whose
    radical carries odd q0 values, so its fiber bit is free."""
    rows = {r.name: r.passed for r in verify.run_criterion(9)}
    assert rows["9.classes-attained-set 2|0"]
    monkeypatch.setattr(verify, "realizable_mod2", lambda surface, x: x.mu == q0(x.v_part))
    forced = {r.name: r.passed for r in verify.run_criterion(9)}
    assert "9.aborted" not in forced
    assert {name for name, passed in forced.items() if not passed} == {"9.classes-attained-set 2|0"}
    monkeypatch.undo()
    assert {r.name: r.passed for r in verify.run_criterion(9)} == rows


def test_criterion_01_total_reads_the_strata_table(monkeypatch):
    """The census total and |V1 - R1| are two frozen routes to one number."""
    monkeypatch.setattr(verify, "FROZEN", {**verify.FROZEN, "2.strata 3|0": (128, 2, 64, 1, 62)})
    assert {r.name for r in verify.run_criterion(1) if not r.passed} == {"1.total 3|0"}


def test_criterion_04_code_totals_read_the_strata_table(monkeypatch):
    """Each tritangent carries one code, so the code total is |V1 - R1| too."""
    monkeypatch.setattr(verify, "FROZEN", {**verify.FROZEN, "2.strata 4|0": (256, 1, 120, 0, 119)})
    assert {r.name for r in verify.run_criterion(4) if not r.passed} == {"4.codes-total 4|0"}


@pytest.mark.parametrize("table", ("FROZEN", "_CRITERIA"))
def test_the_module_tables_are_read_only(table):
    with pytest.raises(TypeError):
        getattr(verify, table)[1] = None


def test_an_unknown_family_is_refused_before_its_rng_is_seeded(monkeypatch):
    monkeypatch.setattr(verify, "random", None)  # seeding would raise AttributeError
    for number in (0, 12):
        with pytest.raises(ValueError, match=f"no check family {number}"):
            verify.run_criterion(number)


def test_the_sweeps_membership_character_is_the_translation_cokernel(e8):
    """The frozen character of the K#4T2 sweep vanishes on exactly the unit
    linear coordinates that are translation classes, and the cokernel it
    stands for is the library's Z/2."""
    character = verify.FROZEN["9.obstruction-membership-sweep K#4T2"]
    assert translation_analysis(e8).cokernel == GroupInvariants(0, (2,))
    surface = SurfaceType.from_key("K#4T2")
    units = [from_linear_coordinates(surface, unit_vec(len(character), j)) for j in range(len(character))]
    assert [is_translation_class(g) for g in units] == [bit == 0 for bit in character]


class _CountedReads(Mapping):
    """A read-only view of a table that counts the reads of each key."""

    def __init__(self, table):
        self.table, self.reads = table, Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return self.table[key]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)


def test_every_frozen_value_is_read_by_its_row_in_report_order(monkeypatch):
    """Each key of ``FROZEN`` names a row, the keys follow the report, and
    a whole run reads each of them; the code atlas and the strata are read
    by more than one row."""
    counted = _CountedReads(verify.FROZEN)
    monkeypatch.setattr(verify, "FROZEN", counted)
    rows = verify.run_all(0)
    assert all(r.passed for r in rows), [r.name for r in rows if not r.passed]
    order = {r.name: i for i, r in enumerate(rows)}
    keys = list(counted.table)
    assert [key for key in keys if key not in order] == []
    assert keys == sorted(keys, key=order.__getitem__)
    assert [key for key in keys if not counted.reads[key]] == []


#: The module tables that held frozen values before they moved into ``FROZEN``.
FORMER_TABLES = (
    "_CENSUS_GRID", "_STRATA_EXPECTED", "_CODE_ROWS", "_EXPECTED_CODES_1_0", "_EXPECTED_CODES_1_1",
    "_P2_SINGLETONS", "_ANALYSIS_EXPECTED", "_KERNEL_GENERATORS", "_DELTA_CHAINS", "_LINE_CLASS_EXPECTED",
)


def _is_literal(node: ast.AST) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def test_verify_keeps_its_expected_values_in_one_table():
    """No row compares against a literal, no module name but ``FROZEN``
    binds a literal container, and no former table is left."""
    source = Path(verify.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_eq"
    ]
    assert calls
    assert [ast.unparse(call) for call in calls if _is_literal(call.args[2])] == []
    tables = [
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and _is_literal(node.value)
        and not isinstance(node.value, ast.Constant)
    ]
    assert tables == []
    assert [name for name in FORMER_TABLES if name in source] == []


def _shifted_canon(act):
    def shifted(lattice, w, x):
        moved = act(lattice, w, x)
        return dataclasses.replace(moved, canon=moved.canon + 1)

    return shifted


def _unsigned_handles(delta_of):
    """Each handle pair's m times (-1)^(1-k) once more, which drops the sign."""

    def unsigned(g):
        d = delta_of(g)
        return dataclasses.replace(d, pairs=tuple(((-1) ** (1 - k) * m, k) for m, k in d.pairs))

    return unsigned


def _negated_sum(real):
    """Minus the sum of the coordinates: commutative but not associative,
    and the real law wherever every coordinate is a bit mod 2."""

    def law(a, b):
        coords = zip(linear_coordinates(a), linear_coordinates(b))
        return from_linear_coordinates(a.surface, tuple(-x - y for x, y in coords))

    return law


def test_negated_sum_fails_only_associativity():
    law = _negated_sum(verify.mods_mul)
    surface = SexticType.from_key("2|0").surface()
    g, h, k = fiber_twist(surface, 1), fiber_twist(surface, 2), split_twist(surface, 1)
    for a, b in ((g, h), (g, k), (h, k)):
        assert law(a, b) == law(b, a)
    assert law(law(g, h), k) != law(g, law(h, k))


SURFACE_KEYS = tuple(s.surface().key for s in ALL_SEXTIC_TYPES)

#: (family, name in verify, mutant of the real function, the rows it fails).
MUTANTS = [
    pytest.param(
        6,
        "mods_mul",
        lambda real: lambda a, b: a,
        {
            # 0|4's lattice has rank 0, and the chains call mods_delta itself
            *(f"6.translation-additive {key}" for key in TYPE_KEYS if key != "0|4"),
            *(f"6.commutative-associative {key}" for key in SURFACE_KEYS),
            *(f"6.involution {key}" for key in SURFACE_KEYS if key != "K+K"),
        },
        id="6-mods-mul-keeps-the-left-factor",
    ),
    pytest.param(
        6,
        "mods_mul",
        _negated_sum,
        {
            # every coordinate is a bit mod 2 on the handle-free surfaces
            *(f"6.commutative-associative {SexticType.from_key(key).surface().key}" for key in HANDLE_KEYS),
            *(f"6.translation-additive {key}" for key in HANDLE_KEYS),
        },
        id="6-mods-mul-negates-the-coordinate-sum",
    ),
    pytest.param(
        7,
        "mw_sum",
        lambda real: lambda surface, d1, d2: d1,
        {
            "7.matrix-multiplicative",
            "7.matrix-matches-sum-law",
            "7.triangular-blocks",
            *(f"7.section-delta-law {key}" for key in SURFACE_KEYS if key != "K+K"),
        },
        id="7-mw-sum-keeps-the-first-difference",
    ),
    pytest.param(
        7,
        "section_delta",
        _unsigned_handles,
        # the handle-free surfaces carry no handle pairs to sign
        {f"7.section-delta-law {SexticType.from_key(key).surface().key}" for key in HANDLE_KEYS},
        id="7-section-delta-drops-the-handle-sign",
    ),
    pytest.param(
        8,
        "mw_act_h2",
        _shifted_canon,
        {"8.pairing-preserved", "8.composition-coefficient", "8.mod2-reduction"},
        id="8-mw-act-h2-shifts-the-canonical-coefficient",
    ),
    pytest.param(
        9,
        "obstruction_kappa",
        lambda real: lambda surface, m, k: 1 - real(surface, m, k),
        {"9.obstruction-membership-sweep K#4T2", "9.obstruction-membership-spot K#4T2"},
        id="9-obstruction-kappa-flips-the-forced-bit",
    ),
    pytest.param(
        # the spot row reaches the helper through homology_action's own
        # binding; a constant flip would cancel between the n- and m-terms
        9,
        "_section_fiber_bit",
        lambda real: lambda half, fiber, split: real(half, fiber, split[:-1]),
        {"9.obstruction-membership-sweep K#4T2"},
        id="9-section-fiber-bit-drops-the-last-split-twist",
    ),
]


@pytest.mark.parametrize("number,name,mutant,failing", MUTANTS)
def test_families_6_to_9_catch_a_broken_library_call(monkeypatch, number, name, mutant, failing):
    monkeypatch.setattr(verify, name, mutant(getattr(verify, name)))
    rows = {r.name: r.passed for r in verify.run_criterion(number)}
    assert f"{number}.aborted" not in rows
    assert {row for row, passed in rows.items() if not passed} == failing
    monkeypatch.undo()
    assert all(r.passed for r in verify.run_criterion(number))


def _faulted_e8s() -> list[GeometricLattice]:
    """Every reachable lattice that is the gram fault's E8: rank 8, one edge short."""
    gc.collect()
    return [
        o for o in gc.get_objects()
        if isinstance(o, GeometricLattice) and o.rank == 8 and len(o.edges) == 6
    ]


def test_criterion_12_cli_self_check(capsys):
    before = _faulted_e8s()  # other tests may hold faulted lattices of their own
    assert cli.main(["verify", "--fault", "gram"]) == 1
    assert "| FAIL |" in capsys.readouterr().out
    # the fault hook must leave no state behind for the next run
    assert [o for o in _faulted_e8s() if not any(o is b for b in before)] == []
    assert cli.main(["verify"]) == 0
    assert "FAIL" not in capsys.readouterr().out


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
