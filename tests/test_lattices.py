"""Lattice construction, root enumeration, and the homology frame."""

import dataclasses
import io
import itertools
import keyword
import random
import re
import string
import subprocess
import sys
import tokenize
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelines.cli import gram_fault
from conelines.lattices import (
    _GRAPHS,
    _descent,
    ALL_SEXTIC_TYPES,
    SexticType,
    SurfaceType,
    base_line_class_x,
    build_lattice,
    canonical_root_pair,
    enumerate_roots,
    fiber_class_x,
    is_root,
    line_class_on_X,
    norm,
    pair,
    pairing_x,
    reflect,
    root_pairs,
    smul,
    vadd,
    vectors_with_norm_at_least,
    vneg,
)
from conelines.mod2 import reduce_mod2
from conelines.translations import shell_classes
from conftest import (
    FAULTED_IDS,
    TYPE_KEYS,
    assert_rejected,
    lattice_and_vectors,
    lattice_for,
    lattices_and_a_faulted_e8,
    src_env,
)


def _root_count(name: str) -> int:
    """Roots of a root system from its Dynkin name, such as "D4+A1" or "4A1":
    A_n has n(n+1), D_n has 2n(n-1), E7 has 126 and E8 has 240, and
    components add.  "0" names the empty system."""
    if name == "0":
        return 0
    total = 0
    for part in name.split("+"):
        times, kind, n = re.fullmatch(r"(\d*)([ADE])(\d+)", part).groups()
        n = int(n)
        count = {"A": n * (n + 1), "D": 2 * n * (n - 1), "E": {7: 126, 8: 240}.get(n)}[kind]
        total += int(times or 1) * count
    return total


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_gram_is_symmetric_with_even_diagonal(key):
    lattice = lattice_for(key)
    g = lattice.gram
    for i in range(lattice.rank):
        assert g[i][i] == -2
        for j in range(lattice.rank):
            assert g[i][j] == g[j][i]
            if i != j:
                assert g[i][j] in (0, 1)


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_root_count(key):
    lattice = lattice_for(key)
    assert len(enumerate_roots(lattice)) == _root_count(lattice.name) == THETA_COUNTS[key][1]


def test_roots_come_in_opposite_pairs(e8):
    roots = set(enumerate_roots(e8))
    for e in roots:
        assert tuple(-c for c in e) in roots
    pairs = root_pairs(e8)
    assert len(pairs) == 120
    seen = set()
    for plus, minus in pairs:
        assert minus == tuple(-c for c in plus)
        seen.update({plus, minus})
    assert seen == roots


def test_canonical_root_pair_is_stable(d6):
    for e in enumerate_roots(d6):
        plus, minus = canonical_root_pair(e)
        assert canonical_root_pair(minus) == (plus, minus)
        assert is_root(d6, plus) and is_root(d6, minus)


@given(lattice_and_vectors(2, 6))
def test_pairing_is_symmetric_and_bilinear(data):
    lattice, v, w = data
    assert pair(lattice, v, w) == pair(lattice, w, v)
    assert pair(lattice, vadd(v, v), w) == 2 * pair(lattice, v, w)
    assert norm(lattice, v) == pair(lattice, v, v)


with gram_fault():
    FAULTED_E8 = build_lattice(SexticType(4, 0))


EVERY_LATTICE = pytest.mark.parametrize(
    "lattice", [lattice_for(k) for k in TYPE_KEYS] + [FAULTED_E8], ids=[*TYPE_KEYS, "4|0-gram"]
)


@EVERY_LATTICE
@given(data=st.data())
@settings(max_examples=40)
def test_edge_list_pairing_equals_the_dense_form(lattice, data):
    n = lattice.rank
    vec = st.tuples(*[st.integers(-6, 6)] * n)
    v, w = data.draw(vec), data.draw(vec)
    dense = sum(v[i] * lattice.gram[i][j] * w[j] for i in range(n) for j in range(n))
    assert pair(lattice, v, w) == dense
    with pytest.raises(ValueError):
        pair(lattice, v + (0,), w)
    with pytest.raises(ValueError):
        pair(lattice, v, w + (0,))


@given(lattice_and_vectors(1, 6))
@settings(max_examples=60)
def test_root_reflections_preserve_the_form(data):
    lattice, v = data
    for e in enumerate_roots(lattice)[:6]:
        image = reflect(lattice, e, v)
        assert norm(lattice, image) == norm(lattice, v)
        assert reflect(lattice, e, image) == v


@EVERY_LATTICE
def test_shell_enumeration_matches_root_enumeration(lattice):
    # The roots are read off the -2 shell.  Independently, the roots of a
    # simply laced root lattice are the orbit of its basis under the simple
    # reflections: norm -2 vectors holding +/- each basis vector and closed
    # under reflection in each basis vector are the whole root system.
    roots = set(enumerate_roots(lattice))
    basis = [lattice.basis_vector(i) for i in range(lattice.rank)]
    assert set(basis) | {vneg(e) for e in basis} <= roots
    assert all(reflect(lattice, e, r) in roots for e in basis for r in roots)
    assert all(norm(lattice, r) == -2 for r in roots)
    assert all(norm(lattice, v) >= -2 for v in vectors_with_norm_at_least(lattice, -2))


def test_shell_enumeration_matches_brute_force_box():
    # diag(-2,...) with no edges: norm >= -2k means sum of squares <= k,
    # so a [-2, 2] box provably contains every candidate for k = 4.
    lattice = lattice_for("0|0")
    shell = set(vectors_with_norm_at_least(lattice, -8))
    box = range(-2, 3)
    brute = {
        (a, b, c, d)
        for a in box
        for b in box
        for c in box
        for d in box
        if a * a + b * b + c * c + d * d <= 4
    }
    assert shell == brute


def _sums_of_squares(dim: int, top: int) -> list[int]:
    """r_dim(m) for m = 0..top: the x in Z^dim with sum x_i^2 = m (|x_i| <= 3)."""
    counts = Counter(sum(x * x for x in p) for p in itertools.product(range(-3, 4), repeat=dim))
    return [counts[m] for m in range(top + 1)]


def _convolve(a: list[int], b: list[int]) -> list[int]:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _theta_counts() -> dict[str, list[int]]:
    """Vectors of norm -2k, k = 0..5, from classical formulas.

    E8: 240 sigma_3(k); E7: the theta series of E7; D_n: the vectors of
    Z^n with even square sum 2k; nA1 (n = 4 - q for 0|q): the vectors of
    Z^n with square sum k; D4+A1: the convolution of the two.  The box
    |x_i| <= 3 suffices because a coordinate 4 already has square 16 > 10.
    """
    sigma3 = [sum(d**3 for d in range(1, k + 1) if k % d == 0) for k in range(6)]
    d4 = _sums_of_squares(4, 10)[::2]
    a1 = _sums_of_squares(1, 5)
    counts = {
        "4|0": [1] + [240 * s for s in sigma3[1:]],
        "3|0": [1, 126, 756, 2072, 4158, 7560],
        "2|0": _sums_of_squares(6, 10)[::2],
        "1|0": _convolve(d4, a1),
        "1|1": d4,
        "|||": d4,
    }
    for q in range(5):
        counts[f"0|{q}"] = _sums_of_squares(4 - q, 5)
    return counts


THETA_COUNTS = _theta_counts()


def test_theta_formulas_reproduce_the_known_e8_shells():
    assert THETA_COUNTS["4|0"] == [1, 240, 2160, 6720, 17520, 30240]
    assert sum(THETA_COUNTS["4|0"][:5]) == 26641


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_shell_counts_match_the_theta_series(key):
    lattice = lattice_for(key)
    shell = vectors_with_norm_at_least(lattice, -10)
    # the descent fixes the first coordinate first, so no sort is needed
    assert shell == tuple(sorted(shell))
    per_norm = Counter(-norm(lattice, v) // 2 for v in shell)
    assert [per_norm[k] for k in range(6)] == THETA_COUNTS[key]
    assert len(shell) == sum(THETA_COUNTS[key])
    # the form is negative definite: a positive floor leaves no vector
    assert vectors_with_norm_at_least(lattice, 1) == ()


def test_the_counting_descent_reproduces_the_e8_theta_series_to_norm_minus_14(e8):
    # 1 + 240 sum_{k<=7} sigma_3(k) vectors, and the fiber bit of a vector
    # of norm -2k is k mod 2: the count at depth and each leaf's own bit.
    sigma3 = [sum(d**3 for d in range(1, k + 1) if k % d == 0) for k in range(8)]
    hits = shell_classes(e8, -14)
    by_bit = Counter()
    for (mu, _), count in hits.items():
        by_bit[mu] += count
    assert hits.total() == 1 + 240 * sum(sigma3[1:]) == 199921
    assert by_bit == {0: 1 + 240 * sum(sigma3[2::2]), 1: 240 * sum(sigma3[1::2])}


def test_type_keys_round_trip():
    for key in TYPE_KEYS:
        assert SexticType.from_key(key).key == key
    assert len(ALL_SEXTIC_TYPES) == 11


def test_mirror_is_an_involution():
    for key in TYPE_KEYS:
        t = SexticType.from_key(key)
        assert t.mirror().mirror() == t
    assert SexticType.from_key("4|0").mirror().key == "0|4"
    assert SexticType.from_key("1|1").mirror().key == "1|1"


def test_surface_keys_round_trip():
    for key in TYPE_KEYS:
        surface = SexticType.from_key(key).surface()
        assert SurfaceType.from_key(surface.key) == surface


def test_surface_map():
    assert SexticType.from_key("4|0").surface().key == "K#4T2"
    assert SexticType.from_key("1|1").surface().key == "K#T2+S2"
    assert SexticType.from_key("|||").surface().key == "K+K"
    assert SexticType.from_key("0|0").surface().key == "K"
    assert SexticType.from_key("0|3").surface().key == "K+3S2"


def test_unknown_keys_are_rejected():
    with pytest.raises(ValueError):
        SexticType.from_key("5|0")
    # Non-canonical spellings of real surfaces are rejected too, so every
    # accepted key round-trips.
    for key in ("K#5T2", "K#1T2", "K#0T2", "K+1S2", "K+0S2"):
        with pytest.raises(ValueError):
            SurfaceType.from_key(key)
    for handles, spheres, double_klein in ((5, 0, False), (1, 0, True)):
        with pytest.raises(ValueError, match="no such surface type"):
            SurfaceType(handles, spheres, double_klein)


def test_the_table_of_types_is_read_only():
    with pytest.raises(TypeError):
        _GRAPHS["5|0"] = _GRAPHS["4|0"]
    assert_rejected(lambda: SexticType(5, 0), ValueError, "no such sextic type: 5|0")


@pytest.mark.parametrize(
    "args",
    [(True, 0), (1.0, 0), ("4", "0"), (0, 0, "yes")],
    ids=["bool-count", "float-count", "string-counts", "string-bands"],
)
def test_a_sextic_type_takes_two_int_counts_and_a_bool(args):
    with pytest.raises(ValueError, match="a sextic type takes two int counts and a bool"):
        SexticType(*args)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SexticType(9, 9), "no such sextic type: 9|9"),
        (lambda: SexticType.from_key("1|"), "cannot parse sextic type '1|'"),
        (lambda: SexticType(1, 0, True), "the band type carries no ovals"),
    ],
    ids=["9|9", "1|", "band-with-ovals"],
)
def test_a_refused_sextic_type_keeps_its_message(call, message):
    assert_rejected(call, ValueError, message)


def test_only_ascii_blanks_around_a_key_are_ignored():
    for blank in string.whitespace:
        assert SexticType.from_key(f"{blank}4|0{blank}") == SexticType(4, 0)
        assert SurfaceType.from_key(f"{blank}K+K{blank}") == SexticType(0, 0, True).surface()
    for space in ("\u3000", "\u00a0", "\u2003", "\x1c"):
        sextic_key, surface_key = f"{space}4|0", f"K+K{space}"
        assert_rejected(lambda: SexticType.from_key(sextic_key), ValueError, f"cannot parse sextic type {sextic_key!r}")
        assert_rejected(lambda: SurfaceType.from_key(surface_key), ValueError, f"cannot parse surface type {surface_key!r}")


def test_section_classes_self_pair_to_minus_one(e8):
    fiber = fiber_class_x(e8)
    base = base_line_class_x(e8)
    assert pairing_x(e8, base, base) == -1
    assert pairing_x(e8, fiber, fiber) == 0
    assert pairing_x(e8, base, fiber) == 1
    for w in enumerate_roots(e8)[:10]:
        line = line_class_on_X(e8, w)
        assert pairing_x(e8, line, line) == -1
        assert pairing_x(e8, line, fiber) == 1


#: The imports of both child scripts, and the other values the CLI hands out:
#: every sextic and surface type, a translation per surface, a mod-2 class.
_HANDED_OUT = """
import pickle, sys
from conelines.lattices import _KERNELS, ALL_SEXTIC_TYPES, ALL_SURFACE_TYPES, build_lattice, pair
from conelines.mapping_class import translation_class
from conelines.mod2 import all_residues, q0, reduce_mod2
from conelines.translations import H1Mod2Class, coset_representative
def handed_out(lattices):
    return [
        *ALL_SEXTIC_TYPES,
        *ALL_SURFACE_TYPES,
        *(translation_class(lattice, (1,) * lattice.rank) for lattice in lattices),
        H1Mod2Class(1, reduce_mod2(lattices[0], (1,) + (0,) * 7), 1),
    ]
"""

_PICKLE_ALL = _HANDED_OUT + """
lattices = [build_lattice(t) for t in ALL_SEXTIC_TYPES]
residues = [all_residues(lattice) for lattice in lattices]
for lattice, quotient in zip(lattices, residues):
    # Build the kernels and every table before the dump.
    for x in quotient:
        assert pair(lattice, x.bits, x.bits) % 2 == 0
        assert reduce_mod2(lattice, x.bits) is x
        q0(x), coset_representative(x)
    lattice._radical, lattice._tritangents, lattice._translations, lattice._translation_hermite
    for kernel in _KERNELS:
        getattr(lattice, kernel)
    assert _KERNELS <= set(vars(lattice)), sorted(_KERNELS - set(vars(lattice)))
values = handed_out(lattices)
# Hash each value before the dump, as a table keyed by it would.
for value in [*lattices, *(x for quotient in residues for x in quotient), *values]:
    hash(value)
sys.stdout.buffer.write(pickle.dumps((lattices, residues, values)))
"""

_LOAD_ALL = _HANDED_OUT + """
loaded, loaded_residues, loaded_values = pickle.loads(sys.stdin.buffer.read())
fresh = [build_lattice(t) for t in ALL_SEXTIC_TYPES]
by_lattice = {lattice: lattice.sextic.key for lattice in fresh}
for old, new in zip(loaded, fresh, strict=True):
    assert old == new and old is not new and hash(old) == hash(new), new.sextic
    assert by_lattice[old] == new.sextic.key
    # No kernel travels; each is generated again on first use.
    assert not _KERNELS & set(vars(old)), sorted(_KERNELS & set(vars(old)))
    # The derived tables travel, and equal the ones a fresh lattice builds.
    for table in ("_radical", "_tritangents", "_translations", "_translation_hermite"):
        assert table in vars(old) and getattr(old, table) == getattr(new, table), (new.sextic, table)
for quotient, new in zip(loaded_residues, fresh, strict=True):
    for old, interned in zip(quotient, all_residues(new), strict=True):
        assert old == interned and old is not interned and hash(old) == hash(interned), old.bits
        assert q0(old) == q0(interned) == (pair(new, old.bits, old.bits) // 2) & 1, old.bits
        rep = coset_representative(old)
        assert rep == coset_representative(interned) and rep.lattice is old.lattice, old.bits
        # The loaded residues are the loaded lattice's table.
        assert reduce_mod2(old.lattice, old.bits) is old and rep is reduce_mod2(old.lattice, rep.bits)
for old, new in zip(loaded_values, handed_out(fresh), strict=True):
    assert old == new and old is not new and hash(old) == hash(new), new
print("ok")
"""


def test_a_pickled_lattice_keeps_its_hash_under_another_hash_seed():
    def child(source, seed, data=None):
        done = subprocess.run(
            [sys.executable, "-c", source],
            input=data,
            capture_output=True,
            env={**src_env(), "PYTHONHASHSEED": seed},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    # The kernels are the tables named ``*_kernel``: every generated function.
    from conelines import lattices

    assert lattices._KERNELS == {
        "_pair_kernel",
        "_norm_kernel",
        "_transvection_kernel",
        "_translation_kernel",
        "_residue_kernel",
        "_shell_kernel",
        "_count_kernel",
    }
    assert child(_LOAD_ALL, "2", child(_PICKLE_ALL, "1")) == b"ok\n"


@pytest.mark.parametrize("lattice", lattices_and_a_faulted_e8(), ids=FAULTED_IDS)
def test_the_kernels_agree_with_the_gram_matrix(lattice):
    rng = random.Random(f"kernels {lattice.sextic} {len(lattice.edges)}")
    n = lattice.rank
    for _ in range(200):
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        w = tuple(rng.randint(-9, 9) for _ in range(n))
        reference = sum(v[i] * lattice.gram[i][j] * w[j] for i in range(n) for j in range(n))
        assert pair(lattice, v, w) == reference
        assert norm(lattice, v) == sum(v[i] * lattice.gram[i][j] * v[j] for i in range(n) for j in range(n))
        assert reduce_mod2(lattice, v) is lattice._residues[tuple(x % 2 for x in v)]
    for wrong in ((0,) * (n + 1), (1,) * (n + 2)):
        with pytest.raises(ValueError, match=f"coordinate length mismatch: rank {n}, got {len(wrong)}"):
            norm(lattice, wrong)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: vadd((1, 2), (1, 2, 3)), "vector length mismatch: 2 and 3"),
        (lambda: vadd((1,), ()), "vector length mismatch: 1 and 0"),
    ],
    ids=["vadd-shorter-first", "vadd-empty-second"],
)
def test_vadd_refuses_vectors_of_different_lengths(call, message):
    assert_rejected(call, ValueError, message)


@given(st.integers(-9, 9), st.lists(st.integers(-(10**6), 10**6), max_size=10))
@example(3, [])
@example(0, [5, -7, 2])
@settings(max_examples=200)
def test_vector_helpers_match_their_comprehensions(c, entries):
    a, b = tuple(entries), tuple(reversed(entries))
    assert smul(c, a) == tuple(c * x for x in a)
    assert vadd(a, b) == tuple(x + y for x, y in zip(a, b))
    assert vneg(a) == tuple(-x for x in a)


@pytest.mark.parametrize(
    "edges, message",
    [
        (((0, 1), (1, "2")), "is not a pair of integers"),
        (((0, 1), (1, 2.0)), "is not a pair of integers"),
        (((0, 1, 2),), "is not a pair of integers"),
        (((0, 1), (1, 8)), r"leaves range\(8\)"),
        (((0, 1), (-1, 2)), r"leaves range\(8\)"),
        (((0, 1), (0, 0)), "is a loop or a repeat"),
        (((0, 1), (1, 2), (0, 1)), "is a loop or a repeat"),
        (((0, 1), (1, 2), (1, 0)), "is a loop or a repeat"),
        (((0, 1), (True, 2)), "is not a pair of integers"),
    ],
)
def test_a_lattice_with_a_bad_edge_refuses_its_first_pairing(e8, edges, message):
    # The edges are checked when the lattice is made, before any pairing.
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(e8, edges=edges)


#: The oval positions each lattice stored as a field before they were read
#: off its basis names; every other lattice has none.
_OVAL_POSITIONS = {"4|0": (0, 2, 4, 6), "3|0": (1, 3, 5), "2|0": (1, 3), "1|0": (1,), "1|1": (0,)}


@pytest.mark.parametrize("lattice", lattices_and_a_faulted_e8(), ids=FAULTED_IDS)
def test_the_oval_positions_are_read_off_the_basis_names(lattice):
    assert [field.name for field in dataclasses.fields(lattice)] == ["name", "sextic", "basis_names", "edges"]
    assert lattice.oval_indices == _OVAL_POSITIONS.get(lattice.sextic.key, ())
    # the k-th oval position is named Ok, so oval_number reads the name's number
    assert [lattice.basis_names[i] for i in lattice.oval_indices] == [
        f"O{lattice.oval_number(i)}" for i in lattice.oval_indices
    ]


def test_a_lattice_whose_containers_or_oval_names_are_wrong_is_refused_when_made(e8):
    assert_rejected(
        lambda: dataclasses.replace(e8, edges=list(e8.edges)),
        ValueError,
        "E8 needs a tuple of string names and a tuple of edges",
    )
    # E8's basis is O1 B12 O2 B23 O3 B34 O4 B3: rename its ovals at positions 0, 2, 4, 6.
    for ovals, named in (
        (("O1", "O2", "O3", "B4"), "('O1', 'O2', 'O3')"),
        (("O2", "O1", "O3", "O4"), "('O2', 'O1', 'O3', 'O4')"),
        (("O1", "O2", "O3", "O3"), "('O1', 'O2', 'O3', 'O3')"),
    ):
        names = (ovals[0], "B12", ovals[1], "B23", ovals[2], "B34", ovals[3], "B3")
        assert_rejected(
            lambda: dataclasses.replace(e8, basis_names=names),
            ValueError,
            f"the ovals of E8 are named {named}, but 4|0 needs ('O1', 'O2', 'O3', 'O4')",
        )
    # the oval positions are no field, so they cannot disagree with the names
    with pytest.raises(TypeError):
        dataclasses.replace(e8, oval_indices=(0, 2, 4, 9))
    # the type and the name are checked before the type's oval count is read
    assert_rejected(
        lambda: dataclasses.replace(e8, sextic="4|0"),
        ValueError,
        "a lattice takes a str name and a SexticType, not 'E8' and '4|0'",
    )
    assert_rejected(
        lambda: dataclasses.replace(e8, name=8),
        ValueError,
        "a lattice takes a str name and a SexticType, not 8 and SexticType(pos_ovals=4, neg_ovals=0, bands=False)",
    )


@pytest.mark.parametrize("position", [1, 8, -1])
def test_oval_number_refuses_a_bridge_or_a_position_out_of_range(e8, position):
    assert_rejected(lambda: e8.oval_number(position), ValueError, f"position {position} of E8 holds no oval")


@pytest.mark.parametrize("floor", [-2.0, "x", True, None], ids=repr)
def test_a_shell_floor_that_is_not_an_int_is_refused(e8, floor):
    for run in (vectors_with_norm_at_least, shell_classes):
        with pytest.raises(ValueError, match="the floor of a shell must be an int"):
            run(e8, floor)


@pytest.mark.parametrize(
    "edges",
    [((0, 1), (1, 2), (0, 2)), tuple(itertools.combinations(range(4), 2))],
    ids=["triangle", "K4"],
)
def test_a_graph_that_is_not_negative_definite_refuses_its_first_descent(edges):
    bad = dataclasses.replace(lattice_for("1|1"), edges=edges)
    for run in (vectors_with_norm_at_least, shell_classes):
        with pytest.raises(ValueError, match="the form of D4 is not negative definite"):
            run(bad, -2)
    assert not {name for name in vars(bad) if name.endswith("_kernel")}


@st.composite
def edge_lists(draw):
    """A rank of at most 5 and distinct pairs of its indices, at times with one more
    pair, which may repeat one, be a loop or leave range(rank)."""
    rank = draw(st.integers(0, 5))
    pairs = list(itertools.permutations(range(rank), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=rank + 1, unique_by=frozenset)) if pairs else []
    if draw(st.booleans()):
        index = st.integers(-1, rank)
        edges.insert(draw(st.integers(0, len(edges))), draw(st.tuples(index, index)))
    return rank, tuple(edges)


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_a_random_edge_list_is_refused_or_read_alike_by_the_gram_matrix_and_the_kernels(drawn):
    rank, edges = drawn
    try:
        lattice = dataclasses.replace(lattice_for("0|0"), basis_names=("B",) * rank, edges=edges)
    except ValueError:
        return
    g = lattice.gram
    basis = [lattice.basis_vector(i) for i in range(rank)]
    assert [[pair(lattice, v, w) for w in basis] for v in basis] == [list(row) for row in g]
    # A simply laced form of rank <= 5 is negative definite exactly when it
    # is a sum of A_n and D_n; then its roots have coordinates |x_i| <= 2.
    # Otherwise it holds an induced cycle or star K_{1,4}, an affine graph
    # whose null vector lies in the same box.  So the box decides definiteness and lists the -2 shell.
    box = list(itertools.product(range(-2, 3), repeat=rank))
    norms = [sum(x * sum(a * y for a, y in zip(row, v)) for x, row in zip(v, g)) for v in box]
    if all(n < 0 for v, n in zip(box, norms) if any(v)):
        assert vectors_with_norm_at_least(lattice, -2) == tuple(v for v, n in zip(box, norms) if n >= -2)
    else:
        with pytest.raises(ValueError, match="not negative definite"):
            vectors_with_norm_at_least(lattice, -2)


@EVERY_LATTICE
def test_a_descent_source_holds_only_integer_literals_and_known_names(lattice):
    # The descent writes the scale and levels into its source unchecked, so
    # every literal there must be a decimal integer and every name its own.
    source = "\n".join(_descent(*lattice._square_completion, "sink(0)"))
    known = re.compile(r"kernel|floor|sink|isqrt|range|t|u|[xcr][0-9]+")
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NUMBER:
            assert re.fullmatch(r"0|[1-9][0-9]*", token.string), token
        elif token.type == tokenize.NAME:
            assert known.fullmatch(token.string) or keyword.iskeyword(token.string), token


@EVERY_LATTICE
@pytest.mark.parametrize("kernel", ["_pair_kernel", "_norm_kernel", "_transvection_kernel", "_translation_kernel"])
def test_a_straight_line_kernel_source_holds_only_integer_literals_and_known_names(monkeypatch, lattice, kernel):
    # The translation kernel writes the presentation's integers into its
    # source, the others the checked edge indices: read each source as it
    # is handed to ``_kernel``, on a copy that keeps none of it.
    from conelines import lattices

    monkeypatch.setattr(lattices, "_kernel", lambda *lines, **tables: "\n".join(lines))
    source = getattr(dataclasses.replace(lattice), kernel)
    known = re.compile(r"kernel|v|w|line|[xy][0-9]+")
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NUMBER:
            assert re.fullmatch(r"0|[1-9][0-9]*", token.string), token
        elif token.type == tokenize.NAME:
            assert known.fullmatch(token.string) or keyword.iskeyword(token.string), token


def test_a_lattice_copy_is_equal_and_hashes_alike(e8):
    copy = dataclasses.replace(e8)
    assert copy == e8 and copy is not e8 and hash(copy) == hash(e8)
    assert dataclasses.replace(e8, name="E8'") != e8


def test_cache_clear_drops_every_kept_table_and_rebuilds_it_alike():
    from conelines import lattices
    from conelines.tritangents import enumerate_tritangents

    e8 = build_lattice(SexticType.from_key("4|0"))
    enumerate_tritangents(e8.sextic)
    pair(e8, e8.basis_vector(0), e8.basis_vector(0))
    kept = {name: getattr(e8, name) for name in lattices._TABLES if name not in lattices._KERNELS}
    assert build_lattice.cache_info().misses >= len(lattices._TABLES)
    # The presentation's Hermite form (H, U) is kept as tuples, like the presentation.
    assert all(type(m) is tuple and all(type(row) is tuple for row in m) for m in kept["_translation_hermite"])
    build_lattice.cache_clear()
    assert build_lattice.cache_info() == (0, 0)
    assert not set(vars(e8)) & set(lattices._TABLES)
    assert "_translation_hermite" not in vars(e8)
    assert build_lattice(e8.sextic) is e8
    assert {name: getattr(e8, name) for name in kept} == kept
