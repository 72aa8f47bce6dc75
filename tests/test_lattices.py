"""Lattice construction, root enumeration, and the homology frame."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelines.cli import gram_fault
from conelines.lattices import (
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
    vadd,
    vectors_with_norm_at_least,
    vneg,
)
from conftest import TYPE_KEYS, lattice_for

ROOT_COUNTS = {
    "4|0": 240,
    "3|0": 126,
    "2|0": 60,
    "1|0": 26,
    "0|0": 8,
    "1|1": 24,
    "|||": 24,
    "0|1": 6,
    "0|2": 4,
    "0|3": 2,
    "0|4": 0,
}


@st.composite
def typed_vector(draw, bound=6):
    key = draw(st.sampled_from(TYPE_KEYS))
    lattice = lattice_for(key)
    v = tuple(
        draw(st.lists(st.integers(-bound, bound), min_size=lattice.rank, max_size=lattice.rank))
    )
    return lattice, v


@st.composite
def typed_vector_pair(draw, bound=6):
    key = draw(st.sampled_from(TYPE_KEYS))
    lattice = lattice_for(key)
    size = lattice.rank
    v = tuple(draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size)))
    w = tuple(draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size)))
    return lattice, v, w


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
    assert len(enumerate_roots(lattice_for(key))) == ROOT_COUNTS[key]


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


@given(typed_vector_pair())
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


@given(typed_vector())
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
    per_norm = Counter(-norm(lattice, v) // 2 for v in shell)
    assert [per_norm[k] for k in range(6)] == THETA_COUNTS[key]
    assert len(shell) == sum(THETA_COUNTS[key])


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
