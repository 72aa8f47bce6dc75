"""Structural invariants of the tritangent classification."""

import dataclasses
from collections import Counter

import pytest

from conelines import lattices
from conelines.lattices import SexticType, SurfaceType, UnsupportedTypeError, build_lattice, is_root, unit_vec
from conelines.mod2 import Mod2Vector, all_residues, radical_elements, reduce_mod2, zero_residue
from conelines.tritangents import (
    TritangentType,
    _code,
    boundary_delta,
    classify_root,
    code_census,
    enumerate_tritangents,
    oval_bridge_split,
    pair_census,
    real_tritangent_total,
    threeJ_grouping,
    type_census,
)
from conftest import HANDLE_KEYS, TYPE_KEYS, assert_rejected, lattice_for, odd_residues_outside_r1

OVAL_KEYS = tuple(key for key in TYPE_KEYS if SexticType.from_key(key).pos_ovals)

TANGENCY_COUNT = {
    TritangentType.T0: 0,
    TritangentType.T0_STAR: 0,
    TritangentType.T1: 1,
    TritangentType.T2: 2,
    TritangentType.T3: 3,
}

#: (call, exception type, message) for inputs the public functions refuse.
REJECTIONS = [
    pytest.param(
        lambda: oval_bridge_split(lattice_for("0|2"), zero_residue(lattice_for("0|2"))),
        UnsupportedTypeError,
        "type 0|2 has no oval/bridge splitting (no ovals in the basis)",
        id="split-without-ovals",
    ),
    pytest.param(
        lambda: oval_bridge_split(lattice_for("|||"), zero_residue(lattice_for("|||"))),
        UnsupportedTypeError,
        "type ||| has no oval/bridge splitting (no ovals in the basis)",
        id="split-on-bands",
    ),
    pytest.param(
        lambda: oval_bridge_split(lattice_for("4|0"), zero_residue(lattice_for("3|0"))),
        ValueError,
        "residue belongs to a different lattice",
        id="split-across-lattices",
    ),
    pytest.param(
        # position 0 of E8 holds the oval O1
        lambda: boundary_delta(lattice_for("4|0"), Mod2Vector(unit_vec(8, 0), lattice_for("4|0"))),
        ValueError,
        "input must be supported on bridge positions",
        id="boundary-of-an-oval",
    ),
    pytest.param(
        lambda: boundary_delta(lattice_for("4|0"), zero_residue(lattice_for("1|1"))),
        ValueError,
        "residue belongs to a different lattice",
        id="boundary-across-lattices",
    ),
    pytest.param(
        # the same rank, so only the lattice check can tell
        lambda: boundary_delta(lattice_for("1|1"), Mod2Vector((0, 1, 0, 0), lattice_for("0|0"))),
        ValueError,
        "residue belongs to a different lattice",
        id="boundary-across-lattices-of-one-rank",
    ),
    pytest.param(
        lambda: classify_root(lattice_for("4|0"), (0,) * 8),
        ValueError,
        "not a root of the 4|0 lattice: (0, 0, 0, 0, 0, 0, 0, 0)",
        id="classify-the-zero-vector",
    ),
    pytest.param(
        lambda: classify_root(lattice_for("0|2"), (1, 2, 3)),
        ValueError,
        "not a root of the 0|2 lattice: (1, 2, 3)",
        id="classify-a-vector-of-the-wrong-length",
    ),
    pytest.param(
        lambda: classify_root(lattice_for("|||"), (5, 0, 0, 0)),
        ValueError,
        "not a root of the ||| lattice: (5, 0, 0, 0)",
        id="classify-a-long-vector-on-bands",
    ),
    # a surface type reaches its lattice through .sextic() only
    *(
        pytest.param(
            lambda call=call, surface=surface: call(surface),
            ValueError,
            f"build_lattice takes a SexticType, not {surface!r}",
            id=f"{call.__name__}-of-a-surface-type",
        )
        for call, surface in (
            (build_lattice, SurfaceType(4, 0)),
            (code_census, SurfaceType(4, 0)),
            (enumerate_tritangents, SurfaceType(1, 1)),
            (pair_census, SurfaceType(0, 2)),
            (real_tritangent_total, SurfaceType(4, 0)),
            (type_census, SurfaceType(0, 0, double_klein=True)),
        )
    ),
]


@pytest.mark.parametrize("call,error,message", REJECTIONS)
def test_bad_inputs_are_rejected(call, error, message):
    assert_rejected(call, error, message)


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_each_tritangent_is_a_root_pair(key):
    lattice = lattice_for(key)
    sextic = SexticType.from_key(key)
    for t in enumerate_tritangents(sextic):
        plus, minus = t.root_pair
        assert is_root(lattice, plus)
        assert minus == tuple(-c for c in plus)


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_tangency_count_matches_type(key):
    sextic = SexticType.from_key(key)
    ovals = set(range(1, sextic.pos_ovals + 1))
    for t in enumerate_tritangents(sextic):
        assert len(t.s_tan) == TANGENCY_COUNT[t.ttype]
        assert t.s_in <= ovals
        assert t.s_tan <= ovals


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_pair_census_partitions_the_census(key):
    sextic = SexticType.from_key(key)
    census = pair_census(sextic)
    assert sum(census.values()) == sum(type_census(sextic).values())


def test_distinct_roots_per_tritangent():
    for key in TYPE_KEYS:
        listing = enumerate_tritangents(SexticType.from_key(key))
        assert len({t.root_pair for t in listing}) == len(listing)


@pytest.mark.parametrize(
    "key,total",
    [("4|0", 120), ("3|0", 63 + 1), ("1|1", 24), ("|||", 24), ("0|0", 4 + 4), ("0|4", 120)],
)
def test_both_halves_total(key, total):
    # positive tritangents of the type plus those of its mirror
    sextic = SexticType.from_key(key)
    assert real_tritangent_total(sextic) == total
    mirror = sextic.mirror()
    assert real_tritangent_total(sextic) == sum(type_census(sextic).values()) + sum(
        type_census(mirror).values()
    )


@pytest.mark.parametrize("key", OVAL_KEYS)
def test_oval_bridge_split_is_a_supported_decomposition(key):
    lattice = lattice_for(key)
    for t in enumerate_tritangents(lattice.sextic):
        x = reduce_mod2(lattice, t.root_pair[0])
        split = oval_bridge_split(lattice, x)
        assert split.v_oval + split.v_bridge == x
        assert set(split.v_oval.support()) <= set(lattice.oval_indices)
        assert set(split.v_bridge.support()) <= set(lattice.bridge_indices)


def test_the_band_groups_are_the_nonzero_cosets_of_the_radical(d4_band):
    # The cosets are built here as sets x + R, not read from the library's
    # coset representatives.  The three groups fill the three cosets besides
    # R itself; the outer bridges lie in J1's and the central bridge in BAND_A's.
    radical = frozenset(radical_elements(d4_band))
    assert len(radical) == 4
    cosets = {}
    for label, group in threeJ_grouping().items():
        (cosets[label],) = {frozenset(reduce_mod2(d4_band, t.root_pair[0]) + r for r in radical) for t in group}
    assert len(set(cosets.values())) == 3 and radical not in cosets.values()
    bridges = {name: reduce_mod2(d4_band, d4_band.basis_vector(i)) for i, name in enumerate(d4_band.basis_names)}
    assert {name for name, x in bridges.items() if x in cosets["J1"]} == {"B1", "B2", "B3"}
    assert {name for name, x in bridges.items() if x in cosets["BAND_A"]} == {"B0"}


def test_boundary_of_a_bridge_hits_its_ovals(d6):
    for t in enumerate_tritangents(SexticType.from_key("2|0")):
        x = reduce_mod2(d6, t.root_pair[0])
        split = oval_bridge_split(d6, x)
        delta = boundary_delta(d6, split.v_bridge)
        assert set(delta.support()) <= set(d6.oval_indices)


@pytest.mark.parametrize("key", ("4|0", "3|0", "2|0", "1|0", "1|1"))
def test_boundary_kernel_is_the_radical(key):
    # The boundary is read off the edge list and the radical off the form;
    # the bridge-supported residues with no boundary are the radical.
    lattice = lattice_for(key)
    bridge_supported = [
        x for x in all_residues(lattice) if not any(x.bits[i] for i in lattice.oval_indices)
    ]
    kernel = [x for x in bridge_supported if boundary_delta(lattice, x).is_zero()]
    assert kernel == list(radical_elements(lattice))


@pytest.mark.parametrize("key", HANDLE_KEYS)
def test_the_residues_of_w_classify_to_the_census_without_a_root(key):
    # A second route to the censuses: each residue of W (counted from q0
    # and the Z/4 form, see conftest) gets classify_root's invariants and
    # type rule without being lifted to a root.
    lattice = lattice_for(key)
    sextic = lattice.sextic
    types, pairs, codes = Counter(), Counter(), Counter()
    for x in odd_residues_outside_r1(lattice):
        split = oval_bridge_split(lattice, x)
        s_in = frozenset(lattice.oval_number(i) for i in split.v_oval.support())
        boundary = boundary_delta(lattice, split.v_bridge)
        s_tan = frozenset(lattice.oval_number(i) for i in boundary.support())
        if s_tan:
            ttype = (TritangentType.T1, TritangentType.T2, TritangentType.T3)[len(s_tan) - 1]
        elif len(s_in) == 1 and split.v_bridge.is_zero():
            ttype = TritangentType.T0_STAR
        else:
            ttype = TritangentType.T0
        types[ttype] += 1
        pairs[s_in, s_tan] += 1
        codes[_code(sextic, ttype, s_in, s_tan).serialize()] += 1
    assert {t: types[t] for t in TritangentType} == type_census(sextic)
    assert dict(pairs) == pair_census(sextic)
    assert codes == code_census(sextic)


def test_cup_type_census_by_tangent_pattern():
    # the inner/tangent pair census of the four-oval curve covers each of
    # the 15 proper tangency sets with 8 inner partners, exactly once each
    census = pair_census(SexticType.from_key("4|0"))
    tallies = Counter(s_tan for _, s_tan in census)
    assert sorted(tallies.values()) == [8] * 15
    assert set(census.values()) == {1}


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_a_cold_census_builds_no_residue_beyond_the_table(key, monkeypatch):
    # A fresh copy of the lattice carries no tables yet, the census
    # included, so enumerate_tritangents classifies every root again.
    fresh = dataclasses.replace(lattice_for(key))
    built = []
    check = Mod2Vector.__post_init__

    def counted(self):
        built.append(self.bits)
        check(self)

    monkeypatch.setattr(Mod2Vector, "__post_init__", counted)
    token = lattices._LATTICES.set({**lattices._LATTICES.get(), key: fresh})
    try:
        census = enumerate_tritangents(SexticType.from_key(key))
    finally:
        lattices._LATTICES.reset(token)
    assert len(census) == len(enumerate_tritangents(SexticType.from_key(key)))
    # The types with ovals split residues and the band type reads their
    # cosets of the radical; each of these builds its quotient once.
    sextic = fresh.sextic
    assert len(built) == (0 if not (sextic.pos_ovals or sextic.bands) else 1 << fresh.rank)
    assert len(set(built)) == len(built)
