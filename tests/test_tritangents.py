"""Structural invariants of the tritangent classification."""

from collections import Counter

import pytest

from conelines.lattices import is_root
from conelines.mod2 import all_residues, radical_elements, reduce_mod2
from conelines.tritangents import (
    TritangentType,
    boundary_delta,
    enumerate_tritangents,
    oval_bridge_split,
    pair_census,
    real_tritangent_total,
    type_census,
)
from conelines.lattices import SexticType
from conftest import TYPE_KEYS, lattice_for

TANGENCY_COUNT = {
    TritangentType.T0: 0,
    TritangentType.T0_STAR: 0,
    TritangentType.T1: 1,
    TritangentType.T2: 2,
    TritangentType.T3: 3,
}


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


def test_oval_bridge_split_is_a_supported_decomposition(d6):
    for t in enumerate_tritangents(SexticType.from_key("2|0")):
        x = reduce_mod2(d6, t.root_pair[0])
        split = oval_bridge_split(d6, x)
        assert split.v_oval + split.v_bridge == x
        assert set(split.v_oval.support()) <= set(d6.oval_indices)
        assert set(split.v_bridge.support()) <= set(d6.bridge_indices)


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


def test_cup_type_census_by_tangent_pattern():
    # the inner/tangent pair census of the four-oval curve covers each of
    # the 15 proper tangency sets with 8 inner partners, exactly once each
    census = pair_census(SexticType.from_key("4|0"))
    tallies = Counter(s_tan for _, s_tan in census)
    assert sorted(tallies.values()) == [8] * 15
    assert set(census.values()) == {1}
