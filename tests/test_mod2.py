"""Mod-2 residues, the quadratic refinement, and root lifting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conelines.intlinalg import smith_normal_form
from conelines.lattices import enumerate_roots, norm
from conelines.mod2 import (
    NoRootLiftError,
    all_residues,
    in_radical,
    lift_to_root,
    mod2_pair,
    q0,
    radical_elements,
    reduce_mod2,
    strata_profile,
    zero_residue,
)
from conftest import TYPE_KEYS, lattice_for


@st.composite
def residue_pair(draw):
    lattice = lattice_for(draw(st.sampled_from(TYPE_KEYS)))
    size = lattice.rank
    v = tuple(draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size)))
    w = tuple(draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size)))
    return lattice, v, w


@given(residue_pair())
def test_q0_is_a_quadratic_refinement(data):
    lattice, v, w = data
    x, y = reduce_mod2(lattice, v), reduce_mod2(lattice, w)
    assert (q0(x) + q0(y) + mod2_pair(x, y)) % 2 == q0(x + y)


@given(residue_pair())
def test_q0_reduces_the_integral_norm(data):
    lattice, v, _ = data
    assert q0(reduce_mod2(lattice, v)) == (norm(lattice, v) // 2) % 2


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_roots_reduce_into_the_odd_stratum(key):
    lattice = lattice_for(key)
    for e in enumerate_roots(lattice):
        assert q0(reduce_mod2(lattice, e)) == 1


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_radical_pairs_to_zero_with_everything(key):
    lattice = lattice_for(key)
    for r in radical_elements(lattice):
        assert in_radical(r)
        assert all(mod2_pair(r, x) == 0 for x in all_residues(lattice))


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_radical_size_matches_the_smith_form(key):
    # The radical of the form mod 2 is the kernel of the Gram matrix mod 2;
    # its dimension is the number of even invariant factors.
    lattice = lattice_for(key)
    even = sum(1 for d in smith_normal_form(lattice.gram).diagonal if d % 2 == 0)
    assert len(radical_elements(lattice)) == 2**even


def _odd_count_from_arf(lattice):
    """|V1| from the Arf invariant of q0 on V/R, with no census of V.

    If q0 is nonzero on the radical R, it is a nonzero linear form on each
    coset of R, hence odd on exactly half of V.  Otherwise q0 descends to
    the nondegenerate space V/R of dimension k, where a symplectic basis
    (e_i, f_i) gives Arf = sum q0(e_i) q0(f_i) and the classical count
    (2^k - (-1)^Arf 2^(k/2)) / 2 of odd classes, lifted |R| times.
    """
    n, radical = lattice.rank, radical_elements(lattice)
    if any(q0(r) for r in radical):
        return 2 ** (n - 1)
    pool = [reduce_mod2(lattice, tuple(int(i == j) for j in range(n))) for i in range(n)]
    zero = zero_residue(lattice)
    arf = k = 0
    while True:
        hyperbolic = next(((e, f) for e in pool for f in pool if mod2_pair(e, f)), None)
        if hyperbolic is None:
            break
        e, f = hyperbolic
        arf ^= q0(e) & q0(f)
        k += 2
        # project onto the orthogonal complement of the plane <e, f>
        pool = [
            x + (e if mod2_pair(x, f) else zero) + (f if mod2_pair(x, e) else zero)
            for x in pool
        ]
    # what is left spans the radical
    assert len(radical) == 2 ** (n - k)
    return len(radical) * (2**k - (-1) ** arf * 2 ** (k // 2)) // 2


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_odd_stratum_size_matches_the_arf_invariant(key):
    lattice = lattice_for(key)
    assert _odd_count_from_arf(lattice) == strata_profile(lattice).size_v1


def test_arf_counts_of_the_named_lattices():
    counts = {key: _odd_count_from_arf(lattice_for(key)) for key in ("4|0", "1|1", "|||", "0|4")}
    assert counts == {"4|0": 120, "1|1": 12, "|||": 12, "0|4": 0}


def test_radical_sizes_match_profile():
    for key in TYPE_KEYS:
        lattice = lattice_for(key)
        profile = strata_profile(lattice)
        assert len(radical_elements(lattice)) == profile.size_r
        assert len(all_residues(lattice)) == profile.size_v
        assert profile.size_v == 2**lattice.rank


def test_profile_counts_recount():
    lattice = lattice_for("2|0")
    profile = strata_profile(lattice)
    odd = [x for x in all_residues(lattice) if q0(x) == 1]
    assert profile.size_v1 == len(odd)
    assert profile.size_r1 == sum(1 for x in odd if in_radical(x))
    assert profile.size_v1_minus_r1 == profile.size_v1 - profile.size_r1


@pytest.mark.parametrize("key", ("4|0", "2|0", "1|1", "0|2"))
def test_lift_to_root_round_trips(key):
    lattice = lattice_for(key)
    root_classes = {reduce_mod2(lattice, e) for e in enumerate_roots(lattice)}
    for x in all_residues(lattice):
        if x in root_classes:
            plus, minus = lift_to_root(lattice, x)
            assert reduce_mod2(lattice, plus) == x
            assert norm(lattice, plus) == -2
            assert minus == tuple(-c for c in plus)
        else:
            with pytest.raises(NoRootLiftError):
                lift_to_root(lattice, x)


def test_zero_residue_is_even(e8):
    assert q0(zero_residue(e8)) == 0
    assert in_radical(zero_residue(e8))
