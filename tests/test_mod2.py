"""Mod-2 residues, the quadratic refinement, and root lifting."""

import dataclasses
import itertools
import math
import re
from collections import Counter

import pytest
from hypothesis import given

from conelines.cli import gram_fault
from conelines.intlinalg import smith_normal_form
from conelines.lattices import enumerate_roots, norm, root_pairs, unit_vec, vectors_with_norm_at_least
from conelines.mod2 import (
    Mod2Vector,
    NoRootLiftError,
    all_residues,
    in_radical,
    lift_to_root,
    mod2_pair,
    q0,
    q_on_R,
    radical_elements,
    reduce_mod2,
    strata_profile,
    zero_residue,
)
from conelines.translations import coset_representative, shell_classes
from conftest import (
    FAULTED_IDS,
    TYPE_KEYS,
    assert_rejected,
    lattice_and_vectors,
    lattice_for,
    lattices_and_a_faulted_e8,
    odd_residues_outside_r1,
)

#: (call, exception type, message) for inputs the public functions refuse.
REJECTIONS = [
    pytest.param(
        lambda: zero_residue(lattice_for("4|0")) + zero_residue(lattice_for("3|0")),
        ValueError,
        "cannot add residues of different lattices",
        id="add-across-lattices",
    ),
    pytest.param(
        # E8 is unimodular: its radical is zero
        lambda: q_on_R(Mod2Vector(unit_vec(8, 0), lattice_for("4|0"))),
        ValueError,
        "the Z/4 form is defined on the radical only",
        id="q-on-R-off-the-radical",
    ),
    pytest.param(
        lambda: lift_to_root(lattice_for("4|0"), zero_residue(lattice_for("3|0"))),
        ValueError,
        "residue belongs to a different lattice",
        id="lift-across-lattices",
    ),
    pytest.param(
        lambda: Mod2Vector([1, 0, 0, 0, 0, 0], lattice_for("2|0")),
        ValueError,
        "the bits of a residue are a tuple, not [1, 0, 0, 0, 0, 0]",
        id="residue-bits-not-a-tuple",
    ),
    pytest.param(
        lambda: Mod2Vector((1.0, 0, 0, 0, 0, 0, 0, 0), lattice_for("4|0")), ValueError, "bits must be 0 or 1", id="bit-1.0"
    ),
]


@pytest.mark.parametrize("call,error,message", REJECTIONS)
def test_bad_inputs_are_rejected(call, error, message):
    assert_rejected(call, error, message)


@given(lattice_and_vectors(2, 4))
def test_q0_is_a_quadratic_refinement(data):
    lattice, v, w = data
    x, y = reduce_mod2(lattice, v), reduce_mod2(lattice, w)
    assert (q0(x) + q0(y) + mod2_pair(x, y)) % 2 == q0(x + y)


@given(lattice_and_vectors(2, 4))
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


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_the_quotient_is_interned_once_per_lattice(key):
    lattice = lattice_for(key)
    residues = all_residues(lattice)
    assert [x.bits for x in residues] == list(itertools.product((0, 1), repeat=lattice.rank))
    interned = {x.bits: x for x in residues}
    for x in residues:
        lift = tuple(b - 2 * i for i, b in enumerate(x.bits))
        assert reduce_mod2(lattice, lift) is x
        assert x + zero_residue(lattice) is x
        least = min((x + r for r in radical_elements(lattice)), key=lambda y: y.bits)
        rep = interned[least.bits]
        # A residue built outside the table is an equal key: its own
        # representative, and the least sum computed from it, are both the
        # interned one, and q0 agrees on the two.
        fresh = Mod2Vector(x.bits, lattice)
        assert fresh == x and fresh is not x and hash(fresh) == hash(x)
        assert coset_representative(x) is coset_representative(fresh) is rep
        assert min((fresh + r for r in radical_elements(lattice)), key=lambda y: y.bits) is rep
        assert q0(x) == (norm(lattice, x.bits) // 2) & 1 == q0(fresh)
    assert zero_residue(lattice) is residues[0]


@pytest.mark.parametrize("lattice", lattices_and_a_faulted_e8(), ids=FAULTED_IDS)
def test_shell_classes_match_a_count_over_fresh_residues(lattice):
    radical = [Mod2Vector(r.bits, lattice) for r in radical_elements(lattice)]
    classes = []
    for w in vectors_with_norm_at_least(lattice, -10):
        bits = tuple(c % 2 for c in w)
        classes.append((norm(lattice, w), min(tuple(a ^ b for a, b in zip(bits, r.bits)) for r in radical)))
    for floor in (-2, -6, -10):
        expected = Counter(((n // 2) % 2, rep) for n, rep in classes if n >= floor)
        assert shell_classes(lattice, floor) == expected, floor
    assert shell_classes(lattice, 1) == Counter()
    # A fiber bit taken from the coset's q0 instead of the vector's own norm
    # is right only where q0 vanishes on the radical; the faulted E8 (A1 + E7)
    # is not such a lattice, so it catches that shortcut.
    from_q0 = Counter((q0(Mod2Vector(rep, lattice)), rep) for _, rep in classes)
    assert (from_q0 == expected) == all(q0(r) == 0 for r in radical)


#: (root pairs, |W|) per lattice, in the order of ``lattices_and_a_faulted_e8``.
ROOT_PAIRS_AND_W = (
    *((n, n) for n in (120, 63, 30, 13, 4, 12, 12, 3, 2, 1, 0)),
    (64, 127),
)


@pytest.mark.parametrize(
    "lattice,sizes", zip(lattices_and_a_faulted_e8(), ROOT_PAIRS_AND_W), ids=FAULTED_IDS
)
def test_root_pairs_reduce_one_to_one_onto_w_except_on_the_faulted_e8(lattice, sizes):
    # A second route to the census totals: W is counted from q0 and the Z/4
    # form alone, and each root pair reduces to its own class of W.  On the
    # faulted E8 (A1 + E7) the reduction is still one-to-one but misses
    # most of W, so the two routes part.
    images = [reduce_mod2(lattice, e) for e, _ in root_pairs(lattice)]
    w = odd_residues_outside_r1(lattice)
    assert len(set(images)) == len(images)
    assert set(images) <= w
    assert (len(images), len(w)) == sizes


def _mod_2_split_at_norm_minus_4(lattice) -> tuple[int, int, int, Counter]:
    """Classes and vectors of the -4 shell, the vectors in the zero class,
    and how many nonzero classes hold n vectors of fiber bit mu with q0 = q,
    keyed by (mu, q, n)."""
    hits = shell_classes(lattice, -4)
    split = Counter(
        (mu, q0(Mod2Vector(bits, lattice)), n) for (mu, bits), n in hits.items() if any(bits)
    )
    return len(hits), hits.total(), hits[0, (0,) * lattice.rank], split


def test_e8_mod_2_has_one_plus_120_plus_135_classes(e8):
    # E8/2E8 (Conway and Sloane, SPLAG ch. 4 section 8.1): the zero class,
    # 120 classes of q0 = 1 each holding a root pair +-r (norm -2, fiber
    # bit 1), and 135 nonzero classes of q0 = 0 each holding 16 vectors of
    # norm -4 (fiber bit 0): 1 + 240 + 2160 vectors of norm >= -4.  This
    # witnesses the 4|0 strata row and the mod-2 table together.
    assert _mod_2_split_at_norm_minus_4(e8) == (256, 2401, 1, {(1, 1, 2): 120, (0, 0, 16): 135})
    with gram_fault():
        faulted = lattice_for("4|0")
    assert _mod_2_split_at_norm_minus_4(faulted) != _mod_2_split_at_norm_minus_4(e8)


#: Sorted sizes of the Weyl group's orbits on L/2L, per irreducible root lattice.
WEYL_ORBIT_SIZES = {"A1": (1, 1), "D4": (1, 1, 1, 1, 12), "D6": (1, 1, 1, 1, 30, 30), "E7": (1, 1, 63, 63), "E8": (1, 120, 135)}


def _orbit_sizes_of(name: str) -> list[int]:
    """The orbit sizes a Dynkin name such as "D4+A1" or "4A1" predicts: a
    direct sum's orbits are the products of its summands' orbits."""
    parts = [] if name == "0" else [re.fullmatch(r"(\d*)([ADE]\d)", part).groups() for part in name.split("+")]
    factors = [WEYL_ORBIT_SIZES[kind] for times, kind in parts for _ in range(int(times or 1))]
    return sorted(map(math.prod, itertools.product(*factors)))


def _weyl_orbits(lattice) -> list[set]:
    """The residues closed under x -> x + (x.r) r, r the residue of each root."""
    reflections = {reduce_mod2(lattice, e) for e in enumerate_roots(lattice)}
    orbits: list[set] = []
    for x in all_residues(lattice):
        if any(x in orbit for orbit in orbits):
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            images = {y + r for r in reflections if mod2_pair(y, r)} - orbit
            orbit |= images
            frontier += images
        orbits.append(orbit)
    return orbits


#: Sorted orbit sizes that differ from the Dynkin name's, in the order of
#: ``lattices_and_a_faulted_e8``: the faulted E8 is A1 + E7.
ORBIT_SIZES_OFF_THE_NAME = (*(None for _ in TYPE_KEYS), [1, 1, 1, 1, 63, 63, 63, 63])


@pytest.mark.parametrize(
    "lattice,off_the_name", zip(lattices_and_a_faulted_e8(), ORBIT_SIZES_OFF_THE_NAME), ids=FAULTED_IDS
)
def test_weyl_orbits_hold_equal_shells_and_follow_the_dynkin_name(lattice, off_the_name):
    # A reflection preserves the norm, so the residues of one orbit hold
    # equally many vectors of each norm.  The faulted E8 is consistent with
    # its own Weyl group, so only the orbit sizes catch it.
    shells = Counter((reduce_mod2(lattice, w), norm(lattice, w)) for w in vectors_with_norm_at_least(lattice, -10))
    orbits = _weyl_orbits(lattice)
    for orbit in orbits:
        profiles = {tuple(shells[x, n] for n in range(0, -11, -2)) for x in orbit}
        assert len(profiles) == 1, profiles
    sizes = sorted(map(len, orbits))
    assert sum(sizes) == len(all_residues(lattice))
    if off_the_name is None:
        assert sizes == _orbit_sizes_of(lattice.name)
    else:
        assert sizes == off_the_name != _orbit_sizes_of(lattice.name)


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_the_constructor_still_checks_every_residue(key):
    lattice = lattice_for(key)
    n = lattice.rank
    for bad in ((0,) * (n + 1), (1,) * (n + 2)):
        with pytest.raises(ValueError, match="bit length does not match the lattice rank"):
            Mod2Vector(bad, lattice)
        with pytest.raises(ValueError, match="bit length does not match the lattice rank"):
            reduce_mod2(lattice, bad)
    for i in range(n):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            Mod2Vector(tuple(2 * (j == i) for j in range(n)), lattice)
    message = "bits must be 0 or 1" if n == 2 else "bit length does not match the lattice rank"
    with pytest.raises(ValueError, match=message):
        Mod2Vector((0, 2), lattice)


def test_a_residue_copy_is_equal_and_hashes_alike(e8):
    x = reduce_mod2(e8, (1, 1) + (0,) * 6)
    copy = dataclasses.replace(x)
    assert copy == x and copy is not x and hash(copy) == hash(x)
    # D4 and 4A1 have one rank: the same bits on another lattice differ.
    assert Mod2Vector((0, 1, 0, 0), lattice_for("1|1")) != Mod2Vector((0, 1, 0, 0), lattice_for("0|0"))


def test_a_faulted_lattice_gets_its_own_cache_entries(e8):
    clean = {x.bits: x for x in all_residues(e8)}
    with gram_fault():
        faulted = lattice_for("4|0")
    assert faulted != e8 and hash(faulted) != hash(e8)
    # Equal, not identical: an earlier faulted build may hold the entry.
    assert all(x.lattice == faulted and x is not clean[x.bits] for x in all_residues(faulted))
    assert len(enumerate_roots(faulted)) != len(enumerate_roots(e8))
    # O1 + B12 is a root of E8 but has norm -4 once their edge is gone.
    v = (1, 1) + (0,) * 6
    assert (q0(reduce_mod2(e8, v)), q0(reduce_mod2(faulted, v))) == (1, 0)
    assert all(clean[x.bits] is x for x in all_residues(lattice_for("4|0")))
