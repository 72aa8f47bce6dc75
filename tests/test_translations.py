"""The unipotent action on homology and its mod-2 shadow."""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelines.lattices import (
    H2ClassX,
    SexticType,
    UnsupportedTypeError,
    base_line_class_x,
    fiber_class_x,
    line_class_on_X,
    pairing_x,
    vadd,
    vectors_with_norm_at_least,
)
from conelines.mod2 import q0, reduce_mod2, zero_residue
from conelines.translations import (
    H1Mod2Class,
    conic_count,
    coset_representative,
    mw_act_h1_mod2,
    mw_act_h2,
    realizable_mod2,
)
from conftest import TYPE_KEYS, lattice_for, src_env

ACT_KEYS = ("4|0", "3|0", "2|0", "1|1", "0|2")


@st.composite
def lattice_vectors_and_class(draw):
    lattice = lattice_for(draw(st.sampled_from(ACT_KEYS)))
    size = lattice.rank
    ints = st.integers(-4, 4)
    v = tuple(draw(st.lists(ints, min_size=size, max_size=size)))
    w = tuple(draw(st.lists(ints, min_size=size, max_size=size)))
    x = H2ClassX(
        draw(st.integers(-5, 5)),
        tuple(draw(st.lists(ints, min_size=size, max_size=size))),
        draw(st.integers(-2, 2)),
    )
    return lattice, v, w, x


@given(lattice_vectors_and_class())
@settings(max_examples=150)
def test_action_composes_additively(data):
    lattice, v, w, x = data
    assert mw_act_h2(lattice, v, mw_act_h2(lattice, w, x)) == mw_act_h2(
        lattice, vadd(v, w), x
    )
    zero = tuple(0 for _ in range(lattice.rank))
    assert mw_act_h2(lattice, zero, x) == x


@given(lattice_vectors_and_class())
@settings(max_examples=150)
def test_action_preserves_the_intersection_form(data):
    lattice, v, w, x = data
    y = H2ClassX(1, w, -1)
    assert pairing_x(lattice, mw_act_h2(lattice, v, x), mw_act_h2(lattice, v, y)) == pairing_x(
        lattice, x, y
    )


@given(lattice_vectors_and_class())
def test_action_fixes_the_fiber_and_moves_the_base_section(data):
    lattice, v, _, _ = data
    fiber = fiber_class_x(lattice)
    assert mw_act_h2(lattice, v, fiber) == fiber
    assert mw_act_h2(lattice, v, base_line_class_x(lattice)) == line_class_on_X(lattice, v)


@given(lattice_vectors_and_class())
@settings(max_examples=100)
def test_mod2_shadow_commutes_with_reduction(data):
    lattice, v, _, x = data
    shadow = H1Mod2Class(x.canon % 2, reduce_mod2(lattice, x.lattice_part), x.line % 2)
    moved = mw_act_h2(lattice, v, x)
    assert mw_act_h1_mod2(lattice, v, shadow) == H1Mod2Class(
        moved.canon % 2, reduce_mod2(lattice, moved.lattice_part), moved.line % 2
    )


def test_coset_representative_is_constant_on_cosets(d4_band):
    from conelines.mod2 import all_residues, radical_elements

    for x in all_residues(d4_band):
        rep = coset_representative(x)
        for r in radical_elements(d4_band):
            assert coset_representative(x + r) == rep
        assert coset_representative(rep) == rep


def test_parity_bound_types_constrain_the_fiber_bit():
    from conelines.mod2 import all_residues

    # exactly these types force the fiber bit; every other non-band type
    # realizes both bits over every vanishing class
    bound = {"4|0", "1|1", "0|4"}
    for key in TYPE_KEYS:
        if key == "|||":
            continue
        lattice = lattice_for(key)
        surface = SexticType.from_key(key).surface()
        for v in all_residues(lattice):
            for mu in (0, 1):
                x = H1Mod2Class(mu, v, 1)
                expected = mu == q0(x.v_part) if key in bound else True
                assert realizable_mod2(surface, x) == expected, (key, mu, v.bits)


def test_unbounded_types_realize_both_fiber_bits(d6):
    surface = SexticType.from_key("2|0").surface()
    x = H1Mod2Class(0, zero_residue(d6), 1)
    y = H1Mod2Class(1, zero_residue(d6), 1)
    assert realizable_mod2(surface, x) and realizable_mod2(surface, y)


def test_realizability_rejects_non_sections(e8):
    surface = SexticType.from_key("4|0").surface()
    with pytest.raises(ValueError):
        realizable_mod2(surface, H1Mod2Class(0, zero_residue(e8), 0))


def test_realizability_rejects_the_double_klein(d4_band):
    surface = SexticType.from_key("|||").surface()
    with pytest.raises(UnsupportedTypeError):
        realizable_mod2(surface, H1Mod2Class(0, zero_residue(d4_band), 1))


def test_conic_count_arithmetic():
    assert conic_count(120, 24, 24) == 48
    assert conic_count(24, 24, 24) == 0
    with pytest.raises(ValueError):
        conic_count(121, 24, 24)


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_coset_representative_is_lexicographically_least(key):
    from conelines.mod2 import all_residues, radical_elements

    lattice = lattice_for(key)
    radical = radical_elements(lattice)
    for x in all_residues(lattice):
        rep = coset_representative(x)
        assert min((x + r).bits for r in radical) == rep.bits

@pytest.mark.parametrize("key", ["1|1", "4|0"])
def test_scan_realizability_script(key):
    script = Path(__file__).resolve().parent.parent / "scripts" / "scan_realizability.py"
    done = subprocess.run(
        [sys.executable, str(script), "--type", key, "--floor", "-4"],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    size = len(vectors_with_norm_at_least(lattice_for(key), -4))
    assert lines[0] == f"type {key}: {size} vectors with self-pairing >= -4"
    assert "vectors whose fiber bit disagrees with the refinement: 0" in lines
