"""The unipotent action on homology and its mod-2 shadow."""

import re
import subprocess
import sys
from collections import Counter
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
from conelines.mod2 import all_residues, q0, reduce_mod2, zero_residue
from conelines.translations import (
    H1Mod2Class,
    conic_count,
    coset_representative,
    mw_act_h1_mod2,
    mw_act_h2,
    realizable_mod2,
    shell_classes,
)
from conftest import FAULTED_IDS, TYPE_KEYS, assert_rejected, lattice_for, lattices_and_a_faulted_e8, src_env

ACT_KEYS = ("4|0", "3|0", "2|0", "1|1", "0|2")

SCAN_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scan_realizability.py"

#: (call, exception type, message) for inputs the public functions refuse.
REJECTIONS = [
    pytest.param(
        lambda: H1Mod2Class(2, zero_residue(lattice_for("4|0")), 1),
        ValueError,
        "mu and nu must be bits",
        id="mu-not-a-bit",
    ),
    pytest.param(
        lambda: H1Mod2Class(0, zero_residue(lattice_for("4|0")), 2),
        ValueError,
        "mu and nu must be bits",
        id="nu-not-a-bit",
    ),
    pytest.param(
        lambda: realizable_mod2(
            SexticType.from_key("4|0").surface(), H1Mod2Class(1, zero_residue(lattice_for("2|0")), 1)
        ),
        ValueError,
        "the class's residue is not on the lattice of K#4T2",
        id="realizable-across-lattices",
    ),
    pytest.param(
        lambda: H2ClassX(0, [1, 0, 0, 0, 0, 0, 0, 0], 1),
        ValueError,
        "the lattice part of a class is a tuple, not [1, 0, 0, 0, 0, 0, 0, 0]",
        id="h2-lattice-part-not-a-tuple",
    ),
    pytest.param(
        lambda: H1Mod2Class(1.0, zero_residue(lattice_for("4|0")), 1), ValueError, "mu and nu must be bits", id="mu-1.0"
    ),
    pytest.param(
        lambda: mw_act_h2(lattice_for("4|0"), (0,) * 9, base_line_class_x(lattice_for("4|0"))),
        ValueError,
        "coordinate length mismatch: rank 8, got 8 and 9",
        id="mw-act-h2-vector-length",
    ),
    pytest.param(
        lambda: mw_act_h2(lattice_for("4|0"), (0,) * 8, H2ClassX(0, (0,) * 7, 1)),
        ValueError,
        "coordinate length mismatch: rank 8, got 7 and 8",
        id="mw-act-h2-class-length",
    ),
]


@pytest.mark.parametrize("call,error,message", REJECTIONS)
def test_bad_inputs_are_rejected(call, error, message):
    assert_rejected(call, error, message)


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


def test_mismatched_lattices_and_lengths_are_rejected(e8, d4_band):
    # Each check lives in the callee alone: Mod2Vector, mod2_pair and pair.
    with pytest.raises(ValueError, match="bit length does not match the lattice rank"):
        reduce_mod2(e8, (0,) * (e8.rank - 1))
    other = H1Mod2Class(0, zero_residue(lattice_for("1|1")), 1)
    assert d4_band.rank == other.v_part.lattice.rank
    for lattice in (e8, d4_band):
        with pytest.raises(ValueError, match="cannot pair residues of different lattices"):
            mw_act_h1_mod2(lattice, (0,) * lattice.rank, other)
    with pytest.raises(ValueError, match="coordinate length mismatch"):
        line_class_on_X(e8, (1,) * (e8.rank + 1))


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
    done = subprocess.run(
        [sys.executable, str(SCAN_SCRIPT), "--type", key, "--floor", "-4"],
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


@pytest.mark.parametrize("key", ["9|9", "K#T2"])
def test_scan_realizability_rejects_a_bad_type_with_a_usage_message(key):
    done = subprocess.run(
        [sys.executable, str(SCAN_SCRIPT), "--type", key],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert "usage:" in done.stderr and "sextic type" in done.stderr
    assert "Traceback" not in done.stderr


# Theta series of the negated lattices, as integer coefficient lists in
# t = q^(1/4) up to t^_TOP, so that theta_2's quarter powers stay integral:
# the coefficient of t^(4m) counts the vectors v with -v.v = m.
_THETA_FLOOR = -20
_TOP = -4 * _THETA_FLOOR


def _sum_over_z(exponent, sign=lambda x: 1) -> list[int]:
    """sum over integers x of sign(x) t^exponent(x), truncated at t^_TOP."""
    series = [0] * (_TOP + 1)
    for x in range(-_TOP, _TOP + 1):
        if exponent(x) <= _TOP:
            series[exponent(x)] += sign(x)
    return series


def _mul(*factors: list[int]) -> list[int]:
    product = [1] + [0] * _TOP
    for factor in factors:
        product = [sum(product[i] * factor[k - i] for i in range(k + 1)) for k in range(_TOP + 1)]
    return product


def _add(*terms: list[int]) -> list[int]:
    return [sum(column) for column in zip(*terms)]


_THETA_2 = _sum_over_z(lambda x: (2 * x + 1) ** 2)  # sum q^((x + 1/2)^2)
_THETA_3 = _sum_over_z(lambda x: 4 * x * x)  # sum q^(x^2)
_THETA_4 = _sum_over_z(lambda x: 4 * x * x, lambda x: 1 - 2 * (x % 2))  # (-1)^x; (-1) ** -1 is a float
_THETA_2_AT_2Z = _sum_over_z(lambda x: 2 * (2 * x + 1) ** 2)
_THETA_3_AT_2Z = _sum_over_z(lambda x: 8 * x * x)


def _theta(kind: str, n: int) -> list[int]:
    """The theta series of A_1, D_n, E_7 or E_8 (Conway and Sloane, SPLAG ch. 4)."""
    if (kind, n) == ("A", 1):
        return _THETA_3_AT_2Z
    if kind == "D":
        return [(a + b) // 2 for a, b in zip(_mul(*[_THETA_3] * n), _mul(*[_THETA_4] * n))]
    if (kind, n) == ("E", 7):
        seven = _mul(*[_THETA_3_AT_2Z] * 3, *[_THETA_2_AT_2Z] * 4)
        return _add(_mul(*[_THETA_3_AT_2Z] * 7), *[seven] * 7)
    assert (kind, n) == ("E", 8)
    return [s // 2 for s in _add(*(_mul(*[theta] * 8) for theta in (_THETA_2, _THETA_3, _THETA_4)))]


def _theta_of_system(system: str) -> list[int]:
    """A direct sum's theta series is the product of its summands' ("4A1", "D4+A1", "0")."""
    factors = []
    for part in system.split("+") if system != "0" else ():
        times, kind, n = re.fullmatch(r"(\d*)([ADE])(\d+)", part).groups()
        factors += [_theta(kind, int(n))] * int(times or 1)
    return _mul(*factors)


_LATTICES_AND_FAULTED_E8 = lattices_and_a_faulted_e8()
#: The gram fault drops E8's O1-B12 edge, which splits off O1 as an A1.
_ROOT_SYSTEMS = (*(lattice.name for lattice in _LATTICES_AND_FAULTED_E8[:-1]), "A1+E7")


@pytest.mark.parametrize("lattice,system", zip(_LATTICES_AND_FAULTED_E8, _ROOT_SYSTEMS), ids=FAULTED_IDS)
def test_shell_classes_match_the_theta_series(lattice, system):
    # A vector of norm -2k has fiber bit k mod 2: bit 0 sits on the powers q^(4j) = t^(16j).
    theta = _theta_of_system(system)
    hits = shell_classes(lattice, _THETA_FLOOR)
    assert hits.total() == sum(theta)
    assert sum(count for (mu, _), count in hits.items() if mu == 0) == sum(theta[::16])


def _sigma3(k: int) -> int:
    return sum(d**3 for d in range(1, k + 1) if k % d == 0)


def test_e8_shell_classes_follow_the_closed_form(e8):
    # W(E8) has three orbits on E8/2E8: zero, the 120 classes with q0 = 1 and
    # the other 135 (Conway and Sloane, SPLAG ch. 4 sec. 8.1).  A vector of
    # norm -2k lies in 2E8 exactly when it is twice one of norm -k/2, so the
    # E8 theta series theta[k] = 240 sigma_3(k) splits over the classes in
    # closed form.
    theta = [1, *(240 * _sigma3(k) for k in range(1, 6))]
    zero = zero_residue(e8)
    residues = all_residues(e8)
    assert len({coset_representative(r).bits for r in residues}) == 256
    below = Counter()
    for k in range(6):
        within = shell_classes(e8, -2 * k)
        shell, below = within - below, within
        doubled = theta[k // 4] if k % 4 == 0 else 0
        assert {mu for mu, _ in shell} == {k % 2}
        for r in residues:
            if r == zero:
                expected = doubled
            elif q0(r):
                expected = theta[k] // 120 if k % 2 else 0
            else:
                expected = 0 if k % 2 else (theta[k] - doubled) // 135
            assert shell[k % 2, coset_representative(r).bits] == expected, (k, r)
