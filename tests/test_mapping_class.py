"""Fiberwise mapping classes: group laws and the translation map."""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelines.homology_action import split_twist_preimage
from conelines.intlinalg import quotient_invariants
from conelines.lattices import (
    SexticType,
    SurfaceType,
    UnsupportedTypeError,
    build_lattice,
    smul,
    unit_vec,
    vadd,
)
from conelines.mapping_class import (
    ModSElement,
    _coordinate_relators,
    _image_matrix,
    _translation_preimage,
    fiber_twist,
    from_linear_coordinates,
    handle_half_twist,
    in_translation_kernel,
    is_translation_class,
    linear_coordinates,
    mods_delta,
    mods_element,
    mods_group_structure,
    mods_identity,
    mods_inv,
    mods_mul,
    mods_pow,
    shift_components,
    split_twist,
    swap_components,
    translation_analysis,
    translation_class,
)
from conelines.verify import FROZEN
from conftest import HANDLE_KEYS, TYPE_KEYS, assert_rejected, lattice_and_vectors, lattice_for

SURFACES = tuple(SexticType.from_key(k).surface() for k in TYPE_KEYS)

K, K_S2, K_K, ONE, TWO = (SurfaceType.from_key(k) for k in ("K", "K+S2", "K+K", "K#T2", "K#2T2"))

#: (call, exception type, message) for inputs the public functions refuse.
REJECTIONS = [
    pytest.param(
        lambda: mods_mul(mods_identity(ONE), mods_identity(TWO)),
        ValueError,
        "elements live on different surfaces",
        id="mods-mul-across-surfaces",
    ),
    pytest.param(
        lambda: from_linear_coordinates(ONE, (0, 0)), ValueError, "expected 3 coordinates", id="coordinate-count"
    ),
    pytest.param(
        lambda: split_twist(TWO, 3), ValueError, "handle index 3 out of range for K#2T2", id="handle-index"
    ),
    pytest.param(
        lambda: fiber_twist(K_K),
        UnsupportedTypeError,
        "the double Klein bottle has no fiber-twist generator",
        id="fiber-twist-on-K+K",
    ),
    pytest.param(
        lambda: fiber_twist(K, 2),
        ValueError,
        "handle-free surfaces carry a single twist generator",
        id="fiber-twist-2-on-K",
    ),
    pytest.param(
        lambda: split_twist(K_S2, 1),
        UnsupportedTypeError,
        "K+S2 has no split-twist generators",
        id="split-twist-without-handles",
    ),
    pytest.param(
        lambda: handle_half_twist(K, 1),
        UnsupportedTypeError,
        "K has no half-twist generators",
        id="half-twist-without-handles",
    ),
    pytest.param(
        lambda: swap_components(ONE),
        UnsupportedTypeError,
        "component swap exists only on the double Klein bottle",
        id="swap-off-K+K",
    ),
    pytest.param(
        lambda: shift_components(K),
        UnsupportedTypeError,
        "component shift exists only on the double Klein bottle",
        id="shift-off-K+K",
    ),
    pytest.param(
        lambda: mods_delta(K_K),
        UnsupportedTypeError,
        "the double Klein bottle has no distinguished involution",
        id="delta-on-K+K",
    ),
    pytest.param(
        lambda: translation_class(lattice_for("4|0"), (0,) * 7),
        ValueError,
        "vector length differs from lattice rank",
        id="translation-class-length",
    ),
    pytest.param(
        # A caller's lattice whose bridge B2 touches an oval and a bridge.
        lambda: translation_class(
            dataclasses.replace(lattice_for("2|0"), edges=lattice_for("2|0").edges + ((4, 5),)), (0,) * 6
        ),
        UnsupportedTypeError,
        "no translation rule for basis class B2 of D6 (2|0)",
        id="translation-class-unexpected-adjacency",
    ),
    pytest.param(
        lambda: mods_element(TWO, (0.5, 0)), ValueError, "malformed element data for surface K#2T2", id="half-twist-0.5"
    ),
    pytest.param(
        lambda: mods_element(K_K, swap=1.5), ValueError, "malformed element data for surface K+K", id="swap-1.5"
    ),
    pytest.param(
        lambda: ModSElement(ONE, (0,), (0,), (0.5,)), ValueError, "malformed element data for surface K#T2", id="split-0.5"
    ),
    pytest.param(
        lambda: mods_pow(fiber_twist(TWO, 1), 0.5), ValueError, "a power takes an int exponent, not 0.5", id="power-0.5"
    ),
]


@pytest.mark.parametrize("call,error,message", REJECTIONS)
def test_bad_inputs_are_rejected(call, error, message):
    assert_rejected(call, error, message)


def random_element(draw, surface):
    if surface.double_klein:
        return mods_element(
            surface, swap=draw(st.integers(0, 1)), shift=draw(st.integers(0, 1))
        )
    p = surface.handles
    if p == 0:
        return mods_element(surface, fiber_twists=(draw(st.integers(-3, 3)),))
    ints = st.integers(-3, 3)
    return mods_element(
        surface,
        tuple(draw(st.integers(0, 1)) for _ in range(p)),
        tuple(draw(ints) for _ in range(p)),
        tuple(draw(ints) for _ in range(p)),
    )


@st.composite
def element_triple(draw):
    surface = draw(st.sampled_from(SURFACES))
    return surface, tuple(random_element(draw, surface) for _ in range(3))


@given(element_triple())
@settings(max_examples=150)
def test_the_group_is_abelian(data):
    surface, (g, h, k) = data
    assert mods_mul(g, h) == mods_mul(h, g)
    assert mods_mul(mods_mul(g, h), k) == mods_mul(g, mods_mul(h, k))
    one = mods_identity(surface)
    assert mods_mul(g, one) == g
    assert mods_mul(g, mods_inv(g)) == one


@given(element_triple(), st.integers(-4, 6))
@settings(max_examples=80)
def test_powers_agree_with_repeated_multiplication(data, k):
    surface, (g, _, _) = data
    acc = mods_identity(surface)
    step = g if k >= 0 else mods_inv(g)
    for _ in range(abs(k)):
        acc = mods_mul(acc, step)
    assert mods_pow(g, k) == acc


@given(element_triple())
@settings(max_examples=120)
def test_linear_coordinates_round_trip(data):
    surface, (g, _, _) = data
    assert from_linear_coordinates(surface, linear_coordinates(g)) == g


def carried_normal_form(surface, half_twists=(), fiber_twists=(), split_twists=(), swap=0, shift=0):
    """Raw exponents normalized by carrying half-twist squares into fiber twists.

    The reference the linear-coordinate normal form must agree with: the
    square of the i-th normalized half twist is the fiber twist at handle
    i times the inverse fiber twist at handle i+1, or times the fiber
    twist at handle 1 when i is the last handle.
    """
    if surface.double_klein:
        return ModSElement(surface, swap=swap % 2, shift=shift % 2)
    p = surface.handles
    if p == 0:
        return ModSElement(surface, fiber_twists=(sum(fiber_twists) % 2,))
    kappa, n = list(half_twists), list(fiber_twists)
    for i in range(p):
        q, kappa[i] = divmod(kappa[i], 2)
        if q:
            n[i] += q
            n[(i + 1) % p] += q if i == p - 1 else -q
    return ModSElement(surface, tuple(kappa), tuple(n), tuple(split_twists))


@st.composite
def raw_exponents(draw):
    surface = draw(st.sampled_from(SURFACES))
    ints = st.integers(-3, 3)
    if surface.double_klein:
        return surface, {"swap": draw(ints), "shift": draw(ints)}
    p = surface.handles
    if p == 0:
        return surface, {"fiber_twists": tuple(draw(st.lists(ints, max_size=3)))}
    slots = ("half_twists", "fiber_twists", "split_twists")
    return surface, {slot: tuple(draw(ints) for _ in range(p)) for slot in slots}


@given(raw_exponents())
@settings(max_examples=200)
def test_mods_element_agrees_with_the_carried_normal_form(data):
    surface, raw = data
    assert mods_element(surface, **raw) == carried_normal_form(surface, **raw)


@st.composite
def coordinate_tuples(draw):
    surface = draw(st.sampled_from(SURFACES))
    p = surface.handles
    dim = 2 if surface.double_klein else 2 * p + 1 if p else 1
    return surface, tuple(draw(st.lists(st.integers(), min_size=dim, max_size=dim)))


@given(coordinate_tuples())
@settings(max_examples=200)
def test_every_integer_tuple_of_the_right_length_is_a_coordinate_tuple(data):
    surface, coords = data
    g = from_linear_coordinates(surface, coords)
    # only the parity slot (or the swap/shift bits) is reduced mod 2
    parity = len(coords) - 1 if surface.handles else 0
    reduced = coords[:parity] + tuple(c % 2 for c in coords[parity:])
    assert linear_coordinates(g) == reduced
    for wrong in (coords + (0,), coords[:-1]):
        with pytest.raises(ValueError):
            from_linear_coordinates(surface, wrong)


@given(lattice_and_vectors(2, 4))
@settings(max_examples=150)
def test_translation_is_a_homomorphism(data):
    lattice, v, w = data
    assert translation_class(lattice, vadd(v, w)) == mods_mul(
        translation_class(lattice, v), translation_class(lattice, w)
    )


@given(lattice_and_vectors(2, 4))
@example((lattice_for("|||"), (1, 0, 1, 1), ()))
@example((lattice_for("0|4"), (), ()))
@settings(max_examples=100)
def test_translations_land_in_the_image(data):
    # The one solve behind membership and split-twist preimages finds a
    # vector translating to g on every surface, K+K and rank 0 included.
    lattice, v, _ = data
    g = translation_class(lattice, v)
    assert is_translation_class(g)
    w = _translation_preimage(lattice, g)
    assert w is not None and translation_class(lattice, w) == g


@given(lattice_and_vectors(2, 4))
@settings(max_examples=100)
def test_kernel_membership_means_trivial_class(data):
    lattice, v, _ = data
    surface = lattice.sextic.surface()
    trivial = translation_class(lattice, v) == mods_identity(surface)
    assert in_translation_kernel(lattice, v) == trivial


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_frozen_kernel_generators_translate_trivially(key):
    # Witness for the frozen kernel HNFs from outside the Smith/Hermite code
    # that found them: each generator must act as the identity.
    lattice = lattice_for(key)
    for row in FROZEN[f"5.kernel {key}"]:
        assert in_translation_kernel(lattice, row), row


def _unit(lattice, j):
    return tuple(int(i == j) for i in range(lattice.rank))


def test_basis_translations_are_the_named_generators():
    # Additivity cannot see a slot mix-up that is the same on both sides;
    # each basis vector's image must be the generator word it names.
    lattice = lattice_for("4|0")
    s = lattice.sextic.surface()

    def oval(i):
        return mods_mul(handle_half_twist(s, i), mods_pow(split_twist(s, i), -2))

    def bridge(i, k):
        return mods_mul(mods_mul(split_twist(s, i), split_twist(s, k)), mods_inv(fiber_twist(s, k)))

    expected = {
        "O1": oval(1),
        "B12": bridge(1, 2),
        "O2": oval(2),
        "B23": bridge(2, 3),
        "O3": oval(3),
        "B34": bridge(3, 4),
        "O4": oval(4),
        "B3": split_twist(s, 3),
    }
    for j, name in enumerate(lattice.basis_names):
        assert translation_class(lattice, _unit(lattice, j)) == expected[name], name
    # The carry written out: the last half twist wraps to the first handle.
    assert expected["O4"] == ModSElement(s, (0, 0, 0, 1), (-1, 0, 0, 0), (0, 0, 0, -2))

    bands = lattice_for("|||")
    k = bands.sextic.surface()
    for j, name in enumerate(bands.basis_names):
        want = swap_components(k) if name == "B0" else shift_components(k)
        assert translation_class(bands, _unit(bands, j)) == want, name

    # Handle-free: every bridge is isolated and acts as the fiber twist.
    for key in ("0|0", "0|2"):
        plain = lattice_for(key)
        for j in range(plain.rank):
            assert translation_class(plain, _unit(plain, j)) == fiber_twist(plain.sextic.surface()), key


@pytest.mark.parametrize(
    "key,expected",
    [
        ("4|0", "Z^8 x Z/2"),
        ("3|0", "Z^6 x Z/2"),
        ("1|0", "Z^2 x Z/2"),
        ("1|1", "Z^2 x Z/2"),
        ("|||", "Z/2 x Z/2"),
        ("0|0", "Z/2"),
        ("0|4", "Z/2"),
    ],
)
def test_group_structure(key, expected):
    surface = SexticType.from_key(key).surface()
    assert str(mods_group_structure(surface)) == expected


@pytest.mark.parametrize("key", TYPE_KEYS)
def test_relators_are_twice_the_slots_the_normal_form_reduces(key):
    # Read off the normal form, not the relators' derivation, so a wrong
    # torsion slot fails on some surface.
    surface = SexticType.from_key(key).surface()
    dim, relators = _coordinate_relators(surface)
    twice = (smul(2, unit_vec(dim, t)) for t in range(dim))
    one = mods_identity(surface)
    assert relators == tuple(r for r in twice if from_linear_coordinates(surface, r) == one)


@pytest.mark.parametrize("key", HANDLE_KEYS)
def test_relators_present_the_generator_presentation(key):
    surface = SexticType.from_key(key).surface()
    assert quotient_invariants(*_coordinate_relators(surface)) == mods_group_structure(surface)


@pytest.mark.parametrize("key,star", [(k, 0) for k in TYPE_KEYS] + [("|||", 1)])
def test_the_cached_presentation_is_tuples_no_reader_changes(key, star):
    # Only the star-0 presentation is kept on the lattice; star 1 is built
    # on each request, so its analysis is one more reader here.
    lattice = lattice_for(key)
    _, rows, _, columns = lattice._translations
    for table in (rows, columns):
        assert isinstance(table, tuple) and all(isinstance(entry, tuple) for entry in table)
    translation_analysis(lattice, star)
    assert is_translation_class(translation_class(lattice, (1,) * lattice.rank))
    if lattice.sextic.surface().handles:
        split_twist_preimage(lattice, 1)
    fresh = dataclasses.replace(lattice)
    assert lattice._translations == fresh._translations
    assert lattice._translations[:2] == _image_matrix(fresh, 0)


@pytest.mark.parametrize("key", [k for k in TYPE_KEYS if k != "|||"])
def test_the_distinguished_involution(key):
    surface = SexticType.from_key(key).surface()
    delta = mods_delta(surface)
    one = mods_identity(surface)
    assert delta != one
    assert mods_mul(delta, delta) == one


def test_double_klein_generators_commute_and_square_to_one():
    surface = SexticType.from_key("|||").surface()
    s, t = swap_components(surface), shift_components(surface)
    one = mods_identity(surface)
    assert mods_mul(s, s) == one
    assert mods_mul(t, t) == one
    assert mods_mul(s, t) == mods_mul(t, s)
    assert len({one, s, t, mods_mul(s, t)}) == 4


def test_fiber_twist_has_infinite_order_with_handles():
    surface = SexticType.from_key("2|0").surface()
    t = fiber_twist(surface, 1)
    assert mods_pow(t, 5).fiber_twists == (5, 0)


def test_fiber_twist_is_an_involution_without_handles():
    surface = SexticType.from_key("0|2").surface()
    t = fiber_twist(surface)
    assert mods_pow(t, 2) == mods_identity(surface)
    assert t != mods_identity(surface)


_TWIST_SLOTS = ("half_twists", "fiber_twists", "split_twists")

_MALFORMED_KEYS = ("K#4T2", "K#T2+S2", "K", "K+4S2", "K+K")


def _absent_slots(surface):
    """The exponent slots a surface does not have, each with a nonzero value."""
    if surface.double_klein:
        return {slot: (1,) for slot in _TWIST_SLOTS}
    absent = {"swap": 1, "shift": 1}
    if not surface.handles:
        absent.update(half_twists=(1,), split_twists=(3,))
    return absent


def _malformed_cases():
    """One bad value per field on five surfaces, each otherwise the identity."""
    for key in _MALFORMED_KEYS:
        surface = SurfaceType.from_key(key)
        one = mods_identity(surface)
        p = surface.handles
        cases = {f"{slot}-long": (slot, getattr(one, slot) + (0,)) for slot in _TWIST_SLOTS}
        if p:
            cases["half-twist-2"] = ("half_twists", (2,) + (0,) * (p - 1))
        elif surface.double_klein:
            cases["fiber-twist-on-K+K"] = ("fiber_twists", (1,))
            cases["split-twist-on-K+K"] = ("split_twists", (1,))
        else:
            cases["fiber-bit-2"] = ("fiber_twists", (2,))
        cases["swap-2"] = ("swap", 2)
        cases["shift-2"] = ("shift", 2)
        for slot in _TWIST_SLOTS:
            cases[f"{slot}-list"] = (slot, list(getattr(one, slot)))
        for slot, bad in _absent_slots(surface).items():
            if (slot, bad) not in cases.values():
                cases[f"{slot}-absent"] = (slot, bad)
        for name, (slot, bad) in cases.items():
            yield pytest.param(surface, slot, bad, id=f"{key}-{name}")


@pytest.mark.parametrize("surface,slot,bad", _malformed_cases())
def test_malformed_elements_are_rejected(surface, slot, bad):
    one = mods_identity(surface)
    data = {**{f.name: getattr(one, f.name) for f in dataclasses.fields(one)}, slot: bad}
    with pytest.raises(ValueError, match="malformed element data"):
        ModSElement(**data)


def test_wrong_length_exponents_are_rejected_by_the_builder():
    surface = SexticType.from_key("2|0").surface()
    with pytest.raises(ValueError, match="exponent tuples must have one entry per handle"):
        mods_element(surface, (0,), (0, 0), (0, 0))
    # raw exponents in a slot the surface does not have are refused, not dropped
    for key in _MALFORMED_KEYS:
        surface = SurfaceType.from_key(key)
        for slot, bad in _absent_slots(surface).items():
            message = f"raw exponents in slots {key} does not have: {slot.replace('_', ' ')}"
            assert_rejected(lambda: mods_element(surface, **{slot: bad}), ValueError, message)
    assert_rejected(
        lambda: mods_element(K, half_twists=(1,), split_twists=(3,), swap=1),
        ValueError,
        "raw exponents in slots K does not have: half twists, split twists, swap",
    )
    # empty or zero is no exponent at all
    assert mods_element(K_K, fiber_twists=()) == mods_identity(K_K)
    assert mods_element(ONE, swap=0, shift=0) == mods_identity(ONE)


@pytest.mark.parametrize("surface", SURFACES, ids=str)
def test_an_element_with_unread_exponents_copies_as_the_checked_element(surface):
    # from_linear_coordinates and translation_class store coordinates only;
    # a copy made before any exponent is read must still be the element.
    lattice = build_lattice(surface.sextic())
    dim = len(linear_coordinates(mods_identity(surface)))
    exponents = [f.name for f in dataclasses.fields(ModSElement)[1:]]
    builders = (
        lambda: from_linear_coordinates(surface, tuple(range(-2, dim - 2))),
        lambda: translation_class(lattice, tuple(range(1, lattice.rank + 1))),
    )
    copies = (lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy, dataclasses.replace)
    for build in builders:
        for copied in copies:
            g = build()
            assert not set(exponents) & set(vars(g))
            twin = copied(g)
            checked = ModSElement(surface, *(getattr(g, name) for name in exponents))
            assert twin == checked and hash(twin) == hash(checked) and repr(twin) == repr(checked)


def test_equal_coordinates_on_different_surfaces_are_different_elements():
    # K#T2 and K#T2+S2 both have 3 coordinates; the handle-free K+qS2 all have 1
    for key_a, key_b in (("K#T2", "K#T2+S2"), ("K", "K+S2"), ("K+S2", "K+4S2")):
        a, b = SurfaceType.from_key(key_a), SurfaceType.from_key(key_b)
        assert linear_coordinates(mods_identity(a)) == linear_coordinates(mods_identity(b))
        assert mods_identity(a) != mods_identity(b)


@pytest.mark.parametrize("surface", SURFACES, ids=str)
def test_elements_built_from_coordinates_are_well_formed(surface):
    # from_linear_coordinates skips the constructor's check; what it
    # builds must pass that check and read back its coordinates.
    rng = random.Random(13)
    dim = len(linear_coordinates(mods_identity(surface)))
    parity = dim - 1 if surface.handles else 0
    for _ in range(200):
        coords = tuple(rng.randint(-9, 9) for _ in range(dim))
        g = from_linear_coordinates(surface, coords)
        checked = ModSElement(surface, g.half_twists, g.fiber_twists, g.split_twists, g.swap, g.shift)
        assert g == checked and hash(g) == hash(checked) and repr(g) == repr(checked)
        assert linear_coordinates(g) == coords[:parity] + tuple(c % 2 for c in coords[parity:])
