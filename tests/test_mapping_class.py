"""Fiberwise mapping classes: group laws and the translation map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelines.lattices import SexticType, build_lattice, vadd
from conelines.mapping_class import (
    ModSElement,
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
    translation_class,
)
from conelines.verify import _KERNEL_GENERATORS
from conftest import TYPE_KEYS, lattice_for

SURFACES = tuple(SexticType.from_key(k).surface() for k in TYPE_KEYS)


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


@st.composite
def lattice_vector_pair(draw):
    key = draw(st.sampled_from(TYPE_KEYS))
    lattice = lattice_for(key)
    size = lattice.rank
    v = tuple(draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size)))
    w = tuple(draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size)))
    return lattice, v, w


@given(lattice_vector_pair())
@settings(max_examples=150)
def test_translation_is_a_homomorphism(data):
    lattice, v, w = data
    assert translation_class(lattice, vadd(v, w)) == mods_mul(
        translation_class(lattice, v), translation_class(lattice, w)
    )


@given(lattice_vector_pair())
@settings(max_examples=100)
def test_translations_land_in_the_image(data):
    lattice, v, _ = data
    assert is_translation_class(translation_class(lattice, v))


@given(lattice_vector_pair())
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
    for row in _KERNEL_GENERATORS[key]:
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

    spheres = lattice_for("0|2")
    for j in range(spheres.rank):
        assert translation_class(spheres, _unit(spheres, j)) == fiber_twist(spheres.sextic.surface())


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


def test_malformed_elements_are_rejected():
    surface = SexticType.from_key("2|0").surface()
    with pytest.raises(ValueError):
        mods_element(surface, (0,), (0, 0), (0, 0))
    band = SexticType.from_key("|||").surface()
    with pytest.raises(ValueError):
        ModSElement(band, half_twists=(1, 0))