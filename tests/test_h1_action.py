"""First homology of the real locus: section classes and line counting."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conelines.homology_action import (
    H1Class,
    H1Delta,
    action_matrix,
    action_mul,
    class_of_section,
    count_line_classes,
    delta_to_class,
    mw_sum,
    obstruction_kappa,
    section_delta,
    split_twist_preimage,
    vanishing_orbit,
    zero_delta,
)
from conelines.lattices import (
    SexticType,
    SurfaceType,
    UnsupportedTypeError,
    build_lattice,
    norm,
    vectors_with_norm_at_least,
)
from conelines.mapping_class import (
    is_translation_class,
    mods_identity,
    mods_mul,
    split_twist,
    translation_analysis,
    translation_class,
)
from conftest import HANDLE_KEYS, TYPE_KEYS, assert_rejected, lattice_for

HANDLE_SURFACES = tuple(SexticType.from_key(k).surface() for k in HANDLE_KEYS)

#: Every type with a section frame: the double Klein bottle ``|||`` has none.
#: The handle-free K and K+qS2 take the general formulas at p = 0.
SECTION_KEYS = tuple(k for k in TYPE_KEYS if k != "|||")

ONE, TWO, FOUR = (SurfaceType.from_key(k) for k in ("K#T2", "K#2T2", "K#4T2"))

#: (call, exception type, message) for inputs the public functions refuse.
REJECTIONS = [
    pytest.param(
        lambda: H1Class(2, (), 1),
        ValueError,
        "the fiber coefficient is 2-torsion: expected a bit",
        id="class-fiber-not-a-bit",
    ),
    pytest.param(
        lambda: H1Delta(2, ((0, 0),)),
        ValueError,
        "the fiber coefficient is 2-torsion: expected a bit",
        id="delta-fiber-not-a-bit",
    ),
    pytest.param(
        lambda: H1Delta(0, ((0, 2),)),
        ValueError,
        "oval-direction coefficients of a section difference are bits",
        id="delta-oval-not-a-bit",
    ),
    pytest.param(
        lambda: action_matrix(ONE, zero_delta(ONE)).apply(H1Class(0, ((0, 0),) * 2, 1)),
        ValueError,
        "class has the wrong number of handles for this surface",
        id="apply-handle-count",
    ),
    pytest.param(
        lambda: action_matrix(TWO, zero_delta(ONE)),
        ValueError,
        "difference has the wrong number of handles for this surface",
        id="action-matrix-handle-count",
    ),
    pytest.param(
        lambda: mw_sum(TWO, zero_delta(TWO), zero_delta(ONE)),
        ValueError,
        "difference has the wrong number of handles for this surface",
        id="mw-sum-handle-count",
    ),
    pytest.param(
        lambda: action_mul(action_matrix(ONE, zero_delta(ONE)), action_matrix(TWO, zero_delta(TWO))),
        ValueError,
        "matrices act on different surfaces",
        id="action-mul-across-surfaces",
    ),
    pytest.param(
        lambda: obstruction_kappa(FOUR, (0,) * 3, (0,) * 4),
        ValueError,
        "coefficient tuples must have one entry per handle",
        id="kappa-length",
    ),
    pytest.param(
        lambda: obstruction_kappa(FOUR, (0,) * 4, (2, 0, 0, 0)),
        ValueError,
        "oval-direction coefficients must be bits",
        id="kappa-not-a-bit",
    ),
    pytest.param(
        lambda: vanishing_orbit(TWO, 3, 1),
        ValueError,
        "handle index 3 out of range for K#2T2",
        id="vanishing-orbit-handle-index",
    ),
    pytest.param(
        lambda: H1Class(0, [(1, 0)], 1),
        ValueError,
        "the handle coefficients are a tuple of pairs, not [(1, 0)]",
        id="class-pairs-not-a-tuple",
    ),
    pytest.param(
        lambda: H1Delta(0, [(1, 1)]),
        ValueError,
        "the handle coefficients are a tuple of pairs, not [(1, 1)]",
        id="delta-pairs-not-a-tuple",
    ),
    pytest.param(
        lambda: H1Delta(0, ([1, 1],)),
        ValueError,
        "the handle coefficients are a tuple of pairs, not ([1, 1],)",
        id="delta-pair-not-a-tuple",
    ),
    pytest.param(
        lambda: H1Class(1.0, (), 1), ValueError, "the fiber coefficient is 2-torsion: expected a bit", id="class-fiber-1.0"
    ),
    pytest.param(
        lambda: H1Delta(0, ((0.5, 1),)), ValueError, "the handle coefficients are a tuple of pairs, not ((0.5, 1),)", id="pair-0.5"
    ),
    pytest.param(
        lambda: H1Class(0, (), 1.0), ValueError, "the section coefficient is an int, not 1.0", id="class-section-1.0"
    ),
]


@st.composite
def surface_and_deltas(draw):
    surface = draw(st.sampled_from(HANDLE_SURFACES))
    p = surface.handles

    def one():
        return H1Delta(
            draw(st.integers(0, 1)),
            tuple(
                (draw(st.integers(-4, 4)), draw(st.integers(0, 1))) for _ in range(p)
            ),
        )

    return surface, one(), one()


@given(surface_and_deltas())
@settings(max_examples=150)
def test_matrices_represent_the_sum_law(data):
    surface, d1, d2 = data
    total = mw_sum(surface, d1, d2)
    m1, m2 = action_matrix(surface, d1), action_matrix(surface, d2)
    assert action_mul(m1, m2).entries == action_matrix(surface, total).entries
    assert m1.apply(delta_to_class(d2)) == delta_to_class(total)


@given(surface_and_deltas())
@settings(max_examples=100)
def test_sum_law_is_abelian(data):
    surface, d1, d2 = data
    assert mw_sum(surface, d1, d2) == mw_sum(surface, d2, d1)
    zero = zero_delta(surface)
    assert mw_sum(surface, d1, zero) == d1


@given(surface_and_deltas())
def test_action_matrices_are_unimodular_and_triangular(data):
    surface, d1, _ = data
    m = action_matrix(surface, d1).entries
    dim = 2 * surface.handles + 2
    for i in range(dim):
        assert m[i][i] in (1, -1)
        for j in range(1, dim - 1):
            if j < i and i < dim - 1:
                assert m[i][j] == 0


@pytest.mark.parametrize("key", SECTION_KEYS)
def test_translation_pipeline_matches_the_matrix_action(key):
    # moving the reference section with g and reading its class must agree
    # with applying g's action matrix to the reference class; the all-ones
    # vector also covers the rank-0 lattice of K+4S2
    lattice = lattice_for(key)
    surface = lattice.sextic.surface()
    reference = delta_to_class(zero_delta(surface))
    for v in [
        *(tuple(1 if i == j else 0 for i in range(lattice.rank)) for j in range(lattice.rank)),
        (1,) * lattice.rank,
    ]:
        g = translation_class(lattice, v)
        direct = class_of_section(g)
        via_matrix = action_matrix(surface, section_delta(g)).apply(reference)
        assert direct == via_matrix


def test_identity_section_class():
    for key in SECTION_KEYS:
        lattice = lattice_for(key)
        surface = lattice.sextic.surface()
        zero = tuple(0 for _ in range(lattice.rank))
        g = translation_class(lattice, zero)
        assert class_of_section(g) == H1Class(0, ((0, 0),) * surface.handles, 1)


@pytest.mark.parametrize("call,error,message", REJECTIONS)
def test_bad_inputs_are_rejected(call, error, message):
    assert_rejected(call, error, message)


def test_class_of_section_rejects_the_double_klein():
    lattice = lattice_for("|||")
    g = translation_class(lattice, (1, 0, 0, 0))
    with pytest.raises(UnsupportedTypeError):
        class_of_section(g)


def test_obstruction_values():
    four = SexticType.from_key("4|0").surface()
    assert obstruction_kappa(four, (0, 0, 0, 0), (0, 0, 0, 0)) == 0
    assert obstruction_kappa(four, (1, 0, 0, 0), (0, 0, 0, 0)) == 1
    assert obstruction_kappa(four, (0, 0, 0, 1), (0, 0, 0, 0)) == 0
    band = SexticType.from_key("1|1").surface()
    assert obstruction_kappa(band, (3,), (0,)) == 1
    assert obstruction_kappa(band, (2,), (0,)) == 0
    assert obstruction_kappa(band, (2,), (1,)) == 1


def test_obstruction_is_only_defined_where_the_parity_binds():
    with pytest.raises(UnsupportedTypeError):
        obstruction_kappa(SexticType.from_key("2|0").surface(), (0, 0), (0, 0))
    with pytest.raises(UnsupportedTypeError):
        obstruction_kappa(SurfaceType.from_key("K#3T2"), (0, 0, 0), (0, 0, 0))
    # realizable_mod2 forces the fiber bit on K+4S2; only the closed form is missing
    with pytest.raises(UnsupportedTypeError) as raised:
        obstruction_kappa(SurfaceType.from_key("K+4S2"), (), ())
    assert "no parity constraint" not in str(raised.value)


@pytest.mark.parametrize("key", SECTION_KEYS)
def test_a_translation_moves_the_fiber_bit_by_half_the_norm(key):
    # Shioda's transvection (m, v, n) -> (m + v.w + (w^2/2) n, ...) applied to
    # the zero section: the section difference of w's translation carries
    # the fiber bit w^2/2 mod 2, and so does the closed form of the forced bit.
    lattice = lattice_for(key)
    surface = lattice.sextic.surface()
    for w in vectors_with_norm_at_least(lattice, -6):
        bit = norm(lattice, w) // 2 % 2
        delta = section_delta(translation_class(lattice, w))
        assert delta.fiber_bit == bit, w
        if key in ("4|0", "1|1"):
            m, k = zip(*delta.pairs)
            assert obstruction_kappa(surface, m, k) == bit, w


@pytest.mark.parametrize(
    "key,expected",
    [("0|0", 2), ("0|1", 2), ("0|2", 2), ("0|3", 2), ("0|4", 1), ("|||", 4)],
)
def test_finite_line_class_counts(key, expected):
    counted = count_line_classes(SexticType.from_key(key).surface())
    assert counted.finite == expected
    with pytest.raises(ValueError):
        counted.witnesses(3)


@pytest.mark.parametrize("key", ["0|0", "0|1", "0|2", "0|3", "0|4", "|||"])
def test_kernel_index_equals_the_image_order(key):
    """[L : kernel] = |image| on the finite-image surfaces, three ways: the
    covolume of the kernel basis, the closure of the basis translations
    under mods_mul, and the line-class count."""
    lattice = lattice_for(key)
    surface = lattice.sextic.surface()
    kernel = translation_analysis(lattice).kernel_basis
    index = abs(sympy.Matrix(kernel).det()) if kernel else 1
    generators = [translation_class(lattice, lattice.basis_vector(j)) for j in range(lattice.rank)]
    group = {mods_identity(surface)}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in generators:
            if (gh := mods_mul(g, h)) not in group:
                group.add(gh)
                frontier.append(gh)
    assert index == len(group) == count_line_classes(surface).finite


@pytest.mark.parametrize("key", HANDLE_KEYS)
def test_infinite_types_stream_distinct_witnesses(key):
    counted = count_line_classes(SexticType.from_key(key).surface())
    assert counted.finite is None
    witnesses = counted.witnesses(40)
    assert len(set(witnesses)) == 40
    assert all(w.line_coeff == 1 for w in witnesses)


def test_witness_counts_of_zero_or_less_give_no_witnesses():
    # witnesses(n) is the first n of the stream, so a count below 1 asks for none
    counted = count_line_classes(SurfaceType.from_key("K#T2"))
    assert counted.witnesses(0) == ()
    assert counted.witnesses(-1) == ()
    # the n-th witness translates by n times the preimage of the split twist
    expected = tuple(H1Class(n % 2, ((-n, 0),), 1) for n in range(100))
    assert counted.witnesses(100) == expected


@pytest.mark.parametrize("key", HANDLE_KEYS)
def test_split_twist_preimage_inverts_the_translation(key):
    # every oval: a preimage exactly where the split twist is a translation
    # class; only ovals 2 and 4 of K#4T2 fall in the Z/2 cokernel
    lattice = lattice_for(key)
    surface = lattice.sextic.surface()
    outside = []
    for i in range(1, surface.handles + 1):
        twist = split_twist(surface, i)
        if is_translation_class(twist):
            assert translation_class(lattice, split_twist_preimage(lattice, i)) == twist
        else:
            with pytest.raises(UnsupportedTypeError):
                split_twist_preimage(lattice, i)
            outside.append(i)
    assert outside == ([2, 4] if key == "4|0" else [])


def test_vanishing_orbit_classes_are_distinct_non_sections():
    surface = SexticType.from_key("3|0").surface()
    orbit = [vanishing_orbit(surface, 2, n) for n in range(25)]
    assert len(set(orbit)) == 25
    for x in orbit:
        assert x.line_coeff == 0
    with pytest.raises(UnsupportedTypeError):
        vanishing_orbit(SexticType.from_key("0|1").surface(), 1, 1)