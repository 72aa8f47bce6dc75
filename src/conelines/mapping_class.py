"""Fiberwise mapping class groups over the real base and lattice translations.

For a real rational elliptic surface whose real locus is a connected sum
of a Klein bottle with p tori (possibly plus spheres, or a disjoint Klein
bottle), the group of fiberwise mapping classes fixing a section is
abelian, generated by fiber twists, split twists and half twists of the
handles.  The square of the i-th normalized half twist is the fiber twist
at handle i composed with the inverse fiber twist at the next handle
(past the last handle, the fiber twist at the first one).  The drift
formula

    d_i = kappa_i + 2 (n_1 + ... + n_i) - (n_1 + ... + n_p)

sends these relators to zero, and the drifts, the split-twist exponents
and the total fiber-twist parity identify the group with Z^2p x Z/2.
These linear coordinates are the group's one coordinate system: the
group law, the normal form of raw exponents (half twists reduced to
bits) and the translation map are all sums in them.  An element stores
its surface and its coordinates, and compares and hashes by them; its
exponents are worked out from them, all five at the first read of one.
``mods_element`` is the one check of outside data: the constructor takes
raw exponents only if they are the normal form of what ``mods_element``
builds from them, and elements built from coordinates are trusted.

Translating along a section moves every fiber by an element of the
vanishing-cycle lattice; ``translation_class`` is the resulting
homomorphism from the lattice into the mapping class group.  Its one
presentation, ``_image_matrix``, is kept on the lattice as its
``_translations`` table, and everything else reads it:
``translation_analysis`` (kernel, image and cokernel) directly;
``translation_class`` through the lattice's ``_translation_kernel``, one
straight-line sum per linear coordinate generated from the presentation's
rows; and ``_translation_preimage``, one solve for membership and for
split-twist preimages alike, through the presentation's Hermite form,
kept on the lattice as ``_translation_hermite``, against which each solve
only peels (``intlinalg.peel_left``).  ``translation_class`` is a hot
path: it checks the vector's length and trusts its entries to be
integers.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add

from .intlinalg import (
    GroupInvariants,
    hermite_rows,
    left_kernel_basis,
    peel_left,
    quotient_invariants,
)
from .lattices import (
    GeometricLattice,
    SurfaceType,
    UnsupportedTypeError,
    Vec,
    build_lattice,
    smul,
    unit_vec,
)


@dataclass(frozen=True, eq=False)
class ModSElement:
    """A fiberwise mapping class: its surface and its linear coordinates.

    The coordinates are stored with each Z/2 slot reduced mod 2, and they
    decide equality and hash.  The fields are the normalized generator
    exponents; an element built from coordinates works them out when one
    is first read.  For a surface with p >= 1 handles the data is one bit
    per handle (half twists), one integer per handle (fiber twists) and
    one integer per handle (split twists).  Handle-free surfaces other
    than the double Klein bottle carry a single fiber-twist parity; the
    double Klein bottle carries the two commuting involutions ``swap`` and
    ``shift`` of its components.  The constructor accepts data equal to
    the exponents of what ``mods_element`` builds from it.
    """

    surface: SurfaceType
    half_twists: tuple[int, ...] = field(default_factory=tuple)
    fiber_twists: tuple[int, ...] = field(default_factory=tuple)
    split_twists: tuple[int, ...] = field(default_factory=tuple)
    swap: int = field(default_factory=int)
    shift: int = field(default_factory=int)

    def __post_init__(self) -> None:
        data = tuple(getattr(self, name) for name in _EXPONENTS)
        with suppress(ValueError, TypeError):
            g = mods_element(self.surface, *data)
            if data == tuple(getattr(g, name) for name in _EXPONENTS):
                object.__setattr__(self, "_coords", g._coords)
                return
        raise ValueError(f"malformed element data for surface {self.surface}")

    def __getattr__(self, name: str) -> object:
        # Reached only for names the instance lacks: the exponents of an
        # element built from coordinates, all worked out at the first read.
        if name not in _EXPONENTS:
            return super().__getattribute__(name)
        vars(self).update(zip(_EXPONENTS, _normal_exponents(self.surface, self._coords)))
        return vars(self)[name]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ModSElement:
            return NotImplemented
        return self._coords == other._coords and self.surface == other.surface

    def __hash__(self) -> int:
        return hash((self.surface, self._coords))


_EXPONENTS = ModSElement.__match_args__[1:]


def _slots(surface: SurfaceType) -> tuple[str, ...]:
    """The exponent fields an element of the surface carries, in storage order."""
    if surface.double_klein:
        return ("swap", "shift")
    return ("half_twists", "fiber_twists", "split_twists") if surface.handles else ("fiber_twists",)


def _coordinates(
    surface: SurfaceType,
    half_twists: Sequence[int] = (),
    fiber_twists: Sequence[int] = (),
    split_twists: Sequence[int] = (),
    swap: int = 0,
    shift: int = 0,
) -> tuple[int, ...]:
    """Linear coordinates of raw exponents, by the drift formula.

    The relators map to zero, so the exponents need no normal form
    first.  Empty tuples stand for zeros; ``from_linear_coordinates``
    reduces the Z/2 slots.
    """
    if surface.double_klein:
        return (swap, shift)
    p = surface.handles
    if p == 0:
        return (sum(fiber_twists),)
    kappa = half_twists or (0,) * p
    n = fiber_twists or (0,) * p
    m = split_twists or (0,) * p
    if not (len(kappa) == len(n) == len(m) == p):
        raise ValueError("exponent tuples must have one entry per handle")
    total = sum(n)
    drift = [k + 2 * running - total for k, running in zip(kappa, accumulate(n))]
    return (*drift, *m, total)


def mods_element(
    surface: SurfaceType,
    half_twists: Sequence[int] = (),
    fiber_twists: Sequence[int] = (),
    split_twists: Sequence[int] = (),
    swap: int = 0,
    shift: int = 0,
) -> ModSElement:
    """Build an element from raw exponents (empty tuples stand for zeros).

    The exponents go to linear coordinates and back, which reduces the
    half twists to bits.  Every exponent is an ``int``, and a slot
    outside ``_slots(surface)`` must be empty or zero.
    """
    slots = _slots(surface)
    raw = zip(_EXPONENTS, (half_twists, fiber_twists, split_twists, swap, shift))
    absent = [slot.replace("_", " ") for slot, value in raw if value and slot not in slots]
    if absent:
        raise ValueError(f"raw exponents in slots {surface} does not have: {', '.join(absent)}")
    if not all(type(x) is int for x in (*half_twists, *fiber_twists, *split_twists, swap, shift)):
        raise ValueError(f"malformed element data for surface {surface}")
    coords = _coordinates(surface, half_twists, fiber_twists, split_twists, swap, shift)
    return from_linear_coordinates(surface, coords)


def mods_identity(surface: SurfaceType) -> ModSElement:
    return mods_element(surface)


def mods_mul(a: ModSElement, b: ModSElement) -> ModSElement:
    if a.surface != b.surface:
        raise ValueError("elements live on different surfaces")
    coords = map(add, linear_coordinates(a), linear_coordinates(b))
    return from_linear_coordinates(a.surface, tuple(coords))


def mods_inv(a: ModSElement) -> ModSElement:
    return mods_pow(a, -1)


def mods_pow(a: ModSElement, k: int) -> ModSElement:
    """The k-th power: the group is abelian, so it scales the coordinates."""
    if type(k) is not int:
        raise ValueError(f"a power takes an int exponent, not {k!r}")
    return from_linear_coordinates(a.surface, smul(k, linear_coordinates(a)))


def _check_handle_index(surface: SurfaceType, i: int) -> None:
    if not 1 <= i <= surface.handles:
        raise ValueError(f"handle index {i} out of range for {surface}")


def fiber_twist(surface: SurfaceType, i: int = 1) -> ModSElement:
    """Dehn twist along the fiber over the i-th handle's base point."""
    if surface.double_klein:
        raise UnsupportedTypeError("the double Klein bottle has no fiber-twist generator")
    p = surface.handles
    if p == 0:
        if i != 1:
            raise ValueError("handle-free surfaces carry a single twist generator")
        return mods_element(surface, fiber_twists=(1,))
    _check_handle_index(surface, i)
    return mods_element(surface, fiber_twists=unit_vec(p, i - 1))


def split_twist(surface: SurfaceType, i: int) -> ModSElement:
    """Twist along the splitting curve of the i-th handle."""
    if surface.handles == 0:
        raise UnsupportedTypeError(f"{surface} has no split-twist generators")
    _check_handle_index(surface, i)
    return mods_element(surface, split_twists=unit_vec(surface.handles, i - 1))


def handle_half_twist(surface: SurfaceType, i: int) -> ModSElement:
    """The geometric half twist of handle i.

    The normalized half twist of handle i (the storage generator) times
    the fiber twist at the next handle, or the inverse fiber twist at
    handle 1 when i is the last handle; its square is the product of the
    fiber twists at handles i and i+1.
    """
    if surface.handles == 0:
        raise UnsupportedTypeError(f"{surface} has no half-twist generators")
    _check_handle_index(surface, i)
    p = surface.handles
    next_fiber = smul(1 if i < p else -1, unit_vec(p, i % p))
    return mods_element(surface, unit_vec(p, i - 1), next_fiber)


def swap_components(surface: SurfaceType) -> ModSElement:
    if not surface.double_klein:
        raise UnsupportedTypeError("component swap exists only on the double Klein bottle")
    return mods_element(surface, swap=1)


def shift_components(surface: SurfaceType) -> ModSElement:
    if not surface.double_klein:
        raise UnsupportedTypeError("component shift exists only on the double Klein bottle")
    return mods_element(surface, shift=1)


def mods_delta(surface: SurfaceType) -> ModSElement:
    """The group's one element of order 2: the alternating product of the
    geometric half twists, times an inverse fiber twist when the handle
    count is even."""
    if surface.double_klein:
        raise UnsupportedTypeError("the double Klein bottle has no distinguished involution")
    p = surface.handles
    out = mods_identity(surface)
    for i in range(1, p + 1):
        g = handle_half_twist(surface, i)
        out = mods_mul(out, g if i % 2 == 1 else mods_inv(g))
    if p % 2 == 0:
        out = mods_mul(out, mods_inv(fiber_twist(surface, 1)))
    return out


def linear_coordinates(g: ModSElement) -> tuple[int, ...]:
    """Coordinates identifying the group with Z^2p x Z/2 (or its small cousins).

    For p >= 1 handles: p drift integers (half twist plus signed partial
    sums of fiber twists), the p split-twist integers, and the total
    fiber-twist parity.  The map is an isomorphism of groups onto
    Z^2p x Z/2; handle-free surfaces give the single twist bit, and the
    double Klein bottle gives (swap, shift).  The element stores them.
    """
    return g._coords


def _normal_exponents(
    surface: SurfaceType, coords: Sequence[int]
) -> tuple[Vec, Vec, Vec, int, int]:
    """The normal exponents (half, fiber and split twists, swap, shift)
    with the given normalized linear coordinates: the inverse of
    ``_coordinates``.

    Each half-twist bit is kappa_i = (d_i + parity) mod 2, which makes
    every difference halved below even, so the fiber twists are integers.
    """
    p = surface.handles
    if surface.double_klein:
        return (), (), (), coords[0], coords[1]
    if p == 0:
        return (), (coords[0],), (), 0, 0
    kappa = tuple((d + coords[2 * p]) % 2 for d in coords[:p])
    # 2 (n_1 + ... + n_i) - total; the last one is the total itself.
    sums = [d - k for d, k in zip(coords, kappa)]
    n = tuple((b - a) // 2 for a, b in zip([-sums[-1], *sums], sums))
    return kappa, n, tuple(coords[p : 2 * p]), 0, 0


def from_linear_coordinates(surface: SurfaceType, coords: Sequence[int]) -> ModSElement:
    """The element with the given linear coordinates, each Z/2 slot read mod 2.

    It stores them and skips the constructor's check; its exponents, the
    one normal form, are worked out when first read.
    """
    dim = 2 if surface.double_klein else 2 * surface.handles + 1
    if len(coords) != dim:
        raise ValueError(f"expected {dim} coordinates")
    # The Z/2 slots: swap and shift on the double Klein bottle, else the parity.
    last = coords[-1] % 2
    normal = (coords[0] % 2, last) if surface.double_klein else (*coords[:-1], last)
    g = object.__new__(ModSElement)
    vars(g).update(surface=surface, _coords=normal)
    return g


def _coordinate_relators(surface: SurfaceType) -> tuple[int, tuple[Vec, ...]]:
    """Ambient rank of the linear coordinates and the rows acting as zero:
    twice each Z/2 slot, which is the parity slot, or the swap and shift
    slots on the double Klein bottle."""
    dim = len(_coordinates(surface))
    torsion = range(dim) if surface.double_klein else (dim - 1,)
    return dim, tuple(smul(2, unit_vec(dim, t)) for t in torsion)


def mods_group_structure(surface: SurfaceType) -> GroupInvariants:
    """Invariant factors of the mapping class group, from its presentation.

    Generators: one half twist, one fiber twist and one split twist per
    handle; the only relations say that the square of each normalized
    half twist is a signed pair of fiber twists.  Handle-free surfaces
    are generated by their Z/2 coordinate slots themselves.
    """
    p = surface.handles
    if p == 0:
        return quotient_invariants(*_coordinate_relators(surface))
    rows = []
    for i in range(p):
        row = [0] * (3 * p)
        row[i] = 2
        row[p + i] -= 1
        if i < p - 1:
            row[p + i + 1] += 1
        else:
            row[p] -= 1
        rows.append(row)
    return quotient_invariants(3 * p, rows)


def _basis_image(lattice: GeometricLattice, j: int, star: int) -> ModSElement:
    """Mapping class of the translation along basis vector j.

    ``star`` chooses how the central bridge of the band type maps to the
    swap/shift pair: 0 sends it to the swap, 1 to the swap composed with
    the shift.  Both choices give the same kernel, image and cokernel.
    """
    surface = lattice.sextic.surface()
    if surface.double_klein:
        # Bridges between the two bands shift; the central one swaps,
        # possibly composed with a shift.
        if lattice.basis_names[j] == "B0":
            return mods_element(surface, swap=1, shift=star)
        return shift_components(surface)
    if j in lattice.oval_indices:
        i = lattice.oval_number(j)
        g = handle_half_twist(surface, i)
        return mods_mul(g, mods_pow(split_twist(surface, i), -2))
    neighbours = [b if a == j else a for a, b in lattice.edges if j in (a, b)]
    touching = sorted(lattice.oval_number(i) for i in neighbours if i in lattice.oval_indices)
    if len(neighbours) == 1 and touching:
        # A pendant bridge, attached to one oval and nothing else.
        return split_twist(surface, touching[0])
    if len(touching) == 2:
        i1, i2 = touching
        g = mods_mul(split_twist(surface, i1), split_twist(surface, i2))
        return mods_mul(g, mods_inv(fiber_twist(surface, i2)))
    if not touching:
        # An isolated bridge component acts as a plain fiber twist.
        return fiber_twist(surface, 1)
    name = lattice.basis_names[j]
    raise UnsupportedTypeError(f"no translation rule for basis class {name} of {lattice.name} ({lattice.sextic})")


def _image_matrix(lattice: GeometricLattice, star: int) -> tuple[int, tuple[Vec, ...]]:
    """The translation map's presentation: ambient rank of the linear
    coordinates, then the basis images' coordinate rows (``rank`` of them)
    followed by the relators.  The lattice keeps the one at star 0."""
    dim, relators = _coordinate_relators(lattice.sextic.surface())
    images = (linear_coordinates(_basis_image(lattice, j, star)) for j in range(lattice.rank))
    return dim, (*images, *relators)


def translation_class(lattice: GeometricLattice, v: Vec) -> ModSElement:
    """Mapping class of the fiberwise translation attached to a lattice vector.

    The sum of the basis images' linear coordinates weighted by v, which
    is the product of powers of the basis images; the lattice's translation
    kernel spells the sums out.
    """
    if len(v) != lattice.rank:
        raise ValueError("vector length differs from lattice rank")
    return from_linear_coordinates(lattice._translations[2], lattice._translation_kernel(v))


@dataclass(frozen=True)
class TranslationAnalysis:
    """Kernel, image and cokernel of the lattice-to-mapping-class map."""

    kernel_basis: tuple[Vec, ...]
    image: GroupInvariants
    cokernel: GroupInvariants


def translation_analysis(lattice: GeometricLattice, star: int = 0) -> TranslationAnalysis:
    """Kernel, image and cokernel of the translation homomorphism.

    All three come from the presentation ``_image_matrix``: the kernel is
    the lattice part of its left kernel, the image is the lattice modulo
    that kernel, and the cokernel is the coordinates modulo every row.
    ``star`` (0 or 1) picks the image of the band type's central bridge:
    the component swap, or the swap composed with the shift.
    """
    dim, stacked = _image_matrix(lattice, star) if star else lattice._translations[:2]
    kernel = hermite_rows([row[: lattice.rank] for row in left_kernel_basis(stacked)])
    image = quotient_invariants(lattice.rank, kernel)
    return TranslationAnalysis(kernel, image, quotient_invariants(dim, stacked))


def _translation_preimage(lattice: GeometricLattice, g: ModSElement) -> Vec | None:
    """A lattice vector whose translation is g, or None: g's coordinates
    peeled against the presentation's kept Hermite form, the solution cut
    to the basis images."""
    sol = peel_left(*lattice._translation_hermite, linear_coordinates(g))
    return None if sol is None else sol[: lattice.rank]


def is_translation_class(g: ModSElement) -> bool:
    """Is the mapping class realized by translation along some lattice vector?"""
    return _translation_preimage(build_lattice(g.surface.sextic()), g) is not None


def in_translation_kernel(lattice: GeometricLattice, v: Vec) -> bool:
    """Does the vector act trivially on every fiber arrangement?"""
    return translation_class(lattice, v) == mods_identity(lattice.sextic.surface())
