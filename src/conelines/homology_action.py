"""Action of fiberwise mapping classes on the first homology of the real locus.

The real locus of the elliptic surface (a Klein bottle with p handles,
possibly plus spheres) has first homology generated by the 2-torsion
real-fiber class, a pair of cycles per handle, and the class of the real
reference section.  A fiberwise mapping class moves the section to a new
section; the difference of their classes is a small datum (a fiber bit
plus one integer and one bit per handle) which determines the full action
matrix in block-triangular form, the group law on section differences,
and the parity obstruction singling out the classes realizable by real
lines.  The double Klein bottle has no such frame, and every function
that reads one refuses it.  ``realizable_mod2`` forces the fiber bit on
three surfaces, K#4T2, K#T2+S2 and K+4S2; ``obstruction_kappa`` writes it
in closed form on all three.  ``split_twist_preimage`` pulls a split twist back to
a lattice vector by ``mapping_class._translation_preimage``, the one
solve that also decides ``is_translation_class``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import prod
from operator import mul

from .intlinalg import Matrix, mat_mul
from .lattices import GeometricLattice, SurfaceType, UnsupportedTypeError, Vec, build_lattice
from .mapping_class import (
    ModSElement,
    _check_handle_index,
    _translation_preimage,
    split_twist,
    translation_analysis,
    translation_class,
)


@dataclass(frozen=True)
class H1Class:
    """An integral first homology class of the real locus.

    ``fiber_bit`` multiplies the 2-torsion real-fiber class; ``pairs``
    holds per handle the coefficients of the two handle cycles (the
    fiber-direction one first); ``line_coeff`` multiplies the reference
    section class.  Section classes have line_coeff 1 and second handle
    coefficients in {0, 1}.
    """

    fiber_bit: int
    pairs: tuple[tuple[int, int], ...]
    line_coeff: int

    def __post_init__(self) -> None:
        _check_frame(self.fiber_bit, self.pairs)
        if type(self.line_coeff) is not int:
            raise ValueError(f"the section coefficient is an int, not {self.line_coeff!r}")


def _check_frame(fiber_bit: int, pairs: tuple[tuple[int, int], ...]) -> None:
    """Refuse a fiber coefficient that is not an ``int`` bit, then handle
    coefficients that are not a tuple of tuples of two ``int``s."""
    if type(fiber_bit) is not int or fiber_bit not in (0, 1):
        raise ValueError("the fiber coefficient is 2-torsion: expected a bit")
    if type(pairs) is not tuple or any(
        type(pair) is not tuple or tuple(map(type, pair)) != (int, int) for pair in pairs
    ):
        raise ValueError(f"the handle coefficients are a tuple of pairs, not {pairs!r}")


def class_coords(x: H1Class) -> tuple[int, ...]:
    """Coordinates of x in the basis order of ``H1ActionMatrix``."""
    return (x.fiber_bit, *(c for pair in x.pairs for c in pair), x.line_coeff)


def class_from_coords(coords: Sequence[int]) -> H1Class:
    """The class with the given coordinates: the inverse of ``class_coords``."""
    if len(coords) < 2 or len(coords) % 2:
        raise ValueError(f"coordinates are a fiber bit, handle pairs and a section coefficient, not {coords!r}")
    return H1Class(coords[0], tuple(zip(coords[1:-1:2], coords[2:-1:2])), coords[-1])


@dataclass(frozen=True)
class H1Delta:
    """Difference of two section classes (the reference line subtracted).

    A separate shape from H1Class so the action formulas can insist on
    genuine section differences.  ``pairs`` holds (integer coefficient on
    the fiber-direction handle cycle, bit on the oval-direction cycle).
    """

    fiber_bit: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_frame(self.fiber_bit, self.pairs)
        if any(k not in (0, 1) for _, k in self.pairs):
            raise ValueError("oval-direction coefficients of a section difference are bits")


def _check_handle_frame(surface: SurfaceType) -> None:
    """Refuse the double Klein bottle: it has no fiber, handle and section frame."""
    if surface.double_klein:
        raise UnsupportedTypeError(
            "the double Klein bottle carries no handle frame for section classes"
        )


def zero_delta(surface: SurfaceType) -> H1Delta:
    _check_handle_frame(surface)
    return H1Delta(0, ((0, 0),) * surface.handles)


def delta_to_class(delta: H1Delta) -> H1Class:
    """The section class `reference + delta`."""
    return H1Class(delta.fiber_bit, delta.pairs, 1)


def class_of_section(g: ModSElement) -> H1Class:
    """Homology class of the image of the reference section under g."""
    _check_handle_frame(g.surface)
    fiber = _section_fiber_bit(g.half_twists, g.fiber_twists, g.split_twists)
    pairs = tuple(
        ((-1) ** (1 - k) * m, k) for m, k in zip(g.split_twists, g.half_twists)
    )
    return H1Class(fiber, pairs, 1)


def _section_fiber_bit(
    half_twists: Sequence[int], fiber_twists: Sequence[int], split_twists: Sequence[int]
) -> int:
    """Fiber bit of the image of the reference section: the fiber twists'
    parity plus the split twists of the handles without a half twist."""
    return (sum(fiber_twists) + sum(m * (1 - k) for m, k in zip(split_twists, half_twists))) % 2


def section_delta(g: ModSElement) -> H1Delta:
    """Difference between the class of g(section) and the reference class."""
    c = class_of_section(g)
    return H1Delta(c.fiber_bit, c.pairs)


@dataclass(frozen=True)
class H1ActionMatrix:
    """Matrix of a section translation on the homology basis.

    Basis order: fiber class, then the two cycles of each handle, then
    the section class.  The first row is mod-2 valued (the fiber class is
    torsion); everything else is over the integers.
    """

    surface: SurfaceType
    entries: tuple[tuple[int, ...], ...]

    def apply(self, x: H1Class) -> H1Class:
        coords = class_coords(x)
        if len(coords) != len(self.entries):
            raise ValueError("class has the wrong number of handles for this surface")
        out = [sum(map(mul, row, coords)) for row in self.entries]
        out[0] %= 2
        return class_from_coords(out)


def action_matrix(surface: SurfaceType, delta: H1Delta) -> H1ActionMatrix:
    """The full homology action of the translation with given section difference."""
    _check_handle_frame(surface)
    p = surface.handles
    if len(delta.pairs) != p:
        raise ValueError("difference has the wrong number of handles for this surface")
    dim = 2 * p + 2
    m: Matrix = [[0] * dim for _ in range(dim)]
    m[0][0] = 1
    m[dim - 1][dim - 1] = 1
    m[0][dim - 1] = delta.fiber_bit
    for i, (mi, ki) in enumerate(delta.pairs):
        rb, ro = 2 * i + 1, 2 * i + 2
        sign = (-1) ** ki
        m[rb][rb] = sign
        m[rb][ro] = -2 * mi
        m[ro][ro] = sign
        m[rb][dim - 1] = mi
        m[ro][dim - 1] = ki
        m[0][rb] = ki % 2
        m[0][ro] = mi % 2
    return H1ActionMatrix(surface, tuple(tuple(row) for row in m))


def action_mul(a: H1ActionMatrix, b: H1ActionMatrix) -> H1ActionMatrix:
    """Matrix product, reducing the torsion row mod 2."""
    if a.surface != b.surface:
        raise ValueError("matrices act on different surfaces")
    prod = mat_mul(a.entries, b.entries)
    prod[0] = [x % 2 for x in prod[0]]
    return H1ActionMatrix(a.surface, tuple(tuple(row) for row in prod))


def mw_sum(surface: SurfaceType, d1: H1Delta, d2: H1Delta) -> H1Delta:
    """Section difference of the composite translation.

    Per handle this is the product of the two upper-triangular matrices
    with diagonal (-1)^k; the fiber bit picks up the cross terms.
    """
    _check_handle_frame(surface)
    p = surface.handles
    if len(d1.pairs) != p or len(d2.pairs) != p:
        raise ValueError("difference has the wrong number of handles for this surface")
    pairs = []
    cross = 0
    for (m1, k1), (m2, k2) in zip(d1.pairs, d2.pairs):
        pairs.append((((-1) ** k1) * m2 + ((-1) ** k2) * m1, (k1 + k2) % 2))
        cross += k1 * m2 + k2 * m1
    fiber = (d1.fiber_bit + d2.fiber_bit + cross) % 2
    return H1Delta(fiber, tuple(pairs))


def obstruction_kappa(surface: SurfaceType, m: tuple[int, ...], k: tuple[int, ...]) -> int:
    """Forced fiber bit of a section difference realizable by a real line.

    Three surface types constrain the fiber coefficient (see
    ``translations.realizable_mod2``): K#4T2, K#T2+S2 and K+4S2.  This
    closed form covers all three and raises ``UnsupportedTypeError`` on
    every other surface.  K+4S2's lattice has rank 0, so its only section
    difference is the zero one, and the forced bit is q0(0) = 0.
    """
    p = surface.handles
    if len(m) != p or len(k) != p:
        raise ValueError("coefficient tuples must have one entry per handle")
    if any(b not in (0, 1) for b in k):
        raise ValueError("oval-direction coefficients must be bits")
    if (p, surface.spheres) == (4, 0):
        return (m[0] + m[2] + sum(map(mul, m, k)) + sum(k)) % 2
    if (p, surface.spheres) == (1, 1):
        return 1 if k[0] == 1 else m[0] % 2
    if (p, surface.spheres) == (0, 4):
        return 0
    raise UnsupportedTypeError(f"no closed form for the forced fiber bit on {surface}")


@dataclass(frozen=True)
class LineClassCount:
    """Result of counting homology classes of real lines on a surface.

    ``finite`` is the exact count when the image of the translation
    homomorphism is finite, and None when there are infinitely many
    classes; in the infinite case ``witnesses`` streams pairwise distinct
    section classes of real lines.
    """

    surface: SurfaceType
    finite: int | None

    def witnesses(self, how_many: int) -> tuple[H1Class, ...]:
        if self.finite is not None:
            raise ValueError("finite counts carry no witness stream")
        lattice = build_lattice(self.surface.sextic())
        w = split_twist_preimage(lattice, 1)
        return tuple(
            class_of_section(translation_class(lattice, tuple(n * x for x in w)))
            for n in range(how_many)
        )


def split_twist_preimage(lattice: GeometricLattice, i: int) -> Vec:
    """A lattice vector whose translation is the split twist at oval i.

    ``mapping_class._translation_preimage`` of the split twist, the same
    solve ``is_translation_class`` tests membership with.  Raises
    ``UnsupportedTypeError`` when the split twist lies outside the image,
    as at ovals 2 and 4 of K#4T2 (the Z/2 cokernel).
    """
    surface = lattice.sextic.surface()
    w = _translation_preimage(lattice, split_twist(surface, i))
    if w is None:
        raise UnsupportedTypeError(f"no split-twist preimage at oval {i} on {surface}")
    return w


def count_line_classes(surface: SurfaceType) -> LineClassCount:
    """How many homology classes of real lines the surface carries."""
    image = translation_analysis(build_lattice(surface.sextic())).image
    return LineClassCount(surface, None if image.free_rank else prod(image.torsion))


def vanishing_orbit(surface: SurfaceType, i: int, n: int) -> H1Class:
    """Class of the i-th vanishing cycle after n turns of monodromy.

    The orbit is infinite: each turn adds the difference of the two
    handle cycles twice (and flips the torsion bit).
    """
    p = surface.handles
    if p == 0:
        raise UnsupportedTypeError(f"{surface} has no handles, hence no vanishing cycles")
    _check_handle_index(surface, i)
    pairs = tuple((-2 * n, 1) if j == i - 1 else (0, 0) for j in range(p))
    return H1Class(n % 2, pairs, 0)
