"""Mordell-Weil translations acting on second homology and its mod-2 shadow.

Translating the elliptic surface by a lattice vector w sends a section
class to a section class; on the sublattice spanned by the fiber, the
vanishing cycles and a fixed section the action has the classical
transvection shape (m, v, n) -> (m + v.w + kn, v + nw, n) with
k = w^2/2.  Reducing everything mod 2 (and quotienting the vanishing
part by the radical) gives the action on the first homology of the real
locus used by the line-realizability criteria, where only the types
whose mod-2 quadratic form vanishes on the radical impose a parity
constraint.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .lattices import (
    GeometricLattice,
    H2ClassX,
    SurfaceType,
    UnsupportedTypeError,
    Vec,
    build_lattice,
    norm,
    pair,
    vadd,
    smul,
    vectors_with_norm_at_least,
)
from .mod2 import Bits, Mod2Vector, mod2_pair, q0, radical_elements, reduce_mod2


def mw_act_h2(lattice: GeometricLattice, w: Vec, x: H2ClassX) -> H2ClassX:
    """Transvection by a lattice vector on the fiber/vanishing/section frame."""
    k = norm(lattice, w) // 2
    return H2ClassX(
        x.canon + pair(lattice, x.lattice_part, w) + k * x.line,
        vadd(x.lattice_part, smul(x.line, w)),
        x.line,
    )


def coset_representative(x: Mod2Vector) -> Mod2Vector:
    """Lexicographically least representative of x modulo the radical."""
    return _least_in_coset(x.lattice, x.bits)


@lru_cache(maxsize=None)
def _least_in_coset(lattice: GeometricLattice, bits: Bits) -> Mod2Vector:
    """The minimum over the radical, computed once per residue (at most 2^8)."""
    x = Mod2Vector(bits, lattice)
    return min((x + r for r in radical_elements(lattice)), key=lambda y: y.bits)


def shell_classes(lattice: GeometricLattice, floor: int) -> Counter[tuple[int, Bits]]:
    """How many vectors of self-pairing >= floor reduce to each class.

    A class is the fiber bit (half the self-pairing, mod 2) with the bits
    of the coset representative of the vector's mod-2 reduction.
    """
    return Counter(
        ((norm(lattice, w) // 2) % 2, coset_representative(reduce_mod2(lattice, w)).bits)
        for w in vectors_with_norm_at_least(lattice, floor)
    )


@dataclass(frozen=True)
class H1Mod2Class:
    """A mod-2 first homology class of the real locus, in the split frame.

    ``mu`` counts the real fiber, ``v_part`` is a vanishing-cycle class
    taken modulo the radical (stored by its lexicographically least
    representative), and ``nu`` counts the real section.
    """

    mu: int
    v_part: Mod2Vector
    nu: int

    def __post_init__(self) -> None:
        if self.mu not in (0, 1) or self.nu not in (0, 1):
            raise ValueError("mu and nu must be bits")
        object.__setattr__(self, "v_part", coset_representative(self.v_part))


def mw_act_h1_mod2(lattice: GeometricLattice, w: Vec, x: H1Mod2Class) -> H1Mod2Class:
    """Mod-2 shadow of the transvection, on fiber/vanishing-mod-radical/section."""
    if x.v_part.lattice != lattice:
        raise ValueError("class belongs to a different lattice")
    wbar = reduce_mod2(lattice, w)
    k = (norm(lattice, w) // 2) % 2
    mu = (x.mu + mod2_pair(x.v_part, wbar) + k * x.nu) % 2
    v = x.v_part + wbar if x.nu else x.v_part
    return H1Mod2Class(mu, v, x.nu)


def realizable_mod2(surface: SurfaceType, x: H1Mod2Class) -> bool:
    """Is the mod-2 class realized by a real line on this surface?

    Where the quadratic refinement vanishes on the whole radical, the
    fiber coefficient of a realizable line class is forced to its value.
    """
    if surface.double_klein:
        raise UnsupportedTypeError(
            "the double Klein bottle has no fiber/vanishing/section frame"
        )
    if x.nu != 1:
        raise ValueError("only section-type classes (nu = 1) can be realized by lines")
    if all(q0(r) == 0 for r in radical_elements(build_lattice(surface.sextic()))):
        return x.mu == q0(x.v_part)
    return True


def conic_count(t1_count: int, t2_count: int, r_count: int) -> int:
    """Number of conics tangent to both sextics, from the tritangent totals.

    Takes the full real-tritangent totals of the two curves and the number
    of shared tangency constraints; the two totals must have even sum.
    """
    if (t1_count + t2_count) % 2:
        raise ValueError("tritangent totals must have even sum")
    return (t1_count + t2_count) // 2 - r_count
