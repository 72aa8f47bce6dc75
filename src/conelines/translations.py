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

from .lattices import (
    GeometricLattice,
    H2ClassX,
    SurfaceType,
    UnsupportedTypeError,
    Vec,
    _checked_floor,
    build_lattice,
)
from .mod2 import Bits, Mod2Vector, mod2_pair, q0, radical_elements, reduce_mod2


def mw_act_h2(lattice: GeometricLattice, w: Vec, x: H2ClassX) -> H2ClassX:
    """Transvection by a lattice vector on the fiber/vanishing/section frame.

    The lengths are checked once, here; the lattice's transvection kernel
    returns v.w, k and v + nw in one pass.
    """
    n, v, line = lattice.rank, x.lattice_part, x.line
    if len(v) != n or len(w) != n:
        raise ValueError(f"coordinate length mismatch: rank {n}, got {len(v)} and {len(w)}")
    vw, k, moved = lattice._transvection_kernel(v, w, line)
    return H2ClassX(x.canon + vw + k * line, moved, line)


def coset_representative(x: Mod2Vector) -> Mod2Vector:
    """Lexicographically least representative of x modulo the radical.

    Computed once per residue (at most 2^8 per lattice) and kept on it,
    and always the interned residue, since the sum of two residues is.
    """
    return x._coset_representative


def shell_classes(lattice: GeometricLattice, floor: int) -> Counter[tuple[int, Bits]]:
    """How many vectors of self-pairing >= floor reduce to each class.

    A class is the fiber bit (half the self-pairing, mod 2) with the bits
    of the coset representative of the vector's mod-2 reduction.  The
    lattice's counting kernel runs the shell's descent without building a
    vector: it counts by the fiber bit, read off each vector's own norm,
    and the parities; each residue met is then mapped once to its coset.
    """
    by_parities: Counter[tuple[int, Bits]] = Counter()
    lattice._count_kernel(_checked_floor(floor), by_parities)
    hits: Counter[tuple[int, Bits]] = Counter()
    for (mu, bits), count in by_parities.items():
        hits[mu, coset_representative(lattice._residues[bits]).bits] += count
    return hits


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
        if any(type(b) is not int or b not in (0, 1) for b in (self.mu, self.nu)):
            raise ValueError("mu and nu must be bits")
        object.__setattr__(self, "v_part", coset_representative(self.v_part))


def mw_act_h1_mod2(lattice: GeometricLattice, w: Vec, x: H1Mod2Class) -> H1Mod2Class:
    """Mod-2 shadow of the transvection, on fiber/vanishing-mod-radical/section.

    The fiber bit moves by k = w^2/2 mod 2, which is ``q0`` of w's residue.
    """
    wbar = reduce_mod2(lattice, w)
    mu = (x.mu + mod2_pair(x.v_part, wbar) + q0(wbar) * x.nu) % 2
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
    lattice = build_lattice(surface.sextic())
    if x.v_part.lattice != lattice:
        raise ValueError(f"the class's residue is not on the lattice of {surface}")
    if all(q0(r) == 0 for r in radical_elements(lattice)):
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
