"""Mod-2 arithmetic of the vanishing-cycle lattices.

The quotient of a geometric lattice by twice itself is a finite vector
space over GF(2) carrying the reduced bilinear form, its radical, a
quadratic refinement with values in Z/2, and on the radical a finer
quadratic function with values in Z/4.  Lines on the del Pezzo double
cover are governed by the odd non-radical stratum of that structure:
every such residue lifts to exactly one pair of opposite roots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .lattices import (
    GeometricLattice,
    Vec,
    canonical_root_pair,
    enumerate_roots,
    norm,
    pair,
    unit_vec,
)

Bits = tuple[int, ...]


@dataclass(frozen=True)
class Mod2Vector:
    """A residue class in the mod-2 quotient of a geometric lattice."""

    bits: Bits
    lattice: GeometricLattice

    def __post_init__(self) -> None:
        if len(self.bits) != self.lattice.rank:
            raise ValueError("bit length does not match the lattice rank")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def __add__(self, other: "Mod2Vector") -> "Mod2Vector":
        if other.lattice != self.lattice:
            raise ValueError("cannot add residues of different lattices")
        return Mod2Vector(
            tuple(a ^ b for a, b in zip(self.bits, other.bits)), self.lattice
        )

    def is_zero(self) -> bool:
        return not any(self.bits)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)


def reduce_mod2(lattice: GeometricLattice, v: Vec) -> Mod2Vector:
    """Coordinatewise reduction of an integer vector."""
    if len(v) != lattice.rank:
        raise ValueError("coordinate length mismatch")
    return Mod2Vector(tuple(x & 1 for x in v), lattice)


def zero_residue(lattice: GeometricLattice) -> Mod2Vector:
    return Mod2Vector((0,) * lattice.rank, lattice)


def mod2_pair(a: Mod2Vector, b: Mod2Vector) -> int:
    """The bilinear form reduced mod 2."""
    if a.lattice != b.lattice:
        raise ValueError("cannot pair residues of different lattices")
    return pair(a.lattice, a.bits, b.bits) & 1


def q0(x: Mod2Vector) -> int:
    """Quadratic refinement with values in Z/2: half the norm of any lift.

    Well-defined because the lattice is even: changing the lift by twice a
    vector changes half the norm by an even number.
    """
    return (norm(x.lattice, x.bits) // 2) & 1


@lru_cache(maxsize=None)
def radical_elements(lattice: GeometricLattice) -> tuple[Mod2Vector, ...]:
    """Every element of the radical of the reduced form, in order of their bits."""
    return tuple(x for x in all_residues(lattice) if in_radical(x))


def in_radical(x: Mod2Vector) -> bool:
    n = x.lattice.rank
    return all(
        mod2_pair(x, Mod2Vector(unit_vec(n, i), x.lattice)) == 0 for i in range(n)
    )


def q_on_R(x: Mod2Vector) -> int:
    """The Z/4-valued quadratic function, defined on the radical only."""
    if not in_radical(x):
        raise ValueError("the Z/4 form is defined on the radical only")
    return (norm(x.lattice, x.bits) // 2) % 4


@dataclass(frozen=True)
class Mod2Profile:
    """Census of the mod-2 quadratic structure of one lattice."""

    size_v: int
    size_r: int
    size_v1: int
    size_r1: int
    size_v1_minus_r1: int
    r_counts: tuple[int, int, int, int]


def all_residues(lattice: GeometricLattice) -> tuple[Mod2Vector, ...]:
    return tuple(
        Mod2Vector(bits, lattice)
        for bits in itertools.product((0, 1), repeat=lattice.rank)
    )


@lru_cache(maxsize=None)
def strata_profile(lattice: GeometricLattice) -> Mod2Profile:
    """Exhaustively count the quadratic strata (the space has at most 256 points).

    ``size_r1`` counts radical elements with Z/4-value exactly 1; the odd
    classes outside that stratum are precisely the residues of roots.
    """
    size_v1 = sum(1 for x in all_residues(lattice) if q0(x))
    r_counts = [0, 0, 0, 0]
    for r in radical_elements(lattice):
        r_counts[q_on_R(r)] += 1
    size_r = sum(r_counts)
    size_r1 = r_counts[1]
    return Mod2Profile(
        size_v=1 << lattice.rank,
        size_r=size_r,
        size_v1=size_v1,
        size_r1=size_r1,
        size_v1_minus_r1=size_v1 - size_r1,
        r_counts=tuple(r_counts),
    )


class NoRootLiftError(ValueError):
    """Raised when a residue class is not the reduction of any root.

    ``reason`` distinguishes the two failure modes: the class is even
    (``"not-odd"``), or it is odd but sits in the obstructed radical
    stratum (``"radical-one-stratum"``).
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


@lru_cache(maxsize=None)
def _lift_table(lattice: GeometricLattice) -> dict[Bits, tuple[Vec, Vec]]:
    table: dict[Bits, tuple[Vec, Vec]] = {}
    for e in enumerate_roots(lattice):
        bits = tuple(x & 1 for x in e)
        table[bits] = canonical_root_pair(e)
    return table


def lift_to_root(lattice: GeometricLattice, x: Mod2Vector) -> tuple[Vec, Vec]:
    """The unique +/- pair of roots reducing to an odd non-radical class.

    Returns the pair with the lexicographically larger vector first.
    """
    if x.lattice != lattice:
        raise ValueError("residue belongs to a different lattice")
    found = _lift_table(lattice).get(x.bits)
    if found is not None:
        return found
    if q0(x) == 0:
        raise NoRootLiftError(
            "no root lift: the class is even (roots always have odd value)",
            reason="not-odd",
        )
    # Odd but unliftable: the class must lie in the radical with Z/4-value 1.
    raise NoRootLiftError(
        "no root lift: the class lies in the obstructed radical stratum",
        reason="radical-one-stratum",
    )
