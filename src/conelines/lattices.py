"""Geometric root lattices of real sextics on a quadric cone.

Each of the eleven topological types of nonsingular real sextic curves on
the quadric cone carries a negative definite root lattice spanned by
vanishing cycles of two kinds, oval classes and bridge classes.  This
module builds those lattices in their fixed geometric bases, enumerates
their norm shells with one integer Fincke-Pohst descent (the root system
is the -2 shell), and evaluates the middle homology pairing of the real
rational elliptic surface obtained by blowing up the base point of the
anticanonical pencil of the degree-one del Pezzo double cover.

All vectors are plain integer tuples in the fixed basis, so every value in
this module is hashable and safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt, lcm
from operator import mul

Vec = tuple[int, ...]


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def smul(c: int, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def zero_vec(rank: int) -> Vec:
    return (0,) * rank


def unit_vec(rank: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(rank))


class UnsupportedTypeError(ValueError):
    """An operation was asked for a curve or surface type it is not defined on."""


# ---------------------------------------------------------------------------
# topological type tags


@dataclass(frozen=True, order=True)
class SexticType:
    """Topological type of a nonsingular real sextic on the quadric cone.

    The real locus of the cone minus the curve has two halves.
    ``pos_ovals`` counts the ovals bounding discs in the half covered by the
    real del Pezzo surface, ``neg_ovals`` the ovals bounding discs in the
    opposite half.  ``bands`` marks the one exceptional type whose real
    locus consists of three non-contractible components and carries no
    ovals at all.

    Written out, the eleven types are ``4|0``, ``3|0``, ``2|0``, ``1|0``,
    ``0|0``, ``1|1``, ``|||`` and ``0|1`` ... ``0|4``.
    """

    pos_ovals: int
    neg_ovals: int
    bands: bool = False

    def __post_init__(self) -> None:
        if self.bands:
            if self.pos_ovals or self.neg_ovals:
                raise ValueError("the band type carries no ovals")
            return
        p, q = self.pos_ovals, self.neg_ovals
        ok = (q == 0 and 0 <= p <= 4) or (p == 0 and 0 <= q <= 4) or (p == q == 1)
        if not ok:
            raise ValueError(f"no such sextic type: {p}|{q}")

    @property
    def key(self) -> str:
        if self.bands:
            return "|||"
        return f"{self.pos_ovals}|{self.neg_ovals}"

    def __str__(self) -> str:
        return self.key

    @classmethod
    def from_key(cls, key: str) -> "SexticType":
        """Parse a ``p|q`` string or the literal ``|||``."""
        key = key.strip()
        if key == "|||":
            return cls(0, 0, bands=True)
        m = re.fullmatch(r"(\d)\|(\d)", key)
        if m is None:
            raise ValueError(f"cannot parse sextic type {key!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def mirror(self) -> "SexticType":
        """The same curve seen from the other half of the cone.

        Swapping the halves exchanges the two kinds of ovals, so the
        positive tritangents of the mirror type are exactly the real
        tritangents of this type living in the opposite half.
        """
        if self.bands:
            return self
        return SexticType(self.neg_ovals, self.pos_ovals)

    def surface(self) -> "SurfaceType":
        """Real locus of the elliptic surface attached to this sextic type."""
        return SurfaceType(self.pos_ovals, self.neg_ovals, self.bands)


ALL_SEXTIC_TYPES: tuple[SexticType, ...] = tuple(
    SexticType.from_key(k)
    for k in ("4|0", "3|0", "2|0", "1|0", "0|0", "1|1", "|||", "0|1", "0|2", "0|3", "0|4")
)


@dataclass(frozen=True, order=True)
class SurfaceType:
    """Topological type of the real locus of the rational elliptic surface.

    ``handles`` is the number of torus summands attached to the Klein
    bottle component, ``spheres`` the number of spherical components, and
    ``double_klein`` marks the disconnected locus made of two Klein
    bottles.  Keys look like ``K#4T2``, ``K#T2+S2``, ``K+2S2``, ``K+K``.
    """

    handles: int
    spheres: int
    double_klein: bool = False

    def __post_init__(self) -> None:
        # The same validity rule as the sextic's, under the surface's name.
        try:
            self.sextic()
        except ValueError:
            raise ValueError(f"no such surface type: {self!r}") from None

    @property
    def key(self) -> str:
        if self.double_klein:
            return "K+K"
        parts = ["K"]
        if self.handles == 1:
            parts.append("#T2")
        elif self.handles > 1:
            parts.append(f"#{self.handles}T2")
        if self.spheres == 1:
            parts.append("+S2")
        elif self.spheres > 1:
            parts.append(f"+{self.spheres}S2")
        return "".join(parts)

    def __str__(self) -> str:
        return self.key

    @classmethod
    def from_key(cls, key: str) -> "SurfaceType":
        """The surface type spelled exactly ``key`` (surrounding blanks ignored)."""
        for surface in ALL_SURFACE_TYPES:
            if surface.key == key.strip():
                return surface
        raise ValueError(f"cannot parse surface type {key!r}")

    def sextic(self) -> SexticType:
        """The sextic type whose del Pezzo surface has this real elliptic locus."""
        return SexticType(self.handles, self.spheres, self.double_klein)


ALL_SURFACE_TYPES: tuple[SurfaceType, ...] = tuple(s.surface() for s in ALL_SEXTIC_TYPES)


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class GeometricLattice:
    """A vanishing-cycle root lattice in its fixed geometric basis.

    ``edges`` lists the adjacent pairs of cycles; the Gram matrix has
    diagonal -2 and off-diagonal +1 exactly on those pairs.
    ``oval_indices``/``bridge_indices`` record which basis positions hold
    oval classes and which hold bridge classes.
    """

    name: str
    sextic: SexticType
    basis_names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    oval_indices: tuple[int, ...]
    bridge_indices: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.basis_names)

    @cached_property
    def gram(self) -> tuple[Vec, ...]:
        """The full Gram matrix, built once from the edge list."""
        n = self.rank
        g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in self.edges:
            g[i][j] = g[j][i] = 1
        return tuple(tuple(row) for row in g)

    def basis_vector(self, i: int) -> Vec:
        return unit_vec(self.rank, i)

    def oval_number(self, basis_index: int) -> int:
        """1-based oval number of an oval basis position."""
        return self.oval_indices.index(basis_index) + 1


# (basis names, adjacency edges, oval positions, lattice name) per type key.
_GRAPHS: dict[str, tuple[tuple[str, ...], tuple[tuple[int, int], ...], tuple[int, ...], str]] = {
    "4|0": (
        ("O1", "B12", "O2", "B23", "O3", "B34", "O4", "B3"),
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)),
        (0, 2, 4, 6),
        "E8",
    ),
    "3|0": (
        ("B1", "O1", "B12", "O2", "B23", "O3", "B2"),
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6)),
        (1, 3, 5),
        "E7",
    ),
    "2|0": (
        ("B1", "O1", "B12", "O2", "B2", "B2'"),
        ((0, 1), (1, 2), (2, 3), (3, 4), (3, 5)),
        (1, 3),
        "D6",
    ),
    "1|0": (
        ("B1", "O1", "B1'", "B1''", "B11"),
        ((0, 1), (1, 2), (1, 3)),
        (1,),
        "D4+A1",
    ),
    "1|1": (
        ("O1", "B1", "B1'", "B1''"),
        ((0, 1), (0, 2), (0, 3)),
        (0,),
        "D4",
    ),
    "|||": (
        ("B0", "B1", "B2", "B3"),
        ((0, 1), (0, 2), (0, 3)),
        (),
        "D4",
    ),
    # 0|q: 4 - q pairwise orthogonal bridge classes only.
    **{
        f"0|{q}": (tuple(f"B{i + 1}" for i in range(4 - q)), (), (), f"{4 - q}A1" if q < 4 else "0")
        for q in range(5)
    },
}


@lru_cache(maxsize=None)
def build_lattice(sextic: SexticType) -> GeometricLattice:
    """The geometric root lattice of a sextic type, in its normative basis."""
    names, edges, ovals, name = _GRAPHS[sextic.key]
    return GeometricLattice(
        name=name,
        sextic=sextic,
        basis_names=names,
        edges=edges,
        oval_indices=ovals,
        bridge_indices=tuple(i for i in range(len(names)) if i not in ovals),
    )


# ---------------------------------------------------------------------------
# pairing and roots


def pair(lattice: GeometricLattice, v: Vec, w: Vec) -> int:
    """Evaluate the lattice's bilinear form on two coordinate vectors.

    The Gram matrix is -2 on the diagonal and +1 on the Dynkin edges, so
    v.w = -2 sum_i v_i w_i + sum_{(i, j) edge} (v_i w_j + v_j w_i), which
    costs O(rank) instead of O(rank^2).
    """
    n = lattice.rank
    if len(v) != n or len(w) != n:
        raise ValueError(f"coordinate length mismatch: rank {n}, got {len(v)} and {len(w)}")
    total = -2 * sum(map(mul, v, w))
    for i, j in lattice.edges:
        total += v[i] * w[j] + v[j] * w[i]
    return total


def norm(lattice: GeometricLattice, v: Vec) -> int:
    return pair(lattice, v, v)


def is_root(lattice: GeometricLattice, v: Vec) -> bool:
    return len(v) == lattice.rank and norm(lattice, v) == -2


def reflect(lattice: GeometricLattice, e: Vec, x: Vec) -> Vec:
    """Reflection of x in the hyperplane of a norm -2 vector e."""
    return vadd(x, smul(pair(lattice, x, e), e))


@lru_cache(maxsize=None)
def _square_completion(lattice: GeometricLattice) -> tuple[int, tuple]:
    """Integer Fincke-Pohst levels of the negated form.

    Completing squares writes the positive definite form -v.v as
    sum_i d_i (x_i + sum_{j>i} r_ij x_j)^2 with exact rationals d_i > 0
    (every lattice here is negative definite).  With den_i the least
    common denominator of the r_ij, a_ij = den_i r_ij and one global scale
    S chosen so that every K_i = S d_i / den_i^2 is an integer, this is

        S * (-v.v) = sum_i K_i u_i^2,   u_i = den_i x_i + sum_{j>i} a_ij x_j,

    with integers throughout.  Returns (S, levels), where levels[i] is
    (den_i, K_i, ((j, a_ij), ...)) over the nonzero a_ij.  Fractions are
    used here only, once per lattice.
    """
    from fractions import Fraction

    n = lattice.rank
    q = [[Fraction(-lattice.gram[i][j]) for j in range(n)] for i in range(n)]
    rational = []
    for i in range(n):
        d = q[i][i]
        rational.append((d, {j: q[i][j] / d for j in range(i + 1, n) if q[i][j]}))
        for a in range(i + 1, n):
            for b in range(i + 1, n):
                q[a][b] -= q[i][a] * q[i][b] / d
    dens = [lcm(1, *(r.denominator for r in row.values())) for _, row in rational]
    scale = lcm(1, *((d / den**2).denominator for (d, _), den in zip(rational, dens)))
    levels = tuple(
        (
            den,
            int(scale * d / den**2),
            tuple((j, int(den * r)) for j, r in row.items()),
        )
        for (d, row), den in zip(rational, dens)
    )
    return scale, levels


def vectors_with_norm_at_least(lattice: GeometricLattice, floor: int) -> tuple[Vec, ...]:
    """All lattice vectors v with floor <= v.v (<= 0 by definiteness), sorted.

    Fincke-Pohst enumeration on integers only (Fincke and Pohst, Math.
    Comp. 44, 1985; Cohen, Alg. 2.7.5), over the levels of
    ``_square_completion``.  The budget starts at R = -floor * S and the
    descent runs from the last coordinate to the first.  At level i the
    coordinates above fix the centre c = sum a_ij x_j, and K_i u^2 <= R
    holds exactly when |u| <= t = isqrt(R // K_i), so x_i runs over
    ceil((-t - c) / den_i) .. floor((t - c) / den_i) with no further test
    and R - K_i u^2 is passed down.
    """
    n = lattice.rank
    if floor > 0:
        return ()
    if n == 0:
        return ((),)
    scale, levels = _square_completion(lattice)
    out: list[Vec] = []
    coords = [0] * n

    def descend(i: int, budget: int) -> None:
        den, weight, centre = levels[i]
        c = sum(a * coords[j] for j, a in centre)
        t = isqrt(budget // weight)
        xs = range(-((t + c) // den), (t - c) // den + 1)
        if i == 0:
            for x in xs:
                coords[0] = x
                out.append(tuple(coords))
        else:
            for x in xs:
                coords[i] = x
                u = den * x + c
                descend(i - 1, budget - weight * u * u)
        coords[i] = 0

    descend(n - 1, -floor * scale)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def enumerate_roots(lattice: GeometricLattice) -> tuple[Vec, ...]:
    """All norm -2 vectors, sorted lexicographically.

    Every lattice here is even and negative definite, so the nonzero
    vectors of the -2 shell are exactly the roots.
    """
    return tuple(v for v in vectors_with_norm_at_least(lattice, -2) if any(v))


def canonical_root_pair(e: Vec) -> tuple[Vec, Vec]:
    """Order a +/- root pair deterministically (larger tuple first)."""
    f = vneg(e)
    return (e, f) if e > f else (f, e)


def root_pairs(lattice: GeometricLattice) -> tuple[tuple[Vec, Vec], ...]:
    """The roots grouped into +/- pairs, sorted by canonical representative."""
    pairs = {canonical_root_pair(e) for e in enumerate_roots(lattice)}
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# homology classes of the elliptic surface


@dataclass(frozen=True)
class H2ClassX:
    """Middle homology class of the elliptic surface.

    Stored in the splitting spanned by the anticanonical fiber direction,
    the root lattice, and a fixed section:  ``canon`` multiplies the
    canonical class (negative of the fiber), ``line`` multiplies the fixed
    section class.
    """

    canon: int
    lattice_part: Vec
    line: int


def pairing_x(lattice: GeometricLattice, a: H2ClassX, b: H2ClassX) -> int:
    mixed = a.canon * b.line + a.line * b.canon + a.line * b.line
    return -mixed + pair(lattice, a.lattice_part, b.lattice_part)


def fiber_class_x(lattice: GeometricLattice) -> H2ClassX:
    """The fiber class (negative of the canonical class)."""
    return H2ClassX(-1, zero_vec(lattice.rank), 0)


def base_line_class_x(lattice: GeometricLattice) -> H2ClassX:
    """The fixed reference section."""
    return H2ClassX(0, zero_vec(lattice.rank), 1)


def line_class_on_X(lattice: GeometricLattice, v: Vec) -> H2ClassX:
    """Section class of the translation image of the reference section.

    Any lattice vector is allowed, not only roots; the result always
    self-pairs to -1 and meets the fiber once.
    """
    if len(v) != lattice.rank:
        raise ValueError("coordinate length mismatch")
    return H2ClassX(norm(lattice, v) // 2, v, 1)
