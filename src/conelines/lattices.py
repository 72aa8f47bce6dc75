"""Geometric root lattices of real sextics on a quadric cone.

Each of the eleven topological types of nonsingular real sextic curves on
the quadric cone carries a negative definite root lattice spanned by
vanishing cycles of two kinds, oval classes and bridge classes.  One
table, ``_GRAPHS``, describes them: per type key, in the published order,
the basis names, the Dynkin edges and the lattice name.  The list of
types, the rule for which types exist and the oval positions (the classes
named ``O1`` ...) are all read off it.  This module builds those lattices
in their fixed geometric bases, enumerates their norm shells with one
integer Fincke-Pohst descent (the root system is the -2 shell), and
evaluates the middle homology pairing of the real rational elliptic
surface obtained by blowing up the base point of the anticanonical pencil
of the degree-one del Pezzo double cover.

The descent completes squares from the last coordinate down, so it fixes
the first coordinate first and emits each shell in lexicographic order.
A lattice generates its kernels from its rank, edge list and descent
levels the first time each is used, as plain functions that unpack a
vector's coordinates into names: the pairing and the norm as straight-line
sums over the edges and the diagonal (written once, by ``_pairing`` and
``_half_norm``), the transvection's (v.w, w.w / 2, v + n w) in one pass
with those sums, a vector's linear coordinates under the translation map
as one sum each over the map's presentation, the mod-2 reduction as one
lookup of the parities in the residue table, and the descent
(``_descent``) as one loop nest, ``for x0 ...: ... for x{n-1} ...:``,
whose innermost body either keeps the vector or counts it by (fiber bit,
parities) without building it.  A lattice checks its names and edge list
once, when it is made, so the Gram matrix and every kernel read the same
form.  A kernel's source holds only names, operators and integers: the
checked edge indices, those that ``_square_completion`` derives from
them and the presentation's; its globals are the residue table, ``isqrt``
and ``range``.  The presentation's row Hermite form is kept too, so a
solve for a translation's preimage only peels.

All vectors are plain integer tuples in the fixed basis, so every value in
this module is hashable and safe to share between threads.  ``pair`` and
``norm`` are hot paths: they check a vector's length and trust its entries
to be integers.
"""

from __future__ import annotations

import itertools
import re
import string
from collections.abc import Callable, Iterable, Mapping
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from math import isqrt, lcm
from operator import add, mul, neg
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from collections import Counter

    from .mod2 import Mod2Vector
    from .tritangents import Tritangent

Vec = tuple[int, ...]


def vadd(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} and {len(b)}")
    return tuple(map(add, a, b))


def vneg(a: Vec) -> Vec:
    return tuple(map(neg, a))


def smul(c: int, a: Vec) -> Vec:
    return tuple(map(mul, itertools.repeat(c), a))


def unit_vec(rank: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(rank))


class UnsupportedTypeError(ValueError):
    """An operation was asked for a curve or surface type it is not defined on."""


# ---------------------------------------------------------------------------
# topological type tags

#: The blanks a type key may carry around it: ASCII whitespace, as
#: ``string.whitespace``, and no other Unicode space.
_BLANKS = string.whitespace

#: (basis names, adjacency edges, lattice name) per type key, in the published
#: order: the one list of the types.  A basis class named ``O<i>`` is the i-th
#: oval; every other class is a bridge.  A ``0|q`` type keeps 4 - q pairwise
#: orthogonal bridge classes only.  Read-only: ``SexticType`` reads it to tell
#: which types exist, so a write would add a type that has no lattice.
_GRAPHS: Mapping[str, tuple[tuple[str, ...], tuple[tuple[int, int], ...], str]] = MappingProxyType({
    "4|0": (
        ("O1", "B12", "O2", "B23", "O3", "B34", "O4", "B3"),
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)),
        "E8",
    ),
    "3|0": (
        ("B1", "O1", "B12", "O2", "B23", "O3", "B2"),
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6)),
        "E7",
    ),
    "2|0": (("B1", "O1", "B12", "O2", "B2", "B2'"), ((0, 1), (1, 2), (2, 3), (3, 4), (3, 5)), "D6"),
    "1|0": (("B1", "O1", "B1'", "B1''", "B11"), ((0, 1), (1, 2), (1, 3)), "D4+A1"),
    "0|0": (("B1", "B2", "B3", "B4"), (), "4A1"),
    "1|1": (("O1", "B1", "B1'", "B1''"), ((0, 1), (0, 2), (0, 3)), "D4"),
    "|||": (("B0", "B1", "B2", "B3"), ((0, 1), (0, 2), (0, 3)), "D4"),
    "0|1": (("B1", "B2", "B3"), (), "3A1"),
    "0|2": (("B1", "B2"), (), "2A1"),
    "0|3": (("B1",), (), "1A1"),
    "0|4": ((), (), "0"),
})


@dataclass(frozen=True)
class SexticType:
    """Topological type of a nonsingular real sextic on the quadric cone.

    The real locus of the cone minus the curve has two halves.
    ``pos_ovals`` counts the ovals bounding discs in the half covered by the
    real del Pezzo surface, ``neg_ovals`` the ovals bounding discs in the
    opposite half.  ``bands`` marks the one exceptional type whose real
    locus consists of three non-contractible components and carries no
    ovals at all.

    The eleven types, in their published order, are the keys of ``_GRAPHS``.
    """

    pos_ovals: int
    neg_ovals: int
    bands: bool = False

    def __post_init__(self) -> None:
        p, q = self.pos_ovals, self.neg_ovals
        if type(p) is not int or type(q) is not int or type(self.bands) is not bool:
            raise ValueError(f"a sextic type takes two int counts and a bool: {self!r}")
        if self.bands and (p or q):
            raise ValueError("the band type carries no ovals")
        if self.key not in _GRAPHS:
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
        """Parse a ``p|q`` string of two ASCII digits or the literal ``|||``
        (surrounding ASCII blanks ignored)."""
        key = key.strip(_BLANKS)
        if key == "|||":
            return cls(0, 0, bands=True)
        m = re.fullmatch(r"([0-9])\|([0-9])", key)
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


ALL_SEXTIC_TYPES: tuple[SexticType, ...] = tuple(SexticType.from_key(key) for key in _GRAPHS)


@dataclass(frozen=True)
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
        """The surface type spelled exactly ``key`` (surrounding ASCII blanks ignored)."""
        key = key.strip(_BLANKS)
        for surface in ALL_SURFACE_TYPES:
            if surface.key == key:
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

    Four fields: ``name``, ``sextic``, ``basis_names`` and ``edges``.
    ``edges`` lists the adjacent pairs of cycles; the Gram matrix has
    diagonal -2 and off-diagonal +1 exactly on those pairs.  The positions
    whose names start with ``O`` hold oval classes (``oval_indices``), the
    others bridge classes (``bridge_indices``).  The fields are checked
    once, here: the name is a ``str`` and the sextic a ``SexticType``,
    the names and edges are tuples, the ovals are named
    ``O1`` ... ``O<p>`` in basis order for the sextic type's p =
    ``pos_ovals``, each edge is a pair of plain ints in range(rank) that
    joins two distinct positions, and no pair appears twice in either
    orientation.

    Every table derived from it is computed on first use and kept on the
    instance, so it lives and dies with it: the Gram matrix, the
    Fincke-Pohst levels, the mod-2 quotient and its radical, the
    tritangent census, the translation map's presentation and its row
    Hermite form, and the kernels.
    ``build_lattice.cache_clear()`` drops them from the current lattices.
    """

    name: str
    sextic: SexticType
    basis_names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if type(self.name) is not str or type(self.sextic) is not SexticType:
            raise ValueError(f"a lattice takes a str name and a SexticType, not {self.name!r} and {self.sextic!r}")
        names, p = self.basis_names, self.sextic.pos_ovals
        if type(names) is not tuple or type(self.edges) is not tuple or any(type(x) is not str for x in names):
            raise ValueError(f"{self.name} needs a tuple of string names and a tuple of edges")
        ovals, needed = tuple(names[i] for i in self.oval_indices), tuple(f"O{k}" for k in range(1, p + 1))
        if ovals != needed:
            raise ValueError(f"the ovals of {self.name} are named {ovals}, but {self.sextic} needs {needed}")
        n = len(names)
        joined = set()
        for edge in self.edges:
            if type(edge) is not tuple or len(edge) != 2 or any(type(i) is not int for i in edge):
                raise ValueError(f"edge {edge!r} of {self.name} is not a pair of integers")
            if not all(0 <= i < n for i in edge):
                raise ValueError(f"edge {edge!r} of {self.name} leaves range({n})")
            if edge[0] == edge[1] or frozenset(edge) in joined:
                raise ValueError(f"edge {edge!r} of {self.name} is a loop or a repeat")
            joined.add(frozenset(edge))

    def __getstate__(self) -> dict:
        """Fields and tables; the kernels are generated code, which does not pickle."""
        return {k: v for k, v in vars(self).items() if k not in _KERNELS}

    @cached_property
    def rank(self) -> int:
        return len(self.basis_names)

    @cached_property
    def oval_indices(self) -> tuple[int, ...]:
        """The basis positions that hold oval classes: those named ``O...``."""
        return tuple(i for i, x in enumerate(self.basis_names) if x.startswith("O"))

    @property
    def bridge_indices(self) -> tuple[int, ...]:
        """The basis positions that hold bridge classes: all but the ovals'."""
        return tuple(i for i in range(self.rank) if i not in self.oval_indices)

    @cached_property
    def gram(self) -> tuple[Vec, ...]:
        """The full Gram matrix, built once from the edge list."""
        n = self.rank
        g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in self.edges:
            g[i][j] = g[j][i] = 1
        return tuple(tuple(row) for row in g)

    @cached_property
    def _pair_kernel(self) -> Callable[[Vec, Vec], int]:
        """v.w as one straight-line expression: each edge's two products, minus twice the diagonal."""
        return _kernel(
            "def kernel(v, w):",
            f"    ({_coordinates('x', self.rank)}) = v",
            f"    ({_coordinates('y', self.rank)}) = w",
            f"    return {_pairing(self, 'x', 'y')}",
        )

    @cached_property
    def _norm_kernel(self) -> Callable[[Vec], int]:
        """v.v as twice the edge products minus twice the squares."""
        return _kernel(
            "def kernel(v):",
            f"    ({_coordinates('x', self.rank)}) = v",
            f"    return 2 * ({_half_norm(self, 'x')})",
        )

    @cached_property
    def _transvection_kernel(self) -> Callable[[Vec, Vec, int], tuple[int, int, Vec]]:
        """(v.w, w.w / 2, v + line * w) in one pass, with the pairing's and the norm's sums."""
        moved = "".join(f"x{i} + line * y{i}, " for i in range(self.rank))
        return _kernel(
            "def kernel(v, w, line):",
            f"    ({_coordinates('x', self.rank)}) = v",
            f"    ({_coordinates('y', self.rank)}) = w",
            f"    return {_pairing(self, 'x', 'y')}, {_half_norm(self, 'y')}, ({moved})",
        )

    @cached_property
    def _translation_kernel(self) -> Callable[[Vec], Vec]:
        """A vector's linear coordinates under the translation map, one straight-line sum each.

        Coordinate k is sum_j v_j A_jk over the basis images' rows A of the
        star-0 presentation, whose integers are written into the source.
        """
        dim, rows, _ = self._translations
        images = rows[: self.rank]
        sums = "".join(f"{_combination(row[k] for row in images)}, " for k in range(dim))
        return _kernel(
            "def kernel(v):",
            f"    ({_coordinates('x', self.rank)}) = v",
            f"    return ({sums})",
        )

    @cached_property
    def _residue_kernel(self) -> Callable[[Vec], Mod2Vector]:
        """The interned residue of a vector, looked up by its coordinatewise parities."""
        return _kernel(
            "def kernel(v):",
            f"    ({_coordinates('x', self.rank)}) = v",
            f"    return residues[({_parities(self.rank)})]",
            residues=self._residues,
        )

    @cached_property
    def _shell_kernel(self) -> Callable[[int, Callable[[Vec], object]], None]:
        """The descent that hands each vector of a shell to its sink, in lexicographic order."""
        return _kernel(*_descent(*self._square_completion, f"sink(({_coordinates('x', self.rank)}))"))

    @cached_property
    def _count_kernel(self) -> Callable[[int, Counter], None]:
        """The descent that counts a shell's vectors by (fiber bit, parities), building none.

        A vector spent S * (-v.v) of the budget, so its fiber bit, half its
        own norm mod 2, is that over 2S, mod 2.
        """
        scale, levels = self._square_completion
        leaf = f"sink[({{spent}}) // {2 * scale} & 1, ({_parities(self.rank)})] += 1"
        return _kernel(*_descent(scale, levels, leaf))

    @cached_property
    def _residues(self) -> dict[Vec, Mod2Vector]:
        """The mod-2 quotient (at most 2^8 points) by bits, each residue validated once, here."""
        from .mod2 import Mod2Vector  # mod2 builds on this module

        return {bits: Mod2Vector(bits, self) for bits in itertools.product((0, 1), repeat=self.rank)}

    @cached_property
    def _radical(self) -> tuple[Mod2Vector, ...]:
        """The radical of the reduced form, in order of the residues' bits."""
        from .mod2 import in_radical  # mod2 builds on this module

        return tuple(x for x in self._residues.values() if in_radical(x))

    @cached_property
    def _tritangents(self) -> tuple[Tritangent, ...]:
        """The positive tritangents, one per +/- root pair, by canonical representative."""
        from .tritangents import classify_root  # tritangents builds on this module

        return tuple(classify_root(self, plus) for plus, _ in root_pairs(self))

    @cached_property
    def _translations(self) -> tuple[int, tuple[Vec, ...], SurfaceType]:
        """The translation map's presentation at star 0: ``_image_matrix``'s
        (dim, rows), then the surface.  All tuples: no reader can change it."""
        from .mapping_class import _image_matrix  # mapping_class builds on this module

        return (*_image_matrix(self, 0), self.sextic.surface())

    @cached_property
    def _translation_hermite(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """The row Hermite form U A = H of the presentation's rows A, as the tuples (H, U)."""
        from .intlinalg import row_hermite_form  # loaded where a solve first needs it, as the layers are

        form = row_hermite_form(self._translations[1])
        return tuple(map(tuple, form.h)), tuple(map(tuple, form.u))

    @cached_property
    def _square_completion(self) -> tuple[int, tuple]:
        """Integer Fincke-Pohst levels of the negated form.

        Completing squares from the last coordinate down writes the
        positive definite form -v.v as sum_i d_i (x_i + sum_{j<i} r_ij x_j)^2
        with exact rationals d_i > 0; the first pivot d_i <= 0 shows that
        the form is not negative definite and raises ``ValueError``.  With
        den_i the least common denominator of the r_ij, a_ij = den_i r_ij
        and one global scale S chosen so that every K_i = S d_i / den_i^2
        is an integer, this is

            S * (-v.v) = sum_i K_i u_i^2,   u_i = den_i x_i + sum_{j<i} a_ij x_j,

        with integers throughout.  Returns (S, levels), where levels[i] is
        (den_i, K_i, ((j, a_ij), ...)) over the nonzero a_ij, each an
        ``int``, with 1 <= den_i, 1 <= K_i and 0 <= j < i.  Fractions are
        used here only, once per lattice.
        """
        from fractions import Fraction

        n = self.rank
        q = [[Fraction(-self.gram[i][j]) for j in range(n)] for i in range(n)]
        rational = [None] * n
        for i in reversed(range(n)):
            d = q[i][i]
            if d <= 0:
                raise ValueError(f"the form of {self.name} is not negative definite")
            rational[i] = (d, {j: q[i][j] / d for j in range(i) if q[i][j]})
            for a in range(i):
                for b in range(i):
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

    def basis_vector(self, i: int) -> Vec:
        return unit_vec(self.rank, i)

    def oval_number(self, basis_index: int) -> int:
        """1-based oval number of an oval basis position, read off its name ``O<k>``."""
        if basis_index not in self.oval_indices:
            raise ValueError(f"position {basis_index!r} of {self.name} holds no oval")
        return int(self.basis_names[basis_index][1:])


def _coordinates(name: str, rank: int) -> str:
    """A vector's coordinates as tuple items: ``x0, x1, `` for rank 2, nothing for rank 0."""
    return "".join(f"{name}{i}, " for i in range(rank))


def _pairing(lattice: GeometricLattice, x: str, y: str) -> str:
    """v.w over the names x0 .. and y0 ..: each edge's two products, minus twice the diagonal."""
    edges = " + ".join(f"{x}{i} * {y}{j} + {x}{j} * {y}{i}" for i, j in lattice.edges)
    diagonal = " + ".join(f"{x}{i} * {y}{i}" for i in range(lattice.rank))
    return f"{edges or 0} - 2 * ({diagonal or 0})"


def _half_norm(lattice: GeometricLattice, x: str) -> str:
    """v.v / 2 over the names x0 ..: the edge products minus the squares (the form is even)."""
    edges = " + ".join(f"{x}{i} * {x}{j}" for i, j in lattice.edges)
    diagonal = " + ".join(f"{x}{i} * {x}{i}" for i in range(lattice.rank))
    return f"{edges or 0} - ({diagonal or 0})"


def _combination(coefficients: Iterable[int]) -> str:
    """sum_j a_j x_j as signed terms, ``x1 - x2 + 2 * x3``; ``0`` if every a_j is."""
    terms = (
        f"{'-' if a < 0 else '+'} {f'{abs(a)} * ' if abs(a) != 1 else ''}x{j}"
        for j, a in enumerate(coefficients)
        if a
    )
    return " ".join(terms).removeprefix("+ ") or "0"


def _parities(rank: int) -> str:
    """A vector's coordinatewise parities as tuple items."""
    return "".join(f"x{i} & 1, " for i in range(rank))


def _kernel(*lines: str, **tables: object) -> Callable:
    """Compile the function ``kernel`` from source that holds only integers, names and operators.

    Its globals are the named tables, ``isqrt`` and ``range``: no other builtin.
    """
    scope = {"__builtins__": {}, "isqrt": isqrt, "range": range, **tables}
    exec(compile("\n".join(lines), "<lattice kernel>", "exec"), scope)
    return scope["kernel"]


def _descent(scale: int, levels: tuple, leaf: str) -> tuple[str, ...]:
    """The Fincke-Pohst descent over ``_square_completion`` as the source of one loop nest.

    ``kernel(floor, sink)`` runs ``leaf`` once per vector v with
    floor <= v.v, at the heart of ``for x0 ...: ... for x{n-1} ...:``.
    The budget starts at r0 = -floor * S.  At level i the coordinates
    before it fix the centre c = sum a_ij x_j, and K_i u^2 <= r_i holds
    exactly when |u| <= t = isqrt(r_i // K_i), u = den_i x_i + c, so x_i
    runs upwards over ceil((-t - c) / den_i) .. floor((t - c) / den_i)
    with no further test, and r_{i+1} = r_i - K_i u^2 is passed down.
    The vectors therefore come in lexicographic order.  In ``leaf`` the
    names x0 .. x{n-1} hold the vector and ``{spent}`` stands for
    S * (-v.v) = r0 - r_{n-1} + K_{n-1} u_{n-1}^2.

    The scale and levels are written into the source as they come, so
    they must be ``_square_completion``'s: integers it derives from the
    lattice's checked edge list, a definite form's.
    """
    lines = ["def kernel(floor, sink):", "    if floor > 0:", "        return", f"    r0 = -floor * {scale}"]
    spent = "0"
    for i, (den, weight, centre) in enumerate(levels):
        pad = "    " * (i + 1)
        lines += [
            f"{pad}c{i} = " + (" + ".join(f"{a} * x{j}" for j, a in centre) or "0"),
            f"{pad}t = isqrt(r{i} // {weight})",
            f"{pad}for x{i} in range(-((t + c{i}) // {den}), (t - c{i}) // {den} + 1):",
        ]
        if i + 1 < len(levels):
            lines += [f"{pad}    u = {den} * x{i} + c{i}", f"{pad}    r{i + 1} = r{i} - {weight} * u * u"]
        else:
            spent = f"r0 - r{i} + {weight} * ({den} * x{i} + c{i}) ** 2"
    return (*lines, "    " * (len(levels) + 1) + leaf.format(spent=spent))


#: One lattice per type key, built once from ``_GRAPHS``.  The default
#: table is read-only; a context that needs other lattices sets its own.
_LATTICES: ContextVar[Mapping[str, GeometricLattice]] = ContextVar(
    "_LATTICES",
    default=MappingProxyType({
        sextic.key: GeometricLattice(name=name, sextic=sextic, basis_names=names, edges=edges)
        for sextic, (names, edges, name) in zip(ALL_SEXTIC_TYPES, _GRAPHS.values())
    }),
)


def build_lattice(sextic: SexticType) -> GeometricLattice:
    """The geometric root lattice of a sextic type, in its normative basis."""
    if type(sextic) is not SexticType:
        raise ValueError(f"build_lattice takes a SexticType, not {sextic!r}")
    return _LATTICES.get()[sextic.key]


#: The values a lattice computes on first use and keeps, by attribute name.
_TABLES = tuple(name for name, value in vars(GeometricLattice).items() if isinstance(value, cached_property))

#: The tables that hold generated code, left out of the pickled state.
_KERNELS = frozenset(name for name in _TABLES if name.endswith("_kernel"))


class _TablesInfo(NamedTuple):
    hits: int  # a kept table is read as a plain attribute, so never counted
    misses: int  # values built since the last drop


def _drop_tables() -> None:
    """Drop every value kept on the current lattices; each is built again on its next use."""
    for lattice in _LATTICES.get().values():
        for name in _TABLES:
            vars(lattice).pop(name, None)


def _tables_info() -> _TablesInfo:
    built = sum(name in vars(lattice) for lattice in _LATTICES.get().values() for name in _TABLES)
    return _TablesInfo(0, built)


# The lattices' tables are the package's one cache.  ``build_lattice``
# answers to the two methods of a ``functools`` cache, so a tool that
# empties a package's caches through them (perfbench's tracer does)
# starts every lattice as cold as a new process would.
build_lattice.cache_clear = _drop_tables
build_lattice.cache_info = _tables_info


# ---------------------------------------------------------------------------
# pairing and roots


def pair(lattice: GeometricLattice, v: Vec, w: Vec) -> int:
    """Evaluate the lattice's bilinear form on two coordinate vectors.

    The Gram matrix is -2 on the diagonal and +1 on the Dynkin edges, so
    v.w = -2 sum_i v_i w_i + sum_{(i, j) edge} (v_i w_j + v_j w_i), which
    costs O(rank) instead of O(rank^2); the lattice's pairing kernel spells
    this sum out term by term.
    """
    n = lattice.rank
    if len(v) != n or len(w) != n:
        raise ValueError(f"coordinate length mismatch: rank {n}, got {len(v)} and {len(w)}")
    return lattice._pair_kernel(v, w)


def norm(lattice: GeometricLattice, v: Vec) -> int:
    """v.v = 2 sum_{(i, j) edge} v_i v_j - 2 sum_i v_i^2, spelled out by the lattice's norm kernel."""
    n = lattice.rank
    if len(v) != n:
        raise ValueError(f"coordinate length mismatch: rank {n}, got {len(v)}")
    return lattice._norm_kernel(v)


def is_root(lattice: GeometricLattice, v: Vec) -> bool:
    return len(v) == lattice.rank and norm(lattice, v) == -2


def reflect(lattice: GeometricLattice, e: Vec, x: Vec) -> Vec:
    """Reflection of x in the hyperplane of a norm -2 vector e."""
    return vadd(x, smul(pair(lattice, x, e), e))


def vectors_with_norm_at_least(lattice: GeometricLattice, floor: int) -> tuple[Vec, ...]:
    """All lattice vectors v with floor <= v.v (<= 0 by definiteness), sorted.

    Fincke-Pohst enumeration on integers only (Fincke and Pohst, Math.
    Comp. 44, 1985; Cohen, Alg. 2.7.5), run by the lattice's shell kernel:
    its descent (``_descent``) fixes the first coordinate first, so the
    vectors come out in lexicographic order and need no sort.
    """
    out: list[Vec] = []
    lattice._shell_kernel(_checked_floor(floor), out.append)
    return tuple(out)


def _checked_floor(floor: int) -> int:
    """The floor of a shell, refused with ``ValueError`` unless it is a plain int."""
    if type(floor) is not int:
        raise ValueError(f"the floor of a shell must be an int, not {floor!r}")
    return floor


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
    """The roots grouped into +/- pairs, the larger root first, in the roots' lexicographic order."""
    return tuple((e, vneg(e)) for e in enumerate_roots(lattice) if e > vneg(e))


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

    def __post_init__(self) -> None:
        if type(self.lattice_part) is not tuple:
            raise ValueError(f"the lattice part of a class is a tuple, not {self.lattice_part!r}")


def pairing_x(lattice: GeometricLattice, a: H2ClassX, b: H2ClassX) -> int:
    mixed = a.canon * b.line + a.line * b.canon + a.line * b.line
    return -mixed + pair(lattice, a.lattice_part, b.lattice_part)


def fiber_class_x(lattice: GeometricLattice) -> H2ClassX:
    """The fiber class (negative of the canonical class)."""
    return H2ClassX(-1, (0,) * lattice.rank, 0)


def base_line_class_x(lattice: GeometricLattice) -> H2ClassX:
    """The fixed reference section."""
    return H2ClassX(0, (0,) * lattice.rank, 1)


def line_class_on_X(lattice: GeometricLattice, v: Vec) -> H2ClassX:
    """Section class of the translation image of the reference section.

    Any lattice vector is allowed, not only roots; the result always
    self-pairs to -1 and meets the fiber once.
    """
    return H2ClassX(norm(lattice, v) // 2, v, 1)
