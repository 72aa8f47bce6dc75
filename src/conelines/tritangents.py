"""Classification of positive tritangents via mod-2 root arithmetic.

A positive tritangent of a real sextic on the quadric cone is determined
by a pair of opposite roots of the vanishing-cycle lattice.  Splitting
the root's mod-2 residue into its oval and bridge parts and applying the
boundary map of the adjacency graph yields two index sets: the ovals the
tritangent separates from the cone's vertex, and the ovals it touches
with odd tangency.  Those sets drive the five-type classification, the
per-oval over/under/tangent/cup codes, and, for tritangents tangent to
two ovals, the bracket marking which arc of the base component carries
the remaining tangency point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

from .lattices import (
    GeometricLattice,
    SexticType,
    UnsupportedTypeError,
    Vec,
    build_lattice,
    canonical_root_pair,
    root_pairs,
)
from .mod2 import Mod2Vector, reduce_mod2


class TritangentType(str, Enum):
    T0 = "T0"
    T0_STAR = "T0*"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"

    def __str__(self) -> str:
        return self.value


UNDER = "u"
OVER = "o"
UNDER_TAN = "U"
OVER_TAN = "O"
CUP = "C"


@dataclass(frozen=True)
class OvalBridgeSplit:
    """A residue written as oval part plus bridge part."""

    v_oval: Mod2Vector
    v_bridge: Mod2Vector


@dataclass(frozen=True)
class Code:
    """Per-oval crossing code of a tritangent.

    ``symbols`` holds one letter per oval: "u"/"o" for passing under or
    over a non-tangent oval, "U"/"O" for odd tangency approached from
    inside or outside, and "C" for the cup-shaped tritangent cradling a
    single oval.  ``bracket_arc`` (two-tangency tritangents on curves with
    at least three ovals) is the half-open gap interval [open, close) of
    the base-component arc carrying the third tangency; gap i sits between
    ovals i and i+1, with 0 and p both naming the wrap gap through the
    reference generatrix.  ``j_label`` replaces the symbols for the
    band-type curve, naming which component the tritangent hugs.
    """

    symbols: tuple[str, ...]
    bracket_arc: tuple[int, int] | None = None
    j_label: str | None = None

    def serialize(self) -> str:
        if self.j_label is not None:
            return self.j_label
        parts = list(self.symbols)
        if self.bracket_arc is not None:
            open_gap, close_gap = self.bracket_arc
            parts.insert(open_gap, f"[{open_gap},{close_gap})")
        return " ".join(parts)


@dataclass(frozen=True)
class Tritangent:
    """One positive tritangent: a canonical +/- root pair with its invariants."""

    root_pair: tuple[Vec, Vec]
    s_in: frozenset[int]
    s_tan: frozenset[int]
    ttype: TritangentType
    code: Code | None


def oval_bridge_split(lattice: GeometricLattice, x: Mod2Vector) -> OvalBridgeSplit:
    """Split a residue into its oval-supported and bridge-supported parts.

    Only defined for curve types having both ovals and bridges in the
    geometric basis.
    """
    sx = lattice.sextic
    if sx.bands or sx.pos_ovals == 0:
        raise UnsupportedTypeError(
            f"type {sx} has no oval/bridge splitting (no ovals in the basis)"
        )
    if x.lattice != lattice:
        raise ValueError("residue belongs to a different lattice")
    ovals = set(lattice.oval_indices)
    v_oval = tuple(b if i in ovals else 0 for i, b in enumerate(x.bits))
    v_bridge = tuple(b if i not in ovals else 0 for i, b in enumerate(x.bits))
    return OvalBridgeSplit(Mod2Vector(v_oval, lattice), Mod2Vector(v_bridge, lattice))


def boundary_delta(lattice: GeometricLattice, v_bridge: Mod2Vector) -> Mod2Vector:
    """Boundary of a bridge-supported residue: the sum of its endpoint ovals.

    Each bridge contributes the ovals it meets in the adjacency graph, read
    off the edge list; the kernel of this map is exactly the radical of the
    mod-2 form.
    """
    if any(v_bridge.bits[i] for i in lattice.oval_indices):
        raise ValueError("input must be supported on bridge positions")
    bits = [0] * lattice.rank
    for i, j in lattice.edges:
        for bridge, oval in ((i, j), (j, i)):
            if v_bridge.bits[bridge] and oval in lattice.oval_indices:
                bits[oval] ^= 1
    return Mod2Vector(tuple(bits), lattice)


def _band_label(e: Vec) -> str:
    # Roots of the band-type lattice fall into the four bridge classes
    # (label J1) and eight half-sum classes.  A half-sum is recognized by
    # its first coordinate being +/-1; its sign pattern has a well-defined
    # minus-count parity, which separates the two band components.
    if abs(e[0]) != 1:
        return "J1"
    eps4 = -e[0]
    eps = [2 * e[i] + eps4 for i in (1, 2, 3)] + [eps4]
    minus = sum(1 for s in eps if s < 0)
    return "BAND_A" if minus % 2 == 0 else "BAND_B"


def classify_root(lattice: GeometricLattice, e: Vec) -> Tritangent:
    """Compute the invariants of the positive tritangent attached to a root."""
    sx = lattice.sextic
    pair_ = canonical_root_pair(e)
    if sx.bands or sx.pos_ovals == 0:
        code = Code((), None, _band_label(e)) if sx.bands else None
        return Tritangent(pair_, frozenset(), frozenset(), TritangentType.T0, code)

    x = reduce_mod2(lattice, e)
    split = oval_bridge_split(lattice, x)
    s_in = frozenset(lattice.oval_number(i) for i in split.v_oval.support())
    s_tan = frozenset(
        lattice.oval_number(i) for i in boundary_delta(lattice, split.v_bridge).support()
    )
    if s_tan:
        ttype = (TritangentType.T1, TritangentType.T2, TritangentType.T3)[len(s_tan) - 1]
    elif len(s_in) == 1 and split.v_bridge.is_zero():
        # The residue is exactly one oval class: the cup tritangent.
        ttype = TritangentType.T0_STAR
    else:
        ttype = TritangentType.T0
    tri = Tritangent(pair_, s_in, s_tan, ttype, None)
    return replace(tri, code=_code(sx, tri))


def _bracket_arc(p: int, s_in: frozenset[int], s_tan: frozenset[int]) -> tuple[int, int]:
    t1, t2 = sorted(s_tan)
    want = set(s_in - s_tan)
    interior_up = set(range(t1 + 1, t2))
    interior_wrap = set(range(t2 + 1, p + 1)) | set(range(1, t1))
    if want == interior_up:
        return (t1, t2 - 1)
    if want == interior_wrap:
        return (t2, t1 - 1)
    raise RuntimeError(
        f"no tangency arc matches: p={p}, s_in={sorted(s_in)}, s_tan={sorted(s_tan)}"
    )


def _code(sextic: SexticType, tri: Tritangent) -> Code:
    p = sextic.pos_ovals
    if tri.ttype is TritangentType.T0_STAR:
        symbols = tuple(CUP if i in tri.s_in else OVER for i in range(1, p + 1))
    elif sextic.pos_ovals == 1 and sextic.neg_ovals == 1 and tri.ttype is TritangentType.T0:
        # On the mixed type the three plain tritangents all pass over the
        # oval, regardless of the side recorded in s_in.
        symbols = (OVER,)
    else:
        symbols = tuple(
            (UNDER_TAN if i in tri.s_in else OVER_TAN)
            if i in tri.s_tan
            else (UNDER if i in tri.s_in else OVER)
            for i in range(1, p + 1)
        )
    bracket = None
    if tri.ttype is TritangentType.T2 and p >= 3:
        bracket = _bracket_arc(p, tri.s_in, tri.s_tan)
    return Code(symbols, bracket, None)


@lru_cache(maxsize=None)
def _enumerate(lattice: GeometricLattice) -> tuple[Tritangent, ...]:
    return tuple(classify_root(lattice, plus) for plus, _ in root_pairs(lattice))


def enumerate_tritangents(sextic: SexticType) -> tuple[Tritangent, ...]:
    """All positive tritangents of a sextic type, one per +/- root pair.

    Deterministic: ordered by the canonical root representative.
    """
    return _enumerate(build_lattice(sextic))


def type_census(sextic: SexticType) -> dict[TritangentType, int]:
    counts = Counter(t.ttype for t in enumerate_tritangents(sextic))
    return {tt: counts.get(tt, 0) for tt in TritangentType}


def pair_census(sextic: SexticType) -> dict[tuple[frozenset[int], frozenset[int]], int]:
    """How many tritangents realize each (separated ovals, tangent ovals) pair."""
    return dict(Counter((t.s_in, t.s_tan) for t in enumerate_tritangents(sextic)))


def code_census(sextic: SexticType) -> Counter[str]:
    """Multiset of serialized crossing codes over the whole census."""
    if sextic.bands or sextic.pos_ovals == 0:
        raise UnsupportedTypeError(f"type {sextic} has no crossing codes")
    return Counter(t.code.serialize() for t in enumerate_tritangents(sextic))


def threeJ_grouping() -> dict[str, tuple[Tritangent, ...]]:
    """The twelve band-type tritangents, grouped 4/4/4 by hugged component."""
    bands = SexticType(0, 0, bands=True)
    groups: dict[str, list[Tritangent]] = {"J1": [], "BAND_A": [], "BAND_B": []}
    for t in enumerate_tritangents(bands):
        groups[t.code.j_label].append(t)
    return {k: tuple(v) for k, v in groups.items()}


def real_tritangent_total(sextic: SexticType) -> int:
    """Count all real tritangents, in both halves of the cone.

    The tritangents living in the opposite half are the positive
    tritangents of the mirror type, so the total is the census size of the
    type plus that of its mirror.
    """
    return len(enumerate_tritangents(sextic)) + len(
        enumerate_tritangents(sextic.mirror())
    )
