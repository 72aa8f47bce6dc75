"""Acceptance checks: recomputation against frozen expectations.

``FROZEN`` is the one home of expected numbers: one entry per row that
checks a frozen value, keyed by the row's name.  Each check recomputes a
quantity from scratch (root enumeration, integer linear algebra,
brute-force sweeps) and compares it to its entry, or to what a library
rule predicts; check identifiers group into eleven numbered families
plus the fault hook exercised by the command-line self test.

Each family is a generator that takes the family's seeded rng and yields
one ``CheckResult`` per check, in report order.  ``run_criterion``
collects a family's rows; a family that raises reports one ``N.aborted``
row in place of all of them.

Frozen values come from two kinds of sources: published census tables
(the tritangent census, the strata sizes, the group analysis), and
previously computed-then-frozen outputs such as the kernel generators of
the translation homomorphism.  Property checks (group laws, pairing
preservation) consume a seeded generator so that reports are
reproducible byte for byte.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations, product
from typing import Iterator

from .homology_action import (
    H1Delta,
    action_matrix,
    action_mul,
    count_line_classes,
    delta_to_class,
    mw_sum,
    obstruction_kappa,
    section_delta,
    vanishing_orbit,
)
from .intlinalg import hermite_rows
from .lattices import (
    ALL_SEXTIC_TYPES,
    ALL_SURFACE_TYPES,
    GeometricLattice,
    H2ClassX,
    SexticType,
    SurfaceType,
    base_line_class_x,
    build_lattice,
    enumerate_roots,
    line_class_on_X,
    pair,
    pairing_x,
    vadd,
)
from .mapping_class import (
    ModSElement,
    is_translation_class,
    mods_delta,
    mods_element,
    mods_identity,
    mods_mul,
    mods_group_structure,
    translation_analysis,
    translation_class,
)
from .mod2 import all_residues, q0, reduce_mod2, strata_profile
from .translations import (
    H1Mod2Class,
    conic_count,
    coset_representative,
    mw_act_h1_mod2,
    mw_act_h2,
    realizable_mod2,
    shell_classes,
)
from .tritangents import (
    TritangentType,
    code_census,
    pair_census,
    real_tritangent_total,
    threeJ_grouping,
    type_census,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single acceptance check."""

    name: str
    passed: bool
    observed: str
    expected: str


def _stable_repr(value: object) -> str:
    """Deterministic repr: unordered containers render sorted.

    Builtin set/dict reprs follow hash order, which varies per process
    for strings; reports must be byte-identical across runs.
    """
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_stable_repr(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: _stable_repr(kv[0]))
        return "{" + ", ".join(f"{_stable_repr(k)}: {_stable_repr(v)}" for k, v in items) + "}"
    if isinstance(value, tuple):
        inner = ", ".join(_stable_repr(v) for v in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    return repr(value)


def _clip(text: str) -> str:
    if len(text) <= 400:
        return text
    return f"{text[:400]}... [{len(text)} chars]"


def _eq(name: str, observed, expected) -> CheckResult:
    return CheckResult(
        name, observed == expected, _clip(_stable_repr(observed)), _clip(_stable_repr(expected))
    )


def _true(name: str, holds: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(holds), detail if detail else repr(bool(holds)), "True")


# ---------------------------------------------------------------------------
# frozen expectations


#: Every expected number of the report, keyed by the row that checks it, in
#: report order.  An entry is the row's expected value or the frozen data the
#: row computes it from: the code atlas, the two-oval singletons, the kernel
#: generators and the involution chains.  ``1.total <key>`` has no entry of
#: its own: it reads |V1 - R1| from ``2.strata <key>``.
FROZEN: dict[str, object] = {
    # positive tritangents per type: T0, T0*, T1, T2, T3
    "1.census 4|0": (4, 4, 32, 48, 32),
    "1.census 3|0": (4, 3, 24, 24, 8),
    "1.census 2|0": (4, 2, 16, 8, 0),
    "1.census 1|0": (4, 1, 8, 0, 0),
    "1.census 0|0": (4, 0, 0, 0, 0),
    "1.census 1|1": (3, 1, 8, 0, 0),
    "1.census |||": (12, 0, 0, 0, 0),
    "1.census 0|1": (3, 0, 0, 0, 0),
    "1.census 0|2": (2, 0, 0, 0, 0),
    "1.census 0|3": (1, 0, 0, 0, 0),
    "1.census 0|4": (0, 0, 0, 0, 0),
    # strata sizes (|V|, |R|, |V1|, |R1|, |V1 - R1|), then the Z/4 value
    # distribution on the radical
    "2.strata 4|0": (256, 1, 120, 0, 120), "2.radical-values 4|0": (1, 0, 0, 0),
    "2.strata 3|0": (128, 2, 64, 1, 63), "2.radical-values 3|0": (1, 1, 0, 0),
    "2.strata 2|0": (64, 4, 32, 2, 30), "2.radical-values 2|0": (1, 2, 1, 0),
    "2.strata 1|0": (32, 8, 16, 3, 13), "2.radical-values 1|0": (1, 3, 3, 1),
    "2.strata 0|0": (16, 16, 8, 4, 4), "2.radical-values 0|0": (2, 4, 6, 4),
    "2.strata 1|1": (16, 4, 12, 0, 12), "2.radical-values 1|1": (1, 0, 3, 0),
    "2.strata |||": (16, 4, 12, 0, 12), "2.radical-values |||": (1, 0, 3, 0),
    "2.strata 0|1": (8, 8, 4, 1, 3), "2.radical-values 0|1": (1, 1, 3, 3),
    "2.strata 0|2": (4, 4, 2, 0, 2), "2.radical-values 0|2": (1, 0, 1, 2),
    "2.strata 0|3": (2, 2, 1, 0, 1), "2.radical-values 0|3": (1, 0, 0, 1),
    "2.strata 0|4": (1, 1, 0, 0, 0), "2.radical-values 0|4": (1, 0, 0, 0),
    "3.tangency-sets 4|0": 15,
    "3.pair-census 1|1": {
        (frozenset({1}), frozenset()): 4, (frozenset(), frozenset({1})): 4, (frozenset({1}), frozenset({1})): 4
    },
    "4.codes-total 4|0": 120,
    # the crossing-code atlas of the four-oval curve: 28 base codes, where
    # "A" expands to "U" or "O" independently and the optional pair is the
    # bracket arc of the third tangency
    "4.codes-multiset 4|0": (
        ("uuuo", None), ("uuou", None), ("uouu", None), ("ouuu", None),
        ("Cooo", None), ("oCoo", None), ("ooCo", None), ("oooC", None),
        ("Auuo", None), ("Auou", None), ("Aouu", None), ("Aooo", None),
        ("uuAo", None), ("uoAu", None), ("ouAu", None), ("ooAo", None),
        ("uAoo", None), ("oAuo", None), ("oAou", None), ("uAuu", None),
        ("uooA", None), ("oouA", None), ("ouoA", None), ("uuuA", None),
        ("AAuu", (2, 0)), ("AAoo", (1, 1)), ("uAAu", (3, 1)), ("oAAo", (2, 2)),
        ("uuAA", (4, 2)), ("ooAA", (3, 3)), ("AuuA", (1, 3)), ("AooA", (4, 0)),
        ("AuAo", (1, 2)), ("AoAu", (3, 0)), ("uAoA", (4, 1)), ("oAuA", (2, 3)),
        ("AAAu", None), ("AAoA", None), ("AuAA", None), ("oAAA", None),
    ),
    # two-oval codes repeat twice after bracket stripping, except these four
    "4.codes-multiplicities 2|0": frozenset({"u o", "o u", "C o", "o C"}),
    "4.codes-total 2|0": 30,
    # cup, over, inner tangency, outer tangency
    "4.codes-census 1|0": Counter({"o": 1, "u": 3, "C": 1, "O": 4, "U": 4}),
    "4.codes-census 1|1": Counter({"o": 3, "C": 1, "O": 4, "U": 4}),
    "4.band-groups |||": {"J1": 4, "BAND_A": 4, "BAND_B": 4},
    # the translation homomorphism's mapping class group, image, kernel rank
    # and cokernel, then kernel generators verified once against the computed
    # kernels (Hermite-form equality)
    "5.analysis K#4T2": ((8, (2,)), (8, ()), 0, (0, (2,))),
    "5.kernel 4|0": (),
    "5.analysis K#3T2": ((6, (2,)), (6, (2,)), 1, (0, ())),
    "5.kernel 3|0": ((0, 2, 4, 6, 4, 2, 4),),
    "5.analysis K#2T2": ((4, (2,)), (4, (2,)), 2, (0, ())),
    "5.kernel 2|0": ((2, 2, 2, 2, 2, 0), (2, 2, 2, 2, 1, 1)),
    "5.analysis K#T2": ((2, (2,)), (2, (2,)), 3, (0, ())),
    "5.kernel 1|0": ((2, 2, 2, 0, 0), (2, 2, 1, 1, 0), (1, 2, 2, 1, 0)),
    "5.analysis K": ((0, (2,)), (0, (2,)), 4, (0, ())),
    "5.kernel 0|0": ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (2, 0, 0, 0)),
    "5.analysis K#T2+S2": ((2, (2,)), (1, (2,)), 3, (1, ())),
    "5.kernel 1|1": ((2, 4, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)),
    "5.analysis K+K": ((0, (2, 2)), (0, (2, 2)), 4, (0, ())),
    "5.kernel |||": ((2, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 2, 0, 0)),
    "5.analysis K+S2": ((0, (2,)), (0, (2,)), 3, (0, ())),
    "5.kernel 0|1": ((1, 1, 0), (0, 1, 1), (2, 0, 0)),
    "5.analysis K+2S2": ((0, (2,)), (0, (2,)), 2, (0, ())),
    "5.kernel 0|2": ((1, 1), (2, 0)),
    "5.analysis K+3S2": ((0, (2,)), (0, (2,)), 1, (0, ())),
    "5.kernel 0|3": ((2,),),
    "5.analysis K+4S2": ((0, (2,)), (0, ()), 0, (0, (2,))),
    "5.kernel 0|4": (),
    # chain vectors whose translation is the distinguished involution
    "6.involution-chain 3|0": (0, -1, -2, -3, -2, -1, -2),
    "6.involution-chain 2|0": (1, 1, 1, 1, 1, 0),
    "6.involution-chain 1|0": (1, 1, 1, 0, 0),
    "9.shell-size 4|0": 26641,
    "9.classes-attained 4|0": 256,
    "9.classes-attained 2|0": 32,
    "10.totals": (120, 24),
    "10.conic-count": 48,
    # finitely many line classes, or None
    "11.count K#4T2": None, "11.count K#3T2": None, "11.count K#2T2": None, "11.count K#T2": None,
    "11.count K": 2, "11.count K#T2+S2": None, "11.count K+K": 4, "11.count K+S2": 2,
    "11.count K+2S2": 2, "11.count K+3S2": 2, "11.count K+4S2": 1,
}

#: The row whose entry is the code atlas, which the derived code sets read too.
_ATLAS = "4.codes-multiset 4|0"


def _frozen(name: str, observed) -> CheckResult:
    """The row ``name`` comparing ``observed`` to its own ``FROZEN`` entry."""
    return _eq(name, observed, FROZEN[name])


# ---------------------------------------------------------------------------
# code-atlas expansion and derivation


def _expand_row(base: str, bracket: tuple[int, int] | None) -> tuple[str, ...]:
    """All serialized codes a base row stands for (ambivalents resolved)."""
    codes = product(*("UO" if ch == "A" else ch for ch in base))
    if bracket is None:
        return tuple(map(" ".join, codes))
    a, b = bracket
    return tuple(" ".join((*syms[:a], f"[{a},{b})", *syms[a:])) for syms in codes)


def expanded_code_atlas() -> Counter[str]:
    """The full 120-element multiset of four-oval codes."""
    counts: Counter[str] = Counter()
    for base, bracket in FROZEN[_ATLAS]:
        counts.update(_expand_row(base, bracket))
    return counts


def derived_code_set(p: int) -> frozenset[str]:
    """Codes for a p-oval curve obtained by deleting 4 - p plain symbols.

    Only non-tangent symbols ("u"/"o") may be dropped; gap labels above a
    deleted position slide down by one, on both bracket coordinates.
    """
    out: set[str] = set()
    for base, bracket in FROZEN[_ATLAS]:
        # An ambivalent "A" resolves to "U" or "O", never to a plain symbol.
        plain = [i for i, s in enumerate(base, start=1) if s in ("u", "o")]
        for dropped in combinations(plain, 4 - p):
            kept = "".join(s for i, s in enumerate(base, start=1) if i not in dropped)
            shifted = bracket and tuple(g - sum(1 for d in dropped if d <= g) for g in bracket)
            out.update(_expand_row(kept, shifted))
    return frozenset(out)


def _strip_brackets(code: str) -> str:
    return " ".join(s for s in code.split(" ") if not s.startswith("["))


# ---------------------------------------------------------------------------
# criteria


def _criterion_1(rng: random.Random) -> Iterator[CheckResult]:
    """Tritangent censuses by type."""
    order = tuple(TritangentType)
    for sextic in ALL_SEXTIC_TYPES:
        key = sextic.key
        census = type_census(sextic)
        observed = tuple(census[t] for t in order)
        yield _frozen(f"1.census {key}", observed)
        yield _eq(f"1.total {key}", sum(observed), FROZEN[f"2.strata {key}"][4])


def _criterion_2(rng: random.Random) -> Iterator[CheckResult]:
    """Mod-2 strata sizes and the odd-radical halving identity."""
    profiles = {sextic.key: strata_profile(build_lattice(sextic)) for sextic in ALL_SEXTIC_TYPES}
    for key, profile in profiles.items():
        sizes = (
            profile.size_v,
            profile.size_r,
            profile.size_v1,
            profile.size_r1,
            profile.size_v1_minus_r1,
        )
        yield _frozen(f"2.strata {key}", sizes)
        yield _frozen(f"2.radical-values {key}", profile.r_counts)
    for key in ("0|0", "1|0", "2|0", "3|0", "0|1", "0|2", "0|3"):
        profile = profiles[key]
        odd = profile.r_counts[1] + profile.r_counts[3]
        yield _eq(f"2.odd-radical-half {key}", 2 * odd, profile.size_r)


def _criterion_3(rng: random.Random) -> Iterator[CheckResult]:
    """Separated/tangent oval pair censuses."""
    census4 = pair_census(SexticType(4, 0))
    tan_sets = {s_tan for _, s_tan in census4}
    proper = {
        frozenset(s) for r in range(4) for s in combinations((1, 2, 3, 4), r)
    }
    yield _frozen("3.tangency-sets 4|0", len(tan_sets))
    yield _eq("3.tangency-sets-proper 4|0", tan_sets, proper)
    partner_counts = Counter(s_tan for _, s_tan in census4)
    yield _true(
        "3.partners-8 4|0",
        all(partner_counts[s] == 8 for s in proper),
        f"partners per tangency set: {sorted(set(partner_counts.values()))}",
    )
    yield _true(
        "3.pairs-once 4|0",
        all(c == 1 for c in census4.values()),
        f"pair multiplicities: {sorted(set(census4.values()))}",
    )

    for p in (1, 2, 3):
        key = f"{p}|0"
        census = pair_census(SexticType.from_key(key))
        ovals = tuple(range(1, p + 1))
        subsets = [frozenset(s) for r in range(p + 1) for s in combinations(ovals, r)]
        expected: dict[tuple[frozenset[int], frozenset[int]], int] = {}
        for s_in in subsets:
            for s_tan in subsets:
                n = 2 ** (3 - p) if (s_in or s_tan) else 2 ** (3 - p) - (4 - p)
                if n:
                    expected[(s_in, s_tan)] = n
        yield _eq(f"3.pair-census {key}", census, expected)

    yield _frozen("3.pair-census 1|1", pair_census(SexticType(1, 1)))


def _criterion_4(rng: random.Random) -> Iterator[CheckResult]:
    """Crossing-code censuses against the code atlas."""
    census4 = code_census(SexticType(4, 0))
    yield _frozen("4.codes-total 4|0", sum(census4.values()))
    yield _eq(_ATLAS, census4, expanded_code_atlas())

    for p in (3, 1):
        key = f"{p}|0"
        census = code_census(SexticType.from_key(key))
        yield _eq(f"4.codes-set {key}", frozenset(census), derived_code_set(p))

    census2 = code_census(SexticType(2, 0))
    stripped = Counter(_strip_brackets(c) for c in census2.elements())
    yield _eq(
        "4.codes-support 2|0",
        frozenset(stripped),
        frozenset(_strip_brackets(c) for c in derived_code_set(2)),
    )
    name = "4.codes-multiplicities 2|0"
    singletons = FROZEN[name]
    yield _eq(name, stripped, Counter({c: 1 if c in singletons else 2 for c in stripped}))
    yield _frozen("4.codes-total 2|0", sum(census2.values()))

    yield _frozen("4.codes-census 1|0", code_census(SexticType(1, 0)))
    yield _frozen("4.codes-census 1|1", code_census(SexticType(1, 1)))
    yield _frozen("4.band-groups |||", {label: len(group) for label, group in threeJ_grouping().items()})


def _translation_row(surface: SurfaceType, star: int = 0):
    lattice = build_lattice(surface.sextic())
    analysis = translation_analysis(lattice, star)
    group = mods_group_structure(surface)
    return (
        (group.free_rank, group.torsion),
        (analysis.image.free_rank, analysis.image.torsion),
        len(analysis.kernel_basis),
        (analysis.cokernel.free_rank, analysis.cokernel.torsion),
    ), analysis


def _criterion_5(rng: random.Random) -> Iterator[CheckResult]:
    """Translation homomorphism: group, image, kernel, cokernel."""
    for sextic in ALL_SEXTIC_TYPES:
        key = sextic.key
        surface = sextic.surface()
        row, analysis = _translation_row(surface)
        yield _frozen(f"5.analysis {surface.key}", row)
        name = f"5.kernel {key}"
        yield _eq(name, hermite_rows(analysis.kernel_basis), hermite_rows(FROZEN[name]))
    # The choice of where the component swap sends the reference section
    # must not change any of the two-Klein-bottle conclusions.
    rows = []
    for star in (0, 1):
        row, analysis = _translation_row(SurfaceType(0, 0, double_klein=True), star)
        rows.append((row, hermite_rows(analysis.kernel_basis)))
    yield _eq("5.swap-choice-invariance K+K", rows[0], rows[1])


def _random_element(rng: random.Random, surface: SurfaceType) -> ModSElement:
    if surface.double_klein:
        return mods_element(surface, swap=rng.randrange(2), shift=rng.randrange(2))
    p = surface.handles
    if p == 0:
        return mods_element(surface, fiber_twists=(rng.randrange(-3, 4),))
    return mods_element(
        surface,
        tuple(rng.randrange(-2, 3) for _ in range(p)),
        tuple(rng.randrange(-3, 4) for _ in range(p)),
        tuple(rng.randrange(-3, 4) for _ in range(p)),
    )


def _random_delta(rng: random.Random, p: int) -> H1Delta:
    """A section difference on p handles: handle-cycle coefficients in [-4, 4], bits elsewhere."""
    return H1Delta(
        rng.randrange(2), tuple((rng.randrange(-4, 5), rng.randrange(2)) for _ in range(p))
    )


def _random_h2(rng: random.Random, n: int, canon: int, part: int, line: int) -> H2ClassX:
    """A class on a rank-n lattice, each coefficient drawn from [-bound, bound] for its bound."""
    return H2ClassX(
        rng.randrange(-canon, canon + 1),
        tuple(rng.randrange(-part, part + 1) for _ in range(n)),
        rng.randrange(-line, line + 1),
    )


def _criterion_6(rng: random.Random) -> Iterator[CheckResult]:
    """Group laws of the fiberwise mapping classes."""
    for sextic in ALL_SEXTIC_TYPES:
        key = sextic.key
        lattice = build_lattice(sextic)
        surface = sextic.surface()
        additive = True
        for _ in range(1000):
            v = tuple(rng.randrange(-4, 5) for _ in range(lattice.rank))
            w = tuple(rng.randrange(-4, 5) for _ in range(lattice.rank))
            lhs = translation_class(lattice, vadd(v, w))
            rhs = mods_mul(translation_class(lattice, v), translation_class(lattice, w))
            if lhs != rhs:
                additive = False
                break
        yield _true(f"6.translation-additive {key}", additive)

        laws = True
        for _ in range(100):
            g, h, k = (_random_element(rng, surface) for _ in range(3))
            if mods_mul(g, h) != mods_mul(h, g):
                laws = False
            if mods_mul(mods_mul(g, h), k) != mods_mul(g, mods_mul(h, k)):
                laws = False
        yield _true(f"6.commutative-associative {surface.key}", laws)

        if not surface.double_klein:
            delta = mods_delta(surface)
            ident = mods_identity(surface)
            yield _true(
                f"6.involution {surface.key}",
                mods_mul(delta, delta) == ident and delta != ident,
                f"delta^2 == 1: {mods_mul(delta, delta) == ident}, delta != 1: {delta != ident}",
            )

    for key in ("3|0", "2|0", "1|0"):
        sextic = SexticType.from_key(key)
        name = f"6.involution-chain {key}"
        yield _eq(name, mods_delta(sextic.surface()), translation_class(build_lattice(sextic), FROZEN[name]))
    lattice0 = build_lattice(SexticType(0, 0))
    surface0 = SexticType(0, 0).surface()
    yield _true(
        "6.involution-chain 0|0",
        all(
            mods_delta(surface0) == translation_class(lattice0, lattice0.basis_vector(i))
            for i in range(lattice0.rank)
        ),
    )


def _criterion_7(rng: random.Random) -> Iterator[CheckResult]:
    """Section-difference group law versus the homology action matrices."""
    surfaces = [s for s in ALL_SURFACE_TYPES if s.handles]
    multiplicative = law_match = triangular = True
    for surface in surfaces:
        p = surface.handles
        for _ in range(200):
            d1, d2 = _random_delta(rng, p), _random_delta(rng, p)
            m1, m2 = action_matrix(surface, d1), action_matrix(surface, d2)
            total = mw_sum(surface, d1, d2)
            if action_matrix(surface, total).entries != action_mul(m1, m2).entries:
                multiplicative = False
            if m1.apply(delta_to_class(d2)) != delta_to_class(total):
                law_match = False
            for (ma, ka), (mb, kb), (mc, kc) in zip(d1.pairs, d2.pairs, total.pairs):
                block_a = ((-1) ** ka, -2 * ma, (-1) ** ka)
                block_b = ((-1) ** kb, -2 * mb, (-1) ** kb)
                prod = (
                    block_a[0] * block_b[0],
                    block_a[0] * block_b[1] + block_a[1] * block_b[2],
                    block_a[2] * block_b[2],
                )
                if prod != ((-1) ** kc, -2 * mc, (-1) ** kc):
                    triangular = False
    yield _true("7.matrix-multiplicative", multiplicative)
    yield _true("7.matrix-matches-sum-law", law_match)
    yield _true("7.triangular-blocks", triangular)


def _shadow(lattice: GeometricLattice, x: H2ClassX) -> H1Mod2Class:
    """The mod-2 class of the real locus that a second homology class reduces to."""
    return H1Mod2Class(x.canon % 2, reduce_mod2(lattice, x.lattice_part), x.line % 2)


def _criterion_8(rng: random.Random) -> Iterator[CheckResult]:
    """Unipotent action on second homology."""
    lattices = [build_lattice(SexticType.from_key(key)) for key in ("4|0", "2|0", "1|1")]
    preserved = True
    for lattice in lattices:
        n = lattice.rank
        for _ in range(200):
            w = tuple(rng.randrange(-3, 4) for _ in range(n))
            a, b = _random_h2(rng, n, 5, 3, 2), _random_h2(rng, n, 5, 3, 2)
            if pairing_x(lattice, mw_act_h2(lattice, w, a), mw_act_h2(lattice, w, b)) != pairing_x(
                lattice, a, b
            ):
                preserved = False
    yield _true("8.pairing-preserved", preserved)

    e8 = build_lattice(SexticType(4, 0))
    roots = enumerate_roots(e8)
    coefficient_law = True
    bad_pairs = 0
    for i, w1 in enumerate(roots):
        line = line_class_on_X(e8, w1)
        for w2 in roots[i:]:
            moved = mw_act_h2(e8, w2, line)
            k_expected = -1 + pair(e8, w1, w2) - 1
            if moved != line_class_on_X(e8, vadd(w1, w2)) or moved.canon != k_expected:
                coefficient_law = False
                bad_pairs += 1
    yield _true(
        "8.composition-coefficient",
        coefficient_law,
        f"failing root pairs: {bad_pairs}",
    )

    reduction = True
    for lattice in lattices:
        n = lattice.rank
        samples = [base_line_class_x(lattice)] + [_random_h2(rng, n, 4, 2, 1) for _ in range(3)]
        for w in enumerate_roots(lattice):
            for x in samples:
                if mw_act_h1_mod2(lattice, w, _shadow(lattice, x)) != _shadow(lattice, mw_act_h2(lattice, w, x)):
                    reduction = False
    yield _true("8.mod2-reduction", reduction)


def _criterion_9(rng: random.Random) -> Iterator[CheckResult]:
    """Brute-force realizability sweeps."""
    e8 = build_lattice(SexticType(4, 0))
    hits = shell_classes(e8, -8)
    yield _frozen("9.shell-size 4|0", hits.total())
    parity_ok = all(mu == q0(reduce_mod2(e8, bits)) for mu, bits in hits)
    yield _true("9.parity-forced 4|0", parity_ok)
    wanted = {(q0(v), v.bits) for v in all_residues(e8)}
    yield _frozen("9.classes-attained 4|0", len(hits))
    yield _eq("9.classes-attained-set 4|0", set(hits), wanted)

    d6 = build_lattice(SexticType(2, 0))
    attained6 = set(shell_classes(d6, -8))
    reps6 = {coset_representative(v) for v in all_residues(d6)}
    allowed6 = {
        (mu, rep.bits)
        for mu in (0, 1)
        for rep in reps6
        if realizable_mod2(SurfaceType(2, 0), H1Mod2Class(mu, rep, 1))
    }
    yield _frozen("9.classes-attained 2|0", len(attained6))
    yield _eq("9.classes-attained-set 2|0", attained6, allowed6)

    # Exhaustive obstruction-versus-membership sweep on the four-handle
    # surface: all 16 half-twist patterns x 5^4 fiber twists n x 5^4 split
    # twists m.  This relies on each route being a term in n plus a term in
    # m: with N the parity tally of (membership - obstruction) n-terms over
    # the 625 n, and M that of (obstruction - membership) m-terms over the
    # 625 m, the routes disagree on N0*M1 + N1*M0 cells of the grid.
    surface = SurfaceType(4, 0)
    grid = list(product(range(-2, 3), repeat=4))
    mismatches = 0
    for kappa in product((0, 1), repeat=4):
        n_parity = Counter()
        for n in grid:
            n_total = sum(n)
            # membership route: parity of drift-coordinate data
            drift = sum(k + 2 * c - n_total for k, c in zip(kappa, accumulate(n)))
            eps = n_total % 2
            # obstruction route: the fiber twists' share of the stored fiber bit
            n_parity[(drift + eps - n_total) % 2] += 1
        m_parity = Counter()
        for m in grid:
            # obstruction route: forced fiber bit against the stored one
            fiber_bit = sum(mm * (1 - k) for mm, k in zip(m, kappa))
            forced = m[0] + m[2] + sum(mm * k for mm, k in zip(m, kappa)) + sum(kappa)
            # membership route: the split twists' share
            m_parity[(fiber_bit + forced - (m[1] + m[3])) % 2] += 1
        mismatches += n_parity[0] * m_parity[1] + n_parity[1] * m_parity[0]
    yield _true("9.obstruction-membership-sweep K#4T2", mismatches == 0, f"mismatching normal forms: {mismatches}")

    spot_ok = True
    for _ in range(200):
        kappa = tuple(rng.randrange(2) for _ in range(4))
        n = tuple(rng.randrange(-2, 3) for _ in range(4))
        m = tuple(rng.randrange(-2, 3) for _ in range(4))
        g = mods_element(surface, kappa, n, m)
        d = section_delta(g)
        predicted = d.fiber_bit == obstruction_kappa(
            surface, tuple(mm for mm, _ in d.pairs), tuple(kk for _, kk in d.pairs)
        )
        if predicted != is_translation_class(g):
            spot_ok = False
    yield _true("9.obstruction-membership-spot K#4T2", spot_ok)


def _criterion_10(rng: random.Random) -> Iterator[CheckResult]:
    """Real-tritangent count of the conic pencil quotient."""
    t_four = real_tritangent_total(SexticType(4, 0))
    t_band = real_tritangent_total(SexticType(1, 1))
    yield _frozen("10.totals", (t_four, t_band))
    yield _frozen("10.conic-count", conic_count(t_four, t_band, 24))


def _criterion_11(rng: random.Random) -> Iterator[CheckResult]:
    """Counting section classes of real lines."""
    samples = 100  # how many distinct classes an unbounded row asks for
    for sextic in ALL_SEXTIC_TYPES:
        surface = sextic.surface()
        counted = count_line_classes(surface)
        yield _frozen(f"11.count {surface.key}", counted.finite)
        if counted.finite is None:
            witnesses = counted.witnesses(samples)
            yield _eq(f"11.witnesses {surface.key}", len(set(witnesses)), samples)
    for surface in [s for s in ALL_SURFACE_TYPES if s.handles]:
        orbit = {vanishing_orbit(surface, 1, n) for n in range(samples)}
        yield _eq(f"11.vanishing-orbit {surface.key}", len(orbit), samples)


_CRITERIA = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
    8: _criterion_8,
    9: _criterion_9,
    10: _criterion_10,
    11: _criterion_11,
}


def run_criterion(number: int, seed: int = 0) -> list[CheckResult]:
    """Run one numbered check family; an exception becomes its one failed check.

    The family's rows are collected inside the ``try``, so a family that
    raises part way reports only the ``N.aborted`` row.
    """
    rng = random.Random((seed << 16) + number)
    try:
        return list(_CRITERIA[number](rng))
    except Exception as exc:  # noqa: BLE001 - deliberate: faults must surface as FAILs
        return [
            CheckResult(
                f"{number}.aborted",
                False,
                f"{type(exc).__name__}: {exc}",
                "completed check family",
            )
        ]


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every check family in order. Deterministic for a fixed seed."""
    return [result for number in sorted(_CRITERIA) for result in run_criterion(number, seed)]
