"""Exact integer linear algebra: Smith and Hermite normal forms.

Everything here works over the integers with explicit unimodular
transforms, which is what the mapping-class computations need: left
kernels of generator matrices, membership in row spans with exact
divisibility conditions, and invariant factors of finitely generated
quotients.  ``row_hermite_form`` is the only elimination routine: the
left kernel reads off its transform, the one row-span solve,
``peel_left``, peels against a Hermite form and its transform (a kept one
or ``solve_left``'s fresh one), and the Smith form alternates Hermite
forms of a matrix and of its transpose.
Results are plain lists of lists of ints.  Inputs may be any sequences
of integer rows (a lattice's translation table passes tuples); they
are copied and never written, and a ragged one raises ``ValueError``.
Sizes in this package stay in the single digits, so clarity beats
asymptotics.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import mul

Matrix = list[list[int]]
Rows = Sequence[Sequence[int]]


def identity_matrix(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _width(a: Rows) -> int:
    """The common length of the rows of ``a``, 0 when it has none.

    Every public function checks its matrices here, so a ragged one
    raises ``ValueError`` instead of being cut to its shortest row.
    """
    n = len(a[0]) if a else 0
    for row in a:
        if len(row) != n:
            raise ValueError("rows differ in length")
    return n


def mat_mul(a: Rows, b: Rows) -> Matrix:
    # With no rows in b, a must have no columns; _width(a) refuses a ragged a first.
    if b and any(len(row) != len(b) for row in a) or not b and _width(a):
        raise ValueError("inner dimensions differ")
    _width(a)
    _width(b)
    columns = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


@dataclass(frozen=True)
class SNFResult:
    """Decomposition U A V = S with U, V unimodular and S diagonal.

    The nonzero diagonal entries of S are positive and form a
    divisibility chain d1 | d2 | ... (the invariant factors of A).
    """

    s: Matrix
    u: Matrix
    v: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s[i][i] for i in range(min(len(self.s), _width(self.s))))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _transpose(a: Rows, width: int) -> Matrix:
    """The transpose of ``a``, which has ``width`` columns (kept when ``a`` has no rows)."""
    return [[row[j] for row in a] for j in range(width)]


def smith_normal_form(a: Rows) -> SNFResult:
    """Alternate row Hermite forms of S and of its transpose until S is diagonal.

    Each pass leaves S lower triangular on its leading rank x rank block
    with positive pivots; a diagonal pair that breaks divisibility gets
    the later column added into the earlier one, and the passes resume
    (Kannan and Bachem, SIAM J. Comput. 8(4), 1979).
    """
    m, n = len(a), _width(a)
    s, u, v = a, identity_matrix(m), identity_matrix(n)
    while True:
        rows = row_hermite_form(s)
        cols = row_hermite_form(_transpose(rows.h, n))
        s = _transpose(cols.h, m)
        u = mat_mul(rows.u, u)
        v = mat_mul(v, _transpose(cols.u, n))
        if any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
            continue
        bad = next(
            (t for t in range(min(m, n) - 1) if s[t][t] and s[t + 1][t + 1] % s[t][t]), None
        )
        if bad is None:
            return SNFResult(s, u, v)
        for row in s + v:
            row[bad] += row[bad + 1]


@dataclass(frozen=True)
class HNFResult:
    """Row reduction U A = H with U unimodular, H in row Hermite form.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and zero rows sit at the bottom.
    """

    h: Matrix
    u: Matrix

    @property
    def rank(self) -> int:
        return sum(1 for row in self.h if any(row))


def row_hermite_form(a: Rows) -> HNFResult:
    m, n = len(a), _width(a)
    h = [list(row) for row in a]
    u = identity_matrix(m)
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if h[i][c]), None)
        if pivot is None:
            continue
        h[r], h[pivot] = h[pivot], h[r]
        u[r], u[pivot] = u[pivot], u[r]
        for i in range(r + 1, m):
            while h[i][c]:
                q = h[r][c] // h[i][c]
                h[r] = [x - q * y for x, y in zip(h[r], h[i])]
                u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                h[r], h[i] = h[i], h[r]
                u[r], u[i] = u[i], u[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == m:
            break
    return HNFResult(h, u)


def hermite_rows(a: Rows) -> tuple[tuple[int, ...], ...]:
    """The nonzero rows of the row Hermite form of ``a``, as tuples."""
    return tuple(tuple(row) for row in row_hermite_form(a).h if any(row))


def left_kernel_basis(a: Rows) -> tuple[tuple[int, ...], ...]:
    """Basis (in Hermite form) of {x : x A = 0} as rows of length len(a).

    U is unimodular, so its rows that U A = H sends to zero rows span the
    left kernel (Cohen, GTM 138, section 2.4).
    """
    res = row_hermite_form(a)
    return hermite_rows(res.u[res.rank :])


def peel_left(h: Rows, u: Rows, b: Sequence[int]) -> tuple[int, ...] | None:
    """An integer solution x of x A = b, or None, read off a row Hermite form U A = H of A.

    Peels b off the pivots of H from left to right; b = y H, and x = y U,
    iff nothing is left.  A remainder at a pivot stays in the leftover,
    since later rows of H vanish in that column.  The caller checks that b
    is as long as the rows of H.
    """
    rest = list(b)
    x = [0] * len(u)
    for row, t in zip(h, u):
        c = next((j for j, e in enumerate(row) if e), None)
        if c is None:
            break
        q = rest[c] // row[c]
        if q:
            rest = [r - q * e for r, e in zip(rest, row)]
            x = [s + q * e for s, e in zip(x, t)]
    return None if any(rest) else tuple(x)


def solve_left(a: Rows, b: Sequence[int]) -> tuple[int, ...] | None:
    """An integer solution x of x A = b, or None if none exists: ``peel_left``
    on the row Hermite form of A.  A matrix with no rows has every width:
    x = () solves a zero b of any length.
    """
    if a and len(b) != _width(a):
        raise ValueError("right-hand side has wrong length")
    res = row_hermite_form(a)
    return peel_left(res.h, res.u, b)


def in_rowspan(a: Rows, b: Sequence[int]) -> bool:
    return solve_left(a, b) is not None


@dataclass(frozen=True)
class GroupInvariants:
    """Invariant-factor form of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def quotient_invariants(n_cols: int, rows: Rows) -> GroupInvariants:
    """Invariants of Z^n modulo the subgroup spanned by the given rows."""
    if any(len(r) != n_cols for r in rows):
        raise ValueError("row length differs from ambient rank")
    res = smith_normal_form(rows)
    torsion = tuple(d for d in res.diagonal if d > 1)
    return GroupInvariants(n_cols - res.rank, torsion)
