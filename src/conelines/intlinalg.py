"""Exact integer linear algebra: Smith and Hermite normal forms.

Everything here works over the integers with explicit unimodular
transforms, which is what the mapping-class computations need: left
kernels of generator matrices, membership in row spans with exact
divisibility conditions, and invariant factors of finitely generated
quotients.  ``row_hermite_form`` is the only elimination routine: the
left kernel and row-span solves read off its transform, and the Smith
form alternates Hermite forms of a matrix and of its transpose.
Matrices are plain lists of lists of ints; sizes in this package stay
in the single digits, so clarity beats asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    inner = len(b)
    width = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(width)]
        for row in a
    ]


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
        return tuple(
            self.s[i][i] for i in range(min(len(self.s), len(self.s[0]) if self.s else 0))
        )

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _transpose(a: Matrix, width: int) -> Matrix:
    """The transpose of ``a``, which has ``width`` columns (kept when ``a`` has no rows)."""
    return [[row[j] for row in a] for j in range(width)]


def smith_normal_form(a: Matrix) -> SNFResult:
    """Alternate row Hermite forms of S and of its transpose until S is diagonal.

    Each pass leaves S lower triangular on its leading rank x rank block
    with positive pivots; a diagonal pair that breaks divisibility gets
    the later column added into the earlier one, and the passes resume
    (Kannan and Bachem, SIAM J. Comput. 8(4), 1979).
    """
    m = len(a)
    n = len(a[0]) if m else 0
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


def row_hermite_form(a: Matrix) -> HNFResult:
    m = len(a)
    h = [list(row) for row in a]
    u = identity_matrix(m)
    n = len(a[0]) if m else 0
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


def hermite_rows(a: Matrix) -> tuple[tuple[int, ...], ...]:
    """The nonzero rows of the row Hermite form of ``a``, as tuples."""
    if not a:
        return ()
    return tuple(tuple(row) for row in row_hermite_form(a).h if any(row))


def left_kernel_basis(a: Matrix) -> tuple[tuple[int, ...], ...]:
    """Basis (in Hermite form) of {x : x A = 0} as rows of length len(a).

    U is unimodular, so its rows that U A = H sends to zero rows span the
    left kernel (Cohen, GTM 138, section 2.4).
    """
    res = row_hermite_form(a)
    return hermite_rows(res.u[res.rank :])


def solve_left(a: Matrix, b: list[int] | tuple[int, ...]) -> tuple[int, ...] | None:
    """An integer solution x of x A = b, or None if none exists.

    Peels b off the pivots of U A = H from left to right; b = y H, and
    x = y U, iff nothing is left.  A remainder at a pivot stays in the
    leftover, since later rows of H vanish in that column.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if len(b) != n:
        raise ValueError("right-hand side has wrong length")
    res = row_hermite_form(a)
    rest = list(b)
    y = [0] * m
    for i, row in enumerate(res.h[: res.rank]):
        c = next(j for j, x in enumerate(row) if x)
        y[i] = rest[c] // row[c]
        rest = [x - y[i] * h for x, h in zip(rest, row)]
    if any(rest):
        return None
    return tuple(mat_mul([y], res.u)[0])


def in_rowspan(a: Matrix, b: list[int] | tuple[int, ...]) -> bool:
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


def quotient_invariants(n_cols: int, rows: Matrix) -> GroupInvariants:
    """Invariants of Z^n modulo the subgroup spanned by the given rows."""
    if any(len(r) != n_cols for r in rows):
        raise ValueError("row length differs from ambient rank")
    if not rows:
        return GroupInvariants(n_cols, ())
    res = smith_normal_form(rows)
    torsion = tuple(d for d in res.diagonal if d > 1)
    return GroupInvariants(n_cols - res.rank, torsion)
