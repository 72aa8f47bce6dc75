"""Exact integer linear algebra: Smith and Hermite normal forms.

Everything here works over the integers with explicit unimodular
transforms, which is what the mapping-class computations need: left
kernels of generator matrices, membership in row spans with exact
divisibility conditions, and invariant factors of finitely generated
quotients.  Matrices are plain lists of lists of ints; sizes in this
package stay in the single digits, so clarity beats asymptotics.
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


def smith_normal_form(a: Matrix) -> SNFResult:
    m = len(a)
    n = len(a[0]) if m else 0
    s = [list(row) for row in a]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i: int, j: int, c: int) -> None:  # row i += c * row j
        s[i] = [x + c * y for x, y in zip(s[i], s[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i: int, j: int, c: int) -> None:  # col i += c * col j
        for row in s:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def diagonalize() -> None:
        t = 0
        while t < min(m, n):
            pivot = None
            for i in range(t, m):
                for j in range(t, n):
                    if s[i][j] and (
                        pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])
                    ):
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            while True:
                dirty = False
                for i in range(t + 1, m):
                    if s[i][t]:
                        add_row(i, t, -(s[i][t] // s[t][t]))
                        if s[i][t]:
                            swap_rows(t, i)
                            dirty = True
                for j in range(t + 1, n):
                    if s[t][j]:
                        add_col(j, t, -(s[t][j] // s[t][t]))
                        if s[t][j]:
                            swap_cols(t, j)
                            dirty = True
                if not dirty:
                    break
            t += 1
        for i in range(min(m, n)):
            if s[i][i] < 0:
                s[i] = [-x for x in s[i]]
                u[i] = [-x for x in u[i]]

    diagonalize()
    while True:
        bad = None
        diag = [s[i][i] for i in range(min(m, n))]
        for t in range(len(diag) - 1):
            if diag[t] and diag[t + 1] % diag[t] != 0:
                bad = t
                break
        if bad is None:
            break
        # Fold the offending entry into the earlier column and rediagonalize;
        # the gcd at the earlier pivot strictly divides down, so this ends.
        add_col(bad, bad + 1, 1)
        diagonalize()
    return SNFResult(s, u, v)


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
    """Basis (in Hermite form) of {x : x A = 0} as rows of length len(a)."""
    if not a:
        return ()
    res = smith_normal_form(a)
    return hermite_rows(res.u[res.rank :])


def solve_left(a: Matrix, b: list[int] | tuple[int, ...]) -> tuple[int, ...] | None:
    """An integer solution x of x A = b, or None if none exists."""
    m = len(a)
    n = len(a[0]) if m else 0
    if len(b) != n:
        raise ValueError("right-hand side has wrong length")
    if m == 0:
        return () if not any(b) else None
    res = smith_normal_form(a)
    c = [sum(b[k] * res.v[k][j] for k in range(n)) for j in range(n)]
    y = [0] * m
    for j in range(n):
        d = res.s[j][j] if j < min(m, n) else 0
        if d:
            if c[j] % d:
                return None
            y[j] = c[j] // d
        elif c[j]:
            return None
    x = [sum(y[k] * res.u[k][j] for k in range(m)) for j in range(m)]
    return tuple(x)


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
