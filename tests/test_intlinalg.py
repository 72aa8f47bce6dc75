"""Integer linear algebra cross-checked against sympy."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conelines.intlinalg import (
    GroupInvariants,
    identity_matrix,
    in_rowspan,
    left_kernel_basis,
    mat_mul,
    quotient_invariants,
    row_hermite_form,
    smith_normal_form,
    solve_left,
)
from conelines.mapping_class import _image_matrix
from conftest import TYPE_KEYS, lattice_for

small_matrix = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def _det_is_unit(rows):
    return abs(sympy.Matrix(rows).det()) == 1


@given(small_matrix)
@settings(max_examples=120)
def test_smith_decomposition_is_exact(a):
    res = smith_normal_form(a)
    assert mat_mul(mat_mul(res.u, a), res.v) == res.s
    assert _det_is_unit(res.u) and _det_is_unit(res.v)
    for i, d in enumerate(res.diagonal[:-1]):
        nxt = res.diagonal[i + 1]
        if d and nxt:
            assert nxt % d == 0
        if d == 0:
            assert nxt == 0


def _nonzero_invariants(a):
    """The nonzero invariant factors of a, from this package and from sympy."""
    ours = sorted(d for d in smith_normal_form(a).diagonal if d)
    m = sympy_snf(sympy.Matrix(a))
    theirs = sorted(abs(m[i, i]) for i in range(min(m.shape)) if m[i, i])
    return ours, theirs


@given(small_matrix)
@settings(max_examples=120)
def test_smith_invariants_match_sympy(a):
    ours, theirs = _nonzero_invariants(a)
    assert ours == theirs


@pytest.mark.parametrize("key,star", [(k, 0) for k in TYPE_KEYS] + [("|||", 1)])
def test_smith_invariants_match_sympy_on_translation_and_gram_matrices(key, star):
    lattice = lattice_for(key)
    _, rows = _image_matrix(lattice, star)
    ours, theirs = _nonzero_invariants(rows)
    assert ours == theirs
    ours, theirs = _nonzero_invariants([list(r) for r in lattice.gram])
    assert ours == theirs


@given(small_matrix)
@settings(max_examples=120)
def test_hermite_form_is_a_unimodular_row_reduction(a):
    res = row_hermite_form(a)
    assert mat_mul(res.u, a) == res.h
    assert _det_is_unit(res.u)
    # staircase: pivots strictly move right, positive, and reduce upward
    last_pivot = -1
    for row in res.h:
        if not any(row):
            last_pivot = len(row)  # zero rows only at the bottom
            continue
        assert last_pivot < len(row)
        j = next(i for i, c in enumerate(row) if c)
        assert j > last_pivot
        assert row[j] > 0
        last_pivot = j
    for i, row in enumerate(res.h):
        if not any(row):
            continue
        j = next(k for k, c in enumerate(row) if c)
        for above in res.h[:i]:
            assert 0 <= above[j] < row[j]


@given(small_matrix, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
@settings(max_examples=120)
def test_solve_left_inverts_row_combinations(a, x):
    x = x[: len(a)] + [0] * (len(a) - len(x))
    b = tuple(sum(x[i] * a[i][j] for i in range(len(a))) for j in range(len(a[0])))
    sol = solve_left(a, b)
    assert sol is not None
    assert tuple(sum(sol[i] * a[i][j] for i in range(len(a))) for j in range(len(a[0]))) == b


@given(small_matrix, st.lists(st.integers(-6, 6), min_size=1, max_size=4))
@settings(max_examples=120)
def test_solve_left_agrees_with_rowspan_membership(a, b):
    """solve_left against the Smith-form criterion: with U A V = S and
    c = b V, x A = b is solvable iff d_j | c_j below the rank and c_j = 0
    beyond it."""
    b = tuple(b[: len(a[0])]) + (0,) * max(0, len(a[0]) - len(b))
    res = smith_normal_form(a)
    c = mat_mul([list(b)], res.v)[0]
    d = res.diagonal
    solvable = all(c[j] % d[j] == 0 for j in range(res.rank)) and not any(c[res.rank :])
    sol = solve_left(a, b)
    assert (sol is not None) == in_rowspan(a, b) == solvable
    if sol is not None:
        assert mat_mul([list(sol)], a)[0] == list(b)


@given(small_matrix)
def test_left_kernel_annihilates(a):
    kernel = left_kernel_basis(a)
    for row in kernel:
        assert all(
            sum(row[i] * a[i][j] for i in range(len(a))) == 0 for j in range(len(a[0]))
        )
    assert len(kernel) == len(a) - smith_normal_form(a).rank
    # saturated: the kernel rows span a direct summand, not a finite-index sublattice
    if kernel:
        assert all(d in (0, 1) for d in smith_normal_form([list(r) for r in kernel]).diagonal)


def test_degenerate_shapes_keep_their_values():
    empty_rows = smith_normal_form([[], []])
    assert (empty_rows.s, empty_rows.u, empty_rows.v) == ([[], []], identity_matrix(2), [])
    assert left_kernel_basis([[], []]) == ((1, 0), (0, 1))
    assert solve_left([[], []], ()) == (0, 0)
    assert quotient_invariants(0, [[]]) == GroupInvariants(0, ())
    row = smith_normal_form([[0, 0]])
    assert (row.s, row.u, row.v) == ([[0, 0]], [[1]], identity_matrix(2))
    column = smith_normal_form([[0], [0]])
    assert (column.s, column.u, column.v) == ([[0], [0]], identity_matrix(2), [[1]])
    assert left_kernel_basis([[0, 0]]) == ((1,),)
    assert left_kernel_basis([[0], [0]]) == ((1, 0), (0, 1))
    assert solve_left([[0, 0]], (0, 0)) == (0,)
    assert solve_left([[0, 0]], (0, 1)) is None
    assert solve_left([[0], [0]], (0,)) == (0, 0)
    assert solve_left([[0], [0]], (3,)) is None
    assert quotient_invariants(2, [[0, 0]]) == GroupInvariants(2, ())
    assert quotient_invariants(1, [[0], [0]]) == GroupInvariants(1, ())


def test_quotient_invariants_examples():
    assert quotient_invariants(2, [[2, 0], [0, 1]]) == GroupInvariants(0, (2,))
    assert quotient_invariants(2, [[1, 0]]) == GroupInvariants(1, ())
    assert quotient_invariants(3, []) == GroupInvariants(3, ())
    assert quotient_invariants(2, [[2, 0], [0, 2]]) == GroupInvariants(0, (2, 2))


def test_group_invariant_strings():
    assert str(GroupInvariants(0, ())) == "0"
    assert str(GroupInvariants(1, ())) == "Z"
    assert str(GroupInvariants(2, (2,))) == "Z^2 x Z/2"
    assert str(GroupInvariants(0, (2, 2))) == "Z/2 x Z/2"


def test_identity_matrix_shape():
    assert identity_matrix(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
