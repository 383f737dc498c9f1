"""Span, basis and solve routines of `linalg` against `rank`.

`rank` reads the pivots of `rref`, a separate row reduction from the
incremental echelon behind `extend_basis`, `column_space_basis` and
`solve_matrix`, so each check compares the two.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.linalg import (Mat, column_space_basis, extend_basis, kernel_basis,
                             rank, solve_matrix)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def mats(rows, cols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda e: Mat(rows, cols, e))


def columns_rank(cols, dim):
    return rank(Mat.from_columns(cols, dim))


sizes = st.tuples(st.integers(1, 5), st.integers(0, 5), st.integers(0, 5))
pairs = sizes.flatmap(lambda s: st.tuples(mats(s[0], s[1]), mats(s[0], s[2]),
                                          mats(s[1], s[2])))


@PROPERTY
@given(pairs)
def test_column_space_basis_is_the_greedy_choice_in_order(mp):
    a = mp[0]
    for reverse in (False, True):
        order = [a.column(j) for j in range(a.cols)]
        if reverse:
            order.reverse()
        greedy = []
        for col in order:
            if columns_rank(greedy + [col], a.rows) > len(greedy):
                greedy.append(col)
        assert column_space_basis(a, reverse) == greedy
        assert len(greedy) == rank(a)


@PROPERTY
@given(pairs)
def test_extend_basis_spans_inner_plus_outer(mp):
    a, b, _ = mp
    inner = [a.column(j) for j in range(a.cols)]
    outer = [b.column(j) for j in range(b.cols)]
    for reverse in (False, True):
        added = extend_basis(inner, outer, reverse)
        assert all(v in outer for v in added)
        assert columns_rank(inner + added, a.rows) == columns_rank(inner + outer, a.rows)
        assert len(added) == (columns_rank(inner + outer, a.rows)
                              - columns_rank(inner, a.rows))


@PROPERTY
@given(pairs)
def test_solve_matrix_is_exact_and_rejects_targets_outside_the_span(mp):
    a, _, c = mp
    basis = column_space_basis(a)
    target = a * c
    x = solve_matrix(basis, target)
    assert Mat.from_columns(basis, a.rows) * x == target
    for i in range(a.rows):
        unit = tuple(int(t == i) for t in range(a.rows))
        if columns_rank(basis + [unit], a.rows) > len(basis):
            with pytest.raises(ValueError):
                solve_matrix(basis, Mat.from_columns([unit], a.rows))


@PROPERTY
@given(pairs)
def test_kernel_basis_is_killed_and_has_full_size(mp):
    a = mp[0]
    ker = kernel_basis(a)
    assert all(not any(a.apply(v)) for v in ker)
    assert len(ker) == a.cols - rank(a)
    assert not ker or columns_rank(ker, a.cols) == len(ker)
