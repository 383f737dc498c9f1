"""The echelon-backed bases, kernels and coordinates of `linalg` against `rref`.

`rref`, and the oracles' `rank` read off it, are a separate row reduction
from the incremental `Echelon` behind `column_echelon` and
`Echelon.extend`, so each check compares the two.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.dtseries import initial_class_map, sign_sequence
from qcluster.linalg import Echelon, Mat, column_echelon, rref

from .corpus import CORPUS_NAMES, all_sequences, corpus_data
from .oracles import from_columns, identity, rank

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def mats(rows, cols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda e: Mat(rows, cols, e))


def columns_rank(cols, dim):
    return rank(from_columns(cols, dim))


def rref_kernel(mat):
    """One kernel vector per free column of the RREF, read off its pivot rows."""
    red, pivots = rref(mat)
    out = []
    for fc in (c for c in range(mat.cols) if c not in pivots):
        v = [0] * mat.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red.a[r][fc]
        out.append(tuple(v))
    return out


sizes = st.tuples(st.integers(1, 5), st.integers(0, 5), st.integers(0, 5))
pairs = sizes.flatmap(lambda s: st.tuples(mats(s[0], s[1]), mats(s[0], s[2]),
                                          mats(s[1], s[2])))


@PROPERTY
@given(pairs)
def test_column_space_basis_is_the_greedy_choice_in_order(mp):
    a = mp[0]
    greedy = []
    for col in (a.column(j) for j in range(a.cols)):
        if columns_rank(greedy + [col], a.rows) > len(greedy):
            greedy.append(col)
    assert column_echelon(a)[1] == greedy
    assert len(greedy) == rank(a)


@PROPERTY
@given(pairs)
def test_extend_basis_spans_inner_plus_outer(mp):
    a, b, _ = mp
    inner = [a.column(j) for j in range(a.cols)]
    outer = [b.column(j) for j in range(b.cols)]
    ech = Echelon()
    ech.extend(inner)
    added = ech.extend(outer)
    assert all(v in outer for v in added)
    assert columns_rank(inner + added, a.rows) == columns_rank(inner + outer, a.rows)
    assert len(added) == (columns_rank(inner + outer, a.rows)
                          - columns_rank(inner, a.rows))


@PROPERTY
@given(pairs)
def test_column_coordinates_are_exact_and_reject_targets_outside_the_span(mp):
    a, _, c = mp
    target = a * c
    ech, basis, _, coords = column_echelon(a)
    assert from_columns(basis, a.rows) * coords == a
    for j in range(target.cols):
        # combinations are keyed by column index
        residual, comb = ech.reduce(dict(enumerate(target.column(j))))
        x = [0] * a.cols
        for n, coeff in comb.items():
            x[n] = coeff
        assert not residual and a.apply(tuple(x)) == target.column(j)
    for i in range(a.rows):
        unit = tuple(int(t == i) for t in range(a.rows))
        outside = columns_rank(basis + [unit], a.rows) > len(basis)
        assert bool(ech.reduce({i: 1})[0]) == outside


@PROPERTY
@given(pairs)
def test_kernel_basis_is_killed_and_has_full_size(mp):
    a = mp[0]
    ker = column_echelon(a)[2]
    assert ker == rref_kernel(a)
    assert all(not any(a.apply(v)) for v in ker)
    assert len(ker) == a.cols - rank(a)
    assert not ker or columns_rank(ker, a.cols) == len(ker)


@PROPERTY
@given(pairs)
def test_unit_coordinates_times_the_basis_give_the_identity(mp):
    """Columns, then unit vectors, on one echelon: the unit vectors'
    combinations of the independent vectors are the inverse of that basis."""
    a = mp[0]
    units = [tuple(int(t == i) for t in range(a.rows)) for i in range(a.rows)]
    vectors = [a.column(j) for j in range(a.cols)] + units
    ech = Echelon()
    basis = [n for n, v in enumerate(vectors) if ech.add(dict(enumerate(v))) is None]
    coords = [ech.reduce({i: 1})[1] for i in range(a.rows)]
    inverse = Mat(a.rows, a.rows, [[comb.get(n, 0) for comb in coords] for n in basis])
    assert from_columns([vectors[n] for n in basis], a.rows) * inverse \
        == identity(a.rows)


def test_initial_class_map_inverts_the_c_matrix():
    """C(r) to_qr(delta) = -delta with integer to_qr(delta), on every corpus
    seed and every sequence of length <= 3."""
    checked = 0
    for name in CORPUS_NAMES:
        _, bt, n = corpus_data(name)
        for ks in all_sequences(n, 3):
            c = sign_sequence(bt, ks).c
            to_qr = initial_class_map(bt, ks)
            for delta in [tuple(int(t == i) for t in range(n)) for i in range(n)] + [
                    tuple(range(1, n + 1)), tuple((-1) ** t * (t + 2) for t in range(n))]:
                gamma = to_qr(delta)
                assert all(type(x) is int for x in gamma)
                assert Mat(n, n, c).apply(gamma) == tuple(-d for d in delta)
                checked += 1
    assert checked > 100
