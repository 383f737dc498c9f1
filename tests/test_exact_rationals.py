"""One rule for exact rationals: an int when integral, a Fraction only when not.

Every potential coefficient, reduction substitution, module matrix entry
and stored echelon value must be an int or a non-integral Fraction: never a
float and never an integral Fraction.  The QP side runs on random principal
seeds (the strategy of test_random_seeds) and on the oriented 3-cycle, whose
potential carries a rational coefficient; the echelon runs on mixed int / Fraction input
and is checked against the rational RREF of tests/oracles.py.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcluster.decorated import h1_aggregate, mutate_rep, negative_simple
from qcluster.linalg import Echelon, Mat, column_echelon
from qcluster.quiver import Potential, QPData, from_btilde, mutate_qp_sequence, mutation_step

from .corpus import principal_pair
from .oracles import rational_rref
from .test_random_seeds import draw_ks, random_principal_cases

# as the session document's [num, den] pairs parse: integral ones too are Fractions
COEFFICIENTS = tuple(Fraction(*c) for c in ((1, 1), (2, 1), (1, 3), (-5, 7), (7, 2)))


def is_exact(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def assert_potential_exact(pot: Potential):
    assert all(is_exact(c) for c in pot.terms.values()), pot.terms


def assert_mat_exact(mat: Mat):
    assert all(is_exact(x) for row in mat.a for x in row), mat


def assert_echelon_exact(ech: Echelon):
    for row, comb in ech.rows.values():
        assert all(is_exact(x) for x in row.values()), row
        assert all(is_exact(x) for x in comb.values()), comb


def cycle_word(quiver, vertices):
    """The path word around a 3-cycle on `vertices`, each letter followed
    by the arrow into its source."""
    inner = [a for a in quiver.arrows.values()
             if a.source in vertices and a.target in vertices]
    word = [inner[0]]
    while len(word) < len(inner):
        word.append(next(a for a in inner if a.target == word[-1].source))
    return tuple(a.id for a in word)


def principal_qp(B, coeff) -> QPData | None:
    """The QP of B's principal seed: zero potential when B is acyclic, the
    3-cycle times coeff when B is a cycle of single arrows, else None."""
    _, btilde = principal_pair(B)
    n = len(B)
    quiver = from_btilde(btilde, n)
    terms = {}
    if not quiver.subquiver_is_acyclic(range(1, n + 1)):
        if n != 3 or any(abs(B[i][j]) != 1 for i in range(3) for j in range(3) if i != j):
            return None
        terms[cycle_word(quiver, range(1, n + 1))] = coeff
    qp = QPData(quiver, Potential(12, terms))
    qp.validate()
    return qp


@st.composite
def triangle_cases(draw):
    """The oriented 3-cycle either way round, with a sequence and a unit or
    all-ones lam drawn as in random_principal_cases."""
    s = draw(st.sampled_from((1, -1)))
    B = [[0, -s, s], [s, 0, -s], [-s, s, 0]]
    unit = st.integers(0, 5).map(lambda i: tuple(int(t == i) for t in range(6)))
    return B, draw_ks(draw, 3), draw(st.one_of(st.just((1,) * 6), unit))


def steps_along(qp: QPData, ks):
    """mutation_step at ks[0], ks[1], ...: every step, every potential checked."""
    steps = []
    for k in ks:
        step = mutation_step(qp, k)
        for pot in (step.pre.potential, step.w2, step.reduced.potential):
            assert_potential_exact(pot)
        for kind, payload in step.trail:
            if kind == "subst":
                assert all(is_exact(c) for corr in payload.values() for c in corr.values())
        steps.append(step)
        qp = step.reduced
    return steps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(random_principal_cases(), triangle_cases()), st.sampled_from(COEFFICIENTS))
def test_qp_mutation_and_h1_store_exact_values(case, coeff):
    B, ks, lam = case
    qp0 = principal_qp(B, coeff)
    assume(qp0 is not None)
    assert_potential_exact(qp0.potential)
    qp_r = steps_along(qp0, ks)[-1].reduced if ks else qp0
    assert mutate_qp_sequence(qp0, ks).potential == qp_r.potential
    # each summand's backward steps, as h1_aggregate takes them
    back = steps_along(qp_r, tuple(reversed(ks)))
    for j, mult in enumerate(lam, start=1):
        if mult:
            rep = negative_simple(qp_r, j)
            for step in back:
                rep = mutate_rep(rep, step)
                for mat in rep.mats.values():
                    assert_mat_exact(mat)
    for mat in h1_aggregate(qp_r, ks, lam).mats.values():
        assert_mat_exact(mat)


def test_non_integral_coefficients_reach_the_reduction():
    """The rule's Fraction side is exercised: on the triangle with the cycle
    times -5/7, the reduction at vertex 1 substitutes an arrow by 7/5 times
    a path."""
    qp0 = principal_qp([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], Fraction(-5, 7))
    trail = steps_along(qp0, (1,))[0].trail
    values = [c for kind, payload in trail if kind == "subst"
              for corr in payload.values() for c in corr.values()]
    assert values == [Fraction(7, 5)]


rationals = st.one_of(st.integers(-2, 2),
                      st.fractions(min_value=-2, max_value=2, max_denominator=3))
grids = st.tuples(st.integers(1, 4), st.integers(0, 5)).flatmap(
    lambda s: st.lists(st.lists(rationals, min_size=s[1], max_size=s[1]),
                       min_size=s[0], max_size=s[0]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grids)
def test_column_echelon_on_mixed_input_matches_the_rational_rref(grid):
    """Mixed int / Fraction entries, integral Fractions included: the
    coordinates of the columns on the independent ones are the nonzero RREF
    rows, the independent columns are its pivot columns, and the kernel is
    read off it."""
    rows, cols = len(grid), len(grid[0])
    mat = Mat(rows, cols, grid)
    assert_mat_exact(mat)
    assert mat.a == tuple(tuple(Fraction(x) for x in row) for row in grid)
    ech, basis, kernel, coords = column_echelon(mat)
    red, pivots = rational_rref(grid, cols)
    assert basis == [mat.column(j) for j in pivots]
    assert coords.a == tuple(tuple(row) for row in red)
    want = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[free] = 1
        for r, p in enumerate(pivots):
            v[p] = -red[r][free]
        want.append(tuple(v))
    assert kernel == want
    assert_echelon_exact(ech)
    assert_mat_exact(coords)
    assert all(is_exact(x) for v in kernel for x in v)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grids)
def test_echelon_rows_stay_exact_on_sparse_mixed_input(grid):
    """Rows added one at a time as sparse dicts that hold integral Fractions:
    the independent rows are those the RREF of the rows before keeps."""
    ech = Echelon()
    for n, row in enumerate(grid):
        comb = ech.add({i: x for i, x in enumerate(row) if x})
        independent = len(rational_rref(grid[:n + 1], len(row))[1]) \
            > len(rational_rref(grid[:n], len(row))[1])
        assert (comb is None) == independent
        if comb is not None:
            assert [sum(c * grid[m][i] for m, c in comb.items()) for i in range(len(row))] \
                == row
    assert_echelon_exact(ech)
    assert len(ech.rows) == len(rational_rref(grid, len(grid[0]))[1])
