import random
from fractions import Fraction

import pytest

from qcluster.errors import DegreeCapExceeded, LoopAtVertex, NotSkewSymmetric
from qcluster.quiver import (Arrow, Potential, QPData, Quiver, canonical_rotation,
                             cyclic_derivative, euler_form, from_btilde,
                             mutate_qp, mutation_step, reduce_with_trail)
from qcluster.seed import _matrix_mutation

from .corpus import CORPUS_NAMES, corpus_data, corpus_qp
from .oracles import jacobi_dims


def triangle():
    return Quiver(3, [Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1)])


def triangle_qp(cap=12):
    return QPData(triangle(), Potential(cap, {("c", "b", "a"): 1}))


def no_2_cycle(q):
    counts = q.arrow_count()
    return all((j, i) not in counts for (i, j) in counts)


def test_from_btilde_examples():
    q = from_btilde([[0, 1], [-1, 0]], 2)
    assert [(a.source, a.target) for a in q.arrows.values()] == [(2, 1)]
    assert from_btilde([[0, 0], [0, 0]], 2).arrows == {}
    q2 = from_btilde([[0, 2], [-2, 0]], 2)
    assert sorted((a.source, a.target) for a in q2.arrows.values()) == [(2, 1), (2, 1)]
    with pytest.raises(NotSkewSymmetric):
        from_btilde([[0, 1], [1, 0]], 2)


def test_quiver_mutate_examples():
    empty = Quiver(3, [])
    assert mutate_qp(QPData(empty, Potential(12)), 1).quiver == empty
    tri = triangle()
    assert mutate_qp(mutate_qp(triangle_qp(), 2), 2).quiver == tri
    with pytest.raises(LoopAtVertex):
        mutate_qp(QPData(Quiver(1, [Arrow("l", 1, 1)]), Potential(12)), 1)


def test_quiver_mutation_matches_matrix_rule():
    rng = random.Random(4)
    for name in CORPUS_NAMES:
        _, bt, n = corpus_data(name)
        m = len(bt)
        qp = corpus_qp(name)
        for _ in range(6):
            k = rng.randrange(1, n + 1)
            bt = _matrix_mutation(bt, m, n, k)
            qp = mutate_qp(qp, k)
            assert qp.quiver == from_btilde(bt, n)


def test_subquiver_is_acyclic():
    # a path far longer than the recursion limit
    path = Quiver(3000, [Arrow(f"a{v}", v, v + 1) for v in range(1, 3000)])
    assert path.subquiver_is_acyclic(range(1, 3001))
    loop = Quiver(2, [Arrow("a", 1, 2), Arrow("l", 2, 2)])
    assert not loop.subquiver_is_acyclic([1, 2])
    assert loop.subquiver_is_acyclic([1])
    two_cycle = Quiver(2, [Arrow("a", 1, 2), Arrow("b", 2, 1)])
    assert not two_cycle.subquiver_is_acyclic([1, 2])
    # leaving out one vertex of the triangle cuts its only cycle
    assert not triangle().subquiver_is_acyclic([1, 2, 3])
    assert triangle().subquiver_is_acyclic([1, 3])


def test_cyclic_derivative_examples():
    tri = triangle()
    W = Potential(12, {("a", "b", "c"): 1})
    assert cyclic_derivative(W, tri, "a") == {("b", "c"): Fraction(1)}
    assert cyclic_derivative(Potential(12), tri, "a") == {}
    q2 = Quiver(2, [Arrow("a", 1, 2), Arrow("b", 2, 1)])
    W2 = Potential(12, {("a", "b", "a", "b"): 1})
    assert cyclic_derivative(W2, q2, "a") == {("b", "a", "b"): Fraction(2)}


def test_cyclic_derivative_rotation_invariant():
    tri = triangle()
    for rot in [("c", "b", "a"), ("b", "a", "c"), ("a", "c", "b")]:
        W = Potential(12, {rot: 1})
        assert cyclic_derivative(W, tri, "b") == {("a", "c"): Fraction(1)}


def test_canonical_rotation():
    assert canonical_rotation(("c", "b", "a")) == ("a", "c", "b")
    assert canonical_rotation(("x",)) == ("x",)


def test_premutate_triangle():
    step = mutation_step(triangle_qp(), 1)
    assert step.rev == {"a": "a*", "c": "c*"} and step.comp == {("a", "c"): "[a.c]"}
    assert "gamma_words" not in vars(step)      # computed only when a module asks
    assert step.gamma_words == {("a", "c"): {("b",): Fraction(1)}}
    pre = step.pre
    arrows = sorted((a.source, a.target) for a in pre.quiver.arrows.values())
    assert arrows == [(1, 3), (2, 1), (2, 3), (3, 2)]
    assert len(pre.potential.terms) == 2
    lens = sorted(len(w) for w in pre.potential.terms)
    assert lens == [2, 3]


def test_premutate_no_arrows_at_k():
    q = Quiver(2, [Arrow("a", 1, 2)])
    w = Potential(12)
    pre = mutation_step(QPData(q, w), 2).pre  # wait, 2 has an incoming arrow
    assert len(pre.quiver.arrows) == 1
    # a genuinely untouched vertex needs m >= 3
    q3 = Quiver(3, [Arrow("a", 1, 2)])
    pre3 = mutation_step(QPData(q3, w), 3).pre
    assert pre3.quiver == q3 and pre3.potential.is_zero()


def test_premutate_sink():
    q = Quiver(2, [Arrow("a", 1, 2)])
    pre = mutation_step(QPData(q, Potential(12)), 2).pre
    assert [(a.source, a.target) for a in pre.quiver.arrows.values()] == [(2, 1)]
    assert pre.potential.is_zero()


def test_reduce_examples():
    qp = triangle_qp()
    assert reduce_with_trail(qp)[0].potential == qp.potential  # already reduced
    red = reduce_with_trail(mutation_step(qp, 1).pre)[0]
    assert sorted((a.source, a.target) for a in red.quiver.arrows.values()) \
        == [(1, 3), (2, 1)]
    assert red.potential.is_zero()
    # a pure 2-cycle term is a trivial QP
    q2 = Quiver(2, [Arrow("x", 1, 2), Arrow("y", 2, 1)])
    red2 = reduce_with_trail(QPData(q2, Potential(12, {("x", "y"): 1})))[0]
    assert red2.quiver.arrows == {} and red2.potential.is_zero()


def test_mutate_qp_examples():
    red = mutate_qp(triangle_qp(), 1)
    assert no_2_cycle(red.quiver) and red.potential.is_zero()
    acyc = QPData(Quiver(2, [Arrow("a", 1, 2)]), Potential(12))
    red2 = mutate_qp(acyc, 1)
    assert no_2_cycle(red2.quiver) and red2.potential.is_zero()
    assert red2.quiver == Quiver(2, [Arrow("a", 2, 1)])


def test_mutate_qp_involution_observables():
    for name in ("a2", "triangle_principal", "a3_principal"):
        qp = corpus_qp(name)
        n = corpus_data(name)[2]
        for k in range(1, n + 1):
            one = mutate_qp(qp, k)
            two = mutate_qp(one, k)
            assert two.quiver == qp.quiver
            cap = 6
            assert jacobi_dims(two, cap) == jacobi_dims(qp, cap)


def test_reduce_output_has_no_short_terms():
    for name in CORPUS_NAMES:
        qp = corpus_qp(name)
        n = corpus_data(name)[2]
        for k in range(1, n + 1):
            red = mutate_qp(qp, k)
            assert all(len(w) >= 3 for w in red.potential.terms)


def test_euler_form():
    # one arrow 1->2, right-module convention
    q = Quiver(2, [Arrow("a", 1, 2)])
    assert euler_form(q, (0, 1), (1, 0)) == -1
    assert euler_form(q, (1, 0), (0, 1)) == 0
    empty = Quiver(2, [])
    assert euler_form(empty, (2, 3), (2, 3)) == 13
    rng = random.Random(6)
    tri = triangle()
    for _ in range(40):
        g1, g1b, g2 = (tuple(rng.randrange(-3, 4) for _ in range(3)) for _ in range(3))
        s = tuple(a + b for a, b in zip(g1, g1b))
        assert euler_form(tri, s, g2) == euler_form(tri, g1, g2) + euler_form(tri, g1b, g2)


def test_euler_form_antisymmetrization_matches_skew_form():
    # Lambda(B~ g1, B~ g2) = -chi(g1, g2) + chi(g2, g1) on corpus pairs
    from qcluster.torus import SkewForm
    for name in CORPUS_NAMES:
        lam, bt, n = corpus_data(name)
        form = SkewForm(lam)
        quiver = from_btilde(bt, n)
        m = len(bt)
        for i in range(n):
            for j in range(n):
                gi = tuple(1 if t == i else 0 for t in range(m))
                gj = tuple(1 if t == j else 0 for t in range(m))
                bi = tuple(bt[t][i] for t in range(m))
                bj = tuple(bt[t][j] for t in range(m))
                assert form.pair(bi, bj) == -euler_form(quiver, gi, gj) \
                    + euler_form(quiver, gj, gi)


def test_jacobi_dims():
    qp0 = QPData(triangle(), Potential(12))
    assert jacobi_dims(qp0, 4) == [3, 3, 3, 3, 3]
    qp = triangle_qp()
    dims = jacobi_dims(qp, 8)
    assert dims[0] == 3 and dims[1] == 3 and all(d == 0 for d in dims[2:])
    with pytest.raises(DegreeCapExceeded):
        jacobi_dims(triangle_qp(cap=4), 8)
