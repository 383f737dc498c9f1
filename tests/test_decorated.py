import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.decorated import (DecRep, check_jacobi, direct_sum, h1_aggregate,
                                mutate_rep, negative_simple, word_action)
from qcluster.errors import QClusterError, RelationViolation
from qcluster.grassmannian import gr_count, to_fq
from qcluster.linalg import Mat
from qcluster.quiver import (Arrow, Potential, QPData, Quiver, from_btilde, mutate_qp_sequence,
                             mutation_step)

from .corpus import all_sequences, corpus_data, corpus_qp
from .oracles import h1_per_summand, rank, simple


def a2_qp():
    return QPData(from_btilde([[0, 1], [-1, 0]], 2), Potential(12))


def triangle_qp():
    q = Quiver(3, [Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1)])
    return QPData(q, Potential(12, {("c", "b", "a"): 1}))


def mutate_at(rep, k):
    return mutate_rep(rep, mutation_step(rep.qp, k))


def h1(qp0, ks, lam):
    return h1_aggregate(mutate_qp_sequence(qp0, ks), ks, lam)


def test_negative_simple():
    qp = a2_qp()
    r = negative_simple(qp, 1)
    assert r.dims == (0, 0) and r.vdims == (1, 0)
    assert negative_simple(qp, 2).vdims == (0, 1)
    check_jacobi(r)


def test_mutation_of_negative_simple_is_simple():
    qp = a2_qp()
    r = mutate_at(negative_simple(qp, 1), 1)
    assert r.dims == (1, 0) and r.vdims == (0, 0)
    back = mutate_at(r, 1)
    assert back.dims == (0, 0) and back.vdims == (1, 0)


def test_a2_indecomposable_example():
    q = Quiver(2, [Arrow("a", 1, 2)])
    qp = QPData(q, Potential(12))
    indec = DecRep(qp, (1, 1), {"a": Mat(1, 1, [[1]])}, (0, 0))
    check_jacobi(indec)
    out = mutate_at(indec, 2)
    assert out.dims == (1, 0) and out.vdims == (0, 0)


def test_relation_violation_detected():
    qp = triangle_qp()
    bad = DecRep(qp, (1, 1, 1),
                 {"a": Mat(1, 1, [[1]]), "b": Mat(1, 1, [[1]]),
                  "c": Mat(1, 1, [[1]])}, (0, 0, 0))
    with pytest.raises(RelationViolation):
        check_jacobi(bad)
    with pytest.raises(RelationViolation):
        mutate_at(bad, 1)


def test_parallel_arrows_that_cancel_do_not_hide_a_cycle():
    # a + b acts by 0, but the path a c acts by 1 and so does every power of it
    q = Quiver(2, [Arrow("a", 1, 2), Arrow("b", 1, 2), Arrow("c", 2, 1)])
    mats = {"a": Mat(1, 1, [[1]]), "b": Mat(1, 1, [[-1]]), "c": Mat(1, 1, [[1]])}
    rep = DecRep(QPData(q, Potential(12)), (1, 1), mats, (0, 0))
    assert word_action(rep, ("a", "c") * 5) == Mat.identity(1)
    with pytest.raises(RelationViolation, match="not nilpotent"):
        check_jacobi(rep)
    check_jacobi(DecRep(rep.qp, (1, 1), {**mats, "c": Mat(1, 1, [[0]])}, (0, 0)))


def test_involution_dims_vdims():
    qp = triangle_qp()
    mods = [
        DecRep(qp, (1, 1, 1), {"a": Mat(1, 1, [[1]]), "b": Mat(1, 1, [[0]]),
                               "c": Mat(1, 1, [[0]])}, (0, 1, 0)),
        DecRep(qp, (1, 2, 1), {"a": Mat(1, 2, [[1, 0]]),
                               "b": Mat(2, 1, [[0], [1]]),
                               "c": Mat(1, 1, [[0]])}, (0, 0, 0)),
        simple(qp, 2),
        negative_simple(qp, 3),
    ]
    for rep in mods:
        check_jacobi(rep)
        for k in (1, 2, 3):
            twice = mutate_at(mutate_at(rep, k), k)
            assert twice.dims == rep.dims
            assert twice.vdims == rep.vdims


def test_mutation_at_k_keeps_the_decoration_at_k_apart():
    """mu_2 of M + (0, e_2) against mu_2 M + mu_2 (0, e_2), with V_2 != 0 at
    the vertex mutated.  M is S_2 plus the module on vertices 1 and 3 where c
    acts by 1, so gamma = c != 0 and the path through the new vertex 2 acts
    as gamma does.  Only when alpha-bar's rows and beta-bar's columns give
    the decoration the same coordinates do the path ranks agree."""
    qp = triangle_qp()
    zero = Mat(1, 1, [[0]])
    m = DecRep(qp, (1, 1, 1), {"a": zero, "b": zero, "c": Mat(1, 1, [[1]])}, (0, 0, 0))
    both = mutate_at(direct_sum([m, negative_simple(qp, 2)]), 2)
    check_jacobi(both)
    assert both.dims == (1, 2, 1) and both.vdims == (0, 1, 0)
    apart = direct_sum([mutate_at(m, 2), mutate_at(negative_simple(qp, 2), 2)])
    assert (apart.dims, apart.vdims) == (both.dims, both.vdims)
    q = both.qp.quiver
    paths = [(x,) for x in q.arrows] + [(x, y) for x in q.arrows for y in q.arrows
                                        if q.arrows[x].source == q.arrows[y].target]
    assert any(len(w) == 2 for w in paths)
    for w in paths:
        assert rank(word_action(both, w)) == rank(word_action(apart, w)), w


def test_h1_examples():
    qp = a2_qp()
    assert h1(qp, (), (1, 0)).dims == (0, 0)
    assert h1(qp, (1,), (1, 0)).dims == (1, 0)
    h = h1(qp, (1, 2), (0, 1))
    assert h.dims == (1, 1)
    aid = next(iter(h.mats))
    assert h.mats[aid].a == ((1,),)


def test_h1_triangle_aggregate():
    qp = corpus_qp("triangle_principal")
    agg = h1(qp, (1, 2, 3, 1), (1, 1, 1, 0, 0, 0))
    assert agg.dims == (2, 2, 2, 0, 0, 0)
    assert agg.vdims == (0, 0, 0, 0, 0, 0)
    check_jacobi(agg)


def test_h1_frozen_vertex_is_zero():
    qp = corpus_qp("a2_principal")
    assert h1(qp, (1, 2), (0, 0, 1, 0)).dims == (0, 0, 0, 0)
    assert h1(qp, (1, 2), (0, 0, 0, 1)).dims == (0, 0, 0, 0)


def test_h1_lam_zero_lives_on_the_qp_the_backward_steps_reach():
    qp = corpus_qp("triangle_principal")
    ks = (1, 2, 3, 1)
    zero, one = h1(qp, ks, (0,) * 6), h1(qp, ks, (1, 0, 0, 0, 0, 0))
    assert zero.dims == zero.vdims == (0,) * 6
    assert zero.qp.quiver.arrows == one.qp.quiver.arrows
    assert zero.qp.potential == one.qp.potential


def test_pivot_independence():
    qp = triangle_qp()
    for lam in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        a = h1(qp, (1, 2, 3, 1), lam)
        b = h1_per_summand(qp, (1, 2, 3, 1), lam, change_bases=True)
        assert a.dims == b.dims and a.vdims == b.vdims
        # ranks of all arrow actions agree as well
        ra = sorted(rank(m) for m in a.mats.values())
        rb = sorted(rank(m) for m in b.mats.values())
        assert ra == rb


def test_h1_independent_of_splitting_choices():
    """mutate_rep picks one splitting of each triangle; changing the basis at
    every vertex before every backward step makes it pick others, and H^1
    keeps its dims, decoration, arrow ranks and Grassmannian point counts.
    The summands here reach dims (3, 2) and (2, 1), so the reversal and the
    shear both act and the matrices differ."""
    qp, ks = corpus_qp("kronecker_principal"), (1, 2, 1)
    for lam in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]:
        a, b = h1(qp, ks, lam), h1_per_summand(qp, ks, lam, change_bases=True)
        assert a.dims == b.dims and a.vdims == b.vdims
        assert sorted(rank(m) for m in a.mats.values()) == \
            sorted(rank(m) for m in b.mats.values())
    assert a.mats != b.mats
    for gamma in [(1, 1, 0, 0), (2, 1, 0, 0), (3, 2, 0, 0), (4, 2, 0, 0)]:
        for q in (2, 3):
            assert gr_count(to_fq(a, q), gamma) == gr_count(to_fq(b, q), gamma)


def test_word_action_composition():
    qp = triangle_qp()
    rep = DecRep(qp, (1, 1, 1), {"a": Mat(1, 1, [[2]]), "b": Mat(1, 1, [[0]]),
                                 "c": Mat(1, 1, [[0]])}, (0, 0, 0))
    assert word_action(rep, ("a",)).a == ((2,),)
    assert word_action(rep, ("c", "b")).a == ((0,),)


def test_the_empty_word_is_not_a_path():
    rep = negative_simple(triangle_qp(), 1)
    q = rep.qp.quiver
    for call in (q.word_endpoints, q.is_cyclic_word, lambda w: word_action(rep, w)):
        with pytest.raises(QClusterError, match="empty word is not a path"):
            call(())


def test_direct_sum_dims():
    """dims and vdims add up, and every arrow acts by the summands' block
    diagonal.  The summands include zero-width and zero-height blocks and an
    all-zero summand (0, e_2), between blocks with entries."""
    qp = a2_qp()
    s1 = mutate_at(negative_simple(qp, 1), 1)
    tot = direct_sum([s1, s1, negative_simple(s1.qp, 2)])
    assert tot.dims == (2, 0) and tot.vdims == (0, 1)

    qp = QPData(Quiver(2, [Arrow("a", 1, 2)]), Potential(12))
    one = DecRep(qp, (1, 1), {"a": Mat(1, 1, [[1]])}, (0, 0))
    two = DecRep(qp, (2, 1), {"a": Mat(2, 1, [[2], [3]])}, (0, 0))
    at_1 = DecRep(qp, (1, 0), {"a": Mat(1, 0, [[]])}, (0, 0))
    at_2 = DecRep(qp, (0, 1), {"a": Mat(0, 1, [])}, (0, 0))
    reps = [one, at_1, two, negative_simple(qp, 2), at_2, one]
    tot = direct_sum(reps)
    assert tot.dims == (5, 4) and tot.vdims == (0, 1)
    check_jacobi(tot)
    for aid, mat in tot.mats.items():
        entries = [[0] * mat.cols for _ in range(mat.rows)]
        top = left = 0
        for r in reps:
            block = r.mats[aid]
            for i, row in enumerate(block.a):
                entries[top + i][left:left + block.cols] = row
            top, left = top + block.rows, left + block.cols
        assert (top, left) == (mat.rows, mat.cols)
        assert mat == Mat(top, left, entries)
    assert tot.mats["a"].a[2:4] == ((0, 2, 0, 0), (0, 3, 0, 0))


def test_dump_is_deterministic():
    qp = a2_qp()
    r, again = h1(qp, (1, 2), (0, 1)), h1(qp, (1, 2), (0, 1))
    assert (r.dims, r.mats, r.vdims) == (again.dims, again.mats, again.vdims)


@pytest.mark.parametrize("name", ["triangle_principal", "a3_principal",
                                  "kronecker_principal"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_h1_aggregate_matches_the_per_summand_sum(name, data):
    """Shared mutation steps, one summand per vertex, against every summand
    copy mutated on its own: the same QP, dims, decoration and matrices.
    ks has length <= 2; lam has entries in {0, 1, 2} and is nonzero at some
    mutable vertex."""
    _, btilde, n = corpus_data(name)
    ks = data.draw(st.sampled_from(all_sequences(n, 2)), label="ks")
    lam = data.draw(st.lists(st.integers(0, 2), min_size=len(btilde),
                             max_size=len(btilde)))
    lam[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(1, 2))
    lam = tuple(lam)
    qp = corpus_qp(name)
    one, summed = h1(qp, ks, lam), h1_per_summand(qp, ks, lam)
    assert one.qp.quiver.arrows == summed.qp.quiver.arrows
    assert one.qp.potential.terms == summed.qp.potential.terms
    assert (one.dims, one.vdims, one.mats) == (summed.dims, summed.vdims, summed.mats)


def test_mutation_step_must_match_the_representation():
    qp = triangle_qp()
    rep = negative_simple(qp, 1)
    with pytest.raises(ValueError):
        mutate_rep(rep, mutation_step(triangle_qp(), 1))
