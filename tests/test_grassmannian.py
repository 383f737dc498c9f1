import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.decorated import DecRep, h1_aggregate
from qcluster.errors import BudgetExceeded, NotPolynomialCount, QClusterError
from qcluster.grassmannian import (GF, FqRep, _arrow_table, _images,
                                   coefficient_crosscheck, enumeration_size,
                                   gaussian_binomial, gr_count, purity_pattern,
                                   serre_interpolate, subspaces, to_fq)
from qcluster.linalg import Mat
from qcluster.qlaurent import QLaurent
from qcluster.quiver import Arrow, Potential, QPData, Quiver, mutate_qp_sequence

from .corpus import CORPUS_NAMES, all_sequences, corpus_data, corpus_qp
from .oracles import (count_submodules_by_closure, gr_count_per_tuple,
                      gr_count_tables, serre_interpolate_lagrange)


def test_gf_axioms():
    for q in (2, 3, 4, 5, 7, 8, 9, 25, 49):
        f = GF(q)
        for a in range(q):
            assert f.add(a, 0) == a and f.mul(a, 1) == a
            for b in range(q):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                assert f.add(a, f.neg(a)) == 0
                for c in range(q):
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1


def test_gf_rejects_unsupported_q():
    # below 2, not a prime power, no stored modulus, tables too large
    for q in (0, 1, 6, 16, 257):
        with pytest.raises(QClusterError):
            GF(q)


def test_subspace_enumeration_counts():
    for q in (2, 3, 4):
        f = GF(q)
        for d in range(4):
            for k in range(d + 1):
                assert len(list(subspaces(f, d, k))) == gaussian_binomial(d, k, q)


def test_subspaces_are_rref():
    # gr_count reads each representative's pivots off its rows, which holds
    # only if every row tuple is already in reduced row echelon form
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = GF(q)
        for d in range(4):
            for k in range(d + 1):
                for rows in subspaces(f, d, k):
                    pivots = [next(c for c, x in enumerate(r) if x) for r in rows]
                    assert pivots == sorted(set(pivots))
                    for r, p in zip(rows, pivots):
                        assert r[p] == 1
                        assert not any(r[:p])
                    for i, p in enumerate(pivots):
                        assert all(rows[j][p] == 0 for j in range(k) if j != i)


def a2_indec():
    q = Quiver(2, [Arrow("a", 2, 1)])
    qp = QPData(q, Potential(12))
    return DecRep(qp, (1, 1), {"a": Mat(1, 1, [[1]])}, (0, 0))


def test_gr_count_examples():
    rep = a2_indec()
    for q in (2, 3, 5, 7):
        fq = to_fq(rep, q)
        assert gr_count(fq, (0, 0)) == 1            # whole module
        assert gr_count(fq, (1, 1)) == 1            # zero submodule
        assert gr_count(fq, (1, 0)) == 1            # unique invariant (0,1)
        assert gr_count(fq, (0, 1)) == 0
        assert gr_count(fq, (2, 0)) == 0            # out of range


def test_gr_count_budget():
    # the budget bounds the enumerated product: the one vertex of Gr(3, 6)
    # is counted in closed form, and of two vertices joined by an arrow one
    # is enumerated, here the 31 planes in F_5^3
    one = DecRep(QPData(Quiver(1, []), Potential(12)), (6,), {}, (0,))
    assert gr_count(to_fq(one, 5), (3,), budget=1) == gaussian_binomial(6, 3, 5)
    two = DecRep(QPData(Quiver(2, [Arrow("a", 1, 2)]), Potential(12)), (3, 3),
                 {"a": Mat(3, 3, [[0] * 3] * 3)}, (0, 0))
    fq = to_fq(two, 5)
    assert enumeration_size(fq, (1, 1)) == 31
    assert gr_count(fq, (1, 1), budget=31) == 31 ** 2
    with pytest.raises(BudgetExceeded):
        gr_count(fq, (1, 1), budget=30)


def test_enumeration_size_leaves_out_the_largest_independent_product():
    # on the path 1 - 2 - 3 with every U_v a line in F_q^2, I = {1, 3}
    # leaves one binomial q + 1 where I = {2} would leave (q + 1)^2
    quiver = Quiver(3, [Arrow("a", 1, 2), Arrow("b", 3, 2)])
    rep = DecRep(QPData(quiver, Potential(12)), (2, 2, 2),
                 {"a": Mat(2, 2, [[1, 0], [0, 1]]), "b": Mat(2, 2, [[1, 1], [0, 1]])},
                 (0, 0, 0))
    for q in (2, 3, 4):
        fq = to_fq(rep, q)
        assert fq.independent_sets[0] == ({1, 3}, (2,))
        assert enumeration_size(fq, (1, 1, 1)) == q + 1
        # a full or empty subspace at 2 costs nothing to enumerate
        assert enumeration_size(fq, (1, 0, 1)) == 1


def test_fields_are_shared_per_q():
    rep = a2_indec()
    assert to_fq(rep, 4).field is to_fq(rep, 4).field
    assert to_fq(rep, 4).field is not to_fq(rep, 5).field


def test_gr_count_label_permutation_invariance():
    rep = a2_indec()
    # relabel vertices 1 <-> 2: arrow becomes 1 -> 2 with the same matrix
    q2 = Quiver(2, [Arrow("a", 1, 2)])
    rep2 = DecRep(QPData(q2, Potential(12)), (1, 1),
                  {"a": Mat(1, 1, [[1]])}, (0, 0))
    for q in (2, 3):
        for gamma in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            swapped = (gamma[1], gamma[0])
            assert gr_count(to_fq(rep, q), gamma) == gr_count(to_fq(rep2, q), swapped)


def test_gr_count_opposite_duality():
    # counting codim gamma submodules = counting dim gamma quotients; for the
    # transposed action on the opposite quiver these swap
    rep = a2_indec()
    opp = Quiver(2, [Arrow("a", 1, 2)])
    rep_op = DecRep(QPData(opp, Potential(12)), (1, 1),
                    {"a": Mat(1, 1, [[1]])}, (0, 0))
    for q in (2, 3):
        for gamma in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            co = tuple(d - g for d, g in zip(rep.dims, gamma))
            assert gr_count(to_fq(rep, q), gamma) == gr_count(to_fq(rep_op, q), co)


def test_total_submodule_count_matches_closure_oracle():
    cases = []
    q3 = Quiver(3, [Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1)])
    qp3 = QPData(q3, Potential(12, {("c", "b", "a"): 1}))
    cases.append(DecRep(qp3, (1, 2, 1),
                        {"a": Mat(1, 2, [[1, 0]]), "b": Mat(2, 1, [[0], [1]]),
                         "c": Mat(1, 1, [[0]])}, (0, 0, 0)))
    cases.append(a2_indec())
    q1 = Quiver(2, [Arrow("a", 2, 1), Arrow("b", 2, 1)])
    cases.append(DecRep(QPData(q1, Potential(12)), (2, 2),
                        {"a": Mat(2, 2, [[1, 0], [0, 0]]),
                         "b": Mat(2, 2, [[0, 0], [1, 0]])}, (0, 0)))
    for rep in cases:
        for q in (2, 3):
            fq = to_fq(rep, q)
            total = 0
            for gamma in itertools.product(*[range(d + 1) for d in rep.dims]):
                total += gr_count(fq, gamma)
            arrows = [(a.source, a.target) for a in rep.qp.quiver.arrows.values()]
            mats = [fq.mats[a.id] for a in rep.qp.quiver.arrows.values()]
            oracle = count_submodules_by_closure(fq.field, rep.dims, arrows, mats)
            assert total == oracle


@st.composite
def fq_reps(draw):
    """A random FqRep: 1-3 vertices, 0-4 arrows (loops, parallel arrows and
    both orientations included), sparse matrices."""
    q = draw(st.sampled_from((2, 3, 4, 5)))
    dims = tuple(draw(st.lists(st.integers(0, 3 if q <= 3 else 2), min_size=1, max_size=3)))
    vertex = st.integers(1, len(dims))
    ends = draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    mats, arrows = {}, []
    for idx, (src, tgt) in enumerate(ends):
        aid = f"a{idx}"
        mats[aid] = tuple(tuple(draw(entry) for _ in range(dims[tgt - 1]))
                          for _ in range(dims[src - 1]))
        arrows.append((aid, src, tgt))
    return FqRep(GF(q), dims, mats, tuple(arrows))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_gr_count_matches_per_tuple_oracle(data):
    # every stratum on one FqRep, in shuffled order, so later strata reuse
    # the subspace lists and arrow tables that earlier ones built
    rep = data.draw(fq_reps())
    gammas = list(itertools.product(*[range(d + 1) for d in rep.dims]))
    for gamma in data.draw(st.permutations(gammas)):
        assert gr_count(rep, gamma) == gr_count_per_tuple(rep, gamma)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_gr_count_matches_table_oracle_on_corpus_h1(name):
    """Every stratum of the H^1 modules of a corpus seed, for every sequence
    of length <= 4 and the all-ones mutable lam with H^1 of total dimension
    <= 6, at q = 2, 3, 4, 5: the triangle counts its 3-cycle with |I| = 1,
    the Kronecker seed the double arrow."""
    qp = corpus_qp(name)
    n = corpus_data(name)[2]
    lam = (1,) * n + (0,) * (qp.quiver.m - n)
    for ks in all_sequences(n, 4):
        h1 = h1_aggregate(mutate_qp_sequence(qp, ks), ks, lam)
        if sum(h1.dims) > 6:
            continue
        gammas = list(itertools.product(*[range(d + 1) for d in h1.dims]))
        for q in (2, 3, 4, 5):
            fq, oracle = to_fq(h1, q), to_fq(h1, q)
            for gamma in gammas:
                assert gr_count(fq, gamma) == gr_count_tables(oracle, gamma), (ks, q, gamma)


def test_tables_are_built_once_per_fqrep():
    """A second call for the same table returns the kept object, the arrow
    tables read the kept images, and the counts still equal the table and
    per-tuple oracles."""
    q = 3
    rep = FqRep(GF(q), (2, 2), {"a": ((1, 0), (2, 1)), "b": ((0, 1), (0, 0))},
                (("a", 1, 2), ("b", 2, 1)))
    table = _arrow_table(rep, "a", 1, 2, 1, 1)
    images = _images(rep, "a", 2, 1)
    assert _arrow_table(rep, "a", 1, 2, 1, 1) is table
    assert _images(rep, "a", 2, 1) is images
    assert len(images) == len(table) == gaussian_binomial(2, 1, q)
    gammas = list(itertools.product(range(3), range(3)))
    counts = [gr_count(rep, gamma) for gamma in gammas]
    assert counts == [gr_count_tables(rep, gamma) for gamma in gammas]
    assert counts == [gr_count_per_tuple(rep, gamma) for gamma in gammas]
    kept = dict(rep.tables)
    assert [gr_count(rep, gamma) for gamma in gammas] == counts
    assert rep.tables.keys() == kept.keys()
    assert all(rep.tables[key] is value for key, value in kept.items())


def test_serre_interpolate_examples():
    assert serre_interpolate({2: 1, 3: 1, 5: 1}, 0) == QLaurent({0: 1})
    assert serre_interpolate({2: 3, 3: 4, 5: 6, 7: 8}, 1) == QLaurent({0: 1, 1: 1})
    # three lines through a point: 3q + 1
    serre = serre_interpolate({2: 7, 3: 10, 5: 16}, 1)
    assert serre == QLaurent({0: 1, 1: 3})
    assert serre.eval_at_one() == 4


def test_serre_interpolate_failures():
    with pytest.raises(NotPolynomialCount):
        serre_interpolate({2: 1, 3: 1}, 1)
    # held-out mismatch: 2^q is not a polynomial of degree <= 2
    with pytest.raises(NotPolynomialCount):
        serre_interpolate({2: 4, 3: 8, 5: 32, 7: 128, 8: 256}, 2)


PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_serre_interpolate_agrees_with_lagrange(data):
    """The one-solve fit against Lagrange's formula.  The counts are those of
    an integer polynomial of degree up to one past the bound, at one prime
    power fewer than the fit needs up to two more, and either exact, with
    one count off by 1, or plus the integer-valued T(T-1)/2 (coefficients
    1/2)."""
    degree_bound = data.draw(st.integers(0, 4))
    degree = data.draw(st.integers(0, degree_bound + 1))
    coeffs = data.draw(st.lists(st.integers(-20, 20), min_size=degree + 1,
                                max_size=degree + 1))
    size = degree_bound + data.draw(st.sampled_from([2, 3, 4, 1]))
    qs = data.draw(st.permutations(PRIME_POWERS))[:size]
    counts = {q: sum(c * q ** d for d, c in enumerate(coeffs)) for q in qs}
    change = data.draw(st.sampled_from(["none", "off-by-one", "half"]))
    if change == "half":
        counts = {q: y + q * (q - 1) // 2 for q, y in counts.items()}
    elif change == "off-by-one":
        counts[qs[0]] += 1
    try:
        want = serre_interpolate_lagrange(counts, degree_bound)
    except NotPolynomialCount:
        with pytest.raises(NotPolynomialCount):
            serre_interpolate(counts, degree_bound)
    else:
        assert serre_interpolate(counts, degree_bound) == want


def test_purity_pattern():
    assert purity_pattern(QLaurent({-2: 2, 0: 2}))
    assert purity_pattern(QLaurent({-1: 1, 1: 1}))
    assert not purity_pattern(QLaurent({-1: 1, 0: 1}))
    assert not purity_pattern(QLaurent({0: -1, 2: 1}))


def test_counts_independent_of_splitting_choices():
    from qcluster.quiver import mutate_qp_sequence
    from .corpus import corpus_qp
    from .oracles import h1_per_summand
    qp = corpus_qp("triangle_principal")
    ks, lam = (1, 2, 3, 1), (1, 1, 1, 0, 0, 0)
    a = h1_aggregate(mutate_qp_sequence(qp, ks), ks, lam)
    b = h1_per_summand(qp, ks, lam, change_bases=True)
    for gamma in [(0, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0), (1, 0, 1, 0, 0, 0),
                  (2, 1, 1, 0, 0, 0), (2, 2, 2, 0, 0, 0)]:
        for q in (2, 3):
            assert gr_count(to_fq(a, q), gamma) == gr_count(to_fq(b, q), gamma)


def test_crosscheck_a2_hard_mode():
    from qcluster.dtseries import initial_class_map
    from qcluster.quiver import mutate_qp
    from qcluster.seed import cluster_monomial
    from .corpus import corpus_qp, corpus_seed

    s0 = corpus_seed("a2")
    qp0 = corpus_qp("a2")
    ks, lam = (1, 2), (1, 1)
    r = cluster_monomial(s0, ks, lam)
    qp_r = qp0
    for k in ks:
        qp_r = mutate_qp(qp_r, k)
    h1 = h1_aggregate(qp_r, ks, lam)
    rep = coefficient_crosscheck(r.f_coefficients, h1, qp_r, primes=(2, 3, 4, 5),
                                 gamma_map=initial_class_map([[0, 1], [-1, 0]], ks))
    assert rep.mode == "hard"
    assert rep.ok
    assert all(row.match for row in rep.rows)
    # gamma = 0 stratum is the single point
    row0 = next(row for row in rep.rows if row.gamma == (0, 0))
    assert row0.serre == QLaurent({0: 1}) and row0.f_coeff.is_one()
