"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines; every
tolerance is exact (these are symbolic identities and integer counts).
"""

import pytest

from qcluster.decorated import h1_aggregate, mutate_rep, negative_simple
from qcluster.dtseries import (cone_form, conjugate, dt_factors, factorization_check,
                               g_of_lambda, initial_class_map, pochhammer,
                               sign_sequence)
from qcluster.errors import SignAmbiguous
from qcluster.grassmannian import gr_count, purity_pattern, serre_interpolate, to_fq
from qcluster.qlaurent import QLaurent, lefschetz_decompose
from qcluster.quiver import from_btilde, mutate_qp, mutate_qp_sequence, mutation_step
from qcluster.seed import (cluster_monomial, f_polynomial, frame_monomial,
                           g_vector, mutate)
from qcluster.torus import SkewForm, is_positive

from .corpus import CORPUS_NAMES, all_sequences, corpus_data, corpus_qp, corpus_seed
from .oracles import (commutative_cluster_monomial, expand_t_power_quotient,
                      jacobi_dims, simple, specialize_v1)

MAX_LEN = 6


def _unit(m, i):
    return tuple(1 if t == i else 0 for t in range(m))


def _mutable_acyclic_at_either_end(name, ks):
    _, bt, n = corpus_data(name)
    q0 = from_btilde(bt, n)
    cur = bt
    from qcluster.seed import _matrix_mutation
    for k in ks:
        cur = _matrix_mutation(cur, len(bt), n, k)
    qr = from_btilde(cur, n)
    mutable = range(1, n + 1)
    return q0.subquiver_is_acyclic(mutable) or qr.subquiver_is_acyclic(mutable)


def _two_route_cases():
    """(name, ks, lam) triples for criteria 2, 3 and 7."""
    cases = []
    for name in CORPUS_NAMES:
        _, bt, n = corpus_data(name)
        m = len(bt)
        if name == "a2":
            seqs = all_sequences(2, 5)
        else:
            seqs = all_sequences(n, 2)
            extra = {"a2_principal": [(1, 2, 1)],
                     "kronecker_principal": [(1, 2, 1), (1, 2, 1, 2), (2, 1, 2, 1)],
                     "a3_principal": [(1, 2, 3), (2, 1, 3)],
                     "triangle_principal": [(1, 2, 3), (1, 2, 3, 1)]}[name]
            seqs = list(seqs) + extra
        lams = [_unit(m, 0), tuple([1] * m)]
        if m > n:
            lams.append(_unit(m, n))  # a pure coefficient direction
        for ks in seqs:
            for lam in lams:
                cases.append((name, tuple(ks), lam))
    return cases


@pytest.fixture(scope="module")
def route1_results():
    out = {}
    for name, ks, lam in _two_route_cases():
        out[(name, ks, lam)] = cluster_monomial(corpus_seed(name), ks, lam)
    return out


def test_criterion_1_laurent_phenomenon():
    """Thm 2.3: no NotDivisible over all sequences of length <= 6."""
    checked = 0
    for name in CORPUS_NAMES:
        seed = corpus_seed(name)
        m, n = seed.m, seed.n
        stack = [(seed, (), 0)]
        while stack:
            cur, ks, depth = stack.pop()
            lams = [_unit(m, 0)]
            if depth <= 4:
                lams.append(tuple([1] * m))
            for lam in lams:
                element = frame_monomial(cur, lam)
                g = g_vector(element, seed)
                f_polynomial(element, g, seed)
                checked += 1
            if depth < MAX_LEN:
                for k in range(1, n + 1):
                    if ks and ks[-1] == k:
                        continue
                    stack.append((mutate(cur, k), ks + (k,), depth + 1))
    print(f"ACCEPTANCE 1 (Laurent phenomenon, {checked} monomials over "
          f"{len(CORPUS_NAMES)} seeds, |ks| <= {MAX_LEN}): PASS")


def test_criterion_2_two_route_agreement(route1_results):
    """Thm 5.1/5.3: mutation route == conjugation route, exact equality."""
    agree = 0
    for (name, ks, lam), res in sorted(route1_results.items()):
        lam_m, bt, n = corpus_data(name)
        form = SkewForm(lam_m)
        qp = corpus_qp(name)
        h1 = h1_aggregate(mutate_qp_sequence(qp, ks), ks, lam)
        bound = tuple(d + 2 for d in h1.dims[:n])
        g = g_of_lambda(bt, ks, lam)
        assert tuple(g) == res.g_vector, (name, ks, lam)
        element = conjugate(form, bt, dt_factors(form, bt, ks, bound), g, bound)
        assert element == res.element, (name, ks, lam)
        agree += 1
        assert _mutable_acyclic_at_either_end(name, ks) or \
            name == "triangle_principal"
    print(f"ACCEPTANCE 2 (two-route agreement on {agree} corpus cases): PASS")


def test_criterion_3_positivity_and_lefschetz(route1_results):
    """Thm 2.6: positivity and Lefschetz property on acyclic-end cases."""
    checked = 0
    for (name, ks, lam), res in sorted(route1_results.items()):
        if not _mutable_acyclic_at_either_end(name, ks):
            continue
        assert is_positive(res.element), (name, ks, lam)
        for e, coeff in res.element.terms.items():
            dec = lefschetz_decompose(coeff)
            assert dec.ok, (name, ks, lam, e, dec.reason)
        checked += 1
    assert checked > 0
    print(f"ACCEPTANCE 3 (positivity + Lefschetz on {checked} cluster "
          f"monomials): PASS")


def test_criterion_4_pentagon():
    """A2 dilogarithm identity, exact to cone depth 12."""
    form = SkewForm([[0, -1], [1, 0]])
    bt = [[0, -1], [1, 0]]
    bound = (12, 12)
    cone = cone_form(form, bt)
    e1 = pochhammer(cone, bound, (1, 0), +1)
    e2 = pochhammer(cone, bound, (0, 1), +1)
    e12 = pochhammer(cone, bound, (1, 1), +1)
    assert factorization_check(e1 * e2, [e2, e12, e1])
    # mirrored orientation on the canonical A2 data
    form_m = SkewForm([[0, 1], [-1, 0]])
    bt_m = [[0, 1], [-1, 0]]
    cone_m = cone_form(form_m, bt_m)
    f1 = pochhammer(cone_m, bound, (1, 0), +1)
    f2 = pochhammer(cone_m, bound, (0, 1), +1)
    f12 = pochhammer(cone_m, bound, (1, 1), +1)
    assert factorization_check(f2 * f1, [f1, f12, f2])
    print("ACCEPTANCE 4 (pentagon identity, cone depth 12): PASS")


def test_criterion_5_pochhammer_series():
    """+ series coefficient at n = 2 equals T^2/((1-T)(1-T^2)) to 12 terms."""
    form = SkewForm([[0, 1], [-1, 0]])
    bt = [[0, 1], [-1, 0]]
    plus = pochhammer(cone_form(form, bt), (12, 12), (1, 0), +1)
    frac = plus.coeffs[(2, 0)]
    oracle = expand_t_power_quotient(2, [1, 2], 12)
    # clear the stored denominator against the truncated oracle series
    num = frac.num
    den = QLaurent({0: 1})
    for k, mult in frac.den.items():
        for _ in range(mult):
            den = den * QLaurent({0: 1, 2 * k: -1})
    series = QLaurent({2 * i: int(c) for i, c in enumerate(oracle) if c})
    diff = num + -(series * den)
    assert all(k >= 2 * 12 for k in diff.terms), "disagreement within 12 terms"
    print("ACCEPTANCE 5 (Pochhammer n=2 coefficient vs series oracle): PASS")


def test_criterion_6_section6_example():
    """Cyclic triangle, ks = (1,2,3,1): counts 3q+1, Serre 3T+1, weights (2,2)."""
    name = "triangle_principal"
    lam_m, bt, n = corpus_data(name)
    m = len(bt)
    ks = (1, 2, 3, 1)
    lam = (1, 1, 1, 0, 0, 0)
    res = cluster_monomial(corpus_seed(name), ks, lam)
    h1 = h1_aggregate(mutate_qp_sequence(corpus_qp(name), ks), ks, lam)
    to_qr = initial_class_map(bt, ks)
    delta_star = next(d for d in res.f_coefficients if to_qr(d) == (1, 1, 1))
    assert delta_star == (1, 1, 1)

    counts = {}
    for q in (2, 3, 5):
        counts[q] = gr_count(to_fq(h1, q), delta_star + (0,) * (m - n))
    assert counts == {2: 7, 3: 10, 5: 16}, counts          # 3q + 1
    serre = serre_interpolate(counts, 1)
    assert serre == QLaurent({0: 1, 1: 3})                  # 3T + 1
    assert serre.eval_at_one() == 4                         # Euler characteristic

    coeff = res.f_coefficients[delta_star]
    assert len(coeff.terms) == 2                            # two-term
    assert sorted(coeff.terms.values()) == [2, 2]           # weight pattern (2, 2)
    assert coeff.eval_at_one() == 4                         # total mass 4
    assert purity_pattern(coeff)                            # even exponents, >= 0
    exps = sorted(coeff.terms)
    assert exps[1] - exps[0] == 2                           # adjacent Tate weights
    print("ACCEPTANCE 6 (section-6 triangle example: 3q+1 counts, 3T+1 Serre, "
          "(2,2) weight pattern of mass 4): PASS")


def test_criterion_7_q_to_1_oracle(route1_results):
    """v = 1 specialization equals the independent commutative computation."""
    checked = 0
    for (name, ks, lam), res in sorted(route1_results.items()):
        _, bt, _ = corpus_data(name)
        oracle = commutative_cluster_monomial(bt, ks, lam)
        assert specialize_v1(res.element) == oracle, (name, ks, lam)
        checked += 1
    print(f"ACCEPTANCE 7 (q->1 commutative oracle on {checked} cases): PASS")


def test_criterion_8_involutions():
    """mu_k mu_k = id for seeds (exact), QPs (observables), DecReps (dims)."""
    for name in CORPUS_NAMES:
        seed = corpus_seed(name)
        for k in range(1, seed.n + 1):
            assert mutate(mutate(seed, k), k) == seed, (name, k)
        qp = corpus_qp(name)
        for k in range(1, seed.n + 1):
            one = mutate_qp(qp, k)
            two = mutate_qp(one, k)
            assert two.quiver == qp.quiver, (name, k)
            assert jacobi_dims(two, 8) == jacobi_dims(qp, 8), (name, k)
        reps = [negative_simple(qp, j) for j in range(1, qp.quiver.m + 1)]
        reps += [simple(qp, j) for j in range(1, seed.n + 1)]
        for rep in reps:
            for k in range(1, seed.n + 1):
                once = mutate_rep(rep, mutation_step(rep.qp, k))
                twice = mutate_rep(once, mutation_step(once.qp, k))
                assert twice.dims == rep.dims and twice.vdims == rep.vdims
    print("ACCEPTANCE 8 (mutation involutions: seeds exact, QPs via quiver + "
          "jacobi dims at cap 8, DecReps via (dims, vdims)): PASS")


def test_criterion_9_sign_sequence_sanity():
    """Thm 4.7: epsilon_1 = + always; SignAmbiguous never fires."""
    checked = 0
    for name in CORPUS_NAMES:
        _, bt, n = corpus_data(name)
        for ks in all_sequences(n, MAX_LEN):
            try:
                res = sign_sequence(bt, ks)
            except SignAmbiguous as exc:
                pytest.fail(f"SignAmbiguous on {name} {ks}: {exc}")
            if ks:
                assert res.signs[0] == "+", (name, ks)
            checked += 1
    print(f"ACCEPTANCE 9 (sign sequences: epsilon_1 = + on {checked} corpus "
          f"sequences, no ambiguity): PASS")
