import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import dtseries
from qcluster.dtseries import (TAIL_MARGIN, ConeSeries, conjugate, dt_factors,
                               dt_product_pair, factorization_check, g_of_lambda,
                               initial_class_map, pochhammer, sign_sequence)
from qcluster.errors import DimensionMismatch, TailNotVanishing
from qcluster.qlaurent import PochhammerFraction, QLaurent
from qcluster.seed import cluster_monomial
from qcluster.torus import SkewForm, TorusElement

from .corpus import CORPUS_NAMES, all_sequences, corpus_data, corpus_seed
from .oracles import (CommutationMismatch, cone_mul_by_division, cone_mul_pairwise,
                      expand_t_power_quotient, fraction_is_laurent, fractions_equal,
                      framed_extract, lemma52_step)

L2 = SkewForm([[0, 1], [-1, 0]])
B2 = [[0, 1], [-1, 0]]


def test_sign_sequence_examples():
    res = sign_sequence(B2, ())
    assert res.signs == () and res.s_classes == ()
    res = sign_sequence(B2, (2,))
    assert res.signs == ("+",) and res.s_classes == ((0, 1),)
    res = sign_sequence(B2, (1, 2, 1))
    assert res.signs == ("+", "+", "+")
    assert res.s_classes == ((1, 0), (1, 1), (0, 1))
    res = sign_sequence(B2, (1, 2, 1, 2, 1))
    assert res.signs == ("+", "+", "+", "-", "-")


def test_sign_sequence_first_sign_plus_everywhere():
    for name in ("a2", "a3_principal", "triangle_principal"):
        _, bt, n = corpus_data(name)
        for ks in all_sequences(n, 4):
            if not ks:
                continue
            res = sign_sequence(bt, ks)
            assert res.signs[0] == "+"
            assert res.s_classes[0] == tuple(1 if i == ks[0] - 1 else 0
                                             for i in range(n))


def test_pochhammer_constant_term_and_inverse():
    bound = (8, 8)
    plus = pochhammer(L2, B2, bound, (1, 0), +1)
    minus = pochhammer(L2, B2, bound, (1, 0), -1)
    z = (0, 0)
    assert plus.coeffs[z].as_laurent().is_one()
    assert minus.coeffs[z].as_laurent().is_one()
    assert factorization_check(ConeSeries.unit(L2, B2, bound), [plus, minus])


def test_pochhammer_n2_coefficient_against_series_oracle():
    # coefficient of w_{2 cls} in the + series is T^2/((1-T)(1-T^2))
    plus = pochhammer(L2, B2, (12, 12), (1, 0), +1)
    frac = plus.coeffs[(2, 0)]
    oracle = expand_t_power_quotient(2, [1, 2], 12)
    # multiply oracle series by the stored denominator and compare numerators
    num = QLaurent({2 * k: int(c) for k, c in enumerate(oracle) if c})
    den_factors = [QLaurent({0: 1, 2: -1}), QLaurent({0: 1, 4: -1})]
    target = PochhammerFraction(QLaurent({4: 1}), {1: 1, 2: 1})
    assert frac == target
    # and the truncated expansion itself matches the oracle term by term
    prod = num
    for f in den_factors:
        prod = prod * f
    diff = prod + QLaurent({4: -1})
    assert all(k >= 2 * 12 for k in diff.terms)  # agreement to 12 series terms


def test_dt_product_single_and_empty():
    bound = (6, 6)
    unit = ConeSeries.unit(L2, B2, bound)
    assert dt_product_pair(L2, B2, (), bound)[0] == unit
    single = dt_product_pair(L2, B2, (1,), bound)[0]
    assert single == pochhammer(L2, B2, bound, (1, 0), +1)
    fwd, inv = dt_product_pair(L2, B2, (1, 2), bound)
    assert fwd * inv == unit


def test_conjugate_identity_series():
    bound = (4, 4)
    one = ConeSeries.unit(L2, B2, bound)
    out = conjugate(L2, B2, [(one, one)], (2, -1), bound)
    assert out == TorusElement.monomial(L2, (2, -1))


def test_conjugate_a2_matches_mutation():
    s0 = corpus_seed("a2")
    r = cluster_monomial(s0, (1,), (1, 0))
    bound = (3, 3)
    factors = dt_factors(L2, B2, (1,), bound)
    out = conjugate(L2, B2, factors, g_of_lambda(B2, (1,), (1, 0)), bound)
    assert out == r.element


def test_conjugate_tail_not_vanishing_on_tiny_bound():
    with pytest.raises(TailNotVanishing) as exc:
        one = ConeSeries.unit(L2, B2, (0, 0))
        conjugate(L2, B2, [(one, one)], (1, 0), (0, 0))
    assert exc.value.suggested_bound is not None


def test_conjugate_rejects_a_coefficient_that_kept_a_series_denominator():
    """A factor whose only coefficient is 1/(1 - T) leaves that denominator
    on X^g: the result would not be a Laurent polynomial."""
    bound = (TAIL_MARGIN + 2,) * 2
    series = ConeSeries(L2, B2, bound,
                        coeffs={(0, 0): PochhammerFraction(QLaurent.monomial(0), {1: 1})})
    with pytest.raises(TailNotVanishing) as exc:
        conjugate(L2, B2, [(series, ConeSeries.unit(L2, B2, bound))], (1, 0), bound)
    assert str(exc.value) == "coefficient at (0, 0) kept a series denominator"
    assert exc.value.suggested_bound == (2 * TAIL_MARGIN + 2,) * 2


def test_lemma52_examples():
    # single monomial y with x y = q y x  ->  y (1 + q^{1/2} x)
    y = TorusElement.monomial(L2, (0, 1))
    # embedded x = X^{B~ e1} = X^{(0,-1)}: Lambda((0,-1),(0,1)) = ?
    eps = L2.pair((0, -1), (0, 1))
    assert eps == 0
    with pytest.raises(CommutationMismatch):
        lemma52_step(L2, B2, (1, 0), y, 1)
    y2 = TorusElement.monomial(L2, (-1, 1))
    eps = L2.pair((0, -1), (-1, 1))
    assert eps == -1
    out = lemma52_step(L2, B2, (1, 0), y2, -1)
    assert out == TorusElement(L2, {(-1, 1): QLaurent.one(),
                                    (-1, 0): QLaurent.one()})
    with pytest.raises(CommutationMismatch):
        lemma52_step(L2, B2, (1, 0), y2, 1)


def test_lemma52_agrees_with_conjugate():
    bound = (4, 4)
    factors = dt_factors(L2, B2, (1,), bound)
    y = TorusElement.monomial(L2, (-1, 1))
    fast = lemma52_step(L2, B2, (1, 0), y, -1)
    slow = conjugate(L2, B2, factors, (-1, 1), bound)
    assert fast == slow


def test_lemma52_plus_exponent_against_minus_factor():
    # E^{-1} y E = y (1 + q^{1/2} x) for x y = q y x: conjugating by the
    # minus-sign factor realizes the lemma at eps = +1
    bound = (4, 4)
    y_exp = (1, 0)
    assert L2.pair((0, -1), y_exp) == 1
    y = TorusElement.monomial(L2, y_exp)
    fast = lemma52_step(L2, B2, (1, 0), y, +1)
    minus = pochhammer(L2, B2, bound, (1, 0), -1)
    plus = pochhammer(L2, B2, bound, (1, 0), +1)
    slow = conjugate(L2, B2, [(minus, plus)], y_exp, bound)
    assert fast == slow
    assert fast == y + y * TorusElement.monomial(L2, (0, -1), QLaurent.monomial(1))


def test_lemma52_oracle_agrees_with_conjugate_on_the_corpus():
    """Every corpus form and unit class x, and a seeded sample of each sign
    eps = Lambda(B~ x, y) = +-1 over y in {-1, 0, 1}^m: Lemma 5.2's closed
    form equals conjugating X^y by (E_+, E_-) at eps = -1 and by (E_-, E_+)
    at eps = +1.  The whole sweep is 3144 cases."""
    rng = random.Random(52)
    checked = 0
    for name in CORPUS_NAMES:
        lam, bt, n = corpus_data(name)
        form, m = SkewForm(lam), len(bt)
        bound = (TAIL_MARGIN + 2,) * n
        for i in range(n):
            x = tuple(int(t == i) for t in range(n))
            bx = tuple(row[i] for row in bt)
            plus = pochhammer(form, bt, bound, x, +1)
            minus = pochhammer(form, bt, bound, x, -1)
            by_eps = {1: [], -1: []}
            for y in itertools.product((-1, 0, 1), repeat=m):
                by_eps.get(form.pair(bx, y), []).append(y)
            for eps, factors in ((-1, [(plus, minus)]), (1, [(minus, plus)])):
                ys = by_eps[eps]
                assert ys, (name, x, eps)
                for y in rng.sample(ys, min(len(ys), 12)):
                    fast = lemma52_step(form, bt, x, TorusElement.monomial(form, y), eps)
                    assert fast == conjugate(form, bt, factors, y, bound), (name, x, y)
                    checked += 1
    assert checked > 200


def test_framed_extract_trivial_cases():
    bound = (4, 4)
    one = ConeSeries.unit(L2, B2, bound)
    assert framed_extract(one, (1, 0), bound, one) == one
    series, inv = dt_product_pair(L2, B2, (1,), bound)
    assert framed_extract(series, (0, 0), bound, inv) == one


def test_framed_extract_matches_f_polynomial():
    s0 = corpus_seed("a2")
    r = cluster_monomial(s0, (1,), (1, 0))
    bound = (4, 4)
    series, inv = dt_product_pair(L2, B2, (1,), bound)
    sfr = framed_extract(series, (1, 0), bound, inv)
    for gamma, coeff in r.f_coefficients.items():
        assert sfr.coeffs[gamma].as_laurent() == coeff
    for gamma, c in sfr.coeffs.items():
        if gamma not in r.f_coefficients:
            assert c.is_zero()


def test_framed_extract_coefficients_land_in_z_t():
    # Thm 5.3's (5.5): after normalization the classes live in Z[T^{+-1}]
    s0 = corpus_seed("a2")
    from qcluster.quiver import euler_form, from_btilde, mutate_qp, Potential, QPData
    bound = (5, 5)
    for ks, lam in [((1,), (1, 0)), ((1, 2), (0, 1)), ((1, 2, 1), (1, 0))]:
        series, inv = dt_product_pair(L2, B2, ks, bound)
        sfr = framed_extract(series, lam, bound, inv)
        to_qr = initial_class_map(B2, ks)
        qp = QPData(from_btilde(B2, 2), Potential(12))
        for k in ks:
            qp = mutate_qp(qp, k)
        for gamma, c in sfr.coeffs.items():
            if c.is_zero():
                continue
            qr = to_qr(gamma)
            chi = euler_form(qp.quiver, qr, qr)
            cls = c.as_laurent().shift(chi)
            assert all(k % 2 == 0 for k in cls.terms)


def test_factorization_pentagon():
    # arrow 1->2 orientation satisfies the identity as literally stated
    form = SkewForm([[0, -1], [1, 0]])
    bt = [[0, -1], [1, 0]]
    bound = (7, 7)
    e1 = pochhammer(form, bt, bound, (1, 0), +1)
    e2 = pochhammer(form, bt, bound, (0, 1), +1)
    e12 = pochhammer(form, bt, bound, (1, 1), +1)
    assert factorization_check(e1 * e2, [e2, e12, e1])
    # wrong grouping must fail
    assert not factorization_check(e2 * e1, [e2, e12, e1])


def test_factorization_trivial_and_commuting():
    bound = (5, 5)
    e1 = pochhammer(L2, B2, bound, (1, 0), +1)
    assert factorization_check(e1, [e1, ConeSeries.unit(L2, B2, bound)])
    zero_form = SkewForm([[0, 0], [0, 0]])
    ident = [[1, 0], [0, 1]]
    g1 = pochhammer(zero_form, ident, bound, (1, 0), +1)
    g2 = pochhammer(zero_form, ident, bound, (0, 1), +1)
    assert factorization_check(g1 * g2, [g2, g1])


def test_dt_path_independence_when_c_matrices_agree():
    # sequences with the same final extended matrix give the same series
    _, bt, n = corpus_data("a2")
    seqs = {}
    for ks in all_sequences(n, 6):
        res = sign_sequence(bt, ks)
        key = (res.b_trace[-1], res.c_matrix_trace[-1] if ks else None)
        seqs.setdefault(key, []).append(ks)
    bound = (5, 5)
    checked = 0
    for key, group in seqs.items():
        if len(group) < 2:
            continue
        base = dt_product_pair(L2, B2, group[0], bound)[0]
        for other in group[1:]:
            assert dt_product_pair(L2, B2, other, bound)[0] == base
            checked += 1
    assert checked > 0


def test_sign_classes_match_backward_mutation_on_a2():
    # torsion membership on small modules: mutating the simple S_{k_i} of
    # qp_{i-1} back to qp_0 realizes the tracked class as module dims (+)
    # or as pure decoration (-)
    from qcluster.decorated import mutate_rep
    from qcluster.quiver import mutate_qp, mutation_step
    from .corpus import corpus_qp
    from .oracles import simple
    qp0 = corpus_qp("a2")
    for ks in [(1, 2, 1), (1, 2, 1, 2), (1, 2, 1, 2, 1)]:
        res = sign_sequence(B2, ks)
        qps = [qp0]
        for k in ks:
            qps.append(mutate_qp(qps[-1], k))
        for i, k in enumerate(ks):
            rep = simple(qps[i], k)
            for back in reversed(ks[:i]):
                rep = mutate_rep(rep, mutation_step(rep.qp, back))
            if res.signs[i] == "+":
                assert rep.dims == res.s_classes[i] and not any(rep.vdims)
            else:
                assert rep.vdims == res.s_classes[i] and not any(rep.dims)


def test_sign_ambiguous_unreachable_on_corpus():
    for name in ("a2", "kronecker_principal", "a3_principal"):
        _, bt, n = corpus_data(name)
        for ks in all_sequences(n, 5):
            sign_sequence(bt, ks)  # must not raise SignAmbiguous


@st.composite
def cone_pairs(draw):
    """Two rank-2 ConeSeries in one completion: a random skew form on Z^m,
    a random m x 2 btilde and bound <= 3, random bases, and coefficients
    whose numerators carry some of their (1 - T^k) factors, so some cancel."""
    m = draw(st.integers(2, 4))
    small = st.integers(-2, 2)
    upper = {(i, j): draw(small) for i in range(m) for j in range(i + 1, m)}
    form = SkewForm([[upper[i, j] if i < j else -upper[j, i] if j < i else 0
                      for j in range(m)] for i in range(m)])
    btilde = [[draw(small) for _ in range(2)] for _ in range(m)]
    bound = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    degrees = st.tuples(st.integers(0, bound[0]), st.integers(0, bound[1]))
    nums = st.dictionaries(st.integers(-4, 4), st.integers(-2, 2),
                           min_size=1, max_size=3).map(QLaurent)
    dens = st.dictionaries(st.integers(1, 3), st.integers(0, 2), max_size=2)

    def coefficient():
        num, den = draw(nums), draw(dens)
        for k, mult in den.items():
            for _ in range(draw(st.integers(0, mult))):
                num = num * QLaurent({0: 1, 2 * k: -1})
        return PochhammerFraction(num, den)

    def series():
        base = tuple(draw(small) for _ in range(m))
        keys = draw(st.lists(degrees, max_size=5, unique=True))
        return ConeSeries(form, btilde, bound, base, {g: coefficient() for g in keys})

    return series(), series()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cone_pairs())
def test_cone_mul_matches_pairwise_products(pair):
    a, b = pair
    got = (a * b).coeffs
    want = cone_mul_pairwise(a, b)
    assert set(got) == set(want)
    for g, (num, den) in want.items():
        assert fractions_equal(got[g].num.terms, got[g].den, num, den)
        assert got[g].is_laurent() == fraction_is_laurent(num, den)
    # and each output holds exactly the (num, den) the division oracle cancels to
    assert ({g: (c.num.terms, c.den) for g, c in got.items()}
            == {g: (num.terms, den) for g, (num, den) in cone_mul_by_division(a, b).items()})


def test_series_equality_reads_every_coefficient_the_base_and_the_degrees():
    """ConeSeries == sums self - other in one product_sums call over the
    union of the degrees: one differing coefficient, the base or a nonzero
    term at a degree of one side only makes it False, and a zero
    coefficient at a degree of one side only does not."""
    bound = (4, 4)
    a = pochhammer(L2, B2, bound, (1, 1), +1) * pochhammer(L2, B2, bound, (1, 0), -1)
    assert a == ConeSeries(L2, B2, bound, a.base, dict(a.coeffs))
    g = max(a.coeffs)
    extra = (0, 1)                      # every degree of a has g_1 >= g_2
    assert extra not in a.coeffs
    changed = dict(a.coeffs)
    changed[g] = changed[g] + PochhammerFraction(QLaurent.one())
    dropped = {h: c for h, c in a.coeffs.items() if h != g}
    for other in (ConeSeries(L2, B2, bound, a.base, changed),
                  ConeSeries(L2, B2, bound, (1, 0), dict(a.coeffs)),
                  ConeSeries(L2, B2, bound, a.base, {**a.coeffs, extra: a.coeffs[g]}),
                  ConeSeries(L2, B2, bound, a.base, dropped)):
        assert a != other and other != a
    padded = ConeSeries(L2, B2, bound, a.base, dict(a.coeffs))
    padded.coeffs[extra] = PochhammerFraction.of(QLaurent(), {1: 1})
    assert a == padded and padded == a


def test_series_equality_sums_only_the_degrees_written_differently(monkeypatch):
    """(1 + T)/(1 - T^2) and 1/(1 - T) are one value in two forms: the
    degree holding them is summed and is zero.  A degree whose two
    coefficients have the same (num, den) passes no part to product_sums."""
    parts = []
    original = dtseries.product_sums

    def counted(outputs):
        parts.extend(p for ps in outputs.values() for p in ps)
        return original(outputs)

    monkeypatch.setattr(dtseries, "product_sums", counted)
    bound = (3, 3)
    two_forms = PochhammerFraction(QLaurent({0: 1, 2: 1}), {2: 1})
    one_form = PochhammerFraction(QLaurent.one(), {1: 1})
    assert (two_forms.num, two_forms.den) != (one_form.num, one_form.den)
    shared = {(0, 0): PochhammerFraction(QLaurent.one()), (2, 1): one_form}
    a = ConeSeries(L2, B2, bound, None, {**shared, (1, 0): two_forms})
    b = ConeSeries(L2, B2, bound, None, {**shared, (1, 0): one_form})
    assert a == b and b == a
    assert len(parts) == 4                   # two parts per comparison, at (1, 0)
    series = pochhammer(L2, B2, bound, (1, 1), +1) * pochhammer(L2, B2, bound, (1, 0), -1)
    parts.clear()
    assert series == ConeSeries(L2, B2, bound, series.base, dict(series.coeffs))
    assert series == series and not parts


def test_factorization_check_edge_cases():
    bound = (4, 4)
    unit = ConeSeries.unit(L2, B2, bound)
    e1 = pochhammer(L2, B2, bound, (1, 0), +1)
    e2 = pochhammer(L2, B2, bound, (0, 1), +1)
    assert factorization_check(unit, [])
    assert not factorization_check(e1, [])
    assert factorization_check(e1, [e1]) and factorization_check(e1, iter([e1]))
    assert not factorization_check(e1, [e2])
    other_bound = pochhammer(L2, B2, (4, 5), (1, 0), +1)
    other_btilde = pochhammer(L2, [[0, 2], [-1, 0]], bound, (1, 0), +1)
    for other in (other_bound, other_btilde):
        for rhs in ([other], [e1, other], [other, e1]):
            with pytest.raises(DimensionMismatch):
                factorization_check(e1, rhs)
