import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcluster.errors import DimensionMismatch, NotDivisible
from qcluster.qlaurent import QLaurent, pack_width
from qcluster.seed import mutate_sequence
from qcluster.torus import (SkewForm, TorusElement, _l1, exact_right_divide,
                            first_noncommuting, is_positive, power_product)

from .corpus import corpus_seed
from .oracles import (cadd, cmul, specialize_v1, torus_divide_longhand,
                      torus_mul_pairwise)

L2 = SkewForm([[0, 1], [-1, 0]])
E1 = TorusElement.basis(L2, 1)
E2 = TorusElement.basis(L2, 2)
L1 = SkewForm([[0]])
X1 = TorusElement.basis(L1, 1)
ONE1 = TorusElement.monomial(L1, (0,))

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

# The strategies are built once here: building them inside every draw took
# most of these tests' time.
ENTRIES = st.integers(-2, 2)
EXPONENTS = {m: st.tuples(*[st.integers(-1, 1)] * m) for m in range(1, 5)}
MONOMIALS = st.builds(QLaurent.monomial, st.integers(-1, 1), st.sampled_from([-1, 1]))
# Few terms on exponents in {-1, 0, 1}^m with +-1, +-2 coefficients, so that
# products often cancel.
TERMS = {(m, size): st.dictionaries(
    EXPONENTS[m], st.dictionaries(st.integers(-2, 2), st.sampled_from([-2, -1, 1, 2]),
                                  min_size=1, max_size=2).map(QLaurent), max_size=size)
    for m in range(1, 5) for size in (2, 4)}


def skew_form(draw):
    m = draw(st.integers(1, 4))
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = draw(ENTRIES)
            rows[j][i] = -rows[i][j]
    return SkewForm(rows)


def element(draw, form, max_terms=4):
    return TorusElement(form, draw(TERMS[form.dim, max_terms]))


@st.composite
def element_pairs(draw):
    """(a, b) over a random form with m <= 4.  Half the time a * b is made to
    cancel: a gets terms s1 v^j1 X^e1 and s2 v^j2 X^e2, b gets c X^f and the
    term -(s1 s2 c) v^(j1 - j2 + Lambda(e1, f) - Lambda(e2, f2)) X^f2 with
    f2 = e1 + f - e2, whose pairs with them land on X^(e1 + f) with opposite
    coefficients."""
    form = skew_form(draw)
    a, b = element(draw, form), element(draw, form)
    if not draw(st.booleans()):
        return a, b
    e1, e2 = draw(st.lists(EXPONENTS[form.dim], min_size=2, max_size=2, unique=True))
    c1, c2, c = draw(MONOMIALS), draw(MONOMIALS), draw(MONOMIALS)
    f = draw(EXPONENTS[form.dim])
    f2 = tuple(x + y - z for x, y, z in zip(e1, f, e2))
    (j1, s1), = c1.terms.items()
    (j2, s2), = c2.terms.items()
    shift = j1 - j2 + form.pair(e1, f) - form.pair(e2, f2)
    a = a + TorusElement(form, {e1: c1}) + TorusElement(form, {e2: c2})
    b = b + TorusElement(form, {f: c}) + TorusElement(form, {f2: (c * (-s1 * s2)).shift(shift)})
    return a, b


def no_zero_coefficients(a):
    return all(not c.is_zero() for c in a.terms.values())


def test_skew_form_validation():
    with pytest.raises(ValueError):
        SkewForm([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        SkewForm([[1, 0], [0, 0]])


def test_monomial_rule():
    # X^{e1} X^{e2} = v X^{e1+e2},  X^{e2} X^{e1} = v^{-1} X^{e1+e2}
    assert (E1 * E2).terms == {(1, 1): QLaurent({1: 1})}
    assert (E2 * E1).terms == {(1, 1): QLaurent({-1: 1})}
    # identity
    one = TorusElement.monomial(L2, (0, 0))
    assert E1 * one == E1
    # q-commutation: X^e X^f = q^{Lambda(e,f)} X^f X^e
    assert E1 * E2 == (E2 * E1).scale(QLaurent.monomial(2))


def test_square_of_sum():
    s = E1 + E2
    sq = s * s
    assert sq.terms == {(2, 0): QLaurent({0: 1}),
                        (1, 1): QLaurent({1: 1, -1: 1}),
                        (0, 2): QLaurent({0: 1})}


def test_add_examples():
    zero = TorusElement(L2)
    assert E1 + zero == E1
    assert (E1 + E1.scale(-1)).is_zero()
    assert (E1 + E1).terms == {(1, 0): QLaurent({0: 2})}
    with pytest.raises(DimensionMismatch):
        E1 + TorusElement.basis(SkewForm([[0]]), 1)


def test_divide_examples():
    # (v X^{e1+e2}) / X^{e2} = X^{e1}
    num = TorusElement.monomial(L2, (1, 1), QLaurent({1: 1}))
    assert exact_right_divide(num, E2) == E1
    s = E1 + E2
    assert exact_right_divide(s * s, s) == s
    with pytest.raises(NotDivisible):
        exact_right_divide(E1, s)


def test_divide_reports_remainder():
    s = E1 + E2
    try:
        exact_right_divide(E1, s)
    except NotDivisible as exc:
        assert exc.remainder is not None and not exc.remainder.is_zero()


def rand_element(rng, form, nterms=3, span=2):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(-span, span + 1) for _ in range(form.dim))
        terms[e] = QLaurent({rng.randrange(-2, 3): rng.randrange(-4, 5)})
    return TorusElement(form, terms)


def test_associativity_random():
    rng = random.Random(3)
    form = SkewForm([[0, 2, -1], [-2, 0, 3], [1, -3, 0]])
    for _ in range(60):
        a, b, c = (rand_element(rng, form) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_commutation_law_random():
    rng = random.Random(5)
    for _ in range(100):
        e = tuple(rng.randrange(-3, 4) for _ in range(2))
        f = tuple(rng.randrange(-3, 4) for _ in range(2))
        xe, xf = TorusElement.monomial(L2, e), TorusElement.monomial(L2, f)
        lam = L2.pair(e, f)
        assert xe * xf == (xf * xe).scale(QLaurent.monomial(2 * lam))


def test_division_roundtrip_random():
    rng = random.Random(9)
    form = SkewForm([[0, 1], [-1, 0]])
    for _ in range(80):
        a = rand_element(rng, form)
        d = rand_element(rng, form, nterms=2)
        if d.is_zero():
            continue
        assert exact_right_divide(a * d, d) == a


def test_specialize_v1_ring_hom():
    # setting v = 1 is a homomorphism onto commutative Laurent polynomials
    rng = random.Random(13)
    form = SkewForm([[0, 3], [-3, 0]])
    for _ in range(60):
        a = rand_element(rng, form)
        b = rand_element(rng, form)
        assert specialize_v1(a * b) == cmul(specialize_v1(a), specialize_v1(b))
        assert specialize_v1(a + b) == cadd(specialize_v1(a), specialize_v1(b))


def test_is_positive():
    assert is_positive(E1 + E2.scale(QLaurent.monomial(1)))
    assert not is_positive(E1 - E2)
    assert is_positive(E1.scale(QLaurent({1: 1, -1: 1})))


def test_render_canonical():
    el = TorusElement(L2, {(-1, 1): QLaurent.one(), (-1, 0): QLaurent.one()})
    assert el.render() == "X[-1,0] + X[-1,1]"
    el2 = TorusElement(L2, {(0, 0): QLaurent({-1: 1, 1: 1})})
    assert el2.render() == "(q^(-1/2) + q^(1/2))*X[0,0]"


@PROPERTY
@given(element_pairs())
@example((ONE1 + X1, ONE1 - X1))      # (1 + X)(1 - X): the X terms cancel
def test_mul_matches_pairwise_oracle(pair):
    a, b = pair
    got = a * b
    assert got == torus_mul_pairwise(a, b)
    assert no_zero_coefficients(got)


# One-term divisors: units +-v^a, which divide every numerator in one pass,
# and non-units 2 and 1 + v, which go through the long-division loop.
ONE_TERM = st.one_of(MONOMIALS, st.sampled_from([QLaurent({0: 2}), QLaurent({0: 1, 1: 1})]))


@st.composite
def divisions(draw):
    """(n, d, a) with d nonzero and n = a d, or n = a d + r and a = None.
    d is a random element, or one term c X^f with c a unit or not."""
    a, d = draw(element_pairs())
    if draw(st.booleans()):
        d = TorusElement.monomial(d.form, draw(EXPONENTS[d.form.dim]), draw(ONE_TERM))
    elif d.is_zero():
        d = TorusElement.monomial(d.form, (0,) * d.form.dim)
    n = torus_mul_pairwise(a, d)
    if draw(st.booleans()):
        return n, d, a
    return n + element(draw, d.form, max_terms=2), d, None


ZERO2 = TorusElement(L2)
MINUS_V3 = TorusElement.monomial(L2, (1, -1), QLaurent({3: -1}))


@PROPERTY
@given(divisions())
@example((ZERO2, MINUS_V3, ZERO2))                                   # 0 over a unit
@example((torus_mul_pairwise(E1 + E2, MINUS_V3), MINUS_V3, E1 + E2))  # -v^3 X^(1,-1)
def test_divide_matches_longhand_oracle(case):
    n, d, a = case
    if a is not None:
        assert exact_right_divide(n, d) == a
    try:
        want = torus_divide_longhand(n, d)
    except NotDivisible as exc:
        with pytest.raises(NotDivisible) as got:
            exact_right_divide(n, d)
        assert str(got.value) == str(exc)
        assert got.value.remainder == exc.remainder
        assert no_zero_coefficients(got.value.remainder)
    else:
        got = exact_right_divide(n, d)
        assert got == want
        assert no_zero_coefficients(got)


@st.composite
def commutation_cases(draw):
    """(a, b, k): a random pair and k (seldom q-commuting); a and a scaled
    a * a with k = 0; or the two cluster variables of a rank-2 seed after
    mutating at both, with k = 2 Lambda_M(1, 2) (both q-commuting), or that
    k plus 2 (not)."""
    kind = draw(st.sampled_from(["random", "power", "seed"]))
    if kind == "random":
        a, b = draw(element_pairs())
        return a, b, draw(st.integers(-4, 4))
    if kind == "power":
        a, _ = draw(element_pairs())
        b = torus_mul_pairwise(a, a).scale(QLaurent.monomial(draw(st.integers(-2, 2))))
        return a, b, 0
    s = corpus_seed(draw(st.sampled_from(["a2_principal", "kronecker_principal"])))
    s = mutate_sequence(s, draw(st.sampled_from([(1, 2), (2, 1), (1, 2, 1)])))
    return s.vars[0], s.vars[1], 2 * s.lam.entries[0][1] + draw(st.sampled_from([0, 2]))


@PROPERTY
@given(commutation_cases())
def test_q_commute_matches_products(case):
    a, b, k = case
    want = torus_mul_pairwise(a, b) == torus_mul_pairwise(b, a).scale(QLaurent.monomial(k))
    assert (first_noncommuting([a, b], [[0, k], [-k, 0]]) is None) == want


# Wide coefficients: up to +-2^64 on v-degrees -6..6, plus fixed coefficients
# whose neighbouring digits change sign (such as -1 + v), so a slot width
# or a borrow that is off shows in the balanced digits.
WIDE_INTS = st.one_of(st.integers(-2**64, 2**64), st.sampled_from([-1, 1, -2**64, 2**64]))
MIXED_SIGNS = st.sampled_from([
    QLaurent({0: -1, 1: 1}), QLaurent({0: 1, 1: -1}), QLaurent({-1: -1, 0: 1, 1: -1}),
    QLaurent({-6: 1, -5: -1, 5: 1, 6: -1}), QLaurent({0: 2**64, 1: -2**64, 2: 1})])
WIDE_COEFFS = st.one_of(
    st.dictionaries(st.integers(-6, 6), WIDE_INTS, min_size=1, max_size=4).map(QLaurent),
    MIXED_SIGNS)
WIDE_TERMS = {m: st.dictionaries(EXPONENTS[m], WIDE_COEFFS, max_size=3) for m in range(1, 5)}


@st.composite
def wide_pairs(draw):
    form = skew_form(draw)
    return (TorusElement(form, draw(WIDE_TERMS[form.dim])),
            TorusElement(form, draw(WIDE_TERMS[form.dim])))


WIDE_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@WIDE_PROPERTY
@given(wide_pairs())
@example((ONE1.scale(QLaurent({0: -1, 1: 1})), ONE1 + X1.scale(QLaurent({0: 1, 1: -1}))))
def test_wide_mul_matches_pairwise_oracle(pair):
    a, b = pair
    got = a * b
    assert got == torus_mul_pairwise(a, b)
    assert no_zero_coefficients(got)


@WIDE_PROPERTY
@given(wide_pairs(), st.integers(-4, 4), st.booleans())
def test_wide_q_commute_matches_products(pair, k, power):
    a, b = pair
    if power:       # a commutes with a scaled a * a at k = 0
        b, k = torus_mul_pairwise(a, a).scale(QLaurent.monomial(k)), 0
    want = torus_mul_pairwise(a, b) == torus_mul_pairwise(b, a).scale(QLaurent.monomial(k))
    assert (first_noncommuting([a, b], [[0, k], [-k, 0]]) is None) == want
    if power:
        assert want


@WIDE_PROPERTY
@given(wide_pairs(), st.booleans())
def test_wide_divide_matches_longhand_oracle(pair, exact):
    a, d = pair
    if d.is_zero():
        d = TorusElement.monomial(d.form, (0,) * d.form.dim)
    n = torus_mul_pairwise(a, d)
    if exact:
        assert exact_right_divide(n, d) == a
        return
    n = n + a
    try:
        want = torus_divide_longhand(n, d)
    except NotDivisible as exc:
        with pytest.raises(NotDivisible) as got:
            exact_right_divide(n, d)
        assert str(got.value) == str(exc)
        assert got.value.remainder == exc.remainder
    else:
        assert exact_right_divide(n, d) == want


def _check_widening(n, d):
    a = torus_divide_longhand(n, d)
    first = pack_width(2 * _l1(n) * _l1(d))
    assert max(abs(z) for co in a.terms.values() for z in co.terms.values()) >= 2**(first - 1)
    assert exact_right_divide(n, d) == a
    assert torus_mul_pairwise(a, d) == n


def test_divide_widens_when_the_quotient_outgrows_the_remainder():
    # (1 - X^40)^3 / (1 - X)^3 = (1 + X + ... + X^39)^3: L1(n) = L1(d) = 8 L1(c)
    # set the first width, and the quotient's coefficients (up to 1200 c),
    # hence the remainder's digits next to them, outgrow it.  d's leading
    # coefficient is -1, a unit.
    c = QLaurent({0: 2**64, 1: -1})
    d = (ONE1 - X1) * (ONE1 - X1) * (ONE1 - X1)
    top = ONE1 - TorusElement.monomial(L1, (40,))
    _check_widening((top * top * top).scale(c), d)


def test_divide_widens_under_a_leading_coefficient_that_is_no_unit():
    # As above with n and d scaled by u = 1 + v^2, so every step runs
    # divide_exact: L1(u) = 2 raises the first width, and X^80 in place of
    # X^40 quadruples the quotient's coefficients (up to ~4800 c).
    c, u = QLaurent({0: 2**64, 1: -1}), QLaurent({0: 1, 2: 1})
    d = ((ONE1 - X1) * (ONE1 - X1) * (ONE1 - X1)).scale(u)
    top = ONE1 - TorusElement.monomial(L1, (80,))
    _check_widening((top * top * top).scale(c * u), d)


@WIDE_PROPERTY
@given(wide_pairs(), st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3))
def test_wide_power_product_matches_pairwise_chain(pair, i, j, shift):
    a, b = pair
    want = TorusElement.monomial(a.form, (0,) * a.form.dim)
    for f in [a] * i + [b] * j:
        want = torus_mul_pairwise(want, f)
    assert power_product(a.form, [(a, i), (b, j)], shift) == want.scale(QLaurent.monomial(shift))
