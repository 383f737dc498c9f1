import random

import pytest

from qcluster.errors import DimensionMismatch, NotDivisible
from qcluster.qlaurent import QLaurent
from qcluster.torus import (SkewForm, TorusElement, exact_right_divide,
                            is_positive)

from .oracles import cadd, cmul, specialize_v1

L2 = SkewForm([[0, 1], [-1, 0]])
E1 = TorusElement.basis(L2, 1)
E2 = TorusElement.basis(L2, 2)


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
    one = TorusElement.one(L2)
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
    zero = TorusElement.zero(L2)
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
