import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.qlaurent import (PochhammerFraction, QLaurent,
                               lefschetz_decompose, lefschetz_string)

from .oracles import (fraction_is_laurent, fractions_equal, laurent_divide_exact,
                      pochhammer_denominator)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
laurents = st.dictionaries(st.integers(-6, 6), st.integers(-3, 3), max_size=4).map(QLaurent)
nonzero_laurents = laurents.filter(lambda p: not p.is_zero())
dens = st.dictionaries(st.integers(1, 3), st.integers(0, 2), max_size=3)


@st.composite
def fraction_parts(draw):
    """(num, den) where num carries a random part of den's factors, so some cancel."""
    num, den = draw(laurents), draw(dens)
    for k, m in den.items():
        for _ in range(draw(st.integers(0, m))):
            num = num * QLaurent({0: 1, 2 * k: -1})
    return num, den


fractions = fraction_parts().map(lambda parts: PochhammerFraction(*parts))


def rand_qlaurent(rng, nterms=4, span=6, coeff=9):
    return QLaurent({rng.randrange(-span, span + 1): rng.randrange(-coeff, coeff + 1)
                     for _ in range(nterms)})


def test_basic_arithmetic():
    p = QLaurent({0: 1, 2: 3})
    q = QLaurent({-1: 2})
    assert (p + q).terms == {0: 1, 2: 3, -1: 2}
    assert (p - p).is_zero()
    assert (p * q).terms == {-1: 2, 1: 6}
    assert (p * 0).is_zero()
    assert p.shift(3).terms == {3: 1, 5: 3}
    assert p.bar().terms == {0: 1, -2: 3}
    assert p.eval_at_one() == 4


def test_divide_exact_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_qlaurent(rng)
        b = rand_qlaurent(rng)
        if b.is_zero():
            continue
        prod = a * b
        q = prod.divide_exact(b)
        assert q is not None and q == a


def test_divide_exact_failure():
    assert QLaurent({0: 1}).divide_exact(QLaurent({0: 2})) is None
    assert QLaurent({0: 1, 1: 1}).divide_exact(QLaurent({0: 1, 2: 1})) is None
    assert QLaurent({5: 4}).divide_exact(QLaurent({3: 2})) == QLaurent({2: 2})


def test_lefschetz_spec_examples():
    # v^-1 + v -> P(0,1)
    dec = lefschetz_decompose(QLaurent({-1: 1, 1: 1}))
    assert dec.ok and dec.center == 0 and dec.multiplicities == {1: 1}
    # 1 + v^2 = q^{1/2}(q^{-1/2} + q^{1/2}) -> P(1,1)
    dec = lefschetz_decompose(QLaurent({0: 1, 2: 1}))
    assert dec.ok and dec.center == 1 and dec.multiplicities == {1: 1}
    # v^-2 + 2 + v^2 -> P(0,2) + P(0,0)
    dec = lefschetz_decompose(QLaurent({-2: 1, 0: 2, 2: 1}))
    assert dec.ok and dec.center == 0 and dec.multiplicities == {2: 1, 0: 1}
    # v^-1 + 1 -> mixed parity
    dec = lefschetz_decompose(QLaurent({-1: 1, 0: 1}))
    assert not dec.ok and dec.reason == "mixed-parity"


def test_lefschetz_failures():
    assert lefschetz_decompose(QLaurent({0: 1, 2: 2})).reason == "asymmetric"
    # symmetric but with a negative middle multiplicity: v^-2 - 1 + v^2
    dec = lefschetz_decompose(QLaurent({-2: 1, 0: -1, 2: 1}))
    assert dec.reason == "negative-multiplicity"


def test_lefschetz_reexpansion_random():
    rng = random.Random(11)
    for _ in range(100):
        center = rng.randrange(-3, 4)
        mults = {k: rng.randrange(0, 4)
                 for k in range(rng.randrange(0, 3) % 2, 7, 2)}
        p = QLaurent()
        for k, c in mults.items():
            p = p + c * lefschetz_string(center, k)
        if p.is_zero():
            continue
        dec = lefschetz_decompose(p)
        assert dec.ok
        rebuilt = QLaurent()
        for k, c in dec.multiplicities.items():
            rebuilt = rebuilt + c * lefschetz_string(dec.center, k)
        assert rebuilt == p
        assert p.is_nonnegative()


def test_pochhammer_fraction_cancellation():
    one_minus_t = QLaurent({0: 1, 2: -1})
    fr = PochhammerFraction(one_minus_t, {1: 1})
    assert fr.is_laurent() and fr.as_laurent().is_one()
    # (1 - T^2) / (1 - T) = 1 + T
    fr = PochhammerFraction(QLaurent({0: 1, 4: -1}), {1: 1})
    assert fr.as_laurent() == QLaurent({0: 1, 2: 1})


def test_pochhammer_fraction_field_ops():
    a = PochhammerFraction(QLaurent({0: 1}), {1: 1})       # 1/(1-T)
    b = PochhammerFraction(QLaurent({0: -1}), {1: 1})      # -1/(1-T)
    assert (a + b).is_zero()
    c = a * PochhammerFraction(QLaurent({0: 1, 2: -1}))    # (1-T)/(1-T) = 1
    assert c.is_laurent() and c.as_laurent().is_one()
    # 1/(1-T) + 1/(1-T^2) has no Laurent form
    d = a + PochhammerFraction(QLaurent({0: 1}), {2: 1})
    assert not d.is_laurent()
    assert d == d
    assert d != a


def test_render():
    assert QLaurent({-1: 1, 0: 2, 2: -3}).render() == "q^(-1/2) + 2 - 3*q"
    assert QLaurent().render() == "0"
    assert QLaurent({1: 3}).render_plain("T") == "3*T"


@PROPERTY
@given(laurents, nonzero_laurents, laurents)
def test_divide_exact_matches_long_division(q, b, r):
    assert (q * b).divide_exact(b) == q
    for a in (q * b + r, r):
        got = a.divide_exact(b)
        want = laurent_divide_exact(a.terms, b.terms)
        assert (None if got is None else got.terms) == want


@PROPERTY
@given(fraction_parts(), fraction_parts(), dens, st.booleans())
def test_pochhammer_fraction_eq_matches_cross_multiplication(x, y, extra, perturb):
    # y is either unrelated to x, or x with its numerator and denominator
    # both multiplied by `extra` factors (and then maybe perturbed)
    num, den = x
    scaled = num * QLaurent(pochhammer_denominator(extra))
    if perturb:
        scaled = scaled + QLaurent.one()
    scaled_den = {k: den.get(k, 0) + extra.get(k, 0) for k in den.keys() | extra.keys()}
    for other in (y, (scaled, scaled_den)):
        want = fractions_equal(num.terms, den, other[0].terms, other[1])
        assert (PochhammerFraction(*x) == PochhammerFraction(*other)) == want


@PROPERTY
@given(fraction_parts())
def test_pochhammer_fraction_is_laurent_matches_oracle(parts):
    num, den = parts
    assert PochhammerFraction(num, den).is_laurent() == fraction_is_laurent(num.terms, den)


@PROPERTY
@given(fractions, fractions, fractions)
def test_pochhammer_fraction_field_laws(x, y, z):
    assert (x + y) - y == x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
