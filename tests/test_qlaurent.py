import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.qlaurent import (PochhammerFraction, QLaurent, lefschetz_decompose, pack,
                               pack_width, product_sums)

from .oracles import (cancel_by_division, fraction_is_laurent, fraction_sum_by_division,
                      fractions_equal, laurent_divide_exact, lefschetz_string, lmul,
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


@st.composite
def lefschetz_inputs(draw):
    """A random nonzero polynomial, or a sum of strings P(N,k) of one parity of k
    with multiplicities of either sign (so some are not decomposable)."""
    if draw(st.booleans()):
        return draw(nonzero_laurents)
    center = draw(st.integers(-3, 3))
    parity = draw(st.integers(0, 1))
    mults = draw(st.dictionaries(st.sampled_from(range(parity, 7, 2)),
                                 st.integers(-2, 3), min_size=1, max_size=3))
    p = QLaurent()
    for k, c in mults.items():
        p = p + c * lefschetz_string(center, k)
    return p if not p.is_zero() else lefschetz_string(center, parity)


@PROPERTY
@given(lefschetz_inputs())
def test_lefschetz_decompose_rebuilds_or_names_a_reason(p):
    dec = lefschetz_decompose(p)
    if dec.ok:
        rebuilt = QLaurent()
        for k, c in dec.multiplicities.items():
            assert c > 0
            rebuilt = rebuilt + c * lefschetz_string(dec.center, k)
        assert rebuilt == p
        return
    assert dec.center is None and dec.multiplicities is None
    degs = sorted(p.terms)
    mixed = any((d - degs[0]) % 2 for d in degs)
    assert dec.reason == "mixed-parity" if mixed else dec.reason in (
        "asymmetric", "negative-multiplicity")
    if dec.reason == "asymmetric":
        mid = degs[0] + degs[-1]
        assert any(p.terms.get(mid - d, 0) != c for d, c in p.terms.items())


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
    assert QLaurent({1: 3}).render_plain() == "3*T"


wide_laurents = st.dictionaries(st.integers(-9, 9), st.integers(-2**40, 2**40),
                                max_size=6).map(QLaurent)


@PROPERTY
@given(wide_laurents, wide_laurents, st.integers(-5, 5))
def test_packed_product_matches_the_term_by_term_oracle(p, q, c):
    """The one integer multiply at width pack_width(L1 L1) against the
    double loop, with negative exponents and coefficients up to 2^40; an
    int operand, 0 included, scales every coefficient."""
    want = {e: x for e, x in lmul(p.terms, q.terms).items() if x}
    assert (p * q).terms == want and (q * p).terms == want
    assert (p * c).terms == {e: x * c for e, x in p.terms.items() if c}
    assert (c * p) == p * c
    assert (p * 0).is_zero() and (p * -3).terms == {e: -3 * x for e, x in p.terms.items()}


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


def fraction_sum(parts):
    """sum_i num_i / den_i over (num_i, den_i) pairs: one product_sums output."""
    one = PochhammerFraction.of(QLaurent.one(), {})
    return product_sums({0: [(PochhammerFraction.of(num, den), one, 0)
                             for num, den in parts]})[0]


def times_factors(num, den):
    """num times prod (1 - T^k)^m over den."""
    return num * QLaurent(pochhammer_denominator(den))


@st.composite
def wide_sums(draw):
    """Parts (num, den) with coefficients up to 2^40 in size and multiplicities
    up to 3.  Either each numerator carries some of its own factors, or the
    parts are A/D and B/D with A + B = Q prod E for a part E of D, so the
    sum cancels E even though no part does."""
    coeff = st.integers(-2**40, 2**40)
    nums = st.dictionaries(st.integers(-6, 6), coeff, max_size=4).map(QLaurent)
    dens = st.dictionaries(st.integers(1, 4), st.integers(0, 3), max_size=3)
    if draw(st.booleans()):
        parts = []
        for _ in range(draw(st.integers(1, 3))):
            num, den = draw(nums), draw(dens)
            carried = {k: draw(st.integers(0, m)) for k, m in den.items()}
            parts.append((times_factors(num, carried), den))
        return parts
    den = draw(dens)
    extra = {k: draw(st.integers(0, m)) for k, m in den.items()}
    whole, split = times_factors(draw(nums), extra), draw(nums)
    return [(whole - split, den), (split, den)]


@PROPERTY
@given(wide_sums())
def test_packed_sum_and_cancel_matches_the_division_oracle(parts):
    got = fraction_sum(parts)
    num, den = fraction_sum_by_division(parts)
    assert (got.num.terms, got.den) == (num.terms, den)
    for num, den in parts:
        got = PochhammerFraction(num, den)
        want = cancel_by_division(num, den)
        assert (got.num.terms, got.den) == (want[0].terms, want[1])


def l1(p):
    return sum(map(abs, p.terms.values()))


def assert_cancels_like_the_oracle(num, den):
    got = PochhammerFraction(num, den)
    want = cancel_by_division(num, den)
    assert (got.num.terms, got.den) == (want[0].terms, want[1])
    return got


def test_numerator_at_the_width_limit():
    # bits = pack_width(L1) is the narrowest width with L1 < 2^(bits-2);
    # at L1 = 2^(bits-2) - 1 (odd, so not divisible by any 1 - T^k) and
    # 2^(bits-2) - 2 (divisible) a residue class sum reaches L1, and so
    # does |P(1)| or |P(-1)|, which _cancel reads off mod 2^bits -+ 1.
    for bits in (5, 8, 13, 44):
        top = 2**(bits - 2)
        odd = QLaurent({0: top // 2, 4: top // 2 - 1})
        even = QLaurent({0: top // 2 - 1, 6: 1 - top // 2})      # (1 - T^3) (top/2 - 1)
        spread = QLaurent({0: top // 4, 2: top // 4 - 1, 4: -(top // 2 - 1)})
        at_minus_one = QLaurent({0: -(top // 2), 1: top // 2 - 1})  # P(-1) = 1 - top
        zero_at_one = QLaurent({0: top // 2 - 1, 1: 1 - top // 2})  # P(-1) = top - 2
        for num, den, want_den in ((odd, {1: 1, 2: 2}, {1: 1, 2: 2}),
                                   (even, {1: 2, 3: 1}, {1: 1, 3: 1}),
                                   (spread, {1: 3, 2: 1}, {1: 2, 2: 1}),
                                   (at_minus_one, {1: 1}, {1: 1}),
                                   (zero_at_one, {1: 1, 2: 1}, {1: 1, 2: 1})):
            assert pack_width(l1(num)) == bits
            assert l1(num) in (top - 1, top - 2)
            assert assert_cancels_like_the_oracle(num, den).den == want_den


def test_cancelled_quotient_outgrows_the_width_and_is_repacked():
    # (1 - T^12)^3 / (1 - T)^3 = (1 + T + ... + T^11)^3: L1 grows from 8 to
    # 1728, so the quotient leaves the first width (6 bits) on the way.
    num = times_factors(QLaurent.one(), {12: 3})
    assert l1(num) == 8 and pack_width(8) == 6
    got = assert_cancels_like_the_oracle(num, {1: 3})
    geometric = QLaurent({2 * i: 1 for i in range(12)})
    assert got.is_laurent() and got.num == geometric * geometric * geometric
    assert l1(got.num) == 1728
    # the same chain with a factor left over, inside a sum, and at 2^40 scale
    scaled = num * (2**40 + 1)
    got = fraction_sum([(scaled, {1: 4, 12: 1}), (QLaurent.zero(), {2: 1})])
    want = fraction_sum_by_division([(scaled, {1: 4, 12: 1}), (QLaurent.zero(), {2: 1})])
    assert (got.num.terms, got.den) == (want[0].terms, want[1])
    assert got.den == {2: 1, 12: 1}


def test_width_rule_rejects_residue_sums_that_cancel_only_mod_the_slot():
    # P = 1 - v + 63 v^2 has residue class sums 64 (even degrees) and -1 (odd
    # degrees) modulo 2, so 1 - T = 1 - v^2 does not divide it.  At 6-bit
    # slots 64 - 2^6 = 0: the divmod would report an exact quotient.
    num = QLaurent({0: 1, 1: -1, 2: 63})
    lo, x = pack(num.terms, 6)
    assert divmod(x, 1 - (1 << 12))[1] == 0
    # the width rule packs at pack_width(L1 = 65) = 9 bits instead
    assert pack_width(l1(num)) == 9
    got = assert_cancels_like_the_oracle(num, {1: 1})
    assert got.num == num and got.den == {1: 1}


def test_values_at_one_and_minus_one_decide_that_nothing_cancels():
    # _cancel reads P(1) and P(-1) off the packed numerator before any divmod
    # and skips the division loop when either is nonzero: 1 - T divides
    # every 1 - T^k.  Each case keeps the division oracle's (num, den).
    one_minus_t = QLaurent({0: 1, 2: -1})
    for num, den, want_den in (
            (QLaurent({0: 1, 3: -1}), {1: 1, 2: 1}, {1: 1, 2: 1}),   # P(1) = 0, P(-1) = 2
            (QLaurent({0: 2, 1: -3, 4: 1}), {1: 2}, {1: 2}),         # P(1) = 0, P(-1) = 6
            (QLaurent({0: 1, 1: 1}), {1: 2, 3: 1}, {1: 2, 3: 1}),    # P(-1) = 0, P(1) = 2
            (QLaurent({1: 1, 2: 2, 3: 1}), {1: 1, 2: 1}, {1: 1, 2: 1}),  # P(-1) = 0, P(1) = 4
            (one_minus_t, {2: 1, 3: 2}, {2: 1, 3: 2}),       # P(+-1) = 0, no factor divides
            (one_minus_t, {1: 1, 2: 1}, {2: 1}),             # 1 - T divides, 1 - T^2 does not
            (one_minus_t * one_minus_t * QLaurent({0: 1, 1: 1}), {1: 3, 2: 1},
             {1: 1, 2: 1})):                                 # the quotient 1 + v stops it
        assert assert_cancels_like_the_oracle(num, den).den == want_den


@pytest.mark.parametrize("den", [{1: -1}, {0: 1}, {-2: 1}, {1: 1.5}, {1.0: 1},
                                 {True: 1}, {2: 1, 3: -2}])
def test_pochhammer_fraction_rejects_denominators_outside_its_domain(den):
    # each factor is (1 - T^k)^m with k >= 1 and m >= 0, both ints; a zero
    # numerator does not excuse a bad denominator
    for num in (QLaurent.one(), QLaurent.zero()):
        with pytest.raises(ValueError):
            PochhammerFraction(num, den)


def test_pochhammer_fraction_drops_zero_multiplicities():
    assert PochhammerFraction(QLaurent.one(), {1: 0, 3: 2, 5: 0}).den == {3: 2}
    assert PochhammerFraction(QLaurent.one(), {4: 0}).den == {}


def reference_product_sums(outputs):
    """{key: (num terms, den)} of product_sums by the division oracle: each
    part's numerators multiplied term by term, over its summed denominators."""
    out = {}
    for key, parts in outputs.items():
        terms = [(QLaurent(lmul(a.num.terms, b.num.terms)).shift(s),
                  {k: a.den.get(k, 0) + b.den.get(k, 0) for k in a.den.keys() | b.den.keys()})
                 for a, b, s in parts]
        num, den = fraction_sum_by_division(terms)
        out[key] = (num.terms, den)
    return out


@st.composite
def den_outputs(draw):
    """A product_sums input {key: [(a, b, shift), ...]}; output 0 has one part.

    Either every fraction is Laurent, or the denominators have gaps and zero
    entries, with k up to 40 or the sparse {1: 1, 4096: 1}.  Every left
    factor also carries one base of multiplicities 200-300 at k <= 3, so
    multiplicities reach 300 while the factors a part lacks stay few.  Some
    numerators carry a factor of their denominator, so some parts cancel.
    """
    laurent = draw(st.booleans())
    small = st.one_of(st.dictionaries(st.integers(1, 40), st.integers(0, 2), max_size=3),
                      st.just({1: 1, 4096: 1}))
    base = {} if laurent else draw(
        st.dictionaries(st.integers(1, 3), st.integers(200, 300), max_size=2))
    nums = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=3).map(QLaurent)

    def fraction(shared):
        num = draw(nums)
        if laurent:
            return PochhammerFraction.of(num, {})
        den = dict(draw(small))
        carried = [k for k, m in den.items() if m]
        if carried and draw(st.booleans()):
            k = draw(st.sampled_from(carried))
            num = num * QLaurent({0: 1, 2 * k: -1})
        for k, m in shared.items():
            den[k] = den.get(k, 0) + m
        return PochhammerFraction.of(num, den)

    lefts = [fraction(base) for _ in range(3)]
    rights = [fraction({}) for _ in range(3)]
    return {key: [(draw(st.sampled_from(lefts)), draw(st.sampled_from(rights)),
                   draw(st.integers(-3, 3)))
                  for _ in range(1 if key == 0 else draw(st.integers(1, 4)))]
            for key in range(draw(st.integers(1, 4)))}


@PROPERTY
@given(den_outputs())
def test_packed_denominators_match_the_division_oracle(outputs):
    """Denominators packed as multiplicity vectors (one add per product, one
    guarded subtract per part for the per-k maximum) give the oracle's
    canonical (num, den) for every output."""
    got = {key: (c.num.terms, c.den) for key, c in product_sums(outputs).items()}
    assert got == reference_product_sums(outputs)
    for c in got.values():
        assert list(c[1]) == sorted(c[1]) and all(c[1].values())
