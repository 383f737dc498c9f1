"""The based quantum torus: X^e X^f = v^{Lambda(e,f)} X^{e+f}, v = q^(1/2).

Elements are finite sums of exponent vectors in Z^m with QLaurent
coefficients.  Multiplication twists by the skew form; exact right division
is monomial-order long division under graded lex (torus monomials are units,
so each leading term cancels in one step).

The product, the q-commutation test, ordered power products and the division
all run one kernel on coefficients packed as in qlaurent (packing and width
rule there), so a term pair costs one integer multiply.  The kernel's right
operand brings its covectors, and a pair's twist is
Lambda(e1, e2) = -Lambda(e2, .) . e1.  An element computes its L1 and its
per-term covectors on first use and keeps them, so a cluster variable that
no mutation changes is covectored once per sequence; it is packed afresh at
each width a call needs.

Digit bounds, with L1 over all integer coefficients: L1(a) L1(b) for a * b,
twice that for each commuted pair a, b, and the product of the L1(a)^k for an
ordered power product of the a^k.  A division's remainder digits are at most
B + L1(quotient so far) L1(d), for a bound B >= L1(n): the sum of the
chains' product bounds, as the numerator, a sum of power products, is added
straight into the remainder (`divide_power_sum`; `exact_right_divide` is the
one chain n^1, so B = L1(n)).  The remainder starts at the width of
2 B L1(d) and is repacked at twice the bound when the bound outgrows it.
Each leading term comes from a lazy heap keyed by graded lex: a monomial
order, so the leading exponent strictly descends.

Every monomial s v^a X^f (s = +-1) is a unit, and the division takes two
shortcuts from that.  A divisor that is one such term divides every
numerator term on its own, so the quotient is one pass over the packed
remainder (no heap, no Newton box, never NotDivisible).  A divisor whose
leading coefficient is s v^a gives each step's quotient coefficient as the
packed leading remainder coefficient shifted by -a and signed by s, with no
QLaurent.divide_exact.  Either way a quotient digit is a remainder digit,
so it is bounded by the same B and the widths above are unchanged.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import prod
from operator import add, mul, neg, sub

from .errors import DimensionMismatch, NotDivisible
from . import qlaurent
from .qlaurent import QLaurent, _accumulate, pack, pack_width, unpack


class SkewForm:
    """An integer skew-symmetric m x m matrix, used as Lambda(e,f) = e^t M f."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        m = len(entries)
        for row in entries:
            if len(row) != m:
                raise DimensionMismatch("skew form must be square")
        for i in range(m):
            if entries[i][i] != 0:
                raise ValueError("skew form has nonzero diagonal")
            for j in range(i + 1, m):
                if entries[i][j] != -entries[j][i]:
                    raise ValueError("matrix is not skew-symmetric")
        self.dim = m
        self.entries = tuple(tuple(row) for row in entries)

    def pair(self, e, f) -> int:
        """Lambda(e, f)."""
        return sum(map(mul, self.apply(e), f))

    def apply(self, e) -> tuple[int, ...]:
        """The covector Lambda(e, .) as a row: (Lambda e)_j = sum_i e_i L_ij = -L_j . e."""
        return tuple([-sum(map(mul, row, e)) for row in self.entries])

    def __eq__(self, other):
        return isinstance(other, SkewForm) and self.entries == other.entries

    def __repr__(self):
        return f"SkewForm({[list(r) for r in self.entries]})"


def grlex_key(e):
    """Graded lexicographic sort key; a total order compatible with addition."""
    return (sum(e), e)


class TorusElement:
    """A finite sum  sum_e c_e(v) X^e  in the torus attached to a SkewForm."""

    __slots__ = ("form", "terms", "_norm", "_rows")

    def __init__(self, form: SkewForm, terms=None):
        self.form = form
        self._norm = self._rows = None
        clean = {}
        for e, c in (terms or {}).items():
            if not c.is_zero():
                if len(e) != form.dim:
                    raise DimensionMismatch("exponent length != form dimension")
                clean[tuple(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def monomial(form: SkewForm, e, coeff=None) -> "TorusElement":
        return TorusElement(form, {tuple(e): coeff if coeff is not None else QLaurent.one()})

    @staticmethod
    def basis(form: SkewForm, i: int) -> "TorusElement":
        """X^{e_i}, i is 1-based."""
        e = [0] * form.dim
        e[i - 1] = 1
        return TorusElement.monomial(form, e)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, TorusElement)
                and self.form == other.form and self.terms == other.terms)

    def _check(self, other: "TorusElement"):
        if self.form != other.form:
            raise DimensionMismatch("operands live over different skew forms")

    def covectors(self) -> dict:
        """{e: Lambda(e, .)} over the terms, computed on first use and kept."""
        if self._rows is None:
            self._rows = {e: self.form.apply(e) for e in self.terms}
        return self._rows

    def leading(self):
        """(exponent, coefficient) maximal under graded lex."""
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "TorusElement") -> "TorusElement":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, QLaurent()) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        res = TorusElement(self.form)
        res.terms = out
        return res

    def __neg__(self) -> "TorusElement":
        res = TorusElement(self.form)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "TorusElement":
        """Multiply by a central scalar (int or QLaurent)."""
        if isinstance(c, int):
            c = QLaurent.from_int(c)
        res = TorusElement(self.form)
        if c.is_zero():
            return res
        res.terms = {e: coeff * c for e, coeff in self.terms.items()}
        return res

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        self._check(other)
        return power_product(self.form, ((self, 1), (other, 1)))

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms in ascending graded lex, `c*X[e1,...,em]`."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=grlex_key):
            c = self.terms[e]
            mono = "X[" + ",".join(str(x) for x in e) + "]"
            if c.is_one():
                parts.append(mono)
            elif len(c.terms) == 1:
                parts.append(f"{c.render()}*{mono}")
            else:
                parts.append(f"({c.render()})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"TorusElement({self.render()})"


def _l1(a: TorusElement) -> int:
    """The sum of the absolute values of all integer coefficients of a, kept on a."""
    if a._norm is None:
        a._norm = sum(map(qlaurent._l1, a.terms.values()))
    return a._norm


def _operand(a: TorusElement, bits: int) -> list:
    """The terms of a as (exponent, Lambda(e, .), lo, x), packed at bits."""
    rows = a.covectors()
    return [(e, rows[e], *pack(c.terms, bits)) for e, c in a.terms.items()]


def _product_into(acc: dict, left, right, bits: int, mirror=None):
    """Add sum c1 c2 v^{Lambda(e1,e2)} X^{e1+e2} into acc, the one product kernel.

    `left` holds (exponent, lo, x) and `right` is an `_operand`, whose
    covectors give each pair's twist tw = -Lambda(e2, .) . e1; `acc` maps
    exponents to [lo, x] at the same width and keeps the zeros it makes.  A
    term pair costs one multiplication x1 x2, placed at degree lo1 + lo2 + tw.
    With `mirror = k` each pair also adds -x1 x2 at lo1 + lo2 + k - tw, a
    term of -v^k (right * left), because Lambda(e2, e1) = -Lambda(e1, e2);
    pairs with 2 tw = k cancel and are skipped.
    """
    for e1, lo1, x1 in left:
        for e2, row, lo2, x2 in right:
            tw = -sum(map(mul, row, e1))
            lo = lo1 + lo2 + tw
            if mirror is None:
                p = x1 * x2
            else:
                gap = mirror - 2 * tw   # the mirrored term's degree minus lo
                if gap > 0:
                    p = x1 * x2
                    p -= p << (gap * bits)
                elif gap < 0:
                    lo += gap
                    p = x1 * x2
                    p = (p << (-gap * bits)) - p
                else:
                    continue
            _accumulate(acc, tuple(map(add, e1, e2)), lo, p, bits)


def _element(form: SkewForm, packed: dict, bits: int) -> TorusElement:
    """The TorusElement of packed terms, without zeros."""
    res = TorusElement(form)
    for e, (lo, x) in packed.items():
        if x:
            res.terms[e] = unpack(lo, x, bits)
    return res


def commutes(a: TorusElement, b: TorusElement, k: int) -> bool:
    """True iff a b = v^k b a: one mirrored pass, packed at this pair's own width."""
    a._check(b)
    bits = pack_width(2 * _l1(a) * _l1(b))
    acc: dict = {}
    _product_into(acc, [(e, lo, x) for e, _, lo, x in _operand(a, bits)],
                  _operand(b, bits), bits, mirror=k)
    return not any(x for _, x in acc.values())


def _chain(form: SkewForm, factors, shift: int, bits: int) -> dict:
    """v^shift times the ordered product of a^k over (a, k) in factors, packed at bits."""
    acc = {(0,) * form.dim: [shift, 1]}
    for a, k in factors:
        right = _operand(a, bits)
        for _ in range(k):
            left, acc = [(e, lo, x) for e, (lo, x) in acc.items() if x], {}
            _product_into(acc, left, right, bits)
    return acc


def _chain_bound(factors) -> int:
    """The product of the L1(a)^k: it bounds every digit of every partial product."""
    return prod(_l1(a) ** k for a, k in factors)


def power_product(form: SkewForm, factors, shift: int = 0) -> TorusElement:
    """v^shift times the ordered product of a^k over (a, k) in factors.

    One packed chain at the width of its product bound, unpacked once.
    """
    bits = pack_width(_chain_bound(factors))
    return _element(form, _chain(form, factors, shift, bits), bits)


def exact_right_divide(n: TorusElement, d: TorusElement) -> TorusElement:
    """The unique q with q * d = n, or raise NotDivisible.

    Long division: the leading term of the running remainder must be the
    product of a quotient term with the leading term of d.  Quotient
    exponents are confined to the entrywise Newton box of n minus d (both
    max- and min-slices of a product multiply), which bounds the search and
    guarantees termination.  It is `divide_power_sum` on the one chain n^1.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by zero TorusElement")
    n._check(d)
    return divide_power_sum(n.form, [(((n, 1),), 0)], d)


def divide_power_sum(form: SkewForm, chains, d: TorusElement) -> TorusElement:
    """The q with q * d = sum of v^shift prod a^k over (factors, shift) in chains.

    Each chain is added, packed, into one remainder that `_divide` then runs
    on; B is the sum of the chains' bounds.
    """
    bound = sum(_chain_bound(factors) for factors, _ in chains)
    bits = pack_width(2 * bound * _l1(d))
    rem: dict = {}
    for factors, shift in chains:
        for e, (lo, x) in _chain(form, factors, shift, bits).items():
            _accumulate(rem, e, lo, x, bits)
    return _divide({e: t for e, t in rem.items() if t[1]}, d, bits, bound)


def _heap_key(e):
    """Graded lex, reversed for heapq, with e itself last."""
    return -sum(e), tuple(map(neg, e)), e


def _divide(rem: dict, d: TorusElement, bits: int, bound: int) -> TorusElement:
    """The q with q * d = n, n packed as rem (no zeros) at bits, bound >= L1(n).

    The quotient term that cancels the leading remainder term c X^er is
    cq X^eq, eq = er - ed, with cq = v^{Lambda(ed, eq)} c / cd.  When cd is
    a unit s v^a (s = +-1) and c is packed as (lo, x), cq is packed as
    (lo + Lambda(ed, eq) - a, s x): no divide_exact, and its digits are
    remainder digits, so no width changes.  When d is that one term, every
    term of n divides on its own and the quotient is one pass over rem.
    Every remainder digit is at most bound + L1(quotient so far) L1(d); when
    that outgrows the width, the remainder is repacked at twice it.
    """
    form = d.form
    quot = TorusElement(form)
    if not rem:
        return quot
    ed, cd = d.leading()
    lead = d.covectors()[ed]
    (a, s), *more = cd.terms.items()
    unit = not more and s in (1, -1)
    if unit and len(d.terms) == 1:
        for er, (lr, xr) in rem.items():
            eq = tuple(map(sub, er, ed))
            quot.terms[eq] = unpack(lr + sum(map(mul, lead, eq)) - a, s * xr, bits)
        return quot
    box = [(min(x) - min(y), max(x) - max(y)) for x, y in zip(zip(*rem), zip(*d.terms))]
    if any(l > h for l, h in box):
        raise NotDivisible("quotient exponent box is empty",
                           remainder=_element(form, rem, bits))
    l1d, l1q = _l1(d), 0
    right = _operand(d, bits)
    heap = [_heap_key(e) for e in rem]
    heapify(heap)
    while rem:
        er = heappop(heap)[2]
        if er not in rem:   # a stale entry: that term cancelled
            continue
        eq = tuple(map(sub, er, ed))
        if any(x < l or x > h for x, (l, h) in zip(eq, box)):
            raise NotDivisible("leading term not cancellable",
                               remainder=_element(form, rem, bits))
        lr, xr = rem[er]
        lr += sum(map(mul, lead, eq))
        if unit:   # without the zero low digits that cancellation leaves in xr
            k = ((xr & -xr).bit_length() - 1) // bits
            lq, xq = lr + k - a, s * (xr >> k * bits)
            cq = unpack(lq, xq, bits)
        else:
            cq = unpack(lr, xr, bits).divide_exact(cd)
            if cq is None:
                raise NotDivisible("coefficient quotient is not Laurent",
                                   remainder=_element(form, rem, bits))
        quot.terms[eq] = cq
        l1q += qlaurent._l1(cq)
        need = bound + l1q * l1d
        wider = pack_width(need) > bits
        if wider:
            wide = pack_width(2 * need)
            rem = {e: pack(c.terms, wide) for e, c in _element(form, rem, bits).terms.items()}
            bits = wide
            right = _operand(d, bits)
        if wider or not unit:
            lq, xq = pack(cq.terms, bits)
        hit = [tuple(map(add, eq, e)) for e in d.terms]
        fresh = [e for e in hit if e not in rem]
        _product_into(rem, ((eq, lq, -xq),), right, bits)
        for e in hit:
            if not rem[e][1]:
                del rem[e]
        for e in fresh:
            if e in rem:
                heappush(heap, _heap_key(e))
        assert er not in rem, "the leading term did not cancel"
    return quot


def is_positive(a: TorusElement) -> bool:
    """True iff every coefficient has only non-negative integer coefficients."""
    return all(c.is_nonnegative() for c in a.terms.values())
