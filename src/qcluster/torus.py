"""The based quantum torus: X^e X^f = v^{Lambda(e,f)} X^{e+f}, v = q^(1/2).

Elements are finite sums of exponent vectors in Z^m with QLaurent
coefficients.  Multiplication twists by the skew form; exact right division
is monomial-order long division under graded lex (torus monomials are units,
so each leading term cancels in one step).  The product, the q-commutation
test and the division all run one kernel on raw {exponent: {deg: int}} dicts.
"""

from __future__ import annotations

from operator import add, mul

from .errors import DimensionMismatch, NotDivisible
from .qlaurent import QLaurent


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
        total = 0
        for i, ei in enumerate(e):
            if ei:
                row = self.entries[i]
                total += ei * sum(row[j] * fj for j, fj in enumerate(f) if fj)
        return total

    def apply(self, e) -> tuple[int, ...]:
        """The covector Lambda(e, .) as a row: (Lambda e)_j = sum_i e_i L_ij."""
        out = [0] * self.dim
        for ei, row in zip(e, self.entries):
            if ei:
                out = [a + ei * x for a, x in zip(out, row)]
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, SkewForm) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SkewForm({[list(r) for r in self.entries]})"


def grlex_key(e):
    """Graded lexicographic sort key; a total order compatible with addition."""
    return (sum(e), e)


class TorusElement:
    """A finite sum  sum_e c_e(v) X^e  in the torus attached to a SkewForm."""

    __slots__ = ("form", "terms")

    def __init__(self, form: SkewForm, terms=None):
        self.form = form
        clean = {}
        for e, c in (terms or {}).items():
            if not isinstance(c, QLaurent):
                c = QLaurent.from_int(c)
            if not c.is_zero():
                if len(e) != form.dim:
                    raise DimensionMismatch("exponent length != form dimension")
                clean[tuple(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(form: SkewForm) -> "TorusElement":
        return TorusElement(form)

    @staticmethod
    def one(form: SkewForm) -> "TorusElement":
        return TorusElement(form, {(0,) * form.dim: QLaurent.one()})

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

    def __hash__(self):
        return hash((self.form, frozenset((e, c) for e, c in self.terms.items())))

    def _check(self, other: "TorusElement"):
        if self.form != other.form:
            raise DimensionMismatch("operands live over different skew forms")

    def leading(self):
        """(exponent, coefficient) maximal under graded lex."""
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "TorusElement") -> "TorusElement":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, QLaurent.zero()) + c
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
        acc: dict = {}
        _product_into(acc, self.form, _raw(self), _raw(other))
        return _element(self.form, acc)

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


def _raw(a: TorusElement):
    """The terms of a as (exponent, {deg: int}) pairs."""
    return [(e, c.terms) for e, c in a.terms.items()]


def _product_into(acc: dict, form: SkewForm, left, right, sign: int = 1, mirror=None):
    """Add sign * sum c1 c2 v^{Lambda(e1,e2)} X^{e1+e2} into acc, the one product kernel.

    `left` and `right` are lists of (exponent, {deg: int}) pairs; `acc` maps
    exponents to raw {deg: int} dicts and keeps the zeros it makes.  The twist
    is the covector Lambda(e1, .), computed once per left term, dotted with e2.
    With `mirror = k` each pair also adds -sign * c1 c2 v^{k - Lambda(e1,e2)},
    a term of -v^k (right * left), because Lambda(e2, e1) = -Lambda(e1, e2).
    """
    for e1, c1 in left:
        row = form.apply(e1)
        for e2, c2 in right:
            tw = sum(map(mul, row, e2))
            if mirror == 2 * tw:    # the pair's two terms cancel
                continue
            e = tuple(map(add, e1, e2))
            out = acc.get(e)
            if out is None:
                out = acc[e] = {}
            prod = {}
            for k1, x in c1.items():
                for k2, y in c2.items():
                    k = k1 + k2
                    prod[k] = prod.get(k, 0) + x * y
            images = ((tw, sign),) if mirror is None else ((tw, sign), (mirror - tw, -sign))
            for shift, s in images:
                for k, z in prod.items():
                    k += shift
                    out[k] = out.get(k, 0) + s * z


def _element(form: SkewForm, acc: dict) -> TorusElement:
    """The TorusElement of a raw accumulator, without zero coefficients or exponents."""
    res = TorusElement(form)
    for e, raw in acc.items():
        c = QLaurent(raw)
        if c.terms:
            res.terms[e] = c
    return res


def q_commute(a: TorusElement, b: TorusElement, k: int) -> bool:
    """True iff a b = v^k b a, from one pass of the kernel over the term pairs."""
    a._check(b)
    acc: dict = {}
    _product_into(acc, a.form, _raw(a), _raw(b), mirror=k)
    return not any(any(raw.values()) for raw in acc.values())


def exact_right_divide(n: TorusElement, d: TorusElement) -> TorusElement:
    """The unique q with q * d = n, or raise NotDivisible.

    Long division: the leading term of the running remainder must be the
    product of a quotient term with the leading term of d.  Quotient
    exponents are confined to the entrywise Newton box of n minus d (both
    max- and min-slices of a product multiply), which bounds the search and
    guarantees termination.  The remainder is a raw dict, and each step
    subtracts cq X^eq d from it in place and adds one quotient term.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by zero TorusElement")
    n._check(d)
    form = n.form
    if n.is_zero():
        return TorusElement(form)
    m = form.dim
    lo = tuple(min(e[i] for e in n.terms) - min(e[i] for e in d.terms) for i in range(m))
    hi = tuple(max(e[i] for e in n.terms) - max(e[i] for e in d.terms) for i in range(m))
    if any(l > h for l, h in zip(lo, hi)):
        raise NotDivisible("quotient exponent box is empty", remainder=n)
    ed, cd = d.leading()
    dterms = _raw(d)
    rem = {e: dict(c.terms) for e, c in n.terms.items()}
    quot = TorusElement(form)
    while rem:
        er = max(rem, key=grlex_key)
        eq = tuple(a - b for a, b in zip(er, ed))
        if any(x < l or x > h for x, l, h in zip(eq, lo, hi)):
            raise NotDivisible("leading term not cancellable", remainder=_element(form, rem))
        # want cq with (cq * cd).shift(pair(eq, ed)) == rem[er]
        cq = QLaurent(rem[er]).shift(-form.pair(eq, ed)).divide_exact(cd)
        if cq is None:
            raise NotDivisible("coefficient quotient is not Laurent",
                               remainder=_element(form, rem))
        quot.terms[eq] = cq
        _product_into(rem, form, [(eq, cq.terms)], dterms, sign=-1)
        for e, _ in dterms:
            e = tuple(map(add, eq, e))
            raw = {k: x for k, x in rem[e].items() if x}
            if raw:
                rem[e] = raw
            else:
                del rem[e]
        assert er not in rem, "the leading term did not cancel"
    return quot


def is_positive(a: TorusElement) -> bool:
    """True iff every coefficient has only non-negative integer coefficients."""
    return all(c.is_nonnegative() for c in a.terms.values())
