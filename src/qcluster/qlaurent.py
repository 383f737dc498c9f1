"""Exact Laurent polynomials in v = q^(1/2), and Lefschetz-string analysis.

Everything here is integer arithmetic on sparse exponent->coefficient maps;
no floating point and no rounding anywhere.  The same class doubles as the
coefficient ring in the variable T^(1/2) for motivic weights (q <-> T).
"""

from __future__ import annotations

from dataclasses import dataclass


class QLaurent:
    """A Laurent polynomial sum_k c_k v^k with arbitrary-precision integer c_k.

    Stored as a dict {exponent: coefficient} with no zero coefficients.
    Instances are treated as immutable: every operation returns a new value.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {k: c for k, c in terms.items() if c != 0}

    @staticmethod
    def zero() -> "QLaurent":
        return QLaurent()

    @staticmethod
    def one() -> "QLaurent":
        return QLaurent({0: 1})

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "QLaurent":
        """coeff * v^exp."""
        return QLaurent({exp: coeff})

    @staticmethod
    def from_int(c: int) -> "QLaurent":
        return QLaurent({0: c})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QLaurent.from_int(other)
        return isinstance(other, QLaurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "QLaurent") -> "QLaurent":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = QLaurent()
        res.terms = out
        return res

    def __neg__(self) -> "QLaurent":
        res = QLaurent()
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return QLaurent()
            res = QLaurent()
            res.terms = {k: c * other for k, c in self.terms.items()}
            return res
        out: dict[int, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        res = QLaurent()
        res.terms = out
        return res

    __rmul__ = __mul__

    def shift(self, k: int) -> "QLaurent":
        """Multiply by v^k."""
        if k == 0 or not self.terms:
            return self
        res = QLaurent()
        res.terms = {e + k: c for e, c in self.terms.items()}
        return res

    def bar(self) -> "QLaurent":
        """The bar involution v -> v^(-1)."""
        res = QLaurent()
        res.terms = {-k: c for k, c in self.terms.items()}
        return res

    def eval_at_one(self) -> int:
        """Specialize v = 1 (hence q = 1)."""
        return sum(self.terms.values())

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def divide_exact(self, other: "QLaurent") -> "QLaurent | None":
        """Return self/other if the quotient is again in Z[v^{+-1}], else None.

        One ascending synthetic-division pass solves each quotient term with
        other's lowest coefficient; the top deg(other) terms must then vanish.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero QLaurent")
        a, b = self.terms, other.terms
        res = QLaurent()
        if not a:
            return res
        a1, b1 = sum(a.values()), sum(b.values())
        if a1 % b1 if b1 else a1:   # self = quotient * other fails at v = 1
            return None
        a_lo, a_hi, b_lo = min(a), max(a), min(b)
        last = a_hi - max(b) + b_lo   # top exponent of self that fixes a quotient term
        lead = b[b_lo]
        rest = [(e, c) for e, c in b.items() if e != b_lo]
        quot = res.terms
        for e in range(a_lo, a_hi + 1):
            s = a.get(e, 0)
            for eb, cb in rest:
                s -= cb * quot.get(e - eb, 0)
            if s:
                qc, rem = divmod(s, lead)
                if rem or e > last:
                    return None
                quot[e - b_lo] = qc
        return res

    def __repr__(self):
        return f"QLaurent({self.render()})"

    def render_plain(self) -> str:
        """Render in T with exponents taken literally (for polynomials in T)."""
        return self._render(lambda k: _power("T", k))

    def render(self) -> str:
        """Canonical text, ascending degree, v^k shown as q^(k/2)."""
        return self._render(lambda k: f"q^({k}/2)" if k % 2 else _power("q", k // 2))

    def _render(self, power) -> str:
        """Signed terms in ascending degree; power(k) spells the k-th power, k != 0."""
        out = ""
        for k in sorted(self.terms):
            c = self.terms[k]
            if k == 0:
                body = str(abs(c))
            else:
                body = power(k) if abs(c) == 1 else f"{abs(c)}*{power(k)}"
            if out:
                out += " - " if c < 0 else " + "
            elif c < 0:
                out = "-"
            out += body
        return out or "0"


def _power(var: str, e: int) -> str:
    return var if e == 1 else f"{var}^{e}" if e > 0 else f"{var}^({e})"


@dataclass
class LefschetzDecomposition:
    """Outcome of the string decomposition p = sum_k c_k P(N,k).

    P(N,k) = v^N (v^{-k} + v^{-k+2} + ... + v^k).  On failure `center` and
    `multiplicities` are None and `reason` is one of "asymmetric",
    "mixed-parity", "negative-multiplicity".
    """

    center: int | None
    multiplicities: dict[int, int] | None
    reason: str | None

    @property
    def ok(self) -> bool:
        return self.reason is None


def lefschetz_decompose(p: QLaurent) -> LefschetzDecomposition:
    """p as non-negative multiples of the strings P(N,k), read off by differences.

    The candidate center N = (min deg + max deg)/2 is forced; parity of all
    exponents must agree and the coefficients must be bar-symmetric about N.
    The strings through v^{N+k} are those with length k' >= k, so the
    multiplicity of P(N,k) is c_{N+k} - c_{N+k+2}, and each must be
    non-negative.
    """
    assert not p.is_zero(), "lefschetz_decompose requires a nonzero input"
    degs = sorted(p.terms)
    if any((d - degs[0]) % 2 for d in degs):
        return LefschetzDecomposition(None, None, "mixed-parity")
    center = (degs[0] + degs[-1]) // 2     # exact: the exponents share one parity
    c = p.terms
    for d, x in c.items():
        if c.get(2 * center - d, 0) != x:
            return LefschetzDecomposition(None, None, "asymmetric")
    mults: dict[int, int] = {}
    for k in range(degs[-1] - center, -1, -2):
        mult = c.get(center + k, 0) - c.get(center + k + 2, 0)
        if mult < 0:
            return LefschetzDecomposition(None, None, "negative-multiplicity")
        if mult:
            mults[k] = mult
    return LefschetzDecomposition(center, mults, None)


def _lcm_den(dens) -> dict[int, int]:
    """The common denominator of fractions: per-k maximum multiplicities."""
    out: dict[int, int] = {}
    for den in dens:
        for k, m in den.items():
            if m > out.get(k, 0):
                out[k] = m
    return out


def den_product(d1: dict[int, int], d2: dict[int, int]) -> dict[int, int]:
    """The denominator of a product of two fractions: multiplicities add."""
    out = dict(d1)
    for k, m in d2.items():
        out[k] = out.get(k, 0) + m
    return out


def _over(num: QLaurent, have: dict[int, int], den: dict[int, int]) -> dict[int, int]:
    """The terms of num/have rewritten over `den`, a denominator containing `have`.

    Each missing (1 - T^k) is multiplied in as p - p.shift(2k).
    """
    p = num.terms
    for k, m in den.items():
        for _ in range(m - have.get(k, 0)):
            q = dict(p)
            for e, c in p.items():
                s = q.get(e + 2 * k, 0) - c
                if s:
                    q[e + 2 * k] = s
                else:
                    del q[e + 2 * k]
            p = q
    return p


def fraction_sum(parts) -> "PochhammerFraction":
    """sum_i num_i / den_i over a sequence of (num_i, den_i) pairs, cancelled once.

    Every numerator is brought over the per-k maximum of the den_i and added
    into one dict; the single PochhammerFraction built from it runs the only
    cancellation pass.
    """
    den = _lcm_den(d for _, d in parts)
    total: dict[int, int] = {}
    for num, have in parts:
        for e, c in _over(num, have, den).items():
            total[e] = total.get(e, 0) + c
    return PochhammerFraction(QLaurent(total), den)


class PochhammerFraction:
    """An exact quotient  numerator / prod_k (1 - T^k)^{m_k}  with T = v^2.

    The numerator is a QLaurent in v; the denominator is a multiset of
    cyclotomic-style factors stored as {k: multiplicity}.  Sums and products
    of q-Pochhammer series coefficients stay in this shape, and whether a
    coefficient is an honest Laurent polynomial is decided exactly by
    iterated exact division (no power-series windows needed).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QLaurent, den: dict[int, int] | None = None):
        """num / den, with every (1 - T^k) factor that divides num cancelled."""
        self.num, self.den = num, {}
        if num.is_zero():
            return
        for k, m in sorted((den or {}).items()):
            while m > 0:
                q = self.num.divide_exact(QLaurent({0: 1, 2 * k: -1}))
                if q is None:
                    self.den[k] = m
                    break
                self.num, m = q, m - 1

    @staticmethod
    def zero() -> "PochhammerFraction":
        return PochhammerFraction(QLaurent.zero())

    @staticmethod
    def one() -> "PochhammerFraction":
        return PochhammerFraction(QLaurent.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        return not self.den

    def as_laurent(self) -> QLaurent:
        if self.den:
            raise ValueError("denominators did not cancel: " + repr(self))
        return self.num

    def __eq__(self, other):
        if not isinstance(other, PochhammerFraction):
            return NotImplemented
        den = _lcm_den((self.den, other.den))
        return _over(self.num, self.den, den) == _over(other.num, other.den, den)

    def __add__(self, other: "PochhammerFraction") -> "PochhammerFraction":
        return fraction_sum(((self.num, self.den), (other.num, other.den)))

    def __neg__(self) -> "PochhammerFraction":
        res = PochhammerFraction.__new__(PochhammerFraction)
        res.num = -self.num
        res.den = dict(self.den)
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QLaurent):
            other = PochhammerFraction(other)
        return PochhammerFraction(self.num * other.num, den_product(self.den, other.den))

    def shift(self, k: int) -> "PochhammerFraction":
        """Multiply by v^k."""
        res = PochhammerFraction.__new__(PochhammerFraction)
        res.num = self.num.shift(k)
        res.den = dict(self.den)
        return res

    def __repr__(self):
        if not self.den:
            return f"PochFrac({self.num.render()})"
        den = " ".join(f"(1-T^{k})^{m}" if m > 1 else f"(1-T^{k})"
                       for k, m in sorted(self.den.items()))
        return f"PochFrac(({self.num.render()}) / {den})"
