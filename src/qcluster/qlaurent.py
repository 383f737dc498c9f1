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

    def max_deg(self) -> int:
        return max(self.terms)

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

    def render_plain(self, var: str = "T") -> str:
        """Render with exponents taken literally (for polynomials in T)."""
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if k == 0:
                body = str(abs(c))
            else:
                pw = var if k == 1 else f"{var}^{k}" if k > 0 else f"{var}^({k})"
                body = pw if abs(c) == 1 else f"{abs(c)}*{pw}"
            parts.append(("+" if c >= 0 else "-", body))
        sign0, body0 = parts[0]
        out = body0 if sign0 == "+" else "-" + body0
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def render(self, var: str = "q") -> str:
        """Canonical text, ascending degree, v^k shown as q^(k/2)."""
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if k == 0:
                parts.append(("+" if c >= 0 else "-", str(abs(c))))
                continue
            if k % 2 == 0:
                e = k // 2
                pw = var if e == 1 else f"{var}^{e}" if e >= 0 else f"{var}^({e})"
            else:
                pw = f"{var}^({k}/2)"
            body = pw if abs(c) == 1 else f"{abs(c)}*{pw}"
            parts.append(("+" if c >= 0 else "-", body))
        sign0, body0 = parts[0]
        out = body0 if sign0 == "+" else "-" + body0
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


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


def lefschetz_string(center: int, k: int) -> QLaurent:
    """P(N,k) = q^{N/2}(q^{-k/2} + q^{(2-k)/2} + ... + q^{k/2}) as a v-polynomial."""
    return QLaurent({center + e: 1 for e in range(-k, k + 1, 2)})


def lefschetz_decompose(p: QLaurent) -> LefschetzDecomposition:
    """Greedy top-down peel of p into non-negative multiples of P(N,k).

    The candidate center N = (min deg + max deg)/2 is forced; parity of all
    exponents must agree, the coefficients must be bar-symmetric about N, and
    the peeled multiplicities must be non-negative.
    """
    assert not p.is_zero(), "lefschetz_decompose requires a nonzero input"
    degs = sorted(p.terms)
    if any((d - degs[0]) % 2 for d in degs):
        return LefschetzDecomposition(None, None, "mixed-parity")
    center, odd = divmod(degs[0] + degs[-1], 2)
    if odd:
        # single-parity exponents always give an even min+max; defensive only
        return LefschetzDecomposition(None, None, "mixed-parity")
    for d, c in p.terms.items():
        if p.terms.get(2 * center - d, 0) != c:
            return LefschetzDecomposition(None, None, "asymmetric")
    rest = p
    mults: dict[int, int] = {}
    k = degs[-1] - center
    while not rest.is_zero():
        c = rest.terms.get(center + k, 0)
        if c < 0:
            return LefschetzDecomposition(None, None, "negative-multiplicity")
        if c:
            mults[k] = c
            rest = rest - c * lefschetz_string(center, k)
        k -= 2
        if k < 0 and not rest.is_zero():
            # cannot happen for symmetric input; defensive
            return LefschetzDecomposition(None, None, "asymmetric")
    return LefschetzDecomposition(center, mults, None)


def _lcm_den(d1: dict[int, int], d2: dict[int, int]) -> dict[int, int]:
    """The common denominator of two fractions: per-k maximum multiplicities."""
    return {k: max(d1.get(k, 0), d2.get(k, 0)) for k in d1.keys() | d2.keys()}


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

    def _over(self, den: dict[int, int]) -> QLaurent:
        """The numerator over `den`, a denominator that contains self.den."""
        p = self.num
        for k, m in den.items():
            for _ in range(m - self.den.get(k, 0)):
                p = p - p.shift(2 * k)
        return p

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
        den = _lcm_den(self.den, other.den)
        return self._over(den) == other._over(den)

    def __add__(self, other: "PochhammerFraction") -> "PochhammerFraction":
        den = _lcm_den(self.den, other.den)
        return PochhammerFraction(self._over(den) + other._over(den), den)

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
        den = {k: self.den.get(k, 0) + other.den.get(k, 0)
               for k in set(self.den) | set(other.den)}
        return PochhammerFraction(self.num * other.num, den)

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
