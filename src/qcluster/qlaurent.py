"""Exact Laurent polynomials in v = q^(1/2), Lefschetz strings, Pochhammer fractions.

Everything here is integer arithmetic; no floating point and no rounding
anywhere.  QLaurent is a sparse exponent->coefficient map; the same class
doubles as the coefficient ring in the variable T^(1/2) for motivic weights
(q <-> T).

Packing (Kronecker substitution), the one coefficient kernel of this
module, the torus and the cone series: a Laurent polynomial sum_k c_k v^k is
(lo, x) with lo its lowest degree and x = sum_k c_k 2^((k - lo) bits), its
value at v = 2^bits over v^lo, read back in balanced digits (a digit
>= 2^(bits-1) is negative and borrows one).  A product of packed values is
one integer multiply, and packed values add through `_accumulate`.  The
width rule: bits = B.bit_length() + 2 (`pack_width`) for a proven bound B on
every digit, so every digit, and every residue-class sum below, is less than
2^(bits-2) in size.  L1, the sum of the absolute values of the
coefficients, gives the bounds: L1(a) L1(b) for a product a b, and the sum
of those over the terms of a sum of products.

A PochhammerFraction is num / prod_k (1 - T^k)^m_k with T = v^2.  Every sum
of fractions goes through `product_sums`, sums and differences as products
with 1 and -1: it brings the numerators over the per-k maximum denominator
on packed integers, adds them into one integer per output and applies the
one cancellation rule, `_cancel`: a nonzero P(1) or P(-1), read off as
residues mod 2^bits -+ 1, means nothing cancels; otherwise one divmod by
1 - 2^(2k bits) per tried (1 - T^k), exact by the width rule (proofs there).
The canonical (num, den) is the one that repeated exact division gives.
In `product_sums` a denominator is the multiplicity vector sum_k m_k
2^((k - 1) width), m_k >= 0 (PochhammerFraction's domain), at a width past
every digit sum that arises: a product is one add, a per-k maximum one
guarded subtract ((d | G) - h) & G, G the top bit of each digit, and a
factor count the residue mod 2^width - 1 (proofs there).
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
        """The product with an int or, packed at the width of L1 L1, a QLaurent."""
        res = QLaurent()
        if isinstance(other, int):
            if other:
                res.terms = {k: c * other for k, c in self.terms.items()}
            return res
        if not (self.terms and other.terms):
            return res
        bits = pack_width(_l1(self) * _l1(other))
        lo1, x1 = pack(self.terms, bits)
        lo2, x2 = pack(other.terms, bits)
        return unpack(lo1 + lo2, x1 * x2, bits)

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


def _l1(p: QLaurent) -> int:
    """The sum of the absolute values of the coefficients of p."""
    return sum(map(abs, p.terms.values()))


def pack_width(bound: int) -> int:
    """Slot width in bits for digits of absolute value at most bound: bound < 2^(bits-2)."""
    return bound.bit_length() + 2


def pack(c: dict, bits: int) -> list:
    """The raw coefficient {deg: int} as [lo, sum_k c_k 2^((k - lo) bits)]."""
    lo = min(c)
    x = 0
    for k, z in c.items():
        x += z << ((k - lo) * bits)
    return [lo, x]


def unpack(lo: int, x: int, bits: int) -> QLaurent:
    """The Laurent polynomial of a packed (lo, x), read in balanced digits."""
    res = QLaurent()
    _read_digits(res.terms, lo, x, x.bit_length() // bits + 1, bits)
    return res


def _read_digits(out: dict, lo: int, x: int, n: int, bits: int):
    """Store the nonzero balanced digits of x, at most n of them, from degree lo up.

    Past 32 digits x is split at digit h = n // 2 into its balanced low
    part, the residue of x mod 2^(h bits) of least absolute value, and the
    rest, so the work stays linear in the digits up to a log factor
    instead of one shift of all of x per digit.
    """
    if n > 32:
        h = n // 2
        s = h * bits
        low = x & ((1 << s) - 1)
        if low >> (s - 1):
            low -= 1 << s
        _read_digits(out, lo, low, h, bits)
        _read_digits(out, lo + h, (x - low) >> s, n - h, bits)
        return
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    full = 1 << bits
    while x:
        z = x & mask
        if z >= half:
            z -= full
        if z:
            out[lo] = z
        x = (x - z) >> bits
        lo += 1


def _accumulate(acc: dict, key, lo: int, x: int, bits: int):
    """Add the packed (lo, x) into acc[key] = [lo, x], which keeps the lower lo."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = [lo, x]
    elif lo >= cur[0]:
        cur[1] += x << ((lo - cur[0]) * bits)
    else:
        cur[1] = x + (cur[1] << ((cur[0] - lo) * bits))
        cur[0] = lo


def _over_den(groups: dict, bits: int, width: int) -> tuple[int, int]:
    """The packed sum of each group's numerator times its cofactor.

    groups maps the multiplicity vector of the factors its parts lack to the
    packed sum of their numerators; each missing (1 - T^k) is multiplied in
    as x - x 2^(2k bits), one shift and one subtraction.
    """
    if not any(groups):             # no group, or one that lacks nothing
        return groups.get(0, (0, 0))
    lo = min(low for low, _ in groups.values())
    total = 0
    for missing, (low, x) in groups.items():
        for k, m in _multiplicities(missing, width).items():
            for _ in range(m):
                x -= x << (2 * k * bits)
        total += x << ((low - lo) * bits)
    return lo, total


def _cancel(lo: int, x: int, bound: int, den: dict[int, int], bits: int):
    """(num, den) of the packed numerator (lo, x) over prod_k (1 - T^k)^den[k].

    The one cancellation rule: for k ascending, (1 - T^k) is divided out as
    long as it divides the numerator, up to its multiplicity; den lists k
    ascending.  `bound` is at least the numerator's L1 and below 2^(bits-2).

    A polynomial P = sum_i c_i v^i is divisible by 1 - v^(2k) iff every
    residue class sum s_r = sum_{i = r mod 2k} c_i vanishes, and
    P = Q (1 - v^(2k)) + sum_r s_r v^r.  At v = B = 2^bits the remainder
    has |s_r| <= L1(P) < B/4, so its value is less than B^(2k) - 1 in size
    and is 0 only if every s_r is: one divmod of x by 1 - B^(2k) decides
    divisibility exactly and gives Q's packing.  Each digit of Q is a partial
    sum of one residue class, so it fits the width, and
    L1(Q) <= ceil(#digits(Q) / 2k) L1(P).  That bound is carried forward;
    when it outgrows the width, Q is unpacked, its true L1 taken and, if that
    does not fit either, Q is repacked at its own width.

    Before any divmod, P(1) and P(-1) are read off x: since B = 1 mod B - 1
    and B = -1 mod B + 1, x = P(1) mod (B - 1) and x = P(-1) mod (B + 1),
    and |P(+-1)| <= L1(P) < B/4, so each residue is 0 iff P(+-1) is.  Every
    1 - T^k = 1 - v^(2k) has the factor 1 - T = (1 - v)(1 + v), so when
    either residue is nonzero no factor divides P and the loop is skipped.
    """
    if not x:
        return QLaurent(), {}
    full = 1 << bits
    if not den or x % (full - 1) or x % (full + 1):
        return unpack(lo, x, bits), den
    left = {}
    for k, m in den.items():
        while m:
            if bound >> (bits - 2):          # bound >= 2^(bits-2): too wide
                num = unpack(lo, x, bits)
                bound = _l1(num)
                if pack_width(bound) > bits:
                    bits = pack_width(bound)
                    lo, x = pack(num.terms, bits)
            q, r = divmod(x, 1 - (1 << (2 * k * bits)))
            if r:
                break
            x, m = q, m - 1
            bound *= -(-(x.bit_length() // bits + 1) // (2 * k))
        if m:
            left[k] = m
    return unpack(lo, x, bits), left


def product_sums(outputs: dict) -> dict:
    """{key: sum a b v^s over the parts (a, b, s) of key}, each cancelled once.

    The parts are pairs of PochhammerFractions and a power of v.  Each
    distinct denominator is packed once as sum_k m_k 2^((k - 1) width),
    width = pack_width(2 K M) for the call's largest k, K, and m, M.  A
    part's denominator h, a product, is one add with digits <= 2M; so are
    those of an output's d, their per-k maximum, and the digit sums of d
    and d - h are <= 2 K M < 2^(width-2).  With G the top bit of each
    digit, d_k + 2^(width-1) > h_k, so (d | G) - h borrows across no digit,
    t = ((d | G) - h) & G marks the k with d_k >= h_k and t - (t >>
    (width-1)) masks d_k or h_k in.  A part lacks d - h (no borrow), its
    group key; the factor count, a digit sum below 2^width - 1, is d - h
    mod 2^width - 1 (2^width = 1 there), and each factor has L1 2.  One
    numerator width, from the bound max over outputs of sum_parts
    L1(num_a) L1(num_b) 2^(factors lacked), packs each numerator once; a
    part is one multiply added under its key, each key's cofactor is
    multiplied in once, and each output is summed, cancelled and unpacked
    alone, d read back as {k: m} once.
    """
    fracs = {id(c): c for parts in outputs.values() for a, b, _ in parts for c in (a, b)}
    dens = [c.den for c in fracs.values() if c.den]
    top_k = max(map(max, dens), default=0)
    width = pack_width(2 * top_k * max((max(d.values()) for d in dens), default=0))
    residue = (1 << width) - 1
    guard = ((1 << (top_k * width)) - 1) // residue << (width - 1)
    info = {i: (_l1(c.num), sum(m << ((k - 1) * width) for k, m in c.den.items()))
            for i, c in fracs.items()}
    plan = []
    for key, parts in outputs.items():
        den = 0
        weighted = []
        for a, b, s in parts:
            (l1a, da), (l1b, db) = info[id(a)], info[id(b)]
            have = da + db
            if have != den:
                t = ((den | guard) - have) & guard
                den = have ^ ((den ^ have) & (t - (t >> (width - 1))))
            if l1a and l1b:
                weighted.append((l1a * l1b, have, a, b, s))
        bound = 0
        for w, have, _, _, _ in weighted:
            bound += w << ((den - have) % residue)
        plan.append((key, den, bound, weighted))
    bits = pack_width(max((bound for _, _, bound, _ in plan), default=0))
    packed = {i: pack(c.num.terms, bits) for i, c in fracs.items() if c.num.terms}
    out = {}
    for key, den, bound, weighted in plan:
        groups: dict = {}
        for _, have, a, b, s in weighted:
            (lo1, x1), (lo2, x2) = packed[id(a)], packed[id(b)]
            _accumulate(groups, den - have, lo1 + lo2 + s, x1 * x2, bits)
        out[key] = PochhammerFraction.of(*_cancel(
            *_over_den(groups, bits, width), bound, _multiplicities(den, width), bits))
    return out


def _multiplicities(vec: int, width: int) -> dict[int, int]:
    """The ascending {k: m} of a multiplicity vector; a run of zero digits is one shift."""
    out, k, digit = {}, 1, (1 << width) - 1
    while vec:
        if m := vec & digit:
            out[k] = m
        step = 1 if m else ((vec & -vec).bit_length() - 1) // width
        vec >>= step * width
        k += step
    return out


class PochhammerFraction:
    """An exact quotient  numerator / prod_k (1 - T^k)^{m_k}  with T = v^2.

    The numerator is a QLaurent in v; the denominator is a multiset of
    cyclotomic-style factors stored as {k: multiplicity}.  Sums and products
    of q-Pochhammer series coefficients stay in this shape, and whether a
    coefficient is an honest Laurent polynomial is decided exactly by the
    one cancellation rule, `_cancel` (no power-series windows needed).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QLaurent, den: dict[int, int] | None = None):
        """num / den, with every (1 - T^k) factor that divides num cancelled;
        den needs int k >= 1 and int multiplicities >= 0 (zero ones are dropped)."""
        if any(type(k) is not int or type(m) is not int or k < 1 or m < 0
               for k, m in (den or {}).items()):
            raise ValueError(f"not a denominator {{k >= 1: m >= 0}} of ints: {den}")
        self.num, self.den = num, {}
        if num.terms and den:
            res = product_sums({0: [(PochhammerFraction.of(num, den), _ONE, 0)]})[0]
            self.num, self.den = res.num, res.den

    @staticmethod
    def of(num: QLaurent, den: dict[int, int]) -> "PochhammerFraction":
        """The fraction with this (num, den), taken as already cancelled."""
        res = PochhammerFraction.__new__(PochhammerFraction)
        res.num, res.den = num, den
        return res

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

    def same_form(self, other: "PochhammerFraction") -> bool:
        """Whether both are written with one (num, den): then equal with no arithmetic."""
        return self.num.terms == other.num.terms and self.den == other.den

    def __eq__(self, other):
        """The same (num, den), or a zero self - other (`product_sums`)."""
        if not isinstance(other, PochhammerFraction):
            return NotImplemented
        return self.same_form(other) or product_sums(
            {0: [(self, _ONE, 0), (other, _MINUS_ONE, 0)]})[0].is_zero()

    def __add__(self, other: "PochhammerFraction") -> "PochhammerFraction":
        return product_sums({0: [(self, _ONE, 0), (other, _ONE, 0)]})[0]

    def __neg__(self) -> "PochhammerFraction":
        return PochhammerFraction.of(-self.num, dict(self.den))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "PochhammerFraction") -> "PochhammerFraction":
        return product_sums({0: [(self, other, 0)]})[0]

    def shift(self, k: int) -> "PochhammerFraction":
        """Multiply by v^k."""
        return PochhammerFraction.of(self.num.shift(k), dict(self.den))

    def __repr__(self):
        if not self.den:
            return f"PochFrac({self.num.render()})"
        den = " ".join(f"(1-T^{k})^{m}" if m > 1 else f"(1-T^{k})"
                       for k, m in sorted(self.den.items()))
        return f"PochFrac(({self.num.render()}) / {den})"


# The unit partners that turn sums and differences into product_sums parts,
# and the coefficient a series has at a degree it does not list.
_ONE = PochhammerFraction.of(QLaurent.one(), {})
_ZERO = PochhammerFraction.of(QLaurent(), {})
_MINUS_ONE = PochhammerFraction.of(QLaurent.from_int(-1), {})
