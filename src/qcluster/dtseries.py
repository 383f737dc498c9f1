"""Sign sequences, truncated Pochhammer DT series, and the conjugation route.

The wall-crossing series live in a completed sublattice of the ambient
torus: a ConeSeries is  sum_{gamma >= 0, gamma <= bound}  c_gamma(v) *
X^{base + B~ gamma}, with c_gamma exact PochhammerFraction coefficients.
All commutation factors come from the ambient skew form through the
embedding w_gamma -> X^{B~ gamma}; no separate Euler-form bookkeeping is
needed (the compatible pair already encodes it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (BoundTooSmall, CommutationMismatch, DimensionMismatch,
                     SignAmbiguous, TailNotVanishing)
from .qlaurent import PochhammerFraction, QLaurent
from .seed import _matrix_mutation
from .torus import SkewForm, TorusElement

# Cone depths next to the bound that conjugate() requires to vanish.
TAIL_MARGIN = 2


@dataclass
class SignSeqResult:
    """Signs and tracked module classes for a mutation sequence."""

    signs: tuple[str, ...]
    s_classes: tuple[tuple[int, ...], ...]
    c_matrix_trace: tuple[tuple[tuple[int, ...], ...], ...]
    b_trace: tuple[tuple[tuple[int, ...], ...], ...] = field(default=())


def sign_sequence(btilde, ks) -> SignSeqResult:
    """Torsion signs via c-vector sign coherence.

    The principal extension [B~ ; I_n] is mutated along ks; the sign at
    step i is the uniform sign of the k_i-th c-vector before the step, and
    the tracked class is its entrywise absolute value.
    """
    m = len(btilde)
    n = len(btilde[0]) if m else 0
    ext = [list(r) for r in btilde] + [[1 if i == j else 0 for j in range(n)]
                                       for i in range(n)]
    signs = []
    classes = []
    ctrace = []
    btrace = [tuple(tuple(r) for r in ext[:m])]
    prev = None
    for k in ks:
        if not 1 <= k <= n:
            raise DimensionMismatch(f"mutation direction {k} out of 1..{n}")
        if prev == k:
            raise DimensionMismatch("consecutive mutation directions must differ")
        prev = k
        col = [ext[m + i][k - 1] for i in range(n)]
        nonneg = all(x >= 0 for x in col)
        nonpos = all(x <= 0 for x in col)
        if nonneg == nonpos and any(col):
            raise SignAmbiguous(f"c-vector {col} at direction {k} has mixed signs")
        signs.append("+" if nonneg else "-")
        classes.append(tuple(abs(x) for x in col))
        ext = _matrix_mutation(ext, m + n, n, k)
        ctrace.append(tuple(tuple(ext[m + i][j] for j in range(n)) for i in range(n)))
        btrace.append(tuple(tuple(ext[i][j] for j in range(n)) for i in range(m)))
    return SignSeqResult(tuple(signs), tuple(classes), tuple(ctrace), tuple(btrace))


def g_matrix(btilde, ks):
    """Columns [Gamma_{k,j}] of the twisted projectives in the initial basis.

    Tracked through the Keller-Yang triangles: at a + step the new column is
    sum over arrows i'->k of the current quiver minus the old column, at a -
    step the sum runs over arrows k->j'.  Arrow counts are read off the
    mutated exchange matrix.
    """
    m = len(btilde)
    res = sign_sequence(btilde, ks)
    cols = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    for step, k in enumerate(ks):
        b_cur = res.b_trace[step]
        col_k = [b_cur[i][k - 1] for i in range(m)]
        if res.signs[step] == "+":
            counts = [max(-x, 0) for x in col_k]
        else:
            counts = [max(x, 0) for x in col_k]
        new = [sum(counts[i] * cols[i][t] for i in range(m)) - cols[k - 1][t]
               for t in range(m)]
        cols[k - 1] = new
    return [list(c) for c in cols]


def g_of_lambda(btilde, ks, lam):
    """[Gamma_{k,lambda}] = sum_j lam_j [Gamma_{k,j}]."""
    cols = g_matrix(btilde, ks)
    m = len(btilde)
    return tuple(sum(lam[j] * cols[j][t] for j in range(m)) for t in range(m))


class ConeSeries:
    """A truncated element of the completed motivic torus inside T_Lambda."""

    __slots__ = ("form", "base", "btilde", "bound", "coeffs")

    def __init__(self, form: SkewForm, btilde, bound, base=None, coeffs=None):
        self.form = form
        self.btilde = tuple(tuple(r) for r in btilde)
        self.bound = tuple(bound)
        self.base = tuple(base) if base is not None else (0,) * form.dim
        self.coeffs = {}
        for gamma, c in (coeffs or {}).items():
            if isinstance(c, QLaurent):
                c = PochhammerFraction(c)
            if not c.is_zero() and all(g <= b for g, b in zip(gamma, self.bound)):
                self.coeffs[tuple(gamma)] = c

    @property
    def n(self) -> int:
        return len(self.bound)

    @staticmethod
    def unit(form, btilde, bound) -> "ConeSeries":
        n = len(bound)
        return ConeSeries(form, btilde, bound,
                          coeffs={(0,) * n: PochhammerFraction.one()})

    def embed(self, gamma):
        """B~ gamma as an ambient exponent vector."""
        m = self.form.dim
        return tuple(sum(self.btilde[i][j] * gamma[j] for j in range(self.n))
                     for i in range(m))

    def exponent_of(self, gamma):
        return tuple(b + e for b, e in zip(self.base, self.embed(gamma)))

    def _compat(self, other: "ConeSeries"):
        if (self.form != other.form or self.btilde != other.btilde
                or self.bound != other.bound):
            raise DimensionMismatch("cone series live in different completions")

    def __mul__(self, other: "ConeSeries") -> "ConeSeries":
        self._compat(other)
        base = tuple(a + b for a, b in zip(self.base, other.base))
        out: dict[tuple, PochhammerFraction] = {}
        for g1, c1 in self.coeffs.items():
            e1 = self.exponent_of(g1)
            for g2, c2 in other.coeffs.items():
                g = tuple(a + b for a, b in zip(g1, g2))
                if any(x > b for x, b in zip(g, self.bound)):
                    continue
                tw = self.form.pair(e1, other.exponent_of(g2))
                term = (c1 * c2).shift(tw)
                cur = out.get(g)
                out[g] = term if cur is None else cur + term
        return ConeSeries(self.form, self.btilde, self.bound, base, out)

    def __add__(self, other: "ConeSeries") -> "ConeSeries":
        self._compat(other)
        if self.base != other.base:
            raise DimensionMismatch("cone series sums need a common base")
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out[g] + c if g in out else c
        return ConeSeries(self.form, self.btilde, self.bound, self.base, out)

    def __eq__(self, other):
        if not isinstance(other, ConeSeries):
            return NotImplemented
        self._compat(other)
        if self.base != other.base:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        zero = PochhammerFraction.zero()
        return all(self.coeffs.get(g, zero) == other.coeffs.get(g, zero) for g in keys)

    def inverse(self) -> "ConeSeries":
        """Geometric-series inverse; requires unit constant term and base 0."""
        n = self.n
        z = (0,) * n
        c0 = self.coeffs.get(z)
        if any(self.base) or c0 is None or not (c0.is_laurent() and c0.as_laurent().is_one()):
            raise BoundTooSmall("inverse requires base 0 and constant term 1")
        one = ConeSeries.unit(self.form, self.btilde, self.bound)
        nil = ConeSeries(self.form, self.btilde, self.bound, None,
                         {g: -c for g, c in self.coeffs.items() if g != z})
        out = one
        power = one
        for _ in range(sum(self.bound)):
            power = power * nil
            if not power.coeffs:
                break
            out = out + power
        return out

    def __repr__(self):
        body = ", ".join(f"{g}: {c!r}" for g, c in sorted(self.coeffs.items()))
        return f"ConeSeries(base={self.base}, {{{body}}})"


def _pochhammer_coefficients(depth: int, sign: int):
    """Coefficient of w_{n cls} in (-T^{1/2} w; T)_infty^{sign}, n = 0..depth.

    Plus exponent:  T^{n^2/2} / ((1-T)...(1-T^n));
    minus exponent: (-1)^n T^{n/2} / ((1-T)...(1-T^n)).
    """
    out = []
    for nn in range(depth + 1):
        den = {k: 1 for k in range(1, nn + 1)}
        if sign > 0:
            num = QLaurent.monomial(nn * nn)
        else:
            num = QLaurent.monomial(nn, (-1) ** nn)
        out.append(PochhammerFraction(num, den))
    return out


def pochhammer(form: SkewForm, btilde, bound, cls, sign: int) -> ConeSeries:
    """The truncated expansion of (-T^{1/2} w_cls; T)_infty^{sign}."""
    if not any(cls):
        raise BoundTooSmall("pochhammer requires a nonzero class")
    n = len(bound)
    depth = 0
    while all((depth + 1) * c <= b for c, b in zip(cls, bound)):
        depth += 1
    coeffs = {}
    for nn, c in enumerate(_pochhammer_coefficients(depth, sign)):
        coeffs[tuple(nn * x for x in cls)] = c
    return ConeSeries(form, btilde, bound, None, coeffs)


def dt_product_pair(form: SkewForm, btilde, ks, bound):
    """(A, A^{-1}) with the inverse assembled from reversed opposite factors."""
    res = sign_sequence(btilde, ks)
    fwd = ConeSeries.unit(form, btilde, bound)
    inv = ConeSeries.unit(form, btilde, bound)
    for sign, cls in zip(res.signs, res.s_classes):
        e = +1 if sign == "+" else -1
        fwd = fwd * pochhammer(form, btilde, bound, cls, e)
        inv = pochhammer(form, btilde, bound, cls, -e) * inv
    return fwd, inv


def conjugate(series: ConeSeries, g, bound,
              inverse: ConeSeries | None = None) -> TorusElement:
    """A X^g A^{-1} in the truncated torus, returned as a finite element.

    Raises TailNotVanishing unless every coefficient within TAIL_MARGIN of
    the bound (entrywise) vanishes, which certifies the theoretical
    finiteness.  A precomputed inverse (e.g. from dt_product_pair) avoids the
    generic geometric-series inversion.
    """
    if any(b < TAIL_MARGIN for b in bound):
        raise TailNotVanishing(
            f"cone bound {tuple(bound)} is below the safety margin {TAIL_MARGIN}",
            suggested_bound=tuple(max(b, TAIL_MARGIN + 1) for b in bound))
    xg = ConeSeries(series.form, series.btilde, series.bound, g,
                    {(0,) * series.n: PochhammerFraction.one()})
    total = series * xg * (inverse if inverse is not None else series.inverse())
    safe = tuple(b - TAIL_MARGIN for b in bound)
    terms = {}
    for gamma, c in total.coeffs.items():
        if c.is_zero():
            continue
        if any(x > s for x, s in zip(gamma, safe)):
            raise TailNotVanishing(
                f"nonzero coefficient at cone depth {gamma}",
                suggested_bound=tuple(b + TAIL_MARGIN for b in bound))
        if not c.is_laurent():
            raise TailNotVanishing(
                f"coefficient at {gamma} kept a series denominator",
                suggested_bound=tuple(b + TAIL_MARGIN for b in bound))
        terms[total.exponent_of(gamma)] = c.as_laurent()
    return TorusElement(series.form, terms)


def lemma52_step(form: SkewForm, btilde, x_cls, y: TorusElement, eps: int) -> TorusElement:
    """Closed form y (1 + q^{eps/2} x) for x y = q^eps y x, eps = +-1.

    x is the embedded monomial X^{B~ x_cls}; the precondition is that it
    q-commutes with every monomial of y with the single exponent eps.
    """
    if eps not in (1, -1):
        raise CommutationMismatch("eps must be +1 or -1")
    m = form.dim
    n = len(x_cls)
    bx = tuple(sum(btilde[i][j] * x_cls[j] for j in range(n)) for i in range(m))
    for e in y.terms:
        if form.pair(bx, e) != eps:
            raise CommutationMismatch(
                f"Lambda(x, {e}) = {form.pair(bx, e)} != {eps}")
    x = TorusElement.monomial(form, bx, QLaurent.monomial(eps))
    return y + y * x


def framed_extract(series: ConeSeries, lam, bound) -> ConeSeries:
    """The framed series A^{sfr} with A w_{(0,1)} A^{-1} = w_{(0,1)} A^{sfr}.

    Works in the extended lattice Z^n x Z with the framing pairing
    chi((0,1),(gamma,0)) = -sum_i lam_i gamma_i; only framing degree one is
    ever needed, so the extension stays implicit in the v-powers: the framed
    series is A, its coefficient at gamma twisted by v^{-2 lam.gamma}, times
    A^{-1}.
    """
    twisted = {g: c.shift(-2 * sum(l * x for l, x in zip(lam, g)))
               for g, c in series.coeffs.items()}
    product = ConeSeries(series.form, series.btilde, series.bound, None,
                         twisted) * series.inverse()
    return ConeSeries(series.form, series.btilde, bound, None, product.coeffs)


def initial_class_map(btilde, ks):
    """The K_0 shadow of Phi(r)^{-1}[1]: Q_r classes to initial labels.

    delta = -C(r) gamma, so gamma = -C(r)^{-1} delta; raises if delta is not
    in the image lattice (it always is: C is unimodular).
    """
    from fractions import Fraction

    from .linalg import Mat, invert
    n = len(btilde[0])
    res = sign_sequence(btilde, ks)
    if res.c_matrix_trace:
        c_mat = res.c_matrix_trace[-1]
    else:
        c_mat = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    c_inv = invert(Mat(n, n, [list(r) for r in c_mat]))

    def to_qr(delta):
        v = c_inv.apply(tuple(Fraction(-d) for d in delta))
        assert all(x.denominator == 1 for x in v), "C-matrix image mismatch"
        return tuple(int(x) for x in v)

    return to_qr


def factorization_check(lhs: ConeSeries, rhs_factors) -> bool:
    """True iff lhs equals the ordered product of rhs_factors up to the bound."""
    prod = ConeSeries.unit(lhs.form, lhs.btilde, lhs.bound)
    for f in rhs_factors:
        prod = prod * f
    return lhs == prod
