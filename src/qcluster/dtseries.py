"""Sign sequences, truncated Pochhammer DT series, and the conjugation route.

The wall-crossing series live in a completed sublattice of the ambient
torus: a ConeSeries is  sum_{gamma >= 0, gamma <= bound}  c_gamma(v) *
X^{base + B~ gamma}, with c_gamma exact PochhammerFraction coefficients.
All commutation factors come from the ambient skew form through the
embedding w_gamma -> X^{B~ gamma}; no separate Euler-form bookkeeping is
needed (the compatible pair already encodes it).

A product of series groups its term pairs by output degree, and equality
the degrees where the two series write their coefficients differently, and
hands them to qlaurent.product_sums in one call (packing, width rule and
cancellation there).  Each series computes its exponents and covectors once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, gt, mul

from .errors import BoundTooSmall, DimensionMismatch, SignAmbiguous, TailNotVanishing
from .linalg import Echelon
from .qlaurent import _MINUS_ONE, _ONE, _ZERO, PochhammerFraction, QLaurent, product_sums
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
    b_trace: tuple[tuple[tuple[int, ...], ...], ...]


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

    __slots__ = ("form", "base", "btilde", "bound", "coeffs", "_rows")

    def __init__(self, form: SkewForm, btilde, bound, base=None, coeffs=None):
        self.form = form
        self.btilde = tuple(tuple(r) for r in btilde)
        self.bound = tuple(bound)
        self.base = tuple(base) if base is not None else (0,) * form.dim
        self.coeffs = {}
        for gamma, c in (coeffs or {}).items():
            if not c.is_zero() and all(g <= b for g, b in zip(gamma, self.bound)):
                self.coeffs[tuple(gamma)] = c
        self._rows = None

    @property
    def n(self) -> int:
        return len(self.bound)

    @staticmethod
    def unit(form, btilde, bound) -> "ConeSeries":
        n = len(bound)
        return ConeSeries(form, btilde, bound,
                          coeffs={(0,) * n: _ONE})

    def embed(self, gamma):
        """B~ gamma as an ambient exponent vector."""
        m = self.form.dim
        return tuple(sum(self.btilde[i][j] * gamma[j] for j in range(self.n))
                     for i in range(m))

    def exponent_of(self, gamma):
        return tuple(b + e for b, e in zip(self.base, self.embed(gamma)))

    def rows(self):
        """(gamma, exponent, covector Lambda(exponent, .), coefficient) per term.

        Computed on first use and kept: a series is immutable.
        """
        if self._rows is None:
            self._rows = [(g, e, self.form.apply(e), c) for g, c in self.coeffs.items()
                          for e in (self.exponent_of(g),)]
        return self._rows

    def _compat(self, other: "ConeSeries"):
        if (self.form != other.form or self.btilde != other.btilde
                or self.bound != other.bound):
            raise DimensionMismatch("cone series live in different completions")

    def __mul__(self, other: "ConeSeries") -> "ConeSeries":
        """The truncated product; each output coefficient is cancelled once.

        X^{e1} X^{e2} = v^{Lambda(e1, e2)} X^{e1+e2}, so the term of a pair
        (g1, g2) is c1 c2 v^{Lambda(e1, e2)} at g1 + g2; with each series'
        exponents and covectors Lambda(e1, .) at hand, a pair's twist is one
        dot product.  qlaurent.product_sums sums every output's pairs on
        packed numerators and cancels it once.
        """
        self._compat(other)
        bound = self.bound
        right = other.rows()
        outputs: dict[tuple, list] = {}
        for g1, _, cov, c1 in self.rows():
            for g2, e2, _, c2 in right:
                g = tuple(map(add, g1, g2))
                if any(map(gt, g, bound)):
                    continue
                outputs.setdefault(g, []).append((c1, c2, sum(map(mul, cov, e2))))
        base = tuple(map(add, self.base, other.base))
        return ConeSeries(self.form, self.btilde, bound, base, product_sums(outputs))

    def __eq__(self, other):
        """Equal bases and, at every degree of either series, equal coefficients.

        The rule of PochhammerFraction ==: two coefficients written with the
        same (num, den) are equal with no arithmetic.  Every other degree,
        where the forms differ or only one series lists a coefficient, has
        its difference summed in one product_sums call and must be zero.
        """
        if not isinstance(other, ConeSeries):
            return NotImplemented
        self._compat(other)
        if self.base != other.base:
            return False
        diffs: dict[tuple, list] = {}
        for g in self.coeffs.keys() | other.coeffs.keys():
            a, b = self.coeffs.get(g, _ZERO), other.coeffs.get(g, _ZERO)
            if not a.same_form(b):
                diffs[g] = [(a, _ONE, 0), (b, _MINUS_ONE, 0)]
        return all(d.is_zero() for d in product_sums(diffs).values())

    def __repr__(self):
        body = ", ".join(f"{g}: {c!r}" for g, c in sorted(self.coeffs.items()))
        return f"ConeSeries(base={self.base}, {{{body}}})"


def _pochhammer_coefficients(depth: int, sign: int):
    """Coefficient of w_{n cls} in (-T^{1/2} w; T)_infty^{sign}, n = 0..depth.

    Plus exponent:  T^{n^2/2} / ((1-T)...(1-T^n));
    minus exponent: (-1)^n T^{n/2} / ((1-T)...(1-T^n)).
    Each is in lowest terms: no 1 - T^k divides a monomial.
    """
    out = []
    for nn in range(depth + 1):
        den = {k: 1 for k in range(1, nn + 1)}
        if sign > 0:
            num = QLaurent.monomial(nn * nn)
        else:
            num = QLaurent.monomial(nn, (-1) ** nn)
        out.append(PochhammerFraction.of(num, den))
    return out


def pochhammer(form: SkewForm, btilde, bound, cls, sign: int) -> ConeSeries:
    """The truncated expansion of (-T^{1/2} w_cls; T)_infty^{sign}."""
    if not any(cls):
        raise BoundTooSmall("pochhammer requires a nonzero class")
    depth = min(b // c for c, b in zip(cls, bound) if c)
    coeffs = {}
    for nn, c in enumerate(_pochhammer_coefficients(depth, sign)):
        coeffs[tuple(nn * x for x in cls)] = c
    return ConeSeries(form, btilde, bound, None, coeffs)


def dt_factors(form: SkewForm, btilde, ks, bound):
    """The ordered pairs (E_i, E_i^{-1}) with A = E_1 E_2 ... E_r.

    E_i is the Pochhammer series of the i-th tracked class, with the
    exponent of the i-th sign; its inverse has the opposite exponent.
    """
    res = sign_sequence(btilde, ks)
    pairs = []
    for sign, cls in zip(res.signs, res.s_classes):
        e = +1 if sign == "+" else -1
        pairs.append((pochhammer(form, btilde, bound, cls, e),
                      pochhammer(form, btilde, bound, cls, -e)))
    return tuple(pairs)


def dt_product_pair(form: SkewForm, btilde, ks, bound):
    """(A, A^{-1}): the factors of dt_factors multiplied out.

    No route calls it (conjugate takes the factors one at a time); the tests
    use it, and bench/tracer.py traces it by name.
    """
    fwd = ConeSeries.unit(form, btilde, bound)
    inv = ConeSeries.unit(form, btilde, bound)
    for factor, factor_inv in dt_factors(form, btilde, ks, bound):
        fwd = fwd * factor
        inv = factor_inv * inv
    return fwd, inv


def conjugate(form: SkewForm, btilde, factors, g, bound) -> TorusElement:
    """A X^g A^{-1} in the truncated torus, returned as a finite element.

    `factors` are the pairs (E_i, E_i^{-1}) of A = E_1 ... E_r, as dt_factors
    returns them.  X^g is conjugated one factor at a time, innermost first:
    T <- E_i T E_i^{-1} for i = r, ..., 1.  Truncation at the bound is a
    quotient by an ideal of the cone ring, so every coefficient within the
    bound equals that of the dense product (A X^g) A^{-1}.  Raises
    TailNotVanishing unless every coefficient within TAIL_MARGIN of the bound
    (entrywise) vanishes, which certifies the theoretical finiteness.
    """
    if any(b < TAIL_MARGIN for b in bound):
        raise TailNotVanishing(
            f"cone bound {tuple(bound)} is below the safety margin {TAIL_MARGIN}",
            suggested_bound=tuple(max(b, TAIL_MARGIN + 1) for b in bound))
    total = ConeSeries(form, btilde, bound, g,
                       {(0,) * len(bound): _ONE})
    for factor, factor_inv in reversed(factors):
        total = factor * total * factor_inv
    safe = tuple(b - TAIL_MARGIN for b in bound)
    terms = {}
    for gamma, c in total.coeffs.items():
        if any(x > s for x, s in zip(gamma, safe)):
            raise TailNotVanishing(
                f"nonzero coefficient at cone depth {gamma}",
                suggested_bound=tuple(b + TAIL_MARGIN for b in bound))
        if not c.is_laurent():
            raise TailNotVanishing(
                f"coefficient at {gamma} kept a series denominator",
                suggested_bound=tuple(b + TAIL_MARGIN for b in bound))
        terms[total.exponent_of(gamma)] = c.as_laurent()
    return TorusElement(form, terms)


def initial_class_map(btilde, ks):
    """The K_0 shadow of Phi(r)^{-1}[1]: Q_r classes to initial labels.

    delta = -C(r) gamma, so gamma holds the coordinates of -delta in C(r)'s
    columns; raises if they are not integers (they always are: C is
    unimodular).
    """
    n = len(btilde[0]) if btilde else 0
    res = sign_sequence(btilde, ks)
    if res.c_matrix_trace:
        c_mat = res.c_matrix_trace[-1]
    else:
        c_mat = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    columns = Echelon()
    columns.extend([tuple(row[j] for row in c_mat) for j in range(n)])

    def to_qr(delta):
        rest, coords = columns.reduce({i: -d for i, d in enumerate(delta)})
        v = [coords.get(j, 0) for j in range(n)]
        assert not rest and all(x.denominator == 1 for x in v), "C-matrix image mismatch"
        return tuple(int(x) for x in v)

    return to_qr


def factorization_check(lhs: ConeSeries, rhs_factors) -> bool:
    """True iff lhs equals the ordered product of rhs_factors up to the bound.

    The product starts from the first factor; only an empty list is
    compared with the unit series.
    """
    factors = list(rhs_factors)
    prod = reduce(mul, factors) if factors else ConeSeries.unit(lhs.form, lhs.btilde, lhs.bound)
    return lhs == prod
