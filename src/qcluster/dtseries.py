"""Sign sequences, truncated Pochhammer DT series, and the conjugation route.

Every tropical datum of a mutation sequence (c-vector signs and classes,
the C-matrix, the g-vectors) comes from one walk of [B~ ; I_n].

The wall-crossing series live in the quantum torus of the charge lattice
Z^n: a ConeSeries is  sum_{gamma >= 0, gamma <= bound}  c_gamma(v) w_gamma,
with c_gamma exact PochhammerFraction coefficients and
w_a w_b = v^{K(a, b)} w_{a+b}.  The cone form K = B~^T Lambda B~
(`cone_form`) is the ambient form read through w_gamma -> X^{B~ gamma}; it
needs no compatibility, and on a compatible pair it is the exchange matrix.
Only `conjugate` reads B~, g and Lambda: it keeps A X^g A^{-1} as S X^g, S a
cone series, and writes each term as an ambient monomial at the end.

A product of series groups its term pairs by output degree, and equality
the degrees where the two series write their coefficients differently, and
hands them to qlaurent.product_sums in one call (packing, width rule and
cancellation there).  Each series computes its covectors once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, gt, mul

from .errors import (BoundTooSmall, DimensionMismatch, InconsistentLattice, SignAmbiguous,
                     TailNotVanishing)
from .qlaurent import _MINUS_ONE, _ONE, _ZERO, PochhammerFraction, QLaurent, product_sums
from .seed import _matrix_mutation
from .torus import SkewForm, TorusElement

# Cone depths next to the bound that conjugate() requires to vanish.
TAIL_MARGIN = 2


@dataclass
class SignSeqResult:
    """The tropical data of a mutation sequence, read off one walk.

    Per step: the sign of the mutated c-vector and its class, the entrywise
    absolute value.  After the last step: b, the rows of B~; c, the rows of
    the C-matrix, whose columns are the c-vectors; and g, the g-vector of
    each of the m labels in the initial basis (frozen labels keep e_j).
    """

    signs: tuple[str, ...]
    s_classes: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]
    c: tuple[tuple[int, ...], ...]
    g: tuple[tuple[int, ...], ...]


def sign_sequence(btilde, ks) -> SignSeqResult:
    """Torsion signs, c-vectors and g-vectors in one walk of [B~ ; I_n].

    The principal extension is mutated along ks; the sign at step i is the
    uniform sign of the k_i-th c-vector before the step, and the tracked
    class is its entrywise absolute value.  The g-vectors follow the
    Keller-Yang triangles: at a + step the new g-vector of k is the sum over
    arrows i'->k of the current quiver minus the old one, at a - step the
    sum runs over arrows k->j'.  Arrow counts are read off B~ before the step.
    """
    m = len(btilde)
    n = len(btilde[0]) if m else 0
    ext = [list(r) for r in btilde] + [[int(i == j) for j in range(n)] for i in range(n)]
    g = [[int(i == j) for i in range(m)] for j in range(m)]
    signs = []
    classes = []
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
        arrows = [max(-r[k - 1] if nonneg else r[k - 1], 0) for r in ext[:m]]
        g[k - 1] = [sum(a * gi[t] for a, gi in zip(arrows, g)) - g[k - 1][t]
                    for t in range(m)]
        ext = _matrix_mutation(ext, m + n, n, k)
    return SignSeqResult(tuple(signs), tuple(classes), tuple(map(tuple, ext[:m])),
                         tuple(map(tuple, ext[m:])), tuple(map(tuple, g)))


def g_of_lambda(btilde, ks, lam):
    """[Gamma_{k,lambda}] = sum_j lam_j [Gamma_{k,j}], with sign_sequence's g-vectors."""
    g = sign_sequence(btilde, ks).g
    m = len(btilde)
    return tuple(sum(lam[j] * g[j][t] for j in range(m)) for t in range(m))


def cone_form(form: SkewForm, btilde) -> SkewForm:
    """K = B~^T Lambda B~ on Z^n, so K(a, b) = Lambda(B~ a, B~ b).

    Exact on any pair; on a compatible one (B~^T Lambda = [I 0]) it is the
    exchange matrix B, the upper n x n block of B~.
    """
    cols = list(zip(*btilde))
    return SkewForm([[sum(map(mul, form.apply(a), b)) for b in cols] for a in cols])


class ConeSeries:
    """A truncated element of the completed quantum torus of Z^n under K."""

    __slots__ = ("form", "bound", "coeffs", "_rows")

    def __init__(self, form: SkewForm, bound, coeffs=None):
        self.form = form
        self.bound = tuple(bound)
        self.coeffs = {}
        for gamma, c in (coeffs or {}).items():
            if not c.is_zero() and all(g <= b for g, b in zip(gamma, self.bound)):
                self.coeffs[tuple(gamma)] = c
        self._rows = None

    @staticmethod
    def unit(form, bound) -> "ConeSeries":
        return ConeSeries(form, bound, {(0,) * len(bound): _ONE})

    def rows(self):
        """(gamma, covector K(gamma, .), coefficient) per term.

        Computed on first use and kept: a series is immutable.
        """
        if self._rows is None:
            self._rows = [(g, self.form.apply(g), c) for g, c in self.coeffs.items()]
        return self._rows

    def _compat(self, other: "ConeSeries"):
        if self.form != other.form or self.bound != other.bound:
            raise DimensionMismatch("cone series live in different completions")

    def __mul__(self, other: "ConeSeries") -> "ConeSeries":
        """The truncated product; each output coefficient is cancelled once.

        w_{g1} w_{g2} = v^{K(g1, g2)} w_{g1+g2}, so the term of a pair is
        c1 c2 v^{K(g1, g2)} at g1 + g2; with the left series' covectors
        K(g1, .) at hand, a pair's twist is one dot product.
        qlaurent.product_sums sums every output's pairs on packed numerators
        and cancels it once.
        """
        self._compat(other)
        bound = self.bound
        right = other.rows()
        outputs: dict[tuple, list] = {}
        for g1, cov, c1 in self.rows():
            for g2, _, c2 in right:
                g = tuple(map(add, g1, g2))
                if any(map(gt, g, bound)):
                    continue
                outputs.setdefault(g, []).append((c1, c2, sum(map(mul, cov, g2))))
        return ConeSeries(self.form, bound, product_sums(outputs))

    def __eq__(self, other):
        """At every degree of either series, equal coefficients.

        The rule of PochhammerFraction ==: two coefficients written with the
        same (num, den) are equal with no arithmetic.  Every other degree,
        where the forms differ or only one series lists a coefficient, has
        its difference summed in one product_sums call and must be zero.
        """
        if not isinstance(other, ConeSeries):
            return NotImplemented
        self._compat(other)
        diffs: dict[tuple, list] = {}
        for g in self.coeffs.keys() | other.coeffs.keys():
            a, b = self.coeffs.get(g, _ZERO), other.coeffs.get(g, _ZERO)
            if not a.same_form(b):
                diffs[g] = [(a, _ONE, 0), (b, _MINUS_ONE, 0)]
        return all(d.is_zero() for d in product_sums(diffs).values())

    def __repr__(self):
        body = ", ".join(f"{g}: {c!r}" for g, c in sorted(self.coeffs.items()))
        return f"ConeSeries({{{body}}})"


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


def pochhammer(form: SkewForm, bound, cls, sign: int) -> ConeSeries:
    """The truncated expansion of (-T^{1/2} w_cls; T)_infty^{sign} under the cone form."""
    if not any(cls):
        raise BoundTooSmall("pochhammer requires a nonzero class")
    depth = min(b // c for c, b in zip(cls, bound) if c)
    coeffs = {}
    for nn, c in enumerate(_pochhammer_coefficients(depth, sign)):
        coeffs[tuple(nn * x for x in cls)] = c
    return ConeSeries(form, bound, coeffs)


def dt_factors(form: SkewForm, btilde, ks, bound):
    """The ordered pairs (E_i, E_i^{-1}) with A = E_1 E_2 ... E_r.

    E_i is the Pochhammer series of the i-th tracked class, with the
    exponent of the i-th sign; its inverse has the opposite exponent.  All
    live under cone_form(form, btilde).
    """
    res = sign_sequence(btilde, ks)
    cone = cone_form(form, btilde)
    pairs = []
    for sign, cls in zip(res.signs, res.s_classes):
        e = +1 if sign == "+" else -1
        pairs.append((pochhammer(cone, bound, cls, e), pochhammer(cone, bound, cls, -e)))
    return tuple(pairs)


def dt_product_pair(form: SkewForm, btilde, ks, bound):
    """(A, A^{-1}): the factors of dt_factors multiplied out.

    No route calls it (conjugate takes the factors one at a time); the tests
    use it, and bench/tracer.py traces it by name.
    """
    fwd = inv = ConeSeries.unit(cone_form(form, btilde), bound)
    for factor, factor_inv in dt_factors(form, btilde, ks, bound):
        fwd = fwd * factor
        inv = factor_inv * inv
    return fwd, inv


def conjugate(form: SkewForm, btilde, factors, g, bound) -> TorusElement:
    """A X^g A^{-1} in the truncated torus, returned as a finite element.

    `factors` are the pairs (E_i, E_i^{-1}) of A = E_1 ... E_r, as dt_factors
    returns them.  The one place the ambient torus enters: w_gamma stands for
    X^{B~ gamma}, so with r_j = Lambda(B~ e_j, g), X^g w_gamma = sigma(w_gamma)
    X^g for sigma(w_gamma) = v^{-2 r.gamma} w_gamma.  The conjugate is kept as
    S X^g, one factor at a time, innermost first:  S <- E_i S sigma(E_i^{-1})
    for i = r, ..., 1, and each term c_gamma w_gamma X^g is written as
    c_gamma v^{r.gamma} X^{g + B~ gamma}.  Truncation at the bound is a
    quotient by an ideal of the cone ring, so every coefficient within the
    bound equals that of the dense product (A X^g) A^{-1}.  Raises
    TailNotVanishing unless every coefficient within TAIL_MARGIN of the bound
    (entrywise) vanishes, which certifies the theoretical finiteness.
    """
    if any(b < TAIL_MARGIN for b in bound):
        raise TailNotVanishing(
            f"cone bound {tuple(bound)} is below the safety margin {TAIL_MARGIN}",
            suggested_bound=tuple(max(b, TAIL_MARGIN + 1) for b in bound))
    r = [form.pair(col, g) for col in zip(*btilde)]
    total = ConeSeries.unit(cone_form(form, btilde), bound)
    for factor, factor_inv in reversed(factors):
        sigma = {gamma: PochhammerFraction.of(c.num.shift(-2 * sum(map(mul, r, gamma))), c.den)
                 for gamma, c in factor_inv.coeffs.items()}
        total = factor * total * ConeSeries(factor_inv.form, factor_inv.bound, sigma)
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
        exponent = tuple(x + sum(map(mul, row, gamma)) for x, row in zip(g, btilde))
        terms[exponent] = c.as_laurent().shift(sum(map(mul, r, gamma)))
    return TorusElement(form, terms)


def initial_class_map(btilde, ks):
    """The K_0 shadow of Phi(r)^{-1}[1]: Q_r classes to initial labels.

    delta = -C(r) gamma.  By tropical duality (Nakanishi-Zelevinsky) the
    matrix G whose rows are the mutable parts of the first n g-vectors
    inverts C(r): G C = I, so gamma = -G delta.  Raises InconsistentLattice
    when G C = I fails, which would mean the walk is wrong.
    """
    res = sign_sequence(btilde, ks)
    n = len(res.c)
    g = [row[:n] for row in res.g[:n]]
    if any(sum(map(mul, row, col)) != int(i == j)
           for i, row in enumerate(g) for j, col in enumerate(zip(*res.c))):
        raise InconsistentLattice(f"g-vectors {g} do not invert the C-matrix {res.c}")

    def to_qr(delta):
        return tuple(-sum(map(mul, row, delta)) for row in g)

    return to_qr


def factorization_check(lhs: ConeSeries, rhs_factors) -> bool:
    """True iff lhs equals the ordered product of rhs_factors up to the bound.

    The product starts from the first factor; only an empty list is
    compared with the unit series.
    """
    factors = list(rhs_factors)
    prod = reduce(mul, factors) if factors else ConeSeries.unit(lhs.form, lhs.bound)
    return lhs == prod
