"""Quantum seeds: compatible pairs, frame monomials, mutation, g-vectors.

A seed carries the ambient (initial) skew form, the current form Lambda_M,
the m x n exchange matrix, and the current cluster expressed inside the
initial torus.  Mutation follows the matrix rule and the exchange relation;
the new variable is produced by one exact right division of the two-monomial
numerator by the old variable (only the sum is guaranteed Laurent); the two
monomials go into the division as packed power chains, never built as
elements.  The check after it runs `torus.commutes` on the m - 1 pairs that
hold the new variable, each packed at its own width.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import (DimensionMismatch, IncompatiblePair, InconsistentLattice,
                     NoGVector, NotSkewSymmetric)
from .qlaurent import QLaurent
from .torus import (SkewForm, TorusElement, commutes, divide_power_sum,
                    exact_right_divide, power_product)


def _check_btilde(btilde, m, n):
    if len(btilde) != m or any(len(row) != n for row in btilde):
        raise DimensionMismatch("btilde must be m x n")
    for i in range(n):
        for j in range(n):
            if btilde[i][j] != -btilde[j][i]:
                raise NotSkewSymmetric("upper n x n block of btilde must be skew-symmetric")


def check_compatible(btilde, lam: SkewForm, n: int) -> None:
    """Require B~^t Lambda_M = (I_n | 0): row k is Lambda_M(column k of B~, .)."""
    m = lam.dim
    for k in range(n):
        row = lam.apply(tuple(btilde[i][k] for i in range(m)))
        for j, got in enumerate(row):
            want = 1 if j == k else 0
            if got != want:
                raise IncompatiblePair(
                    f"(B~^t Lambda)[{k + 1}][{j + 1}] = {got}, expected {want}")


class QuantumSeed:
    """Immutable seed (Lambda_M, B~, cluster) living inside the initial torus."""

    __slots__ = ("m", "n", "lam", "btilde", "vars", "initial_form")

    def __init__(self, m, n, lam: SkewForm, btilde, vars, initial_form: SkewForm):
        self.m = m
        self.n = n
        self.lam = lam
        self.btilde = tuple(tuple(r) for r in btilde)
        self.vars = tuple(vars)
        self.initial_form = initial_form

    def btilde_column(self, k: int):
        """Column k (1-based) of B~ as a length-m tuple."""
        return tuple(self.btilde[i][k - 1] for i in range(self.m))

    def __eq__(self, other):
        return (isinstance(other, QuantumSeed) and self.m == other.m and self.n == other.n
                and self.lam == other.lam and self.btilde == other.btilde
                and self.vars == other.vars and self.initial_form == other.initial_form)

    def __repr__(self):
        return f"QuantumSeed(m={self.m}, n={self.n}, btilde={[list(r) for r in self.btilde]})"


def initial_seed(lam: SkewForm, btilde, n: int) -> QuantumSeed:
    """The seed with M(c) = X^c: vars[i] = X^{e_i}, Lambda_M = ambient form."""
    m = lam.dim
    _check_btilde(btilde, m, n)
    check_compatible(btilde, lam, n)
    vars = [TorusElement.basis(lam, i) for i in range(1, m + 1)]
    return QuantumSeed(m, n, lam, btilde, vars, lam)


def _chain(s: QuantumSeed, c, shift: int = 0):
    """(factors, shift') with v^shift M(c) = v^shift' prod vars[i]^c_i, c >= 0.

    The normalising twist is sum_{i<j} Lambda_M(i, j) c_i c_j.
    """
    lam = s.lam
    twist = 0
    for i in range(s.m):
        if c[i]:
            for j in range(i + 1, s.m):
                if c[j]:
                    twist += lam.entries[i][j] * c[i] * c[j]
    return [(s.vars[i], c[i]) for i in range(s.m) if c[i]], shift - twist


def _positive_product(s: QuantumSeed, c, shift: int = 0) -> TorusElement:
    """v^shift M(c) for entrywise non-negative c: normalized ordered product."""
    return power_product(s.initial_form, *_chain(s, c, shift))


def frame_monomial(s: QuantumSeed, c) -> TorusElement:
    """The toric-frame value M(c) inside the initial torus.

    For mixed-sign c this is v^{Lambda_M(c+, c-)} M(c+) M(c-)^{-1} with a
    single exact right division; it exists iff M(c) is Laurent, and the
    division error propagates otherwise.
    """
    if len(c) != s.m:
        raise DimensionMismatch("monomial vector has wrong length")
    cp = tuple(x if x > 0 else 0 for x in c)
    cm = tuple(-x if x < 0 else 0 for x in c)
    if not any(cm):
        return _positive_product(s, cp)
    return exact_right_divide(_positive_product(s, cp, s.lam.pair(cp, cm)),
                              _positive_product(s, cm))


def _matrix_mutation(btilde, m, n, k):
    """Fomin-Zelevinsky rule on an m x n matrix at column/row k (1-based)."""
    k -= 1
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if i == k or j == k:
                out[i][j] = -btilde[i][j]
            else:
                b_ik = btilde[i][k]
                b_kj = btilde[k][j]
                out[i][j] = btilde[i][j] + (abs(b_ik) * b_kj + b_ik * abs(b_kj)) // 2
    return out


def mutate(s: QuantumSeed, k: int) -> QuantumSeed:
    """Seed mutation at direction k (1-based, k <= n), checked: the new pair
    is compatible and the m - 1 pairs holding the new variable commute as
    Lambda_M' says.  Every other pair is s's own, so from initial_seed every
    pair of every seed is checked once; a bad pair of a hand-built s that
    the mutation leaves alone is not reported."""
    if not 1 <= k <= s.n:
        raise DimensionMismatch(f"mutation direction {k} out of range 1..{s.n}")
    btilde_new = _matrix_mutation([list(r) for r in s.btilde], s.m, s.n, k)

    col = s.btilde_column(k)
    p1 = tuple(col[i] if col[i] > 0 else 0 for i in range(s.m))
    p2 = tuple(-col[i] if col[i] < 0 else 0 for i in range(s.m))
    ek = tuple(1 if i == k - 1 else 0 for i in range(s.m))
    new_var = divide_power_sum(s.initial_form,
                               [_chain(s, p, s.lam.pair(p, ek)) for p in (p1, p2)],
                               s.vars[k - 1])

    # Lambda' read off from commutation: both exchange monomials q-commute
    # with X_j with the common exponent Lambda_M(p1 - e_k, e_j) for j != k.
    row = s.lam.apply(tuple(a - b for a, b in zip(p1, ek)))
    lam_new = [list(r) for r in s.lam.entries]
    for j in range(s.m):
        if j != k - 1:
            lam_new[k - 1][j] = row[j]
            lam_new[j][k - 1] = -row[j]
    lam_new = SkewForm(lam_new)

    vars_new = list(s.vars)
    vars_new[k - 1] = new_var
    out = QuantumSeed(s.m, s.n, lam_new, btilde_new, vars_new, s.initial_form)
    check_compatible(out.btilde, out.lam, out.n)
    verify_commutation(out, [tuple(sorted((i, k - 1))) for i in range(s.m) if i != k - 1])
    return out


def verify_commutation(s: QuantumSeed, pairs) -> None:
    """Assert vars[i] vars[j] = v^{2 Lambda_M(i,j)} vars[j] vars[i] exactly for
    each 0-based (i, j) in pairs, in order, and name the first that fails.
    Only the given pairs are checked; `mutate` gives those of its new variable."""
    for i, j in pairs:
        if not commutes(s.vars[i], s.vars[j], 2 * s.lam.entries[i][j]):
            raise InconsistentLattice(
                f"commutation of vars[{i + 1}], vars[{j + 1}] does not match Lambda_M")


@dataclass
class ClusterMonomialResult:
    element: TorusElement
    g_vector: tuple[int, ...]
    f_coefficients: dict[tuple[int, ...], QLaurent]


def mutate_sequence(s: QuantumSeed, ks) -> QuantumSeed:
    prev = None
    for k in ks:
        if prev == k:
            raise DimensionMismatch("consecutive mutation directions must differ")
        s = mutate(s, k)
        prev = k
    return s


def g_vector(r: TorusElement, s0: QuantumSeed) -> tuple[int, ...]:
    """The unique exponent g of r with every exponent in g + B~ Z^n_{>=0}.

    r lives in s0's initial torus and brings its covectors.
    gamma_j(u) = Lambda(u, e_j) - Lambda(g, e_j) must be >= 0 for every term
    u, so g's covector row (j <= n) is the componentwise minimum over the
    terms; only the terms that attain it are checked.  At most one passes:
    if g1 and g2 both did, gamma(g1, g2) = -gamma(g2, g1) >= 0 would make
    both zero, so g2 - g1 = B~ 0 = 0.
    """
    if r.is_zero():
        raise NoGVector("zero element has no g-vector")
    n = s0.n
    rows = r.covectors()
    low = tuple(map(min, zip(*(row[:n] for row in rows.values()))))
    for g, row in rows.items():
        if row[:n] == low and all(_gamma_for(s0, u, g, rows[u], row) is not None
                                  for u in r.terms):
            return g
    raise NoGVector("no dominating exponent")


def _gamma_for(s0: QuantumSeed, u, g, row_u, row_g):
    """gamma in Z^n_{>=0} with B~ gamma = u - g, by linearity from the rows
    Lambda(u, .) and Lambda(g, .): gamma_j = Lambda(u - g, e_j)."""
    gamma = tuple(row_u[j] - row_g[j] for j in range(s0.n))
    if any(x < 0 for x in gamma):
        return None
    for i in range(s0.m):
        if sum(s0.btilde[i][j] * gamma[j] for j in range(s0.n)) != u[i] - g[i]:
            return None
    return gamma


def f_polynomial(r: TorusElement, g, s0: QuantumSeed):
    """Coefficients c_gamma with r = sum_gamma c_gamma * X^g X^{B~ gamma}.

    The raw coefficient at exponent u is rescaled by v^{-Lambda(g, B~ gamma)}
    so the product decomposition holds exactly; Lambda(g, u - g) = Lambda(g, u).
    """
    rows = r.covectors()
    row_g = s0.initial_form.apply(g)
    out: dict[tuple[int, ...], QLaurent] = {}
    for u, c in r.terms.items():
        gamma = _gamma_for(s0, u, g, rows[u], row_g)
        if gamma is None:
            raise InconsistentLattice(f"exponent {u} not of the form g + B~ gamma")
        out[gamma] = c.shift(-sum(map(mul, row_g, u)))
    return out


def cluster_monomial(s0: QuantumSeed, ks, lam) -> ClusterMonomialResult:
    """Mutate along ks, evaluate the frame at lam >= 0, extract g and F-data."""
    if any(x < 0 for x in lam):
        raise DimensionMismatch("cluster monomials need lam >= 0")
    s = mutate_sequence(s0, ks)
    element = frame_monomial(s, lam)
    g = g_vector(element, s0)
    coeffs = f_polynomial(element, g, s0)
    return ClusterMonomialResult(element, g, coeffs)
