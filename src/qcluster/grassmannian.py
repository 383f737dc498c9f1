"""Quiver Grassmannian point counts over small finite fields.

A count enumerates subspaces, as reduced row echelon representatives, only
at the vertices outside an independent set I, reading arrow invariance
between them from per-arrow tables of which subspaces contain which images.
Each vertex of I is counted in closed form: a Gaussian binomial between the
sum of the images and the intersection of the preimages of its neighbours'
subspaces, whose dimensions come from elimination over GF(q).  Serre
polynomials are fitted through every point by one exact solve over Q
(`linalg.Echelon`), so each point past the first degree_bound + 1 is a
held-out consistency check.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .decorated import DecRep
from .errors import BudgetExceeded, NotPolynomialCount, QClusterError
from .linalg import Echelon
from .qlaurent import QLaurent
from .quiver import QPData, euler_form

# irreducible polynomials (coefficients low -> high) for the default fields
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
    (5, 2): (2, 1, 1),        # x^2 + x + 2
    (7, 2): (1, 0, 1),        # x^2 + 1
}


def _factor_prime_power(q: int):
    if q < 2:
        raise QClusterError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            t = q
            while t % p == 0:
                t //= p
                k += 1
            if t != 1:
                raise QClusterError(f"{q} is not a prime power")
            return p, k
        p += 1
    return q, 1


# add/mul tables hold q^2 entries each; counts are only feasible for tiny q
_MAX_Q = 256
# the default bound on the subspace tuples one gr_count may enumerate
BUDGET = 500000


class GF:
    """The field with q = p^k elements; elements are ints 0..q-1.

    An element encodes its coefficient vector over GF(p) base p (for k = 1
    that is the residue itself).  Addition, negation, multiplication and
    inversion are lookup tables built once at construction, for every q up
    to 256.
    """

    def __init__(self, q: int):
        if q > _MAX_Q:
            raise QClusterError(f"GF({q}) exceeds the largest supported field GF({_MAX_Q})")
        p, k = _factor_prime_power(q)
        modulus = _IRREDUCIBLE.get((p, k))
        if modulus is None and k > 1:
            raise QClusterError(f"no irreducible polynomial stored for GF({q})")
        self.q = q
        self.p = p
        self.k = k
        digits = [[a // p ** i % p for i in range(k)] for a in range(q)]

        def undigits(ds):
            return sum(d * p ** i for i, d in enumerate(ds))

        self._add = [[undigits((x + y) % p for x, y in zip(da, db)) for db in digits]
                     for da in digits]
        self._neg = [undigits(-x % p for x in da) for da in digits]
        self._mul = [[undigits(_poly_mul_mod(da, db, modulus, p)) for db in digits]
                     for da in digits]
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = self._mul[a].index(1)

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def from_fraction(self, fr: int | Fraction) -> int:
        """The rational fr, an int or a Fraction, as an element of the prime field."""
        den = fr.denominator % self.p
        if den == 0:
            raise QClusterError(f"denominator divisible by {self.p}")
        num = fr.numerator % self.p
        return self.mul(num, self.inv(den))


def _poly_mul_mod(da, db, modulus, p):
    """Product of two GF(p) coefficient vectors of length k, reduced mod the
    monic degree-k `modulus` (never read for k = 1)."""
    k = len(da)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        if c:
            prod[top] = 0
            for j in range(k):
                prod[top - k + j] = (prod[top - k + j] - c * modulus[j]) % p
    return prod[:k]


@functools.cache
def gaussian_binomial(d: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^d."""
    if k < 0 or k > d:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def subspaces(field: GF, d: int, k: int):
    """All k-dimensional subspaces of F_q^d as RREF row tuples."""
    if k == 0:
        yield ()
        return
    q = field.q
    for pivots in itertools.combinations(range(d), k):
        free = []
        for i, p in enumerate(pivots):
            for c in range(p + 1, d):
                if c not in pivots:
                    free.append((i, c))
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * d for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), val in zip(free, values):
                rows[i][c] = val
            yield tuple(tuple(r) for r in rows)


@dataclass
class FqRep:
    """A DecRep's matrices reduced into GF(q), plus the tables gr_count builds.

    `tables` holds every table, filled on first use and shared by every
    stratum counted on this FqRep, keyed by (builder, its arguments): see
    `_table`.  The closed-form bounds are keyed by (`_bounds`, vertex, its
    neighbours' sub-dimensions), each a dict from the neighbours' subspace
    indices to (dim L, dim H), or None when L does not lie in H.
    """

    field: GF
    dims: tuple[int, ...]
    mats: dict[str, tuple]         # arrow id -> row tuples, shape dims[src] x dims[tgt]
    arrows: tuple                  # (id, source, target) triples
    tables: dict = field(default_factory=dict, repr=False, compare=False)

    @functools.cached_property
    def links(self) -> dict:
        """Vertex of nonzero dimension -> (arrows out of it as (id, target),
        arrows into it as (id, source), its neighbours), over the arrows
        between two such vertices; a loop makes a vertex its own neighbour."""
        links = {v: ([], [], set()) for v, d in enumerate(self.dims, start=1) if d}
        for aid, src, tgt in self.arrows:
            if src in links and tgt in links:
                links[src][0].append((aid, tgt))
                links[tgt][1].append((aid, src))
                links[src][2].add(tgt)
                links[tgt][2].add(src)
        return {v: (tuple(outs), tuple(ins), tuple(sorted(nbrs)))
                for v, (outs, ins, nbrs) in links.items()}

    @functools.cached_property
    def independent_sets(self) -> list:
        """(I, the other vertices) for every set I of vertices of nonzero
        dimension with no arrow between two of them and no loop, largest
        first."""
        sets = [()]
        for v, (_, _, nbrs) in self.links.items():
            if v not in nbrs:
                sets += [ind + (v,) for ind in sets if not set(ind) & set(nbrs)]
        sets.sort(key=len, reverse=True)
        return [(frozenset(ind), tuple(v for v in self.links if v not in ind))
                for ind in sets]


@functools.cache
def _field(q: int) -> GF:
    """GF(q), built on first use and shared by every FqRep over it."""
    return GF(q)


def to_fq(rep: DecRep, q: int) -> FqRep:
    field = _field(q)
    mats = {}
    arrows = []
    for a in rep.qp.quiver.arrows.values():
        m = rep.mats[a.id]
        mats[a.id] = tuple(tuple(field.from_fraction(x) for x in row) for row in m.a)
        arrows.append((a.id, a.source, a.target))
    return FqRep(field, rep.dims, mats, tuple(arrows))


def gr_count(rep: FqRep, gamma, budget: int = BUDGET) -> int:
    """Points of Gr(rep, gamma): subspace tuples with quotient dims gamma.

    A tuple (U_v) is a submodule when the arrow a: i -> j (acting
    M_j -> M_i) satisfies  a(U_j) <= U_i.  The vertices of the independent
    set I that `enumeration_size` picks are counted in closed form and the
    others are enumerated.  Sets of subspaces at an enumerated vertex are
    int bitsets over its subspace list.  An arrow table maps each U_j to the
    set of U_i containing a(U_j); the search chooses one enumerated vertex
    at a time, from the intersection of the tables of its arrows to
    vertices already chosen.  Once every neighbour of a vertex v in I is
    chosen, v multiplies the count by the number of k_v-subspaces U_v with
    L_v <= U_v <= H_v, where

        L_v = the sum of a(U_j) over the arrows a: v -> j,
        H_v = the intersection of a^{-1}(U_i) over the arrows a: i -> v,

    which is the Gaussian binomial [dim H_v - dim L_v, k_v - dim L_v]_q, or
    0 unless L_v <= H_v.  The last enumerated vertex adds the size of its
    set when no vertex of I waits for it.  The budget bounds the enumerated
    product, checked before any table is built.
    """
    if any(g < 0 or g > d for g, d in zip(gamma, rep.dims)):
        return 0
    sub_dims = [d - g for d, g in zip(rep.dims, gamma)]
    total, closed = _plan(rep, sub_dims)
    if total > budget:
        raise BudgetExceeded(f"enumeration size {total} exceeds budget {budget}")
    sizes = {v: len(_subspace_list(rep, v, sub_dims[v - 1]))
             for v in rep.links if v not in closed}
    # the largest list goes last, where its candidates may be counted, not visited
    order = sorted(sizes, key=sizes.get)
    position = {v: t for t, v in enumerate(order)}
    masks = [(1 << sizes[v]) - 1 for v in order]
    constraints = [[] for _ in order]   # (table, earlier position) per position
    for aid, src, tgt in rep.arrows:
        if src not in position or tgt not in position:
            continue
        table = _arrow_table(rep, aid, src, tgt, sub_dims[src - 1], sub_dims[tgt - 1])
        s, t = position[src], position[tgt]
        if s == t:
            # a loop: U_v must lie in its own table entry
            masks[s] &= sum(1 << i for i, allowed in enumerate(table) if allowed >> i & 1)
        elif s > t:
            constraints[s].append((table, t))
        else:
            constraints[t].append((_transpose(table, sizes[src]), s))
    weight = 1                          # the vertices of I with no neighbour
    waiting = [[] for _ in order]       # factors of I, at their last neighbour's position
    for v in closed:
        nbrs = rep.links[v][2]
        if nbrs:
            waiting[max(position[u] for u in nbrs)].append(
                _closed_factor(rep, v, sub_dims, position))
        else:
            weight *= gaussian_binomial(rep.dims[v - 1], sub_dims[v - 1], rep.field.q)
    last = len(order) - 1
    choice = [0] * len(order)

    def count_from(t):
        cand = masks[t]
        for table, earlier in constraints[t]:
            cand &= table[choice[earlier]]
        if t == last and not waiting[t]:
            return cand.bit_count()
        found = 0
        while cand:
            low = cand & -cand
            choice[t] = low.bit_length() - 1
            cand ^= low
            w = 1
            for factor in waiting[t]:
                w *= factor(choice)
                if not w:
                    break
            if w:
                found += w if t == last else w * count_from(t + 1)
        return found

    try:
        return weight * count_from(0) if order else weight
    finally:
        del count_from      # it refers to itself: break the cycle for refcounting


def enumeration_size(rep: FqRep, gamma) -> int:
    """The subspace tuples gr_count enumerates for gamma, which its budget
    bounds: the product of Gaussian binomials over the vertices outside
    the independent set it counts in closed form."""
    return _plan(rep, [d - g for d, g in zip(rep.dims, gamma)])[0]


def _plan(rep: FqRep, sub_dims) -> tuple[int, frozenset]:
    """(enumerated product, I) for the independent set I that leaves the
    smallest product of Gaussian binomials over the other vertices of
    nonzero dimension; the first such set of `rep.independent_sets`."""
    q = rep.field.q
    return min(((math.prod(gaussian_binomial(rep.dims[v - 1], sub_dims[v - 1], q)
                           for v in others), ind)
                for ind, others in rep.independent_sets), key=lambda plan: plan[0])


def _closed_factor(rep: FqRep, v: int, sub_dims, position: dict):
    """The number of choices of U_v, for v in I, as a function of the
    enumerated choices (subspace indices by position)."""
    outs, ins, nbrs = rep.links[v]
    field, d, k = rep.field, rep.dims[v - 1], sub_dims[v - 1]
    spots = [position[u] for u in nbrs]
    gens = [(_images(rep, aid, tgt, sub_dims[tgt - 1]), position[tgt]) for aid, tgt in outs]
    cons = [(_preimages(rep, aid, src, sub_dims[src - 1]), position[src])
            for aid, src in ins]
    known = rep.tables.setdefault((_bounds, v, tuple(sub_dims[u - 1] for u in nbrs)), {})

    def factor(choice):
        key = tuple(choice[t] for t in spots)
        if key not in known:
            known[key] = _bounds(field, d,
                                 [vec for table, t in gens for vec in table[choice[t]]],
                                 [row for table, t in cons for row in table[choice[t]]])
        dims = known[key]
        return 0 if dims is None else gaussian_binomial(dims[1] - dims[0], k - dims[0], field.q)

    return factor


def _bounds(field: GF, d: int, gens: list, rows: list):
    """(dim L, dim H) for L the span of `gens` and H the common kernel of
    `rows` in F_q^d, or None when L does not lie in H."""
    if any(_dot_row(field, row, vec) for row in rows for vec in gens):
        return None
    return _rank(field, gens), d - _rank(field, rows)


def _rank(field: GF, vectors) -> int:
    """Rank over GF(q), by elimination against rows scaled to lead 1."""
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    basis = []                          # (pivot, row), each zero at earlier pivots
    for vec in vectors:
        for p, row in basis:
            c = vec[p]
            if c:
                m = mul[neg[c]]
                vec = [add[x][m[y]] for x, y in zip(vec, row)]
        for p, x in enumerate(vec):
            if x:
                m = mul[inv[x]]
                basis.append((p, [m[y] for y in vec]))
                break
    return len(basis)


def _table(build):
    """build(rep, *args), computed once per FqRep and kept in rep.tables
    under (build, *args)."""
    @functools.wraps(build)
    def cached(rep: FqRep, *args):
        key = (build, *args)
        if key not in rep.tables:
            rep.tables[key] = build(rep, *args)
        return rep.tables[key]
    return cached


@_table
def _subspace_list(rep: FqRep, v: int, k: int) -> list:
    return list(subspaces(rep.field, rep.dims[v - 1], k))


@_table
def _images(rep: FqRep, aid, tgt: int, k: int) -> list:
    """For each k-subspace U at the arrow's target, the nonzero images under
    the arrow of U's RREF rows."""
    mat = rep.mats[aid]
    table = []
    for rows in _subspace_list(rep, tgt, k):
        images = (tuple(_dot_row(rep.field, mat_row, u) for mat_row in mat)
                  for u in rows)
        table.append([img for img in images if any(img)])
    return table


@_table
def _preimages(rep: FqRep, aid, src: int, k: int) -> list:
    """For each k-subspace U at the arrow's source, the nonzero rows whose
    common kernel is the preimage of U: for each non-pivot column c of U,
    the functional x -> (a(x) reduced by U's RREF rows)_c."""
    add, mul, neg = rep.field._add, rep.field._mul, rep.field._neg
    mat = rep.mats[aid]
    table = []
    for rows in _subspace_list(rep, src, k):
        pivots = [r.index(1) for r in rows]
        functionals = []
        for c, func in enumerate(mat):
            if c in pivots:
                continue
            for r, p in zip(rows, pivots):
                if r[c]:
                    m = mul[neg[r[c]]]
                    func = [add[x][m[y]] for x, y in zip(func, mat[p])]
            if any(func):
                functionals.append(func)
        table.append(functionals)
    return table


@_table
def _incidence(rep: FqRep, v: int, k: int) -> dict:
    """Projective point (first nonzero entry 1) -> bitset of the k-subspaces
    at v that contain it."""
    add, mul, q = rep.field._add, rep.field._mul, rep.field.q
    inc = {}
    for i, rows in enumerate(_subspace_list(rep, v, k)):
        bit = 1 << i
        # the points led by an RREF row are that row plus the span of
        # the rows below it
        span = [(0,) * rep.dims[v - 1]]
        for lead in range(k - 1, -1, -1):
            row = rows[lead]
            for vec in span:
                point = tuple(add[x][y] for x, y in zip(row, vec))
                inc[point] = inc.get(point, 0) | bit
            if lead:
                span = [tuple(add[x][mul[c][y]] for x, y in zip(vec, row))
                        for c in range(q) for vec in span]
    return inc


@_table
def _arrow_table(rep: FqRep, aid, src: int, tgt: int, k_src: int, k_tgt: int) -> list:
    """For each k_tgt-subspace U at tgt, the bitset of k_src-subspaces at src
    that contain the image of U under the arrow."""
    field = rep.field
    inc = _incidence(rep, src, k_src)
    full = (1 << len(_subspace_list(rep, src, k_src))) - 1
    table = []
    for images in _images(rep, aid, tgt, k_tgt):
        allowed = full
        for img in images:
            scale = field.inv(next(x for x in img if x))
            allowed &= inc.get(tuple(field.mul(scale, x) for x in img), 0)
        table.append(allowed)
    return table


def _transpose(table: list, width: int) -> list:
    """The relation of `table` read the other way: for each bit i, the bitset
    of the indices j whose table[j] has bit i."""
    out = [0] * width
    for j, allowed in enumerate(table):
        bit = 1 << j
        while allowed:
            low = allowed & -allowed
            out[low.bit_length() - 1] |= bit
            allowed ^= low
    return out


def _dot_row(field: GF, row, vec):
    total = 0
    for x, y in zip(row, vec):
        if x and y:
            total = field.add(total, field.mul(x, y))
    return total


def serre_interpolate(counts: dict[int, int], degree_bound: int) -> QLaurent:
    """The integer polynomial in T of degree <= degree_bound through every
    {q: count} point.

    The columns (x^d) over the sorted prime powers x, d = 0..degree_bound,
    go into one Echelon and the count vector is reduced against them: a
    nonzero residual means no such polynomial passes through every point
    (the held-out check), and the combination is the coefficient list,
    which must be integral.
    """
    points = sorted(counts.items())
    if len(points) < degree_bound + 2:
        raise NotPolynomialCount(
            f"need at least {degree_bound + 2} prime powers, have {len(points)}")
    powers = Echelon()
    powers.extend([tuple(x ** d for x, _ in points) for d in range(degree_bound + 1)])
    residual, coeffs = powers.reduce(dict(enumerate(y for _, y in points)))
    if residual:
        raise NotPolynomialCount(
            f"the counts fit no polynomial of degree <= {degree_bound}")
    if any(c.denominator != 1 for c in coeffs.values()):
        raise NotPolynomialCount("interpolated coefficients are not integers")
    return QLaurent({d: int(c) for d, c in coeffs.items()})


@dataclass
class CrosscheckRow:
    gamma: tuple[int, ...]
    qr_class: tuple[int, ...] | None
    counts: dict[int, int]
    serre: QLaurent | None
    f_coeff: QLaurent
    match: bool | None
    euler_match: bool | None
    purity_ok: bool
    note: str = ""
    checked: bool = True           # False: over the budget, or too few prime powers


@dataclass
class CrosscheckReport:
    mode: str                      # "hard" or "report"
    rows: list[CrosscheckRow]

    @property
    def ok(self) -> bool:
        """Every row has a Serre polynomial, purity and a matching Euler
        characteristic, and in hard mode a matching coefficient."""
        for row in self.rows:
            if row.serre is None or not row.purity_ok or row.euler_match is False:
                return False
            if self.mode == "hard" and not row.match:
                return False
        return True

    @property
    def unchecked(self) -> list[CrosscheckRow]:
        """The rows whose check did not run."""
        return [row for row in self.rows if not row.checked]


def purity_pattern(p: QLaurent) -> bool:
    """Uniform exponent parity and non-negative coefficients."""
    if p.is_zero():
        return True
    degs = sorted(p.terms)
    return all((d - degs[0]) % 2 == 0 for d in degs) and p.is_nonnegative()


def coefficient_crosscheck(f_coefficients, h1: DecRep, qp_r: QPData, gamma_map,
                           primes, budget: int = BUDGET) -> CrosscheckReport:
    """Compare F-polynomial coefficients with Grassmannian Serre polynomials.

    `f_coefficients` maps the initial-label stratum delta to its QLaurent
    coefficient; Gr(h1, delta) is counted over the given prime powers and
    interpolated.  In hard mode (acyclic mutable part at the h1 end or the
    qp_r end) the exact identity

        F_delta(v) = Serre_delta(v^{-2}) * v^{-chi}

    is asserted.  chi is read at an acyclic end, where the quiver Euler form
    is homological: chi_Q(delta, delta) on h1's quiver when its mutable part
    is acyclic, else chi_{Q_r}(gamma, gamma) with gamma = gamma_map(delta).
    In report mode only Euler characteristics at T = 1 and the purity
    pattern are compared.

    The prime powers are the outer loop, so every stratum counted at one q
    shares one FqRep's subspace and arrow tables.  A row is not checked when
    a count exceeds the budget, or when interpolation fails with fewer than
    the max_dim + 2 prime powers its degree bound needs; its note says what
    would have sufficed.
    """
    if len(set(primes)) < len(primes) or len(primes) < 2:
        raise QClusterError(
            f"need at least two distinct prime powers, got {list(primes)}")
    n = len(next(iter(f_coefficients)))
    mutable = range(1, n + 1)
    at_h1 = h1.qp.quiver.subquiver_is_acyclic(mutable)
    hard = at_h1 or qp_r.quiver.subquiver_is_acyclic(mutable)

    def pad(cls):
        return tuple(cls) + (0,) * (len(h1.dims) - n)

    deltas = sorted(f_coefficients)
    counts = {delta: {} for delta in deltas}
    for q in primes:
        rep = to_fq(h1, q)
        if q == max(primes):
            largest = rep
        for delta in deltas:
            try:
                counts[delta][q] = gr_count(rep, pad(delta), budget)
            except BudgetExceeded:
                pass

    rows = []
    for delta in deltas:
        f_coeff = f_coefficients[delta]
        qr_class = tuple(gamma_map(delta))
        max_dim = sum(d_ * (dd - d_) for d_, dd in zip(delta, h1.dims) if dd >= d_)
        serre = euler_match = match = None
        checked, note = True, ""
        if len(counts[delta]) < len(primes):
            # enumeration sizes grow with q, so the largest q needs the most
            size = enumeration_size(largest, pad(delta))
            checked, note = False, f"enumeration size {size} exceeds budget {budget}"
        else:
            try:
                serre = serre_interpolate(counts[delta], min(max_dim, len(primes) - 2))
            except NotPolynomialCount as exc:
                checked = max_dim <= len(primes) - 2
                note = (f"interpolation failed: {exc}" if checked else
                        f"needs {max_dim + 2} prime powers, have {len(primes)}")
        if serre is not None:
            euler_match = (f_coeff.eval_at_one() == serre.eval_at_one())
            dual = QLaurent({-2 * k: c for k, c in serre.terms.items()})
            if at_h1:
                chi = euler_form(h1.qp.quiver, pad(delta), pad(delta))
            else:
                chi = euler_form(qp_r.quiver, pad(qr_class), pad(qr_class))
            match = (f_coeff == dual.shift(-chi))
        rows.append(CrosscheckRow(tuple(delta), qr_class, counts[delta], serre, f_coeff,
                                  match, euler_match, purity_pattern(f_coeff), note,
                                  checked))
    return CrosscheckReport("hard" if hard else "report", rows)
