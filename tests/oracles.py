"""Independent brute-force oracles the package code must agree with.

Nothing here imports from qcluster's algebra internals: commutative cluster
mutation is redone from scratch on exponent dictionaries, power series are
expanded by long division, and submodules are enumerated by closure.  The
per-tuple Grassmannian count takes only the RREF subspace enumeration from
the package, which test_grassmannian checks on its own.  The table-driven
count enumerates every vertex through the package's per-arrow subspace
tables, which `gr_count` reads between enumerated vertices and the per-tuple
count checks.  The F-decomposition rebuild uses the package's torus
arithmetic, which test_torus checks on its own, and the pairwise cone
product reads only the series' coefficients, exponents and skew form.  The
dense conjugation multiplies whole series with the package's cone product,
which the pairwise product checks.  The torus product and division here
work one term pair at a time in QLaurent arithmetic, apart from the torus
product kernel.  The per-summand H^1 mutates every summand copy on its own
and puts the copies together here.
The Jacobi dimensions row-reduce the derivative ideal with the package's
`linalg.Echelon`; Serre polynomials are interpolated by Lagrange's formula
in Fraction arithmetic, not by that echelon.  Lemma 5.2's closed form and
the framed series of Thm 5.3 use the package's torus and cone arithmetic,
and the tests check both against `conjugate` and the mutation route.
The Pochhammer fractions cancel by repeated QLaurent.divide_exact, the
rule the packed cancellation replaced.
The Q_r class map solves C(r) gamma = -delta with the package's
`linalg.Echelon`, the solve that tropical duality replaced, on a C-matrix
mutated here.
"""

from fractions import Fraction

from qcluster.errors import QClusterError


# --- linear algebra over Q in Fraction arithmetic ---

def rational_rref(rows, ncols):
    """(nonzero reduced row echelon rows, pivot columns) of rational rows."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def rank(mat):
    """The rank of a package Mat, read off the package's `rref`."""
    from qcluster.linalg import rref

    return len(rref(mat)[1])


# --- commutative multivariate Laurent polynomials as {exponent tuple: int} ---

def cadd(p1, p2):
    out = dict(p1)
    for e, c in p2.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def cmul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def cmono(m, i=None, power=1):
    e = [0] * m
    if i is not None:
        e[i] = power
    return {tuple(e): 1}


def cdiv_exact(num, den):
    """num/den in Laurent polynomials, or None; graded-lex long division."""
    if not num:
        return {}
    m = len(next(iter(den)))
    lo = tuple(min(e[i] for e in num) - min(e[i] for e in den) for i in range(m))
    hi = tuple(max(e[i] for e in num) - max(e[i] for e in den) for i in range(m))
    if any(a > b for a, b in zip(lo, hi)):
        return None
    key = lambda e: (sum(e), e)
    ed = max(den, key=key)
    cd = den[ed]
    rem = dict(num)
    quot = {}
    while rem:
        er = max(rem, key=key)
        eq = tuple(a - b for a, b in zip(er, ed))
        if any(x < a or x > b for x, a, b in zip(eq, lo, hi)):
            return None
        cq, r = divmod(rem[er], cd)
        if r:
            return None
        quot[eq] = cq
        for e, c in den.items():
            k = tuple(a + b for a, b in zip(e, eq))
            s = rem.get(k, 0) - cq * c
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return quot


# --- Laurent polynomials in v as {exponent: int}, and (1 - T^k) fractions ---

def lmul(p1, p2):
    return {e[0]: c for e, c in cmul({(e,): c for e, c in p1.items()},
                                     {(e,): c for e, c in p2.items()}).items()}


def laurent_divide_exact(num, den):
    """num/den in Z[v^{+-1}], or None: top-down long division, one term at a time."""
    if not num:
        return {}
    n0, d0 = min(num), min(den)
    rem = {k - n0: c for k, c in num.items()}
    den = {k - d0: c for k, c in den.items()}
    dmax = max(den)
    dlead = den[dmax]
    quot = {}
    while rem:
        nmax = max(rem)
        if nmax < dmax:
            return None
        lead, r = divmod(rem[nmax], dlead)
        if r:
            return None
        qe = nmax - dmax
        quot[qe + n0 - d0] = lead
        for e, c in den.items():
            k = e + qe
            s = rem.get(k, 0) - lead * c
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return quot


def lefschetz_string(center, k):
    """P(N,k) = q^{N/2}(q^{-k/2} + q^{(2-k)/2} + ... + q^{k/2}) as a v-polynomial."""
    from qcluster.qlaurent import QLaurent

    return QLaurent({center + e: 1 for e in range(-k, k + 1, 2)})


def pochhammer_denominator(den):
    """prod_k (1 - T^k)^{m_k} with T = v^2, expanded."""
    out = {0: 1}
    for k, m in den.items():
        for _ in range(m):
            out = lmul(out, {0: 1, 2 * k: -1})
    return out


def fractions_equal(num1, den1, num2, den2):
    """num1/den1 == num2/den2 by cross-multiplying the full denominators."""
    return (lmul(num1, pochhammer_denominator(den2))
            == lmul(num2, pochhammer_denominator(den1)))


def fraction_is_laurent(num, den):
    return laurent_divide_exact(num, pochhammer_denominator(den)) is not None


# --- Pochhammer fractions by repeated exact division ---
# The cancellation and summation PochhammerFraction and the cone product ran
# before they moved to packed numerators, kept as they were: each
# (1 - T^k) is tried with QLaurent.divide_exact, which
# test_divide_exact_matches_long_division checks against long division.

def _lcm_den(dens):
    """The common denominator of fractions: per-k maximum multiplicities."""
    out = {}
    for den in dens:
        for k, m in den.items():
            if m > out.get(k, 0):
                out[k] = m
    return out


def _over(num, have, den):
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


def cancel_by_division(num, den):
    """(num, den) with every (1 - T^k) that divides num cancelled, k ascending."""
    from qcluster.qlaurent import QLaurent

    out = {}
    if num.is_zero():
        return num, out
    for k, m in sorted((den or {}).items()):
        while m > 0:
            q = num.divide_exact(QLaurent({0: 1, 2 * k: -1}))
            if q is None:
                out[k] = m
                break
            num, m = q, m - 1
    return num, out


def fraction_sum_by_division(parts):
    """sum_i num_i / den_i over (num_i, den_i) pairs as (num, den), cancelled once.

    Every numerator is brought over the per-k maximum of the den_i and added
    into one dict, which one cancellation pass then reduces.
    """
    from qcluster.qlaurent import QLaurent

    den = _lcm_den(d for _, d in parts)
    total = {}
    for num, have in parts:
        for e, c in _over(num, have, den).items():
            total[e] = total.get(e, 0) + c
    return cancel_by_division(QLaurent(total), den)


def cone_mul_by_division(a, b):
    """a * b for two ConeSeries as {cone degree: (num, den)} of the nonzero outputs.

    The terms c1 c2 v^{Lambda(e1, e2)} of each output are collected with
    their product denominators and summed by fraction_sum_by_division.
    """
    parts = {}
    for g1, c1 in a.coeffs.items():
        e1 = a.exponent_of(g1)
        for g2, c2 in b.coeffs.items():
            g = tuple(x + y for x, y in zip(g1, g2))
            if any(x > bd for x, bd in zip(g, a.bound)):
                continue
            den = {k: c1.den.get(k, 0) + c2.den.get(k, 0)
                   for k in c1.den.keys() | c2.den.keys()}
            parts.setdefault(g, []).append(
                ((c1.num * c2.num).shift(a.form.pair(e1, b.exponent_of(g2))), den))
    out = {g: fraction_sum_by_division(terms) for g, terms in parts.items()}
    return {g: (num, den) for g, (num, den) in out.items() if not num.is_zero()}


def specialize_v1(element):
    """A TorusElement at v = 1: a commutative Laurent polynomial {exponent: int}."""
    return {e: sum(c.terms.values()) for e, c in element.terms.items()}


def _mutate_matrix(bt, m, n, k):
    k -= 1
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if i == k or j == k:
                out[i][j] = -bt[i][j]
            else:
                out[i][j] = bt[i][j] + (abs(bt[i][k]) * bt[k][j]
                                        + bt[i][k] * abs(bt[k][j])) // 2
    return out


def class_map_by_solve(btilde, ks):
    """Q_r classes to initial labels: the integer gamma with C(r) gamma = -delta.

    C(r) is the bottom block of [B~; I_n] mutated along ks; the coordinates
    of -delta in its columns come from one rational echelon solve and must
    be integers, since C(r) is unimodular.
    """
    from qcluster.linalg import Echelon

    m = len(btilde)
    n = len(btilde[0]) if m else 0
    ext = [list(r) for r in btilde] + [[int(i == j) for j in range(n)] for i in range(n)]
    for k in ks:
        ext = _mutate_matrix(ext, m + n, n, k)
    columns = Echelon()
    columns.extend([tuple(row[j] for row in ext[m:]) for j in range(n)])

    def to_qr(delta):
        rest, coords = columns.reduce({i: -d for i, d in enumerate(delta)})
        gamma = [coords.get(j, 0) for j in range(n)]
        assert not rest and all(x.denominator == 1 for x in gamma), "C-matrix image mismatch"
        return tuple(int(x) for x in gamma)

    return to_qr


def commutative_cluster_monomial(btilde, ks, lam):
    """The q = 1 cluster monomial in the initial variables, by brute force."""
    m = len(btilde)
    n = len(btilde[0]) if m else 0
    bt = [list(r) for r in btilde]
    xs = [cmono(m, i) for i in range(m)]
    for k in ks:
        col = [bt[i][k - 1] for i in range(m)]
        t1 = cmono(m)
        t2 = cmono(m)
        for i in range(m):
            if col[i] > 0:
                t1 = cmul(t1, cmul_pow(xs[i], col[i]))
            elif col[i] < 0:
                t2 = cmul(t2, cmul_pow(xs[i], -col[i]))
        new = cdiv_exact(cadd(t1, t2), xs[k - 1])
        assert new is not None, "commutative Laurent phenomenon failed"
        xs[k - 1] = new
        bt = _mutate_matrix(bt, m, n, k)
    out = cmono(m)
    for i in range(m):
        out = cmul(out, cmul_pow(xs[i], lam[i]))
    return out


def cmul_pow(p, e):
    out = cmono(len(next(iter(p))))
    for _ in range(e):
        out = cmul(out, p)
    return out


# --- power series oracle for Pochhammer denominators ---

def series_inverse_product(factor_exponents, terms):
    """Coefficients of prod_k 1/(1 - T^k) for k in factor_exponents, length `terms`."""
    coeffs = [Fraction(0)] * terms
    coeffs[0] = Fraction(1)
    for k in factor_exponents:
        out = [Fraction(0)] * terms
        for d in range(terms):
            out[d] = coeffs[d] + (out[d - k] if d >= k else 0)
        coeffs = out
    return coeffs


def expand_t_power_quotient(numer_exp, factor_exponents, terms):
    """Series coefficients of T^numer_exp / prod (1 - T^k), length `terms`."""
    base = series_inverse_product(factor_exponents, terms)
    return [Fraction(0)] * numer_exp + base[:terms - numer_exp]


# --- submodule enumeration by closure (independent of RREF machinery) ---

def count_submodules_by_closure(field, dims, arrows, mats):
    """Total number of submodule tuples, by BFS closure over vector insertions.

    `arrows` is a list of (source, target); mats[idx] maps the target space
    to the source space (row tuples over the field).  Intended for total
    dimension <= 4 over tiny fields.
    """
    m = len(dims)
    offs = [0]
    for d in dims:
        offs.append(offs[-1] + d)
    total = offs[-1]

    def vertex_of(pos):
        for v in range(m):
            if offs[v] <= pos < offs[v + 1]:
                return v

    def apply_arrows(vec):
        """Images of a global vector under every arrow (as global vectors)."""
        out = []
        for (src, tgt), mat in zip(arrows, mats):
            local = vec[offs[tgt - 1]:offs[tgt]]
            img = [0] * total
            for i, row in enumerate(mat):
                s = 0
                for x, y in zip(row, local):
                    s = field.add[s][field.mul[x][y]]
                img[offs[src - 1] + i] = s
            if any(img):
                out.append(tuple(img))
        return out

    def full_rref(vectors):
        """Canonical reduced row echelon rows of the span."""
        rows = [list(v) for v in vectors]
        pivots = []
        r = 0
        for c in range(total):
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = field.inv[rows[r][c]]
            rows[r] = [field.mul[inv][x] for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [field.add[a][field.neg[field.mul[f][b]]]
                               for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        return tuple(tuple(row) for row in rows[:r])

    def span_closure(vectors):
        """Canonical RREF of the arrow-closure of a set of global vectors."""
        current = full_rref(vectors)
        while True:
            images = []
            for v in current:
                images.extend(apply_arrows(v))
            bigger = full_rref(list(current) + images)
            if bigger == current:
                return current
            current = bigger

    def is_graded(rows):
        """Row space decomposes across vertices (echelon rows are vertex-pure)."""
        for row in rows:
            verts = {vertex_of(i) for i, x in enumerate(row) if x}
            if len(verts) > 1:
                return False
        return True

    all_vecs = _all_vectors(field, total)
    seen = set()
    frontier = {span_closure([])}
    seen.add(span_closure([]))
    result = set()
    while frontier:
        nxt = set()
        for sub in frontier:
            if is_graded(sub):
                result.add(sub)
            current_rows = list(sub)
            for v in all_vecs:
                # skip vectors already inside
                vv = list(v)
                for row in current_rows:
                    lead = next(i for i, x in enumerate(row) if x)
                    if vv[lead]:
                        f = vv[lead]
                        vv = [field.add[a][field.neg[field.mul[f][b]]] for a, b in zip(vv, row)]
                if not any(vv):
                    continue
                bigger = span_closure(list(sub) + [v])
                if bigger not in seen:
                    seen.add(bigger)
                    nxt.add(bigger)
        frontier = nxt
    return len(result)


def _all_vectors(field, total):
    import itertools
    return [v for v in itertools.product(range(field.q), repeat=total) if any(v)]


# --- quiver Grassmannian points, one subspace tuple at a time ---

def gr_count_per_tuple(rep, gamma):
    """Points of Gr(rep, gamma) by checking every tuple of subspaces.

    `rep` is an FqRep; the arrow a: i -> j (matrix M_j -> M_i) must map the
    chosen U_j into U_i, which is tested by reducing each image of a U_j
    row against the RREF rows of U_i.
    """
    import itertools

    from qcluster.grassmannian import subspaces

    if any(g < 0 or g > d for g, d in zip(gamma, rep.dims)):
        return 0
    field = rep.field
    per_vertex = [list(subspaces(field, d, d - g)) for d, g in zip(rep.dims, gamma)]

    def image(mat, u):
        out = []
        for mat_row in mat:
            s = 0
            for x, y in zip(mat_row, u):
                s = field.add[s][field.mul[x][y]]
            out.append(s)
        return out

    def residue(rows, vec):
        for row in rows:
            lead = row.index(1)
            if vec[lead]:
                f = vec[lead]
                vec = [field.add[x][field.neg[field.mul[f][y]]] for x, y in zip(vec, row)]
        return vec

    count = 0
    for choice in itertools.product(*per_vertex):
        if all(not any(residue(choice[src - 1], image(rep.mats[aid], u)))
               for aid, src, tgt in rep.arrows for u in choice[tgt - 1]):
            count += 1
    return count


def gr_count_tables(rep, gamma, budget=500000):
    """Points of Gr(rep, gamma) by a table-driven search over every vertex.

    A tuple (U_v) is a submodule when the arrow a: i -> j (acting
    M_j -> M_i) satisfies  a(U_j) <= U_i.  Sets of subspaces at a vertex
    are int bitsets over its subspace list.  An arrow table maps each U_j
    to the set of U_i containing a(U_j); the count chooses one vertex at a
    time, from the intersection of the tables of its arrows to vertices
    already chosen, and the last vertex adds the size of that set.  The
    budget bounds the full tuple product, checked before any table is built.
    """
    from qcluster.errors import BudgetExceeded
    from qcluster.grassmannian import (_arrow_table, _subspace_list, _transpose,
                                       gaussian_binomial)

    if any(g < 0 or g > d for g, d in zip(gamma, rep.dims)):
        return 0
    if not rep.dims:
        return 1        # the quiver has no vertex: one empty tuple
    total = 1
    for d, g in zip(rep.dims, gamma):
        total *= gaussian_binomial(d, d - g, rep.field.q)
    if total > budget:
        raise BudgetExceeded(f"enumeration size {total} exceeds budget {budget}")
    sub_dims = [d - g for d, g in zip(rep.dims, gamma)]
    sizes = [len(_subspace_list(rep, v, k)) for v, k in enumerate(sub_dims, start=1)]
    # the largest list goes last, where its candidates are counted, not visited
    order = sorted(range(1, len(sizes) + 1), key=lambda v: sizes[v - 1])
    position = {v: t for t, v in enumerate(order)}
    masks = [(1 << sizes[v - 1]) - 1 for v in order]
    constraints = [[] for _ in order]   # (table, earlier position) per position
    for aid, src, tgt in rep.arrows:
        table = _arrow_table(rep, aid, src, tgt, sub_dims[src - 1], sub_dims[tgt - 1])
        s, t = position[src], position[tgt]
        if s == t:
            # a loop: U_v must lie in its own table entry
            masks[s] &= sum(1 << i for i, allowed in enumerate(table) if allowed >> i & 1)
        elif s > t:
            constraints[s].append((table, t))
        else:
            constraints[t].append((_transpose(table, sizes[src - 1]), s))
    last = len(order) - 1
    choice = [0] * len(order)

    def count_from(t):
        cand = masks[t]
        for table, earlier in constraints[t]:
            cand &= table[choice[earlier]]
        if t == last:
            return cand.bit_count()
        found = 0
        while cand:
            low = cand & -cand
            choice[t] = low.bit_length() - 1
            found += count_from(t + 1)
            cand ^= low
        return found

    return count_from(0)


# --- Serre polynomials by Lagrange interpolation ---

def serre_interpolate_lagrange(counts, degree_bound):
    """The integer polynomial in T through the {q: count} points, held-out verified.

    Fits degree <= degree_bound through the smallest degree_bound + 1
    points, then checks every remaining point (the largest acts as the
    held-out consistency point) and integrality of all coefficients.
    """
    from qcluster.errors import NotPolynomialCount
    from qcluster.qlaurent import QLaurent

    points = sorted(counts.items())
    if len(points) < degree_bound + 2:
        raise NotPolynomialCount(
            f"need at least {degree_bound + 2} prime powers, have {len(points)}")
    fit = points[:degree_bound + 1]
    rest = points[degree_bound + 1:]
    coeffs = [Fraction(0)] * (degree_bound + 1)
    for i, (xi, yi) in enumerate(fit):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(fit):
            if j == i:
                continue
            denom *= xi - xj
            basis = _poly_mul_linear(basis, -xj)
        scale = Fraction(yi) / denom
        for d_, c in enumerate(basis):
            coeffs[d_] += scale * c
    for x, y in rest:
        if sum(c * x ** d_ for d_, c in enumerate(coeffs)) != y:
            raise NotPolynomialCount(f"held-out point T={x} mismatches the fit")
    if any(c.denominator != 1 for c in coeffs):
        raise NotPolynomialCount("interpolated coefficients are not integers")
    return QLaurent({d_: int(c) for d_, c in enumerate(coeffs) if c})


def _poly_mul_linear(coeffs, const):
    """coeffs(T) * (T + const)."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] += c
        out[i] += c * const
    return out


# --- graded dimensions of the Jacobian algebra ---

# Paths of one length that _paths_up_to builds before it gives up.
_PATH_LIMIT = 200000


def _paths_up_to(q, L):
    """All path words of length 0..L; length-0 paths are vertex markers."""
    from qcluster.errors import DegreeCapExceeded

    by_len = [[((), v) for v in range(1, q.m + 1)]]
    for length in range(1, L + 1):
        prev = by_len[-1]
        cur = []
        for word, src in prev:
            for a in q.arrows.values():
                if a.target == src:
                    cur.append((word + (a.id,), a.source))
            if len(cur) > _PATH_LIMIT:
                raise DegreeCapExceeded("path enumeration budget exceeded")
        by_len.append(cur)
    return by_len


def jacobi_dims(qp, up_to):
    """Filtered dimensions of CQ/(dW) by path length, degrees 0..up_to."""
    from qcluster.errors import DegreeCapExceeded
    from qcluster.linalg import Echelon
    from qcluster.quiver import cyclic_derivative

    pot = qp.potential
    top = max((len(w) for w in pot.terms), default=0)
    if pot.terms and up_to > pot.degree_cap - top + 1:
        raise DegreeCapExceeded(
            f"up_to {up_to} exceeds cap {pot.degree_cap} - max degree {top} + 1")
    q = qp.quiver
    by_len = _paths_up_to(q, up_to)
    if not pot.terms:
        return [len(by_len[d]) for d in range(up_to + 1)]

    # idempotents are never hit by the ideal, so index only words of length >= 1
    all_paths = []
    for d in range(1, up_to + 1):
        all_paths.extend(word for word, _ in by_len[d])
    col = {w: i for i, w in enumerate(sorted(all_paths, key=lambda w: (-len(w), w)))}

    derivs = []
    for aid in q.arrows:
        d = cyclic_derivative(pot, q, aid)
        if d:
            derivs.append(d)
    ech = Echelon()
    for der in derivs:
        lens = {len(p) for p in der}
        src, tgt = q.word_endpoints(next(iter(der)))
        min_len = min(lens)
        for dl in range(up_to + 1):
            for left, lsrc in by_len[dl]:
                if left and q.arrows[left[-1]].source != tgt:
                    continue
                if not left and lsrc != tgt:
                    continue
                for dr in range(up_to + 1 - dl - min_len):
                    for right, rsrc in by_len[dr]:
                        if right and q.arrows[right[0]].target != src:
                            continue
                        if not right and rsrc != src:
                            continue
                        vec = {}
                        for p, coeff in der.items():
                            w = left + p + right
                            if len(w) <= up_to:
                                vec[col[w]] = vec.get(col[w], 0) + coeff
                        ech.add(vec)
    pivot_cols = set(ech.rows)
    col_len = {idx: len(w) for w, idx in col.items()}
    total_rank = len(pivot_cols)
    cum_prev = 0
    out = []
    for d in range(up_to + 1):
        n_le = sum(len(by_len[l]) for l in range(d + 1))
        rank_gt = sum(1 for idx in pivot_cols if col_len[idx] > d)
        cum = n_le - (total_rank - rank_gt)
        out.append(cum - cum_prev)
        cum_prev = cum
    return out


# --- the quantum torus, one term pair at a time ---

def torus_mul_pairwise(a, b):
    """a * b: each pair's (c1 c2) v^{Lambda(e1, e2)} added to its exponent on its own."""
    from qcluster.torus import TorusElement

    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = (c1 * c2).shift(a.form.pair(e1, e2))
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return TorusElement(a.form, out)


def torus_divide_longhand(n, d):
    """The q with q * d = n by long division, rebuilding the whole remainder each step.

    Same Newton box, leading-term rule and NotDivisible cases (with the same
    remainder) as exact_right_divide; products go through torus_mul_pairwise.
    """
    from qcluster.errors import NotDivisible
    from qcluster.torus import TorusElement, grlex_key

    form = n.form
    if n.is_zero():
        return TorusElement(form)
    m = form.dim
    lo = tuple(min(e[i] for e in n.terms) - min(e[i] for e in d.terms) for i in range(m))
    hi = tuple(max(e[i] for e in n.terms) - max(e[i] for e in d.terms) for i in range(m))
    if any(l > h for l, h in zip(lo, hi)):
        raise NotDivisible("quotient exponent box is empty", remainder=n)
    ed = max(d.terms, key=grlex_key)
    cd = d.terms[ed]
    rem = n
    quot = TorusElement(form)
    while not rem.is_zero():
        er = max(rem.terms, key=grlex_key)
        eq = tuple(a - b for a, b in zip(er, ed))
        if any(x < l or x > h for x, l, h in zip(eq, lo, hi)):
            raise NotDivisible("leading term not cancellable", remainder=rem)
        cq = rem.terms[er].shift(-form.pair(eq, ed)).divide_exact(cd)
        if cq is None:
            raise NotDivisible("coefficient quotient is not Laurent", remainder=rem)
        t = TorusElement.monomial(form, eq, cq)
        quot = quot + t
        rem = rem - torus_mul_pairwise(t, d)
    return quot


# --- cluster monomials from their g-vector and F-coefficients ---

def expand_f_decomposition(result, s0):
    """Rebuild sum_gamma c_gamma X^g X^{B~ gamma}; must reproduce the element."""
    from qcluster.torus import TorusElement

    form = s0.initial_form
    total = TorusElement(form)
    xg = TorusElement.monomial(form, result.g_vector)
    for gamma, c in result.f_coefficients.items():
        bg = tuple(sum(s0.btilde[i][j] * gamma[j] for j in range(s0.n)) for i in range(s0.m))
        total = total + (xg * TorusElement.monomial(form, bg)).scale(c)
    return total


# --- truncated DT series ---

def cone_mul_pairwise(a, b):
    """a * b for two ConeSeries, one (g1, g2) pair at a time.

    Each pair's term c1 c2 v^{Lambda(e1, e2)}, with the twist read off the
    full skew form, is added to its output coefficient on its own.
    Fractions stay raw ({exponent: int} numerator, {k: multiplicity}
    denominator), multiplied and cross-multiplied without any cancelling.
    Returns {cone degree: (num, den)} for the nonzero coefficients.
    """
    out = {}
    for g1, c1 in a.coeffs.items():
        e1 = a.exponent_of(g1)
        for g2, c2 in b.coeffs.items():
            g = tuple(x + y for x, y in zip(g1, g2))
            if any(x > bd for x, bd in zip(g, a.bound)):
                continue
            tw = a.form.pair(e1, b.exponent_of(g2))
            num = {e + tw: c for e, c in lmul(c1.num.terms, c2.num.terms).items()}
            den = {k: c1.den.get(k, 0) + c2.den.get(k, 0)
                   for k in c1.den.keys() | c2.den.keys()}
            if g in out:
                num0, den0 = out[g]
                num = cadd(lmul(num0, pochhammer_denominator(den)),
                           lmul(num, pochhammer_denominator(den0)))
                den = {k: den.get(k, 0) + den0.get(k, 0) for k in den.keys() | den0.keys()}
            out[g] = (num, den)
    return {g: (num, den) for g, (num, den) in out.items() if num}


def dense_conjugate(series, g, bound, inverse):
    """(A X^g) A^{-1} from the whole series A and its inverse, as a TorusElement.

    The dense product the factor-by-factor conjugate replaces, with the same
    margin and tail checks, each raising TailNotVanishing with the same
    suggested bound.
    """
    from qcluster.dtseries import TAIL_MARGIN, ConeSeries
    from qcluster.errors import TailNotVanishing
    from qcluster.qlaurent import PochhammerFraction, QLaurent
    from qcluster.torus import TorusElement

    if any(b < TAIL_MARGIN for b in bound):
        raise TailNotVanishing("cone bound below the safety margin",
                               suggested_bound=tuple(max(b, TAIL_MARGIN + 1) for b in bound))
    xg = ConeSeries(series.form, series.btilde, series.bound, g,
                    {(0,) * series.n: PochhammerFraction(QLaurent.one())})
    total = series * xg * inverse
    terms = {}
    for gamma, c in total.coeffs.items():
        if any(x > b - TAIL_MARGIN for x, b in zip(gamma, bound)) or not c.is_laurent():
            raise TailNotVanishing(f"tail coefficient at {gamma}",
                                   suggested_bound=tuple(b + TAIL_MARGIN for b in bound))
        terms[total.exponent_of(gamma)] = c.as_laurent()
    return TorusElement(series.form, terms)


class CommutationMismatch(QClusterError):
    """lemma52_step precondition (single q-commutation exponent) failed."""


def lemma52_step(form, btilde, x_cls, y, eps):
    """Closed form y (1 + q^{eps/2} x) for x y = q^eps y x, eps = +-1.

    x is the embedded monomial X^{B~ x_cls}; the precondition is that it
    q-commutes with every monomial of y with the single exponent eps.
    """
    from qcluster.qlaurent import QLaurent
    from qcluster.torus import TorusElement

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


def framed_extract(series, lam, bound, inverse):
    """The framed series A^{sfr} with A w_{(0,1)} A^{-1} = w_{(0,1)} A^{sfr}.

    Works in the extended lattice Z^n x Z with the framing pairing
    chi((0,1),(gamma,0)) = -sum_i lam_i gamma_i; only framing degree one is
    ever needed, so the extension stays implicit in the v-powers: the framed
    series is A, its coefficient at gamma twisted by v^{-2 lam.gamma}, times
    A^{-1} (`inverse`, as dt_product_pair returns it).
    """
    from qcluster.dtseries import ConeSeries
    from qcluster.qlaurent import PochhammerFraction

    twisted = {}
    for g, c in series.coeffs.items():
        shift = -2 * sum(l * x for l, x in zip(lam, g))
        twisted[g] = PochhammerFraction.of(c.num.shift(shift), c.den)
    product = ConeSeries(series.form, series.btilde, series.bound, None,
                         twisted) * inverse
    return ConeSeries(series.form, series.btilde, bound, None, product.coeffs)


# --- decorated representations ---

def simple(qp, j):
    """(S_j, 0)."""
    from qcluster.decorated import DecRep
    from qcluster.linalg import Mat

    m = qp.quiver.m
    dims = tuple(1 if v == j else 0 for v in range(1, m + 1))
    mats = {a.id: Mat.zero(dims[a.source - 1], dims[a.target - 1])
            for a in qp.quiver.arrows.values()}
    return DecRep(qp, dims, mats, (0,) * m)


# --- H^1 as a direct sum of single-summand modules ---

def h1_per_summand(qp0, ks, lam, change_bases=False):
    """lam_j copies of each vertex's H^1 summand, put together block-diagonally.

    Each copy is mutated back along reversed ks on its own with mutate_rep,
    with every mutation step built afresh, so no step, summand or direct
    sum is shared with h1_aggregate.  With change_bases, the basis at every
    vertex is changed (`change_bases_at_every_vertex`) before each
    mutate_rep, so mutate_rep picks other splittings.
    """
    from qcluster.decorated import DecRep, mutate_rep, negative_simple
    from qcluster.linalg import Mat
    from qcluster.quiver import mutate_qp_sequence, mutation_step

    qp_r = mutate_qp_sequence(qp0, ks)
    reps = []
    for j, mult in enumerate(lam, start=1):
        for _ in range(mult):
            rep = negative_simple(qp_r, j)
            for k in reversed(ks):
                if change_bases:
                    rep = change_bases_at_every_vertex(rep)
                rep = mutate_rep(rep, mutation_step(rep.qp, k))
            reps.append(rep)
    qp, m = reps[0].qp, qp0.quiver.m
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(m))
    vdims = tuple(sum(r.vdims[v] for r in reps) for v in range(m))
    mats = {}
    for a in qp.quiver.arrows.values():
        rows = []
        col_off = 0
        for r in reps:
            blk, width = r.mats[a.id], r.dims[a.target - 1]
            for row in blk.a:
                rows.append([Fraction(0)] * col_off + list(row)
                            + [Fraction(0)] * (dims[a.target - 1] - col_off - width))
            col_off += width
        mats[a.id] = Mat(dims[a.source - 1], dims[a.target - 1], rows)
    return DecRep(qp, dims, mats, vdims)


def change_bases_at_every_vertex(rep):
    """The isomorphic representation in the basis P_v = R S at each vertex v:
    R reverses the basis, and the shear S negates the first basis vector and
    adds it to the second (so a 1-dimensional space changes too).  Both are
    integral involutions, so the inverses are written down, not computed,
    P_v^-1 = S R, and reducing mod p commutes with the change.  The arrow
    a: i -> j, a matrix M_j -> M_i, becomes P_i^-1 a P_j."""
    from qcluster.decorated import DecRep
    from qcluster.linalg import Mat

    def reverse(d):
        return Mat(d, d, [[int(j == d - 1 - i) for j in range(d)] for i in range(d)])

    def shear(d):
        """I - 2 E_00 + E_01."""
        return Mat(d, d, [[-1 if i == j == 0 else int(i == j or (i, j) == (0, 1))
                           for j in range(d)] for i in range(d)])

    basis = [reverse(d) * shear(d) for d in rep.dims]
    inverse = [shear(d) * reverse(d) for d in rep.dims]
    mats = {a.id: inverse[a.source - 1] * rep.mats[a.id] * basis[a.target - 1]
            for a in rep.qp.quiver.arrows.values()}
    return DecRep(rep.qp, rep.dims, mats, rep.vdims)
