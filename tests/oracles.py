"""Independent brute-force oracles the package code must agree with.

Nothing here imports from qcluster's algebra internals: commutative cluster
mutation is redone from scratch on exponent dictionaries, power series are
expanded by long division, and submodules are enumerated by closure.
"""

from fractions import Fraction


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
                    s = field.add(s, field.mul(x, y))
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
            inv = field.inv(rows[r][c])
            rows[r] = [field.mul(inv, x) for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [field.sub(a, field.mul(f, b))
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
                        vv = [field.sub(a, field.mul(f, b)) for a, b in zip(vv, row)]
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
