"""Random principal-coefficient seeds through both expand routes and count.

The corpus has five hand-picked seeds; here hypothesis draws a skew B with
n <= 3 and |entries| <= 2, a short mutation sequence and a unit or all-ones
lam, and checks the mutation route against the DT route, positivity and the
commutative q -> 1 oracle.  The factor-by-factor conjugation must equal the
dense product at any cone bound, too small ones included.  For an acyclic B
with a small H^1, every `count` row must match in hard mode.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcluster.cli import SessionSpec, cmd_count
from qcluster.dtseries import (TAIL_MARGIN, conjugate, dt_factors, dt_product_pair,
                               g_of_lambda)
from qcluster.errors import TailNotVanishing
from qcluster.seed import cluster_monomial, initial_seed
from qcluster.torus import SkewForm, is_positive

from .corpus import principal_pair
from .oracles import commutative_cluster_monomial, dense_conjugate, specialize_v1

# Longer sequences on wild rank-3 seeds take seconds each on the DT route.
MAX_KS = {1: 1, 2: 4, 3: 3}


def draw_ks(draw, n):
    """A mutation sequence of length <= MAX_KS[n], consecutive entries distinct."""
    ks = []
    for _ in range(draw(st.integers(0, MAX_KS[n]))):
        ks.append(draw(st.sampled_from([k for k in range(1, n + 1) if not ks or k != ks[-1]])))
    return tuple(ks)


@st.composite
def random_principal_cases(draw):
    n = draw(st.integers(1, 3))
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            B[i][j] = draw(st.integers(-2, 2))
            B[j][i] = -B[i][j]
    ks = draw_ks(draw, n)
    m = 2 * n
    unit = st.integers(0, m - 1).map(lambda i: tuple(int(t == i) for t in range(m)))
    lam = draw(st.one_of(st.just((1,) * m), unit))
    return B, ks, lam


@st.composite
def random_acyclic_cases(draw):
    """An acyclic B: every arrow points forward in a random vertex order.
    lam is a unit or all-ones vector on the mutable vertices."""
    n = draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))
    B = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            i, j = order[a], order[b]
            B[i][j] = draw(st.integers(0, 2))
            B[j][i] = -B[i][j]
    ks = draw_ks(draw, n)
    unit = st.integers(0, n - 1).map(lambda i: tuple(int(t == i) for t in range(n)))
    lam = draw(st.one_of(st.just((1,) * n), unit)) + (0,) * n
    return B, ks, lam


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_principal_cases())
def test_random_principal_seeds_agree_on_both_routes(case):
    """The DT route runs at the bound the CLI picks, the H^1 dimension vector
    plus TAIL_MARGIN, with that vector read off the F-polynomial, whose top
    degree is the dimension vector of the module.  A cyclic B would need a
    nondegenerate potential before h1_aggregate could build H^1 from the QP."""
    B, ks, lam = case
    lam_matrix, btilde = principal_pair(B)
    n = len(B)
    form = SkewForm(lam_matrix)
    result = cluster_monomial(initial_seed(form, btilde, n), ks, lam)
    bound = tuple(max(gamma[j] for gamma in result.f_coefficients) + TAIL_MARGIN
                  for j in range(n))
    factors = dt_factors(form, btilde, ks, bound)
    assert conjugate(form, btilde, factors, g_of_lambda(btilde, ks, lam), bound) \
        == result.element
    assert is_positive(result.element)
    assert specialize_v1(result.element) == commutative_cluster_monomial(btilde, ks, lam)


def _outcome(run):
    """("element", the conjugate) or ("tail", the suggested bound)."""
    try:
        return "element", run()
    except TailNotVanishing as exc:
        return "tail", exc.suggested_bound


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_principal_cases(), st.data())
def test_factor_by_factor_conjugate_matches_dense_product(case, data):
    """At a random cone bound from TAIL_MARGIN - 1 to TAIL_MARGIN + 3 per
    direction: many bounds are too small, below the margin or for the
    monomial's tail, and then both sides must raise alike."""
    B, ks, lam = case
    lam_matrix, btilde = principal_pair(B)
    form = SkewForm(lam_matrix)
    bound = tuple(data.draw(st.integers(TAIL_MARGIN - 1, TAIL_MARGIN + 3)) for _ in B)
    g = g_of_lambda(btilde, ks, lam)
    series, inverse = dt_product_pair(form, btilde, ks, bound)
    factors = dt_factors(form, btilde, ks, bound)
    assert _outcome(lambda: conjugate(form, btilde, factors, g, bound)) \
        == _outcome(lambda: dense_conjugate(series, g, bound, inverse))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_acyclic_cases())
def test_random_acyclic_seeds_count_in_hard_mode(case):
    """count at its default prime powers on the zero-potential QP, with H^1
    of total dimension 6 or less.  That dimension vector is read off the
    F-polynomial's top degree, as above, so H^1 is built once, by count."""
    B, ks, lam = case
    lam_matrix, btilde = principal_pair(B)
    spec = SessionSpec({"n": len(B), "lambda": lam_matrix, "btilde": btilde,
                        "ks": list(ks), "lam": list(lam)})
    f = cluster_monomial(spec.seed, ks, lam).f_coefficients
    assume(sum(max(gamma[j] for gamma in f) for j in range(len(B))) <= 6)
    report = {}
    assert cmd_count(spec, [], report)
    assert report["mode"] == "hard"
    assert all(row["verdict"] == "match" for row in report["rows"])
