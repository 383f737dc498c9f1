"""Random principal-coefficient seeds through both expand routes.

The corpus has five hand-picked seeds; here hypothesis draws a skew B with
n <= 3 and |entries| <= 2, a short mutation sequence and a unit or all-ones
lam, and checks the mutation route against the DT route, positivity and the
commutative q -> 1 oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.dtseries import TAIL_MARGIN, conjugate, dt_product_pair, g_of_lambda
from qcluster.seed import cluster_monomial, initial_seed
from qcluster.torus import SkewForm, is_positive

from .corpus import principal_pair
from .oracles import commutative_cluster_monomial, specialize_v1

# Longer sequences on wild rank-3 seeds take seconds each on the DT route.
MAX_KS = {1: 1, 2: 4, 3: 3}


@st.composite
def random_principal_cases(draw):
    n = draw(st.integers(1, 3))
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            B[i][j] = draw(st.integers(-2, 2))
            B[j][i] = -B[i][j]
    ks = []
    for _ in range(draw(st.integers(0, MAX_KS[n]))):
        ks.append(draw(st.sampled_from([k for k in range(1, n + 1) if not ks or k != ks[-1]])))
    m = 2 * n
    unit = st.integers(0, m - 1).map(lambda i: tuple(int(t == i) for t in range(m)))
    lam = draw(st.one_of(st.just((1,) * m), unit))
    return B, tuple(ks), lam


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
    series, inverse = dt_product_pair(form, btilde, ks, bound)
    assert conjugate(series, g_of_lambda(btilde, ks, lam), bound, inverse=inverse) \
        == result.element
    assert is_positive(result.element)
    assert specialize_v1(result.element) == commutative_cluster_monomial(btilde, ks, lam)
