"""Random seeds through both expand routes and count.

The corpus has five hand-picked seeds; here hypothesis draws a skew B with
n <= 4 and |entries| <= 2, a short mutation sequence and a unit or all-ones
lam, and checks the mutation route against the DT route, positivity, the
commutative q -> 1 oracle and the commutation of every pair of the final
seed.  The factor-by-factor conjugation must equal the dense product at any
cone bound, too small ones included.  For an acyclic B with a small H^1,
every `count` row must match in hard mode.  Pairs beyond principal
coefficients, two with a central frozen row and frozen base changes of
rank-2 principal pairs, go through the same checks.  On both
kinds of pair, the final g- and c-vectors obey tropical duality, G C = I,
and the Q_r class map agrees with a rational solve of C gamma = -delta.
"""

import json
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcluster.cli import SessionSpec, cmd_count, cmd_expand, main
from qcluster.dtseries import (TAIL_MARGIN, conjugate, dt_factors, dt_product_pair,
                               g_of_lambda, initial_class_map, sign_sequence)
from qcluster.errors import TailNotVanishing
from qcluster.seed import cluster_monomial, initial_seed, mutate_sequence, verify_commutation
from qcluster.torus import SkewForm, is_positive

from .corpus import all_sequences, principal_pair
from .oracles import (class_map_by_solve, commutative_cluster_monomial, dense_conjugate,
                      specialize_v1)

# Longer sequences on wild rank-3 seeds take seconds each on the DT route.
MAX_KS = {1: 1, 2: 4, 3: 3, 4: 2}


def draw_ks(draw, n):
    """A mutation sequence of length <= MAX_KS[n], consecutive entries distinct."""
    ks = []
    for _ in range(draw(st.integers(0, MAX_KS[n]))):
        ks.append(draw(st.sampled_from([k for k in range(1, n + 1) if not ks or k != ks[-1]])))
    return tuple(ks)


@st.composite
def random_principal_cases(draw):
    n = draw(st.integers(1, 4))
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
    n = draw(st.integers(1, 4))
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


def _assert_every_pair_commutes(s0, ks):
    """mutate checks only the pairs each step creates; every pair of the
    final seed must commute as its Lambda_M says all the same."""
    s = mutate_sequence(s0, ks)
    verify_commutation(s, combinations(range(s.m), 2))


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
    s0 = initial_seed(form, btilde, n)
    _assert_every_pair_commutes(s0, ks)
    result = cluster_monomial(s0, ks, lam)
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


# --- compatible pairs beyond principal coefficients ---

CENTRAL_LAMBDA = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("btilde", [[[0, 1], [-1, 0], [1, 1]], [[0, 1], [-1, 0], [2, -1]]])
def test_central_frozen_row_agrees_and_counts(btilde, tmp_path, capsys):
    """The frozen row's Lambda row is zero, so B~^T Lambda = [I 0] whatever its
    B~ entries.  Every ks of length <= 4 and three lam: `expand --route both`
    exits 0 with AGREE and positivity, and `count` exits 0 in hard mode."""
    spec = tmp_path / "spec.json"
    failed = []
    for ks in all_sequences(2, 4):
        for lam in ((1, 0, 0), (0, 1, 0), (1, 1, 1)):
            spec.write_text(json.dumps({"n": 2, "lambda": CENTRAL_LAMBDA, "btilde": btilde,
                                        "ks": list(ks), "lam": list(lam)}))
            rc = main(["expand", str(spec), "--route", "both"])
            lines = capsys.readouterr().out.splitlines()
            if rc or "two-route: AGREE" not in lines or "positive: yes" not in lines:
                failed.append(("expand", ks, lam, rc))
            rc = main(["count", str(spec)])
            if rc or capsys.readouterr().out.splitlines()[0] != "mode: hard":
                failed.append(("count", ks, lam, rc))
    assert not failed


UNIMODULAR = ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [-1, 1]],
              [[-1, 0], [0, 1]], [[2, 1], [1, 1]])


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def frozen_base_changes(draw):
    """(lambda, btilde, ks, lam): a rank-2 principal pair (Lambda, [B; I])
    moved by P = [[I, 0], [X, U]], U unimodular, to (P^-T Lambda P^-1, P B~).
    That pair is compatible again, since the first block row of
    P^-1 = [[I, 0], [-U^-1 X, U^-1]] is [I 0]."""
    b = draw(st.integers(-2, 2))
    lam_matrix, btilde = principal_pair([[0, b], [-b, 0]])
    x = [[draw(st.integers(-1, 1)) for _ in range(2)] for _ in range(2)]
    (u11, u12), (u21, u22) = u = draw(st.sampled_from(UNIMODULAR))
    det = u11 * u22 - u12 * u21
    u_inv = [[det * u22, -det * u12], [-det * u21, det * u11]]
    w = [[-z for z in row] for row in _mat_mul(u_inv, x)]
    p = [[1, 0, 0, 0], [0, 1, 0, 0], x[0] + u[0], x[1] + u[1]]
    p_inv = [[1, 0, 0, 0], [0, 1, 0, 0], w[0] + u_inv[0], w[1] + u_inv[1]]
    lam_matrix = _mat_mul(_mat_mul([list(r) for r in zip(*p_inv)], lam_matrix), p_inv)
    unit = st.integers(0, 3).map(lambda i: tuple(int(t == i) for t in range(4)))
    lam = draw(st.one_of(st.just((1,) * 4), unit))
    return lam_matrix, _mat_mul(p, btilde), draw_ks(draw, 2), lam


@settings(max_examples=25, deadline=None, derandomize=True)
@given(frozen_base_changes())
def test_frozen_base_changes_agree_and_count(case):
    """Both routes agree, with positivity, Lefschetz strings and the q -> 1
    oracle; `count` matches every row in hard mode when H^1 is small."""
    lam_matrix, btilde, ks, lam = case
    spec = SessionSpec({"n": 2, "lambda": lam_matrix, "btilde": btilde, "ks": list(ks),
                        "lam": list(lam), "options": {"route": "both"}})
    report = {}
    assert cmd_expand(spec, [], report)
    assert report["two_route"] == "AGREE" and report["positive"] and report["lefschetz"]
    _assert_every_pair_commutes(spec.seed, ks)
    result = cluster_monomial(spec.seed, ks, lam)
    assert specialize_v1(result.element) == commutative_cluster_monomial(btilde, ks, lam)
    if sum(max(gamma[j] for gamma in result.f_coefficients) for j in range(2)) <= 6:
        report = {}
        assert cmd_count(spec, [], report)
        assert report["mode"] == "hard"
        assert all(row["verdict"] == "match" for row in report["rows"])


# --- tropical duality ---

def _assert_tropical_duality(btilde, ks):
    """G C = I, with G's rows the mutable parts of the first n g-vectors, and
    initial_class_map equal to the echelon solve of C gamma = -delta on the
    unit vectors and two vectors with every entry nonzero."""
    n = len(btilde[0])
    res = sign_sequence(btilde, ks)
    g = [row[:n] for row in res.g[:n]]
    assert _mat_mul(g, res.c) == [[int(i == j) for j in range(n)] for i in range(n)]
    to_qr, reference = initial_class_map(btilde, ks), class_map_by_solve(btilde, ks)
    for delta in [tuple(int(t == i) for t in range(n)) for i in range(n)] + [
            tuple(range(1, n + 1)), tuple((-1) ** t * (t + 2) for t in range(n))]:
        assert to_qr(delta) == reference(delta)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_principal_cases())
def test_tropical_duality_on_random_principal_pairs(case):
    B, ks, _ = case
    _assert_tropical_duality(principal_pair(B)[1], ks)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(frozen_base_changes())
def test_tropical_duality_on_frozen_base_changes(case):
    _, btilde, ks, _ = case
    _assert_tropical_duality(btilde, ks)
