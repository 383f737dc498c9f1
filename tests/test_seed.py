import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.errors import (IncompatiblePair, InconsistentLattice, NoGVector,
                             NotDivisible, NotSkewSymmetric)
from qcluster.qlaurent import QLaurent
from qcluster.seed import (QuantumSeed, check_compatible, cluster_monomial,
                           f_polynomial, frame_monomial, g_vector, initial_seed,
                           mutate, mutate_sequence, verify_commutation)
from qcluster.torus import SkewForm, TorusElement, exact_right_divide

from .corpus import CORPUS_NAMES, corpus_seed, principal_pair
from .oracles import expand_f_decomposition, torus_divide_longhand, torus_mul_pairwise

L2 = SkewForm([[0, 1], [-1, 0]])
B2 = [[0, 1], [-1, 0]]


def a2_seed():
    return initial_seed(L2, B2, 2)


def test_initial_seed_validation():
    s = a2_seed()
    assert [v.render() for v in s.vars] == ["X[1,0]", "X[0,1]"]
    with pytest.raises(NotSkewSymmetric):
        initial_seed(L2, [[0, 1], [1, 0]], 2)
    with pytest.raises(IncompatiblePair):
        initial_seed(SkewForm([[0, 0], [0, 0]]), B2, 2)


def test_frame_monomial_examples():
    s = a2_seed()
    assert frame_monomial(s, (0, 0)) == TorusElement.monomial(L2, (0, 0))
    # initial frame is c -> X^c on the nose
    for c in [(2, 3), (-1, 4), (0, -2), (5, 0)]:
        assert frame_monomial(s, c) == TorusElement.monomial(L2, c)
    s1 = mutate(s, 1)
    got = frame_monomial(s1, (2, 0))
    assert got.terms == {(-2, 0): QLaurent({0: 1}),
                         (-2, 1): QLaurent({1: 1, -1: 1}),
                         (-2, 2): QLaurent({0: 1})}


def test_frame_monomial_not_divisible_propagates():
    from qcluster.errors import NotDivisible
    s1 = mutate(a2_seed(), 1)
    # X_1 is now a two-term element; its inverse is not in the torus
    with pytest.raises(NotDivisible):
        frame_monomial(s1, (-1, 0))


def test_mutate_a2():
    s1 = mutate(a2_seed(), 1)
    assert s1.vars[0].render() == "X[-1,0] + X[-1,1]"
    assert [list(r) for r in s1.btilde] == [[0, -1], [1, 0]]
    assert [list(r) for r in s1.lam.entries] == [[0, -1], [1, 0]]


def test_mutate_involution_corpus():
    for name in CORPUS_NAMES:
        s = corpus_seed(name)
        for k in range(1, s.n + 1):
            assert mutate(mutate(s, k), k) == s


def test_coefficients_invariant():
    for name in ("a2_principal", "a3_principal"):
        s = corpus_seed(name)
        cur = mutate_sequence(s, (1, 2, 1))
        for i in range(s.n, s.m):
            assert cur.vars[i] == s.vars[i]


def test_compatibility_and_commutation_preserved():
    rng = random.Random(2)
    for name in CORPUS_NAMES:
        s = corpus_seed(name)
        ks = []
        for _ in range(4):
            k = rng.randrange(1, s.n + 1)
            while ks and ks[-1] == k:
                k = rng.randrange(1, s.n + 1)
            ks.append(k)
        # mutate() itself verifies compatibility + full commutation
        cur = mutate_sequence(s, ks)
        check_compatible(cur.btilde, cur.lam, cur.n)
        verify_commutation(cur)


def test_cluster_monomial_examples():
    s = a2_seed()
    r = cluster_monomial(s, (), (1, 0))
    assert r.element == TorusElement.basis(L2, 1)
    assert r.g_vector == (1, 0)
    assert r.f_coefficients == {(0, 0): QLaurent.one()}

    r = cluster_monomial(s, (1,), (1, 0))
    assert r.element.render() == "X[-1,0] + X[-1,1]"
    assert r.g_vector == (-1, 1)
    assert set(r.f_coefficients) == {(0, 0), (1, 0)}
    assert r.f_coefficients[(0, 0)].is_one()
    assert expand_f_decomposition(r, s) == r.element


def test_rank2_periodicity():
    s = a2_seed()
    s5 = mutate_sequence(s, (1, 2, 1, 2, 1))
    assert s5.vars[0] == s.vars[1]
    assert s5.vars[1] == s.vars[0]


def test_g_vector_examples():
    s = a2_seed()
    assert g_vector(TorusElement.basis(L2, 1), s) == (1, 0)
    el = TorusElement(L2, {(-1, 0): QLaurent.one(), (-1, 1): QLaurent.one()})
    assert g_vector(el, s) == (-1, 1)
    # neither exponent can dominate when their difference leaves the cone
    # in both directions
    junk = TorusElement(L2, {(1, 1): QLaurent.one(), (0, 0): QLaurent.one()})
    with pytest.raises(NoGVector):
        g_vector(junk, s)


def test_f_polynomial_monomial():
    s = a2_seed()
    el = TorusElement.monomial(L2, (2, -1))
    assert f_polynomial(el, (2, -1), s) == {(0, 0): QLaurent.one()}


def test_f_polynomial_lam_2e1():
    s = a2_seed()
    r = cluster_monomial(s, (1,), (2, 0))
    assert set(r.f_coefficients) == {(0, 0), (1, 0), (2, 0)}
    mid = r.f_coefficients[(1, 0)]
    # (v + v^{-1}) times the normalization power v^s
    vals = sorted(mid.terms.values())
    assert vals == [1, 1] and max(mid.terms) - min(mid.terms) == 2
    assert expand_f_decomposition(r, s) == r.element


def test_f_roundtrip_corpus():
    for name in ("a2", "kronecker_principal"):
        s = corpus_seed(name)
        r = cluster_monomial(s, (1, 2), tuple(1 for _ in range(s.m)))
        assert expand_f_decomposition(r, s) == r.element


def _kronecker_12():
    """Kronecker with principal coefficients after mutating at 1 then 2, so
    both cluster variables have several terms."""
    return mutate_sequence(corpus_seed("kronecker_principal"), (1, 2))


def test_verify_commutation_catches_a_wrong_lambda_entry():
    s = _kronecker_12()
    verify_commutation(s)
    for i in range(s.m):
        for j in range(i + 1, s.m):
            lam = [list(r) for r in s.lam.entries]
            lam[i][j] += 1
            lam[j][i] -= 1
            bad = QuantumSeed(s.m, s.n, SkewForm(lam), s.btilde, s.vars, s.initial_form)
            with pytest.raises(InconsistentLattice):
                verify_commutation(bad)


def test_verify_commutation_catches_swapped_vars():
    s = _kronecker_12()
    swapped = 0
    for i in range(s.m):
        for j in range(i + 1, s.m):
            if s.lam.entries[i][j] == 0:
                continue
            vars = list(s.vars)
            vars[i], vars[j] = vars[j], vars[i]
            bad = QuantumSeed(s.m, s.n, s.lam, s.btilde, vars, s.initial_form)
            with pytest.raises(InconsistentLattice):
                verify_commutation(bad)
            swapped += 1
    assert swapped >= 2


def test_g_vector_messages():
    s = a2_seed()
    with pytest.raises(NoGVector, match="zero element has no g-vector"):
        g_vector(TorusElement(L2), s)
    junk = TorusElement(L2, {(1, 1): QLaurent.one(), (0, 0): QLaurent.one()})
    with pytest.raises(NoGVector, match="no dominating exponent"):
        g_vector(junk, s)
    # X^0 attains the minimal covector row, but e_3 is not in B~ Z^2_{>=0}
    k = corpus_seed("kronecker_principal")
    form = k.initial_form
    off_lattice = TorusElement.monomial(form, (0,) * form.dim) + TorusElement.basis(form, 3)
    with pytest.raises(NoGVector, match="no dominating exponent"):
        g_vector(off_lattice, k)


def test_verify_commutation_names_the_first_wrong_pair():
    s = _kronecker_12()
    lam = [list(r) for r in s.lam.entries]
    # (1, 4) comes first in i < j order, (2, 3) first in column order
    for i, j in ((0, 3), (1, 2)):
        lam[i][j] += 1
        lam[j][i] -= 1
    bad = QuantumSeed(s.m, s.n, SkewForm(lam), s.btilde, s.vars, s.initial_form)
    with pytest.raises(InconsistentLattice, match=r"vars\[1\], vars\[4\]"):
        verify_commutation(bad)


def test_checked_mutation_verifies_every_pair_at_every_step(monkeypatch):
    import qcluster.seed as seed_mod
    import qcluster.torus as torus_mod

    checked, pairs = [], []
    verify, commutes = seed_mod.verify_commutation, torus_mod._commutes

    def counting_verify(s):
        checked.append(s)
        verify(s)

    def counting_commutes(*args):
        pairs.append(args)
        return commutes(*args)

    monkeypatch.setattr(seed_mod, "verify_commutation", counting_verify)
    monkeypatch.setattr(torus_mod, "_commutes", counting_commutes)
    s0 = corpus_seed("kronecker_principal")
    s = mutate_sequence(s0, (1, 2, 1))
    assert len(checked) == 3 and checked[-1] is s
    assert len(pairs) == 3 * s.m * (s.m - 1) // 2


# --- the packed exchange quotient against the longhand oracle ---

def _exchange_numerator(s, k):
    """v^{Lambda_M(p1, e_k)} M(p1) + v^{Lambda_M(p2, e_k)} M(p2), built term by
    term: each M(p) is a pairwise product of cluster variables, with its
    normalising twist -sum_{i<j} Lambda_M(i, j) p_i p_j read off the entries."""
    lam, m = s.lam.entries, s.m
    col = s.btilde_column(k)
    total = TorusElement(s.initial_form)
    for p in (tuple(max(x, 0) for x in col), tuple(max(-x, 0) for x in col)):
        term = TorusElement.monomial(s.initial_form, (0,) * s.initial_form.dim)
        for i in range(m):
            for _ in range(p[i]):
                term = torus_mul_pairwise(term, s.vars[i])
        shift = sum(p[i] * lam[i][k - 1] for i in range(m))
        shift -= sum(lam[i][j] * p[i] * p[j] for i in range(m) for j in range(i + 1, m))
        total = total + term.scale(QLaurent.monomial(shift))
    return total


def _not_divisible_cases(s, k, numerator):
    """(n, d) pairs near the exchange division that are not all divisible."""
    d = s.vars[k - 1]
    far = TorusElement.monomial(s.initial_form, (-7,) * s.m)
    return ((numerator + s.vars[k % s.m], d), (far, d), (d + far, d),
            (numerator, d.scale(QLaurent({0: 1, 1: 1}))))


def _check_sequence(s, ks, messages):
    """Every exchange quotient of mutate along ks equals the longhand oracle's,
    and exact_right_divide fails exactly as the oracle does near it."""
    for k in ks:
        numerator = _exchange_numerator(s, k)
        want = torus_divide_longhand(numerator, s.vars[k - 1])
        for n, d in _not_divisible_cases(s, k, numerator):
            try:
                expect = torus_divide_longhand(n, d)
            except NotDivisible as exc:
                with pytest.raises(NotDivisible) as got:
                    exact_right_divide(n, d)
                assert str(got.value) == str(exc)
                assert got.value.remainder == exc.remainder
                messages.add(str(exc))
            else:
                assert exact_right_divide(n, d) == expect
        s = mutate(s, k)
        assert s.vars[k - 1] == want


@st.composite
def random_principal_sequences(draw):
    n = draw(st.integers(2, 3))
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            B[i][j] = draw(st.integers(-2, 2) if n == 2 else st.integers(-1, 1))
            B[j][i] = -B[i][j]
    ks = []
    for _ in range(draw(st.integers(1, 6))):
        ks.append(draw(st.sampled_from([k for k in range(1, n + 1) if not ks or k != ks[-1]])))
    return B, tuple(ks)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(random_principal_sequences())
def test_exchange_quotient_matches_longhand_on_random_principal_seeds(case):
    B, ks = case
    lam, btilde = principal_pair(B)
    _check_sequence(initial_seed(SkewForm(lam), btilde, len(B)), ks, set())


def test_exchange_quotient_matches_longhand_on_kronecker():
    messages = set()
    for first in (1, 2):
        ks = tuple(first if i % 2 == 0 else 3 - first for i in range(8))
        _check_sequence(corpus_seed("kronecker_principal"), ks, messages)
    assert messages == {"quotient exponent box is empty", "leading term not cancellable",
                        "coefficient quotient is not Laurent"}


def test_each_covector_is_computed_once_per_variable_term(monkeypatch):
    """Over a checked sequence, SkewForm.apply runs once per term of each cluster
    variable, initial or new, plus a fixed number of times per mutation (the n
    rows of check_compatible, the two exchange twists and the row of Lambda');
    so no covector comes from first_noncommuting, the power chains or the
    division."""
    ks = (1, 2, 1, 2, 1, 2, 1, 2)
    s0 = corpus_seed("kronecker_principal")
    new_terms = sum(len(mutate_sequence(s0, ks[:i + 1]).vars[k - 1].terms)
                    for i, k in enumerate(ks))
    assert new_terms == 128
    s0 = corpus_seed("kronecker_principal")
    calls = []
    apply = SkewForm.apply
    monkeypatch.setattr(SkewForm, "apply", lambda form, e: calls.append(e) or apply(form, e))
    mutate_sequence(s0, ks)
    assert len(calls) <= new_terms + s0.m + (s0.n + 3) * len(ks)


def test_unit_leading_coefficients_skip_divide_exact(monkeypatch):
    """Every exchange divisor along these sequences is a unit monomial or has a
    unit leading coefficient +-v^a, so no mutation calls QLaurent.divide_exact;
    a divisor whose leading coefficient is 1 + v^2 still does, and still
    matches the longhand oracle."""
    calls = []
    divide_exact = QLaurent.divide_exact
    monkeypatch.setattr(QLaurent, "divide_exact",
                        lambda a, b: calls.append(b) or divide_exact(a, b))
    s = mutate_sequence(corpus_seed("kronecker_principal"), (1, 2, 1, 2))
    mutate_sequence(corpus_seed("a3_principal"), (2, 1, 3))
    assert calls == []
    x = s.vars[0]
    ed, _ = x.leading()
    d = TorusElement(x.form, {**x.terms, ed: QLaurent({0: 1, 2: 1})})
    n = torus_mul_pairwise(s.vars[1], d)
    want = torus_divide_longhand(n, d)
    calls.clear()
    assert exact_right_divide(n, d) == want == s.vars[1]
    assert calls
