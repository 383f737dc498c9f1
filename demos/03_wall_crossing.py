#!/usr/bin/env python3
# The Donaldson-Thomas route: sign sequences, Pochhammer factors, the pentagon
# identity, and cluster variables recovered by conjugation.

from qcluster import (SkewForm, cluster_monomial, conjugate, dt_factors,
                      factorization_check, g_of_lambda, initial_seed,
                      pochhammer, sign_sequence)

B = [[0, 1], [-1, 0]]
L = SkewForm(B)

print("## sign sequences from c-vector sign coherence")
for ks in [(1,), (1, 2), (1, 2, 1, 2, 1)]:
    res = sign_sequence(B, ks)
    shown = " ".join(f"{s}{list(c)}" for s, c in zip(res.signs, res.s_classes))
    print(f"ks={ks}: {shown}")

print()
print("## the quantum pentagon identity, exact to cone depth 12")
K = SkewForm([[0, -1], [1, 0]])  # the cone form on Z^2: w1 w2 = v^{-1} w12
bound = (12, 12)
E1 = pochhammer(K, bound, (1, 0), +1)
E2 = pochhammer(K, bound, (0, 1), +1)
E12 = pochhammer(K, bound, (1, 1), +1)
print("E(w1) E(w2) == E(w2) E(w12) E(w1):",
      factorization_check(E1 * E2, [E2, E12, E1]))

print()
print("## conjugation reproduces the mutated cluster variable exactly")
seed = initial_seed(L, B, 2)
for ks, lam in [((1,), (1, 0)), ((1, 2), (0, 1)), ((1, 2, 1), (1, 0))]:
    route1 = cluster_monomial(seed, ks, lam)
    bound = (5, 5)
    factors = dt_factors(L, B, ks, bound)
    g = g_of_lambda(B, ks, lam)
    route2 = conjugate(L, B, factors, g, bound)
    verdict = "AGREE" if route2 == route1.element else "DISAGREE"
    print(f"ks={ks} lam={lam}: {verdict}   {route2.render()}")
