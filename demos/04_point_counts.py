#!/usr/bin/env python3
# The cyclic-triangle showcase: mutate (1,2,3,1) with principal coefficients,
# build H^1 modules by inverse decorated mutation, count quiver Grassmannian
# points over small fields, and compare against the F-polynomial weights.
# The (1,1,1) stratum is a union of three projective lines through a point:
# 3q + 1 rational points, Serre polynomial 3T + 1, Euler characteristic 4.

from qcluster import (SkewForm, cluster_monomial, coefficient_crosscheck, gr_count,
                      h1_aggregate, initial_class_map, initial_seed, mutate_qp_sequence,
                      serre_interpolate, to_fq)
from qcluster.quiver import Potential, QPData, from_btilde

B = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
n = 3
btilde = [list(r) for r in B] + [[1 if i == j else 0 for j in range(n)]
                                 for i in range(n)]
lam_matrix = [[0] * 6 for _ in range(6)]
for i in range(n):
    lam_matrix[i][n + i] = -1
    lam_matrix[n + i][i] = 1
    for j in range(n):
        lam_matrix[n + i][n + j] = -B[i][j]

seed = initial_seed(SkewForm(lam_matrix), btilde, n)
quiver = from_btilde(btilde, n)
arrow = {(a.source, a.target): a.id for a in quiver.arrows.values()}
cycle = (arrow[(3, 1)], arrow[(2, 3)], arrow[(1, 2)])
qp = QPData(quiver, Potential(12, {cycle: 1}))

ks = (1, 2, 3, 1)
lam = (1, 1, 1, 0, 0, 0)
res = cluster_monomial(seed, ks, lam)
print("cluster monomial has", len(res.element.terms), "terms; g =", list(res.g_vector))

qp_r = mutate_qp_sequence(qp, ks)
h1 = h1_aggregate(qp_r, ks, lam)
print("H^1 module dims:", list(h1.dims))

print()
print("## point counts for the (1,1,1) stratum: three lines through a point")
counts = {q: gr_count(to_fq(h1, q), (1, 1, 1, 0, 0, 0)) for q in (2, 3, 5)}
print("counts:", counts)
serre = serre_interpolate(counts, 1)
print("Serre polynomial:", serre.render_plain(),
      " Euler characteristic:", serre.eval_at_one())
print("F coefficient:   ", res.f_coefficients[(1, 1, 1)].render(),
      " (two Tate weights of multiplicity 2)")

print()
print("## the full per-stratum report")
report = coefficient_crosscheck(res.f_coefficients, h1, qp_r, primes=(2, 3, 5, 7),
                                gamma_map=initial_class_map(btilde, ks))
print("mode:", report.mode, "(cyclic at both ends: Euler + purity checks only)")
for row in report.rows:
    serre = row.serre.render_plain() if row.serre else "-"
    print(f"  gamma {row.gamma}: counts {row.counts}  serre {serre:10} "
          f"F {row.f_coeff.render():24} euler-match {row.euler_match} "
          f"purity {row.purity_ok}")
