"""Seeded inputs for the benchmark workloads.

Every workload is a list of cases; a case is the argument list of one
`qcluster` command plus, except for `identity-check`, the session document
the command reads.  The same seed always gives the same list.  The program
only ever sees these generated documents.

The exchange matrices are the five corpus seeds (A2, plus A2, Kronecker, A3
and the cyclic triangle with principal coefficients) and random
principal-coefficient seeds with entries in {-1, 0, 1}.  They are defined
here rather than imported from tests/, so the benchmark depends only on the
package.
"""

from __future__ import annotations

import random

_B = {
    "a2_principal": [[0, 1], [-1, 0]],
    "kronecker_principal": [[0, 2], [-2, 0]],
    "a3_principal": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
    "triangle_principal": [[0, -1, 1], [1, 0, -1], [-1, 1, 0]],
}

# The full-cycle potential c b a on the triangle (as in demos/specs/triangle.json);
# without it the count and DT routes would see the zero potential.
_TRIANGLE_QP = {
    "quiver": {"vertices": 6,
               "arrows": [["a", 1, 2], ["b", 2, 3], ["c", 3, 1],
                          ["p1", 1, 4], ["p2", 2, 5], ["p3", 3, 6]]},
    "potential": [[1, 1, ["c", "b", "a"]]],
}

CORPUS = ("a2", "a2_principal", "kronecker_principal", "a3_principal",
          "triangle_principal")

# Kronecker ladder for `two_route`: the DT route on it is the measured scaling
# wall.  The orientation is fixed: starting at k=1 is ~10x cheaper.  Its
# length-5 rung (~7 s) is too long to time many times in one run.
LADDER = ((2, 1, 2), (2, 1, 2, 1))
LADDER_LAM = (1, 1, 0, 0)
# The all-ones monomial runs on longer sequences up to this length; on the
# length-4 Kronecker and triangle sequences it takes 0.4-1.9 s.
ALL_ONES_MAX_LEN = 3

# Every case takes under ~1 s, so a run times each one many times; depth 12
# and 14 (~2 s and ~5 s) are too long for that.
PENTAGON_DEPTHS = (7, 8, 9, 10, 11)

# `count_sweep` cells: (family, sequences, mutable part of lam, H^1 total
# dimension, whether the seed draws the coefficient part).  Every seed runs
# every sequence once.  These are the corpus cells whose `count` run takes
# 0.08-0.35 s for every 0/1 coefficient part, which leaves the H^1 dimension
# unchanged (cases of dimension 3 or 4 all take under 0.07 s).  The
# coefficient part changes an A3 case's cost by up to 1.6x, and the A3 cases
# are the slowest, so they run a fixed cycle of coefficient parts, each
# twice; the seed draws the rest.
COUNT_CELLS = (
    ("a3_principal", ("123", "213", "231", "321", "1213", "1231", "1323", "2123",
                      "2131", "2132", "2312", "2313", "2321", "3123", "3213", "3231"),
     (1, 1, 1), 6, False),
    ("triangle_principal", ("1231", "1321", "2132", "2312", "3123", "3213"),
     (1, 1, 1), 6, True),
    ("triangle_principal", ("132", "2321"), (1, 1, 1), 5, True),
    ("kronecker_principal", ("121", "1212"), (1, 0), 5, True),
    ("kronecker_principal", ("212", "2121"), (0, 1), 5, True),
)

MUTATION_FAMILIES = CORPUS + ("random_n2", "random_n3")
MUTATION_LENGTHS = range(1, 9)
MUTATION_PER_CELL = 8
# Kronecker cost doubles per mutation step; from this length on its cells are
# fixed (see mutation_sweep), so no case runs past ~0.5 s on any seed.
KRONECKER_HEAVY_FROM = 6


def principal_pair(B):
    """(lambda, btilde) of the principal-coefficient seed of a skew matrix B."""
    n = len(B)
    btilde = [list(r) for r in B] + [[int(i == j) for j in range(n)]
                                     for i in range(n)]
    lam = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        lam[i][n + i] = -1
        lam[n + i][i] = 1
        for j in range(n):
            lam[n + i][n + j] = -B[i][j]
    return lam, btilde


def base_doc(family: str, B=None) -> dict:
    """Session document of a seed, without ks and lam."""
    if family == "a2":
        return {"n": 2, "lambda": [[0, 1], [-1, 0]], "btilde": [[0, 1], [-1, 0]]}
    B = B if B is not None else _B[family]
    lam, btilde = principal_pair(B)
    doc = {"n": len(B), "lambda": lam, "btilde": btilde}
    if family == "triangle_principal":
        doc.update(_TRIANGLE_QP)
    return doc


def session(family: str, ks, lam, B=None) -> dict:
    doc = base_doc(family, B)
    doc["ks"] = list(ks)
    doc["lam"] = list(lam)
    return doc


def sequences(n: int, max_len: int):
    """Every mutation sequence of length <= max_len, consecutive entries distinct."""
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [s + (k,) for s in frontier for k in range(1, n + 1)
                    if not s or s[-1] != k]
        out.extend(frontier)
    return out


def _unit(m: int, i: int):
    return tuple(int(t == i) for t in range(m))


def _case(label: str, argv, doc=None) -> dict:
    return {"label": label, "argv": list(argv), "doc": doc}


def two_route(rng: random.Random) -> list[dict]:
    """`expand --route both`: the Kronecker ladder, then a corpus sample.

    The sample follows the acceptance suite's two-route corpus: all short
    sequences of each seed plus a few longer ones, each with a unit mutable
    monomial, the all-ones monomial (on longer sequences only up to
    ALL_ONES_MAX_LEN) and a unit coefficient monomial.  The
    seed picks the unit directions of the short sequences and every
    coefficient direction.  The longer sequences, whose cases are the
    costliest after the ladder, run every mutable direction on every seed,
    so the slowest cases do not depend on the seed.
    """
    cases = [_case(f"ladder ks={ks}", ["expand", None, "--route", "both"],
                   session("kronecker_principal", ks, LADDER_LAM))
             for ks in LADDER]
    longer = {"a2": [],
              "a2_principal": [(1, 2, 1)],
              "kronecker_principal": [(1, 2, 1), (1, 2, 1, 2), (2, 1, 2, 1)],
              "a3_principal": [(1, 2, 3), (2, 1, 3)],
              "triangle_principal": [(1, 2, 3), (1, 2, 3, 1)]}
    for family in CORPUS:
        doc = base_doc(family)
        n, m = doc["n"], len(doc["btilde"])
        short = sequences(n, 5 if family == "a2" else 2)
        for ks in short + longer[family]:
            mutable = range(n) if ks in longer[family] else [rng.randrange(n)]
            lams = [_unit(m, i) for i in mutable]
            if ks not in longer[family] or len(ks) <= ALL_ONES_MAX_LEN:
                lams.append((1,) * m)
            if m > n:
                lams.append(_unit(m, rng.randrange(n, m)))
            for lam in lams:
                cases.append(_case(f"{family} ks={ks} lam={lam}",
                                   ["expand", None, "--route", "both"],
                                   session(family, ks, lam)))
    return cases


def _random_skew(rng: random.Random, n: int):
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            B[i][j] = rng.choice((-1, 0, 1))
            B[j][i] = -B[i][j]
    return B


def mutation_sweep(rng: random.Random) -> list[dict]:
    """`expand --route mutation`, stratified by (family, sequence length).

    Each (family, length) cell has MUTATION_PER_CELL cases.  Half have a
    unit mutable monomial, half add a second unit; the coefficient part is
    a random 0/1 vector.  Rank-3 cases draw the sequence and the directions;
    rank-2 cells run both starting vertices and both first directions twice.
    Random families draw a fresh exchange matrix per case; with entries in
    {-1, 0, 1} and n <= 3 they are of finite type, so their cost is bounded.
    The long Kronecker cells, whose cost doubles per step, are fixed: unit
    mutable part, coefficient part all 0 or all 1.
    """
    cases = []
    for family in MUTATION_FAMILIES:
        for length in MUTATION_LENGTHS:
            heavy = family == "kronecker_principal" and length >= KRONECKER_HEAVY_FROM
            for i in range(MUTATION_PER_CELL):
                B = (_random_skew(rng, int(family[-1]))
                     if family.startswith("random") else None)
                doc = base_doc(family, B)
                n, m = doc["n"], len(doc["btilde"])
                ks = [1 + i % 2] if n == 2 else [rng.randrange(1, n + 1)]
                while len(ks) < length:
                    ks.append(rng.choice([k for k in range(1, n + 1) if k != ks[-1]]))
                lam = [0] * m
                lam[(i // 2) % 2 if n == 2 else rng.randrange(n)] = 1
                if heavy:
                    lam[n:] = [(i // 4) % 2] * (m - n)
                else:
                    if i >= MUTATION_PER_CELL // 2:
                        lam[rng.randrange(n)] += 1
                    lam[n:] = [rng.randrange(2) for _ in range(n, m)]
                doc.update(ks=ks, lam=lam)
                cases.append(_case(f"{family} B={B} ks={tuple(ks)} lam={tuple(lam)}",
                                   ["expand", None, "--route", "mutation"], doc))
    return cases


def count_sweep(rng: random.Random) -> list[dict]:
    """`count` at its default primes and --jobs 1, one case per COUNT_CELLS sequence."""
    cases = []
    for family, seqs, mutable, h1_dim, drawn in COUNT_CELLS:
        for j, seq in enumerate(seqs):
            ks = tuple(int(k) for k in seq)
            if drawn:
                bits = tuple(rng.randrange(2) for _ in mutable)
            else:
                bits = tuple((j >> t) & 1 for t in range(len(mutable)))
            lam = mutable + bits
            cases.append(_case(f"{family} ks={ks} lam={lam} h1={h1_dim}",
                               ["count", None], session(family, ks, lam)))
    return cases


def pentagon(rng: random.Random) -> list[dict]:
    """`identity-check` at growing cone depth; the seed changes nothing."""
    return [_case(f"depth {d}", ["identity-check", "--cone-bound", str(d)])
            for d in PENTAGON_DEPTHS]


def build(workload: str, seed: int) -> list[dict]:
    """The case list of a workload for a seed."""
    builders = {"two_route": two_route, "mutation_sweep": mutation_sweep,
                "count_sweep": count_sweep, "pentagon": pentagon}
    return builders[workload](random.Random(f"{workload}:{seed}"))
