"""Exact skew-symmetric quantum cluster algebra computations.

Cluster variables and monomials are computed two independent ways (direct
quantum seed mutation, and conjugation by truncated Pochhammer DT series)
and cross-validated against quiver Grassmannian point counts over small
finite fields.  All arithmetic is exact: integers, Fractions and Laurent
polynomials in v = q^(1/2).  The package holds what those three routes and
the command line run; reference implementations that only the tests use
live in tests/oracles.py.
"""

from .decorated import DecRep, h1_aggregate, mutate_rep, negative_simple
from .dtseries import (ConeSeries, SignSeqResult, cone_form, conjugate, dt_factors,
                       dt_product_pair, factorization_check, g_of_lambda,
                       initial_class_map, pochhammer, sign_sequence)
from .grassmannian import (FqRep, coefficient_crosscheck, gr_count, serre_interpolate,
                           to_fq)
from .qlaurent import QLaurent, lefschetz_decompose
from .quiver import (Potential, QPData, Quiver, cyclic_derivative, euler_form,
                     from_btilde, mutate_qp, mutate_qp_sequence, mutation_step,
                     reduce_with_trail)
from .seed import (ClusterMonomialResult, QuantumSeed, cluster_monomial,
                   f_polynomial, frame_monomial, g_vector, initial_seed,
                   mutate, mutate_sequence)
from .torus import SkewForm, TorusElement, exact_right_divide, is_positive

__all__ = [
    "QLaurent", "lefschetz_decompose",
    "SkewForm", "TorusElement", "exact_right_divide", "is_positive",
    "QuantumSeed", "ClusterMonomialResult", "initial_seed", "frame_monomial",
    "mutate", "mutate_sequence", "cluster_monomial", "g_vector", "f_polynomial",
    "Quiver", "Potential", "QPData", "from_btilde",
    "cyclic_derivative", "mutation_step", "reduce_with_trail", "mutate_qp",
    "mutate_qp_sequence", "euler_form",
    "DecRep", "negative_simple", "mutate_rep", "h1_aggregate",
    "SignSeqResult", "ConeSeries", "cone_form", "sign_sequence", "pochhammer", "dt_factors",
    "dt_product_pair", "conjugate",
    "factorization_check", "g_of_lambda", "initial_class_map",
    "FqRep", "to_fq", "gr_count", "serre_interpolate",
    "coefficient_crosscheck",
]
