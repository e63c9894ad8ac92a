"""Exact GL-decompositions of presented quotients of cocommutative
Hopf-algebra tensor powers."""

from .combinatorics import (
    cusp_dim,
    kostka,
    omega2_sym_multiplicity,
    omega_dim,
    partitions_of,
    rank2_multiplicity,
    rank3_h_bound,
    rank3_omega_bound,
    weyl_dim,
)
from .decompose import Decomposition, decompose, verify_bounds
from .hopf import SYM, TENSOR, HopfAlgebra
from .presentations import (
    FunctorSpec,
    H_FUNCTOR,
    OMEGA_FUNCTOR,
    relation_rows,
)
from .version import engine_version

__all__ = [
    "Decomposition",
    "FunctorSpec",
    "H_FUNCTOR",
    "HopfAlgebra",
    "OMEGA_FUNCTOR",
    "SYM",
    "TENSOR",
    "cusp_dim",
    "decompose",
    "engine_version",
    "kostka",
    "omega2_sym_multiplicity",
    "omega_dim",
    "partitions_of",
    "rank2_multiplicity",
    "rank3_h_bound",
    "rank3_omega_bound",
    "relation_rows",
    "verify_bounds",
    "weyl_dim",
]
