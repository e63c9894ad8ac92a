"""From per-weight quotient dimensions to GL-irreducible multiplicities.

Everything in sight is GL(V)-equivariant, so a graded piece is
determined by the quotient dimensions of its dominant weight blocks.
Writing dim_mu = sum_lam mult_lam * K_{lam,mu} with K the Kostka
numbers, and walking dominant weights in descending lexicographic order
(a linear extension of dominance), the system is unitriangular and
solves by back substitution.

The number of variables defaults to the row bound: rank many for sym,
the degree for tensor; no partition with more rows can appear.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from math import factorial

from .combinatorics import (
    kostka,
    omega2_sym_multiplicity,
    partitions_of,
    rank2_multiplicity,
    rank3_h_bound,
    rank3_omega_bound,
    weyl_dim,
)
from .hopf import SYM
from .presentations import FunctorSpec, block_result, in_memory, remember_block

VIOLATION = "VIOLATION"


class InconsistentBlockTableError(RuntimeError):
    """The per-weight dimensions admit no nonnegative multiplicities."""

    def __init__(self, message, table):
        super().__init__(f"{message}; weight table {table}")
        self.table = table


def default_num_vars(spec: FunctorSpec, degree: int) -> int:
    if spec.hopf.kind == SYM:
        return spec.rank
    return max(degree, 1)


def pad_weight(lam, m: int) -> tuple:
    return tuple(lam) + (0,) * (m - len(lam))


def weight_orbit_size(lam, m: int) -> int:
    """Distinct permutations of the padded weight vector."""
    padded = pad_weight(lam, m)
    size = factorial(m)
    for value in set(padded):
        size //= factorial(padded.count(value))
    return size


@dataclass
class Decomposition:
    spec: FunctorSpec
    degree: int
    entries: dict
    weight_dims: dict

    @property
    def num_vars(self) -> int:
        return self.spec.hopf.num_vars

    def multiplicity(self, lam) -> int:
        return self.entries.get(tuple(lam), 0)

    def total_dim(self, m: int | None = None) -> int:
        if m is None:
            m = self.num_vars
        return sum(mult * weyl_dim(lam, m) for lam, mult in self.entries.items())

    def summed_block_dims(self) -> int:
        """Sum of quotient dims over all weights, via orbit counting."""
        return sum(
            dim * weight_orbit_size(lam, self.num_vars)
            for lam, dim in self.weight_dims.items()
        )


def _block_job(args):
    spec, weight, cache_dir = args
    return block_result(spec, weight, cache_dir=cache_dir)


def decompose(
    spec: FunctorSpec,
    degree: int,
    num_vars: int | None = None,
    jobs: int = 1,
    cache_dir=None,
) -> Decomposition:
    """Decompose one graded piece of the chosen functor.

    The hopf algebra inside spec only contributes its kind; the number
    of variables is replaced by num_vars (default: the row bound).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    m = num_vars if num_vars is not None else default_num_vars(spec, degree)
    wspec = spec.with_num_vars(m)
    parts = partitions_of(degree, m)
    jobs_args = [(wspec, pad_weight(lam, m), cache_dir) for lam in parts]
    misses = [a for a in jobs_args if not in_memory(wspec, a[1])]
    if jobs > 1 and len(misses) > 1:
        with multiprocessing.Pool(jobs) as pool:
            computed = pool.map(_block_job, misses)
        # a worker's memory cache dies with it; keep its results here
        for (_, weight, _), result in zip(misses, computed):
            remember_block(wspec, weight, result)
    outcomes = [_block_job(a) for a in jobs_args]
    weight_dims = {lam: res.quotient_dim for lam, res in zip(parts, outcomes)}

    entries: dict = {}
    for lam in parts:
        value = weight_dims[lam]
        for kappa, mult in entries.items():
            value -= mult * kostka(kappa, lam)
        if value < 0:
            raise InconsistentBlockTableError(
                f"negative multiplicity for {lam} in {wspec.key()} degree {degree}",
                weight_dims,
            )
        if value:
            entries[lam] = value
    dec = Decomposition(wspec, degree, entries, weight_dims)
    _check_reconstruction(dec)
    return dec


def _check_reconstruction(dec: Decomposition) -> None:
    """Weyl-dimension sum must reproduce the orbit-summed block dims;
    hook content and tableau counting arrive there independently."""
    via_weyl = dec.total_dim()
    via_blocks = dec.summed_block_dims()
    if via_weyl != via_blocks:
        raise InconsistentBlockTableError(
            f"reconstruction mismatch {via_weyl} != {via_blocks} "
            f"for {dec.spec.key()} degree {dec.degree}",
            dec.weight_dims,
        )


# --- comparison against the closed multiplicity formulas ---------------

@dataclass(frozen=True)
class BoundRow:
    partition: tuple
    computed: int
    bound: int
    relation: str


@dataclass
class BoundReport:
    spec: FunctorSpec
    degree: int
    rows: list

    @property
    def ok(self) -> bool:
        return all(row.relation != VIOLATION for row in self.rows)


def _bound_fn(spec: FunctorSpec):
    if spec.hopf.kind != SYM:
        raise ValueError("multiplicity formulas only cover sym")
    table = {
        ("H", 2): lambda a, b=0: rank2_multiplicity(a, b),
        ("Omega", 2): lambda a, b=0: omega2_sym_multiplicity(a, b),
        ("H", 3): lambda a, b=0, c=0: rank3_h_bound(a, b, c),
        ("Omega", 3): lambda a, b=0, c=0: rank3_omega_bound(a, b, c),
    }
    try:
        return table[(spec.functor, spec.rank)]
    except KeyError:
        raise ValueError(f"no multiplicity formula for {spec.functor} rank {spec.rank}")


def verify_bounds(dec: Decomposition) -> BoundReport:
    """Compare computed multiplicities with the predicted ones, for
    every partition of the degree with at most `rank` rows."""
    fn = _bound_fn(dec.spec)
    rows = []
    for lam in partitions_of(dec.degree, dec.spec.rank):
        computed = dec.multiplicity(lam)
        bound = fn(*lam)
        if computed == bound:
            relation = "="
        elif computed > bound:
            relation = ">"
        else:
            relation = VIOLATION
        rows.append(BoundRow(lam, computed, bound, relation))
    return BoundReport(dec.spec, dec.degree, rows)
