"""From block quotient dimensions to GL-irreducible multiplicities.

Everything in sight is GL(V)-equivariant, so a graded piece is
determined by the quotient dimensions of its dominant weight blocks.
Writing dim_mu = sum_lam mult_lam * K_{lam,mu} with K the Kostka
numbers, and walking dominant weights in descending lexicographic order
(a linear extension of dominance), the system is unitriangular and
solves by back substitution.

Over Sym no solve is needed: mult_lam is the quotient dimension of the
highest-weight (HW) block at lam, whose basis is the weyl_dim(lam,
rank) standard bideterminants of shape lam (see presentations), one
block per partition with at most rank parts.  One ordinary weight block
is computed as well, the check block at the hook mu = (d - r + 1, 1,
..., 1) with r = min(rank, d) parts, and its dimension must equal
sum_kappa mult_kappa * K_{kappa,mu}.  The kappa it sees are those that
dominate mu, the kappa_1 >= d - r + 1: for d >= rank, (d), (d-1, 1),
(d-2, 2) and (d-2, 1, 1) at rank 3, (d) and (d-1, 1) at rank 2, (d)
at rank 1.  A wrong HW rank at any other partition passes the check.  weight_dims holds the predicted sums
sum_kappa mult_kappa * K_{kappa,mu}.

Over the tensor algebra, the solve runs from both ends of dominance.
In degree d, the block at lam has M(lam) = d!/prod(lam_i!) times a
constant columns, and {lam : M(lam) <= M(lam')} is an up-set.  It is
solved top down from ordinary weight blocks, as above.  The down-set
is solved bottom up from the sign blocks at lam': the weight blocks at
lam' of the same functor over odd generators (see presentations), whose
dimensions are sum_kappa mult_kappa * K_{kappa',lam'}, again
unitriangular.  So the multilinear block, the largest one, is never
built.  One boundary block, the smallest of the ordinary blocks on the
down-set and the sign blocks at lam' for lam on the up-set, is
computed as well and must match the value the multiplicities of both
halves predict.  weight_dims then holds the computed dimension on the
up-set and the predicted sum_kappa mult_kappa * K_{kappa,mu} on the
down-set.

The number of variables is the row bound: rank many for sym, the
degree for tensor; no partition with more rows can appear.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from math import factorial

from .combinatorics import (
    conjugate,
    kostka,
    omega2_sym_multiplicity,
    partitions_of,
    rank2_multiplicity,
    rank3_h_bound,
    rank3_omega_bound,
    weyl_dim,
)
from .hopf import SYM
from .presentations import FunctorSpec, block_cols, block_result, in_memory, remember_block

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


def _block_cols(block) -> int:
    return block_cols(*block)


def _quotient_dims(blocks, jobs, cache_dir) -> dict:
    """Quotient dimension of each (spec, weight) block.  Blocks missing
    from the memory cache go to a process pool, largest first and one
    at a time, when there are two or more of them."""
    misses = [b for b in blocks if not in_memory(*b)]
    if jobs > 1 and len(misses) > 1:
        misses.sort(key=_block_cols, reverse=True)
        with multiprocessing.Pool(jobs) as pool:
            computed = pool.map(_block_job, [(*b, cache_dir) for b in misses], chunksize=1)
        # a worker's memory cache dies with it; keep its results here
        for block, result in zip(misses, computed):
            remember_block(*block, result)
    return {b: _block_job((*b, cache_dir)).quotient_dim for b in blocks}


def _predicted(block, entries) -> int:
    """The dimension the multiplicities give a block: the sum of
    mult_kappa * K_{kappa,mu} for the weight block at mu, and of
    mult_kappa * K_{kappa',nu} for the sign block at nu."""
    spec, weight = block
    return sum(mult * kostka(conjugate(kappa) if spec.hopf.odd else kappa, weight)
               for kappa, mult in entries.items())


def decompose(
    spec: FunctorSpec,
    degree: int,
    jobs: int = 1,
    cache_dir=None,
) -> Decomposition:
    """Decompose one graded piece of the chosen functor.

    The hopf algebra inside spec only contributes its kind, and its
    generators must be even; the number of variables is replaced by the
    row bound.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if spec.hopf.odd or spec.highest_weight:
        raise ValueError("decompose takes a spec of weight blocks over even generators")
    m = default_num_vars(spec, degree)
    wspec = spec.with_num_vars(m)
    parts = partitions_of(degree, m)
    solve = _highest_weight_solve if wspec.hopf.kind == SYM else _two_ended_solve
    entries, weight_dims = solve(wspec, degree, parts, jobs, cache_dir)
    dec = Decomposition(wspec, degree, entries, weight_dims)
    _check_reconstruction(dec)
    return dec


def _check_block(kind, block, dim, entries, wspec, degree, table) -> None:
    """A block computed besides those the multiplicities come from must
    have the dimension they predict."""
    predicted = _predicted(block, entries)
    if dim != predicted:
        raise InconsistentBlockTableError(
            f"{kind} block {block[0].key()} at {block[1]} has dimension {dim}, but the "
            f"multiplicities of {wspec.key()} degree {degree} predict {predicted}",
            table,
        )


def _highest_weight_solve(wspec, degree, parts, jobs, cache_dir):
    """Sym: the multiplicity of lam is the quotient dimension of the HW
    block at lam.  The check block is the ordinary weight block at the
    hook mu = (d - r + 1, 1, ..., 1) with r = min(rank, d) parts.
    K_{kappa,mu} is nonzero exactly when kappa dominates mu, which for
    a kappa of at most r parts means kappa_1 >= d - r + 1; those kappa
    have every row count from 1 to r, and a wrong HW dimension at any
    of them shows in the check."""
    m = wspec.hopf.num_vars
    hw = replace(wspec, highest_weight=True)
    r = min(wspec.rank, degree)
    hook = (degree - r + 1,) + (1,) * (r - 1) if r else ()
    check = (wspec, pad_weight(hook, m))
    blocks = [(hw, pad_weight(lam, m)) for lam in parts]
    dims = _quotient_dims(blocks + [check], jobs, cache_dir)
    entries = {lam: dims[block] for lam, block in zip(parts, blocks) if dims[block]}
    weight_dims = {lam: _predicted((wspec, lam), entries) for lam in parts}
    _check_block("check", check, dims[check], entries, wspec, degree, weight_dims)
    return entries, weight_dims


def _two_ended_solve(wspec, degree, parts, jobs, cache_dir):
    """Tensor: the Kostka solve from both ends of dominance, with the
    boundary block."""
    m = wspec.hopf.num_vars
    sspec = replace(wspec, hopf=replace(wspec.hopf, odd=True))

    def ordinary(lam):
        return (wspec, pad_weight(lam, m))

    def sign(lam):
        return (sspec, pad_weight(conjugate(lam), m))

    up = [lam for lam in parts if _block_cols(ordinary(lam)) <= _block_cols(sign(lam))]
    down = [lam for lam in parts if lam not in up]
    # top down through the up-set, then bottom up through the down-set:
    # every kappa whose coefficient in lam's block is nonzero comes first
    order = [(lam, ordinary(lam)) for lam in up] + [(lam, sign(lam)) for lam in reversed(down)]
    blocks = [block for _, block in order]
    boundary = None
    if down:
        boundary = min([ordinary(lam) for lam in down] + [sign(lam) for lam in up], key=_block_cols)
        blocks.append(boundary)
    dims = _quotient_dims(blocks, jobs, cache_dir)

    table = {lam: dims[block] for lam, block in order}
    solved: dict = {}
    for lam, block in order:
        value = dims[block] - _predicted(block, solved)
        if value < 0:
            raise InconsistentBlockTableError(
                f"negative multiplicity for {lam} in {wspec.key()} degree {degree}", table
            )
        if value:
            solved[lam] = value
    entries = {lam: solved[lam] for lam in parts if lam in solved}
    weight_dims = {lam: table[lam] if lam in up else _predicted(ordinary(lam), entries)
                   for lam in parts}
    if boundary is not None:
        _check_block("boundary", boundary, dims[boundary], entries, wspec, degree, weight_dims)
    return entries, weight_dims


def _check_reconstruction(dec: Decomposition) -> None:
    """The Weyl-dimension sum must reproduce the orbit-summed block
    dims.  weight_dims equals sum_kappa mult_kappa * K_{kappa,mu} by
    construction: for Sym every entry is that prediction, and for
    tensor the computed up-set entries equal it once the solve
    succeeds.  So this checks kostka, weyl_dim and weight_orbit_size
    against each other, not the block dimensions: a wrong block rank
    that leaves every multiplicity nonnegative passes it.  The block
    dimensions are checked by the Sym check block and the tensor
    boundary block."""
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


# (functor, rank) -> the closed formula, on a partition padded to rank parts
_BOUNDS = {
    ("H", 2): rank2_multiplicity,
    ("Omega", 2): omega2_sym_multiplicity,
    ("H", 3): rank3_h_bound,
    ("Omega", 3): rank3_omega_bound,
}


def verify_bounds(dec: Decomposition) -> BoundReport:
    """Compare computed multiplicities with the predicted ones, for
    every partition of the degree with at most `rank` rows."""
    spec = dec.spec
    if spec.hopf.kind != SYM:
        raise ValueError("multiplicity formulas only cover sym")
    fn = _BOUNDS.get((spec.functor, spec.rank))
    if fn is None:
        raise ValueError(f"no multiplicity formula for {spec.functor} rank {spec.rank}")
    rows = []
    for lam in partitions_of(dec.degree, spec.rank):
        computed = dec.multiplicity(lam)
        bound = fn(*pad_weight(lam, spec.rank))
        if computed == bound:
            relation = "="
        elif computed > bound:
            relation = ">"
        else:
            relation = VIOLATION
        rows.append(BoundRow(lam, computed, bound, relation))
    return BoundReport(dec.spec, dec.degree, rows)
