"""From block quotient dimensions to GL-irreducible multiplicities.

Everything in sight is GL(V)-equivariant, so a graded piece is
determined by its highest-weight (HW) vectors: mult_lam is the quotient
dimension of the HW block at lam (see presentations), one block per
partition lam of the degree with at most as many parts as variables,
and no solve is needed.

Over the tensor algebra the HW blocks at lam and at lam' both have
cuts * f^lam columns, one per standard tableau and cut of a word into
slots, but their bideterminants expand differently: f^lam *
prod(lam'_j!) monomials per cut at lam, against f^lam * prod(lam_i!)
at lam'.  Over odd generators the functor holds mult_lam copies of the
irreducible of shape lam' (super duality, as for the sign blocks of
presentations), so the HW block at lam' over odd generators has the
same quotient dimension.  It is taken instead when M(lam) > M(lam'),
with M(lam) = d!/prod(lam_i!), that is when prod(lam_i!) <
prod(lam'_j!): the smaller expansion.

Check blocks confirm the HW ranks.  An ordinary weight block at mu has
dimension sum_kappa mult_kappa * K_{kappa,mu}, a sign block at mu (the
weight block over odd generators) sum_kappa mult_kappa * K_{kappa',mu}.
The check blocks sit at the hook mu = (d - r + 1, 1, ..., 1) with r
parts: over Sym the ordinary one, with r = min(rank, d), which sees the
kappa with kappa_1 >= d - r + 1 (for d >= rank: (d), (d-1, 1), (d-2, 2)
and (d-2, 1, 1) at rank 3); over the tensor algebra the ordinary and
the sign one, with r = min(2, d), which see (d) and (d-1, 1), and
(1^d) and (2, 1^(d-2)).  A wrong HW rank at any other partition passes
the checks.  weight_dims holds the predicted sums
sum_kappa mult_kappa * K_{kappa,mu}.

The number of variables is the row bound: rank many for sym, the
degree for tensor; no partition with more rows can appear.

When a pool computes blocks, and how, is written once, in the
_pool_misses docstring.  tables.verify_against hands it the blocks
cell_blocks lists for all its cells, so that no cell waits for the one
before it, and then decomposes each cell.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace

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
from .presentations import (
    FunctorSpec,
    block_cols,
    block_result,
    cached_result,
    remember_block,
)
from .version import engine_version

VIOLATION = "VIOLATION"


class InconsistentBlockTableError(RuntimeError):
    """The block dimensions of a cell disagree: a check block's
    dimension does not match the one its multiplicities predict."""


def default_num_vars(spec: FunctorSpec, degree: int) -> int:
    if spec.hopf.kind == SYM:
        return spec.rank
    return max(degree, 1)


def pad_weight(lam, m: int) -> tuple:
    return tuple(lam) + (0,) * (m - len(lam))


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


def _block_job(args):
    spec, weight, cache_dir = args
    return block_result(spec, weight, cache_dir=cache_dir)


def _pool_misses(blocks, jobs, cache_dir) -> None:
    """The one rule for when a run starts a pool.  With jobs < 2 it
    returns at once, looking nothing up, and block_result computes each
    block in this process when a cell reads it.  Otherwise it lists the
    (spec, weight) blocks that neither the memory cache nor a disk
    record in cache_dir holds, and pools them only when two or more are
    HW blocks; the check blocks among them go with them.  The pool has
    jobs workers, or one per missing block when there are fewer, and
    opens and closes inside this call around one map, largest block
    first and one at a time (Graham's LPT rule), so that no worker is
    left with a large block at the end.  Its results join the memory
    cache.  A warm cache_dir starts no pool, and neither does decompose
    on a cell with one HW block, such as a degree-1 tensor cell, whose
    two check blocks make three misses."""
    if jobs < 2:
        return
    misses = [b for b in blocks if cached_result(*b, cache_dir) is None]
    if sum(spec.highest_weight for spec, _ in misses) > 1:
        misses.sort(key=lambda b: block_cols(*b), reverse=True)
        with multiprocessing.Pool(min(jobs, len(misses))) as pool:
            computed = pool.map(_block_job, [(*b, cache_dir) for b in misses], chunksize=1)
        # a worker's memory cache is not the parent's; keep its results here
        for block, result in zip(misses, computed):
            remember_block(*block, result)


def _predicted(block, entries) -> int:
    """The dimension the multiplicities give a block: the sum of
    mult_kappa * K_{kappa,mu} for the weight block at mu, and of
    mult_kappa * K_{kappa',nu} for the sign block at nu."""
    spec, weight = block
    return sum(mult * kostka(conjugate(kappa) if spec.hopf.odd else kappa, weight)
               for kappa, mult in entries.items())


def cell_blocks(spec: FunctorSpec, degree: int) -> tuple:
    """The blocks decompose reads for one graded piece, as (wspec, hw,
    checks): the weight spec on the row bound's number of variables, the
    HW block of each partition of the degree in partitions_of order, and
    the list of check blocks."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if spec.hopf.odd or spec.highest_weight:
        raise ValueError("decompose takes a spec of weight blocks over even generators")
    m = default_num_vars(spec, degree)
    wspec = spec.with_num_vars(m)
    hw = replace(wspec, highest_weight=True)
    sym = wspec.hopf.kind == SYM

    def odd(s):
        return replace(s, hopf=replace(s.hopf, odd=True))

    def hw_block(lam):
        # lam, or lam' over odd generators where its bideterminants
        # expand to fewer monomials, which is where M(lam) > M(lam'):
        # the weight blocks' sizes are C(d + rank - 1, rank - 1) times
        # M(lam) and M(lam')
        lam, dual = pad_weight(lam, m), pad_weight(conjugate(lam), m)
        if not sym and block_cols(wspec, lam) > block_cols(wspec, dual):
            return odd(hw), dual
        return hw, lam

    r = min(wspec.rank if sym else 2, degree)
    hook = pad_weight((degree - r + 1,) + (1,) * (r - 1) if r else (), m)
    checks = [(wspec, hook)] if sym else [(wspec, hook), (odd(wspec), hook)]
    return wspec, {lam: hw_block(lam) for lam in partitions_of(degree, m)}, checks


def decompose(
    spec: FunctorSpec,
    degree: int,
    jobs: int = 1,
    cache_dir=None,
) -> Decomposition:
    """Decompose one graded piece of the chosen functor.

    The hopf algebra inside spec only contributes its kind, and its
    generators must be even; the number of variables is replaced by the
    row bound.  jobs goes to _pool_misses with the cell's blocks.
    """
    wspec, hw, checks = cell_blocks(spec, degree)
    m = wspec.hopf.num_vars
    blocks = [*hw.values(), *checks]
    _pool_misses(blocks, jobs, cache_dir)
    dims = {b: block_result(*b, cache_dir=cache_dir).quotient_dim for b in blocks}
    entries = {lam: dims[block] for lam, block in hw.items() if dims[block]}
    weight_dims = {lam: _predicted((wspec, pad_weight(lam, m)), entries) for lam in hw}
    for check in checks:
        predicted = _predicted(check, entries)
        if dims[check] != predicted:
            raise InconsistentBlockTableError(
                f"check block {check[0].key()} at {check[1]} has dimension {dims[check]}, but "
                f"the multiplicities of {wspec.key()} degree {degree} predict {predicted}"
            )
    return Decomposition(wspec, degree, entries, weight_dims)


# --- comparison against the closed multiplicity formulas ---------------

# (functor, rank) -> the closed formula, on a partition padded to rank parts
_BOUNDS = {
    ("H", 2): rank2_multiplicity,
    ("Omega", 2): omega2_sym_multiplicity,
    ("H", 3): rank3_h_bound,
    ("Omega", 3): rank3_omega_bound,
}


def verify_bounds(dec: Decomposition) -> dict:
    """Compare computed multiplicities with the predicted ones, for
    every partition of the degree with at most `rank` rows: the report
    that `bounds` prints, ok unless a row is a VIOLATION."""
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
        rows.append({"partition": list(lam), "computed": computed, "bound": bound,
                     "relation": relation})
    return {
        "functor": spec.functor,
        "rank": spec.rank,
        "hopf": SYM,
        "degree": dec.degree,
        "rows": rows,
        "ok": all(row["relation"] != VIOLATION for row in rows),
        "engine_version": engine_version(),
    }
