"""Finite presentations of the graded quotient functors.

A FunctorSpec picks one of two families ("H", the finer quotient, or
"Omega", the coarser one), a tensor rank 1..3, and a Hopf algebra.  For
each weight this module materializes the relation rows inside the
corresponding block of H^(x)rank and reports the quotient dimension.

Every presentation, ranks 1 to 3, is one entry of RELATIONS: a tuple
of relations, each a formal sum of words in the slot operators of
tensorspace, applied on the right (left to right) to each basis tuple
of the block.  Over Sym the block's degree picks the finer rank-3
quotient's entry for even or for odd degree.  Every block first imposes
the conjugation defect, the one-word relation (('ad',),), so every
quotient is really a quotient of the reduced tensor power; for the
tensor algebra it also carries the commutators of rank 1.  So every row
is the image of one relation on one basis tuple.

Over the tensor algebra with odd generators, HopfAlgebra(TENSOR, m,
odd=True), the slot operators carry Koszul signs (see hopf and
tensorspace) and a weight block is a sign block of the even algebra:
at a weight nu of size d, the part of the multilinear block on which
the Young subgroup S_nu acts by its sign, with quotient dimension
sum_lam mult_lam * K_{lam',nu}.  Its rows are generated like any
other block's, from its own basis tuples; the tests compare them with
the multilinear block's rows folded onto Young-subgroup orbits, which
they equal up to one sign per column and one per row.
"""

from __future__ import annotations

import json
import os
import hashlib
import tempfile
from dataclasses import dataclass, replace

from .exactla import rank_distinct
from .hopf import SYM, HopfAlgebra
from .tensorspace import apply_expr, basis_size, block_index, tensor_basis
from .version import engine_version

H_FUNCTOR = "H"
OMEGA_FUNCTOR = "Omega"

_S0 = ("S", 0)
_S1 = ("S", 1)
_S2 = ("S", 2)
_SW01 = ("swap", 0, 1)
_SW02 = ("swap", 0, 2)
_SW12 = ("swap", 1, 2)
_E = ("E",)
_F = ("F",)
_U0 = ("U", 0)
_U1 = ("U", 1)
_ID = (1, ())
# the conjugation defect, imposed in every block before RELATIONS
_CONJUGATION_DEFECT = ((1, (("ad",),)),)

# The six rank-3 relation operators for the finer quotient, as formal
# sums of words.  Words act left to right: (u, v) means u then v.
RANK3_H_EXPRS = (
    ((1, ()), (1, (_S0, _S1, _S2, _SW01))),
    ((1, ()), (1, (_SW02,)), (-1, (_SW01, _SW12)), (-1, (_SW01,))),
    ((1, ()), (1, (_SW12,)), (1, (_S0,)), (1, (_S0, _SW12))),
    (
        (1, ()),
        (1, (_E, _SW12)),
        (1, (_F, _SW02)),
        (-1, (_SW01,)),
        (-1, (_SW01, _F, _SW02)),
        (-1, (_SW01, _E, _SW12)),
    ),
    (
        (1, ()),
        (1, (_E, _SW12)),
        (1, (_F, _SW02)),
        (1, (_S0,)),
        (1, (_S0, _E, _SW12)),
        (1, (_S0, _F, _SW02)),
    ),
    (
        (1, (_S0, _SW12, _E, _SW12)),
        (1, (_S0, _SW12, _F, _SW02)),
        (1, (_E, _SW12)),
        (1, (_F, _SW02)),
    ),
)

# The coarser rank-3 quotient keeps operators 1, 2 and 6 and adds two
# elementwise relation families (see RELATIONS).
RANK3_OMEGA_EXPRS = (RANK3_H_EXPRS[0], RANK3_H_EXPRS[1], RANK3_H_EXPRS[5])

# The finer rank-3 quotient of Sym at even and at odd total degree: the
# quotient RANK3_H_EXPRS gives there, from fewer rows.
SYM_EVEN_EXPRS = (
    ((1, ()), (1, (_SW01,))),
    ((1, ()), (1, (_SW12,))),
    ((1, ()), (-1, (_S0,))),
    ((1, (_E,)), (1, (_F,)), (-1, ())),
)

SYM_ODD_EXPRS = (
    ((1, ()), (-1, (_SW01,))),
    RANK3_H_EXPRS[2],
    RANK3_H_EXPRS[4],
    (
        (-1, (_SW12, _E, _SW12)),
        (-1, (_SW12, _F, _SW02)),
        (1, (_E, _SW12)),
        (1, (_F, _SW02)),
        (1, (_S0, _SW12, _E, _SW12)),
        (1, (_S0, _SW12, _F, _SW02)),
        (-1, (_S0, _E, _SW12)),
        (-1, (_S0, _F, _SW02)),
    ),
)


_ANTIPODE = (_ID, (1, (_S0,)))
_SWAP = (_ID, (-1, (_SW01,)))
# 1 (x) a (x) b  ->  1 (x) a (x) b + 1 (x) b (x) a
_UNIT_SLOT_SYMMETRY = ((1, (_U0,)), (1, (_U0, _SW12)))
# a (x) 1 (x) b  ->  a (x) Delta(b), by cocommutativity
_COPRODUCT_IMAGE = ((1, (_U1, _SW02, _E, _SW02)),)

# (functor, rank, parity) -> relations, in the order their rows are
# generated for each basis tuple; both functors coincide in rank 1.  A
# Sym block takes its degree's parity entry where there is one, others "none".
RELATIONS = {
    (H_FUNCTOR, 1, "none"): (_ANTIPODE,),
    (OMEGA_FUNCTOR, 1, "none"): (_ANTIPODE,),
    (H_FUNCTOR, 2, "none"): (
        _SWAP,
        _ANTIPODE,
        (_ID, (1, (_S0, _E, _SW01)), (1, (_SW01, _S0, _E))),
    ),
    (OMEGA_FUNCTOR, 2, "none"): (
        _SWAP,
        (_ID, (-1, (_S0, _S1))),
        ((1, (_U0,)),),
        (_ID, (1, (_SW01, _S0, _F)), (1, (_S0, _F, _SW01))),
    ),
    (H_FUNCTOR, 3, "none"): RANK3_H_EXPRS,
    (OMEGA_FUNCTOR, 3, "none"): RANK3_OMEGA_EXPRS + (_UNIT_SLOT_SYMMETRY, _COPRODUCT_IMAGE),
    (H_FUNCTOR, 3, "even"): SYM_EVEN_EXPRS,
    (H_FUNCTOR, 3, "odd"): SYM_ODD_EXPRS,
}


@dataclass(frozen=True)
class FunctorSpec:
    """Which quotient functor to realize, over which Hopf algebra."""

    functor: str
    rank: int
    hopf: HopfAlgebra

    def __post_init__(self):
        if self.functor not in (H_FUNCTOR, OMEGA_FUNCTOR):
            raise ValueError(f"functor must be H or Omega, got {self.functor!r}")
        if self.rank not in (1, 2, 3):
            raise ValueError("rank must be 1, 2 or 3")

    def with_num_vars(self, m: int) -> "FunctorSpec":
        return replace(self, hopf=replace(self.hopf, num_vars=m))

    def key(self) -> str:
        key = f"{self.functor}|{self.rank}|{self.hopf.kind}|{self.hopf.num_vars}"
        return key + "|odd" if self.hopf.odd else key


def relation_rows(spec: FunctorSpec, weight):
    """Materialize the relation rows for one weight block.

    Returns (basis, rows) where rows are integer dict-vectors over
    column indices into basis, each packed as soon as it is generated:
    the nonzero images of the conjugation defect on every basis tuple,
    then, basis tuple by basis tuple, those of the block's relations.
    """
    H = spec.hopf
    weight = tuple(weight)
    key = (spec.functor, spec.rank)
    parity = ("odd" if sum(weight) % 2 else "even") if H.kind == SYM else "none"
    exprs = RELATIONS.get(key + (parity,)) or RELATIONS[key + ("none",)]
    # odd generators have the same basis: share the even block's cache entry
    basis = tensor_basis(replace(H, odd=False), spec.rank, weight)
    index = block_index(basis)
    rows = []
    for group in ((_CONJUGATION_DEFECT,), exprs):
        for t in basis:
            for expr in group:
                row = apply_expr(H, expr, t)
                if row:
                    rows.append({index[u]: c for u, c in row.items()})
    return basis, rows


@dataclass
class BlockResult:
    weight: tuple
    ambient_dim: int
    rank: int

    @property
    def quotient_dim(self) -> int:
        return self.ambient_dim - self.rank


_MEM_CACHE: dict = {}


def _cache_token(spec: FunctorSpec, weight) -> str:
    return f"{spec.key()}|{','.join(map(str, weight))}"


def _cache_path(cache_dir, token: str):
    digest = hashlib.sha256(token.encode()).hexdigest()[:20]
    return os.path.join(cache_dir, f"{digest}-{engine_version()}.json")


def compute_block(spec: FunctorSpec, weight) -> BlockResult:
    basis, rows = relation_rows(spec, weight)
    # hand the rows over one at a time, in order, so that each packed
    # row is freed as soon as rank_distinct has normalized it
    rows.reverse()
    rank = rank_distinct(rows.pop() for _ in range(len(rows)))
    return BlockResult(tuple(weight), len(basis), rank)


def _spec_record(spec: FunctorSpec) -> dict:
    return {
        "functor": spec.functor,
        "rank": spec.rank,
        "hopf": spec.hopf.kind,
        "num_vars": spec.hopf.num_vars,
        "odd": spec.hopf.odd,
    }


def _read_record(path, spec: FunctorSpec, weight):
    """The result a disk-cache file holds for this block, or None when
    the file is missing, unreadable, stale, malformed, inconsistent or
    about another block."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict):
        return None
    ambient, rank, quotient = (record.get(f) for f in ("ambient_dim", "rank", "quotient_dim"))
    if (
        record.get("engine_version_hash") != engine_version()
        or record.get("spec") != _spec_record(spec)
        or record.get("weight") != list(weight)
        or any(type(value) is not int for value in (ambient, rank, quotient))
        # the three numbers must agree with each other and with the block
        or not 0 <= rank <= ambient == basis_size(spec.hopf, spec.rank, weight)
        or quotient != ambient - rank
    ):
        return None
    return BlockResult(tuple(weight), ambient, rank)


def in_memory(spec: FunctorSpec, weight) -> bool:
    """Whether block_result would answer from the in-memory cache."""
    return _cache_token(spec, weight) in _MEM_CACHE


def remember_block(spec: FunctorSpec, weight, result: BlockResult) -> None:
    """Put a result computed elsewhere, e.g. in a pool worker, in the
    in-memory cache."""
    _MEM_CACHE[_cache_token(spec, weight)] = result


def block_result(spec: FunctorSpec, weight, cache_dir=None) -> BlockResult:
    """compute_block with an in-memory cache (last writer wins) and an
    optional on-disk cache keyed by content and engine version.  A disk
    record that does not check out is a cache miss."""
    token = _cache_token(spec, weight)
    hit = _MEM_CACHE.get(token)
    if hit is not None:
        return hit
    path = None
    if cache_dir:
        path = _cache_path(cache_dir, token)
        result = _read_record(path, spec, weight)
        if result is not None:
            _MEM_CACHE[token] = result
            return result
    result = compute_block(spec, weight)
    _MEM_CACHE[token] = result
    if path is not None:
        record = {
            "spec": _spec_record(spec),
            "weight": list(result.weight),
            "ambient_dim": result.ambient_dim,
            "rank": result.rank,
            "quotient_dim": result.quotient_dim,
            "engine_version_hash": engine_version(),
        }
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return result
