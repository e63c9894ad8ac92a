"""Finite presentations of the graded quotient functors.

A FunctorSpec picks one of two families ("H", the finer quotient, or
"Omega", the coarser one), a tensor rank 1..3, and a Hopf algebra.  For
each weight this module materializes the relation rows inside the
corresponding block of H^(x)rank and reports the quotient dimension.

Every presentation, ranks 1 to 3, is one entry of RELATIONS: a tuple
of relations, each a formal sum of words in the slot operators of
tensorspace, applied on the right (left to right) to each basis tuple
of the block.  Over Sym the block's degree picks the finer rank-3
quotient's entry for even or for odd degree.  Every block of the tensor
algebra first imposes the conjugation defect, the one-word relation
(('ad',),), so every quotient is really a quotient of the reduced tensor
power; over Sym, whose product commutes, the defect is zero and is
skipped.  At rank 1 the defect's rows are the commutators v*r - r*v,
and the only entry of RELATIONS is the antipode relation.  So every row
is the image of one relation on one vector, and every block, weight,
sign or HW, lists its rows vector by vector and, for each vector,
relation by relation in the order of block_relations, the one place
that picks a block's relations.

Over the tensor algebra with odd generators, HopfAlgebra(TENSOR, m,
odd=True), the slot operators carry Koszul signs (see hopf and
tensorspace) and a weight block is a sign block of the even algebra:
at a weight nu of size d, the part of the multilinear block on which
the Young subgroup S_nu acts by its sign, with quotient dimension
sum_lam mult_lam * K_{lam',nu}.  Its rows are generated like any
other block's, from its own basis tuples; the tests compare them with
the multilinear block's rows folded onto Young-subgroup orbits, which
they equal up to one sign per column and one per row.

A spec with highest_weight=True gives highest-weight (HW) blocks, one
per partition lam: its quotient dimension is the multiplicity of lam
itself.  Every relation, the conjugation defect included, is a
GL(V)-equivariant map, so the HW vectors of the relation span are the
relations' images of the HW vectors of H^(x)n.  Their basis is built
from bideterminants (De Concini, Eisenbud and Procesi, Young diagrams
and determinantal varieties, 1980): for a tableau T of shape lam, the
product over T's columns s_0 < ... < s_{k-1} of the minor
det[x_{s_i, j}], j = 0..k-1.
  * Over Sym, x_{s, j} is variable j in slot s, and T runs over the
    semistandard tableaux filled with slots 0..n-1: weyl_dim(lam, n)
    vectors.
  * Over the tensor algebra, x_{p, j} puts letter j at position p of a
    word of length d, and T runs over the standard tableaux filled with
    positions 0..d-1, so the bideterminant is the Specht polytabloid
    (Fulton, Young Tableaux, section 7).  Each monomial is read as a
    word and cut every way into n slots: C(d + n - 1, n - 1) * f^lam
    vectors.  Over odd generators the same vectors span the HW space,
    as the group acts on letters without signs.
Under lexicographic order of the exponents of x_{0,0}, x_{0,1}, ...,
each bideterminant leads with its diagonal monomial, with coefficient
1, which records the row of every entry of T, so the leading monomials
are distinct.  relation_rows asserts that per block.  The rows are the
relations' images of the basis projected onto the columns at the
basis's leading tuples.  On the HW space this projection is
unitriangular in lead order, so it keeps every rank, and a block has as
many columns as basis vectors.

Every block builds its rows from its columns.  The entry of the row of
relation R and vector v at column u is <R v, u>, in the pairing in
which the block's tuples are orthonormal, and <R t, u> = <t, R* u> for
the adjoint R* of tensorspace.  So all the column tuples of a block
go through the adjoints of all its relations in one walk of a prefix
tree of their words (tensorspace.apply_expr).  Where a word of R*
ends, each tuple t it reaches adds the entries of the columns it comes
from straight into the rows of relation R of the vectors whose support
holds t, so no image of a whole relation is held.  The vectors of a
weight block are its basis tuples themselves.  An HW block so
costs its columns, not its support, a word prefix the relations share
is applied once per tuple that reaches it, however many columns do,
and no image term outside the kept columns is built.
"""

from __future__ import annotations

import json
import os
import hashlib
import tempfile
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, permutations
from math import comb

from .combinatorics import kostka, weyl_dim
from .exactla import rank_distinct
from .hopf import SYM, HopfAlgebra
from .tensorspace import adjoint, apply_expr, basis_size, tensor_basis
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
# the conjugation defect, imposed before RELATIONS in every block of a
# noncommutative algebra
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
# generated for each vector; both functors coincide in rank 1.  See
# block_relations for the entry a block takes.
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
    """Which quotient functor to realize, over which Hopf algebra, and
    whether its blocks are weight blocks or highest-weight blocks at
    partitions."""

    functor: str
    rank: int
    hopf: HopfAlgebra
    highest_weight: bool = False

    def __post_init__(self):
        if self.functor not in (H_FUNCTOR, OMEGA_FUNCTOR):
            raise ValueError(f"functor must be H or Omega, got {self.functor!r}")
        if self.rank not in (1, 2, 3):
            raise ValueError("rank must be 1, 2 or 3")

    def with_num_vars(self, m: int) -> "FunctorSpec":
        return replace(self, hopf=replace(self.hopf, num_vars=m))

    def key(self) -> str:
        key = f"{self.functor}|{self.rank}|{self.hopf.kind}|{self.hopf.num_vars}"
        if self.hopf.odd:
            key += "|odd"
        return key + "|hw" if self.highest_weight else key


def block_relations(spec: FunctorSpec, weight) -> tuple:
    """The relations of the block at weight, in the order their rows are
    generated for each vector.  Over the tensor algebra they are the
    conjugation defect, then the entry (functor, rank, "none") of
    RELATIONS.  Over sym, where the defect is zero, they are the entry
    for the parity of the block's degree where there is one, else the
    "none" entry."""
    key = (spec.functor, spec.rank)
    if not spec.hopf.commutative:
        return (_CONJUGATION_DEFECT,) + RELATIONS[key + ("none",)]
    parity = "odd" if sum(weight) % 2 else "even"
    return RELATIONS.get(key + (parity,)) or RELATIONS[key + ("none",)]


def relation_rows(spec: FunctorSpec, weight):
    """Materialize the relation rows for one block.

    Returns (basis, rows) where rows are integer dict-vectors over column
    indices into basis.  The vectors of a weight block are its basis
    tuples; those of a highest-weight block are its bideterminants, and
    basis holds their leading tuples (see _highest_weight_basis).  The
    rows come vector by vector and, for each vector, relation by
    relation in the order of block_relations, the conjugation defect
    first over the tensor algebra: the nonzero images of the vector,
    projected onto the tuples of basis.  _block_rows builds them from
    all the columns at once.
    """
    H = spec.hopf
    weight = tuple(weight)
    if spec.highest_weight:
        basis, support = _highest_weight_basis(H, spec.rank, weight)
    else:
        # odd generators have the same basis: share the even block's cache entry
        basis = tensor_basis(replace(H, odd=False), spec.rank, weight)
        support = {t: ((i, 1),) for i, t in enumerate(basis)}
    return basis, _block_rows(H, block_relations(spec, weight), basis, support)


def _block_rows(H: HopfAlgebra, exprs, basis, support) -> list:
    """The rows of the block whose columns are the tuples of basis, and
    whose vector i, one per column, is the sum over t of x * t for the
    (i, x) in support[t].

    Row (i, R) holds at column u the coefficient of u in R applied to
    vector i, the sum over t of x * <R t, u>.  The adjoint gives <R t,
    u> for every t at once from u, as the image of u under adjoint(R).
    So the whole basis goes through one apply_expr call, which walks the
    words of all the adjoints as one tree, once for all the columns, and
    adds each tuple t a word reaches into the rows of that word's
    relation of the vectors whose support holds t.  The rows come vector
    by vector and relation by relation, in the order of exprs, as
    dict-vectors over column indices in ascending order, zero entries
    and zero rows dropped."""
    sums = apply_expr(H, tuple(adjoint(expr) for expr in exprs), basis, support)
    rows = []
    # the keys (i, r) sort vector by vector, relation by relation
    for key in sorted(sums):
        row = sums.pop(key)
        row = {col: row[col] for col in sorted(row) if row[col]}
        if row:
            rows.append(row)
    return rows


def semistandard_tableaux(shape, n: int) -> list:
    """Semistandard tableaux of the partition shape with entries 0..n-1,
    as tuples of rows: rows weakly increase, columns strictly."""
    tableaux = [()]
    for length in shape:
        tableaux = [
            tableau + (row,)
            for tableau in tableaux
            for row in combinations_with_replacement(range(n), length)
            if not tableau or all(a < b for a, b in zip(tableau[-1], row))
        ]
    return tableaux


def _bideterminant(tableau, offsets) -> dict:
    """The product of the column minors of tableau, as a polynomial
    {packed monomial: coefficient}; offsets[s][j] is the bit offset of
    the exponent of x_{s, j} in a packed monomial."""
    poly = {0: 1}
    for c in range(len(tableau[0]) if tableau else 0):
        column = [row[c] for row in tableau if len(row) > c]
        minor = {}
        for perm in permutations(range(len(column))):
            inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
            monomial = sum(1 << offsets[s][j] for s, j in zip(column, perm))
            minor[monomial] = (-1) ** inversions
        product: dict = {}
        for a, x in poly.items():
            for b, y in minor.items():
                product[a + b] = product.get(a + b, 0) + x * y
        poly = {k: v for k, v in product.items() if v}
    return poly


def standard_tableaux(shape) -> list:
    """Standard tableaux of the partition shape with entries 0..|shape|-1,
    as tuples of rows: each entry in turn ends a row shorter than the
    row above it."""
    tableaux = [((),) * len(shape)]
    for entry in range(sum(shape)):
        tableaux = [
            tableau[:i] + (tableau[i] + (entry,),) + tableau[i + 1 :]
            for tableau in tableaux
            for i, length in enumerate(shape)
            if len(tableau[i]) < length and (i == 0 or len(tableau[i]) < len(tableau[i - 1]))
        ]
    return tableaux


def _highest_weight_basis(H: HopfAlgebra, n: int, weight: tuple):
    """The basis of the HW block at the partition weight of H^(x)n.

    Over sym its vectors are the bideterminants of the semistandard
    tableaux of shape weight with entries 0..n-1, the slots.  Over the
    tensor algebra they are those of the standard tableaux, whose
    entries 0..d-1 are letter positions: each monomial is read as the
    word whose letter p is the j of its x_{p, j}, and cut every way into
    n words, so there is one vector per cut and tableau, cut by cut.

    Returns (basis, support): basis holds the vectors' leading tuples, in
    vector order, and support maps each block tuple to the (vector,
    coefficient) pairs of the vectors that hold it.  Raises
    AssertionError when two vectors share their leading tuple, so that
    neither their independence nor the projection's rank is certified."""
    if list(weight) != sorted(weight, reverse=True):
        raise ValueError(f"a highest-weight block sits at a partition, not {weight}")
    d = sum(weight)
    shape = [p for p in weight if p]
    if H.kind == SYM:
        slots, tableaux, cuts = n, semistandard_tableaux(shape, n), [None]
    else:
        slots, tableaux = d, standard_tableaux(shape)
        cuts = [(0,) + c + (d,) for c in combinations_with_replacement(range(d + 1), n - 1)]
    # the exponent of x_{s, j} has bits bits, room for any exponent up
    # to the degree, from bit offsets[s][j]; j runs over the len(shape)
    # letters the shape uses (a tensor cell pads weight to d letters),
    # and x_{0,0} takes the highest bits, so integer order is lex order
    bits = max(d, 1).bit_length()
    mask = (1 << bits) - 1
    k = len(shape)
    offsets = [[(slots * k - 1 - s * k - j) * bits for j in range(k)] for s in range(slots)]

    def tuples(monomial):
        """The block tuples of a monomial, one per cut."""
        words = tuple(
            sum(((j,) * ((monomial >> at) & mask) for j, at in enumerate(row)), ())
            for row in offsets
        )
        if H.kind == SYM:
            return (words,)
        word = sum(words, ())
        return tuple(tuple(word[a:b] for a, b in zip(cut, cut[1:])) for cut in cuts)

    vectors = [_bideterminant(tableau, offsets) for tableau in tableaux]
    # vector i in cut c is basis vector c * len(vectors) + i
    leads = [tuples(max(vector)) for vector in vectors]
    basis = tuple(lead[c] for c in range(len(cuts)) for lead in leads)
    if len(set(basis)) != len(basis):
        raise AssertionError(f"bideterminants at {weight} share a leading monomial")
    # monomial -> its coefficient in each bideterminant that has it
    uses: dict = {}
    for i, vector in enumerate(vectors):
        for monomial, x in vector.items():
            uses.setdefault(monomial, []).append((i, x))
    support = {}
    for monomial, coeffs in uses.items():
        for c, t in enumerate(tuples(monomial)):
            first = c * len(vectors)
            support[t] = [(first + i, x) for i, x in coeffs]
    return basis, support


@dataclass
class BlockResult:
    ambient_dim: int
    rank: int

    @property
    def quotient_dim(self) -> int:
        return self.ambient_dim - self.rank


def block_cols(spec: FunctorSpec, weight) -> int:
    """The ambient dimension of a block, counted without building it:
    the size of the tensor basis for a weight block; for the HW block at
    lam, weyl_dim(lam, rank) bideterminants over sym, and over the
    tensor algebra C(d + rank - 1, rank - 1) cuts times f^lam = K_{lam,
    (1^d)} standard tableaux."""
    if not spec.highest_weight:
        return basis_size(spec.hopf, spec.rank, weight)
    lam = [p for p in weight if p]
    if spec.hopf.kind == SYM:
        return weyl_dim(lam, spec.rank)
    d = sum(lam)
    return comb(d + spec.rank - 1, spec.rank - 1) * kostka(lam, (1,) * d)


_MEM_CACHE: dict = {}


def _cache_token(spec: FunctorSpec, weight) -> str:
    return f"{spec.key()}|{','.join(map(str, weight))}"


def _cache_path(cache_dir, token: str):
    digest = hashlib.sha256(token.encode()).hexdigest()[:20]
    return os.path.join(cache_dir, f"{digest}-{engine_version()}.json")


def compute_block(spec: FunctorSpec, weight) -> BlockResult:
    basis, rows = relation_rows(spec, weight)
    # hand the rows over one at a time, in order, so that each row is
    # freed as soon as rank_distinct has normalized it
    rows.reverse()
    rank = rank_distinct(rows.pop() for _ in range(len(rows)))
    return BlockResult(len(basis), rank)


def _read_record(path, spec: FunctorSpec, weight):
    """The result a disk-cache file holds for this block, or None when
    the file is missing, unreadable, stale, malformed (nested too deeply
    to parse included), inconsistent or about another block."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(record, dict):
        return None
    ambient, rank, quotient = (record.get(f) for f in ("ambient_dim", "rank", "quotient_dim"))
    if (
        record.get("engine_version_hash") != engine_version()
        or record.get("block") != _cache_token(spec, weight)
        or any(type(value) is not int for value in (ambient, rank, quotient))
        # the three numbers must agree with each other and with the block
        or not 0 <= rank <= ambient == block_cols(spec, weight)
        or quotient != ambient - rank
    ):
        return None
    return BlockResult(ambient, rank)


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
        # a cache_dir that cannot be a directory fails before the block
        # is computed
        os.makedirs(cache_dir, exist_ok=True)
    result = compute_block(spec, weight)
    _MEM_CACHE[token] = result
    if path is not None:
        record = {
            "block": token,
            "ambient_dim": result.ambient_dim,
            "rank": result.rank,
            "quotient_dim": result.quotient_dim,
            "engine_version_hash": engine_version(),
        }
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return result
