"""Reference maps the tests compare the engine against.

all_elements() lists every basis word up to a length.  counit() and
weight() read a basis word's counit and weight vector.
product() and coproduct() are the forward structure maps of the Hopf
algebra, which the engine applies only through their transposes and
factorizations: the coproduct sums over every subset of a word's
letters sent to the left leg, with the Koszul sign over odd generators.

apply_atom() applies every atom the relations are written in,
forward, from the structure maps: swap with the Koszul sign of the
permutation of slots (permute_slots), S through the antipode, U
through the counit, and E, F and ad; the engine has its own swap, S
and U, and applies only the adjoints E*, F* and ad* of the others, and
the tests check both against these.  It also adds four two-slot atoms
(gamma, tau, delta, s), which with the slot helpers (coproduct_into,
counit_slot, merge_slots) are written straight from the Hopf structure
maps; the relations use none of them.  They check E and F against
merge and counit, swap and antipode against tau and delta, and the
Hopf identities.

apply_expr() applies one formal sum of words to a tuple, word by word,
with nothing shared between words: the reference for the engine's
apply_expr, which walks the words of a whole tuple of sums as one
prefix tree, and the forward image that the engine's adjoints are
checked against.  The reference rows below apply it.

bar_rows() generates the conjugation-defect rows indexed by pairs
(v, t) of a generator and a tuple one v short of the weight, the
reference for the ('ad',) word.

sign_fold() and sign_block_rows() build a sign block the long way:
rows of the multilinear block of the even algebra, folded onto orbits
of the Young subgroup with the sign of the relabelling.  The engine
builds the same block as a weight block over odd generators.

hw_vectors() writes out the basis of a highest-weight (HW) block from
its tableaux, column minor by column minor, and unprojected_hw_rows()
applies the block's relations to it over the block's own tuples: the
HW rows over every tuple, not only the leading ones the engine keeps.
forward_rows() builds the engine's rows by applying each relation to
each vector, where the engine builds them column by column through
the adjoints.

general_reading() makes Sym blocks of the finer rank-3 quotient use
the general presentation RANK3_H_EXPRS, which the engine uses only over
the tensor algebra, so a test can compare it with the even and odd
presentations the engine uses over Sym.

space_groups() lists the blocks of a set of cells grouped by space, as
decompose._pool_misses groups them, so that a test can count the groups
a run makes or walk each group.

reversed_reading() swaps in the other composition order of the rank-3
operator words, so a test can show that it is not the one matching the
published tables.
"""

from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product as iproduct

import pytest

from hopfquotients import presentations
from hopfquotients.decompose import cell_blocks
from hopfquotients.hopf import SYM, HopfAlgebra, add_into
from hopfquotients.presentations import (
    H_FUNCTOR,
    OMEGA_FUNCTOR,
    FunctorSpec,
    RANK3_H_EXPRS,
    SYM_EVEN_EXPRS,
    SYM_ODD_EXPRS,
    block_relations,
    block_space,
    semistandard_tableaux,
    standard_tableaux,
)
from hopfquotients import tensorspace


def all_elements(H, max_deg):
    """Every basis word of length at most max_deg: the nondecreasing
    ones for sym, all of them for tensor."""
    out = []
    for k in range(max_deg + 1):
        if H.kind == SYM:
            out.extend(combinations_with_replacement(range(H.num_vars), k))
        else:
            out.extend(iproduct(range(H.num_vars), repeat=k))
    return out


def counit(x) -> int:
    """The counit of a basis word: 1 on the unit (), 0 on any other."""
    return 0 if x else 1


def weight(H, x) -> tuple:
    """The weight vector of a basis word: how often each letter occurs."""
    w = [0] * H.num_vars
    for letter in x:
        w[letter] += 1
    return tuple(w)


def product(H, x, y):
    """The product of two basis words: their concatenation, sorted
    over sym."""
    return tuple(sorted(x + y)) if H.kind == SYM else x + y


@lru_cache(maxsize=None)
def coproduct(H, x):
    """The coproduct of a basis word, as (left, right, coeff) triples,
    each pair once with a nonzero coeff: each subset of the letters in
    turn goes to the left leg, the rest to the right, and over odd
    generators a left letter that follows r right ones carries (-1)^r.
    Over sym both legs of a nondecreasing word stay nondecreasing."""
    out: dict = {}
    for mask in iproduct((False, True), repeat=len(x)):
        left = tuple(v for v, go_left in zip(x, mask) if go_left)
        right = tuple(v for v, go_left in zip(x, mask) if not go_left)
        passed = sum(mask[j] and not mask[i] for j in range(len(x)) for i in range(j))
        add_into(out, (left, right), -1 if H.odd and passed % 2 else 1)
    return tuple((left, right, c) for (left, right), c in out.items())


def permute_slots(H, t, order):
    """(tuple, sign): the tuple whose slot k is t[order[k]], and over odd
    generators the Koszul sign, a factor (-1)^(|t_p| |t_q|) for each pair
    of slots p < q that order puts the other way round."""
    at = {p: k for k, p in enumerate(order)}
    sign = 1
    for q in range(len(t)):
        for p in range(q):
            if H.odd and at[p] > at[q] and len(t[p]) * len(t[q]) % 2:
                sign = -sign
    return tuple(t[p] for p in order), sign


def apply_atom(H, atom, t):
    """The atoms swap, S, U, E, F and ad of the tensorspace docstring,
    forward, the starred ones through tensorspace.apply_atom, and four
    two-slot atoms:

    ('gamma',)   a (x) b  ->  S(b_1) (x) a S(b_2)
    ('tau',)     a (x) b  ->  b (x) a
    ('delta',)   a (x) b  ->  S(a) (x) b
    ('s',)       a (x) b  ->  S(b) (x) a
    """
    kind = atom[0]
    if kind == "swap":
        _, i, j = atom
        order = list(range(len(t)))
        order[i], order[j] = j, i
        image, sign = permute_slots(H, t, order)
        return {image: sign}
    if kind == "S":
        i = atom[1]
        sign, elem = H.antipode(t[i])
        return {t[:i] + (elem,) + t[i + 1 :]: sign}
    if kind == "U":
        return {t: 1} if counit(t[atom[1]]) else {}
    if kind == "gamma":
        a, b = t
        out: dict = {}
        for b1, b2, coeff in coproduct(H, b):
            s1, e1 = H.antipode(b1)
            s2, e2 = H.antipode(b2)
            add_into(out, (e1, product(H, a, e2)), coeff * s1 * s2)
        return out
    if kind == "tau":
        a, b = t
        return {(b, a): 1}
    if kind == "delta":
        a, b = t
        sign, elem = H.antipode(a)
        return {(elem, b): sign}
    if kind == "s":
        a, b = t
        sign, elem = H.antipode(b)
        return {(elem, a): sign}
    if kind == "E":
        a, b, rest = t[0], t[1], t[2:]
        return {(a1, product(H, a2, b)) + rest: coeff for a1, a2, coeff in coproduct(H, a)}
    if kind == "F":
        a, b, rest = t[0], t[1], t[2:]
        return {(product(H, a, b1), b2) + rest: coeff for b1, b2, coeff in coproduct(H, b)}
    if kind == "ad":
        if not t[0]:
            return {}
        gen, r = t[0][:1], (t[0][1:],) + t[1:]
        out = {}
        sign = 1
        for i, elem in enumerate(r):
            # the Koszul sign of moving v past elem
            flip = -1 if H.odd and len(elem) % 2 else 1
            add_into(out, r[:i] + (product(H, gen, elem),) + r[i + 1 :], sign)
            add_into(out, r[:i] + (product(H, elem, gen),) + r[i + 1 :], -sign * flip)
            sign *= flip
        return out
    return tensorspace.apply_atom(H, atom, t)


def apply_word(H, word, t):
    """The word's atoms applied left to right, term by term."""
    current = {t: 1}
    for atom in word:
        nxt: dict = {}
        for tup, c in current.items():
            for tup2, c2 in apply_atom(H, atom, tup).items():
                add_into(nxt, tup2, c * c2)
        current = nxt
    return current


def apply_expr(H, expr, t):
    """One formal sum of words applied to t, word by word: each word
    carries its image as a list of (tuple, coeff) terms, which every
    atom maps through apply_atom above; the terms of all words
    are summed, and zeros dropped, once at the end.  The reference for
    the engine's shared walk, tensorspace.apply_expr, which applies a
    whole tuple of sums at once."""
    out: dict = {}
    for coeff, word in expr:
        terms = [(t, coeff)]
        for atom in word:
            terms = [(t2, c * c2) for t1, c in terms
                     for t2, c2 in apply_atom(H, atom, t1).items()]
        for tup, c in terms:
            out[tup] = out.get(tup, 0) + c
    return {tup: c for tup, c in out.items() if c}


def coproduct_into(H, t, slot):
    """Replace entry `slot` of an (n-1)-tuple by its coproduct,
    yielding a vector over n-tuples."""
    out: dict = {}
    head, tail = t[:slot], t[slot + 1 :]
    for y1, y2, coeff in coproduct(H, t[slot]):
        add_into(out, head + (y1, y2) + tail, coeff)
    return out


def counit_slot(H, vec, slot):
    """Apply the counit in one slot of every tuple of a vector."""
    out: dict = {}
    for t, c in vec.items():
        eps = counit(t[slot])
        if eps:
            add_into(out, t[:slot] + t[slot + 1 :], c * eps)
    return out


def merge_slots(H, vec, slot):
    """Multiply slot and slot+1 together in every tuple of a vector."""
    out: dict = {}
    for t, c in vec.items():
        merged = product(H, t[slot], t[slot + 1])
        add_into(out, t[:slot] + (merged,) + t[slot + 2 :], c)
    return out


def bar_rows(H, n, weight, relabel=lambda seed: seed):
    """Rows spanning the conjugation defect inside the weight block: for
    every generator v and every block tuple t one v short of the
    weight, in that order, the sum over slots of (v * t_i - t_i * v)
    placed in slot i.  None over sym, which is commutative.

    relabel maps the tuple (v,) + t to the one whose row is built
    instead, e.g. its standardization in a sign block."""
    if H.kind == SYM:
        return []
    rows = []
    for v in range(H.num_vars):
        if weight[v] == 0:
            continue
        reduced = tuple(w - 1 if u == v else w for u, w in enumerate(weight))
        for t in tensorspace.tensor_basis(H, n, reduced):
            seed = relabel(((v,),) + t)
            gen, t = seed[0], seed[1:]
            row: dict = {}
            for i, elem in enumerate(t):
                add_into(row, t[:i] + (product(H, gen, elem),) + t[i + 1 :], 1)
                add_into(row, t[:i] + (product(H, elem, gen),) + t[i + 1 :], -1)
            if row:
                rows.append(row)
    return rows


def sign_fold(weight):
    """(standardize, fold) for the sign block at weight.

    standardize maps a tuple of weight-nu words to its multilinear
    standardization: the k-th occurrence of letter j, in reading order,
    becomes start_j + k, where letter j's run starts at
    start_j = nu_0 + ... + nu_{j-1}.  fold maps a row over multilinear
    tuples to the sign-isotypic part: each tuple goes to the weight-nu
    tuple of its orbit, times the sign of the relabelling within runs."""
    starts = [0]
    for w in weight:
        starts.append(starts[-1] + w)
    run = tuple(j for j, w in enumerate(weight) for _ in range(w))
    folded: dict = {}

    def standardize(t):
        nxt = list(starts)
        out = []
        for word in t:
            labels = []
            for x in word:
                labels.append(nxt[x])
                nxt[x] += 1
            out.append(tuple(labels))
        return tuple(out)

    def fold_tuple(u):
        letters = [x for word in u for x in word]
        inversions = sum(
            1
            for i, x in enumerate(letters)
            for y in letters[:i]
            if y > x and run[y] == run[x]
        )
        return tuple(tuple(run[x] for x in word) for word in u), -1 if inversions % 2 else 1

    def fold(row):
        out: dict = {}
        for u, c in row.items():
            hit = folded.get(u)
            if hit is None:
                hit = folded[u] = fold_tuple(u)
            rep, sign = hit
            out[rep] = out.get(rep, 0) + sign * c
        return {rep: c for rep, c in out.items() if c}

    return standardize, fold


def sign_block_rows(spec, weight):
    """The rows of the sign block at weight, in relation_rows' order,
    as dicts over the weight's basis tuples: each basis tuple of the
    even algebra is standardized, each relation applied to it there, and
    the image folded back.  spec.hopf may be odd; its even twin is used,
    and it needs as many variables as the weight's size."""
    H = replace(spec.hopf, odd=False)
    if sum(weight) > H.num_vars:
        raise ValueError(f"a sign block at {weight} needs {sum(weight)} variables")
    standardize, fold = sign_fold(weight)
    basis = tensorspace.tensor_basis(H, spec.rank, tuple(weight))
    rows = []
    for t in basis:
        seed = standardize(t)
        for expr in block_relations(spec, weight):
            row = fold(apply_expr(H, expr, seed))
            if row:
                rows.append(row)
    return rows


def hw_vectors(spec, weight):
    """The basis of the HW block at the partition weight, each vector a
    dict over the block's tuples.  A tableau's vector is the product of
    its column minors det[x_{s_i, j}], expanded term by term.  Over sym
    x_{s, j} puts letter j into slot s, and the tableaux are the
    semistandard ones with entries 0..rank-1.  Over the tensor algebra
    it puts letter j at position s of a word, the tableaux are the
    standard ones, and each word is cut into rank slots of every
    lengths adding up to the degree."""
    shape = [p for p in weight if p]
    d = sum(shape)
    sym = spec.hopf.kind == SYM
    tableaux = semistandard_tableaux(shape, spec.rank) if sym else standard_tableaux(shape)
    cuts = [lengths for lengths in iproduct(range(d + 1), repeat=spec.rank) if sum(lengths) == d]
    vectors = []
    for cut in [None] if sym else cuts:
        for tableau in tableaux:
            terms = [((), 1)]
            for c in range(len(tableau[0]) if tableau else 0):
                column = [row[c] for row in tableau if len(row) > c]
                terms = [
                    (placed + tuple(zip(column, perm)), sign * _perm_sign(perm))
                    for placed, sign in terms
                    for perm in permutations(range(len(column)))
                ]
            vector: dict = {}
            for placed, sign in terms:
                if sym:
                    t = tuple(tuple(sorted(j for s, j in placed if s == slot))
                              for slot in range(spec.rank))
                else:
                    word = tuple(j for _, j in sorted(placed))
                    ends = [sum(cut[:k + 1]) for k in range(len(cut))]
                    t = tuple(word[end - length:end] for end, length in zip(ends, cut))
                add_into(vector, t, sign)
            vectors.append(vector)
    return vectors


def _perm_sign(perm) -> int:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def unprojected_hw_rows(spec, weight):
    """The rows of the HW block at weight over the block's tuples: the
    image of every vector of hw_vectors() under every relation of
    block_relations(), in that order, zero rows dropped."""
    H = spec.hopf
    rows = []
    for vector in hw_vectors(spec, weight):
        for expr in block_relations(spec, weight):
            row: dict = {}
            for t, c in vector.items():
                for u, v in apply_expr(H, expr, t).items():
                    add_into(row, u, c * v)
            if row:
                rows.append(row)
    return rows


def forward_rows(spec, weight, basis):
    """relation_rows' rows built forward, as dict-vectors over indices
    into basis.  A weight block applies each relation to each basis
    tuple, tuple by tuple; an HW block takes unprojected_hw_rows()
    restricted to the leading tuples in basis.
    Zero rows are dropped."""
    index = {t: i for i, t in enumerate(basis)}
    if spec.highest_weight:
        rows = [{index[t]: c for t, c in row.items() if t in index}
                for row in unprojected_hw_rows(spec, weight)]
    else:
        rows = [{index[u]: c for u, c in apply_expr(spec.hopf, expr, t).items()}
                for t in basis for expr in block_relations(spec, weight)]
    return [row for row in rows if row]


def space_groups(hopf, scope, functors=(H_FUNCTOR, OMEGA_FUNCTOR)):
    """The blocks of the cells of each of functors over hopf, at rank r
    and each degree in degrees for each (r, degrees) in scope, as
    cell_blocks lists them, grouped by space (block_space) in listing
    order, as decompose._pool_misses groups them."""
    groups: dict = {}
    for functor in functors:
        for rank, degrees in scope:
            for degree in degrees:
                _, hw, checks = cell_blocks(FunctorSpec(functor, rank, HopfAlgebra(hopf, 1)),
                                            degree)
                for block in (*hw.values(), *checks):
                    groups.setdefault(block_space(*block), []).append(block)
    return list(groups.values())


@contextmanager
def _reading(relations):
    """Within the block, presentations use relations in place of
    presentations.RELATIONS.  The memory cache is swapped for an empty
    one, so results of another reading never reach the shared cache;
    pass no cache_dir inside the block, as disk records do not record
    the reading."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presentations, "RELATIONS", relations)
        mp.setattr(presentations, "_MEM_CACHE", {})
        yield


def general_reading():
    """Within the block, presentations.RELATIONS keeps only its "none"
    entries, so every block takes the general presentation."""
    return _reading({key: exprs for key, exprs in presentations.RELATIONS.items()
                     if key[2] == "none"})


def reversed_relations():
    """presentations.RELATIONS with every word of the rank-3 operators
    (RANK3_H_EXPRS and the even and odd Sym presentations) read right to
    left; the elementwise families are left as they are."""
    convention = set(RANK3_H_EXPRS + SYM_EVEN_EXPRS + SYM_ODD_EXPRS)

    def flip(expr):
        return tuple((c, word[::-1]) for c, word in expr) if expr in convention else expr

    return {key: tuple(map(flip, exprs)) for key, exprs in presentations.RELATIONS.items()}


def reversed_reading():
    """Within the block, presentations use reversed_relations()."""
    return _reading(reversed_relations())
