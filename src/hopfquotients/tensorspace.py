"""Weight blocks of tensor powers H^(x)n and the operators acting on them.

A block basis element is an n-tuple of Hopf basis elements whose
weights add up to a fixed weight vector.  Operators are formal integer
combinations of composable words in the atoms

    ('swap', i, j)   exchange slots i and j
    ('S', i)         antipode in slot i
    ('U', i)         keep a tuple whose slot i is the unit, drop any other
    ('E',)           split slot 0, multiply one leg onto slot 1 from the left
    ('F',)           split slot 1, multiply one leg onto slot 0 from the right
    ('ad',)          take the leading letter v off slot 0, leaving r; sum
                     over slots i of r with v * r_i in slot i, minus r
                     with r_i * v in slot i

The relations of presentations are written in these names, but
apply_atom applies only swap, S, U and the adjoints E*, F* and ad* of
the three branching atoms E, F and ad (see below): the engine builds
every row through adjoint().  The forward E, F and ad live in the
tests, as the reference the starred atoms are checked against.

E and F act on slots 0 and 1 of a tuple of any length; later slots
pass through unchanged.  ad is the conjugation defect: each block
tuple whose slot 0 is not the unit is v glued onto one r, so its
images span the defect inside the block.  It is zero on a unit slot 0,
and over sym, whose product commutes, v * r_i and r_i * v cancel.

Over odd generators (HopfAlgebra.odd) a word of length k has parity
k, and an atom that moves odd words past each other carries the Koszul
sign: swap(i, j), i < j, exchanging a and b across words of total
length m between them, multiplies by (-1)^(|a||b| + (|a| + |b|) m); ad
gives v * r_i the sign (-1)^(|r_0| + ... + |r_{i-1}|) of moving v
past the slots before it, and r_i * v that sign times (-1)^|r_i|.  S,
E and F take their signs from the antipode and the coproduct; U moves
nothing.

An operator word is a tuple of atoms, applied to a vector left to
right: the word (u, v) means "apply u, then v".  This is the reading
under which the presentations reproduce the published tables.

Each atom has an adjoint under the pairing in which the basis tuples
are orthonormal; swap, S and U are their own.  E* writes slot 1 every
way as a product p * b, and sends slot 0 (x) p through the transpose
of the coproduct (HopfAlgebra.coproduct_transpose: the shuffle product
over the tensor algebra, with the coproduct's Koszul sign on odd
generators; over sym the product, weighted by binomials) into slot 0,
with b in slot 1.  F* writes slot 0 as a * p and sends p (x) slot 1
into slot 1, with a in slot 0.  ad* writes each slot i as v * w and as
w * v, and puts v in front of slot 0 of the tuple with w in slot i,
with the sign ad gives that term.  adjoint(expr) reverses each word and
stars its atoms, so <expr t, u> = <t, adjoint(expr) u>: applied to the
column u, adjoint(expr) gives, at each t, the coefficient of u in the
image of t under expr.

apply_expr is the entry point: it applies a tuple of formal sums to a
list of basis tuples, the columns, and adds the images straight into
the rows of a set of vectors, given by their support: a tuple t of the
image of column j under sum r adds its coefficient, times x, into entry
j of row (i, r) of each vector i that holds x * t.  It walks one prefix
tree of all their words once for all the columns, so a prefix the sums
share is applied once, and a tuple that many columns reach at a node
goes through apply_atom once.  A word's image goes into the rows where
the word ends; no image of a whole sum is ever built.  The engine
applies the adjoints of a block's relations, all at once, to all of the
block's columns (see presentations).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial, prod

from .hopf import SYM, HopfAlgebra, _coproduct_transpose, add_into


@lru_cache(maxsize=None)
def tensor_basis(H: HopfAlgebra, n: int, weight: tuple) -> tuple:
    """All n-tuples of basis elements with total weight `weight`, sorted
    lexicographically; for sym, by their slots' weight vectors, the order
    in which the loop over head weights emits them."""
    weight = tuple(weight)
    if len(weight) != H.num_vars:
        raise ValueError("weight length must match num_vars")
    if n == 1:
        return tuple((e,) for e in H.elements_of_weight(weight))
    out = []
    for head_weight in iproduct(*(range(w + 1) for w in weight)):
        rest = tuple(w - h for w, h in zip(weight, head_weight))
        tails = tensor_basis(H, n - 1, rest)
        for e in H.elements_of_weight(head_weight):
            for tail in tails:
                out.append((e,) + tail)
    return tuple(out) if H.kind == SYM else tuple(sorted(out))


def basis_size(H: HopfAlgebra, n: int, weight) -> int:
    """len(tensor_basis(H, n, weight)), counted without building the
    basis: for sym, each variable's exponent is spread over n slots; for
    tensor, a word of the weight's letters is cut into n words."""
    if H.kind == SYM:
        return prod(comb(w + n - 1, n - 1) for w in weight)
    d = sum(weight)
    return comb(d + n - 1, n - 1) * factorial(d) // prod(factorial(w) for w in weight)


def apply_atom(H: HopfAlgebra, atom: tuple, t: tuple) -> dict:
    """Apply one atom to a basis tuple; returns a vector over tuples.
    A forward E, F or ad is no atom here: it raises ValueError."""
    kind = atom[0]
    if kind == "swap":
        _, i, j = atom
        lst = list(t)
        lst[i], lst[j] = lst[j], lst[i]
        if not H.odd:
            return {tuple(lst): 1}
        a, b = len(t[i]), len(t[j])
        between = sum(map(len, t[min(i, j) + 1 : max(i, j)]))
        return {tuple(lst): (-1) ** (a * b + (a + b) * between)}
    if kind == "S":
        i = atom[1]
        sign, elem = H.antipode(t[i])
        lst = list(t)
        lst[i] = elem
        return {tuple(lst): sign}
    if kind == "U":
        return {} if t[atom[1]] else {t: 1}
    if kind == "E*":
        x, y, rest = t[0], t[1], t[2:]
        return {
            (a, b) + rest: coeff
            for p, b in H.factorizations(y)
            for a, coeff in H.coproduct_transpose(x, p)
        }
    if kind == "F*":
        x, y, rest = t[0], t[1], t[2:]
        return {
            (a, b) + rest: coeff
            for a, p in H.factorizations(x)
            for b, coeff in H.coproduct_transpose(p, y)
        }
    if kind == "ad*":
        # ad is zero over a commutative algebra
        if H.commutative:
            return {}
        out: dict = {}
        sign = 1
        for i, elem in enumerate(t):
            flip = -1 if H.odd and len(elem) % 2 else 1
            if elem:
                # slot i is v * w or w * v: ad takes (v * r_0,) + r[1:] to
                # t, where r is t with w in slot i, the second with the
                # sign -(-1)^|w| of r_i * v
                right = sign if H.odd and len(elem) % 2 == 0 else -sign
                for gen, w, c in ((elem[:1], elem[1:], sign), (elem[-1:], elem[:-1], right)):
                    r = t[:i] + (w,) + t[i + 1 :]
                    add_into(out, (gen + r[0],) + r[1:], c)
            sign *= flip
        return out
    raise ValueError(f"unknown atom {atom!r}")


_STARRED = {"E": "E*", "F": "F*", "ad": "ad*", "E*": "E", "F*": "F", "ad*": "ad"}


def adjoint(expr) -> tuple:
    """The adjoint of a formal sum of words under the pairing in which the
    basis tuples are orthonormal: each word reversed and its atoms
    starred, swap, S and U being their own adjoints.  So, with the
    support {t: ((0, 1),)}, apply_expr(H, (adjoint(expr),), [u],
    support)[0, 0][0] is the coefficient of u in the image of t under
    expr."""
    return tuple(
        (coeff, tuple((_STARRED.get(atom[0], atom[0]),) + atom[1:] for atom in reversed(word)))
        for coeff, word in expr
    )


# one tree per tuple of sums: a block's relations, so a handful per run
@lru_cache(maxsize=None)
def _word_tree(exprs) -> tuple:
    """The words of a tuple of formal sums as one prefix tree, a node per
    atom.  A node is (leaves, children): leaves lists the (index of the
    sum, coefficient) of each word that ends at the node, children maps
    each atom by which a word goes on to the next node."""
    root: tuple = ([], {})
    for r, expr in enumerate(exprs):
        for coeff, word in expr:
            node = root
            for atom in word:
                node = node[1].setdefault(atom, ([], {}))
            node[0].append((r, coeff))
    return root


# atoms that send a tuple to at most one tuple, and no two tuples to the
# same one
_MONOMIAL = frozenset(("swap", "S", "U"))


def _walk(H: HopfAlgebra, node: tuple, state: dict, support: dict, sums: dict) -> None:
    """Add state, the image of the node's prefix, into the row sums of
    each word that ends at node, and walk on into its children.  state
    maps each tuple the prefix reaches to (scale, payload): the tuple's
    coefficient in the image of column j is scale * payload[j]."""
    leaves, children = node
    for r, coeff in leaves:
        for t, (scale, payload) in state.items():
            for i, x in support.get(t, ()):
                c = coeff * scale * x
                row = sums.get((i, r))
                if row is None:
                    sums[i, r] = {j: c * y for j, y in payload.items()}
                else:
                    for j, y in payload.items():
                        row[j] = row.get(j, 0) + c * y
    for atom, child in children.items():
        nxt: dict = {}
        if atom[0] in _MONOMIAL:
            # a one-to-one image: re-key each payload, shared, and scale it
            for t, (scale, payload) in state.items():
                for t2, c in apply_atom(H, atom, t).items():
                    nxt[t2] = (scale * c, payload)
        else:
            # tuples merge: sum their payloads into fresh dicts
            for t, (scale, payload) in state.items():
                for t2, c in apply_atom(H, atom, t).items():
                    c *= scale
                    acc = nxt.get(t2)
                    if acc is None:
                        nxt[t2] = (1, {j: c * x for j, x in payload.items()})
                    else:
                        acc = acc[1]
                        for j, x in payload.items():
                            acc[j] = acc.get(j, 0) + c * x
        if nxt:
            _walk(H, child, nxt, support, sums)


def apply_expr(H: HopfAlgebra, exprs: tuple, tuples, support: dict) -> dict:
    """exprs is a tuple of formal sums, each a tuple of (coeff, word)
    pairs, tuples a sequence of basis tuples, the columns, and support
    maps a basis tuple t to the (i, x) pairs of the vectors i that hold
    x * t.  Returns the row sums {(i, r): {j: c}}, where c pairs vector
    i with sum r applied to tuples[j], the basis tuples orthonormal: c
    is the sum, over the tuples t of that image and the (i, x) in
    support[t], of x times the coefficient of t.  A sum may hold zeros.

    The words of all the sums share one prefix tree (_word_tree), walked
    once for all the columns.  At each node the walk holds each distinct
    tuple the prefix reaches once, with the columns that reach it, so
    each goes through apply_atom once however many columns share it.
    swap, S and U hand a tuple's columns on unchanged, up to a sign;
    E*, F* and ad* merge those of the tuples they map together.  Where a
    word ends, each tuple adds its columns into the rows of the vectors
    that hold it.  This is exact by linearity.  Two sums that share the
    prefix swap(0, 1) apply it once to each of the two columns, and once
    to the tuple that column 2 repeats; vector 0 is t, vector 1 is u:

    >>> from hopfquotients.hopf import TENSOR
    >>> H = HopfAlgebra(TENSOR, 2)
    >>> swap, S0 = ("swap", 0, 1), ("S", 0)
    >>> exprs = (((1, (swap,)),), ((1, (swap, S0)),))
    >>> t, u = ((0,), (1,)), ((1,), (0,))
    >>> sorted(apply_expr(H, exprs, [t, u, t], {t: ((0, 1),), u: ((1, 1),)}).items())
    [((0, 0), {1: 1}), ((0, 1), {1: -1}), ((1, 0), {0: 1, 2: 1}), ((1, 1), {0: -1, 2: -1})]

    The memoized coproduct transposes that E* and F* fill are cleared
    at the end, so the cache never grows with the length of a run.
    """
    state: dict = {}
    for j, t in enumerate(tuples):
        state.setdefault(t, (1, {}))[1][j] = 1
    sums: dict = {}
    _walk(H, _word_tree(exprs), state, support, sums)
    _coproduct_transpose.cache_clear()
    return sums
