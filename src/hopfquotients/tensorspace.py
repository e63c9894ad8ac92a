"""Weight blocks of tensor powers H^(x)n and the operators acting on them.

A block basis element is an n-tuple of Hopf basis elements whose
weights add up to a fixed weight vector.  Operators are formal integer
combinations of composable atoms:

    ('swap', i, j)   exchange slots i and j
    ('S', i)         antipode in slot i
    ('U', i)         keep a tuple whose slot i is the unit, drop any other
    ('E',)           split slot 0, multiply one leg onto slot 1 from the left
    ('F',)           split slot 1, multiply one leg onto slot 0 from the right

E and F act on slots 0 and 1 of a tuple of any length; later slots
pass through unchanged.

An operator word is a tuple of atoms, applied to a vector left to
right: the word (u, v) means "apply u, then v".  This is the reading
under which the presentations reproduce the published tables.

apply_expr is the entry point: it applies a formal sum of words to one
basis tuple and sums the resulting terms once per expression.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial, prod

from .hopf import SYM, HopfAlgebra, add_into


@lru_cache(maxsize=None)
def tensor_basis(H: HopfAlgebra, n: int, weight: tuple) -> tuple:
    """All n-tuples of basis elements with total weight `weight`,
    sorted lexicographically."""
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
    return tuple(sorted(out))


def basis_size(H: HopfAlgebra, n: int, weight) -> int:
    """len(tensor_basis(H, n, weight)), counted without building the
    basis: for sym, each variable's exponent is spread over n slots; for
    tensor, a word of the weight's letters is cut into n words."""
    if H.kind == SYM:
        return prod(comb(w + n - 1, n - 1) for w in weight)
    d = sum(weight)
    return comb(d + n - 1, n - 1) * factorial(d) // prod(factorial(w) for w in weight)


def block_index(basis) -> dict:
    return {t: i for i, t in enumerate(basis)}


def apply_atom(H: HopfAlgebra, atom: tuple, t: tuple) -> dict:
    """Apply one atom to a basis tuple; returns a vector over tuples."""
    kind = atom[0]
    if kind == "swap":
        _, i, j = atom
        lst = list(t)
        lst[i], lst[j] = lst[j], lst[i]
        return {tuple(lst): 1}
    if kind == "S":
        i = atom[1]
        sign, elem = H.antipode(t[i])
        lst = list(t)
        lst[i] = elem
        return {tuple(lst): sign}
    if kind == "U":
        return {t: 1} if H.degree(t[atom[1]]) == 0 else {}
    # distinct coproduct terms give distinct tuples, as both products
    # are cancellative, so E and F never merge or cancel terms
    if kind == "E":
        a, b, rest = t[0], t[1], t[2:]
        return {(a1, H.product(a2, b)) + rest: coeff for a1, a2, coeff in H.coproduct(a)}
    if kind == "F":
        a, b, rest = t[0], t[1], t[2:]
        return {(H.product(a, b1), b2) + rest: coeff for b1, b2, coeff in H.coproduct(b)}
    raise ValueError(f"unknown atom {atom!r}")


def apply_expr(H: HopfAlgebra, expr, t: tuple) -> dict:
    """expr is a list of (coeff, word) pairs; returns expr applied to t.

    Each word carries its image as a list of (tuple, coeff) terms, which
    every atom maps through apply_atom; the terms of all words are summed,
    and zeros dropped, once at the end.  This is exact by linearity."""
    out: dict = {}
    for coeff, word in expr:
        terms = [(t, coeff)]
        for atom in word:
            terms = [(t2, c * c2) for t1, c in terms for t2, c2 in apply_atom(H, atom, t1).items()]
        for tup, c in terms:
            out[tup] = out.get(tup, 0) + c
    return {tup: c for tup, c in out.items() if c}


def bar_relation_rows(H: HopfAlgebra, n: int, weight: tuple, relabel=None):
    """Rows spanning the conjugation defect inside the weight block.

    For the tensor algebra these are, for every generator v and every
    block tuple t one v short of the weight, the sum over slots of
    (v * t_i - t_i * v) placed in slot i.  The symmetric algebra is
    commutative, so there are none.

    relabel, if given, maps the tuple (v,) + t to the one whose row is
    built instead, e.g. its standardization.
    """
    weight = tuple(weight)
    if H.kind == SYM:
        return []
    rows = []
    for v in range(H.num_vars):
        if weight[v] == 0:
            continue
        reduced = tuple(w - 1 if u == v else w for u, w in enumerate(weight))
        head = (H.generator(v),)
        for t in tensor_basis(H, n, reduced):
            seed = head + t
            if relabel is not None:
                seed = relabel(seed)
            gen, t = seed[0], seed[1:]
            row: dict = {}
            for i, elem in enumerate(t):
                left = t[:i] + (H.product(gen, elem),) + t[i + 1 :]
                right = t[:i] + (H.product(elem, gen),) + t[i + 1 :]
                add_into(row, left, 1)
                add_into(row, right, -1)
            if row:
                rows.append(row)
    return rows
