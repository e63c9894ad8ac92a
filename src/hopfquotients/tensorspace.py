"""Weight blocks of tensor powers H^(x)n and the operators acting on them.

A block basis element is an n-tuple of Hopf basis elements whose
weights add up to a fixed weight vector.  Operators are formal integer
combinations of composable atoms:

    ('swap', i, j)   exchange slots i and j
    ('S', i)         antipode in slot i
    ('U', i)         keep a tuple whose slot i is the unit, drop any other
    ('E',)           split slot 0, multiply one leg onto slot 1 from the left
    ('F',)           split slot 1, multiply one leg onto slot 0 from the right
    ('ad',)          take the leading letter v off slot 0, leaving r; sum
                     over slots i of r with v * r_i in slot i, minus r
                     with r_i * v in slot i

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


def block_index(basis) -> dict:
    return {t: i for i, t in enumerate(basis)}


def apply_atom(H: HopfAlgebra, atom: tuple, t: tuple) -> dict:
    """Apply one atom to a basis tuple; returns a vector over tuples."""
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
        return {t: 1} if H.degree(t[atom[1]]) == 0 else {}
    if kind == "E":
        a, b, rest = t[0], t[1], t[2:]
        return {(a1, H.product(a2, b)) + rest: coeff for a1, a2, coeff in H.coproduct(a)}
    if kind == "F":
        a, b, rest = t[0], t[1], t[2:]
        return {(H.product(a, b1), b2) + rest: coeff for b1, b2, coeff in H.coproduct(b)}
    if kind == "ad":
        if H.degree(t[0]) == 0:
            return {}
        gen, r = t[0][:1], (t[0][1:],) + t[1:]
        out: dict = {}
        sign = 1
        for i, elem in enumerate(r):
            # the Koszul sign of moving v past elem
            flip = -1 if H.odd and len(elem) % 2 else 1
            add_into(out, r[:i] + (H.product(gen, elem),) + r[i + 1 :], sign)
            add_into(out, r[:i] + (H.product(elem, gen),) + r[i + 1 :], -sign * flip)
            sign *= flip
        return out
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
