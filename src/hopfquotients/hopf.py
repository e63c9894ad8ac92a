"""Two cocommutative Hopf algebras over the rationals on one monomial
basis: words, tuples of letter indices 0..num_vars-1.

* kind "tensor": the tensor algebra on num_vars primitive generators.
  Every word is a basis element; the product concatenates and the
  antipode reverses a word of length k with the sign (-1)^k.
* kind "sym": the symmetric algebra, the commutative quotient of the
  tensor algebra.  A monomial is its nondecreasing word; the product
  sorts the concatenation and the antipode does not reverse.

Both share the unshuffle coproduct: each letter in turn joins the left
or the right leg, and equal pairs of legs merge, which on a
nondecreasing word gives the binomial coefficients.  With odd=True
(tensor only) every generator is odd: a word of length k has parity k,
a letter joining the left leg past r letters of the right one carries
the Koszul sign (-1)^r, and the antipode carries (-1)^(k + k(k-1)/2).
Its weight blocks are the sign blocks of the even algebra (super
Schur-Weyl duality).

The engine applies only the transpose of the coproduct, factorizations
(the pairs whose product is a given element), the antipode and the
basis of a weight; the forward product and coproduct are the tests'
reference, in tests/reference_ops.py.

The transpose of the coproduct under the pairing in which the words are
orthonormal sends left (x) right to the sum over elements a of the
coefficient of left (x) right in the coproduct of a, times a.  Over the
tensor algebra this is the shuffle product, with the same Koszul sign
on odd generators; over sym it is the single monomial a = left * right
with coefficient prod_v C(a_v, left_v), the choices of which copies of
each letter v go left.

All structure constants are integers, so vectors are dicts mapping
basis elements to ints (callers who need rationals can wrap them in
Fraction; nothing here ever divides).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

SYM = "sym"
TENSOR = "tensor"


def add_into(vec: dict, key, coeff) -> None:
    """Accumulate coeff on key in vec, dropping exact zeros."""
    new = vec.get(key, 0) + coeff
    if new:
        vec[key] = new
    else:
        vec.pop(key, None)


@lru_cache(maxsize=None)
def _unshuffle_pairs(word):
    """The pairs (left, rest) of the unshuffle of a word over even
    generators, each once: each letter in turn joins rest, then left."""
    pairs = {((), ()): None}
    for letter in word:
        pairs = dict.fromkeys(
            pair for left, rest in pairs
            for pair in ((left, rest + (letter,)), (left + (letter,), rest))
        )
    return tuple(pairs)


@lru_cache(maxsize=None)
def _coproduct_transpose(left, right, sym, odd):
    """HopfAlgebra.coproduct_transpose of two nonempty words.  Over the
    tensor algebra the shuffle terms (word, coeff) are built letter by
    letter with equal states merged and cancelled ones dropped: the
    transpose of the unshuffle, whose Koszul sign a letter of left takes
    when it follows r letters of right."""
    if sym:
        elem = tuple(sorted(left + right))
        coeff = 1
        for v in set(left):
            coeff *= comb(elem.count(v), left.count(v))
        return ((elem, coeff),)
    terms = {((), 0): 1}
    for _ in range(len(left) + len(right)):
        nxt: dict = {}
        for (word, i), c in terms.items():
            j = len(word) - i
            if i < len(left):
                add_into(nxt, (word + left[i : i + 1], i + 1), -c if odd and j % 2 else c)
            if j < len(right):
                add_into(nxt, (word + right[j : j + 1], i), c)
        terms = nxt
    return tuple((word, c) for (word, _), c in terms.items())


@dataclass(frozen=True)
class HopfAlgebra:
    """Descriptor for one of the two monomial Hopf algebras."""

    kind: str
    num_vars: int
    # odd generators, tensor only (see the module docstring)
    odd: bool = False

    def __post_init__(self):
        if self.kind not in (SYM, TENSOR):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        if self.odd and self.kind != TENSOR:
            raise ValueError("odd generators only exist for the tensor algebra")

    @property
    def commutative(self) -> bool:
        """Whether the product of any two basis elements commutes, so
        that the conjugation defect ad is zero: true for sym."""
        return self.kind == SYM

    def coproduct_transpose(self, left, right):
        """List of (elem, coeff) pairs, each elem once, where coeff is the
        coefficient of left (x) right in the coproduct of elem."""
        if not left or not right:
            return ((left + right, 1),)
        return _coproduct_transpose(left, right, self.kind == SYM, self.odd)

    def factorizations(self, x):
        """List of (left, right) pairs whose product is x, each once:
        the prefixes of a word, the submonomials over sym."""
        if self.kind == SYM:
            return list(_unshuffle_pairs(x))
        return [(x[:k], x[k:]) for k in range(len(x) + 1)]

    def antipode(self, x):
        """The antipode of a basis element, as a (sign, element) pair."""
        k = len(x)
        if self.kind == SYM:
            return (-1) ** k, x
        return (-1) ** (k + k * (k - 1) // 2 if self.odd else k), tuple(reversed(x))

    def elements_of_weight(self, weight) -> list:
        """All basis elements of the given weight, sorted.  For sym this
        is the single nondecreasing word; for tensor, every arrangement
        of the multiset of letters."""
        if len(weight) != self.num_vars:
            raise ValueError("weight length must match num_vars")
        letters = tuple(v for v, m in enumerate(weight) for _ in range(m))
        if self.kind == SYM:
            return [letters]
        return list(_distinct_arrangements(letters))


@lru_cache(maxsize=None)
def _distinct_arrangements(letters: tuple) -> tuple:
    """Every distinct arrangement of letters, once each; in
    lexicographic order when letters is nondecreasing."""
    if not letters:
        return ((),)
    seen = set()
    out = []
    for i, letter in enumerate(letters):
        if letter in seen:
            continue
        seen.add(letter)
        rest = letters[:i] + letters[i + 1 :]
        for tail in _distinct_arrangements(rest):
            out.append((letter,) + tail)
    return tuple(out)
