"""Two cocommutative Hopf algebras over the rationals, presented through
their monomial bases.

* kind "sym": the symmetric algebra on num_vars generators.  Basis
  elements are exponent tuples; the coproduct is binomial and the
  antipode negates generators.
* kind "tensor": the tensor algebra on num_vars generators, primitive
  generators.  Basis elements are words (tuples of letter indices);
  the product concatenates, the coproduct unshuffles, and the antipode
  reverses with a sign.  With odd=True every generator is odd and the
  algebra is super: a word of length k has parity k, the coproduct term
  whose left leg takes positions p_0 < ... < p_{r-1} carries the Koszul
  sign (-1)^(sum of p_i - i), and the antipode of a word of length k
  carries (-1)^(k + k(k-1)/2).  Its weight blocks are the sign blocks
  of the even algebra (super Schur-Weyl duality).

All structure constants are integers, so vectors are dicts mapping
basis elements to ints (callers who need rationals can wrap them in
Fraction; nothing here ever divides).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product as iproduct
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
def _sym_coproduct(elem):
    ranges = [range(e + 1) for e in elem]
    terms = []
    for beta in iproduct(*ranges):
        coeff = prod_comb(elem, beta)
        rest = tuple(e - b for e, b in zip(elem, beta))
        terms.append((beta, rest, coeff))
    return tuple(terms)


def prod_comb(alpha, beta) -> int:
    c = 1
    for a, b in zip(alpha, beta):
        c *= comb(a, b)
    return c


@lru_cache(maxsize=None)
def _word_coproduct(word, odd):
    """Unshuffle terms (left, rest, coeff) with equal pairs merged and
    cancelled ones dropped, so every pair appears once, with a nonzero
    coefficient.  Both products are cancellative, so distinct pairs stay
    distinct when a leg is multiplied on, and E and F never merge or
    cancel terms."""
    k = len(word)
    counts: dict = {}
    for r in range(k + 1):
        for pos in combinations(range(k), r):
            rest = tuple(word[i] for i in range(k) if i not in pos)
            left = tuple(word[i] for i in pos)
            sign = (-1) ** (sum(pos) - r * (r - 1) // 2) if odd else 1
            add_into(counts, (left, rest), sign)
    return tuple((a, b, c) for (a, b), c in counts.items())


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
    def one(self):
        return (0,) * self.num_vars if self.kind == SYM else ()

    def degree(self, elem) -> int:
        return sum(elem) if self.kind == SYM else len(elem)

    def weight(self, elem) -> tuple:
        if self.kind == SYM:
            return elem
        w = [0] * self.num_vars
        for letter in elem:
            w[letter] += 1
        return tuple(w)

    def generator(self, v: int):
        if self.kind == SYM:
            return tuple(1 if i == v else 0 for i in range(self.num_vars))
        return (v,)

    def product(self, x, y):
        if self.kind == SYM:
            return tuple(a + b for a, b in zip(x, y))
        return x + y

    def coproduct(self, x):
        """List of (left, right, coeff) triples with sum of coeff *
        left (x) right equal to the coproduct of x."""
        if self.kind == SYM:
            return _sym_coproduct(x)
        return _word_coproduct(x, self.odd)

    def antipode(self, x):
        """The antipode of a basis element, as a (sign, element) pair."""
        if self.kind == SYM:
            return (-1) ** sum(x), x
        k = len(x)
        return (-1) ** (k + k * (k - 1) // 2 if self.odd else k), tuple(reversed(x))

    def counit(self, x) -> int:
        return 1 if self.degree(x) == 0 else 0

    def elements_of_weight(self, weight) -> list:
        """All basis elements of the given weight, sorted.  For sym this
        is the single monomial; for tensor, every arrangement of the
        multiset of letters."""
        if len(weight) != self.num_vars:
            raise ValueError("weight length must match num_vars")
        if self.kind == SYM:
            return [tuple(weight)]
        letters = [v for v, m in enumerate(weight) for _ in range(m)]
        return sorted(_distinct_arrangements(tuple(letters)))


@lru_cache(maxsize=None)
def _distinct_arrangements(letters: tuple) -> tuple:
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
