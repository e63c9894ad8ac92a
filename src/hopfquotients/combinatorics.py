"""Partitions, Kostka numbers, Weyl dimensions, and the modular-form
dimension bookkeeping used to predict multiplicities.

Partitions are tuples of weakly decreasing positive integers.  A weight
is any tuple of nonnegative integers; sorting a weight and dropping
zeros gives a partition.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache


def is_partition(lam) -> bool:
    lam = tuple(lam)
    if any(p <= 0 for p in lam):
        return False
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def partitions_of(n: int, max_parts: int | None = None):
    """All partitions of n with at most max_parts parts, in descending
    lexicographic order.

    >>> partitions_of(4, 2)
    [(4,), (3, 1), (2, 2)]
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if max_parts is None:
        max_parts = n
    out = []

    def grow(prefix, remaining, bound, slots):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if slots == 0:
            return
        for part in range(min(bound, remaining), 0, -1):
            # the remaining slots must be able to absorb what is left
            if part * slots < remaining:
                break
            prefix.append(part)
            grow(prefix, remaining - part, part, slots - 1)
            prefix.pop()

    grow([], n, n, max_parts)
    return out


def conjugate(lam) -> tuple:
    """The conjugate partition: column lengths of the Young diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    """
    lam = tuple(lam)
    return tuple(sum(1 for row in lam if row > j) for j in range(lam[0] if lam else 0))


def _strip_removals(shape, size):
    """Subshapes nu of shape with shape/nu a horizontal strip of the
    given size: one cell range removable per row, no two removed cells
    in the same column."""
    rows = len(shape)
    out = []

    def walk(i, left, nu):
        if left == 0:
            result = nu + list(shape[i:])
            out.append(tuple(p for p in result if p > 0))
            return
        if i == rows:
            return
        lo = shape[i + 1] if i + 1 < rows else 0
        for keep in range(shape[i], lo - 1, -1):
            removed = shape[i] - keep
            if removed > left:
                break
            walk(i + 1, left - removed, nu + [keep])

    walk(0, size, [])
    return out


@lru_cache(maxsize=None)
def _kostka_rec(shape: tuple, content: tuple) -> int:
    if not content:
        return 1 if not shape else 0
    last = content[-1]
    rest = content[:-1]
    if last == 0:
        return _kostka_rec(shape, rest)
    return sum(_kostka_rec(nu, rest) for nu in _strip_removals(shape, last))


def kostka(lam, mu) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    mu may be an arbitrary weight; the count only depends on the sorted
    weight.  Sizes must agree.

    >>> kostka((2, 1), (1, 1, 1))
    2
    """
    lam = tuple(lam)
    mu = tuple(mu)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    if sum(lam) != sum(mu):
        raise ValueError("kostka needs |lam| == |mu|")
    return _kostka_rec(lam, tuple(m for m in mu if m > 0))


def weyl_dim(lam, m: int) -> int:
    """Dimension of the irreducible GL_m representation with highest
    weight lam, by the hook content formula.  Zero when lam has more
    than m rows.
    """
    lam = tuple(lam)
    if len(lam) > m:
        return 0
    conj = conjugate(lam)
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= m + j - i
            den *= (row - j) + (conj[j] - i) - 1
    return num // den


# --- dimensions of level-one modular forms and their relatives ---------

def cusp_dim(w: int) -> int:
    """dim of weight-w cusp forms for SL_2(Z); zero for odd or small w."""
    if w % 2 == 1 or w < 12 or w == 14:
        return 0
    if w % 12 == 2:
        return w // 12 - 1
    return w // 12


def omega_dim(k: int) -> int:
    """ceil(k/3) in even degrees k >= 0, zero otherwise.

    This is the size of the degree-k piece of the one-variable rank-2
    quotient before the two monomial relations are imposed; see the
    single-variable acceptance checks.
    """
    if k < 0 or k % 2 == 1:
        return 0
    return -(-k // 3)


def omega_cusp_dim(k: int) -> int:
    """max(omega_dim(k) - 1, 0): the cuspidal part of omega_dim."""
    return max(omega_dim(k) - 1, 0)


def _epsilon(a: int, b: int, c: int) -> int:
    return 1 if (a > b > c and a % 2 == b % 2 == c % 2 == 0) else 0


def _delta(a: int, b: int, c: int) -> int:
    return cusp_dim(a - b + 2) if a - b == b - c else 0


def _check_sorted3(a, b, c):
    if not (a >= b >= c >= 0):
        raise ValueError(f"parts must be sorted: {(a, b, c)}")


def rank2_multiplicity(a: int, b: int) -> int:
    """Predicted multiplicity of the two-row weight (a, b) in the rank-2
    quotient of Sym.  Exact, not just a bound."""
    if not (a >= b >= 0):
        raise ValueError(f"parts must be sorted: {(a, b)}")
    if a < b + 2 or (a - b) % 2 == 1:
        return 0
    extra = 1 if a % 2 == 1 else 0
    return cusp_dim(a - b) + extra


def rank3_h_bound(a: int, b: int, c: int) -> int:
    """Lower bound for the multiplicity of (a, b, c) in the rank-3 finer
    quotient of Sym; conjecturally exact in even total degree."""
    _check_sorted3(a, b, c)
    return cusp_dim(a - b + 2) + cusp_dim(b - c + 2) + _delta(a, b, c) + _epsilon(a, b, c)


def rank3_omega_bound(a: int, b: int, c: int) -> int:
    """Lower bound for the multiplicity of (a, b, c) in the rank-3
    coarser quotient of Sym.  The first cusp summand of rank3_h_bound
    grows here from roughly (a-b)/12 to roughly (a-b)/3."""
    _check_sorted3(a, b, c)
    return omega_cusp_dim(a - b) + cusp_dim(b - c + 2) + _delta(a, b, c) + _epsilon(a, b, c)


def omega2_sym_multiplicity(k: int, l: int) -> int:
    """Exact multiplicity of the two-row weight (k, l) in the rank-2
    coarser quotient of Sym: omega_dim(k - l) for k > l > 0, the
    cuspidal variant on one-row weights, zero on square weights."""
    if not (k >= l >= 0):
        raise ValueError(f"parts must be sorted: {(k, l)}")
    if l == 0:
        return omega_cusp_dim(k)
    if k == l:
        return 0
    return omega_dim(k - l)
