"""Test-side helpers and independent oracles the tests check the engine
against; the library itself calls none of them.

quotient_dim reads one block's quotient dimension through the engine's
cached path.  h1_dim is the rank-1 quotient computed from an explicit
commutator spanning set, and gl2_h1_dim a small exact model of
degree-one GL_2(Z) cohomology.  rank_dense is a textbook elimination
over Fraction that the sparse integer rank must agree with, and
keyed_pivot_path the Markowitz column elimination of rank_sparse
written as the keyed scan it replaced, whose path of updated lines
rank_sparse must follow.  normalized_row is the normal form of a row
that rank_distinct hands on.  mf_dim, dominates and
weight_to_partition are the remaining combinatorial helpers.
"""

from fractions import Fraction
from math import comb, gcd

from hopfquotients.exactla import rank_sparse
from hopfquotients.hopf import TENSOR, HopfAlgebra, add_into
from hopfquotients.presentations import FunctorSpec, block_result
from hopfquotients.tensorspace import tensor_basis


def quotient_dim(spec: FunctorSpec, weight, cache_dir=None) -> int:
    return block_result(spec, weight, cache_dir=cache_dir).quotient_dim


# --- rank 1 cross check ------------------------------------------------

def h1_dim(hopf: HopfAlgebra, weight) -> int:
    """Dimension of the image of (id - S) on the weight block of the
    cyclic quotient H / [H, H].  Computed as a rank difference against
    an explicit commutator spanning set, independently of the
    presentation route."""
    weight = tuple(weight)
    elements = hopf.elements_of_weight(weight)
    index = {e: i for i, e in enumerate(elements)}
    comm_rows = []
    if hopf.kind == TENSOR:
        for a, b in tensor_basis(hopf, 2, weight):
            if not a or not b:
                continue
            # the tensor product concatenates
            row: dict = {index[a + b]: 1}
            add_into(row, index[b + a], -1)
            if row:
                comm_rows.append(row)
    image_rows = []
    for e in elements:
        sign, se = hopf.antipode(e)
        row = {index[e]: 1}
        add_into(row, index[se], -sign)
        if row:
            image_rows.append(row)
    base = rank_sparse(comm_rows)
    return rank_sparse(comm_rows + image_rows) - base


# --- degree one cohomology of GL_2(Z) ---------------------------------

_GL2_S = (0, 1, -1, 0)
_GL2_ST = (0, 1, -1, -1)
_GL2_ST2 = (-1, -1, 1, 0)
_GL2_TAU = (0, 1, 1, 0)


def _substitute(poly: dict, mat) -> dict:
    """Right substitution action on binary forms: x and y are replaced
    by the rows of mat."""
    a, b, c, d = mat
    out: dict = {}
    for (i, j), coeff in poly.items():
        for r in range(i + 1):
            base = coeff * comb(i, r) * a**r * b ** (i - r)
            if base == 0:
                continue
            for s in range(j + 1):
                co = base * comb(j, s) * c**s * d ** (j - s)
                if co:
                    add_into(out, (r + s, (i - r) + (j - s)), co)
    return out


def gl2_h1_dim(g: int, twist: str) -> int:
    """dim H^1 of GL_2(Z) with coefficients in binary forms of degree g,
    twisted by the determinant when twist is "odd".

    Presented as the forms modulo the images of 1 + s, 1 + st + (st)^2
    and 1 -+ tau, with s, t the standard generators.
    """
    if g < 0:
        raise ValueError("degree must be nonnegative")
    if twist not in ("even", "odd"):
        raise ValueError(f"twist must be even or odd, got {twist!r}")
    tau_sign = -1 if twist == "even" else 1
    rows = []
    for k in range(g + 1):
        mono = {(k, g - k): 1}
        for mats, signs in (
            ((_GL2_S,), (1,)),
            ((_GL2_ST, _GL2_ST2), (1, 1)),
            ((_GL2_TAU,), (tau_sign,)),
        ):
            row = dict(mono)
            for mat, sign in zip(mats, signs):
                for (i, j), coeff in _substitute(mono, mat).items():
                    add_into(row, (i, j), sign * coeff)
            rows.append({i: c for (i, _), c in row.items()})
    return (g + 1) - rank_sparse(rows)


# --- dense reference rank ---------------------------------------------

def normalized_row(row: dict) -> dict:
    """A nonzero integer row divided by its content and signed so that its
    coefficient at the lowest column is positive, in column order."""
    cols = sorted(row)
    g = 0
    for c in cols:
        g = gcd(g, row[c])
    if row[cols[0]] < 0:
        g = -g
    return {c: row[c] // g for c in cols}


def rank_dense(rows, ncols: int) -> int:
    """Reference rank over Fraction, row reduction with no cleverness."""
    mat = []
    for row in rows:
        dense = [Fraction(0)] * ncols
        for c, v in row.items():
            dense[c] = Fraction(v)
        mat.append(dense)
    rank = 0
    col = 0
    nrows = len(mat)
    while col < ncols and rank < nrows:
        pivot = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def keyed_pivot_path(rows):
    """rank_sparse's elimination with a keyed min over every live
    position and four passes over each updated line: the position with
    the fewest live lines (ties to the lowest index), within it the
    shortest line (ties to the lowest column index), and the update
    p * line_j - v * line_i divided by its content.

    Returns (rank, path, seen): path lists the support of each updated
    line that did not empty, sorted, in update order, and seen is the set of cases the
    updates met: "unit" and "scaled" for a multiplier of line_j of
    absolute value 1 and above, "cancel" for an entry cancelled away
    from the pivot's position, "refill" for fill-in at a position no
    live line held any more, and "empty" for a line that emptied."""
    lines: dict = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            lines.setdefault(c, {})[i] = v
    count = {i: len(row) for i, row in enumerate(rows) if row}

    def retire(p):
        if count[p] == 1:
            del count[p]
        else:
            count[p] -= 1

    rank = 0
    path = []
    seen = set()
    while count:
        p = min(count, key=lambda p: (count[p], p))
        members = [c for c, line in lines.items() if p in line]
        pivot = min(members, key=lambda c: (len(lines[c]), c))
        members.remove(pivot)
        pline = lines.pop(pivot)
        pval = pline[p]
        rank += 1
        for q in pline:
            retire(q)
        for j in members:
            jline = lines[j]
            v = jline[p]
            g = gcd(pval, v)
            mj, mi = pval // g, v // g
            seen.add("unit" if abs(mj) == 1 else "scaled")
            new = {q: mj * val for q, val in jline.items()}
            for q, val in pline.items():
                cur = new.get(q, 0) - mi * val
                if cur:
                    new[q] = cur
                else:
                    del new[q]
                    if q != p:
                        seen.add("cancel")
            for q in jline:
                if q not in new:
                    retire(q)
            for q in new:
                if q not in jline:
                    if q not in count:
                        seen.add("refill")
                    count[q] = count.get(q, 0) + 1
            if new:
                path.append(sorted(new))
                g = gcd(*new.values())
                lines[j] = {q: val // g for q, val in new.items()}
            else:
                seen.add("empty")
                del lines[j]
    return rank, path, seen


# --- combinatorics -----------------------------------------------------

def mf_dim(w: int) -> int:
    """dim of the full space of weight-w modular forms for SL_2(Z)."""
    if w < 0 or w % 2 == 1:
        return 0
    if w % 12 == 2:
        return w // 12
    return w // 12 + 1


def weight_to_partition(weight) -> tuple:
    return tuple(sorted((w for w in weight if w > 0), reverse=True))


def dominates(lam, mu) -> bool:
    """Dominance order: partial sums of lam bound those of mu.

    Both arguments must be partitions of the same integer.
    """
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of equal size")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True
