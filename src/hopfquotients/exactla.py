"""Exact rank computations for sparse integer matrices.

Rows live in dicts column -> integer coefficient.  rank_distinct is the
engine's entry point: it normalizes the rows (content divided out,
leading coefficient positive), drops repeats of a line before any
elimination, and hands the rest to rank_sparse.

rank_sparse eliminates the columns, since rank(A) = rank(A^T).  The
engine's blocks are tall: a block has several times as many distinct
rows as columns, and its corank, the multiplicity it is asked for, is
small.  Among the rows almost all are dependent, and an elimination of
rows carries each of them through fill-in until it cancels; among the
columns at most the corank are.  So the lines eliminated are the
columns, and a line's positions are row indices.

The elimination is fraction-free, in big integers: a pivot step
replaces line_j by (p * line_j - v * line_i), divided by its content, so
no rationals ever appear and every line stays primitive after its first
update.  Pivots follow Markowitz's rule exactly: each step scans the
live positions, those that still hold an unretired line, takes the one
holding the fewest lines (ties to the lowest index), and within it the
shortest line (ties to the lowest index).  So a given matrix always
eliminates the same way.  Each step retires its pivot line, so on n
lines over P positions there are at most n steps, and each scans at most
P positions and n lines: at most n * (P + n) key evaluations in all.
With the columns as lines, n is the short side.
Dividing a line by its content changes no entry's support, so it
changes no pivot either.
"""

from __future__ import annotations

from math import gcd


def _primitive(row: dict) -> dict:
    """A vector with no zero entries, divided by its content ({} stays {})."""
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _normalize_row(row: dict) -> dict:
    """Drop zero entries, divide out the content, make the leading
    (lowest column) coefficient positive."""
    row = {c: v for c, v in row.items() if v}
    if row and row[min(row)] < 0:
        row = {c: -v for c, v in row.items()}
    return _primitive(row)


def rank_distinct(rows) -> int:
    """Rank of the span of integer rows: each row is normalized, only the
    first row on each line is kept, and the kept rows go to rank_sparse
    in their original order."""
    distinct = []
    seen = set()
    for row in rows:
        norm = _normalize_row(row)
        if not norm:
            continue
        key = tuple(sorted(norm.items()))
        if key not in seen:
            seen.add(key)
            distinct.append(norm)
    # the keys hold a second copy of every row; free them before the
    # elimination reaches its peak
    del seen
    return rank_sparse(distinct)


def rank_sparse(rows) -> int:
    """Rank of the span of the given rows, fraction-free, found as the
    rank of their columns.  Rows hold no zero entries; neither the list
    nor its rows are modified."""
    # the lines are the rows' columns in column order, each a dict row
    # index -> coefficient
    by_col: dict[int, dict] = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            by_col.setdefault(c, {})[i] = v
    lines = [line for _, line in sorted(by_col.items())]
    # at[p] holds the unretired lines with an entry at position p; a
    # position leaves as soon as it holds none
    at: dict[int, set] = {}
    for i, line in enumerate(lines):
        for p in line:
            at.setdefault(p, set()).add(i)

    def retire(p, i):
        at[p].discard(i)
        if not at[p]:
            del at[p]

    rank = 0
    while at:
        p = min(at, key=lambda p: (len(at[p]), p))
        members = at[p]
        pivot = min(members, key=lambda i: (len(lines[i]), i))
        pline = lines[pivot]
        pval = pline[p]
        rank += 1
        for q in pline:
            retire(q, pivot)
        for j in list(members):
            jline = lines[j]
            v = jline[p]
            g = gcd(pval, v)
            mj, mi = pval // g, v // g
            new = {}
            for q, val in jline.items():
                new[q] = mj * val
            for q, val in pline.items():
                cur = new.get(q, 0) - mi * val
                if cur:
                    new[q] = cur
                elif q in new:
                    del new[q]
            if new:
                new = _primitive(new)
            for q in jline:
                if q not in new:
                    retire(q, j)
            for q in new:
                if q not in jline:
                    at.setdefault(q, set()).add(j)
            lines[j] = new
    return rank
