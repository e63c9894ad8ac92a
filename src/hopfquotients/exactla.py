"""Exact rank computations for sparse integer matrices.

Rows live in dicts column -> integer coefficient.  rank_distinct is the
engine's entry point: it normalizes the rows (content divided out,
leading coefficient positive), drops repeats of a line before any
elimination, and hands the rest to rank_sparse.  That is a
fraction-free elimination in big integers: a pivot step replaces row_j
by (p * row_j - v * row_i), divided by its content, so no rationals
ever appear and every row stays primitive.  Pivots follow Markowitz's
rule exactly: each step scans the live columns, those that still hold
an unretired row, takes the one holding the fewest rows (ties to the
lowest index), and within it the shortest row (ties to the lowest
index).  So a given matrix always eliminates the same way.  After k
steps no unretired row has an entry in the k pivot columns, so on n
columns the next scan sees at most n - k of them, and the scans cost at
most n(n + 1)/2, about n^2/2, key evaluations in all.
Dividing a row by its content changes no entry's support, so it
changes no pivot either.
"""

from __future__ import annotations

from math import gcd


def _primitive(row: dict) -> dict:
    """A row with no zero entries, divided by its content ({} stays {})."""
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
    """Rank of the span of the given rows, fraction-free.  Rows hold no
    zero entries; neither the list nor its rows are modified."""
    live = [r for r in rows if r]
    # cols[c] holds the unretired rows with an entry in column c; a
    # column leaves as soon as it holds none
    cols: dict[int, set] = {}
    for i, row in enumerate(live):
        for c in row:
            cols.setdefault(c, set()).add(i)

    def retire(col, i):
        cols[col].discard(i)
        if not cols[col]:
            del cols[col]

    rank = 0
    while cols:
        c = min(cols, key=lambda c: (len(cols[c]), c))
        members = cols[c]
        pivot = min(members, key=lambda i: (len(live[i]), i))
        prow = live[pivot]
        pval = prow[c]
        rank += 1
        for col in prow:
            retire(col, pivot)
        for j in list(members):
            jrow = live[j]
            v = jrow[c]
            g = gcd(pval, v)
            mj, mi = pval // g, v // g
            new = {}
            for col, val in jrow.items():
                new[col] = mj * val
            for col, val in prow.items():
                cur = new.get(col, 0) - mi * val
                if cur:
                    new[col] = cur
                elif col in new:
                    del new[col]
            if new:
                new = _primitive(new)
            for col in jrow:
                if col not in new:
                    retire(col, j)
            for col in new:
                if col not in jrow:
                    cols.setdefault(col, set()).add(j)
            live[j] = new
    return rank
