"""Exact rank computations for sparse integer matrices.

Rows live in dicts column -> integer coefficient, with no zero entries.
rank_distinct is the engine's entry point: it normalizes the rows
(content divided out, coefficient at the lowest column positive) in
one gcd and at most one copy per row, drops repeats of a line before
any elimination, and hands the rest to rank_sparse.  It finds a repeat
by the hash of the row's sorted items and compares it with the row
kept under that hash, so it holds one hash per kept row and no second
copy of it.

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
live positions, those that still hold a live line, takes the one
holding the fewest lines (ties to the lowest index), and within it the
shortest line (ties to the lowest column index).  So a given matrix
always eliminates the same way.

Each line is held once, in one dict keyed by column index; a pivot line
leaves it when it retires, and so does a line that empties.  The rule
needs only how many live lines hold each position, so a position keeps
that count and no list of its lines.  A step chooses its position by
one pass over the counts, a min by count that keeps the first position
of least count.  That first one is the lowest index because the counts
stay in ascending position order: they are built in row order, and
afterwards a position only changes its count or leaves, never enters
again (fill-in lands on live positions only, see the update below).
The step then finds the lines at that position by one scan over the
live lines, which stops at the first when the position lies on one
line.  Each update is one pass over the pivot line, which keeps the
counts in step: an entry the updated line lacked is fill-in and adds
one to its position, and an entry that cancels takes one off.  So on
n lines over P positions there are at most n steps, each costing one
pass over at most P counts, a scan of at most n lines and, for each
line it updates, the length of the pivot line.  With the columns as
lines, n is the short side.

Dividing a line by its content changes no entry's support, and nor
does negating it, so neither changes a pivot.  When p divides v, that
is p / g = +-1 for g = gcd(p, v), the update starts from a copy of
line_j: line_j - (v / p) * line_i is (p * line_j - v * line_i) / g times
p / g, so it has the update's support and content.  A line may then
differ in sign from the one the formula gives, never in support, so
the elimination takes the same pivots and writes the same entries.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter


def _primitive(row: dict) -> dict:
    """A vector with no zero entries, divided by its content ({} stays {})."""
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def rank_distinct(rows) -> int:
    """Rank of the span of integer rows, which hold no zero entries (as
    for rank_sparse); empty rows are skipped.  Each row is divided by
    its content, negated if its coefficient at the lowest column is
    negative, and kept itself when that changes nothing, else copied
    once.  Only the first row on each line is kept, and the kept rows go
    to rank_sparse in their original order.  A row is found again by the
    hash of its sorted items and dropped only when it equals the row kept
    under that hash, so no copy of the kept rows is held, and a hash
    collision can only keep an extra row, which changes no rank."""
    distinct = []
    kept = {}
    for row in rows:
        if not row:
            continue
        g = gcd(*row.values())
        if row[min(row)] < 0:
            g = -g
        norm = row if g == 1 else {c: v // g for c, v in row.items()}
        key = hash(tuple(sorted(norm.items())))
        if key not in kept:
            kept[key] = norm
        elif kept[key] == norm:
            continue
        distinct.append(norm)
    # the elimination needs no hashes; free them before its peak
    del kept
    return rank_sparse(distinct)


def rank_sparse(rows) -> int:
    """Rank of the span of the given rows, fraction-free, found as the
    rank of their columns.  Rows hold no zero entries; neither the list
    nor its rows are modified.  The columns are held once, in a dict
    keyed by column index; each row index keeps only a count of the
    live columns with an entry there, the columns at a pivot's row are
    found by a scan, and each update is one pass over the pivot column
    that also keeps the counts (see the module docstring)."""
    # the live lines, keyed by column index: each is the row index ->
    # coefficient dict of a column
    lines: dict[int, dict] = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            lines.setdefault(c, {})[i] = v
    # count[p] is the number of live lines with an entry at position p,
    # at first the length of row p; a position leaves as soon as it holds
    # none
    count = {i: len(row) for i, row in enumerate(rows) if row}
    rank = 0
    while count:
        # the first least count, so the lowest such position (module
        # docstring)
        p, least = min(count.items(), key=itemgetter(1))
        # fast path for one line at p; pays on frontier blocks (ROADMAP dead ends)
        if least == 1:
            pivot = next(c for c, line in lines.items() if p in line)
            members = ()
        else:
            members = [c for c, line in lines.items() if p in line]
            pivot = min(members, key=lambda c: (len(lines[c]), c))
            members.remove(pivot)
        pline = lines.pop(pivot)
        pval = pline[p]
        rank += 1
        for q in pline:
            if count[q] == 1:
                del count[q]
            else:
                count[q] -= 1
        for j in members:
            jline = lines[j]
            v = jline[p]
            g = gcd(pval, v)
            mj, mi = pval // g, v // g
            if mj == 1 or mj == -1:
                # pval divides v, and jline - (v // pval) * pline is mj
                # times the update (module docstring)
                new = jline.copy()
                mi *= mj
            else:
                new = {q: mj * val for q, val in jline.items()}
            for q, val in pline.items():
                cur = new.get(q)
                if cur is None:
                    # fill-in.  q held at least as many lines as p, and
                    # this line is one of p's but not of q's, so some
                    # line at q is left alone by this step: q is live
                    new[q] = -mi * val
                    count[q] += 1
                    continue
                cur -= mi * val
                if cur:
                    new[q] = cur
                else:
                    # cancellation: the line leaves q
                    del new[q]
                    if count[q] == 1:
                        del count[q]
                    else:
                        count[q] -= 1
            if new:
                lines[j] = _primitive(new)
            else:
                del lines[j]
    return rank
