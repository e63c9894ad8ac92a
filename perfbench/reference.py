"""A fixed reference kernel that measures how fast the host runs Python
at the moment, independent of the package under test.

The host is a few vCPUs of a shared machine; its speed drifts by 40% and
more over minutes as neighbours come and go, which no median over a
30-second run removes.  run.py times this kernel right before and after
every session and scales the session's times by it (see run.py).

The kernel is a fraction-free sparse elimination over integer dict rows,
the same kind of work as the package's rank computation, on a matrix
made by a fixed linear congruential generator.  It is frozen here: a
change to the package does not change it.

    python3 perfbench/reference.py [REPS]    # prints the kernel's times
"""

from __future__ import annotations

import sys
import time
from math import gcd

ROWS = 200
COLS = 160
PER_ROW = 5
EXPECTED_RANK = 160


def _matrix() -> list:
    state = 12345
    rows = []
    for _ in range(ROWS):
        row = {}
        for _ in range(PER_ROW):
            state = (1103515245 * state + 12345) % 2**31
            col = (state >> 12) % COLS
            state = (1103515245 * state + 12345) % 2**31
            row[col] = (state >> 12) % 7 - 3 or 1
        rows.append(row)
    return rows


def _rank(rows) -> int:
    live = [dict(r) for r in rows if r]
    rank = 0
    for c in range(COLS):
        members = [i for i, row in enumerate(live) if c in row]
        if not members:
            continue
        pivot = min(members, key=lambda i: (len(live[i]), i))
        prow = live[pivot]
        pval = prow[c]
        rank += 1
        for j in members:
            if j == pivot:
                continue
            jrow = live[j]
            v = jrow[c]
            g = gcd(pval, v)
            mj, mi = pval // g, v // g
            new = {col: mj * val for col, val in jrow.items()}
            for col, val in prow.items():
                cur = new.get(col, 0) - mi * val
                if cur:
                    new[col] = cur
                else:
                    new.pop(col, None)
            content = 0
            for val in new.values():
                content = gcd(content, val)
            if content > 1:
                new = {col: val // content for col, val in new.items()}
            live[j] = new
        live[pivot] = {}
    return rank


def reference_s() -> float:
    """Seconds the kernel takes now.  Raises if it computes a wrong rank,
    which would mean the interpreter itself is broken."""
    rows = _matrix()
    t0 = time.perf_counter()
    rank = _rank(rows)
    elapsed = time.perf_counter() - t0
    if rank != EXPECTED_RANK:
        raise RuntimeError(f"reference kernel gave rank {rank}, not {EXPECTED_RANK}")
    return elapsed


if __name__ == "__main__":
    for _ in range(int(sys.argv[1]) if len(sys.argv) > 1 else 1):
        print(reference_s())
