import copy
import random
import tracemalloc
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from hopfquotients import exactla
from hopfquotients.decompose import cell_blocks
from hopfquotients.exactla import rank_distinct, rank_sparse
from hopfquotients.hopf import TENSOR, HopfAlgebra
from hopfquotients.presentations import H_FUNCTOR, FunctorSpec, compute_block, relation_rows
from reference_dims import keyed_pivot_path, rank_dense


def random_rows(rng, nrows, ncols, density=0.4, lo=-5, hi=5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def traced(fn, rows):
    """(size, peak, value): the tracemalloc size of a deep copy of rows,
    the peak that fn(rows) allocates above what is held when it starts,
    and what it returns."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = copy.deepcopy(rows)
        size = tracemalloc.get_traced_memory()[0] - before
        del held
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        value = fn(rows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return size, peak, value


class TestRankDistinct:
    """rank_distinct, the normalize-and-dedup step in front of rank_sparse."""

    def test_dedup(self, request):
        rows = [
            {0: 2, 1: -2},
            {1: 5},
            {0: 1, 1: -1},   # same line as the first after normalization
            {0: -3, 1: 3},   # still the same line
            {},
            {1: -1},         # same line as the second
            {3: -6, 7: 9},   # content 3, negative lead
            {0: -4, 1: -8},  # content 4, negative lead
            {3: 4, 1: -2},   # the lowest column, 1, is not the first key
        ]
        assert rank_distinct(iter(rows)) == 4
        handed = request.getfixturevalue("handed")
        rank_distinct(rows)
        # first occurrence of each line, normalized, in input order
        assert handed == [[{0: 1, 1: -1}, {1: 1}, {3: 2, 7: -3}, {0: 1, 1: 2}, {1: 1, 3: -2}]]

    def test_normal_rows_are_not_copied(self, handed):
        # a row that is primitive with a positive coefficient at its
        # lowest column goes on as the caller's own dict
        rows = [{0: 1, 2: -3}, {1: -2, 4: 6}, {5: 7, 2: 1}, {3: -1}]
        rank_distinct(rows)
        (kept,) = handed
        assert [k is r for k, r in zip(kept, rows)] == [True, False, True, False]
        assert kept[1] == {1: 1, 4: -3} and kept[3] == {3: 1}

    def test_holds_no_copy_of_the_kept_rows(self, handed):
        # the dedup finds a row again by a hash, so its peak above the
        # rows of the H rank-3 tensor degree-6 HW block at (3, 2, 1)
        # stays below their own size; a set of the rows' items, a second
        # copy of each kept row, would take it past that
        _, hw, _ = cell_blocks(FunctorSpec(H_FUNCTOR, 3, HopfAlgebra(TENSOR, 1)), 6)
        _, rows = relation_rows(*hw[(3, 2, 1)])
        size, peak, _ = traced(rank_distinct, rows)
        (kept,) = handed
        assert len(kept) < len(rows)
        assert 0 < peak < size


class TestRankKnown:
    def test_identity(self):
        rows = [{i: 1} for i in range(6)]
        assert rank_sparse(rows) == 6
        assert rank_dense(rows, 6) == 6

    def test_rank_one_outer_product(self):
        # rows all multiples of (1, 2, 3, 4)
        base = {0: 1, 1: 2, 2: 3, 3: 4}
        rows = [{c: k * v for c, v in base.items()} for k in (1, -2, 7, 100)]
        assert rank_sparse(rows) == 1

    def test_vandermonde_full_rank(self):
        n = 5
        rows = [{j: (i + 1) ** j for j in range(n)} for i in range(n)]
        assert rank_sparse(rows) == n

    def test_dependent_rows(self):
        r1 = {0: 1, 2: 5}
        r2 = {1: 3, 2: -1}
        r3 = {c: 2 * r1.get(c, 0) - 3 * r2.get(c, 0) for c in range(3)}
        r3 = {c: v for c, v in r3.items() if v}
        assert rank_sparse([r1, r2, r3]) == 2

    def test_empty(self):
        assert rank_sparse([]) == 0
        assert rank_sparse([{}, {}]) == 0


class TestSparseAgainstDense:
    def test_seeded_random_matrices(self):
        rng = random.Random(20240817)
        for trial in range(120):
            nrows = rng.randint(0, 8)
            ncols = rng.randint(1, 8)
            rows = random_rows(rng, nrows, ncols)
            assert rank_sparse(rows) == rank_dense(rows, ncols), rows

    def test_coefficients_beyond_a_machine_word(self):
        # entries far beyond a machine word, before elimination grows them
        rng = random.Random(7)
        rows = random_rows(rng, 6, 6, density=0.8, lo=-(10**25), hi=10**25)
        assert rank_sparse(rows) == rank_dense(rows, 6)

    def test_shared_factors_are_divided_out(self, record):
        # each row is a small row times a product of large primes, so
        # the rows elimination produces have content above 1
        primes = (2**61 - 1, 2**31 - 1, 10**9 + 7)
        real = exactla._primitive
        calls = record(exactla, "_primitive")
        rng = random.Random(314)
        for _ in range(40):
            ncols = rng.randint(2, 8)
            rows = [
                {c: v * prod(rng.sample(primes, rng.randint(1, 3))) for c, v in row.items()}
                for row in random_rows(rng, rng.randint(2, 8), ncols, density=0.6)
            ]
            assert rank_sparse(rows) == rank_dense(rows, ncols), rows
        assert all(gcd(*real(row).values()) == 1 for (row,) in calls)
        contents = [gcd(*row.values()) for (row,) in calls]
        assert sum(g > 1 for g in contents) > len(contents) // 2

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_rank_invariances(self, data):
        ncols = data.draw(st.integers(1, 6))
        nrows = data.draw(st.integers(1, 6))
        entry = st.integers(-4, 4)
        dense = data.draw(
            st.lists(
                st.lists(entry, min_size=ncols, max_size=ncols),
                min_size=nrows,
                max_size=nrows,
            )
        )
        rows = [
            {c: v for c, v in enumerate(r) if v}
            for r in dense
        ]
        base = rank_sparse(rows)
        assert base == rank_dense(rows, ncols)
        # permuting rows
        perm = data.draw(st.permutations(rows))
        assert rank_sparse(perm) == base
        # scaling a row by a nonzero integer
        if rows:
            i = data.draw(st.integers(0, len(rows) - 1))
            k = data.draw(st.sampled_from([-3, -1, 2, 5]))
            scaled = list(rows)
            scaled[i] = {c: k * v for c, v in rows[i].items()}
            assert rank_sparse(scaled) == base
        # appending a combination of two existing rows
        if len(rows) >= 2:
            combo = {}
            for c, v in rows[0].items():
                combo[c] = combo.get(c, 0) + 2 * v
            for c, v in rows[1].items():
                combo[c] = combo.get(c, 0) - 7 * v
            combo = {c: v for c, v in combo.items() if v}
            assert rank_sparse(rows + [combo]) == base


class TestShortSide:
    def test_dependent_rows_are_not_eliminated(self, record):
        # 200 combinations of 5 rows over 8 columns: eliminating the 8
        # columns takes at most 7 + 6 + 5 + 4 + 3 line updates, while
        # eliminating the rows would carry the 195 dependent ones through
        # every pivot step
        rng = random.Random(5)
        base = [{c: rng.randint(-4, 4) for c in range(8)} for _ in range(5)]
        rows = []
        for _ in range(200):
            k = [rng.randint(-3, 3) for _ in base]
            row = {c: sum(ki * b[c] for ki, b in zip(k, base)) for c in range(8)}
            rows.append({c: v for c, v in row.items() if v})
        calls = record(exactla, "_primitive")
        assert rank_sparse(rows) == rank_dense(rows, 8) == 5
        assert 0 < len(calls) <= 8 * 5


class TestDeterminism:
    def test_same_input_same_path(self):
        rng = random.Random(99)
        rows = random_rows(rng, 10, 10, density=0.5)
        assert rank_sparse(rows) == rank_sparse([dict(r) for r in rows])

    def test_cheapest_live_column_first(self, record):
        # the lines eliminated are the columns {1: -1}, {0: 1, 2: -1} and
        # {0: 1, 1: 2}, whose positions are the row indices: position 2
        # lies on one line and 0 and 1 on two each.  The exact rule
        # pivots on 2, which leaves 0 on one line, then on 0 and last on
        # 1, and no step has anything to eliminate
        calls = record(exactla, "_primitive")
        assert rank_sparse([{1: 1, 2: 1}, {0: -1, 2: 2}, {1: -1}]) == 3
        assert calls == []

    def test_input_is_not_modified(self):
        # more rows than columns, and repeated rows, so pivot steps
        # cancel entries and empty rows
        rng = random.Random(2718)
        rows = random_rows(rng, 14, 8, density=0.5, lo=-3, hi=3)
        rows += [dict(rows[0]), {c: -2 * v for c, v in rows[1].items()}]
        before = copy.deepcopy(rows)
        assert rank_sparse(rows) == rank_dense(rows, 8) < len(rows)
        assert rows == before


def pivot_path(rows, calls):
    """rank_sparse's rank and the support of each line it hands
    _primitive, sorted, in update order; calls is the list that
    record(exactla, "_primitive") returned."""
    calls.clear()
    rank = rank_sparse(rows)
    return rank, [sorted(row) for (row,) in calls]


class TestPivotPath:
    def test_seeded_random_matrices(self, record):
        # random rows, with repeats and combinations of rows appended, so
        # that positions share lines, entries cancel and lines empty
        rng = random.Random(1957)
        primitive = record(exactla, "_primitive")
        seen = set()
        for _ in range(300):
            ncols = rng.randint(1, 9)
            rows = random_rows(rng, rng.randint(1, 9), ncols, density=rng.choice((0.3, 0.6)))
            for _ in range(rng.randint(0, 4)):
                a, b = rng.choice(rows), rng.choice(rows)
                k = rng.choice((1, -1, 2, -3))
                combo = {c: k * a.get(c, 0) - b.get(c, 0) for c in a.keys() | b.keys()}
                rows.append({c: v for c, v in combo.items() if v})
                rows.append(dict(rng.choice(rows)))
            rank, path, cases = keyed_pivot_path(rows)
            assert pivot_path(rows, primitive) == (rank, path), rows
            assert rank == rank_dense(rows, ncols)
            seen |= cases
        # multipliers of +-1 and above, cancellation away from the pivot's
        # position and lines that empty all ran.  Fill-in never lands on
        # a position the step emptied: the position chosen holds the
        # fewest lines, so a position q of the pivot line holds, besides
        # it, at least as many lines as the step updates; a line that
        # fills in at q is updated but not at q, so one of q's lines is
        # left alone
        assert seen == {"unit", "scaled", "cancel", "empty"}


class TestEngineBlock:
    """rank_sparse on the rows compute_block hands it for the H rank-3
    tensor degree-5 HW block at (3, 1, 1): 545 distinct rows over 126
    columns, of full rank."""

    @pytest.fixture
    def rows(self, handed):
        _, hw, _ = cell_blocks(FunctorSpec(H_FUNCTOR, 3, HopfAlgebra(TENSOR, 1)), 5)
        compute_block(*hw[(3, 1, 1)])
        (rows,) = handed
        assert len(rows) == 545
        return rows

    def test_holds_one_copy_of_each_line(self, rows):
        # the elimination holds each live column once and a count per
        # row, so its peak above the input stays within twice the size
        # of a copy of the input; a second copy of the columns, retired
        # pivot lines or a set of lines per row would take it past that
        size, peak, rank = traced(rank_sparse, rows)
        assert rank == 126
        assert 0 < peak <= 2 * size

    def test_the_work_is_pinned(self, rows, record):
        # every line update passes the updated line to _primitive, so
        # these count the updates and the entries they write; a change
        # of pivot rule shows here as a change of work
        calls = record(exactla, "_primitive")
        assert rank_sparse(rows) == 126
        lengths = [len(row) for (row,) in calls]
        assert (len(lengths), sum(lengths)) == (93, 9173)

    def test_the_path_is_the_keyed_scans(self, rows, record):
        rank, path, _ = keyed_pivot_path(rows)
        assert pivot_path(rows, record(exactla, "_primitive")) == (rank, path)
