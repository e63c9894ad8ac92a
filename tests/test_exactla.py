import copy
import random
from math import gcd, prod

from hypothesis import given, settings, strategies as st

from hopfquotients import exactla
from hopfquotients.exactla import _normalize_row, rank_distinct, rank_sparse
from reference_dims import rank_dense


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


class TestNormalizeRow:
    def test_content_and_sign(self):
        assert _normalize_row({3: -6, 7: 9}) == {3: 2, 7: -3}
        assert _normalize_row({0: -4, 1: -8}) == {0: 1, 1: 2}

    def test_zero_row(self):
        assert _normalize_row({}) == {}
        assert _normalize_row({5: 0}) == {}


class TestRankDistinct:
    """rank_distinct, the normalize-and-dedup step in front of rank_sparse."""

    def test_dedup(self, monkeypatch):
        rows = [
            {0: 2, 1: -2},
            {1: 5},
            {0: 1, 1: -1},   # same line as the first after normalization
            {0: -3, 1: 3},   # still the same line
            {},
            {2: 0},
            {1: -1},         # same line as the second
        ]
        assert rank_distinct(iter(rows)) == 2
        handed = []
        monkeypatch.setattr(exactla, "rank_sparse", lambda rows: handed.append(rows) or 0)
        rank_distinct(rows)
        # first occurrence of each line, normalized, in input order
        assert handed == [[{0: 1, 1: -1}, {1: 1}]]


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

    def test_shared_factors_are_divided_out(self, monkeypatch):
        # each row is a small row times a product of large primes, so
        # the rows elimination produces have content above 1
        primes = (2**61 - 1, 2**31 - 1, 10**9 + 7)
        contents = []

        def primitive(row):
            contents.append(gcd(*row.values()))
            out = real(row)
            assert gcd(*out.values()) == 1
            return out

        real = exactla._primitive
        monkeypatch.setattr(exactla, "_primitive", primitive)
        rng = random.Random(314)
        for _ in range(40):
            ncols = rng.randint(2, 8)
            rows = [
                {c: v * prod(rng.sample(primes, rng.randint(1, 3))) for c, v in row.items()}
                for row in random_rows(rng, rng.randint(2, 8), ncols, density=0.6)
            ]
            assert rank_sparse(rows) == rank_dense(rows, ncols), rows
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


class TestDeterminism:
    def test_same_input_same_path(self):
        rng = random.Random(99)
        rows = random_rows(rng, 10, 10, density=0.5)
        assert rank_sparse(rows) == rank_sparse([dict(r) for r in rows])

    def test_cheapest_live_column_first(self, monkeypatch):
        # once column 0 is pivoted, column 2 holds one live row and
        # column 1 two: the exact rule pivots on 2, then 1, and no step
        # has anything to eliminate
        calls = []
        real = exactla._primitive
        monkeypatch.setattr(exactla, "_primitive", lambda row: calls.append(row) or real(row))
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
