import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hopfquotients.combinatorics import (
    conjugate,
    cusp_dim,
    is_partition,
    kostka,
    omega2_sym_multiplicity,
    omega_cusp_dim,
    omega_dim,
    partitions_of,
    rank2_multiplicity,
    rank3_h_bound,
    rank3_omega_bound,
    weyl_dim,
)
from reference_dims import dominates, mf_dim, weight_to_partition


def brute_partitions(n, max_parts):
    """Independent enumeration: all weakly decreasing positive tuples."""
    found = set()
    for k in range(0, min(max_parts, n) + 1):
        for combo in itertools.combinations_with_replacement(range(n, 0, -1), k):
            if sum(combo) == n:
                found.add(combo)
    if n == 0:
        found.add(())
    return found


def ssyt_count(shape, content):
    """Backtracking count of semistandard tableaux: rows weakly
    increase, columns strictly increase, letter i appears content[i]
    times.  Independent of the production Kostka recursion."""
    rows = [[0] * r for r in shape]
    remaining = list(content)

    def fill(i, j):
        if i == len(shape):
            return 1
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        total = 0
        lo = rows[i][j - 1] if j > 0 else 1
        for letter in range(lo, len(content) + 1):
            if remaining[letter - 1] == 0:
                continue
            if i > 0 and shape[i - 1] > j and rows[i - 1][j] >= letter:
                continue
            rows[i][j] = letter
            remaining[letter - 1] -= 1
            total += fill(ni, nj)
            remaining[letter - 1] += 1
            rows[i][j] = 0
        return total

    return fill(0, 0)


class TestPartitions:
    def test_counts_against_brute_force(self):
        for n in range(0, 9):
            for m in range(1, n + 2):
                assert set(partitions_of(n, m)) == brute_partitions(n, m)

    def test_seven_partitions_of_six_with_three_parts(self):
        assert len(partitions_of(6, 3)) == 7

    def test_descending_lex_order(self):
        parts = partitions_of(8, 8)
        assert parts == sorted(parts, reverse=True)
        assert partitions_of(4, 2) == [(4,), (3, 1), (2, 2)]

    def test_weight_to_partition(self):
        assert weight_to_partition((0, 3, 1, 0, 2)) == (3, 2, 1)

    def test_dominance_basics(self):
        assert dominates((4,), (2, 2))
        assert dominates((2, 2), (2, 1, 1))
        assert not dominates((2, 2), (3, 1))
        assert dominates((3, 1), (2, 2))
        with pytest.raises(ValueError):
            dominates((2,), (1,))

    def test_conjugate_examples(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate((4, 2, 2, 1)) == (4, 3, 1, 1)
        assert conjugate((1, 1, 1)) == (3,)
        assert conjugate(()) == ()

    def test_conjugate_is_a_size_preserving_involution(self):
        for n in range(0, 10):
            for lam in partitions_of(n, n):
                conj = conjugate(lam)
                assert is_partition(conj) and sum(conj) == n
                assert len(conj) == (lam[0] if lam else 0)
                assert conjugate(conj) == lam

    def test_conjugate_reverses_dominance(self):
        for n in (5, 6):
            parts = partitions_of(n, n)
            for a in parts:
                for b in parts:
                    assert dominates(a, b) == dominates(conjugate(b), conjugate(a))

    def test_descending_lex_refines_dominance(self):
        for n in (5, 6, 7):
            parts = partitions_of(n, n)
            order = {p: i for i, p in enumerate(parts)}
            for a in parts:
                for b in parts:
                    if a != b and dominates(a, b):
                        assert order[a] < order[b]


class TestKostka:
    def test_hook_shape_example(self):
        assert kostka((2, 1), (1, 1, 1)) == 2

    def test_against_ssyt_enumeration(self):
        for n in range(1, 7):
            for shape in partitions_of(n, n):
                for content in partitions_of(n, n):
                    assert kostka(shape, content) == ssyt_count(shape, content), (
                        shape,
                        content,
                    )

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            kostka((2, 1), (1, 1))

    def test_triangularity(self):
        for n in (4, 5, 6):
            for shape in partitions_of(n, n):
                for content in partitions_of(n, n):
                    if not dominates(shape, content):
                        assert kostka(shape, content) == 0
            assert all(kostka(lam, lam) == 1 for lam in partitions_of(n, n))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_content_permutation_invariance(self, data):
        n = data.draw(st.integers(2, 7))
        shape = data.draw(st.sampled_from(partitions_of(n, n)))
        content = data.draw(st.sampled_from(partitions_of(n, n)))
        padded = list(content) + [0] * data.draw(st.integers(0, 2))
        perm = data.draw(st.permutations(padded))
        assert kostka(shape, perm) == kostka(shape, content)


class TestWeylDim:
    def test_adjoint_like_example(self):
        assert weyl_dim((2, 1), 3) == 8

    def test_against_tableau_count(self):
        # the dimension is the number of tableaux with entries <= m:
        # weyl_dim(lam, m) = sum_mu K_{lam,mu} * orbit(mu, m), for every
        # n <= 9 with m <= n + 1 (the tensor cells) and every n <= 20
        # with m <= 3 (the Sym cells and the bounds range)
        cases = {(n, m) for n in range(1, 10) for m in range(1, n + 2)}
        cases |= {(n, m) for n in range(1, 21) for m in range(1, 4)}
        for n, m in sorted(cases):
            for shape in partitions_of(n, m):
                count = sum(
                    kostka(shape, mu) * _orbit(mu, m)
                    for mu in partitions_of(n, m)
                )
                assert weyl_dim(shape, m) == count, (shape, m)

    def test_too_many_rows(self):
        assert weyl_dim((1, 1, 1), 2) == 0

    def test_one_row(self):
        for d in range(8):
            assert weyl_dim((d,) if d else (), 2) == d + 1


def _orbit(mu, m):
    padded = tuple(mu) + (0,) * (m - len(mu))
    size = 1
    for i in range(1, m + 1):
        size *= i
    for v in set(padded):
        fact = 1
        for i in range(1, padded.count(v) + 1):
            fact *= i
        size //= fact
    return size


class TestModularFormDims:
    # classical values, frozen: weight -> (cusp, full)
    KNOWN = {
        0: (0, 1), 2: (0, 0), 4: (0, 1), 6: (0, 1), 8: (0, 1), 10: (0, 1),
        12: (1, 2), 14: (0, 1), 16: (1, 2), 18: (1, 2), 20: (1, 2),
        22: (1, 2), 24: (2, 3), 26: (1, 2), 28: (2, 3), 68: (5, 6),
    }

    def test_known_values(self):
        for w, (s, m) in self.KNOWN.items():
            assert cusp_dim(w) == s, w
            assert mf_dim(w) == m, w

    def test_odd_weights_vanish(self):
        assert all(cusp_dim(w) == 0 and mf_dim(w) == 0 for w in range(1, 40, 2))

    def test_eisenstein_gap(self):
        # full space exceeds cusp space by exactly one in weights >= 4
        for w in range(4, 60, 2):
            assert mf_dim(w) == cusp_dim(w) + 1


class TestSmallQuotientDims:
    def test_omega_dim(self):
        assert [omega_dim(k) for k in (0, 2, 4, 6, 8, 10)] == [0, 1, 2, 2, 3, 4]
        assert all(omega_dim(k) == 0 for k in (1, 3, 5, -2))

    def test_omega_cusp_dim_clamps(self):
        assert omega_cusp_dim(0) == 0
        assert omega_cusp_dim(2) == 0
        assert omega_cusp_dim(4) == 1
        assert omega_cusp_dim(8) == 2


class TestBoundFormulas:
    def test_rank2_table_row(self):
        assert rank2_multiplicity(3, 1) == 1
        assert rank2_multiplicity(5, 1) == 1
        assert rank2_multiplicity(4, 2) == 0
        assert rank2_multiplicity(7, 1) == 1
        assert rank2_multiplicity(5, 3) == 1
        assert rank2_multiplicity(8, 0) == 0
        assert rank2_multiplicity(12, 0) == 1
        assert rank2_multiplicity(6, 5) == 0
        assert rank2_multiplicity(13, 1) == 2  # cusp_dim(12) + 1

    def test_rank3_h_values(self):
        assert rank3_h_bound(4, 2, 0) == 1   # epsilon only
        assert rank3_h_bound(6, 2, 0) == 1
        assert rank3_h_bound(2, 1, 0) == 0
        assert rank3_h_bound(20, 10, 0) == 4  # cusp 22 + cusp 12 + delta + epsilon

    def test_rank3_omega_values(self):
        assert rank3_omega_bound(6, 2, 0) == 2  # omega part 1 + epsilon 1
        assert rank3_omega_bound(8, 0, 0) == 2
        assert rank3_omega_bound(4, 0, 0) == 1
        assert rank3_omega_bound(2, 2, 0) == 0
        assert rank3_omega_bound(4, 4, 0) == 0

    def test_sorted_precondition(self):
        with pytest.raises(ValueError):
            rank3_h_bound(1, 2, 0)
        with pytest.raises(ValueError):
            rank2_multiplicity(1, 2)

    def test_omega2_formula_small(self):
        assert omega2_sym_multiplicity(4, 0) == 1
        assert omega2_sym_multiplicity(3, 1) == 1
        assert omega2_sym_multiplicity(2, 2) == 0
        assert omega2_sym_multiplicity(6, 0) == 1
        assert omega2_sym_multiplicity(5, 1) == 2
        assert omega2_sym_multiplicity(8, 0) == 2
        assert omega2_sym_multiplicity(7, 1) == 2
        assert omega2_sym_multiplicity(6, 2) == 2
        assert omega2_sym_multiplicity(5, 3) == 1
