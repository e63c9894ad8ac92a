import multiprocessing
from dataclasses import replace

import pytest

from reference_dims import quotient_dim
from reference_ops import general_reading, reversed_reading
from hopfquotients import cli
from hopfquotients.combinatorics import conjugate, kostka, partitions_of
from hopfquotients.hopf import SYM, TENSOR, HopfAlgebra
from hopfquotients.decompose import (
    InconsistentBlockTableError,
    VIOLATION,
    decompose,
    default_num_vars,
    pad_weight,
    verify_bounds,
)
from hopfquotients import presentations
from hopfquotients.presentations import H_FUNCTOR, OMEGA_FUNCTOR, FunctorSpec, block_cols


def spec(functor, rank, kind):
    return FunctorSpec(functor, rank, HopfAlgebra(kind, 1))


class TestHelpers:
    def test_default_num_vars(self):
        assert default_num_vars(spec(H_FUNCTOR, 3, SYM), 7) == 3
        assert default_num_vars(spec(H_FUNCTOR, 2, TENSOR), 7) == 7
        assert default_num_vars(spec(H_FUNCTOR, 2, TENSOR), 0) == 1

    def test_pad_weight(self):
        assert pad_weight((2, 1), 4) == (2, 1, 0, 0)


class TestKnownDecompositions:
    def test_finer_rank2_sym(self):
        assert decompose(spec(H_FUNCTOR, 2, SYM), 4).entries == {(3, 1): 1}
        assert decompose(spec(H_FUNCTOR, 2, SYM), 6).entries == {(5, 1): 1}
        assert decompose(spec(H_FUNCTOR, 2, SYM), 8).entries == {(7, 1): 1, (5, 3): 1}
        assert decompose(spec(H_FUNCTOR, 2, SYM), 5).entries == {}

    def test_coarser_rank2_sym(self):
        assert decompose(spec(OMEGA_FUNCTOR, 2, SYM), 6).entries == {
            (6,): 1,
            (5, 1): 2,
            (4, 2): 1,
        }

    def test_finer_rank3_sym(self):
        assert decompose(spec(H_FUNCTOR, 3, SYM), 3).entries == {(2, 1): 1}
        assert decompose(spec(H_FUNCTOR, 3, SYM), 4).entries == {}
        assert decompose(spec(H_FUNCTOR, 3, SYM), 5).entries == {(4, 1): 1, (3, 2): 1}
        assert decompose(spec(H_FUNCTOR, 3, SYM), 6).entries == {(4, 2): 1}

    def test_coarser_rank3_sym(self):
        assert decompose(spec(OMEGA_FUNCTOR, 3, SYM), 4).entries == {
            (4,): 1,
            (3, 1): 1,
        }
        assert decompose(spec(OMEGA_FUNCTOR, 3, SYM), 5).entries == {
            (5,): 2,
            (4, 1): 3,
            (3, 2): 3,
            (3, 1, 1): 1,
            (2, 2, 1): 1,
        }

    def test_rank3_tensor(self):
        assert decompose(spec(H_FUNCTOR, 3, TENSOR), 4).entries == {(1, 1, 1, 1): 1}
        assert decompose(spec(OMEGA_FUNCTOR, 3, TENSOR), 4).entries == {
            (4,): 1,
            (3, 1): 1,
            (2, 1, 1): 1,
            (1, 1, 1, 1): 1,
        }

    def test_rank2_tensor(self):
        assert decompose(spec(H_FUNCTOR, 2, TENSOR), 4).entries == {(3, 1): 1}
        assert decompose(spec(OMEGA_FUNCTOR, 2, TENSOR), 4).entries == {
            (4,): 1,
            (3, 1): 1,
        }


class TestDecompositionShape:
    def test_entries_are_partitions_of_degree(self):
        dec = decompose(spec(OMEGA_FUNCTOR, 3, SYM), 5)
        for lam, mult in dec.entries.items():
            assert mult > 0
            assert sum(lam) == 5
            assert len(lam) <= dec.num_vars
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))

    def test_multiplicity_lookup(self):
        dec = decompose(spec(H_FUNCTOR, 2, SYM), 8)
        assert dec.multiplicity((7, 1)) == 1
        assert dec.multiplicity([7, 1]) == 1
        assert dec.multiplicity((4, 4)) == 0

    def test_stability_in_extra_variables(self):
        cases = [
            (spec(H_FUNCTOR, 2, SYM), 6),
            (spec(OMEGA_FUNCTOR, 2, SYM), 6),
            (spec(H_FUNCTOR, 3, SYM), 5),
            (spec(H_FUNCTOR, 2, TENSOR), 4),
        ]
        for s, degree in cases:
            base = decompose(s, degree)
            assert ordinary_multiplicities(s, degree, base.num_vars + 1) == base.entries

    def test_total_dim_tracks_blocks(self):
        dec = decompose(spec(OMEGA_FUNCTOR, 2, SYM), 6)
        assert dec.total_dim(dec.num_vars) == dec.total_dim()
        # one-variable total only sees one-row pieces
        assert dec.total_dim(1) == dec.multiplicity((6,))

    def test_jobs_do_not_change_anything(self, clean_cache):
        for s in (spec(OMEGA_FUNCTOR, 2, SYM), spec(H_FUNCTOR, 2, TENSOR)):
            serial = decompose(s, 5, jobs=1)
            # else the parallel call finds every block cached and starts no pool
            clean_cache()
            parallel = decompose(s, 5, jobs=2)
            assert serial.entries == parallel.entries
            assert serial.weight_dims == parallel.weight_dims

    def test_pool_results_reach_the_parent_cache(self, monkeypatch):
        s = spec(H_FUNCTOR, 2, TENSOR)
        first = decompose(s, 4, jobs=2)
        hw = replace(first.spec, highest_weight=True)
        odd = replace(hw, hopf=replace(hw.hopf, odd=True))
        # (1, 1, 1, 1) and (2, 1, 1) come from the odd HW blocks at their
        # conjugates
        for block in [(hw, (4, 0, 0, 0)), (hw, (3, 1, 0, 0)), (hw, (2, 2, 0, 0)),
                      (odd, (4, 0, 0, 0)), (odd, (3, 1, 0, 0))]:
            assert presentations.in_memory(*block), block

        def boom(*a, **k):
            raise AssertionError("should have come from the memory cache")

        def no_pool(*a, **k):
            raise AssertionError("every block is cached; no pool needed")

        monkeypatch.setattr(presentations, "compute_block", boom)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        again = decompose(s, 4, jobs=2)
        assert again.entries == first.entries
        assert again.weight_dims == first.weight_dims

    def test_pool_gets_the_largest_blocks_first(self, monkeypatch, clean_cache):
        handed = []
        chunksizes = []

        class SerialPool:
            def __init__(self, processes):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=None):
                handed.extend(jobs)
                chunksizes.append(chunksize)
                return [fn(job) for job in jobs]

        s = spec(OMEGA_FUNCTOR, 2, TENSOR)
        serial = decompose(s, 5)
        clean_cache()
        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        pooled = decompose(s, 5, jobs=2)
        sizes = [block_cols(bspec, weight) for bspec, weight, _ in handed]
        assert len(sizes) > 2 and sizes == sorted(sizes, reverse=True)
        # one block at a time, so no worker takes a run of the largest
        assert chunksizes and set(chunksizes) == {1}
        assert any(bspec.hopf.odd for bspec, _, _ in handed)
        assert pooled.entries == serial.entries
        assert pooled.weight_dims == serial.weight_dims
        # degree 1 has a single HW block: no pool
        handed.clear()
        clean_cache()
        decompose(s, 1, jobs=2)
        assert handed == []

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            decompose(spec(H_FUNCTOR, 2, SYM), -1)

    def test_degree_zero(self):
        dec = decompose(spec(H_FUNCTOR, 2, SYM), 0)
        assert dec.entries == {}


def ordinary_multiplicities(s, degree, m=None):
    """Back substitution over every ordinary weight block in m variables
    (default: the degree), the multilinear one included: the Kostka
    solve, independent of the HW blocks."""
    if m is None:
        m = max(degree, 1)
    wspec = s.with_num_vars(m)
    entries = {}
    for lam in partitions_of(degree, m):
        value = quotient_dim(wspec, pad_weight(lam, m))
        value -= sum(mult * kostka(kappa, lam) for kappa, mult in entries.items())
        assert value >= 0
        if value:
            entries[lam] = value
    return entries


class TestTwoEndedSolve:
    """Tensor cells take HW blocks from both ends of dominance: at lam,
    or at lam' over odd generators, and check blocks at both ends: the
    ordinary and the sign block at (d - 1, 1)."""

    @pytest.mark.parametrize("functor", [H_FUNCTOR, OMEGA_FUNCTOR])
    @pytest.mark.parametrize("rank, degree", [(2, d) for d in range(6)] + [(3, d) for d in range(5)])
    def test_sign_blocks_match_the_ordinary_path(self, functor, rank, degree):
        s = spec(functor, rank, TENSOR)
        mults = ordinary_multiplicities(s, degree)
        assert decompose(s, degree).entries == mults
        sspec = FunctorSpec(functor, rank, HopfAlgebra(TENSOR, max(degree, 1), odd=True))
        for lam in partitions_of(degree, degree):
            predicted = sum(mult * kostka(conjugate(kappa), lam) for kappa, mult in mults.items())
            assert quotient_dim(sspec, pad_weight(lam, max(degree, 1))) == predicted, lam

    def test_weight_dims_on_the_down_set_are_the_ordinary_ones(self):
        s = spec(OMEGA_FUNCTOR, 2, TENSOR)
        dec = decompose(s, 5)
        wspec = s.with_num_vars(5)
        for lam in [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]:
            assert dec.weight_dims[lam] == quotient_dim(wspec, pad_weight(lam, 5))
        assert list(dec.weight_dims) == partitions_of(5, 5)

    def test_sign_spec_is_not_decomposed(self):
        with pytest.raises(ValueError):
            decompose(FunctorSpec(H_FUNCTOR, 2, HopfAlgebra(TENSOR, 1, odd=True)), 3)

    @staticmethod
    def doctor(monkeypatch, delta):
        """Shift the rank of the odd HW block at (4) by delta.  It gives
        the multiplicity of (1, 1, 1, 1), which is 0 at rank 2 degree 4;
        of the check blocks, only the sign block at (3, 1) sees it."""
        real = presentations.compute_block

        def doctored(s, weight):
            result = real(s, weight)
            if s.highest_weight and s.hopf.odd and weight == (4, 0, 0, 0):
                result = replace(result, rank=result.rank + delta)
            return result

        monkeypatch.setattr(presentations, "compute_block", doctored)

    @pytest.mark.parametrize("functor", [H_FUNCTOR, OMEGA_FUNCTOR])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_doctored_odd_hw_block_rejected(self, monkeypatch, functor, delta):
        self.doctor(monkeypatch, delta)
        with pytest.raises(InconsistentBlockTableError, match="check block .*odd"):
            decompose(spec(functor, 2, TENSOR), 4)

    def test_doctored_odd_hw_block_exits_one(self, monkeypatch, capsys):
        self.doctor(monkeypatch, -1)
        code = cli.main(["compute", "--functor", "H", "--rank", "2", "--hopf", "tensor",
                         "--degree", "4"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: check block") and "Traceback" not in err
        assert err.count("\n") == 1


class TestHighestWeightSolve:
    """Sym cells decompose from one HW block per partition plus the
    check block at the hook (d - r + 1, 1, ..., 1)."""

    @pytest.mark.parametrize("functor", [H_FUNCTOR, OMEGA_FUNCTOR])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_the_ordinary_back_substitution(self, functor, rank):
        s = spec(functor, rank, SYM)
        for degree in range(9):
            dec = decompose(s, degree)
            assert dec.entries == ordinary_multiplicities(s, degree, rank), degree
            for lam, dim in dec.weight_dims.items():
                assert dim == quotient_dim(dec.spec, pad_weight(lam, rank)), (degree, lam)

    def test_jobs_give_the_serial_result_and_fill_the_parent_cache(self, monkeypatch, clean_cache):
        s = spec(OMEGA_FUNCTOR, 3, SYM)
        serial = decompose(s, 6)
        clean_cache()
        parallel = decompose(s, 6, jobs=2)
        assert parallel.entries == serial.entries
        assert parallel.weight_dims == serial.weight_dims
        hw = replace(parallel.spec, highest_weight=True)
        for lam in partitions_of(6, 3):
            assert presentations.in_memory(hw, pad_weight(lam, 3)), lam
        assert presentations.in_memory(parallel.spec, (4, 1, 1))

        def boom(*a, **k):
            raise AssertionError("should have come from the memory cache")

        monkeypatch.setattr(presentations, "compute_block", boom)
        monkeypatch.setattr(multiprocessing, "Pool", boom)
        assert decompose(s, 6, jobs=2).entries == serial.entries

    def test_hw_spec_is_not_decomposed(self):
        with pytest.raises(ValueError):
            decompose(FunctorSpec(H_FUNCTOR, 2, HopfAlgebra(SYM, 1), highest_weight=True), 3)

    @staticmethod
    def doctor(monkeypatch, partition, delta):
        """Shift the rank of the HW block at partition by delta."""
        real = presentations.compute_block

        def doctored(s, weight):
            result = real(s, weight)
            if s.highest_weight and weight == partition:
                result = replace(result, rank=result.rank + delta)
            return result

        monkeypatch.setattr(presentations, "compute_block", doctored)

    # Omega rank 3 degree 6 is {(6,): 1, (5, 1): 2, (4, 2): 1}; its check
    # block at (4, 1, 1) sees (6), (5, 1), (4, 2) and (4, 1, 1)
    @pytest.mark.parametrize("partition", [(6, 0, 0), (5, 1, 0), (4, 2, 0), (4, 1, 1)])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_doctored_hw_block_rejected(self, monkeypatch, partition, delta):
        self.doctor(monkeypatch, partition, delta)
        with pytest.raises(InconsistentBlockTableError, match="check block"):
            decompose(spec(OMEGA_FUNCTOR, 3, SYM), 6)

    def test_doctored_hw_block_exits_one(self, monkeypatch, capsys):
        self.doctor(monkeypatch, (5, 1, 0), -1)
        code = cli.main(["compute", "--functor", "Omega", "--rank", "3", "--hopf", "sym",
                         "--degree", "6"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: check block") and "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("reading", [general_reading, reversed_reading])
    def test_readings_steer_the_hw_blocks(self, reading):
        s = spec(H_FUNCTOR, 3, SYM)
        engine = {degree: decompose(s, degree).entries for degree in range(7)}
        with general_reading(), reading():
            steered = {degree: decompose(s, degree).entries for degree in range(7)}
            for degree in range(7):
                assert steered[degree] == ordinary_multiplicities(s, degree, 3), degree
        assert (steered == engine) == (reading is general_reading)


class TestBounds:
    def test_coarser_rank2_equalities(self):
        report = verify_bounds(decompose(spec(OMEGA_FUNCTOR, 2, SYM), 6))
        assert report["ok"]
        assert {row["relation"] for row in report["rows"]} == {"="}
        by_part = {tuple(row["partition"]): row for row in report["rows"]}
        assert by_part[(5, 1)]["computed"] == by_part[(5, 1)]["bound"] == 2
        assert by_part[(3, 3)]["computed"] == 0

    def test_finer_rank3_equalities(self):
        report = verify_bounds(decompose(spec(H_FUNCTOR, 3, SYM), 6))
        assert report["ok"]
        assert all(row["relation"] == "=" for row in report["rows"])

    def test_strict_rows_marked(self):
        # coarser rank-3 in odd degree exceeds its bound somewhere
        report = verify_bounds(decompose(spec(OMEGA_FUNCTOR, 3, SYM), 5))
        assert report["ok"]
        assert any(row["relation"] == ">" for row in report["rows"])

    def test_violation_label_exists(self):
        assert VIOLATION == "VIOLATION"

    def test_tensor_not_covered(self):
        dec = decompose(spec(H_FUNCTOR, 2, TENSOR), 4)
        with pytest.raises(ValueError):
            verify_bounds(dec)

    def test_rank1_not_covered(self):
        dec = decompose(spec(H_FUNCTOR, 1, SYM), 3)
        with pytest.raises(ValueError):
            verify_bounds(dec)
