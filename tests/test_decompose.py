import multiprocessing
from dataclasses import replace
from pathlib import Path

import pytest

from reference_dims import quotient_dim
from reference_ops import general_reading, reversed_reading, space_groups
from hopfquotients import cli
from hopfquotients.combinatorics import conjugate, kostka, partitions_of
from hopfquotients.hopf import SYM, TENSOR, HopfAlgebra
from hopfquotients.decompose import (
    InconsistentBlockTableError,
    VIOLATION,
    _pool_misses,
    cell_blocks,
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

    def test_pool_results_reach_the_parent_cache(self, forbid, record):
        s = spec(H_FUNCTOR, 2, TENSOR)
        # the workers compute every block; the parent only keeps results
        computed_here = record(presentations, "compute_block")
        first = decompose(s, 4, jobs=2)
        assert computed_here == []
        hw = replace(first.spec, highest_weight=True)
        odd = replace(hw, hopf=replace(hw.hopf, odd=True))
        # (1, 1, 1, 1) and (2, 1, 1) come from the odd HW blocks at their
        # conjugates
        for block in [(hw, (4, 0, 0, 0)), (hw, (3, 1, 0, 0)), (hw, (2, 2, 0, 0)),
                      (odd, (4, 0, 0, 0)), (odd, (3, 1, 0, 0))]:
            assert presentations.cached_result(*block) is not None, block

        forbid(presentations, "compute_block", "should have come from the memory cache")
        forbid(multiprocessing, "Pool", "every block is cached; no pool needed")
        again = decompose(s, 4, jobs=2)
        assert again.entries == first.entries
        assert again.weight_dims == first.weight_dims

    def test_pool_gets_the_largest_blocks_first(self, serial_pool, clean_cache):
        s = spec(OMEGA_FUNCTOR, 2, TENSOR)
        serial = decompose(s, 5)
        clean_cache()
        pooled = decompose(s, 5, jobs=2)
        handed = [job for jobs, _ in serial_pool.maps for job in jobs]
        chunksizes = [chunksize for _, chunksize in serial_pool.maps]
        # one functor, so a group is an HW block, with the check block
        # at its weight where there is one, or a check block alone
        groups = space_groups(TENSOR, ((2, [5]),), (OMEGA_FUNCTOR,))
        assert len(handed) == len(groups)
        assert {tuple(group) for group, _ in handed} == set(map(tuple, groups))
        assert any(len(group) == 2 for group in groups)
        sizes = [sum(block_cols(*block) for block in group) for group, _ in handed]
        assert len(sizes) > 2 and sizes == sorted(sizes, reverse=True)
        # one group at a time, so no worker takes a run of the largest
        assert chunksizes and set(chunksizes) == {1}
        assert any(bspec.hopf.odd for group, _ in handed for bspec, _ in group)
        assert pooled.entries == serial.entries
        assert pooled.weight_dims == serial.weight_dims
        # degree 1 has a single HW block: no pool
        serial_pool.maps.clear()
        clean_cache()
        decompose(s, 1, jobs=2)
        assert serial_pool.maps == []

    def test_no_more_workers_than_missing_blocks(self, serial_pool, clean_cache):
        s = spec(H_FUNCTOR, 2, TENSOR)
        serial = decompose(s, 3)
        clean_cache()
        assert decompose(s, 3, jobs=64).entries == serial.entries
        # three HW blocks and two check blocks, one of which shares the
        # weight and the algebra of an HW block: a worker per group, not 64
        groups = len(space_groups(TENSOR, ((2, [3]),), (H_FUNCTOR,)))
        assert serial_pool.processes == [len(jobs) for jobs, _ in serial_pool.maps] == [groups]
        # with Omega's blocks too, each group holds both functors' blocks
        # of one space: as many groups, so as many workers
        clean_cache()
        blocks = [block for f in (H_FUNCTOR, OMEGA_FUNCTOR)
                  for _, hw, checks in [cell_blocks(spec(f, 2, TENSOR), 3)]
                  for block in (*hw.values(), *checks)]
        _pool_misses(blocks, 64, None)
        assert len(space_groups(TENSOR, ((2, [3]),))) == groups
        assert serial_pool.processes == [len(jobs) for jobs, _ in serial_pool.maps] == [groups] * 2
        assert all(presentations.cached_result(*block) is not None for block in blocks)

    def test_an_hw_block_anywhere_in_a_group_counts(self, serial_pool):
        # at the hook (3, 1) of rank-2 tensor degree 4 the ordinary check
        # joins the even HW block and the sign check the odd one; listed
        # first, the checks still leave two groups that hold an HW block
        _, hw, checks = cell_blocks(spec(H_FUNCTOR, 2, TENSOR), 4)
        hook = [block for block in hw.values() if block[1] == checks[0][1]]
        _pool_misses([*checks, *hook], 2, None)
        ((handed, _),) = serial_pool.maps
        assert sorted(len(group) for group, _ in handed) == [2, 2]
        assert all(presentations.cached_result(*block) is not None for block in checks + hook)

    def test_no_pool_for_one_missing_hw_block(self, forbid):
        s = spec(H_FUNCTOR, 2, TENSOR)
        serial = decompose(s, 4)
        _, hw, checks = cell_blocks(s, 4)
        assert len(hw) > 1
        # one HW block and the check blocks go missing: three blocks, but
        # a single HW block leaves nothing to share out
        missing = [next(iter(hw.values())), *checks]
        for block in missing:
            del presentations._MEM_CACHE[presentations._cache_token(*block)]

        forbid(multiprocessing, "Pool", "one HW block is missing; no pool needed")
        again = decompose(s, 4, jobs=2)
        assert again.entries == serial.entries
        assert again.weight_dims == serial.weight_dims
        assert all(presentations.cached_result(*block) is not None for block in missing)
        # H's and Omega's HW blocks at one partition are two missing HW
        # blocks, but one group: still nothing to share out
        _, omega_hw, _ = cell_blocks(spec(OMEGA_FUNCTOR, 2, TENSOR), 4)
        lam = next(iter(hw))
        pair = [hw[lam], omega_hw[lam]]
        presentations._MEM_CACHE.pop(presentations._cache_token(*hw[lam]))
        _pool_misses(pair, 2, None)
        assert all(presentations.cached_result(*block) is not None for block in pair)

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

    def test_the_hw_side_has_the_smaller_weight_blocks(self):
        # lam' over odd generators is taken where the factorials of the
        # shapes say its bideterminants expand to fewer monomials, which
        # is where lam's weight block is larger than lam''s, on every
        # tensor partition of ranks 1-3 to degree 12
        sides = 0
        for functor in (H_FUNCTOR, OMEGA_FUNCTOR):
            for rank in (1, 2, 3):
                for degree in range(13):
                    wspec, hw, _ = cell_blocks(spec(functor, rank, TENSOR), degree)
                    m = wspec.hopf.num_vars
                    for lam, (bspec, weight) in hw.items():
                        lam, dual = pad_weight(lam, m), pad_weight(conjugate(lam), m)
                        larger = block_cols(wspec, lam) > block_cols(wspec, dual)
                        assert (bspec.hopf.odd, weight) == ((True, dual) if larger else (False, lam))
                        sides += 1
        assert sides == 1632

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

    def test_jobs_give_the_serial_result_and_fill_the_parent_cache(self, forbid, clean_cache):
        s = spec(OMEGA_FUNCTOR, 3, SYM)
        serial = decompose(s, 6)
        clean_cache()
        parallel = decompose(s, 6, jobs=2)
        assert parallel.entries == serial.entries
        assert parallel.weight_dims == serial.weight_dims
        hw = replace(parallel.spec, highest_weight=True)
        for lam in partitions_of(6, 3):
            assert presentations.cached_result(hw, pad_weight(lam, 3)) is not None, lam
        assert presentations.cached_result(parallel.spec, (4, 1, 1)) is not None

        forbid(presentations, "compute_block", "should have come from the memory cache")
        forbid(multiprocessing, "Pool", "should have come from the memory cache")
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

    def test_doctored_hw_block_exits_one_after_the_pool(self, monkeypatch, capsys):
        # doctored before the pool forks, so a worker computes the
        # doctored block, and the cell's check block runs after the map
        self.doctor(monkeypatch, (5, 1, 0), -1)
        code = cli.main(["verify", "--functor", "Omega", "--rank", "3", "--hopf", "sym",
                         "--max-degree", "6", "--jobs", "2"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: check block") and "Traceback" not in err

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


def test_readme_library_block():
    # the fenced block under README's "## Library", run as written
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["dec"].entries == {(6,): 1, (5, 1): 2, (4, 2): 1}
