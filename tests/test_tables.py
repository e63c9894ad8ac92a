import json
import multiprocessing
from multiprocessing.pool import RemoteTraceback
from pathlib import Path

import pytest

from reference_ops import space_groups
from hopfquotients import presentations
from hopfquotients.combinatorics import omega2_sym_multiplicity, rank2_multiplicity
from hopfquotients.presentations import block_cols, block_space
from hopfquotients.tables import (
    UNKNOWN,
    ZERO,
    decomposition_to_pairs,
    entries_in_scope,
    load_expected,
    packaged_table_path,
    verify_against,
)
from hopfquotients.version import engine_version


@pytest.fixture(scope="module")
def table():
    return load_expected()


class TestTableFile:
    def test_packaged_file_loads(self, table):
        assert table["format"] == 1
        assert len(table["entries"]) == 72

    def test_entry_shape(self, table):
        for entry in table["entries"]:
            assert entry["functor"] in ("H", "Omega")
            assert entry["rank"] in (1, 2, 3)
            assert entry["hopf"] in ("sym", "tensor")
            assert isinstance(entry["degree"], int)
            value = entry["value"]
            assert value in (ZERO, UNKNOWN) or "decomposition" in value

    def test_decompositions_sorted_and_positive(self, table):
        for entry in table["entries"]:
            pairs = (
                decomposition_to_pairs(entry["value"])
                if entry["value"] != UNKNOWN
                else []
            )
            assert pairs == sorted(pairs, reverse=True)
            for lam, mult in pairs:
                assert mult > 0
                assert sum(lam) == entry["degree"]
                assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))

    def test_unknowns_are_the_heavy_tensor_columns(self, table):
        unknown = {
            (e["rank"], e["hopf"], e["degree"])
            for e in table["entries"]
            if e["value"] == UNKNOWN
        }
        assert unknown == {
            (2, "tensor", 7),
            (2, "tensor", 8),
            (3, "tensor", 6),
            (3, "tensor", 7),
            (3, "tensor", 8),
        }

    def test_load_rejects_entryless(self, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({"format": 1}))
        with pytest.raises(ValueError):
            load_expected(str(bad))

    def test_load_from_explicit_path(self, tmp_path):
        copy = tmp_path / "copy.json"
        copy.write_text(packaged_table_path().read_text())
        assert load_expected(str(copy)) == load_expected()


class TestScope:
    def test_filters_compose(self, table):
        rows = list(entries_in_scope(table, functor="H", rank=2, hopf="sym"))
        assert rows
        assert all(
            e["functor"] == "H" and e["rank"] == 2 and e["hopf"] == "sym"
            for e in rows
        )
        capped = list(
            entries_in_scope(table, functor="H", rank=2, hopf="sym", max_degree=4)
        )
        assert all(e["degree"] <= 4 for e in capped)
        assert len(capped) < len(rows)

    def test_no_filter_returns_everything(self, table):
        assert len(list(entries_in_scope(table))) == 72


class TestVerifyAgainst:
    def test_small_sym_scope_matches(self, table):
        report = verify_against(table, rank=2, hopf="sym", max_degree=6)
        assert report["mismatches"] == []
        assert report["matches"] == report["checked"] > 0
        assert report["engine_version"] == engine_version()

    def test_unknown_entries_reported_as_new(self, table):
        report = verify_against(table, rank=2, hopf="tensor", max_degree=3)
        # nothing unknown this low, so "new" stays empty
        assert report["new"] == []
        assert report["matches"] == report["checked"]

    def test_doctored_entry_is_caught(self, table):
        doctored = json.loads(json.dumps(table))
        for entry in doctored["entries"]:
            if (
                entry["functor"] == "H"
                and entry["rank"] == 2
                and entry["hopf"] == "sym"
                and entry["degree"] == 4
            ):
                entry["value"] = {
                    "decomposition": [{"partition": [2, 2], "mult": 5}]
                }
        report = verify_against(doctored, functor="H", rank=2, hopf="sym", max_degree=4)
        assert len(report["mismatches"]) == 1
        bad = report["mismatches"][0]
        assert bad["degree"] == 4
        diffs = {tuple(d["partition"]): (d["expected"], d["computed"]) for d in bad["diff"]}
        assert diffs[(3, 1)] == (0, 1)
        assert diffs[(2, 2)] == (5, 0)

    def test_flagged_partition_bypasses_equality(self, table):
        doctored = json.loads(json.dumps(table))
        for entry in doctored["entries"]:
            if (
                entry["functor"] == "H"
                and entry["rank"] == 2
                and entry["hopf"] == "sym"
                and entry["degree"] == 4
            ):
                entry["value"] = {
                    "decomposition": [{"partition": [3, 1], "mult": 999}]
                }
                entry["flags"] = [{"partition": [3, 1], "note": "printed value illegible"}]
        report = verify_against(doctored, functor="H", rank=2, hopf="sym", max_degree=4)
        assert report["mismatches"] == []
        assert any(
            f["partition"] == [3, 1] and f["computed"] == 1 and "illegible" in f["note"]
            for f in report["flagged"]
        )


class TestOnePool:
    """verify_against computes the blocks of all its cells, grouped by
    space, on one pool map and leaves no worker behind, also when a
    worker's block raises; a serial run looks each block up once."""

    def test_a_serial_run_reads_each_record_once(self, table, tmp_path, record):
        reads = record(presentations, "_read_record")
        computed = record(presentations, "compute_block")
        verify_against(table, hopf="sym", max_degree=7, cache_dir=str(tmp_path))
        # a cold disk cache: every block is read once, found missing and computed
        assert [(spec, weight) for _, spec, weight in reads] == computed
        assert len(computed) == len(set(computed)) == 134

    def test_one_pool_per_verify_run(self, clean_cache, table, record):
        serial = verify_against(table, rank=2, hopf="tensor", max_degree=5)
        # else every block is cached and the pool gets no work
        clean_cache()
        started = record(multiprocessing, "Pool")
        assert verify_against(table, rank=2, hopf="tensor", max_degree=5, jobs=2) == serial
        assert started == [(2,)]
        assert multiprocessing.active_children() == []

    def test_one_largest_first_map_for_every_block_of_the_run(self, clean_cache, table,
                                                              serial_pool):
        serial = verify_against(table, hopf="tensor", max_degree=5)
        # the serial run leaves exactly the blocks of its cells in the cache
        used = set(presentations._MEM_CACHE)
        clean_cache()
        assert verify_against(table, hopf="tensor", max_degree=5, jobs=2) == serial
        # one map, so no cell waits for the one before it
        assert len(serial_pool.maps) == 1
        handed, chunksize = serial_pool.maps[0]
        assert chunksize == 1
        blocks = [block for group, _ in handed for block in group]
        assert len(blocks) == len(used)
        assert {presentations._cache_token(spec, weight) for spec, weight in blocks} == used
        assert {spec.rank for spec, _ in blocks} == {2, 3}
        # each group is the H and the Omega blocks of one space, its HW
        # blocks with the check blocks at their weight
        assert len(handed) == len(space_groups("tensor", ((2, range(6)), (3, range(6)))))
        for group, _ in handed:
            functors = [spec.functor for spec, _ in group]
            assert functors.count("H") == functors.count("Omega") >= 1
            assert len({block_space(*block) for block in group}) == 1
        sizes = [sum(block_cols(*block) for block in group) for group, _ in handed]
        assert sizes == sorted(sizes, reverse=True)

    def test_no_pool_when_every_block_is_cached(self, table, forbid):
        first = verify_against(table, hopf="tensor", rank=2, max_degree=5, jobs=2)
        forbid(multiprocessing, "Pool", "every block is cached; no pool needed")
        assert verify_against(table, hopf="tensor", rank=2, max_degree=5, jobs=2) == first

    def test_pool_written_records_serve_a_serial_run(self, clean_cache, table, tmp_path,
                                                     forbid):
        # a memory hit writes no record, so every block starts a miss
        clean_cache()
        pooled = verify_against(table, hopf="tensor", rank=2, max_degree=4, jobs=2,
                                cache_dir=str(tmp_path))
        clean_cache()
        forbid(presentations, "compute_block", "should have come from disk")
        assert verify_against(table, hopf="tensor", rank=2, max_degree=4, jobs=1,
                              cache_dir=str(tmp_path)) == pooled

    def test_no_pool_on_a_warm_cache_dir(self, clean_cache, table, tmp_path, forbid):
        cold = verify_against(table, hopf="tensor", max_degree=5, cache_dir=str(tmp_path))
        # every block is now on disk and none in memory
        clean_cache()
        forbid(multiprocessing, "Pool", "every block is on disk; no pool needed")
        forbid(presentations, "compute_block", "every block is on disk; no pool needed")
        assert verify_against(table, hopf="tensor", max_degree=5, jobs=2,
                              cache_dir=str(tmp_path)) == cold

    def test_a_worker_error_reaches_the_caller(self, clean_cache, table, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        # one cell of several HW blocks, so that its blocks all go to the
        # pool, where block_result finds a file where the cache should be
        one_cell = {"entries": [e for e in entries_in_scope(table, functor="H", rank=2,
                                                            hopf="tensor")
                                if e["degree"] == 4]}
        clean_cache()
        with pytest.raises(FileExistsError) as raised:
            verify_against(one_cell, jobs=2, cache_dir=str(not_a_dir))
        assert isinstance(raised.value.__cause__, RemoteTraceback)
        assert multiprocessing.active_children() == []


class TestEngineVersion:
    def test_shape_and_stability(self):
        v = engine_version()
        assert len(v) == 12
        assert int(v, 16) >= 0
        assert engine_version() == v


NEW_TENSOR_CELLS = Path(__file__).parent / "data" / "tensor-cells.json"


class TestNewTensorCells:
    """The tensor cells the published tables leave open or do not reach,
    pinned as this engine computed them (tests/data/tensor-cells.json)."""

    @pytest.fixture(scope="class")
    def cells(self):
        # load_expected rejects an entry that lists anything but
        # partitions of its degree
        return load_expected(NEW_TENSOR_CELLS)

    def test_the_twelve_open_cells(self, cells, table):
        keys = [(e["functor"], e["rank"], e["hopf"], e["degree"]) for e in cells["entries"]]
        assert sorted(keys) == sorted(
            (functor, rank, "tensor", degree)
            for functor in ("H", "Omega")
            for rank, degrees in ((2, (7, 8, 9)), (3, (6, 7, 8)))
            for degree in degrees
        )
        packaged = {(e["functor"], e["rank"], e["hopf"], e["degree"]): e["value"]
                    for e in table["entries"]}
        # the packaged table stops at degree 8; a cell past it is open too
        assert all(packaged.get(key, UNKNOWN) == UNKNOWN for key in keys)
        assert [key for key in keys if key not in packaged] == [
            ("H", 2, "tensor", 9), ("Omega", 2, "tensor", 9)]

    def test_one_row_multiplicity_is_the_sym_one(self, cells, table):
        # a one-row piece (d) only sees one variable, where the tensor
        # and symmetric algebras agree; past the packaged sym cells the
        # rank-2 multiplicity formulas, which are theorems, give it
        sym = {(e["functor"], e["rank"], e["degree"]): e["value"]
               for e in entries_in_scope(table, hopf="sym")}
        formula = {"H": rank2_multiplicity, "Omega": omega2_sym_multiplicity}
        for entry in cells["entries"]:
            degree = entry["degree"]
            key = (entry["functor"], entry["rank"], degree)
            if key in sym:
                assert sym[key] != UNKNOWN
                expected = dict(decomposition_to_pairs(sym[key])).get((degree,), 0)
            else:
                assert entry["rank"] == 2, entry
                expected = formula[entry["functor"]](degree, 0)
            one_row = dict(decomposition_to_pairs(entry["value"])).get((degree,), 0)
            assert one_row == expected, entry

    def test_omega_rank3_degree6_recomputes(self, cells):
        # its down-set comes from HW blocks over odd generators
        report = verify_against(cells, functor="Omega", rank=3, max_degree=6)
        assert report["checked"] == report["matches"] == 1
        assert report["mismatches"] == [] and report["new"] == []
