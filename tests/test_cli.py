import json
import subprocess
import sys
from pathlib import Path

import pytest

from hopfquotients import cli
from hopfquotients.decompose import _BOUNDS, InconsistentBlockTableError
from hopfquotients.version import engine_version

CMD = [sys.executable, "-m", "hopfquotients"]
# bounds stdout, engine_version removed, at H and Omega ranks 2 and 3,
# degrees 8 and 9, and H rank 3 degree 12
PINNED_BOUNDS = json.loads(
    (Path(__file__).parent / "data" / "bounds-payloads.json").read_text())["payloads"]


def run(*args, **kw):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, **kw
    )


class TestCompute:
    def test_payload(self):
        res = run("compute", "--functor", "H", "--rank", "2", "--hopf", "sym",
                  "--degree", "6")
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["functor"] == "H"
        assert payload["rank"] == 2
        assert payload["hopf"] == "sym"
        assert payload["degree"] == 6
        assert payload["decomposition"] == [{"partition": [5, 1], "mult": 1}]
        assert payload["total_dims"]["2"] == 5
        assert payload["total_dims"]["3"] == 35
        assert len(payload["engine_version"]) == 12

    def test_output_is_canonical_and_repeatable(self):
        args = ("compute", "--functor", "Omega", "--rank", "2", "--hopf", "sym",
                "--degree", "5")
        first = run(*args)
        second = run(*args)
        parallel = run(*args, "--jobs", "2")
        assert first.returncode == second.returncode == parallel.returncode == 0
        assert first.stdout == second.stdout == parallel.stdout
        assert first.stdout.endswith("\n")
        # compact separators, sorted keys
        assert ": " not in first.stdout
        assert first.stdout.index('"decomposition"') < first.stdout.index('"degree"')

    def test_negative_degree(self):
        res = run("compute", "--functor", "H", "--rank", "2", "--hopf", "sym",
                  "--degree", "-3")
        assert res.returncode == 2

    def test_cache_dir_round_trip(self, tmp_path):
        cache = str(tmp_path / "blocks")
        args = ("compute", "--functor", "H", "--rank", "2", "--hopf", "sym",
                "--degree", "4", "--cache-dir", cache)
        cold = run(*args)
        assert cold.returncode == 0
        files = list((tmp_path / "blocks").glob("*.json"))
        assert files
        warm = run(*args)
        assert warm.stdout == cold.stdout

    def test_unusable_cache_dir_exits_two(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        res = run("compute", "--functor", "H", "--rank", "2", "--hopf", "sym",
                  "--degree", "4", "--cache-dir", str(not_a_dir))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error: ")
        assert res.stdout == ""


class TestVerify:
    def test_jobs_do_not_change_the_output(self):
        args = ("verify", "--hopf", "tensor", "--rank", "2", "--max-degree", "5")
        serial = run(*args, "--jobs", "1")
        parallel = run(*args, "--jobs", "2")
        assert serial.returncode == parallel.returncode == 0, parallel.stderr
        assert serial.stdout == parallel.stdout

    def test_worker_error_exits_two(self, tmp_path):
        from hopfquotients.tables import entries_in_scope, load_expected

        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        # a single cell of several HW blocks, so the error is raised in a
        # pool worker
        path = tmp_path / "one-cell.json"
        path.write_text(json.dumps({"entries": [
            e for e in entries_in_scope(load_expected(), functor="H", rank=2, hopf="tensor")
            if e["degree"] == 4]}))
        res = run("verify", "--against", str(path), "--jobs", "2",
                  "--cache-dir", str(not_a_dir))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error: ")
        assert res.stdout == ""

    def test_packaged_table_scope(self):
        res = run("verify", "--rank", "2", "--hopf", "sym", "--max-degree", "5")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["mismatches"] == []
        assert report["checked"] == report["matches"] == 12
        assert report["new"] == []

    def test_mismatching_table_exits_one(self, tmp_path):
        from hopfquotients.tables import load_expected

        table = load_expected()
        for entry in table["entries"]:
            if (entry["functor"], entry["rank"], entry["hopf"], entry["degree"]) == (
                "H", 2, "sym", 4,
            ):
                entry["value"] = {"decomposition": [{"partition": [4], "mult": 1}]}
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(table))
        res = run("verify", "--against", str(path), "--rank", "2", "--hopf", "sym",
                  "--max-degree", "4")
        assert res.returncode == 1
        report = json.loads(res.stdout)
        assert len(report["mismatches"]) == 1

    def test_missing_table_file(self, tmp_path):
        res = run("verify", "--against", str(tmp_path / "nope.json"))
        assert res.returncode == 2

    def test_garbage_table_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        # the second raises RecursionError in json, not ValueError
        for text in ("not json at all {", "[" * 200000):
            path.write_text(text)
            res = run("verify", "--against", str(path))
            assert res.returncode == 2
            assert res.stderr.startswith("cannot read expected table")
            assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "table",
        [
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 4}]},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 4,
                          "value": {"mult": 1}}]},
            {"entries": 5},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": "4",
                          "value": "zero"}]},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 4,
                          "value": "zero", "flags": 5}]},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 4,
                          "value": {"decomposition": [{"partition": ["x"], "mult": 1}]}}]},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 4,
                          "value": {"decomposition": [{"partition": [[4]], "mult": 1}]}}]},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 4,
                          "value": "zero", "flags": [{"partition": [2, 1]}]}]},
            {"entries": [{"functor": "H", "rank": True, "hopf": "sym", "degree": 1,
                          "value": {"decomposition": [{"partition": [1], "mult": True}]}}]},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 2,
                          "value": {"decomposition": [{"partition": [2], "mult": True}]}}]},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 4,
                          "value": {"decomposition": [{"partition": [3, 1], "mult": 0}]}}]},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 2,
                          "value": {"decomposition": [{"partition": [2], "mult": -1}]}}]},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 2,
                          "value": "zero"}] * 2},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 6,
                          "value": {"decomposition": [{"partition": [5, 1], "mult": 7},
                                                      {"partition": [5, 1], "mult": 1}]}}]},
            {"entries": [{"functor": "H", "rank": 2, "hopf": "sym", "degree": 2,
                          "value": "zero", "flags": [{"partition": [2]}] * 2}]},
        ],
        ids=["no-value", "no-decomposition", "entries-int", "degree-str", "flags-int",
             "partition-str", "partition-nested", "flag-other-degree", "rank-bool",
             "mult-bool", "mult-zero", "mult-negative", "cell-twice", "partition-twice",
             "flag-twice"],
    )
    def test_malformed_table_entries(self, tmp_path, table):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(table))
        res = run("verify", "--against", str(path))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stdout == ""


    @pytest.mark.parametrize(
        "cell",
        [
            {"functor": "K", "rank": 2, "hopf": "sym", "degree": 4},
            {"functor": "H", "rank": 2, "hopf": "group", "degree": 4},
            {"functor": "H", "rank": 4, "hopf": "sym", "degree": 4},
            {"functor": "H", "rank": 2, "hopf": "sym", "degree": -1},
        ],
        ids=["functor", "hopf", "rank", "degree"],
    )
    def test_uncomputable_cell_rejected_at_load(self, tmp_path, cell):
        # the cell is outside the --functor scope, so only a check at
        # load time can reject it
        path = tmp_path / "uncomputable.json"
        path.write_text(json.dumps({"entries": [{**cell, "value": "zero"}]}))
        res = run("verify", "--against", str(path), "--functor", "Omega")
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stdout == ""


class TestBounds:
    def test_equalities_exit_zero(self):
        res = run("bounds", "--functor", "Omega", "--rank", "2", "--degree", "6")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["hopf"] == "sym"
        assert {row["relation"] for row in report["rows"]} == {"="}

    def test_strict_bound_still_ok(self):
        res = run("bounds", "--functor", "Omega", "--rank", "3", "--degree", "5")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        relations = {row["relation"] for row in report["rows"]}
        assert ">" in relations
        assert "VIOLATION" not in relations

    @pytest.mark.parametrize("functor, rank", [("H", 2), ("H", 3), ("Omega", 2), ("Omega", 3)])
    def test_degree_zero(self, functor, rank):
        res = run("bounds", "--functor", functor, "--rank", str(rank), "--degree", "0")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["ok"] is True
        assert report["rows"] == [{"partition": [], "computed": 0, "bound": 0, "relation": "="}]

    def test_rank_one_rejected_by_parser(self):
        res = run("bounds", "--functor", "H", "--rank", "1", "--degree", "3")
        assert res.returncode == 2


    def test_violation_exits_one(self, monkeypatch, capsys):
        # a closed formula one above every computed multiplicity
        formula = _BOUNDS[("Omega", 2)]
        monkeypatch.setitem(_BOUNDS, ("Omega", 2), lambda *lam: formula(*lam) + 1)
        code = cli.main(["bounds", "--functor", "Omega", "--rank", "2", "--degree", "6"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False
        assert "VIOLATION" in {row["relation"] for row in report["rows"]}

    @pytest.mark.parametrize("pinned", PINNED_BOUNDS,
                             ids=lambda p: f"{p['functor']}-{p['rank']}-{p['degree']}")
    def test_payload_is_pinned(self, capsys, pinned):
        code = cli.main(["bounds", "--functor", pinned["functor"], "--rank", str(pinned["rank"]),
                         "--degree", str(pinned["degree"])])
        report = json.loads(capsys.readouterr().out)
        assert report.pop("engine_version") == engine_version()
        assert report == pinned
        assert code == (0 if pinned["ok"] else 1)


class TestFailedReconstruction:
    def test_inconsistent_blocks_exit_one(self, monkeypatch, capsys):
        def inconsistent(*a, **k):
            raise InconsistentBlockTableError("reconstruction mismatch")

        monkeypatch.setattr(cli, "decompose", inconsistent)
        code = cli.main(["compute", "--functor", "H", "--rank", "2", "--hopf", "sym",
                         "--degree", "2"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: reconstruction mismatch")
        assert err.count("\n") == 1


class TestUsageErrors:
    def test_no_subcommand(self):
        assert run().returncode == 2

    def test_unknown_subcommand(self):
        assert run("frobnicate").returncode == 2

    def test_missing_required_flag(self):
        res = run("compute", "--functor", "H", "--rank", "2", "--hopf", "sym")
        assert res.returncode == 2

    def test_bad_choice(self):
        res = run("compute", "--functor", "X", "--rank", "2", "--hopf", "sym",
                  "--degree", "4")
        assert res.returncode == 2

    @pytest.mark.parametrize("degree", ["-1", "-7"])
    def test_verify_max_degree_below_zero(self, degree):
        res = run("verify", "--max-degree", degree)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "--max-degree" in res.stderr

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, jobs):
        res = run("compute", "--functor", "H", "--rank", "2", "--hopf", "sym",
                  "--degree", "4", "--jobs", jobs)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "--jobs" in res.stderr
