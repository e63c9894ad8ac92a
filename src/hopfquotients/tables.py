"""Expected-value tables and the machinery to diff computed
decompositions against them.

The packaged data file transcribes the two published computation tables
cell by cell; "zero" marks empty cells, "unknown" marks cells printed
as question marks.  Verification recomputes known cells and diffs,
computes unknown cells and reports them as NEW, and treats flagged
partitions inside a cell as report-only.
"""

from __future__ import annotations

import json
from importlib.resources import files

from .combinatorics import is_partition
from .decompose import _pool_misses, cell_blocks, decompose
from .hopf import SYM, TENSOR, HopfAlgebra
from .presentations import H_FUNCTOR, OMEGA_FUNCTOR, FunctorSpec
from .version import engine_version

ZERO = "zero"
UNKNOWN = "unknown"
_CELL_FIELDS = {"functor": str, "rank": int, "hopf": str, "degree": int}


def packaged_table_path():
    return files("hopfquotients").joinpath("data/paper-tables.json")


def load_expected(path=None) -> dict:
    if path is None:
        text = packaged_table_path().read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        table = json.loads(text)
    except RecursionError:
        raise ValueError("expected-table file is nested too deeply to parse") from None
    if not isinstance(table, dict) or not isinstance(table.get("entries"), list):
        raise ValueError("expected-table file has no list of entries")
    for entry in table["entries"]:
        _check_entry(entry)
    cells = [tuple(entry[field] for field in _CELL_FIELDS) for entry in table["entries"]]
    if len(set(cells)) < len(cells):
        raise ValueError("expected table lists a cell twice")
    return table


def _is_list_of(items, **fields) -> bool:
    """Whether items is a list of dicts whose fields have exactly the given
    types (so a bool is no int)."""
    return isinstance(items, list) and all(
        isinstance(item, dict) and all(type(item.get(k)) is t for k, t in fields.items())
        for item in items
    )


def _check_entry(entry) -> None:
    """Raise ValueError unless the entry has the shape verify_against reads."""
    if not _is_list_of([entry], **_CELL_FIELDS):
        raise ValueError("table entry needs a str functor and hopf and an int rank and "
                         f"degree: {entry!r}")
    cell = {field: entry[field] for field in _CELL_FIELDS}
    # checked at load, so a bad cell fails before any other is computed
    if (cell["functor"] not in (H_FUNCTOR, OMEGA_FUNCTOR) or cell["hopf"] not in (SYM, TENSOR)
            or cell["rank"] not in (1, 2, 3) or cell["degree"] < 0):
        raise ValueError(f"table entry {cell} is no cell the engine computes")
    value = entry.get("value")
    if value not in (ZERO, UNKNOWN) and not (
        isinstance(value, dict)
        and _is_list_of(value.get("decomposition"), partition=list, mult=int)
        and all(item["mult"] >= 1 for item in value["decomposition"])
    ):
        raise ValueError(f"table entry {cell} has a malformed value: {value!r}")
    flags = entry.get("flags", [])
    if not _is_list_of(flags, partition=list):
        raise ValueError(f"table entry {cell} has malformed flags")
    # a flagged partition may be in the decomposition, but in neither twice
    for listed in (flags, value["decomposition"] if isinstance(value, dict) else []):
        for item in listed:
            lam = item["partition"]
            if not (all(type(p) is int for p in lam) and is_partition(lam)
                    and sum(lam) == entry["degree"]):
                raise ValueError(f"table entry {cell} lists {lam!r}, which is not a "
                                 f"partition of {entry['degree']}")
        if len({tuple(item["partition"]) for item in listed}) < len(listed):
            raise ValueError(f"table entry {cell} lists a partition twice")


def decomposition_to_pairs(value) -> list:
    """[(partition, mult), ...] in descending lexicographic order."""
    if value == ZERO:
        return []
    pairs = [(tuple(item["partition"]), item["mult"]) for item in value["decomposition"]]
    return sorted(pairs, reverse=True)


def entries_in_scope(table, functor=None, rank=None, hopf=None, max_degree=None):
    for entry in table["entries"]:
        if functor is not None and entry["functor"] != functor:
            continue
        if rank is not None and entry["rank"] != rank:
            continue
        if hopf is not None and entry["hopf"] != hopf:
            continue
        if max_degree is not None and entry["degree"] > max_degree:
            continue
        yield entry


def _pairs_payload(pairs):
    return [{"partition": list(p), "mult": m} for p, m in pairs]


def verify_against(table, functor=None, rank=None, hopf=None, max_degree=None,
                   jobs=1, cache_dir=None) -> dict:
    """Recompute every in-scope entry and diff against the table.

    The blocks of all the cells go to decompose._pool_misses at once,
    which computes the missing ones, the H and the Omega block of one
    space together, before any cell reads them (see its docstring);
    each cell is then decomposed in turn, and the first cell that
    raises ends the run."""
    cells = [(FunctorSpec(entry["functor"], entry["rank"], HopfAlgebra(entry["hopf"], 1)), entry)
             for entry in entries_in_scope(table, functor, rank, hopf, max_degree)]
    # every cell's blocks, so that both functors' blocks of one space
    # meet in one group
    listed = (cell_blocks(spec, entry["degree"]) for spec, entry in cells)
    _pool_misses((b for _, hw, checks in listed for b in (*hw.values(), *checks)), jobs, cache_dir)
    matches = 0
    mismatches = []
    new = []
    flagged = []
    for spec, entry in cells:
        key = {k: entry[k] for k in _CELL_FIELDS}
        dec = decompose(spec, entry["degree"], cache_dir=cache_dir)
        computed = sorted(dec.entries.items(), reverse=True)
        if entry["value"] == UNKNOWN:
            new.append({**key, "computed": _pairs_payload(computed)})
            continue
        expected = decomposition_to_pairs(entry["value"])
        flagged_parts = {tuple(f["partition"]): f.get("note", "")
                         for f in entry.get("flags", [])}
        expected_map = dict(expected)
        diff = []
        for lam in sorted(set(dec.entries) | set(expected_map), reverse=True):
            want = expected_map.get(lam, 0)
            got = dec.entries.get(lam, 0)
            if lam in flagged_parts:
                flagged.append({**key, "partition": list(lam), "computed": got,
                                "note": flagged_parts[lam]})
                continue
            if want != got:
                diff.append({"partition": list(lam), "expected": want, "computed": got})
        if diff:
            mismatches.append({**key,
                               "expected": _pairs_payload(expected),
                               "computed": _pairs_payload(computed),
                               "diff": diff})
        else:
            matches += 1
    return {
        "engine_version": engine_version(),
        "checked": matches + len(mismatches),
        "matches": matches,
        "mismatches": mismatches,
        "new": new,
        "flagged": flagged,
    }
