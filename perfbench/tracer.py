"""Outside-in tracer: spans around the calls into each module's public
functions, recorded without changing the package.

Every name is wrapped where it is looked up.  The package imports with
`from ... import`, so wrapping e.g. `exactla.rank_sparse` is enough for
`SparseMatrix.rank`, while `presentations.apply_expr` must be wrapped in
`presentations`, not in `tensorspace`.  A span is
(id, parent, name, start, end, info); ids carry the pid in their high
bits, so spans from forked pool workers never collide with the parent's.

Spans stay in memory.  The session process writes its spans out at the
end of the run.  Pool workers inherit the wrappers through fork but exit
without running `atexit`, so each worker appends its spans to its own
file after every task, i.e. whenever it is back at the stack depth it
was forked at.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path

# (module, attribute looked up there, span name)
WRAP_SITES = (
    ("hopfquotients.cli", "verify_against", "tables.verify_against"),
    ("hopfquotients.tables", "verify_against", "tables.verify_against"),
    ("hopfquotients.tables", "decompose", "decompose.decompose"),
    ("hopfquotients.decompose", "decompose", "decompose.decompose"),
    ("hopfquotients.decompose", "block_result", "presentations.block_result"),
    ("hopfquotients.decompose", "kostka", "combinatorics.kostka"),
    ("hopfquotients.presentations", "compute_block", "presentations.compute_block"),
    ("hopfquotients.presentations", "relation_rows", "presentations.relation_rows"),
    ("hopfquotients.presentations", "apply_expr", "tensorspace.apply_expr"),
    ("hopfquotients.presentations", "bar_relation_rows", "tensorspace.bar_relation_rows"),
    ("hopfquotients.exactla", "rank_sparse", "exactla.rank_sparse"),
)

POOL_SPAN = "decompose.pool"


def _block_key(spec, weight, reverse=False):
    return f"{spec.key()}|{','.join(map(str, weight))}|{'rl' if reverse else 'lr'}"


def _info_compute_block(args, kwargs, result):
    return {"key": _block_key(*args, **kwargs), "cols": result.ambient_dim, "rank": result.rank}


def _info_relation_rows(args, kwargs, result):
    return {"rows": len(result[1])}


def _info_rank_sparse(args, kwargs, result):
    rows = args[0]
    return {"rows": len(rows), "nnz": sum(len(r) for r in rows), "rank": result}


_INFO = {
    "presentations.compute_block": _info_compute_block,
    "presentations.relation_rows": _info_relation_rows,
    "exactla.rank_sparse": _info_rank_sparse,
}


class Tracer:
    def __init__(self, run_id: str, trace_dir: Path):
        self.run_id = run_id
        self.trace_dir = trace_dir
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.spans: list = []
        self.stack: list = []
        self.root_depth = 0
        self.counter = 0
        # block keys this process has already seen through block_result;
        # a fork inherits them together with the package's memory cache
        self.seen_blocks: set = set()

    # -- recording ---------------------------------------------------

    def _new_id(self) -> int:
        self.counter += 1
        return (self.pid << 32) | self.counter

    def _open(self):
        sid = self._new_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, info):
        self.stack.pop()
        self.spans.append((sid, parent, name, start, end, info))
        if self.pid != self.owner_pid and len(self.stack) == self.root_depth:
            self.flush()

    def _wrap(self, fn, name):
        info_fn = _INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                info = info_fn(args, kwargs, result) if info_fn and result is not None else None
                self._close(sid, parent, name, start, end, info)

        traced.__wrapped__ = fn
        return traced

    def _wrap_block_result(self, fn):
        clock = time.perf_counter

        def traced(spec, weight, *args, **kwargs):
            key = _block_key(spec, weight, kwargs.get("reverse", False))
            before = len(self.spans)
            sid, parent = self._open()
            start = clock()
            info = None
            try:
                result = fn(spec, weight, *args, **kwargs)
                # children close before their parent, so a compute_block
                # run by this call is the last span recorded
                if len(self.spans) > before and self.spans[-1][2] == "presentations.compute_block":
                    outcome = "computed"
                elif kwargs.get("cache_dir") and key not in self.seen_blocks:
                    outcome = "disk"
                else:
                    outcome = "mem"
                info = {"key": key, "outcome": outcome}
                self.seen_blocks.add(key)
                return result
            finally:
                self._close(sid, parent, "presentations.block_result", start, clock(), info)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every name in WRAP_SITES, and the process pool that
        decompose starts.  A name the package no longer has is reported
        on stderr and left out; its layer then reads zero."""
        for module_name, attr, name in WRAP_SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"tracer: {module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            if name == "presentations.block_result":
                wrapped = self._wrap_block_result(fn)
            else:
                wrapped = self._wrap(fn, name)
            setattr(module, attr, wrapped)
        decompose_module = sys.modules["hopfquotients.decompose"]
        if hasattr(decompose_module, "multiprocessing"):
            decompose_module.multiprocessing = _MultiprocessingShim(self, decompose_module.multiprocessing)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans.clear()
        self.counter = 0
        self.root_depth = len(self.stack)

    # -- output --------------------------------------------------------

    def _path(self) -> Path:
        return self.trace_dir / f"{self.run_id}-{self.pid}.jsonl"

    def flush(self) -> None:
        if not self.spans:
            return
        lines = [
            json.dumps([self.run_id, self.pid, sid, parent, name, start, end, info])
            for sid, parent, name, start, end, info in self.spans
        ]
        with open(self._path(), "a") as fh:
            fh.write("\n".join(lines) + "\n")
        self.spans.clear()


class _TracedPool:
    def __init__(self, tracer, pool, sid, parent, start, processes):
        self.tracer = tracer
        self.pool = pool
        self.sid = sid
        self.parent = parent
        self.start = start
        self.processes = processes

    def __enter__(self):
        return self.pool.__enter__()

    def __exit__(self, *exc):
        try:
            return self.pool.__exit__(*exc)
        finally:
            self.tracer._close(self.sid, self.parent, POOL_SPAN, self.start,
                               time.perf_counter(), {"processes": self.processes})


class _MultiprocessingShim:
    """Stands in for the `multiprocessing` module inside decompose, so
    the pool's lifetime becomes a span.  The span is opened before the
    workers fork, so it is on their inherited stack and becomes the
    parent of their spans."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)

    def Pool(self, processes=None, *args, **kwargs):
        sid, parent = self._tracer._open()
        start = time.perf_counter()
        pool = self._module.Pool(processes, *args, **kwargs)
        return _TracedPool(self._tracer, pool, sid, parent, start, processes or os.cpu_count())


# -- aggregation -------------------------------------------------------

def load_spans(trace_dir: Path, run_id: str) -> list:
    spans = []
    for path in sorted(trace_dir.glob(f"{run_id}-*.jsonl")):
        if path.stem.rsplit("-", 1)[0] != run_id:
            continue
        with open(path) as fh:
            for line in fh:
                _, pid, sid, parent, name, start, end, info = json.loads(line)
                spans.append((pid, sid, parent, name, start, end, info))
    return spans


def _sum_by(spans, name, field):
    return sum(s[field] for s in spans if s[3] == name)


def layer_metrics(spans: list, owner_pid: int, wall_s: float) -> dict:
    """Per-layer metrics from the spans of one session.

    Self time is a span's duration minus the durations of its children
    in the same process; a worker's spans are never subtracted from the
    parent's pool span, which therefore counts as pool wall time.  Self
    times of the session process add up to the traced wall time, up to
    `trace.unattributed_s`.
    """
    covered: dict = {}
    for pid, sid, parent, name, start, end, info in spans:
        if parent is not None and parent >> 32 == pid:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    self_by_name: dict = {}
    calls: dict = {}
    owner_self = 0.0
    for pid, sid, parent, name, start, end, info in spans:
        own = (end - start) - covered.get(sid, 0.0)
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if pid == owner_pid:
            owner_self += own

    def self_s(name):
        return self_by_name.get(name, 0.0)

    ranks = [s for s in spans if s[3] == "exactla.rank_sparse"]
    rows_in = sum(s[6]["rows"] for s in ranks)
    rank_sum = sum(s[6]["rank"] for s in ranks)
    rows_generated = sum(s[6]["rows"] for s in spans if s[3] == "presentations.relation_rows")

    blocks = sorted((s for s in spans if s[3] == "presentations.compute_block"), key=lambda s: s[4])
    seen: set = set()
    recomputed = 0
    for s in blocks:
        key = s[6]["key"]
        recomputed += key in seen
        seen.add(key)
    outcomes = [s[6]["outcome"] for s in spans if s[3] == "presentations.block_result" and s[6]]

    pools = [s for s in spans if s[3] == POOL_SPAN]
    pool_wall = sum(s[5] - s[4] for s in pools)
    pool_capacity = sum((s[5] - s[4]) * s[6]["processes"] for s in pools)
    worker_busy = sum(s[5] - s[4] for s in spans
                      if s[0] != owner_pid and s[3] == "presentations.block_result")

    return {
        "exactla.rank_s": self_s("exactla.rank_sparse"),
        "exactla.rank_calls": calls.get("exactla.rank_sparse", 0),
        "exactla.max_rank_s": max((s[5] - s[4] for s in ranks), default=0.0),
        "exactla.max_block_cols": max((s[6]["cols"] for s in blocks), default=0),
        "exactla.rows_in": rows_in,
        "exactla.nnz_in": sum(s[6]["nnz"] for s in ranks),
        "exactla.useful_row_ratio": rank_sum / rows_in if rows_in else 0.0,
        "exactla.dedup_ratio": rows_in / rows_generated if rows_generated else 0.0,
        "tensorspace.apply_expr_s": self_s("tensorspace.apply_expr"),
        "tensorspace.apply_expr_calls": calls.get("tensorspace.apply_expr", 0),
        "tensorspace.bar_rows_s": self_s("tensorspace.bar_relation_rows"),
        "presentations.relation_rows_s": self_s("presentations.relation_rows"),
        "presentations.rows_generated": rows_generated,
        "presentations.pack_s": self_s("presentations.compute_block"),
        "presentations.cache_io_s": self_s("presentations.block_result"),
        "presentations.block_calls": calls.get("presentations.block_result", 0),
        "presentations.mem_hits": outcomes.count("mem"),
        "presentations.disk_hits": outcomes.count("disk"),
        "presentations.blocks_computed": len(blocks),
        "presentations.blocks_recomputed": recomputed,
        "decompose.self_s": self_s("decompose.decompose"),
        "decompose.pool_starts": len(pools),
        "decompose.pool_wall_s": pool_wall,
        "decompose.worker_busy_s": worker_busy,
        "decompose.pool_efficiency": worker_busy / pool_capacity if pool_capacity else 0.0,
        "combinatorics.kostka_s": self_s("combinatorics.kostka"),
        "tables.verify_self_s": self_s("tables.verify_against"),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - owner_self,
    }
