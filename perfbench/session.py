"""One benchmark session in a fresh interpreter, so that every LRU cache
and the package's in-memory block cache start empty.

    python3 perfbench/session.py --probe
        import the package, load the expected table, compute
        engine_version(), print "ready" and exit (the set-up probe)

    python3 perfbench/session.py --workload NAME --out FILE
            [--cache-dir DIR] [--trace-dir DIR --run-id ID]
        run the workload's cells as a user of the library would and
        write what they returned, and how long they took, to FILE

    python3 perfbench/session.py --out FILE --trace-dir DIR --run-id ID
            --cli ARGS...
        run `hopfquotients ARGS...` under the tracer; its stdout is the
        CLI's own, and FILE receives the per-layer metrics

The package must be importable (run.py puts the checkout's src/ on
PYTHONPATH).  With --trace-dir the calls into each module are traced
and the session's per-layer metrics are written as well.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers reaped pool workers
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / 1024


class CellRecorder:
    """Wraps `decompose` to time each cell and keep its output.  A cell
    that raises is recorded as failed and answered with an empty
    decomposition, so the remaining cells still run."""

    def __init__(self, decomposition_cls):
        self.decomposition_cls = decomposition_cls
        self.cells: list = []

    def wrap(self, fn):
        def recorded(spec, degree, *args, **kwargs):
            cell = [spec.functor, spec.rank, spec.hopf.kind, degree]
            start = time.perf_counter()
            try:
                dec = fn(spec, degree, *args, **kwargs)
            except Exception as exc:  # a failing cell must not end the session
                self.cells.append({"cell": cell, "seconds": time.perf_counter() - start,
                                   "entries": None, "error": f"{type(exc).__name__}: {exc}"})
                return self.decomposition_cls(spec, degree, {}, {})
            self.cells.append({
                "cell": cell,
                "seconds": time.perf_counter() - start,
                "entries": [[list(lam), mult] for lam, mult in sorted(dec.entries.items(), reverse=True)],
                "error": None,
            })
            return dec

        return recorded


def _trace_result(tracer, wall_s: float) -> dict:
    from tracer import layer_metrics, load_spans

    tracer.flush()
    spans = load_spans(tracer.trace_dir, tracer.run_id)
    return layer_metrics(spans, os.getpid(), wall_s)


def _install_tracer(args):
    from tracer import Tracer

    tracer = Tracer(args.run_id, Path(args.trace_dir))
    tracer.install()
    return tracer


def run_cli(args) -> tuple:
    cli = importlib.import_module("hopfquotients.cli")
    tracer = _install_tracer(args)
    t0 = time.perf_counter()
    code = cli.main(args.cli)
    sys.stdout.flush()
    return code, _trace_result(tracer, time.perf_counter() - t0)


def run_session(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    from hopfquotients.hopf import HopfAlgebra
    from hopfquotients.presentations import FunctorSpec

    tables = importlib.import_module("hopfquotients.tables")
    version = importlib.import_module("hopfquotients.version")
    # import_module returns the module; `import hopfquotients.decompose`
    # would give the function the package re-exports under that name
    decompose_module = importlib.import_module("hopfquotients.decompose")

    start = time.perf_counter()
    table = tables.load_expected()
    load_s = time.perf_counter() - start
    start = time.perf_counter()
    version.engine_version()
    engine_version_s = time.perf_counter() - start

    tracer = _install_tracer(args) if args.trace_dir else None
    recorder = CellRecorder(decompose_module.Decomposition)
    tables.decompose = recorder.wrap(tables.decompose)
    decompose = recorder.wrap(decompose_module.decompose)

    calls = workload.verify_calls()
    if workload.disk_cache:
        for kwargs in calls:
            kwargs["cache_dir"] = args.cache_dir
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    reports = [tables.verify_against(table, **kwargs) for kwargs in calls]
    if workload.repeat:
        functor, rank, hopf, degree = workload.repeat
        decompose(FunctorSpec(functor, rank, HopfAlgebra(hopf, 1)), degree, jobs=workload.jobs)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0

    result = {
        "cells": recorder.cells,
        "reports": reports,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        layers = _trace_result(tracer, wall_s)
        layers["tables.load_s"] = load_s
        layers["version.engine_version_s"] = engine_version_s
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--out")
    parser.add_argument("--cache-dir")
    parser.add_argument("--trace-dir")
    parser.add_argument("--run-id", default="session")
    parser.add_argument("--cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.probe:
        from hopfquotients.tables import load_expected
        from hopfquotients.version import engine_version

        load_expected()
        engine_version()
        print("ready", flush=True)
        return 0
    if args.cli:
        code, layers = run_cli(args)
        Path(args.out).write_text(json.dumps({"layers": layers}))
        return code
    result = run_session(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
