"""Decomposition benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from its src/.
The workloads are defined in workloads.py and described, with every
metric, in BENCHMARK.json and perfbench/baseline.json.

A run first starts several fresh interpreters that only import the
package, load the expected table and compute engine_version(); the
median of their times is `setup_s`.  After one checked but untimed
warm-up session it runs sessions of the workload one after another (a
closed loop, one caller), each in a fresh interpreter, as many as fit
in S seconds; at least one session runs.
With --trace 1 the sessions alternate between untraced and traced ones,
and the per-layer metrics come from the traced sessions.  Every output
is checked against src/hopfquotients/data/paper-tables.json, and on
sym-sweep the warm CLI pass must print, byte for byte, the cold report.

The host is a share of a machine whose speed drifts by 40% and more over
minutes.  The end-to-end times are therefore given at a fixed host
speed: each session's times (and the set-up probes') are scaled by the
time of a frozen reference kernel (reference.py) measured right before
and right after them, so a run on a slow minute reads as one on a fast
minute.  Per-layer times stay raw; host.reference_s and
host.raw_wall_s give the host speed and the unscaled wall time.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics (end-to-end with --trace 0, per-layer with --trace 1),
each the median over the run's sessions.  The seed changes no cell; it
only sets PYTHONHASHSEED for the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TABLE = SRC / "hopfquotients" / "data" / "paper-tables.json"
WORK = ROOT / ".perfbench"
TRACE_DIR = WORK / "last-trace"

SETUP_PROBES = 11
# the host slows down in bursts of about a second; spacing the probes
# keeps one burst from setting a run's setup_s
PROBE_GAP_S = 0.25
# every run must end well inside the 180 s a run is allowed
DEADLINE_S = 165
# Times are reported at a fixed host speed: the speed at which the
# reference kernel (reference.py) takes REFERENCE_S.  Each session's
# times are scaled by REFERENCE_S over the kernel's time measured right
# before and right after it, REFERENCE_REPS times in each process.
REFERENCE_S = 0.100
REFERENCE_REPS = 2

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def canonical(payload) -> str:
    """The CLI's stdout encoding: sorted keys, compact separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def expected_pairs(table: dict) -> dict:
    """Cell -> decomposition as [[partition, mult], ...] in descending
    order; None for a cell the table does not know.  Parsed here, not
    through the package, so the check does not rest on the code it
    checks."""
    out = {}
    for entry in table["entries"]:
        cell = (entry["functor"], entry["rank"], entry["hopf"], entry["degree"])
        value = entry["value"]
        if value == "zero":
            out[cell] = []
        elif value == "unknown":
            out[cell] = None
        else:
            pairs = sorted(((item["partition"], item["mult"]) for item in value["decomposition"]),
                           reverse=True)
            out[cell] = [[list(p), m] for p, m in pairs]
    return out


class Runner:
    def __init__(self, args):
        self.workload = WORKLOADS[args.workload]
        self.name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.start = time.monotonic()
        self.run_dir = WORK / f"run-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.run_dir),
                        PYTHONHASHSEED=str(args.seed % 2**32))
        self.expected = expected_pairs(json.loads(TABLE.read_text()))
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.untraced: list = []
        self.traced: list = []
        self.warm_s: list = []
        self.digests: set = set()
        self.host_s: list = []

    def host(self, processes: int) -> float:
        """The reference kernel's time now: how fast the host runs.  The
        kernel runs in `processes` processes at once, as many as the code
        being timed uses, so that a pool workload also sees whether its
        second core is free; their times are combined as speeds (the
        harmonic mean), as a pool hands more blocks to the faster worker."""
        cmd = [sys.executable, str(HERE / "reference.py"), str(REFERENCE_REPS)]
        procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
                 for _ in range(processes)]
        times = []
        try:
            for proc in procs:
                out, _ = proc.communicate(timeout=60)
                if proc.returncode != 0:
                    raise RuntimeError("the reference kernel failed")
                times.extend(float(line) for line in out.split())
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        self.host_s.extend(times)
        return statistics.harmonic_mean(times)

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def _run(self, cmd, **kwargs):
        """Run a child in its own process group; on timeout kill the
        group, pool workers included, and wait for it."""
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, start_new_session=True, **kwargs)
        try:
            out, _ = proc.communicate(timeout=max(self.time_left(), 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return proc.returncode, out

    def setup_s(self) -> float:
        times = []
        for i in range(SETUP_PROBES):
            if i:
                time.sleep(PROBE_GAP_S)
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "session.py"), "--probe"],
                                    cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.close()
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if line.strip() != "ready" or proc.returncode != 0:
                raise RuntimeError("set-up probe failed: the package does not import")
            times.append(elapsed)
        return statistics.median(times)

    def session(self, index: int, traced: bool) -> dict | None:
        """One session in a fresh interpreter, checked; its result, or
        None if it gave none."""
        sdir = self.run_dir / f"session-{index}"
        sdir.mkdir(parents=True)
        out = sdir / "result.json"
        cmd = [sys.executable, str(HERE / "session.py"), "--workload", self.name, "--out", str(out)]
        cache = sdir / "cache"
        if self.workload.disk_cache:
            cmd += ["--cache-dir", str(cache)]
        run_id = f"{self.name}-seed{self.seed}-s{index}"
        if traced:
            cmd += ["--trace-dir", str(TRACE_DIR), "--run-id", run_id]
        outputs = len(self.workload.cells) + bool(self.workload.repeat) + self.workload.disk_cache
        try:
            try:
                code, _ = self._run(cmd)
            except subprocess.TimeoutExpired:
                code = "a timeout"
            if code != 0 or not out.exists():
                self._fail(outputs, f"{run_id} ended with {code} and no result")
                return None
            result = json.loads(out.read_text())
            self._check_cells(result)
            if self.workload.disk_cache:
                self._warm_pass(cache, result, run_id if traced else None)
        finally:
            shutil.rmtree(sdir, ignore_errors=True)
        return result

    def _fail(self, count: int, message: str) -> None:
        self.attempted += count
        self.failed += count
        self.failures.append(message)

    def _check_cells(self, result) -> None:
        """A cell fails if it raised, is not one of the workload's
        cells, was never decomposed, or differs from the table."""
        wanted = list(self.workload.cells) + ([self.workload.repeat] if self.workload.repeat else [])
        for record in result["cells"]:
            cell = tuple(record["cell"])
            if cell not in wanted:
                self._fail(1, f"{cell} is not a cell of {self.name}")
                continue
            wanted.remove(cell)
            if record["error"] is not None:
                self._fail(1, f"{cell} raised {record['error']}")
            elif self.expected.get(cell) is None or record["entries"] != self.expected[cell]:
                self._fail(1, f"{cell} differs from the table: {record['entries']}")
            else:
                self.attempted += 1
        if wanted:
            self._fail(len(wanted), f"never decomposed: {wanted}")
        cells = sorted([r["cell"], r["entries"]] for r in result["cells"])
        self.digests.add(hashlib.sha256(json.dumps(cells).encode()).hexdigest()[:16])

    def _warm_pass(self, cache: Path, result: dict, run_id: str | None) -> None:
        """`hopfquotients verify` in a fresh process on the cache the cold
        pass filled.  Untraced passes give cli.warm_verify_s; in a traced
        session the pass runs under the tracer and adds its cache hits."""
        args = [*self.workload.cli_args(), "--cache-dir", str(cache)]
        if run_id is None:
            cmd = [sys.executable, "-m", "hopfquotients", *args]
        else:
            layers_out = cache.parent / "warm-layers.json"
            cmd = [sys.executable, str(HERE / "session.py"), "--out", str(layers_out),
                   "--trace-dir", str(TRACE_DIR), "--run-id", f"{run_id}-warm", "--cli", *args]
        t0 = time.perf_counter()
        try:
            code, stdout = self._run(cmd, stdout=subprocess.PIPE)
        except subprocess.TimeoutExpired:
            self._fail(1, "warm CLI pass timed out")
            return
        if run_id is None:
            self.warm_s.append(time.perf_counter() - t0)
        elif layers_out.exists():
            warm = json.loads(layers_out.read_text())["layers"]
            for name in ("presentations.mem_hits", "presentations.disk_hits"):
                result["layers"][name] += warm[name]
        if code != 0 or stdout != canonical(result["reports"][0]).encode():
            self._fail(1, f"warm CLI pass (exit {code}) differs from the cold report")
        else:
            self.attempted += 1

    def run(self) -> dict:
        if self.trace:
            shutil.rmtree(TRACE_DIR, ignore_errors=True)
            TRACE_DIR.mkdir(parents=True)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        try:
            before = self.host(1)
            setup_s = self.setup_s() * REFERENCE_S / statistics.mean([before, self.host(1)])
            # one checked but untimed session first: it fills the page
            # cache and src/__pycache__, which every later session reads
            self.session(0, traced=False)
            t0 = time.monotonic()
            index = 1
            longest = 0.0
            before = self.host(self.workload.jobs)
            while True:
                started = time.monotonic()
                traced = bool(self.trace) and index % 2 == 0
                result = self.session(index, traced)
                after = self.host(self.workload.jobs)
                if result is not None:
                    result["host_s"] = statistics.mean([before, after])
                    (self.traced if traced else self.untraced).append(result)
                before = after
                longest = max(longest, time.monotonic() - started)
                index += 1
                # start another session only if it should end within S
                # seconds; a traced run needs an untraced and a traced one
                fits = time.monotonic() - t0 + longest <= self.seconds
                if self.time_left() < 1.2 * longest or not (fits or (self.trace and index < 3)):
                    break
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        return self._metrics(setup_s)

    def _metrics(self, setup_s: float) -> dict:
        def median(values):
            if not values:
                return 0.0
            if all(isinstance(v, int) for v in values):
                return statistics.median_low(values)  # a count stays a whole number
            return statistics.median(values)

        def scaled(result, seconds):
            return seconds * REFERENCE_S / result["host_s"]

        if not self.trace:
            return {
                "setup_s": setup_s,
                "wall_s": median([scaled(r, r["wall_s"]) for r in self.untraced]),
                "max_cell_s": median([scaled(r, max(c["seconds"] for c in r["cells"]))
                                      for r in self.untraced]),
                "cpu_s": median([scaled(r, r["cpu_s"]) for r in self.untraced]),
                "peak_rss_mb": median([r["peak_rss_mb"] for r in self.untraced]),
            }
        # per-layer times are raw seconds; host.reference_s says how fast
        # the host ran while they were taken
        layers = {name: median([r["layers"][name] for r in self.traced])
                  for name in (self.traced[0]["layers"] if self.traced else {})}
        layers["cli.warm_verify_s"] = median(self.warm_s)
        layers["host.reference_s"] = median(self.host_s)
        layers["host.raw_wall_s"] = median([r["wall_s"] for r in self.untraced])
        if self.traced and self.untraced:
            layers["trace.overhead_s"] = layers["trace.wall_s"] - median([r["wall_s"] for r in self.untraced])
        return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hopfquotients" / "__init__.py").is_file() or not TABLE.is_file():
        print(f"no package to benchmark under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(args)
    measured = runner.run()
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing and not runner.failed:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    failed = runner.failed
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} sessions={len(runner.untraced)} untraced, "
          f"{len(runner.traced)} traced; setup probes={SETUP_PROBES}; "
          f"reference kernel median {statistics.median(runner.host_s):.4f} s; "
          f"decomposition digest {sorted(runner.digests)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and runner.attempted > 0,
        "attempted": max(runner.attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
