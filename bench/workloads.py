"""Workloads of the knotslope benchmark: inputs, passes and the correctness gate.

Every op runs the real command line in process, through
knotslope.cli.main(argv), one op at a time (a closed loop with one client
and --jobs 1).  Before each CLI invocation the package's functools caches
are emptied, so every invocation starts as a fresh `knotslope` process
would.

The seed picks inputs from fixed pools of like-cost members.  The jones
tuples of one pool differ only in r, which shifts framing exponents but
leaves every multiply the same size (identical Σ len·len at N = 8); the
grids differ only in their r range in the same way.  Seed 0 gives
(-3,2,3,-3), (-3,6,5,-3) and the README grid.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

JONES_N = 8
QUADRATIC_POOL = [(-3, 2, 3, -3), (-5, 2, 3, -3), (-7, 2, 3, -3), (-9, 2, 3, -3)]
LINEAR_POOL = [(-3, 6, 5, -3), (-3, 4, 5, -3)]

VERIFY_N_MAX = 6
GRID_POOL = [
    f"r={lo}..{lo + 2};s=2..4;t=3..5;u=-3..-1" for lo in (-5, -7, -9, -11)
]

# Fresh interpreters timed per import measurement; their median is reported.
IMPORT_SAMPLES = 5
# Passes of the traced phase on verify-warm (one pass is about 0.3-0.5 s).
WARM_TRACE_PASSES = 20


def jones_key(params, N):
    return ",".join(str(x) for x in params) + f" N={N}"


def verify_key(grid, n_max):
    return f"{grid} n_max={n_max}"


def jones_argv(params, N):
    r, s, t, u = params
    return ["jones", "-r", str(r), "-s", str(s), "-t", str(t), "-u", str(u),
            "-N", str(N), "--format", "json"]


def verify_argv(grid, n_max, out_dir, cache, jobs=1):
    """verify writing out_dir/report.json and out_dir/summary.csv."""
    return ["verify", "--grid", grid, "--n-max", str(n_max),
            "--out", str(Path(out_dir) / "report.json"),
            "--csv", str(Path(out_dir) / "summary.csv"),
            "--cache", str(cache), "--jobs", str(jobs)]


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def reset_caches(counts=None):
    """Empty every functools cache of the package, first adding its stats to counts."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if name != "knotslope" and not name.startswith("knotslope."):
            continue
        for attr, fn in vars(module).items():
            if id(fn) in seen or not hasattr(fn, "cache_info") or not hasattr(fn, "cache_clear"):
                continue
            seen.add(id(fn))
            if counts is not None:
                info = fn.cache_info()
                counts[f"{name}.{attr}.hits"] += info.hits
                counts[f"{name}.{attr}.misses"] += info.misses
            fn.cache_clear()


def run_cli(argv, counts=None):
    """One CLI invocation in process: (exit code, stdout, stderr)."""
    from knotslope import cli

    reset_caches(counts)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds():
    """Median wall time of a fresh interpreter importing the CLI.

    No timeout: waiting with one polls in steps of up to 50 ms, which
    would round these 0.1-0.3 s times.
    """
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import knotslope.cli"], cwd=ROOT,
                       env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def mismatched_tuples(report_text):
    """Tuples of a verify report with any identity flag False."""
    docs = json.loads(report_text)
    return sum(1 for doc in docs if any(v is False for v in doc["flags"].values()))


class JonesWorkload:
    """`knotslope jones -N 8 --format json`, one tuple per degree case."""

    op_span = tracing.ROOT_SPAN
    trace_passes = 1
    read_root = None

    def __init__(self, tuples, N, expected):
        self.tuples, self.N = list(tuples), N
        self.expected = {t: expected[jones_key(t, N)] for t in self.tuples}
        self.ops_per_pass = len(self.tuples)
        self.errors = []
        self._results = []

    def describe(self):
        return {"tuples": [list(t) for t in self.tuples], "N": self.N}

    def setup(self):
        return import_seconds()

    def run_pass(self, tracer):
        self._results = []
        for params in self.tuples:
            rc, out, err = run_cli(jones_argv(params, self.N), tracer.counts)
            self._results.append((params, rc, out, err))

    def finish_pass(self, tracer):
        """Check the pass just run; returns the number of failed ops."""
        failed = 0
        for params, rc, out, err in self._results:
            if rc != 0 or sha256(out) != self.expected[params]:
                failed += 1
                self.errors.append(
                    f"jones {params}: exit {rc}, digest {sha256(out)[:12]} != reference "
                    f"{self.expected[params][:12]} {err.strip()[:200]}")
        return failed


class VerifyWorkload:
    """`knotslope verify` on one grid; the cache is fresh (cold) or pre-filled (warm)."""

    op_span = tracing.TUPLE_SPAN

    def __init__(self, grid, n_max, expected, work, warm):
        self.grid, self.n_max, self.work, self.warm = grid, n_max, Path(work), warm
        self.expected = expected[verify_key(grid, n_max)]
        self.ops_per_pass = self.expected["tuples"]
        self.trace_passes = WARM_TRACE_PASSES if warm else 1
        self.read_root = self.work / "cache"
        self.cache = self.read_root / "warm"
        self.passes = 0
        self.errors = []
        self.fill_report = None

    def describe(self):
        return {"grid": self.grid, "n_max": self.n_max}

    def _check(self, rc, out_dir, label):
        """Error text for a failed verify invocation, or None."""
        if rc != 0:
            return f"{label}: exit {rc}"
        if not (out_dir / "report.json").exists():
            return f"{label}: no report written"
        text = (out_dir / "report.json").read_bytes()
        bad = mismatched_tuples(text)
        if bad:
            return f"{label}: {bad} mismatched tuples"
        if sha256(text) != self.expected["report"]:
            return f"{label}: report digest {sha256(text)[:12]} differs from the reference"
        if sha256((out_dir / "summary.csv").read_bytes()) != self.expected["csv"]:
            return f"{label}: CSV digest differs from the reference"
        if self.fill_report is not None and text != self.fill_report:
            return f"{label}: warm report bytes differ from the cold fill"
        return None

    def setup(self):
        """Import time; on the warm workload, plus one cold fill of the cache.

        The fill runs in a fresh interpreter, so it does not raise the peak
        memory of the process that measures the warm passes.  It is the
        same verify with --jobs 2, which halves the run's set-up on two
        cores and checks that the report bytes do not depend on --jobs.
        """
        seconds = import_seconds()
        if not self.warm:
            return seconds
        out_dir = self.work / "fill"
        out_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        argv = verify_argv(self.grid, self.n_max, out_dir, self.cache, jobs=2)
        proc = subprocess.run([sys.executable, "-m", "knotslope.cli", *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=170)
        seconds += time.perf_counter() - t0
        error = self._check(proc.returncode, out_dir, "cache fill")
        if error is not None:
            raise RuntimeError(f"{error}\n{proc.stderr[-2000:]}")
        self.fill_report = (out_dir / "report.json").read_bytes()
        return seconds

    def run_pass(self, tracer):
        self.passes += 1
        self._out_dir = self.work / f"out{self.passes}"
        self._out_dir.mkdir(parents=True)
        self._cache = self.cache if self.warm else self.read_root / f"cold{self.passes}"
        self._before = dict(tracer.counts)
        self._rc, _, self._err = run_cli(
            verify_argv(self.grid, self.n_max, self._out_dir, self._cache), tracer.counts)

    def finish_pass(self, tracer):
        """Check the pass just run, record its output sizes and drop its files.

        Returns the number of failed ops: every tuple of a failed pass.
        """
        counts = tracer.counts
        error = self._check(self._rc, self._out_dir, f"pass {self.passes}")
        if error is None and self.warm:
            loaded, none = (counts[k] - self._before.get(k, 0)
                            for k in ("pipeline.cache.loaded", "pipeline.cache.none"))
            if none or not loaded:
                error = (f"pass {self.passes}: {none} cache misses or discards and "
                         f"{loaded} loads on a warm cache")
        report = self._out_dir / "report.json"
        if report.exists():
            counts["pipeline.report.bytes"] += report.stat().st_size
        if not self.warm:
            counts["pipeline.cache.bytes_written"] += dir_bytes(self._cache)
            shutil.rmtree(self._cache)
        shutil.rmtree(self._out_dir)
        if error is not None:
            self.errors.append(f"{error} {self._err.strip()[:200]}")
            return self.ops_per_pass
        return 0


def make_workload(name, seed, work):
    """The workload called name, with the inputs seed picks."""
    reference = json.loads(REFERENCE.read_text())
    if name == "jones-high":
        tuples = [QUADRATIC_POOL[seed % len(QUADRATIC_POOL)],
                  LINEAR_POOL[seed % len(LINEAR_POOL)]]
        return JonesWorkload(tuples, JONES_N, reference["jones"])
    if name in ("verify-cold", "verify-warm"):
        grid = GRID_POOL[seed % len(GRID_POOL)]
        return VerifyWorkload(grid, VERIFY_N_MAX, reference["verify"], work,
                              warm=name == "verify-warm")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("jones-high", "verify-cold", "verify-warm")
