"""Write bench/reference.json: SHA-256 digests of every pool input's output.

    python3 bench/make_reference.py

The digests are the correctness gate of every benchmark op, so generate
them from a commit whose outputs are trusted and regenerate them only when
an output is meant to change.  It runs every pool input once (several
minutes).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def main():
    reference = {"jones": {}, "verify": {}}
    for params in workloads.QUADRATIC_POOL + workloads.LINEAR_POOL:
        N = workloads.JONES_N
        rc, out, err = workloads.run_cli(workloads.jones_argv(params, N))
        if rc != 0:
            raise SystemExit(f"jones {params} exited {rc}: {err}")
        reference["jones"][workloads.jones_key(params, N)] = workloads.sha256(out)
        print(params, "done", flush=True)
    for grid in workloads.GRID_POOL:
        (workloads.ROOT / ".bench_work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=workloads.ROOT / ".bench_work"))
        try:
            n_max = workloads.VERIFY_N_MAX
            rc, _, err = workloads.run_cli(
                workloads.verify_argv(grid, n_max, work, work / "cache"))
            report = (work / "report.json").read_bytes()
            if rc != 0 or workloads.mismatched_tuples(report):
                raise SystemExit(f"verify {grid} exited {rc}: {err}")
            reference["verify"][workloads.verify_key(grid, n_max)] = {
                "tuples": len(json.loads(report)),
                "report": workloads.sha256(report),
                "csv": workloads.sha256((work / "summary.csv").read_bytes()),
            }
        finally:
            shutil.rmtree(work)
        print(grid, "done", flush=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
