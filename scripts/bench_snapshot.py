"""Run the benchmark on every workload and write one ``BENCH_*.json`` file.

Run from the repository root:

    python scripts/bench_snapshot.py --out BENCH_N.json

Each workload of ``perfbench/workloads.py`` runs once per seed of
``SEEDS``, for ``BENCHMARK.json``'s ``run_seconds``, through the checkout's
own ``perfbench/run.py --trace 0`` (``perfbench/reference.py``'s
``run_once``), each run in a fresh process, seed after seed with the
workloads in turn inside each seed.  The seeds and the run length are
fixed, so that every BENCH file comes from the same harness.  The file
holds:

  workloads  per workload, the median over the seeds of each end-to-end
             metric, and every run's seed, ``correct``, ``attempted``,
             ``failed`` and raw metric values;
  digests    the six lines of ``scripts/bound_digest.py``, run after the
             workloads;
  commit     ``git rev-parse HEAD`` and the paths ``git status`` lists as
             changed under ``src/``, ``perfbench/`` and ``scripts/``;
  machine    the CPU count, the architecture, and the Python, numpy, scipy
             and HiGHS versions.

A speed-up counts when two such files, one from each commit, show it.  The
script takes about 4 minutes on a two-core x86-64 machine.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the benchmark's own runner, metrics and workloads, read from perfbench
sys.path[:0] = [str(ROOT / "perfbench")]

from reference import run_once  # noqa: E402
from run import END_TO_END, OUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (101, 102, 103)
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run(args: list[str]) -> str:
    return subprocess.run(args, cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def machine() -> dict:
    import numpy
    import scipy
    from scipy.optimize._highspy import _core as highs
    return {"nproc": os.cpu_count(), "arch": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "highs": highs._Highs().version()}


def commit() -> dict:
    changed = run(["git", "status", "--porcelain", "--", "src", "perfbench", "scripts"])
    return {"head": run(["git", "rev-parse", "HEAD"]).strip(),
            "changed": [line[3:] for line in changed.splitlines()]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="BENCH_N.json")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    units = {name: unit for name, unit, _ in END_TO_END}

    runs = {name: [] for name in WORKLOADS}
    for seed in SEEDS:
        for name in WORKLOADS:
            result = run_once(name, seed, SECONDS, 0)
            runs[name].append({"seed": seed, "correct": result["correct"],
                               "attempted": result["attempted"],
                               "failed": result["failed"],
                               "metrics": {m: v["value"] for m, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: {runs[name][-1]['metrics']}", file=sys.stderr)

    workloads = {name: {"median": {m: statistics.median(r["metrics"][m] for r in runs[name])
                                   for m in units},
                        "unit": units, "runs": runs[name]}
                 for name in WORKLOADS}
    digests = run([sys.executable, "scripts/bound_digest.py"]).split("\n")
    snapshot = {"harness": f"perfbench/run.py --trace 0, {SECONDS:g} s a run",
                "seeds": list(SEEDS), "commit": commit(), "machine": machine(),
                "workloads": workloads,
                "digests": [line for line in digests if line]}
    pathlib.Path(args.out).write_text(json.dumps(snapshot, indent=1) + "\n")


if __name__ == "__main__":
    main()
