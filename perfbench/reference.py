"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py --seeds 101-110 --seconds 15

Runs every workload once per seed untraced, one after another, then once
traced with the first seed, and prints Markdown tables: per workload and
end-to-end metric the median, the quartiles and the spread (distance
between the quartiles as a share of the median); then the per-layer
figures of the traced runs.  The raw results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, OUT, PER_LAYER
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    (OUT / name).write_text(json.dumps(result) + "\n")
    if not result["correct"]:
        print(f"{workload} seed {seed}: outputs failed their checks", file=sys.stderr)
    return result


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--workloads", type=lambda t: t.split(","), default=list(WORKLOADS),
                    help="comma-separated; default: all")
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in args.workloads:
        results = [run_once(workload, s, args.seconds, 0) for s in args.seeds]
        for name, unit, _ in END_TO_END:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {workload} | {name} | {unit} | {med:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {(q3 - q1) / med:.3f} |")
        failed = sorted({(r["attempted"], r["failed"]) for r in results})
        print(f"| {workload} | attempted, failed | count | {failed} | | | |")

    traced = {w: run_once(w, args.seeds[0], args.seconds, 1)["metrics"]
              for w in args.workloads}
    print()
    print("| metric | unit | " + " | ".join(traced) + " |")
    print("| --- | --- |" + " --- |" * len(traced))
    for name, unit, *_ in PER_LAYER:
        cells = " | ".join(f"{traced[w][name]['value']:.6g}" for w in traced)
        print(f"| {name} | {unit} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
