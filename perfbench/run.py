"""Run one poolkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lp-table --seed 1 --seconds 10 --trace 0

Run it from anywhere in a source checkout: the package is imported from
the checkout's ``src``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  HiGHS
writes to file descriptor 1 from C++, so while the workload runs that
descriptor points at standard error, and only the result is written to the
original standard output.

``--trace 0`` gives the end-to-end metrics (see ``END_TO_END``).  Their
times are reference seconds: wall times scaled by the speed of the machine
at the moment, as ``clock.py`` measures it between operations.
``--trace 1`` gives the per-layer metrics (see ``PER_LAYER``): half of the
run's time goes to untraced rounds and half to rounds under a Tracer, and
the difference between the two is the tracing overhead.  The spans of the
traced rounds are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from clock import Clock
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# name, unit, better; the bounds live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p90", "ms", "lower"),
    ("round_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# name, unit, better, how the value is taken, span or counter name.  Every
# value but the ratio, the overhead, the cell latencies (percentiles of the
# whole run_cell span) and the parse time is per traced round.
PER_LAYER = (
    ("instances.parse_s", "s/setup", "lower", "setup_self", "instances.parse"),
    ("formulations.backbone_s", "s/round", "lower", "self", "formulations.backbone"),
    ("formulations.backbone_calls", "count/round", "lower", "calls", "formulations.backbone"),
    ("rank1.fragment_s", "s/round", "lower", "self", "rank1.fragment"),
    ("relaxations.build_s", "s/round", "lower", "self", "relaxations.build"),
    ("relaxations.build_calls", "count/round", "lower", "calls", "relaxations.build"),
    ("solver.compile_s", "s/round", "lower", "self", "solver.compile"),
    ("solver.compile_calls", "count/round", "lower", "calls", "solver.compile"),
    ("solver.lp_s", "s/round", "lower", "self", "solver.lp"),
    ("solver.lp_solves", "count/round", "lower", "calls", "solver.lp"),
    ("solver.milp_s", "s/round", "lower", "self", "solver.milp"),
    ("solver.milp_solves", "count/round", "lower", "calls", "solver.milp"),
    ("solver.time_limit_solves", "count/round", "lower", "count", "solver.time_limit_solves"),
    ("highs.lp_s", "s/round", "lower", "self", "highs.lp"),
    ("highs.milp_s", "s/round", "lower", "self", "highs.milp"),
    ("highs.mip_nodes", "count/round", "lower", "count", "highs.mip_nodes"),
    ("solver.vars", "count/round", "lower", "count", "solver.vars"),
    ("solver.rows", "count/round", "lower", "count", "solver.rows"),
    ("solver.nnz", "count/round", "lower", "count", "solver.nnz"),
    ("solver.binaries", "count/round", "lower", "count", "solver.binaries"),
    ("tightening.obbt_s", "s/round", "lower", "self", "tightening.obbt"),
    ("tightening.obbt_calls", "count/round", "lower", "calls", "tightening.obbt"),
    ("tightening.recipe_s", "s/round", "lower", "self", "tightening.recipe"),
    ("tightening.recipe_calls", "count/round", "lower", "calls", "tightening.recipe"),
    ("tightening.apply_bounds_s", "s/round", "lower", "self", "tightening.apply_bounds"),
    ("tightening.targets", "count/round", "lower", "count", "tightening.targets"),
    ("tightening.tightened", "count/round", "higher", "count", "tightening.tightened"),
    ("tightening.useful_ratio", "ratio", "higher", "ratio", "tightening"),
    ("bench.exact_value_s", "s/round", "lower", "self", "bench.exact_value"),
    ("bench.exact_value_calls", "count/round", "lower", "calls", "bench.exact_value"),
    ("bench.run_cell_s", "s/round", "lower", "self", "bench.run_cell"),
    ("bench.cell_ms_p50", "ms", "lower", "p50", "bench.run_cell"),
    ("bench.cell_ms_p90", "ms", "lower", "p90", "bench.run_cell"),
    ("bench.csv_s", "s/round", "lower", "self", "bench.csv"),
    ("rank1.sample_s", "s/round", "lower", "self", "rank1.sample"),
    ("rank1.cut_gen_s", "s/round", "lower", "self", "rank1.cut_gen"),
    ("rank1.linear_eval_s", "s/round", "lower", "self", "rank1.linear_eval"),
    ("rank1.conic_eval_s", "s/round", "lower", "self", "rank1.conic_eval"),
    ("rank1.points", "count/round", "higher", "count", "rank1.points"),
    ("rank1.cuts", "count/round", "lower", "count", "rank1.cuts"),
    ("trace.overhead_pct", "%", "lower", "overhead", ""),
    ("wall.round_s", "s", "lower", "wall", ""),
    ("clock.kernel_ms", "ms", "lower", "kernel", ""),
)


def load_poolkit():
    """Import poolkit from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import poolkit

    where = Path(poolkit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"poolkit was imported from {where}, not from {SRC}")
    return poolkit


def time_setups(workload, reps: int) -> list:
    ops = []
    for _ in range(reps):
        with workload.clock.op() as op:
            workload.setup()
        ops.append(op)
    return ops


def measure(workload, seconds: float, setups: list | None = None) -> list:
    """Whole rounds until ``seconds`` have passed, at least one.  Given a
    list ``setups``, the set-up is timed again before each round."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if setups is not None:
            setups += time_setups(workload, 1)
        rounds.append(workload.run_round())
    return rounds


def operation_latencies(rounds) -> list[float]:
    """Each operation's median latency over the run, in ms.  An operation
    is one key of the rounds (a cell, an instance), or one operation of one
    round where the rounds carry no keys.  Percentiles over a few kinds of
    operation of unlike cost, taken over every latency, fall on the edge
    between two kinds and jump with the number of rounds; over the kinds'
    medians they do not."""
    by_key = defaultdict(list)
    for i, r in enumerate(rounds):
        keys = r.keys or [(i, k) for k in range(len(r.ops))]
        for key, ms in zip(keys, r.latencies_ms):
            by_key[key].append(ms)
    return [statistics.median(v) for v in by_key.values()]


def end_to_end(workload, seconds: float):
    # set-ups are timed before, between and after the rounds: their median
    # then does not rest on the machine's state at one moment
    setups = time_setups(workload, workload.setup_reps)
    rounds = measure(workload, seconds,
                     setups if workload.setup_between_rounds else None)
    setups += time_setups(workload, workload.setup_reps)
    workload.clock.close()
    latencies = operation_latencies(rounds)
    values = {
        "setup_s": statistics.median(op.seconds for op in setups),
        "throughput_per_s": sum(r.items for r in rounds) / sum(r.seconds for r in rounds),
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_p90": float(np.percentile(latencies, 90)),
        "round_s": statistics.median(r.seconds for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, rounds


def per_layer(workload, seconds: float, trace_path: Path):
    with Tracer() as setup_trace:
        workload.setup()
    plain = measure(workload, seconds / 2)
    with Tracer() as tracer:
        traced = measure(workload, seconds / 2)
    workload.clock.close()
    OUT.mkdir(exist_ok=True)
    tracer.write(trace_path)

    n = len(traced)
    self_s, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    overhead = (statistics.median(r.seconds for r in traced)
                / statistics.median(r.seconds for r in plain) - 1.0) * 100.0
    metrics = {}
    for name, unit, _, how, source in PER_LAYER:
        if how == "setup_self":
            value = setup_trace.self_times().get(source, 0.0)
        elif how == "self":
            value = self_s.get(source, 0.0) / n
        elif how == "calls":
            value = calls.get(source, 0) / n
        elif how == "count":
            value = counts.get(source, 0) / n
        elif how in ("p50", "p90"):
            durations = tracer.durations(source)
            value = float(np.percentile(durations, int(how[1:]))) * 1e3 if durations else 0.0
        elif how == "ratio":
            targets = counts.get("tightening.targets", 0)
            value = counts.get("tightening.tightened", 0) / targets if targets else 0.0
        elif how == "wall":
            value = statistics.median(r.wall for r in plain)
        elif how == "kernel":
            value = workload.clock.median_kernel_s() * 1e3
        else:
            value = overhead
        metrics[name] = {"value": value, "unit": unit}
    return metrics, plain + traced


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poolkit" / "__init__.py").is_file():
        print(f"perfbench: no poolkit package under {SRC}", file=sys.stderr)
        return 2
    result_fd = os.dup(1)
    os.dup2(2, 1)
    pk = load_poolkit()
    workload = WORKLOADS[args.workload](pk, SRC / "poolkit" / "data",
                                        np.random.default_rng(args.seed), Clock())
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        metrics, rounds = per_layer(workload, args.seconds, path)
    else:
        metrics, rounds = end_to_end(workload, args.seconds)
    problems = [p for r in rounds for p in r.problems] + workload.finish()
    for p in problems[:50]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}
    sys.stdout.flush()
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    os.close(result_fd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
