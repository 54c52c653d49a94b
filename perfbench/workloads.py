"""The four benchmark workloads.

A workload is set up (``setup``), then runs whole rounds of the same
operations (``run_round``) until the run's time is spent, and finally gets
one last check (``finish``).  A set-up may be repeated between rounds; it
makes the inputs afresh.  The seed fixes every input the benchmark makes:
the order of cells and instances, the random boxes and the sampled points.
Each operation is timed by the run's ``Clock`` (see ``clock.py``); each
round checks its outputs outside the timed operations.

Every call that takes ``workers`` gets 1: the benchmark times the program,
not the scheduler of a two-core machine.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

import checks
from clock import Clock, Op
from spans import Tracer

ALL_INSTANCES = ("adhya1", "adhya2", "adhya3", "adhya4", "bental4", "bental5",
                 "foulds2", "haverly1", "haverly2", "haverly3")
LP_LABELS = tuple(f"{kind}:{basis}" for basis in "ST"
                  for kind in ("MCF", "F1", "F2", "F3", "F4"))
# bental5's G1:T:H=3 restriction, which sets its objective box, does not
# finish within 60 s.
SWEEP_INSTANCES = tuple(n for n in ALL_INSTANCES if n != "bental5")
# the bundled instances whose squeeze proves: adhya1 and adhya2 stop
# unproven after three OBBT passes, bental5 spends its time budget
TABLE_INSTANCES = ("haverly1", "haverly2", "haverly3", "bental4", "foulds2",
                   "adhya3", "adhya4")
TABLE_LABELS = LP_LABELS + ("M2:S:H=3", "M2:T:H=3", "G2:S:H=3", "G2:T:H=3")
# instances whose squeeze witness is solved again and checked for feasibility
WITNESS_INSTANCES = ("adhya3", "adhya4")
CUT_SHAPES = tuple((m, n) for m in range(1, 5) for n in range(1, 5))
BOX_SETS = 4            # cut-check operations a round, each one box a shape
POINTS_PER_BOX = 12_500


@dataclass
class Round:
    """One round: its operations, each a list of timed segments (the clock
    may calibrate between the segments of a long operation), the work items
    done, operations that failed, problems, and a key for each operation
    that names the same operation in every round (none where the rounds'
    operations differ).  Its times are read once the clock is closed."""

    ops: list[list[Op]]
    items: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    keys: list | None = None

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def seconds(self) -> float:
        return sum(seg.seconds for op in self.ops for seg in op)

    @property
    def wall(self) -> float:
        return sum(seg.wall for op in self.ops for seg in op)

    @property
    def latencies_ms(self) -> list[float]:
        return [sum(seg.seconds for seg in op) * 1e3 for op in self.ops]


class Workload:
    name = ""
    setup_reps = 40       # set-ups timed before and again after the rounds
    setup_between_rounds = True

    def __init__(self, pk, data_dir, rng: np.random.Generator, clock: Clock):
        self.pk = pk
        self.data_dir = data_dir
        self.rng = rng
        self.clock = clock

    def parse(self, names) -> dict:
        parse = self.pk.instances.parse_instance
        return {n: parse(self.data_dir / f"{n}.json") for n in names}

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []


class LpTable(Workload):
    """run_cell on every bundled instance x the LP labels, no OBBT."""

    name = "lp-table"

    def setup(self):
        self.instances = self.parse(ALL_INSTANCES)
        self.cells = [(n, label) for n in ALL_INSTANCES for label in LP_LABELS]
        self.params = self.pk.solver.SolveParams()

    def run_round(self):
        run_cell = self.pk.bench.run_cell
        records, ops = [], []
        for k in self.rng.permutation(len(self.cells)):
            name, label = self.cells[k]
            with self.clock.op() as op:
                rec = run_cell(name, self.instances[name], label, False, 0.0,
                               None, self.params)
            ops.append([op])
            records.append(rec)
        done = [r for r in records if r.status == "optimal"]
        bounds = {(r.instance, r.method): r.dual_bound for r in done}
        return Round(ops, len(records),
                     failed=len(records) - len(done),
                     problems=checks.check_lp_table(bounds),
                     keys=[(r.instance, r.method) for r in records])


class ObbtSweep(Workload):
    """tightening.obbt over F4:T on every instance but bental5, inside the
    objective box that default_obbt_recipe would use."""

    name = "obbt-sweep"
    setup_reps = 2
    setup_between_rounds = False   # its set-up solves 18 models, 3-4 s

    def setup(self):
        pk = self.pk
        self.instances = self.parse(SWEEP_INSTANCES)
        params = pk.solver.SolveParams()
        self.boxes = {}
        for name, inst in self.instances.items():
            lo = pk.solver.solve(pk.relaxations.build_method(
                inst, pk.relaxations.parse_method("MCF:T")).model, params)
            hi = pk.solver.solve(pk.relaxations.build_method(
                inst, pk.relaxations.parse_method("G1:T:H=3")).model, params)
            if lo.status != "optimal" or hi.status != "optimal":
                raise RuntimeError(f"{name}: objective box solves ended "
                                   f"{lo.status} / {hi.status}")
            self.boxes[name] = (lo.objective, hi.objective, hi.assignment)

    def run_round(self):
        pk = self.pk
        obbt = pk.tightening.obbt
        names = list(self.instances)
        ops, keys, problems, failed = [], [], [], 0
        for k in self.rng.permutation(len(names)):
            name = names[k]
            keys.append(name)
            inst = self.instances[name]
            z_lb, z_ub, point = self.boxes[name]
            op = self.clock.op()
            try:
                with op:
                    upd = obbt(inst, "F4:T", z_lb, z_ub, workers=1)
            except pk.tightening.TighteningError as exc:
                upd = None
                print(f"{name}: sweep failed: {exc}", file=sys.stderr)
            ops.append([op])
            if upd is None:
                failed += 1
                continue
            # terminal basis: the pool of a ghost pair is its first node
            problems += [f"{name}: {p}" for p in checks.check_sweep(
                inst, upd, lambda key: key[0], point, pk.formulations.fvar)]
        return Round(ops, len(names), failed, problems, keys)


class TightenedTable(Workload):
    """bench.run_grid with OBBT on and no bounds cache, then the CSV and the
    summary, as `poolkit run --obbt on` makes a with-tightening table.

    The operation is the table, as a user of `poolkit run --obbt on` waits
    for it; a round makes one.  run_grid treats its instances one after
    another and apart, so the table calls it once per instance: the same
    work, timed in segments of 1 to 11 s between which the clock may
    calibrate."""

    name = "tightened-table"

    def setup(self):
        self.instances = self.parse(TABLE_INSTANCES)

    def run_round(self):
        bench = self.pk.bench
        names = [TABLE_INSTANCES[k] for k in self.rng.permutation(len(TABLE_INSTANCES))]
        labels = [TABLE_LABELS[k] for k in self.rng.permutation(len(TABLE_LABELS))]
        records, segments = [], []
        # run_grid calls exact_value itself; a probe keeps the squeezes
        with Tracer({"bench.exact_value"}, keep={"bench.exact_value"}) as probe:
            for name in names:
                config = bench.GridConfig(
                    instances=[(name, self.instances[name])], methods=labels,
                    obbt=True, threads=1, obbt_workers=1, bounds_cache=None)
                with self.clock.op() as op:
                    records += bench.run_grid(config)
                segments.append(op)
            with self.clock.op() as op:
                csv_text = bench.records_to_csv(records)
                bench.summarize(records)
            segments.append(op)
        by_inst = {id(inst): n for n, inst in self.instances.items()}
        self.squeezes = {by_inst[id(args[0])]: ev
                         for args, ev in probe.kept["bench.exact_value"]}
        done = [r for r in records if r.status == "optimal"]
        problems = (checks.check_squeezes(self.squeezes)
                    + checks.check_gaps(done)
                    + checks.check_round_trip(records,
                                              bench.records_from_csv(csv_text)))
        if len(self.squeezes) != len(names):
            problems.append(f"{len(self.squeezes)} squeezes for {len(names)} instances")
        # a failed cell fails the table
        return Round([segments], len(records), failed=int(len(done) < len(records)),
                     problems=problems, keys=["table"])

    def finish(self):
        """Solve each witness restriction again and check its point on the
        exact model of the witness's basis."""
        pk = self.pk
        problems = []
        for name in WITNESS_INSTANCES:
            ev = self.squeezes.get(name)
            if ev is None or not ev.witness:
                problems.append(f"{name}: no squeeze witness")
                continue
            inst = self.instances[name]
            spec = pk.relaxations.parse_method(ev.witness)
            res = pk.solver.solve(pk.relaxations.build_method(inst, spec).model)
            if res.objective is None:
                problems.append(f"{name} {ev.witness}: no point ({res.status})")
                continue
            exact = pk.relaxations.build_method(
                inst, pk.relaxations.MethodSpec("EXACT", spec.basis)).backbone
            point = pk.formulations.rederive_proportions(exact, res.assignment)
            report = pk.formulations.check_solution(exact, point)
            problems += checks.check_witness(name, ev.witness, report,
                                             res.objective, ev.lower)
        return problems


class CutCheck(Workload):
    """rank1 sampling, RLT cut generation and cut evaluation on seeded random
    boxes of every shape up to 4x4 with positive lower bounds.  The
    operation is one box of every shape, timed box by box; a box's time
    depends on the shape more than on its bounds, so every operation
    does alike work."""

    name = "cut-check"

    def setup(self):
        random_box = self.pk.rank1.random_box
        self.box_sets = [[random_box(self.rng, m, n, positive_lower=True)
                          for m, n in CUT_SHAPES] for _ in range(BOX_SETS)]

    def run_round(self):
        rank1 = self.pk.rank1
        ops, problems, failed, points = [], [], 0, 0
        for boxes in self.box_sets:
            segments, ok = [], True
            for box in boxes:
                with self.clock.op() as op:
                    try:
                        X = rank1.sample_rank_one_points(box, POINTS_PER_BOX, self.rng)
                    except rank1.EmptySampleError as exc:
                        X = None
                        print(f"{box.m}x{box.n} box: sampling failed: {exc}",
                              file=sys.stderr)
                    if X is not None:
                        cuts = (rank1.gen_rlt_mccormick(box, "both").cuts
                                + rank1.gen_rlt_reverse_convex(box, "both").cuts)
                        conic = rank1.gen_rlt_conic(box).cuts
                        linear = rank1.evaluate_linear_cuts(cuts, X)
                        worst_conic = max(c.violation(X, box) for c in conic)
                segments.append(op)
                if X is None or X.shape[0] != POINTS_PER_BOX:
                    ok = False
                    continue
                points += X.shape[0]
                problems += checks.check_rank_one_samples(X, box)
                problems += checks.check_cut_violations(linear, worst_conic,
                                                        box.scale())
            ops.append(segments)
            failed += not ok
        return Round(ops, points, failed, problems)


WORKLOADS = {w.name: w for w in (LpTable, ObbtSweep, TightenedTable, CutCheck)}
