"""Benchmark harness: gap arithmetic, exact-value squeeze, run grids, CSV.

Gap convention: gap = (UB - LB) / |UB| * 100.  Duality gaps use the exact
optimum as UB and a relaxation bound as LB; primal gaps use the restriction
value on the UB side.  Reference optima are computed at runtime (never read
from tables): a restriction portfolio provides the upper bound and the
tightened row-column relaxation the lower bound; when they agree to 1e-4
relative the value is proven.

A grid solves each model of an instance once: its cells run on the
instance of the squeeze's first pass, and a cell whose label that pass
solved to OPTIMAL takes that result and its build+solve seconds.  Each
cell records the status of its gap reference (``ref_status``).
"""

from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

from .formulations import accepts
from .instances import PoolingInstance
from .relaxations import (G_KINDS, RESTRICTION_PORTFOLIO, MethodSpec,
                          build_method, parse_method)
from .solver import OPTIMAL, TIME_LIMIT, Budget, SolveParams, SolveResult, solve
from .tightening import (RECIPE_RELAXATION, RECIPE_RESTRICTIONS, BoundUpdate,
                         TighteningError, apply_bounds, bounds_meet,
                         default_obbt_recipe, obbt)

GAP_UNDEFINED = float("nan")


def compute_gap(ub: float, lb: float) -> float:
    """Percent gap (UB - LB) / |UB| * 100; NaN sentinel when UB = 0."""
    if ub == 0:
        return GAP_UNDEFINED
    return (ub - lb) / abs(ub) * 100.0


@dataclass
class ExactValue:
    lower: float | None
    upper: float | None
    seconds: float
    witness: str = ""
    status: str = "open"     # "proven", "time-limit" or "open"
    # the first pass's instance and the OPTIMAL solves on it (exact_value)
    instance: PoolingInstance | None = field(default=None, repr=False)
    first_pass: dict[str, tuple[SolveResult, float]] = field(
        default_factory=dict, repr=False)

    @property
    def value(self) -> float | None:
        """The squeeze's value: its upper bound, a restriction's value."""
        return self.upper

    @property
    def proven(self) -> bool:
        return self.status == "proven"


def exact_value(inst: PoolingInstance, params: SolveParams | None = None,
                first_update: BoundUpdate | None = None) -> ExactValue:
    """Squeeze the optimum between restriction values and a tightened
    relaxation bound (the backend has no nonconvex capability).

    The squeeze is one loop of passes.  A pass solves the F4 LPs; the first
    pass then solves the restrictions of ``RESTRICTION_PORTFOLIO`` in turn,
    none once the best bounds meet to ``REL_TOL`` relative
    (``bounds_meet``).  Every result becomes a bound in one place: a
    ``G_KINDS`` label's objective from above where its point passes
    ``formulations.accepts`` in its basis, any other label's dual bound from
    below.  While the bounds are open and tightenings remain, the pass ends
    in one OBBT sweep, and the next pass runs on the instance that sweep
    tightened.

    A restriction is solved once per squeeze, on the widest box it is
    met: ``apply_bounds`` only intersects intervals, so on a tighter box
    a restriction could lower the upper bound only by the MILP's
    ``mip_rel_gap`` (``REL_TOL``) or by a point where the wider solve's
    failed ``formulations.accepts``, neither of which happens on the
    bundled instances.  A later pass solves the F4 LPs alone, and a first
    pass on ``first_update``'s instance leaves out ``RECIPE_RESTRICTIONS``,
    which the recipe solved on ``inst`` (or showed, by its stop rule,
    could not lower its value beyond ``REL_TOL``).

    The portfolio's fixed order tries G2 before G1 (``relaxations`` gives
    the reason).  Where G1 first proved too, the order moves no value or
    witness: a restriction that closes the squeeze lies below every
    upper bound found before it, and where none closes, all of them run.

    ``params.time_limit_s`` is the budget of the whole squeeze: every
    restriction, LP and OBBT solve gets only the time that remains, and no
    further solve starts once it is spent.  The bounds found by then are
    returned, unproven if they do not meet.

    ``status`` is "proven" when the bounds meet to ``REL_TOL`` relative,
    "time-limit" when the budget was spent before they did, and "open" when
    the passes ran out or a tightening failed.  Bounds that cross by more
    than ``REL_TOL`` do not meet: they show a fault, never a proof.

    The squeeze tightens only from ``first_update``,
    ``default_obbt_recipe``'s update of ``inst`` itself.  It applies the
    update and starts on the tightened instance it gives, with the recipe's
    restriction value (``z_box``'s upper end, when finite and the update
    names its ``z_witness``) as the first upper bound and that witness as
    its own, and solves no restriction on ``inst``.  Up to two tightenings
    of its own then remain, so up to three passes run.  Each is one
    ``obbt`` sweep over ``RECIPE_RELAXATION`` with the objective boxed into
    the squeeze's best [lower, upper] (infinite where a bound is missing):
    OBBT keeps every point in that box, the optimum among them.  A
    tightening that fails ends the loop; one over bounds that cross fails.
    An update that does not fit ``inst`` raises ``TighteningError``, and
    without an update the squeeze runs one pass on ``inst``, without OBBT.

    ``instance`` is the instance of the first pass (the tightened one, or
    ``inst`` itself), and ``first_pass`` keeps the solves on it that
    reached OPTIMAL, by label, with the seconds each took to build and
    solve.  A solve stopped by the squeeze's remaining budget is not kept:
    it must not stand in for one that has the full limit."""
    t0 = time.perf_counter()
    budget = Budget(params)
    best_ub = best_lb = None
    witness = ""
    work, tightenings, restrictions = inst, 0, RESTRICTION_PORTFOLIO
    if first_update is not None:
        work, tightenings = apply_bounds(inst, first_update), 2
        restrictions = tuple(label for label in RESTRICTION_PORTFOLIO
                             if label not in RECIPE_RESTRICTIONS)
        z_ub = first_update.z_box[1] if first_update.z_box else math.inf
        if first_update.z_witness and math.isfinite(z_ub):
            best_ub, witness = z_ub, first_update.z_witness
    first_work, first_pass = work, {}
    while True:
        # the LPs first: they are cheap, so a budget spent in a restriction
        # MILP still leaves a lower bound
        for label in ("F4:S", "F4:T") + (restrictions if work is first_work else ()):
            spec = parse_method(label)
            restriction = spec.kind in G_KINDS
            if budget.spent or (restriction and bounds_meet(best_lb, best_ub)):
                break
            t = time.perf_counter()
            res = solve(build_method(work, spec).model, budget.params())
            if res.status == OPTIMAL and work is first_work:
                first_pass[label] = (res, time.perf_counter() - t)
            if restriction:
                if (res.objective is not None and (best_ub is None or res.objective < best_ub)
                        and accepts(work, spec.basis, res.assignment)):
                    best_ub, witness = res.objective, label
            elif res.dual_bound is not None and (best_lb is None or res.dual_bound > best_lb):
                best_lb = res.dual_bound
        if not tightenings or budget.spent or bounds_meet(best_lb, best_ub):
            break
        tightenings -= 1
        box = (-math.inf if best_lb is None else best_lb,
               math.inf if best_ub is None else best_ub)
        try:
            upd = obbt(work, RECIPE_RELAXATION, *box, params=budget.params())
            work = apply_bounds(work, upd)
        except TighteningError:
            break
    status = "proven" if bounds_meet(best_lb, best_ub) else "time-limit" if budget.spent else "open"
    return ExactValue(best_lb, best_ub, time.perf_counter() - t0, witness, status,
                      first_work, first_pass)


@dataclass
class RunRecord:
    instance: str
    method: str
    obbt: bool
    prep_seconds: float
    solve_seconds: float
    objective: float | None
    dual_bound: float | None
    gap_percent: float
    gap_kind: str        # O, D or P
    status: str
    ref_status: str = ""  # the reference's ExactValue.status; "" without one

    @classmethod
    def csv_header(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    def csv_row(self) -> list[str]:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "1" if v else "0"
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return [fmt(getattr(self, f.name)) for f in fields(self)]

    @classmethod
    def from_csv_row(cls, row: list[str]) -> "RunRecord":
        """The inverse of ``csv_row``, column by field; a row may stop
        before the fields that have defaults."""
        def read(f, s):
            if f.type == "str":
                return s
            if f.type == "bool":
                return s == "1"
            return None if s == "" and "None" in f.type else float(s)

        return cls(*(read(f, s) for f, s in zip(fields(cls), row)))


@dataclass
class GridConfig:
    instances: list[tuple[str, PoolingInstance]]
    methods: list[str]
    obbt: bool = False
    time_limit_s: float = 3600.0
    threads: int = 1
    obbt_workers: int = 8             # no effect: OBBT sweeps are sequential
    bounds_cache: str | None = None   # directory for cached BoundUpdate JSON


def _gap_kind(spec: MethodSpec) -> str:
    if spec.kind in G_KINDS:
        return "P"
    if spec.kind == "EXACT":
        return "O"
    return "D"


def run_cell(name: str, inst: PoolingInstance, method: str, obbt_flag: bool,
             prep_seconds: float, reference: float | None,
             params: SolveParams, ref_status: str = "",
             solved: tuple[SolveResult, float] | None = None) -> RunRecord:
    """Build and solve one (instance, method) cell and measure its gap
    against ``reference``, whose ``ExactValue.status`` is ``ref_status``.
    ``solved``, when given, is this model's result on ``inst`` with the
    seconds it took to build and solve; the cell takes it and solves
    nothing.  Without it, a cell whose ``params`` leave no time is recorded
    as time-limit, and nothing is built or solved."""
    spec = parse_method(method)
    kind = _gap_kind(spec)
    if solved is not None:
        res, elapsed = solved
    elif params.time_limit_s <= 0:
        res, elapsed = SolveResult(TIME_LIMIT, None, None), 0.0
    else:
        t0 = time.perf_counter()
        try:
            built = build_method(inst, spec)
            res = solve(built.model, params)
        except Exception as exc:  # record, never abort the grid
            return RunRecord(name, method, obbt_flag, prep_seconds,
                             time.perf_counter() - t0, None, None, GAP_UNDEFINED,
                             kind, f"error: {exc}", ref_status)
        elapsed = time.perf_counter() - t0
    gap = GAP_UNDEFINED
    if kind == "D" and reference is not None and res.dual_bound is not None:
        gap = compute_gap(reference, res.dual_bound)
    elif kind == "P" and reference is not None and res.objective is not None:
        gap = compute_gap(res.objective, reference)
    return RunRecord(name, method, obbt_flag, prep_seconds, elapsed,
                     res.objective, res.dual_bound, gap, kind, res.status,
                     ref_status)


def run_grid(config: GridConfig) -> list[RunRecord]:
    """One record per (instance, method) cell.  ``time_limit_s`` is the
    grid's budget: instance by instance, the tightening, the squeeze and
    then the cells get the time that remains, and a cell that starts once
    it is spent, unless the squeeze solved it, is recorded as time-limit."""
    budget = Budget(SolveParams(time_limit_s=config.time_limit_s))
    records = []
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        for name, inst in config.instances:
            prep, upd = 0.0, None
            if config.obbt:
                t0 = time.perf_counter()
                try:
                    upd = default_obbt_recipe(inst, params=budget.params(),
                                              cache_dir=config.bounds_cache)
                except TighteningError:
                    pass   # the cells say obbt=0: this instance is not tightened
                prep = time.perf_counter() - t0
            ref = exact_value(inst, budget.params(), first_update=upd)
            ref_status = ref.status if ref.value is not None else ""
            # the cells run on the instance of the squeeze's first pass, so
            # a model that pass solved is not solved again
            work = ref.instance

            def run(method):   # a cell gets the time that remains when it starts
                return run_cell(name, work, method, work is not inst, prep, ref.value,
                                budget.params(), ref_status, ref.first_pass.get(method))

            records += (pool.map if config.threads > 1 else map)(run, config.methods)
    return records


def records_to_csv(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RunRecord.csv_header())
    for rec in records:
        writer.writerow(rec.csv_row())
    return buf.getvalue()


def records_from_csv(text: str) -> list[RunRecord]:
    """The records of a CSV whose header is ``csv_header()``, or a prefix
    of it that has every field without a default (a file written before a
    trailing column existed).  Every data row has the header's length."""
    rows = list(csv.reader(io.StringIO(text)))
    header = RunRecord.csv_header()
    required = sum(f.default is MISSING for f in fields(RunRecord))
    if not rows or not required <= len(rows[0]) or rows[0] != header[:len(rows[0])]:
        raise ValueError("unrecognized CSV header")
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ValueError(f"CSV row {number} has {len(row)} fields, "
                             f"the header {len(rows[0])}: {row}")
    return [RunRecord.from_csv_row(r) for r in rows[1:]]


def summarize(records: list[RunRecord]) -> str:
    """Per-method averages over instances, gaps shown to two decimals."""
    by_method: dict[str, list[RunRecord]] = {}
    for rec in records:
        by_method.setdefault(rec.method, []).append(rec)
    lines = [f"{'method':<22} {'cells':>5} {'avg time':>9} {'avg %gap':>9}"]
    for method in sorted(by_method):
        recs = by_method[method]
        gaps = [r.gap_percent for r in recs if not math.isnan(r.gap_percent)]
        avg_gap = sum(gaps) / len(gaps) if gaps else float("nan")
        avg_t = sum(r.solve_seconds for r in recs) / len(recs)
        lines.append(f"{method:<22} {len(recs):>5} {avg_t:>9.2f} {avg_gap:>9.2f}")
    return "\n".join(lines)
