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
import pathlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

from .instances import PoolingInstance, content_hash
from .relaxations import MethodSpec, build_method, parse_method
from .solver import OPTIMAL, TIME_LIMIT, Budget, SolveParams, SolveResult, solve
from .tightening import (RECIPE_LABEL, RECIPE_RELAXATION, RECIPE_RESTRICTION,
                         BoundUpdate, TighteningError, apply_bounds,
                         default_obbt_recipe, obbt)

GAP_UNDEFINED = float("nan")


def compute_gap(ub: float, lb: float) -> float:
    """Percent gap (UB - LB) / |UB| * 100; NaN sentinel when UB = 0."""
    if ub == 0:
        return GAP_UNDEFINED
    return (ub - lb) / abs(ub) * 100.0


# the squeeze's upper-bounding restrictions, in the order it tries them (see
# exact_value for why G2 comes first), and the relative distance at which its
# bounds meet
RESTRICTION_PORTFOLIO = ("G2:S:H=3", "G2:T:H=3", "G1:S:H=3", "G1:T:H=3")
REL_TOL = 1e-4


@dataclass
class ExactValue:
    value: float | None
    lower: float | None
    upper: float | None
    proven: bool
    seconds: float
    witness: str = ""
    status: str = "open"     # "proven", "time-limit" or "open"
    # the instance of the first pass, and its OPTIMAL solves by label, each
    # with its build+solve seconds
    instance: PoolingInstance | None = field(default=None, repr=False)
    first_pass: dict[str, tuple[SolveResult, float]] = field(
        default_factory=dict, repr=False)


def exact_value(inst: PoolingInstance, params: SolveParams | None = None,
                use_obbt: bool = True,
                first_update: BoundUpdate | None = None) -> ExactValue:
    """Squeeze the optimum between restriction values and a tightened
    relaxation bound (the backend has no nonconvex capability).

    Each pass solves the F4 LPs first, then the restrictions of
    ``RESTRICTION_PORTFOLIO`` in turn; no restriction starts once the best
    bounds found so far meet to ``REL_TOL`` relative, and no further pass
    starts either.

    The portfolio tries ``G2:S:H=3`` and ``G2:T:H=3`` before ``G1:S:H=3``
    and ``G1:T:H=3``.  On the bundled instances G2 is the cheaper MILP
    and the one that closes: on the recipe-tightened foulds2 and adhya4
    ``G1:S:H=3`` took 1.1 s and 0.85 s only to repeat the recipe's value,
    where ``G2:S:H=3`` then closed the squeeze in 0.13 s and 0.05 s, and
    on bental5 ``G1:S:H=3`` spent a 55-s budget where ``G2:S:H=3`` proves
    the optimum in about 0.5 s.  The order is fixed.  On the instances
    whose squeeze proved with G1 first, it moves no value or witness (the
    ``squeeze`` set of ``scripts/bound_digest.py``): a restriction that
    closes the squeeze lies below every upper bound found before it, and
    where none closes, all four run either way.

    ``params.time_limit_s`` is the budget of the whole squeeze: every
    restriction, LP and OBBT solve gets only the time that remains, and no
    further solve starts once it is spent.  The bounds found by then are
    returned, unproven if they do not meet.

    ``status`` is "proven" when the bounds meet to ``REL_TOL`` relative,
    "time-limit" when the budget was spent before they did, and "open" when
    the passes ran out or a tightening failed.  Bounds that cross by more
    than ``REL_TOL`` do not meet: they show a fault, never a proof.

    With ``use_obbt``, up to three OBBT passes tighten the instance, each
    followed by a pass.  The squeeze's own is one ``obbt`` sweep over
    ``RECIPE_RELAXATION`` with the objective boxed into its best [lower,
    upper] (infinite where a bound is missing): OBBT keeps every point in
    that box, the optimum among them.  A tightening that fails ends the
    passes; one over bounds that cross fails.

    ``first_update``, when given, is ``default_obbt_recipe``'s update of
    ``inst`` itself and stands for the first OBBT pass, with ``z_box`` as
    its box: the squeeze applies it and starts on the tightened instance it
    gives, with the recipe's restriction value (``z_box``'s upper end, when
    finite) as the first upper bound and ``RECIPE_RESTRICTION`` as its
    witness, and solves no restriction on ``inst``.  An update that does
    not apply to ``inst`` (it may come from a bounds cache) gives neither:
    the squeeze then runs its one pass on ``inst``, without OBBT.

    ``instance`` is the instance of the first pass (the tightened one, or
    ``inst`` itself), and ``first_pass`` keeps that pass's solves that
    reached OPTIMAL, by label, with the seconds each took to build and
    solve.  A solve stopped by the squeeze's remaining budget is not kept:
    it must not stand in for one that has the full limit."""
    t0 = time.perf_counter()
    budget = Budget(params)
    best_ub = best_lb = None
    witness = ""

    def closed() -> bool:
        return (best_ub is not None and best_lb is not None
                and abs(best_ub - best_lb) <= REL_TOL * max(1.0, abs(best_ub)))

    def squeeze(work) -> dict[str, tuple[SolveResult, float]]:
        """One pass on ``work``; returns its OPTIMAL solves by label."""
        nonlocal best_ub, best_lb, witness
        optimal = {}

        def run(label: str) -> SolveResult:
            t = time.perf_counter()
            res = solve(build_method(work, parse_method(label)).model,
                        budget.params())
            if res.status == OPTIMAL:
                optimal[label] = (res, time.perf_counter() - t)
            return res

        # the LPs first: they are cheap, so a budget spent in a restriction
        # MILP still leaves a lower bound
        for label in ("F4:S", "F4:T"):
            if budget.spent:
                break
            res = run(label)
            if res.dual_bound is not None and (best_lb is None or res.dual_bound > best_lb):
                best_lb = res.dual_bound
        for label in RESTRICTION_PORTFOLIO:
            if budget.spent or closed():
                break
            res = run(label)
            if res.objective is not None and (best_ub is None or res.objective < best_ub):
                best_ub, witness = res.objective, label
        return optimal

    work, passes = inst, 3 if use_obbt else 0
    if use_obbt and first_update is not None:
        try:
            work, passes = apply_bounds(inst, first_update), passes - 1
        except TighteningError:
            passes = 0
        else:   # the recipe's value bounds only an instance its update fits
            z_ub = first_update.z_box[1] if first_update.z_box else math.inf
            if math.isfinite(z_ub):
                best_ub, witness = z_ub, RECIPE_RESTRICTION
    first_work, first_pass = work, squeeze(work)
    for _ in range(passes):
        if budget.spent or closed():
            break
        box = (-math.inf if best_lb is None else best_lb,
               math.inf if best_ub is None else best_ub)
        try:
            upd = obbt(work, RECIPE_RELAXATION, *box, params=budget.params())
            work = apply_bounds(work, upd)
        except TighteningError:
            break
        squeeze(work)
    elapsed = time.perf_counter() - t0
    proven = closed()
    status = "proven" if proven else "time-limit" if budget.spent else "open"
    return ExactValue(best_ub, best_lb, best_ub, proven, elapsed, witness, status,
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
        def num(s):
            return None if s == "" else float(s)

        return cls(row[0], row[1], row[2] == "1", float(row[3]), float(row[4]),
                   num(row[5]), num(row[6]), float(row[7]), row[8], row[9],
                   row[10])


@dataclass
class GridConfig:
    instances: list[tuple[str, PoolingInstance]]
    methods: list[str]
    obbt: bool = False
    time_limit_s: float = 3600.0
    threads: int = 1
    obbt_workers: int = 8             # no effect: OBBT sweeps are sequential
    bounds_cache: str | None = None   # directory for cached BoundUpdate JSON


def _cached_obbt(inst: PoolingInstance, cache_dir: str | None,
                 params: SolveParams):
    """Run the default recipe, consulting the cache keyed by instance hash
    and recipe label when a cache directory is configured.  A recipe that
    spends the time of ``params`` may be cut short: it raises
    TighteningError and is not cached, as the key records no time limit."""
    if cache_dir:
        path = pathlib.Path(cache_dir) / f"{content_hash(inst)}-{RECIPE_LABEL}.json"
        if path.exists():
            return BoundUpdate.from_json(path.read_text())
    budget = Budget(params)
    upd = default_obbt_recipe(inst, params=budget.params())
    if budget.spent:
        raise TighteningError("the OBBT recipe ran out of time")
    if cache_dir:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(upd.to_json())
    return upd


def _gap_kind(spec: MethodSpec) -> str:
    if spec.kind in ("G1", "G2"):
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
                    upd = _cached_obbt(inst, config.bounds_cache, budget.params())
                except TighteningError:
                    pass   # the cells say obbt=0: this instance is not tightened
                prep = time.perf_counter() - t0
            ref = exact_value(inst, budget.params(), use_obbt=upd is not None,
                              first_update=upd)
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
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != RunRecord.csv_header():
        raise ValueError("unrecognized CSV header")
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
