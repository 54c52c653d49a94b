"""Benchmark harness: gap arithmetic, exact-value squeeze, run grids, CSV.

Gap convention: gap = (UB - LB) / |UB| * 100.  Duality gaps use the exact
optimum as UB and a relaxation bound as LB; primal gaps use the restriction
value on the UB side.  Reference optima are computed at runtime (never read
from tables): a restriction portfolio provides the upper bound and the
tightened row-column relaxation the lower bound; when they agree to 1e-4
relative the value is proven.
"""

from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

from .instances import PoolingInstance
from .relaxations import MethodSpec, build_method, parse_method
from .solver import Budget, SolveParams, solve
from .tightening import (BoundUpdate, TighteningError, apply_bounds,
                         default_obbt_recipe)

GAP_UNDEFINED = float("nan")


def compute_gap(ub: float, lb: float) -> float:
    """Percent gap (UB - LB) / |UB| * 100; NaN sentinel when UB = 0."""
    if ub == 0:
        return GAP_UNDEFINED
    return (ub - lb) / abs(ub) * 100.0


RESTRICTION_PORTFOLIO = ("G1:S:H=3", "G2:S:H=3", "G1:T:H=3", "G2:T:H=3")


@dataclass
class ExactValue:
    value: float | None
    lower: float | None
    upper: float | None
    proven: bool
    seconds: float
    witness: str = ""
    status: str = "open"     # "proven", "time-limit" or "open"


def exact_value(inst: PoolingInstance, params: SolveParams | None = None,
                use_obbt: bool = True, rel_tol: float = 1e-4,
                portfolio: tuple[str, ...] = RESTRICTION_PORTFOLIO,
                workers: int = 8,
                first_update: BoundUpdate | None = None) -> ExactValue:
    """Squeeze the optimum between restriction values and a tightened
    relaxation bound (the backend has no nonconvex capability).

    ``params.time_limit_s`` is the budget of the whole squeeze: every
    restriction, LP and OBBT solve gets only the time that remains, and no
    further solve starts once it is spent.  The bounds found by then are
    returned, unproven if they do not meet.

    ``status`` is "proven" when the bounds meet, "time-limit" when the
    budget was spent before they did, and "open" when the passes ran out
    or a tightening failed.

    ``first_update``, when given, is ``default_obbt_recipe``'s update of
    ``inst`` itself; the first OBBT pass applies it instead of running the
    recipe again.  A pass whose tightening fails ends the OBBT passes."""
    t0 = time.perf_counter()
    budget = Budget(params)

    def bounds_for(work):
        # the LPs first: they are cheap, so a budget spent in a restriction
        # MILP still leaves a lower bound
        lb = None
        for label in ("F4:S", "F4:T"):
            if budget.spent:
                break
            res = solve(build_method(work, parse_method(label)).model,
                        budget.params())
            if res.status == "optimal" and (lb is None or res.objective > lb):
                lb = res.objective
        ub, wit = None, ""
        for label in portfolio:
            if budget.spent:
                break
            res = solve(build_method(work, parse_method(label)).model,
                        budget.params())
            if res.objective is not None and (ub is None or res.objective < ub):
                ub, wit = res.objective, label
        return ub, lb, wit

    work = inst
    best_ub, best_lb, witness = bounds_for(work)
    passes = 3 if use_obbt else 0
    for k in range(passes):
        if budget.spent or (best_ub is not None and best_lb is not None
                            and best_ub - best_lb <= rel_tol * max(1.0, abs(best_ub))):
            break
        try:
            if k == 0 and first_update is not None:
                upd = first_update
            else:
                upd, _, _ = default_obbt_recipe(work, workers=workers,
                                                params=budget.params())
            work = apply_bounds(work, upd)
        except TighteningError:
            break
        ub, lb, wit = bounds_for(work)
        if ub is not None and (best_ub is None or ub < best_ub):
            best_ub, witness = ub, wit
        if lb is not None and (best_lb is None or lb > best_lb):
            best_lb = lb
    elapsed = time.perf_counter() - t0
    proven = (best_ub is not None and best_lb is not None
              and best_ub - best_lb <= rel_tol * max(1.0, abs(best_ub)))
    status = "proven" if proven else "time-limit" if budget.spent else "open"
    return ExactValue(best_ub, best_lb, best_ub, proven, elapsed, witness, status)


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
                   num(row[5]), num(row[6]), float(row[7]), row[8], row[9])


@dataclass
class GridConfig:
    instances: list[tuple[str, PoolingInstance]]
    methods: list[str]
    obbt: bool = False
    time_limit_s: float = 3600.0
    threads: int = 1
    obbt_workers: int = 8             # no effect: OBBT sweeps are sequential
    bounds_cache: str | None = None   # directory for cached BoundUpdate JSON


def _cached_obbt(inst: PoolingInstance, cache_dir: str | None, workers: int,
                 params: SolveParams):
    """Run the default recipe, consulting the cache keyed by instance hash
    and recipe label when a cache directory is configured."""
    import pathlib

    from .instances import content_hash

    recipe = "mcfT+g1t3grid7+obbt(F4:T)"
    if cache_dir:
        path = pathlib.Path(cache_dir) / f"{content_hash(inst)}-{recipe}.json"
        if path.exists():
            return BoundUpdate.from_json(path.read_text())
    upd, _, _ = default_obbt_recipe(inst, workers=workers, params=params)
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
             params: SolveParams) -> RunRecord:
    spec = parse_method(method)
    t0 = time.perf_counter()
    try:
        built = build_method(inst, spec)
        res = solve(built.model, params)
    except Exception as exc:  # record, never abort the grid
        return RunRecord(name, method, obbt_flag, prep_seconds,
                         time.perf_counter() - t0, None, None, GAP_UNDEFINED,
                         _gap_kind(spec), f"error: {exc}")
    elapsed = time.perf_counter() - t0
    kind = _gap_kind(spec)
    gap = GAP_UNDEFINED
    if kind == "D" and reference is not None and res.dual_bound is not None:
        gap = compute_gap(reference, res.dual_bound)
    elif kind == "P" and reference is not None and res.objective is not None:
        gap = compute_gap(res.objective, reference)
    elif kind == "O" and res.gap is not None:
        gap = res.gap * 100.0
    return RunRecord(name, method, obbt_flag, prep_seconds, elapsed,
                     res.objective, res.dual_bound, gap, kind, res.status)


def run_grid(config: GridConfig) -> list[RunRecord]:
    params = SolveParams(time_limit_s=config.time_limit_s)
    cells: list[tuple[int, str, PoolingInstance, str, bool, float, float | None]] = []
    idx = 0
    for name, inst in config.instances:
        prep = 0.0
        work, upd = inst, None
        if config.obbt:
            t0 = time.perf_counter()
            try:
                upd = _cached_obbt(inst, config.bounds_cache,
                                   config.obbt_workers, params)
                work = apply_bounds(inst, upd)
            except TighteningError:
                upd = None   # the cells say obbt=0: this instance is not tightened
            prep = time.perf_counter() - t0
        ref = exact_value(inst, params, use_obbt=upd is not None,
                          workers=config.obbt_workers, first_update=upd)
        reference = ref.value if ref.value is not None else None
        for method in config.methods:
            cells.append((idx, name, work, method, upd is not None, prep, reference))
            idx += 1

    def run(cell):
        i, name, work, method, tightened, prep, reference = cell
        return i, run_cell(name, work, method, tightened, prep, reference, params)

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            out = list(pool.map(run, cells))
    else:
        out = [run(c) for c in cells]
    out.sort(key=lambda pair: pair[0])
    return [rec for _, rec in out]


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
