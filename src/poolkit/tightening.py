"""Bound tightening: optimization-based (OBBT) over an LP relaxation, and
the recipe that boxes the objective for it, on any instance, time-indexed
mining instances included.

Both produce BoundUpdate objects whose intervals are intersected into the
instance by apply_bounds; updates never widen an interval.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .formulations import accepts, fvar, throughput
from .instances import SOURCE_BASIS, TERMINAL_BASIS, PoolingInstance, content_hash
from .modelir import INF
from .relaxations import G_KINDS, RESTRICTION_PORTFOLIO, build_method, parse_method
from .solver import (INFEASIBLE, OPTIMAL, REL_TOL, TIME_LIMIT, Budget, Session,
                     SolveParams, compile_model, solve)

UNCHANGED = "unchanged"
# the terminal-basis restrictions default_obbt_recipe solves, in turn; the
# least value they find is the upper end of its objective box
RECIPE_RESTRICTIONS = tuple(label for label in RESTRICTION_PORTFOLIO
                            if parse_method(label).basis == TERMINAL_BASIS)
# the LP relaxation default_obbt_recipe's OBBT pass runs over
RECIPE_RELAXATION = "F4:T"
# names the recipe in bounds-cache file names: G2:T:H=3, then G1:T:H=3,
# both on the k/7 grid and each point checked, the second only while F4:T
# over the first's sweep leaves room, then OBBT over F4:T; a change to the
# recipe must change it
RECIPE_LABEL = "g2t3chk+g1t3chk+stop+grid7+obbt(F4:T)"


def bounds_meet(lower: float | None, upper: float | None) -> bool:
    """Whether a lower and an upper bound on one optimum meet: both known
    and within ``REL_TOL`` relative of each other.  Bounds that cross by
    more than that do not meet: they show a fault, never a proof."""
    return (lower is not None and upper is not None
            and abs(upper - lower) <= REL_TOL * max(1.0, abs(upper)))


class TighteningError(RuntimeError):
    pass


@dataclass
class BoundUpdate:
    node_bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    arc_bounds: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    ghost_bounds: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)
    z_box: tuple[float, float] | None = None
    # the label of the restriction whose point gave z_box's upper end, if any
    z_witness: str = ""

    def record(self, kind: str, key, old: tuple[float, float],
               new: tuple[float, float], slack: float = 0.0) -> None:
        lo = max(old[0], new[0] - slack)
        hi = min(old[1], new[1] + slack)
        label = f"{kind}:{key}"
        if hi < lo:
            raise TighteningError(f"empty interval for {label}: {old} meets {new}")
        target = {"node": self.node_bounds, "arc": self.arc_bounds,
                  "ghost": self.ghost_bounds}[kind]
        target[key] = (lo, hi)
        moved = [side for side, m in (("min", lo > old[0]), ("max", hi < old[1])) if m]
        self.provenance[label] = "obbt-" + "-".join(moved) if moved else UNCHANGED

    def to_json(self) -> str:
        return json.dumps({
            "nodes": {k: v for k, v in self.node_bounds.items()},
            "arcs": {f"{a}->{b}": v for (a, b), v in self.arc_bounds.items()},
            "ghosts": {f"{a}->{b}": v for (a, b), v in self.ghost_bounds.items()},
            "provenance": self.provenance,
            "z_box": self.z_box,
            "z_witness": self.z_witness,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BoundUpdate":
        data = json.loads(text)

        def unkey(d):
            return {tuple(k.split("->")): tuple(v) for k, v in d.items()}

        return cls(node_bounds={k: tuple(v) for k, v in data["nodes"].items()},
                   arc_bounds=unkey(data["arcs"]),
                   ghost_bounds=unkey(data["ghosts"]),
                   provenance=data["provenance"],
                   z_box=tuple(data["z_box"]) if data.get("z_box") else None,
                   z_witness=data.get("z_witness", ""))


def apply_bounds(inst: PoolingInstance, upd: BoundUpdate) -> PoolingInstance:
    """Intersect the update into the instance; empty intervals are errors,
    and so are keys the instance lacks: the update may come from a bounds
    cache, and a ghost key must be a ghost pair of one of the bases."""
    ghosts = inst.ghost_pairs(SOURCE_BASIS) + inst.ghost_pairs(TERMINAL_BASIS)
    known = {"node": inst.nodes, "arc": inst.arcs, "ghost": set(ghosts)}
    met: dict[str, dict] = {}
    for kind, table in (("node", upd.node_bounds), ("arc", upd.arc_bounds),
                        ("ghost", upd.ghost_bounds)):
        met[kind] = {}
        for key, new in table.items():
            if key not in known[kind]:
                raise TighteningError(f"update targets unknown {kind} {key!r}")
            old = inst.interval(kind, key)
            lo, hi = max(old[0], new[0]), min(old[1], new[1])
            if lo > hi:  # a crossing kept as lo > hi would fail every block's box
                raise TighteningError(f"empty interval for {kind} {key}: [{lo}, {hi}]")
            met[kind][key] = (lo, hi)
    return inst.with_bounds(met["node"], met["arc"], met["ghost"])


# -- OBBT ---------------------------------------------------------------------------

def _nearest_side(pending: np.ndarray, gap: np.ndarray) -> int:
    """The pending side with the least ``gap``; ties go to the lower index."""
    candidates = np.flatnonzero(pending)
    return int(candidates[np.argmin(gap[candidates])])


def obbt(inst: PoolingInstance, relax: str, z_lb: float = -INF,
         z_ub: float = INF, workers: int = 1,
         params: SolveParams | None = None) -> BoundUpdate:
    """Min/max each arc flow, ghost flow and node throughput over the LP
    relaxation labelled ``relax`` with the original objective boxed into
    [z_lb, z_ub].

    A bound is taken only from a solve that proves it (an LP that reached
    OPTIMAL, or a MIP dual bound); otherwise that side is left unchanged.
    ``params.time_limit_s`` is the budget of the whole sweep: each solve
    gets the time that remains, and targets not reached keep their bounds.
    A base solve that ends at the time limit raises TighteningError: the
    sweep would then tighten nothing.

    The sweep skips every solve whose answer it already knows (the LP
    filtering of Gleixner, Berthold, Mueller and Weltge, 2017).  Each point
    of a solve that reached OPTIMAL, the base solve's included, is feasible,
    so the least and the greatest value a target has taken at those points
    bound its minimum from above and its maximum from below.  A min solve
    is skipped when that least value is within half the slack of the old
    lower bound, and a max solve likewise at the upper bound: the solve
    would return at most ``old_lo + slack/2``, which ``record`` widens by
    the slack to below ``old_lo``, so the side keeps its old bound and its
    provenance either way.

    Sides that share a cost vector share one solve: a source's throughput
    and its only arc, or a terminal's throughput and its only in-arc, are
    one LP.  The solve of one such side gives its proven value to every
    side of that cost vector, and each records it against its own old
    interval and slack.  A side the filter had already dropped keeps its
    bound as before: the proven value is at most the least value seen,
    which lies within half the slack of that side's old bound.

    The sides left are solved nearest first (the ordering of the same
    paper): the next side is the one whose target lies closest to its old
    bound at the last optimal point, the distance divided by the old
    interval's width (1 where that is infinite or 0), with ties going to min
    sides before max sides and then to the target order (arcs, ghost pairs,
    then nodes).  Before any optimal point every distance counts as 0, so
    the sides go in that tie order.  A near side starts the warm-started
    primal simplex close to its optimum, and its points are the likeliest
    to settle other sides.  The order changes only that path: every bound
    still comes from an LP at OPTIMAL (or a MIP dual bound) over the same
    model, whose optimal value does not depend on the basis it starts
    from, and a side is skipped only as above.

    The sweep is one sequential loop on one ``Session``: the relaxation is
    passed to HiGHS once, each turn reads the last solve's point (the base
    solve's first) and drops the sides it settles, and each target solve
    changes only the costs and starts from the previous basis.  ``workers``
    has no effect.  A restriction label (``G_KINDS``) raises
    TighteningError: its feasible set leaves out feasible points, so bounds
    taken over it could cut off the optimum."""
    if z_lb > z_ub:
        raise TighteningError(f"invalid objective box [{z_lb}, {z_ub}]")
    spec = parse_method(relax)
    if spec.kind in G_KINDS:
        raise TighteningError(f"OBBT needs a relaxation, not the restriction {relax}")
    built = build_method(inst, spec)
    model = built.model
    if model.bilinear:
        raise TighteningError("OBBT requires an LP relaxation")
    if model.objective:
        if math.isfinite(z_lb):
            model.add_row("obbt:z:lo", model.objective, ">=", z_lb)
        if math.isfinite(z_ub):
            model.add_row("obbt:z:hi", model.objective, "<=", z_ub)

    budget = Budget(params)
    cm = compile_model(model)
    session = Session(cm)
    base = session.solve(budget.params())
    if base.status == INFEASIBLE:
        raise TighteningError("relaxation with objective box is infeasible")
    if base.status == TIME_LIMIT:
        raise TighteningError("the base solve of the OBBT sweep ran out of time")

    def expression(kind, key) -> dict[str, float]:
        if kind in ("arc", "ghost"):
            return {fvar(*key): 1.0}
        return throughput(inst, key)

    targets, costs = [], []
    for kind, key in ([("arc", key) for key in sorted(inst.arcs)]
                      + [("ghost", pair) for pair in sorted(inst.ghost_pairs(spec.basis))]
                      + [("node", nid) for nid in sorted(inst.nodes)]):
        c = np.zeros(len(cm.names))
        for v, coeff in expression(kind, key).items():
            if v in cm.index:
                c[cm.index[v]] = coeff
        if c.any():
            targets.append((kind, key))
            costs.append(c)
    # one row of costs per side: a target's min, then (negated) its max;
    # S @ x >= b at every point inside the old intervals
    n = len(targets)
    T = np.array(costs).reshape(n, len(cm.names))
    S = np.vstack([T, -T])
    olds = [inst.interval(kind, key) for kind, key in targets]
    lo_old, hi_old = np.array(olds, dtype=float).reshape(n, 2).T
    b = np.concatenate([lo_old, -hi_old])
    width = np.tile(hi_old - lo_old, 2)
    width[~np.isfinite(width) | (width <= 0)] = 1.0
    scale = max([1.0] + [abs(a.u) for a in inst.arcs.values() if math.isfinite(a.u)])
    slack = 1e-6 * scale
    # the least value of each side at the points seen, and each side's
    # distance to its old bound at the last of them (0 before the first)
    seen = np.full(2 * n, INF)
    gap = np.zeros(2 * n)
    # a proven lower bound on min S[k] @ x per side (dual_bound is set only
    # for an LP at OPTIMAL or from a MIP's dual bound); a side left unsolved
    # stays unproven, as a solve that proves nothing
    proven: list[float | None] = [None] * (2 * n)
    pending = np.ones(2 * n, dtype=bool)
    # sides with identical rows of S (a source's throughput and its only
    # arc) are one LP, labelled by the first of them
    first: dict[bytes, int] = {}
    lp = np.array([first.setdefault(row.tobytes(), k) for k, row in enumerate(S)])
    res = base
    while True:
        if res.status == OPTIMAL and res.point is not None:
            values = S @ res.point
            np.minimum(seen, values, out=seen)
            gap = (values - b) / width
        pending &= seen > b + slack / 2
        if budget.spent or not pending.any():
            break
        k = _nearest_side(pending, gap)
        twins = np.flatnonzero(lp == lp[k])
        pending[twins] = False
        res = session.solve(budget.params(), S[k])
        for j in twins:
            proven[j] = res.dual_bound

    upd = BoundUpdate(z_box=(z_lb, z_ub))
    for row, ((kind, key), old) in enumerate(zip(targets, olds)):
        lo, hi = proven[row], proven[n + row]
        lo = 0.0 if lo is None else max(lo, 0.0)
        hi = INF if hi is None else -hi
        upd.record(kind, key, old, (lo, hi), slack=slack)
    return upd


def default_obbt_recipe(inst: PoolingInstance, params: SolveParams | None = None,
                        cache_dir: str | None = None) -> BoundUpdate:
    """The benchmark recipe: one OBBT pass over the terminal-basis
    row-column LP relaxation (``RECIPE_RELAXATION``, F4:T) with the
    objective at most the least value of the ``RECIPE_RESTRICTIONS``.  The
    update's ``z_box`` is that box, and ``z_witness`` the label of the
    restriction that gave its upper end.  The box has no lower end: F4:T,
    the MCF:T backbone plus rows, already implies the MCF:T bound.

    The restrictions are solved in turn.  A point counts only where its
    value lies below the least found before it and it passes
    ``formulations.accepts`` in the terminal basis.  Each value comes from
    a feasible point, so it bounds from above even when its solve stops at
    the time limit; without any point the box is unbounded.

    After each restriction that lowers the upper end ``z_ub``, the recipe
    runs the sweep at the new box, always from ``inst``, and solves F4:T on
    the instance that sweep tightens.  Where that dual bound meets ``z_ub``
    (``bounds_meet``, the squeeze's rule), no further restriction is
    solved.  A skipped restriction could have lowered ``z_ub`` by at most
    ``REL_TOL`` relative, because:

    - a restriction's point that counts is a feasible point of the
      terminal-basis problem;
    - OBBT keeps every feasible point with objective at most ``z_ub``, so
      each such point lies inside the sweep's bounds;
    - F4:T relaxes that problem over those bounds, so its dual bound is at
      most the point's value.

    The check reads F4:T only: a source-basis bound does not bound the
    terminal-basis problem on instances with pool-pool arcs.  The update is
    the sweep at the final box, the same whether or not a restriction was
    skipped.  ``params.time_limit_s`` is the budget of the whole recipe,
    and a recipe that spends it raises TighteningError: the update may be
    cut short.

    With ``cache_dir``, the update is read from, or else written to, the
    file ``{content_hash(inst)}-{RECIPE_LABEL}.json`` there.  The name
    records no time limit, which is why an update cut short is never
    written.  The file is written to a temporary file beside it and moved
    into place, so a run killed while writing leaves no torn file; a file
    that ``BoundUpdate.from_json`` cannot read, or that does not fit
    ``inst`` (``apply_bounds``), counts as a miss and is replaced."""
    path = None
    if cache_dir:
        path = pathlib.Path(cache_dir) / f"{content_hash(inst)}-{RECIPE_LABEL}.json"
        try:
            cached = BoundUpdate.from_json(path.read_text())
            apply_bounds(inst, cached)
            return cached
        except (FileNotFoundError, ValueError, KeyError, TypeError, TighteningError):
            pass
    budget = Budget(params)
    if budget.spent:
        raise TighteningError("the OBBT recipe has no time to run")
    relaxation = parse_method(RECIPE_RELAXATION)

    def sweep(z_ub: float) -> BoundUpdate:
        return obbt(inst, RECIPE_RELAXATION, -INF, z_ub, params=budget.params())

    z_ub, witness, upd = INF, "", None
    for label in RECIPE_RESTRICTIONS:
        if upd is not None:
            lower = solve(build_method(apply_bounds(inst, upd), relaxation).model,
                          budget.params()).dual_bound
            if bounds_meet(lower, z_ub):
                break
        res = solve(build_method(inst, parse_method(label)).model, budget.params())
        if (res.objective is not None and res.objective < z_ub
                and accepts(inst, TERMINAL_BASIS, res.assignment)):
            z_ub, witness = res.objective, label
            upd = sweep(z_ub)
    if upd is None:
        upd = sweep(z_ub)
    upd.z_witness = witness
    if budget.spent:
        raise TighteningError("the OBBT recipe ran out of time")
    if path:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "w") as f:
                f.write(upd.to_json())
            os.replace(tmp, path)
        finally:
            pathlib.Path(tmp).unlink(missing_ok=True)   # gone after the replace
    return upd

