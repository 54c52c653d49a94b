"""Bound tightening: optimization-based (OBBT) over an LP relaxation, and
the single-pass structural tightening for time-indexed mining instances.

Both produce BoundUpdate objects whose intervals are intersected into the
instance by apply_bounds; updates never widen an interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .formulations import fvar, throughput
from .instances import (POOL, SOURCE_BASIS, TERMINAL, TERMINAL_BASIS,
                        InconsistencyError, PoolingInstance)
from .modelir import INF
from .relaxations import build_method, parse_method
from .solver import (INFEASIBLE, OPTIMAL, TIME_LIMIT, Budget, Session,
                     SolveParams, compile_model, solve)

UNCHANGED = "unchanged"
# the restriction whose value bounds the objective box of default_obbt_recipe
RECIPE_RESTRICTION = "G1:T:H=3"
# the LP relaxation default_obbt_recipe's OBBT pass runs over
RECIPE_RELAXATION = "F4:T"
# names the recipe in bounds-cache file names: G1:T:H=3 on the k/7 grid
# above, OBBT over F4:T; a change to the recipe must change it
RECIPE_LABEL = "g1t3grid7+obbt(F4:T)"


class TighteningError(RuntimeError):
    pass


@dataclass
class BoundUpdate:
    node_bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    arc_bounds: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    ghost_bounds: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)
    z_box: tuple[float, float] | None = None

    def record(self, kind: str, key, old: tuple[float, float],
               new: tuple[float, float], tag: str, slack: float = 0.0) -> None:
        lo = max(old[0], new[0] - slack)
        hi = min(old[1], new[1] + slack)
        label = f"{kind}:{key}"
        if hi < lo:
            raise TighteningError(f"empty interval for {label} from {tag}: "
                                  f"{old} meets {new}")
        target = {"node": self.node_bounds, "arc": self.arc_bounds,
                  "ghost": self.ghost_bounds}[kind]
        changed = lo > old[0] + 1e-12 or hi < old[1] - 1e-12
        target[key] = (lo, hi) if changed else old
        self.provenance[label] = tag if changed else UNCHANGED

    def to_json(self) -> str:
        return json.dumps({
            "nodes": {k: v for k, v in self.node_bounds.items()},
            "arcs": {f"{a}->{b}": v for (a, b), v in self.arc_bounds.items()},
            "ghosts": {f"{a}->{b}": v for (a, b), v in self.ghost_bounds.items()},
            "provenance": self.provenance,
            "z_box": self.z_box,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BoundUpdate":
        data = json.loads(text)

        def unkey(d):
            return {tuple(k.split("->")): tuple(v) for k, v in d.items()}

        upd = cls(node_bounds={k: tuple(v) for k, v in data["nodes"].items()},
                  arc_bounds=unkey(data["arcs"]),
                  ghost_bounds=unkey(data["ghosts"]),
                  provenance=data["provenance"],
                  z_box=tuple(data["z_box"]) if data.get("z_box") else None)
        return upd


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

    The sweep is sequential on one ``Session``: the relaxation is passed to
    HiGHS once, and each target solve changes only the costs and starts
    from the previous basis.  ``workers`` has no effect."""
    if z_lb > z_ub:
        raise TighteningError(f"invalid objective box [{z_lb}, {z_ub}]")
    spec = parse_method(relax)
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
    # the least value of each side at the points seen, and each side's
    # distance to its old bound at the last of them (0 before the first)
    seen = np.full(2 * n, INF)
    gap = np.zeros(2 * n)

    def see(res) -> None:
        nonlocal gap
        if res.status == OPTIMAL and res.point is not None:
            values = S @ res.point
            np.minimum(seen, values, out=seen)
            gap = (values - b) / width

    see(base)
    scale = max([1.0] + [abs(a.u) for a in inst.arcs.values() if math.isfinite(a.u)])
    slack = 1e-6 * scale
    # a proven lower bound on min S[k] @ x per side (dual_bound is set only
    # for an LP at OPTIMAL or from a MIP's dual bound); a side left unsolved
    # stays unproven, as a solve that proves nothing
    proven: list[float | None] = [None] * (2 * n)
    pending = np.ones(2 * n, dtype=bool)
    while not budget.spent:
        pending &= seen > b + slack / 2
        if not pending.any():
            break
        k = _nearest_side(pending, gap)
        pending[k] = False
        res = session.solve(budget.params(), S[k])
        see(res)
        proven[k] = res.dual_bound

    upd = BoundUpdate(z_box=(z_lb, z_ub))
    for row, ((kind, key), old) in enumerate(zip(targets, olds)):
        lo, hi = proven[row], proven[n + row]
        lo = 0.0 if lo is None else max(lo, 0.0)
        hi = INF if hi is None else -hi
        tag = "obbt-min" if lo > old[0] + slack else (
            "obbt-max" if hi < old[1] - slack else UNCHANGED)
        if lo > old[0] + slack and hi < old[1] - slack:
            tag = "obbt-min-max"
        upd.record(kind, key, old, (lo, hi), tag, slack=slack)
    return upd


def default_obbt_recipe(inst: PoolingInstance, params: SolveParams | None = None
                        ) -> BoundUpdate:
    """The benchmark recipe: one OBBT pass over the terminal-basis
    row-column LP relaxation (``RECIPE_RELAXATION``, F4:T) with the
    objective at most the value of the H=3 terminal restriction on the
    commodity proportions (``RECIPE_RESTRICTION``, G1:T:H=3).  The update's
    ``z_box`` is that box.  It has no lower end: F4:T, the MCF:T backbone
    plus rows, already implies the MCF:T bound.

    The restriction's incumbent is a feasible point, so it bounds from
    above even when the solve stops at the time limit; without one the box
    is unbounded.  ``params.time_limit_s`` is the budget of the whole
    recipe.  A budget spent before the first solve raises TighteningError,
    as does a sweep whose base solve runs out of time (see ``obbt``): the
    update would tighten nothing."""
    budget = Budget(params)
    if budget.spent:
        raise TighteningError("the OBBT recipe has no time to run")
    res = solve(build_method(inst, parse_method(RECIPE_RESTRICTION)).model,
                budget.params())
    z_ub = INF if res.objective is None else res.objective
    return obbt(inst, RECIPE_RELAXATION, -INF, z_ub, params=budget.params())


# -- mining single pass ----------------------------------------------------------------

def _time_of(nid: str) -> float:
    """A node's time tag in the converter's id scheme 'kind:pile:time'."""
    tag = nid.rsplit(":", 1)[1]
    return INF if tag == "inf" else float(tag)


def mining_tighten(inst: PoolingInstance) -> BoundUpdate:
    """Single pass over the converter's graph in the fixed step order.

    Steps 3 and 4 read the pre-pass pool capacities; step 5 then overwrites
    every pool's bounds with the sums of its incoming arc bounds.
    """
    for s in inst.sources:
        if len(inst.out_nbrs[s]) != 1:
            raise InconsistencyError(f"source {s!r} must feed exactly one pool")
    for i in inst.pools:
        n_src = sum(1 for j in inst.in_nbrs[i] if j in inst.sources)
        if n_src > 1:
            raise InconsistencyError(f"pool {i!r} has {n_src} supply arcs")

    upd = BoundUpdate()
    arc_new: dict[tuple[str, str], tuple[float, float]] = {}

    # step 1: supply sources pin their node and arc bounds to the supply
    for s in inst.sources:
        qty = inst.nodes[s].U
        upd.record("node", s, (inst.nodes[s].L, inst.nodes[s].U), (qty, qty),
                   "mining-step-1")
        i = inst.out_nbrs[s][0]
        arc = inst.arcs[(s, i)]
        arc_new[(s, i)] = (qty, qty)
        upd.record("arc", (s, i), (arc.l, arc.u), (qty, qty), "mining-step-1")

    # step 2: terminals pin to their demand
    for t in inst.terminals:
        node = inst.nodes[t]
        upd.record("node", t, (node.L, node.U), (node.U, node.U), "mining-step-2")

    # step 3: pool-to-terminal arcs
    pre_U = {i: inst.nodes[i].U for i in inst.pools}
    pre_L = {i: inst.nodes[i].L for i in inst.pools}
    for (i, t), arc in sorted(inst.arcs.items()):
        if inst.kind(i) != POOL or inst.kind(t) != TERMINAL:
            continue
        others = [p for p in inst.in_nbrs[t] if p != i and p in inst.pools]
        lo = max(inst.nodes[t].L - sum(pre_U[p] for p in others), 0.0)
        hi = min(pre_U[i], inst.nodes[t].U)
        arc_new[(i, t)] = (max(arc.l, lo), min(arc.u, hi))
        upd.record("arc", (i, t), (arc.l, arc.u), (lo, hi), "mining-step-3")

    # step 4: pool-to-pool arcs, capped by the running supply surplus
    supplies = sorted((_time_of(s), inst.nodes[s].U) for s in inst.sources)
    demands = sorted((_time_of(t), inst.nodes[t].U) for t in inst.terminals
                     if not t.endswith(":inf"))

    def surplus_before(tau: float) -> float:
        sup = sum(q for tt, q in supplies if tt < tau)
        dem = sum(q for tt, q in demands if tt < tau)
        return max(sup - dem, 0.0)

    for (i, j), arc in sorted(inst.arcs.items()):
        if inst.kind(i) != POOL or inst.kind(j) != POOL:
            continue
        out_l = sum(arc_new.get((i, t), (inst.arcs[(i, t)].l,))[0]
                    for t in inst.out_nbrs[i] if inst.kind(t) == TERMINAL)
        out_U = sum(inst.nodes[t].U
                    for t in inst.out_nbrs[i] if inst.kind(t) == TERMINAL)
        lo = max(pre_L[i] - out_U, 0.0)
        hi = max(pre_U[i] - out_l, 0.0)
        hi = min(hi, surplus_before(_time_of(j)))
        arc_new[(i, j)] = (max(arc.l, lo), min(arc.u, hi))
        upd.record("arc", (i, j), (arc.l, arc.u), (lo, hi), "mining-step-4")

    # step 5: pool bounds become the sums of their incoming arc bounds
    for i in inst.pools:
        lo = hi = 0.0
        for j in inst.in_nbrs[i]:
            arc = inst.arcs[(j, i)]
            a_lo, a_hi = arc_new.get((j, i), (arc.l, arc.u))
            lo += a_lo
            hi += a_hi
        node = inst.nodes[i]
        upd.record("node", i, (node.L, node.U), (lo, hi), "mining-step-5")
    return upd
