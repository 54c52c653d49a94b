"""Pooling-network data model, JSON parsing, generalization and the
time-indexed (mining) schedule converter.

Instances are immutable after construction; all derived sets (reachable
sources S_i, reachable terminals T_i, adjacency, commodity in-neighbor
sets) are computed once in __post_init__ and shared freely.  The one
mutable field, ``backbones``, is formulations' cache of the model backbone
of each basis, which depends on nothing but the instance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

INF = math.inf

SOURCE, POOL, TERMINAL = "source", "pool", "terminal"
_KINDS = (SOURCE, POOL, TERMINAL)

# the source basis decomposes a pool's flow by originating source, the
# terminal basis by final destination: the commodity pairs are (s, i) with s
# in S_i, or (i, t) with t in T_i
SOURCE_BASIS, TERMINAL_BASIS = "source", "terminal"


class SchemaError(ValueError):
    """Instance / schedule file does not match the documented schema."""


class InconsistencyError(ValueError):
    """Structurally valid file with inconsistent content (l > u, unknown
    node, unreachable pool, ...)."""


@dataclass(frozen=True)
class Node:
    id: str
    kind: str
    L: float = 0.0
    U: float = INF


@dataclass(frozen=True)
class Arc:
    tail: str
    head: str
    l: float = 0.0
    u: float = INF
    cost: float = 0.0

    @property
    def key(self) -> tuple[str, str]:
        return (self.tail, self.head)


def _reached_from(ends, nbrs: dict[str, list[str]], nodes) -> dict[str, tuple[str, ...]]:
    """For every node, the ends from which a walk along nbrs reaches it."""
    found: dict[str, set[str]] = {n: set() for n in nodes}
    for e in ends:
        seen, stack = {e}, [e]
        while stack:
            cur = stack.pop()
            for nxt in nbrs[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        for n in seen - {e}:
            found[n].add(e)
    return {n: tuple(sorted(v)) for n, v in found.items()}


@dataclass(frozen=True)
class PoolingInstance:
    name: str
    nodes: dict[str, Node]
    arcs: dict[tuple[str, str], Arc]
    n_specs: int
    lam: dict[str, tuple[float, ...]]            # source -> spec vector
    mu_lo: dict[str, tuple[float, ...]]          # terminal -> lower windows
    mu_hi: dict[str, tuple[float, ...]]          # terminal -> upper windows
    penalty: dict[str, tuple[float, ...]] = field(default_factory=dict)
    ghost_bounds: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)

    # derived, filled in __post_init__
    sources: tuple[str, ...] = field(init=False, default=())
    pools: tuple[str, ...] = field(init=False, default=())
    terminals: tuple[str, ...] = field(init=False, default=())
    out_nbrs: dict[str, tuple[str, ...]] = field(init=False, default_factory=dict)
    in_nbrs: dict[str, tuple[str, ...]] = field(init=False, default_factory=dict)
    S_i: dict[str, tuple[str, ...]] = field(init=False, default_factory=dict)
    T_i: dict[str, tuple[str, ...]] = field(init=False, default_factory=dict)
    # formulations' backbone per basis, filled on first use; it lives and
    # dies with this instance, and every instance made from it starts empty
    # (``replace`` does not copy an init=False field)
    backbones: dict = field(init=False, default_factory=dict, repr=False,
                            compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sources",
                           tuple(sorted(n for n, v in self.nodes.items() if v.kind == SOURCE)))
        object.__setattr__(self, "pools",
                           tuple(sorted(n for n, v in self.nodes.items() if v.kind == POOL)))
        object.__setattr__(self, "terminals",
                           tuple(sorted(n for n, v in self.nodes.items() if v.kind == TERMINAL)))
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        inn: dict[str, list[str]] = {n: [] for n in self.nodes}
        for (t, h) in self.arcs:
            if t in out and h in inn:  # dangling arcs are reported by validate()
                out[t].append(h)
                inn[h].append(t)
        object.__setattr__(self, "out_nbrs",
                           {n: tuple(sorted(v)) for n, v in out.items()})
        object.__setattr__(self, "in_nbrs",
                           {n: tuple(sorted(v)) for n, v in inn.items()})
        # forward reachability from each source / backward from each terminal
        object.__setattr__(self, "S_i", _reached_from(self.sources, out, self.nodes))
        object.__setattr__(self, "T_i", _reached_from(self.terminals, inn, self.nodes))

    # -- queries ----------------------------------------------------------------

    def kind(self, n: str) -> str:
        return self.nodes[n].kind

    def ghost_pairs(self, basis: str = SOURCE_BASIS) -> list[tuple[str, str]]:
        """The basis's commodity pairs that have no physical arc."""
        if basis == SOURCE_BASIS:
            pairs = [(s, i) for i in self.pools for s in self.S_i[i]]
        elif basis == TERMINAL_BASIS:
            pairs = [(i, t) for i in self.pools for t in self.T_i[i]]
        else:
            raise ValueError(f"unknown basis {basis!r}")
        return [pair for pair in pairs if pair not in self.arcs]

    def pair_pool(self, pair: tuple[str, str]) -> str:
        """The pool end of a commodity pair (s, i) or (i, t)."""
        return pair[1] if self.nodes[pair[1]].kind == POOL else pair[0]

    def ghost_bound(self, pair: tuple[str, str], pool: str) -> tuple[float, float]:
        if pair in self.ghost_bounds:
            return self.ghost_bounds[pair]
        return (0.0, self.nodes[pool].U)

    def interval(self, kind: str, key) -> tuple[float, float]:
        """The bounds of a "node" (L, U), an "arc" (l, u) or a "ghost"
        commodity pair: the total flow of a commodity at its pool, bounded by
        the physical arc's interval when the arc exists, otherwise by the
        ghost interval."""
        if kind == "node":
            node = self.nodes[key]
            return (node.L, node.U)
        if kind == "arc" or key in self.arcs:
            arc = self.arcs[key]
            return (arc.l, arc.u)
        return self.ghost_bound(key, self.pair_pool(key))

    def characteristics(self) -> dict[str, int]:
        """Node/arc counts; 'core' counts exclude the surplus machinery that
        the mining converter appends (ids carrying the 'inf' time tag)."""
        def is_surplus(n: str) -> bool:
            return n.endswith(":inf")

        core_nodes = {n for n in self.nodes if not is_surplus(n)}
        core_arcs = [(a, b) for (a, b) in self.arcs
                     if a in core_nodes and b in core_nodes]
        asi = sum(1 for (a, b) in core_arcs
                  if self.kind(a) == SOURCE and self.kind(b) == POOL)
        aii = sum(1 for (a, b) in core_arcs
                  if self.kind(a) == POOL and self.kind(b) == POOL)
        ait = sum(1 for (a, b) in core_arcs
                  if self.kind(a) == POOL and self.kind(b) == TERMINAL)
        return {
            "S": sum(1 for n in core_nodes if self.kind(n) == SOURCE),
            "I": sum(1 for n in core_nodes if self.kind(n) == POOL),
            "T": sum(1 for n in core_nodes if self.kind(n) == TERMINAL),
            "A": len(core_arcs),
            "K": self.n_specs,
            "ASI": asi, "AII": aii, "AIT": ait,
        }

    def with_bounds(self, node_bounds: dict[str, tuple[float, float]],
                    arc_bounds: dict[tuple[str, str], tuple[float, float]],
                    ghost_bounds: dict[tuple[str, str], tuple[float, float]]) -> "PoolingInstance":
        nodes = dict(self.nodes)
        for n, (lo, hi) in node_bounds.items():
            nodes[n] = replace(nodes[n], L=lo, U=hi)
        arcs = dict(self.arcs)
        for k, (lo, hi) in arc_bounds.items():
            arcs[k] = replace(arcs[k], l=lo, u=hi)
        return replace(self, nodes=nodes, arcs=arcs,
                       ghost_bounds={**self.ghost_bounds, **ghost_bounds})


def _bad_interval(lo: float, hi: float) -> bool:
    """Not 0 <= lo <= hi with lo finite; JSON's NaN and Infinity parse."""
    return not 0 <= lo <= hi or lo == INF  # a NaN end fails the chain


def validate(inst: PoolingInstance) -> PoolingInstance:
    for n, node in inst.nodes.items():
        if node.kind not in _KINDS:
            raise SchemaError(f"node {n!r}: unknown kind {node.kind!r}")
        if _bad_interval(node.L, node.U):
            raise InconsistencyError(f"node {n!r}: bad capacity [{node.L}, {node.U}]")
    for (t, h), arc in inst.arcs.items():
        if t not in inst.nodes or h not in inst.nodes:
            raise InconsistencyError(f"arc ({t}, {h}) references unknown node")
        if _bad_interval(arc.l, arc.u):
            raise InconsistencyError(f"arc ({t}, {h}): bad interval [{arc.l}, {arc.u}]")
        if not math.isfinite(arc.cost):
            raise InconsistencyError(f"arc ({t}, {h}): cost {arc.cost} is not finite")
        kt, kh = inst.kind(t), inst.kind(h)
        if kt == TERMINAL or kh == SOURCE or (kt == POOL and kh == SOURCE):
            raise InconsistencyError(f"arc ({t}, {h}): {kt} -> {kh} not allowed")
    for s in inst.sources:
        lam = inst.lam.get(s, ())
        if len(lam) != inst.n_specs:
            raise SchemaError(f"source {s!r}: spec vector missing or wrong length")
        if not all(map(math.isfinite, lam)):
            raise InconsistencyError(f"source {s!r}: spec vector {lam} is not finite")
    for t in inst.terminals:
        lo = inst.mu_lo.get(t, tuple([0.0] * inst.n_specs))
        hi = inst.mu_hi.get(t, tuple([INF] * inst.n_specs))
        if len(lo) != inst.n_specs or len(hi) != inst.n_specs:
            raise SchemaError(f"terminal {t!r}: spec window has wrong length")
        # mu_hi may be +inf, no upper side; a NaN end fails a <= b
        if not all(a <= b and math.isfinite(a) for a, b in zip(lo, hi)):
            raise InconsistencyError(f"terminal {t!r}: empty spec window [{lo}, {hi}], "
                                     "or a NaN or infinite lower end")
    for t, weights in inst.penalty.items():
        if len(weights) != inst.n_specs:
            raise SchemaError(f"penalty on {t!r}: vector has wrong length")
        if t not in inst.terminals or not all(0 <= w < INF for w in weights):  # NaN fails
            raise InconsistencyError(f"penalty on {t!r}: not a terminal, or a weight of "
                                     f"{weights} not finite and >= 0")
    for p in inst.pools:
        if not inst.S_i[p] or not inst.T_i[p]:
            raise InconsistencyError(f"pool {p!r} is unreachable (no source path "
                                     "or no terminal path)")
    if inst.ghost_bounds:  # parsing a file without them pays nothing
        ghosts = inst.ghost_pairs(SOURCE_BASIS) + inst.ghost_pairs(TERMINAL_BASIS)
        for pair, (lo, hi) in inst.ghost_bounds.items():
            if pair not in ghosts:
                raise InconsistencyError(f"ghost bound on {pair}: not a ghost pair")
            if _bad_interval(lo, hi):
                raise InconsistencyError(f"ghost bound on {pair}: bad interval [{lo}, {hi}]")
    return inst


# -- JSON parsing ---------------------------------------------------------------

def _num(value, default):
    if value is None:
        return default
    return float(value)


def parse_instance_dict(data: dict, name: str = "instance") -> PoolingInstance:
    try:
        nodes_raw = data["nodes"]
        arcs_raw = data["arcs"]
        specs = data.get("specs", {})
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"missing top-level field: {exc}") from exc
    nodes: dict[str, Node] = {}
    for nd in nodes_raw:
        try:
            nid, kind = str(nd["id"]), str(nd["kind"])
        except KeyError as exc:
            raise SchemaError(f"node entry missing field {exc}") from exc
        if nid in nodes:
            raise InconsistencyError(f"duplicate node id {nid!r}")
        nodes[nid] = Node(nid, kind, _num(nd.get("L"), 0.0), _num(nd.get("U"), INF))
    arcs: dict[tuple[str, str], Arc] = {}
    for ar in arcs_raw:
        try:
            t, h = str(ar["from"]), str(ar["to"])
        except KeyError as exc:
            raise SchemaError(f"arc entry missing field {exc}") from exc
        if (t, h) in arcs:
            raise InconsistencyError(f"duplicate arc ({t}, {h})")
        arcs[(t, h)] = Arc(t, h, _num(ar.get("l"), 0.0), _num(ar.get("u"), INF),
                           _num(ar.get("cost"), 0.0))
    k = int(specs.get("K", 0))
    lam = {str(s): tuple(float(v) for v in vec)
           for s, vec in specs.get("lambda", {}).items()}
    mu_lo = {str(t): tuple(float(v) for v in vec)
             for t, vec in specs.get("mu_lo", {}).items()}
    mu_hi = {str(t): tuple(_num(v, INF) for v in vec)
             for t, vec in specs.get("mu_hi", {}).items()}
    penalty = {str(t): tuple(float(v) for v in vec)
               for t, vec in data.get("penalty", {}).items()}
    try:
        ghosts = {(str(a), str(b)): (float(lo), _num(hi, INF))
                  for a, b, lo, hi in data.get("ghost_bounds", [])}
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"ghost_bounds entries are [a, b, lo, hi]: {exc}") from exc
    inst = PoolingInstance(str(data.get("name", name)), nodes, arcs, k,
                           lam, mu_lo, mu_hi, penalty, ghosts)
    return validate(inst)


def parse_instance(path) -> PoolingInstance:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    return parse_instance_dict(data, name=str(path))


def generalize(inst: PoolingInstance) -> PoolingInstance:
    """Add both directed arcs between every ordered pool pair (cost 0,
    bounds [0, min(U_i, U_j)]); existing arcs are left untouched."""
    arcs = dict(inst.arcs)
    for i in inst.pools:
        for j in inst.pools:
            if i != j and (i, j) not in arcs:
                cap = min(inst.nodes[i].U, inst.nodes[j].U)
                arcs[(i, j)] = Arc(i, j, 0.0, cap, 0.0)
    return validate(replace(inst, arcs=arcs))


# -- mining schedules -------------------------------------------------------------

@dataclass(frozen=True)
class Supply:
    stockpile: str
    time: float
    qty: float
    spec: tuple[float, ...]


@dataclass(frozen=True)
class Demand:
    time: float
    qty: float
    spec_max: tuple[float, ...]
    penalty: tuple[float, ...]


@dataclass(frozen=True)
class MiningSchedule:
    stockpiles: tuple[str, ...]
    supplies: tuple[Supply, ...]
    demands: tuple[Demand, ...]

    @property
    def n_specs(self) -> int:
        return len(self.supplies[0].spec) if self.supplies else 0

    def surplus(self) -> float:
        return sum(s.qty for s in self.supplies) - sum(d.qty for d in self.demands)


def parse_mining_dict(data: dict) -> MiningSchedule:
    try:
        piles = tuple(str(p) for p in data["stockpiles"])
        supplies = tuple(Supply(str(s["stockpile"]), float(s["time"]),
                                float(s["qty"]), tuple(float(v) for v in s["spec"]))
                         for s in data["supplies"])
        demands = tuple(Demand(float(d["time"]), float(d["qty"]),
                               tuple(float(v) for v in d["spec_max"]),
                               tuple(float(v) for v in d.get("penalty",
                                     [1.0] * len(d["spec_max"]))))
                        for d in data["demands"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"mining schedule: missing field {exc}") from exc
    sched = MiningSchedule(piles, supplies, demands)
    for s in supplies:
        if s.stockpile not in piles:
            raise InconsistencyError(f"supply references unknown stockpile {s.stockpile!r}")
        if s.qty < 0:
            raise InconsistencyError("negative supply quantity")
    times = [s.time for s in supplies]
    if len(set((s.stockpile, s.time) for s in supplies)) != len(times):
        raise InconsistencyError("duplicate supply time within a stockpile")
    for d in demands:
        if d.qty < 0:
            raise InconsistencyError("negative demand quantity")
    if sched.surplus() < 0:
        raise InconsistencyError("total demand exceeds total supply")
    k = sched.n_specs
    if any(len(s.spec) != k for s in supplies) or any(len(d.spec_max) != k for d in demands):
        raise SchemaError("inconsistent spec vector lengths")
    return sched


def parse_mining(path) -> MiningSchedule:
    with open(path) as f:
        data = json.load(f)
    return parse_mining_dict(data)


def _tag(time: float) -> str:
    return f"{time:g}"


def convert_mining(sched: MiningSchedule,
                   default_penalty: float = 1.0) -> PoolingInstance:
    """Time-indexed pooling instance: one source+pool per supply, a pool
    chain per stockpile ending in a surplus pool, one terminal per demand
    (fed by each stockpile's latest pool) and one surplus terminal."""
    if sched.surplus() < 0:
        raise InconsistencyError("total demand exceeds total supply")
    k = sched.n_specs
    nodes: dict[str, Node] = {}
    arcs: dict[tuple[str, str], Arc] = {}
    lam: dict[str, tuple[float, ...]] = {}
    mu_lo: dict[str, tuple[float, ...]] = {}
    mu_hi: dict[str, tuple[float, ...]] = {}
    penalty: dict[str, tuple[float, ...]] = {}

    by_pile: dict[str, list[Supply]] = {p: [] for p in sched.stockpiles}
    for s in sched.supplies:
        by_pile[s.stockpile].append(s)
    for p in by_pile:
        by_pile[p].sort(key=lambda s: s.time)

    total_supply = sum(s.qty for s in sched.supplies)

    # supply sources and their pools; pool capacity starts at the cumulative
    # supply that can have reached it
    pool_of: dict[tuple[str, float], str] = {}
    for pile, sups in by_pile.items():
        if not sups:
            continue
        cum = 0.0
        for s in sups:
            cum += s.qty
            sid = f"s:{pile}:{_tag(s.time)}"
            pid = f"i:{pile}:{_tag(s.time)}"
            nodes[sid] = Node(sid, SOURCE, s.qty, s.qty)
            nodes[pid] = Node(pid, POOL, 0.0, cum)
            lam[sid] = s.spec
            arcs[(sid, pid)] = Arc(sid, pid, 0.0, s.qty, 0.0)
            pool_of[(pile, s.time)] = pid
        # chain within the stockpile, ending in the surplus pool
        surplus_pool = f"i:{pile}:inf"
        nodes[surplus_pool] = Node(surplus_pool, POOL, 0.0, cum)
        chain = [pool_of[(pile, s.time)] for s in sups] + [surplus_pool]
        for a, b in zip(chain, chain[1:]):
            arcs[(a, b)] = Arc(a, b, 0.0, cum, 0.0)

    # demand terminals, fed by the latest pool of each stockpile at that time
    demands = sorted(sched.demands, key=lambda d: d.time)
    for d in demands:
        tid = f"t:{_tag(d.time)}"
        if tid in nodes:
            raise InconsistencyError(f"duplicate demand time {d.time}")
        nodes[tid] = Node(tid, TERMINAL, d.qty, d.qty)
        mu_lo[tid] = tuple([0.0] * k)
        mu_hi[tid] = d.spec_max
        penalty[tid] = tuple(w if w > 0 else default_penalty for w in d.penalty)
        for pile, sups in by_pile.items():
            current = None
            for s in sups:
                if s.time <= d.time:
                    current = pool_of[(pile, s.time)]
            if current is not None:
                cap = nodes[current].U
                arcs[(current, tid)] = Arc(current, tid, 0.0, min(cap, d.qty), 0.0)

    # surplus terminal takes everything that is not demanded
    surplus = sched.surplus()
    tsur = "t:inf"
    nodes[tsur] = Node(tsur, TERMINAL, surplus, surplus)
    mu_lo[tsur] = tuple([0.0] * k)
    mu_hi[tsur] = tuple([INF] * k)
    for pile in sched.stockpiles:
        sp = f"i:{pile}:inf"
        if sp in nodes:
            arcs[(sp, tsur)] = Arc(sp, tsur, 0.0, nodes[sp].U, 0.0)

    inst = PoolingInstance("mining", nodes, arcs, k, lam, mu_lo, mu_hi, penalty)
    return validate(inst)


def to_dict(inst: PoolingInstance) -> dict:
    """Plain-JSON form of an instance (inverse of parse_instance_dict).  The
    ghost intervals enter, as [a, b, lo, hi], only when there are any, so an
    instance without them keeps its form and its content_hash.  Every bound,
    cost and spec number is written as a float, as parsing reads it, so
    equal instances have one form whether their numbers are ints or not."""
    def clean(v):
        return None if math.isinf(v) else float(v)

    data = {
        "name": inst.name,
        "nodes": [{"id": n.id, "kind": n.kind, "L": float(n.L), "U": clean(n.U)}
                  for n in sorted(inst.nodes.values(), key=lambda n: n.id)],
        "arcs": [{"from": a.tail, "to": a.head, "l": float(a.l), "u": clean(a.u),
                  "cost": float(a.cost)}
                 for a in sorted(inst.arcs.values(), key=lambda a: a.key)],
        "specs": {
            "K": inst.n_specs,
            "lambda": {s: list(map(float, v)) for s, v in sorted(inst.lam.items())},
            "mu_lo": {t: list(map(float, v)) for t, v in sorted(inst.mu_lo.items())},
            "mu_hi": {t: [clean(x) for x in v]
                      for t, v in sorted(inst.mu_hi.items())},
        },
        "penalty": {t: list(map(float, v)) for t, v in sorted(inst.penalty.items())},
    }
    if inst.ghost_bounds:
        data["ghost_bounds"] = [[*pair, float(lo), clean(hi)]
                                for pair, (lo, hi) in sorted(inst.ghost_bounds.items())]
    return data


def content_hash(inst: PoolingInstance) -> str:
    """Stable digest of the instance content (bounds-cache keying)."""
    import hashlib

    blob = json.dumps(to_dict(inst), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
