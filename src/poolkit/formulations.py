"""Exact bilinear multi-commodity flow models and their shared machinery.

Two bases are supported: the source basis decomposes each pool's outgoing
flow by originating source; the terminal basis decomposes incoming flow by
final destination.  Both carry the network/capacity/specification backbone;
the bilinear proportion constraints are attached only for exact models.  The
backbone alone is the multi-commodity-flow (MCF) relaxation, which
relaxations.build_method builds for the MCF labels.  Each instance keeps
the backbone of each basis once built, and every model starts from a copy
of it (``backbone``).

Variable naming (deterministic, used by dumps and tests):
    f[a,b]      arc flow, physical arcs and commodity ghost pairs
    x[a,b,c]    decomposed flow on physical arc (a,b) for commodity c
    q[i,c]      proportion of commodity c at pool i
    v[t,k]      soft-specification violation at terminal t, spec k
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .instances import SOURCE, SOURCE_BASIS, TERMINAL_BASIS, PoolingInstance
from .modelir import GE, INF, LE, ModelIR
from .rank1 import BoundBox, make_box, rank_residual


def fvar(a: str, b: str) -> str:
    return f"f[{a},{b}]"


def xvar(a: str, b: str, c: str) -> str:
    return f"x[{a},{b},{c}]"


def qvar(i: str, c: str) -> str:
    return f"q[{i},{c}]"


def vvar(t: str, k: int, side: str) -> str:
    return f"v[{t},{k},{side}]"


def _arc(basis: str, pool: str, j: str) -> tuple[str, str]:
    """The arc between a pool and a node j on its decomposed side; for a
    commodity c, _arc(basis, c, pool) is its commodity pair."""
    return (pool, j) if basis == SOURCE_BASIS else (j, pool)


@dataclass(frozen=True)
class PoolBlock:
    """One pool's decomposed-flow matrix: rows are commodities, columns are
    the physical arcs of the decomposed side."""

    pool: str
    basis: str
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    box: BoundBox

    def var(self, r: int, c: int) -> str:
        return xvar(*_arc(self.basis, self.pool, self.col_ids[c]), self.row_ids[r])

    def values(self, assignment: dict[str, float]) -> np.ndarray:
        out = np.zeros((len(self.row_ids), len(self.col_ids)))
        for r in range(len(self.row_ids)):
            for c in range(len(self.col_ids)):
                out[r, c] = assignment.get(self.var(r, c), 0.0)
        return out


@dataclass
class BilinearModel:
    model: ModelIR
    basis: str
    inst: PoolingInstance
    blocks: list[PoolBlock] = field(default_factory=list)


def _commodities(inst: PoolingInstance, basis: str, pool: str) -> tuple[str, ...]:
    return inst.S_i[pool] if basis == SOURCE_BASIS else inst.T_i[pool]


def _decomposed_arcs(inst: PoolingInstance, basis: str, pool: str) -> tuple[str, ...]:
    return inst.out_nbrs[pool] if basis == SOURCE_BASIS else inst.in_nbrs[pool]


def _upstream(inst: PoolingInstance, basis: str, pool: str) -> tuple[str, ...]:
    return inst.in_nbrs[pool] if basis == SOURCE_BASIS else inst.out_nbrs[pool]


def _build_blocks(inst: PoolingInstance, basis: str) -> list[PoolBlock]:
    blocks = []
    for i in inst.pools:
        rows = tuple(sorted(_commodities(inst, basis, i)))
        cols = tuple(sorted(_decomposed_arcs(inst, basis, i)))
        if not rows or not cols:
            continue
        l, u, lp, up = [], [], [], []
        for c in rows:
            lo, hi = inst.interval("ghost", _arc(basis, c, i))
            l.append(lo)
            u.append(hi)
        for j in cols:
            lo, hi = inst.interval("arc", _arc(basis, i, j))
            lp.append(lo)
            up.append(hi)
        node = inst.nodes[i]
        blocks.append(PoolBlock(i, basis, rows, cols,
                                make_box(l, u, lp, up, node.L, node.U)))
    return blocks


def throughput(inst: PoolingInstance, nid: str) -> dict[str, float]:
    """A node's throughput: the flows out of a source, into any other node."""
    if inst.kind(nid) == SOURCE:
        return {fvar(nid, j): 1.0 for j in inst.out_nbrs[nid]}
    return {fvar(j, nid): 1.0 for j in inst.in_nbrs[nid]}


def build_backbone(inst: PoolingInstance, basis: str) -> BilinearModel:
    """Everything except the bilinear proportion constraints (pure LP)."""
    model = ModelIR(f"{inst.name}:{basis}:mcf")

    for arc in inst.arcs.values():
        model.add_var(fvar(arc.tail, arc.head), arc.l, arc.u)
    for pair in inst.ghost_pairs(basis):
        lo, hi = inst.interval("ghost", pair)
        model.add_var(fvar(*pair), lo, hi)

    # objective: arc costs, and below the penalty of each soft violation
    obj: dict[str, float] = {}
    for arc in inst.arcs.values():
        if arc.cost != 0.0:
            obj[fvar(arc.tail, arc.head)] = obj.get(fvar(arc.tail, arc.head), 0.0) + arc.cost

    # decomposed flows on physical arcs of the decomposed side
    for i in inst.pools:
        for j in _decomposed_arcs(inst, basis, i):
            arc = inst.arcs[_arc(basis, i, j)]
            for c in _commodities(inst, basis, i):
                model.add_var(xvar(arc.tail, arc.head, c), 0.0,
                              arc.u if math.isfinite(arc.u) else INF)

    # node capacities
    for nid, node in inst.nodes.items():
        expr = throughput(inst, nid)
        if expr:
            model.add_range(f"cap[{nid}]", expr, node.L, node.U)

    # flow decomposition on each decomposed physical arc
    for i in inst.pools:
        for j in _decomposed_arcs(inst, basis, i):
            a, b = _arc(basis, i, j)
            coeffs = {xvar(a, b, c): 1.0 for c in _commodities(inst, basis, i)}
            coeffs[fvar(a, b)] = coeffs.get(fvar(a, b), 0.0) - 1.0
            model.add_row(f"dec[{a},{b}]", coeffs, "==", 0.0)

    # per-commodity balance and ghost/total definitions
    for i in inst.pools:
        for c in _commodities(inst, basis, i):
            pair = _arc(basis, c, i)
            outflow = {xvar(*_arc(basis, i, j), c): 1.0
                       for j in _decomposed_arcs(inst, basis, i)}
            # c's flow on the other side: its own pair, or the arc from a
            # neighbouring pool that carries c too
            inflow: dict[str, float] = {}
            for j in _upstream(inst, basis, i):
                if j == c:
                    inflow[fvar(*pair)] = 1.0
                elif j in inst.pools and c in _commodities(inst, basis, j):
                    inflow[xvar(*_arc(basis, j, i), c)] = 1.0
            bal = dict(outflow)
            for k, v in inflow.items():
                bal[k] = bal.get(k, 0.0) - v
            model.add_row(f"bal[{i},{c}]", bal, "==", 0.0)
            # the commodity total is the pair's flow even where the physical
            # arc exists, so a commodity cannot re-enter the pool through
            # other pools and block row bounds are the arc intervals
            tot = dict(outflow)
            tot[fvar(*pair)] = tot.get(fvar(*pair), 0.0) - 1.0
            model.add_row(f"gho[{i},{c}]", tot, "==", 0.0)

    # specification windows at terminals: the upper side, then the lower, of
    # each window a terminal bounds; a soft side has a violation variable,
    # priced with the terminal's penalty
    for t in inst.terminals:
        inflow_f = [fvar(j, t) for j in inst.in_nbrs[t]]
        if not inflow_f or inst.n_specs == 0:
            continue
        los, his = inst.window(t)
        for k in range(inst.n_specs):
            lam_x: dict[str, float] = {}
            for j in inst.in_nbrs[t]:
                if j in inst.sources:
                    lam_x[fvar(j, t)] = lam_x.get(fvar(j, t), 0.0) + inst.lam[j][k]
                elif basis == SOURCE_BASIS:
                    for s in inst.S_i[j]:
                        lam_x[xvar(j, t, s)] = lam_x.get(xvar(j, t, s), 0.0) + inst.lam[s][k]
            if basis == TERMINAL_BASIS:
                # source material destined for t, counted at its entry pool
                for i in inst.pools:
                    if t not in inst.T_i[i]:
                        continue
                    for s in inst.in_nbrs[i]:
                        if s in inst.sources:
                            lam_x[xvar(s, i, t)] = lam_x.get(xvar(s, i, t), 0.0) + inst.lam[s][k]
            lo, hi = los[k], his[k]
            # each side: its sense, its bound, the sign its violation takes,
            # and whether it bounds anything
            for side, sense, mu, v_coeff, bounded in (
                    ("hi", LE, hi, -1.0, math.isfinite(hi)),
                    ("lo", GE, lo, 1.0, lo > 0)):
                if not bounded:
                    continue
                coeffs = dict(lam_x)
                for var in inflow_f:
                    coeffs[var] = coeffs.get(var, 0.0) - mu
                if t in inst.penalty:
                    vname = model.add_var(vvar(t, k, side))
                    coeffs[vname] = v_coeff
                    obj[vname] = inst.penalty[t][k]
                model.add_row(f"spec_{side}[{t},{k}]", coeffs, sense, 0.0)
    model.set_objective(obj)

    return BilinearModel(model, basis, inst, _build_blocks(inst, basis))


def backbone(inst: PoolingInstance, basis: str, name: str) -> BilinearModel:
    """The backbone in ``basis`` as a fresh model named ``name``, to extend.

    ``build_backbone`` runs once per instance and basis; ``inst.backbones``
    keeps its model and blocks, which refer to nothing of the instance, so
    the cache dies with it.  The cached model is only ever copied.  Two
    threads that miss at once both build it, and either result is the
    same."""
    cached = inst.backbones.get(basis)
    if cached is None:
        bm = build_backbone(inst, basis)
        cached = inst.backbones[basis] = (bm.model, tuple(bm.blocks))
    model, blocks = cached
    return BilinearModel(model.copy(name), basis, inst, list(blocks))


def build_exact(inst: PoolingInstance, basis: str) -> BilinearModel:
    """The exact model in ``basis``: the backbone plus x = q * f for every
    commodity on every decomposed arc of each pool."""
    bm = backbone(inst, basis, f"{inst.name}:{basis}:exact")
    model = bm.model
    for i in inst.pools:
        for c in _commodities(inst, basis, i):
            model.add_var(qvar(i, c), 0.0, 1.0)
        for j in _decomposed_arcs(inst, basis, i):
            a, b = _arc(basis, i, j)
            for c in _commodities(inst, basis, i):
                model.add_bilinear(xvar(a, b, c), qvar(i, c), fvar(a, b))
    return bm


# -- solution checking -----------------------------------------------------------

@dataclass
class CheckReport:
    families: dict[str, float]
    tol: float

    @property
    def ok(self) -> bool:
        return all(v <= self.tol for v in self.families.values())

    def worst(self) -> tuple[str, float]:
        fam = max(self.families, key=lambda k: self.families[k])
        return fam, self.families[fam]


def check_solution(bm: BilinearModel, assignment: dict[str, float],
                   tol: float = 1e-6) -> CheckReport:
    """Residuals per constraint family, plus bilinear and rank-one checks.

    Residuals are measured relative to max(1, |value scale|) per row.
    """
    model = bm.model
    missing = [v for v in model.variables if v not in assignment]
    if missing:
        raise KeyError(f"assignment missing {len(missing)} variables, "
                       f"e.g. {missing[:3]}")
    fam: dict[str, float] = {"bounds": 0.0, "rank": 0.0}

    def bump(family: str, value: float) -> None:
        fam[family] = max(fam.get(family, 0.0), value)

    for name, var in model.variables.items():
        val = assignment[name]
        scale = max(1.0, abs(var.lb), abs(var.ub) if math.isfinite(var.ub) else 1.0)
        bump("bounds", max(var.lb - val, (val - var.ub) if math.isfinite(var.ub) else 0.0) / scale)

    for row in model.rows:
        lhs = sum(c * assignment[v] for v, c in row.coeffs)
        scale = max(1.0, abs(row.rhs), max(abs(c) for _, c in row.coeffs))
        if row.sense == "<=":
            resid = (lhs - row.rhs) / scale
        elif row.sense == ">=":
            resid = (row.rhs - lhs) / scale
        else:
            resid = abs(lhs - row.rhs) / scale
        family = row.name.split("[", 1)[0].split(":", 1)[0]
        bump(family, resid)

    for term in model.bilinear:
        x = assignment[term.x]
        prod = assignment[term.q] * assignment[term.f]
        bump("bilinear", abs(x - prod) / max(1.0, abs(x), abs(prod)))

    for block in bm.blocks:
        resid = rank_residual(block.values(assignment))
        if resid > tol:
            bump("rank", resid)
    return CheckReport(fam, tol)


def accepts(inst: PoolingInstance, basis: str, assignment: dict[str, float]) -> bool:
    """Whether the exact model of ``inst`` in ``basis`` takes a restriction's
    point ({} for none): the one rule that makes its value an upper bound."""
    exact = build_exact(inst, basis)
    return bool(assignment) and check_solution(exact, rederive_proportions(exact, assignment)).ok


def rederive_proportions(bm: BilinearModel,
                         assignment: dict[str, float]) -> dict[str, float]:
    """Fill q values consistent with the flows (restriction outputs omit q);
    a pool whose commodity total is at most 1e-9 gets q = 0."""
    out = dict(assignment)
    inst, basis = bm.inst, bm.basis
    for i in inst.pools:
        comms = _commodities(inst, basis, i)
        totals = {}
        for c in comms:
            totals[c] = assignment.get(fvar(*_arc(basis, c, i)), 0.0)
        grand = sum(totals.values())
        for c in comms:
            out[qvar(i, c)] = totals[c] / grand if grand > 1e-9 else 0.0
    return out
