"""Correctness checks on the outputs of the benchmark workloads.

Every check returns a list of problems, empty when the output passes.  The
references are the published optima below or properties that any correct
output must have; none of them is a stored copy of the program's output.
"""

from __future__ import annotations

import math

import numpy as np

# Global optima of the instances in the published table (minimisation).
PUBLISHED_OPTIMA = {
    "haverly1": -400.0,
    "haverly2": -600.0,
    "haverly3": -750.0,
    "bental4": -450.0,
    "foulds2": -1100.0,
}

BOUND_REL_TOL = 1e-6     # relaxation bounds against optima, dominance chain
SQUEEZE_REL_TOL = 1e-4   # proven squeeze value against the published optimum
GAP_TOL = 1e-6           # smallest D- or P-gap (percent) taken as non-negative
SWEEP_SLACK = 1e-6       # OBBT slack, as a share of the largest arc capacity
SAMPLE_TOL = 1e-9        # sums and rank of sampled points, share of box scale
LINEAR_CUT_TOL = 1e-8    # worst linear cut violation, share of box scale
CONIC_CUT_TOL = 1e-8     # worst conic cut violation, share of box scale**2


def _rel(value: float, tol: float) -> float:
    return tol * max(1.0, abs(value))


def check_lp_table(bounds: dict[tuple[str, str], float]) -> list[str]:
    """LP dual bounds keyed by (instance, label), labels like "F4:S".

    Each bound is at most the published optimum, and in each basis
    F4 >= F3 >= max(F1, F2) and min(F1, F2) >= MCF.  A chain whose labels
    are not all present is not checked."""
    problems = []
    for (name, label), bound in sorted(bounds.items()):
        opt = PUBLISHED_OPTIMA.get(name)
        if opt is not None and bound > opt + _rel(opt, BOUND_REL_TOL):
            problems.append(f"{name} {label}: bound {bound} above the "
                            f"published optimum {opt}")
    for name in sorted({n for n, _ in bounds}):
        for basis in "ST":
            b = {k: bounds.get((name, f"{k}:{basis}"))
                 for k in ("MCF", "F1", "F2", "F3", "F4")}
            if any(v is None for v in b.values()):
                continue
            chain = [("F4", b["F4"], "F3", b["F3"]),
                     ("F3", b["F3"], "max(F1,F2)", max(b["F1"], b["F2"])),
                     ("min(F1,F2)", min(b["F1"], b["F2"]), "MCF", b["MCF"])]
            for hi_name, hi, lo_name, lo in chain:
                if hi < lo - _rel(lo, BOUND_REL_TOL):
                    problems.append(f"{name} basis {basis}: {hi_name} = {hi} "
                                    f"below {lo_name} = {lo}")
    return problems


def _node_throughput(inst, point: dict[str, float], fvar, nid: str) -> float:
    if nid in inst.sources:
        return sum(point[fvar(nid, j)] for j in inst.out_nbrs[nid])
    return sum(point[fvar(j, nid)] for j in inst.in_nbrs[nid])


def check_sweep(inst, upd, ghost_pool, point: dict[str, float],
                fvar) -> list[str]:
    """An OBBT result against its instance and a feasible point.

    Every tightened interval lies inside its original, and the feasible
    point lies inside every tightened arc, ghost and node interval within
    the sweep's slack.  ``ghost_pool(key)`` names the pool whose ghost bound
    applies to a ghost pair; ``fvar(a, b)`` names the flow variable of a
    pair in ``point``."""
    finite = [abs(a.u) for a in inst.arcs.values() if math.isfinite(a.u)]
    slack = SWEEP_SLACK * max([1.0] + finite)
    problems = []

    def inside(what, new, old, value):
        lo, hi = new
        if lo < old[0] or hi > old[1]:
            problems.append(f"{what}: [{lo}, {hi}] is not inside [{old[0]}, {old[1]}]")
        if value is not None and not lo - slack <= value <= hi + slack:
            problems.append(f"{what}: feasible value {value} outside [{lo}, {hi}]")

    for key, new in upd.arc_bounds.items():
        arc = inst.arcs[key]
        inside(f"arc {key}", new, (arc.l, arc.u), point.get(fvar(*key)))
    for key, new in upd.ghost_bounds.items():
        inside(f"ghost {key}", new, inst.ghost_bound(key, ghost_pool(key)),
               point.get(fvar(*key)))
    for nid, new in upd.node_bounds.items():
        node = inst.nodes[nid]
        inside(f"node {nid}", new, (node.L, node.U),
               _node_throughput(inst, point, fvar, nid))
    return problems


def check_squeezes(squeezes: dict[str, object]) -> list[str]:
    """Every squeeze is proven; on the published instances its value is the
    published optimum."""
    problems = []
    for name, ev in sorted(squeezes.items()):
        if not ev.proven:
            problems.append(f"{name}: squeeze not proven "
                            f"(lb {ev.lower}, ub {ev.upper})")
            continue
        opt = PUBLISHED_OPTIMA.get(name)
        if opt is not None and abs(ev.value - opt) > _rel(opt, SQUEEZE_REL_TOL):
            problems.append(f"{name}: squeeze value {ev.value} is not the "
                            f"published optimum {opt}")
    return problems


def check_gaps(records) -> list[str]:
    """Every duality (D) and primal (P) gap is a number and non-negative."""
    problems = []
    for rec in records:
        if rec.gap_kind not in ("D", "P"):
            continue
        if math.isnan(rec.gap_percent) or rec.gap_percent < -GAP_TOL:
            problems.append(f"{rec.instance} {rec.method}: "
                            f"{rec.gap_kind}-gap {rec.gap_percent}")
    return problems


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b and type(a) is type(b)


def check_round_trip(records, parsed) -> list[str]:
    """Records read back from their CSV equal the records written."""
    if len(records) != len(parsed):
        return [f"CSV round trip: {len(records)} records written, "
                f"{len(parsed)} read"]
    problems = []
    for rec, back in zip(records, parsed):
        for key, value in vars(rec).items():
            if not _same(value, getattr(back, key)):
                problems.append(f"CSV round trip: {rec.instance} {rec.method} "
                                f"{key}: {value!r} became {getattr(back, key)!r}")
    return problems


def check_rank_one_samples(X: np.ndarray, box) -> list[str]:
    """Each X[k] is a non-negative rank-one matrix whose row, column and
    total sums lie in the box, checked with singular values and sums."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[1:] != (box.m, box.n):
        return [f"samples of shape {X.shape} for a {box.m}x{box.n} box"]
    tol = SAMPLE_TOL * box.scale()
    l, u, lp, up, L, U = (np.asarray(v, dtype=float) for v in
                          (box.l, box.u, box.lp, box.up, box.L, box.U))
    bad = X.min(axis=(1, 2)) < -tol
    rows, cols, tot = X.sum(axis=2), X.sum(axis=1), X.sum(axis=(1, 2))
    bad |= ((rows < l - tol) | (rows > u + tol)).any(axis=1)
    bad |= ((cols < lp - tol) | (cols > up + tol)).any(axis=1)
    bad |= (tot < L - tol) | (tot > U + tol)
    if min(box.m, box.n) > 1:
        sv = np.linalg.svd(X, compute_uv=False)
        bad |= sv[:, 1] > SAMPLE_TOL * np.maximum(sv[:, 0], 1.0)
    count = int(bad.sum())
    if count:
        return [f"{count} of {X.shape[0]} samples are not rank-one members "
                f"of their box (first: {int(np.argmax(bad))})"]
    return []


def check_cut_violations(linear: float, conic: float, scale: float) -> list[str]:
    """Worst violations of the linear and the conic RLT cuts at rank-one
    points stay within the tolerances."""
    problems = []
    if not linear <= LINEAR_CUT_TOL * scale:
        problems.append(f"linear cut violated by {linear} (scale {scale})")
    if not conic <= CONIC_CUT_TOL * scale ** 2:
        problems.append(f"conic cut violated by {conic} (scale {scale})")
    return problems


def check_witness(name: str, label: str, report, objective: float,
                  lower: float) -> list[str]:
    """The witness restriction's point is feasible for the exact model and
    no better than the proven lower bound of the squeeze."""
    problems = []
    if not report.ok:
        family, value = report.worst()
        problems.append(f"{name} {label}: witness point violates {family} "
                        f"by {value}")
    if objective < lower - _rel(lower, SQUEEZE_REL_TOL):
        problems.append(f"{name} {label}: witness value {objective} below the "
                        f"proven lower bound {lower}")
    return problems
