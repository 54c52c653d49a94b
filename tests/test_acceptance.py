"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  The published optima and gaps come from the ledger,
``src/poolkit/data/published/ledger.json``, and are fixtures of the tests
only, never runtime oracles; each ledger cell names the test that asserts
it, and the tolerances and time limits are the tests' own.

The restriction cells of criterion 7 are reproduced on the H-bit grid
q = k / (2^H - 1).  Where the toolkit's reconstruction of an
under-specified method is provably tighter than the published number (the
M1:S cell of criterion 6 finds the optimum where the table reports a
positive gap), or where an instance file is a reconstruction, the cell
fails honestly; the ledger records each reason.
"""

import json
import time

import numpy as np
import pytest

from conftest import DATA
from poolkit import parse_instance
from poolkit.bench import exact_value, run_cell
from poolkit.formulations import (build_exact, check_solution,
                                  rederive_proportions)
from poolkit.instances import Demand, MiningSchedule, Supply, convert_mining
from poolkit.rank1 import (check_extreme_point_property, evaluate_conic_cuts,
                           evaluate_linear_cuts, gen_rlt_conic, gen_rlt_mccormick,
                           gen_rlt_reverse_convex, hull_bound, random_box,
                           sample_rank_one_points, normalize)
from poolkit.relaxations import block_value, build_method, parse_method
from poolkit.solver import Budget, SolveParams, solve
from poolkit.tightening import apply_bounds, default_obbt_recipe

LEDGER = json.loads((DATA / "published" / "ledger.json").read_text())["instances"]


def optimum(name):
    return LEDGER[name]["optimum"]["value"]


def asserted(test):
    """The ledger's (instance, cell) pairs that ``test`` asserts, in order."""
    return [(name, cell) for name, entry in LEDGER.items()
            for cell in entry["cells"] if cell["test"] == test]


def record(name, inst, label, time_limit_s=3600.0, obbt=False):
    """``run_cell``'s record of one cell, its gap against the ledger optimum."""
    return run_cell(name, inst, label, obbt, 0.0, optimum(name),
                    SolveParams(time_limit_s=time_limit_s))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


def load(data_dir, name):
    return parse_instance(data_dir / f"{name}.json")


def assert_obbt_gaps(criterion, data_dir, name, cells):
    """Assert each cell's gap on the instance the recipe tightens; the
    recipe's seconds."""
    inst = load(data_dir, name)
    t0 = time.perf_counter()
    tightened = apply_bounds(inst, default_obbt_recipe(inst))
    prep = time.perf_counter() - t0
    gaps = [record(name, tightened, cell["label"], obbt=True).gap_percent for cell in cells]
    wants = [cell["gap"] for cell in cells]
    report(criterion, all(abs(g - w) <= 0.05 for g, w in zip(gaps, wants)),
           f"{name} OBBT {[cell['label'] for cell in cells]}: "
           f"gaps={[round(g, 3) for g in gaps]} want={wants} prep={prep:.1f}s")
    for got, want in zip(gaps, wants):
        assert got == pytest.approx(want, abs=0.05)
    return prep


class TestCriterion1:
    @pytest.mark.parametrize("name", sorted(
        name for name, entry in LEDGER.items()
        if entry["optimum"]["test"] == "TestCriterion1::test_exact_value"))
    def test_exact_value(self, data_dir, name):
        want = optimum(name)
        inst = load(data_dir, name)
        t0 = time.perf_counter()
        # a grid's path: the recipe's update starts the squeeze, on one budget
        budget = Budget(SolveParams(time_limit_s=55.0))
        upd = default_obbt_recipe(inst, budget.params())
        ev = exact_value(inst, budget.params(), first_update=upd)
        elapsed = time.perf_counter() - t0
        ok = (ev.proven and ev.value is not None
              and abs(ev.value - want) <= 1e-4 * abs(want) and elapsed < 60.0)
        report(1, ok, f"{name}: exact={ev.value} want={want} proven={ev.proven} "
                      f"({elapsed:.1f}s)")
        assert elapsed < 60.0
        assert ev.proven, f"squeeze not proven: lb={ev.lower} ub={ev.upper}"
        assert ev.value == pytest.approx(want, rel=1e-4)


class TestCriterion2:
    @pytest.mark.parametrize("name,method,opt,want", [
        (name, cell["label"], optimum(name), cell["gap"])
        for name, cell in asserted("TestCriterion2::test_lp_gap")])
    def test_lp_gap(self, data_dir, name, method, opt, want):
        rec = run_cell(name, load(data_dir, name), method, False, 0.0, opt,
                       SolveParams(time_limit_s=30))
        ok = rec.solve_seconds < 5.0 and abs(rec.gap_percent - want) <= 0.05
        report(2, ok, f"{name} {method}: gap={rec.gap_percent:.2f} want={want:.2f} "
                      f"({rec.solve_seconds:.2f}s)")
        assert rec.solve_seconds < 5.0
        assert rec.gap_percent == pytest.approx(want, abs=0.05)


class TestCriterion3:
    # the with-OBBT LP table, one test per instance
    CELLS = asserted("TestCriterion3::test_obbt_gaps")

    @pytest.mark.parametrize("name", sorted({name for name, _ in CELLS}))
    def test_obbt_gaps(self, data_dir, name):
        prep = assert_obbt_gaps(3, data_dir, name,
                                [cell for n, cell in self.CELLS if n == name])
        assert prep < 30.0


class TestCriterion4:
    def test_dominance_on_random_boxes_and_literature_blocks(self, data_dir):
        rng = np.random.default_rng(404)
        cases = []
        for _ in range(200):
            cases.append(random_box(rng, int(rng.integers(1, 5)),
                                    int(rng.integers(1, 5))))
        for name in ("haverly1", "haverly3", "bental4", "foulds2", "adhya1"):
            bm = build_exact(load(data_dir, name), "source")
            for block in bm.blocks:
                box, _, _ = normalize(block.box)
                if box.m and box.n and box.m * box.n <= 16:
                    cases.append(box)
        violations = 0
        strict = 0  # cases where the row-column fragment beats the intersection
        for box in cases:
            c = rng.normal(size=(box.m, box.n))
            plain = block_value(box, c, "MCF:S")
            if plain is None:
                continue
            v1, v2, v3, v4 = (block_value(box, c, f"F{k}:S") for k in range(1, 5))
            tol = 1e-7 * max(1.0, abs(v4), box.scale())
            if not (v4 >= v3 - tol and v3 >= max(v1, v2) - tol
                    and min(v1, v2) >= plain - tol):
                violations += 1
            if v4 > v3 + 1e-6 * max(1.0, abs(v4)):
                strict += 1
        report(4, violations == 0,
               f"dominance chain on {len(cases)} boxes: {violations} violations; "
               f"row-column strictly tighter on {strict} boxes")
        assert violations == 0
        assert strict > 0  # the stronger fragment is strict somewhere


class TestCriterion5:
    def test_adhya3_strictness_witness(self, data_dir):
        cells = asserted("TestCriterion5::test_adhya3_strictness_witness")
        (name,) = {name for name, _ in cells}
        assert_obbt_gaps(5, data_dir, name, [cell for _, cell in cells])


class TestCriterion6:
    @pytest.mark.parametrize("method,want", [
        (cell["label"], cell["gap"])
        for _, cell in asserted("TestCriterion6::test_haverly1_mip_relaxations")])
    def test_haverly1_mip_relaxations(self, haverly1, method, want):
        rec = record("haverly1", haverly1, method, time_limit_s=110)
        ok = rec.solve_seconds < 120 and abs(rec.gap_percent - want) <= 0.1
        report(6, ok, f"haverly1 {method}: gap={rec.gap_percent:.2f} want={want:.2f} "
                      f"({rec.solve_seconds:.1f}s)")
        assert rec.solve_seconds < 120
        assert rec.gap_percent == pytest.approx(want, abs=0.1)


class TestCriterion7:
    CELLS = asserted("TestCriterion7::test_terminal_restriction_primal")

    @pytest.mark.parametrize("name,want", [(name, cell["gap"]) for name, cell in CELLS])
    def test_terminal_restriction_primal(self, data_dir, name, want):
        (label,) = {cell["label"] for n, cell in self.CELLS if n == name}
        rec = record(name, load(data_dir, name), label, time_limit_s=110)
        ok = abs(rec.gap_percent - want) <= 0.1
        report(7, ok, f"{name} {label}: value={rec.objective:.2f} "
                      f"P-gap={rec.gap_percent:.2f} want={want:.2f}")
        assert rec.gap_percent == pytest.approx(want, abs=0.1)

    @pytest.mark.parametrize("label", ["G1:S:H=3", "G2:S:H=3", "G1:T:H=3", "G2:T:H=3"])
    def test_restriction_solutions_feasible(self, haverly1, label):
        spec = parse_method(label)
        bm = build_exact(haverly1, spec.basis)
        res = solve(build_method(haverly1, spec).model)
        assignment = {v: res.assignment.get(v, 0.0) for v in bm.model.variables}
        assignment = rederive_proportions(bm, assignment)
        rep = check_solution(bm, assignment, tol=1e-6)
        report(7, rep.ok, f"haverly1 {label} solution check: worst={rep.worst()}")
        assert rep.ok, rep.families


class TestCriterion8:
    def test_rlt_validity_mass_sampling(self):
        rng = np.random.default_rng(808)
        worst = 0.0
        boxes = 100
        per_box = 100_000
        for _ in range(boxes):
            box = random_box(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                             positive_lower=True)
            X = sample_rank_one_points(box, per_box, rng)
            tol = 1e-8 * box.scale()
            cuts = (gen_rlt_mccormick(box, "both").cuts
                    + gen_rlt_reverse_convex(box, "both").cuts)
            v = evaluate_linear_cuts(cuts, X)
            worst = max(worst, v / max(tol, 1e-300) * 1e-8)
            assert v <= tol, f"linear cut violated by {v} (tol {tol})"
            conic = gen_rlt_conic(box).cuts
            for cut, v2 in zip(conic, evaluate_conic_cuts(conic, X, box)):
                assert v2 <= 1e-8 * box.scale() ** 2, f"{cut.name} violated by {v2}"
        report(8, True, f"{boxes} boxes x {per_box} samples: no violation "
                        f"(worst scaled {worst:.2e})")


class TestCriterion9:
    def test_vertices_have_single_strict_row_and_column(self):
        # the exact oracle's witness is an extreme point of the hull; no
        # sampled point may beat it, or a wrong oracle would pass vacuously
        rng = np.random.default_rng(909)
        witnesses = exceptions = beaten = 0
        for _ in range(50):
            box = random_box(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            points = sample_rank_one_points(box, 2000, rng)
            for _ in range(4):
                c = rng.normal(size=(box.m, box.n))
                value, X = hull_bound(box, c)
                witnesses += 1
                cr, cc = check_extreme_point_property(X, box)
                exceptions += cr > 1 or cc > 1
                sampled = np.einsum("kij,ij->k", points, c).min()
                beaten += sampled < value - 1e-9 * max(1.0, abs(value))
        report(9, exceptions == beaten == 0,
               f"{witnesses} oracle witnesses over 50 boxes: {exceptions} with "
               f"two strict rows or columns, {beaten} beaten by a sample")
        assert exceptions == 0
        assert beaten == 0


def random_schedule(rng) -> MiningSchedule:
    n1 = int(rng.integers(2, 11))
    n2 = int(rng.integers(2, 11 - max(0, n1 - 10)))
    supplies = []
    t = 0.0
    for k in range(n1):
        t += float(rng.uniform(0.5, 2.0))
        supplies.append(Supply("sp1", t, float(rng.uniform(2, 12)),
                               (float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3)))))
    t = 0.25
    for k in range(n2):
        t += float(rng.uniform(0.5, 2.0))
        supplies.append(Supply("sp2", t, float(rng.uniform(2, 12)),
                               (float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3)))))
    total = sum(s.qty for s in supplies)
    n_d = int(rng.integers(1, 7))
    remaining = total * float(rng.uniform(0.4, 0.9))
    # place each demand after enough cumulative supply has arrived, so the
    # time-indexed instance is feasible by construction
    by_time = sorted(supplies, key=lambda s: s.time)
    demands = []
    committed = 0.0
    for k in range(n_d):
        qty = remaining / n_d
        committed += qty
        cum = 0.0
        when = by_time[-1].time
        for s in by_time:
            cum += s.qty
            if cum >= committed:
                when = s.time
                break
        demands.append(Demand(when + 0.1 + 1e-3 * k, qty,
                              (float(rng.uniform(1.2, 2.8)), float(rng.uniform(1.2, 2.8))),
                              (float(rng.uniform(1, 10)), float(rng.uniform(1, 10)))))
    return MiningSchedule(("sp1", "sp2"), tuple(supplies), tuple(demands))


class TestCriterion10:
    def test_mining_pipeline_preserves_mcf_and_tightens_f4(self):
        rng = np.random.default_rng(1010)
        violations = 0
        slowest = 0.0
        for trial in range(50):
            sched = random_schedule(rng)
            t0 = time.perf_counter()
            inst = convert_mining(sched)
            tightened = apply_bounds(inst, default_obbt_recipe(inst))
            mcf_before = solve(build_method(inst, parse_method("MCF:S")).model)
            mcf_after = solve(build_method(tightened, parse_method("MCF:S")).model)
            f4_before = solve(build_method(inst, parse_method("F4:S")).model)
            f4_after = solve(build_method(tightened, parse_method("F4:S")).model)
            elapsed = time.perf_counter() - t0
            slowest = max(slowest, elapsed)
            scale = max(1.0, abs(mcf_before.objective))
            if abs(mcf_after.objective - mcf_before.objective) > 1e-6 * scale:
                violations += 1
            if f4_after.dual_bound < f4_before.dual_bound - 1e-6 * scale:
                violations += 1
            assert elapsed < 10.0, f"schedule {trial} took {elapsed:.1f}s"
        report(10, violations == 0,
               f"50 schedules: {violations} violations, slowest {slowest:.2f}s")
        assert violations == 0
