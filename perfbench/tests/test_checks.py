"""Each benchmark check passes a correct output and rejects one made wrong
on purpose.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from poolkit import bench, formulations, instances, rank1, relaxations, solver, tightening  # noqa: E402

DATA = ROOT / "src" / "poolkit" / "data"


def lp_bounds(**override):
    """A haverly1 table that meets every property, in both bases."""
    table = {"MCF": -500.0, "F1": -480.0, "F2": -470.0, "F3": -450.0, "F4": -420.0}
    table.update(override)
    return {("haverly1", f"{k}:{b}"): v for b in "ST" for k, v in table.items()}


class TestLpTable:
    def test_consistent_table_passes(self):
        assert checks.check_lp_table(lp_bounds()) == []

    def test_bound_above_published_optimum(self):
        problems = checks.check_lp_table(lp_bounds(F4=-399.0))
        assert any("above the published optimum" in p for p in problems)

    def test_broken_dominance_chain(self):
        problems = checks.check_lp_table(lp_bounds(F3=-410.0))
        assert any("F4 = -420.0 below F3" in p for p in problems)

    def test_relaxation_weaker_than_mcf(self):
        problems = checks.check_lp_table(lp_bounds(F1=-510.0))
        assert any("below MCF" in p for p in problems)


@pytest.fixture(scope="module")
def sweep():
    inst = instances.parse_instance(DATA / "haverly1.json")

    def solve(label):
        model = relaxations.build_method(inst, relaxations.parse_method(label)).model
        return solver.solve(model)

    lo, hi = solve("MCF:T"), solve("G1:T:H=3")
    upd = tightening.obbt(inst, "F4:T", lo.objective, hi.objective, workers=1)
    return inst, upd, hi.assignment


def sweep_problems(inst, upd, point):
    return checks.check_sweep(inst, upd, lambda key: key[0], point, formulations.fvar)


class TestSweep:
    def test_true_sweep_passes(self, sweep):
        inst, upd, point = sweep
        assert upd.arc_bounds and sweep_problems(inst, upd, point) == []

    def test_point_outside_tightened_interval(self, sweep):
        inst, upd, point = sweep
        key, (lo, hi) = next((k, b) for k, b in upd.arc_bounds.items() if b[1] > 0)
        moved = dict(point)
        moved[formulations.fvar(*key)] = hi + 1.0
        problems = sweep_problems(inst, upd, moved)
        assert any(f"arc {key}" in p and "feasible value" in p for p in problems)

    def test_interval_wider_than_original(self, sweep):
        inst, upd, point = sweep
        key = next(iter(upd.node_bounds))
        wide = replace(upd, node_bounds={**upd.node_bounds,
                                         key: (upd.node_bounds[key][0],
                                               inst.nodes[key].U + 10.0)})
        problems = sweep_problems(inst, wide, point)
        assert any(f"node {key}" in p and "not inside" in p for p in problems)


class Squeeze:
    def __init__(self, value, proven=True):
        self.value = self.upper = value
        self.lower = value
        self.proven = proven


def record(gap=1.5, kind="D", **kw):
    fields = dict(instance="haverly1", method="F4:S", obbt=True, prep_seconds=0.25,
                  solve_seconds=0.001, objective=-420.0, dual_bound=-420.0,
                  gap_percent=gap, gap_kind=kind, status="optimal")
    fields.update(kw)
    return bench.RunRecord(**fields)


class TestTable:
    def test_published_squeezes_pass(self):
        squeezes = {n: Squeeze(v) for n, v in checks.PUBLISHED_OPTIMA.items()}
        assert checks.check_squeezes(squeezes) == []

    def test_unproven_squeeze(self):
        problems = checks.check_squeezes({"adhya3": Squeeze(-939.3, proven=False)})
        assert problems and "not proven" in problems[0]

    def test_squeeze_off_the_published_optimum(self):
        problems = checks.check_squeezes({"haverly2": Squeeze(-590.0)})
        assert problems and "published optimum" in problems[0]

    def test_negative_and_missing_gaps(self):
        recs = [record(), record(gap=-0.01, kind="P"), record(gap=math.nan)]
        problems = checks.check_gaps(recs)
        assert len(problems) == 2

    def test_csv_round_trip(self):
        recs = [record(), record(gap=math.nan, objective=None, dual_bound=None,
                                 status="infeasible")]
        parsed = bench.records_from_csv(bench.records_to_csv(recs))
        assert checks.check_round_trip(recs, parsed) == []
        changed = [parsed[0], replace(parsed[1], status="optimal")]
        assert checks.check_round_trip(recs, changed)
        assert checks.check_round_trip(recs, parsed[:1])


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(5)
    box = rank1.random_box(rng, 3, 2, positive_lower=True)
    return box, rank1.sample_rank_one_points(box, 200, rng)


class TestCuts:
    def test_true_samples_pass(self, samples):
        box, X = samples
        assert checks.check_rank_one_samples(X, box) == []

    def test_sample_not_rank_one(self, samples):
        box, X = samples
        bad = X.copy()
        # keeps every row and column sum, so only the rank test can see it
        eps = 0.1 * bad[7].min()
        bad[7, :2, :2] += eps * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(bad[7].sum(axis=0), X[7].sum(axis=0))
        assert checks.check_rank_one_samples(bad, box)

    def test_sample_outside_its_box(self, samples):
        box, X = samples
        bad = X.copy()
        bad[3] *= 3.0 * box.U / bad[3].sum()
        assert checks.check_rank_one_samples(bad, box)

    def test_cut_violations(self):
        assert checks.check_cut_violations(0.0, -1.0, 10.0) == []
        assert checks.check_cut_violations(1e-6, 0.0, 10.0)
        assert checks.check_cut_violations(0.0, 1e-5, 10.0)
        assert checks.check_cut_violations(math.nan, 0.0, 10.0)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in run.PER_LAYER]
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lp-table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
