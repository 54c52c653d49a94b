"""Gap arithmetic, run grids, CSV round-trips and the CLI."""

import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

import poolkit.bench
from poolkit.bench import (GridConfig, RunRecord, compute_gap, exact_value,
                           records_from_csv, records_to_csv, run_grid, summarize)
from poolkit.cli import main
from poolkit.tightening import TighteningError, default_obbt_recipe


class TestGap:
    def test_haverly_gap(self):
        assert compute_gap(-400.0, -500.0) == pytest.approx(25.00)

    def test_equal_bounds(self):
        assert compute_gap(-550.0, -550.0) == pytest.approx(0.0)

    def test_inverted_table_value(self):
        assert compute_gap(-550.0, -853.49) == pytest.approx(55.18, abs=0.005)

    def test_zero_ub_sentinel(self):
        assert math.isnan(compute_gap(0.0, -5.0))


class TestExactValue:
    def test_time_limit_is_a_budget_for_the_whole_squeeze(self, data_dir):
        from poolkit import parse_instance
        from poolkit.bench import exact_value
        from poolkit.solver import SolveParams
        # each bental5 restriction MILP alone runs far past the limit
        inst = parse_instance(data_dir / "bental5.json")
        t0 = time.perf_counter()
        ev = exact_value(inst, SolveParams(time_limit_s=2.0), workers=1)
        assert time.perf_counter() - t0 < 4.0
        assert not ev.proven
        assert ev.lower is not None  # the cheap LP bounds run first

    def test_status_of_a_proven_squeeze(self, haverly1):
        ev = exact_value(haverly1, workers=1)
        assert (ev.proven, ev.status) == (True, "proven")

    def test_status_of_a_spent_budget(self, data_dir):
        from poolkit import parse_instance
        from poolkit.solver import SolveParams
        inst = parse_instance(data_dir / "bental5.json")
        ev = exact_value(inst, SolveParams(time_limit_s=2.0), workers=1)
        assert (ev.proven, ev.status) == (False, "time-limit")

    def test_status_when_the_passes_end_unproven(self, haverly1, monkeypatch):
        # haverly1's squeeze closes only after OBBT: F4 gives -500, G1:S -400
        assert exact_value(haverly1, use_obbt=False).status == "open"

        def failing(inst, **kw):
            raise TighteningError("crossed interval")

        monkeypatch.setattr(poolkit.bench, "default_obbt_recipe", failing)
        ev = exact_value(haverly1, workers=1)
        assert (ev.proven, ev.status) == (False, "open")

    def test_first_update_stands_for_the_first_recipe(self, haverly2, monkeypatch):
        upd, _, _ = default_obbt_recipe(haverly2)
        fresh = exact_value(haverly2)
        calls = count_recipe_calls(monkeypatch)
        ev = exact_value(haverly2, first_update=upd)
        assert all(inst is not haverly2 for inst in calls)
        assert (ev.proven, ev.witness) == (fresh.proven, fresh.witness)
        assert ev.value == pytest.approx(fresh.value, rel=1e-9)
        assert ev.lower == pytest.approx(fresh.lower, rel=1e-9)


def count_recipe_calls(monkeypatch) -> list:
    """Record the instance of every default_obbt_recipe call made by bench."""
    calls = []

    def counted(inst, **kw):
        calls.append(inst)
        return default_obbt_recipe(inst, **kw)

    monkeypatch.setattr(poolkit.bench, "default_obbt_recipe", counted)
    return calls


class TestGridTightening:
    def test_recipe_runs_once_per_instance(self, haverly1, haverly2, monkeypatch):
        calls = count_recipe_calls(monkeypatch)
        config = GridConfig(instances=[("haverly1", haverly1), ("haverly2", haverly2)],
                            methods=["F1:S"], obbt=True)
        records = run_grid(config)
        assert [r.obbt for r in records] == [True, True]
        for inst in (haverly1, haverly2):
            assert sum(1 for c in calls if c is inst) == 1

    def test_failed_tightening_is_written_obbt_0(self, haverly1, monkeypatch):
        def fail(inst, **kw):
            raise TighteningError("relaxation with objective box is infeasible")

        monkeypatch.setattr(poolkit.bench, "default_obbt_recipe", fail)
        config = GridConfig(instances=[("haverly1", haverly1)],
                            methods=["F1:S", "F4:S"], obbt=True)
        rows = [line.split(",") for line in
                records_to_csv(run_grid(config)).splitlines()]
        column = rows[0].index("obbt")
        assert [row[column] for row in rows[1:]] == ["0", "0"]

    def test_other_faults_are_raised(self, haverly1, monkeypatch):
        def broken(inst, **kw):
            raise ZeroDivisionError("a fault, not a tightening result")

        monkeypatch.setattr(poolkit.bench, "default_obbt_recipe", broken)
        config = GridConfig(instances=[("haverly1", haverly1)],
                            methods=["F1:S"], obbt=True)
        with pytest.raises(ZeroDivisionError):
            run_grid(config)


class TestGrid:
    def test_small_grid(self, haverly1, haverly2):
        config = GridConfig(instances=[("haverly1", haverly1), ("haverly2", haverly2)],
                            methods=["F1:S", "F2:S"], obbt=False, threads=2)
        records = run_grid(config)
        assert len(records) == 4
        assert [r.instance for r in records] == ["haverly1", "haverly1",
                                                 "haverly2", "haverly2"]
        byname = {(r.instance, r.method): r for r in records}
        assert byname[("haverly1", "F1:S")].gap_percent == pytest.approx(25.0, abs=0.05)
        assert byname[("haverly2", "F1:S")].gap_percent == pytest.approx(66.67, abs=0.05)
        assert all(r.status == "optimal" for r in records)

    def test_restriction_gap_kind(self, haverly1):
        config = GridConfig(instances=[("haverly1", haverly1)],
                            methods=["G1:S:H=3"], obbt=False)
        rec = run_grid(config)[0]
        assert rec.gap_kind == "P"
        assert rec.gap_percent == pytest.approx(0.0, abs=0.05)

    def test_error_cell_recorded_not_raised(self, haverly1):
        config = GridConfig(instances=[("haverly1", haverly1)],
                            methods=["F1:S", "EXACT:S"], obbt=False)
        records = run_grid(config)
        assert records[0].status == "optimal"
        assert records[1].status.startswith("error")  # no nonconvex backend

    def test_csv_round_trip_bit_exact(self, haverly1):
        config = GridConfig(instances=[("haverly1", haverly1)],
                            methods=["F1:S", "F4:S"], obbt=False)
        records = run_grid(config)
        text = records_to_csv(records)
        back = records_from_csv(text)
        assert back == records
        assert records_to_csv(back) == text

    def test_empty_methods_gives_header_only(self, haverly1):
        config = GridConfig(instances=[("haverly1", haverly1)], methods=[])
        text = records_to_csv(run_grid(config))
        assert text.strip() == ",".join(RunRecord.csv_header())

    def test_summary_is_column_mean(self, haverly1, haverly2):
        config = GridConfig(instances=[("haverly1", haverly1), ("haverly2", haverly2)],
                            methods=["F1:S"], obbt=False)
        records = run_grid(config)
        gaps = [r.gap_percent for r in records]
        line = [ln for ln in summarize(records).splitlines() if ln.startswith("F1:S")][0]
        assert f"{sum(gaps) / len(gaps):9.2f}" in line


class TestCLI:
    def test_run_command(self, tmp_path, data_dir):
        out = tmp_path / "res.csv"
        code = main(["run", "--instances", str(data_dir / "haverly1.json"),
                     "--methods", "F1:S,F4:S", "--obbt", "off",
                     "--out", str(out)])
        assert code == 0
        records = records_from_csv(out.read_text())
        assert len(records) == 2

    def test_run_to_stdout_writes_only_the_csv(self, data_dir):
        # bental4's G2:S:H=3 restriction makes HiGHS print on fd 1
        src = str(pathlib.Path(poolkit.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "poolkit.cli", "run",
             "--instances", str(data_dir / "bental4.json"),
             "--methods", "F4:S,G2:S:H=3"],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        records = records_from_csv(proc.stdout)
        assert [r.method for r in records] == ["F4:S", "G2:S:H=3"]

    def test_convert_and_tighten_commands(self, tmp_path):
        sched = {"stockpiles": ["a"],
                 "supplies": [{"stockpile": "a", "time": 1, "qty": 10.0,
                               "spec": [1.0]},
                              {"stockpile": "a", "time": 3, "qty": 5.0,
                               "spec": [2.0]}],
                 "demands": [{"time": 2, "qty": 6.0, "spec_max": [1.5],
                              "penalty": [4.0]}]}
        spath = tmp_path / "sched.json"
        spath.write_text(json.dumps(sched))
        ipath = tmp_path / "inst.json"
        assert main(["convert-mining", str(spath), "--out", str(ipath)]) == 0
        data = json.loads(ipath.read_text())
        assert {n["kind"] for n in data["nodes"]} == {"source", "pool", "terminal"}
        bpath = tmp_path / "bounds.json"
        assert main(["tighten", "--mining", str(spath), "--out", str(bpath)]) == 0
        bounds = json.loads(bpath.read_text())
        assert bounds["arcs"]["s:a:1->i:a:1"] == [10.0, 10.0]

    def test_bounds_cache_round_trip(self, tmp_path, data_dir):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cache = tmp_path / "cache"
        for out in (out1, out2):
            code = main(["run", "--instances", str(data_dir / "haverly1.json"),
                         "--methods", "F1:S", "--obbt", "on",
                         "--bounds-cache", str(cache), "--out", str(out)])
            assert code == 0
        assert len(list(cache.glob("*.json"))) == 1
        a = records_from_csv(out1.read_text())
        b = records_from_csv(out2.read_text())
        assert a[0].gap_percent == b[0].gap_percent
        assert a[0].objective == b[0].objective

    def test_converted_instance_reparses(self, tmp_path):
        sched = {"stockpiles": ["a", "b"],
                 "supplies": [{"stockpile": "a", "time": 1, "qty": 10.0, "spec": [1.0]},
                              {"stockpile": "b", "time": 2, "qty": 10.0, "spec": [2.0]}],
                 "demands": [{"time": 3, "qty": 8.0, "spec_max": [1.6]}]}
        spath = tmp_path / "sched.json"
        spath.write_text(json.dumps(sched))
        ipath = tmp_path / "inst.json"
        main(["convert-mining", str(spath), "--out", str(ipath)])
        from poolkit import parse_instance
        inst = parse_instance(ipath)
        assert len(inst.pools) == 4  # two supply pools + two surplus pools


class TestGridTableRows:
    def test_haverly_rows_of_the_lp_table(self, haverly1, haverly2, haverly3):
        config = GridConfig(
            instances=[("haverly1", haverly1), ("haverly2", haverly2),
                       ("haverly3", haverly3)],
            methods=["F1:S", "F2:S", "F3:S", "F4:S"], obbt=False, threads=4)
        records = run_grid(config)
        assert len(records) == 12
        want = {"haverly1": 25.00, "haverly2": 66.67, "haverly3": 16.67}
        for rec in records:
            assert rec.gap_percent == pytest.approx(want[rec.instance], abs=0.05)

    def test_time_limit_cell_keeps_dual_bound(self, data_dir):
        from poolkit import parse_instance
        from poolkit.bench import run_cell
        from poolkit.solver import SolveParams
        inst = parse_instance(data_dir / "bental5.json")
        rec = run_cell("bental5", inst, "G1:S:H=3", False, 0.0, None,
                       SolveParams(time_limit_s=0.05))
        assert rec.status in ("time-limit", "optimal", "feasible")
        if rec.status == "time-limit":
            assert rec.dual_bound is not None or rec.objective is None
