"""Gap arithmetic, run grids, CSV round-trips and the CLI."""

import json
import math
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import pytest

import poolkit.bench
import poolkit.tightening
from poolkit import parse_instance
from poolkit.bench import (GridConfig, RunRecord, compute_gap, exact_value,
                           records_from_csv, records_to_csv, run_cell,
                           run_grid, summarize)
from poolkit.cli import _load_instances, main
from poolkit.instances import content_hash, convert_mining, parse_mining
from poolkit.relaxations import RESTRICTION_PORTFOLIO, build_method, parse_method
from poolkit.solver import OPTIMAL, TIME_LIMIT, SolveParams, SolveResult, solve
from poolkit.tightening import (RECIPE_LABEL, RECIPE_RESTRICTIONS, REL_TOL,
                                BoundUpdate, TighteningError, apply_bounds,
                                default_obbt_recipe)
from conftest import PRESOLVE_ERROR_SCHEDULE
from test_acceptance import optimum
from test_tightening import sweep_slack


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
        # adhya1's squeeze never closes: unbudgeted, its passes run every
        # restriction for several seconds
        inst = parse_instance(data_dir / "adhya1.json")
        t0 = time.perf_counter()
        ev = exact_value(inst, SolveParams(time_limit_s=2.0))
        assert time.perf_counter() - t0 < 4.0
        assert not ev.proven
        assert ev.lower is not None  # the cheap LP bounds run first

    def test_status_of_a_proven_squeeze(self, haverly1):
        ev = exact_value(haverly1, first_update=default_obbt_recipe(haverly1))
        assert (ev.proven, ev.status) == (True, "proven")

    def test_status_of_a_spent_budget(self, data_dir):
        from poolkit import parse_instance
        from poolkit.solver import SolveParams
        inst = parse_instance(data_dir / "adhya1.json")
        ev = exact_value(inst, SolveParams(time_limit_s=2.0))
        assert (ev.proven, ev.status) == (False, "time-limit")

    def test_status_when_the_passes_end_unproven(self, bental4, monkeypatch):
        # bental4's squeeze closes only after its own OBBT sweep: untightened,
        # F4 gives -500 and G1:S -450; after the recipe the gap is -452.96
        # against -450
        upd = default_obbt_recipe(bental4)

        def failing(*args, **kw):
            raise TighteningError("crossed interval")

        monkeypatch.setattr(poolkit.bench, "obbt", failing)
        for first_update in (None, upd):
            ev = exact_value(bental4, first_update=first_update)
            assert (ev.proven, ev.status) == (False, "open")

    def test_first_update_stands_for_the_first_recipe(self, haverly2, monkeypatch):
        upd = default_obbt_recipe(haverly2)
        calls = count_recipe_calls(monkeypatch)
        ev = exact_value(haverly2, first_update=upd)
        assert calls == []   # the squeeze's own passes run no recipe
        assert ev.proven
        assert ev.value == pytest.approx(optimum("haverly2"), rel=REL_TOL)
        assert ev.lower == pytest.approx(optimum("haverly2"), rel=REL_TOL)
        # the witness may be one of the recipe's own restrictions, which were
        # solved on haverly2 itself; either way that restriction reaches ev.value
        assert ev.witness in RESTRICTION_PORTFOLIO
        res = solve(build_method(haverly2, parse_method(ev.witness)).model)
        assert res.objective <= ev.value + 1e-6 * abs(ev.value)

    def test_first_update_solves_no_restriction_on_the_instance(self, haverly2,
                                                                monkeypatch):
        upd = default_obbt_recipe(haverly2)
        builds = record_builds(monkeypatch)
        ev = exact_value(haverly2, first_update=upd)
        assert ev.proven
        assert [label for inst, label in builds if inst is haverly2] == []

    def test_recipe_value_that_meets_the_lp_needs_no_restriction(self, haverly1,
                                                                 monkeypatch):
        # haverly1's tightened F4 bound is -400, its G2:T:H=3 value as well
        upd = default_obbt_recipe(haverly1)
        builds = record_builds(monkeypatch)
        ev = exact_value(haverly1, first_update=upd)
        assert [label for _, label in builds] == ["F4:S", "F4:T"]
        assert upd.z_witness == "G2:T:H=3"
        assert (ev.status, ev.witness, ev.value) == ("proven", upd.z_witness, upd.z_box[1])

    def test_an_update_of_another_instance_proves_nothing(self, haverly1, data_dir,
                                                          monkeypatch):
        # foulds2's update names keys haverly1 lacks, and its restriction
        # value -1100 lies below haverly1's optimum -400: the squeeze raises
        # before any solve, rather than run untightened
        upd = default_obbt_recipe(parse_instance(data_dir / "foulds2.json"))
        builds = record_builds(monkeypatch)
        with pytest.raises(TighteningError, match="update targets unknown"):
            exact_value(haverly1, first_update=upd)
        assert builds == []

    def test_crossed_bounds_are_not_a_proof(self, bental4, monkeypatch):
        # an F4 bound above a restriction value shows a fault; bental4's
        # restriction values lie near its optimum -450
        upd = default_obbt_recipe(bental4)

        def above_the_value(model, params=None):
            res = solve(model, params)
            if ":F4" in model.name:
                return replace(res, dual_bound=1000.0)
            return res

        monkeypatch.setattr(poolkit.bench, "solve", above_the_value)
        for first_update in (None, upd):
            ev = exact_value(bental4, first_update=first_update)
            assert ev.upper < 0 < ev.lower == 1000.0
            assert not ev.proven and ev.status != "proven"

    def test_a_rejected_point_is_no_upper_bound(self, haverly1, monkeypatch):
        # a restriction value below the optimum -400 whose point the exact
        # model rejects (its flows break every arc bound) was the squeeze's
        # upper bound and witness; it bounds nothing
        def rejected(model, params=None):
            res = solve(model, params)
            if ":G" in model.name:
                return replace(res, objective=-1000.0, point=res.point + 1e6)
            return res

        monkeypatch.setattr(poolkit.bench, "solve", rejected)
        ev = exact_value(haverly1)
        assert (ev.upper, ev.witness, ev.status) == (None, "", "open")

    def test_no_restriction_starts_once_the_squeeze_closes(self, data_dir, monkeypatch):
        from poolkit import parse_instance
        # foulds2's F4 bound is its optimum, which G2:S:H=3 reaches
        inst = parse_instance(data_dir / "foulds2.json")
        builds = record_builds(monkeypatch)
        ev = exact_value(inst)
        assert [label for _, label in builds] == ["F4:S", "F4:T", "G2:S:H=3"]
        assert (ev.status, ev.witness) == ("proven", "G2:S:H=3")

    def test_grid_squeeze_closes_at_the_recipe_value(self, data_dir, monkeypatch):
        from poolkit import parse_instance
        # run_grid's path: the recipe's update stands for the first pass, and
        # its G2:T:H=3 value meets the tightened F4 bounds
        inst = parse_instance(data_dir / "adhya3.json")
        upd = default_obbt_recipe(inst)
        builds = record_builds(monkeypatch)
        ev = exact_value(inst, first_update=upd)
        assert [label for _, label in builds] == ["F4:S", "F4:T"]
        assert (ev.status, ev.witness) == ("proven", "G2:T:H=3")
        assert ev.value == pytest.approx(-939.3181818181819, rel=REL_TOL)

    def test_later_passes_solve_only_the_f4_lps(self, bental4, monkeypatch):
        # with bounds that never meet, the squeeze runs a pass after each
        # sweep until a sweep fails (here the third, whose box the second
        # pass's F4 bound crosses by the last bits); the recipe keeps
        # tightening.bounds_meet
        upd = default_obbt_recipe(bental4)
        monkeypatch.setattr(poolkit.bench, "bounds_meet", lambda lower, upper: False)
        builds = record_builds(monkeypatch)
        ev = exact_value(bental4, first_update=upd)
        first = [label for inst, label in builds if inst is ev.instance]
        later = [label for inst, label in builds if inst is not ev.instance]
        assert first == ["F4:S", "F4:T", "G2:S:H=3", "G1:S:H=3"]
        assert later and later == ["F4:S", "F4:T"] * (len(later) // 2)
        assert set(ev.first_pass) <= set(first)

    @pytest.mark.parametrize("name", ["bental4", "adhya1"])
    def test_the_recipe_restrictions_are_not_solved_again(self, data_dir,
                                                          monkeypatch, name):
        # the recipe solved them on the instance itself, whose box holds
        # every instance the squeeze tightens: a restriction is solved once
        inst = parse_instance(data_dir / f"{name}.json")
        upd = default_obbt_recipe(inst)
        builds = record_builds(monkeypatch)
        ev = exact_value(inst, first_update=upd)
        built = {label for _, label in builds}
        assert built & set(RECIPE_RESTRICTIONS) == set()
        assert set(RESTRICTION_PORTFOLIO) - set(RECIPE_RESTRICTIONS) <= built
        assert ev.witness == upd.z_witness

    def test_bental5_squeeze_proves_within_its_budget(self, data_dir):
        from poolkit import parse_instance
        from poolkit.solver import SolveParams
        # the placeholder's own optimum, not the published -3500
        inst = parse_instance(data_dir / "bental5.json")
        ev = exact_value(inst, SolveParams(time_limit_s=30))
        assert (ev.status, ev.witness) == ("proven", "G2:S:H=3")
        assert ev.value == pytest.approx(ev.lower, rel=REL_TOL)


def record_builds(monkeypatch) -> list:
    """Record the instance and label of every model the squeeze builds."""
    builds = []

    def recorded(inst, spec):
        builds.append((inst, spec.label()))
        return build_method(inst, spec)

    monkeypatch.setattr(poolkit.bench, "build_method", recorded)
    return builds


def count_recipe_calls(monkeypatch) -> list:
    """Record the instance of every default_obbt_recipe call made by bench."""
    calls = []

    def counted(inst, **kw):
        calls.append(inst)
        return default_obbt_recipe(inst, **kw)

    monkeypatch.setattr(poolkit.bench, "default_obbt_recipe", counted)
    return calls


def record_solves(monkeypatch) -> tuple[list, list]:
    """Record (phase, content hash, label) of every model that bench or
    tightening builds and solves, and every ExactValue the grid gets.  The
    phase is "squeeze" inside exact_value; outside it, "cell" for bench's
    solves and "recipe" for the recipe's restriction (G) solves.  An OBBT
    sweep's solves, and the recipe's F4:T check, which repeats the
    squeeze's first F4:T LP, are not recorded."""
    solves, squeezes, built, phase = [], [], {}, ["cell"]

    def recorded_build(inst, spec):
        res = build_method(inst, spec)
        built[id(res.model)] = (res.model, content_hash(inst), spec.label())
        return res

    def recorded_solve(model, params=None):
        solves.append((phase[0],) + built[id(model)][1:])
        return solve(model, params)

    def recorded_recipe_solve(model, params=None):
        if built[id(model)][2].startswith("G"):
            solves.append(("recipe",) + built[id(model)][1:])
        return solve(model, params)

    def squeeze(*args, **kw):
        phase[0] = "squeeze"
        try:
            squeezes.append(exact_value(*args, **kw))
        finally:
            phase[0] = "cell"
        return squeezes[-1]

    for module in (poolkit.bench, poolkit.tightening):
        monkeypatch.setattr(module, "build_method", recorded_build)
    monkeypatch.setattr(poolkit.bench, "solve", recorded_solve)
    monkeypatch.setattr(poolkit.tightening, "solve", recorded_recipe_solve)
    monkeypatch.setattr(poolkit.bench, "exact_value", squeeze)
    return solves, squeezes


def timings_zeroed(records: list[RunRecord]) -> list[RunRecord]:
    return [replace(r, prep_seconds=0.0, solve_seconds=0.0) for r in records]


class TestSolveOnce:
    LABELS = ["F4:S", "F4:T", "G2:S:H=3", "G2:T:H=3"]

    @pytest.mark.parametrize("obbt", [True, False], ids=["obbt-on", "obbt-off"])
    def test_each_model_is_solved_once(self, data_dir, monkeypatch, obbt):
        names = ("haverly2", "bental4", "foulds2")
        instances = [(n, parse_instance(data_dir / f"{n}.json")) for n in names]
        solves, squeezes = record_solves(monkeypatch)
        records = run_grid(GridConfig(instances, self.LABELS, obbt=obbt))
        assert len(records) == len(names) * len(self.LABELS)
        counts = Counter((h, label) for _, h, label in solves
                         if label in self.LABELS)
        assert counts and set(counts.values()) == {1}, counts
        # the squeeze's F4 solves served the cells on every instance
        for ev in squeezes:
            assert {"F4:S", "F4:T"} <= set(ev.first_pass)
        assert not any(phase == "cell" and label.startswith("F4")
                       for phase, _, label in solves)

    @pytest.mark.parametrize("name", ["bental4"], ids=["bental4-recipe"])
    def test_a_squeeze_solves_no_model_twice(self, data_dir, monkeypatch, name):
        # the squeeze runs a second pass, whose OBBT box is the squeeze's
        # own: it solves no restriction again on the instance it tightens
        inst = parse_instance(data_dir / f"{name}.json")
        upd = default_obbt_recipe(inst)
        solves, _ = record_solves(monkeypatch)
        ev = poolkit.bench.exact_value(inst, first_update=upd)
        assert ev.status == "proven"
        counts = Counter((h, label) for _, h, label in solves)
        assert len({h for h, _ in counts}) == 2
        assert set(counts.values()) == {1}, counts

    # bental4's first pass solves the source-basis restrictions, the
    # recipe having solved the others; on foulds2 the recipe's G2:T:H=3
    # value meets the F4 bounds, so no restriction runs
    @pytest.mark.parametrize("name,shared", [
        ("bental4", {"F4:S", "F4:T", "G2:S:H=3"}),
        ("foulds2", {"F4:S", "F4:T"})], ids=["bental4", "foulds2"])
    def test_shared_cells_equal_fresh_cells(self, data_dir, monkeypatch, name, shared):
        inst = parse_instance(data_dir / f"{name}.json")
        updates = []

        def kept(inst, **kw):
            updates.append(default_obbt_recipe(inst, **kw))
            return updates[-1]

        monkeypatch.setattr(poolkit.bench, "default_obbt_recipe", kept)
        _, squeezes = record_solves(monkeypatch)
        records = run_grid(GridConfig([(name, inst)], self.LABELS, obbt=True))
        # the grid's recipe comes first; bental4's squeeze runs more passes
        (ev,), upd = squeezes, updates[0]
        assert set(ev.first_pass) & set(self.LABELS) == shared
        work = apply_bounds(inst, upd)
        params = SolveParams(time_limit_s=GridConfig([], []).time_limit_s)
        for rec in records:
            fresh = run_cell(name, work, rec.method, True, 0.0, ev.value,
                             params, ev.status)
            assert repr(timings_zeroed([rec])) == repr(timings_zeroed([fresh]))
            if rec.method in ev.first_pass:
                assert rec.solve_seconds == ev.first_pass[rec.method][1]
        assert {r.ref_status for r in records} == {"proven"}

    def test_a_squeeze_that_ignores_its_update_serves_untightened_cells(
            self, haverly1, monkeypatch):
        solves, _ = record_solves(monkeypatch)
        squeeze = poolkit.bench.exact_value

        def untightened(inst, params, **kw):
            return squeeze(inst, params)

        # the cells run on the instance the squeeze solved, haverly1 itself,
        # and take its solves
        monkeypatch.setattr(poolkit.bench, "exact_value", untightened)
        labels = ["F4:S", "F4:T"]
        records = run_grid(GridConfig([("haverly1", haverly1)], labels, obbt=True))
        assert [phase for phase, _, _ in solves if phase == "cell"] == []
        assert [r.obbt for r in records] == [False, False]
        for rec in records:
            fresh = solve(build_method(haverly1, parse_method(rec.method)).model)
            assert rec.dual_bound == fresh.dual_bound

    def test_a_squeeze_solve_stopped_by_time_is_not_shared(self, haverly1,
                                                           monkeypatch):
        solves, _ = record_solves(monkeypatch)
        recorded_solve = poolkit.bench.solve

        def restrictions_stop(model, params=None):
            res = recorded_solve(model, params)
            if solves[-1][0] == "squeeze" and solves[-1][2].startswith("G"):
                return SolveResult(TIME_LIMIT, res.objective, res.dual_bound,
                                   res.seconds)
            return res

        monkeypatch.setattr(poolkit.bench, "solve", restrictions_stop)
        labels = ["F4:S", "G2:S:H=3", "G2:T:H=3"]
        records = run_grid(GridConfig([("haverly1", haverly1)], labels))
        cells = [label for phase, _, label in solves if phase == "cell"]
        assert cells == ["G2:S:H=3", "G2:T:H=3"]
        assert [r.status for r in records] == ["optimal"] * 3
        for rec in records[1:]:
            fresh = run_cell("haverly1", haverly1, rec.method, False, 0.0, None,
                             SolveParams())
            assert rec.objective == fresh.objective


class TestGridTightening:
    def test_recipe_runs_once_per_instance(self, haverly1, haverly2, monkeypatch):
        calls = count_recipe_calls(monkeypatch)
        config = GridConfig(instances=[("haverly1", haverly1), ("haverly2", haverly2)],
                            methods=["F1:S"], obbt=True)
        records = run_grid(config)
        assert [r.obbt for r in records] == [True, True]
        assert calls == [haverly1, haverly2]

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

    def test_each_update_is_applied_once(self, haverly1, monkeypatch):
        applied = []

        def spy(inst, upd):
            applied.append(inst)
            return apply_bounds(inst, upd)

        monkeypatch.setattr(poolkit.bench, "apply_bounds", spy)
        records = run_grid(GridConfig([("haverly1", haverly1)], ["F4:S"], obbt=True))
        assert [r.obbt for r in records] == [True]
        assert sum(1 for inst in applied if inst is haverly1) == 1

    @pytest.mark.parametrize("bad", [
        # a cache file under haverly1's name that targets an arc it lacks
        BoundUpdate(arc_bounds={("X", "Y"): (0.0, 1.0)}, z_box=(-2000.0, -1000.0)),
        # a crossing within rounding of p1's capacity: kept, it raised BoxError
        BoundUpdate(node_bounds={"p1": (100.0, 100.0 - 5e-8)})],
        ids=["unknown-arc", "crossing"])
    def test_a_cached_update_that_does_not_fit_is_recomputed(self, haverly1, tmp_path,
                                                             bad):
        # such a file was returned, the squeeze dropped it and wrote obbt=0,
        # and the file stayed, so the instance was never tightened again
        path = tmp_path / f"{content_hash(haverly1)}-{RECIPE_LABEL}.json"
        path.write_text(bad.to_json())
        labels = ["F4:S", "G2:S:H=3"]
        cached = run_grid(GridConfig([("haverly1", haverly1)], labels, obbt=True,
                                     bounds_cache=str(tmp_path)))
        fresh = run_grid(GridConfig([("haverly1", haverly1)], labels, obbt=True))
        assert [r.obbt for r in cached] == [True, True]
        assert path.read_text() == default_obbt_recipe(haverly1).to_json()
        assert repr(timings_zeroed(cached)) == repr(timings_zeroed(fresh))

    def test_a_recipe_out_of_time_is_not_cached(self, haverly1, tmp_path):
        # the cache key records no time limit, so an update cut short by one
        # must not stand in for a full one in a later grid
        labels = ["F4:S"]
        spent = run_grid(GridConfig([("haverly1", haverly1)], labels, obbt=True,
                                    time_limit_s=0.0, bounds_cache=str(tmp_path)))
        assert [r.obbt for r in spent] == [False]
        assert list(tmp_path.iterdir()) == []
        full = run_grid(GridConfig([("haverly1", haverly1)], labels, obbt=True,
                                   bounds_cache=str(tmp_path)))
        fresh = run_grid(GridConfig([("haverly1", haverly1)], labels, obbt=True))
        assert [r.obbt for r in full] == [True]
        assert len(list(tmp_path.iterdir())) == 1
        assert repr(timings_zeroed(full)) == repr(timings_zeroed(fresh))

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

    def test_threads_give_the_records_of_one_thread(self, haverly1, haverly2):
        def grid(threads):
            return run_grid(GridConfig(
                instances=[("haverly1", haverly1), ("haverly2", haverly2)],
                methods=["F1:S", "F4:S", "F4:T", "G2:S:H=3", "M2:T:H=3"],
                obbt=True, threads=threads))

        one, two = grid(1), grid(2)
        assert repr(timings_zeroed(two)) == repr(timings_zeroed(one))
        assert {r.ref_status for r in one} == {"proven"}

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
        # haverly1's squeeze without OBBT ends open; a cell without a
        # reference has no ref_status
        records = run_grid(config) + [run_cell("haverly1", haverly1, "F1:S",
                                               False, 0.0, None, SolveParams())]
        assert [r.ref_status for r in records] == ["open", "open", ""]
        text = records_to_csv(records)
        back = records_from_csv(text)
        assert repr(back) == repr(records)   # the last gap is NaN
        assert records_to_csv(back) == text

    def test_a_row_without_ref_status_reads(self):
        # a row written before the ref_status column: each column is read
        # by its field, and the fields with defaults may be left out
        row = ["haverly1", "F1:S", "1", "0.5", "0.25", "", "-500.0", "25.0", "D",
               "optimal"]
        rec = RunRecord.from_csv_row(row)
        assert rec == RunRecord("haverly1", "F1:S", True, 0.5, 0.25, None, -500.0,
                                25.0, "D", "optimal")
        assert rec.ref_status == ""
        assert rec.csv_row() == row + [""]

    @pytest.mark.parametrize("obbt", [False, True], ids=["obbt-off", "obbt-on"])
    def test_a_spent_budget_records_every_cell_as_time_limit(
            self, haverly1, haverly2, monkeypatch, obbt):
        built = []

        def spy(inst, spec):
            built.append(spec)
            return build_method(inst, spec)

        monkeypatch.setattr(poolkit.bench, "build_method", spy)
        config = GridConfig([("haverly1", haverly1), ("haverly2", haverly2)],
                            ["F1:S", "G2:S:H=3"], obbt=obbt, time_limit_s=0.0)
        records = run_grid(config)
        assert [r.status for r in records] == [TIME_LIMIT] * 4
        assert built == []   # neither the squeeze nor a cell built a model
        text = records_to_csv(records)
        assert repr(records_from_csv(text)) == repr(records)
        assert records_to_csv(records_from_csv(text)) == text

    def test_a_later_squeeze_that_spends_the_budget_leaves_earlier_cells(
            self, haverly1, haverly2, monkeypatch):
        def slow(inst, params, **kw):
            ref = exact_value(inst, params, **kw)
            if inst is haverly2:
                time.sleep(params.time_limit_s)   # what the grid has left
            return ref

        monkeypatch.setattr(poolkit.bench, "exact_value", slow)
        config = GridConfig([("haverly1", haverly1), ("haverly2", haverly2)],
                            ["MCF:S", "F4:S"], time_limit_s=1.0)
        # each instance's cells run right after its own squeeze, and a cell
        # the squeeze solved keeps that result
        assert [(r.instance, r.method, r.status) for r in run_grid(config)] == [
            ("haverly1", "MCF:S", OPTIMAL), ("haverly1", "F4:S", OPTIMAL),
            ("haverly2", "MCF:S", TIME_LIMIT), ("haverly2", "F4:S", OPTIMAL)]

    @pytest.mark.parametrize("text", ["", "instance,method\nhaverly1,F1:S\n"],
                             ids=["empty", "foreign-header"])
    def test_a_foreign_csv_is_refused(self, text):
        with pytest.raises(ValueError, match="unrecognized CSV header"):
            records_from_csv(text)

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


# a schedule whose one demand has the given penalty, which used to
# become the default weight when negative or NaN
BAD_PENALTY = ('{{"stockpiles": ["a"], "supplies": [{{"stockpile": "a", "time": 1, '
               '"qty": 5.0, "spec": [1.0]}}], "demands": [{{"time": 2, "qty": 3.0, '
               '"spec_max": [2.0], "penalty": [{}]}}]}}')


class TestCLI:
    def test_run_command(self, tmp_path, data_dir):
        out = tmp_path / "res.csv"
        code = main(["run", "--instances", str(data_dir / "haverly1.json"),
                     "--methods", "F1:S,F4:S", "--obbt", "off",
                     "--out", str(out)])
        assert code == 0
        records = records_from_csv(out.read_text())
        assert len(records) == 2

    def test_a_comma_inside_parentheses_belongs_to_the_label(self, tmp_path, data_dir):
        # the spelling MethodSpec.label() writes; the comma used to split it
        out = tmp_path / "res.csv"
        code = main(["run", "--instances", str(data_dir / "haverly1.json"),
                     "--methods", "F3:S+Vab(x,r),F4:T", "--obbt", "off",
                     "--out", str(out)])
        assert code == 0
        records = records_from_csv(out.read_text())
        assert [r.method for r in records] == ["F3:S+Vab(x,r)", "F4:T"]

    @pytest.mark.parametrize("value,message", [
        ("F4,F4:S", "names no basis"),
        ("F4:S+Vab,F4:S+Vab+Vab", "name the model F4:S+Vab(x,r)"),
        ("F4:S+Vab(x,r),F4:S+Vab", "name the model F4:S+Vab(x,r)")])
    def test_two_labels_of_one_model_exit_2(self, tmp_path, data_dir, capsys,
                                            monkeypatch, value, message):
        # each used to write two CSV rows and two summary rows for one model
        monkeypatch.setattr("poolkit.cli.run_grid", lambda *a: pytest.fail("solved"))
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--instances", str(data_dir / "haverly1.json"),
                  "--methods", value, "--out", str(out)])
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,value", [
        ("--threads", "0"), ("--threads", "-2"),
        ("--time-limit", "-5"), ("--time-limit", "nan")])
    def test_run_rejects_a_bad_thread_count_or_time_limit(self, tmp_path, data_dir,
                                                          capsys, option, value):
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--instances", str(data_dir / "haverly1.json"),
                  "--methods", "F1:S", option, value, "--out", str(out)])
        assert exit_.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,value", [
        ("--methods", "F1:S,F4:Q"), ("--methods", "G2:T"),
        ("--instances", "no-such-instance.json"),
        ("--out", "no-such-dir/res.csv"), ("--out", "."),
        ("--bounds-cache", "a-file"), ("--bounds-cache", "a-file/cache")])
    def test_run_rejects_a_bad_method_or_instance_path(self, tmp_path, data_dir,
                                                       capsys, monkeypatch,
                                                       option, value):
        # a typo used to raise a traceback, a method's only after the
        # recipe and the squeeze had run; so did an output path that could
        # not be written, and the grid's results were lost
        monkeypatch.setattr("poolkit.cli.run_grid", lambda *a: pytest.fail("solved"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a-file").write_text("")
        out = tmp_path / "res.csv"
        args = {"--instances": str(data_dir / "haverly1.json"), "--methods": "F1:S",
                "--obbt": "on", "--out": str(out), option: value}
        with pytest.raises(SystemExit) as exit_:
            main(["run"] + [word for pair in args.items() for word in pair])
        assert exit_.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,option,value", [
        ("tighten", "--mining", "no-such-schedule.json"),
        ("tighten", "--penalty", "nan"), ("tighten", "--penalty", "-1"),
        ("tighten", "--out", "."), ("tighten", "--out", "no-such-dir/out.json"),
        ("convert-mining", "schedule", "no-such-schedule.json"),
        ("convert-mining", "--penalty", "inf"),
        ("convert-mining", "--out", "no-such-dir/out.json")])
    def test_mining_commands_reject_a_bad_path_or_penalty(self, tmp_path, data_dir,
                                                          capsys, monkeypatch,
                                                          command, option, value):
        # a missing file used to raise a traceback, a NaN penalty to exit 0,
        # and an --out that could not be written a traceback after the recipe
        monkeypatch.setattr("poolkit.cli.default_obbt_recipe",
                            lambda *a: pytest.fail("solved"))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.json"
        schedule = {"tighten": "--mining", "convert-mining": "schedule"}[command]
        args = {schedule: str(data_dir / "mining" / "example_schedule.json"),
                "--penalty": "1", "--out": str(out), option: value}
        argv = [command]
        for key, word in args.items():
            argv += [word] if key == "schedule" else [key, word]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,text", [
        (["convert-mining", "FILE"], '{"stockpiles": ['),
        (["tighten", "--mining", "FILE"], '{"stockpiles": ['),
        (["tighten", "--mining", "FILE"],
         '{"stockpiles": ["a"], "demands": [{"time": 1, "qty": 3.0, "spec_max": [2.0]}],'
         ' "supplies": [{"stockpile": "a", "time": 2, "qty": 5.0, "spec": [1.0]}]}'),
        (["run", "--instances", "FILE", "--methods", "F1:S"], '{"nodes": 3, "arcs": []}'),
        (["convert-mining", "FILE"], BAD_PENALTY.format(-3.0)),
        (["tighten", "--mining", "FILE"], BAD_PENALTY.format("NaN"))],
        ids=["convert-mining", "tighten", "tighten-no-feasible-plan", "run",
             "convert-mining-negative-penalty", "tighten-nan-penalty"])
    def test_an_invalid_input_file_exits_2(self, tmp_path, capsys, argv, text):
        # a file that exists but holds no valid schedule or instance raised a
        # traceback and exited 1; so did a schedule whose demand comes before
        # any supply, on which the recipe's sweep finds its relaxation infeasible
        path = tmp_path / "input.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exit_:
            main([str(path) if word == "FILE" else word for word in argv])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("poolkit: error: ") and err.count("\n") == 1

    def test_an_invalid_file_in_an_instance_directory_is_named(self, tmp_path, data_dir,
                                                               capsys, monkeypatch):
        # the error line gave the schema problem but not the file it was in
        monkeypatch.setattr("poolkit.cli.run_grid", lambda *a: pytest.fail("solved"))
        (tmp_path / "haverly1.json").write_text((data_dir / "haverly1.json").read_text())
        (tmp_path / "broken.json").write_text('{"nodes": 3, "arcs": []}')
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--instances", str(tmp_path), "--methods", "F1:S"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("poolkit: error: ") and err.count("\n") == 1
        assert str(tmp_path / "broken.json") in err

    def test_an_empty_instance_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        # it exited 1 through SystemExit with a bare message
        monkeypatch.setattr("poolkit.cli.run_grid", lambda *a: pytest.fail("solved"))
        (tmp_path / "notes.txt").write_text("no instance here")
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--instances", str(tmp_path), "--methods", "F1:S"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("poolkit: error: ") and err.count("\n") == 1
        assert "no instance files" in err and str(tmp_path) in err

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
        lo, hi = bounds["arcs"]["s:a:1->i:a:1"]
        assert 10.0 - sweep_slack(parse_instance(ipath)) <= lo <= hi <= 10.0

    def test_tighten_to_stdout_writes_only_the_json(self, tmp_path):
        # this schedule's G2:T:H=3 restriction makes HiGHS print on fd 1
        spath = tmp_path / "sched.json"
        spath.write_text(json.dumps(PRESOLVE_ERROR_SCHEDULE))
        src = str(pathlib.Path(poolkit.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "poolkit.cli", "tighten", "--mining", str(spath)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        upd = BoundUpdate.from_json(proc.stdout)
        assert proc.stdout == upd.to_json() + "\n"
        inst = convert_mining(parse_mining(spath))
        assert upd.to_json() == default_obbt_recipe(inst).to_json()

    def test_bundled_data_dir_holds_only_instances(self, tmp_path, data_dir):
        # `poolkit run --instances src/poolkit/data` reads every JSON file
        # there; the mining schedule lives in data/mining
        names = [name for name, _ in _load_instances(str(data_dir), False)]
        assert names == ["adhya1", "adhya2", "adhya3", "adhya4", "bental4",
                         "bental5", "foulds2", "haverly1", "haverly2", "haverly3"]
        sched = data_dir / "mining" / "example_schedule.json"
        assert main(["tighten", "--mining", str(sched),
                     "--out", str(tmp_path / "bounds.json")]) == 0

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
