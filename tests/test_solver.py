"""ModelIR dumps, the HiGHS adapter, and solve contracts."""

import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import poolkit
import poolkit.solver
from poolkit import parse_instance
from poolkit.instances import convert_mining, parse_mining_dict
from poolkit.modelir import EQ, GE, LE, ModelError, ModelIR, dump_model
from poolkit.relaxations import build_method, parse_method
from poolkit.solver import (CapabilityError, Session, SolveParams, compile_model,
                            solve, solve_compiled)

from conftest import DATA, PRESOLVE_ERROR_SCHEDULE, milp_oracle, patch_mip_gap

LP_TABLE_LABELS = tuple(f"{kind}:{basis}" for basis in "ST"
                        for kind in ("MCF", "F1", "F2", "F3", "F4"))


def tiny_lp():
    m = ModelIR("tiny")
    m.add_var("x", 3.0, 7.0)
    m.set_objective({"x": 1.0})
    return m


class TestSolve:
    def test_interval_minimum(self):
        res = solve(tiny_lp())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0)
        assert res.dual_bound == pytest.approx(3.0)

    def test_infeasible_row(self):
        m = tiny_lp()
        m.add_row("bad", {"x": 1.0}, LE, 1.0)
        res = solve(m)
        assert res.status == "infeasible" and res.objective is None

    def test_unbounded(self):
        m = ModelIR("unb")
        m.add_var("x", 0.0)
        m.set_objective({"x": -1.0})
        assert solve(m).status == "unbounded"

    def test_haverly_f1_lp_value(self, haverly1):
        res = solve(build_method(haverly1, parse_method("F1:S")).model)
        assert res.objective == pytest.approx(-500.0)

    def test_capability_mismatch(self):
        m = tiny_lp()
        m.add_var("q", 0.0, 1.0)
        m.add_var("f", 0.0, 2.0)
        m.add_bilinear("x", "q", "f")
        with pytest.raises(CapabilityError):
            solve(m)

    def test_milp_gap_contract(self, haverly1):
        res = solve(build_method(haverly1, parse_method("G1:S:H=3")).model)
        assert res.status == "optimal"
        assert abs(res.objective - res.dual_bound) <= 1e-4 * max(1, abs(res.objective))

    def test_binary_forced_bounds(self):
        m = ModelIR("b")
        m.add_var("z", binary=True)
        assert m.variables["z"].lb == 0.0 and m.variables["z"].ub == 1.0


def same(a, b):
    assert a.status == b.status
    for x, y in ((a.objective, b.objective), (a.dual_bound, b.dual_bound)):
        assert (x is None) == (y is None)
        if x is not None:
            assert x == pytest.approx(y, rel=1e-9, abs=1e-9)


class TestOneShotLP:
    """solve runs every LP on the HiGHS binding; scipy.optimize.milp on the
    same arrays is the reference."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.json")))
    def test_lp_table_matches_oracle(self, name):
        inst = parse_instance(DATA / f"{name}.json")
        for label in LP_TABLE_LABELS:
            model = build_method(inst, parse_method(label)).model
            res = solve(model)
            assert res.status == "optimal", label
            same(res, milp_oracle(compile_model(model)))

    def test_zero_budget_gives_no_value(self, data_dir):
        inst = parse_instance(data_dir / "adhya3.json")
        res = solve(build_method(inst, parse_method("F4:T")).model,
                    SolveParams(time_limit_s=0.0))
        assert res.status == "time-limit"
        assert res.objective is None and res.dual_bound is None
        assert res.assignment == {}


@pytest.fixture
def milp_options(monkeypatch):
    """The options of each scipy.optimize.milp call the package makes."""
    options = []

    def spied(*args, **kw):
        options.append(kw["options"])
        return milp(*args, **kw)

    monkeypatch.setattr(poolkit.solver, "milp", spied)
    return options


class TestSession:
    """A Session gives what scipy.optimize.milp gives, solve after solve."""

    def test_statuses_match_one_shot(self):
        infeasible = tiny_lp()
        infeasible.add_row("bad", {"x": 1.0}, LE, 1.0)
        unbounded = ModelIR("unb")
        unbounded.add_var("x", 0.0)
        unbounded.set_objective({"x": -1.0})
        # MIPs that do not reach OPTIMAL: a binary row that cannot hold, one
        # that fails only for integral points (its LP relaxation holds
        # z = w = 1/4), and an unbounded one
        binary_row = ModelIR("binary-row")
        binary_row.add_var("z", binary=True)
        binary_row.add_var("y", binary=True)
        binary_row.add_row("cover", {"z": 1.0, "y": 1.0}, GE, 3.0)
        odd = ModelIR("odd")
        odd.add_var("z", binary=True)
        odd.add_var("w", binary=True)
        odd.add_row("half", {"z": 2.0, "w": 2.0}, EQ, 1.0)
        odd.set_objective({"z": 1.0})
        unbounded_mip = ModelIR("unbounded-mip")
        unbounded_mip.add_var("z", binary=True)
        unbounded_mip.add_var("x", 0.0)
        unbounded_mip.set_objective({"x": -1.0, "z": 1.0})
        for model, status in ((tiny_lp(), "optimal"), (infeasible, "infeasible"),
                              (unbounded, "unbounded"), (binary_row, "infeasible"),
                              (odd, "infeasible")):
            cm = compile_model(model)
            oracle = milp_oracle(cm)
            assert oracle.status == status, model.name
            # solve_compiled sends a MIP to scipy.optimize.milp, an LP to the binding
            same(Session(cm).solve(), oracle)
            same(solve_compiled(cm), oracle)
        # with presolve the unbounded MIP ends in a solve error; both package
        # paths solve it once more without presolve, which finds it unbounded
        cm = compile_model(unbounded_mip)
        assert milp_oracle(cm).status == "error"
        assert Session(cm).solve().status == "unbounded"
        same(solve_compiled(cm), Session(cm).solve())

    def test_a_mip_solve_error_is_solved_again_without_presolve(self):
        # HiGHS ends this restriction in a solve error with presolve, and
        # scipy.optimize.milp finds it infeasible without: a solve error
        # read as "no point" would pass for an answer
        inst = convert_mining(parse_mining_dict(PRESOLVE_ERROR_SCHEDULE))
        cm = compile_model(build_method(inst, parse_method("G2:T:H=3")).model)
        assert milp_oracle(cm).status == "error"
        plain = milp(c=cm.c, constraints=LinearConstraint(cm.A, cm.row_lo, cm.row_hi),
                     integrality=cm.integrality, bounds=Bounds(cm.lb, cm.ub),
                     options={"presolve": False})
        assert plain.status == 2  # infeasible
        for res in (solve_compiled(cm), Session(cm).solve()):
            assert (res.status, res.objective, res.dual_bound) == ("infeasible", None, None)
            # the first run's error stays on the second run's answer
            assert res.first_status == "error"

    def test_edge_shapes_of_the_arrays_match_one_shot(self):
        # HiGHS gets the CSR arrays as they are: no rows, a row without
        # coefficients, and an integrality array of binaries only
        no_rows = ModelIR("no-rows")
        no_rows.add_var("x", -1.0, 4.0)
        no_rows.add_var("y", 2.0, 3.0)
        no_rows.set_objective({"x": 1.0, "y": -2.0})
        empty_row = ModelIR("empty-row")
        empty_row.add_var("x", 0.0, 4.0)
        empty_row.add_var("y", 0.0, 4.0)
        empty_row.add_row("a", {"x": 1.0, "y": 1.0}, LE, 5.0)
        empty_row.add_row("b", {}, LE, 1.0)
        empty_row.add_row("c", {"x": 1.0, "y": -1.0}, GE, 1.0)
        empty_row.set_objective({"x": -1.0, "y": -2.0})
        only_empty = ModelIR("only-empty-row")
        only_empty.add_var("x", 1.0, 2.0)
        only_empty.add_row("b", {}, EQ, 0.0)
        only_empty.set_objective({"x": 1.0})
        binary = ModelIR("binary")
        for v in ("z1", "z2", "z3"):
            binary.add_var(v, binary=True)
        binary.add_row("cap", {"z1": 3.0, "z2": 2.0, "z3": 4.0}, LE, 5.0)
        binary.set_objective({"z1": -5.0, "z2": -3.0, "z3": -6.0})
        for model in (no_rows, empty_row, only_empty, binary):
            cm = compile_model(model)
            session = Session(cm)
            for c in (cm.c, -cm.c):
                res = session.solve(c=c)
                assert res.status == "optimal", model.name
                same(res, milp_oracle(cm, c=c))
        assert compile_model(binary).integrality.all()
        assert compile_model(only_empty).A.nnz == 0

    def test_cost_swaps_match_one_shot(self, haverly1):
        cm = compile_model(build_method(haverly1, parse_method("F4:S")).model)
        session = Session(cm)
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = rng.normal(size=len(cm.names))
            res = session.solve(c=c)
            assert res.status == "optimal"
            same(res, milp_oracle(cm, c=c))
        # back to the model's own costs
        same(session.solve(), milp_oracle(cm))

    def test_mip_takes_the_dual_bound(self, haverly1, monkeypatch):
        cm = compile_model(build_method(haverly1, parse_method("G1:S:H=3")).model)
        for gap in (1e-6, 0.5):
            # a MIP session takes its options when it is made
            patch_mip_gap(monkeypatch, gap)
            session = Session(cm)
            for c in (cm.c, -cm.c):
                res = session.solve(c=c)
                assert res.status == "optimal" and res.dual_bound is not None
                same(res, milp_oracle(cm, c=c))
        # a loose gap stops at an incumbent the dual bound does not reach
        assert res.dual_bound < res.objective - 1.0

    def test_rel_tol_is_the_gap_of_every_mip(self, haverly1, monkeypatch, milp_options):
        # no caller sets a MIP's gap: both paths read the option set, whose
        # gap is REL_TOL, so a meet to REL_TOL is a MIP's own stopping rule
        assert poolkit.solver.MIP_OPTIONS["mip_rel_gap"] == poolkit.solver.REL_TOL
        model = build_method(haverly1, parse_method("G1:S:H=3")).model
        # HiGHS's own default gap is 1e-4 too: a gap no default has shows
        # that the paths read the set
        patch_mip_gap(monkeypatch, 0.5)
        solve(model)
        session = Session(compile_model(model))
        session.solve()
        assert [o["mip_rel_gap"] for o in milp_options] == [0.5]
        assert session._highs.getOptionValue("mip_rel_gap")[1] == 0.5

    def test_every_mip_runs_without_the_feasibility_jump(self, haverly1, milp_options):
        # HiGHS 1.12 runs the heuristic by default; it only ever finds the
        # zero flow on these models and costs time on every MILP
        jump = "mip_heuristic_run_feasibility_jump"
        assert poolkit.solver.MIP_OPTIONS[jump] is False
        model = build_method(haverly1, parse_method("G1:S:H=3")).model
        assert solve(model).status == "optimal"
        assert [o[jump] for o in milp_options] == [False]
        session = Session(compile_model(model))
        assert session.solve().status == "optimal"
        assert session._highs.getOptionValue(jump)[1] is False
        # an LP session is left at HiGHS's defaults
        lp = Session(compile_model(build_method(haverly1, parse_method("F4:S")).model))
        assert lp._highs.getOptionValue(jump)[1] is True

    def test_the_silenced_warning_is_the_one_scipy_raises(self, haverly1, pytestconfig):
        # scipy.optimize.milp warns on every call with an option it does not
        # know; the package silences exactly that message, at import and in
        # pytest's filters, so a reworded warning fails here first
        cm = compile_model(build_method(haverly1, parse_method("G1:S:H=3")).model)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            milp(c=cm.c, constraints=LinearConstraint(cm.A, cm.row_lo, cm.row_hi),
                 integrality=cm.integrality, bounds=Bounds(cm.lb, cm.ub),
                 options=dict(poolkit.solver.MIP_OPTIONS))
        assert [w.category for w in caught] == [RuntimeWarning]
        assert re.match(poolkit.solver._MILP_WARNING, str(caught[0].message), re.I)
        filters = pytestconfig.getini("filterwarnings")
        assert f"ignore:{poolkit.solver._MILP_WARNING}:RuntimeWarning" in filters

    def test_a_mip_solve_prints_no_warning(self):
        # outside pytest's filters: the filter set at import is all there is
        script = ("from poolkit.modelir import ModelIR\n"
                  "from poolkit.solver import solve\n"
                  "m = ModelIR('one-binary')\n"
                  "m.add_var('z', binary=True)\n"
                  "m.set_objective({'z': -1.0})\n"
                  "assert solve(m).objective == -1.0\n")
        run = subprocess.run([sys.executable, "-W", "always", "-c", script],
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": str(DATA.parents[1])})
        assert run.returncode == 0, run.stderr
        assert "Unrecognized options" not in run.stderr

    def test_work_counts(self, haverly1):
        # an LP reports the simplex iterations of its own run and no nodes;
        # a MIP its nodes on both paths, its iterations on the binding only
        lp = compile_model(build_method(haverly1, parse_method("F4:S")).model)
        session = Session(lp)
        first, again = session.solve(), session.solve()
        assert first.iterations > 0 and again.iterations == 0
        assert first.nodes is None and again.nodes is None
        mip = compile_model(build_method(haverly1, parse_method("G1:S:H=3")).model)
        res = Session(mip).solve()
        assert res.iterations > 0 and res.nodes >= 1
        one_shot = solve_compiled(mip)
        assert one_shot.iterations is None and one_shot.nodes >= 1
        # each answered by its first run
        assert {r.first_status for r in (first, again, res, one_shot)} == {None}

    def test_time_limit_is_per_solve(self, data_dir):
        # HiGHS's run clock keeps counting over the runs of one instance;
        # each solve must still get its own time limit
        inst = parse_instance(data_dir / "adhya3.json")
        cm = compile_model(build_method(inst, parse_method("F4:T")).model)
        session = Session(cm)
        params = SolveParams(time_limit_s=0.05)
        results = []
        while sum(r.seconds for r in results) < 0.2:
            for j in range(0, len(cm.names), 7):
                c = np.zeros(len(cm.names))
                c[j] = 1.0 if len(results) % 2 else -1.0
                results.append(session.solve(params, c))
        assert {r.status for r in results} == {"optimal"}

    def test_private_binding_stays_in_solver(self):
        package = pathlib.Path(poolkit.__file__).parent
        users = sorted(p.name for p in package.rglob("*.py")
                       if "_highspy" in p.read_text())
        assert users == ["solver.py"]


class TestDump:
    def test_same_model_same_dump(self, haverly1):
        a = dump_model(build_method(haverly1, parse_method("F4:S")).model)
        b = dump_model(build_method(haverly1, parse_method("F4:S")).model)
        assert a == b

    def test_f3_contains_f1_and_f2_rows(self, haverly1):
        def rows(label):
            out = set()
            for line in dump_model(build_method(haverly1, parse_method(label)).model).splitlines():
                line = line.strip()
                if ": " in line and " in [" not in line:
                    name, body = line.split(": ", 1)
                    out.add((name.replace("B[", "B[").split(":", 2)[-1], body))
            return out

        f3 = rows("F3:S")
        # fragment rows of F1 appear in F3 under the cw prefix, F2 under rw
        f1_bodies = {body for name, body in rows("F1:S") if "cell" in name or "row_" in name or "simplex" in name}
        f3_bodies = {body for name, body in f3}
        assert f1_bodies <= f3_bodies

    @staticmethod
    def f4_fragment_rows(lower):
        """The F4:S fragment rows of a 1x1 block whose every lower bound
        (arcs and pool) is ``lower``."""
        from poolkit.instances import parse_instance_dict
        inst = parse_instance_dict(
            {"nodes": [{"id": "s", "kind": "source", "U": 5},
                       {"id": "p", "kind": "pool", "L": lower, "U": 5},
                       {"id": "t", "kind": "terminal", "U": 5}],
             "arcs": [{"from": "s", "to": "p", "l": lower, "u": 5, "cost": 1.0},
                      {"from": "p", "to": "t", "l": lower, "u": 5, "cost": -2.0}],
             "specs": {"K": 0}})
        model = build_method(inst, parse_method("F4:S")).model
        return [r for r in model.rows if r.name.startswith("B[p]:")]

    def test_1x1_f4_block_has_seven_fragment_rows(self):
        assert len(self.f4_fragment_rows(1.0)) == 7  # 6*m*n + 1

    def test_1x1_zero_lower_f4_block_has_four_fragment_rows(self):
        # a lower row at a zero bound is implied by x >= 0 and not written
        rows = self.f4_fragment_rows(0.0)
        assert len(rows) == 4  # 3*m*n + 1
        assert not any(r.name.endswith("_lo[0,0]") for r in rows)

    def test_twelve_significant_digits(self):
        m = ModelIR("digits")
        m.add_var("x", 0.0, 1.0 / 3.0)
        text = dump_model(m)
        assert "0.333333333333" in text


class TestModelIR:
    def test_duplicate_variable_rejected(self):
        m = ModelIR()
        m.add_var("x")
        with pytest.raises(ModelError):
            m.add_var("x")

    def test_duplicate_row_rejected(self):
        m = ModelIR()
        m.add_var("x")
        m.add_row("r", {"x": 1.0}, LE, 1.0)
        with pytest.raises(ModelError):
            m.add_row("r", {"x": 1.0}, GE, 0.0)

    def test_unknown_variable_in_row(self):
        m = ModelIR()
        with pytest.raises(ModelError):
            m.add_row("r", {"nope": 1.0}, LE, 0.0)

    def test_range_splits_sides(self):
        m = ModelIR()
        m.add_var("x")
        m.add_range("cap", {"x": 1.0}, 1.0, 2.0)
        senses = sorted(r.sense for r in m.rows)
        assert senses == [LE, GE]
        m2 = ModelIR()
        m2.add_var("x")
        m2.add_range("fix", {"x": 1.0}, 2.0, 2.0)
        assert m2.rows[0].sense == EQ
