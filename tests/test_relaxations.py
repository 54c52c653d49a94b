"""Method parsing, F/M/G builders, valid-inequality injection."""

import re
from collections import Counter

import pytest

from poolkit.bench import compute_gap
from poolkit.formulations import build_exact, check_solution, rederive_proportions
from poolkit.instances import SOURCE_BASIS, parse_instance_dict
from poolkit.rank1 import hull_bound, make_box, normalize
from poolkit.relaxations import (MethodError, MethodSpec, block_value, build_method,
                                 parse_method)
from poolkit.solver import solve


class TestMethodParsing:
    def test_simple_forms(self):
        assert parse_method("F4:S") == MethodSpec("F4", "source")
        assert parse_method("MCF:T") == MethodSpec("MCF", "terminal")
        spec = parse_method("M2:T:H=3")
        assert spec.kind == "M2" and spec.basis == "terminal" and spec.H == 3

    def test_cut_grammar(self):
        spec = parse_method("F3:S+Vab(x,r)")
        assert spec.cuts == ("Vab",) and spec.cut_space == "both"
        spec = parse_method("F4:S+Vab(x)+Vac(x)")
        assert spec.cuts == ("Vab", "Vac") and spec.cut_space == "x"
        # a family without parentheses names both spaces
        spec = parse_method("F4:S+Vab+Vac(x,r)")
        assert spec.cuts == ("Vab", "Vac") and spec.cut_space == "both"

    def test_cut_families_name_one_space(self):
        # a spec has one cut space, so a label whose families name different
        # spaces would build a model its label does not describe
        for text in ("F4:S+Vab(x)+Vac(r)", "F4:S+Vab+Vac(r)", "F4:S+Vab(x,r)+Vac(x)",
                     "G1:T:H=2+Vab(r)+Vac"):
            with pytest.raises(MethodError, match="different spaces"):
                parse_method(text)

    def test_label_round_trip(self):
        for text in ["F1:S", "F4:T", "M1:S:H=3", "G2:T:H=3", "F3:S+Vab(x,r)"]:
            assert parse_method(parse_method(text).label()) == parse_method(text)

    @pytest.mark.parametrize("text,message", [
        ("F4:S:", "cannot parse"), ("f4:s", "cannot parse"),
        ("F4:S+Vab(x", "cannot parse"), ("F4:S+Vab(y)", "unknown cut spaces"),
        ("F4:S+Vab(x,y)", "unknown cut spaces"), ("F4:S+Vab()", "unknown cut spaces")])
    def test_unparseable_labels(self, text, message):
        with pytest.raises(MethodError, match=message):
            parse_method(text)

    @pytest.mark.parametrize("text", ["F4", "F4+Vab", "G2:H=3", "M2:H=3+Vac(r)"])
    def test_a_label_names_its_basis(self, text):
        # "F4" used to read as F4:S, so a grid could name one model twice
        with pytest.raises(MethodError, match="names no basis"):
            parse_method(text)

    def test_errors(self):
        with pytest.raises(MethodError):
            parse_method("F9:S")
        with pytest.raises(MethodError):
            parse_method("M1:S")      # missing H
        with pytest.raises(MethodError):
            parse_method("F1:S:H=3")  # H on an LP method
        with pytest.raises(MethodError):
            MethodSpec("G1", "source", 0)
        # MCF and EXACT have no fraction variables for the cuts to act on
        for text in ("MCF:S+Vab(x,r)", "MCF:T+Vac(r)", "EXACT:T+Vac(x)"):
            with pytest.raises(MethodError):
                parse_method(text)


def positive_lower_instance():
    """mining-shaped synthetic: hard lower bounds make every block's L > 0"""
    data = {"nodes": [{"id": "a", "kind": "source", "L": 6, "U": 6},
                      {"id": "b", "kind": "source", "L": 4, "U": 4},
                      {"id": "p1", "kind": "pool", "L": 2, "U": 10},
                      {"id": "p2", "kind": "pool", "L": 1, "U": 8},
                      {"id": "t1", "kind": "terminal", "L": 5, "U": 5},
                      {"id": "t2", "kind": "terminal", "L": 5, "U": 5}],
            "arcs": [{"from": "a", "to": "p1", "u": 6, "cost": 1.0},
                     {"from": "b", "to": "p2", "u": 4, "cost": 1.0},
                     {"from": "p1", "to": "p2", "u": 8, "cost": 0.1},
                     {"from": "p1", "to": "t1", "u": 6, "cost": 2.0},
                     {"from": "p1", "to": "t2", "u": 6, "cost": 1.5},
                     {"from": "p2", "to": "t1", "u": 8, "cost": 2.5},
                     {"from": "p2", "to": "t2", "u": 8, "cost": 0.5}],
            "specs": {"K": 1, "lambda": {"a": [3.0], "b": [1.0]},
                      "mu_lo": {"t1": [0.0], "t2": [0.0]},
                      "mu_hi": {"t1": [2.4], "t2": [2.6]}},
            "penalty": {"t1": [50.0], "t2": [50.0]}}
    return parse_instance_dict(data)


def cut_rows(model) -> Counter:
    """The number of Vab/Vac rows the model holds under each block prefix
    B[pool], by pool."""
    hits = (re.match(r"B\[(.*?)\]:Va[bc]:", row.name) for row in model.rows)
    return Counter(hit.group(1) for hit in hits if hit)


def unbounded_positive_lower_instance():
    """one pool with L = 2 and no pool or arc capacity: L > 0 but the
    block's row, column and total bounds are infinite"""
    data = {"nodes": [{"id": "a", "kind": "source"},
                      {"id": "b", "kind": "source"},
                      {"id": "p1", "kind": "pool", "L": 2},
                      {"id": "t1", "kind": "terminal"},
                      {"id": "t2", "kind": "terminal"}],
            "arcs": [{"from": "a", "to": "p1", "cost": 1.0},
                     {"from": "b", "to": "p1", "cost": 2.0},
                     {"from": "p1", "to": "t1", "cost": -3.0},
                     {"from": "p1", "to": "t2", "cost": -4.0}],
            "specs": {"K": 1, "lambda": {"a": [3.0], "b": [1.0]},
                      "mu_hi": {"t1": [2.5], "t2": [2.0]}}}
    return parse_instance_dict(data)


def zero_arc_instance(closed):
    """one pool fed by sources a, b and c and feeding terminals t1 and t2;
    the arcs in ``closed`` have u = 0"""
    arcs = [("a", "p"), ("b", "p"), ("c", "p"), ("p", "t1"), ("p", "t2")]
    data = {"nodes": [{"id": n, "kind": "source"} for n in "abc"]
            + [{"id": "p", "kind": "pool", "L": 1, "U": 9},
               {"id": "t1", "kind": "terminal"}, {"id": "t2", "kind": "terminal"}],
            "arcs": [{"from": a, "to": b, "u": 0 if (a, b) in closed else 5,
                      "cost": -1.0 if b == "t1" else 0.5} for a, b in arcs]}
    return parse_instance_dict(data)


class TestZeroBlocks:
    def test_closed_rows_and_columns_are_forced_to_zero(self):
        inst = zero_arc_instance({("b", "p"), ("p", "t2")})
        plain = build_method(inst, parse_method("MCF:S")).model
        model = build_method(inst, parse_method("F4:S")).model
        zero = {row.name: row for row in model.rows if ":zero[" in row.name}
        # rows are sources a, b, c and columns terminals t1, t2
        assert sorted(zero) == [f"B[p]:zero[{r},{c}]"
                                for r, c in [(0, 1), (1, 0), (1, 1), (2, 1)]]
        assert zero["B[p]:zero[1,0]"].coeffs == (("x[p,t1,b]", 1.0),)
        # the fragment covers the 2 x 1 block that is left
        assert "B[p]:r[1,0]" in model.variables and "B[p]:r[0,1]" not in model.variables
        assert len(model.rows) > len(plain.rows) + len(zero)

    @pytest.mark.parametrize("label", ["F4:S", "F2:T+Vab(x,r)", "M1:S:H=2"])
    def test_an_emptied_block_gets_its_zero_rows_alone(self, label):
        inst = zero_arc_instance({("p", "t1"), ("p", "t2")})
        spec = parse_method(label)
        plain = build_method(inst, MethodSpec("MCF", spec.basis)).model
        built = build_method(inst, spec)
        extra = [row.name for row in built.model.rows][len(plain.rows):]
        assert len(extra) == 6 and all(":zero[" in name for name in extra)
        assert set(built.model.variables) == set(plain.variables)
        assert cut_rows(built.model) == {}

    @pytest.mark.parametrize("label", ["MCF:S", "F1:S", "F4:T", "F3:S+Vab(x)",
                                       "M2:S:H=2", "G1:S:H=2"])
    def test_block_value_on_a_box_with_closed_rows_and_columns(self, label):
        box = make_box([1, 0, 2], [4, 0, 5], [0, 1], [0, 6], 2, 9)
        c = [[0.5, -1.0], [-3.0, 2.0], [1.5, -0.5]]
        sub, rows, cols = normalize(box)
        assert (rows, cols) == ([0, 2], [1])
        hull, _ = hull_bound(box, c)
        value = block_value(box, c, label)
        assert value == pytest.approx(
            block_value(sub, [[c[i][j] for j in cols] for i in rows], label), abs=1e-9)
        if label.startswith("G"):
            assert value >= hull - 1e-9
        else:
            assert value <= hull + 1e-9


class TestFRelaxations:
    def test_haverly1_f1_gap(self, haverly1):
        res = solve(build_method(haverly1, parse_method("F1:S")).model)
        assert compute_gap(-400.0, res.objective) == pytest.approx(25.00, abs=0.01)

    def test_dominance_on_instance(self, haverly3):
        vals = {}
        for kind in ["F1", "F2", "F3", "F4"]:
            vals[kind] = solve(build_method(haverly3,
                                            parse_method(f"{kind}:T")).model).objective
        assert vals["F4"] >= vals["F3"] - 1e-6
        assert vals["F3"] >= max(vals["F1"], vals["F2"]) - 1e-6

    def test_mcf_rows_contained_in_f3(self, haverly1):
        from poolkit.modelir import dump_model
        mcf_rows = set(r.split(": ", 1)[1]
                       for r in dump_model(build_method(haverly1, parse_method("MCF:S")).model)
                       .splitlines() if ": " in r and "in [" not in r)
        f3_rows = set(r.split(": ", 1)[1]
                      for r in dump_model(build_method(haverly1, parse_method("F3:S")).model)
                      .splitlines() if ": " in r and "in [" not in r)
        assert mcf_rows <= f3_rows


class TestValidInequalities:
    def test_literature_blocks_with_zero_L_are_skipped(self, haverly1):
        before = len(build_method(haverly1, parse_method("F4:S")).model.rows)
        built = build_method(haverly1, parse_method("F4:S+Vab(x,r)"))
        assert cut_rows(built.model) == {}
        assert len(built.model.rows) == before

    def test_blocks_with_an_infinite_bound_are_skipped(self):
        # the generators need finite bounds; such a block gets neither cuts
        # nor the row-column fragment that would host r-space cuts
        inst = unbounded_positive_lower_instance()
        for label in ("F1:S+Vab(r)", "F4:S+Vab(x)", "F2:T+Vac(x,r)"):
            built = build_method(inst, parse_method(label))
            plain = build_method(inst, parse_method(label.split("+")[0]))
            assert cut_rows(built.model) == {}, label
            assert [r.name for r in built.model.rows] == \
                [r.name for r in plain.model.rows], label

    def test_vab_never_weakens_bound(self):
        inst = positive_lower_instance()
        base = solve(build_method(inst, parse_method("F4:S")).model).objective
        cut = solve(build_method(inst, parse_method("F4:S+Vab(x,r)")).model)
        assert cut.objective >= base - 1e-9
        cut2 = solve(build_method(inst, parse_method("F4:S+Vac(x,r)")).model)
        assert cut2.objective >= base - 1e-9

    def test_cuts_do_not_cut_a_feasible_point(self):
        # the source-basis cuts bound the source-basis problem, so they are
        # held against a point its exact model verifies; an exact_value here
        # ends open, with F4:T (25.75) above this point (24.7375)
        inst = positive_lower_instance()
        point = solve(build_method(inst, parse_method("G2:S:H=3")).model)
        exact = build_exact(inst, SOURCE_BASIS)
        assert check_solution(exact, rederive_proportions(exact, point.assignment)).ok
        cut = solve(build_method(inst, parse_method("F4:S+Vab(x,r)+Vac(x,r)")).model)
        assert cut.objective <= point.objective + 1e-6 * max(1.0, abs(point.objective))

    def test_r_cuts_on_f1_pull_in_cell_fractions(self):
        inst = positive_lower_instance()
        built = build_method(inst, parse_method("F1:S+Vab(r)"))
        assert any(v.startswith("B[p1]:r[") for v in built.model.variables)
        assert set(cut_rows(built.model)) == {"p1", "p2"}

    def test_host_fragment_rows_have_unique_names(self):
        # the row-column fragment that hosts r-space cuts has a simplex row
        # of its own beside F1's and F2's
        inst = positive_lower_instance()
        for label in ("F1:S+Vab(r)", "F2:T+Vac(r)"):
            names = [row.name for row in build_method(inst, parse_method(label)).model.rows]
            assert len(names) == len(set(names)), label


class TestMIP:
    def test_relaxation_monotone_in_H(self, haverly3):
        vals = []
        for H in (1, 2, 3):
            res = solve(build_method(haverly3, parse_method(f"M1:S:H={H}")).model)
            vals.append(res.dual_bound)
        assert vals[0] <= vals[1] + 1e-7 and vals[1] <= vals[2] + 1e-7

    def test_relaxation_is_outer_restriction_is_inner(self, haverly1):
        m = solve(build_method(haverly1, parse_method("M2:S:H=2")).model)
        g = solve(build_method(haverly1, parse_method("G2:S:H=2")).model)
        assert m.objective <= -400.0 + 1e-6
        assert g.objective >= -400.0 - 1e-6

    def test_high_H_restriction_approaches_exact_on_toy(self):
        # single-pool toy with known optimum by direct reasoning: best blend
        # hits the spec cap exactly
        data = {"nodes": [{"id": "a", "kind": "source", "U": 10},
                          {"id": "b", "kind": "source", "U": 10},
                          {"id": "p", "kind": "pool", "U": 10},
                          {"id": "t", "kind": "terminal", "U": 10}],
                "arcs": [{"from": "a", "to": "p", "u": 10, "cost": 1.0},
                         {"from": "b", "to": "p", "u": 10, "cost": 4.0},
                         {"from": "p", "to": "t", "u": 10, "cost": -5.0}],
                "specs": {"K": 1, "lambda": {"a": [3.0], "b": [1.0]},
                          "mu_lo": {"t": [0.0]}, "mu_hi": {"t": [2.0]}}}
        inst = parse_instance_dict(data)
        # optimum: blend a:b = 1:1 meets the cap, margin 5 - 2.5 per unit
        want = -(5 * 10 - (1.0 * 5 + 4.0 * 5))
        # with a share q of feed a the blend quality is 1 + 2q <= 2, so the
        # restriction takes the largest grid point q_H <= 1/2 of the grid
        # k / (2^H - 1), and its value is -(10 + 30 q_H)
        errors = []
        for H in (3, 8):
            q_H = (2 ** (H - 1) - 1) / (2 ** H - 1)
            res = solve(build_method(inst, parse_method(f"G2:S:H={H}")).model)
            assert res.objective == pytest.approx(-(10 + 30 * q_H), abs=1e-3)
            errors.append(res.objective - want)
        assert 0 < errors[1] < errors[0]      # -24.941 at H=8
        relax = solve(build_method(inst, parse_method("M2:S:H=8")).model)
        assert relax.dual_bound == pytest.approx(want, abs=1e-3)

    def test_restriction_solutions_are_feasible(self, haverly1):
        bm = build_exact(haverly1, "source")
        built = build_method(haverly1, parse_method("G2:S:H=3"))
        res = solve(built.model)
        assignment = {v: res.assignment.get(v, 0.0) for v in bm.model.variables}
        assignment = rederive_proportions(bm, assignment)
        report = check_solution(bm, assignment, tol=1e-6)
        assert report.ok, report.families
