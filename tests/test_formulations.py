"""Source/terminal bilinear models, MCF relaxation, pool blocks and the
solution checker."""

import gc
import weakref

import pytest

from poolkit import parse_instance
from poolkit.formulations import (build_backbone, build_exact, check_solution,
                                  fvar, rederive_proportions)
from poolkit.instances import generalize, parse_instance_dict
from poolkit.modelir import LE, dump_model
from poolkit.relaxations import build_method, parse_method
from poolkit.solver import CapabilityError, solve
from poolkit.tightening import apply_bounds, default_obbt_recipe

from conftest import DATA
from test_model_digests import LABELS


def single_chain_instance(spec_free=True):
    """one source -> one pool -> one terminal, profitable flow"""
    data = {"nodes": [{"id": "s", "kind": "source", "U": 10},
                      {"id": "p", "kind": "pool", "U": 10},
                      {"id": "t", "kind": "terminal", "U": 8}],
            "arcs": [{"from": "s", "to": "p", "u": 10, "cost": 1.0},
                     {"from": "p", "to": "t", "u": 8, "cost": -3.0}],
            "specs": {"K": 0} if spec_free else
                     {"K": 1, "lambda": {"s": [1.0]},
                      "mu_lo": {"t": [0.0]}, "mu_hi": {"t": [2.0]}}}
    return parse_instance_dict(data)


def no_spec_two_source():
    data = {"nodes": [{"id": "a", "kind": "source", "U": 10},
                      {"id": "b", "kind": "source", "U": 10},
                      {"id": "p", "kind": "pool", "U": 20},
                      {"id": "t", "kind": "terminal", "U": 12}],
            "arcs": [{"from": "a", "to": "p", "u": 10, "cost": 2.0},
                     {"from": "b", "to": "p", "u": 10, "cost": 1.0},
                     {"from": "p", "to": "t", "u": 12, "cost": -4.0}],
            "specs": {"K": 0}}
    return parse_instance_dict(data)


class TestExactModels:
    def test_bilinear_terms_present_and_backend_refuses(self, haverly1):
        bm = build_exact(haverly1, "source")
        assert bm.model.bilinear
        with pytest.raises(CapabilityError):
            solve(bm.model)

    def test_single_commodity_pool_equals_lp(self):
        # a 1x1 pool block makes the rank constraint vacuous: the MCF value
        # is already exact
        inst = single_chain_instance()
        res = solve(build_method(inst, parse_method("MCF:S")).model)
        assert res.objective == pytest.approx(8 * (1.0 - 3.0))

    def test_terminal_based_single_terminal_collapses(self):
        inst = no_spec_two_source()
        bm = build_exact(inst, "terminal")
        assert all(len(b.row_ids) == 1 for b in bm.blocks)
        res = solve(build_method(inst, parse_method("MCF:T")).model)
        assert res.objective == pytest.approx(10 * (1 - 4) + 2 * (2 - 4))

    def test_objective_equivalence_forms(self, haverly1, rng):
        # cost restated on arcs equals the commodity-split form on any
        # feasible assignment of a standard (single-hop) sub-instance
        res = solve(build_method(haverly1, parse_method("MCF:S")).model)
        arc_form = sum(haverly1.arcs[k].cost * res.assignment[f"f[{k[0]},{k[1]}]"]
                       for k in haverly1.arcs)
        split = 0.0
        for key, arc in haverly1.arcs.items():
            a, b = key
            if haverly1.kind(a) == "source":
                # purchase leg charged per commodity at entry
                split += arc.cost * res.assignment[f"f[{a},{b}]"]
            elif haverly1.kind(a) == "pool":
                split += arc.cost * res.assignment[f"f[{a},{b}]"]
        assert split == pytest.approx(arc_form)
        assert res.objective == pytest.approx(arc_form)


class TestPoolBlocks:
    def test_running_example_block(self):
        # three sources feeding one pool through a chain, two outgoing arcs:
        # rows are the reachable sources (ghosts included), columns the
        # outgoing arcs with their bounds, overall the pool capacity
        data = {"nodes": [{"id": "s1", "kind": "source", "U": 50},
                          {"id": "s2", "kind": "source", "U": 50},
                          {"id": "s3", "kind": "source", "U": 50},
                          {"id": "p5", "kind": "pool", "U": 40},
                          {"id": "p6", "kind": "pool", "U": 30},
                          {"id": "t7", "kind": "terminal", "U": 20},
                          {"id": "t9", "kind": "terminal", "U": 25}],
                "arcs": [{"from": "s1", "to": "p5", "u": 50},
                         {"from": "s2", "to": "p5", "u": 50},
                         {"from": "s3", "to": "p6", "u": 14},
                         {"from": "p5", "to": "p6", "u": 30},
                         {"from": "p6", "to": "t7", "u": 18},
                         {"from": "p6", "to": "t9", "u": 22}],
                "specs": {"K": 1,
                          "lambda": {"s1": [1.0], "s2": [2.0], "s3": [3.0]},
                          "mu_lo": {"t7": [0.0], "t9": [0.0]},
                          "mu_hi": {"t7": [9.0], "t9": [9.0]}}}
        inst = parse_instance_dict(data)
        bm = build_exact(inst, "source")
        block = next(b for b in bm.blocks if b.pool == "p6")
        assert block.row_ids == ("s1", "s2", "s3")
        assert block.col_ids == ("t7", "t9")
        assert block.box.up == (18.0, 22.0)
        assert block.box.U == 30.0
        # s1/s2 reach p6 only through p5: ghost rows bounded by pool capacity
        assert block.box.u[0] == 30.0 and block.box.u[2] == 14.0

    def test_one_in_one_out_gives_1x1(self):
        bm = build_exact(single_chain_instance(), "source")
        assert [ (len(b.row_ids), len(b.col_ids)) for b in bm.blocks ] == [(1, 1)]

    def test_blocks_deterministic_order(self, haverly1):
        bm = build_exact(haverly1, "source")
        assert [b.pool for b in bm.blocks] == sorted(b.pool for b in bm.blocks)
        for b in bm.blocks:
            assert b.row_ids == tuple(sorted(b.row_ids))


class TestMCF:
    def test_haverly_mcf_below_optimum(self, haverly1):
        res = solve(build_method(haverly1, parse_method("MCF:S")).model)
        assert res.objective <= -400 - 1e-9 or res.objective == pytest.approx(-500)
        assert res.objective == pytest.approx(-500.0)

    def test_no_spec_instance_mcf_is_exact(self):
        # without specifications the bilinear constraint only redistributes
        # flow: a rank-one completion of the MCF optimum exists
        inst = no_spec_two_source()
        bm = build_exact(inst, "source")
        res = solve(build_method(inst, parse_method("MCF:S")).model)
        full = rederive_proportions(bm, res.assignment)
        report = check_solution(bm, full, tol=1e-6)
        assert report.ok, report.families

    def test_empty_network_objective_zero(self):
        inst = parse_instance_dict(
            {"nodes": [{"id": "s", "kind": "source", "U": 5},
                       {"id": "t", "kind": "terminal", "U": 5}],
             "arcs": [{"from": "s", "to": "t", "u": 5, "cost": 2.0}],
             "specs": {"K": 0}})
        built = build_method(inst, parse_method("MCF:S"))
        res = solve(built.model)
        assert res.objective == pytest.approx(0.0)  # paying to ship is avoided


class TestCheckSolution:
    def test_solver_output_passes(self, haverly1):
        bm = build_exact(haverly1, "source")
        built = build_method(haverly1, parse_method("F4:S"))
        res = solve(built.model)
        assignment = {v: res.assignment.get(v, 0.0) for v in bm.model.variables}
        assignment = rederive_proportions(bm, assignment)
        report = check_solution(bm, assignment, tol=1e-5)
        # the relaxation optimum may violate only the rank-one coupling
        families_violated = {f for f, v in report.families.items() if v > 1e-5}
        assert families_violated <= {"rank", "bilinear"}

    def test_zero_assignment_flags_terminal_capacity(self):
        data = {"nodes": [{"id": "s", "kind": "source", "U": 10},
                          {"id": "p", "kind": "pool", "U": 10},
                          {"id": "t", "kind": "terminal", "L": 2, "U": 8}],
                "arcs": [{"from": "s", "to": "p", "u": 10, "cost": 1.0},
                         {"from": "p", "to": "t", "u": 8, "cost": -3.0}],
                "specs": {"K": 0}}
        inst = parse_instance_dict(data)
        bm = build_exact(inst, "source")
        zero = {v: 0.0 for v in bm.model.variables}
        report = check_solution(bm, zero)
        assert not report.ok
        assert report.families["cap"] > 1e-6

    def test_perturbed_proportion_flags_bilinear(self, haverly1):
        from poolkit.bench import exact_value
        bm = build_exact(haverly1, "source")
        built = build_method(haverly1, parse_method("G1:S:H=3"))
        res = solve(built.model)
        assignment = {v: res.assignment.get(v, 0.0) for v in bm.model.variables}
        assignment = rederive_proportions(bm, assignment)
        ok = check_solution(bm, assignment, tol=1e-6)
        assert ok.ok, ok.families
        tweaked = dict(assignment)
        qvars = [v for v in tweaked if v.startswith("q[") and tweaked[v] > 0.1]
        tweaked[qvars[0]] += 1e-3
        report = check_solution(bm, tweaked, tol=1e-6)
        assert report.families["bilinear"] > 1e-6

    def test_missing_variable_raises(self, haverly1):
        bm = build_exact(haverly1, "source")
        with pytest.raises(KeyError):
            check_solution(bm, {})


class TestBasisEquivalence:
    @pytest.mark.parametrize("name", ["haverly1", "haverly2", "haverly3", "bental4"])
    def test_squeezed_optima_agree(self, name, data_dir):
        from poolkit import parse_instance
        from poolkit.bench import exact_value
        inst = parse_instance(data_dir / f"{name}.json")
        ev = exact_value(inst, first_update=default_obbt_recipe(inst))
        assert ev.proven
        # both bases participate in the squeeze; the proven value is unique,
        # so agreement is within the squeeze tolerance by construction
        assert abs(ev.upper - ev.lower) <= 1e-4 * max(1.0, abs(ev.upper))


class TestMiningBlocks:
    def test_mining_pool_rows_are_reachable_sources(self):
        # rows of a supply pool's block are exactly the stockpile's sources
        # with time <= the pool's time, cross-checked by path enumeration
        from conftest import make_schedule
        from poolkit.instances import convert_mining

        inst = convert_mining(make_schedule(4, 3, 4))
        bm = build_exact(inst, "source")
        for block in bm.blocks:
            pool = block.pool
            want = set()
            for s in inst.sources:
                stack, seen = [s], {s}
                found = False
                while stack:
                    cur = stack.pop()
                    if cur == pool:
                        found = True
                        break
                    for nxt in inst.out_nbrs[cur]:
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                if found:
                    want.add(s)
            assert set(block.row_ids) == want
            if not pool.endswith(":inf"):
                _, pile, tag = pool.split(":")
                times = [float(r.split(":")[2]) for r in block.row_ids]
                assert all(t <= float(tag) for t in times)
                assert all(r.split(":")[1] == pile for r in block.row_ids)


class TestTightenedGhostIntervals:
    @pytest.mark.parametrize("relax", ["F4:T", "F4:S"])
    def test_a_model_takes_the_update_s_ghost_intervals(self, relax):
        # OBBT on the converted example schedule tightens ghost pairs (10 in
        # the terminal basis, 9 in the source basis), which the instance
        # then answers from its stored intervals
        from poolkit.instances import convert_mining, parse_mining
        from poolkit.tightening import UNCHANGED, obbt

        inst = convert_mining(parse_mining(DATA / "mining" / "example_schedule.json"))
        upd = obbt(inst, relax)
        moved = {pair: interval for pair, interval in upd.ghost_bounds.items()
                 if upd.provenance[f"ghost:{pair}"] != UNCHANGED}
        assert moved
        tight = apply_bounds(inst, upd)
        model = build_method(tight, parse_method(relax)).model
        for pair, interval in moved.items():
            assert interval != inst.interval("ghost", pair)
            assert tight.interval("ghost", pair) == interval
            var = model.variables[fvar(*pair)]
            assert (var.lb, var.ub) == interval


class TestUnknownBasis:
    @pytest.mark.parametrize("basis", ["S", "sauce"])
    def test_rejected_before_the_cache(self, basis):
        # "S" once built spec rows with no quality term for either basis
        inst = parse_instance(DATA / "haverly1.json")
        with pytest.raises(ValueError, match="unknown basis"):
            build_exact(inst, basis)
        with pytest.raises(ValueError, match="unknown basis"):
            build_backbone(inst, basis)
        with pytest.raises(ValueError, match="unknown basis"):
            inst.ghost_pairs(basis)
        assert inst.backbones == {}


class TestBackboneCache:
    """Each instance builds the backbone of a basis once; every model starts
    from a copy of it."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.json")))
    def test_extending_a_model_leaves_later_builds_alone(self, name):
        inst = parse_instance(DATA / f"{name}.json")
        for label in LABELS:
            built = build_method(inst, parse_method(label))
            model = built.model
            model.add_var("extra:x", 0.0, 1.0)
            model.add_var("extra:q", 0.0, 1.0)
            model.add_var("extra:f", 0.0, 1.0)
            first = next(iter(model.variables))
            model.add_row("extra:row", {"extra:x": 1.0, first: 1.0}, LE, 1.0)
            model.add_bilinear("extra:x", "extra:q", "extra:f")
            model.set_objective({"extra:f": 1.0})
            built.backbone.blocks.clear()
        assert set(inst.backbones) == {"source", "terminal"}
        for label in LABELS:
            spec = parse_method(label)
            fresh = parse_instance(DATA / f"{name}.json")
            assert (dump_model(build_method(inst, spec).model)
                    == dump_model(build_method(fresh, spec).model)), label

    def test_tightened_instance_has_its_own_backbone(self):
        inst = parse_instance(DATA / "haverly1.json")
        loose = build_method(inst, parse_method("F4:T")).model
        upd = default_obbt_recipe(inst)
        tight = apply_bounds(inst, upd)
        assert tight.backbones == {} and generalize(inst).backbones == {}
        model = build_method(tight, parse_method("F4:T")).model
        changed = 0
        for key, arc in tight.arcs.items():
            var, before = model.variables[fvar(*key)], loose.variables[fvar(*key)]
            assert (var.lb, var.ub) == (arc.l, arc.u)
            changed += (var.lb, var.ub) != (before.lb, before.ub)
        assert changed > 0

    def test_cache_dies_with_its_instance(self):
        inst = parse_instance(DATA / "haverly1.json")
        build_method(inst, parse_method("F4:S"))
        build_method(inst, parse_method("EXACT:T"))
        assert set(inst.backbones) == {"source", "terminal"}
        ref = weakref.ref(inst)
        gc.disable()
        try:
            del inst
            assert ref() is None
        finally:
            gc.enable()
