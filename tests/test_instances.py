"""Instance parsing, validation, generalization and mining conversion."""

import json
import math
from dataclasses import replace

import pytest

from poolkit.instances import (InconsistencyError, MiningSchedule, SchemaError,
                               Supply, Demand, content_hash, convert_mining,
                               generalize, node_time, parse_instance,
                               parse_instance_dict, parse_mining, parse_mining_dict,
                               to_dict)
from poolkit.relaxations import build_method, parse_method
from poolkit.solver import OPTIMAL, solve


from conftest import make_schedule


def arc_entry(data, tail, head):
    return next(a for a in data["arcs"] if (a["from"], a["to"]) == (tail, head))


def node_entry(data, nid):
    return next(n for n in data["nodes"] if n["id"] == nid)


class TestParsing:
    def test_haverly1_characteristics(self, haverly1):
        c = haverly1.characteristics()
        assert (c["S"], c["I"], c["T"], c["A"], c["K"]) == (3, 2, 2, 9, 1)

    def test_adhya3_characteristics(self, data_dir):
        c = parse_instance(data_dir / "adhya3.json").characteristics()
        assert (c["S"], c["I"], c["T"], c["A"], c["K"]) == (8, 3, 4, 26, 6)

    def test_empty_arcs_is_inconsistent(self):
        data = {"nodes": [{"id": "s", "kind": "source"},
                          {"id": "p", "kind": "pool"},
                          {"id": "t", "kind": "terminal"}],
                "arcs": [], "specs": {"K": 0}}
        with pytest.raises(InconsistencyError, match="unreachable"):
            parse_instance_dict(data)

    def test_missing_field_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_instance_dict({"nodes": [{"id": "x"}], "arcs": []})

    def test_bad_interval_is_inconsistent(self):
        data = {"nodes": [{"id": "s", "kind": "source"},
                          {"id": "t", "kind": "terminal"}],
                "arcs": [{"from": "s", "to": "t", "l": 5, "u": 1}],
                "specs": {"K": 0}}
        with pytest.raises(InconsistencyError, match="interval"):
            parse_instance_dict(data)

    def test_arc_to_unknown_node(self):
        data = {"nodes": [{"id": "s", "kind": "source"}],
                "arcs": [{"from": "s", "to": "ghost"}], "specs": {"K": 0}}
        with pytest.raises(InconsistencyError, match="unknown node"):
            parse_instance_dict(data)

    @staticmethod
    def one_pool():
        return {"nodes": [{"id": "s", "kind": "source"},
                          {"id": "p", "kind": "pool", "U": 10},
                          {"id": "t", "kind": "terminal"}],
                "arcs": [{"from": "s", "to": "p"}, {"from": "p", "to": "t"}],
                "specs": {"K": 1, "lambda": {"s": [1.0]},
                          "mu_lo": {"t": [0.0]}, "mu_hi": {"t": [2.0]}}}

    @pytest.mark.parametrize("edit,error,message", [
        (lambda d: d["nodes"][0].update(kind="sink"), SchemaError, "unknown kind"),
        (lambda d: d["nodes"][1].update(L=20), InconsistencyError, "bad capacity"),
        (lambda d: d["arcs"].append({"from": "t", "to": "p"}), InconsistencyError,
         "not allowed"),
        (lambda d: d["specs"]["lambda"].update(s=[1.0, 2.0]), SchemaError,
         "spec vector"),
        (lambda d: d["specs"]["mu_hi"].update(t=[2.0, 3.0]), SchemaError,
         "spec window has wrong length"),
        (lambda d: d["specs"]["mu_lo"].update(t=[3.0]), InconsistencyError,
         "empty spec window"),
        (lambda d: d["nodes"].append({"id": "p", "kind": "pool"}), InconsistencyError,
         "duplicate node"),
        (lambda d: d["arcs"].append({"from": "s", "to": "p"}), InconsistencyError,
         "duplicate arc"),
        (lambda d: d["arcs"][0].pop("to"), SchemaError, "arc entry missing field"),
        (lambda d: d.pop("arcs"), SchemaError, "missing top-level field"),
    ], ids=["node-kind", "capacity", "arc-direction", "spec-vector", "spec-window",
            "empty-window", "duplicate-node", "duplicate-arc", "arc-field",
            "top-level-field"])
    def test_rejects(self, edit, error, message):
        data = self.one_pool()
        parse_instance_dict(data)
        edit(data)
        with pytest.raises(error, match=message):
            parse_instance_dict(data)

    @staticmethod
    def one_supply():
        return {"stockpiles": ["a"],
                "supplies": [{"stockpile": "a", "time": 1, "qty": 10.0, "spec": [1.0]}],
                "demands": [{"time": 2, "qty": 6.0, "spec_max": [1.5]}]}

    @pytest.mark.parametrize("parse,edit", [
        (parse_instance_dict, lambda d: d.update(nodes=3)),
        (parse_instance_dict, lambda d: d["nodes"].append("p2")),
        (parse_instance_dict, lambda d: d["specs"]["lambda"].update(s=1.0)),
        (parse_instance_dict, lambda d: d.update(specs=[])),
        (parse_instance_dict, lambda d: d["specs"].update(K="two")),
        (parse_instance_dict, lambda d: d["specs"].update(K=math.inf)),
        (parse_instance_dict, lambda d: d["nodes"][1].update(U="big")),
        (parse_instance_dict, lambda d: d["arcs"][0].update(cost="x")),
        (parse_mining_dict, lambda d: d["supplies"][0].update(qty="x")),
        (parse_mining_dict, lambda d: d["supplies"][0].update(spec=1.0)),
    ], ids=["nodes-number", "node-string", "lambda-number", "specs-list", "K-word",
            "K-infinite", "U-word", "cost-word", "qty-word", "spec-number"])
    def test_a_malformed_field_is_a_schema_error(self, parse, edit):
        # each raised a bare TypeError, ValueError, OverflowError or
        # AttributeError, or a SchemaError that called it a missing field
        data = self.one_pool() if parse is parse_instance_dict else self.one_supply()
        parse(data)
        edit(data)
        with pytest.raises(SchemaError, match="malformed"):
            parse(data)

    def test_a_file_that_is_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"nodes": [')
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse_instance(path)

    def test_missing_bounds_default_to_zero_and_inf(self):
        data = {"nodes": [{"id": "s", "kind": "source"},
                          {"id": "t", "kind": "terminal"}],
                "arcs": [{"from": "s", "to": "t"}], "specs": {"K": 0}}
        inst = parse_instance_dict(data)
        arc = inst.arcs[("s", "t")]
        assert arc.l == 0.0 and arc.u == float("inf")

    @pytest.mark.parametrize("edit", [
        lambda d: arc_entry(d, "A", "p1").update(u=math.nan),
        lambda d: arc_entry(d, "A", "p1").update(l=math.inf, u=None),
        lambda d: node_entry(d, "p1").update(U=math.nan),
        lambda d: node_entry(d, "p1").update(L=math.inf, U=None),
        lambda d: d.update(ghost_bounds=[["C", "p1", 5.0, 1.0]]),
        lambda d: d.update(ghost_bounds=[["C", "p1", -3.0, 1.0]]),
        lambda d: d.update(ghost_bounds=[["C", "p1", math.nan, 1.0]]),
        lambda d: d.update(ghost_bounds=[["C", "p1", math.inf, math.inf]]),
    ], ids=["arc-u-nan", "arc-l-infinity", "node-u-nan", "node-l-infinity",
            "ghost-reversed", "ghost-negative", "ghost-l-nan", "ghost-l-infinity"])
    def test_nan_and_bad_intervals_are_inconsistent(self, haverly1, edit):
        # json reads NaN and Infinity, and NaN fails every comparison, so
        # each of these once parsed and failed later in a model or a solve
        data = to_dict(haverly1)
        edit(data)
        with pytest.raises(InconsistencyError, match="bad"):
            parse_instance_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize("edit, error", [
        (lambda d: arc_entry(d, "A", "p1").update(cost=math.nan), InconsistencyError),
        (lambda d: arc_entry(d, "A", "p1").update(cost=math.inf), InconsistencyError),
        (lambda d: d["specs"]["lambda"].update(A=[math.nan]), InconsistencyError),
        (lambda d: d["specs"]["mu_hi"].update(X=[math.nan]), InconsistencyError),
        (lambda d: d["specs"]["mu_lo"].update(X=[math.nan]), InconsistencyError),
        (lambda d: d.update(penalty={"X": []}), SchemaError),
        (lambda d: d.update(penalty={"X": [math.nan]}), InconsistencyError),
        (lambda d: d.update(penalty={"X": [-1.0]}), InconsistencyError),
        (lambda d: d.update(penalty={"p1": [1.0]}), InconsistencyError),
        (lambda d: d["specs"]["lambda"].update(p1=[1.0]), InconsistencyError),
        (lambda d: d["specs"]["mu_lo"].update(A=[0.5]), InconsistencyError),
        (lambda d: d["specs"]["mu_hi"].update(p1=[1.0]), InconsistencyError),
    ], ids=["cost-nan", "cost-infinity", "lambda-nan", "mu-hi-nan", "mu-lo-nan",
            "penalty-short", "penalty-nan", "penalty-negative", "penalty-not-a-terminal",
            "lambda-on-a-pool", "mu-lo-on-a-source", "mu-hi-on-a-pool"])
    def test_numbers_the_models_cannot_use_are_rejected(self, haverly1, edit, error):
        # each once parsed, then solved to nan, to a wrong value or unbounded,
        # or raised IndexError while the model was built; a spec map keyed by
        # a node of another kind was dropped by every model without a word
        data = to_dict(haverly1)
        edit(data)
        with pytest.raises(error):
            parse_instance_dict(json.loads(json.dumps(data)))

    def test_open_spec_window_and_penalties_parse(self, haverly1):
        data = to_dict(haverly1)
        data["specs"]["mu_hi"]["X"] = [None]
        data["penalty"] = {"X": [0.0], "Y": [2.5]}
        inst = parse_instance_dict(json.loads(json.dumps(data)))
        assert inst.mu_hi["X"] == (math.inf,)
        assert inst.penalty == {"X": (0.0,), "Y": (2.5,)}


class TestContentHash:
    def test_parsed_instance_keeps_its_hash(self, haverly1):
        # bounds-cache files are named by this hash
        assert content_hash(haverly1) == "4d3ae38db80a52c1"
        assert content_hash(haverly1.with_bounds({}, {}, {})) == "4d3ae38db80a52c1"

    def test_unequal_ghost_bounds_hash_apart(self, haverly1):
        narrow = haverly1.with_bounds({}, {}, {("C", "p1"): (0.0, 1.0)})
        wide = haverly1.with_bounds({}, {}, {("C", "p1"): (0.0, 50.0)})
        assert narrow != wide
        assert len({content_hash(haverly1), content_hash(narrow),
                    content_hash(wide)}) == 3

    def test_ghost_bounds_survive_the_json_form(self, haverly1):
        narrow = haverly1.with_bounds({}, {}, {("C", "p1"): (0, 1)})
        assert content_hash(narrow) == "321747d6f7a01eae"
        open_ended = haverly1.with_bounds({}, {}, {("A", "p2"): (2.0, float("inf"))})
        for inst in (haverly1, narrow, open_ended):
            assert parse_instance_dict(to_dict(inst)) == inst
        assert "ghost_bounds" not in to_dict(haverly1)

    def test_int_and_float_bounds_hash_alike(self, haverly1):
        ints = haverly1.with_bounds({"p1": (0, 300)}, {("A", "p1"): (0, 300)},
                                    {("C", "p1"): (0, 1)})
        floats = haverly1.with_bounds({"p1": (0.0, 300.0)},
                                      {("A", "p1"): (0.0, 300.0)},
                                      {("C", "p1"): (0.0, 1.0)})
        assert ints == floats
        assert content_hash(ints) == content_hash(floats)

    def test_ghost_bound_must_name_a_ghost_pair(self, haverly1):
        data = to_dict(haverly1)
        data["ghost_bounds"] = [["A", "p1", 0.0, 1.0]]  # a physical arc
        with pytest.raises(InconsistencyError, match="not a ghost pair"):
            parse_instance_dict(data)
        data["ghost_bounds"] = [["C", "p1", 0.0]]
        with pytest.raises(SchemaError):
            parse_instance_dict(data)


class TestGeneralize:
    def standard_three_pool(self):
        nodes = [{"id": "s", "kind": "source", "U": 30}]
        nodes += [{"id": f"p{k}", "kind": "pool", "U": 10 * (k + 1)} for k in range(3)]
        nodes += [{"id": "t", "kind": "terminal", "U": 30}]
        arcs = [{"from": "s", "to": f"p{k}", "u": 30, "cost": 1.0} for k in range(3)]
        arcs += [{"from": f"p{k}", "to": "t", "u": 30, "cost": -2.0} for k in range(3)]
        return parse_instance_dict(
            {"nodes": nodes, "arcs": arcs,
             "specs": {"K": 1, "lambda": {"s": [1.0]},
                       "mu_lo": {"t": [0.0]}, "mu_hi": {"t": [2.0]}}})

    def test_adds_ordered_pool_pairs(self):
        inst = self.standard_three_pool()
        gen = generalize(inst)
        added = set(gen.arcs) - set(inst.arcs)
        assert len(added) == 3 * 2  # I * (I - 1)
        # original arcs untouched
        for key, arc in inst.arcs.items():
            assert gen.arcs[key] == arc

    def test_default_bounds_are_capacity_meet(self):
        gen = generalize(self.standard_three_pool())
        arc = gen.arcs[("p0", "p2")]
        assert arc.l == 0.0 and arc.u == 10.0 and arc.cost == 0.0
        assert gen.arcs[("p2", "p0")].u == 10.0

    def test_idempotent(self):
        gen = generalize(self.standard_three_pool())
        again = generalize(gen)
        assert set(again.arcs) == set(gen.arcs)
        assert all(again.arcs[k] == gen.arcs[k] for k in gen.arcs)

    def test_two_pool_instance_gains_two_arcs(self, haverly1):
        # haverly file is already generalized; stripping the pool arcs and
        # re-generalizing restores exactly the same instance
        stripped = {k: a for k, a in haverly1.arcs.items()
                    if not (haverly1.kind(a.tail) == "pool"
                            and haverly1.kind(a.head) == "pool")}
        assert len(haverly1.arcs) - len(stripped) == 2


class TestMiningConversion:
    def test_figure_shape_counts(self):
        sched = make_schedule(4, 4, 5)
        inst = convert_mining(sched)
        sources = [n for n in inst.nodes if inst.kind(n) == "source"]
        pools = [n for n in inst.nodes if inst.kind(n) == "pool"]
        terminals = [n for n in inst.nodes if inst.kind(n) == "terminal"]
        assert len(sources) == 8
        assert len(pools) == 8 + 2     # one per supply plus surplus pools
        assert len(terminals) == 5 + 1

    def test_single_supply_no_demand_surplus(self):
        sched = MiningSchedule(("sp1",), (Supply("sp1", 1.0, 10.0, (1.0,)),), ())
        inst = convert_mining(sched)
        assert inst.nodes["t:inf"].L == inst.nodes["t:inf"].U == 10.0

    def test_terminal_demand_conservation(self):
        sched = make_schedule(3, 2, 4)
        inst = convert_mining(sched)
        total_supply = sum(s.qty for s in sched.supplies)
        total_lower = sum(inst.nodes[t].L for t in inst.terminals)
        assert total_lower == pytest.approx(total_supply)

    def test_pool_source_indegree(self):
        inst = convert_mining(make_schedule(4, 3, 4))
        for p in inst.pools:
            n_src = sum(1 for j in inst.in_nbrs[p] if j in inst.sources)
            assert n_src == (0 if p.endswith(":inf") else 1)

    def test_quarter_shaped_schedule_counts(self):
        # 19 supplies over two stockpiles (10 + 9) and 14 demands give the
        # benchmark characteristics |ASI| = 19, |AII| = 17, |AIT| = 28
        supplies = [Supply("sp1", 2 * k + 1, 10.0, (1.0,)) for k in range(10)]
        supplies += [Supply("sp2", 2 * k + 2, 10.0, (1.0,)) for k in range(9)]
        demands = []
        for k in range(14):
            demands.append(Demand(2.5 + 1.1 * k, 5.0, (2.0,), (1.0,)))
        sched = MiningSchedule(("sp1", "sp2"), tuple(supplies), tuple(demands))
        inst = convert_mining(sched)
        c = inst.characteristics()
        assert c["S"] == 19 and c["I"] == 19 and c["T"] == 14
        assert c["ASI"] == 19 and c["AII"] == 17
        assert c["AII"] + c["ASI"] + c["AIT"] == c["A"]
        assert c["AIT"] == 28

    def test_a_schedule_that_is_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"stockpiles": [')
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse_mining(path)

    def test_negative_surplus_rejected(self):
        sched = {"stockpiles": ["a"],
                 "supplies": [{"stockpile": "a", "time": 1, "qty": 5.0,
                               "spec": [1.0]}],
                 "demands": [{"time": 2, "qty": 9.0, "spec_max": [2.0]}]}
        with pytest.raises(InconsistencyError, match="demand exceeds"):
            parse_mining_dict(sched)

    def test_demand_soft_specs_recorded(self):
        inst = convert_mining(make_schedule(2, 2, 2))
        reg = [t for t in inst.terminals if not t.endswith(":inf")]
        for t in reg:
            assert t in inst.penalty
        assert "t:inf" not in inst.penalty
        assert all(v == float("inf") for v in inst.window("t:inf")[1])

    def test_a_zero_demand_penalty_takes_the_default(self):
        # the only weight replaced: a negative or NaN one is refused (TestCLI)
        sched = make_schedule(2, 2, 2)
        first = replace(sched.demands[0], penalty=(0.0, 2.0))
        inst = convert_mining(replace(sched, demands=(first,) + sched.demands[1:]),
                              default_penalty=4.0)
        assert inst.penalty[f"t:{first.time:g}"] == (4.0, 2.0)

    def test_times_alike_to_six_digits_keep_their_supplies(self):
        # written with :g, both ids would read s:P:1e+06 and keep one supply
        sched = MiningSchedule(("P",), (Supply("P", 1000000.0, 5.0, (1.0,)),
                                        Supply("P", 1000001.0, 7.0, (1.0,))), ())
        inst = convert_mining(sched)
        assert sorted((node_time(s), inst.nodes[s].U) for s in inst.sources) == [
            (1000000.0, 5.0), (1000001.0, 7.0)]
        assert "s:P:1e+06" in inst.nodes
        assert inst.nodes["t:inf"].U == 12.0
        assert solve(build_method(inst, parse_method("MCF:S")).model).status == OPTIMAL

    def test_a_duplicate_supply_id_is_inconsistent(self):
        sched = MiningSchedule(("P",), (Supply("P", 3.0, 5.0, (1.0,)),
                                        Supply("P", 3.0, 7.0, (1.0,))), ())
        with pytest.raises(InconsistencyError, match="duplicate supply id"):
            convert_mining(sched)

    def test_pool_chain_order(self):
        inst = convert_mining(make_schedule(3, 0, 0) if False else
                              MiningSchedule(("sp1",),
                                             tuple(Supply("sp1", k, 5.0, (1.0,))
                                                   for k in (1, 3, 7)), ()))
        assert ("i:sp1:1", "i:sp1:3") in inst.arcs
        assert ("i:sp1:3", "i:sp1:7") in inst.arcs
        assert ("i:sp1:7", "i:sp1:inf") in inst.arcs
