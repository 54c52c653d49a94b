"""scripts/bound_diff.py: the comparison of two bound_digest record files."""

import importlib.util
import json
import math
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bound_diff.py"
spec = importlib.util.spec_from_file_location("bound_diff", SCRIPT)
bound_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bound_diff)


def records(f4=-500.0, m2_status="optimal", m2_dual=-401.0, arc_hi=100.0,
            tag="obbt-max", value=-400.0, witness="G2:S:H=3", status="proven",
            plain_g2=-400.0, z_lo=-500.0, z_witness="G2:T:H=3"):
    update = {"nodes": {"p1": [0.0, 300.0]}, "arcs": {"A->p1": [0.0, arc_hi]},
              "ghosts": {}, "provenance": {"node:p1": "unchanged",
                                           "arc:('A', 'p1')": tag},
              "z_box": [z_lo, -400.0], "z_witness": z_witness}
    return {
        "lp-table": [{"instance": "h", "method": "F4:S", "status": "optimal",
                      "objective": f4, "dual_bound": f4}],
        "recipe": [{"instance": "h", "update": json.dumps(update)}],
        "grid": [{"instance": "h", "method": "M2:S:H=3", "obbt": True,
                  "objective": -400.0, "dual_bound": m2_dual,
                  "gap_percent": 0.0, "gap_kind": "D", "status": m2_status}],
        "squeeze": [{"instance": "h", "value": value, "lower": -400.01,
                     "upper": value, "witness": witness, "status": status}],
        "grid-plain": [{"instance": "h", "method": "G2:S:H=3", "obbt": False,
                        "objective": plain_g2, "dual_bound": plain_g2,
                        "gap_percent": 0.0, "gap_kind": "P",
                        "status": "optimal"}],
    }


def moves(groups):
    return {g.name: g.move for g in groups}


def test_identical_records_move_nothing():
    diffs, groups = bound_diff.compare(records(), records())
    assert diffs == []
    assert moves(groups) == {"OBBT intervals": 0.0, "objective box": 0.0,
                             "LP cells": 0.0, "MIP cells": 0.0, "squeezes": 0.0}


def test_moves_are_relative_and_grouped_by_label_kind():
    after = records(f4=-500.0 * (1 + 1e-12), m2_dual=-401.0 * (1 + 1e-7),
                    arc_hi=100.0 * (1 + 1e-13), value=-400.0 * (1 + 1e-10))
    diffs, groups = bound_diff.compare(records(), after)
    assert diffs == []
    got = moves(groups)
    assert got["LP cells"] == pytest.approx(1e-12, rel=1e-3)
    assert got["MIP cells"] == pytest.approx(1e-7, rel=1e-3)
    assert got["OBBT intervals"] == pytest.approx(1e-13, rel=1e-2)
    assert got["squeezes"] == pytest.approx(1e-10, rel=1e-3)


def test_an_objective_box_end_is_not_an_interval():
    # a box end that turns infinite moves by inf; the interval moves stay
    # visible beside it
    after = records(arc_hi=100.0 * (1 + 1e-11), z_lo=-math.inf)
    diffs, groups = bound_diff.compare(records(), after)
    assert diffs == []
    got = moves(groups)
    assert got["OBBT intervals"] == pytest.approx(1e-11, rel=1e-2)
    assert got["objective box"] == math.inf
    assert "recipe h z_box lo: -500.0 -> -inf" in groups[1].line()
    moved = bound_diff.compare(records(), records(z_lo=-500.0 * (1 + 1e-9)))[1]
    assert moves(moved)["objective box"] == pytest.approx(1e-9, rel=1e-3)
    assert moves(moved)["OBBT intervals"] == 0.0


def test_status_and_provenance_differences_are_listed():
    after = records(m2_status="time-limit", tag="unchanged")
    diffs, _ = bound_diff.compare(records(), after)
    assert len(diffs) == 2
    assert any("status optimal -> time-limit" in d for d in diffs)
    assert any("provenance obbt-max -> unchanged" in d for d in diffs)


def test_squeeze_witness_and_status_differences_are_listed():
    after = records(value=-399.0, witness="G1:S:H=3", status="open")
    diffs, groups = bound_diff.compare(records(), after)
    assert diffs == ["squeeze h: witness G2:S:H=3 -> G1:S:H=3",
                     "squeeze h: status proven -> open"]
    assert moves(groups)["squeezes"] == pytest.approx(1 / 400)


def test_recipe_witness_differences_are_listed():
    diffs, groups = bound_diff.compare(records(), records(z_witness="G1:T:H=3"))
    assert diffs == ["recipe h: witness G2:T:H=3 -> G1:T:H=3"]
    assert moves(groups)["objective box"] == 0.0
    # a file written before updates named their witness has none
    before = records()
    update = json.loads(before["recipe"][0]["update"])
    del update["z_witness"]
    before["recipe"][0]["update"] = json.dumps(update)
    diffs, _ = bound_diff.compare(before, records())
    assert diffs == ["recipe h: witness None -> G2:T:H=3"]


def test_a_file_without_squeezes_lacks_each_one():
    before = records()
    del before["squeeze"]
    diffs, groups = bound_diff.compare(before, records())
    assert diffs == ["squeeze h: only in AFTER"]
    assert groups[-1].line() == "squeezes       no values"


def test_open_squeezes_are_compared_like_the_squeezes():
    def with_open(**kw):
        recs = records()
        recs["squeeze-open"] = [dict(records(**kw)["squeeze"][0], instance="a")]
        return recs

    after = with_open(value=-400.0 * (1 + 1e-9), witness="G1:T:H=3")
    diffs, groups = bound_diff.compare(with_open(), after)
    assert diffs == ["squeeze-open a: witness G2:S:H=3 -> G1:T:H=3"]
    assert moves(groups)["squeezes"] == pytest.approx(1e-9, rel=1e-3)
    # a file written before the set existed has none of its squeezes
    diffs, _ = bound_diff.compare(records(), after)
    assert diffs == ["squeeze-open a: only in AFTER"]


def test_plain_grid_is_compared_like_the_grid():
    diffs, groups = bound_diff.compare(records(), records(plain_g2=-400.0 * (1 + 1e-9)))
    assert diffs == []
    assert moves(groups)["MIP cells"] == pytest.approx(1e-9, rel=1e-3)
    before = records()
    del before["grid-plain"]
    diffs, _ = bound_diff.compare(before, records())
    assert diffs == ["grid-plain h G2:S:H=3: only in AFTER"]


def test_a_value_lost_on_one_side_is_a_difference():
    diffs, _ = bound_diff.compare(records(), records(m2_dual=None))
    assert diffs == ["grid h M2:S:H=3: dual_bound -401.0 -> None"]


def test_infinite_ends_that_agree_move_nothing():
    assert bound_diff.rel_move(math.inf, math.inf) == 0.0
    assert bound_diff.rel_move(math.inf, 1.0) == math.inf
