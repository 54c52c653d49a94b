"""Metamorphic relations: a transformation of an instance that maps every
feasible point to one with a known objective moves every bound with it."""

import pytest

from poolkit import parse_instance
from poolkit.bench import run_cell
from poolkit.instances import parse_instance_dict, to_dict
from poolkit.solver import OPTIMAL, SolveParams

from conftest import DATA

LP_LABELS = tuple(f"{kind}:{basis}" for basis in "ST"
                  for kind in ("MCF", "F1", "F2", "F3", "F4"))


def reverse_ids(inst):
    """The instance with every node renamed so that the ids sort in reverse
    order: the models' columns, sorted by name, come in another order."""
    data = to_dict(inst)
    ids = sorted(node["id"] for node in data["nodes"])
    new = {old: f"v{len(ids) - 1 - k:03d}" for k, old in enumerate(ids)}
    for node in data["nodes"]:
        node["id"] = new[node["id"]]
    for arc in data["arcs"]:
        arc["from"], arc["to"] = new[arc["from"]], new[arc["to"]]
    for key in ("lambda", "mu_lo", "mu_hi"):
        data["specs"][key] = {new[n]: v for n, v in data["specs"][key].items()}
    data["penalty"] = {new[n]: v for n, v in data["penalty"].items()}
    for pair in data.get("ghost_bounds", []):
        pair[0], pair[1] = new[pair[0]], new[pair[1]]
    return parse_instance_dict(data, inst.name)


@pytest.mark.parametrize("name", ["haverly1", "foulds2", "adhya4"])
def test_lp_bounds_do_not_depend_on_column_order(name):
    inst = parse_instance(DATA / f"{name}.json")
    twin = reverse_ids(inst)
    assert len(twin.nodes) == len(inst.nodes) and len(twin.arcs) == len(inst.arcs)
    for label in LP_LABELS:
        a, b = (run_cell(name, i, label, False, 0.0, None, SolveParams())
                for i in (inst, twin))
        assert a.status == b.status == OPTIMAL, label
        assert b.dual_bound == pytest.approx(a.dual_bound, rel=1e-8), label
