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


def scaled(inst, flows=1.0, costs=1.0):
    """The instance with every flow bound (nodes, arcs, ghost pairs) times
    ``flows`` and every cost and penalty times ``costs``: a feasible point's
    flows times ``flows`` give a feasible point of it, whose objective is
    the first's times ``flows * costs``."""
    data = to_dict(inst)

    def times(v):
        return None if v is None else v * flows

    for node in data["nodes"]:
        node["L"], node["U"] = times(node["L"]), times(node["U"])
    for arc in data["arcs"]:
        arc["l"], arc["u"], arc["cost"] = times(arc["l"]), times(arc["u"]), arc["cost"] * costs
    data["penalty"] = {t: [w * costs for w in v] for t, v in data["penalty"].items()}
    for pair in data.get("ghost_bounds", []):
        pair[2], pair[3] = times(pair[2]), times(pair[3])
    return parse_instance_dict(data, inst.name)


@pytest.mark.parametrize("name", ["haverly1", "foulds2", "adhya4"])
@pytest.mark.parametrize("flows,costs", [(7.0, 1.0), (1.0, 3.0)],
                         ids=["flows-x7", "costs-x3"])
def test_lp_bounds_scale_with_flows_and_costs(name, flows, costs):
    inst = parse_instance(DATA / f"{name}.json")
    twin = scaled(inst, flows, costs)
    for label in LP_LABELS:
        a, b = (run_cell(name, i, label, False, 0.0, None, SolveParams())
                for i in (inst, twin))
        assert a.status == b.status == OPTIMAL, label
        assert b.dual_bound == pytest.approx(flows * costs * a.dual_bound, rel=1e-8), label


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
