"""dump_model output pinned per bundled instance: a refactor of the model
builders must leave every model byte-identical.

Each digest is the sha256 of the concatenated dumps of LABELS, in order, for
one instance; they were recorded before the builders were merged into
relaxations.build_method.

Every pool block of the bundled instances has L = 0, so their models hold no
Vab/Vac row.  CUT_DIGEST pins the cut rows on test_relaxations'
positive_lower_instance, whose blocks all have L > 0; it was recorded before
fragments and cuts were written by one function.

The bundled instances have no terminal-basis ghost pair (a pool-terminal
pair reachable only through other pools).  MINING_DIGEST pins LABELS on the
converted mining example, which has 9 source-basis and 10 terminal-basis
ghost pairs; it was recorded before the two bases were written as one
mirror.

COMPILE_DIGESTS pin what compile_model hands HiGHS for LABELS on every
bundled instance: the column names and every array of the CompiledModel,
with their dtypes.  They were recorded before the compile lost its loop
over coefficients.

No bundled instance has a lower specification window (a spec_lo row), and
the mining example has soft upper sides only.  SPEC_DIGEST pins the dumps
and the compiled arrays of LABELS on spec_window_instance, whose two
terminals, one hard and one soft, have both sides of their windows; it was
recorded before the two sides were written by one loop.

CUT_COMPILE_DIGEST pins the compiled arrays of CUT_LABELS on
positive_lower_instance, whose two pools make the order of rows across
blocks matter; it was recorded before fragments and cuts were attached in
one pass over the blocks.

Every pin above was re-recorded when the F1-F4 fragment builders stopped
writing a lower row whose bound is 0 (x >= 0, which the cells' own bounds
say).  ``scripts/model_diff.py`` showed that change to remove only such
rows, each implied by its variables' bounds, and to add or alter no row
and no variable.
"""

import hashlib

import numpy as np
import pytest

from poolkit import parse_instance
from poolkit.instances import convert_mining, parse_instance_dict, parse_mining
from poolkit.modelir import dump_model
from poolkit.relaxations import F_KINDS, build_method, parse_method
from poolkit.solver import compile_model

from conftest import DATA
from test_relaxations import cut_rows, positive_lower_instance

LABELS = tuple(
    label
    for b in "ST"
    for label in (
        f"EXACT:{b}", f"MCF:{b}",
        *(f"F{k}:{b}" for k in range(1, 5)),
        *(f"{kind}:{b}:H={h}" for kind in ("M1", "M2", "G1", "G2") for h in (1, 2, 3)),
        f"F4:{b}+Vab(x,r)", f"F4:{b}+Vac(x,r)", f"F1:{b}+Vab(r)",
        f"F3:{b}+Vab(x)+Vac(x)",
    )
)

DIGESTS = {
    "adhya1": "d554bb09e5dcf43cc26203ebb1db28ea5a11bf07e7bd4d6c2b5262fa40d16726",
    "adhya2": "985858cce2246d67cdfb94ce72abfd709ae119b93a81a777d8fc984b513e7d52",
    "adhya3": "88c6efff0413c71c2b8d8d4891539a4217fd438f0c395c52d14e7adc8fe8265b",
    "adhya4": "7f722fc567b720b8dcaf1427bd5ccd1d461ace944499519c9b7c68370a539178",
    "bental4": "10ddb70d08809c21befa838495660683ab24868ea5e41cbef2b6e8a7f9bddc5e",
    "bental5": "0bdf66058c75c80bf7a662b3bd8f01cfb381c44a134e2d94ba80bb916b363797",
    "foulds2": "b3a9f1125603085e8f0d632dcbddaf68ee72a56f6bdde9e4e96528ee45219f4e",
    "haverly1": "7a6a459417cf45a0703340c2fbde913de9620eaeee103a6273b065be71ae2d10",
    "haverly2": "3355663a97f2ee7ee1acb00b2ed9b5cd4b210fcafd26887e19e97b5c21082fc3",
    "haverly3": "dae48d95ccb158d0c3e0bcd3149c5c983791b9c4d130517cde4ccba86daf1673",
}


COMPILE_DIGESTS = {
    "adhya1": "9f9778dcf380f347464185c9b19e5ee8fe9f4839836b256251f45007cb2324d6",
    "adhya2": "be56daf0da2188cf2a47586780d7babbbd84adeff3ed709f476ac51eed024083",
    "adhya3": "d8ff83595bc82a2de31a45da25fa6d83c0b321465609b39956ff3c0775416478",
    "adhya4": "4f1c310e39efffee08b82f08c220356a85973122897d84c5ac39dc335f31da3d",
    "bental4": "849e0f20887e7448966b1cba773d03b79fdc7a25c1b0423715993d3caafe551e",
    "bental5": "857aeee206b47efa4dd90021329ad4f0ae8d05a712e8386aa8052b9522a25acf",
    "foulds2": "d52a2cb7d7d9b2719a9d7a2975ddf1c40db76b7c9201f7c33357ad55ef4d3149",
    "haverly1": "30d1da9f11f24fc94351de6374937a6f9d531806beca2579cea4389dd43dd5ed",
    "haverly2": "b4d568dbb7e247924b777ac363ae0490245e0d9fb322adebecebe59dc9c57cf5",
    "haverly3": "044364b76752bd49cae00f9a57860ff2c626771c143c579443f38d36e1e30d71",
}


MINING_DIGEST = "bce58542cbdca5cabb3ebb4c3420f070d3cf75564a37ca4d7dbf4c4131407269"


SPEC_DIGEST = "ac3c01e21a68b67d02455dbf59910592b7abc497961e6ef7e3d12287e1f81e2a"


CUT_LABELS = tuple(
    label
    for b in "ST"
    for label in (
        *(f"F{k}:{b}{cuts}" for k in range(1, 5)
          for cuts in ("+Vab(x,r)", "+Vac(x,r)", "+Vab(r)", "+Vac(x)", "+Vab(r)+Vac(r)")),
        *(f"{kind}:{b}:H=2{cuts}" for kind in ("M1", "M2", "G1", "G2")
          for cuts in ("+Vab(x)", "+Vac(r)")),
    )
)

CUT_DIGEST = "42b58629edeb65edd9f6eb62139a718ff4ad51c938b6e072658e55cac365609e"


CUT_COMPILE_DIGEST = "09ef56e2e24e5bbda1b78d534337347201a9a6c44c1085882e8c1c396b3b8e4b"


def test_labels():
    assert len(LABELS) == 44 and len(set(LABELS)) == 44
    assert len(CUT_LABELS) == 56 and len(set(CUT_LABELS)) == 56


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_dump_model_unchanged(name):
    inst = parse_instance(DATA / f"{name}.json")
    digest = hashlib.sha256()
    for label in LABELS:
        digest.update(dump_model(build_method(inst, parse_method(label)).model).encode())
    assert digest.hexdigest() == DIGESTS[name]


def update_compiled(digest, model) -> None:
    """Feed the column names and every array compile_model gives ``model``,
    with their dtypes, to ``digest``."""
    cm = compile_model(model)
    digest.update("\n".join(cm.names).encode())
    for arr in (cm.A.indptr, cm.A.indices, cm.A.data, cm.row_lo, cm.row_hi,
                cm.lb, cm.ub, cm.integrality, cm.c):
        digest.update(str(arr.dtype).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())


@pytest.mark.parametrize("name", sorted(COMPILE_DIGESTS))
def test_compiled_arrays_unchanged(name):
    inst = parse_instance(DATA / f"{name}.json")
    digest = hashlib.sha256()
    for label in LABELS:
        update_compiled(digest, build_method(inst, parse_method(label)).model)
    assert digest.hexdigest() == COMPILE_DIGESTS[name]


def test_mining_ghost_pairs_unchanged():
    inst = convert_mining(parse_mining(DATA / "mining" / "example_schedule.json"))
    assert (len(inst.ghost_pairs("source")), len(inst.ghost_pairs("terminal"))) == (9, 10)
    digest = hashlib.sha256()
    for label in LABELS:
        digest.update(dump_model(build_method(inst, parse_method(label)).model).encode())
    assert digest.hexdigest() == MINING_DIGEST


def test_cut_rows_unchanged():
    inst = positive_lower_instance()
    digest = hashlib.sha256()
    for label in CUT_LABELS:
        built = build_method(inst, parse_method(label))
        assert set(cut_rows(built.model)) == {"p1", "p2"}, label
        digest.update(dump_model(built.model).encode())
    assert digest.hexdigest() == CUT_DIGEST


def test_cut_compiled_arrays_unchanged():
    inst = positive_lower_instance()
    digest = hashlib.sha256()
    for label in CUT_LABELS:
        update_compiled(digest, build_method(inst, parse_method(label)).model)
    assert digest.hexdigest() == CUT_COMPILE_DIGEST


def spec_window_instance():
    """K = 2; terminal h is hard and s soft, and both have mu_lo > 0.  s's
    second upper side is open, so it has no spec_hi row there.  A direct
    source-terminal arc and a pool-pool arc give the window rows terms of
    every kind in both bases."""
    data = {"nodes": [{"id": "a", "kind": "source", "U": 10},
                      {"id": "b", "kind": "source", "U": 10},
                      {"id": "c", "kind": "source", "U": 5},
                      {"id": "p1", "kind": "pool", "U": 12},
                      {"id": "p2", "kind": "pool", "U": 12},
                      {"id": "h", "kind": "terminal", "U": 9},
                      {"id": "s", "kind": "terminal", "U": 9}],
            "arcs": [{"from": "a", "to": "p1", "cost": 6.0},
                     {"from": "b", "to": "p1", "cost": 16.0},
                     {"from": "b", "to": "p2", "cost": 15.0},
                     {"from": "c", "to": "s", "cost": 10.0},
                     {"from": "p1", "to": "p2", "u": 6, "cost": 0.5},
                     {"from": "p1", "to": "h", "cost": -9.0},
                     {"from": "p2", "to": "h", "cost": -8.5},
                     {"from": "p2", "to": "s", "cost": -15.0}],
            "specs": {"K": 2,
                      "lambda": {"a": [3.0, 0.5], "b": [1.0, 2.0], "c": [2.0, 1.5]},
                      "mu_lo": {"h": [1.5, 0.8], "s": [1.2, 0.6]},
                      "mu_hi": {"h": [2.5, 1.5], "s": [1.5, None]}},
            "penalty": {"s": [40.0, 25.0]}}
    return parse_instance_dict(data, "specwin")


def test_spec_windows_unchanged():
    inst = spec_window_instance()
    digest = hashlib.sha256()
    for label in LABELS:
        model = build_method(inst, parse_method(label)).model
        # every model has both sides at both terminals, and s's violations
        assert {"spec_hi[h,1]", "spec_lo[h,1]", "spec_hi[s,0]",
                "spec_lo[s,1]"} <= model.row_names, label
        assert "spec_hi[s,1]" not in model.row_names, label
        assert {"v[s,0,hi]", "v[s,0,lo]", "v[s,1,lo]"} <= model.variables.keys()
        digest.update(dump_model(model).encode())
        update_compiled(digest, model)
    assert digest.hexdigest() == SPEC_DIGEST


# every F1-F4 label of LABELS and CUT_LABELS, with and without cuts
FRAGMENT_LABELS = tuple(label for label in dict.fromkeys(LABELS + CUT_LABELS)
                        if parse_method(label).kind in F_KINDS)


@pytest.mark.parametrize("name", sorted(DIGESTS) + ["mining", "positive_lower",
                                                    "specwin"])
def test_fragment_models_have_no_explicit_zero(name):
    """A fragment row whose bound is 0 would carry a zero coefficient; it
    is implied by its cells' bounds and is not written.  (The M and G
    discretizations keep theirs: their McCormick rows at a zero lane
    bound.)"""
    if name == "mining":
        inst = convert_mining(parse_mining(DATA / "mining" / "example_schedule.json"))
    elif name == "positive_lower":
        inst = positive_lower_instance()
    elif name == "specwin":
        inst = spec_window_instance()
    else:
        inst = parse_instance(DATA / f"{name}.json")
    for label in FRAGMENT_LABELS:
        model = build_method(inst, parse_method(label)).model
        zeros = [(row.name, var) for row in model.rows
                 for var, coeff in row.coeffs if coeff == 0]
        assert zeros == [], (label, zeros[:3])
