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
"""

import hashlib

import numpy as np
import pytest

from poolkit import parse_instance
from poolkit.instances import convert_mining, parse_instance_dict, parse_mining
from poolkit.modelir import dump_model
from poolkit.relaxations import build_method, parse_method
from poolkit.solver import compile_model

from conftest import DATA
from test_relaxations import positive_lower_instance

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
    "adhya1": "8885cdc7bc7e1eb6fba08be2dc2eadcd4486927e992683d31bb557715bfd446b",
    "adhya2": "5fd7dbc1265933e03a4ddaea26d631742a49afbcfc615206874e62387455866d",
    "adhya3": "04a3dca72026c496b8df61454ba8fa7c095e2d8fe98e5f7067e367f6b5f49f85",
    "adhya4": "435629d39918e27488025374875a8e0be77fc4656caff9561e61cb4b48cb7ee6",
    "bental4": "95d354a7c8f4b3cd08c9b2c1b379e1ad7837cbec6046065f5dfe31d5c435193a",
    "bental5": "a65f9ec096f2b4096d3d5a3b2f012589b1dcc795b2f540d0cd6236807f076373",
    "foulds2": "806c00e2cbf012ea8543174fe4109b10832471b80c579301a4a23e8ec79e94c9",
    "haverly1": "390e9e836494a92c63bfd63749e539c74450074089c68db4e9e89629bb7d72c8",
    "haverly2": "469f4971e0b70fcebd3d4dba714ad951f15d6091691e4ec166fa3cdd4f57b015",
    "haverly3": "42c13c5fc5e69f4e9a36c016314b1a4fb5f19d070e1d1cad5b00bb03b919b412",
}


COMPILE_DIGESTS = {
    "adhya1": "7f57111e05c70c9175e28efd3e879bf93e54ac529a7b9e14fb91a33e5916f3d0",
    "adhya2": "c95bf323ed1e1ebe6bfa1c21ba4a45ba4ee147e61e93745f6c17abca1d156b8b",
    "adhya3": "7348ea75fba9406d58b7cbc5c777ce9e6cb6dd8f41610dde56891f70a262210a",
    "adhya4": "86b26a73e305595990774e016eaa9672bfcbdf1166b01ab00d97df416d59f268",
    "bental4": "22517ad49062272d8f0d835dac21a0c0e9921eb3d458ace7df70d14f3ad3bba3",
    "bental5": "208766dc6137c12545d142d54c24f2f0eb9de243fba5f5e9942342dc51c97c58",
    "foulds2": "248a828a016984190267d3a7cd4ab3021acbbb13022c90413ad52db0bedb9b6e",
    "haverly1": "a6cca76f2f09ee341aa9161ce305304ddaaf802b2a8bf977ba81818e77fe670e",
    "haverly2": "ee069d05c07a863cac5cb424cdc1b781a0bdb28c0d52a815fe76a8081e2130ca",
    "haverly3": "f952933ce1267b80ec5cb361b6fdbcde356328fa7236195ac7c3f4e32d11f4fa",
}


MINING_DIGEST = "260a4f95d6b37a279d630ecdf2cf791084f5e6829832a88958c0988d5cde3522"


SPEC_DIGEST = "83d6200da1874a86cba6991c4c3a5c26ee40ee77d00e935ea8bd0e489b216a0a"


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

CUT_DIGEST = "76b137f13c97f689d6585fa1be2d5a5eb40fda13cbbbfeb06984b92e2408ecb1"


CUT_COMPILE_DIGEST = "e9b7264869bf47d68b6b191220060fadbd5b9ccc487e62abbfbc17f7c91c7dd7"


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
        assert built.cut_count > 0, label
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
