"""scripts/model_diff.py: the comparison of two model dumps."""

import importlib.util
import pathlib

from test_model_digests import LABELS

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "model_diff.py"
spec = importlib.util.spec_from_file_location("model_diff", SCRIPT)
model_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(model_diff)


def test_only_removed_implied_rows_are_no_difference():
    assert model_diff.LABELS == LABELS
    inf = float("inf")
    before = {"h": {"F4:S": {
        "vars": [["x", 0.0, 5.0, False], ["r", 0.0, inf, False]],
        "rows": [["B[p]:tot_lo[0,0]", ">=", 0.0, [["x", 1.0], ["r", -0.0]]],
                 ["B[p]:rowb_lo[0,0]", ">=", 0.0, [["x", 1.0], ["r", -2.0]]],
                 ["B[p]:simplex", "==", 1.0, [["r", 1.0]]],
                 ["cap[p]", "<=", 5.0, [["x", 1.0]]]]}}}
    after = {"h": {"F4:S": {
        "vars": [["x", 0.0, 5.0, False], ["r", 0.0, inf, False]],
        "rows": [["B[p]:simplex", "==", 1.0, [["r", 1.0]]],
                 ["cap[p]", "<=", 5.0, [["x", 1.0]]]]}}}
    diffs, families, models = model_diff.compare(before, after)
    assert models == 1
    assert diffs == ["h F4:S: removed row ['B[p]:rowb_lo[0,0]', '>=', 0.0, "
                     "[['x', 1.0], ['r', -2.0]]] is not implied"]
    assert (families["tot_lo"]["removed"], families["tot_lo"]["implied"]) == (1, 1)
    assert model_diff.report(diffs, families, models)[-1] == (
        "1 models: removed 2 (1 implied), added 0, changed 0; "
        "1 differences other than removed implied rows")

    after["h"]["F4:S"]["vars"][1][2] = 1.0
    after["h"]["F4:S"]["rows"].reverse()
    after["h"]["F4:S"]["rows"].append(["B[p]:tot_hi[0,0]", "<=", 0.0, [["x", 1.0]]])
    diffs, families, _ = model_diff.compare(before, after)
    assert diffs[0] == "h F4:S: variable ['r', 0.0, inf, False] -> ['r', 0.0, 1.0, False]"
    assert diffs[2:] == ["h F4:S: added row ['B[p]:tot_hi[0,0]', '<=', 0.0, [['x', 1.0]]]",
                         "h F4:S: the common rows changed their order"]
    assert families["tot_hi"]["added"] == 1
