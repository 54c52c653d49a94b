"""Write the models of the bundled instances to JSON, or compare two such files.

Run from the repository root:

    python scripts/model_diff.py dump MODELS.json
    python scripts/model_diff.py diff BEFORE.json AFTER.json

``dump`` builds every bundled instance x LABELS model (the labels of
``tests/test_model_digests.py``) with ``relaxations.build_method``, and
the same for the converted mining example (as ``mining``, the instance of
``MINING_DIGEST``, the only one with terminal-basis ghost pairs), and
writes each model's variables and rows, in model order, with every bound
and coefficient as the builder gave it.  ``diff`` compares two such files
and prints every difference but a removed implied row (a variable
removed, added or changed; a row added or changed; a removed row that is
not implied; common rows in another order), then, by row family (the row
name without its block prefix ``B[pool]:`` and its index ``[...]``), the
rows removed, added and changed, and the totals.

A removed row is *implied* when the bounds of its variables alone imply it
(its least activity over those bounds meets a ``>=`` rhs, its greatest a
``<=`` one): such a row removes no point of the model, as LP presolve
would drop it too.  The exit code is 1 when the files differ in anything
but removed implied rows, else 0; a change meant to leave every model
byte-identical shows no line but the totals.
"""

import argparse
import collections
import json
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from poolkit import convert_mining, parse_instance, parse_mining  # noqa: E402
from poolkit.relaxations import build_method, parse_method  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "poolkit" / "data"

INSTANCES = ("adhya1", "adhya2", "adhya3", "adhya4", "bental4", "bental5",
             "foulds2", "haverly1", "haverly2", "haverly3")
# the labels of tests/test_model_digests.py, in its order
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


def model_record(model) -> dict:
    """A model's variables and rows, in model order, as JSON values."""
    return {"vars": [[v.name, v.lb, v.ub, v.binary] for v in model.variables.values()],
            "rows": [[r.name, r.sense, r.rhs, [list(c) for c in r.coeffs]]
                     for r in model.rows]}


def dump() -> dict[str, dict[str, dict]]:
    """instance -> label -> model record, for INSTANCES and ``mining`` x
    LABELS."""
    instances = {name: parse_instance(DATA / f"{name}.json") for name in INSTANCES}
    instances["mining"] = convert_mining(parse_mining(DATA / "mining" /
                                                      "example_schedule.json"))
    return {name: {label: model_record(build_method(inst, parse_method(label)).model)
                   for label in LABELS}
            for name, inst in instances.items()}


def family(row_name: str) -> str:
    """``B[p1]:rw:cell_lo[0,1]`` -> ``rw:cell_lo``, ``spec_hi[h,1]`` -> ``spec_hi``."""
    return re.sub(r"\[[^\]]*\]$", "", re.sub(r"^B\[[^\]]*\]:", "", row_name))


def implied(row, bounds) -> bool:
    """Whether the bounds of its variables alone imply the row."""
    _, sense, rhs, coeffs = row
    least = sum(c * (bounds[v][0] if c > 0 else bounds[v][1]) for v, c in coeffs if c)
    most = sum(c * (bounds[v][1] if c > 0 else bounds[v][0]) for v, c in coeffs if c)
    if sense == ">=":
        return least >= rhs
    if sense == "<=":
        return most <= rhs
    return least == most == rhs


def compare(before: dict, after: dict):
    """The differences other than removed implied rows; per row family, the
    rows removed (and of them, implied), added and changed; and the number
    of models compared."""
    diffs: list[str] = []
    families: dict[str, collections.Counter] = collections.defaultdict(collections.Counter)
    models = 0
    for name in sorted(before.keys() | after.keys()):
        old_labels, new_labels = before.get(name, {}), after.get(name, {})
        for label in sorted(old_labels.keys() ^ new_labels.keys()):
            diffs.append(f"{name} {label}: only in "
                         f"{'BEFORE' if label in old_labels else 'AFTER'}")
        for label in sorted(old_labels.keys() & new_labels.keys()):
            models += 1
            a, b = old_labels[label], new_labels[label]
            where = f"{name} {label}"
            old_vars = {v[0]: v for v in a["vars"]}
            new_vars = {v[0]: v for v in b["vars"]}
            for var in sorted(old_vars.keys() | new_vars.keys()):
                if old_vars.get(var) != new_vars.get(var):
                    diffs.append(f"{where}: variable {old_vars.get(var)} -> "
                                 f"{new_vars.get(var)}")
            bounds = {v[0]: (v[1], v[2]) for v in a["vars"]}
            old_rows = {r[0]: r for r in a["rows"]}
            new_rows = {r[0]: r for r in b["rows"]}
            for row in a["rows"]:
                if row[0] not in new_rows:
                    fam = families[family(row[0])]
                    fam["removed"] += 1
                    if implied(row, bounds):
                        fam["implied"] += 1
                    else:
                        diffs.append(f"{where}: removed row {row} is not implied")
                elif new_rows[row[0]] != row:
                    families[family(row[0])]["changed"] += 1
                    diffs.append(f"{where}: row {row} -> {new_rows[row[0]]}")
            for row in b["rows"]:
                if row[0] not in old_rows:
                    families[family(row[0])]["added"] += 1
                    diffs.append(f"{where}: added row {row}")
            common = [r[0] for r in a["rows"] if r[0] in new_rows]
            if common != [r[0] for r in b["rows"] if r[0] in old_rows]:
                diffs.append(f"{where}: the common rows changed their order")
    return diffs, families, models


def counts(fam) -> str:
    return (f"removed {fam['removed']} ({fam['implied']} implied), "
            f"added {fam['added']}, changed {fam['changed']}")


def report(diffs: list[str], families: dict, models: int) -> list[str]:
    """The differences, a line per row family with a removed, added or
    changed row, and the totals."""
    lines = list(diffs)
    total = collections.Counter()
    for name in sorted(families):
        lines.append(f"{name:<16} {counts(families[name])}")
        total.update(families[name])
    lines.append(f"{models} models: {counts(total)}; {len(diffs)} differences "
                 f"other than removed implied rows")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dump", help="write every model to a JSON file").add_argument("out")
    diff = sub.add_parser("diff", help="compare two files written by dump")
    diff.add_argument("before")
    diff.add_argument("after")
    args = parser.parse_args()
    if args.command == "dump":
        with open(args.out, "w") as f:
            json.dump(dump(), f)
        return 0
    before, after = (json.loads(pathlib.Path(p).read_text())
                     for p in (args.before, args.after))
    diffs, families, models = compare(before, after)
    for line in report(diffs, families, models):
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
