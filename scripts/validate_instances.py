"""Print the ledger of published numbers next to this package's numbers.

Run from the repository root:

    python scripts/validate_instances.py [instance ...]

The ledger, ``src/poolkit/data/published/ledger.json``, holds each bundled
instance's published optimum and gap cells.  Each gets one line: the
published value, ours, and ``ok`` or ``DEVIATES`` with the ledger's reason.
Our optimum is the squeeze's (``exact_value``), started from
``default_obbt_recipe``'s update as a grid with OBBT starts it; a cell's
gap is ``run_cell``'s against the published optimum, on the instance that
update tightens where the cell is published with OBBT.
An optimum is reproduced when the squeeze proves it to 1e-3 relative, a
gap when ours lies within 0.05 percentage points.  HiGHS's own prints go
to stderr, so stdout holds the report alone.  The exit code is 1 when
something deviates and the ledger gives no reason.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from poolkit import parse_instance  # noqa: E402
from poolkit.bench import exact_value, run_cell  # noqa: E402
from poolkit.cli import solver_prints_to_stderr  # noqa: E402
from poolkit.solver import SolveParams  # noqa: E402
from poolkit.tightening import default_obbt_recipe  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "poolkit" / "data"
LEDGER = json.loads((DATA / "published" / "ledger.json").read_text())["instances"]
PARAMS = SolveParams(time_limit_s=60)


def check(name):
    """(what, published, ours, reproduced, entry) for the optimum and
    each cell of ``name``'s ledger entry."""
    entry = LEDGER[name]
    inst = parse_instance(DATA / f"{name}.json")
    opt = entry["optimum"]["value"]
    upd = default_obbt_recipe(inst, params=PARAMS)
    ev = exact_value(inst, PARAMS, first_update=upd)
    rows = [("optimum", opt, ev.value, ev.proven and abs(ev.value - opt) <= 1e-3 * abs(opt),
             entry["optimum"])]
    work = {False: inst, True: ev.instance}   # by the cell's obbt flag
    for cell in entry["cells"]:
        rec = run_cell(name, work[cell["obbt"]], cell["label"], cell["obbt"], 0.0,
                       opt, PARAMS)
        rows.append((cell["label"] + " obbt" * cell["obbt"], cell["gap"], rec.gap_percent,
                     abs(rec.gap_percent - cell["gap"]) <= 0.05, cell))
    return rows


def main(names):
    unexplained = 0
    for name in names:
        with solver_prints_to_stderr():
            rows = check(name)
        for what, published, ours, ok, entry in rows:
            verdict = "ok" if ok else "DEVIATES: " + entry.get("reason", "no reason recorded")
            unexplained += not ok and "reason" not in entry
            ours = "-" if ours is None else f"{ours:.2f}"
            print(f"{name:<9} {what:<14} published {published:9.2f}  ours {ours:>9}  {verdict}")
    return unexplained


if __name__ == "__main__":
    sys.exit(1 if main(sys.argv[1:] or list(LEDGER)) else 0)
