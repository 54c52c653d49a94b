"""Print one sha256 for each of six sets of bounds the package computes.

Run from the repository root:

    python scripts/bound_digest.py [--json RECORDS.json]

A change meant to leave every bound bit-identical must print the same six
lines before and after it.  With ``--json`` the script also writes the
records it hashes to RECORDS.json; ``scripts/bound_diff.py`` compares two
such files, for a change that moves bounds within a tolerance.  The sets are

  lp-table   status, objective and dual bound of ``run_cell`` on every
             bundled instance x MCF and F1-F4 in both bases, no OBBT;
  recipe     ``default_obbt_recipe(...).to_json()`` on TABLE_INSTANCES;
  grid       every cell of ``run_grid`` with OBBT on over TABLE_INSTANCES x
             TABLE_LABELS, without its timings;
  squeeze    value, lower and upper bound, witness and status of
             ``exact_value(inst, first_update=upd)`` on TABLE_INSTANCES,
             with the ``recipe`` set's updates, as ``run_grid`` calls it;
  grid-plain every cell of ``run_grid`` with OBBT off over PLAIN_INSTANCES
             x TABLE_LABELS, without its timings;
  squeeze-open
             the ``squeeze`` record on OPEN_INSTANCES, each with its own
             recipe update: squeezes that run all three passes and end
             open, so that the passes after the first are covered.

Floats enter the digests through ``repr``, so a change in the last bit
changes the digest.  The grids run the squeeze on each instance, and the
OBBT grid the recipe as well; the whole script takes 8-9 s on a shared
two-core x86-64 machine (7.72, 8.12 and 9.02 s in three runs; up to 13 s
while other jobs load it).
"""

import argparse
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the benchmark's own instance and label sets, read from its workloads
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from poolkit import parse_instance  # noqa: E402
from poolkit.bench import GridConfig, exact_value, run_cell, run_grid  # noqa: E402
from poolkit.cli import solver_prints_to_stderr  # noqa: E402
from poolkit.solver import SolveParams  # noqa: E402
from poolkit.tightening import default_obbt_recipe  # noqa: E402
from workloads import ALL_INSTANCES, LP_LABELS, TABLE_INSTANCES, TABLE_LABELS  # noqa: E402

DATA = ROOT / "src" / "poolkit" / "data"

# the instances of the OBBT-off grid: their untightened squeezes take
# about 5 s together
PLAIN_INSTANCES = ("haverly1", "haverly2", "haverly3", "bental4")
# instances whose recipe-updated squeeze runs all three passes
OPEN_INSTANCES = ("adhya1", "adhya2")


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def records() -> dict[str, list[dict]]:
    """The records of each set, in the order they are hashed."""
    instances = {n: parse_instance(DATA / f"{n}.json") for n in ALL_INSTANCES}
    params = SolveParams()

    cells = []
    for name in ALL_INSTANCES:
        for label in LP_LABELS:
            rec = run_cell(name, instances[name], label, False, 0.0, None, params)
            cells.append({"instance": name, "method": label, "status": rec.status,
                          "objective": rec.objective, "dual_bound": rec.dual_bound})

    updates = {name: default_obbt_recipe(instances[name])
               for name in TABLE_INSTANCES + OPEN_INSTANCES}
    recipes = [{"instance": name, "update": updates[name].to_json()}
               for name in TABLE_INSTANCES]

    def grid(names, obbt):
        config = GridConfig([(n, instances[n]) for n in names],
                            list(TABLE_LABELS), obbt=obbt)
        return [{"instance": r.instance, "method": r.method, "obbt": r.obbt,
                 "objective": r.objective, "dual_bound": r.dual_bound,
                 "gap_percent": r.gap_percent, "gap_kind": r.gap_kind,
                 "status": r.status} for r in run_grid(config)]

    def squeezes(names):
        recs = []
        for name in names:
            ev = exact_value(instances[name], first_update=updates[name])
            recs.append({"instance": name, "value": ev.value, "lower": ev.lower,
                         "upper": ev.upper, "witness": ev.witness,
                         "status": ev.status})
        return recs

    squeeze = squeezes(TABLE_INSTANCES)
    return {"lp-table": cells, "recipe": recipes,
            "grid": grid(TABLE_INSTANCES, True), "squeeze": squeeze,
            "grid-plain": grid(PLAIN_INSTANCES, False),
            "squeeze-open": squeezes(OPEN_INSTANCES)}


def digests(sets: dict[str, list[dict]]) -> dict[str, str]:
    cells = [f"{c['instance']} {c['method']} {c['status']} {c['objective']!r} "
             f"{c['dual_bound']!r}" for c in sets["lp-table"]]
    recipes = [f"{r['instance']} {r['update']}" for r in sets["recipe"]]

    def grid(recs):
        return [f"{r['instance']} {r['method']} {r['obbt']} {r['objective']!r} "
                f"{r['dual_bound']!r} {r['gap_percent']!r} {r['gap_kind']} "
                f"{r['status']}" for r in recs]

    def squeezes(recs):
        return [f"{r['instance']} {r['value']!r} {r['lower']!r} {r['upper']!r} "
                f"{r['witness']} {r['status']}" for r in recs]

    return {"lp-table": digest(cells), "recipe": digest(recipes),
            "grid": digest(grid(sets["grid"])), "squeeze": digest(squeezes(sets["squeeze"])),
            "grid-plain": digest(grid(sets["grid-plain"])),
            "squeeze-open": digest(squeezes(sets["squeeze-open"]))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="RECORDS.json",
                        help="also write the hashed records to this file")
    args = parser.parse_args()
    with solver_prints_to_stderr():   # stdout carries nothing but the digests
        sets = records()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(sets, f, indent=1)
    for name, value in digests(sets).items():
        print(f"{name:<8} {value}")


if __name__ == "__main__":
    main()
