"""Compare two record files written by ``scripts/bound_digest.py --json``.

Run from the repository root:

    python scripts/bound_diff.py BEFORE.json AFTER.json

It prints every cell whose status differs, every OBBT target whose
provenance differs and every squeeze whose witness or status differs, then
the largest relative move in each group:

  OBBT intervals  every node, arc and ghost interval of the ``recipe`` set;
  objective box   both ends of each ``recipe`` update's ``z_box``, apart
                  from the intervals: a box end that turns infinite moves
                  by inf, and would hide every interval's move;
  LP cells        objective and dual bound of the LP labels (MCF, F1-F4) in
                  the ``lp-table``, ``grid`` and ``grid-plain`` sets;
  MIP cells       objective and dual bound of the MIP labels (M and G
                  kinds) in the ``grid`` and ``grid-plain`` sets;
  squeezes        value, lower and upper bound of the ``squeeze`` set.

A file without the ``squeeze`` or ``grid-plain`` set has none of its
records.

A move is |a - b| / max(1, |a|), with ``a`` from BEFORE; two equal values,
infinities included, move 0.  A value that one file has and the other
lacks is printed as a difference.  The exit code is 1 when there is a
status, provenance, witness or presence difference, else 0.
"""

import json
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from poolkit.relaxations import G_KINDS, M_KINDS, parse_method  # noqa: E402


def rel_move(a, b) -> float:
    if a == b:
        return 0.0
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, abs(a))


class Largest:
    """The largest move of a group, and where it is."""

    def __init__(self, name: str):
        self.name, self.move, self.where, self.count = name, 0.0, "", 0

    def add(self, where: str, a, b) -> None:
        self.count += 1
        move = rel_move(a, b)
        if move > self.move or not self.where:
            self.move, self.where = move, f"{where}: {a!r} -> {b!r}"

    def line(self) -> str:
        if not self.count:
            return f"{self.name:<15}no values"
        if not self.move:
            return f"{self.name:<15}0 over {self.count} values (all equal)"
        return (f"{self.name:<15}{self.move:.3g} over {self.count} values "
                f"(largest at {self.where})")


def is_mip(label: str) -> bool:
    return parse_method(label).kind in M_KINDS + G_KINDS


def compare(before: dict, after: dict) -> tuple[list[str], list[Largest]]:
    diffs = []
    intervals, lp, mip = Largest("OBBT intervals"), Largest("LP cells"), Largest("MIP cells")
    z_boxes, squeezes = Largest("objective box"), Largest("squeezes")

    def keyed(recs, *fields):
        return {tuple(r[f] for f in fields): r for r in recs}

    for group in ("lp-table", "grid", "grid-plain"):
        old = keyed(before.get(group, []), "instance", "method")
        new = keyed(after.get(group, []), "instance", "method")
        for key in sorted(old.keys() ^ new.keys()):
            diffs.append(f"{group} {' '.join(key)}: only in "
                         f"{'BEFORE' if key in old else 'AFTER'}")
        for key in sorted(old.keys() & new.keys()):
            a, b = old[key], new[key]
            where = f"{group} {' '.join(key)}"
            if a["status"] != b["status"]:
                diffs.append(f"{where}: status {a['status']} -> {b['status']}")
            for field in ("objective", "dual_bound"):
                if (a[field] is None) != (b[field] is None):
                    diffs.append(f"{where}: {field} {a[field]!r} -> {b[field]!r}")
                    continue
                (mip if is_mip(key[1]) else lp).add(f"{where} {field}",
                                                    a[field], b[field])

    old = {r["instance"]: json.loads(r["update"]) for r in before["recipe"]}
    new = {r["instance"]: json.loads(r["update"]) for r in after["recipe"]}
    for name in sorted(old.keys() ^ new.keys()):
        diffs.append(f"recipe {name}: only in {'BEFORE' if name in old else 'AFTER'}")
    for name in sorted(old.keys() & new.keys()):
        a, b = old[name], new[name]
        for label in sorted(a["provenance"].keys() | b["provenance"].keys()):
            pa, pb = a["provenance"].get(label), b["provenance"].get(label)
            if pa != pb:
                diffs.append(f"recipe {name} {label}: provenance {pa} -> {pb}")
        for side, x, y in zip(("lo", "hi"), a["z_box"] or [None, None],
                              b["z_box"] or [None, None]):
            z_boxes.add(f"recipe {name} z_box {side}", x, y)
        for kind in ("nodes", "arcs", "ghosts"):
            for key in sorted(a[kind].keys() | b[kind].keys()):
                ia, ib = a[kind].get(key), b[kind].get(key)
                if ia is None or ib is None:
                    diffs.append(f"recipe {name} {kind} {key}: {ia} -> {ib}")
                    continue
                for side, x, y in zip(("lo", "hi"), ia, ib):
                    intervals.add(f"recipe {name} {kind} {key} {side}", x, y)

    old = keyed(before.get("squeeze", []), "instance")
    new = keyed(after.get("squeeze", []), "instance")
    for (name,) in sorted(old.keys() ^ new.keys()):
        diffs.append(f"squeeze {name}: only in "
                     f"{'BEFORE' if (name,) in old else 'AFTER'}")
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        for field in ("witness", "status"):
            if a[field] != b[field]:
                diffs.append(f"squeeze {key[0]}: {field} {a[field]} -> {b[field]}")
        for field in ("value", "lower", "upper"):
            if (a[field] is None) != (b[field] is None):
                diffs.append(f"squeeze {key[0]}: {field} {a[field]!r} -> {b[field]!r}")
                continue
            squeezes.add(f"squeeze {key[0]} {field}", a[field], b[field])
    return diffs, [intervals, z_boxes, lp, mip, squeezes]


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python scripts/bound_diff.py BEFORE.json AFTER.json",
              file=sys.stderr)
        return 2
    before, after = (json.loads(pathlib.Path(p).read_text()) for p in sys.argv[1:])
    diffs, groups = compare(before, after)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differences of status, provenance, witness or presence")
    for group in groups:
        print(group.line())
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
