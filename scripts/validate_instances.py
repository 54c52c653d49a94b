"""Re-validate the bundled instances against published benchmark values.

Run from the repository root:

    python scripts/validate_instances.py [instance ...]

For each instance this prints the squeezed exact value, with the squeeze's
status, witness restriction and seconds, and the relaxation and
restriction gaps, next to the published targets.  It is a data-quality
tool, not part of the test suite (the acceptance tests assert the same
numbers with tolerances).
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from poolkit import parse_instance  # noqa: E402
from poolkit.bench import compute_gap, exact_value  # noqa: E402
from poolkit.relaxations import G_KINDS, build_method, parse_method  # noqa: E402
from poolkit.solver import SolveParams, solve  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "poolkit" / "data"

# (optimum, {method: published %gap vs optimum, D for F/M and P for G})
PUBLISHED = {
    "haverly1": (-400.0, {"F1:S": 25.00, "F2:S": 25.00, "F3:S": 25.00,
                          "F4:S": 25.00, "G1:S:H=3": 0.00, "G2:T:H=3": 0.00}),
    "haverly2": (-600.0, {"F1:S": 66.67, "F4:S": 66.67}),
    "haverly3": (-750.0, {"F1:S": 16.67, "F2:T": 6.67, "F4:T": 6.67,
                          "G1:S:H=3": 0.00, "G2:S:H=3": 3.45,
                          "G2:T:H=3": 4.17}),
    "bental4": (-450.0, {"F1:S": 22.22, "F2:S": 22.22, "F2:T": 22.22}),
    "bental5": (-3500.0, {"F1:S": 0.00, "F4:S": 0.00}),
    "adhya1": (-550.0, {"F1:S": 55.18, "F2:S": 55.68, "F4:S": 55.18}),
    "adhya2": (-550.0, {"F1:S": 4.51}),
    "adhya3": (-561.0, {"F1:S": 2.46}),
    "adhya4": (-878.0, {"F1:S": 10.76}),
    "foulds2": (-1100.0, {"F1:S": 0.00, "F4:S": 0.00, "G1:S:H=3": 0.00}),
}


def main(names):
    params = SolveParams(time_limit_s=60)
    failures = 0
    for name in names:
        opt, cells = PUBLISHED[name]
        inst = parse_instance(DATA / f"{name}.json")
        ev = exact_value(inst, params)
        tag = "ok" if (ev.proven and ev.value is not None
                       and abs(ev.value - opt) <= 1e-3 * abs(opt)) else "MISMATCH"
        if tag != "ok":
            failures += 1
        print(f"{name}: exact {ev.value} vs {opt}  [{tag}]  "
              f"({ev.status}, witness {ev.witness or '-'}, {ev.seconds:.2f} s)")
        for method, want in cells.items():
            spec = parse_method(method)
            res = solve(build_method(inst, spec).model, params)
            if spec.kind in G_KINDS:
                got = compute_gap(res.objective, opt)
            else:
                got = compute_gap(opt, res.dual_bound)
            tag = "ok" if abs(got - want) <= 0.05 else "MISMATCH"
            if tag != "ok":
                failures += 1
            print(f"  {method:10s} gap {got:7.2f} vs {want:6.2f}  [{tag}]")
    return failures


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(PUBLISHED)
    sys.exit(1 if main(names) else 0)
