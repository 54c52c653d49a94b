"""Command line interface: benchmark grids, mining conversion and tightening.

    poolkit run --instances DIR --methods "F1:S,F4:S,M2:T:H=3" \
                --obbt on --time-limit 3600 --threads 4 --out results.csv
    poolkit tighten --mining schedule.json --out bounds.json
    poolkit convert-mining schedule.json --out instance.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from pathlib import Path

from .bench import GridConfig, records_to_csv, run_grid, summarize
from .instances import (InconsistencyError, SchemaError, convert_mining,
                        generalize, parse_instance, parse_mining, to_dict)
from .relaxations import MethodError, parse_method
from .tightening import TighteningError, default_obbt_recipe


@contextlib.contextmanager
def solver_prints_to_stderr():
    """Point fd 1 at stderr inside the block: HiGHS's C++ code prints there,
    below ``sys.stdout``, and would mix its lines into the program's output."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def _load_instances(path: str, do_generalize: bool):
    """(name, instance) of the file at path or of every *.json file in the
    directory path.  An invalid file's error names it, and a directory with
    no such file is a SchemaError too: main exits 2 on either."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    if not files:
        raise SchemaError(f"no instance files (*.json) under {path}")
    out = []
    for f in files:
        try:
            inst = parse_instance(f)
            out.append((f.stem, generalize(inst) if do_generalize else inst))
        except (SchemaError, InconsistencyError) as exc:
            raise type(exc)(f"{f}: {exc}") from exc
    return out


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:   # NaN fails the comparison too
        raise argparse.ArgumentTypeError(f"must be a number of seconds >= 0, not {text}")
    return value


def _penalty(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:   # instances.validate's rule for a penalty
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text}")
    return value


def _existing_path(text: str) -> str:
    if not Path(text).exists():
        raise argparse.ArgumentTypeError(f"no such file or directory: {text!r}")
    return text


def _out_path(text: str) -> str:
    """A file to write once the command is done: checked before any solve,
    so that a bad path does not lose the results."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"is a directory: {text!r}")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"no such directory: {str(path.parent)!r}")
    return text


def _cache_dir(text: str) -> str:
    """A directory that is there or that the recipe can make."""
    path = Path(text)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"not a directory: {str(existing)!r}")
    return text


def _method_labels(text: str) -> list[str]:
    """The labels, split at commas outside parentheses (``Vab(x,r)`` is one
    label), each checked by parse_method, so that a typo or two labels of
    one model (one ``MethodSpec.label()``) stop the run before any solve."""
    labels = [m.strip() for m in re.split(r",(?![^(]*\))", text) if m.strip()]
    try:
        models = [parse_method(label).label() for label in labels]
    except MethodError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    twice = [model for model in models if models.count(model) > 1]
    if twice:
        raise argparse.ArgumentTypeError(f"two labels name the model {twice[0]}")
    return labels


def _cmd_run(args) -> int:
    config = GridConfig(
        instances=_load_instances(args.instances, args.generalize),
        methods=args.methods,
        obbt=args.obbt == "on",
        time_limit_s=args.time_limit,
        threads=args.threads,
        bounds_cache=args.bounds_cache,
    )
    with solver_prints_to_stderr():   # stdout carries nothing but the CSV
        records = run_grid(config)
    csv_text = records_to_csv(records)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    print(summarize(records), file=sys.stderr)
    return 0 if all(not r.status.startswith("error") for r in records) else 1


def _cmd_tighten(args) -> int:
    sched = parse_mining(args.mining)
    inst = convert_mining(sched, default_penalty=args.penalty)
    with solver_prints_to_stderr():   # stdout carries nothing but the JSON
        text = default_obbt_recipe(inst).to_json()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text + "\n")
    return 0


def _cmd_convert(args) -> int:
    sched = parse_mining(args.schedule)
    inst = convert_mining(sched, default_penalty=args.penalty)
    data = to_dict(inst)
    text = json.dumps(data, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poolkit",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an (instance x method) grid")
    run.add_argument("--instances", required=True, type=_existing_path,
                     help="instance JSON file or directory")
    run.add_argument("--methods", required=True, type=_method_labels,
                     help="comma-separated method strings, e.g. 'F1:S,M2:T:H=3'")
    run.add_argument("--obbt", choices=("on", "off"), default="off")
    run.add_argument("--generalize", action="store_true",
                     help="add pool-pool arcs before solving")
    run.add_argument("--time-limit", type=_seconds, default=3600.0,
                     help="seconds for the whole grid, instance by instance")
    run.add_argument("--threads", type=_positive_int, default=1)
    run.add_argument("--bounds-cache", type=_cache_dir,
                     help="directory for cached tightening results, keyed by "
                          "instance content hash and recipe")
    run.add_argument("--out", type=_out_path, help="CSV output path (default: stdout)")
    run.set_defaults(func=_cmd_run)

    tighten = sub.add_parser("tighten", help="the OBBT recipe's bounds for a mining schedule")
    tighten.add_argument("--mining", required=True, type=_existing_path,
                         help="schedule JSON")
    tighten.add_argument("--penalty", type=_penalty, default=1.0,
                         help="default soft-spec penalty weight")
    tighten.add_argument("--out", type=_out_path, help="bounds JSON output path")
    tighten.set_defaults(func=_cmd_tighten)

    conv = sub.add_parser("convert-mining",
                          help="convert a mining schedule to a pooling instance")
    conv.add_argument("schedule", type=_existing_path, help="schedule JSON")
    conv.add_argument("--penalty", type=_penalty, default=1.0)
    conv.add_argument("--out", type=_out_path, help="instance JSON output path")
    conv.set_defaults(func=_cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command; an input file that does not hold a valid instance
    or schedule, or a schedule the recipe cannot tighten (one with no
    feasible plan), exits 2 with one error line, as a bad argument does."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, InconsistencyError, TighteningError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
