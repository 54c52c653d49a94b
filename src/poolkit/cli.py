"""Command line interface: benchmark grids, mining conversion and tightening.

    poolkit run --instances DIR --methods "F1:S,F4:S,M2:T:H=3" \
                --obbt on --time-limit 3600 --threads 4 --out results.csv
    poolkit tighten --mining schedule.json --out bounds.json
    poolkit convert-mining schedule.json --out instance.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import GridConfig, records_to_csv, run_grid, summarize
from .instances import (convert_mining, generalize, parse_instance,
                        parse_mining, to_dict)
from .tightening import mining_tighten


def _load_instances(path: str, do_generalize: bool):
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out = []
    for f in files:
        inst = parse_instance(f)
        if do_generalize:
            inst = generalize(inst)
        out.append((f.stem, inst))
    if not out:
        raise SystemExit(f"no instance files under {path}")
    return out


def _cmd_run(args) -> int:
    config = GridConfig(
        instances=_load_instances(args.instances, args.generalize),
        methods=[m.strip() for m in args.methods.split(",") if m.strip()],
        obbt=args.obbt == "on",
        time_limit_s=args.time_limit,
        threads=args.threads,
        obbt_workers=args.obbt_workers,
        bounds_cache=args.bounds_cache,
    )
    # HiGHS's C++ code prints to fd 1: point it at stderr while the grid
    # runs, so that stdout carries nothing but the CSV
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        records = run_grid(config)
    finally:
        os.dup2(saved, 1)
        os.close(saved)
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
    upd = mining_tighten(inst)
    text = upd.to_json()
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
    run.add_argument("--instances", required=True,
                     help="instance JSON file or directory")
    run.add_argument("--methods", required=True,
                     help="comma-separated method strings, e.g. 'F1:S,M2:T:H=3'")
    run.add_argument("--obbt", choices=("on", "off"), default="off")
    run.add_argument("--generalize", action="store_true",
                     help="add pool-pool arcs before solving")
    run.add_argument("--time-limit", type=float, default=3600.0)
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--obbt-workers", type=int, default=8,
                     help="no effect: each OBBT sweep runs in turn on one "
                          "HiGHS session")
    run.add_argument("--bounds-cache",
                     help="directory for cached tightening results, keyed by "
                          "instance content hash and recipe")
    run.add_argument("--out", help="CSV output path (default: stdout)")
    run.set_defaults(func=_cmd_run)

    tighten = sub.add_parser("tighten", help="mining bound tightening")
    tighten.add_argument("--mining", required=True, help="schedule JSON")
    tighten.add_argument("--penalty", type=float, default=1.0,
                         help="default soft-spec penalty weight")
    tighten.add_argument("--out", help="bounds JSON output path")
    tighten.set_defaults(func=_cmd_tighten)

    conv = sub.add_parser("convert-mining",
                          help="convert a mining schedule to a pooling instance")
    conv.add_argument("schedule", help="schedule JSON")
    conv.add_argument("--penalty", type=float, default=1.0)
    conv.add_argument("--out", help="instance JSON output path")
    conv.set_defaults(func=_cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
