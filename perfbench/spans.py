"""Spans around the package's public functions, recorded from outside.

A Tracer replaces a function at every place the package binds it: module
attributes (``bench`` and ``tightening`` import ``solve_compiled``,
``build_method`` and the rest by name), module-level dicts such as
``rank1.FRAGMENT_BUILDERS``, and class attributes.  Each call becomes a span
with its name, start, end and parent; spans stay in memory until the caller
asks for them.  A span's self time is its duration minus the time its child
spans cover.

A probe span (the ``highs.*`` spans around ``scipy.optimize.milp``) records
time spent outside the package; it does not reduce its parent's self time,
so ``solver.lp_s - highs.lp_s`` is the per-solve overhead of the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


def _is_mip(integrality) -> bool:
    return integrality is not None and bool(integrality.any())


def _count_model(counts, args, kwargs, cm):
    counts["solver.vars"] += cm.A.shape[1]
    counts["solver.rows"] += cm.A.shape[0]
    counts["solver.nnz"] += cm.A.nnz
    counts["solver.binaries"] += int(cm.integrality.sum())


def _count_solve(counts, args, kwargs, res):
    if res.status == "time-limit":
        counts["solver.time_limit_solves"] += 1


def _count_highs(counts, args, kwargs, res):
    nodes = getattr(res, "mip_node_count", None)
    if _is_mip(kwargs.get("integrality")) and nodes is not None:
        counts["highs.mip_nodes"] += int(nodes)


def _count_sweep(counts, args, kwargs, upd):
    counts["tightening.targets"] += len(upd.provenance)
    counts["tightening.tightened"] += sum(
        1 for tag in upd.provenance.values() if tag != "unchanged")


def _count_points(counts, args, kwargs, X):
    counts["rank1.points"] += X.shape[0]


def _count_cuts(counts, args, kwargs, cut_set):
    counts["rank1.cuts"] += len(cut_set.cuts)


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner`` is a module, or ``module:Class``."""

    span: str | Callable
    owner: str
    attr: str
    count: Callable | None = None
    probe: bool = False


def _solve_span(args, kwargs):
    return "solver.milp" if _is_mip(args[0].integrality) else "solver.lp"


def _highs_span(args, kwargs):
    return "highs.milp" if _is_mip(kwargs.get("integrality")) else "highs.lp"


TARGETS = (
    Target("instances.parse", "poolkit.instances", "parse_instance"),
    Target("formulations.backbone", "poolkit.formulations", "build_backbone"),
    Target("rank1.fragment", "poolkit.rank1", "build_rowwise_extension"),
    Target("rank1.fragment", "poolkit.rank1", "build_colwise_extension"),
    Target("rank1.fragment", "poolkit.rank1", "build_intersection"),
    Target("rank1.fragment", "poolkit.rank1", "build_rowcol_extension"),
    Target("relaxations.build", "poolkit.relaxations", "build_method"),
    Target("solver.compile", "poolkit.solver", "compile_model", _count_model),
    Target(_solve_span, "poolkit.solver", "solve_compiled", _count_solve),
    Target(_highs_span, "poolkit.solver", "milp", _count_highs, probe=True),
    Target("tightening.obbt", "poolkit.tightening", "obbt", _count_sweep),
    Target("tightening.recipe", "poolkit.tightening", "default_obbt_recipe"),
    Target("tightening.apply_bounds", "poolkit.tightening", "apply_bounds"),
    Target("bench.exact_value", "poolkit.bench", "exact_value"),
    Target("bench.run_cell", "poolkit.bench", "run_cell"),
    Target("bench.csv", "poolkit.bench", "records_to_csv"),
    Target("bench.csv", "poolkit.bench", "summarize"),
    Target("rank1.sample", "poolkit.rank1", "sample_rank_one_points", _count_points),
    Target("rank1.cut_gen", "poolkit.rank1", "gen_rlt_mccormick", _count_cuts),
    Target("rank1.cut_gen", "poolkit.rank1", "gen_rlt_reverse_convex", _count_cuts),
    Target("rank1.cut_gen", "poolkit.rank1", "gen_rlt_conic", _count_cuts),
    Target("rank1.linear_eval", "poolkit.rank1", "evaluate_linear_cuts"),
    Target("rank1.conic_eval", "poolkit.rank1:ConicCut", "violation"),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "poolkit" or name.startswith("poolkit."))]


class Tracer:
    """Wraps the functions of ``TARGETS`` (or those whose span name is in
    ``only``) while installed; use it as a context manager.

    The results of calls to the functions named in ``keep`` are kept, with
    their arguments, in ``kept[span name]``."""

    def __init__(self, only: set[str] | None = None, keep: set[str] = frozenset()):
        self.targets = [t for t in TARGETS
                        if only is None or (isinstance(t.span, str) and t.span in only)]
        self.keep = keep
        self.spans: list[list] = []      # [name, start, end, parent, probe]
        self.counts: Counter = Counter()
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        for target in self.targets:
            module_name, _, cls_name = target.owner.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            orig = getattr(owner, target.attr)
            wrapper = self._wrap(target, orig)
            if cls_name:
                self._set(owner, target.attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, key, wrapper)
                    elif isinstance(value, dict) and key != "__builtins__":
                        for k, v in list(value.items()):
                            if v is orig:
                                self._undo.append(("item", value, k, v))
                                value[k] = wrapper
        return self

    def __exit__(self, *exc) -> None:
        for kind, obj, key, old in reversed(self._undo):
            if kind == "item":
                obj[key] = old
            else:
                setattr(obj, key, old)
        self._undo.clear()

    def _set(self, obj, key, value) -> None:
        self._undo.append(("attr", obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def _wrap(self, target: Target, orig):
        spans, stack, counts = self.spans, self._stack, self.counts
        fixed = target.span if isinstance(target.span, str) else None
        keep = fixed in self.keep

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            name = fixed or target.span(args, kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, target.probe])
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if target.count is not None:
                target.count(counts, args, kwargs, result)
            if keep:
                self.kept[name].append((args, result))
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, probe in self.spans:
            if parent is not None and not probe:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[idx]
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def write(self, path) -> None:
        """The spans as JSON lines, start and end relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for idx, (name, start, end, parent, probe) in enumerate(self.spans):
                f.write(json.dumps({"id": idx, "name": name, "parent": parent,
                                    "start": start - t0, "end": end - t0,
                                    "probe": probe}) + "\n")
