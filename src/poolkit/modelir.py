"""Solver-agnostic optimization model container.

A ModelIR holds continuous/binary variables with bounds, sparse linear
rows, an optional list of bilinear product terms x = q*f, and a linear
minimization objective.  Models are built once and treated as immutable;
solvers and the canonical text dump consume them read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


INF = math.inf

# row senses
LE, GE, EQ = "<=", ">=", "=="


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float = 0.0
    ub: float = INF
    binary: bool = False


@dataclass(frozen=True)
class LinRow:
    """One linear constraint: sum(coeffs) sense rhs."""

    name: str
    coeffs: tuple[tuple[str, float], ...]  # (var name, coefficient)
    sense: str
    rhs: float


@dataclass(frozen=True)
class BilinearTerm:
    """Product constraint x = q * f (all three are declared variables)."""

    x: str
    q: str
    f: str


class ModelError(ValueError):
    pass


@dataclass
class ModelIR:
    name: str = "model"
    variables: dict[str, Variable] = field(default_factory=dict)
    rows: list[LinRow] = field(default_factory=list)
    bilinear: list[BilinearTerm] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)
    row_names: set[str] = field(default_factory=set, repr=False)

    # -- construction helpers -------------------------------------------------

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                binary: bool = False) -> str:
        if name in self.variables:
            raise ModelError(f"duplicate variable {name!r}")
        if binary:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if lb > ub:
            raise ModelError(f"variable {name!r} has empty domain [{lb}, {ub}]")
        self.variables[name] = Variable(name, float(lb), float(ub), binary)
        return name

    def add_row(self, name: str, coeffs, sense: str, rhs: float) -> None:
        if sense not in (LE, GE, EQ):
            raise ModelError(f"bad sense {sense!r}")
        if name in self.row_names:
            raise ModelError(f"duplicate row {name!r}")
        if not math.isfinite(rhs):
            raise ModelError(f"row {name!r} has non-finite rhs {rhs}")
        items = tuple(sorted(dict(coeffs).items()))
        for v, _ in items:
            if v not in self.variables:
                raise ModelError(f"row {name!r} references unknown variable {v!r}")
        self.rows.append(LinRow(name, items, sense, float(rhs)))
        self.row_names.add(name)

    def add_range(self, name: str, coeffs, lo: float, hi: float) -> None:
        """lo <= expr <= hi, skipping infinite sides; equality if lo == hi."""
        if lo == hi:
            self.add_row(name, coeffs, EQ, lo)
            return
        if lo > -INF:
            self.add_row(name + ":lo", coeffs, GE, lo)
        if hi < INF:
            self.add_row(name + ":hi", coeffs, LE, hi)

    def add_bilinear(self, x: str, q: str, f: str) -> None:
        for v in (x, q, f):
            if v not in self.variables:
                raise ModelError(f"bilinear term references unknown variable {v!r}")
        self.bilinear.append(BilinearTerm(x, q, f))

    def set_objective(self, coeffs) -> None:
        d = dict(coeffs)
        for v in d:
            if v not in self.variables:
                raise ModelError(f"objective references unknown variable {v!r}")
        self.objective = {v: float(c) for v, c in d.items() if c != 0.0}

    def copy(self, name: str) -> "ModelIR":
        """The same model under ``name``; extending either one leaves the
        other as it was (variables, rows and terms are immutable, so the
        containers alone are copied)."""
        return ModelIR(name, dict(self.variables), list(self.rows),
                       list(self.bilinear), dict(self.objective),
                       set(self.row_names))


# -- canonical dump -----------------------------------------------------------

def _fmt(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return f"{x:.12g}"


def _fmt_expr(coeffs: tuple[tuple[str, float], ...]) -> str:
    return " + ".join(f"{_fmt(c)}*{v}" for v, c in coeffs)


def dump_model(model: ModelIR) -> str:
    """Deterministic, diffable text form: sorted ids, 12 significant digits."""
    lines = [f"model {model.name}"]
    lines.append("minimize")
    obj = sorted(model.objective.items())
    lines.append("  " + (_fmt_expr(tuple(obj)) if obj else "0"))
    lines.append("subject to")
    for row in sorted(model.rows, key=lambda r: r.name):
        lines.append(f"  {row.name}: {_fmt_expr(row.coeffs)} {row.sense} {_fmt(row.rhs)}")
    lines.append("bilinear")
    for t in sorted(model.bilinear, key=lambda t: (t.x, t.q, t.f)):
        lines.append(f"  {t.x} == {t.q} * {t.f}")
    lines.append("vars")
    for name in sorted(model.variables):
        v = model.variables[name]
        kind = " binary" if v.binary else ""
        lines.append(f"  {name} in [{_fmt(v.lb)}, {_fmt(v.ub)}]{kind}")
    return "\n".join(lines) + "\n"

