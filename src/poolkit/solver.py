"""LP/MILP solves over ModelIR through scipy's HiGHS interface.

The backend is capability-tagged: HiGHS handles {lp, milp}.  Models that
still carry bilinear terms must go through a relaxation or restriction
first; sending one here raises CapabilityError instead of silently
dropping the nonconvex part.

``solve_compiled`` is the one-shot path (``scipy.optimize.milp``, a fresh
HiGHS model per call).  ``Session`` keeps one compiled model in HiGHS
across many solves that change only the costs (OBBT); it is the only user
of scipy's private ``_highspy`` binding in the package.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core as _highs

from .modelir import GE, INF, LE, ModelIR

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time-limit"
ERROR = "error"


class CapabilityError(RuntimeError):
    """Model requires a capability (e.g. nonconvex) the backend lacks."""


@dataclass
class SolveParams:
    time_limit_s: float = 3600.0      # one-hour default
    rel_gap: float | None = None      # None = 1e-6 for LP-equivalent, 1e-4 for MILP
    threads: int = 1
    seed: int = 0

    def effective_gap(self, is_mip: bool) -> float:
        if self.rel_gap is not None:
            return self.rel_gap
        return 1e-4 if is_mip else 1e-6


class Budget:
    """Wall-clock budget of a whole operation made of several solves.

    ``params.time_limit_s`` is the total: each solve of the operation runs
    with ``params()``, capped at the time that remains, and the operation
    stops starting solves once ``spent`` is true.
    """

    def __init__(self, params: SolveParams | None = None):
        self._params = params or SolveParams()
        self._end = time.perf_counter() + self._params.time_limit_s

    @property
    def spent(self) -> bool:
        return time.perf_counter() >= self._end

    def params(self) -> SolveParams:
        return replace(self._params,
                       time_limit_s=max(self._end - time.perf_counter(), 0.0))


@dataclass
class SolveResult:
    status: str
    objective: float | None
    dual_bound: float | None
    assignment: dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    gap: float | None = None

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE, TIME_LIMIT) and self.objective is not None


@dataclass(frozen=True)
class CompiledModel:
    """ModelIR lowered to scipy arrays; reusable across objective swaps (OBBT)."""

    names: tuple[str, ...]
    index: dict[str, int]
    A: sp.csr_matrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    c: np.ndarray


def compile_model(model: ModelIR) -> CompiledModel:
    names = tuple(sorted(model.variables))
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    lb = np.array([model.variables[v].lb for v in names])
    ub = np.array([model.variables[v].ub for v in names])
    integrality = np.array(
        [1 if model.variables[v].binary else 0 for v in names], dtype=int)

    data, rows_ix, cols_ix = [], [], []
    row_lo = np.empty(len(model.rows))
    row_hi = np.empty(len(model.rows))
    for r, row in enumerate(model.rows):
        for v, c in row.coeffs:
            rows_ix.append(r)
            cols_ix.append(index[v])
            data.append(c)
        if row.sense == LE:
            row_lo[r], row_hi[r] = -INF, row.rhs
        elif row.sense == GE:
            row_lo[r], row_hi[r] = row.rhs, INF
        else:
            row_lo[r] = row_hi[r] = row.rhs
    A = sp.csr_matrix((data, (rows_ix, cols_ix)), shape=(len(model.rows), n))

    c = np.zeros(n)
    for v, coeff in model.objective.items():
        c[index[v]] += coeff
    return CompiledModel(names, index, A, row_lo, row_hi, lb, ub, integrality, c)


def _status_from_highs(res) -> str:
    if res.status == 0:
        return OPTIMAL
    if res.status == 1:  # iteration or time limit
        return TIME_LIMIT
    if res.status == 2:
        return INFEASIBLE
    if res.status == 3:
        return UNBOUNDED
    return ERROR


def _result(cm: CompiledModel, status: str, objective: float | None,
            x, mip_dual: float | None, seconds: float) -> SolveResult:
    """A SolveResult from what HiGHS reported: ``x`` is its point (for a
    MIP stopped by the time limit, the incumbent), or None."""
    assignment: dict[str, float] = {}
    if x is None:
        objective = None
    else:
        objective = float(objective)
        assignment = {nm: float(v) for nm, v in zip(cm.names, x)}
    dual = None
    if cm.integrality.any():
        if mip_dual is not None and math.isfinite(mip_dual):
            dual = float(mip_dual)
    elif objective is not None and status == OPTIMAL:
        dual = objective
    if status == OPTIMAL and dual is None:
        dual = objective
    gap = None
    if objective is not None and dual is not None:
        gap = abs(objective - dual) / max(1.0, abs(objective))
    return SolveResult(status, objective, dual, assignment, seconds, gap)


def solve_compiled(cm: CompiledModel, params: SolveParams | None = None,
                   c_override: np.ndarray | None = None) -> SolveResult:
    params = params or SolveParams()
    is_mip = bool(cm.integrality.any())
    c = cm.c if c_override is None else c_override
    options = {"time_limit": float(params.time_limit_s)}
    if is_mip:
        options["mip_rel_gap"] = params.effective_gap(True)
    t0 = time.perf_counter()
    constraints = None
    if cm.A.shape[0]:
        constraints = LinearConstraint(cm.A, cm.row_lo, cm.row_hi)
    res = milp(c=c, constraints=constraints,
               integrality=cm.integrality,
               bounds=Bounds(cm.lb, cm.ub),
               options=options)
    elapsed = time.perf_counter() - t0
    # on a time limit the incumbent (if any) is still reported in res.x
    return _result(cm, _status_from_highs(res), res.fun, res.x,
                   getattr(res, "mip_dual_bound", None), elapsed)


_MODEL_STATUS = {
    _highs.HighsModelStatus.kOptimal: OPTIMAL,
    _highs.HighsModelStatus.kTimeLimit: TIME_LIMIT,
    _highs.HighsModelStatus.kIterationLimit: TIME_LIMIT,
    _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}
_PRIMAL_SIMPLEX = 4   # HiGHS option simplex_strategy


class Session:
    """One CompiledModel held in HiGHS across many solves that change only
    the cost vector, as OBBT does.

    The model is passed to HiGHS once.  Each ``solve`` sets the costs and
    the time limit and runs again, so an LP starts from the basis of the
    previous solve instead of from scratch.  A MIP is solved afresh each
    time, with the same ``mip_rel_gap`` as ``solve_compiled``.  Results
    follow ``solve_compiled``: an LP has a point and a dual bound only at
    OPTIMAL, a MIP has its incumbent and HiGHS's finite dual bound.  A
    session is not safe to share between threads.
    """

    def __init__(self, cm: CompiledModel):
        self.cm = cm
        self._is_mip = bool(cm.integrality.any())
        n_rows, n_cols = cm.A.shape
        A = cm.A.tocsc()
        lp = _highs.HighsLp()
        lp.num_col_, lp.num_row_ = n_cols, n_rows
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = cm.c, cm.lb, cm.ub
        lp.row_lower_, lp.row_upper_ = cm.row_lo, cm.row_hi
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = n_cols, n_rows
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        if self._is_mip:
            lp.integrality_ = [_highs.HighsVarType(int(k)) for k in cm.integrality]
        self._highs = _highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        if not self._is_mip:
            # a cost change leaves the last basis primal feasible: the
            # primal simplex goes on from it, while the dual simplex would
            # first have to regain dual feasibility
            self._highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        if self._highs.passModel(lp) == _highs.HighsStatus.kError:
            raise ValueError(f"HiGHS rejected the model ({n_rows} rows, {n_cols} columns)")
        self._cols = np.arange(n_cols, dtype=np.int32)

    def solve(self, params: SolveParams | None = None,
              c: np.ndarray | None = None) -> SolveResult:
        """Minimize ``c`` (default: the model's own costs) over the model."""
        params = params or SolveParams()
        h = self._highs
        c = self.cm.c if c is None else c
        h.changeColsCost(len(self._cols), self._cols, c)
        # HiGHS checks time_limit against a run clock that keeps counting
        # over all the runs of one instance
        h.setOptionValue("time_limit", h.getRunTime() + float(params.time_limit_s))
        if self._is_mip:
            h.setOptionValue("mip_rel_gap", params.effective_gap(True))
        t0 = time.perf_counter()
        h.run()
        elapsed = time.perf_counter() - t0
        status = _MODEL_STATUS.get(h.getModelStatus(), ERROR)
        info = h.getInfo()
        objective = info.objective_function_value
        if self._is_mip:
            has_point = status in (OPTIMAL, TIME_LIMIT) and math.isfinite(objective)
        else:
            has_point = status == OPTIMAL
        x = h.getSolution().col_value if has_point else None
        mip_dual = info.mip_dual_bound if self._is_mip and has_point else None
        return _result(self.cm, status, objective, x, mip_dual, elapsed)


class HighsBackend:
    """Default backend adapter: scipy/HiGHS, capabilities {lp, milp}."""

    capabilities = frozenset({"lp", "milp"})

    def solve(self, model: ModelIR, params: SolveParams | None = None) -> SolveResult:
        if model.bilinear:
            raise CapabilityError(
                f"model {model.name!r} has {len(model.bilinear)} bilinear terms; "
                "this backend supports only {lp, milp} - solve a relaxation or "
                "restriction instead")
        return solve_compiled(compile_model(model), params)


_DEFAULT = HighsBackend()


def solve(model: ModelIR, params: SolveParams | None = None,
          backend: HighsBackend | None = None) -> SolveResult:
    return (backend or _DEFAULT).solve(model, params)
