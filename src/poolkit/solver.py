"""LP/MILP solves over ModelIR through scipy's HiGHS.

HiGHS solves LPs and MILPs only.  Models that still carry bilinear terms
must go through a relaxation or restriction first; sending one to ``solve``
raises CapabilityError instead of silently dropping the nonconvex part.

``Session`` holds one compiled model in HiGHS through scipy's private
``_highspy`` binding, the only user of it in the package; its solves may
change the costs, as OBBT does.  ``solve_compiled`` is the one-shot path: an
LP runs on a fresh ``Session``, a MIP through ``scipy.optimize.milp``.

Every MIP, on either path, runs with ``MIP_OPTIONS``: ``mip_rel_gap``
``REL_TOL``, and HiGHS's feasibility-jump heuristic off.  HiGHS 1.12 runs
that heuristic before the root LP of every MIP; on the pooling MILPs it only
ever finds the zero flow, and it costs time on every MILP, with the same
branch-and-bound nodes and bounds without it.  ``scipy.optimize.milp`` hands
the option to HiGHS verbatim but warns that it does not know it; that one
warning is silenced once, here, at import.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core as _highs

from .modelir import GE, INF, LE, ModelIR

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time-limit"
ERROR = "error"
# the relative distance at which a lower and an upper bound meet, and every
# MIP's mip_rel_gap, so that a MIP at OPTIMAL is within it of its optimum
REL_TOL = 1e-4
# the HiGHS options of every MIP, on both paths (see the module docstring)
MIP_OPTIONS = MappingProxyType({
    "mip_rel_gap": REL_TOL,
    "mip_heuristic_run_feasibility_jump": False,
})
# scipy.optimize.milp's warning for the option it does not know, matched
# exactly; ":" is written \x3a so that pytest's colon-separated
# ``filterwarnings`` (pyproject.toml) holds the same pattern
_MILP_WARNING = (r"Unrecognized options detected\x3a "
                 r"\{'mip_heuristic_run_feasibility_jump'\}\. "
                 r"These will be passed to HiGHS verbatim\.$")
# set once, not per call: warnings.catch_warnings is not thread-safe, and
# run_grid solves cells in threads
warnings.filterwarnings("ignore", _MILP_WARNING, RuntimeWarning)


class CapabilityError(RuntimeError):
    """Model requires a capability (e.g. nonconvex) the backend lacks."""


@dataclass
class SolveParams:
    """What a caller sets for a solve: its time limit.  A MIP's HiGHS
    options are no parameter: every MIP, on either path, runs with
    ``MIP_OPTIONS`` (stop at the gap ``REL_TOL``; no feasibility jump, see
    the module docstring)."""
    time_limit_s: float = 3600.0      # one-hour default


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
    seconds: float = 0.0
    # the point as HiGHS reported it, in column order, and the column names
    point: np.ndarray | None = None
    names: tuple[str, ...] = field(default=(), repr=False)
    # HiGHS's simplex iterations (a MIP's over all its LPs) and a MIP's
    # branch-and-bound nodes; None where the path does not report them
    iterations: int | None = None
    nodes: int | None = None
    # a MIP solved a second time: the first run's status (the fields above
    # are the second run's); None where the first run's answer stands
    first_status: str | None = None

    @cached_property
    def assignment(self) -> dict[str, float]:
        """The point by column name ({} without a point), built on first
        read: the OBBT sweep reads only ``point``."""
        if self.point is None:
            return {}
        return dict(zip(self.names, self.point.tolist()))


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

    # each row's coefficients are sorted by name and unique, so they are
    # already a CSR row: its column indices ascend
    rows = model.rows
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    indptr[1:] = np.cumsum([len(row.coeffs) for row in rows])
    nnz = int(indptr[-1])
    indices = np.fromiter((index[v] for row in rows for v, _ in row.coeffs),
                          dtype=np.int32, count=nnz)
    data = np.fromiter((c for row in rows for _, c in row.coeffs),
                       dtype=float, count=nnz)
    A = sp.csr_matrix((data, indices, indptr), shape=(len(rows), n))
    senses = np.array([row.sense for row in rows], dtype=str)
    rhs = np.array([row.rhs for row in rows], dtype=float)
    row_lo = np.where(senses == LE, -INF, rhs)
    row_hi = np.where(senses == GE, INF, rhs)

    c = np.zeros(n)
    for v, coeff in model.objective.items():
        c[index[v]] += coeff
    return CompiledModel(names, index, A, row_lo, row_hi, lb, ub, integrality, c)


# scipy.optimize.milp's status codes; 1 is an iteration or time limit
_MILP_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


def _result(cm: CompiledModel, status: str, objective: float | None,
            x, mip_dual: float | None, seconds: float,
            iterations: int | None = None, nodes: int | None = None,
            first_status: str | None = None) -> SolveResult:
    """A SolveResult from what HiGHS reported: ``x`` is its point (for a
    MIP stopped by the time limit, the incumbent), or None; ``mip_dual`` is
    a MIP's dual bound, or None."""
    point = None
    if x is None:
        objective = None
    else:
        objective = float(objective)
        point = np.asarray(x, dtype=float)
    dual = objective if status == OPTIMAL else None
    if mip_dual is not None and math.isfinite(mip_dual):
        dual = float(mip_dual)
    return SolveResult(status, objective, dual, seconds, point, cm.names,
                       iterations, nodes, first_status)


def solve_compiled(cm: CompiledModel, params: SolveParams | None = None) -> SolveResult:
    """Solve ``cm`` once.  A MIP goes to ``scipy.optimize.milp`` with
    ``MIP_OPTIONS``.  One that ends in a solve error is solved once more
    with presolve off, within the time left of the call, and that second
    answer is returned with ``first_status`` ``error``: HiGHS's presolve can
    fail on a model that solves without it."""
    if not cm.integrality.any():
        session = Session(cm)
        # a solve from scratch is faster with HiGHS's default, the dual simplex
        session._highs.setOptionValue("simplex_strategy", _DUAL_SIMPLEX)
        return session.solve(params)
    params = params or SolveParams()
    t0 = time.perf_counter()
    constraints = None
    if cm.A.shape[0]:
        constraints = LinearConstraint(cm.A, cm.row_lo, cm.row_hi)

    def run(time_limit: float, **options):
        return milp(c=cm.c, constraints=constraints,
                    integrality=cm.integrality,
                    bounds=Bounds(cm.lb, cm.ub),
                    options={"time_limit": time_limit, **MIP_OPTIONS, **options})

    res = run(float(params.time_limit_s))
    first_status = None
    if res.status not in _MILP_STATUS:
        first_status = ERROR
        res = run(max(t0 + params.time_limit_s - time.perf_counter(), 0.0), presolve=False)
    elapsed = time.perf_counter() - t0
    # on a time limit the incumbent (if any) is still reported in res.x
    return _result(cm, _MILP_STATUS.get(res.status, ERROR), res.fun, res.x,
                   getattr(res, "mip_dual_bound", None), elapsed,
                   nodes=getattr(res, "mip_node_count", None),
                   first_status=first_status)


_MODEL_STATUS = {
    _highs.HighsModelStatus.kOptimal: OPTIMAL,
    _highs.HighsModelStatus.kTimeLimit: TIME_LIMIT,
    _highs.HighsModelStatus.kIterationLimit: TIME_LIMIT,
    _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}
_DUAL_SIMPLEX, _PRIMAL_SIMPLEX = 1, 4   # HiGHS option simplex_strategy
_ROWWISE = int(_highs.MatrixFormat.kRowwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)


class Session:
    """One CompiledModel held in HiGHS across many solves that change only
    the cost vector, as OBBT does; ``solve_compiled`` runs every LP on a
    fresh one, set back to the dual simplex for its single solve.

    The model is passed to HiGHS once.  Each ``solve`` sets the costs and
    the time limit and runs again, so an LP starts from the basis of the
    previous solve instead of from scratch.  A MIP session gets
    ``MIP_OPTIONS`` once, as ``scipy.optimize.milp`` gets them in
    ``solve_compiled``, and solves the MIP afresh each time; like there a
    MIP that ends in a solve error is run once more with presolve off,
    within the time left of the call, and keeps ``first_status`` ``error``.
    An LP has a point and a dual bound only at OPTIMAL; a MIP has its
    incumbent and HiGHS's finite dual bound.  A session is not safe to
    share between threads.
    """

    def __init__(self, cm: CompiledModel):
        self.cm = cm
        self._is_mip = bool(cm.integrality.any())
        n_rows, n_cols = cm.A.shape
        self._highs = _highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        if self._is_mip:
            for name, value in MIP_OPTIONS.items():
                self._highs.setOptionValue(name, value)
        else:
            # a cost change leaves the last basis primal feasible: the
            # primal simplex goes on from it, while the dual simplex would
            # first have to regain dual feasibility
            self._highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        # the array overload takes the CSR arrays whole, where filling a
        # HighsLp field by field converts them element by element; it
        # needs one integrality entry per column (an empty array is an error)
        status = self._highs.passModel(
            n_cols, n_rows, cm.A.nnz, _ROWWISE, _MINIMIZE, 0.0,
            cm.c, cm.lb, cm.ub, cm.row_lo, cm.row_hi,
            cm.A.indptr, cm.A.indices, cm.A.data,
            cm.integrality.astype(np.int32))
        if status == _highs.HighsStatus.kError:
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
        t0 = time.perf_counter()
        h.run()
        status = _MODEL_STATUS.get(h.getModelStatus(), ERROR)
        first_status = None
        if self._is_mip and status == ERROR:
            first_status = ERROR
            left = t0 + params.time_limit_s - time.perf_counter()
            h.setOptionValue("time_limit", h.getRunTime() + max(left, 0.0))
            h.setOptionValue("presolve", "off")
            h.run()
            h.setOptionValue("presolve", "choose")
            status = _MODEL_STATUS.get(h.getModelStatus(), ERROR)
        elapsed = time.perf_counter() - t0
        info = h.getInfo()
        objective = info.objective_function_value
        if self._is_mip:
            has_point = status in (OPTIMAL, TIME_LIMIT) and math.isfinite(objective)
        else:
            has_point = status == OPTIMAL
        x = h.getSolution().col_value if has_point else None
        mip_dual = info.mip_dual_bound if self._is_mip and has_point else None
        return _result(self.cm, status, objective, x, mip_dual, elapsed,
                       info.simplex_iteration_count,
                       info.mip_node_count if self._is_mip else None,
                       first_status)


def solve(model: ModelIR, params: SolveParams | None = None) -> SolveResult:
    """Solve an LP or MILP through ``solve_compiled``; a model that still has
    bilinear terms raises ``CapabilityError``."""
    if model.bilinear:
        raise CapabilityError(
            f"model {model.name!r} has {len(model.bilinear)} bilinear terms; "
            "HiGHS supports only {lp, milp} - solve a relaxation or "
            "restriction instead")
    return solve_compiled(compile_model(model), params)
