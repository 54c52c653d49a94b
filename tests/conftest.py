import math
import pathlib

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import poolkit.solver
from poolkit import parse_instance
from poolkit.solver import SolveParams, SolveResult

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "poolkit" / "data"

# a mining schedule whose converted instance's G2:T:H=3 restriction ends in a
# HiGHS solve error with presolve (HiGHS prints on fd 1 as it fails) and is
# infeasible without it
PRESOLVE_ERROR_SCHEDULE = {
    "stockpiles": ["a"],
    "supplies": [{"stockpile": "a", "time": 1.0, "qty": 5.0, "spec": [1.0, 1.0]},
                 {"stockpile": "a", "time": 2.0, "qty": 1.0, "spec": [1.0, 1.0]},
                 {"stockpile": "a", "time": 3.0, "qty": 2.0, "spec": [3.0, 3.0]}],
    "demands": [{"time": 2.5, "qty": 1.0, "spec_max": [2.3, 1.6], "penalty": [7.0, 7.0]},
                {"time": 3.5, "qty": 2.0, "spec_max": [2.2, 1.6], "penalty": [5.0, 6.0]},
                {"time": 5.5, "qty": 3.0, "spec_max": [1.7, 2.2], "penalty": [2.0, 7.0]},
                {"time": 6.5, "qty": 1.0, "spec_max": [2.3, 1.6], "penalty": [3.0, 7.0]}]}


_MILP_STATUS = {0: "optimal", 1: "time-limit", 2: "infeasible", 3: "unbounded"}


def milp_oracle(cm, params=None, c=None):
    """Solve a CompiledModel once through ``scipy.optimize.milp``, which
    builds its own HiGHS model from the arrays: the reference the package's
    HiGHS binding path is checked against.  Costs are ``c`` if given; the
    status, objective and dual bound follow ``poolkit.solver``'s contract
    (a dual bound at OPTIMAL or from a finite MIP dual bound, a MIP's
    options ``poolkit.solver.MIP_OPTIONS``, read at each call so that a test
    may patch them).  The result carries no point, so a sweep on it skips no
    solve."""
    params = params or SolveParams()
    is_mip = bool(cm.integrality.any())
    options = {"time_limit": float(params.time_limit_s)}
    if is_mip:
        options.update(poolkit.solver.MIP_OPTIONS)
    constraints = None
    if cm.A.shape[0]:
        constraints = LinearConstraint(cm.A, cm.row_lo, cm.row_hi)
    res = milp(c=cm.c if c is None else c, constraints=constraints,
               integrality=cm.integrality, bounds=Bounds(cm.lb, cm.ub),
               options=options)
    status = _MILP_STATUS.get(res.status, "error")
    objective = None if res.x is None else float(res.fun)
    dual = getattr(res, "mip_dual_bound", None) if is_mip else None
    dual = float(dual) if dual is not None and math.isfinite(dual) else None
    if status == "optimal" and dual is None:
        dual = objective
    return SolveResult(status, objective, dual)


def patch_mip_gap(monkeypatch, gap):
    """Make ``gap`` the ``mip_rel_gap`` of every MIP solved, and of every
    MIP ``Session`` made, until the test ends."""
    monkeypatch.setattr(poolkit.solver, "MIP_OPTIONS",
                        {**poolkit.solver.MIP_OPTIONS, "mip_rel_gap": gap})


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def haverly1():
    return parse_instance(DATA / "haverly1.json")


@pytest.fixture(scope="session")
def haverly2():
    return parse_instance(DATA / "haverly2.json")


@pytest.fixture(scope="session")
def haverly3():
    return parse_instance(DATA / "haverly3.json")


@pytest.fixture(scope="session")
def bental4():
    return parse_instance(DATA / "bental4.json")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_schedule(n_sp1=4, n_sp2=4, demands=5, qty=10.0, dqty=12.0):
    """Synthetic two-stockpile schedule used by mining tests."""
    from poolkit.instances import Demand, MiningSchedule, Supply

    supplies = []
    for k in range(n_sp1):
        supplies.append(Supply("sp1", 2 * k + 1, qty, (1.0, 2.0)))
    for k in range(n_sp2):
        supplies.append(Supply("sp2", 2 * k + 2, qty, (2.0, 1.0)))
    total = qty * (n_sp1 + n_sp2)
    dem = []
    for k in range(demands):
        dem.append(Demand(2 * k + 2.5, min(dqty, total / max(demands, 1)),
                          (1.8, 1.8), (5.0, 5.0)))
    return MiningSchedule(("sp1", "sp2"), tuple(supplies), tuple(dem))
