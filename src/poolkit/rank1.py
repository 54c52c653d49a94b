"""Rank-one bounded-sum sets: membership, extended formulations, cuts, oracles.

The central object is the set of nonnegative m x n matrices whose row sums,
column sums and overall sum lie in given intervals, intersected with the
rank <= 1 condition.  This module provides

  * membership tests for the polyhedral set and the rank condition,
  * the row-wise / column-wise / row-column extended-formulation fragments
    that outer-approximate the convex hull,
  * RLT-generated linear cut families (McCormick and reverse-convex) plus
    conic descriptors used for point-wise validity checking only,
  * an enumeration of the hull pieces used in the exactness argument,
  * brute-force and sampling oracles that are independent of the fragment
    builders and are used to cross-check them in the test suite.

All samplers take an explicit numpy Generator so results are reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

INF = math.inf

ROW_FRACTION = "row-fraction"
COLUMN_FRACTION = "column-fraction"
CELL_FRACTION = "cell-fraction"


class BoxError(ValueError):
    pass


class InfeasiblePointError(ValueError):
    pass


class EmptySampleError(RuntimeError):
    """The sampling grid produced no feasible point (the set itself may or
    may not be empty)."""


@dataclass(frozen=True)
class BoundBox:
    """Sextuple of interval bounds on row sums (l,u), column sums (lp,up)
    and the overall sum (L,U) of a nonnegative m x n matrix."""

    l: tuple[float, ...]
    u: tuple[float, ...]
    lp: tuple[float, ...]
    up: tuple[float, ...]
    L: float
    U: float

    def __post_init__(self):
        if len(self.l) != len(self.u) or len(self.lp) != len(self.up):
            raise BoxError("row/column bound vectors have mismatched lengths")
        for lo, hi in zip(self.l + self.lp + (self.L,), self.u + self.up + (self.U,)):
            if lo < 0 or hi < lo:
                raise BoxError(f"bad interval [{lo}, {hi}]")

    @property
    def m(self) -> int:
        return len(self.l)

    @property
    def n(self) -> int:
        return len(self.lp)

    def arrays(self):
        return (np.asarray(self.l), np.asarray(self.u),
                np.asarray(self.lp), np.asarray(self.up), self.L, self.U)

    def transpose(self) -> "BoundBox":
        return BoundBox(self.lp, self.up, self.l, self.u, self.L, self.U)

    def scale(self) -> float:
        finite = [b for b in self.u + self.up + (self.U,) if math.isfinite(b)]
        return max([1.0] + finite)


def make_box(l, u, lp, up, L, U) -> BoundBox:
    return BoundBox(tuple(float(v) for v in l), tuple(float(v) for v in u),
                    tuple(float(v) for v in lp), tuple(float(v) for v in up),
                    float(L), float(U))


def normalize(box: BoundBox) -> tuple[BoundBox, list[int], list[int]]:
    """Delete zero-u rows and columns; returns (box, kept_rows, kept_cols).

    Deleted rows/columns are forced to zero by their bounds, so a solution
    of the reduced problem re-inflates by inserting zero rows/columns.
    """
    rows = [i for i in range(box.m) if box.u[i] > 0]
    cols = [j for j in range(box.n) if box.up[j] > 0]
    for i in range(box.m):
        if box.u[i] == 0 and box.l[i] > 0:
            raise BoxError(f"row {i} has u=0 but l>0")
    for j in range(box.n):
        if box.up[j] == 0 and box.lp[j] > 0:
            raise BoxError(f"column {j} has u'=0 but l'>0")
    if len(rows) == box.m and len(cols) == box.n:
        return box, rows, cols
    sub = BoundBox(tuple(box.l[i] for i in rows), tuple(box.u[i] for i in rows),
                   tuple(box.lp[j] for j in cols), tuple(box.up[j] for j in cols),
                   box.L, box.U)
    return sub, rows, cols


# -- membership ---------------------------------------------------------------

def membership_T(X, box: BoundBox, tol: float = 1e-9) -> bool:
    """X in the bounded-sum polytope, up to additive tolerance."""
    X = np.asarray(X, dtype=float)
    if X.shape != (box.m, box.n):
        raise BoxError(f"shape {X.shape} does not match box ({box.m}, {box.n})")
    l, u, lp, up, L, U = box.arrays()
    if (X < -tol).any():
        return False
    rs, cs, tot = X.sum(axis=1), X.sum(axis=0), X.sum()
    return bool((rs >= l - tol).all() and (rs <= u + tol).all()
                and (cs >= lp - tol).all() and (cs <= up + tol).all()
                and L - tol <= tot <= U + tol)


def is_rank_le_one(X, tol: float = 1e-7) -> bool:
    """All 2x2 minors vanish relative to the squared sup-norm of X."""
    X = np.asarray(X, dtype=float)
    if X.size == 0 or X.shape[0] == 1 or X.shape[1] == 1:
        return True
    scale = max(1.0, float(np.abs(X).max()) ** 2)
    # minors[i, I, j, J] = x_ij * x_IJ - x_iJ * x_Ij
    minors = np.einsum("ij,IJ->iIjJ", X, X) - np.einsum("iJ,Ij->iIjJ", X, X)
    return bool(np.abs(minors).max() <= tol * scale)


def membership_T_tilde(X, box: BoundBox, tol: float = 1e-9,
                       rank_tol: float = 1e-7) -> bool:
    return membership_T(X, box, tol) and is_rank_le_one(X, rank_tol)


# -- extended-formulation fragments --------------------------------------------

# term keys: ("x", i, j) for the caller's matrix block, ("aux", name) for
# fragment-owned variables.
Term = tuple


@dataclass(frozen=True)
class FragRow:
    name: str
    coeffs: tuple[tuple[Term, float], ...]
    sense: str  # "<=", ">=", "=="
    rhs: float


@dataclass
class ModelFragment:
    """Linear constraints over an m x n block of x-variables plus fresh
    auxiliary fraction variables (all nonnegative)."""

    m: int
    n: int
    aux: list[tuple[str, str]] = field(default_factory=list)  # (name, role)
    rows: list[FragRow] = field(default_factory=list)

    def add_aux(self, name: str, role: str) -> Term:
        self.aux.append((name, role))
        return ("aux", name)

    def add(self, name: str, coeffs: dict, sense: str, rhs: float) -> None:
        self.rows.append(FragRow(name, tuple(coeffs.items()), sense, float(rhs)))

    def aux_names(self) -> list[str]:
        return [name for name, _ in self.aux]


def build_rowwise_extension(box: BoundBox) -> ModelFragment:
    """Hull of the set with row-sum and overall bounds kept (columns relaxed).

    One fraction variable per column; a rank-one point X extends via
    t_j = x_ij / (row sum i) for any nonzero row i.
    """
    m, n = box.m, box.n
    frag = ModelFragment(m, n)
    t = [frag.add_aux(f"t[{j}]", COLUMN_FRACTION) for j in range(n)]
    for i in range(m):
        for j in range(n):
            frag.add(f"cell_lo[{i},{j}]", {("x", i, j): 1.0, t[j]: -box.l[i]}, ">=", 0.0)
            if math.isfinite(box.u[i]):
                frag.add(f"cell_hi[{i},{j}]", {("x", i, j): 1.0, t[j]: -box.u[i]}, "<=", 0.0)
    for j in range(n):
        col = {("x", i, j): 1.0 for i in range(m)}
        frag.add(f"col_lo[{j}]", {**col, t[j]: -box.L}, ">=", 0.0)
        if math.isfinite(box.U):
            frag.add(f"col_hi[{j}]", {**col, t[j]: -box.U}, "<=", 0.0)
    frag.add("simplex", {tj: 1.0 for tj in t}, "==", 1.0)
    return frag


def build_colwise_extension(box: BoundBox) -> ModelFragment:
    """Column-sum analogue of build_rowwise_extension (one variable per row)."""
    m, n = box.m, box.n
    frag = ModelFragment(m, n)
    tp = [frag.add_aux(f"tp[{i}]", ROW_FRACTION) for i in range(m)]
    for i in range(m):
        for j in range(n):
            frag.add(f"cell_lo[{i},{j}]", {("x", i, j): 1.0, tp[i]: -box.lp[j]}, ">=", 0.0)
            if math.isfinite(box.up[j]):
                frag.add(f"cell_hi[{i},{j}]", {("x", i, j): 1.0, tp[i]: -box.up[j]}, "<=", 0.0)
    for i in range(m):
        row = {("x", i, j): 1.0 for j in range(n)}
        frag.add(f"row_lo[{i}]", {**row, tp[i]: -box.L}, ">=", 0.0)
        if math.isfinite(box.U):
            frag.add(f"row_hi[{i}]", {**row, tp[i]: -box.U}, "<=", 0.0)
    frag.add("simplex", {ti: 1.0 for ti in tp}, "==", 1.0)
    return frag


def build_intersection(box: BoundBox) -> ModelFragment:
    """Intersection of the row-wise and column-wise fragments on one block."""
    rw = build_rowwise_extension(box)
    cw = build_colwise_extension(box)
    frag = ModelFragment(box.m, box.n)
    frag.aux = rw.aux + cw.aux  # t[.] and tp[.] never collide

    def relabel(rows, prefix):
        # row names must stay unique; the aux references are shared verbatim
        return [FragRow(f"{prefix}:{row.name}", row.coeffs, row.sense, row.rhs)
                for row in rows]

    frag.rows = relabel(rw.rows, "rw") + relabel(cw.rows, "cw")
    return frag


def build_rowcol_extension(box: BoundBox) -> ModelFragment:
    """Stronger fragment with one cell-fraction variable per entry."""
    m, n = box.m, box.n
    frag = ModelFragment(m, n)
    r = [[frag.add_aux(f"r[{i},{j}]", CELL_FRACTION) for j in range(n)] for i in range(m)]
    for i in range(m):
        for j in range(n):
            colsum = {r[i2][j]: 1.0 for i2 in range(m)}
            rowsum = {r[i][j2]: 1.0 for j2 in range(n)}
            frag.add(f"rowb_lo[{i},{j}]",
                     {("x", i, j): 1.0, **{k: -box.l[i] * v for k, v in colsum.items()}},
                     ">=", 0.0)
            if math.isfinite(box.u[i]):
                frag.add(f"rowb_hi[{i},{j}]",
                         {("x", i, j): 1.0, **{k: -box.u[i] * v for k, v in colsum.items()}},
                         "<=", 0.0)
            frag.add(f"tot_lo[{i},{j}]", {("x", i, j): 1.0, r[i][j]: -box.L}, ">=", 0.0)
            if math.isfinite(box.U):
                frag.add(f"tot_hi[{i},{j}]", {("x", i, j): 1.0, r[i][j]: -box.U}, "<=", 0.0)
            frag.add(f"colb_lo[{i},{j}]",
                     {("x", i, j): 1.0, **{k: -box.lp[j] * v for k, v in rowsum.items()}},
                     ">=", 0.0)
            if math.isfinite(box.up[j]):
                frag.add(f"colb_hi[{i},{j}]",
                         {("x", i, j): 1.0, **{k: -box.up[j] * v for k, v in rowsum.items()}},
                         "<=", 0.0)
    frag.add("simplex", {r[i][j]: 1.0 for i in range(m) for j in range(n)}, "==", 1.0)
    return frag


FRAGMENT_BUILDERS = {
    "rowwise": build_rowwise_extension,
    "colwise": build_colwise_extension,
    "intersection": build_intersection,
    "rowcol": build_rowcol_extension,
}


# -- fragment LP oracle ---------------------------------------------------------

def fragment_lp_value(box: BoundBox, c, kind: str, include_plain: bool = False):
    """min <c, X> over the fragment's polyhedron (x >= 0 plus fragment rows).

    include_plain adds the bounded-sum polytope rows as well, mirroring how
    a fragment rides on the full flow model in the pooling relaxations.
    """
    from .modelir import ModelIR
    from .solver import solve

    c = np.asarray(c, dtype=float)
    model = ModelIR(f"fragment:{kind}")
    for i in range(box.m):
        for j in range(box.n):
            model.add_var(f"x[{i},{j}]")
    if kind == "plain" or include_plain:
        _add_plain_rows(model, box)
    if kind != "plain":
        frag = FRAGMENT_BUILDERS[kind](box)
        attach_fragment(model, frag, lambda i, j: f"x[{i},{j}]", prefix="F")
    model.set_objective({f"x[{i},{j}]": c[i, j]
                         for i in range(box.m) for j in range(box.n)})
    res = solve(model)
    if res.status != "optimal":
        return None
    return res.objective


def _add_plain_rows(model, box: BoundBox) -> None:
    for i in range(box.m):
        row = {f"x[{i},{j}]": 1.0 for j in range(box.n)}
        model.add_range(f"row[{i}]", row, box.l[i], box.u[i])
    for j in range(box.n):
        col = {f"x[{i},{j}]": 1.0 for i in range(box.m)}
        model.add_range(f"col[{j}]", col, box.lp[j], box.up[j])
    model.add_range("total", {f"x[{i},{j}]": 1.0
                              for i in range(box.m) for j in range(box.n)},
                    box.L, box.U)


def attach_fragment(model, frag: ModelFragment, x_name, prefix: str = "F") -> None:
    """Instantiate a fragment into a ModelIR against an existing x block."""
    for name, _role in frag.aux:
        model.add_var(f"{prefix}:{name}")
    for row in frag.rows:
        coeffs = {}
        for term, coeff in row.coeffs:
            if term[0] == "x":
                var = x_name(term[1], term[2])
            else:
                var = f"{prefix}:{term[1]}"
            coeffs[var] = coeffs.get(var, 0.0) + coeff
        model.add_row(f"{prefix}:{row.name}", coeffs, row.sense, row.rhs)


# -- RLT cut generation ----------------------------------------------------------

@dataclass(frozen=True)
class LinearCut:
    """space 'r' cuts reference ("r",i,j) terms, space 'x' cuts ("x",i,j)."""

    name: str
    space: str
    coeffs: tuple[tuple[Term, float], ...]
    sense: str
    rhs: float


@dataclass
class CutSet:
    cuts: list[LinearCut] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _col_sum(space, j, m, w=1.0):
    return {(space, i, j): w for i in range(m)}


def _row_sum(space, i, n, w=1.0):
    return {(space, i, j): w for j in range(n)}


def _total(space, m, n, w=1.0):
    return {(space, i, j): w for i in range(m) for j in range(n)}


def _merge(*parts):
    out: dict = {}
    for p in parts:
        for k, v in p.items():
            out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if v != 0.0}


def gen_rlt_mccormick(box: BoundBox, space: str = "both") -> CutSet:
    """Four McCormick rows per cell: products of the fraction-variable bound
    inequalities, written in r variables and/or pushed to x variables."""
    out = CutSet()
    if box.L <= 0:
        out.notes.append("skipped: L=0")
        return out
    m, n, = box.m, box.n
    l, u, lp, up, L, U = box.arrays()
    if not (np.isfinite(u).all() and np.isfinite(up).all() and math.isfinite(U)):
        out.notes.append("skipped: infinite bound")
        return out
    spaces = ("r", "x") if space == "both" else (space,)
    for sp in spaces:
        for i in range(m):
            for j in range(n):
                cs = _col_sum(sp, j, m)
                rs = _row_sum(sp, i, n)
                combos = [
                    ("ll", ">=", l[i] / U, lp[j] / U, l[i] * lp[j] / U**2),
                    ("lu", "<=", l[i] / U, up[j] / L, l[i] * up[j] / (U * L)),
                    ("ul", "<=", u[i] / L, lp[j] / U, u[i] * lp[j] / (U * L)),
                    ("uu", ">=", u[i] / L, up[j] / L, u[i] * up[j] / L**2),
                ]
                for tag, sense, a, b, const in combos:
                    # r_ij  sense  a*colsum + b*rowsum - const*(1 or total)
                    lhs = _merge({(sp, i, j): 1.0},
                                 {k: -a * v for k, v in cs.items()},
                                 {k: -b * v for k, v in rs.items()})
                    if sp == "r":
                        out.cuts.append(LinearCut(
                            f"Vab:{tag}:r[{i},{j}]", "r",
                            tuple(lhs.items()), sense, -const))
                    else:
                        lhs = _merge(lhs, {k: const * v
                                           for k, v in _total("x", m, n).items()})
                        out.cuts.append(LinearCut(
                            f"Vab:{tag}:x[{i},{j}]", "x",
                            tuple(lhs.items()), sense, 0.0))
    return out


def gen_rlt_reverse_convex(box: BoundBox, space: str = "both") -> CutSet:
    """Linearized reverse-convex rows, one per cell and orientation."""
    out = CutSet()
    if box.L <= 0:
        out.notes.append("skipped: L=0")
        return out
    m, n = box.m, box.n
    l, u, lp, up, L, U = box.arrays()
    if not (np.isfinite(u).all() and np.isfinite(up).all() and math.isfinite(U)):
        out.notes.append("skipped: infinite bound")
        return out
    spaces = ("r", "x") if space == "both" else (space,)

    def emit(sp, orient, i, j, big, small_l, axis_sum, other_sum):
        # row orientation: big=(u_i, u'_j), small_l=l'_j, axis_sum=colsum_j,
        # other_sum=rowsum_i; column orientation is the transpose image.
        u_big, up_big = big
        const = u_big * up_big * small_l / (U * L)
        lhs = _merge({k: (u_big * up_big / L) * v for k, v in axis_sum.items()},
                     {k: (small_l**2 / U) * v for k, v in other_sum.items()},
                     {(sp, i, j): -small_l})
        if sp == "r":
            out.cuts.append(LinearCut(f"Vac:{orient}:r[{i},{j}]", "r",
                                      tuple(lhs.items()), ">=", const))
        else:
            lhs = _merge(lhs, {k: -const * v for k, v in _total("x", m, n).items()})
            out.cuts.append(LinearCut(f"Vac:{orient}:x[{i},{j}]", "x",
                                      tuple(lhs.items()), ">=", 0.0))

    for sp in spaces:
        for i in range(m):
            for j in range(n):
                emit(sp, "row", i, j, (u[i], up[j]), lp[j],
                     _col_sum(sp, j, m), _row_sum(sp, i, n))
                emit(sp, "col", i, j, (up[j], u[i]), l[i],
                     _row_sum(sp, i, n), _col_sum(sp, j, m))
    return out


@dataclass(frozen=True)
class ConicCut:
    """Quadratic-left / linear-right descriptor, for point-wise checks only."""

    name: str
    family: str
    i: int
    j: int

    def violation(self, X, box: BoundBox) -> float:
        """lhs - rhs evaluated at a point of the rank-one set (<= 0 is valid).

        X may be a single (m, n) matrix or a batch (k, m, n).  The row sum,
        column sum and total are matrix-vector products.
        """
        X = np.asarray(X, dtype=float)
        batch = X if X.ndim == 3 else X[None]
        k, m, n = batch.shape
        i, j = self.i, self.j
        li, ui, lpj, upj, U = box.l[i], box.u[i], box.lp[j], box.up[j], box.U
        cs = batch[:, :, j] @ np.ones(m)
        rs = batch[:, i, :] @ np.ones(n)
        tot = batch.reshape(k, -1) @ np.ones(m * n)
        xij = batch[:, i, j]
        if self.family == "cd":
            lhs = li * ui * cs**2 + lpj * upj * rs**2
            rhs = (li * lpj + ui * upj) * xij * tot
        elif self.family == "ac1-row":
            lhs = li * cs**2
            rhs = ((li * lpj / U) * cs - (lpj * upj / U) * rs + upj * xij) * tot
        elif self.family == "ac1-col":
            lhs = lpj * rs**2
            rhs = ((lpj * li / U) * rs - (li * ui / U) * cs + ui * xij) * tot
        else:
            raise ValueError(self.family)
        v = lhs - rhs
        return float(v.max()) if X.ndim == 3 else float(v[0])


def gen_rlt_conic(box: BoundBox) -> CutSet:
    out = CutSet()
    if box.L <= 0:
        out.notes.append("skipped: L=0")
        return out
    cuts = []
    for i in range(box.m):
        for j in range(box.n):
            cuts.append(ConicCut(f"conic:cd[{i},{j}]", "cd", i, j))
            cuts.append(ConicCut(f"conic:ac1-row[{i},{j}]", "ac1-row", i, j))
            cuts.append(ConicCut(f"conic:ac1-col[{i},{j}]", "ac1-col", i, j))
    out.cuts = cuts
    return out


_EVAL_BLOCK = 2048  # points per product in evaluate_linear_cuts


def _violation_rows(cuts: list[LinearCut], space: str, m: int, n: int):
    """Rows A and right-hand sides b of the ``space`` cuts, with each cut's
    sense folded into its sign, so that a point's violations are x @ A.T - b
    (x the flattened point): a '>=' cut is negated, an '==' cut gives both
    signs."""
    rows, rhs = [], []
    for cut in cuts:
        if cut.space != space:
            continue
        a = np.zeros(m * n)
        for (_, i, j), coeff in cut.coeffs:
            a[i * n + j] += coeff
        if cut.sense != ">=":
            rows.append(a)
            rhs.append(cut.rhs)
        if cut.sense != "<=":
            rows.append(-a)
            rhs.append(-cut.rhs)
    return np.array(rows).reshape(len(rows), m * n), np.array(rhs)


def _max_violation(points, A, b) -> float:
    """max over points and rows of points @ A.T - b.  Each row's maximum is
    taken before its rhs is subtracted, which rounds to the same value and
    spares a (cuts x points) pass."""
    return float(((A @ points.T).max(axis=1) - b).max())


def evaluate_linear_cuts(cuts: list[LinearCut], X) -> float:
    """Max violation of the cuts over a batch of rank-one feasible points
    (never below 0).  X may be a single (m, n) matrix or a batch (k, m, n).

    The cuts of each space form one dense coefficient matrix, and the
    violations are one matrix product per space, taken over blocks of at
    most ``_EVAL_BLOCK`` points so the memory stays bounded.  r-space cuts
    are evaluated through r = X / sum(X); points with zero sum are skipped
    for those (the zero matrix satisfies the underlying set).
    """
    X = np.asarray(X, dtype=float)
    batch = X if X.ndim == 3 else X[None]
    k, m, n = batch.shape
    flat = batch.reshape(k, m * n)
    Ax, bx = _violation_rows(cuts, "x", m, n)
    Ar, br = _violation_rows(cuts, "r", m, n)
    ones = np.ones(m * n)
    worst = 0.0
    for start in range(0, k, _EVAL_BLOCK):
        block = flat[start:start + _EVAL_BLOCK]
        if len(bx):
            worst = max(worst, _max_violation(block, Ax, bx))
        if len(br):
            tot = block @ ones
            safe = tot > 0
            if safe.any():
                worst = max(worst, _max_violation(block[safe] / tot[safe, None],
                                                  Ar, br))
    return worst


# -- hull pieces (exactness argument) --------------------------------------------

@dataclass(frozen=True)
class HullPiece:
    pivot: tuple[int, int]
    row_choice: tuple[str, ...]   # "l"/"u" per non-pivot row, "*" at the pivot
    col_choice: tuple[str, ...]
    case: str                     # quadratic-4var | zero-rows | zero-columns
    I: int | None = None
    J: int | None = None
    B: float | None = None
    Bp: float | None = None

    def row_values(self, box: BoundBox) -> list[float | None]:
        return [None if c == "*" else (box.l[i] if c == "l" else box.u[i])
                for i, c in enumerate(self.row_choice)]

    def col_values(self, box: BoundBox) -> list[float | None]:
        return [None if c == "*" else (box.lp[j] if c == "l" else box.up[j])
                for j, c in enumerate(self.col_choice)]


def enumerate_hull_pieces(box: BoundBox, max_cells: int = 16) -> list[HullPiece]:
    m, n = box.m, box.n
    if m * n > max_cells:
        raise BoxError(f"enumeration guard: m*n = {m * n} > {max_cells}")
    pieces = []
    for i in range(m):
        for j in range(n):
            other_rows = [r for r in range(m) if r != i]
            other_cols = [c for c in range(n) if c != j]
            for rsel in itertools.product("lu", repeat=len(other_rows)):
                for csel in itertools.product("lu", repeat=len(other_cols)):
                    row_choice = ["*"] * m
                    col_choice = ["*"] * n
                    bvals, bpvals = {}, {}
                    for r, ch in zip(other_rows, rsel):
                        row_choice[r] = ch
                        bvals[r] = box.l[r] if ch == "l" else box.u[r]
                    for c, ch in zip(other_cols, csel):
                        col_choice[c] = ch
                        bpvals[c] = box.lp[c] if ch == "l" else box.up[c]
                    Is = [r for r in other_rows if bvals[r] > 0]
                    Js = [c for c in other_cols if bpvals[c] > 0]
                    if Is and Js:
                        I, J = Is[0], Js[0]
                        B = sum(bvals[r] for r in other_rows) / bvals[I]
                        Bp = sum(bpvals[c] for c in other_cols) / bpvals[J]
                        piece = HullPiece((i, j), tuple(row_choice),
                                          tuple(col_choice), "quadratic-4var",
                                          I, J, B, Bp)
                    elif not Is:
                        piece = HullPiece((i, j), tuple(row_choice),
                                          tuple(col_choice), "zero-rows")
                    else:
                        piece = HullPiece((i, j), tuple(row_choice),
                                          tuple(col_choice), "zero-columns")
                    pieces.append(piece)
    return pieces


def piece_contains(piece: HullPiece, X, box: BoundBox, tol: float = 1e-7) -> bool:
    """Does the feasible rank-one point X satisfy the piece's sum equalities?"""
    X = np.asarray(X, dtype=float)
    if not membership_T_tilde(X, box, tol, tol):
        return False
    scale = max(1.0, box.scale())
    rs, cs = X.sum(axis=1), X.sum(axis=0)
    for i, b in enumerate(piece.row_values(box)):
        if b is not None and abs(rs[i] - b) > tol * scale:
            return False
    for j, b in enumerate(piece.col_values(box)):
        if b is not None and abs(cs[j] - b) > tol * scale:
            return False
    if piece.case == "zero-rows":
        i = piece.pivot[0]
        others = np.abs(np.delete(X, i, axis=0))
        if others.size and others.max() > tol * scale:
            return False
    if piece.case == "zero-columns":
        j = piece.pivot[1]
        others = np.abs(np.delete(X, j, axis=1))
        if others.size and others.max() > tol * scale:
            return False
    return True


# -- extreme point counting ---------------------------------------------------

def check_extreme_point_property(X, box: BoundBox,
                                 tol: float = 1e-7) -> tuple[int, int]:
    """Counts of rows/columns whose sums are strictly between their bounds.

    Raises InfeasiblePointError when X is not a feasible rank-one point.
    """
    X = np.asarray(X, dtype=float)
    scale = max(1.0, box.scale())
    if not membership_T_tilde(X, box, tol * scale, max(tol, 1e-7)):
        raise InfeasiblePointError("X is not in the rank-one feasible set")
    l, u, lp, up, _, _ = box.arrays()
    rs, cs = X.sum(axis=1), X.sum(axis=0)
    count_row = int(((rs > l + tol * scale) & (rs < u - tol * scale)).sum())
    count_col = int(((cs > lp + tol * scale) & (cs < up - tol * scale)).sum())
    return count_row, count_col


# -- sampling and brute-force oracles -------------------------------------------

def _sigma_window(box: BoundBox) -> tuple[float, float]:
    lo = max(box.L, sum(box.l), sum(box.lp))
    hi = min(box.U, sum(box.u), sum(box.up))
    return lo, hi


def _sample_bounded_simplex(lo: np.ndarray, hi: np.ndarray, count: int,
                            rng: np.random.Generator) -> np.ndarray | None:
    """Uniform-ish samples of {t >= 0 : sum t = 1, lo <= t <= hi} by
    sequential conditional draws; None when the window system is empty."""
    lo = np.minimum(np.maximum(lo, 0.0), 1.0)
    hi = np.minimum(hi, 1.0)
    if lo.sum() > 1 + 1e-12 or hi.sum() < 1 - 1e-12 or (lo > hi + 1e-12).any():
        return None
    out = _simplex_batch(np.tile(lo, (count, 1)), np.tile(hi, (count, 1)), rng)
    return out


def _simplex_batch(lo: np.ndarray, hi: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Vectorized sequential draws on (batch, k) window arrays; callers must
    guarantee the windows are feasible row-wise."""
    batch, k = lo.shape
    out = np.empty((batch, k))
    rem = np.ones(batch)
    tail_lo = np.concatenate([np.cumsum(lo[:, ::-1], axis=1)[:, ::-1][:, 1:],
                              np.zeros((batch, 1))], axis=1)
    tail_hi = np.concatenate([np.cumsum(hi[:, ::-1], axis=1)[:, ::-1][:, 1:],
                              np.zeros((batch, 1))], axis=1)
    for idx in range(k - 1):
        a = np.maximum(lo[:, idx], rem - tail_hi[:, idx])
        b = np.minimum(hi[:, idx], rem - tail_lo[:, idx])
        b = np.maximum(b, a)
        t = a + (b - a) * rng.random(batch)
        out[:, idx] = t
        rem = rem - t
    out[:, k - 1] = rem
    return np.clip(out, 0.0, None)


def sample_rank_one_points(box: BoundBox, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """count exact members of the rank-one feasible set, shape (count, m, n)."""
    lo, hi = _sigma_window(box)
    if lo > hi + 1e-12:
        raise EmptySampleError("total-sum window is empty")
    if hi <= 0:
        return np.zeros((count, box.m, box.n))
    lo = max(lo, 1e-12 * max(1.0, hi))  # rank-one factors need positive mass
    l, u, lp, up, _, _ = box.arrays()
    chunks = []
    need = count
    for _ in range(64):
        k = max(need, 64)
        sigma = lo + (hi - lo) * rng.random(k)
        row_lo = np.clip(l / sigma[:, None], 0.0, 1.0)
        row_hi = np.clip(u / sigma[:, None], 0.0, 1.0)
        col_lo = np.clip(lp / sigma[:, None], 0.0, 1.0)
        col_hi = np.clip(up / sigma[:, None], 0.0, 1.0)
        good = ((row_lo.sum(axis=1) <= 1 + 1e-12) & (row_hi.sum(axis=1) >= 1 - 1e-12)
                & (col_lo.sum(axis=1) <= 1 + 1e-12) & (col_hi.sum(axis=1) >= 1 - 1e-12))
        if good.any():
            tp = _simplex_batch(row_lo[good], row_hi[good], rng)
            t = _simplex_batch(col_lo[good], col_hi[good], rng)
            X = sigma[good, None, None] * tp[:, :, None] * t[:, None, :]
            chunks.append(X)
            need -= X.shape[0]
        if need <= 0:
            break
    if not chunks:
        raise EmptySampleError("no feasible sample found")
    return np.concatenate(chunks, axis=0)[:count]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_force_bound(box: BoundBox, c, grid_density: int = 12) -> float:
    """Best rank-one feasible value of <c, X> over a column-fraction grid.

    z runs over the simplex grid {k/D}; for each z the row-sum vector is
    optimized exactly (linear objective over a box with one budget window),
    so the result is an upper bound on the true minimum over the rank-one
    set and hence on the minimum over its convex hull.
    """
    m, n = box.m, box.n
    if m * n > 9:
        raise BoxError("brute_force_bound guard: m*n > 9")
    c = np.asarray(c, dtype=float)
    l, u, lp, up, L, U = box.arrays()
    best = None
    D = grid_density
    for comp in _compositions(D, n):
        z = np.array(comp, dtype=float) / D
        # budget window for S = sum of row sums
        s_lo, s_hi = L, U
        ok = True
        for j in range(n):
            if z[j] > 0:
                s_lo = max(s_lo, lp[j] / z[j])
                s_hi = min(s_hi, up[j] / z[j])
            elif lp[j] > 0:
                ok = False
                break
        if not ok:
            continue
        s_lo = max(s_lo, l.sum())
        s_hi = min(s_hi, u.sum())
        if s_lo > s_hi + 1e-12:
            continue
        g = c @ z  # per-row unit cost
        y = np.where(g > 0, l, np.minimum(u, s_hi))
        y = np.minimum(np.maximum(y, l), u)
        S = y.sum()
        if S < s_lo - 1e-12:
            for i in np.argsort(g):
                room = u[i] - y[i]
                step = min(room, s_lo - S)
                y[i] += step
                S += step
                if S >= s_lo - 1e-12:
                    break
            if S < s_lo - 1e-12:
                continue
        elif S > s_hi + 1e-12:
            for i in np.argsort(-g):
                room = y[i] - l[i]
                step = min(room, S - s_hi)
                y[i] -= step
                S -= step
                if S <= s_hi + 1e-12:
                    break
            if S > s_hi + 1e-12:
                continue
        val = float(g @ y)
        if best is None or val < best:
            best = val
    if best is None:
        raise EmptySampleError("no feasible grid point (set may still be nonempty)")
    return best


def random_box(rng: np.random.Generator, m: int, n: int,
               positive_lower: bool = False, zero_lower_prob: float = 0.35,
               scale: float = 10.0) -> BoundBox:
    """A nonempty random box built around a random rank-one point."""
    y = rng.uniform(0.2, 1.0, size=m) * scale
    z = rng.uniform(0.2, 1.0, size=n)
    z /= z.sum()
    X0 = np.outer(y, z)
    rs, cs, tot = X0.sum(axis=1), X0.sum(axis=0), X0.sum()

    def interval(v):
        lo = v * rng.uniform(0.3, 0.95)
        hi = v * rng.uniform(1.05, 1.9)
        if not positive_lower and rng.random() < zero_lower_prob:
            lo = 0.0
        return lo, hi

    l, u = zip(*(interval(v) for v in rs))
    lp, up = zip(*(interval(v) for v in cs))
    L, U = interval(tot)
    if positive_lower and L <= 0:
        L = tot * 0.3
    return make_box(l, u, lp, up, L, U)


def grid_vertices(box: BoundBox, density: int = 5, sigma_steps: int = 3,
                  max_points: int = 110) -> tuple[list[np.ndarray], float]:
    """Approximate extreme points of the rank-one set via a product grid and
    convex-combination elimination.

    Returns (vertices, resolution) where resolution bounds the grid spacing
    of the row/column sums; strictness testing should use it as tolerance.
    """
    from .modelir import ModelIR
    from .solver import solve

    lo, hi = _sigma_window(box)
    if lo > hi + 1e-12:
        return [], 0.0
    sigmas = np.linspace(max(lo, 1e-9), hi, sigma_steps) if hi > lo else [hi]
    l, u, lp, up, _, _ = box.arrays()
    pts: list[np.ndarray] = []
    for sigma in sigmas:
        if sigma <= 0:
            continue
        tps = [np.array(cmp, dtype=float) / density
               for cmp in _compositions(density, box.m)]
        ts = [np.array(cmp, dtype=float) / density
              for cmp in _compositions(density, box.n)]
        for tp in tps:
            rsum = sigma * tp
            if (rsum < l - 1e-9).any() or (rsum > u + 1e-9).any():
                continue
            for t in ts:
                csum = sigma * t
                if (csum < lp - 1e-9).any() or (csum > up + 1e-9).any():
                    continue
                pts.append(sigma * np.outer(tp, t))
    if not pts:
        return [], 0.0
    flat = np.array([p.ravel() for p in pts])
    flat = np.unique(np.round(flat, 9), axis=0)
    if len(flat) > max_points:
        idx = np.linspace(0, len(flat) - 1, max_points).astype(int)
        flat = flat[idx]
    sigma_step = (hi - lo) / max(1, sigma_steps - 1) if hi > lo else 0.0
    resolution = sigma_step + hi / density

    vertices = []
    npts = len(flat)
    if npts == 1:
        return [flat[0].reshape(box.m, box.n)], resolution
    for k in range(npts):
        target = flat[k]
        model = ModelIR("convex-combo")
        for p in range(npts):
            if p != k:
                model.add_var(f"lam[{p}]", 0.0, 1.0)
        model.add_row("sum", {f"lam[{p}]": 1.0 for p in range(npts) if p != k},
                      "==", 1.0)
        for d in range(flat.shape[1]):
            model.add_row(f"dim[{d}]",
                          {f"lam[{p}]": float(flat[p][d])
                           for p in range(npts) if p != k and flat[p][d] != 0.0},
                          "==", float(target[d]))
        res = solve(model)
        if res.status == "infeasible":
            vertices.append(target.reshape(box.m, box.n))
    return vertices, resolution
