"""Rank-one bounded-sum sets: membership, extended formulations, cuts, oracles.

The central object is the set of nonnegative m x n matrices whose row sums,
column sums and overall sum lie in given intervals, intersected with the
rank <= 1 condition.  This module provides

  * membership tests for the polyhedral set and the rank condition,
  * the row-wise / column-wise / row-column extended-formulation fragments
    that outer-approximate the convex hull: one builder serves both
    orientations, and one writer, ``_bound_rows``, writes every bound row
    (a lower row only for a positive bound, an upper one only for a finite),
  * RLT-generated linear cut families (McCormick and reverse-convex) plus
    conic descriptors used for point-wise validity checking only,
  * ``hull_bound``, the exact minimum of a linear cost over the set with a
    witness point, in closed form on all the hull pieces at once,
  * a sampler of the set; with ``hull_bound`` it is independent of the
    fragment builders and cross-checks them in the test suite.

It imports nothing else of the package and solves nothing: the LP or MIP
value of a method on a box is ``relaxations.block_value``, which solves the
box as a one-pool instance through the builder of every other model.

All samplers take an explicit numpy Generator so results are reproducible.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

INF = math.inf


class BoxError(ValueError):
    pass


class InfeasiblePointError(ValueError):
    pass


class EmptySampleError(RuntimeError):
    """No feasible point was found.  From ``hull_bound`` the set is empty;
    the sampler also gives up when its draws miss a nonempty set."""


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
            if not 0 <= lo <= hi or lo == INF:  # a NaN end fails the chain
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

    Deleted rows/columns are forced to zero by their bounds (a BoundBox has
    0 <= l <= u), so a solution of the reduced problem re-inflates by
    inserting zero rows/columns.
    """
    rows = [i for i in range(box.m) if box.u[i] > 0]
    cols = [j for j in range(box.n) if box.up[j] > 0]
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


def rank_residual(X) -> float:
    """The largest 2x2 minor of X over max(1, squared sup-norm of X); 0 when
    X has no 2x2 minor."""
    X = np.asarray(X, dtype=float)
    if X.size == 0 or X.shape[0] == 1 or X.shape[1] == 1:
        return 0.0
    scale = max(1.0, float(np.abs(X).max()) ** 2)
    # minors[i, I, j, J] = x_ij * x_IJ - x_iJ * x_Ij
    minors = np.einsum("ij,IJ->iIjJ", X, X) - np.einsum("iJ,Ij->iIjJ", X, X)
    return float(np.abs(minors).max()) / scale


def is_rank_le_one(X, tol: float = 1e-7) -> bool:
    """All 2x2 minors vanish relative to the squared sup-norm of X."""
    return rank_residual(X) <= tol


def membership_T_tilde(X, box: BoundBox, tol: float = 1e-9,
                       rank_tol: float = 1e-7) -> bool:
    return membership_T(X, box, tol) and is_rank_le_one(X, rank_tol)


# -- rows over one block --------------------------------------------------------

# A term is one variable of a block: ("x", i, j) the caller's matrix cell,
# ("t", j), ("tp", i) and ("r", i, j) the column, row and cell fractions.
# The fragments own the fractions; the RLT cuts act on x or on r.
Term = tuple


@dataclass(frozen=True)
class LinearCut:
    """One linear row over a block's terms: a fragment row or a cut."""

    name: str
    coeffs: tuple[tuple[Term, float], ...]
    sense: str  # "<=", ">=", "=="
    rhs: float


def _term_var(term: Term, x_name, prefix: str) -> str:
    """The model variable of a term: x cells through x_name(i, j), every
    other term prefix:fam[idx]."""
    if term[0] == "x":
        return x_name(term[1], term[2])
    return f"{prefix}:{term[0]}[{','.join(map(str, term[1:]))}]"


def add_rows(model, rows, x_name, prefix: str) -> None:
    """Write rows over a block's terms into a ModelIR, named under prefix."""
    names: dict[Term, str] = {}  # one name format per term, not per coefficient
    for row in rows:
        coeffs: dict[str, float] = {}
        for term, coeff in row.coeffs:
            var = names.get(term)
            if var is None:
                var = names[term] = _term_var(term, x_name, prefix)
            coeffs[var] = coeffs.get(var, 0.0) + coeff
        model.add_row(f"{prefix}:{row.name}", coeffs, row.sense, row.rhs)


def relabel(rows, prefix: str) -> list:
    """The rows renamed under prefix, so that the rows of two fragments on
    one block keep unique names; their terms are shared verbatim."""
    return [LinearCut(f"{prefix}:{row.name}", row.coeffs, row.sense, row.rhs)
            for row in rows]


def _col_sum(space, j, m, w=1.0):
    return {(space, i, j): w for i in range(m)}


def _row_sum(space, i, n, w=1.0):
    return {(space, i, j): w for j in range(n)}


def _total(space, m, n, w=1.0):
    return {(space, i, j): w for i in range(m) for j in range(n)}


# -- extended-formulation fragments --------------------------------------------

def _bound_rows(name: str, idx, lhs, line, lo: float, hi: float):
    """lo * sum(line) <= sum(lhs) <= hi * sum(line), over two disjoint
    iterables of terms, as the rows name_lo[idx] and name_hi[idx].  A lower
    row is yielded only for a positive bound, an upper row only for a
    finite one: at a zero bound the lower row reads sum(lhs) >= 0, which
    the nonnegative terms already say."""
    head = tuple((t, 1.0) for t in lhs)
    if lo > 0:
        yield LinearCut(f"{name}_lo[{idx}]", head + tuple((t, -lo) for t in line), ">=", 0.0)
    if math.isfinite(hi):
        yield LinearCut(f"{name}_hi[{idx}]", head + tuple((t, -hi) for t in line), "<=", 0.0)


def _line_extension(box: BoundBox, rowwise: bool) -> list[LinearCut]:
    """The row-wise fragment, or with rowwise False its transpose image, the
    column-wise one; either writes its cells row by row."""
    m, n = box.m, box.n
    fam, lo, hi, sums, lines = (("t", box.l, box.u, "col", n) if rowwise
                                else ("tp", box.lp, box.up, "row", m))
    frag: list[LinearCut] = []
    for i in range(m):
        for j in range(n):
            k, b = (j, i) if rowwise else (i, j)  # the cell's fraction and kept sum
            frag += _bound_rows("cell", f"{i},{j}", [("x", i, j)], [(fam, k)], lo[b], hi[b])
    for k in range(lines):
        cells = _col_sum("x", k, m) if rowwise else _row_sum("x", k, n)
        frag += _bound_rows(sums, k, cells, [(fam, k)], box.L, box.U)
    frag.append(LinearCut("simplex", tuple(((fam, k), 1.0) for k in range(lines)), "==", 1.0))
    return frag


def build_rowwise_extension(box: BoundBox) -> list[LinearCut]:
    """Hull of the set with row-sum and overall bounds kept (columns relaxed).

    One fraction variable per column; a rank-one point X extends via
    t_j = x_ij / (row sum i) for any nonzero row i.
    """
    return _line_extension(box, rowwise=True)


def build_colwise_extension(box: BoundBox) -> list[LinearCut]:
    """Column-sum analogue of build_rowwise_extension (one variable per row)."""
    return _line_extension(box, rowwise=False)


def build_intersection(box: BoundBox) -> list[LinearCut]:
    """Intersection of the row-wise and column-wise fragments on one block."""
    # t[.] and tp[.] never collide
    return (relabel(build_rowwise_extension(box), "rw")
            + relabel(build_colwise_extension(box), "cw"))


def build_rowcol_extension(box: BoundBox) -> list[LinearCut]:
    """Stronger fragment with one cell-fraction variable per entry: each cell
    is bounded by its row's bounds times its column's fractions (rowb), by
    the overall bounds times its own fraction (tot) and by its column's
    bounds times its row's fractions (colb)."""
    m, n = box.m, box.n
    frag: list[LinearCut] = []
    cols = [[("r", i, j) for i in range(m)] for j in range(n)]
    rows = [[("r", i, j) for j in range(n)] for i in range(m)]
    for i in range(m):
        for j in range(n):
            idx, x = f"{i},{j}", [("x", i, j)]
            frag += _bound_rows("rowb", idx, x, cols[j], box.l[i], box.u[i])
            frag += _bound_rows("tot", idx, x, [("r", i, j)], box.L, box.U)
            frag += _bound_rows("colb", idx, x, rows[i], box.lp[j], box.up[j])
    frag.append(LinearCut("simplex", tuple(_total("r", m, n).items()), "==", 1.0))
    return frag


def attach_fragment(model, frag: list[LinearCut], x_name, prefix: str = "F") -> None:
    """Instantiate a fragment, a list of rows over an x block's cells and
    fresh nonnegative fractions, into a ModelIR against an existing x block:
    declare each fraction its rows name (every term but an x cell; each is
    in the fragment's simplex row), then write the rows."""
    for term in dict.fromkeys(t for row in frag for t, _ in row.coeffs if t[0] != "x"):
        model.add_var(_term_var(term, x_name, prefix))
    add_rows(model, frag, x_name, prefix)


# -- RLT cut generation ----------------------------------------------------------

@dataclass
class CutSet:
    cuts: list[LinearCut] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _merge(*parts):
    out: dict = {}
    for p in parts:
        for k, v in p.items():
            out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if v != 0.0}


def rlt_guard(box: BoundBox, bounded: bool = True) -> CutSet | None:
    """An empty CutSet that says why, for a box the cuts are not defined on:
    they divide by L, and when bounded the RLT rows also need finite u, u'
    and U."""
    if box.L <= 0:
        return CutSet(notes=["skipped: L=0"])
    if bounded and not all(math.isfinite(b) for b in box.u + box.up + (box.U,)):
        return CutSet(notes=["skipped: infinite bound"])
    return None


def _in_spaces(r_cuts: list[LinearCut], space: str, m: int, n: int) -> CutSet:
    """The r-space cuts, their x-images, or both (r first).  A point's r is
    x / total, so the x-image of  lhs(r) sense rhs  is
    lhs(x) - rhs * total  sense  0."""
    out = CutSet(list(r_cuts) if space != "x" else [])
    if space != "r":
        for cut in r_cuts:
            lhs = _merge({("x", *term[1:]): v for term, v in cut.coeffs},
                         _total("x", m, n, -cut.rhs))
            out.cuts.append(LinearCut(cut.name.replace(":r[", ":x["),
                                      tuple(lhs.items()), cut.sense, 0.0))
    return out


def gen_rlt_mccormick(box: BoundBox, space: str = "both") -> CutSet:
    """Four McCormick rows per cell: products of the fraction-variable bound
    inequalities, written in r variables and/or pushed to x variables."""
    skipped = rlt_guard(box)
    if skipped is not None:
        return skipped
    m, n, = box.m, box.n
    l, u, lp, up, L, U = box.arrays()
    r_cuts = []
    for i in range(m):
        for j in range(n):
            combos = [
                ("ll", ">=", l[i] / U, lp[j] / U, l[i] * lp[j] / U**2),
                ("lu", "<=", l[i] / U, up[j] / L, l[i] * up[j] / (U * L)),
                ("ul", "<=", u[i] / L, lp[j] / U, u[i] * lp[j] / (U * L)),
                ("uu", ">=", u[i] / L, up[j] / L, u[i] * up[j] / L**2),
            ]
            for tag, sense, a, b, const in combos:
                # r_ij  sense  a*colsum + b*rowsum - const
                lhs = _merge({("r", i, j): 1.0}, _col_sum("r", j, m, -a),
                             _row_sum("r", i, n, -b))
                r_cuts.append(LinearCut(f"Vab:{tag}:r[{i},{j}]",
                                        tuple(lhs.items()), sense, -const))
    return _in_spaces(r_cuts, space, m, n)


def gen_rlt_reverse_convex(box: BoundBox, space: str = "both") -> CutSet:
    """Linearized reverse-convex rows, one per cell and orientation."""
    skipped = rlt_guard(box)
    if skipped is not None:
        return skipped
    m, n = box.m, box.n
    l, u, lp, up, L, U = box.arrays()
    r_cuts = []

    def emit(orient, i, j, big, small_l, axis_sum, other_sum):
        # row orientation: big = u_i u'_j, small_l = l'_j, axis_sum = colsum_j,
        # other_sum = rowsum_i; column orientation is the transpose image.
        const = big * small_l / (U * L)
        lhs = _merge({k: (big / L) * v for k, v in axis_sum.items()},
                     {k: (small_l**2 / U) * v for k, v in other_sum.items()},
                     {("r", i, j): -small_l})
        r_cuts.append(LinearCut(f"Vac:{orient}:r[{i},{j}]",
                                tuple(lhs.items()), ">=", const))

    for i in range(m):
        for j in range(n):
            emit("row", i, j, u[i] * up[j], lp[j], _col_sum("r", j, m), _row_sum("r", i, n))
            emit("col", i, j, up[j] * u[i], l[i], _row_sum("r", i, n), _col_sum("r", j, m))
    return _in_spaces(r_cuts, space, m, n)


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
        column sum and total are sums over the leading axes of the points
        (m, n, k), long rows when the point index is fastest in memory, as
        the sampler lays it out; evaluate_conic_cuts takes them once for all
        of a box's cuts.
        """
        P = _point_fastest(X)
        i, j = self.i, self.j
        return float(_conic_value(self, box, P[:, j].sum(axis=0), P[i].sum(axis=0),
                                  P.sum(axis=(0, 1)), P[i, j]).max())


def _point_fastest(X) -> np.ndarray:
    """A point (m, n) or a batch (k, m, n) as the points (m, n, k), a view
    whose last axis is the point index: C-contiguous for a batch from the
    sampler, so a sum over the leading axes runs along rows of k points."""
    X = np.asarray(X, dtype=float)
    return (X if X.ndim == 3 else X[None]).transpose(1, 2, 0)


def _conic_value(cut: ConicCut, box: BoundBox, cs, rs, tot, xij):
    """lhs - rhs of a conic cut at points with column sum ``cs`` (column
    cut.j), row sum ``rs`` (row cut.i), total ``tot`` and cell ``xij``."""
    i, j = cut.i, cut.j
    li, ui, lpj, upj, U = box.l[i], box.u[i], box.lp[j], box.up[j], box.U
    if cut.family == "cd":
        lhs = li * ui * cs**2 + lpj * upj * rs**2
        rhs = (li * lpj + ui * upj) * xij * tot
    elif cut.family in ("ac1-row", "ac1-col"):  # ac1-col: rows and columns swapped
        a, s, b, bu, bs = ((li, cs, lpj, upj, rs) if cut.family == "ac1-row"
                           else (lpj, rs, li, ui, cs))
        lhs = a * s**2
        rhs = ((a * b / U) * s - (b * bu / U) * bs + bu * xij) * tot
    else:
        raise ValueError(cut.family)
    return lhs - rhs


def evaluate_conic_cuts(cuts: list[ConicCut], X, box: BoundBox) -> list[float]:
    """Each cut's maximum of lhs - rhs over a batch of points (k, m, n), or
    at a single (m, n) matrix: what ``ConicCut.violation`` gives cut by cut,
    with the batch's row sums, column sums and totals taken once."""
    P = _point_fastest(X)
    rs, cs = P.sum(axis=1), P.sum(axis=0)      # (m, k), (n, k)
    tot = rs.sum(axis=0)
    return [float(_conic_value(cut, box, cs[cut.j], rs[cut.i], tot,
                               P[cut.i, cut.j]).max())
            for cut in cuts]


def gen_rlt_conic(box: BoundBox) -> CutSet:
    skipped = rlt_guard(box, bounded=False)
    if skipped is not None:
        return skipped
    out = CutSet()
    for i in range(box.m):
        for j in range(box.n):
            out.cuts.append(ConicCut(f"conic:cd[{i},{j}]", "cd", i, j))
            out.cuts.append(ConicCut(f"conic:ac1-row[{i},{j}]", "ac1-row", i, j))
            out.cuts.append(ConicCut(f"conic:ac1-col[{i},{j}]", "ac1-col", i, j))
    return out


_EVAL_BLOCK = 2048  # points per product in evaluate_linear_cuts


def _violation_rows(cuts: list[LinearCut], space: str, m: int, n: int):
    """Rows A and right-hand sides b of the ``space`` cuts, with each cut's
    sense folded into its sign, so that a point's violations are A @ x - b
    (x the flattened point): a '>=' cut is negated, an '==' cut gives both
    signs.  A cut's space is that of its terms: an x-space cut holds only
    x terms, an r-space cut only r terms.  A cut whose terms all cancelled
    is a constant, the same at every point; it counts as x."""
    rows, rhs = [], []
    for cut in cuts:
        if (cut.coeffs[0][0][0] if cut.coeffs else "x") != space:
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


def _max_violation(A, cols, b) -> float:
    """max over points and rows of A @ cols - b, one point a column.  Each
    row's maximum is taken before its rhs is subtracted, which rounds to the
    same value and spares a (cuts x points) pass."""
    return float(((A @ cols).max(axis=1) - b).max())


def evaluate_linear_cuts(cuts: list[LinearCut], X) -> float:
    """Max violation of the cuts over a batch of rank-one feasible points
    (never below 0).  X may be a single (m, n) matrix or a batch (k, m, n).

    The cuts of each space form one dense coefficient matrix A, and the
    violations are one product A @ cols per space, cols the points as the
    columns of an (m n, k) array, taken over blocks of at most
    ``_EVAL_BLOCK`` columns so the memory stays bounded.  A batch from the
    sampler reshapes to cols without a copy.  r-space cuts are evaluated
    through r = X / sum(X); points with zero sum are skipped for those (the
    zero matrix satisfies the underlying set).
    """
    P = _point_fastest(X)
    m, n, k = P.shape
    cols = P.reshape(m * n, k)
    Ax, bx = _violation_rows(cuts, "x", m, n)
    Ar, br = _violation_rows(cuts, "r", m, n)
    worst = 0.0
    for start in range(0, k, _EVAL_BLOCK):
        block = cols[:, start:start + _EVAL_BLOCK]
        if len(bx):
            worst = max(worst, _max_violation(Ax, block, bx))
        if len(br):
            tot = block.sum(axis=0)
            safe = tot > 0
            if safe.any():
                worst = max(worst, _max_violation(Ar, block[:, safe] / tot[safe], br))
    return worst


# -- the exact oracle ------------------------------------------------------

MAX_HULL_PIECES = 2 ** 19  # m n 2^(m+n-2) pieces: a 1 x 16 box has exactly this many


def _bound_choices(lo, hi, k: int) -> np.ndarray:
    """Every lower/upper choice for the entries other than k, as the rows of
    a (2^(len-1), len) array whose column k is 0."""
    others = np.delete(np.arange(len(lo)), k)
    upper = (np.arange(2 ** len(others))[:, None] >> np.arange(len(others))) & 1
    out = np.zeros((len(upper), len(lo)))
    out[:, others] = np.where(upper, hi[others], lo[others])
    return out


def hull_bound(box: BoundBox, c) -> tuple[float, np.ndarray]:
    """The exact minimum of <c, X> over the rank-one set, with a point X of
    the set that attains it.

    At an extreme point of the set's hull at most one row sum and one column
    sum lie strictly between their bounds, so the minimum lies on a hull
    piece: a pivot cell (i, j), every other row and column sum at a bound.
    There the total sigma is the one free parameter: the sums are
    r(sigma) = r0 + sigma e_i and s(sigma) = s0 + sigma e_j, and
    <c, X> = r^T c s / sigma = c_ij sigma + beta + delta / sigma with
    delta = r0^T c s0.  Its minimum over the piece's sigma-interval lies at
    an end or at sqrt(delta / c_ij).  Each pivot's pieces are evaluated as
    one (row choice x column choice) array.  Raises BoxError on an infinite
    bound or more than MAX_HULL_PIECES pieces, and EmptySampleError when the
    set is empty.
    """
    m, n = box.m, box.n
    if not all(map(math.isfinite, box.u + box.up + (box.U,))):
        raise BoxError("hull_bound needs finite bounds")
    if m * n * 2 ** (m + n - 2) > MAX_HULL_PIECES:
        raise BoxError(f"piece guard: {m} x {n} has {m * n} * 2^{m + n - 2} pieces")
    c = np.asarray(c, dtype=float)
    l, u, lp, up, L, U = box.arrays()
    rows = [_bound_choices(l, u, i) for i in range(m)]
    cols = [_bound_choices(lp, up, j) for j in range(n)]
    best_value, best_X = INF, None
    for i, j in itertools.product(range(m), range(n)):
        R, S = rows[i].copy(), cols[j].copy()
        B, Bp = R.sum(axis=1)[:, None], S.sum(axis=1)
        lo = np.maximum(np.maximum(L, B + l[i]), Bp + lp[j])
        hi = np.minimum(np.minimum(U, B + u[i]), Bp + up[j])
        R[:, [i]], S[:, j] = -B, -Bp
        a, delta = c[i, j], R @ c @ S.T
        beta = R @ c[:, [j]] + S @ c[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = (a > 0) & (a * lo * lo < delta) & (delta < a * hi * hi)
            sigma = np.stack([lo, hi, np.where(inside, np.sqrt(delta / a), lo)])
            # sigma = 0 needs B = B' = 0, so the piece's only point is X = 0
            value = np.where(sigma > 0, a * sigma + beta + delta / sigma, 0.0)
        value[:, lo > hi] = INF
        k = np.unravel_index(value.argmin(), value.shape)
        if value[k] < best_value:
            r, s, t = R[k[1]], S[k[2]], sigma[k]
            r[i], s[j] = r[i] + t, s[j] + t
            best_value, best_X = value[k], np.outer(r, s) / t if t > 0 else np.zeros((m, n))
    if best_X is None:
        raise EmptySampleError("no hull piece has a feasible total")
    return float((c * best_X).sum()), best_X


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


# -- sampling -------------------------------------------------------------------

def _sigma_window(box: BoundBox) -> tuple[float, float]:
    lo = max(box.L, sum(box.l), sum(box.lp))
    hi = min(box.U, sum(box.u), sum(box.up))
    return lo, hi


def _simplex_batch(lo: np.ndarray, hi: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Vectorized sequential draws on (coords, batch) window arrays, one
    column a point; callers must guarantee the windows are feasible
    column-wise.  The one draw of (coords - 1, batch) numbers is the
    coords - 1 draws of batch numbers, one coordinate after another."""
    k, batch = lo.shape
    out = np.empty((k, batch))
    rem = np.ones(batch)
    # tail[idx]: the sum of the windows after idx, added from the last one
    tail_lo, tail_hi = lo[1:].copy(), hi[1:].copy()
    for idx in range(k - 3, -1, -1):
        tail_lo[idx] += tail_lo[idx + 1]
        tail_hi[idx] += tail_hi[idx + 1]
    draws = rng.random((k - 1, batch))
    for idx in range(k - 1):
        a = np.maximum(lo[idx], rem - tail_hi[idx])
        b = np.minimum(hi[idx], rem - tail_lo[idx])
        b = np.maximum(b, a)
        out[idx] = t = a + (b - a) * draws[idx]
        rem = rem - t
    out[k - 1] = rem
    return np.clip(out, 0.0, None)


def sample_rank_one_points(box: BoundBox, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """count exact members of the rank-one feasible set, shape (count, m, n).

    The result is the transposed view of an (m, n, count) array: the point
    index is fastest in memory, so that each cell, row sum or column sum
    over the batch is one contiguous run, which the cut evaluators take.
    np.ascontiguousarray gives the same values C-ordered.  Raises ValueError
    for a count that is not a non-negative integer, before any draw.
    """
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
        raise ValueError(f"count must be a non-negative integer, not {count!r}")
    lo, hi = _sigma_window(box)
    if lo > hi + 1e-12:
        raise EmptySampleError("total-sum window is empty")
    if hi <= 0:
        return np.zeros((box.m, box.n, count)).transpose(2, 0, 1)
    lo = max(lo, 1e-12 * max(1.0, hi))  # rank-one factors need positive mass
    bounds = np.concatenate(box.arrays()[:4])  # l, u, lp, up
    edges = np.cumsum([box.m, box.m, box.n])
    chunks = []
    need = count
    for _ in range(64):
        k = max(need, 64)
        sigma = lo + (hi - lo) * rng.random(k)
        windows = np.clip(bounds[:, None] / sigma, 0.0, 1.0)  # one row a bound
        row_lo, row_hi, col_lo, col_hi = np.split(windows, edges)
        good = ((row_lo.sum(axis=0) <= 1 + 1e-12) & (row_hi.sum(axis=0) >= 1 - 1e-12)
                & (col_lo.sum(axis=0) <= 1 + 1e-12) & (col_hi.sum(axis=0) >= 1 - 1e-12))
        if good.any():
            windows = windows.compress(good, axis=1)
            row_lo, row_hi, col_lo, col_hi = np.split(windows, edges)
            tp = _simplex_batch(row_lo, row_hi, rng)
            t = _simplex_batch(col_lo, col_hi, rng)
            X = sigma[good] * tp[:, None, :] * t[None, :, :]  # (m, n, good)
            chunks.append(X)
            need -= X.shape[2]
        if need <= 0:
            break
    if not chunks:
        raise EmptySampleError("no feasible sample found")
    return np.concatenate(chunks, axis=2)[:, :, :count].transpose(2, 0, 1)


def random_box(rng: np.random.Generator, m: int, n: int,
               positive_lower: bool = False) -> BoundBox:
    """A nonempty random box built around a random rank-one point; without
    positive_lower, each lower bound is 0 with probability 0.35."""
    y = rng.uniform(0.2, 1.0, size=m) * 10.0
    z = rng.uniform(0.2, 1.0, size=n)
    z /= z.sum()
    X0 = np.outer(y, z)
    rs, cs, tot = X0.sum(axis=1), X0.sum(axis=0), X0.sum()

    def interval(v):
        lo = v * rng.uniform(0.3, 0.95)
        hi = v * rng.uniform(1.05, 1.9)
        if not positive_lower and rng.random() < 0.35:
            lo = 0.0
        return lo, hi

    l, u = zip(*(interval(v) for v in rs))
    lp, up = zip(*(interval(v) for v in cs))
    L, U = interval(tot)
    if positive_lower and L <= 0:
        L = tot * 0.3
    return make_box(l, u, lp, up, L, U)
