"""Geometry of the rank-one bounded-sum sets: membership, fragments, cuts,
the exact oracle against its piece-by-piece reference, and the sampler."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolkit import rank1
from poolkit.rank1 import (INF, BoxError, EmptySampleError, InfeasiblePointError,
                           LinearCut, attach_fragment,
                           build_colwise_extension,
                           build_intersection, build_rowcol_extension,
                           build_rowwise_extension, check_extreme_point_property,
                           evaluate_conic_cuts,
                           evaluate_linear_cuts, gen_rlt_conic, gen_rlt_mccormick,
                           gen_rlt_reverse_convex, hull_bound, is_rank_le_one,
                           make_box, membership_T, membership_T_tilde, normalize,
                           random_box, sample_rank_one_points)
from poolkit.formulations import build_exact
from poolkit.instances import parse_instance
from poolkit.modelir import ModelIR
from poolkit.relaxations import block_value
from poolkit.solver import OPTIMAL, solve

from conftest import DATA


def box22():
    return make_box([1.0, 2.0], [4.0, 5.0], [2.0, 1.0], [5.0, 4.0], 3.0, 8.0)


FRAGMENTS = ("F1:S", "F2:S", "F3:S", "F4:S")


def fragment_alone(box, build):
    """min of the single cell over x >= 0 and the rows of ``build(box)``."""
    model = ModelIR("fragment")
    model.add_var("x")
    attach_fragment(model, build(box), lambda i, j: "x")
    model.set_objective({"x": 1.0})
    res = solve(model)
    assert res.status == OPTIMAL
    return res.objective


def assert_hull_sandwich(box, c, rng, labels=FRAGMENTS, samples=2000):
    """Every fragment LP <= hull_bound <= every sampled value, and the
    oracle's witness is a point of the set that attains its value."""
    value, X = hull_bound(box, c)
    tol = 1e-7 * max(1.0, abs(value))
    assert membership_T_tilde(X, box, 1e-7 * box.scale())
    assert float((c * X).sum()) == pytest.approx(value, abs=tol)
    for label in labels:
        bound = block_value(box, c, label)
        assert bound is not None and bound <= value + 1e-6 * max(1.0, abs(value)), label
    sampled = np.einsum("kij,ij->k", sample_rank_one_points(box, samples, rng), c)
    assert value <= sampled.min() + tol
    return X


class TestMembership:
    def test_zero_point_with_zero_lower_bounds(self):
        box = make_box([0, 0], [2, 2], [0, 0], [2, 2], 0.0, 4.0)
        assert membership_T(np.zeros((2, 2)), box)

    def test_forced_unit_cell(self):
        box = make_box([1, 0], [1, 0], [1, 0], [1, 0], 1.0, 1.0)
        X = np.zeros((2, 2))
        X[0, 0] = 1.0
        assert membership_T(X, box)

    def test_row_sum_violation_by_twice_tol(self, rng):
        box = box22()
        X = sample_rank_one_points(box, 1, rng)[0]
        tol = 1e-6
        bad = X.copy()
        bad[0, :] *= (box.u[0] + 2 * tol) / bad[0, :].sum()
        assert not membership_T(bad, box, tol)

    def test_dimension_mismatch(self):
        with pytest.raises(BoxError):
            membership_T(np.zeros((3, 2)), box22())


class TestRank:
    def test_outer_product_is_rank_one(self, rng):
        y = rng.uniform(0, 5, size=4)
        z = rng.uniform(0, 5, size=3)
        assert is_rank_le_one(np.outer(y, z))

    def test_identity_is_not(self):
        assert not is_rank_le_one(np.eye(2))

    def test_zero_matrix(self):
        assert is_rank_le_one(np.zeros((3, 3)))

    def test_proportion_times_flow_structure(self, rng):
        # decomposed flows x = q * f per pool row/column are rank <= 1
        q = rng.uniform(0, 1, size=3)
        q /= q.sum()
        f = rng.uniform(0, 10, size=2)
        assert is_rank_le_one(np.outer(q, f))


class TestNormalize:
    def test_deletes_zero_u_rows_and_columns(self):
        box = make_box([0, 0], [3, 0], [0, 0, 0], [2, 0, 2], 0, 5)
        sub, rows, cols = normalize(box)
        assert rows == [0] and cols == [0, 2]
        assert sub.m == 1 and sub.n == 2

    def test_zero_u_with_positive_l_is_an_error(self):
        with pytest.raises(BoxError):
            normalize(make_box([1, 0], [0, 2], [0, 0], [2, 2], 0, 4))

    @pytest.mark.parametrize("l,u", [(np.nan, 1), (0, np.nan), (INF, INF), (-1, 1)])
    def test_nan_infinite_or_negative_lower_is_an_error(self, l, u):
        # a NaN row bound once made hull_bound return (0.0, zeros)
        with pytest.raises(BoxError):
            make_box([l], [u], [0], [1], 0, 1)
        with pytest.raises(BoxError):
            make_box([0], [1], [0], [1], l, u)


class TestFragments:
    def test_rowwise_constraint_count(self):
        box = box22()
        frag = build_rowwise_extension(box)
        m, n = box.m, box.n
        assert len(frag.rows) == 2 * m * n + 2 * n + 1
        assert len(frag.aux) == n

    def test_rowcol_constraint_count(self):
        box = box22()
        frag = build_rowcol_extension(box)
        assert len(frag.rows) == 6 * box.m * box.n + 1
        assert len(frag.aux) == box.m * box.n

    # on a 1x1 box the bounded-sum rows alone give the interval, so these
    # solve the fragment alone: x >= 0 and the fragment's rows
    def test_1x1_rowwise_collapses_to_interval(self):
        box = make_box([1], [4], [2], [5], 3, 8)
        # t1 = 1 forces max(l1, L) <= x <= min(u1, U); columns are relaxed
        assert fragment_alone(box, build_rowwise_extension) == pytest.approx(3.0)

    def test_1x1_rowcol_is_interval_intersection(self):
        box = make_box([1], [4], [2], [5], 0.5, 8)
        lo = max(box.l[0], box.lp[0], box.L)
        assert fragment_alone(box, build_rowcol_extension) == pytest.approx(lo)

    def test_rank_one_points_extend_rowwise(self, rng):
        # the explicit construction t_j = x_ij / (row sum) satisfies every row
        box = box22()
        frag = build_rowwise_extension(box)
        for X in sample_rank_one_points(box, 20, rng):
            t = X.sum(axis=0) / X.sum()
            values = {("t", j): t[j] for j in range(box.n)}
            for i in range(box.m):
                for j in range(box.n):
                    values[("x", i, j)] = X[i, j]
            for row in frag.rows:
                lhs = sum(c * values[term] for term, c in row.coeffs)
                if row.sense == "<=":
                    assert lhs <= row.rhs + 1e-8
                elif row.sense == ">=":
                    assert lhs >= row.rhs - 1e-8
                else:
                    assert lhs == pytest.approx(row.rhs, abs=1e-8)

    def test_rank_one_points_extend_rowcol(self, rng):
        box = box22()
        frag = build_rowcol_extension(box)
        for X in sample_rank_one_points(box, 20, rng):
            R = X / X.sum()
            values = {("r", i, j): R[i, j]
                      for i in range(box.m) for j in range(box.n)}
            for i in range(box.m):
                for j in range(box.n):
                    values[("x", i, j)] = X[i, j]
            for row in frag.rows:
                lhs = sum(c * values[term] for term, c in row.coeffs)
                if row.sense == "<=":
                    assert lhs <= row.rhs + 1e-8
                elif row.sense == ">=":
                    assert lhs >= row.rhs - 1e-8
                else:
                    assert lhs == pytest.approx(row.rhs, abs=1e-8)

    def test_rowwise_relaxation_admits_rank_two_point(self):
        # rows (1,0) and (0,1) have rank 2 yet satisfy the row-relaxed hull
        # with t = (0.5, 0.5) when the bounds admit it: the fragment is a
        # strict outer approximation of the rank-one set.
        box = make_box([0, 0], [2, 2], [0, 0], [2, 2], 0.0, 4.0)
        from poolkit.modelir import ModelIR
        from poolkit.rank1 import attach_fragment
        from poolkit.solver import solve

        model = ModelIR("rank2-feasibility")
        for i in range(2):
            for j in range(2):
                model.add_var(f"x[{i},{j}]")
        attach_fragment(model, build_rowwise_extension(box),
                        lambda i, j: f"x[{i},{j}]")
        X = np.eye(2)
        for i in range(2):
            for j in range(2):
                v = model.variables[f"x[{i},{j}]"]
                model.variables[f"x[{i},{j}]"] = type(v)(v.name, X[i, j], X[i, j])
        res = solve(model)
        assert res.status == "optimal"
        assert not is_rank_le_one(X)

    def test_colwise_is_transposed_rowwise(self, rng):
        # zero lower bounds and infinite upper bounds drop rows, so both
        # builders must drop the same ones
        boxes = [box22(), *(random_box(rng, m, n) for m, n in
                            [(1, 3), (2, 2), (2, 3), (3, 2), (3, 4), (4, 3)]),
                 make_box([1, 0], [4, INF], [0, 2], [INF, 5], 1, INF),
                 make_box([0, 2, 1], [3, 6, INF], [1, 0], [5, 4], 0, 9)]
        assert any(0.0 in box.l + box.lp for box in boxes[1:7])

        def canon(frag, swap):
            rows = []
            for row in frag.rows:
                coeffs = []
                for term, c in row.coeffs:
                    if term[0] == "x":
                        idx = (term[2], term[1]) if swap else (term[1], term[2])
                        coeffs.append((("x",) + idx, c))
                    else:
                        coeffs.append((("aux", term[1]), c))
                name = row.name
                if swap:  # cell[i,j] <-> cell[j,i], col_* <-> row_*
                    name = re.sub(r"\[(\d+),(\d+)\]", r"[\2,\1]", name)
                    name = re.sub(r"^col_", "row_", name)
                rows.append((name, tuple(sorted(coeffs)), row.sense, row.rhs))
            return sorted(rows)

        for box in boxes:
            cw = build_colwise_extension(box)
            rw_t = build_rowwise_extension(box.transpose())
            assert canon(cw, swap=False) == canon(rw_t, swap=True)

    def test_colwise_lp_matches_rowwise_on_transpose(self, rng):
        box = random_box(rng, 2, 3)
        c = rng.normal(size=(2, 3))
        a = block_value(box, c, "F1:S")
        b = block_value(box.transpose(), c.T, "F2:S")
        assert a == pytest.approx(b, rel=1e-7, abs=1e-7)

    def test_single_column_recovers_row_fractions(self, rng):
        box = make_box([1, 1], [3, 3], [2], [6], 2, 6)
        X = sample_rank_one_points(box, 1, rng)[0]
        tp = X.sum(axis=1) / X.sum()
        assert np.allclose(X[:, 0], tp * X.sum())

    def test_intersection_contains_both_row_sets(self):
        box = box22()
        frag = build_intersection(box)
        names = {r.name for r in frag.rows}
        assert any(n.startswith("rw:") for n in names)
        assert any(n.startswith("cw:") for n in names)


class TestSandwich:
    @pytest.mark.parametrize("seed", range(6))
    def test_fragment_dominance_chain(self, seed):
        # each label's model of the box as a one-pool instance, whose
        # backbone carries the bounded-sum rows
        rng = np.random.default_rng(seed)
        box = random_box(rng, rng.integers(1, 4), rng.integers(1, 4))
        c = rng.normal(size=(box.m, box.n))
        plain, v1, v2, v3, v4 = (block_value(box, c, label)
                                 for label in ("MCF:S",) + FRAGMENTS)
        scale = 1e-7 * max(1.0, abs(v4))
        assert v4 >= v3 - scale
        assert v3 >= max(v1, v2) - scale
        assert min(v1, v2) >= plain - scale

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_upper_bounds_fragments(self, seed):
        rng = np.random.default_rng(100 + seed)
        for m, n in [(1 + seed, 4 - seed), (2, 1 + seed), (4, 4)]:
            box = random_box(rng, m, n, positive_lower=bool(rng.random() < 0.3))
            assert_hull_sandwich(box, rng.normal(size=(m, n)), rng)

    # each label with cuts, and the F label it adds them to
    CUT_LABELS = {"F1:S+Vab(r)": "F1:S", "F2:S+Vab(x,r)": "F2:S",
                  "F3:S+Vab(x)+Vac(x)": "F3:S", "F4:S+Vab(x,r)": "F4:S",
                  "F4:S+Vac(x,r)": "F4:S"}

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_cut_and_discretized_labels_against_the_oracle(self, m, n):
        """A +V label lies between its F label and the oracle, an M
        relaxation at most at the oracle, a feasible G restriction at
        least at it."""
        rng = np.random.default_rng(1700 + 10 * m + n)
        for _ in range(3):
            box = random_box(rng, m, n, positive_lower=True)
            c = rng.normal(size=(m, n))
            hull, _ = hull_bound(box, c)
            tol = 1e-6 * max(1.0, abs(hull))
            for label, base in self.CUT_LABELS.items():
                value = block_value(box, c, label)
                assert block_value(box, c, base) - tol <= value <= hull + tol, label
            for label in ("M1:S:H=2", "M2:S:H=2"):
                assert block_value(box, c, label) <= hull + tol, label
            for label in ("G1:S:H=2", "G2:S:H=2"):
                value = block_value(box, c, label)
                assert value is None or value >= hull - tol, label


class TestRLT:
    def box_positive(self, rng):
        return random_box(rng, 2, 3, positive_lower=True)

    def test_mccormick_count_and_validity(self, rng):
        box = self.box_positive(rng)
        cuts = gen_rlt_mccormick(box, "both")
        assert len(cuts.cuts) == 2 * 4 * box.m * box.n
        X = sample_rank_one_points(box, 4000, rng)
        viol = evaluate_linear_cuts(cuts.cuts, X)
        assert viol <= 1e-8 * box.scale()

    def test_mccormick_collapses_at_point_box(self):
        # all sums fixed: the four envelope rows become one equality
        box = make_box([2, 1], [2, 1], [1, 2], [1, 2], 3, 3)
        cuts = gen_rlt_mccormick(box, "r")
        by_cell = {}
        for cut in cuts.cuts:
            key = cut.name.split(":")[-1]
            by_cell.setdefault(key, []).append(cut)
        for cell_cuts in by_cell.values():
            assert len(cell_cuts) == 4
            ref = dict(cell_cuts[0].coeffs), cell_cuts[0].rhs
            for cut in cell_cuts[1:]:
                assert dict(cut.coeffs) == pytest.approx(ref[0])
                assert cut.rhs == pytest.approx(ref[1])

    def test_guard_skips_when_L_is_zero(self):
        box = make_box([0, 0], [2, 2], [0, 0], [2, 2], 0.0, 4.0)
        out = gen_rlt_mccormick(box, "x")
        assert out.cuts == [] and out.notes == ["skipped: L=0"]
        out = gen_rlt_reverse_convex(box, "x")
        assert out.cuts == [] and out.notes == ["skipped: L=0"]

    def test_reverse_convex_validity(self, rng):
        box = self.box_positive(rng)
        cuts = gen_rlt_reverse_convex(box, "both")
        assert len(cuts.cuts) == 2 * 2 * box.m * box.n  # two spaces x two orientations
        X = sample_rank_one_points(box, 4000, rng)
        assert evaluate_linear_cuts(cuts.cuts, X) <= 1e-8 * box.scale()

    def test_reverse_convex_degenerate_zero_column_lower(self):
        box = make_box([1, 1], [2, 2], [0, 1], [3, 3], 1, 5)
        cuts = gen_rlt_reverse_convex(box, "r")
        row_cut = next(c for c in cuts.cuts if c.name == "Vac:row:r[0,0]")
        coeffs = dict(row_cut.coeffs)
        # with l'_0 = 0 only the column-sum term survives: u_0 u'_0 / L >= 0
        assert row_cut.rhs == 0.0
        w = box.u[0] * box.up[0] / box.L
        assert coeffs == pytest.approx({("r", 0, 0): w, ("r", 1, 0): w})

    def test_reverse_convex_matches_pooling_notation_form(self):
        # the x-space row cut equals the displayed pooling-notation
        # inequality under the symbol map (row bound, column bound, totals)
        box = make_box([1, 2], [3, 4], [1.5, 1], [4, 3], 2, 7)
        cuts = gen_rlt_reverse_convex(box, "x")
        got = dict(next(c for c in cuts.cuts if c.name == "Vac:row:x[0,1]").coeffs)
        m, n = box.m, box.n
        u_s, lj, uj, L, U = box.u[0], box.lp[1], box.up[1], box.L, box.U
        want = {}
        for i2 in range(m):
            want[("x", i2, 1)] = want.get(("x", i2, 1), 0.0) + u_s * uj / L
        for j2 in range(n):
            want[("x", 0, j2)] = want.get(("x", 0, j2), 0.0) + lj**2 / U
        want[("x", 0, 1)] = want.get(("x", 0, 1), 0.0) - lj
        for i2 in range(m):
            for j2 in range(n):
                want[("x", i2, j2)] = want.get(("x", i2, j2), 0.0) - u_s * uj * lj / (U * L)
        assert got == pytest.approx({k: v for k, v in want.items() if v != 0.0})

    def test_conic_validity_and_trivial_case(self, rng):
        box = self.box_positive(rng)
        cuts = gen_rlt_conic(box)
        X = sample_rank_one_points(box, 4000, rng)
        for cut in cuts.cuts:
            assert cut.violation(X, box) <= 1e-8 * box.scale() ** 2
        zero_l = make_box([0, 0], list(box.u[:2]), [0, 0, 0], list(box.up),
                          0.5 * box.L, box.U)
        cd = next(c for c in gen_rlt_conic(zero_l).cuts if c.family == "cd")
        Xs = sample_rank_one_points(zero_l, 100, rng)
        # l = 0 and l' = 0 make the quadratic side vanish
        assert cd.violation(Xs, zero_l) <= 0.0 + 1e-12


class TestHullPieces:
    def test_2x2_piece_count(self):
        pieces = list(reference_hull_pieces(box22()))
        assert len(pieces) == 4 * 2 * 2  # mn pivots x 2^(m+n-2) selections
        assert len({(p, tuple(r), tuple(s)) for p, r, s in pieces}) == 16

    def test_guard(self):
        # the piece guard admits every box the old 16-cell guard did: the
        # most pieces of m x n <= 16 are 1 x 16's, exactly the guard
        counts = {(m, n): m * n * 2 ** (m + n - 2)
                  for m in range(1, 17) for n in range(1, 17) if m * n <= 16}
        assert max(counts.values()) == counts[1, 16] == rank1.MAX_HULL_PIECES


class TestExtremePoints:
    def test_all_rows_tight_counts_zero(self):
        box = make_box([1, 2], [1, 2], [0, 0], [3, 3], 0, 4)
        X = np.outer([1.0, 2.0], [0.5, 0.5])
        assert check_extreme_point_property(X, box)[0] == 0

    def test_infeasible_point_raises(self):
        box = box22()
        with pytest.raises(InfeasiblePointError):
            check_extreme_point_property(np.full((2, 2), 100.0), box)

    def test_midpoint_of_two_rank_one_points_reports_two_strict_rows(self):
        # two feasible points sharing the column direction: their midpoint is
        # rank-one and feasible, its strict-row count exposes non-extremality
        box = make_box([0, 0], [4, 4], [0, 0], [8, 8], 0, 8)
        z = np.array([0.5, 0.5])
        X1 = np.outer([1.0, 3.0], z)
        X2 = np.outer([3.0, 1.0], z)
        mid = 0.5 * (X1 + X2)
        count_row, _ = check_extreme_point_property(mid, box, tol=1e-9)
        assert count_row == 2


class TestHullBound:
    def test_zero_cost_gives_zero(self):
        box = box22()
        value, X = hull_bound(box, np.zeros((2, 2)))
        assert value == 0.0 and membership_T_tilde(X, box)

    def test_zero_point_when_every_lower_bound_is_zero(self):
        box = make_box([0, 0], [2, 2], [0, 0], [2, 2], 0, 4)
        value, X = hull_bound(box, np.ones((2, 2)))
        assert value == 0.0 and not X.any()

    def test_1x1_exact_interval(self):
        box = make_box([1], [4], [2], [5], 3, 8)
        assert hull_bound(box, np.array([[2.0]]))[0] == pytest.approx(2.0 * max(1, 2, 3))
        assert hull_bound(box, np.array([[-2.0]]))[0] == pytest.approx(-2.0 * min(4, 5, 8))

    def test_minimum_inside_the_total_interval(self):
        # row 1 and column 1 fixed at 1: the set is the curve r = s =
        # (sigma - 1, 1), where <I, X> = sigma - 2 + 2 / sigma has its
        # minimum 2 sqrt(2) - 2 at sigma = sqrt(2), inside [1, 11]
        box = make_box([0, 1], [10, 1], [0, 1], [10, 1], 0, 20)
        value, X = hull_bound(box, np.eye(2))
        assert value == pytest.approx(2 * np.sqrt(2) - 2, abs=1e-12)
        assert X.sum() == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_guard(self):
        class Unread:
            def __array__(self, *args, **kwargs):
                raise AssertionError("the cost was read before the guard")

        # 48 * 2^47 and 48 * 2^24 pieces: refused before any array is made
        for m, n in [(1, 48), (2, 24)]:
            box = make_box([0] * m, [1] * m, [0] * n, [1] * n, 0, 5)
            with pytest.raises(BoxError, match="piece guard"):
                hull_bound(box, Unread())
        with pytest.raises(BoxError):
            hull_bound(make_box([0], [INF], [0], [1], 0, 1), np.ones((1, 1)))

    def test_empty_sample_reported(self):
        box = make_box([2, 2], [3, 3], [0, 0], [0.5, 0.5], 4, 6)
        # column capacity (1.0 total) cannot carry the required row mass (4)
        with pytest.raises(EmptySampleError):
            hull_bound(box, np.ones((2, 2)))


@st.composite
def boxes_and_costs(draw):
    """A box of up to 3 x 3 around a rank-one point, as random_box builds
    one, and a cost matrix."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def vector(size, lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    y, z = 10.0 * vector(m, 0.2, 1.0), vector(n, 0.2, 1.0)
    X0 = np.outer(y, z / z.sum())

    def windows(sums):
        lo = sums * vector(len(sums), 0.3, 0.95)
        lo[vector(len(sums), 0.0, 1.0) < 0.35] = 0.0
        return lo, sums * vector(len(sums), 1.05, 1.9)

    (l, u), (lp, up) = windows(X0.sum(axis=1)), windows(X0.sum(axis=0))
    (L,), (U,) = windows(np.array([X0.sum()]))
    return make_box(l, u, lp, up, L, U), vector(m * n, -1.0, 1.0).reshape(m, n)


class TestHullBoundProperties:
    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(boxes_and_costs())
    def test_between_F4_and_the_samples(self, box_and_cost):
        box, c = box_and_cost
        X = assert_hull_sandwich(box, c, np.random.default_rng(0), labels=("F4:S",),
                                 samples=500)
        count_row, count_col = check_extreme_point_property(X, box)
        assert count_row <= 1 and count_col <= 1
        assert_matches_reference(box, c)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_matches_the_reference_up_to_5x5(self, m):
        rng = np.random.default_rng(2100 + m)
        for n in range(1, 6):
            for positive_lower in (False, True):
                box = random_box(rng, m, n, positive_lower=positive_lower)
                assert_matches_reference(box, rng.normal(size=(m, n)))


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.stem)
def test_every_bundled_pool_block_fits_the_oracle(path):
    """Every normalized pool block of the bundled instances, in both bases,
    up to adhya3's and adhya4's 8 x 6, lies under the piece guard."""
    rng = np.random.default_rng(sum(map(ord, path.stem)))
    inst = parse_instance(path)
    for basis in ("source", "terminal"):
        for block in build_exact(inst, basis).blocks:
            box, _, _ = normalize(block.box)
            assert_hull_sandwich(box, rng.normal(size=(box.m, box.n)), rng,
                                 labels=("F4:S",), samples=500)


class TestSampling:
    def test_deterministic_given_seed(self):
        box = box22()
        a = sample_rank_one_points(box, 50, np.random.default_rng(5))
        b = sample_rank_one_points(box, 50, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_samples_are_feasible_and_rank_one(self, rng):
        box = box22()
        X = sample_rank_one_points(box, 200, rng)
        for x in X:
            assert membership_T(x, box, 1e-7)
            assert is_rank_le_one(x)


def reference_hull_pieces(box):
    """Each hull piece as (pivot, r0, s0): every row and column sum but the
    pivot's at its lower or upper bound, the pivot's entries 0."""
    l, u, lp, up, _, _ = box.arrays()
    for i, j in itertools.product(range(box.m), range(box.n)):
        for rsel in itertools.product("lu", repeat=box.m - 1):
            for csel in itertools.product("lu", repeat=box.n - 1):
                r0 = np.where(np.array(rsel[:i] + ("*",) + rsel[i:]) == "u", u, l)
                s0 = np.where(np.array(csel[:j] + ("*",) + csel[j:]) == "u", up, lp)
                r0[i] = s0[j] = 0.0
                yield (i, j), r0, s0


def reference_hull_bound(box, c):
    """The exact minimum over the rank-one set piece by piece, sigma by
    sigma, in closed form: the oracle's reference."""
    c = np.asarray(c, dtype=float)
    l, u, lp, up, L, U = box.arrays()
    best = math.inf
    for (i, j), r0, s0 in reference_hull_pieces(box):
        B, Bp = r0.sum(), s0.sum()
        lo = max(L, B + l[i], Bp + lp[j])
        hi = min(U, B + u[i], Bp + up[j])
        if lo > hi:
            continue
        r0[i], s0[j] = -B, -Bp
        a, delta = c[i, j], r0 @ c @ s0
        sigmas = [lo, hi]
        if a > 0 and a * lo * lo < delta < a * hi * hi:  # lo < sqrt(delta/a) < hi
            sigmas.append(math.sqrt(delta / a))
        for sigma in sigmas:
            r0[i], s0[j] = sigma - B, sigma - Bp
            # sigma = 0 needs B = B' = 0, so the piece's only point is X = 0
            X = np.outer(r0, s0) / sigma if sigma > 0 else np.zeros((box.m, box.n))
            best = min(best, float((c * X).sum()))
    return best


def assert_matches_reference(box, c):
    """hull_bound within 1e-12 (relative above 1) of the reference, at a
    point of the set that attains it."""
    value, X = hull_bound(box, c)
    want = reference_hull_bound(box, c)
    assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
    assert membership_T_tilde(X, box, 1e-7 * box.scale())
    assert float((c * X).sum()) == value


def reference_linear(cuts, X):
    """Max violation (never below 0) cut by cut, point by point, term by term."""
    X = np.asarray(X, dtype=float)
    batch = X if X.ndim == 3 else X[None]
    worst = 0.0
    for cut in cuts:
        for P in batch:
            if cut.coeffs and cut.coeffs[0][0][0] == "r":  # r terms only
                total = P.sum()
                if total <= 0:
                    continue
                P = P / total
            val = 0.0
            for (_, i, j), coeff in cut.coeffs:
                val += coeff * P[i, j]
            if cut.sense == ">=":
                viol = cut.rhs - val
            elif cut.sense == "<=":
                viol = val - cut.rhs
            else:
                viol = abs(val - cut.rhs)
            worst = max(worst, viol)
    return worst


def reference_conic(cut, X, box):
    """Max of lhs - rhs over the points, one point at a time."""
    X = np.asarray(X, dtype=float)
    batch = X if X.ndim == 3 else X[None]
    i, j = cut.i, cut.j
    l, u, lp, up, U = box.l[i], box.u[i], box.lp[j], box.up[j], box.U
    worst = -np.inf
    for P in batch:
        cs, rs, tot, xij = P[:, j].sum(), P[i, :].sum(), P.sum(), P[i, j]
        if cut.family == "cd":
            v = l * u * cs**2 + lp * up * rs**2 - (l * lp + u * up) * xij * tot
        elif cut.family == "ac1-row":
            v = l * cs**2 - ((l * lp / U) * cs - (lp * up / U) * rs + up * xij) * tot
        else:
            v = lp * rs**2 - ((lp * l / U) * rs - (l * u / U) * cs + u * xij) * tot
        worst = max(worst, v)
    return worst


def off_set_points(box, count, rng):
    """Rank-one samples mixed with nonnegative points off the set, so that
    the cuts have positive violations to compare."""
    X = sample_rank_one_points(box, count, rng)
    off = rng.uniform(0.0, box.scale() / max(box.m, box.n), size=X.shape)
    return np.concatenate([X, off])[rng.permutation(2 * count)]


class TestCutEvaluation:
    """The blocked matrix-product evaluators against the plain loops."""

    def linear_cuts(self, box):
        return (gen_rlt_mccormick(box, "both").cuts
                + gen_rlt_reverse_convex(box, "both").cuts)

    def assert_parity(self, box, X):
        cuts = self.linear_cuts(box)
        want = reference_linear(cuts, X)
        assert abs(evaluate_linear_cuts(cuts, X) - want) <= 1e-12 * box.scale()
        for cut in gen_rlt_conic(box).cuts:
            got, ref = cut.violation(X, box), reference_conic(cut, X, box)
            assert abs(got - ref) <= 1e-12 * box.scale() ** 2, cut.name
        return want

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_boxes_of_every_shape(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        box = random_box(rng, m, n, positive_lower=True)
        worst = self.assert_parity(box, off_set_points(box, 60, rng))
        # a 1x1 box's linear cuts hold at every nonnegative point
        assert worst > 0 or m * n == 1

    def test_zero_sum_points_are_skipped_in_r_space(self, rng):
        box = random_box(rng, 3, 2, positive_lower=True)
        X = off_set_points(box, 40, rng)
        X[::7] = 0.0
        assert self.assert_parity(box, X) > 0
        r_cuts = gen_rlt_mccormick(box, "r").cuts + gen_rlt_reverse_convex(box, "r").cuts
        want = reference_linear(r_cuts, X)
        assert want > 0
        assert abs(evaluate_linear_cuts(r_cuts, X) - want) <= 1e-12 * box.scale()
        assert evaluate_linear_cuts(r_cuts, np.zeros((5, 3, 2))) == 0.0

    def test_batch_longer_than_one_block(self, rng):
        box = random_box(rng, 2, 3, positive_lower=True)
        X = sample_rank_one_points(box, 2 * rank1._EVAL_BLOCK + 17, rng)
        cuts = self.linear_cuts(box)
        assert evaluate_linear_cuts(cuts, X) <= 1e-8 * box.scale()
        # one point off the set, in the last, partial block
        X[-3] = rng.uniform(0.0, box.scale(), size=(2, 3))
        want = reference_linear(cuts, X[-20:])
        assert want > 0
        assert abs(evaluate_linear_cuts(cuts, X) - want) <= 1e-12 * box.scale()
        for cut in gen_rlt_conic(box).cuts:
            ref = max(reference_conic(cut, X[:50], box),
                      reference_conic(cut, X[-50:], box),
                      cut.violation(X[50:-50], box))
            assert abs(cut.violation(X, box) - ref) <= 1e-12 * box.scale() ** 2

    def test_single_matrix(self, rng):
        box = random_box(rng, 3, 3, positive_lower=True)
        X = off_set_points(box, 1, rng)
        for P in X:
            self.assert_parity(box, P)

    @pytest.mark.parametrize("zero_l", [False, True])
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 4)])
    def test_conic_batch_matches_cut_by_cut(self, m, n, zero_l):
        rng = np.random.default_rng(10 * m + n)
        box = random_box(rng, m, n, positive_lower=True)
        if zero_l:
            box = make_box([0.0] * m, box.u, box.lp, box.up, box.L, box.U)
        X = off_set_points(box, 60, rng)
        cuts = gen_rlt_conic(box).cuts
        got = evaluate_conic_cuts(cuts, X, box)
        assert len(got) == len(cuts) == 3 * m * n
        tol = 1e-12 * box.scale() ** 2
        for cut, v in zip(cuts, got):
            assert abs(v - cut.violation(X, box)) <= tol, cut.name
            assert abs(v - reference_conic(cut, X, box)) <= tol, cut.name
        for cut, v in zip(cuts, evaluate_conic_cuts(cuts, X[0], box)):
            assert abs(v - reference_conic(cut, X[0], box)) <= tol, cut.name

    def test_empty_cut_list(self, rng):
        X = off_set_points(box22(), 10, rng)
        assert evaluate_linear_cuts([], X) == 0.0
        assert evaluate_linear_cuts([], X[0]) == 0.0

    def test_cut_whose_terms_cancel(self):
        # on a 1x1 box with l + l' = U the ll McCormick cut in r is 0 >= -const
        box = make_box([2], [4], [3], [6], 1, 5)
        cuts = gen_rlt_mccormick(box, "both").cuts
        assert any(cut.coeffs == () for cut in cuts)
        X = np.array([[[3.0]], [[0.0]], [[9.0]]])
        assert evaluate_linear_cuts(cuts, X) == pytest.approx(
            reference_linear(cuts, X), abs=1e-15)

    def test_hand_made_cuts(self):
        X = np.array([[[1.0, 2.0]], [[0.1, 0.1]], [[3.0, 1.0]]])
        eq = LinearCut("eq", ((("x", 0, 0), 1.0), (("x", 0, 1), 2.0)), "==", 1.0)
        le = LinearCut("le", ((("x", 0, 0), 1.0),), "<=", 0.5)
        ge = LinearCut("ge", ((("x", 0, 1), 1.0),), ">=", 3.0)
        le_r = LinearCut("le_r", ((("r", 0, 0), 1.0),), "<=", 0.25)
        # x00 + 2 x01 is 5, 0.3 and 5: 4 above and 0.7 below the rhs
        assert evaluate_linear_cuts([eq], X) == pytest.approx(4.0, abs=1e-15)
        assert evaluate_linear_cuts([eq], X[1]) == pytest.approx(0.7, abs=1e-15)
        assert evaluate_linear_cuts([le], X) == pytest.approx(2.5, abs=1e-15)
        assert evaluate_linear_cuts([ge], X) == pytest.approx(2.9, abs=1e-15)
        # r00 = x00 / (x00 + x01) is at most 0.75
        assert evaluate_linear_cuts([le_r], X) == pytest.approx(0.5, abs=1e-15)
        for cuts in ([eq], [le], [ge], [le_r], [eq, le, ge, le_r]):
            assert evaluate_linear_cuts(cuts, X) == pytest.approx(
                reference_linear(cuts, X), abs=1e-15)
