"""OBBT and the OBBT recipe, on the bundled instances and on mining schedules."""

import functools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import poolkit.formulations
import poolkit.solver
import poolkit.tightening
from poolkit import parse_instance
from poolkit.bench import compute_gap
from poolkit.formulations import fvar
from poolkit.instances import (SOURCE, Demand, MiningSchedule, Supply,
                               content_hash, convert_mining)
from poolkit.relaxations import build_method, parse_method
from poolkit.solver import SolveParams, solve
from poolkit.tightening import (RECIPE_LABEL, BoundUpdate, TighteningError,
                                apply_bounds, default_obbt_recipe, obbt)
from conftest import DATA, make_schedule, milp_oracle, patch_mip_gap

# bental5 is left out: the restriction that sets its box runs for minutes
SWEEP_INSTANCES = ("adhya1", "adhya2", "adhya3", "adhya4", "bental4", "foulds2",
                   "haverly1", "haverly2", "haverly3")


def mcf_value(inst, basis="S"):
    return solve(build_method(inst, parse_method(f"MCF:{basis}")).model).objective


@functools.cache
def recipe_box(name, basis="T"):
    """The instance, an objective box that holds its optimum (the MCF value
    in ``basis`` below, the G1:H=3 restriction value above) and that
    restriction's point, a feasible point inside the box.  It is not
    default_obbt_recipe's box, which has no lower end and is always taken
    in the terminal basis."""
    inst = parse_instance(DATA / f"{name}.json")
    low = solve(build_method(inst, parse_method(f"MCF:{basis}")).model)
    high = solve(build_method(inst, parse_method(f"G1:{basis}:H=3")).model)
    assert low.status == high.status == "optimal"
    return inst, low.objective, high.objective, high.assignment


def sweep_slack(inst):
    return 1e-6 * max([1.0] + [a.u for a in inst.arcs.values() if math.isfinite(a.u)])


def throughput_flows(inst, nid):
    """The flow variables of a node's throughput: a source's outflow, any
    other node's inflow."""
    if inst.kind(nid) == SOURCE:
        return [fvar(nid, j) for j in inst.out_nbrs[nid]]
    return [fvar(j, nid) for j in inst.in_nbrs[nid]]


def sweep_targets(inst, basis):
    """Every OBBT target as (kind, key, the flow variables it sums), in the
    sweep's order: arcs, ghost pairs and nodes, each sorted."""
    return ([("arc", key, [fvar(*key)]) for key in sorted(inst.arcs)]
            + [("ghost", key, [fvar(*key)]) for key in sorted(inst.ghost_pairs(basis))]
            + [("node", nid, throughput_flows(inst, nid)) for nid in sorted(inst.nodes)])


class TestOBBT:
    def test_haverly1_closes_all_f_gaps(self, haverly1):
        upd = default_obbt_recipe(haverly1)
        # F4:T implies the MCF:T bound, so the box has no lower end
        assert upd.z_box == pytest.approx((-math.inf, -400.0))
        inst = apply_bounds(haverly1, upd)
        for label in ["F1:S", "F2:S", "F3:S", "F4:S"]:
            res = solve(build_method(inst, parse_method(label)).model)
            assert compute_gap(-400.0, res.objective) == pytest.approx(0.0, abs=0.05)

    def test_soundness_optimum_preserved(self, haverly3):
        from poolkit.bench import exact_value
        upd = default_obbt_recipe(haverly3)
        inst = apply_bounds(haverly3, upd)
        ev = exact_value(inst)
        assert ev.value == pytest.approx(-750.0, rel=1e-4)

    def test_monotone_second_pass(self, haverly2):
        upd1 = default_obbt_recipe(haverly2)
        inst1 = apply_bounds(haverly2, upd1)
        upd2 = obbt(inst1, "F4:T", *upd1.z_box, workers=4)
        for key, (lo, hi) in upd2.arc_bounds.items():
            arc = inst1.arcs[key]
            assert lo >= arc.l - 1e-7 and hi <= arc.u + 1e-7

    def test_worker_count_does_not_change_result(self, haverly1):
        a = obbt(haverly1, "MCF:T", -500.0, -400.0, workers=1)
        b = obbt(haverly1, "MCF:T", -500.0, -400.0, workers=4)
        assert a.arc_bounds == b.arc_bounds
        assert a.node_bounds == b.node_bounds
        assert a.ghost_bounds == b.ghost_bounds

    def test_unchanged_target_provenance(self, haverly1):
        upd = obbt(haverly1, "MCF:T", -1e6, 1e6, workers=1)
        # with a vacuous objective box some targets keep their bounds
        assert any(tag == "unchanged" for tag in upd.provenance.values())

    def test_spent_budget_raises_before_any_solve(self, haverly1, monkeypatch):
        # no solve could finish, so the update would tighten nothing
        started = []
        monkeypatch.setattr(poolkit.tightening, "Session",
                            lambda *a, **kw: started.append("Session"))
        monkeypatch.setattr(poolkit.tightening, "solve",
                            lambda *a, **kw: started.append("solve"))
        with pytest.raises(TighteningError, match="no time"):
            default_obbt_recipe(haverly1, params=SolveParams(time_limit_s=0.0))
        assert started == []

    def test_the_recipe_reads_its_own_cache(self, haverly1, tmp_path, monkeypatch):
        work = []
        session_solve = poolkit.solver.Session.solve

        def solved(self, *args, **kw):
            work.append("solve")
            return session_solve(self, *args, **kw)

        def built(inst, spec):
            work.append(spec.label())
            return build_method(inst, spec)

        monkeypatch.setattr(poolkit.solver.Session, "solve", solved)
        monkeypatch.setattr(poolkit.tightening, "build_method", built)
        first = default_obbt_recipe(haverly1, cache_dir=str(tmp_path))
        assert {"solve", "G2:T:H=3", "F4:T"} <= set(work)
        work.clear()
        again = default_obbt_recipe(haverly1, cache_dir=str(tmp_path))
        assert work == []   # no model is built or solved on a cache hit
        assert [p.name for p in tmp_path.iterdir()] == [
            f"{content_hash(haverly1)}-{RECIPE_LABEL}.json"]
        assert again.to_json() == first.to_json()

    @pytest.mark.parametrize("keep", [0, 0.5])
    def test_a_torn_cache_file_is_a_miss(self, haverly1, tmp_path, keep):
        # a run killed while writing leaves the start of the file (or none
        # of it); every later run read it and raised JSONDecodeError
        fresh = default_obbt_recipe(haverly1).to_json()
        path = tmp_path / f"{content_hash(haverly1)}-{RECIPE_LABEL}.json"
        path.write_text(fresh[:int(keep * len(fresh))])
        assert default_obbt_recipe(haverly1, cache_dir=str(tmp_path)).to_json() == fresh
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_text() == fresh

    def test_bad_box_rejected(self, haverly1):
        with pytest.raises(TighteningError):
            obbt(haverly1, "MCF:T", 10.0, -10.0)

    @pytest.mark.parametrize("relax", ["G1:S:H=1", "G2:T:H=3"])
    def test_a_restriction_is_rejected(self, haverly1, relax):
        # a sweep over G1:S:H=1 ran, and on adhya4 its update took F4:T to
        # -880.97, above the proven optimum -1103.93
        with pytest.raises(TighteningError, match="restriction"):
            obbt(haverly1, relax)

    def test_infeasible_box_diagnostic(self, haverly1):
        with pytest.raises(TighteningError, match="infeasible"):
            obbt(haverly1, "MCF:T", 1e6, 2e6)  # far beyond any feasible cost

    def test_identity_update_is_noop(self, haverly1):
        inst = apply_bounds(haverly1, BoundUpdate())
        assert inst.arcs == haverly1.arcs
        assert inst.nodes == haverly1.nodes

    def test_empty_interval_reported(self, haverly1):
        upd = BoundUpdate(node_bounds={"p1": (250.0, 200.0)})
        with pytest.raises(TighteningError, match="empty interval"):
            apply_bounds(haverly1, upd)

    def test_a_crossing_within_rounding_is_empty(self, haverly1):
        # kept as [100, 99.99999995], it made every block box of p1 raise BoxError
        upd = BoundUpdate(node_bounds={"p1": (100.0, 100.0 - 5e-8)})
        with pytest.raises(TighteningError, match="empty interval"):
            apply_bounds(haverly1, upd)

    def test_json_round_trip(self, haverly1):
        upd = default_obbt_recipe(haverly1)
        back = BoundUpdate.from_json(upd.to_json())
        assert back.arc_bounds == upd.arc_bounds
        assert back.node_bounds == upd.node_bounds
        assert back.z_box == pytest.approx(upd.z_box)


def recipe_restrictions(inst, monkeypatch):
    """The update of default_obbt_recipe(inst) and the restriction labels
    it built, in order."""
    built = []

    def spy(inst, spec):
        built.append(spec.label())
        return build_method(inst, spec)

    monkeypatch.setattr(poolkit.tightening, "build_method", spy)
    upd = default_obbt_recipe(inst)
    return upd, [label for label in built if label.startswith("G")]


class TestRecipeBox:
    """default_obbt_recipe's box ends at the lesser of the G2:T:H=3 and
    G1:T:H=3 values, the second solved only while F4:T over G2's sweep
    leaves room below G2's value, and the update, the sweep at that box,
    names the restriction that gave it."""

    @pytest.mark.parametrize("name,g1_runs", [
        ("foulds2", False), ("adhya4", False), ("haverly1", False),
        ("bental5", False), ("haverly3", True), ("bental4", True),
        ("adhya1", True)])
    def test_g1_runs_only_while_the_sweep_leaves_room(self, name, g1_runs,
                                                      monkeypatch):
        # on haverly3 and bental4, G1:T:H=3 lowers G2's value: -720 to -750
        # and -425 to -450
        inst = parse_instance(DATA / f"{name}.json")
        labels = ["G2:T:H=3"] + ["G1:T:H=3"] * g1_runs
        assert recipe_restrictions(inst, monkeypatch)[1] == labels

    @pytest.mark.parametrize("name", ["foulds2", "adhya4"])
    def test_the_stop_moves_no_bit(self, name, monkeypatch):
        inst = parse_instance(DATA / f"{name}.json")
        stopped = default_obbt_recipe(inst)
        monkeypatch.setattr(poolkit.tightening, "bounds_meet", lambda lo, hi: False)
        upd, labels = recipe_restrictions(inst, monkeypatch)
        assert labels == ["G2:T:H=3", "G1:T:H=3"]
        assert upd.to_json() == stopped.to_json()

    def test_the_update_is_the_sweep_at_the_final_box(self, haverly3):
        upd = default_obbt_recipe(haverly3)
        assert upd.z_witness == "G1:T:H=3"
        assert upd.z_box[1] == pytest.approx(-750.0, rel=1e-9)
        sweep = obbt(haverly3, "F4:T", -math.inf, upd.z_box[1])
        sweep.z_witness = upd.z_witness
        assert upd.to_json() == sweep.to_json()
        g2 = solve(build_method(haverly3, parse_method("G2:T:H=3")).model).objective
        assert g2 == pytest.approx(-720.0, rel=1e-9)
        g2_sweep = obbt(haverly3, "F4:T", -math.inf, g2)
        g2_sweep.z_witness = upd.z_witness
        assert upd.to_json() != g2_sweep.to_json()

    @pytest.mark.parametrize("name,witness", [("haverly3", "G1:T:H=3"),
                                              ("foulds2", "G2:T:H=3"),
                                              ("adhya4", "G2:T:H=3")])
    def test_upper_end_is_the_lesser_restriction_value(self, name, witness):
        inst, _, g1, _ = recipe_box(name)
        values = {"G1:T:H=3": g1, "G2:T:H=3": solve(
            build_method(inst, parse_method("G2:T:H=3")).model).objective}
        upd = default_obbt_recipe(inst)
        assert upd.z_box[1] == pytest.approx(min(values.values()), rel=1e-9)
        assert upd.z_witness == witness
        assert values[witness] == pytest.approx(upd.z_box[1], rel=1e-9)

    def test_witness_round_trips(self, haverly3):
        upd = default_obbt_recipe(haverly3)
        assert BoundUpdate.from_json(upd.to_json()).z_witness == upd.z_witness != ""

    def test_a_rejected_point_gives_no_upper_end(self, haverly1, monkeypatch):
        # every restriction point goes through the check, the first too
        checked = []

        def rejects(bm, assignment):
            checked.append(assignment)
            return SimpleNamespace(ok=False)

        monkeypatch.setattr(poolkit.formulations, "check_solution", rejects)
        upd = default_obbt_recipe(haverly1)
        assert len(checked) == 2
        assert upd.z_box == (-math.inf, math.inf)
        assert upd.z_witness == ""

    def test_bental5_recipe_finishes(self, data_dir):
        # its G1:T:H=3 alone runs for minutes; the stop rule skips it, since
        # F4:T over G2's sweep meets G2's value
        inst = parse_instance(data_dir / "bental5.json")
        upd = default_obbt_recipe(inst, SolveParams(time_limit_s=20))
        assert upd.z_witness == "G2:T:H=3"


class OneShotSession:
    """The Session interface on scipy.optimize.milp: a fresh HiGHS model per
    solve.  Its results carry no ``point``, so a sweep on it skips no solve:
    the unfiltered reference for the warm, filtered sweep."""

    def __init__(self, cm):
        self.cm = cm

    def solve(self, params=None, c=None):
        return milp_oracle(self.cm, params, c)


def assert_same_update(a, b):
    assert a.provenance == b.provenance
    for kind in ("node_bounds", "arc_bounds", "ghost_bounds"):
        sa, sb = getattr(a, kind), getattr(b, kind)
        assert sa.keys() == sb.keys()
        for key in sa:
            for x, y in zip(sa[key], sb[key]):
                assert x == y or (math.isfinite(x) and
                                  abs(x - y) <= 1e-9 * max(1.0, abs(x))), (kind, key)


def solved_sides(sides, solves):
    """Which of ``sides`` (cost tuples) the recorded ``solves`` (cost
    tuples, in whatever order) ran, matched to the sides by cost vector: one
    solve of a cost vector serves every side that has it, whatever their
    bounds.  None when the solves do not fit the sides: a solve that is no
    side's, or a cost vector solved twice."""
    solved = set(solves)
    if len(solved) < len(solves) or not solved <= set(sides):
        return None
    return [costs in solved for costs in sides]


def spied_sweep(monkeypatch, inst, relax, z_lb, z_ub, params=None):
    """Run the sweep with a spy on Session.solve (undoing every patch of
    ``monkeypatch`` after it).  Returns the update, the compiled model, the
    sweep's sides as (kind, key, costs, bound), each target's min then its
    max, and which of those sides the sweep solved."""
    models, solves = [], []
    session_solve = poolkit.solver.Session.solve

    def spy(self, params=None, c=None):
        models.append(self.cm)
        if c is not None:
            solves.append(tuple(c))
        return session_solve(self, params, c)

    monkeypatch.setattr(poolkit.solver.Session, "solve", spy)
    upd = obbt(inst, relax, z_lb, z_ub, params=params)
    monkeypatch.undo()
    cm = models[0]
    assert all(m is cm for m in models)
    sides = []
    for kind, key, flows in sweep_targets(inst, parse_method(relax).basis):
        c = np.zeros(len(cm.names))
        for v in flows:
            if v in cm.index:
                c[cm.index[v]] = 1.0
        if not c.any():
            continue
        lo, hi = inst.interval(kind, key)
        # min c.x proves lo' and max c.x proves hi' = -min(-c.x); the side
        # keeps its bound when lo' <= lo + slack, or -hi' <= -hi + slack
        sides += [(kind, key, c, lo), (kind, key, -c, -hi)]
    assert len(sides) == 2 * len(upd.provenance)
    ran = solved_sides([tuple(c) for _, _, c, _ in sides], solves)
    assert ran is not None
    return upd, cm, sides, ran


def assert_skips_sound(monkeypatch, inst, relax, z_lb, z_ub, params=None):
    """Run the sweep; solve every side it skipped one-shot, and check that
    the side could not have moved its bound past the slack.  The sweep must
    skip at least one side."""
    _, cm, sides, ran = spied_sweep(monkeypatch, inst, relax, z_lb, z_ub, params)
    slack = sweep_slack(inst)
    assert not all(ran)
    skipped = [side for side, solved in zip(sides, ran) if not solved]
    for kind, key, costs, bound in skipped:
        res = milp_oracle(cm, params, costs)
        assert res.status == "optimal", (kind, key)
        assert res.dual_bound <= bound + slack, (kind, key, res.dual_bound)


class TestSessionSweep:
    """obbt on one warm-started Session against the same costs solved one
    by one through scipy.optimize.milp."""

    @pytest.mark.parametrize("name", SWEEP_INSTANCES)
    def test_f4_sweep_matches_one_shot(self, name, monkeypatch):
        inst, z_lb, z_ub, _ = recipe_box(name)
        warm = obbt(inst, "F4:T", z_lb, z_ub)
        monkeypatch.setattr(poolkit.tightening, "Session", OneShotSession)
        assert_same_update(warm, obbt(inst, "F4:T", z_lb, z_ub))

    def test_f4_sweeps_solve_each_cost_vector_once(self, monkeypatch):
        # the nine sweeps in the recipe_box boxes, base solves included; with
        # one solve per side they made 311 solves, 56 of which repeated a
        # cost vector already solved on their session
        solves = []
        session_solve = poolkit.solver.Session.solve

        def spy(self, params=None, c=None):
            solves.append((self, None if c is None else tuple(c)))
            return session_solve(self, params, c)

        boxes = [recipe_box(name) for name in SWEEP_INSTANCES]
        monkeypatch.setattr(poolkit.solver.Session, "solve", spy)
        for inst, z_lb, z_ub, _ in boxes:
            obbt(inst, "F4:T", z_lb, z_ub)
        assert len(set(solves)) == len(solves) <= 256

    @pytest.mark.parametrize("recipe,ratio", [(False, 0.8), (True, 0.82)],
                             ids=["recipe_box", "recipe"])
    def test_f4_sweeps_take_a_fifth_fewer_simplex_iterations(self, recipe, ratio,
                                                             monkeypatch):
        # the nine sweeps, base solves included, nearest side first against
        # the same sweeps in target order (each target's min, then its max),
        # in the recipe_box boxes and in default_obbt_recipe's (no lower
        # end); HiGHS 1.12.0 (scipy 1.17.1) counts 3,343 against 4,241 and
        # 3,395 against 4,183 simplex iterations (ratios 0.79 and 0.81)
        boxes = [recipe_box(name) for name in SWEEP_INSTANCES]
        iterations = []
        session_solve = poolkit.solver.Session.solve

        def spy(self, params=None, c=None):
            res = session_solve(self, params, c)
            iterations.append(res.iterations)
            return res

        def target_order(pending, gap):
            n = len(pending) // 2
            return min(np.flatnonzero(pending), key=lambda k: (k % n, k // n))

        def total():
            iterations.clear()
            for inst, z_lb, z_ub, _ in boxes:
                obbt(inst, "F4:T", -math.inf if recipe else z_lb, z_ub)
            return sum(iterations)

        monkeypatch.setattr(poolkit.solver.Session, "solve", spy)
        nearest = total()
        monkeypatch.setattr(poolkit.tightening, "_nearest_side", target_order)
        fixed = total()
        assert 0 < nearest <= ratio * fixed

    @pytest.mark.parametrize("gap", [None, 0.5])
    def test_mip_relaxation_takes_dual_bounds(self, haverly1, monkeypatch, gap):
        # with a loose gap the incumbents stop short of the dual bounds;
        # None keeps REL_TOL
        if gap is not None:
            patch_mip_gap(monkeypatch, gap)
        warm = obbt(haverly1, "M1:T:H=1", -500.0, -400.0)
        assert any(tag != "unchanged" for tag in warm.provenance.values())
        monkeypatch.setattr(poolkit.tightening, "Session", OneShotSession)
        assert_same_update(warm, obbt(haverly1, "M1:T:H=1", -500.0, -400.0))

    @pytest.mark.parametrize("name", SWEEP_INSTANCES)
    def test_f4_skipped_solves_could_not_tighten(self, name, monkeypatch):
        inst, z_lb, z_ub, _ = recipe_box(name)
        assert_skips_sound(monkeypatch, inst, "F4:T", z_lb, z_ub)

    def test_mip_skipped_solves_could_not_tighten(self, haverly1, monkeypatch):
        assert_skips_sound(monkeypatch, haverly1, "M1:T:H=1", -500.0, -400.0)

    # k = 0 stops the sweep right after its base solve
    @pytest.mark.parametrize("name,k", [("adhya3", 0), ("adhya3", 1), ("adhya3", 20),
                                        ("adhya4", 30), ("foulds2", 15), ("haverly1", 7)])
    def test_budget_spent_mid_sweep(self, name, k, monkeypatch):
        inst, z_lb, z_ub, _ = recipe_box(name)
        full = obbt(inst, "F4:T", z_lb, z_ub)
        target_solves = []
        session_solve = poolkit.solver.Session.solve

        def counted(self, params=None, c=None):
            target_solves.append(c is not None)
            return session_solve(self, params, c)

        monkeypatch.setattr(poolkit.solver.Session, "solve", counted)
        monkeypatch.setattr(poolkit.solver.Budget, "spent",
                            property(lambda self: sum(target_solves) >= k))
        part, _, sides, ran = spied_sweep(monkeypatch, inst, "F4:T", z_lb, z_ub)
        assert sum(target_solves) == k
        bounds = {"arc": (part.arc_bounds, full.arc_bounds),
                  "ghost": (part.ghost_bounds, full.ghost_bounds),
                  "node": (part.node_bounds, full.node_bounds)}
        claims = (("obbt-min", "obbt-min-max"), ("obbt-max", "obbt-min-max"))

        def fits(i):
            """Whether side i (a target's min, then its max) fits having
            been solved (its bound is the full sweep's) and having been left
            (its old bound, with a tag that does not claim it)."""
            kind, key, _, _ = sides[i]
            end = i % 2
            got = bounds[kind][0][key][end]
            want = bounds[kind][1][key][end]
            solved = got == want or abs(got - want) <= 1e-9 * max(1.0, abs(want))
            left = (got == inst.interval(kind, key)[end]
                    and part.provenance[f"{kind}:{key}"] not in claims[end])
            return solved, left

        for i, solved in enumerate(ran):
            fit_solved, fit_left = fits(i)
            assert fit_solved if solved else fit_left, sides[i][:2]

    # no bundled instance has a terminal-basis ghost pair; the source-basis
    # cases (whose G1:S:H=3 restrictions solve in well under a second) have
    # ghost intervals to check
    @pytest.mark.parametrize("name,basis", [(n, "T") for n in SWEEP_INSTANCES]
                             + [(n, "S") for n in ("bental4", "haverly1",
                                                   "haverly2", "haverly3")])
    def test_f4_sweep_keeps_the_restriction_point(self, name, basis):
        # the G1:H=3 point is feasible and inside the objective box, so
        # every tightened interval must hold it
        inst, z_lb, z_ub, point = recipe_box(name, basis)
        relax = f"F4:{basis}"
        upd = obbt(inst, relax, z_lb, z_ub)
        assert any(tag != "unchanged" for tag in upd.provenance.values())
        slack = sweep_slack(inst)
        bounds = {"arc": upd.arc_bounds, "ghost": upd.ghost_bounds,
                  "node": upd.node_bounds}
        checked = 0
        for kind, key, names in sweep_targets(inst, parse_method(relax).basis):
            if key not in bounds[kind]:
                continue
            old = inst.interval(kind, key)
            lo, hi = bounds[kind][key]
            value = sum(point[v] for v in names)
            assert old[0] <= lo <= hi <= old[1], (kind, key)
            assert lo - slack <= value <= hi + slack, (kind, key, value)
            checked += 1
        assert checked == len(upd.provenance)

    @pytest.mark.parametrize("name", SWEEP_INSTANCES)
    def test_each_tag_names_the_sides_that_moved(self, name):
        inst, z_lb, z_ub, _ = recipe_box(name)
        upd = obbt(inst, "F4:T", z_lb, z_ub)
        bounds = {"arc": upd.arc_bounds, "ghost": upd.ghost_bounds,
                  "node": upd.node_bounds}
        tag = {(False, False): "unchanged", (True, False): "obbt-min",
               (False, True): "obbt-max", (True, True): "obbt-min-max"}
        tags = Counter()
        for kind, table in bounds.items():
            for key, (lo, hi) in table.items():
                old = inst.interval(kind, key)
                want = tag[lo != old[0], hi != old[1]]
                assert upd.provenance[f"{kind}:{key}"] == want, (kind, key)
                tags[want] += 1
        assert sum(tags.values()) == len(upd.provenance)
        assert tags["unchanged"] < len(upd.provenance)

    def test_zero_budget_base_solve_raises(self, haverly1):
        with pytest.raises(TighteningError, match="ran out of time"):
            obbt(haverly1, "F4:T", -500.0, -400.0,
                 params=SolveParams(time_limit_s=0.0))


class TestBoundUpdate:
    def test_crossed_interval_raises(self):
        upd = BoundUpdate()
        with pytest.raises(TighteningError, match="empty interval for arc"):
            upd.record("arc", ("a", "b"), (0.0, 1.0), (2.0, 3.0))
        assert upd.arc_bounds == {} and upd.provenance == {}

    def test_crossing_within_the_slack_is_kept(self):
        upd = BoundUpdate()
        upd.record("node", "p", (0.0, 1.0), (1.0 + 1e-7, 2.0), slack=1e-6)
        assert upd.node_bounds["p"] == pytest.approx((1.0 - 9e-7, 1.0))

    def test_unknown_ghost_pair_raises(self, haverly1):
        # bounds-cache files come from outside the program
        upd = BoundUpdate(ghost_bounds={("zz", "yy"): (0.0, 1.0)})
        with pytest.raises(TighteningError, match="unknown ghost"):
            apply_bounds(haverly1, upd)

    def test_physical_arc_as_ghost_key_raises(self, haverly1):
        assert ("A", "p1") in haverly1.arcs
        upd = BoundUpdate(ghost_bounds={("A", "p1"): (0.0, 1.0)})
        with pytest.raises(TighteningError, match="unknown ghost"):
            apply_bounds(haverly1, upd)


class TestMiningTighten:
    """The OBBT recipe on converted mining schedules gives, within the
    sweep's slack, each bound of the structural pass it replaced, numbered
    by that pass's steps: supply arcs, demand terminals, pool-to-terminal
    arcs, then the carry arcs between pools."""

    def test_step1_supply_pins_source_and_arc(self):
        sched = MiningSchedule(("sp1",), (Supply("sp1", 1.0, 10.0, (1.0,)),), ())
        inst = convert_mining(sched)
        upd = default_obbt_recipe(inst)
        assert upd.node_bounds["s:sp1:1"] == (10.0, 10.0)
        lo, hi = upd.arc_bounds[("s:sp1:1", "i:sp1:1")]
        assert 10.0 - sweep_slack(inst) <= lo <= hi <= 10.0

    def test_step2_terminal_pins_demand(self):
        inst = convert_mining(make_schedule(2, 2, 3))
        upd = default_obbt_recipe(inst)
        for t in inst.terminals:
            lo, hi = upd.node_bounds[t]
            assert inst.nodes[t].U - sweep_slack(inst) <= lo <= hi <= inst.nodes[t].U

    def test_step3_formula_and_lp_cross_check(self):
        # two pools feeding one terminal with demand 8; the other pool can
        # carry at most 5, so at least 3 units must use this arc
        sched = MiningSchedule(
            ("a", "b"),
            (Supply("a", 1.0, 10.0, (1.0,)), Supply("b", 2.0, 5.0, (1.0,))),
            (Demand(3.0, 8.0, (2.0,), (1.0,)),))
        inst = convert_mining(sched)
        upd = default_obbt_recipe(inst)
        lo, hi = upd.arc_bounds[("i:a:1", "t:3")]
        assert 8.0 - 5.0 - sweep_slack(inst) <= lo
        # cross-check by minimizing the arc flow over the MCF relaxation
        built = build_method(inst, parse_method("MCF:S"))
        model = built.model
        model.set_objective({"f[i:a:1,t:3]": 1.0})
        res = solve(model)
        assert res.objective >= lo - 1e-7

    def test_sound_for_mcf_value(self):
        sched = make_schedule(4, 3, 5)
        inst = convert_mining(sched)
        before = mcf_value(inst)
        tightened = apply_bounds(inst, default_obbt_recipe(inst))
        after = mcf_value(tightened)
        assert after == pytest.approx(before, abs=1e-6 * max(1.0, abs(before)))

    def test_surplus_cap_limits_carry_arcs(self):
        # one early demand consumes everything: the carry arc after it is 0
        sched = MiningSchedule(
            ("a",),
            (Supply("a", 1.0, 6.0, (1.0,)), Supply("a", 5.0, 4.0, (1.0,))),
            (Demand(2.0, 6.0, (2.0,), (1.0,)),))
        inst = convert_mining(sched)
        upd = default_obbt_recipe(inst)
        lo, hi = upd.arc_bounds[("i:a:1", "i:a:5")]
        assert hi <= sweep_slack(inst)
