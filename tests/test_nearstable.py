"""Near-stability: per-list and total swap budgets, solvers, repair."""

import sys

import pytest
from hypothesis import given, settings

from swapstable import (
    INFINITE,
    Agent,
    Error,
    InvalidInput,
    Matching,
    NotNearlyStable,
    Objective,
    SwapOp,
    apply_swap,
    egalitarian_cost,
    gen_random,
    global_stabilization_cost,
    is_locally_d_nearly_stable,
    is_perfect,
    is_stable,
    local_instability,
    near_stability_report,
    repair_after_swap,
    solve_global_near,
    solve_local_near,
    swap_distance,
    tradeoff_curve,
    u_optimal,
    validate_profile,
    witness_profile_local,
)
from swapstable import nearstable
from swapstable.oracle import (
    brute_global_cost,
    brute_is_locally_d_stable,
    brute_solve_near,
    enumerate_stable_bf,
)

from helpers import make_rng, profiles, random_matching, random_profiles, random_swap


def list_inversions(old, new):
    pos = {x: k for k, x in enumerate(new)}
    return sum(
        1
        for a in range(len(old))
        for b in range(a + 1, len(old))
        if pos[old[a]] > pos[old[b]]
    )


def two_unmatched_blockers():
    p = validate_profile([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    return p, Matching.empty(2, 2)


@settings(max_examples=60, deadline=None)
@given(profiles(max_side=4))
def test_local_budget_check_agrees_with_ball_walk(p):
    rng = make_rng(13)
    for _ in range(3):
        m = random_matching(p, rng)
        for d in (0, 1):
            assert is_locally_d_nearly_stable(p, m, d) == brute_is_locally_d_stable(
                p, m, d
            )


def test_local_instability_is_the_threshold():
    rng = make_rng(21)
    for p in random_profiles(60, 4, 4, 0.8, seed_base=8000):
        for _ in range(3):
            m = random_matching(p, rng)
            bound = local_instability(p, m)
            if bound is INFINITE:
                assert not is_locally_d_nearly_stable(p, m, 10)
                continue
            assert is_locally_d_nearly_stable(p, m, bound)
            if bound > 0:
                assert not is_locally_d_nearly_stable(p, m, bound - 1)


def test_local_witness_stays_within_budget():
    rng = make_rng(34)
    produced = 0
    for p in random_profiles(80, 4, 4, 0.9, seed_base=8100):
        m = random_matching(p, rng)
        bound = local_instability(p, m)
        if bound is INFINITE:
            continue
        q = witness_profile_local(p, m, bound)
        assert is_stable(q, m)
        for old, new in zip(p.u_lists + p.w_lists, q.u_lists + q.w_lists):
            assert sorted(old) == sorted(new)
            assert list_inversions(old, new) <= bound
        produced += 1
        if bound > 0:
            with pytest.raises(NotNearlyStable):
                witness_profile_local(p, m, bound - 1)
    assert produced > 30


def test_failed_witness_check_raises_error(monkeypatch):
    p = gen_random(4, 4, 1.0, seed=2)
    m = random_matching(p, make_rng(2), skip_chance=0.0)
    monkeypatch.setattr(nearstable, "is_stable", lambda q, m: False)
    with pytest.raises(Error, match="local witness"):
        witness_profile_local(p, m, local_instability(p, m))


def test_unmatched_blockers_cost_infinity():
    p, m = two_unmatched_blockers()
    assert local_instability(p, m) is INFINITE
    assert global_stabilization_cost(p, m) == (INFINITE, None)
    report = near_stability_report(p, m)
    assert report.local_bound is INFINITE
    assert report.global_cost is INFINITE
    assert report.witness_local is None and report.witness_global is None


def test_global_cost_agrees_with_ball_walk():
    rng = make_rng(55)
    finite = 0
    for p in random_profiles(60, 4, 4, 0.8, seed_base=8200):
        m = random_matching(p, rng)
        cost, q = global_stabilization_cost(p, m)
        want = brute_global_cost(p, m, max_d=3)
        if want is None:
            assert cost is INFINITE or cost > 3
        else:
            assert cost == want[0]
        if cost is INFINITE:
            assert q is None
            continue
        assert swap_distance(p, q) == cost
        assert is_stable(q, m)
        finite += 1
    assert finite > 30


def test_stable_matchings_cost_nothing():
    for p in random_profiles(20, 4, 4, 0.9, seed_base=8300):
        m = u_optimal(p)
        assert local_instability(p, m) == 0
        assert global_stabilization_cost(p, m) == (0, p)
        report = near_stability_report(p, m)
        assert report.local_bound == 0 and report.global_cost == 0
        assert report.witness_local == p and report.witness_global == p


def test_report_mirrors_both_engines():
    rng = make_rng(77)
    for p in random_profiles(25, 4, 4, 0.8, seed_base=8400):
        m = random_matching(p, rng)
        report = near_stability_report(p, m)
        assert report.local_bound == local_instability(p, m)
        assert report.global_cost == global_stabilization_cost(p, m)[0]
        if report.local_bound is not INFINITE:
            assert is_stable(report.witness_local, m)
        if report.global_cost is not INFINITE:
            assert swap_distance(p, report.witness_global) == report.global_cost


def test_global_solver_agrees_with_ball_walk():
    for p in random_profiles(30, 3, 3, 0.8, seed_base=8500):
        for d in (0, 1, 2):
            res = solve_global_near(p, d, Objective.PERFECT)
            want = brute_solve_near(p, d, "global", Objective.PERFECT)
            assert (res is None) == (want is None)
            if res is not None:
                m, q = res
                assert swap_distance(p, q) <= d
                assert is_stable(q, m)
                assert is_perfect(p, m)
            eta = egalitarian_cost(p, u_optimal(p)) if p.n_u else 0
            res = solve_global_near(p, d, Objective.EGALITARIAN, eta=eta)
            want = brute_solve_near(p, d, "global", Objective.EGALITARIAN, eta=eta)
            assert (res is None) == (want is None)
            if res is not None:
                m, q = res
                assert swap_distance(p, q) <= d
                assert is_stable(q, m)
                assert egalitarian_cost(p, m) <= eta


def test_local_solver_agrees_with_ball_walk():
    for p in random_profiles(30, 3, 3, 0.8, seed_base=8600):
        for d in (0, 1):
            res = solve_local_near(p, d, Objective.PERFECT)
            want = brute_solve_near(p, d, "local", Objective.PERFECT)
            assert (res is None) == (want is None)
            if res is not None:
                assert is_perfect(p, res)
                assert is_locally_d_nearly_stable(p, res, d)
            eta = egalitarian_cost(p, u_optimal(p)) - 1
            res = solve_local_near(p, d, Objective.EGALITARIAN, eta=eta)
            want = brute_solve_near(p, d, "local", Objective.EGALITARIAN, eta=eta)
            assert (res is None) == (want is None)
            if res is not None:
                assert egalitarian_cost(p, res) <= eta
                assert is_locally_d_nearly_stable(p, res, d)


def test_local_search_is_not_bounded_by_recursion_limit():
    # u_i and w_i accept only each other, so the search is n levels deep
    n = sys.getrecursionlimit() + 100
    p = validate_profile([[i] for i in range(n)], [[i] for i in range(n)])
    m = solve_local_near(p, 0, Objective.PERFECT)
    assert m.sorted_pairs() == [(i, i) for i in range(n)]
    assert tradeoff_curve(p, "local", 0, Objective.EGALITARIAN) == [(0, 0)]


def test_solver_input_validation():
    p = gen_random(3, 3, 1.0, seed=4)
    with pytest.raises(InvalidInput):
        solve_global_near(p, -1, Objective.PERFECT)
    with pytest.raises(InvalidInput):
        solve_local_near(p, 1, Objective.ANY)
    with pytest.raises(InvalidInput):
        solve_global_near(p, 1, Objective.EGALITARIAN)


def test_repair_preserves_stability_and_most_fates():
    rng = make_rng(91)
    repaired = 0
    for p in random_profiles(150, 5, 5, 0.7, seed_base=8700):
        stable = list(enumerate_stable_bf(p))
        m = rng.choice(stable)
        s = random_swap(p, rng)
        if s is None:
            continue
        m2 = repair_after_swap(p, m, s)
        q = apply_swap(p, s)
        assert is_stable(q, m2)
        before = {i for i in range(p.n_u) if m.pu[i] < 0} | {
            -j - 1 for j in range(p.n_w) if m.pw[j] < 0
        }
        after = {i for i in range(p.n_u) if m2.pu[i] < 0} | {
            -j - 1 for j in range(p.n_w) if m2.pw[j] < 0
        }
        assert len(before ^ after) <= 2
        repaired += 1
    assert repaired > 100


def test_repair_requires_a_stable_start():
    p, m = two_unmatched_blockers()
    s = SwapOp(Agent.u(0), Agent.w(0), Agent.w(1))
    with pytest.raises(InvalidInput):
        repair_after_swap(p, m, s)


def test_tradeoff_curves_improve_with_budget():
    for p in random_profiles(12, 3, 3, 0.8, seed_base=8800):
        for mode in ("global", "local"):
            perfect = tradeoff_curve(p, mode, 2, Objective.PERFECT)
            assert [d for d, _ in perfect] == [0, 1, 2]
            values = [v for _, v in perfect]
            assert all(not a or b for a, b in zip(values, values[1:]))
            solver = solve_global_near if mode == "global" else solve_local_near
            for d, v in perfect:
                assert v == (solver(p, d, Objective.PERFECT) is not None)
            egal = tradeoff_curve(p, mode, 2, Objective.EGALITARIAN)
            costs = [v for _, v in egal]
            assert all(a >= b for a, b in zip(costs, costs[1:]))
            for d, v in egal:
                if v is INFINITE:
                    continue
                assert solver(p, d, Objective.EGALITARIAN, eta=v) is not None
                assert solver(p, d, Objective.EGALITARIAN, eta=v - 1) is None


def test_tradeoff_input_validation():
    p = gen_random(3, 3, 1.0, seed=6)
    with pytest.raises(InvalidInput):
        tradeoff_curve(p, "sideways", 2, Objective.PERFECT)
    with pytest.raises(InvalidInput):
        tradeoff_curve(p, "global", 2, Objective.ANY)
    with pytest.raises(InvalidInput):
        tradeoff_curve(p, "global", -1, Objective.PERFECT)
