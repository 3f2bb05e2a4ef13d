"""Robustness engine vs literal transcriptions of the definitions."""

import itertools
import random

import pytest
from hypothesis import given, settings

from swapstable import (
    InvalidInput,
    Objective,
    blocking_pairs,
    closed_subsets,
    egalitarian_cost,
    find_d_robust,
    find_d_robust_optimal,
    gen_cyclic_latin,
    gen_example2,
    gen_random,
    is_d_robust,
    is_perfect,
    matching_of,
    max_robustness,
    rotation_digraph,
    swap_distance,
    u_optimal,
    validate_profile,
)
from swapstable.oracle import (
    brute_global_cost,
    brute_is_d_robust,
    brute_is_locally_d_stable,
    brute_solve_near,
    enumerate_stable_bf,
)
from swapstable.robustness import _collect_constraints

from helpers import profiles, random_profiles


@settings(max_examples=40, deadline=None)
@given(profiles(max_side=3, complete=True))
def test_checker_agrees_with_profile_ball_walk(p):
    for m in enumerate_stable_bf(p):
        for d in (0, 1, 2):
            assert is_d_robust(p, m, d)[0] == brute_is_d_robust(p, m, d)


def test_checker_witness_is_replayable():
    seen = 0
    for p in random_profiles(80, 4, 4, 0.8, seed_base=1200):
        for m in enumerate_stable_bf(p):
            for d in (0, 1, 2):
                ok, witness = is_d_robust(p, m, d)
                if ok:
                    assert witness is None
                    continue
                q, (u, w) = witness
                assert swap_distance(p, q) <= d
                assert (u, w) in blocking_pairs(q, m)
                seen += 1
    assert seen > 50


def test_robustness_is_downward_closed():
    for p in random_profiles(40, 4, 4, 1.0, seed_base=60):
        for m in enumerate_stable_bf(p):
            flags = [is_d_robust(p, m, d)[0] for d in range(5)]
            for lo, hi in itertools.pairwise(flags):
                assert lo or not hi


def test_solver_agrees_with_exhaustive_search():
    for p in random_profiles(60, 4, 4, 0.8, seed_base=2100):
        for d in (0, 1, 2):
            robust = [m for m in enumerate_stable_bf(p) if brute_is_d_robust(p, m, d)]
            found = find_d_robust(p, d)
            if robust:
                assert found is not None
                assert brute_is_d_robust(p, found, d)
            else:
                assert found is None


def padded_latin(n, fillers, rng):
    """Opposing cyclic-Latin core with filler couples that rank each other
    first.

    u_i ranks w_i, w_{i+1}, ... and w_j ranks u_{j+1}, u_{j+2}, ..., so the
    n cyclic shifts of the diagonal are all stable.  Each filler is
    inserted below the top of every core list of the other side; the gaps
    it opens make some shifts robust and leave others not.
    """
    u_lists = [[(i + k) % n for k in range(n)] for i in range(n)]
    w_lists = [[(j + 1 + k) % n for k in range(n)] for j in range(n)]
    for f in range(n, n + fillers):
        for lst in u_lists[:n]:
            lst.insert(rng.randint(1, len(lst)), f)
        for lst in w_lists[:n]:
            lst.insert(rng.randint(1, len(lst)), f)
        u_lists.append([f] + rng.sample(range(n), n))
        w_lists.append([f] + rng.sample(range(n), n))
    return validate_profile(u_lists, w_lists)


def test_constraints_select_exactly_the_robust_matchings():
    rng = random.Random(17)
    strict = 0
    for _ in range(300):
        p = padded_latin(rng.randint(2, 4), rng.randint(1, 3), rng)
        dg = rotation_digraph(p)
        subsets = list(closed_subsets(dg))
        for d in range(4):
            robust = [s for s in subsets if brute_is_d_robust(p, matching_of(dg, s), d)]
            constraints = _collect_constraints(p, dg, d)
            satisfying = []
            if constraints is not None:
                extra_arcs, forced, forbidden = constraints
                satisfying = [
                    s
                    for s in subsets
                    if forced <= s
                    and not (s & forbidden)
                    and all(a in s for a, b in extra_arcs if b in s)
                ]
            assert satisfying == robust
            strict += 0 < len(robust) < len(subsets)
    assert strict >= 10


def test_zero_budget_adds_no_constraints():
    # At d=0 a pair threatens a stable matching only by blocking it as it
    # stands, which the digraph already rules out for every closed set.
    batch = random_profiles(30, 6, 4, 1.0, seed_base=1200)
    batch += random_profiles(30, 4, 7, 0.7, seed_base=1300)
    batch += random_profiles(10, 30, 30, 0.15, seed_base=1400)
    batch += [gen_cyclic_latin(n) for n in range(2, 7)]
    batch += [gen_example2(n) for n in range(2, 7)]
    batch += random_profiles(3, 60, 60, 1.0, seed_base=0)
    for p in batch:
        assert _collect_constraints(p, rotation_digraph(p), 0) == (set(), set(), set())


def test_optimal_solver_matches_brute_optimum():
    for p in random_profiles(50, 4, 4, 0.8, seed_base=3300):
        for d in (0, 1, 2):
            robust = [m for m in enumerate_stable_bf(p) if brute_is_d_robust(p, m, d)]
            egal = find_d_robust_optimal(p, d, Objective.EGALITARIAN)
            if robust:
                assert egal is not None
                assert brute_is_d_robust(p, egal, d)
                assert egalitarian_cost(p, egal) == min(
                    egalitarian_cost(p, m) for m in robust
                )
            else:
                assert egal is None
            perfect = find_d_robust_optimal(p, d, Objective.PERFECT)
            if any(is_perfect(p, m) for m in robust):
                assert perfect is not None
                assert is_perfect(p, perfect)
                assert brute_is_d_robust(p, perfect, d)
            else:
                assert perfect is None


def test_optimal_solver_rejects_any_objective():
    p = gen_random(3, 3, 1.0, seed=0)
    with pytest.raises(InvalidInput):
        find_d_robust_optimal(p, 1, Objective.ANY)


def test_max_robustness_sits_on_the_boundary():
    hit = 0
    for p in random_profiles(25, 3, 3, 1.0, seed_base=4500):
        res = max_robustness(p, cap=10)
        if res is None:
            assert find_d_robust(p, 0) is None
            continue
        d, m = res
        assert is_d_robust(p, m, d)[0]
        if d <= 2:
            assert brute_is_d_robust(p, m, d)
        if d < 10:
            assert find_d_robust(p, d + 1) is None
        hit += 1
    assert hit > 15


def _linear_max_robustness(p, cap):
    """max_robustness as an upward scan of find_d_robust, one call per d."""
    lists = p.u_lists + p.w_lists
    limit = min(cap, sum(len(l) * (len(l) - 1) // 2 for l in lists))
    best = find_d_robust(p, 0)
    if best is None:
        return None
    d = 0
    while d < limit:
        nxt = find_d_robust(p, d + 1)
        if nxt is None:
            break
        d, best = d + 1, nxt
    return d, best


def test_max_robustness_bisection_matches_the_linear_scan():
    # Latin squares reach every d up to their robustness, so every cap
    # below it binds; seeded random profiles are mostly 0- or 1-robust
    cases = [(gen_cyclic_latin(n), n) for n in range(4, 13)]
    cases += [(gen_cyclic_latin(9), cap) for cap in range(9)]
    cases += [(p, 6) for p in random_profiles(30, 4, 4, 0.8, seed_base=7100)]
    cases += [(p, 12) for p in random_profiles(10, 6, 5, 1.0, seed_base=7200)]
    cases += [(p, 4) for p in random_profiles(10, 5, 5, 0.25, seed_base=7300)]
    # seeded profiles whose 1-robust witness is not the 0-robust one
    moved = [(3, 1.0, 101), (4, 1.0, 61), (5, 1.0, 206), (5, 1.0, 234), (5, 0.6, 66)]
    cases += [(gen_random(n, n, density, seed), 8) for n, density, seed in moved]
    for p, cap in cases:
        assert max_robustness(p, cap=cap) == _linear_max_robustness(p, cap)
    for p, _ in cases[-len(moved):]:
        assert max_robustness(p, cap=8)[1] != find_d_robust(p, 0)
    # Latin squares keep one stable matching, robust up to n - 1
    assert max_robustness(gen_cyclic_latin(12))[0] == 11


def test_negative_budgets_rejected():
    p = gen_random(3, 3, 1.0, seed=1)
    m = u_optimal(p)
    with pytest.raises(InvalidInput):
        is_d_robust(p, m, -1)
    with pytest.raises(InvalidInput):
        find_d_robust(p, -1)
    with pytest.raises(InvalidInput):
        find_d_robust_optimal(p, -1, Objective.EGALITARIAN)
    with pytest.raises(InvalidInput):
        max_robustness(p, cap=-1)
    # the brute-force mirrors refuse a negative budget as the engines do,
    # rather than answering for the empty ball
    with pytest.raises(InvalidInput):
        brute_is_d_robust(p, m, -1)
    with pytest.raises(InvalidInput):
        brute_global_cost(p, m, max_d=-1)
    with pytest.raises(InvalidInput):
        brute_is_locally_d_stable(p, m, -1)
    # no matching of a 3x2 profile is perfect: only the budget check refuses
    lopsided = gen_random(3, 2, 1.0, seed=1)
    for mode in ("global", "local"):
        for q in (p, lopsided):
            with pytest.raises(InvalidInput):
                brute_solve_near(q, -1, mode, Objective.PERFECT)
