"""Robustness engine vs literal transcriptions of the definitions."""

import itertools
import random

import pytest
from hypothesis import given, settings

from swapstable import (
    Agent,
    InvalidInput,
    Objective,
    StableQuadruple,
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
    shifted_profile,
    stable_quadruples,
    swap_distance,
    swap_set,
    u_optimal,
    validate_profile,
)
from swapstable.oracle import brute_is_d_robust, enumerate_stable_bf
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


def brute_quadruples(p):
    quads = set()
    for m in enumerate_stable_bf(p):
        for (us, w), (u, ws) in itertools.permutations(m.pairs, 2):
            if p.rank_u[us, ws] >= p.len_u[us]:
                continue  # no finite threat: swaps never change acceptability
            quads.add(
                StableQuadruple(
                    u_star=Agent.u(us), w_star=Agent.w(ws), u=Agent.u(u), w=Agent.w(w)
                )
            )
    return quads


def test_stable_quadruples_match_costability_enumeration():
    rng = random.Random(3)
    nonempty = 0
    for p in random_profiles(60, 4, 4, 0.9, seed_base=77):
        want = brute_quadruples(p)
        got = set(stable_quadruples(p))
        assert got == want
        if want:
            nonempty += 1
            cap = rng.randint(1, 4)
            capped = set(stable_quadruples(p, max_swap_set_size=cap))
            assert capped == {q for q in want if len(swap_set(p, q).swaps) <= cap}
    assert nonempty > 20


def test_swap_set_realizes_the_threat():
    checked = 0
    for p in random_profiles(40, 4, 4, 1.0, seed_base=500):
        for q in itertools.islice(stable_quadruples(p), 6):
            ss = swap_set(p, q)
            shifted = shifted_profile(p, q)
            assert swap_distance(p, shifted) == len(ss.swaps)
            assert shifted.u_lists[q.u_star.index] == ss.shifted_list_u
            assert shifted.w_lists[q.w_star.index] == ss.shifted_list_w
            for m in enumerate_stable_bf(p):
                if (q.u_star.index, q.w.index) in m.pairs and (
                    q.u.index,
                    q.w_star.index,
                ) in m.pairs:
                    assert (q.u_star, q.w_star) in blocking_pairs(shifted, m)
            checked += 1
    assert checked > 30


def test_swap_set_rejects_non_quadruples():
    p = gen_random(3, 3, 1.0, seed=2)
    bogus = StableQuadruple(
        u_star=Agent.u(0), w_star=Agent.w(0), u=Agent.u(1), w=Agent.w(1)
    )
    if bogus in set(stable_quadruples(p)):
        bogus = StableQuadruple(
            u_star=Agent.u(0), w_star=Agent.w(1), u=Agent.u(1), w=Agent.w(0)
        )
        assert bogus not in set(stable_quadruples(p))
    with pytest.raises(InvalidInput):
        swap_set(p, bogus)


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


def test_negative_budgets_rejected():
    p = gen_random(3, 3, 1.0, seed=1)
    m = u_optimal(p)
    with pytest.raises(InvalidInput):
        is_d_robust(p, m, -1)
    with pytest.raises(InvalidInput):
        find_d_robust(p, -1)
    with pytest.raises(InvalidInput):
        find_d_robust_optimal(p, -1, Objective.EGALITARIAN)
