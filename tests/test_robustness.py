"""Robustness engine vs literal transcriptions of the definitions."""

import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings

from swapstable import (
    InvalidInput,
    Matching,
    Objective,
    blocking_pairs,
    closed_subsets,
    egalitarian_cost,
    find_d_robust,
    find_d_robust_optimal,
    gen_cyclic_latin,
    gen_example2,
    gen_example3,
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
    brute_solve_robust,
    enumerate_matchings,
    enumerate_stable_bf,
    profiles_within,
)
from swapstable import TooLarge, classic, oracle, robustness
from swapstable.robustness import _collect_constraints, _threats, _unshielded_pair
from swapstable.rotations import ALWAYS, NEVER

from helpers import constraints_by_pair, profiles, random_profiles


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
            arcs = _collect_constraints(p, dg, d)
            satisfying = [
                s
                for s in subsets
                if all(a in s | {ALWAYS} for a, b in arcs if b in s | {ALWAYS})
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
        assert _collect_constraints(p, rotation_digraph(p), 0) == set()


def run_walk_batch():
    """Seeded profiles for the run walk: complete, density 0.7 and 0.4,
    square and lopsided, a few larger ones, the Latin and crown families,
    and padded Latin squares, whose constraints are rarely infeasible."""
    batch = []
    for density, base in ((1.0, 5100), (0.7, 5200), (0.4, 5300)):
        for n_u, n_w in ((6, 6), (5, 7), (7, 4)):
            batch += random_profiles(15, n_u, n_w, density, seed_base=base + 10 * n_u + n_w)
        batch += random_profiles(2, 30, 30, density, seed_base=base + 500)
    batch += [gen_cyclic_latin(n) for n in range(2, 9)]
    batch += [gen_example2(n) for n in range(2, 9)]
    rng = random.Random(23)
    return batch + [padded_latin(rng.randint(2, 5), rng.randint(1, 3), rng) for _ in range(60)]


def test_run_walk_collects_what_the_per_pair_walk_does():
    kinds = Counter()
    for p in run_walk_batch():
        dg = rotation_digraph(p)
        for d in range(7):
            want = constraints_by_pair(p, dg, d)
            assert _collect_constraints(p, dg, d) == want
            kinds["none"] += (NEVER, ALWAYS) in want
            kinds["arcs"] += any(ALWAYS not in arc and NEVER not in arc for arc in want)
            kinds["forced"] += any(b == ALWAYS != a != NEVER for a, b in want)
            kinds["forbidden"] += any(a == NEVER != b != ALWAYS for a, b in want)
    assert min(kinds[k] for k in ("none", "arcs", "forced", "forbidden")) >= 20


def test_threats_per_pair_are_bounded_by_the_bounds_in_its_windows():
    # A pair's events change only where a split crosses a bound of one of
    # the two agents' runs, so it yields at most once per bound in its
    # windows [pos - d, pos] and [rb - d, rb], plus once, not d + 1 times.
    stepped = 0
    for p in run_walk_batch():
        dg = rotation_digraph(p)
        for d in range(7):
            per_pair = Counter((a, b) for a, b, _, _ in _threats(p, dg, d))
            for (a, b), count in per_pair.items():
                pos, rb = p.rank_u[a][b], p.rank_w[b][a]
                inside = sum(pos - d <= k <= pos for k in dg.u_runs[a][0])
                inside += sum(rb - d <= k <= rb for k in dg.w_runs[b][0])
                assert count <= inside + 1
                stepped += count > 1
    assert stepped >= 100


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


def test_optimal_solver_matches_the_oracle_solver():
    batch = []
    for n_u, n_w, density, base in ((2, 2, 1.0, 3400), (3, 3, 0.8, 3420), (4, 4, 1.0, 3440),
                                    (3, 4, 0.7, 3460), (4, 2, 1.0, 3480)):
        batch += random_profiles(8, n_u, n_w, density, seed_base=base)
    nones = perfect = 0
    for p in batch + [gen_example3()]:
        for d in (0, 1, 2):
            want = brute_solve_robust(p, d, Objective.EGALITARIAN)
            got = find_d_robust_optimal(p, d, Objective.EGALITARIAN)
            assert (got is None) == (want is None)
            if got is not None:
                assert egalitarian_cost(p, got) == egalitarian_cost(p, want)
            want = brute_solve_robust(p, d, Objective.PERFECT)
            got = find_d_robust_optimal(p, d, Objective.PERFECT)
            assert (got is None) == (want is None)
            nones += want is None
            perfect += want is not None
    assert nones >= 20 and perfect >= 20


def test_perfect_solve_builds_no_digraph_unless_u_optimal_is_perfect(monkeypatch):
    # every stable matching matches the agents u_optimal matches, so a
    # u_optimal that is not perfect answers None before the digraph
    def refuse(p):
        raise AssertionError("rotation digraph built")

    batch = [gen_example3()] + random_profiles(10, 4, 3, 1.0, seed_base=3500)
    batch += random_profiles(20, 5, 5, 0.4, seed_base=3520)
    imperfect = [p for p in batch if not is_perfect(p, u_optimal(p))]
    assert len(imperfect) >= 15
    monkeypatch.setattr(robustness, "rotation_digraph", refuse)
    for p in imperfect:
        for d in range(4):
            assert find_d_robust_optimal(p, d, Objective.PERFECT) is None


def test_optimal_solver_rejects_any_objective():
    p = gen_random(3, 3, 1.0, seed=0)
    with pytest.raises(InvalidInput):
        find_d_robust_optimal(p, 1, Objective.ANY)


def test_max_robustness_sits_on_the_boundary():
    for p in random_profiles(25, 3, 3, 1.0, seed_base=4500):
        d, m = max_robustness(p)
        assert is_d_robust(p, m, d)[0]
        if d <= 2:
            assert brute_is_d_robust(p, m, d)
        assert find_d_robust(p, d + 1) is None


def _linear_max_robustness(p):
    """max_robustness as an upward scan of find_d_robust, one call per d,
    up to the total-inversion bound, past which every profile in the ball
    has already appeared."""
    lists = p.u_lists + p.w_lists
    limit = sum(len(l) * (len(l) - 1) // 2 for l in lists)
    best = find_d_robust(p, 0)
    d = 0
    while d < limit:
        nxt = find_d_robust(p, d + 1)
        if nxt is None:
            break
        d, best = d + 1, nxt
    return d, best


def test_max_robustness_bisection_matches_the_linear_scan():
    # Latin squares reach every d up to their robustness, n - 1, so the
    # bisection meets every d; seeded random profiles are mostly 0- or
    # 1-robust
    cases = [gen_cyclic_latin(n) for n in range(1, 13)]
    cases += random_profiles(30, 4, 4, 0.8, seed_base=7100)
    cases += random_profiles(10, 6, 5, 1.0, seed_base=7200)
    cases += random_profiles(10, 5, 5, 0.25, seed_base=7300)
    # seeded profiles whose 1-robust witness is not the 0-robust one
    moved = [(3, 1.0, 101), (4, 1.0, 61), (5, 1.0, 206), (5, 1.0, 234), (5, 0.6, 66)]
    cases += [gen_random(n, n, density, seed) for n, density, seed in moved]
    for p in cases:
        assert max_robustness(p) == _linear_max_robustness(p)
    for p in cases[-len(moved):]:
        assert max_robustness(p)[1] != find_d_robust(p, 0)
    # Latin squares keep one stable matching, robust up to n - 1
    assert max_robustness(gen_cyclic_latin(12))[0] == 11


def test_robustness_stays_below_the_smaller_side():
    # when some list has two entries, some pair costs at most n_u swaps and
    # some at most n_w (see max_robustness), so no d >= min(n_u, n_w) is
    # feasible
    checked = 0
    for n_u, n_w in ((3, 3), (5, 5), (2, 5), (6, 3), (1, 4), (4, 1)):
        for density, base in ((1.0, 7400), (0.6, 7500), (0.3, 7600)):
            for p in random_profiles(10, n_u, n_w, density, seed_base=base + 10 * n_u + n_w):
                if max(map(len, p.u_lists + p.w_lists), default=0) < 2:
                    continue
                bound = min(p.n_u, p.n_w) - 1
                assert max_robustness(p)[0] <= bound
                assert find_d_robust(p, bound + 1) is None
                checked += 1
    assert checked >= 120


def test_oracle_caps_raise_too_large(monkeypatch):
    p = gen_random(3, 3, 1.0, seed=2)
    monkeypatch.setattr(oracle, "MATCHING_CAP", 2)
    with pytest.raises(TooLarge, match="side size 2, got 3x3"):
        next(enumerate_matchings(p))
    monkeypatch.setattr(oracle, "PROFILE_CAP", 5)
    for mode in ("global", "local"):
        with pytest.raises(TooLarge, match="exceeds 5 profiles"):
            list(profiles_within(p, 1, mode))


def test_oracle_local_check_refuses_a_large_u_product_at_once():
    # 20^6 = 64M choices of U lists; the uncapped odometer ran past 60 s
    p = gen_random(6, 6, 1.0, seed=5)
    m = Matching.from_pairs(6, 6, [(i, (i + 1) % 6) for i in range(6)])
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="exceeds %d profiles" % oracle.PROFILE_CAP):
        brute_is_locally_d_stable(p, m, 2)
    assert time.perf_counter() - start < 5


def test_oracle_refuses_bad_modes_and_objectives():
    p = gen_random(2, 2, 1.0, seed=3)
    with pytest.raises(InvalidInput, match="mode must be"):
        list(profiles_within(p, 1, "sideways"))
    with pytest.raises(InvalidInput, match="mode must be"):
        brute_solve_near(p, 1, "sideways", Objective.PERFECT)
    with pytest.raises(InvalidInput, match="needs an eta bound"):
        brute_solve_near(p, 1, "global", Objective.EGALITARIAN)
    with pytest.raises(InvalidInput, match="perfect or egalitarian"):
        brute_solve_near(p, 1, "local", Objective.ANY)


def test_perfect_robust_solve_rejects_a_negative_budget():
    # example 3 leaves agents unmatched, so no stable matching is perfect;
    # a negative budget is still an invalid input, not a negative answer
    p = gen_example3()
    with pytest.raises(InvalidInput):
        find_d_robust_optimal(p, -1, Objective.PERFECT)
    assert find_d_robust_optimal(p, 0, Objective.PERFECT) is None


def test_negative_budgets_rejected():
    p = gen_random(3, 3, 1.0, seed=1)
    m = u_optimal(p)
    with pytest.raises(InvalidInput):
        is_d_robust(p, m, -1)
    with pytest.raises(InvalidInput):
        find_d_robust(p, -1)
    with pytest.raises(InvalidInput):
        find_d_robust_optimal(p, -1, Objective.EGALITARIAN)
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


def gap_cost(p, m, a, b):
    """Swaps the pair (a, b) needs to block m, from list positions: on each
    matched side, how far the pair sits below the partner."""
    cost = 0
    if m.pu[a] >= 0:
        lst = p.u_lists[a]
        cost += max(lst.index(b) - lst.index(m.pu[a]), 0)
    if m.pw[b] >= 0:
        lst = p.w_lists[b]
        cost += max(lst.index(a) - lst.index(m.pw[b]), 0)
    return cost


def precheck_batch():
    """Seeded complete and sparse profiles, square and lopsided."""
    batch = []
    for density, base in ((1.0, 9100), (0.7, 9200), (0.4, 9300)):
        for n_u, n_w in ((4, 4), (5, 3), (3, 6), (6, 6)):
            batch += random_profiles(12, n_u, n_w, density, seed_base=base + 10 * n_u + n_w)
        batch += random_profiles(6, 12, 10, density, seed_base=base + 500)
    return batch + [gen_cyclic_latin(n) for n in range(2, 7)]


def test_unshielded_pair_rules_out_every_stable_matching():
    fired = 0
    for p in precheck_batch():
        dg = rotation_digraph(p)
        stable = list(enumerate_stable_bf(p)) if max(p.n_u, p.n_w) <= 6 else []
        for d in range(1, 5):
            pair = _unshielded_pair(p, d)
            if pair is None:
                continue
            fired += 1
            assert (NEVER, ALWAYS) in _collect_constraints(p, dg, d)
            for m in stable:
                assert pair not in m.pairs
                assert gap_cost(p, m, *pair) <= d
    assert fired >= 100


def test_unshielded_pair_is_exact_at_one_swap():
    # with one swap, a threat live from the start and never shielded is a
    # pair that one side ranks outside the range of its stable partners
    fired = 0
    for p in precheck_batch():
        pair = _unshielded_pair(p, 1)
        arcs = _collect_constraints(p, rotation_digraph(p), 1)
        assert (pair is None) == ((NEVER, ALWAYS) not in arcs)
        fired += pair is not None
    assert fired >= 50


def test_unshielded_pair_is_exact_with_one_stable_matching():
    # a Latin square's one stable matching is every agent's best and worst
    # stable partner, so every other pair ranks outside both ranges: the
    # check fires from d = n on, where every pair costs n
    for n in range(2, 9):
        p = gen_cyclic_latin(n)
        dg = rotation_digraph(p)
        assert dg.n == 0
        for d in range(1, n + 2):
            pair = _unshielded_pair(p, d)
            assert (pair is None) == ((NEVER, ALWAYS) not in _collect_constraints(p, dg, d))
            assert (pair is None) == (d < n)


def test_solvers_answer_alike_without_the_precheck(monkeypatch):
    batch = precheck_batch()
    objectives = (Objective.EGALITARIAN, Objective.PERFECT)

    def answers():
        out = []
        for p in batch:
            for d in range(5):
                out.append(find_d_robust(p, d))
                out += [find_d_robust_optimal(p, d, obj) for obj in objectives]
            out.append(max_robustness(p))
        return out

    with_check = answers()
    monkeypatch.setattr(robustness, "_unshielded_pair", lambda p, d: None)
    assert answers() == with_check
    assert sum(m is None for m in with_check) >= 100


def test_solvers_skip_the_precheck_at_zero_budget(monkeypatch):
    def refuse(p):
        raise AssertionError("w_optimal called at d=0")

    monkeypatch.setattr(classic, "w_optimal", refuse)
    for p in precheck_batch()[::7]:
        find_d_robust(p, 0)
        for obj in (Objective.EGALITARIAN, Objective.PERFECT):
            find_d_robust_optimal(p, 0, obj)


def test_a_solve_runs_deferred_acceptance_once(monkeypatch):
    # the digraph and the pre-check share the profile's U-optimal matching
    calls = []
    real = classic.u_optimal
    monkeypatch.setattr(classic, "u_optimal", lambda p: calls.append(p) or real(p))
    solved = 0
    for d in range(4):
        for p in precheck_batch():
            calls.clear()
            find_d_robust_optimal(p, d, Objective.EGALITARIAN)
            assert calls == [p]
            solved += 1
    p = gen_random(6, 6, 1.0, seed=3)
    calls.clear()
    max_robustness(p)
    assert calls == [p]
    assert solved >= 100


def test_max_robustness_runs_w_side_deferred_acceptance_once(monkeypatch):
    # the pre-check at each budget the bisection tries reads the profile's
    # one W-optimal matching
    calls = []
    real = classic.w_optimal
    monkeypatch.setattr(classic, "w_optimal", lambda p: calls.append(p) or real(p))
    for p in (gen_cyclic_latin(80), gen_random(60, 60, 1.0, 4)):
        calls.clear()
        max_robustness(p)
        assert calls == [p]
