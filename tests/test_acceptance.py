"""Acceptance gate: one test per shipped guarantee, exact tolerances.

Each test pins down one externally promised behavior end to end, at the
stated scale and time budget.  Anything here failing means the package
does not deliver what it claims; do not loosen a bound to get a run green.
"""

import math
import time

from swapstable import (
    INFINITE,
    Agent,
    Matching,
    Objective,
    SwapOp,
    apply_swap,
    closed_subsets,
    egalitarian_cost,
    egalitarian_deltas,
    example2_rotated_matching,
    example2_stable_matching,
    find_d_robust,
    find_d_robust_optimal,
    gen_cyclic_latin,
    gen_example1_fixture,
    gen_example2,
    gen_example3,
    gen_random,
    global_stabilization_cost,
    is_d_robust,
    is_locally_d_nearly_stable,
    is_perfect,
    is_stable,
    local_instability,
    matched_partition,
    matching_of,
    parse_profile,
    repair_after_swap,
    rotation_digraph,
    serialize_profile,
    solve_global_near,
    solve_local_near,
    tradeoff_curve,
    u_optimal,
)
from swapstable import oracle
from swapstable.oracle import (
    brute_global_cost,
    brute_is_d_robust,
    brute_is_locally_d_stable,
    enumerate_stable_bf,
)
from swapstable.robustness import _collect_constraints
from swapstable.rotations import ALWAYS, NEVER

from helpers import make_rng, random_matching, random_swap


def robust_battery():
    """The seeded instance set shared by the robustness gates."""
    batch = [gen_random(4, 4, 1.0, seed=s) for s in range(100)]
    batch += [gen_random(5, 5, 0.6, seed=s) for s in range(100, 200)]
    return batch


def test_crown_family_costs_and_witness(monkeypatch):
    start = time.perf_counter()
    for n in range(3, 9):
        p = gen_example2(n)
        m = example2_stable_matching(n)
        assert is_stable(p, m)
        assert rotation_digraph(p).n == 0
        if n <= 4:
            monkeypatch.setattr(oracle, "MATCHING_CAP", 2 * n)
            assert list(enumerate_stable_bf(p)) == [m]
        assert egalitarian_cost(p, m) == n * n - 1
        rotated = example2_rotated_matching(n)
        assert egalitarian_cost(p, rotated) == n + 1
        assert local_instability(p, rotated) == 1
        cost, witness = global_stabilization_cost(p, rotated)
        assert cost == 1
        b0_swap = apply_swap(p, SwapOp(Agent.w(0), Agent.u(0), Agent.u(n - 1)))
        assert witness == b0_swap
        assert is_stable(witness, rotated)
    curve = tradeoff_curve(gen_example2(3), "global", 1, Objective.EGALITARIAN)
    assert curve == [(0, 8), (1, 4)]
    assert time.perf_counter() - start < 10


def test_two_by_two_near_stability():
    start = time.perf_counter()
    p = gen_example3()
    assert list(enumerate_stable_bf(p)) == [Matching.from_pairs(2, 2, [(1, 0)])]
    part = matched_partition(p)
    assert part.matched_agents == frozenset({Agent.u(1), Agent.w(0)})
    assert part.unmatched_agents == frozenset({Agent.u(0), Agent.w(1)})
    perfect = Matching.from_pairs(2, 2, [(0, 0), (1, 1)])
    found, q = solve_global_near(p, 1, Objective.PERFECT)
    assert found == perfect
    assert is_stable(q, found)
    assert solve_local_near(p, 1, Objective.PERFECT) == perfect
    assert global_stabilization_cost(p, perfect)[0] == 1
    assert time.perf_counter() - start < 1


def test_robustness_checker_and_solver_match_brute_force():
    start = time.perf_counter()
    for p in robust_battery():
        stable = list(enumerate_stable_bf(p))
        for d in (0, 1, 2):
            any_robust = False
            for m in stable:
                want = brute_is_d_robust(p, m, d)
                assert is_d_robust(p, m, d)[0] == want
                any_robust = any_robust or want
            found = find_d_robust(p, d)
            assert (found is not None) == any_robust
            if found is not None:
                assert brute_is_d_robust(p, found, d)
    assert time.perf_counter() - start < 120


def test_rotation_lattice_bijection_and_weights():
    start = time.perf_counter()
    sizes = [(4, 4, 1.0), (5, 5, 0.8), (6, 6, 0.7), (6, 5, 0.9)]
    for k in range(100):
        n_u, n_w, density = sizes[k % len(sizes)]
        p = gen_random(n_u, n_w, density, seed=7000 + k)
        dg = rotation_digraph(p)
        subsets = list(closed_subsets(dg))
        produced = [matching_of(dg, s) for s in subsets]
        brute = list(enumerate_stable_bf(p))
        assert len(subsets) == len(brute)
        assert set(produced) == set(brute)
        delta = egalitarian_deltas(dg, p)
        base = egalitarian_cost(p, u_optimal(p))
        for s, m in zip(subsets, produced):
            assert egalitarian_cost(p, m) == base + sum(delta[r] for r in s)
    assert time.perf_counter() - start < 60


def test_egalitarian_robust_optimality():
    start = time.perf_counter()
    for k in range(100):
        n = 4 if k % 2 else 5
        p = gen_random(n, 5, 0.8 if k % 3 else 1.0, seed=5000 + k)
        stable = list(enumerate_stable_bf(p))
        classic = min(egalitarian_cost(p, m) for m in stable)
        for d in (0, 1, 2):
            robust = [m for m in stable if brute_is_d_robust(p, m, d)]
            got = find_d_robust_optimal(p, d, Objective.EGALITARIAN)
            if not robust:
                assert got is None
                continue
            assert brute_is_d_robust(p, got, d)
            assert egalitarian_cost(p, got) == min(
                egalitarian_cost(p, m) for m in robust
            )
            if d == 0:
                assert egalitarian_cost(p, got) == classic
    assert time.perf_counter() - start < 60


def test_extremal_robustness_of_latin_profiles():
    for n in (3, 4):
        p = gen_cyclic_latin(n)
        diagonal = Matching.from_pairs(n, n, [(i, i) for i in range(n)])
        found = find_d_robust(p, n - 1)
        assert found == diagonal
        if n == 3:
            assert brute_is_d_robust(p, diagonal, n - 1)
        assert is_d_robust(p, diagonal, n - 1)[0]
        assert find_d_robust(p, n) is None
        assert all(p.rank_u[i][found.pu[i]] == 0 for i in range(n))
        assert all(p.rank_w[j][found.pw[j]] == 0 for j in range(n))
        for k in range(n):
            assert len({p.u_lists[i][k] for i in range(n)}) == n
            assert len({p.w_lists[j][k] for j in range(n)}) == n


def test_near_stability_matches_brute_force():
    rng = make_rng(2024)
    for k in range(200):
        p = gen_random(4, 4, 0.75 if k % 2 else 1.0, seed=6000 + k)
        candidates = [u_optimal(p)] + [random_matching(p, rng) for _ in range(2)]
        for m in candidates:
            for d in (0, 1):
                assert is_locally_d_nearly_stable(p, m, d) == brute_is_locally_d_stable(
                    p, m, d
                )
            cost = global_stabilization_cost(p, m)[0]
            want = brute_global_cost(p, m, max_d=3)
            if want is None:
                assert cost is INFINITE or cost > 3
            else:
                assert cost == want[0]


def unmatched_agents(p, m):
    out = [Agent.u(i) for i in range(p.n_u) if m.pu[i] < 0]
    out += [Agent.w(j) for j in range(p.n_w) if m.pw[j] < 0]
    return out


def test_repair_keeps_stability_and_fates():
    rng = make_rng(99)
    trials = 0
    k = 0
    while trials < 500:
        n_u = 3 + (k % 4)
        n_w = 3 + ((k * 7) % 4)
        p = gen_random(n_u, n_w, 0.5 + 0.5 * ((k % 3) / 2), seed=9000 + k)
        k += 1
        s = random_swap(p, rng)
        if s is None:
            continue
        m = u_optimal(p)
        repaired = repair_after_swap(p, m, s)
        q = apply_swap(p, s)
        assert is_stable(q, repaired)
        before = {(a.side, a.index) for a in unmatched_agents(p, m)}
        after = {(a.side, a.index) for a in unmatched_agents(p, repaired)}
        assert len(before ^ after) <= 2
        trials += 1


def test_perfect_solving_prunes_soundly():
    count = 0
    k = 0
    while count < 100:
        if k % 3 == 0:
            p = gen_random(4, 2, 0.7, seed=9500 + k)
        elif k % 3 == 1:
            p = gen_random(4, 4, 0.4, seed=9500 + k)
        else:
            p = gen_random(5, 5, 0.3, seed=9500 + k)
        k += 1
        if p.n_u < 2:
            continue
        count += 1
        if p.n_u != p.n_w:
            for d in range(4):
                assert solve_global_near(p, d, Objective.PERFECT) is None
            continue
        gap = matched_partition(p).n_unmatched
        for d in range(math.ceil(gap / 2)):
            assert solve_global_near(p, d, Objective.PERFECT) is None


def test_monotonicity_and_degenerate_budgets():
    for s in range(40):
        p = gen_random(4, 4, 0.8, seed=400 + s)
        for m in enumerate_stable_bf(p):
            flags = [is_d_robust(p, m, d)[0] for d in range(4)]
            assert flags == sorted(flags, reverse=True)
        stable = list(enumerate_stable_bf(p))
        perfect_exists = matched_partition(p).n_unmatched == 0
        res = solve_global_near(p, 0, Objective.PERFECT)
        assert (res is not None) == perfect_exists
        if res is not None:
            assert is_stable(p, res[0]) and is_perfect(p, res[0])
        res = solve_local_near(p, 0, Objective.PERFECT)
        assert (res is not None) == perfect_exists
        classic = min(egalitarian_cost(p, m) for m in stable)
        found, q = solve_global_near(p, 0, Objective.EGALITARIAN, eta=classic)
        assert q == p and is_stable(p, found)
        assert egalitarian_cost(p, found) == classic
        assert solve_global_near(p, 0, Objective.EGALITARIAN, eta=classic - 1) is None
        found = solve_local_near(p, 0, Objective.EGALITARIAN, eta=classic)
        assert is_stable(p, found) and egalitarian_cost(p, found) == classic
    fuzzed = 0
    for k in range(1000):
        p = gen_random(1 + k % 6, 1 + (k * 3) % 6, (k % 10) / 10 + 0.05, seed=k)
        assert parse_profile(serialize_profile(p)) == p
        fuzzed += 1
    assert fuzzed == 1000


def test_lattice_fixture_facts():
    p = gen_example1_fixture()
    stable = list(enumerate_stable_bf(p))
    # the lattice M1 < M3 < {M4, M5} < M2 over u1..u4 / w1..w4
    targets = {
        frozenset(pairs)
        for pairs in (
            ((0, 1), (1, 2), (2, 3), (3, 0)),
            ((0, 0), (1, 1), (2, 2), (3, 3)),
            ((0, 2), (1, 3), (2, 0), (3, 1)),
            ((0, 0), (1, 3), (2, 2), (3, 1)),
            ((0, 2), (1, 1), (2, 0), (3, 3)),
        )
    }
    assert len(stable) == 5
    assert {m.pairs for m in stable} == targets
    dg = rotation_digraph(p)
    assert dg.n == 3
    assert dg.arcs == frozenset({(0, 1), (0, 2)})
    full = frozenset({0, 1, 2})
    target = matching_of(dg, full)
    robust = [m for m in stable if brute_is_d_robust(p, m, 1)]
    assert robust == [target]
    assert target.pairs == frozenset({(0, 0), (1, 1), (2, 2), (3, 3)})
    assert find_d_robust(p, 1) == target
    arcs = _collect_constraints(p, dg, 1)
    assert {a for a, b in arcs if b == ALWAYS} == {0}
    assert not any(a == NEVER for a, b in arcs)
    satisfying = [
        s
        for s in closed_subsets(dg)
        if all(a in s | {ALWAYS} for a, b in arcs if b in s | {ALWAYS})
    ]
    assert satisfying == [full]
