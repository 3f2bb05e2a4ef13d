"""Near-stability: per-list and total swap budgets, solvers, repair."""

import sys
import time

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
    Profile,
    SwapOp,
    TooLarge,
    apply_swap,
    blocking_indices,
    blocking_pairs,
    egalitarian_cost,
    find_d_robust,
    find_d_robust_optimal,
    gen_cyclic_latin,
    gen_example2,
    gen_example3,
    gen_random,
    global_stabilization_cost,
    is_d_robust,
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
from swapstable._flow import FlowNetwork
from swapstable.oracle import (
    brute_global_cost,
    brute_is_locally_d_stable,
    brute_solve_near,
    enumerate_stable_bf,
    profiles_within,
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
            message = "matching has local instability %d, budget was %d" % (bound, bound - 1)
            with pytest.raises(NotNearlyStable, match="^%s$" % message):
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
    # an infinite bound passed back in still has no witness
    for p, m in (two_unmatched_blockers(), (gen_example3(), Matching.empty(2, 2))):
        assert local_instability(p, m) is INFINITE
        with pytest.raises(NotNearlyStable):
            witness_profile_local(p, m, INFINITE)


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


def defuse_costs(p, m, i, j):
    """Swaps each endpoint of blocking pair (u_i, w_j) needs, from list
    positions: how far its partner sits below the blocker; INFINITE when
    the endpoint is unmatched."""
    pi, pj = m.pu[i], m.pw[j]
    lu, lw = p.u_lists[i], p.w_lists[j]
    cu = INFINITE if pi < 0 else lu.index(pi) - lu.index(j)
    cw = INFINITE if pj < 0 else lw.index(pj) - lw.index(i)
    return cu, cw


def unit_chain_cost(p, m):
    """Reference cut model: one chain node per unit step of each agent."""
    needs = []
    max_u = {}
    max_w = {}
    for ua, wa in blocking_pairs(p, m):
        i, j = ua.index, wa.index
        cu, cw = defuse_costs(p, m, i, j)
        if cu is INFINITE and cw is INFINITE:
            return (INFINITE, None)
        needs.append((i, j, cu, cw))
        if cu is not INFINITE:
            max_u[i] = max(max_u.get(i, 0), cu)
        if cw is not INFINITE:
            max_w[j] = max(max_w.get(j, 0), cw)
    inf_cap = 1 + sum(max_u.values()) + sum(max_w.values())
    arcs = []
    for i, top in max_u.items():
        for k in range(1, top + 1):
            arcs.append(("s", ("u", i, k), 1))
            if k > 1:
                arcs.append((("u", i, k - 1), ("u", i, k), inf_cap))
    for j, top in max_w.items():
        for k in range(1, top + 1):
            arcs.append((("w", j, k), "t", 1))
            if k > 1:
                arcs.append((("w", j, k), ("w", j, k - 1), inf_cap))
    for i, j, cu, cw in needs:
        if cu is INFINITE:
            arcs.append(("s", ("w", j, cw), inf_cap))
        elif cw is INFINITE:
            arcs.append((("u", i, cu), "t", inf_cap))
        else:
            arcs.append((("u", i, cu), ("w", j, cw), inf_cap))
    # number the tuple nodes for the int-numbered network
    ids = {"s": 0, "t": 1}
    for a, b, _ in arcs:
        ids.setdefault(a, len(ids))
        ids.setdefault(b, len(ids))
    net = FlowNetwork(len(ids))
    for a, b, c in arcs:
        net.add_edge(ids[a], ids[b], c)
    cost = net.max_flow(ids["s"], ids["t"])
    sink_ids = net.sink_side(ids["t"])
    sink = {x for x, k in ids.items() if k in sink_ids}
    u_lists = p.u_lists
    w_lists = p.w_lists
    for i, top in max_u.items():
        steps = sum(1 for k in range(1, top + 1) if ("u", i, k) in sink)
        u_lists = nearstable._promote(u_lists, i, m.pu[i], steps)
    for j, top in max_w.items():
        steps = sum(1 for k in range(1, top + 1) if ("w", j, k) not in sink)
        w_lists = nearstable._promote(w_lists, j, m.pw[j], steps)
    return (cost, Profile(u_lists, w_lists, p.u_names, p.w_names))


def test_threshold_chains_match_unit_chains():
    rng = make_rng(4242)
    one_sided = 0
    for k in range(60):
        n = 4 + k % 17
        p = gen_random(n, n, 1.0 if k % 2 else 0.4, seed=8600 + k)
        m = random_matching(p, rng, skip_chance=0.1 if k % 3 else 0.0)
        cost, q = global_stabilization_cost(p, m)
        want_cost, want_q = unit_chain_cost(p, m)
        assert cost == want_cost
        if want_q is None:
            assert q is None
            continue
        assert (q.u_lists, q.w_lists) == (want_q.u_lists, want_q.w_lists)
        one_sided += any(
            INFINITE in defuse_costs(p, m, ua.index, wa.index)
            for ua, wa in blocking_pairs(p, m)
        )
    assert one_sided >= 10


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


def test_checkers_answer_alike_from_the_callers_blocking_list(monkeypatch):
    # bps=blocking_indices(p, m) replaces the checkers' own scan and
    # changes nothing else, on finite and infinite bounds alike
    rng = make_rng(31)
    cases = []
    for n, density in ((4, 0.8), (6, 0.5), (8, 1.0), (12, 0.3)):
        for p in random_profiles(15, n, n, density, seed_base=9100 + 100 * n):
            # skip_chance 0 leaves no two unmatched agents that accept each other
            cases += [(p, random_matching(p, rng, 0.0)), (p, random_matching(p, rng, 0.6))]
    scans = []
    original = nearstable.blocking_indices

    def counted(p, m):
        scans.append(m)
        return original(p, m)

    monkeypatch.setattr(nearstable, "blocking_indices", counted)
    infinite = finite = 0
    for p, m in cases:
        bps = original(p, m)
        local = local_instability(p, m)
        assert local_instability(p, m, bps=bps) == local
        assert global_stabilization_cost(p, m, bps=bps) == global_stabilization_cost(p, m)
        if local is INFINITE:
            infinite += 1
            for kw in ({}, {"bps": bps}):
                with pytest.raises(NotNearlyStable):
                    witness_profile_local(p, m, INFINITE, **kw)
        else:
            finite += 1
            want = witness_profile_local(p, m, local)
            assert witness_profile_local(p, m, local, bps=bps) == want
    assert infinite >= 10 and finite >= 50
    # each call without bps scanned once, and no call with bps did
    assert len(scans) == 3 * len(cases)


BUDGET_ENTRY_POINTS = {
    "find_d_robust": lambda p, m, d: find_d_robust(p, d),
    "find_d_robust_optimal": lambda p, m, d: find_d_robust_optimal(p, d, Objective.PERFECT),
    "is_d_robust": is_d_robust,
    "tradeoff_curve": lambda p, m, d: tradeoff_curve(p, "local", d, Objective.PERFECT),
    "profiles_within": lambda p, m, d: list(profiles_within(p, d, "global")),
    "brute_is_locally_d_stable": brute_is_locally_d_stable,
    "brute_solve_near": lambda p, m, d: brute_solve_near(p, d, "local", Objective.PERFECT),
    "is_locally_d_nearly_stable": is_locally_d_nearly_stable,
    "witness_profile_local": witness_profile_local,
    "solve_local_near": lambda p, m, d: solve_local_near(p, d, Objective.PERFECT),
    "solve_global_near": lambda p, m, d: solve_global_near(p, d, Objective.PERFECT),
}
# entry points whose budget bounds a slice or a range
FINITE_BUDGETS = {
    "find_d_robust", "find_d_robust_optimal", "is_d_robust", "tradeoff_curve",
    "profiles_within", "brute_is_locally_d_stable", "brute_solve_near",
}


@pytest.mark.parametrize(
    "name, budget",
    [(name, budget) for name in BUDGET_ENTRY_POINTS for budget in (1.5, 0.5, 1.0, None, "1")]
    + [(name, INFINITE) for name in sorted(FINITE_BUDGETS)],
)
def test_budgets_that_are_not_integers_are_refused(name, budget):
    # a stable matching, so only the budget check can refuse the call
    p = gen_example2(2)
    with pytest.raises(InvalidInput):
        BUDGET_ENTRY_POINTS[name](p, u_optimal(p), budget)


def test_infinite_budgets_still_answer_where_no_range_reaches():
    p = gen_example2(2)
    m = u_optimal(p)
    for name in set(BUDGET_ENTRY_POINTS) - FINITE_BUDGETS:
        assert BUDGET_ENTRY_POINTS[name](p, m, INFINITE)


def sparse_profiles(seed_base):
    """Seeded 3x4, 4x3 and 4x4 profiles at density 0.5: unequal sides, and
    stable matchings that leave agents unmatched, which the perfect
    solvers rule out or bound by the unmatched count without searching."""
    sizes = [(3, 4), (4, 3), (4, 4)] * 3
    return [gen_random(n_u, n_w, 0.5, seed=seed_base + k) for k, (n_u, n_w) in enumerate(sizes)]


def test_global_solver_agrees_with_ball_walk():
    # The oracle walks the ball closest profile first, so its witness lies
    # at the least distance any qualifying matching needs; the solver
    # returns a matching of least global cost with that cost's witness.
    moved = 0
    for p in random_profiles(30, 3, 3, 0.8, seed_base=8500) + sparse_profiles(8550):
        for d in (0, 1, 2):
            res = solve_global_near(p, d, Objective.PERFECT)
            want = brute_solve_near(p, d, "global", Objective.PERFECT)
            assert (res is None) == (want is None)
            if res is not None:
                m, q = res
                assert swap_distance(p, q) == swap_distance(p, want[1]) <= d
                assert global_stabilization_cost(p, m) == (swap_distance(p, q), q)
                assert is_stable(q, m)
                assert is_perfect(p, m)
                moved += swap_distance(p, q) > 0
            eta = egalitarian_cost(p, u_optimal(p)) if p.n_u else 0
            for bound in (eta, eta - 1):
                res = solve_global_near(p, d, Objective.EGALITARIAN, eta=bound)
                want = brute_solve_near(
                    p, d, "global", Objective.EGALITARIAN, eta=bound
                )
                assert (res is None) == (want is None)
                if res is not None:
                    m, q = res
                    assert swap_distance(p, q) == swap_distance(p, want[1]) <= d
                    assert is_stable(q, m)
                    assert egalitarian_cost(p, m) <= bound
                    moved += swap_distance(p, q) > 0
    assert moved >= 10


def oracle_curve(p, mode, d_max, objective):
    """tradeoff_curve's answer derived from brute_solve_near alone."""
    if objective == Objective.PERFECT:
        return [
            (d, brute_solve_near(p, d, mode, objective) is not None)
            for d in range(d_max + 1)
        ]
    # The cheapest stable matching qualifies at every budget, and values
    # only fall as d grows, so each budget lowers the previous bound.
    eta = min(egalitarian_cost(p, m) for m in enumerate_stable_bf(p))
    out = []
    for d in range(d_max + 1):
        while brute_solve_near(p, d, mode, objective, eta=eta - 1) is not None:
            eta -= 1
        out.append((d, eta))
    return out


def test_global_tradeoff_agrees_with_oracle():
    cases = [
        gen_random(n, n, 1.0 if k % 2 else 0.7, seed=9100 + k)
        for k, n in enumerate([3, 3, 3, 4] * 10)
    ]
    cases += [gen_example3(), gen_example2(2), gen_cyclic_latin(3)]
    falling = 0
    for p in cases:
        for objective in (Objective.PERFECT, Objective.EGALITARIAN):
            curve = tradeoff_curve(p, "global", 2, objective)
            assert curve == oracle_curve(p, "global", 2, objective)
            falling += curve[0][1] != curve[-1][1]
    assert falling >= 10


def test_local_solver_agrees_with_ball_walk():
    for p in random_profiles(30, 3, 3, 0.8, seed_base=8600) + sparse_profiles(8650):
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


def test_search_cap_raises_too_large(monkeypatch):
    # eta below every stable matching's cost: u_optimal does not qualify,
    # so the global solver has to search
    p = gen_random(5, 5, 1.0, seed=11)
    eta = min(egalitarian_cost(p, m) for m in enumerate_stable_bf(p)) - 1
    assert solve_global_near(p, 2, Objective.EGALITARIAN, eta=eta) is not None
    monkeypatch.setattr(nearstable, "SEARCH_CAP", 3)
    with pytest.raises(TooLarge, match="3 nodes"):
        solve_global_near(p, 2, Objective.EGALITARIAN, eta=eta)
    with pytest.raises(TooLarge):
        tradeoff_curve(p, "local", 1, Objective.EGALITARIAN)


def bound_cases():
    """Seeded toy profiles: sparse and complete, some with n_w = n_u + 1."""
    cases = []
    for k in range(16):
        n = 3 + k % 2
        cases.append(gen_random(n, n + (k % 4 == 3), (0.6, 0.8, 1.0)[k % 3], seed=9300 + k))
    return cases + [gen_example3(), gen_example2(2), gen_cyclic_latin(3)]


def search_order(p):
    """Every matching, in the order the search reaches its leaves, unpruned:
    U agents by index, partners in preference order, unmatched last."""

    def extend(i, pairs, used):
        if i == p.n_u:
            yield Matching.from_pairs(p.n_u, p.n_w, pairs)
            return
        for j in p.u_lists[i]:
            if j not in used:
                yield from extend(i + 1, pairs + [(i, j)], used | {j})
        yield from extend(i + 1, pairs, used)

    return list(extend(0, [], frozenset()))


def test_search_bounds_are_admissible():
    # At every prefix of the search, each bound is at most the least value
    # over all completions of that prefix, found by brute force.
    bites = {False: 0, True: 0}
    for p in bound_cases():
        prospects = nearstable._prospects(p)
        cheap = nearstable._cheap_partners(p)
        leaves = []
        for m in search_order(p):
            pu = m.pu
            leaves.append((pu, egalitarian_cost(p, m), {
                False: local_instability(p, m),
                True: nearstable._stabilization_cut(p, m, blocking_indices(p, m))[0],
            }))
        for depth in range(p.n_u + 1):
            prefixes = {}
            for pu, egal, level in leaves:
                least = prefixes.setdefault(tuple(pu[:depth]), [INFINITE, {False: INFINITE, True: INFINITE}])
                least[0] = min(least[0], egal)
                for additive in (False, True):
                    least[1][additive] = min(least[1][additive], level[additive])
            for prefix, (egal, level) in prefixes.items():
                pu = list(prefix) + [-1] * (p.n_u - depth)
                pw = [-1] * p.n_w
                for i, j in enumerate(prefix):
                    if j >= 0:
                        pw[j] = i
                decided = sum(
                    len(p.u_lists[i]) if j < 0 else p.rank_u[i][j] + p.rank_w[j][i]
                    for i, j in enumerate(prefix)
                )
                lost = sum(
                    len(p.w_lists[j])
                    for j in range(p.n_w)
                    if pw[j] < 0 and not any(j in p.u_lists[i] for i in range(depth, p.n_u))
                )
                assert decided + lost + nearstable._frame_floor(pw, depth, cheap)[0] <= egal
                for additive in (False, True):
                    least = level[additive]
                    if least is INFINITE:
                        continue
                    assert not nearstable._prefix_conflict(p, pu, pw, depth, least, prospects, additive)
                    if least > 0:
                        single, summed = (
                            nearstable._prefix_conflict(p, pu, pw, depth, least - 1, prospects, a)
                            for a in (False, True)
                        )
                        bites[additive] += (summed and not single) if additive else single
    # the bounds are not vacuous: the single-pair test drops prefixes one
    # below the local optimum, and the disjoint-pair sum drops some that the
    # single-pair test keeps one below the global optimum
    assert bites[False] > 0 and bites[True] > 0


def floor_by_definition(p, pw, start):
    """Each U agent from u_start on adds the cheaper of staying unmatched
    (its list length) and its least rank_u + rank_w over W agents free in pw."""
    return sum(
        min([len(lst)] + [p.rank_u[i][j] + p.rank_w[j][i] for j in lst if pw[j] < 0])
        for i, lst in enumerate(p.u_lists)
        if i >= start
    )


def test_frame_floor_is_exact():
    # The frame for u_i floors u_{i+1}, ... once, with u_0..u_{i-1}
    # decided; each option j of u_i must then read the floor with j taken.
    rose = 0
    for p in bound_cases():
        cheap = nearstable._cheap_partners(p)
        prefixes = {tuple(m.pu[:i]) for m in search_order(p) for i in range(p.n_u)}
        for prefix in prefixes:
            i = len(prefix)
            pw = [-1] * p.n_w
            for k, j in enumerate(prefix):
                if j >= 0:
                    pw[j] = k
            floor, rises = nearstable._frame_floor(pw, i + 1, cheap)
            assert floor == floor_by_definition(p, pw, i + 1)
            assert all(pw[j] < 0 for j in rises)
            for j in range(p.n_w):
                if pw[j] < 0:
                    pw[j] = i
                    assert floor + rises.get(j, 0) == floor_by_definition(p, pw, i + 1)
                    pw[j] = -1
            rose += sum(r > 0 for r in rises.values())
    assert rose > 0


def pinned_searches():
    """(profile, mode, search nodes per budget 1, 2 of its egalitarian
    curve at max-d 2), counted before the floor was kept per frame."""
    return [
        (gen_random(12, 12, 1.0, 1), "global", [4905, 7626]),
        (gen_random(12, 12, 1.0, 1), "local", [5979, 9050]),
        (gen_random(14, 14, 0.5, 2), "global", [2995, 1544]),
        (gen_random(14, 14, 0.5, 2), "local", [2342, 209]),
    ]


def test_search_work_is_pinned(monkeypatch):
    # Each search completes with SEARCH_CAP at its recorded node count and
    # raises TooLarge at one less, so neither the bounds nor the order of
    # the search can change unnoticed.
    for p, mode, counts in pinned_searches():
        monkeypatch.undo()  # the curve's own searches run under the real cap
        curve = [v for _, v in tradeoff_curve(p, mode, 2, Objective.EGALITARIAN)]
        for d, nodes in enumerate(counts, start=1):
            monkeypatch.setattr(nearstable, "SEARCH_CAP", nodes)
            best = nearstable._search(p, d, Objective.EGALITARIAN, curve[d - 1], mode, least="cost")
            assert egalitarian_cost(p, best) == curve[d]
            monkeypatch.setattr(nearstable, "SEARCH_CAP", nodes - 1)
            with pytest.raises(TooLarge):
                nearstable._search(p, d, Objective.EGALITARIAN, curve[d - 1], mode, least="cost")
    for p, nodes in ((gen_example2(6), 12), (gen_cyclic_latin(8), 8)):
        monkeypatch.setattr(nearstable, "SEARCH_CAP", nodes)
        assert is_perfect(p, solve_local_near(p, 1, Objective.PERFECT))
        monkeypatch.setattr(nearstable, "SEARCH_CAP", nodes - 1)
        with pytest.raises(TooLarge):
            solve_local_near(p, 1, Objective.PERFECT)


def test_global_curve_prices_each_leaf_once(monkeypatch):
    # The budgets of one global curve share their leaf prices: each leaf
    # matching gets one min-cut, where the same searches run on their own
    # cut some leaves once per budget.
    cut = nearstable._stabilization_cut
    priced = []

    def counted(p, m, bps):
        priced.append(m)
        return cut(p, m, bps)

    monkeypatch.setattr(nearstable, "_stabilization_cut", counted)
    saved = 0
    for n, density in ((6, 1.0), (7, 0.8), (8, 1.0)):
        for seed in range(4):
            p = gen_random(n, n, density, seed)
            priced.clear()
            curve = tradeoff_curve(p, "global", 3, Objective.EGALITARIAN)
            shared = list(priced)
            assert len(shared) == len(set(shared))
            priced.clear()
            for d in range(1, 4):
                nearstable._search(p, d, Objective.EGALITARIAN, curve[d - 1][1], "global", least="cost")
            assert set(priced) == set(shared)
            saved += len(priced) - len(shared)
    assert saved > 0


def test_solvers_equal_an_unpruned_search():
    # Answers, witnesses and the tie rule ("first in search order among
    # equals") are those of the same search with no pruning at all.
    for p in bound_cases():
        order = search_order(p)
        perfect = [m for m in order if is_perfect(p, m)]
        global_cost = {m: global_stabilization_cost(p, m)[0] for m in order}
        local = {m: local_instability(p, m) for m in order}
        egal = {m: egalitarian_cost(p, m) for m in order}
        stable_cost = min(egal[m] for m in order if local[m] == 0)
        for d in (0, 1, 2):
            for objective, eta, pool in (
                (Objective.PERFECT, None, perfect),
                (Objective.EGALITARIAN, stable_cost, order),
                (Objective.EGALITARIAN, stable_cost - 1, order),
                (Objective.EGALITARIAN, stable_cost - 3, order),
            ):
                if eta is not None:
                    pool = [m for m in pool if egal[m] <= eta]
                fits = [m for m in pool if global_cost[m] <= d]
                want = min(fits, key=global_cost.get) if fits else None
                got = solve_global_near(p, d, objective, eta=eta)
                if want is None:
                    assert got is None
                else:
                    assert got == (want, global_stabilization_cost(p, want)[1])
                want = next((m for m in pool if local[m] <= d), None)
                assert solve_local_near(p, d, objective, eta=eta) == want
        for mode, level in (("global", global_cost), ("local", local)):
            want = [(d, min(egal[m] for m in order if level[m] <= d)) for d in range(3)]
            assert tradeoff_curve(p, mode, 2, Objective.EGALITARIAN) == want


def test_stable_shortcuts_match_brute_force():
    # (a) u_optimal is the global answer, with witness p, whenever it meets
    # the objective; (b) the d=0 point of the egalitarian curve is the
    # cheapest stable matching's cost.
    shortcuts = 0
    for p in bound_cases():
        stable = enumerate_stable_bf(p)
        u_opt = u_optimal(p)
        cheapest = min(egalitarian_cost(p, m) for m in stable)
        for mode in ("global", "local"):
            assert tradeoff_curve(p, mode, 0, Objective.EGALITARIAN) == [(0, cheapest)]
        u_cost = egalitarian_cost(p, u_opt)
        for objective, eta in (
            (Objective.PERFECT, None),
            (Objective.EGALITARIAN, u_cost),
            (Objective.EGALITARIAN, u_cost + 2),
        ):
            for d in (0, 1):
                want = brute_solve_near(p, d, "global", objective, eta=eta)
                if objective == Objective.PERFECT and not is_perfect(p, u_opt):
                    continue
                shortcuts += 1
                assert want is not None and want[1] == p and is_stable(p, want[0])
                assert solve_global_near(p, d, objective, eta=eta) == (u_opt, p)
    assert shortcuts >= 60


@pytest.mark.parametrize("seed", [0, 1])
def test_n16_questions_answer_without_too_large(monkeypatch, seed):
    p = gen_random(16, 16, 1.0, seed)
    cap = nearstable.SEARCH_CAP
    # with no search allowed at all, the stable answer still comes back
    monkeypatch.setattr(nearstable, "SEARCH_CAP", 0)
    assert solve_global_near(p, 1, Objective.PERFECT) == (u_optimal(p), p)
    monkeypatch.setattr(nearstable, "SEARCH_CAP", cap)
    for mode in ("global", "local"):
        curve = tradeoff_curve(p, mode, 2, Objective.EGALITARIAN)
        values = [v for _, v in curve]
        assert values == sorted(values, reverse=True)


def test_global_solver_takes_huge_budgets_in_one_pass():
    # The budget tightens below each leaf found, so the search never
    # depends on how large d_g is.
    p = gen_random(5, 5, 1.0, seed=7)
    cheapest = min(egalitarian_cost(p, m) for m in enumerate_stable_bf(p))
    for objective, eta in (
        (Objective.PERFECT, None),
        (Objective.EGALITARIAN, cheapest),
        (Objective.EGALITARIAN, cheapest - 1),
    ):
        start = time.perf_counter()
        m, q = solve_global_near(p, 10**9, objective, eta=eta)
        assert time.perf_counter() - start < 1.0
        assert global_stabilization_cost(p, m) == (swap_distance(p, q), q)
        if objective == Objective.PERFECT:
            assert m == u_optimal(p) and q == p
        elif eta == cheapest:
            assert q == p and egalitarian_cost(p, m) == cheapest
        else:
            assert swap_distance(p, q) > 0 and egalitarian_cost(p, m) <= eta


def test_local_check_rejects_a_negative_budget():
    p = gen_random(3, 3, 1.0, seed=4)
    for m in (u_optimal(p), Matching.empty(3, 3)):
        with pytest.raises(InvalidInput):
            is_locally_d_nearly_stable(p, m, -1)


def test_local_witness_rejects_a_negative_budget():
    # u_optimal is stable, so only the budget check can refuse it
    p = gen_random(3, 3, 1.0, seed=4)
    with pytest.raises(InvalidInput):
        witness_profile_local(p, u_optimal(p), -1)


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


def test_tradeoff_refuses_more_rows_than_the_cap_before_solving(monkeypatch):
    # each row calls a solver and is kept, so a huge max-d would hang and
    # grow without bound; the cap is read at call time
    def no_solver(*args, **kwargs):
        raise AssertionError("solver called past the row cap")

    p = gen_random(1, 1, 1.0, seed=0)
    for name in ("solve_global_near", "solve_local_near", "find_d_robust_optimal"):
        monkeypatch.setattr(nearstable, name, no_solver)
    for mode in ("global", "local"):
        for objective in (Objective.PERFECT, Objective.EGALITARIAN):
            with pytest.raises(TooLarge, match=r"0\.\.100000000 .* 10000 rows \(CURVE_CAP\)"):
                tradeoff_curve(p, mode, 10**8, objective)
    monkeypatch.undo()
    monkeypatch.setattr(nearstable, "CURVE_CAP", 3)
    assert tradeoff_curve(p, "global", 2, Objective.PERFECT) == [(0, True), (1, True), (2, True)]
    with pytest.raises(TooLarge, match=r"more than 3 rows"):
        tradeoff_curve(p, "global", 3, Objective.PERFECT)


def test_perfect_tradeoff_stops_solving_at_the_first_true(monkeypatch):
    # gen_example3's one stable matching leaves a1 single, and one swap
    # makes the perfect matching stable: False at d=0, True from d=1 on
    p = gen_example3()
    for mode, name in (("global", "solve_global_near"), ("local", "solve_local_near")):
        solver = getattr(nearstable, name)
        budgets = []

        def counted(q, d, objective, solver=solver, budgets=budgets):
            budgets.append(d)
            return solver(q, d, objective)

        monkeypatch.setattr(nearstable, name, counted)
        curve = tradeoff_curve(p, mode, 6, Objective.PERFECT)
        assert curve == [(0, False)] + [(d, True) for d in range(1, 7)]
        assert budgets == [0, 1]
