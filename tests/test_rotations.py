"""Rotation poset: successor maps, closed-subset bijection, weighted closures."""

import bisect
import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings

from swapstable import (
    Agent,
    Error,
    InvalidInput,
    NoSuccessorDefined,
    NotClosed,
    Rotation,
    RotationDigraph,
    closed_subsets,
    egalitarian_cost,
    egalitarian_deltas,
    eliminate,
    enumerate_stable_matchings,
    exposed_rotations,
    gen_cyclic_latin,
    gen_example2,
    gen_random,
    is_stable,
    matching_of,
    min_weight_closure,
    rotation_digraph,
    stable_pairs,
    successor,
    u_optimal,
    validate_profile,
    w_optimal,
)
from swapstable import rotations
from swapstable.oracle import enumerate_stable_bf
from swapstable.rotations import ALWAYS, NEVER

from helpers import profiles, random_profiles


def brute_successor(p, m, i):
    lst = p.u_lists[i]
    for pos in range(p.rank_u[i][m.pu[i]] + 1, len(lst)):
        j = lst[pos]
        if m.pw[j] < 0:
            return None
        if p.rank_w[j][i] < p.rank_w[j][m.pw[j]]:
            return Agent.w(j)
    return None


@settings(max_examples=80, deadline=None)
@given(profiles(max_side=5))
def test_successor_matches_definition(p):
    for m in enumerate_stable_bf(p):
        for i in range(p.n_u):
            u = Agent.u(i)
            if m.pu[i] < 0:
                with pytest.raises(NoSuccessorDefined):
                    successor(p, m, u)
            else:
                assert successor(p, m, u) == brute_successor(p, m, i)


@settings(max_examples=80, deadline=None)
@given(profiles(max_side=5))
def test_exposed_rotations_are_the_successor_cycles(p):
    for m in enumerate_stable_bf(p):
        nxt = {}
        for i in range(p.n_u):
            if m.pu[i] >= 0:
                w = brute_successor(p, m, i)
                if w is not None:
                    nxt[i] = m.pw[w.index]
        cycles = set()
        for i in nxt:
            path = [i]
            while path[-1] in nxt and nxt[path[-1]] not in path:
                path.append(nxt[path[-1]])
            if nxt.get(path[-1]) == i:
                cycles.add(Rotation.canonical((k, m.pu[k]) for k in path))
        assert exposed_rotations(p, m) == sorted(cycles, key=lambda r: r.cycle)


def test_successor_rejects_side_w():
    p = gen_random(3, 3, 1.0, seed=5)
    with pytest.raises(InvalidInput):
        successor(p, u_optimal(p), Agent.w(0))


def test_rotation_canonical_and_moves():
    rho = Rotation.canonical([(3, 1), (0, 2), (2, 0)])
    assert rho.cycle == ((0, 2), (2, 0), (3, 1))
    assert list(rho.moves()) == [(0, 2, 0), (2, 0, 1), (3, 1, 2)]
    assert len(rho) == 3


@settings(max_examples=80, deadline=None)
@given(profiles(max_side=5))
@example(validate_profile([[]], []))  # a U agent and no W side
@example(validate_profile([], [[]]))  # no U side
# u1 finds nobody acceptable, beside a rotation of u0 and u2
@example(validate_profile([[0, 1], [], [1, 0]], [[2, 0], [0, 2]]))
def test_closed_subsets_enumerate_exactly_the_stable_matchings(p):
    dg = rotation_digraph(p)
    subsets = list(closed_subsets(dg))
    produced = [matching_of(dg, s) for s in subsets]
    assert len(set(produced)) == len(subsets)
    assert set(produced) == set(enumerate_stable_bf(p))
    assert matching_of(dg, frozenset()) == u_optimal(p)
    assert matching_of(dg, frozenset(range(dg.n))) == w_optimal(p)
    assert set(enumerate_stable_matchings(p)) == set(produced)


def test_closed_subsets_follow_exclude_first_order():
    # The reference filters all 2^n subsets, index 0 decided first and
    # left out before taken in; arcs only point from lower to higher
    # indices, as discovery numbers rotations.
    rng = random.Random(41)
    graphs = [rotation_digraph(p) for p in random_profiles(20, 5, 5, 1.0, seed_base=900)]
    for _ in range(60):
        n = rng.randint(0, 7)
        arcs = frozenset(
            (a, b) for b in range(n) for a in range(b) if rng.random() < 0.3
        )
        graphs.append(
            RotationDigraph((None,) * n, arcs, None, u_runs=(), w_runs=())
        )
    for dg in graphs:
        want = []
        for picks in itertools.product((False, True), repeat=dg.n):
            s = frozenset(i for i in range(dg.n) if picks[i])
            if all(a in s for a, b in dg.arcs if b in s):
                want.append(s)
        assert list(closed_subsets(dg)) == want


def test_closed_subsets_are_not_bounded_by_recursion_limit():
    # disjoint 2x2 blocks with one rotation each, more than the recursion
    # limit of them: u_2k and u_2k+1 get their first choices at u_optimal
    # and swap partners at w_optimal
    k = sys.getrecursionlimit() + 100
    u_lists, w_lists = [], []
    for b in range(0, 2 * k, 2):
        u_lists += [[b, b + 1], [b + 1, b]]
        w_lists += [[b + 1, b], [b, b + 1]]
    p = validate_profile(u_lists, w_lists)
    dg = rotation_digraph(p)
    assert dg.n == k
    assert next(closed_subsets(dg)) == frozenset()
    assert next(enumerate_stable_matchings(p)) == u_optimal(p)


def test_matching_of_rejects_open_subsets():
    for p in random_profiles(40, 5, 5, 1.0, seed_base=300):
        dg = rotation_digraph(p)
        for a, b in dg.arcs:
            with pytest.raises(NotClosed):
                matching_of(dg, frozenset([b]))
            break


def test_is_closed_rejects_out_of_range_indices():
    dg = rotation_digraph(gen_random(5, 5, 1.0, seed=903))
    assert dg.n >= 1 and dg.is_closed(()) and dg.is_closed(range(dg.n))
    for bad in (dg.n, -1, "first"):
        with pytest.raises(InvalidInput, match="out of range"):
            dg.is_closed({0, bad})


@settings(max_examples=60, deadline=None)
@given(profiles(max_side=5))
def test_measured_weights_reproduce_egalitarian_deltas(p):
    dg = rotation_digraph(p)
    delta = egalitarian_deltas(dg, p)
    base = egalitarian_cost(p, u_optimal(p))
    for s in closed_subsets(dg):
        expected = base + sum(delta[r] for r in s)
        assert egalitarian_cost(p, matching_of(dg, s)) == expected


def partner_positions(p, m):
    """Each agent's partner's position in its list, per side; the list
    length when unmatched."""
    return tuple(
        [lst.index(k) if k >= 0 else len(lst) for lst, k in zip(lists, partners)]
        for lists, partners in ((p.u_lists, m.pu), (p.w_lists, m.pw))
    )


def index_batch():
    batch = random_profiles(100, 6, 6, 1.0, seed_base=500)
    batch += random_profiles(40, 5, 6, 0.6, seed_base=600)
    # more U agents than W agents: some stay unmatched, and paths of the
    # discovery walk end at unmatched W agents
    batch += random_profiles(40, 6, 5, 0.6, seed_base=700)
    return batch + [gen_cyclic_latin(4), gen_example2(3)]


def test_pair_index_matches_the_lattice():
    # Every closed subset S is checked against each agent's runs at every
    # rank r, the two ends included, so a missing or misplaced bound fails
    # as surely as a wrong event: the U event at r is eliminated in S
    # exactly when u's partner in matching_of(S) ranks r or worse, and the
    # W event exactly when w's partner ranks better than r.  Together they
    # place every partner, and so decide every pair of matching_of(S).
    rotations_seen = 0
    for p in index_batch():
        dg = rotation_digraph(p)
        rotations_seen += dg.n
        for s in closed_subsets(dg):
            happened = set(s) | {ALWAYS}
            rank_u, rank_w = partner_positions(p, matching_of(dg, s))
            for u, (bounds, events) in enumerate(dg.u_runs):
                for r in range(len(p.u_lists[u]) + 2):
                    sunk = events[bisect.bisect_left(bounds, r)] in happened
                    assert sunk == (rank_u[u] >= r)
            for w, (bounds, events) in enumerate(dg.w_runs):
                for r in range(len(p.w_lists[w]) + 2):
                    climbed = events[bisect.bisect_left(bounds, r)] in happened
                    assert climbed == (rank_w[w] < r)
    assert rotations_seen >= 80


def test_runs_tile_each_agents_stable_range():
    # A U agent's bounds ascend from its u_optimal partner's rank to its
    # w_optimal partner's, one run per rotation that moves it, in
    # elimination order; a W agent's ascend from its w_optimal partner's
    # rank to its u_optimal partner's.  An unmatched agent's one bound is
    # its list length.
    for p in index_batch():
        dg = rotation_digraph(p)
        top_u, bottom_w = partner_positions(p, u_optimal(p))
        bottom_u, top_w = partner_positions(p, w_optimal(p))
        sides = (
            (dg.u_runs, top_u, bottom_u, (ALWAYS, NEVER), 0),
            (dg.w_runs, top_w, bottom_w, (NEVER, ALWAYS), 1),
        )
        for runs, first, last, ends, side in sides:
            for a, (bounds, events) in enumerate(runs):
                assert (bounds[0], bounds[-1]) == (first[a], last[a])
                assert all(x < y for x, y in zip(bounds, bounds[1:]))
                assert (events[0], events[-1]) == ends
                moved = [
                    i for i, rho in enumerate(dg.rotations) if any(x[side] == a for x in rho.cycle)
                ]
                assert events[1:-1] == (moved if side == 0 else moved[::-1])


def brute_closure(dg, delta, arcs):
    """Least weight of a feasible closed subset, with the union of all such:
    each arc (a, b) asks for a in s when b is, ALWAYS being in every s and
    NEVER in none."""
    best = None
    for s in closed_subsets(dg):
        held = s | {ALWAYS}
        if any(b in held and a not in held for a, b in arcs):
            continue
        w = sum(delta[r] for r in s)
        if best is None or w < best[0]:
            best = (w, s)
        elif w == best[0]:
            best = (w, best[1] | s)
    return best


def sentinel_arcs(forced, forbidden, extra):
    """One arc set: (a, ALWAYS) per forced a, (NEVER, b) per forbidden b."""
    return extra | {(a, ALWAYS) for a in forced} | {(NEVER, b) for b in forbidden}


def closure_draws(dg, delta, rng):
    """Arc draws: loose random ones, then a cycle of arcs through a forced
    rotation and one through a forbidden rotation, with the other kind
    drawn from all rotations (the cycle's included), then every digraph arc
    again with sentinel arcs on weighted rotations: each forbids a rotation
    of positive weight or forces one of negative weight, an arc parallel to
    that rotation's weight arc in the flow network."""
    nodes = list(range(dg.n))
    forced = frozenset(rng.sample(nodes, k=rng.randint(0, min(2, dg.n))))
    rest = [i for i in nodes if i not in forced]
    forbidden = frozenset(rng.sample(rest, k=rng.randint(0, min(2, len(rest)))))
    extra = frozenset(
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 2))
    )
    yield sentinel_arcs(forced, forbidden, extra)
    for pin_forced in (True, False):
        cycle = rng.sample(nodes, k=min(3, dg.n))
        extra = frozenset(zip(cycle, cycle[1:] + cycle[:1]))
        pinned = frozenset(cycle[:1])
        other = frozenset(rng.sample(nodes, k=rng.randint(0, 1)))
        forced, forbidden = (pinned, other) if pin_forced else (other, pinned)
        yield sentinel_arcs(forced, forbidden, extra)
    weighted = [i for i in nodes if delta[i]]
    picked = rng.sample(weighted, k=rng.randint(0, min(2, len(weighted))))
    yield sentinel_arcs(
        [i for i in picked if delta[i] < 0], [i for i in picked if delta[i] > 0], dg.arcs
    )


def test_min_weight_closure_agrees_with_enumeration():
    # The answer is the union of all lightest feasible subsets: the
    # optimal robust solvers return its matching, so the tie rule is part
    # of their answers.  The last draw of each profile repeats the
    # digraph's arcs and lays sentinel arcs beside weight arcs: neither
    # may change an answer.
    rng = random.Random(7)
    checked = infeasible = cycles = parallel = 0
    for p in random_profiles(120, 5, 5, 1.0, seed_base=900):
        dg = rotation_digraph(p)
        if dg.n == 0:
            continue
        delta = [rng.randint(-5, 5) for _ in range(dg.n)]
        for k, arcs in enumerate(closure_draws(dg, delta, rng)):
            cycles += k in (1, 2) and sum(ALWAYS not in arc and NEVER not in arc for arc in arcs) > 1
            parallel += k == 3 and len(arcs) > len(dg.arcs)
            got = min_weight_closure(dg, delta, arcs)
            # arcs given once, as an iterator, are read as the same set
            assert min_weight_closure(dg, delta, iter(arcs)) == got
            want = brute_closure(dg, delta, arcs)
            if want is None:
                assert got is None
                infeasible += 1
            else:
                assert got == want[1]
                assert sum(delta[r] for r in got) == want[0]
                held = got | {ALWAYS}
                assert all(a in held for a, b in dg.arcs | arcs if b in held)
                checked += 1
    assert checked > 40
    assert infeasible >= 10
    assert cycles >= 10
    assert parallel >= 10


def test_min_weight_closure_rejects_out_of_range_indices():
    dg = rotation_digraph(gen_random(5, 5, 1.0, seed=903))
    weights = (1,) * dg.n
    for arc in ((dg.n, ALWAYS), (NEVER, -1), (0, dg.n), ("sometimes", 0)):
        with pytest.raises(InvalidInput, match="out of range"):
            min_weight_closure(dg, weights, {arc})
    for wrong in ((), weights + (1,)):
        with pytest.raises(InvalidInput, match="weights for"):
            min_weight_closure(dg, wrong)


def test_min_weight_closure_is_infeasible_when_never_reaches_always():
    # One max-flow decides infeasibility: it reaches the infinite capacity
    # exactly when a path of arcs leads from NEVER, the source, to ALWAYS,
    # the sink.  Each draw forbids one rotation and forces one, so many
    # paths run over more than one arc, some over the digraph's own.
    def reaches(arcs):
        reached, queue = {NEVER}, [NEVER]
        for x in queue:
            for a, b in arcs:
                if a == x and b not in reached:
                    reached.add(b)
                    queue.append(b)
        return ALWAYS in reached

    rng = random.Random(11)
    kinds = Counter()
    for p in random_profiles(150, 6, 6, 1.0, seed_base=950):
        dg = rotation_digraph(p)
        nodes = list(range(dg.n)) + [ALWAYS, NEVER]
        for _ in range(4):
            arcs = {(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 3))}
            if dg.n:
                arcs |= {(NEVER, rng.randrange(dg.n)), (rng.randrange(dg.n), ALWAYS)}
            weights = [rng.randint(-3, 3) for _ in range(dg.n)]
            got = min_weight_closure(dg, weights, arcs)
            assert (got is None) == reaches(dg.arcs | arcs)
            kinds["feasible" if got is not None else "arcs" if reaches(arcs) else "digraph"] += 1
    assert min(kinds[k] for k in ("feasible", "arcs", "digraph")) >= 30


def test_non_topological_discovery_raises_error(monkeypatch):
    # The order check guards every closure solved over the digraph; it
    # must raise Error, not an AssertionError that -O would strip.
    real = rotations.RotationDigraph

    def reversed_arcs(arcs, **fields):
        flipped = frozenset((b, a) for a, b in arcs)
        return real(arcs=flipped, **fields)

    monkeypatch.setattr(rotations, "RotationDigraph", reversed_arcs)
    with pytest.raises(Error, match="discovery order is topological"):
        rotation_digraph(gen_random(6, 6, 1.0, seed=5))


def test_elimination_walks_the_lattice():
    for p in random_profiles(60, 5, 5, 1.0, seed_base=40):
        everything = set(enumerate_stable_bf(p))
        m = u_optimal(p)
        seen = {m}
        while True:
            rotations = exposed_rotations(p, m)
            if not rotations:
                break
            m = eliminate(m, rotations[0])
            assert is_stable(p, m)
            seen.add(m)
        assert m == w_optimal(p)
        assert seen <= everything


def test_eliminate_and_exposed_reject_bad_inputs():
    p = gen_random(4, 4, 1.0, seed=0)
    dg = rotation_digraph(p)
    assert dg.n > 0
    with pytest.raises(InvalidInput):
        eliminate(w_optimal(p), dg.rotations[0])
    bad = matching_of(dg, frozenset())
    bad = bad.__class__(n_u=bad.n_u, n_w=bad.n_w, pairs=frozenset())
    with pytest.raises(InvalidInput):
        exposed_rotations(p, bad)


def stable_pair_union(p):
    return set().union(*(m.pairs for m in enumerate_stable_bf(p)))


@settings(max_examples=60, deadline=None)
@given(profiles(max_side=5))
def test_stable_pairs_is_union_over_stable_matchings(p):
    assert set(stable_pairs(p)) == stable_pair_union(p)


def test_stable_pairs_is_union_over_stable_matchings_on_the_index_batch():
    # the seeded batch pins what random draws reach only some of the time:
    # profiles whose agents move through several runs
    for p in index_batch():
        assert set(stable_pairs(p)) == stable_pair_union(p)
