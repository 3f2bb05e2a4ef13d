"""Rotation poset: successor maps, closed-subset bijection, weighted closures."""

import random

import pytest
from hypothesis import example, given, settings

from swapstable import (
    Agent,
    Error,
    InvalidInput,
    NoSuccessorDefined,
    NotClosed,
    Rotation,
    RotationWeights,
    closed_subsets,
    egalitarian_cost,
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


def test_matching_of_rejects_open_subsets():
    for p in random_profiles(40, 5, 5, 1.0, seed_base=300):
        dg = rotation_digraph(p)
        for a, b in dg.arcs:
            with pytest.raises(NotClosed):
                matching_of(dg, frozenset([b]))
            break


@settings(max_examples=60, deadline=None)
@given(profiles(max_side=5))
def test_measured_weights_reproduce_egalitarian_deltas(p):
    dg = rotation_digraph(p)
    weights = RotationWeights.measured(dg, p)
    base = egalitarian_cost(p, u_optimal(p))
    for s in closed_subsets(dg):
        expected = base + sum(weights.delta[r] for r in s)
        assert egalitarian_cost(p, matching_of(dg, s)) == expected


def test_pair_index_matches_the_lattice():
    # Every closed subset S is checked against the three per-pair maps the
    # digraph keeps, over every acceptable pair, so a missing entry fails
    # as surely as a wrong one: movesto and u_passed decide each pair of
    # matching_of(S), and u_passed/crossed decide where partners sit.
    batch = random_profiles(100, 6, 6, 1.0, seed_base=500)
    batch += random_profiles(40, 5, 6, 0.6, seed_base=600)
    # more U agents than W agents: some stay unmatched, and paths of the
    # discovery walk end at unmatched W agents
    batch += random_profiles(40, 6, 5, 0.6, seed_base=700)
    batch += [gen_cyclic_latin(4), gen_example2(3)]
    rotations_seen = 0
    for p in batch:
        dg = rotation_digraph(p)
        m0 = dg.u_opt
        rotations_seen += dg.n
        for s in closed_subsets(dg):
            m = matching_of(dg, s)
            for u in range(p.n_u):
                for w in p.u_lists[u]:
                    produced = (u, w) in m0.pairs or dg.movesto.get((u, w)) in s
                    held = produced and dg.u_passed.get((u, w)) not in s
                    assert ((u, w) in m.pairs) == held
                    if m0.pu[u] >= 0:
                        # u's partner ranks below w: from the start, or
                        # once the rotation passing w is eliminated
                        rank = p.rank_u[u]
                        below = rank[m.pu[u]] > rank[w]
                        passed = rank[m0.pu[u]] > rank[w] or dg.u_passed.get((u, w)) in s
                        assert below == passed
            for w in range(p.n_w):
                if m0.pw[w] < 0:
                    continue
                rank = p.rank_w[w]
                for u in p.w_lists[w]:
                    # w's partner ranks at u or above: from the start, or
                    # once the rotation lifting it there is eliminated
                    at_or_above = rank[m.pw[w]] <= rank[u]
                    lifted = rank[m0.pw[w]] <= rank[u] or dg.crossed.get((w, u)) in s
                    assert at_or_above == lifted
    assert rotations_seen >= 80


def brute_closure(dg, delta, forced, forbidden, extra_arcs):
    """Least weight of a feasible closed subset, with the union of all such."""
    best = None
    for s in closed_subsets(dg):
        if not forced <= s or s & forbidden:
            continue
        if any(b in s and a not in s for a, b in extra_arcs):
            continue
        w = sum(delta[r] for r in s)
        if best is None or w < best[0]:
            best = (w, s)
        elif w == best[0]:
            best = (w, best[1] | s)
    return best


def closure_draws(dg, rng):
    """Constraint draws: loose random ones, then a cycle of extra arcs
    through a forced rotation and one through a forbidden rotation, with
    the other kind drawn from all rotations (the cycle's included)."""
    nodes = list(range(dg.n))
    forced = frozenset(rng.sample(nodes, k=rng.randint(0, min(2, dg.n))))
    rest = [i for i in nodes if i not in forced]
    forbidden = frozenset(rng.sample(rest, k=rng.randint(0, min(2, len(rest)))))
    extra = frozenset(
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 2))
    )
    yield forced, forbidden, extra
    for pin_forced in (True, False):
        cycle = rng.sample(nodes, k=min(3, dg.n))
        extra = frozenset(zip(cycle, cycle[1:] + cycle[:1]))
        pinned = frozenset(cycle[:1])
        other = frozenset(rng.sample(nodes, k=rng.randint(0, 1)))
        yield (pinned, other, extra) if pin_forced else (other, pinned, extra)


def test_min_weight_closure_agrees_with_enumeration():
    # The answer is the union of all lightest feasible subsets: the
    # optimal robust solvers return its matching, so the tie rule is part
    # of their answers.
    rng = random.Random(7)
    checked = infeasible = cycles = 0
    for p in random_profiles(120, 5, 5, 1.0, seed_base=900):
        dg = rotation_digraph(p)
        if dg.n == 0:
            continue
        delta = [rng.randint(-5, 5) for _ in range(dg.n)]
        for k, (forced, forbidden, extra) in enumerate(closure_draws(dg, rng)):
            cycles += k > 0 and len(extra) > 1
            got = min_weight_closure(
                dg, RotationWeights(delta=tuple(delta)), forced, forbidden, extra
            )
            want = brute_closure(dg, delta, forced, forbidden, extra)
            if want is None:
                assert got is None
                infeasible += 1
            else:
                assert got == want[1]
                assert sum(delta[r] for r in got) == want[0]
                assert forced <= got and not got & forbidden
                closed_under = dg.arcs | extra
                assert all(a in got for a, b in closed_under if b in got)
                checked += 1
    assert checked > 40
    assert infeasible >= 10
    assert cycles >= 10


def test_min_weight_closure_rejects_out_of_range_indices():
    dg = rotation_digraph(gen_random(5, 5, 1.0, seed=903))
    weights = RotationWeights(delta=(1,) * dg.n)
    for constraints in (
        {"forced": {dg.n}},
        {"forbidden": {-1}},
        {"extra_arcs": {(0, dg.n)}},
    ):
        with pytest.raises(InvalidInput, match="out of range"):
            min_weight_closure(dg, weights, **constraints)


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


@settings(max_examples=60, deadline=None)
@given(profiles(max_side=5))
def test_stable_pairs_is_union_over_stable_matchings(p):
    union = set()
    for m in enumerate_stable_bf(p):
        union |= set(m.pairs)
    assert set(stable_pairs(p)) == union
