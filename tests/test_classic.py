"""Deferred acceptance and the matched/unmatched partition."""

from hypothesis import given, settings

from swapstable import (
    Agent,
    is_stable,
    matched_partition,
    u_optimal,
    w_optimal,
)
from swapstable.oracle import enumerate_stable_bf

from helpers import profiles


def _partner_rank(p, m, i):
    return p.rank_u[i][m.pu[i]] if m.pu[i] >= 0 else len(p.u_lists[i])


@settings(max_examples=80, deadline=None)
@given(profiles(max_side=4))
def test_u_optimal_is_stable_and_best_for_u(p):
    m = u_optimal(p)
    assert is_stable(p, m)
    for other in enumerate_stable_bf(p):
        for i in range(p.n_u):
            assert _partner_rank(p, m, i) <= _partner_rank(p, other, i)


@settings(max_examples=60, deadline=None)
@given(profiles(max_side=4))
def test_w_optimal_is_stable_and_dual(p):
    m = w_optimal(p)
    assert is_stable(p, m)
    for other in enumerate_stable_bf(p):
        for j in range(p.n_w):
            mr = p.rank_w[j][m.pw[j]] if m.pw[j] >= 0 else len(p.w_lists[j])
            orr = p.rank_w[j][other.pw[j]] if other.pw[j] >= 0 else len(p.w_lists[j])
            assert mr <= orr


@settings(max_examples=60, deadline=None)
@given(profiles(max_side=4))
def test_partition_is_invariant_across_stable_matchings(p):
    part = matched_partition(p)
    assert part.n_matched + part.n_unmatched == p.n_u + p.n_w
    for m in enumerate_stable_bf(p):
        matched = {Agent.u(i) for i, _ in m.pairs} | {Agent.w(j) for _, j in m.pairs}
        assert matched == part.matched_agents


def test_empty_sides():
    from swapstable import validate_profile

    p = validate_profile([], [[], []])
    m = u_optimal(p)
    assert m.pairs == frozenset()
    part = matched_partition(p)
    assert part.n_unmatched == 2
