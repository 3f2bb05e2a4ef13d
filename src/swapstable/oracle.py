"""Brute-force reference implementations, used only for validation.

Everything here trades speed for being an unarguable transcription of the
definitions: matchings are enumerated outright, profile balls are walked
swap by swap, and the robustness/near-stability definitions are applied
literally.  The fast engines are tested against this module; none of them
call into it.

Caps are module constants, read at call time, and hard errors (TooLarge),
never silent truncation.
"""

import itertools
import math

from .errors import InvalidInput, TooLarge, check_budget
from .profile import (
    Matching,
    Objective,
    Profile,
    egalitarian_cost,
    is_perfect,
    is_stable,
    swap_distance,
)

MATCHING_CAP = 6
PROFILE_CAP = 2_000_000


def enumerate_matchings(p):
    """Yield every matching over mutually acceptable pairs exactly once.

    Recursion over U agents; each agent either stays unmatched or takes an
    acceptable, still-free partner.  Raises TooLarge when either side
    exceeds MATCHING_CAP.
    """
    if max(p.n_u, p.n_w) > MATCHING_CAP:
        raise TooLarge(
            "matching enumeration capped at side size %d, got %dx%d"
            % (MATCHING_CAP, p.n_u, p.n_w)
        )
    pairs = []
    used = set()

    def extend(i):
        if i == p.n_u:
            yield Matching.from_pairs(p.n_u, p.n_w, pairs)
            return
        yield from extend(i + 1)  # u_i unmatched
        for j in p.u_lists[i]:
            if j not in used:
                used.add(j)
                pairs.append((i, j))
                yield from extend(i + 1)
                pairs.pop()
                used.remove(j)

    yield from extend(0)


def enumerate_stable_bf(p):
    """All stable matchings by filtering the full enumeration."""
    return [m for m in enumerate_matchings(p) if is_stable(p, m)]


def _neighbors(lists):
    """All single-swap variants of one side's lists, as (agent, lists)."""
    for a, lst in enumerate(lists):
        for k in range(len(lst) - 1):
            swapped = list(lst)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            out = list(lists)
            out[a] = tuple(swapped)
            yield tuple(out)


def _list_ball(lst, d):
    """All orderings of one list within Kendall-tau distance d, BFS order."""
    seen = {lst}
    frontier = [lst]
    out = [lst]
    for _ in range(d):
        nxt = []
        for cur in frontier:
            for k in range(len(cur) - 1):
                var = list(cur)
                var[k], var[k + 1] = var[k + 1], var[k]
                var = tuple(var)
                if var not in seen:
                    seen.add(var)
                    nxt.append(var)
                    out.append(var)
        frontier = nxt
    return out


def _cap_product(balls):
    """Raise TooLarge when choosing one entry per ball makes more than
    PROFILE_CAP profiles."""
    if math.prod(map(len, balls)) > PROFILE_CAP:
        raise TooLarge("profile ball exceeds %d profiles" % PROFILE_CAP)


def profiles_within(p, d, mode):
    """Every profile within swap distance d of p, each exactly once.

    mode "global": total distance over all lists ≤ d (BFS by layers, so
    closer profiles come first).  mode "local": every agent's own list
    within d (cartesian product of per-list balls).  Raises TooLarge when
    the ball exceeds PROFILE_CAP.
    """
    check_budget(d)
    if mode not in ("global", "local"):
        raise InvalidInput("mode must be 'global' or 'local', got %r" % mode)
    if mode == "global":
        start = (p.u_lists, p.w_lists)
        seen = {start}
        frontier = [start]
        yield p
        count = 1
        for _ in range(d):
            nxt = []
            for u_lists, w_lists in frontier:
                for var in _neighbors(u_lists):
                    key = (var, w_lists)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
                for var in _neighbors(w_lists):
                    key = (u_lists, var)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
            count += len(nxt)
            if count > PROFILE_CAP:
                raise TooLarge("profile ball exceeds %d profiles" % PROFILE_CAP)
            for u_lists, w_lists in nxt:
                yield Profile(u_lists, w_lists, p.u_names, p.w_names)
            frontier = nxt
        return
    u_balls = [_list_ball(lst, d) for lst in p.u_lists]
    w_balls = [_list_ball(lst, d) for lst in p.w_lists]
    _cap_product(u_balls + w_balls)
    for u_combo in itertools.product(*u_balls):
        for w_combo in itertools.product(*w_balls):
            yield Profile(tuple(u_combo), tuple(w_combo), p.u_names, p.w_names)


def brute_is_d_robust(p, m, d):
    """Definitional check: m stable in every profile within distance d."""
    for q in profiles_within(p, d, "global"):
        if not is_stable(q, m):
            return False
    return True


def brute_solve_robust(p, d, objective):
    """Exhaustive mirror of find_d_robust(_optimal): a d-robust stable
    matching (perfect, or of least egalitarian cost, per objective), or None."""
    best = None
    for m in enumerate_stable_bf(p):
        if not brute_is_d_robust(p, m, d):
            continue
        if objective == Objective.PERFECT and not is_perfect(p, m):
            continue
        if objective != Objective.EGALITARIAN:
            return m
        if best is None or egalitarian_cost(p, m) < egalitarian_cost(p, best):
            best = m
    return best


def brute_global_cost(p, m, max_d=3):
    """Smallest total swap distance to a profile where m is stable.

    Walks ball layers outward, so the first hit is a closest witness;
    returns (cost, witness profile), or None when no profile within max_d
    works (the true cost is then larger, possibly infinite).
    """
    for q in profiles_within(p, max_d, "global"):
        if is_stable(q, m):
            return (int(swap_distance(p, q)), q)
    return None


def _variant_rank_rows(lists, n_other, d):
    """Per-agent rank rows for every list ordering within distance d.

    rows[a][c][o] is o's position in agent a's c-th candidate list, that
    list's length where o is unlisted.
    """
    return [
        [
            [variant.index(o) if o in variant else len(variant) for o in range(n_other)]
            for variant in _list_ball(lst, d)
        ]
        for lst in lists
    ]


def stabilizable_product(ru, rw, len_u, len_w, pu, pw):
    """Does some per-agent choice of candidate list admit no blocking pair?

    ru[i][c] is the rank row of U agent i's c-th candidate list (rw
    likewise for W).  With the U side fixed the W agents decouple, so only
    the U choices are enumerated, by odometer.
    """
    n_u, n_w = len(ru), len(rw)
    digits = [0] * n_u
    while True:
        ok = True
        for j in range(n_w):
            found = False
            for row_w in rw[j]:
                cur_w = row_w[pw[j]] if pw[j] >= 0 else len_w[j]
                viable = True
                for i in range(n_u):
                    row = ru[i][digits[i]]
                    cur_u = row[pu[i]] if pu[i] >= 0 else len_u[i]
                    if row[j] < cur_u and row_w[i] < cur_w:
                        viable = False
                        break
                if viable:
                    found = True
                    break
            if not found:
                ok = False
                break
        if ok:
            return True
        pos = 0
        while pos < n_u:
            digits[pos] += 1
            if digits[pos] < len(ru[pos]):
                break
            digits[pos] = 0
            pos += 1
        if pos == n_u:
            return False


def brute_is_locally_d_stable(p, m, d):
    """Is m stable in some profile whose every list moved at most d swaps?

    Exhaustive over the product of per-list balls, organized so each W
    agent's choice is checked independently once the U side is fixed.
    Raises TooLarge when the U agents' balls, which the odometer walks,
    give more than PROFILE_CAP choices.
    """
    check_budget(d)
    _cap_product([_list_ball(lst, d) for lst in p.u_lists])
    ru = _variant_rank_rows(p.u_lists, p.n_w, d)
    rw = _variant_rank_rows(p.w_lists, p.n_u, d)
    len_u = [len(lst) for lst in p.u_lists]
    len_w = [len(lst) for lst in p.w_lists]
    return stabilizable_product(ru, rw, len_u, len_w, m.pu, m.pw)


def _objective_ok(p, m, objective, eta):
    if objective == Objective.PERFECT:
        return is_perfect(p, m)
    if objective == Objective.EGALITARIAN:
        if eta is None:
            raise InvalidInput("egalitarian objective needs an eta bound")
        return egalitarian_cost(p, m) <= eta
    raise InvalidInput("objective must be perfect or egalitarian")


def brute_solve_near(p, budget, mode, objective, eta=None):
    """Exhaustive near-stable solver mirroring solve_global_near/solve_local_near.

    Looks for a matching that satisfies the objective in p (costs always
    measured against p) and is stable in some profile within the budget.
    Returns (matching, witness profile) for mode "global", the matching
    alone for mode "local", None when there is none.
    """
    check_budget(budget)
    objective = Objective(objective)
    candidates = [
        m
        for m in enumerate_matchings(p)
        if _objective_ok(p, m, objective, eta)
    ]
    if mode == "global":
        for q in profiles_within(p, budget, "global"):
            for m in candidates:
                if is_stable(q, m):
                    return (m, q)
        return None
    if mode == "local":
        for m in candidates:
            for q in profiles_within(p, budget, "local"):
                if is_stable(q, m):
                    return m
        return None
    raise InvalidInput("mode must be 'global' or 'local', got %r" % mode)
