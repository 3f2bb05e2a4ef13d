"""Swap-distance robustness of stable matchings.

A matching is d-robust when it stays stable under every reordering of the
preference lists that costs at most d adjacent swaps in total.  The checker
reduces this to a rank-gap condition per acceptable pair outside the
matching.  The solver states the same condition per acceptable pair over
the rotation digraph: down the lattice a U agent's partner only sinks and a
W agent's only climbs, so each way a pair can cost at most d is a threat
between two events, each brought about by one rotation of the digraph's
runs (``u_runs``, ``w_runs``).  Each threat becomes one closure arc, whose
ends may be the sentinels ALWAYS and NEVER (see min_weight_closure).  At
d = 0 no threat adds an arc.  The closure that picks the matching weighs
every rotation 1 for find_d_robust and the perfect objective (the
smallest admissible closed set) and by its egalitarian delta for the
egalitarian one.

The solvers answer None before building the digraph for the perfect
objective when u_optimal is not perfect, and at d >= 1 when the two
extreme stable matchings alone name a pair that is in no stable matching
and costs at most d against each (``_unshielded_pair``, exact at d = 1);
``max_robustness`` runs the same check at each budget it tries.
"""

from bisect import bisect_left

from ._kernels import partner_ranks
from .errors import InvalidInput, check_budget
from .profile import Agent, Objective, _derive, _promote, blocking_pairs, is_perfect
from .rotations import (
    ALWAYS,
    NEVER,
    egalitarian_deltas,
    matching_of,
    min_weight_closure,
    rotation_digraph,
)


def _cheap_pairs(p, rank_u, rank_w, d):
    """(u, w, gap_u, gap_w) for every acceptable pair that costs at most d
    swaps against partners of the given ranks, in U-list order.

    A side's gap is the pair's rank in its owner's list minus the partner's
    rank; only a positive gap costs swaps.  Each U list is scanned only
    while its own gap is at most d.
    """
    rw = p.rank_w
    for a, lst in enumerate(p.u_lists):
        top = rank_u[a]
        for pos, b in enumerate(lst[: top + d + 1]):
            gap_u, gap_w = pos - top, rw[b][a] - rank_w[b]
            if max(gap_u, 0) + max(gap_w, 0) <= d:
                yield a, b, gap_u, gap_w


def _gap_witness(p, m, ui, wj):
    """Cheapest profile in which (ui, wj) blocks m, by shifting each matched
    endpoint's list."""
    u_lists, w_lists, ru, rw = p.u_lists, p.w_lists, p.rank_u, p.rank_w
    pi, pj = m.pu[ui], m.pw[wj]
    if pi >= 0:
        u_lists = _promote(u_lists, ui, wj, ru[ui][wj] - ru[ui][pi])
    if pj >= 0:
        w_lists = _promote(w_lists, wj, ui, rw[wj][ui] - rw[wj][pj])
    return _derive(p, u_lists, w_lists)


def is_d_robust(p, m, d):
    """Decide whether m stays stable in every profile within swap distance d.

    Returns ``(True, None)`` or ``(False, (profile, (u, w)))`` where the
    profile lies within distance d of p and the pair blocks m there.  A
    threat by an acceptable pair outside m costs rank(other) -
    rank(partner) swaps on each matched side (nothing on an unmatched
    side), and m is d-robust iff every such pair costs more than d.
    """
    check_budget(d, finite=True)
    bp = blocking_pairs(p, m)
    if bp:
        return False, (p, bp[0])
    for ui, wj, _, _ in _cheap_pairs(p, *partner_ranks(p, m), d):
        if m.pu[ui] != wj:
            witness = _gap_witness(p, m, ui, wj)
            return False, (witness, (Agent.u(ui), Agent.w(wj)))
    return True, None


def _unshielded_pair(p, d):
    """A pair in no stable matching that costs at most d swaps against every
    stable matching of p, or None.

    In every stable matching a U agent's partner ranks between its partners
    in u_optimal (best) and w_optimal (worst), and a W agent's the other way
    round (Gale & Shapley 1962; Gusfield & Irving 1989); an agent unmatched
    there is unmatched in all of them and adds no gap.  So no side's gap
    (see is_d_robust) exceeds its gap against the best partner, and a pair
    that one side ranks outside that range is in no stable matching: if it
    costs at most d against the best partners, it threatens every stable
    matching.

    It names a pair exactly when constraint collection would meet a threat
    live from the start and never shielded, the arc (NEVER, ALWAYS), at
    d = 1 (a pair in no stable matching has no zero gap, so one of its gaps
    is negative) and when p has one stable matching.  At d >= 2 a pair
    inside both ranges may still be in no stable matching, which only the
    digraph can tell.  At d = 0 such a pair would block u_optimal, so the
    solvers skip the check.
    """
    best_u, worst_w = partner_ranks(p, p.u_opt)
    worst_u, best_w = partner_ranks(p, p.w_opt)
    for a, b, gap_u, gap_w in _cheap_pairs(p, best_u, best_w, d):
        if not (0 <= gap_u <= worst_u[a] - best_u[a] and 0 <= gap_w <= worst_w[b] - best_w[b]):
            return a, b
    return None


def _threats(p, dg, d):
    """Every way an acceptable pair (a, b) can cost at most d swaps, as
    events of dg's runs: yields (a, b, live, shield).

    Down the lattice a U agent's partner only sinks and a W agent's only
    climbs.  A pair threatens a stable matching where ``live`` has happened
    and ``shield`` has not; one (live, shield) per way x of splitting d
    between the two sides' rank gaps (see is_d_robust): a's partner ranks
    pos - x or worse, b's better than rb - d + x.  Both events change only
    where x crosses a bound of a's or b's runs, so each pair yields once per
    bound in its two windows, plus once.
    """
    rw = p.rank_w
    w_runs = dg.w_runs
    # b's partner never ranks below its u_optimal partner, its last bound
    worst_w = [bounds[-1] for bounds, _ in w_runs]
    for a, lst in enumerate(p.u_lists):
        ubounds, uevents = dg.u_runs[a]
        # a's own gap exceeds d past its last bound plus d
        for pos, b in enumerate(lst[: ubounds[-1] + d + 1]):
            rb = rw[b][a]
            if rb - d > worst_w[b]:
                continue  # b's own gap exceeds d in every stable matching
            wbounds, wevents = w_runs[b]
            i = bisect_left(ubounds, pos)
            if i < len(ubounds) and ubounds[i] == pos:
                # a stable pair, with opposing interests: away from (a, b)
                # exactly one of the two is better off, so only that side's
                # gap counts
                yield a, b, uevents[bisect_left(ubounds, pos - d)], uevents[i]
                j = bisect_left(wbounds, rb)
                yield a, b, wevents[j], wevents[bisect_left(wbounds, rb - d)]
            elif d:
                # at d=0 the one split is (a, b) blocking as it stands,
                # which no closed set allows; from x = 0, stop once b's
                # partner always ranks better than rb - d + x
                j = bisect_left(wbounds, rb - d)
                while j < len(wbounds):
                    yield a, b, uevents[i], wevents[j]
                    # the next x at which i falls and at which j rises
                    xa = pos - ubounds[i - 1] if i else d + 1
                    xb = wbounds[j] - rb + d + 1
                    if xa > d and xb > d:
                        break
                    if xa <= xb:
                        i -= 1
                    if xb <= xa:
                        j += 1


def _collect_constraints(p, dg, d):
    """Closure arcs (shield, live) for d-robustness: live in S requires
    shield in S.

    A threat live from the start (live == ALWAYS) forces its shield, one
    never shielded (shield == NEVER) forbids its live rotation, and one
    both leaves no matching; those that always hold are dropped.
    """
    return {
        (shield, live)
        for _, _, live, shield in _threats(p, dg, d)
        if live != NEVER and shield != ALWAYS and live != shield
    }


def _robust_closure(p, dg, d, weights):
    """Matching of the lightest closed rotation set of dg, the rotation
    digraph of p, that meets every d-robustness constraint, or None when
    none does."""
    # at d = 0 only stable pairs threaten, each with live == shield, so
    # there is nothing to collect
    chosen = min_weight_closure(dg, weights, _collect_constraints(p, dg, d) if d else frozenset())
    return None if chosen is None else matching_of(dg, chosen)


def _solve(p, d, objective):
    """find_d_robust's matching (objective None) or the objective's."""
    check_budget(d, finite=True)
    if objective == Objective.PERFECT and not is_perfect(p, p.u_opt):
        return None
    if d > 0 and _unshielded_pair(p, d) is not None:
        return None
    dg = rotation_digraph(p)
    weights = egalitarian_deltas(dg, p) if objective == Objective.EGALITARIAN else (1,) * dg.n
    return _robust_closure(p, dg, d, weights)


def find_d_robust(p, d):
    """A d-robust matching of p, or None when none exists.

    Turns every threat of at most d swaps into arcs over the rotation
    digraph and returns the matching of the smallest closed rotation set
    that respects them all (unit weight per rotation).  At d >= 1 a pair
    that rules out every matching from the two extreme stable matchings
    alone answers None before the digraph is built.
    """
    return _solve(p, d, None)


def find_d_robust_optimal(p, d, objective):
    """Best d-robust matching under Perfect or Egalitarian objectives.

    Both solve the closure find_d_robust solves, Egalitarian with each
    rotation weighed by its egalitarian delta.  All stable matchings match
    the same agents (the Rural Hospitals theorem), so Perfect answers None
    before the digraph is built when u_optimal is not perfect, and
    otherwise find_d_robust's matching, which is then perfect.
    """
    if objective not in (Objective.PERFECT, Objective.EGALITARIAN):
        raise InvalidInput("objective must be Perfect or Egalitarian")
    return _solve(p, d, objective)


def max_robustness(p):
    """Largest d admitting a d-robust matching, with a witness matching.

    d-robust implies (d-1)-robust, so the feasible d form a prefix of
    [0, limit], found by bisection over one rotation digraph; a budget at
    which the two extreme stable matchings already name an unshielded pair
    is ruled out before its constraints are collected.  The witness is
    find_d_robust's matching at that d, which at d = 0 is u_optimal (the
    empty closed set).  ``limit`` is the total-inversion bound, past which every
    profile in the ball has already appeared, or min(n_u, n_w) - 1.

    When some list has two entries (else the first bound is 0), every
    matching leaves an acceptable pair out, so some U agent lists
    someone besides its partner.  If that agent is matched and lists
    someone right below its partner, that pair's U gap is 1 and its W gap
    at most n_u - 1; otherwise its own gap adds nothing to some pair's
    cost.  Either way a pair costs at most n_u swaps, so no d >= n_u is
    feasible, and the same argument from a W agent rules out d >= n_w.
    """
    exhaustion = sum(l * (l - 1) // 2 for l in map(len, p.u_lists)) + sum(
        l * (l - 1) // 2 for l in map(len, p.w_lists)
    )
    dg = rotation_digraph(p)
    weights = (1,) * dg.n
    lo, best = 0, dg.u_opt
    hi = min(exhaustion, p.n_u - 1, p.n_w - 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        m = None if _unshielded_pair(p, mid) else _robust_closure(p, dg, mid, weights)
        if m is None:
            hi = mid - 1
        else:
            lo, best = mid, m
    return lo, best
