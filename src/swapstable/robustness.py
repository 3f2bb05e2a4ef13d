"""Swap-distance robustness of stable matchings.

A matching is d-robust when it stays stable under every reordering of the
preference lists that costs at most d adjacent swaps in total.  The checker
reduces this to a rank-gap condition per acceptable pair outside the
matching.  The solver states the same condition per acceptable pair over
the rotation digraph: down the lattice a U agent's partner only sinks and a
W agent's only climbs, so each way a pair can cost at most d is a threat
between two events, each brought about by one rotation of the digraph's
per-pair index (``u_passed``, ``crossed``).  A threat becomes an
implication arc, a forced or forbidden rotation, or infeasibility.  The
closure that picks the matching weighs every rotation 1 for find_d_robust
(the smallest admissible closed set) and by its egalitarian delta for
find_d_robust_optimal.
"""

from dataclasses import replace

from .classic import matched_partition
from .errors import InvalidInput
from .profile import Agent, Objective, _promote, blocking_pairs
from .rotations import RotationWeights, matching_of, min_weight_closure, rotation_digraph


def _gap_witness(p, m, ui, wj):
    """Cheapest profile in which (ui, wj) blocks m, by shifting each matched
    endpoint's list."""
    u_lists, w_lists, ru, rw = p.u_lists, p.w_lists, p.rank_u, p.rank_w
    pi, pj = m.pu[ui], m.pw[wj]
    if pi >= 0:
        u_lists = _promote(u_lists, ui, wj, ru[ui][wj] - ru[ui][pi])
    if pj >= 0:
        w_lists = _promote(w_lists, wj, ui, rw[wj][ui] - rw[wj][pj])
    return replace(p, u_lists=u_lists, w_lists=w_lists)


def is_d_robust(p, m, d):
    """Decide whether m stays stable in every profile within swap distance d.

    Returns ``(True, None)`` or ``(False, (profile, (u, w)))`` where the
    profile lies within distance d of p and the pair blocks m there.  A
    threat by an acceptable pair outside m costs rank(other) -
    rank(partner) swaps on each matched side (nothing on an unmatched
    side), and m is d-robust iff every such pair costs more than d.  The
    scan of a matched U agent's list stops where its own gap exceeds d.
    """
    if d < 0:
        raise InvalidInput("d must be nonnegative")
    bp = blocking_pairs(p, m)
    if bp:
        return False, (p, bp[0])
    pu, pw, ru, rw = m.pu, m.pw, p.rank_u, p.rank_w
    for ui in range(p.n_u):
        for pos, wj in enumerate(p.u_lists[ui]):
            if pu[ui] == wj:
                continue
            cost = 0
            if pu[ui] >= 0:
                cost += max(pos - ru[ui][pu[ui]], 0)
                if cost > d:
                    break  # every later pair costs more on ui's side alone
            if pw[wj] >= 0:
                cost += max(rw[wj][ui] - rw[wj][pw[wj]], 0)
            if cost <= d:
                witness = _gap_witness(p, m, ui, wj)
                return False, (witness, (Agent.u(ui), Agent.w(wj)))
    return True, None


# An event is the rotation of the per-pair index that brings it about, or
# one of these: it holds at u_optimal already, or in no stable matching.
_ALWAYS, _NEVER = "always", "never"


def _threats(p, dg, d):
    """Every way an acceptable pair can cost at most d swaps, as events.

    Down the lattice a U agent's partner only sinks and a W agent's only
    climbs.  A pair threatens a stable matching where ``live`` has happened
    and ``shield`` has not; one (live, shield) per way of splitting d
    between the two sides' rank gaps (see is_d_robust).
    """
    ru, rw = p.rank_u, p.rank_w
    # rank of each U-optimal partner; an agent unmatched there is unmatched
    # in every stable matching, which ranks below its whole list
    rank_u0 = [len(lst) for lst in p.u_lists]
    rank_w0 = [len(lst) for lst in p.w_lists]
    for a, b in dg.u_opt.pairs:
        rank_u0[a] = ru[a][b]
        rank_w0[b] = rw[b][a]

    def sinks(a, r):
        """a's partner ranks r or worse."""
        if r <= rank_u0[a]:
            return _ALWAYS
        return dg.u_passed.get((a, p.u_lists[a][r - 1]), _NEVER)

    def climbs(b, r):
        """b's partner ranks better than r."""
        if r <= 0:
            return _NEVER
        if rank_w0[b] < r:
            return _ALWAYS
        return dg.crossed.get((b, p.w_lists[b][r - 1]), _NEVER)

    for a in range(p.n_u):
        for pos, b in enumerate(p.u_lists[a]):
            if sinks(a, pos - d) == _NEVER:
                break  # a's own gap exceeds d here and further down
            rb = rw[b][a]
            if (a, b) in dg.u_opt.pairs or (a, b) in dg.movesto:
                # opposing interests: away from (a, b) exactly one of the
                # two is better off, so only that side's gap counts
                yield sinks(a, pos - d), sinks(a, pos)
                yield climbs(b, rb), climbs(b, rb - d)
            elif d:
                # at d=0 the one split is (a, b) blocking as it stands, which no closed set allows
                for x in range(d + 1):
                    yield sinks(a, pos - x), climbs(b, rb - d + x)


def _collect_constraints(p, dg, d):
    """Constraint system over rotations for d-robustness, or None.

    Each threat leaves one of: an implication arc (shield, live) meaning
    live in S requires shield in S, a forbidden live (the threat can never
    be answered), a forced shield (the threat is live from the start), or
    infeasibility when both hold.
    """
    extra_arcs, forced, forbidden = set(), set(), set()
    for live, shield in _threats(p, dg, d):
        if live == _NEVER or shield == _ALWAYS or live == shield:
            continue
        if live == _ALWAYS and shield == _NEVER:
            return None
        if live == _ALWAYS:
            forced.add(shield)
        elif shield == _NEVER:
            forbidden.add(live)
        else:
            extra_arcs.add((shield, live))
    return extra_arcs, forced, forbidden


def _robust_closure(p, dg, d, weights):
    """Matching of the lightest closed rotation set of dg, the rotation
    digraph of p, that meets every d-robustness constraint, or None when
    none does."""
    if d < 0:
        raise InvalidInput("d must be nonnegative")
    constraints = _collect_constraints(p, dg, d)
    if constraints is None:
        return None
    extra_arcs, forced, forbidden = constraints
    chosen = min_weight_closure(dg, weights, forced, forbidden, extra_arcs)
    return None if chosen is None else matching_of(dg, chosen)


def find_d_robust(p, d):
    """A d-robust matching of p, or None when none exists.

    Turns every threat of at most d swaps into constraints over the
    rotation digraph and returns the matching of the smallest closed
    rotation set that satisfies them all (unit weight per rotation).
    """
    dg = rotation_digraph(p)
    return _robust_closure(p, dg, d, RotationWeights(delta=(1,) * dg.n))


def find_d_robust_optimal(p, d, objective):
    """Best d-robust matching under Perfect or Egalitarian objectives.

    Perfect succeeds iff the profile matches everybody (all stable
    matchings match the same agents).  Egalitarian solves minimum-weight
    closure under the same constraint system find_d_robust uses.
    """
    if objective == Objective.PERFECT:
        if matched_partition(p).n_unmatched > 0:
            return None
        return find_d_robust(p, d)
    if objective != Objective.EGALITARIAN:
        raise InvalidInput("objective must be Perfect or Egalitarian")
    dg = rotation_digraph(p)
    return _robust_closure(p, dg, d, RotationWeights.measured(dg, p))


def max_robustness(p, cap=None):
    """Largest d admitting a d-robust matching, with a witness matching.

    d-robust implies (d-1)-robust, so the feasible d form a prefix of
    [0, limit], found by bisection over one rotation digraph; the witness
    is find_d_robust's matching at that d.  ``limit`` is ``cap`` (default:
    the larger side size) or the total-inversion bound, past which every
    profile in the ball has already appeared, whichever is smaller.
    """
    if cap is None:
        cap = max(p.n_u, p.n_w)
    if cap < 0:
        raise InvalidInput("cap must be nonnegative")
    exhaustion = sum(l * (l - 1) // 2 for l in map(len, p.u_lists)) + sum(
        l * (l - 1) // 2 for l in map(len, p.w_lists)
    )
    dg = rotation_digraph(p)
    weights = RotationWeights(delta=(1,) * dg.n)
    best = _robust_closure(p, dg, 0, weights)
    if best is None:
        return None
    lo, hi = 0, min(cap, exhaustion)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        m = _robust_closure(p, dg, mid, weights)
        if m is None:
            hi = mid - 1
        else:
            lo, best = mid, m
    return lo, best
