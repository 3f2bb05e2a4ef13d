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
find_d_robust_optimal.  Stable quadruples and their swap sets spell out the
threats between two stable pairs of one matching.
"""

from dataclasses import dataclass, replace

from .classic import matched_partition
from .errors import InvalidInput, verify
from .profile import Agent, Objective, Side, SwapOp, blocking_pairs
from .rotations import (
    RotationWeights,
    matching_of,
    min_weight_closure,
    rotation_digraph,
    stable_pairs,
)


@dataclass(frozen=True)
class StableQuadruple:
    """Four distinct agents (uStar, wStar, u, w) such that some stable
    matching contains both {uStar, w} and {u, wStar}; shifting wStar ahead
    of w and uStar ahead of u makes {uStar, wStar} block that matching."""

    u_star: Agent
    w_star: Agent
    u: Agent
    w: Agent


@dataclass(frozen=True)
class SwapSet:
    """The cheapest swaps realizing a quadruple's threat, plus the two
    reordered lists they produce."""

    swaps: frozenset
    shifted_list_u: tuple
    shifted_list_w: tuple


def _quadruple_indices(p, q):
    """Unpack a quadruple to indices, checking shape and acceptability."""
    if (
        q.u_star.side != Side.U
        or q.u.side != Side.U
        or q.w_star.side != Side.W
        or q.w.side != Side.W
    ):
        raise InvalidInput("quadruple sides must be (U, W, U, W)")
    us, ws, u, w = q.u_star.index, q.w_star.index, q.u.index, q.w.index
    if us == u or ws == w:
        raise InvalidInput("quadruple agents must be distinct")
    if not (0 <= us < p.n_u and 0 <= u < p.n_u and 0 <= ws < p.n_w and 0 <= w < p.n_w):
        raise InvalidInput("quadruple references unknown agents")
    for ui, wj in ((us, ws), (us, w), (u, ws)):
        if p.rank_u_rows[ui][wj] >= len(p.u_lists[ui]):
            raise InvalidInput(
                "%s and %s are not mutually acceptable"
                % (p.name_of(Agent.u(ui)), p.name_of(Agent.w(wj)))
            )
    return us, ws, u, w


def _pair_masks(dg, pairs):
    """For each stable pair: rotations its presence needs, and the one that
    removes it.  A pair sits in matching_of(S) iff its producing rotation
    (with ancestors) is inside S and its consuming rotation is outside."""
    need = {}
    block = {}
    for pr in pairs:
        i = dg.movesto.get(pr)
        need[pr] = 0 if i is None else dg.ancestor_masks[i] | (1 << i)
        i = dg.consumed.get(pr)
        block[pr] = 0 if i is None else 1 << i
    return need, block


def _iter_quadruples(p, dg, cap):
    pairs = sorted(stable_pairs(p, dg))
    need, block = _pair_masks(dg, pairs)
    ru, rw = p.rank_u_rows, p.rank_w_rows
    for us, w in pairs:
        for u, ws in pairs:
            if us == u or ws == w:
                continue
            if ru[us][ws] >= len(p.u_lists[us]):
                continue
            gap = max(ru[us][ws] - ru[us][w], 0) + max(rw[ws][us] - rw[ws][u], 0)
            if cap is not None and gap > cap:
                continue
            if (need[(us, w)] | need[(u, ws)]) & (block[(us, w)] | block[(u, ws)]):
                continue
            verify(gap > 0, "co-stable pairs cannot block as they stand")
            yield StableQuadruple(Agent.u(us), Agent.w(ws), Agent.u(u), Agent.w(w))


def stable_quadruples(p, max_swap_set_size=None):
    """All stable quadruples of p, cheapest-threat filter optional.

    Parameters
    ----------
    p : Profile
    max_swap_set_size : int, optional
        Keep only quadruples whose swap set has at most this many swaps.

    Yields
    ------
    StableQuadruple in deterministic (stable-pair, stable-pair) order.
    """
    yield from _iter_quadruples(p, rotation_digraph(p), max_swap_set_size)


def _is_costable(p, q, dg):
    us, ws, u, w = q.u_star.index, q.w_star.index, q.u.index, q.w.index
    pairs = stable_pairs(p, dg)
    if (us, w) not in pairs or (u, ws) not in pairs:
        return False
    need, block = _pair_masks(dg, [(us, w), (u, ws)])
    return not (need[(us, w)] | need[(u, ws)]) & (block[(us, w)] | block[(u, ws)])


def _check_quadruple(p, q):
    us, ws, u, w = _quadruple_indices(p, q)
    if not _is_costable(p, q, rotation_digraph(p)):
        raise InvalidInput("no stable matching contains both pairs of %r" % (q,))
    return us, ws, u, w


def _shift_in_front(lists, owner, mover, target):
    """Move ``mover`` directly in front of ``target`` in owner's list."""
    lst = list(lists[owner])
    src = lst.index(mover)
    dst = lst.index(target)
    if src <= dst:
        return lists
    del lst[src]
    lst.insert(dst, mover)
    return lists[:owner] + (tuple(lst),) + lists[owner + 1 :]


def swap_set(p, q):
    """The swaps realizing q's threat and the two lists they produce.

    Moving wStar directly in front of w in uStar's list takes one swap per
    agent passed over (w included); likewise for uStar in wStar's list.
    Raises InvalidInput when q is not a stable quadruple of p.
    """
    us, ws, u, w = _check_quadruple(p, q)
    swaps = set()
    for pos in range(p.rank_u_rows[us][w], p.rank_u_rows[us][ws]):
        swaps.add(SwapOp(Agent.u(us), Agent.w(ws), Agent.w(p.u_lists[us][pos])))
    for pos in range(p.rank_w_rows[ws][u], p.rank_w_rows[ws][us]):
        swaps.add(SwapOp(Agent.w(ws), Agent.u(us), Agent.u(p.w_lists[ws][pos])))
    u_lists = _shift_in_front(p.u_lists, us, ws, w)
    w_lists = _shift_in_front(p.w_lists, ws, us, u)
    return SwapSet(
        swaps=frozenset(swaps),
        shifted_list_u=u_lists[us],
        shifted_list_w=w_lists[ws],
    )


def shifted_profile(p, q):
    """Profile after applying swap_set(p, q); only two lists change."""
    us, ws, u, w = _check_quadruple(p, q)
    return replace(
        p,
        u_lists=_shift_in_front(p.u_lists, us, ws, w),
        w_lists=_shift_in_front(p.w_lists, ws, us, u),
    )


def _gap_witness(p, m, ui, wj):
    """Cheapest profile in which (ui, wj) blocks m, by shifting each matched
    endpoint's list."""
    u_lists = p.u_lists
    w_lists = p.w_lists
    if m.pu[ui] >= 0:
        u_lists = _shift_in_front(u_lists, ui, wj, int(m.pu[ui]))
    if m.pw[wj] >= 0:
        w_lists = _shift_in_front(w_lists, wj, ui, int(m.pw[wj]))
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
    pu, pw, ru, rw = m.pu.tolist(), m.pw.tolist(), p.rank_u_rows, p.rank_w_rows
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
    ru, rw = p.rank_u_rows, p.rank_w_rows
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


def _robust_closure(p, d, weigh):
    """Matching of the lightest closed rotation set meeting every
    d-robustness constraint, or None when none does; ``weigh(dg)`` gives
    the RotationWeights."""
    if d < 0:
        raise InvalidInput("d must be nonnegative")
    dg = rotation_digraph(p)
    constraints = _collect_constraints(p, dg, d)
    if constraints is None:
        return None
    extra_arcs, forced, forbidden = constraints
    chosen = min_weight_closure(dg, weigh(dg), forced, forbidden, extra_arcs)
    return None if chosen is None else matching_of(dg, chosen)


def find_d_robust(p, d):
    """A d-robust matching of p, or None when none exists.

    Turns every threat of at most d swaps into constraints over the
    rotation digraph and returns the matching of the smallest closed
    rotation set that satisfies them all (unit weight per rotation).
    """
    return _robust_closure(p, d, lambda dg: RotationWeights(delta=(1,) * dg.n))


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
    return _robust_closure(p, d, lambda dg: RotationWeights.measured(dg, p))


def max_robustness(p, cap=None):
    """Largest d admitting a d-robust matching, with a witness matching.

    Searches upward from 0 (d-robust implies (d-1)-robust, so the feasible
    region is a prefix).  The search stops at ``cap`` (default: the larger
    side size) or at the total-inversion bound, past which every profile in
    the ball has already appeared.
    """
    if cap is None:
        cap = max(p.n_u, p.n_w)
    exhaustion = sum(l * (l - 1) // 2 for l in map(len, p.u_lists)) + sum(
        l * (l - 1) // 2 for l in map(len, p.w_lists)
    )
    limit = min(cap, exhaustion)
    best = find_d_robust(p, 0)
    if best is None:
        return None
    d = 0
    while d < limit:
        nxt = find_d_robust(p, d + 1)
        if nxt is None:
            break
        d += 1
        best = nxt
    return d, best
