"""Nearly stable matchings: checkers, witnesses, solvers, and repair.

A matching that is not stable may still be d-nearly stable: some profile
within swap distance d (total over all lists for the global notion, per
list for the local one) renders it stable.  The local notion collapses to
a per-blocking-pair rank-gap formula; the global one is solved exactly as
a minimum cut over per-agent shift thresholds.  Both solvers for the
optimization problems (find a nearly stable matching that is perfect or
cheap) are exponential-time exact searches, which is as good as it gets:
the decision problems are NP-hard even for budget 1.

The defusing move throughout is promoting an agent's current partner past
a blocker in that agent's own list.  Such promotions never create new
blocking pairs, which is what makes both witness constructions and the
cut model exact.  An unmatched agent has no partner to promote, so a
blocking pair of two unmatched agents cannot be defused at any budget;
checkers report INFINITE in that case.
"""

from dataclasses import dataclass
from typing import Optional, Union

from ._flow import FlowNetwork
from .classic import matched_partition, u_optimal
from .errors import Error, InvalidInput, NotNearlyStable
from .profile import (
    INFINITE,
    Matching,
    Objective,
    Profile,
    Side,
    SwapOp,
    apply_swap,
    blocking_pairs,
    egalitarian_cost,
    is_perfect,
    is_stable,
    swap_distance,
)
from .rotations import (
    RotationWeights,
    matching_of,
    min_weight_closure,
    rotation_digraph,
)

Cost = Union[int, float]


@dataclass(frozen=True)
class NearStabilityReport:
    """How far a matching is from stable, both ways, with witnesses.

    local_bound is the smallest per-list budget, global_cost the smallest
    total budget; both are INFINITE exactly when some blocking pair joins
    two unmatched agents.  Each witness profile (present when its bound is
    finite) makes the matching stable at the reported distance.
    """

    local_bound: Cost
    global_cost: Cost
    witness_local: Optional[Profile]
    witness_global: Optional[Profile]


def _verify(ok, what):
    """Raise Error naming an output check that failed; runs under -O too."""
    if not ok:
        raise Error("output check failed: %s" % what)


def _defuse_costs(p, m, i, j):
    """Swaps each endpoint of blocking pair (u_i, w_j) needs to defuse it.

    The cost at an endpoint is the forward shift of its current partner
    past the blocker; INFINITE when the endpoint is unmatched.
    """
    pi = int(m.pu[i])
    pj = int(m.pw[j])
    cu = INFINITE if pi < 0 else int(p.rank_u[i, pi]) - int(p.rank_u[i, j])
    cw = INFINITE if pj < 0 else int(p.rank_w[j, pj]) - int(p.rank_w[j, i])
    return cu, cw


def _promote(lists, owner, member, steps):
    """Move member up by steps positions in owner's list."""
    if steps <= 0:
        return lists
    lst = list(lists[owner])
    src = lst.index(member)
    del lst[src]
    lst.insert(src - steps, member)
    return lists[:owner] + (tuple(lst),) + lists[owner + 1 :]


def local_instability(p, m) -> Cost:
    """Worst blocking pair's cheaper defusing cost; 0 when m is stable.

    This equals the smallest d for which some profile with every list
    within d swaps of p makes m stable: orienting each blocking pair
    toward its cheaper endpoint and promoting that endpoint's partner
    past its best-ranked blocker fixes everything at once, and no single
    list can settle a blocking pair for less than the rank gap.
    """
    worst = 0
    for ua, wa in blocking_pairs(p, m):
        cu, cw = _defuse_costs(p, m, ua.index, wa.index)
        worst = max(worst, min(cu, cw))
    return worst


def is_locally_d_nearly_stable(p, m, d_l) -> bool:
    """Does some profile within d_l swaps per list make m stable?"""
    return local_instability(p, m) <= d_l


def witness_profile_local(p, m, d_l) -> Profile:
    """A profile within d_l swaps per list in which m is stable.

    Each blocking pair is charged to its cheaper matched endpoint (ties
    go to the W side); each charged agent promotes its partner past its
    best-ranked charged blocker, which defuses all of them and introduces
    no new blocking pairs.  Raises NotNearlyStable when d_l is too small.
    """
    if not is_locally_d_nearly_stable(p, m, d_l):
        raise NotNearlyStable(
            "matching has local instability %s, budget was %s"
            % (local_instability(p, m), d_l)
        )
    u_top = {}
    w_top = {}
    for ua, wa in blocking_pairs(p, m):
        i, j = ua.index, wa.index
        cu, cw = _defuse_costs(p, m, i, j)
        if cw <= cu:
            r = int(p.rank_w[j, i])
            w_top[j] = min(w_top.get(j, r), r)
        else:
            r = int(p.rank_u[i, j])
            u_top[i] = min(u_top.get(i, r), r)
    u_lists = p.u_lists
    w_lists = p.w_lists
    for i, target in u_top.items():
        partner = int(m.pu[i])
        u_lists = _promote(
            u_lists, i, partner, int(p.rank_u[i, partner]) - target
        )
    for j, target in w_top.items():
        partner = int(m.pw[j])
        w_lists = _promote(
            w_lists, j, partner, int(p.rank_w[j, partner]) - target
        )
    q = Profile(u_lists, w_lists, p.u_names, p.w_names)
    _verify(is_stable(q, m), "local witness makes the matching stable")
    return q


def global_stabilization_cost(p, m):
    """Smallest total swap distance to a profile where m is stable.

    Covering blocking pair (u, w) at an endpoint costs that endpoint's
    rank gap, and one promotion past the best-ranked covered blocker pays
    for all cheaper ones, so each agent's options form a chain of unit
    steps.  Every pair needs one side covered; the cheapest choice is a
    minimum s-t cut with U-chains oriented from the source and W-chains
    toward the sink.  Returns (cost, witness profile), or (INFINITE, None)
    when two unmatched agents block each other.  The witness promotes only
    matched partners, which never creates new blocking pairs, so the cut
    value is exact, not just an upper bound.
    """
    bps = blocking_pairs(p, m)
    if not bps:
        return (0, p)
    needs = []
    max_u = {}
    max_w = {}
    for ua, wa in bps:
        i, j = ua.index, wa.index
        cu, cw = _defuse_costs(p, m, i, j)
        if cu is INFINITE and cw is INFINITE:
            return (INFINITE, None)
        needs.append((i, j, cu, cw))
        if cu is not INFINITE:
            max_u[i] = max(max_u.get(i, 0), cu)
        if cw is not INFINITE:
            max_w[j] = max(max_w.get(j, 0), cw)
    inf_cap = 1 + sum(max_u.values()) + sum(max_w.values())
    net = FlowNetwork()
    # A U node on the sink side means that unit step is performed; a W
    # node on the source side likewise.  Infinite arcs keep each chain a
    # prefix and forbid leaving a pair uncovered on both sides.
    for i, top in max_u.items():
        for k in range(1, top + 1):
            net.add_edge("s", ("u", i, k), 1)
            if k > 1:
                net.add_edge(("u", i, k - 1), ("u", i, k), inf_cap)
    for j, top in max_w.items():
        for k in range(1, top + 1):
            net.add_edge(("w", j, k), "t", 1)
            if k > 1:
                net.add_edge(("w", j, k), ("w", j, k - 1), inf_cap)
    for i, j, cu, cw in needs:
        if cu is INFINITE:
            net.add_edge("s", ("w", j, cw), inf_cap)
        elif cw is INFINITE:
            net.add_edge(("u", i, cu), "t", inf_cap)
        else:
            net.add_edge(("u", i, cu), ("w", j, cw), inf_cap)
    cost = net.max_flow("s", "t")
    # Min cuts form a lattice; taking the one nearest the sink resolves
    # ties toward W-side promotions, which keeps the witness deterministic.
    sink = net.sink_side("t")
    u_lists = p.u_lists
    w_lists = p.w_lists
    total = 0
    for i, top in max_u.items():
        steps = sum(1 for k in range(1, top + 1) if ("u", i, k) in sink)
        total += steps
        u_lists = _promote(u_lists, i, int(m.pu[i]), steps)
    for j, top in max_w.items():
        steps = sum(1 for k in range(1, top + 1) if ("w", j, k) not in sink)
        total += steps
        w_lists = _promote(w_lists, j, int(m.pw[j]), steps)
    _verify(total == cost, "cut sides add up to the flow value")
    q = Profile(u_lists, w_lists, p.u_names, p.w_names)
    _verify(is_stable(q, m), "global witness makes the matching stable")
    _verify(swap_distance(p, q) == cost, "global witness lies at the cut distance")
    return (cost, q)


def near_stability_report(p, m) -> NearStabilityReport:
    """Both minimal budgets for m, with witness profiles where finite."""
    local = local_instability(p, m)
    global_cost, witness_global = global_stabilization_cost(p, m)
    witness_local = None
    if local is not INFINITE:
        witness_local = witness_profile_local(p, m, local)
    return NearStabilityReport(
        local_bound=local,
        global_cost=global_cost,
        witness_local=witness_local,
        witness_global=witness_global,
    )


def _profile_ball(p, budget):
    """Yield (distance, profile) over the swap ball, closest first.

    Breadth-first by total distance with deduplication on the list
    tuples, so each reachable profile appears exactly once at its true
    distance.
    """
    start = (p.u_lists, p.w_lists)
    seen = {start}
    frontier = [start]
    yield 0, p
    for dist in range(1, budget + 1):
        nxt = []
        for u_lists, w_lists in frontier:
            for a, lst in enumerate(u_lists):
                for k in range(len(lst) - 1):
                    swapped = list(lst)
                    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                    key = (
                        u_lists[:a] + (tuple(swapped),) + u_lists[a + 1 :],
                        w_lists,
                    )
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
            for a, lst in enumerate(w_lists):
                for k in range(len(lst) - 1):
                    swapped = list(lst)
                    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                    key = (
                        u_lists,
                        w_lists[:a] + (tuple(swapped),) + w_lists[a + 1 :],
                    )
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
        for u_lists, w_lists in nxt:
            yield dist, Profile(u_lists, w_lists, p.u_names, p.w_names)
        frontier = nxt


def _best_egal(q, p):
    """Egalitarian-optimal stable matching of q, priced by p's ranks."""
    dg = rotation_digraph(q)
    weights = RotationWeights.measured(dg, p)
    chosen = min_weight_closure(dg, weights)
    m = matching_of(dg, chosen)
    return egalitarian_cost(p, m), m


def _perfect_precheck(p):
    """Budget-independent reasons no nearly stable matching is perfect.

    Stability in any reordering matches never-matched agents only to
    always-matched ones (their acceptable partners are all matched, or
    the two would block), so a perfect matching needs each side's
    never-matched agents to fit into the other side's matched set.
    """
    if p.n_u != p.n_w:
        return False
    part = matched_partition(p)
    matched_u = sum(1 for a in part.matched_agents if a.side == Side.U)
    matched_w = part.n_matched - matched_u
    unmatched_u = p.n_u - matched_u
    unmatched_w = p.n_w - matched_w
    return unmatched_u <= matched_w and unmatched_w <= matched_u


def _check_objective(objective, eta):
    objective = Objective(objective)
    if objective == Objective.PERFECT:
        return objective
    if objective == Objective.EGALITARIAN:
        if eta is None:
            raise InvalidInput("egalitarian objective needs an eta bound")
        return objective
    raise InvalidInput("objective must be perfect or egalitarian")


def solve_global_near(p, d_g, objective, eta=None):
    """Matching satisfying the objective in p and stable within d_g swaps.

    Walks the swap ball closest profile first.  Perfect: a profile works
    iff its stable matchings leave nobody unmatched.  Egalitarian: the
    profile's cheapest stable matching, priced by p's ranks, must cost at
    most eta.  Returns (matching, witness profile) or None.  The number
    of matched agents moves by at most two per swap, so budgets below
    half the unmatched count are rejected without searching.
    """
    objective = _check_objective(objective, eta)
    if d_g < 0:
        raise InvalidInput("budget must be nonnegative, got %r" % d_g)
    if objective == Objective.PERFECT:
        if not _perfect_precheck(p):
            return None
        if 2 * d_g < matched_partition(p).n_unmatched:
            return None
    for _, q in _profile_ball(p, d_g):
        if objective == Objective.PERFECT:
            if matched_partition(q).n_unmatched == 0:
                return (u_optimal(q), q)
        else:
            cost, m = _best_egal(q, p)
            if cost <= eta:
                return (m, q)
    return None


def _settle_deadline(p):
    """Last U index that could still take each W agent, -1 when nobody."""
    deadline = [-1] * p.n_w
    for i, lst in enumerate(p.u_lists):
        for j in lst:
            deadline[j] = max(deadline[j], i)
    return deadline


def _prefix_conflict(p, pu, pw, depth, d_l, deadline):
    """Does the decided part already contain an undefusable blocking pair?

    Only pairs whose fate is sealed count: the U endpoint is decided, and
    the W endpoint is either matched (partners are never revisited) or
    beyond its last chance of getting one.  Pairs a later U agent could
    still resolve are left alone.
    """
    for k in range(depth):
        pk = pu[k]
        limit = p.len_u[k] if pk < 0 else int(p.rank_u[k, pk])
        for pos in range(limit):
            j = p.u_lists[k][pos]
            pj = pw[j]
            if pj >= 0:
                if int(p.rank_w[j, k]) < int(p.rank_w[j, pj]):
                    cu = INFINITE if pk < 0 else limit - pos
                    cw = int(p.rank_w[j, pj]) - int(p.rank_w[j, k])
                    if min(cu, cw) > d_l:
                        return True
            elif deadline[j] < depth:
                if pk < 0 or limit - pos > d_l:
                    return True
    return False


def _local_search(p, d_l, objective, eta, first):
    """Branch-and-bound over matchings with per-list instability <= d_l.

    Depth-first over U agents in index order, partners tried in
    preference order (then unmatched, unless the objective is perfect).
    A branch dies as soon as a sealed pair cannot be defused within d_l
    or, for the egalitarian objective, the accumulated cost of the decided
    agents passes eta.  With ``first`` set, returns the first feasible
    leaf; otherwise tightens eta below each feasible leaf's cost and
    returns the last one found, which is the cheapest.  None when no leaf
    is feasible.  The stack holds one frame per decided U agent, so depth
    is not bounded by the interpreter's recursion limit.
    """
    deadline = _settle_deadline(p)
    bounded = objective == Objective.EGALITARIAN
    tail = [-1] if bounded else []
    pu = [-1] * p.n_u
    pw = [-1] * p.n_w
    best = None
    # frames[i] is [options of u_i, index of its next option, cost of u_0..u_{i-1}]
    frames = []
    acc = 0
    while True:
        if len(frames) < p.n_u:
            options = [int(j) for j in p.u_lists[len(frames)] if pw[j] < 0]
            frames.append([options + tail, 0, acc])
        else:
            m = Matching.from_pairs(
                p.n_u, p.n_w, [(k, pu[k]) for k in range(p.n_u) if pu[k] >= 0]
            )
            if bounded:
                cost = egalitarian_cost(p, m)
                fits = cost <= eta
            else:
                fits = is_perfect(p, m)
            if fits and local_instability(p, m) <= d_l:
                if first:
                    return m
                best, eta = m, cost - 1
        # Undo the top agent's choice and move it to its next option that
        # survives both prunes, popping agents whose options ran out.
        while frames:
            i = len(frames) - 1
            frame = frames[i]
            options, k, base = frame
            if pu[i] >= 0:
                pw[pu[i]] = -1
                pu[i] = -1
            if k == len(options):
                frames.pop()
                continue
            frame[1] = k + 1
            j = options[k]
            if j >= 0:
                pu[i] = j
                pw[j] = i
                step = int(p.rank_u[i, j]) + int(p.rank_w[j, i])
            else:
                step = int(p.len_u[i])
            if not (bounded and base + step > eta) and not _prefix_conflict(
                p, pu, pw, i + 1, d_l, deadline
            ):
                acc = base + step
                break
        else:
            return best


def solve_local_near(p, d_l, objective, eta=None):
    """Matching satisfying the objective with per-list instability <= d_l.

    Exact branch-and-bound (see _local_search) stopping at the first
    feasible matching, which is returned; None when there is none.
    """
    objective = _check_objective(objective, eta)
    if d_l < 0:
        raise InvalidInput("budget must be nonnegative, got %r" % d_l)
    if objective == Objective.PERFECT and not _perfect_precheck(p):
        return None
    return _local_search(p, d_l, objective, eta, first=True)


def repair_after_swap(p1, m1, s: SwapOp) -> Matching:
    """Stable matching of the swapped profile, changing few agents' fates.

    One swap can break at most the pair it promotes, so the repair starts
    by matching those two, parking their jilted partners in a penalty box
    (one agent per side at most).  Each boxed agent then repeatedly takes
    its favorite blocking partner, displacing that partner's partner into
    the box, until no blocking pairs remain; U side first, then W.  Every
    step strictly improves somebody, so this stops, and the sets of
    unmatched agents before and after differ by at most two.
    """
    if not is_stable(p1, m1):
        raise InvalidInput("matching must be stable in the pre-swap profile")
    p2 = apply_swap(p1, s)
    if is_stable(p2, m1):
        return m1
    o = s.owner
    if o.side == Side.U:
        ranks = p2.rank_u[o.index]
    else:
        ranks = p2.rank_w[o.index]
    promoted = s.x if ranks[s.x.index] < ranks[s.y.index] else s.y
    if o.side == Side.U:
        i0, j0 = o.index, promoted.index
    else:
        i0, j0 = promoted.index, o.index
    pu = [int(v) for v in m1.pu]
    pw = [int(v) for v in m1.pw]
    box_u = None
    box_w = None
    if pu[i0] >= 0:
        box_w = pu[i0]
        pw[box_w] = -1
    if pw[j0] >= 0:
        box_u = pw[j0]
        pu[box_u] = -1
    pu[i0] = j0
    pw[j0] = i0
    # The boxed W agent is off limits during the U phase: pairing her with
    # whoever reaches her first would not defuse her better-ranked blocking
    # pairs, and the box would be empty.  She resolves them on her own turn
    # by taking her most preferred blocking partner.
    while box_u is not None:
        u = box_u
        box_u = None
        for j in p2.u_lists[u]:
            if j == box_w:
                continue
            pj = pw[j]
            if pj < 0 or p2.rank_w[j, u] < p2.rank_w[j, pj]:
                if pj >= 0:
                    pu[pj] = -1
                    box_u = pj
                pu[u] = j
                pw[j] = u
                break
    while box_w is not None:
        w = box_w
        box_w = None
        for i in p2.w_lists[w]:
            pi = pu[i]
            if pi < 0 or p2.rank_u[i, w] < p2.rank_u[i, pi]:
                if pi >= 0:
                    pw[pi] = -1
                    box_w = pi
                pw[w] = i
                pu[i] = w
                break
    m2 = Matching.from_pairs(
        p2.n_u, p2.n_w, [(i, pu[i]) for i in range(p2.n_u) if pu[i] >= 0]
    )
    _verify(is_stable(p2, m2), "repaired matching is stable")
    return m2


def tradeoff_curve(p, mode, d_max, objective):
    """Best objective value per budget d = 0..d_max, as (d, value) pairs.

    Perfect: value is whether a d-nearly stable perfect matching exists.
    Egalitarian: value is the cheapest egalitarian cost (priced by p)
    over d-nearly stable matchings.  Values only improve as d grows.
    Global mode walks the swap ball once; local mode solves each budget.
    """
    objective = Objective(objective)
    if objective not in (Objective.PERFECT, Objective.EGALITARIAN):
        raise InvalidInput("objective must be perfect or egalitarian")
    if d_max < 0:
        raise InvalidInput("d_max must be nonnegative, got %r" % d_max)
    out = []
    if mode == "global":
        best = False if objective == Objective.PERFECT else INFINITE
        last = 0
        feasible = objective != Objective.PERFECT or _perfect_precheck(p)
        for dist, q in _profile_ball(p, d_max):
            while last < dist:
                out.append((last, best))
                last += 1
            if objective == Objective.PERFECT:
                if feasible and not best:
                    best = matched_partition(q).n_unmatched == 0
                if best:
                    break
            else:
                best = min(best, _best_egal(q, p)[0])
        while last <= d_max:
            out.append((last, best))
            last += 1
        return out
    if mode == "local":
        for d in range(d_max + 1):
            if objective == Objective.PERFECT:
                value = solve_local_near(p, d, objective) is not None
            else:
                # stable matchings qualify at every budget, so a leaf exists
                best = _local_search(p, d, objective, INFINITE, first=False)
                value = egalitarian_cost(p, best)
            out.append((d, value))
        return out
    raise InvalidInput("mode must be 'global' or 'local', got %r" % mode)
