"""Nearly stable matchings: checkers, witnesses, solvers, and repair.

A matching that is not stable may still be d-nearly stable: some profile
within swap distance d (total over all lists for the global notion, per
list for the local one) renders it stable.  The local notion collapses to
a per-blocking-pair rank-gap formula; the global one is solved exactly as
a minimum cut over per-agent shift thresholds.  The optimization problems
(find a nearly stable matching that is perfect or cheap) share one
exponential-time exact search, a branch-and-bound over matchings whose
leaves are priced by the rank-gap formula or the min-cut; that is as good
as it gets, since the decision problems are NP-hard even for budget 1.
The stable end of each problem is polynomial, and the search starts from
it: the global solver returns u_optimal(p) without searching when it
meets the objective, the egalitarian tradeoff takes its d=0 value from
the egalitarian-optimal stable matching (a rotation closure) and caps
each later budget at the previous value, and the search prunes with
admissible lower bounds on the egalitarian cost and, in global mode, on
the stabilization cost.  Both solvers rule out a perfect answer up front
from the agents the profile's u_optimal matches, which every stable
matching matches (_perfect_ruled_out).

The defusing move throughout is promoting an agent's current partner past
a blocker in that agent's own list.  Such promotions never create new
blocking pairs, which is what makes both witness constructions and the
cut model exact.  Its cost per endpoint of each blocking pair comes from
_defuse_costs, which the local checker, the local witness and the cut
all read.  An unmatched agent has no partner to promote, so a blocking
pair of two unmatched agents cannot be defused at any budget; checkers
report INFINITE in that case.
"""

from dataclasses import dataclass
from typing import Optional, Union

from ._flow import FlowNetwork
from .errors import InvalidInput, NotNearlyStable, TooLarge, check_budget, verify
from .profile import (
    INFINITE,
    Matching,
    Objective,
    Profile,
    Side,
    SwapOp,
    _promote,
    apply_swap,
    blocking_indices,
    egalitarian_cost,
    is_stable,
    swap_distance,
)
from .robustness import find_d_robust_optimal

Cost = Union[int, float]

# Partners the near-stability search may try before raising TooLarge.
SEARCH_CAP = 1_000_000


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


def _defuse_costs(p, m):
    """Yield (i, j, cu, cw) for each blocking pair (u_i, w_j) of m, in
    blocking_indices order: the swaps each endpoint needs to defuse it.

    The cost at an endpoint is the forward shift of its current partner
    past the blocker; INFINITE when the endpoint is unmatched.
    """
    ru, rw, pu, pw = p.rank_u, p.rank_w, m.pu, m.pw
    for i, j in blocking_indices(p, m):
        pi, pj = pu[i], pw[j]
        cu = INFINITE if pi < 0 else ru[i][pi] - ru[i][j]
        cw = INFINITE if pj < 0 else rw[j][pj] - rw[j][i]
        yield i, j, cu, cw


def local_instability(p, m) -> Cost:
    """Worst blocking pair's cheaper defusing cost; 0 when m is stable.

    This equals the smallest d for which some profile with every list
    within d swaps of p makes m stable: orienting each blocking pair
    toward its cheaper endpoint and promoting that endpoint's partner
    past its best-ranked blocker fixes everything at once, and no single
    list can settle a blocking pair for less than the rank gap.
    """
    worst = 0
    for _, _, cu, cw in _defuse_costs(p, m):
        worst = max(worst, min(cu, cw))
    return worst


def is_locally_d_nearly_stable(p, m, d_l) -> bool:
    """Does some profile within d_l swaps per list make m stable?"""
    check_budget(d_l)
    return local_instability(p, m) <= d_l


def witness_profile_local(p, m, d_l) -> Profile:
    """A profile within d_l swaps per list in which m is stable.

    Each blocking pair is charged to its cheaper matched endpoint (ties
    go to the W side); each charged agent promotes its partner past its
    best-ranked charged blocker, that is by its dearest charged defusing
    cost, which defuses all of them and introduces no new blocking pairs.
    Raises NotNearlyStable when d_l is below local_instability, which the
    same scan computes, or when that is INFINITE, whatever d_l is.
    """
    check_budget(d_l)
    worst = 0
    u_steps = {}
    w_steps = {}
    for i, j, cu, cw in _defuse_costs(p, m):
        worst = max(worst, min(cu, cw))
        if cw <= cu:
            w_steps[j] = max(w_steps.get(j, 0), cw)
        else:
            u_steps[i] = max(u_steps.get(i, 0), cu)
    if worst > d_l or worst == INFINITE:
        raise NotNearlyStable(
            "matching has local instability %s, budget was %s" % (worst, d_l)
        )
    q = _witness(p, m, u_steps, w_steps)
    verify(is_stable(q, m), "local witness makes the matching stable")
    return q


def _witness(p, m, u_steps, w_steps):
    """p with u_i (w_j) promoting its partner in m by u_steps[i]
    (w_steps[j]) places."""
    u_lists, w_lists = p.u_lists, p.w_lists
    for i, k in u_steps.items():
        u_lists = _promote(u_lists, i, m.pu[i], k)
    for j, k in w_steps.items():
        w_lists = _promote(w_lists, j, m.pw[j], k)
    return Profile(u_lists, w_lists, p.u_names, p.w_names)


def _stabilization_cut(p, m):
    """Smallest total swap distance to a profile where m is stable, with
    the promotion that reaches it: (cost, u_steps, w_steps), where
    u_steps[i] (w_steps[j]) is how far u_i (w_j) moves its partner up.

    Covering blocking pair (u, w) at an endpoint costs that endpoint's
    rank gap, and one promotion past the best-ranked covered blocker pays
    for all cheaper ones, so each agent's options form a chain of its
    distinct defuse thresholds, each step priced at the gap to the one
    below.  Every pair needs one side covered; the cheapest choice is a
    minimum s-t cut with U-chains oriented from the source and W-chains
    toward the sink.  The chain of unit steps gives the same cuts: each of
    its min cuts ends every chain at a threshold, since stopping at the
    threshold below saves units and crosses no infinite arc.  The cost is
    INFINITE, with no steps, when two unmatched agents block each other.
    """
    needs = []
    u_levels = {}
    w_levels = {}
    for i, j, cu, cw in _defuse_costs(p, m):
        if cu is INFINITE and cw is INFINITE:
            return (INFINITE, None, None)
        # an unmatched endpoint's node is its side's terminal
        a = "s" if cu is INFINITE else ("u", i, cu)
        b = "t" if cw is INFINITE else ("w", j, cw)
        needs.append((a, b))
        if cu is not INFINITE:
            u_levels.setdefault(i, set()).add(cu)
        if cw is not INFINITE:
            w_levels.setdefault(j, set()).add(cw)
    if not needs:
        return (0, {}, {})
    u_levels = {i: sorted(cs) for i, cs in u_levels.items()}
    w_levels = {j: sorted(cs) for j, cs in w_levels.items()}
    inf_cap = 1 + sum(cs[-1] for cs in [*u_levels.values(), *w_levels.values()])
    net = FlowNetwork()
    # A U node on the sink side means the promotion up to its threshold
    # is performed; a W node on the source side likewise.  Infinite arcs
    # keep each chain a prefix and forbid leaving a pair uncovered on both
    # sides.
    for i, cs in u_levels.items():
        below = 0
        for c in cs:
            net.add_edge("s", ("u", i, c), c - below)
            if below:
                net.add_edge(("u", i, below), ("u", i, c), inf_cap)
            below = c
    for j, cs in w_levels.items():
        below = 0
        for c in cs:
            net.add_edge(("w", j, c), "t", c - below)
            if below:
                net.add_edge(("w", j, c), ("w", j, below), inf_cap)
            below = c
    for a, b in needs:
        net.add_edge(a, b, inf_cap)
    cost = net.max_flow("s", "t")
    # Min cuts form a lattice; taking the one nearest the sink resolves
    # ties toward W-side promotions, which keeps the witness deterministic.
    sink = net.sink_side("t")
    u_steps = {
        i: max((c for c in cs if ("u", i, c) in sink), default=0)
        for i, cs in u_levels.items()
    }
    w_steps = {
        j: max((c for c in cs if ("w", j, c) not in sink), default=0)
        for j, cs in w_levels.items()
    }
    total = sum(u_steps.values()) + sum(w_steps.values())
    verify(total == cost, "cut sides add up to the flow value")
    return (cost, u_steps, w_steps)


def global_stabilization_cost(p, m):
    """Smallest total swap distance to a profile where m is stable.

    Returns (cost, witness profile) from _stabilization_cut, or (INFINITE,
    None) when two unmatched agents block each other.  The witness promotes
    only matched partners, which never creates new blocking pairs, so the
    cut value is exact, not just an upper bound.
    """
    cost, u_steps, w_steps = _stabilization_cut(p, m)
    if cost is INFINITE:
        return (INFINITE, None)
    if not cost:
        return (0, p)
    q = _witness(p, m, u_steps, w_steps)
    verify(is_stable(q, m), "global witness makes the matching stable")
    verify(swap_distance(p, q) == cost, "global witness lies at the cut distance")
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


def _check_query(objective, eta, d):
    objective = Objective(objective)
    if objective not in (Objective.PERFECT, Objective.EGALITARIAN):
        raise InvalidInput("objective must be perfect or egalitarian")
    if objective == Objective.EGALITARIAN and eta is None:
        raise InvalidInput("egalitarian objective needs an eta bound")
    check_budget(d)
    return objective


def _prospects(p):
    """prospects[i][j]: the best rank w_j can still get once u_0..u_{i-1}
    are decided, w_j's least rank_w over u_i, u_{i+1}, ... in its list;
    INFINITE when none of them lists w_j.
    """
    rw = p.rank_w
    prospects = [[INFINITE] * p.n_w]
    for i in range(p.n_u - 1, -1, -1):
        row = list(prospects[-1])
        for j in p.u_lists[i]:
            row[j] = min(row[j], rw[j][i])
        prospects.append(row)
    return prospects[::-1]


def _cheap_partners(p):
    """Per U agent: (its list length, the (rank_u + rank_w, w index) of
    each partner that costs less than that, cheapest first)."""
    ru, rw = p.rank_u, p.rank_w
    out = []
    for i, lst in enumerate(p.u_lists):
        pairs = sorted((ru[i][j] + rw[j][i], j) for j in lst)
        out.append((len(lst), [(c, j) for c, j in pairs if c < len(lst)]))
    return out


def _undecided_floor(pw, start, cheap):
    """Least egalitarian cost u_start, u_start+1, ... can still add.

    Each of them adds the cheaper of staying unmatched (its list length)
    and its cheapest rank_u + rank_w over W agents still free in pw.
    Admissible: the search charges each pair to its U endpoint, so each
    undecided U agent adds one such amount, a taken W agent is out of its
    reach, and W agents left unmatched only add more.
    """
    total = 0
    for stay, partners in cheap[start:]:
        for cost, j in partners:
            if pw[j] < 0:
                break
        else:
            cost = stay
        total += cost
    return total


def _prefix_conflict(p, pu, pw, depth, d, prospects, additive):
    """Does the decided part already cost more than budget d?

    Only pairs whose fate is sealed count: the U endpoint is decided, and
    the W endpoint is either matched (partners are never revisited) or
    free but prefers the U endpoint to every undecided U agent that lists
    it (prospects), so it blocks with them whatever comes next.  The W
    side's defusing cost is then at least the gap to its prospect, and
    INFINITE when nobody is left to take it.  A sealed pair whose cheaper
    endpoint needs more than d swaps rules out local and global budget d
    alike.

    additive (the global cost): each sealed pair needs a promotion at one
    of its endpoints, in that endpoint's own list, of at least the pair's
    cheaper defusing cost, and pairs that share no agent are defused in
    different lists.  So the sum of the cheaper costs over sealed pairs
    that share no agent (per U agent its dearest pair whose W endpoint is
    not yet counted) is a lower bound on the global cost of every
    completion, and a branch whose sum passes d is dropped.
    """
    rw = p.rank_w
    hope = prospects[depth]
    total = 0
    counted = set()
    for k in range(depth):
        pk = pu[k]
        lst = p.u_lists[k]
        limit = len(lst) if pk < 0 else p.rank_u[k][pk]
        dearest, dearest_w = 0, None
        for pos in range(limit):
            j = lst[pos]
            pj = pw[j]
            row = rw[j]
            theirs = row[pj] if pj >= 0 else hope[j]
            if row[k] >= theirs:
                continue
            cost = theirs - row[k]
            if pk >= 0:
                cost = min(cost, limit - pos)
            if cost > d:
                return True
            if additive and cost > dearest and j not in counted:
                dearest, dearest_w = cost, j
        if dearest:
            counted.add(dearest_w)
            total += dearest
            if total > d:
                return True
    return False


def _search(p, d, objective, eta, mode, least=None):
    """Branch-and-bound over matchings whose mode instability is <= d.

    The one exact search for near stability.  mode "local" prices each
    leaf by local_instability, "global" by the cost of _stabilization_cut;
    both are at least every blocking pair's cheaper defusing cost, so
    _prefix_conflict at budget d drops no candidate of either.  Only the
    global cost is a sum over pairs, so only in that mode does
    _prefix_conflict also bound it by the sealed pairs that share no
    agent; the local cost is a maximum, which that sum would overshoot.
    Depth-first over U agents in index order, partners in preference
    order (then unmatched, unless the objective is perfect).  A branch
    dies once its sealed pairs cannot be defused within d or, for the
    egalitarian objective, once a lower bound on its cost passes eta: the
    decided U agents' pair costs, plus the list length of each W agent
    nobody took and no undecided U agent lists, plus _undecided_floor.  At
    a leaf every agent is decided and that sum is the egalitarian cost.

    least picks the answer.  None: the first feasible leaf.  "cost": eta,
    or "instability": d, drops below each feasible leaf's value, and a
    stable leaf ends an "instability" search; the last leaf found is the
    least, and the first in search order among equals.  The bounds drop
    only branches without a feasible leaf, so they change which nodes are
    visited but not which leaves are found.  None when no leaf is
    feasible.  Raises TooLarge after SEARCH_CAP tried partners.  The stack
    holds one frame per decided U agent, so depth is not bounded by the
    interpreter's recursion limit.
    """
    prospects = _prospects(p)
    additive = mode == "global"
    bounded = objective == Objective.EGALITARIAN
    tail = [-1] if bounded else []
    if bounded:
        cheap = _cheap_partners(p)
        # settles[i]: (index, list length) of each W agent u_i is the last to list
        settles = [
            [(j, len(p.w_lists[j])) for j in lst if prospects[i + 1][j] is INFINITE]
            for i, lst in enumerate(p.u_lists)
        ]
    pu = [-1] * p.n_u
    pw = [-1] * p.n_w
    best = None
    nodes = 0
    # frames[i] is [options of u_i, index of its next option, cost of u_0..u_{i-1}]
    frames = []
    acc = 0
    while True:
        if len(frames) < p.n_u:
            options = [j for j in p.u_lists[len(frames)] if pw[j] < 0]
            frames.append([options + tail, 0, acc])
        else:
            m = Matching.from_pairs(
                p.n_u, p.n_w, [(k, pu[k]) for k in range(p.n_u) if pu[k] >= 0]
            )
            # With eta, every W agent is settled at a leaf, so acc is the
            # egalitarian cost.  A perfect-objective leaf is perfect: it has
            # matched every U agent (there is no -1 option), and the solvers
            # search for a perfect matching only when n_u == n_w.
            if bounded and acc > eta:
                level = INFINITE
            else:
                level = _stabilization_cut(p, m)[0] if additive else local_instability(p, m)
            if level <= d:
                if least is None or (least == "instability" and level == 0):
                    return m
                best = m
                if least == "cost":
                    eta = acc - 1
                else:
                    d = level - 1
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
            nodes += 1
            if nodes > SEARCH_CAP:
                raise TooLarge("near-stability search exceeds %d nodes" % SEARCH_CAP)
            frame[1] = k + 1
            j = options[k]
            if j >= 0:
                pu[i] = j
                pw[j] = i
                step = p.rank_u[i][j] + p.rank_w[j][i]
            else:
                step = len(p.u_lists[i])
            if bounded:
                for w, lost in settles[i]:
                    if pw[w] < 0:
                        step += lost
                if base + step + _undecided_floor(pw, i + 1, cheap) > eta:
                    continue
            if not _prefix_conflict(p, pu, pw, i + 1, d, prospects, additive):
                acc = base + step
                break
        else:
            return best


def _perfect_ruled_out(p, d):
    """True when a rule shows no perfect matching of p stable in a profile
    within d swaps in all.

    Every stable matching matches the same agents, the k pairs of
    u_optimal(p) (the Rural Hospitals theorem), which gives three rules: the sides differ in size; the n_u - k agents per side that no
    stable matching matches outnumber the k that every one does (stable in
    any reordering, such a matching pairs a never-matched agent only with
    an always-matched one, or the two would block); or d < n_u - k, since
    the number of matched agents moves by at most two per swap and
    2 * (n_u - k) are unmatched.
    """
    k = len(p.u_opt.pairs)
    return p.n_u != p.n_w or p.n_u - k > k or d < p.n_u - k


def solve_global_near(p, d_g, objective, eta=None):
    """Matching satisfying the objective in p and stable within d_g swaps.

    Returns the matching of least global cost that meets the objective,
    the first in search order among equals, with that cost's witness
    profile from global_stabilization_cost; None when none costs at most
    d_g.  Cost 0 is the least there is, and the first stable matching in
    search order is u_optimal(p), which gives every U agent its best
    stable partner; so when u_optimal(p) meets the objective it is the
    answer, with witness p, and nothing is searched.  Otherwise an exact
    branch-and-bound (see _search) prices each leaf by the min-cut cost of
    _stabilization_cut; only the answer gets a witness.  One pass whatever
    d_g is: the budget tightens below each leaf found.  A perfect answer
    may be ruled out without searching (see _perfect_ruled_out).
    """
    objective = _check_query(objective, eta, d_g)
    stable = p.u_opt
    if objective == Objective.PERFECT:
        if _perfect_ruled_out(p, d_g):
            return None
        fits = len(stable.pairs) == p.n_u
    else:
        fits = egalitarian_cost(p, stable) <= eta
    if fits:
        return (stable, p)
    m = _search(p, d_g, objective, eta, "global", least="instability")
    return None if m is None else (m, global_stabilization_cost(p, m)[1])


def solve_local_near(p, d_l, objective, eta=None):
    """Matching satisfying the objective with per-list instability <= d_l.

    Exact branch-and-bound (see _search) with local_instability at each
    leaf, stopping at the first feasible matching, which is returned;
    None when there is none.  A perfect answer may be ruled out without
    searching (see _perfect_ruled_out; no per-list budget bounds the
    number of swaps).
    """
    objective = _check_query(objective, eta, d_l)
    if objective == Objective.PERFECT and _perfect_ruled_out(p, INFINITE):
        return None
    return _search(p, d_l, objective, eta, "local")


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
    ru, rw = p2.rank_u, p2.rank_w
    ranks = (ru if o.side == Side.U else rw)[o.index]
    promoted = s.x if ranks[s.x.index] < ranks[s.y.index] else s.y
    if o.side == Side.U:
        i0, j0 = o.index, promoted.index
    else:
        i0, j0 = promoted.index, o.index
    pu, pw = list(m1.pu), list(m1.pw)
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
    phases = (
        (box_u, p2.u_lists, pu, pw, rw, box_w),
        (box_w, p2.w_lists, pw, pu, ru, None),
    )
    for box, lists, mine, theirs, their_rank, barred in phases:
        while box is not None:
            a, box = box, None
            for b in lists[a]:
                if b == barred:
                    continue
                c = theirs[b]
                if c < 0 or their_rank[b][a] < their_rank[b][c]:
                    if c >= 0:
                        mine[c] = -1
                        box = c
                    mine[a] = b
                    theirs[b] = a
                    break
    m2 = Matching.from_pairs(
        p2.n_u, p2.n_w, [(i, pu[i]) for i in range(p2.n_u) if pu[i] >= 0]
    )
    verify(is_stable(p2, m2), "repaired matching is stable")
    return m2


def tradeoff_curve(p, mode, d_max, objective):
    """Best objective value per budget d = 0..d_max, as (d, value) pairs.

    Perfect: value is whether a d-nearly stable perfect matching exists,
    from the mode's solver.  Egalitarian: value is the cheapest egalitarian
    cost (priced by p) over d-nearly stable matchings.  At d=0 both modes
    ask for the egalitarian-optimal stable matching, which the rotation
    closure of find_d_robust_optimal finds in polynomial time.  Values
    only improve as d grows, because a d-nearly stable matching is also
    (d+1)-nearly stable, so each later budget runs the one search with eta
    at the previous value; that matching keeps a leaf feasible.  The mode
    picks the solver and the instability _search tests at the leaves.
    """
    objective = _check_query(objective, INFINITE, d_max)
    solver = {"global": solve_global_near, "local": solve_local_near}.get(mode)
    if solver is None:
        raise InvalidInput("mode must be 'global' or 'local', got %r" % mode)
    if objective == Objective.PERFECT:
        return [(d, solver(p, d, objective) is not None) for d in range(d_max + 1)]
    value = egalitarian_cost(p, find_d_robust_optimal(p, 0, objective))
    out = [(0, value)]
    for d in range(1, d_max + 1):
        best = _search(p, d, objective, value, mode, least="cost")
        value = egalitarian_cost(p, best)
        out.append((d, value))
    return out
