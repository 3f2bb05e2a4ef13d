"""Rotations, the rotation digraph, and the stable-matching lattice.

A rotation is a cyclic sequence of matched pairs ((u_0,w_0),...) where each
w_{k+1} is u_k's successor; eliminating it (every u_k moves on to w_{k+1})
turns one stable matching into another.  Walking one maximal elimination
chain from the U-optimal matching discovers every rotation exactly once.
Precedence arcs make predecessor-closed subsets correspond one-to-one to
stable matchings, which turns optimization over stable matchings into
minimum-weight closure, solved here by max-flow project selection.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from ._flow import ALWAYS, NEVER, _closure_cut
from ._kernels import partner_ranks
from .errors import Error, InvalidInput, NoSuccessorDefined, NotClosed, verify
from .profile import Agent, Matching, Side, is_stable


@dataclass(frozen=True)
class Rotation:
    """Cyclic pair sequence, rotated so the smallest u index comes first."""

    cycle: tuple

    @classmethod
    def canonical(cls, pairs):
        pairs = list(pairs)
        start = min(range(len(pairs)), key=lambda k: pairs[k][0])
        return cls(cycle=tuple(pairs[start:] + pairs[:start]))

    def __len__(self):
        return len(self.cycle)

    def moves(self):
        """Yield (u, w_old, w_new) for each agent of side U in the cycle."""
        r = len(self.cycle)
        for k, (u, w) in enumerate(self.cycle):
            yield u, w, self.cycle[(k + 1) % r][1]


def _successor_at(p, held, i, pos):
    """Position of the first agent from ``pos`` on in u_i's list that ranks
    u_i above the partner it holds, or -1; ``held[j]`` is the rank of w_j's
    partner, its list length when unmatched."""
    lst = p.u_lists[i]
    rank = p.rank_w
    for pos in range(pos, len(lst)):
        j = lst[pos]
        if rank[j][i] < held[j]:
            return pos
    return -1


def successor(p, m, u):
    """First agent after M(u) in u's list that is matched and prefers u.

    Defined for side-U agents of a stable matching; returns None when the
    rest of u's list rejects u, raises NoSuccessorDefined when u is
    unmatched.  The scan ends without a successor at an unmatched agent:
    unmatched agents stay unmatched across all stable matchings, so u can
    never be matched below one it finds acceptable.
    """
    if u.side != Side.U:
        raise InvalidInput("successor is defined for side-U agents")
    i = u.index
    if m.pu[i] < 0:
        raise NoSuccessorDefined("%s is unmatched" % p.name_of(u))
    pos = _successor_at(p, partner_ranks(p, m)[1], i, p.rank_u[i][m.pu[i]] + 1)
    j = p.u_lists[i][pos] if pos >= 0 else -1
    return Agent.w(j) if j >= 0 and m.pw[j] >= 0 else None


def exposed_rotations(p, m):
    """All rotations exposed in the stable matching m, pairwise disjoint:
    those m has not eliminated (its first agent still holds a partner at or
    above the pair the rotation consumes) but whose predecessors it has."""
    if not is_stable(p, m):
        raise InvalidInput("exposed_rotations needs a stable matching")
    dg = rotation_digraph(p)
    rank, pu = p.rank_u, m.pu
    done = [rank[u][pu[u]] > rank[u][w] for u, w in (r.cycle[0] for r in dg.rotations)]
    exposed = [
        r for i, r in enumerate(dg.rotations) if not done[i] and all(done[a] for a in dg.preds[i])
    ]
    return sorted(exposed, key=lambda r: r.cycle)


def eliminate(m, rho):
    """Replace each pair (u_k, w_k) of rho with (u_k, w_{k+1})."""
    if any((u, w) not in m.pairs for u, w in rho.cycle):
        raise InvalidInput("rotation is not contained in the matching")
    pairs = set(m.pairs)
    for u, w, w_new in rho.moves():
        pairs.discard((u, w))
        pairs.add((u, w_new))
    return Matching(n_u=m.n_u, n_w=m.n_w, pairs=frozenset(pairs))


@dataclass(frozen=True)
class RotationDigraph:
    """All rotations of a profile, precedence arcs, and each agent's runs.

    Arc (a, b) means rotation a must be eliminated before rotation b;
    subsets closed under predecessors correspond exactly to the stable
    matchings, with the empty set mapping to u_optimal.

    Down the lattice a U agent's partner only sinks through its list and a
    W agent's only climbs, one rotation per move, so each agent's stable
    partners cut its list into runs.  ``u_runs[a]`` is a pair (bounds,
    events): a's partner sits at list position ``bounds[0]`` in u_optimal
    and moves from ``bounds[k - 1]`` to ``bounds[k]`` when rotation
    ``events[k]`` is eliminated, so ``events[bisect_left(bounds, r)]`` is
    the event by which a's partner ranks r or worse.  ``w_runs[b]`` holds
    b's bounds in ascending order, from its w_optimal partner to its
    u_optimal one, and ``events[bisect_left(bounds, r)]`` is the event by
    which b's partner ranks better than r.  An event is a rotation, or at
    the two ends of ``events`` ALWAYS (so already at u_optimal) or NEVER
    (so in no stable matching).  An agent unmatched at u_optimal is
    unmatched in every stable matching; its one bound is its list length.
    The stable pairs are exactly the pairs at the bounds.
    """

    rotations: tuple
    arcs: frozenset
    u_opt: Matching
    u_runs: list = field(compare=False, repr=False)
    w_runs: list = field(compare=False, repr=False)

    @property
    def n(self):
        return len(self.rotations)

    @cached_property
    def preds(self):
        out = [[] for _ in range(self.n)]
        for a, b in sorted(self.arcs):
            out[b].append(a)
        return out

    def is_closed(self, subset):
        """Does subset hold every predecessor of each member?  Closed under
        the direct arcs means closed under all ancestors."""
        subset = set(subset)
        for i in subset:
            if i not in range(self.n):
                raise InvalidInput("rotation index %r out of range" % (i,))
        return all(a in subset for i in subset for a in self.preds[i])


def rotation_digraph(p):
    """Discover all rotations of p, wire the precedence arcs, cut the runs.

    Discovery is one Gusfield–Irving walk from the U-optimal matching (The
    Stable Marriage Problem: Structure and Algorithms, 1989, ch. 3): from
    each agent not yet final, in index order, it grows a path of U agents,
    each one's successor matched to the next.  A path closing on itself has
    an exposed rotation as its tail, recorded and eliminated on the spot; a
    path that ends (no successor, or one matched to a final agent) makes all
    its agents final.  A W agent that rejects a U agent once rejects it for
    good, so each successor scan resumes where it stopped.  Rotation indices
    are the elimination order, which is topological.

    Arcs come from two rules: the rotation that produced a pair precedes
    the one consuming it, and for every agent skipped between w_k and
    w_{k+1} in u_k's list, the rotation that made that agent reject u_k
    precedes.  Each move must start where the agent's neighbouring run
    ends and go on in the agent's own direction (down a U agent's list, up
    a W agent's), so each agent's runs are disjoint and contiguous; a pair
    some rotation jumps over (strictly inside a run, on either side) is
    then never a stable pair.
    """
    m0 = p.u_opt
    ru, rw = p.rank_u, p.rank_w
    rank_u0, rank_w0 = partner_ranks(p, m0)
    pu, pw, held = list(m0.pu), list(m0.pw), list(rank_w0)  # the walk moves partners
    at = [r + 1 for r in rank_u0]
    final = [w < 0 for w in pu]
    place = [-1] * p.n_u  # position on the current path, or -1
    rotations = []
    for start in range(p.n_u):
        path = []
        while not final[start]:
            if not path:
                path, place[start] = [start], 0
            i = path[-1]
            at[i] = _successor_at(p, held, i, at[i])
            nxt = pw[p.u_lists[i][at[i]]] if at[i] >= 0 else -1
            if nxt < 0 or final[nxt]:
                # next(u) final means u final: its successor keeps its partner
                for k in path:
                    final[k] = True
                path = []
            elif place[nxt] < 0:
                place[nxt] = len(path)
                path.append(nxt)
            else:
                cycle = path[place[nxt]:]
                del path[place[nxt]:]
                rotations.append(Rotation.canonical([(k, pu[k]) for k in cycle]))
                for k in cycle:
                    place[k] = -1
                    pu[k] = p.u_lists[k][at[k]]
                    pw[pu[k]] = k
                    held[pu[k]] = rw[pu[k]][k]
                    at[k] += 1
    # each events list keeps its far-end sentinel last; moves go in before
    # it.  W bounds ascend from the w_optimal partners the walk ended on, so
    # the W side takes the rotations last to first.
    w_runs = [([r], [NEVER, ALWAYS]) for r in held]
    for idx in reversed(range(len(rotations))):
        cycle = rotations[idx].cycle
        for k, (u, w) in enumerate(cycle):
            # w climbs from u to u_prev, whom it prefers
            bounds, events = w_runs[w]
            if bounds[-1] != rw[w][cycle[k - 1][0]] or rw[w][u] <= bounds[-1]:
                raise Error("rotation %d moves w%d's partner off its runs" % (idx, w))
            bounds.append(rw[w][u])
            events.insert(-1, idx)
    w_bounds = [bounds for bounds, _ in w_runs]
    w_events = [events for _, events in w_runs]
    u_runs = [([r], [ALWAYS, NEVER]) for r in rank_u0]
    arcs = set()
    for idx, rho in enumerate(rotations):
        for u, w, w_new in rho.moves():
            bounds, events = u_runs[u]
            old, new = ru[u][w], ru[u][w_new]
            if bounds[-1] != old or new <= old:
                raise Error("rotation %d moves u%d's partner off its runs" % (idx, u))
            if events[-2] != ALWAYS:
                arcs.add((events[-2], idx))  # the rotation that produced (u, w)
            bounds.append(new)
            events.insert(-1, idx)
            # each agent u skips rejects it once the rotation lifting its
            # partner above u is eliminated, or already at u_optimal
            skipped = p.u_lists[u][old + 1 : new]
            if not skipped:
                continue
            why = {w_events[j][bisect_right(w_bounds[j], rw[j][u])] for j in skipped}
            if NEVER in why:
                j = next(j for j in skipped if rw[j][u] < w_bounds[j][0])
                raise Error("no rotation explains why w%d rejects u%d" % (j, u))
            why.discard(ALWAYS)
            why.discard(idx)
            arcs.update((c, idx) for c in why)
    dg = RotationDigraph(
        rotations=tuple(rotations),
        arcs=frozenset(arcs),
        u_opt=m0,
        u_runs=u_runs,
        w_runs=w_runs,
    )
    verify(all(a < b for a, b in dg.arcs), "discovery order is topological")
    return dg


def matching_of(dg, subset):
    """Eliminate a predecessor-closed rotation subset from u_optimal."""
    if not dg.is_closed(subset):
        raise NotClosed("rotation subset %r is not predecessor-closed" % (sorted(subset),))
    pairs = set(dg.u_opt.pairs)
    for idx in sorted(subset):
        for u, w, w_new in dg.rotations[idx].moves():
            pairs.discard((u, w))
            pairs.add((u, w_new))
    return Matching(n_u=dg.u_opt.n_u, n_w=dg.u_opt.n_w, pairs=frozenset(pairs))


def closed_subsets(dg):
    """Yield every predecessor-closed subset of rotation indices.

    Depth-first over the indices, leaving each out before taking it in; an
    index may be taken once its direct predecessors are, since index order
    is topological.  The stack holds one frame per open choice, so depth
    is not bounded by the interpreter's recursion limit.
    """
    stack = [(0, frozenset())]
    while stack:
        i, chosen = stack.pop()
        if i == dg.n:
            yield chosen
            continue
        if all(a in chosen for a in dg.preds[i]):
            stack.append((i + 1, chosen | {i}))
        stack.append((i + 1, chosen))


def enumerate_stable_matchings(p):
    """Every stable matching of p exactly once, via the closed-subset bijection."""
    dg = rotation_digraph(p)
    for subset in closed_subsets(dg):
        yield matching_of(dg, subset)


def stable_pairs(p):
    """Pairs appearing in at least one stable matching, as index tuples.

    A pair is stable iff it is in the U-optimal matching or some rotation
    produces it: the pairs at the bounds of the U agents' runs.
    """
    dg = rotation_digraph(p)
    return dg.u_opt.pairs.union(
        (u, p.u_lists[u][k]) for u, (bounds, _) in enumerate(dg.u_runs) for k in bounds[1:]
    )


def egalitarian_deltas(dg, p):
    """Egalitarian-cost delta per rotation: eliminating rho adds delta[rho].

    For any closed subset S, the cost of matching_of(S) equals the cost of
    u_optimal plus the sum of deltas over S, with ranks taken from p.
    """
    # u moves from partner a to b and b trades its partner for u; summed
    # over the cycle, each move adds rank_w[b][u] - rank_w[a][u]
    ru, rw = p.rank_u, p.rank_w
    return tuple(
        sum(ru[u][b] - ru[u][a] + rw[b][u] - rw[a][u] for u, a, b in rho.moves())
        for rho in dg.rotations
    )


def min_weight_closure(dg, weights, arcs=frozenset()):
    """Minimum-total-weight predecessor-closed subset, or None if infeasible.

    ``weights`` holds one weight per rotation.  Each of ``arcs``, on top of
    the digraph's own, is an arc (a, b): b may only be chosen together with
    a.  Either end may be a sentinel, ALWAYS (in every subset) or NEVER (in
    none), so (a, ALWAYS) forces a and (NEVER, b) forbids b.  Solved by
    the package's one closure network (Picard 1976), ``_flow._closure_cut``;
    no subset is feasible exactly when a path of arcs leads from NEVER to
    ALWAYS.  The minimal source side over all minimum cuts makes the answer
    the union of all minimum-weight feasible subsets.
    """
    if len(weights) != dg.n:
        raise InvalidInput("%d weights for %d rotations" % (len(weights), dg.n))
    rotations = range(dg.n)
    arcs = dg.arcs.union(arcs)
    for i in chain(*arcs):
        if i not in (ALWAYS, NEVER) and i not in rotations:
            raise InvalidInput("rotation index %r out of range" % (i,))
    solved = _closure_cut(weights, arcs)
    if solved is None:
        return None
    dropped = solved[1].source_side(dg.n)
    return frozenset(i for i in rotations if i not in dropped)
