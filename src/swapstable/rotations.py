"""Rotations, the rotation digraph, and the stable-matching lattice.

A rotation is a cyclic sequence of matched pairs ((u_0,w_0),...) where each
w_{k+1} is u_k's successor; eliminating it (every u_k moves on to w_{k+1})
turns one stable matching into another.  Walking one maximal elimination
chain from the U-optimal matching discovers every rotation exactly once.
Precedence arcs make predecessor-closed subsets correspond one-to-one to
stable matchings, which turns optimization over stable matchings into
minimum-weight closure, solved here by max-flow project selection.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from ._flow import FlowNetwork
from .classic import u_optimal
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


def _successor_at(p, pw, i, pos):
    """Position of u_i's successor in its list, scanning from ``pos``, or -1."""
    lst = p.u_lists[i]
    rank = p.rank_w
    for pos in range(pos, len(lst)):
        j = lst[pos]
        if pw[j] < 0:
            return -1  # unmatched in every stable matching: u_i stops above it
        if rank[j][i] < rank[j][pw[j]]:
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
    pos = _successor_at(p, m.pw, i, p.rank_u[i][m.pu[i]] + 1)
    return Agent.w(p.u_lists[i][pos]) if pos >= 0 else None


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
    """All rotations of a profile, precedence arcs, and a per-pair index.

    Arc (a, b) means rotation a must be eliminated before rotation b;
    subsets closed under predecessors correspond exactly to the stable
    matchings, with the empty set mapping to u_optimal.

    The index maps a pair to the unique rotation that changes it, as a
    rotation index:
    ``movesto[(u, w)]`` produces the pair (u's partner becomes w);
    ``u_passed[(u, w)]`` takes u's partner from w or above to below w;
    ``crossed[(w, u)]`` lifts w's partner from below u to u or above.
    A pair sits in matching_of(S) iff it is in u_opt or its producer is
    in S, and the rotation in ``u_passed`` for it is not.
    """

    rotations: tuple
    arcs: frozenset
    u_opt: Matching
    movesto: dict = field(compare=False, repr=False)
    u_passed: dict = field(compare=False, repr=False)
    crossed: dict = field(compare=False, repr=False)

    @property
    def n(self):
        return len(self.rotations)

    @cached_property
    def preds(self):
        out = [[] for _ in range(self.n)]
        for a, b in sorted(self.arcs):
            out[b].append(a)
        return out

    @cached_property
    def ancestor_masks(self):
        """ancestor_masks[i] has bit j set iff j must precede i (j != i)."""
        masks = [0] * self.n
        for i in range(self.n):  # index order is topological
            acc = 0
            for a in self.preds[i]:
                acc |= masks[a] | (1 << a)
            masks[i] = acc
        return masks

    def is_closed(self, subset):
        mask = 0
        for i in subset:
            if not 0 <= i < self.n:
                raise InvalidInput("rotation index %r out of range" % (i,))
            mask |= 1 << i
        return not any(self.ancestor_masks[i] & ~mask for i in subset)


def _claim(table, key, idx, message):
    if key in table:
        raise Error(message % key)
    table[key] = idx


def rotation_digraph(p):
    """Discover all rotations of p, wire the precedence arcs, index the pairs.

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
    precedes.  Every index entry must be unique, and a pair some rotation
    jumps over (strictly between the old and the new partner, on either
    side) is never a stable pair.
    """
    m0 = u_optimal(p)
    ru, rw = p.rank_u, p.rank_w
    pu, pw = list(m0.pu), list(m0.pw)  # the walk below moves partners
    at = [ru[i][w] + 1 if w >= 0 else 0 for i, w in enumerate(pu)]
    final = [w < 0 for w in pu]
    place = [-1] * p.n_u  # position on the current path, or -1
    rotations = []
    for start in range(p.n_u):
        path = []
        while not final[start]:
            if not path:
                path, place[start] = [start], 0
            i = path[-1]
            at[i] = _successor_at(p, pw, i, at[i])
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
                    at[k] += 1
    movesto = {}
    crossed = {}
    for idx, rho in enumerate(rotations):
        cycle = rho.cycle
        for k, (u, w) in enumerate(cycle):
            # u moves on to w_new; w trades u for u_prev, whom it prefers
            w_new = cycle[(k + 1) % len(cycle)][1]
            u_prev = cycle[k - 1][0]
            _claim(movesto, (u, w_new), idx, "two rotations move u%d's partner to w%d")
            lst = p.w_lists[w]
            for pos in range(rw[w][u_prev], rw[w][u]):
                _claim(crossed, (w, lst[pos]), idx, "two rotations cross w%d over u%d")
    u_passed = {}
    arcs = set()
    pw0 = m0.pw
    for idx, rho in enumerate(rotations):
        for u, w_old, w_new in rho.moves():
            producer = movesto.get((u, w_old))
            if producer is None:
                if (w_old, u) in crossed:
                    raise Error("jumped-over pair (u%d, w%d) is a stable pair" % (u, w_old))
            elif producer != idx:
                arcs.add((producer, idx))
            _claim(u_passed, (u, w_old), idx, "two rotations pass u%d's partner over w%d")
            lst = p.u_lists[u]
            for pos in range(ru[u][w_old] + 1, ru[u][w_new]):
                w_between = lst[pos]
                _claim(u_passed, (u, w_between), idx, "two rotations pass u%d's partner over w%d")
                if (u, w_between) in movesto:
                    raise Error("jumped-over pair (u%d, w%d) is a stable pair" % (u, w_between))
                c = crossed.get((w_between, u))
                if c is not None:
                    if c != idx:
                        arcs.add((c, idx))
                elif pw0[w_between] < 0 or rw[w_between][pw0[w_between]] > rw[w_between][u]:
                    # skipped agents are matched and were already rejecting
                    # u at u_optimal, or some earlier rotation crossed them
                    raise Error("no rotation explains why w%d rejects u%d" % (w_between, u))
    dg = RotationDigraph(
        rotations=tuple(rotations),
        arcs=frozenset(arcs),
        u_opt=m0,
        movesto=movesto,
        u_passed=u_passed,
        crossed=crossed,
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
    """Yield every predecessor-closed subset of rotation indices."""

    def extend(i, mask):
        if i == dg.n:
            yield frozenset(k for k in range(dg.n) if mask & (1 << k))
            return
        yield from extend(i + 1, mask)
        if dg.ancestor_masks[i] & ~mask == 0:
            yield from extend(i + 1, mask | (1 << i))

    yield from extend(0, 0)


def enumerate_stable_matchings(p):
    """Every stable matching of p exactly once, via the closed-subset bijection."""
    dg = rotation_digraph(p)
    for subset in closed_subsets(dg):
        yield matching_of(dg, subset)


def stable_pairs(p, dg=None):
    """Pairs appearing in at least one stable matching, as index tuples.

    A pair is stable iff it is in the U-optimal matching or some rotation
    produces it.
    """
    if dg is None:
        dg = rotation_digraph(p)
    return dg.u_opt.pairs.union(dg.movesto)


@dataclass(frozen=True)
class RotationWeights:
    """Egalitarian-cost delta per rotation: eliminating rho adds delta[rho].

    For any closed subset S, the cost of matching_of(S) equals the cost of
    u_optimal plus the sum of deltas over S, with ranks taken from the
    profile passed to ``measured``.
    """

    delta: tuple

    @classmethod
    def measured(cls, dg, p):
        # u moves from partner a to b and b trades its partner for u; summed
        # over the cycle, each move adds rank_w[b][u] - rank_w[a][u]
        ru, rw = p.rank_u, p.rank_w
        return cls(
            delta=tuple(
                sum(ru[u][b] - ru[u][a] + rw[b][u] - rw[a][u] for u, a, b in rho.moves())
                for rho in dg.rotations
            )
        )


def min_weight_closure(dg, weights, forced=frozenset(), forbidden=frozenset(), extra_arcs=frozenset()):
    """Minimum-total-weight predecessor-closed subset, or None if infeasible.

    The subset must contain ``forced``, avoid ``forbidden``, and respect
    ``extra_arcs`` on top of the digraph's own: an arc (a, b) means b may
    only be chosen together with a, so the nodes of a cycle of arcs enter
    or leave together.  Solved as one max-flow project selection over all
    rotations (Picard 1976): chosen rotations form the sink side, weights
    are arcs from the source (positive) or to the sink (negative), and
    every constraint is an infinite arc: a -> b per arc (a, b), forced ->
    sink, source -> forbidden.  A flow reaching the infinite capacity means
    no subset is feasible.  The minimal source side over all minimum cuts
    makes the answer the union of all minimum-weight feasible subsets.
    """
    arcs = dg.arcs | frozenset(extra_arcs)
    for i in chain(forced, forbidden, *extra_arcs):
        if not 0 <= i < dg.n:
            raise InvalidInput("rotation index %r out of range" % (i,))
    inf = 1 + sum(abs(w) for w in weights.delta)
    net = FlowNetwork()
    for i, w in enumerate(weights.delta):
        if w > 0:
            net.add_edge("s", i, w)
        elif w < 0:
            net.add_edge(i, "t", -w)
    for a, b in sorted(arcs):
        net.add_edge(a, b, inf)
    for i in sorted(forced):
        net.add_edge(i, "t", inf)
    for i in sorted(forbidden):
        net.add_edge("s", i, inf)
    if net.max_flow("s", "t") >= inf:
        return None
    dropped = net.source_side("s")
    return frozenset(i for i in range(dg.n) if i not in dropped)
