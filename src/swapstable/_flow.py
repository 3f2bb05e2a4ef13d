"""Dinic max-flow over int arrays, both sides of the minimum cut, and the
one minimum-weight closure network (``_closure_cut``), which the optimal
robust solvers and the stabilization cost share.

``FlowNetwork`` numbers its nodes 0..n-1; capacities are integers.  Arcs
live in flat lists in pairs: arc ``e`` and its reverse ``e ^ 1``.
Parallel arcs stay apart, which changes no cut's capacity.  ``max_flow``
alternates a BFS that labels each node with its residual distance to t
(backwards from t over ``cap[e ^ 1]``, stopping once s is labelled) with a
blocking flow found by an iterative DFS from s that steps only to nodes
one closer to t (an explicit path stack and current-arc pointers, so no
recursion and no depth limit).  Levelling from the sink keeps the DFS out
of nodes that cannot reach t: in the stabilization-cost networks most
nodes hang off the source and never reach the sink, and an s-levelled
search entered each of them, to a dead end, in every phase.

Both sides of the min cut are recoverable afterwards: the source side
(residual reachability from s) and the sink side (reverse residual
reachability to t).  They are the minimal source side and the minimal sink
side over all minimum cuts, which no choice of maximum flow changes.  The
two differ exactly on tie regions, which callers use to pick a canonical
optimum.
"""

# Closure arc ends that are not items: ALWAYS is in every closed set and
# NEVER in none.  They are the sink and the source of the closure network.
ALWAYS, NEVER = "always", "never"


class FlowNetwork:
    """A flow network over the nodes 0..n-1."""

    def __init__(self, n):
        self._out = [[] for _ in range(n)]  # node -> ids of arcs leaving it
        self._to = []  # arc -> head node
        self._cap = []  # arc -> residual capacity

    @property
    def adj(self):
        """Node -> ids of its arc ends, built when read; the benchmark's
        tracer counts nodes and arcs from it."""
        return dict(enumerate(self._out))

    def add_edge(self, a, b, capacity):
        """Add an arc a->b; parallel arcs add up."""
        e = len(self._to)
        self._to += (b, a)
        self._cap += (capacity, 0)
        self._out[a].append(e)
        self._out[b].append(e ^ 1)

    def max_flow(self, s, t):
        """Total flow; the arc capacities become the residual graph."""
        to, cap, out = self._to, self._cap, self._out
        n = len(out)
        total = 0
        while True:
            # dist[x]: residual arcs from x to t, -1 for nodes not reached
            # before s; the arc x -> y is the reverse of y's out-arc e.
            dist = [-1] * n
            dist[t] = 0
            queue = [t]
            for y in queue:
                dy = dist[y] + 1
                for e in out[y]:
                    x = to[e]
                    if dist[x] < 0 and cap[e ^ 1]:
                        dist[x] = dy
                        queue.append(x)
                if dist[s] >= 0:
                    break
            if dist[s] < 0:
                return total
            current = [0] * n
            path = []
            x = s
            while True:
                if x == t:
                    push = min([cap[e] for e in path])
                    total += push
                    cut = -1
                    for k, e in enumerate(path):
                        cap[e] -= push
                        cap[e ^ 1] += push
                        if cut < 0 and not cap[e]:
                            cut = k
                    # resume from the tail of the first saturated arc
                    del path[cut:]
                    x = to[path[-1]] if path else s
                    continue
                arcs = out[x]
                k = current[x]
                dx = dist[x] - 1
                while k < len(arcs) and not (cap[arcs[k]] and dist[to[arcs[k]]] == dx):
                    k += 1
                current[x] = k
                if k < len(arcs):
                    path.append(arcs[k])
                    x = to[arcs[k]]
                    continue
                # dead end: no augmenting path passes x in this phase
                dist[x] = -1
                if not path:
                    break
                x = to[path.pop() ^ 1]
                current[x] += 1

    def source_side(self, s):
        """Nodes reachable from s in the residual graph (minimal s-side cut)."""
        return self._reach(s, 0)

    def sink_side(self, t):
        """Nodes that can still reach t in the residual graph (minimal t-side cut)."""
        return self._reach(t, 1)

    def _reach(self, start, flip):
        # flip=0 follows arcs with residual capacity, flip=1 follows them
        # backwards (the reverse of each out-arc is the arc coming in).
        to, cap, out = self._to, self._cap, self._out
        seen = [False] * len(out)
        seen[start] = True
        queue = [start]
        for x in queue:
            for e in out[x]:
                y = to[e]
                if not seen[y] and cap[e ^ flip]:
                    seen[y] = True
                    queue.append(y)
        return set(queue)


def _closure_cut(weights, arcs):
    """Solve the minimum-weight closure of items 0..n-1, n = len(weights).

    Each arc (a, b) asks for a to be chosen when b is; either end may be
    ALWAYS or NEVER.  The network runs from NEVER, node n, to ALWAYS, node
    n + 1.  An item of weight w > 0 hangs from the source with capacity w,
    one of weight w < 0 runs into the sink with -w, and each arc gets
    inf = 1 + sum(|w|).  A cut that crosses no such arc chooses its sink
    side and costs the chosen weight less the negative weights, so the
    items off the minimal source side are the union of all minimum-weight
    closed sets and those on the minimal sink side their intersection.
    Returns (flow value, solved network), or None when the flow reaches
    inf: exactly when a path of arcs leads from NEVER to ALWAYS.
    """
    n = len(weights)
    inf = 1 + sum(map(abs, weights))
    node = {NEVER: n, ALWAYS: n + 1}
    net = FlowNetwork(n + 2)
    for i, w in enumerate(weights):
        if w > 0:
            net.add_edge(n, i, w)
        elif w < 0:
            net.add_edge(i, n + 1, -w)
    for a, b in arcs:
        net.add_edge(node.get(a, a), node.get(b, b), inf)
    flow = net.max_flow(n, n + 1)
    return None if flow >= inf else (flow, net)
