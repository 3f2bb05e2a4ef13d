"""Dinic max-flow over int arrays, with both sides of the minimum cut.

Shared by the minimum-weight closure optimizer and the stabilization-cost
cut model.  Nodes are arbitrary hashables, interned to ints; capacities are
integers.  Arcs live in flat lists in pairs: arc ``e`` and its reverse
``e ^ 1``.  ``max_flow`` alternates a BFS that labels each node with its
residual distance to t (backwards from t over ``cap[e ^ 1]``, stopping once
s is labelled) with a blocking flow found by an iterative DFS from s that
steps only to nodes one closer to t (an explicit path stack and current-arc
pointers, so no recursion and no depth limit).  Levelling from the sink
keeps the DFS out of nodes that cannot reach t: in the stabilization-cost
networks most nodes hang off the source and never reach the sink, and an
s-levelled search entered each of them, to a dead end, in every phase.

Both sides of the min cut are recoverable afterwards: the source side
(residual reachability from s) and the sink side (reverse residual
reachability to t).  They are the minimal source side and the minimal sink
side over all minimum cuts, which no choice of maximum flow changes.  The
two differ exactly on tie regions, which callers use to pick a canonical
optimum.
"""


class FlowNetwork:
    def __init__(self):
        self._index = {}  # node -> int
        self._nodes = []  # int -> node
        self.adj = {}  # node -> ids of the arcs leaving it (one per arc end)
        self._out = []  # int -> the same lists as adj
        self._to = []  # arc -> head node
        self._cap = []  # arc -> residual capacity
        self._arc = {}  # (a, b) -> forward arc id

    def _node(self, x):
        k = self._index[x] = len(self._nodes)
        self._nodes.append(x)
        self._out.append([])
        self.adj[x] = self._out[k]
        return k

    def add_edge(self, a, b, capacity):
        """Add capacity on a->b; parallel calls accumulate."""
        e = self._arc.get((a, b))
        if e is not None:
            self._cap[e] += capacity
            return
        ia = self._index.get(a)
        if ia is None:
            ia = self._node(a)
        ib = self._index.get(b)
        if ib is None:
            ib = self._node(b)
        e = self._arc[(a, b)] = len(self._to)
        self._to += (ib, ia)
        self._cap += (capacity, 0)
        self._out[ia].append(e)
        self._out[ib].append(e ^ 1)

    def max_flow(self, s, t):
        """Total flow; the arc capacities become the residual graph."""
        if s not in self._index or t not in self._index:
            return 0
        s = self._index[s]
        t = self._index[t]
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
        k = self._index.get(start)
        if k is None:
            return {start}
        to, cap, out = self._to, self._cap, self._out
        seen = [False] * len(out)
        seen[k] = True
        queue = [k]
        for x in queue:
            for e in out[x]:
                y = to[e]
                if not seen[y] and cap[e ^ flip]:
                    seen[y] = True
                    queue.append(y)
        return {self._nodes[x] for x in queue}
