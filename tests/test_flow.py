"""Max-flow and both min-cut sides, refereed by enumerating every cut of
small graphs and by the cut capacities of larger ones.  Networks number
their nodes 0..n-1; the source and sink are the last two, as in the
closure network."""

import random
import sys

import pytest

from swapstable import _flow, gen_random, global_stabilization_cost
from swapstable._flow import FlowNetwork

from helpers import random_matching


def random_graph(rng):
    """(inner node count k, arc list) over the nodes 0..k + 1, the source
    being k and the sink k + 1, with repeated and opposite arcs."""
    k = rng.randint(0, 8)
    arcs = []
    for _ in range(rng.randint(0, 3 * k + 3)):
        a, b = rng.sample(range(k + 2), 2)
        arcs.append((a, b, rng.randint(0, 100)))
    return k, arcs


def brute_min_cuts(k, arcs):
    """Min cut value and the source sets of all min cuts (the source k is
    always in)."""
    best = None
    sides = []
    for mask in range(1 << k):
        source = {k} | {i for i in range(k) if mask >> i & 1}
        value = sum(c for a, b, c in arcs if a in source and b not in source)
        if best is None or value < best:
            best, sides = value, [source]
        elif value == best:
            sides.append(source)
    return best, sides


@pytest.mark.parametrize("seed", range(4))
def test_flow_and_cut_sides_match_enumeration(seed):
    rng = random.Random(9100 + seed)
    for _ in range(100):
        k, arcs = random_graph(rng)
        net = FlowNetwork(k + 2)
        for a, b, c in arcs:
            net.add_edge(a, b, c)
        value, sources = brute_min_cuts(k, arcs)
        assert net.max_flow(k, k + 1) == value
        everyone = set(range(k + 2))
        assert net.source_side(k) == set.intersection(*sources)
        assert net.sink_side(k + 1) == set.intersection(*(everyone - S for S in sources))


def test_parallel_arcs_add_up_and_adj_counts_arc_ends():
    s, a, t = range(3)
    net = FlowNetwork(3)
    net.add_edge(s, a, 3)
    net.add_edge(s, a, 4)
    net.add_edge(a, s, 2)
    net.add_edge(a, t, 10)
    assert net.max_flow(s, t) == 7
    assert len(net.adj) == 3
    assert sum(len(v) for v in net.adj.values()) // 2 == 4
    assert net.source_side(s) == {s}
    assert net.sink_side(t) == {a, t}


def test_isolated_source_or_sink_means_no_flow():
    a, b, s, t = range(4)
    net = FlowNetwork(4)
    net.add_edge(a, b, 5)
    assert net.max_flow(s, b) == 0
    assert net.max_flow(a, t) == 0
    assert net.source_side(s) == {s}
    assert net.sink_side(t) == {t}
    assert net.source_side(a) == {a, b}


def test_long_path_is_not_bounded_by_recursion_limit():
    n = 5000
    assert n > sys.getrecursionlimit()
    s, t = n, n + 1
    net = FlowNetwork(n + 2)
    net.add_edge(s, 0, 50)
    for i in range(n - 1):
        net.add_edge(i, i + 1, 7 if i == n // 2 else 9)
    net.add_edge(n - 1, t, 40)
    assert net.max_flow(s, t) == 7
    assert net.source_side(s) == {s} | set(range(n // 2 + 1))
    assert net.sink_side(t) == {t} | set(range(n // 2 + 1, n))


def check_cut_sides(n, arcs):
    """Flow and both cut sides of the network over 0..n-1 from n - 2 to
    n - 1, with the arcs added in order and reversed.

    The flow must equal the original capacity of (source side, rest) and of
    (rest, sink side), the sides must be disjoint, and neither the flow nor
    the sides may depend on the order the arcs were added in.
    """
    results = []
    for order in (arcs, arcs[::-1]):
        net = FlowNetwork(n)
        for a, b, c in order:
            net.add_edge(a, b, c)
        value = net.max_flow(n - 2, n - 1)
        source, sink = net.source_side(n - 2), net.sink_side(n - 1)
        assert not source & sink
        assert value == sum(c for a, b, c in arcs if a in source and b not in source)
        assert value == sum(c for a, b, c in arcs if a not in sink and b in sink)
        results.append((value, source, sink))
    assert results[0] == results[1]
    return results[0][0]


@pytest.mark.parametrize("seed", range(4))
def test_cut_sides_on_random_graphs_of_200_nodes(seed):
    rng = random.Random(9200 + seed)
    nodes = list(range(200))
    arcs = [(200, b, rng.randint(1, 30)) for b in rng.sample(nodes, 25)]
    arcs += [(a, 201, rng.randint(1, 30)) for a in rng.sample(nodes, 25)]
    for _ in range(900):
        a, b = rng.sample(nodes, 2)
        arcs.append((a, b, rng.choice([0, 1, 2, 5, 10, 40])))
    assert check_cut_sides(202, arcs) > 0


class RecordingNetwork(FlowNetwork):
    """A FlowNetwork that keeps its size and add_edge calls in a shared list."""

    made = []

    def __init__(self, n):
        super().__init__(n)
        self.calls = []
        RecordingNetwork.made.append((n, self.calls))

    def add_edge(self, a, b, capacity):
        self.calls.append((a, b, capacity))
        super().add_edge(a, b, capacity)


def test_cut_sides_on_stabilization_networks(monkeypatch):
    monkeypatch.setattr(_flow, "FlowNetwork", RecordingNetwork)
    monkeypatch.setattr(RecordingNetwork, "made", [])
    rng = random.Random(9300)
    costs = []
    for k, n in enumerate(range(30, 61, 3)):
        p = gen_random(n, n, 1.0 if k % 2 else 0.5, seed=9300 + k)
        cost, _ = global_stabilization_cost(p, random_matching(p, rng, skip_chance=0.0))
        costs.append(cost)
    assert len(RecordingNetwork.made) == len(costs)
    for (n, arcs), cost in zip(RecordingNetwork.made, costs):
        assert check_cut_sides(n, arcs) == cost
    assert min(costs) > 0
