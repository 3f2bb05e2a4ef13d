"""Max-flow and both min-cut sides, refereed by enumerating every cut."""

import random
import sys

import pytest

from swapstable._flow import FlowNetwork


def random_graph(rng):
    """(inner node count, arc list) with repeated and opposite arcs."""
    k = rng.randint(0, 8)
    nodes = ["s", "t"] + list(range(k))
    arcs = []
    for _ in range(rng.randint(0, 3 * k + 3)):
        a, b = rng.sample(nodes, 2)
        arcs.append((a, b, rng.randint(0, 100)))
    return k, arcs


def brute_min_cuts(k, arcs):
    """Min cut value and the source sets of all min cuts (s always in)."""
    best = None
    sides = []
    for mask in range(1 << k):
        source = {"s"} | {i for i in range(k) if mask >> i & 1}
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
        net = FlowNetwork()
        for a, b, c in arcs:
            net.add_edge(a, b, c)
        value, sources = brute_min_cuts(k, arcs)
        assert net.max_flow("s", "t") == value
        everyone = {"s", "t"} | set(range(k))
        assert net.source_side("s") == set.intersection(*sources)
        assert net.sink_side("t") == set.intersection(*(everyone - S for S in sources))


def test_parallel_calls_accumulate_and_adj_counts_arc_ends():
    net = FlowNetwork()
    net.add_edge("s", "a", 3)
    net.add_edge("s", "a", 4)
    net.add_edge("a", "s", 2)
    net.add_edge("a", "t", 10)
    assert net.max_flow("s", "t") == 7
    assert sum(len(v) for v in net.adj.values()) // 2 == 3
    assert net.source_side("s") == {"s"}
    assert net.sink_side("t") == {"a", "t"}


def test_missing_source_or_sink_means_no_flow():
    net = FlowNetwork()
    net.add_edge("a", "b", 5)
    assert net.max_flow("s", "b") == 0
    assert net.max_flow("a", "t") == 0
    assert net.source_side("s") == {"s"}
    assert net.sink_side("t") == {"t"}
    assert net.source_side("a") == {"a", "b"}


def test_long_path_is_not_bounded_by_recursion_limit():
    n = 5000
    assert n > sys.getrecursionlimit()
    net = FlowNetwork()
    net.add_edge("s", 0, 50)
    for i in range(n - 1):
        net.add_edge(i, i + 1, 7 if i == n // 2 else 9)
    net.add_edge(n - 1, "t", 40)
    assert net.max_flow("s", "t") == 7
    assert net.source_side("s") == {"s"} | set(range(n // 2 + 1))
    assert net.sink_side("t") == {"t"} | set(range(n // 2 + 1, n))
