"""Derived profiles inherit rank rows; swap distances count the changed window.

Every profile made from another (the global, local and robust gap
witnesses and apply_swap) goes through profile._derive.  Its tables must
equal a rebuild from its own lists, row for row, while every list it keeps
shares p's row object.
"""

import itertools
import random

import pytest

from swapstable import (
    Agent,
    Profile,
    Side,
    SwapOp,
    ValidationError,
    apply_swap,
    gen_random,
    global_stabilization_cost,
    is_d_robust,
    local_instability,
    swap_distance,
    u_optimal,
    witness_profile_local,
)
from swapstable import _flow, profile as profile_module
from swapstable.profile import INFINITE, _changed_window, _checked_table, _derive, _list_distance

from helpers import random_matching
from test_flow import RecordingNetwork

# complete, density 0.7, density 0.4 and lopsided, seeded
FAMILIES = [(14, 14, 1.0), (14, 14, 0.7), (14, 14, 0.4), (18, 7, 0.7)]


def family_profiles(count, seed_base):
    for k in range(count):
        n_u, n_w, density = FAMILIES[k % len(FAMILIES)]
        yield gen_random(n_u, n_w, density, seed=seed_base + k)


def check_inherited(p, q):
    """q's tables equal _checked_table rebuilt from q's lists, each list q
    keeps has p's row object, and each other list a new row; returns how
    many lists q reorders."""
    reordered = 0
    sides = (
        ("rank_u", p.u_lists, q.u_lists, q.n_w, "u"),
        ("rank_w", p.w_lists, q.w_lists, q.n_u, "w"),
    )
    for key, old, new, n_other, label in sides:
        table = vars(q)[key]  # inherited, not built on this read
        assert table == _checked_table(new, n_other, label, range(len(new)))
        for i, (a, b) in enumerate(zip(old, new)):
            if a is b:
                assert table[i] is vars(p)[key][i]
            else:
                assert a != b
                assert table[i] is not vars(p)[key][i]
                reordered += 1
    return reordered


def test_global_and_local_witnesses_inherit_rows():
    rng = random.Random(2501)
    reordered = 0
    for p in family_profiles(24, 2500):
        m = random_matching(p, rng, skip_chance=0.0)
        cost, q = global_stabilization_cost(p, m)
        if q is not None and cost:
            reordered += check_inherited(p, q)
        bound = local_instability(p, m)
        if bound is not INFINITE and bound:
            reordered += check_inherited(p, witness_profile_local(p, m, bound))
    assert reordered >= 100


def test_robust_gap_witnesses_inherit_rows():
    found = 0
    for p in family_profiles(24, 2600):
        m = u_optimal(p)
        for d in range(1, 6):
            ok, witness = is_d_robust(p, m, d)
            if not ok:
                q, _ = witness
                assert 1 <= check_inherited(p, q) <= 2
                assert swap_distance(p, q) <= d
                found += 1
                break
    assert found >= 12


def test_apply_swap_inherits_rows():
    rng = random.Random(2701)
    swaps = 0
    for p in family_profiles(12, 2700):
        for _ in range(10):
            owner = rng.choice([a for a in p.agents() if len(p.list_of(a)) >= 2])
            lst = p.list_of(owner)
            k = rng.randrange(len(lst) - 1)
            make = Agent.w if owner.side == Side.U else Agent.u
            q = apply_swap(p, SwapOp(owner, make(lst[k + 1]), make(lst[k])))
            assert check_inherited(p, q) == 1
            assert swap_distance(p, q) == 1
            swaps += 1
    assert swaps == 120


def test_a_profile_without_tables_derives_one_without_tables():
    p = gen_random(9, 9, 0.7, seed=2800)
    bare = Profile(p.u_lists, p.w_lists, p.u_names, p.w_names)
    owner = Agent.u(0)
    lst = p.list_of(owner)
    q = apply_swap(bare, SwapOp(owner, Agent.w(lst[0]), Agent.w(lst[1])))
    assert "rank_u" not in vars(q) and "rank_w" not in vars(q)
    assert q.rank_u == apply_swap(p, SwapOp(owner, Agent.w(lst[0]), Agent.w(lst[1]))).rank_u


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0, 0, 1), "u3's list (0, 0, 1) holds"),
        ((0, 5), "u3's list (0, 5) holds"),
        ((-1, 0), "u3's list (-1, 0) holds"),
        (("x",), "u3's list ('x',) holds"),
    ],
)
def test_a_reordered_faulty_list_is_refused(bad, message):
    p = gen_random(4, 5, 1.0, seed=2900)
    assert "rank_u" in vars(p)
    u_lists = p.u_lists[:2] + (bad,) + p.u_lists[3:]
    with pytest.raises(ValidationError) as err:
        _derive(p, u_lists, p.w_lists)
    assert err.value.issues == [
        message + " a non-index, an index out of range or a repeat"
    ]


def reference_distance(l1, l2):
    """Kendall tau over the whole lists, pair by pair."""
    if len(l1) != len(l2) or set(l1) != set(l2):
        return INFINITE
    where = {y: k for k, y in enumerate(l2)}
    return sum(1 for a, b in itertools.combinations(l1, 2) if where[a] > where[b])


def test_list_distance_counts_the_changed_window_only():
    rng = random.Random(3000)
    pairs = [((), ()), ((1, 2, 3), (1, 2, 3)), ((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2, 4))]
    pairs += [((4, 1, 2, 3), (4, 1, 2)), ((0, 1, 2), [0, 1, 2]), ((0, 1, 2), [0, 2, 1])]
    for size in (2, 5, 20, 60):
        base = tuple(rng.sample(range(100), size))
        for _ in range(15):
            lst = list(base)
            a = rng.randrange(size)
            b = rng.randrange(a, size)
            window = lst[a : b + 1]
            rng.shuffle(window)
            lst[a : b + 1] = window
            pairs.append((base, tuple(lst)))
            if rng.random() < 0.3:
                lst[rng.randrange(size)] = 100 + rng.randrange(5)
                pairs.append((base, tuple(lst)))
    for l1, l2 in pairs:
        assert _list_distance(l1, l2) == reference_distance(l1, l2), (l1, l2)
        window = _changed_window(l1, l2)
        if window is not None and window[0]:
            w1, w2 = window
            assert w1[0] != w2[0] and w1[-1] != w2[-1]


def test_global_witness_builds_rows_only_for_promoted_lists(monkeypatch):
    p = gen_random(40, 40, 0.7, seed=3100)
    m = random_matching(p, random.Random(3101), skip_chance=0.0)
    built = []
    original = profile_module._rank_table

    def counting(lists, n_other, faults):
        built.append(len(lists))
        return original(lists, n_other, faults)

    monkeypatch.setattr(profile_module, "_rank_table", counting)
    cost, q = global_stabilization_cost(p, m)
    promoted = sum(a is not b for a, b in zip(p.u_lists + p.w_lists, q.u_lists + q.w_lists))
    assert (cost, promoted) == (453, 42)
    assert sum(built) == promoted


def test_witness_cut_network_size_is_pinned(monkeypatch):
    monkeypatch.setattr(_flow, "FlowNetwork", RecordingNetwork)
    monkeypatch.setattr(RecordingNetwork, "made", [])
    p = gen_random(40, 40, 0.7, seed=3100)
    m = random_matching(p, random.Random(3101), skip_chance=0.0)
    global_stabilization_cost(p, m)
    ((n, arcs),) = RecordingNetwork.made
    nodes = {x for a, b, _ in arcs for x in (a, b)}
    # one add_edge call per arc: 40 matched pairs, 1191 arcs
    assert (n, len(nodes), len(arcs), len({(a, b) for a, b, _ in arcs})) == (506, 506, 1191, 1191)
    # every node is used: the items are the ints 0, 1, ..., and the source
    # NEVER and the sink ALWAYS are the last two
    assert nodes == set(range(n))
    assert all(a != n - 1 and b != n - 2 for a, b, _ in arcs)
