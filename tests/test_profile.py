"""Core profile, matching, swap and blocking-pair behavior."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapstable import (
    INFINITE,
    Agent,
    InvalidInput,
    InvalidMatching,
    Matching,
    NonAdjacentSwap,
    Profile,
    Side,
    SwapOp,
    TooLarge,
    UnknownAgent,
    ValidationError,
    apply_swap,
    blocking_pairs,
    egalitarian_cost,
    gen_random,
    global_stabilization_cost,
    is_perfect,
    is_stable,
    parse_profile,
    rank,
    serialize_profile,
    swap_distance,
    swap_distance_per_agent,
    validate_matching,
    validate_profile,
)
from swapstable import profile as profile_module
from swapstable.profile import blocking_indices

from helpers import (
    blocking_by_definition,
    egal_by_definition,
    make_rng,
    profiles,
    random_matching,
)


def test_validate_profile_collects_all_issues():
    with pytest.raises(ValidationError) as err:
        validate_profile([[0, 0], [5]], [[0], [1]])
    issues = "\n".join(err.value.issues)
    assert "repeats" in issues
    assert "out-of-range" in issues
    assert len(err.value.issues) >= 2
    # a negative entry would index a rank row from its end
    with pytest.raises(ValidationError) as err:
        validate_profile([[-1]], [[0]])
    assert err.value.issues == ["unknown agent: u1 lists out-of-range index -1"]
    # a faulty W list is named as one, with the W agent's own label
    with pytest.raises(ValidationError) as err:
        validate_profile([[0]], [[0, 3]])
    assert err.value.issues == ["unknown agent: w1 lists out-of-range index 3"]
    with pytest.raises(ValidationError) as err:
        validate_profile([[0]], [[0, 0]])
    assert err.value.issues == ["duplicate entry: index 0 repeats in w1's list"]
    with pytest.raises(ValidationError) as err:
        validate_profile([[0]], [[0]], ["a", "b"], ["x"])
    assert err.value.issues == ["name count does not match list count"]


def test_validate_profile_accepts_numpy_integers():
    p = validate_profile([[np.int64(0), np.int32(1)], [1, 0]], [[0, 1], [np.int64(1), 0]])
    assert p == validate_profile([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    assert all(type(j) is int for lst in p.u_lists + p.w_lists for j in lst)
    with pytest.raises(ValidationError) as err:
        validate_profile([[np.int64(1), 0.0]], [[0]])
    assert len(err.value.issues) == 2
    assert all("out-of-range" in issue for issue in err.value.issues)


def test_table_cap_refuses_a_profile_before_building_its_tables(monkeypatch):
    # a cap in place of a real allocation: 4 x 3 agents is 12 pairs
    p = gen_random(4, 3, 0.7, seed=2)
    text = serialize_profile(p)
    monkeypatch.setattr(profile_module, "TABLE_CAP", 12)
    assert validate_profile(p.u_lists, p.w_lists) == p
    assert parse_profile(text) == p

    def no_tables(*args):
        raise AssertionError("rank table built past the cap")

    monkeypatch.setattr(profile_module, "TABLE_CAP", 11)
    monkeypatch.setattr(profile_module, "_rank_table", no_tables)
    with pytest.raises(TooLarge, match=r"4 x 3 agent pairs; .* at most 11 \(TABLE_CAP\)"):
        validate_profile(p.u_lists, p.w_lists)
    with pytest.raises(TooLarge, match="4 x 3"):
        parse_profile(text)


def test_validate_profile_asymmetry_names_both_agents():
    with pytest.raises(ValidationError) as err:
        validate_profile([[0]], [[]], ["left"], ["right"])
    assert "left lists right but not vice versa" in str(err.value)


def test_asymmetry_issues_keep_their_order_in_both_checkers():
    # u1 and u2 list partners that drop them, and so do w2 and w3; each
    # checker reports U-side lists first, each in list order.
    u_lists = [[2, 0], [1, 0], [0]]
    w_lists = [[1], [0, 2], [1, 2]]
    with pytest.raises(ValidationError) as err:
        validate_profile(u_lists, w_lists)
    assert err.value.issues == [
        "asymmetric acceptability: %s lists %s but not vice versa" % pair
        for pair in [
            ("u1", "w3"), ("u1", "w1"), ("u2", "w2"), ("u3", "w1"),
            ("w2", "u1"), ("w2", "u3"), ("w3", "u2"), ("w3", "u3"),
        ]
    ]
    text = (
        "profile v1\nside U: a b c\nside W: x y z\n"
        "a: z x\nb: y x\nc: x\nx: b\ny: a c\nz: b c\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_profile(text)
    assert err.value.issues == [
        "line %d: asymmetric acceptability: %s lists %s but not vice versa" % row
        for row in [
            (4, "a", "z"), (4, "a", "x"), (5, "b", "y"), (6, "c", "x"),
            (8, "y", "a"), (8, "y", "c"), (9, "z", "b"), (9, "z", "c"),
        ]
    ]


def test_full_w_lists_need_no_asymmetry_scan(monkeypatch):
    # when every W list names all of U, each U entry is listed back, so
    # equal totals prove mutual acceptability
    complete = gen_random(6, 5, 1.0, seed=3)
    text = serialize_profile(complete)

    def refuse(*args):
        raise AssertionError("asymmetry scan on full W lists")

    monkeypatch.setattr(profile_module, "_one_sided", refuse)
    assert validate_profile(complete.u_lists, complete.w_lists) == complete
    assert parse_profile(text) == complete


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError) as err:
        validate_profile([[]], [[]], ["x"], ["x"])
    assert "duplicate agent name 'x'" in str(err.value)


def test_default_names():
    p = validate_profile([[0], [0]], [[0, 1]])
    assert p.u_names == ("u1", "u2")
    assert p.w_names == ("w1",)
    assert p.agent_named("u2") == Agent.u(1)
    assert p.name_of(Agent.w(0)) == "w1"
    with pytest.raises(UnknownAgent):
        p.agent_named("nobody")


def test_rank_convention():
    p = validate_profile([[1, 0]], [[0], [0]])
    assert rank(p, Agent.u(0), Agent.w(1)) == 0
    assert rank(p, Agent.u(0), Agent.w(0)) == 1
    q = validate_profile([[1]], [[], [0]])
    # unacceptable partner ranks as the list length
    assert rank(q, Agent.u(0), Agent.w(0)) == 1
    assert rank(p, Agent.w(1), Agent.u(0)) == 0
    assert rank(q, Agent.w(0), Agent.u(0)) == 0
    for x, y in (
        (Agent.u(1), Agent.w(0)),
        (Agent.u(0), Agent.w(2)),
        (Agent.w(2), Agent.u(0)),
        (Agent.w(0), Agent.u(1)),
    ):
        with pytest.raises(UnknownAgent, match="out of range"):
            rank(p, x, y)
    with pytest.raises(InvalidInput, match="opposite sides"):
        rank(p, Agent.u(0), Agent.u(0))


@settings(max_examples=80, deadline=None)
@given(profiles(max_side=6, min_side=0))
def test_rank_matrices_match_definition(p):
    for lists, n_other, ranks in (
        (p.u_lists, p.n_w, p.rank_u),
        (p.w_lists, p.n_u, p.rank_w),
    ):
        want = [[len(lst)] * n_other for lst in lists]
        for row, lst in zip(want, lists):
            for k, other in enumerate(lst):
                row[other] = k
        assert ranks == want
        assert all(type(r) is int for row in ranks for r in row)


def test_rank_rows_share_their_int_objects():
    # A plain tolist() makes one int object per entry once ranks pass 256
    # (about 11 bytes an entry more here); the table keeps one pointer each,
    # and not the int64 matrix it is built from.
    n = 400
    p = gen_random(n, n, 1.0, 0)
    tracemalloc.start()
    try:
        rows = p.rank_u
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == n
    assert kept <= 1.1 * 8 * n * n + (n + 1) * sys.getsizeof([])


def _naive_asymmetries(u_lists, w_lists):
    for i, lst in enumerate(u_lists):
        for j in lst:
            if i not in w_lists[j]:
                yield Side.U, i, j
    for j, lst in enumerate(w_lists):
        for i in lst:
            if j not in u_lists[i]:
                yield Side.W, j, i


@settings(max_examples=80, deadline=None)
@given(profiles(max_side=6, min_side=0), st.randoms(use_true_random=False), st.booleans())
def test_asymmetries_match_definition_in_order(p, pyrng, drop_from_u):
    u_lists = [list(lst) for lst in p.u_lists]
    w_lists = [list(lst) for lst in p.w_lists]
    for lst in u_lists if drop_from_u else w_lists:
        for entry in list(lst):
            if pyrng.random() < 0.3:
                lst.remove(entry)
    labels = {Side.U: ("u", "w"), Side.W: ("w", "u")}
    want = [
        "asymmetric acceptability: %s%d lists %s%d but not vice versa"
        % (labels[side][0], owner + 1, labels[side][1], other + 1)
        for side, owner, other in _naive_asymmetries(u_lists, w_lists)
    ]
    if want:
        with pytest.raises(ValidationError) as err:
            validate_profile(u_lists, w_lists)
        assert err.value.issues == want
    else:
        assert validate_profile(u_lists, w_lists) == p
    assert validate_profile(p.u_lists, p.w_lists) == p
    assert validate_profile([[], []], []).u_lists == ((), ())


def test_apply_swap_and_adjacency():
    p = validate_profile([[0, 1, 2]], [[0], [0], [0]])
    s = SwapOp(Agent.u(0), Agent.w(0), Agent.w(1))
    q = apply_swap(p, s)
    assert q.u_lists[0] == (1, 0, 2)
    assert swap_distance(p, q) == 1
    with pytest.raises(NonAdjacentSwap):
        apply_swap(p, SwapOp(Agent.u(0), Agent.w(0), Agent.w(2)))
    with pytest.raises(InvalidInput):
        apply_swap(p, SwapOp(Agent.u(0), Agent.u(0), Agent.w(1)))


def test_swap_distance_infinite_on_different_acceptable_sets():
    p = validate_profile([[0]], [[0]])
    q = validate_profile([[]], [[]])
    assert swap_distance(p, q) == INFINITE
    per = swap_distance_per_agent(p, q)
    assert per[Agent.u(0)] == INFINITE


def _naive_inversions(a, b):
    pos = {x: k for k, x in enumerate(b)}
    return sum(
        1
        for s in range(len(a))
        for t in range(s + 1, len(a))
        if pos[a[s]] > pos[a[t]]
    )


@settings(max_examples=60, deadline=None)
@given(profiles(max_side=4), st.randoms(use_true_random=False))
def test_swap_distance_matches_pairwise_inversion_count(p, pyrng):
    lists_u = [list(lst) for lst in p.u_lists]
    lists_w = [list(lst) for lst in p.w_lists]
    for lst in lists_u + lists_w:
        pyrng.shuffle(lst)
    q = validate_profile(lists_u, lists_w, p.u_names, p.w_names)
    want = sum(
        _naive_inversions(a, b)
        for a, b in zip(p.u_lists + p.w_lists, q.u_lists + q.w_lists)
    )
    assert swap_distance(p, q) == want
    assert swap_distance(q, p) == want
    assert swap_distance(p, p) == 0


def test_swap_distance_sums_the_per_agent_distances():
    # Rows a witness does not promote are p's own tuples; swap_distance
    # skips them, and must still agree with the per-agent table.
    rng = make_rng(5150)
    shared = infinite = 0
    for k in range(60):
        n = 2 + k % 9
        p = gen_random(n, n, 1.0 if k % 2 else 0.6, seed=9400 + k)
        m = random_matching(p, rng)
        cost, witness = global_stabilization_cost(p, m)
        lists = [list(p.u_lists), list(p.w_lists)]
        for side in lists:
            for r in rng.sample(range(n), rng.randint(0, n)):
                row = list(side[r])
                rng.shuffle(row)
                side[r] = tuple(row)
        q = Profile(tuple(lists[0]), tuple(lists[1]), p.u_names, p.w_names)
        cases = [q] if witness is None else [q, witness]
        if p.u_lists[0]:
            # drop u_1's last entry: that acceptable set differs
            cases.append(Profile((p.u_lists[0][:-1],) + p.u_lists[1:], p.w_lists, p.u_names, p.w_names))
        for other in cases:
            want = sum(swap_distance_per_agent(p, other).values())
            assert swap_distance(p, other) == want
            assert swap_distance(other, p) == want
            shared += any(a is b for a, b in zip(p.u_lists + p.w_lists, other.u_lists + other.w_lists))
            infinite += want == INFINITE
        if witness is not None:
            assert swap_distance(p, witness) == cost
    assert shared > 50 and infinite > 20
    p = gen_random(3, 3, 1.0, seed=1)
    for other in (gen_random(3, 4, 1.0, seed=1), gen_random(4, 3, 1.0, seed=1)):
        with pytest.raises(UnknownAgent):
            swap_distance(p, other)
        with pytest.raises(UnknownAgent):
            swap_distance_per_agent(p, other)


@settings(max_examples=80, deadline=None)
@given(profiles(max_side=4), st.integers(0, 2**30))
def test_blocking_indices_are_the_blocking_pairs_as_ints(p, seed):
    m = random_matching(p, make_rng(seed))
    got = blocking_indices(p, m)
    assert got == [(u.index, w.index) for u, w in blocking_pairs(p, m)]
    assert all(type(i) is int and type(j) is int for i, j in got)


@settings(max_examples=80, deadline=None)
@given(profiles(max_side=4), st.integers(0, 2**30))
def test_blocking_pairs_match_definition(p, seed):
    m = random_matching(p, make_rng(seed))
    want = blocking_by_definition(p, m)
    assert blocking_pairs(p, m) == [(Agent.u(i), Agent.w(j)) for i, j in want]
    assert is_stable(p, m) == (not want)


@settings(max_examples=60, deadline=None)
@given(profiles(max_side=4), st.integers(0, 2**30))
def test_egalitarian_cost_matches_definition(p, seed):
    m = random_matching(p, make_rng(seed))
    assert egalitarian_cost(p, m) == egal_by_definition(p, m)


def test_matching_validation():
    p = validate_profile([[0], []], [[0]])
    with pytest.raises(InvalidMatching):
        Matching.from_pairs(2, 1, [(0, 0), (1, 0)])  # w shared
    with pytest.raises(InvalidMatching, match="u index 0 matched twice"):
        Matching.from_pairs(1, 2, [(0, 0), (0, 1)])
    # a Matching built without from_pairs' checks is still range-checked
    with pytest.raises(InvalidMatching, match=r"pair \(5, 0\) out of range"):
        validate_matching(p, Matching(2, 1, frozenset({(5, 0)})))
    with pytest.raises(InvalidMatching):
        validate_matching(p, Matching.from_pairs(2, 1, [(1, 0)]))  # not acceptable
    with pytest.raises(InvalidMatching):
        validate_matching(p, Matching.from_pairs(1, 1, [(0, 0)]))  # wrong size
    for pair in ((-1, 0), (2, 0), (0, -1), (0, 1), (5, 0)):
        with pytest.raises(InvalidMatching, match="out of range"):
            Matching.from_pairs(2, 1, [pair])
    m = Matching.from_pairs(2, 1, [(0, 0)])
    validate_matching(p, m)
    assert m.partner_of(Agent.u(0)) == Agent.w(0)
    assert m.partner_of(Agent.w(0)) == Agent.u(0)
    assert m.partner_of(Agent.u(1)) is None
    for agent in (Agent.u(-1), Agent.u(2), Agent.w(-1), Agent.w(1)):
        with pytest.raises(UnknownAgent):
            m.partner_of(agent)


def test_is_perfect():
    p = validate_profile([[0], [0]], [[0, 1]])
    assert not is_perfect(p, Matching.from_pairs(2, 1, [(0, 0)]))
    q = validate_profile([[0]], [[0]])
    assert is_perfect(q, Matching.from_pairs(1, 1, [(0, 0)]))
    assert not is_perfect(q, Matching.empty(1, 1))


def test_agent_and_side_helpers():
    assert Agent.u(3).side is Side.U
    assert Agent.w(0).side is Side.W
    p = validate_profile([[0]], [[0]], ["a"], ["b"])
    assert list(p.agents()) == [Agent.u(0), Agent.w(0)]
    assert p.list_of(Agent.u(0)) == (0,)
    with pytest.raises(UnknownAgent):
        p.list_of(Agent.u(7))
