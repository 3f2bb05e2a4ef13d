"""The package's immutable records: field-wise ==, hash and repr, copies,
pickles, and no attribute assignment."""

import copy
import pickle

import pytest

from swapstable import (
    Matching,
    NearStabilityReport,
    PartitionResult,
    Profile,
    Rotation,
    RotationDigraph,
    matched_partition,
    near_stability_report,
    rotation_digraph,
    validate_profile,
)


def crossed():
    """A 2x2 profile with one rotation, which swaps both pairs."""
    return validate_profile([[0, 1], [1, 0]], [[1, 0], [0, 1]], ["a", "b"], ["x", "y"])


def records():
    """(record, an equal record built on its own, a different one of the class)."""
    # q leaves u2 and w2 single in every matching
    p, q = crossed(), validate_profile([[0], []], [[0], []])
    m = Matching.from_pairs(2, 2, [(0, 0), (1, 1)])
    return [
        (p, crossed(), q),
        (m, Matching(n_u=2, n_w=2, pairs=frozenset({(1, 1), (0, 0)})), Matching.empty(2, 2)),
        (rotation_digraph(p), rotation_digraph(crossed()), rotation_digraph(q)),
        (Rotation(cycle=((0, 0), (1, 1))), Rotation.canonical([(1, 1), (0, 0)]), Rotation(())),
        (matched_partition(p), matched_partition(crossed()), matched_partition(q)),
        (near_stability_report(p, m), near_stability_report(crossed(), m), near_stability_report(q, Matching.empty(2, 2))),
    ]


@pytest.mark.parametrize("k", range(6))
def test_equality_and_hash_are_field_wise(k):
    rec, twin, other = records()[k]
    assert rec is not twin
    assert rec == twin and hash(rec) == hash(twin)
    assert rec != other
    assert len({rec, twin, other}) == 2
    assert repr(rec) == repr(twin) != repr(other)


def test_repr_names_the_compared_fields():
    p = validate_profile([[0]], [[0]])
    m = Matching.from_pairs(1, 1, [(0, 0)])
    assert repr(p) == "Profile(u_lists=((0,),), w_lists=((0,),), u_names=('u1',), w_names=('w1',))"
    assert repr(m) == "Matching(n_u=1, n_w=1, pairs=frozenset({(0, 0)}))"
    dg = rotation_digraph(crossed())
    assert repr(dg) == (
        "RotationDigraph(rotations=(Rotation(cycle=((0, 0), (1, 1))),), arcs=frozenset(), "
        "u_opt=%r)" % (dg.u_opt,)
    )
    assert repr(matched_partition(validate_profile([[]], []))) == (
        "PartitionResult(matched_agents=frozenset(), unmatched_agents="
        "frozenset({Agent(side=<Side.U: 'U'>, index=0)}), n_matched=0, n_unmatched=1)"
    )


def test_records_of_other_classes_or_tuples_are_not_equal():
    m = Matching.from_pairs(1, 1, [(0, 0)])
    assert m != (1, 1, frozenset({(0, 0)}))
    assert Rotation(((0, 0),)) != ((0, 0),)
    dg = rotation_digraph(crossed())
    # the runs are derived data, left out of == and hash like the partner vectors
    same = RotationDigraph(dg.rotations, dg.arcs, dg.u_opt, u_runs=[], w_runs=[])
    assert same == dg and hash(same) == hash(dg)


@pytest.mark.parametrize("k", range(3))
def test_copies_and_pickles_round_trip(k):
    rec = records()[k][0]
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is type(rec)
        assert twin == rec and hash(twin) == hash(rec)
        assert vars(twin).keys() == vars(rec).keys()
    m = records()[1][0]
    back = pickle.loads(pickle.dumps(m))
    assert (back.pu, back.pw) == (m.pu, m.pw)


@pytest.mark.parametrize(
    "rec, attr",
    [
        (crossed(), "u_lists"),
        (crossed(), "rank_u"),
        (Matching.empty(1, 1), "pairs"),
        (Matching.empty(1, 1), "pu"),
        (rotation_digraph(crossed()), "u_runs"),
        (rotation_digraph(crossed()), "arcs"),
        (Rotation(()), "cycle"),
        (matched_partition(crossed()), "n_matched"),
        (NearStabilityReport(0, 0, None, None), "local_bound"),
    ],
)
def test_fields_refuse_assignment(rec, attr):
    with pytest.raises(AttributeError):
        setattr(rec, attr, None)
    if not isinstance(rec, tuple):
        with pytest.raises(AttributeError):
            delattr(rec, attr)


def test_profile_rank_tables_stay_cached_properties():
    p = Profile(u_lists=((0,),), w_lists=((0,),), u_names=("u1",), w_names=("w1",))
    assert "rank_u" not in vars(p)
    assert p.rank_u == [[0]] and vars(p)["rank_u"] is p.rank_u
    assert p.u_opt == Matching.from_pairs(1, 1, [(0, 0)]) and p.u_opt is p.u_opt
    assert isinstance(matched_partition(p), PartitionResult)
