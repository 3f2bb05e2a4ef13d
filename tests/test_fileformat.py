"""Profile/matching file formats: round-trips and line-numbered errors."""

import pytest
from hypothesis import given, settings

from swapstable import (
    InvalidInput,
    Matching,
    ValidationError,
    gen_example3,
    parse_matching,
    parse_profile,
    serialize_matching,
    serialize_profile,
    u_optimal,
    validate_profile,
)

from helpers import broken_profile_texts, profiles


@settings(max_examples=100, deadline=None)
@given(profiles(max_side=5))
def test_profile_round_trip(p):
    text = serialize_profile(p)
    q = parse_profile(text)
    assert q == p
    assert serialize_profile(q) == text


@settings(max_examples=60, deadline=None)
@given(profiles(max_side=5))
def test_matching_round_trip(p):
    m = u_optimal(p)
    text = serialize_matching(p, m)
    assert parse_matching(text, p) == m
    assert serialize_matching(p, parse_matching(text, p)) == text


def test_example_file_canonicalizes():
    p = gen_example3()
    messy = "\n".join(
        [
            "# preferences",
            "profile v1",
            "",
            "side U: a1  a2",
            "side W:  b1 b2",
            "a2: b1 b2",
            "a1: b1",
            "b2: a2",
            "b1: a2 a1",
        ]
    )
    assert parse_profile(messy) == p
    canon = serialize_profile(p)
    assert parse_profile(canon) == p
    assert serialize_profile(parse_profile(canon)) == canon
    assert canon.splitlines()[0] == "profile v1"


def test_empty_lists_and_sides_round_trip():
    p = validate_profile([[0], []], [[0]], ["x", "y"], ["z"])
    assert parse_profile(serialize_profile(p)) == p
    empty = validate_profile([], [[], []])
    assert parse_profile(serialize_profile(empty)) == empty


def test_side_like_agent_names_round_trip():
    # only the exact labels "side U" and "side W" open a side line
    p = validate_profile([[0, 1], [1]], [[0], [1, 0]], ["side", "sidekick"], ["sideU", "w"])
    text = serialize_profile(p)
    assert parse_profile(text) == p
    assert serialize_profile(parse_profile(text)) == text


def issues_of(text):
    with pytest.raises(ValidationError) as err:
        parse_profile(text)
    return "\n".join(err.value.issues)


def test_header_required():
    assert "line 1: missing" in issues_of("")
    assert "line 1: expected 'profile v1'" in issues_of("profile v2\n")
    assert "line 3: expected 'profile v1'" in issues_of("# hi\n\nwhatever\n")


def test_parse_errors_carry_line_numbers():
    base = "profile v1\nside U: a\nside W: b\n"
    assert "line 4: unknown agent 'q'" in issues_of(base + "a: q\nb:\n")
    assert "line 4: 'b' listed twice by 'a'" in issues_of(base + "a: b b\nb: a\n")
    assert "line 6: duplicate list for 'a'" in issues_of(base + "a: b\nb: a\na: b\n")
    assert "line 4: expected ':'" in issues_of(base + "a\nb:\n")
    assert "duplicate agent name 'a'" in issues_of("profile v1\nside U: a a\nside W: b\n")
    assert "line 2: invalid agent name 'a:x'" in issues_of("profile v1\nside U: a:x\nside W: b\nb:\n")
    assert "unknown side 'side X'" in issues_of("profile v1\nside X: a\n")
    assert "missing 'side W:' line" in issues_of("profile v1\nside U: a\na:\n")
    assert "no preference-list line" in issues_of(base + "a: b\n")


def test_asymmetric_list_error_names_both_agents():
    text = "profile v1\nside U: a\nside W: b\na: b\nb:\n"
    blob = issues_of(text)
    assert "line 4: asymmetric acceptability: a lists b but not vice versa" in blob


def test_same_side_entry_rejected():
    text = "profile v1\nside U: a c\nside W: b\na: c\nb:\nc:\n"
    assert "line 4: 'c' is on the same side as 'a'" in issues_of(text)


def test_multiple_problems_reported_together():
    text = "profile v1\nside U: a\nside W: b\na: q\nb: a a\n"
    with pytest.raises(ValidationError) as err:
        parse_profile(text)
    assert len(err.value.issues) >= 2


def test_issue_list_keeps_its_order():
    # one line with four faulty tokens, a clean line, a W line with two
    # faults, and an agent with no list line: issues come agent by agent,
    # each line's in token order, U side first
    text = (
        "profile v1\nside U: a b\nside W: x y z\n"
        "a: q a:x b x x y\nb: y x\nx: a b\ny: y b b\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_profile(text)
    assert err.value.issues == [
        "line 4: unknown agent 'q' in a's list",
        "line 4: invalid agent name 'a:x' (no ':' allowed)",
        "line 4: 'b' is on the same side as 'a'",
        "line 4: 'x' listed twice by 'a'",
        "line 7: 'y' is on the same side as 'y'",
        "line 7: 'b' listed twice by 'y'",
        "line 3: agent 'z' declared here has no preference-list line",
    ]


# The issues parse_profile reported for each corpus file before its ingest
# pass was rewritten, recorded verbatim: text, order and line numbers.
CORPUS_ISSUES = {
    'empty file': [
        "line 1: missing 'profile v1' header",
    ],
    'wrong header': [
        "line 3: expected 'profile v1' as the first line, got 'profile v2'",
    ],
    'no side lines': [
        "line 2: unknown agent 'a'",
        "missing 'side U:' line",
        "missing 'side W:' line",
    ],
    'missing side W': [
        "missing 'side W:' line",
    ],
    'duplicate side U': [
        "line 3: duplicate 'side U' line",
    ],
    'unknown side': [
        "line 2: unknown side 'side X' (use 'side U' or 'side W')",
    ],
    'undeclared side-like label': [
        "line 4: unknown side 'sidekick' (use 'side U' or 'side W')",
    ],
    'no colon': [
        "line 4: expected ':' after the agent or side label",
        "line 2: agent 'a' declared here has no preference-list line",
    ],
    'whitespace label': [
        "line 4: agent name 'a c' may not contain whitespace",
    ],
    'duplicate list line': [
        "line 6: duplicate list for 'a' (first given on line 4)",
    ],
    'missing list line': [
        "line 3: agent 'b' declared here has no preference-list line",
    ],
    'unknown token': [
        "line 4: unknown agent 'q' in a's list",
    ],
    'same-side token': [
        "line 4: 'c' is on the same side as 'a'",
    ],
    'repeated token': [
        "line 4: 'b' listed twice by 'a'",
    ],
    'colon in declared name': [
        "line 2: invalid agent name 'a:x' (no ':' allowed)",
    ],
    'colon in list token': [
        "line 4: invalid agent name 'b:y' (no ':' allowed)",
    ],
    'duplicate declared name': [
        "line 2: duplicate agent name 'a'",
        "line 3: duplicate agent name 'a'",
    ],
    'asymmetric pair on U side': [
        'line 4: asymmetric acceptability: a lists b but not vice versa',
    ],
    'asymmetric pair on W side': [
        'line 5: asymmetric acceptability: b lists a but not vice versa',
    ],
    'asymmetric pairs on both sides': [
        'line 4: asymmetric acceptability: a lists z but not vice versa',
        'line 4: asymmetric acceptability: a lists x but not vice versa',
        'line 5: asymmetric acceptability: b lists y but not vice versa',
        'line 6: asymmetric acceptability: c lists x but not vice versa',
        'line 8: asymmetric acceptability: y lists a but not vice versa',
        'line 8: asymmetric acceptability: y lists c but not vice versa',
        'line 9: asymmetric acceptability: z lists b but not vice versa',
        'line 9: asymmetric acceptability: z lists c but not vice versa',
    ],
    'side lines after list lines': [
        "line 2: unknown agent 'a'",
        "line 3: unknown agent 'b'",
        "line 4: agent 'a' declared here has no preference-list line",
        "line 5: agent 'b' declared here has no preference-list line",
    ],
    'comments, blank lines and CRLF': [
        "line 11: duplicate list for 'c' (first given on line 10)",
        "line 7: 'b' listed twice by 'a'",
    ],
    'many faults on one line': [
        "line 4: unknown agent 'q' in a's list",
        "line 4: invalid agent name 'a:x' (no ':' allowed)",
        "line 4: 'b' is on the same side as 'a'",
        "line 4: 'x' listed twice by 'a'",
        "line 7: 'y' is on the same side as 'y'",
        "line 7: 'b' listed twice by 'y'",
        "line 3: agent 'z' declared here has no preference-list line",
    ],
    'seed 0': [
        "line 12: duplicate list for 'w3' (first given on line 10)",
    ],
    'seed 1': [
        "line 6: invalid agent name 'w4:x' (no ':' allowed)",
    ],
    'seed 2': [
        "line 12: duplicate list for 'w2' (first given on line 9)",
    ],
    'seed 3': [
        "line 6: 'u4' is on the same side as 'u3'",
        "line 7: invalid agent name 'w2:x' (no ':' allowed)",
    ],
    'seed 4': [
        "line 7: 'u1' is on the same side as 'u4'",
        "line 10: unknown agent 'zz' in w3's list",
    ],
    'seed 5': [
        "line 11: duplicate list for 'u3' (first given on line 6)",
        "line 3: agent 'w1' declared here has no preference-list line",
    ],
    'seed 6': [
        "line 5: unknown agent 'zz' in u2's list",
    ],
    'seed 7': [
        "line 9: 'u1' listed twice by 'w2'",
    ],
    'seed 8': [
        "line 2: agent 'u4' declared here has no preference-list line",
    ],
    'seed 9': [
        "line 8: 'u2' listed twice by 'w1'",
        "line 11: invalid agent name 'u2:x' (no ':' allowed)",
    ],
    'seed 10': [
        "line 4: unknown agent 'zz' in u1's list",
        "line 4: unknown agent 'zz' in u1's list",
    ],
    'seed 11': [
        "line 12: duplicate list for 'w4' (first given on line 11)",
        "line 13: duplicate list for 'w4' (first given on line 11)",
    ],
    'seed 12': [
        "line 11: 'w3' is on the same side as 'w4'",
    ],
    'seed 13': [
        "line 2: agent 'u4' declared here has no preference-list line",
        "line 7: 'w2' is on the same side as 'w1'",
    ],
    'seed 14': [
        "line 5: invalid agent name 'w2:x' (no ':' allowed)",
        "line 7: 'u3' is on the same side as 'u4'",
    ],
    'seed 15': [
        "line 4: 'w4' listed twice by 'u1'",
    ],
}


def test_corpus_issues_are_pinned():
    corpus = broken_profile_texts()
    assert list(corpus) == list(CORPUS_ISSUES)
    for name, text in corpus.items():
        with pytest.raises(ValidationError) as err:
            parse_profile(text)
        assert err.value.issues == CORPUS_ISSUES[name], name


def match_issues(text, p):
    with pytest.raises(ValidationError) as err:
        parse_matching(text, p)
    return "\n".join(err.value.issues)


def test_matching_parse_and_errors():
    p = gen_example3()
    assert parse_matching("# ok\na2 b1\n", p).pairs == frozenset({(1, 0)})
    assert parse_matching("", p) == Matching.empty(2, 2)
    assert serialize_matching(p, Matching.empty(2, 2)) == ""
    assert "line 1: expected 'u-name w-name', got 1 token(s)" in match_issues("a2\n", p)
    assert "line 1: unknown agent 'zz'" in match_issues("a2 zz\n", p)
    blob = match_issues("b1 a2\n", p)
    assert "'b1' is not on side U" in blob and "'a2' is not on side W" in blob
    assert "line 2: b1 already matched on line 1" in match_issues("a1 b1\na2 b1\n", p)
    assert "not mutually acceptable" in match_issues("a1 b2\n", p)


def test_serializer_rejects_unwritable_names():
    p = validate_profile([[0]], [[0]], ["a b"], ["w"])
    with pytest.raises(InvalidInput):
        serialize_profile(p)
