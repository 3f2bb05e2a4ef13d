"""Command-line interface: JSON reports, exit codes, witness replay."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swapstable
from swapstable import (
    Agent,
    Side,
    SwapOp,
    apply_swap,
    blocking_pairs,
    egalitarian_cost,
    example2_rotated_matching,
    example2_stable_matching,
    gen_cyclic_latin,
    gen_example1_fixture,
    gen_example2,
    gen_example3,
    gen_random,
    is_stable,
    parse_matching,
    parse_profile,
    rotation_digraph,
    serialize_matching,
    serialize_profile,
    swap_distance,
    u_optimal,
    validate_profile,
)
from swapstable import _kernels, cli
from swapstable.cli import _build_parser, _emit, _swap_sequence, main

from helpers import broken_profile_texts, make_rng, profiles, random_matching


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def replay(p, swaps):
    q = p
    for item in swaps:
        q = apply_swap(
            q,
            SwapOp(
                q.agent_named(item["agent"]),
                q.agent_named(item["pair"][0]),
                q.agent_named(item["pair"][1]),
            ),
        )
    return q


@pytest.fixture
def crown(tmp_path):
    p = gen_example2(3)
    prof = tmp_path / "crown.profile"
    prof.write_text(serialize_profile(p))
    stable = tmp_path / "stable.matching"
    stable.write_text(serialize_matching(p, example2_stable_matching(3)))
    rotated = tmp_path / "rotated.matching"
    rotated.write_text(serialize_matching(p, example2_rotated_matching(3)))
    return p, str(prof), str(stable), str(rotated)


def test_check_stable_reports_blocking_pairs(capsys, crown):
    p, prof, stable, rotated = crown
    code, report = run_json(capsys, "check", "stable", "--profile", prof, "--matching", stable)
    assert code == 0
    assert report["result"] is True
    assert report["blocking_pairs"] == []
    code, report = run_json(capsys, "check", "stable", "--profile", prof, "--matching", rotated)
    assert code == 1
    assert report["result"] is False
    assert report["blocking_pairs"] == [["a0", "b0"]]


def test_check_robust_witness_replays(capsys, crown):
    p, prof, stable, _ = crown
    code, report = run_json(capsys, "check", "robust", "--profile", prof, "--matching", stable)
    assert code == 0 and report["result"] is True
    assert "witness_swaps" not in report
    code, report = run_json(
        capsys, "check", "robust", "--profile", prof, "--matching", stable, "--d", "1"
    )
    assert code == 1 and report["result"] is False
    m = example2_stable_matching(3)
    q = replay(p, report["witness_swaps"])
    assert swap_distance(p, q) <= 1
    assert not is_stable(q, m)
    [[nu, nw]] = report["blocking_pairs"]
    assert (q.agent_named(nu), q.agent_named(nw)) in blocking_pairs(q, m)


def test_check_local_and_global_budgets(capsys, crown):
    p, prof, _, rotated = crown
    m = example2_rotated_matching(3)
    code, report = run_json(
        capsys, "check", "local", "--profile", prof, "--matching", rotated, "--d", "1"
    )
    assert code == 0 and report["result"] is True and report["bound"] == 1
    q = replay(p, report["witness_swaps"])
    assert is_stable(q, m)
    code, report = run_json(
        capsys, "check", "local", "--profile", prof, "--matching", rotated
    )
    assert code == 1 and report["result"] is False and report["bound"] == 1
    code, report = run_json(
        capsys, "check", "global", "--profile", prof, "--matching", rotated, "--d", "1",
        "--verbose",
    )
    assert code == 0 and report["cost"] == 1
    assert len(report["witness_swaps"]) == 1
    q = replay(p, report["witness_swaps"])
    assert is_stable(q, m)
    assert parse_profile(report["witness_profile"]) == q
    code, report = run_json(
        capsys, "check", "global", "--profile", prof, "--matching", rotated
    )
    assert code == 1 and report["cost"] == 1


def test_check_global_and_local_scan_for_blocking_pairs_once(capsys, crown, monkeypatch):
    # Every check question makes one blocking_mask scan, which the answer
    # and the report's blocking_pairs share.  The one first_blocking scan
    # is a near-stability witness's is_stable verify, and runs whenever
    # such a witness is reported; the robust witness (here p itself, in
    # which the rotated matching is unstable) has no verify.
    _, prof, _, rotated = crown
    calls = Counter()

    def counting(name):
        original = getattr(_kernels, name)

        def counted(p, m):
            calls[name] += 1
            return original(p, m)

        return counted

    for name in ("blocking_mask", "first_blocking"):
        monkeypatch.setattr(_kernels, name, counting(name))
    cases = (
        ("global", 1, True, 1),
        ("global", 0, True, 1),
        ("local", 1, True, 1),
        ("local", 0, False, 0),
        ("stable", 0, False, 0),
        ("robust", 0, True, 0),
        ("robust", 1, True, 0),
    )
    for what, d, witness, verifies in cases:
        calls.clear()
        code, report = run_json(
            capsys, "check", what, "--profile", prof, "--matching", rotated, "--d", str(d)
        )
        assert report["blocking_pairs"] and ("witness_swaps" in report) == witness
        assert calls == Counter({"blocking_mask": 1, "first_blocking": verifies})


@pytest.mark.parametrize("engine", [[], ["oracle"]])
def test_check_robust_reports_a_pair_that_blocks_in_the_witness(capsys, tmp_path, engine):
    # example 2's unique stable matching is one swap from unstable; both
    # engines name the pair that blocks it in their replayed witness
    p = gen_example2(2)
    m = example2_stable_matching(2)
    prof, match = tmp_path / "ex2.profile", tmp_path / "ex2.matching"
    prof.write_text(serialize_profile(p))
    match.write_text(serialize_matching(p, m))
    argv = ["check", "robust", "--profile", str(prof), "--matching", str(match)]
    code, report = run_json(capsys, *engine, *argv)
    assert code == 0 and report["blocking_pairs"] == []
    code, report = run_json(capsys, *engine, *argv, "--d", "1")
    assert code == 1 and report["result"] is False
    q = replay(p, report["witness_swaps"])
    assert swap_distance(p, q) == 1
    [[nu, nw]] = report["blocking_pairs"]
    assert (q.agent_named(nu), q.agent_named(nw)) in blocking_pairs(q, m)


def test_solve_robust_finds_the_diagonal(capsys, tmp_path):
    p = gen_cyclic_latin(3)
    prof = tmp_path / "latin.profile"
    prof.write_text(serialize_profile(p))
    code, report = run_json(
        capsys, "solve", "robust", "--profile", str(prof), "--d", "2"
    )
    assert code == 0 and report["result"] == "found"
    assert report["matching"] == [["u1", "w1"], ["u2", "w2"], ["u3", "w3"]]
    assert report["cost"] == 0
    code, report = run_json(
        capsys, "solve", "robust", "--profile", str(prof), "--d", "3"
    )
    assert code == 1 and report["result"] == "none"
    assert "matching" not in report


def test_solve_near_modes(capsys, crown):
    p, prof, _, _ = crown
    code, report = run_json(
        capsys, "solve", "global-near", "--profile", prof, "--d", "1",
        "--objective", "egalitarian", "--eta", "4", "--verbose",
    )
    assert code == 0 and report["cost"] == 4
    m = parse_matching(
        "\n".join(" ".join(pair) for pair in report["matching"]), p
    )
    q = replay(p, report["witness_swaps"])
    assert swap_distance(p, q) <= 1
    assert is_stable(q, m)
    assert egalitarian_cost(p, m) == 4
    code, report = run_json(
        capsys, "solve", "global-near", "--profile", prof, "--d", "1",
        "--objective", "egalitarian", "--eta", "3",
    )
    assert code == 1 and report["result"] == "none"
    code, report = run_json(
        capsys, "solve", "local-near", "--profile", prof, "--d", "1",
        "--objective", "egalitarian", "--eta", "4",
    )
    assert code == 0 and report["cost"] <= 4 and report["bound"] <= 1
    code, report = run_json(
        capsys, "solve", "local-near", "--profile", prof, "--d", "0",
        "--objective", "perfect",
    )
    assert code == 0 and len(report["matching"]) == 6


def test_rotations_json_and_dot(capsys, tmp_path):
    p = gen_example1_fixture()
    dg = rotation_digraph(p)
    assert dg.n > 0 and dg.arcs
    prof = tmp_path / "r.profile"
    prof.write_text(serialize_profile(p))
    dot_path = tmp_path / "out.dot"
    code, report = run_json(
        capsys, "rotations", "--profile", str(prof), "--dot", str(dot_path)
    )
    assert code == 0
    assert report["result"] == dg.n
    assert len(report["rotations"]) == dg.n
    assert report["arcs"] == [list(arc) for arc in sorted(dg.arcs)]
    assert dot_path.read_text() == report["dot"]
    assert report["dot"].startswith("digraph rotations {")
    assert report["dot"].count(" -> ") == len(dg.arcs)


def test_tradeoff_curve_and_csv(capsys, crown, tmp_path):
    _, prof, _, _ = crown
    csv_path = tmp_path / "curve.csv"
    code, report = run_json(
        capsys, "tradeoff", "--profile", prof, "--mode", "global", "--max-d", "1",
        "--objective", "egalitarian", "--csv", str(csv_path),
    )
    assert code == 0
    assert report["result"] == [[0, 8], [1, 4]]
    assert csv_path.read_text() == "d,value\n0,8\n1,4\n"
    code, report = run_json(
        capsys, "tradeoff", "--profile", prof, "--mode", "local", "--max-d", "0",
        "--objective", "perfect", "--csv", str(csv_path),
    )
    assert code == 0 and report["result"] == [[0, True]]
    assert csv_path.read_text() == "d,value\n0,true\n"


def test_tradeoff_past_the_row_cap_exits_2_before_solving(capsys, tmp_path, monkeypatch):
    # at 10^8 budgets the curve would hang and grow without bound
    def no_solver(*args, **kwargs):
        raise AssertionError("solver called past the row cap")

    monkeypatch.setattr(swapstable.nearstable, "solve_global_near", no_solver)
    prof = tmp_path / "one.profile"
    prof.write_text(serialize_profile(gen_random(1, 1, 1.0, seed=0)))
    code, out, err = run(
        capsys, "tradeoff", "--profile", str(prof), "--mode", "global",
        "--max-d", "100000000", "--objective", "perfect",
    )
    assert code == 2 and out == ""
    assert err == "error: a curve over budgets 0..100000000 has more than 10000 rows (CURVE_CAP)\n"


def test_gen_families_match_the_library(capsys):
    cases = [
        (["gen", "--family", "example3"], gen_example3()),
        (["gen", "--family", "example2", "--n", "2"], gen_example2(2)),
        (["gen", "--family", "cyclic", "--n", "4"], gen_cyclic_latin(4)),
        (
            ["gen", "--family", "random", "--n", "4", "--density", "0.5", "--seed", "7"],
            gen_random(4, 4, 0.5, seed=7),
        ),
    ]
    for argv, want in cases:
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == serialize_profile(want)


def test_oracle_mirrors_agree_with_fast_engines(capsys, tmp_path):
    for seed in range(4):
        p = gen_random(3, 3, 0.9, seed=seed)
        prof = tmp_path / ("p%d.profile" % seed)
        prof.write_text(serialize_profile(p))
        match = tmp_path / ("m%d.matching" % seed)
        match.write_text(serialize_matching(p, u_optimal(p)))
        # a negative budget is refused (exit 2) by engine and oracle alike
        for d in ("1", "-1"):
            for what in ("robust", "local", "global"):
                base = [
                    "check", what, "--profile", str(prof), "--matching", str(match),
                    "--d", d,
                ]
                assert run(capsys, *base)[0] == run(capsys, "oracle", *base)[0]
            for what, extra in (
                ("robust", []),
                ("robust", ["--objective", "egalitarian"]),
                ("robust", ["--objective", "perfect"]),
                ("global-near", ["--objective", "perfect"]),
                ("local-near", ["--objective", "perfect"]),
            ):
                base = ["solve", what, "--profile", str(prof), "--d", d] + extra
                assert run(capsys, *base)[0] == run(capsys, "oracle", *base)[0]


def test_error_exits_and_messages(capsys, tmp_path, crown):
    _, prof, stable, _ = crown
    code, out, err = run(
        capsys, "check", "stable", "--profile", str(tmp_path / "nope"), "--matching", stable
    )
    assert code == 2 and err.startswith("error:") and out == ""
    bad = tmp_path / "bad.profile"
    bad.write_text("profile v1\nside U: a\nside W: b\na: q\nb: a a\n")
    code, out, err = run(capsys, "check", "stable", "--profile", str(bad), "--matching", stable)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) >= 2 and all(line.startswith("error: line") for line in lines)
    code, _, err = run(
        capsys, "check", "robust", "--profile", prof, "--matching", stable, "--d", "-1"
    )
    assert code == 2 and "nonnegative" in err
    code, _, err = run(capsys, "solve", "global-near", "--profile", prof, "--d", "1")
    assert code == 2 and "--objective" in err
    code, _, err = run(
        capsys, "solve", "robust", "--profile", prof, "--d", "1", "--eta", "3"
    )
    assert code == 2 and "--eta" in err
    code, _, err = run(
        capsys, "solve", "global-near", "--profile", prof, "--d", "1",
        "--objective", "egalitarian",
    )
    assert code == 2 and "eta" in err
    code, _, err = run(
        capsys, "solve", "global-near", "--profile", prof, "--d", "1",
        "--objective", "perfect", "--eta", "3",
    )
    assert code == 2 and "--eta" in err


def test_perfect_robust_solve_with_a_negative_budget_exits_2(capsys, tmp_path):
    # example 3 leaves agents unmatched: the answer would be "none" at any
    # valid budget, and a negative one must not read as that answer
    prof = tmp_path / "example3.profile"
    prof.write_text(serialize_profile(gen_example3()))
    for engine in ([], ["oracle"]):
        code, out, err = run(
            capsys, *engine, "solve", "robust", "--profile", str(prof), "--d", "-1",
            "--objective", "perfect",
        )
        assert code == 2 and out == "" and "nonnegative" in err


def test_every_profile_file_gets_an_answer_or_a_message(capsys, tmp_path):
    # rejected files exit 2 with one "error:" line per issue, never an
    # internal error; accepted ones answer with JSON
    for k, text in enumerate(broken_profile_texts().values()):
        path = tmp_path / ("broken%d.profile" % k)
        path.write_bytes(text.encode("utf-8"))
        code, out, err = run(capsys, "solve", "robust", "--profile", str(path), "--d", "0")
        lines = err.splitlines()
        assert code == 2 and out == "" and lines, text
        assert all(line.startswith("error: ") for line in lines), text
        assert "internal error" not in err, text
    named = validate_profile([[0, 1], [1]], [[0], [1, 0]], ["side", "sidekick"], ["sideU", "w"])
    valid = [
        serialize_profile(gen_example3()),
        serialize_profile(named),
        "# kept\r\nprofile v1\r\n\r\nside U: a c\r\n  # indented\r\n"
        "side W: b\r\na: b\r\n\r\nb: a c\r\nc: b\r\n",
        "profile v1\nside U: a\na: b\nside W: b\nb: a\n",
    ]
    for k, text in enumerate(valid):
        path = tmp_path / ("valid%d.profile" % k)
        path.write_bytes(text.encode("utf-8"))
        code, out, err = run(capsys, "solve", "robust", "--profile", str(path), "--d", "0")
        assert code in (0, 1) and err == "", text
        assert isinstance(json.loads(out), dict)


def test_cached_parser_carries_nothing_between_calls(capsys, crown):
    _, prof, _, rotated = crown
    calls = [
        ["check", "global", "--profile", prof, "--matching", rotated, "--verbose"],
        ["check", "global", "--profile", prof, "--matching", rotated],
        ["check", "global", "--profile", prof],  # no --matching: usage error
        ["solve", "robust", "--profile", prof, "--d", "0"],
        ["check", "global", "--profile", prof, "--matching", rotated],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    _build_parser.cache_clear()
    cached = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [1, 1, 2, 0, 1]
    assert "witness_profile" in json.loads(cached[0][1])
    assert "witness_profile" not in json.loads(cached[1][1])
    assert cached[1] == cached[4]


def test_search_cap_exits_2(capsys, monkeypatch, crown):
    # The d=0 point comes from the rotation closure; d=1 has to search.
    monkeypatch.setattr("swapstable.nearstable.SEARCH_CAP", 3)
    code, out, err = run(
        capsys, "tradeoff", "--profile", crown[1], "--mode", "local",
        "--objective", "egalitarian", "--max-d", "1",
    )
    assert code == 2 and out == ""
    assert err == "error: near-stability search exceeds 3 nodes\n"


def test_table_cap_exits_2(capsys, monkeypatch, tmp_path):
    # a profile too large for its rank tables is refused with a message,
    # tested on a cap rather than a real allocation
    prof = tmp_path / "r4.profile"
    prof.write_text(serialize_profile(gen_random(4, 4, 1.0, seed=3)))
    monkeypatch.setattr("swapstable.profile.TABLE_CAP", 15)
    message = "error: profile has 4 x 4 agent pairs; rank tables hold at most 15 (TABLE_CAP)\n"
    for argv in (
        ["solve", "robust", "--profile", str(prof), "--d", "1"],
        ["gen", "--family", "random", "--n", "4"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == message
    monkeypatch.setattr("swapstable.profile.TABLE_CAP", 16)
    code, report = run_json(capsys, "solve", "robust", "--profile", str(prof), "--d", "0")
    assert code == 0 and report["result"] == "found"


def test_gen_refuses_a_huge_n_before_building_lists(capsys):
    # the generators check TABLE_CAP before they build any list, so a
    # huge n exits 2 at once instead of running out of memory
    for family, side in (("random", 10**6), ("cyclic", 10**6), ("example2", 2 * 10**6)):
        code, out, err = run(capsys, "gen", "--family", family, "--n", str(10**6))
        assert code == 2 and out == ""
        assert err == (
            "error: profile has %d x %d agent pairs; rank tables hold at most %d (TABLE_CAP)\n"
            % (side, side, 10**8)
        )


def test_oracle_caps_exit_2(capsys, monkeypatch, tmp_path):
    # the brute-force mirrors refuse a profile too large to enumerate with a
    # message, tested on caps rather than a real blow-up
    p = gen_random(3, 3, 1.0, seed=2)
    prof = tmp_path / "r3.profile"
    prof.write_text(serialize_profile(p))
    match = tmp_path / "r3.matching"
    match.write_text(serialize_matching(p, u_optimal(p)))
    monkeypatch.setattr("swapstable.oracle.PROFILE_CAP", 5)
    # p's perfect u_optimal ends the global walk at p itself, before the
    # cap, so that walk looks for a matching of negative cost instead
    for argv in (
        ["check", "robust", "--profile", str(prof), "--matching", str(match), "--d", "1"],
        ["check", "local", "--profile", str(prof), "--matching", str(match), "--d", "1"],
        ["solve", "global-near", "--profile", str(prof), "--d", "1",
         "--objective", "egalitarian", "--eta", "-1"],
        ["solve", "local-near", "--profile", str(prof), "--d", "1", "--objective", "perfect"],
    ):
        code, out, err = run(capsys, "oracle", *argv)
        assert code == 2 and out == ""
        assert err == "error: profile ball exceeds 5 profiles\n"
    monkeypatch.setattr("swapstable.oracle.MATCHING_CAP", 2)
    code, out, err = run(capsys, "oracle", "solve", "robust", "--profile", str(prof), "--d", "0")
    assert code == 2 and out == ""
    assert err == "error: matching enumeration capped at side size 2, got 3x3\n"


def test_negative_eta_without_u_agents_finds_none(capsys, tmp_path):
    # with no U agent the search is one leaf, the empty matching, whose
    # cost 0 is above eta = -1; engines and oracle alike answer none
    prof = tmp_path / "no_u.profile"
    prof.write_text("profile v1\nside U:\nside W: x y\nx:\ny:\n")
    for what in ("global-near", "local-near"):
        argv = [
            "solve", what, "--profile", str(prof), "--d", "0",
            "--objective", "egalitarian", "--eta", "-1",
        ]
        for prefix in ([], ["oracle"]):
            code, report = run_json(capsys, *prefix, *argv)
            assert code == 1 and report == {"result": "none"}


def test_solve_global_near_with_a_huge_budget(capsys, tmp_path):
    p = gen_random(5, 5, 1.0, seed=7)
    prof = tmp_path / "r5.profile"
    prof.write_text(serialize_profile(p))
    eta = str(egalitarian_cost(p, u_optimal(p)) - 1)
    for extra in (["perfect"], ["egalitarian", "--eta", eta]):
        start = time.perf_counter()
        code, report = run_json(
            capsys, "solve", "global-near", "--profile", str(prof),
            "--d", "1000000000", "--objective", *extra,
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0 and report["result"] == "found"


def test_internal_error_exits_2(capsys, monkeypatch, crown):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("swapstable.nearstable.solve_local_near", boom)
    code, out, err = run(
        capsys, "solve", "local-near", "--profile", crown[1], "--d", "0",
        "--objective", "perfect",
    )
    assert code == 2 and out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


def test_profile_from_stdin(capsys, monkeypatch, crown):
    p, _, stable, _ = crown
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_profile(p)))
    code, report = run_json(
        capsys, "check", "stable", "--profile", "-", "--matching", stable
    )
    assert code == 0 and report["result"] is True


def test_input_that_is_not_utf8_exits_2_naming_source_and_offset(
    capsys, monkeypatch, tmp_path, crown
):
    p, _, stable, _ = crown
    text = serialize_profile(p).encode()
    offset = text.index(b"a0") + 1
    raw = text[:offset] + b"\xff" + text[offset + 1:]
    path = tmp_path / "raw.profile"
    path.write_bytes(raw)
    # stdin as a host whose locale decodes it with surrogateescape sees it
    stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    for source, arg in ((str(path), str(path)), ("stdin", "-")):
        code, out, err = run(capsys, "check", "stable", "--profile", arg, "--matching", stable)
        assert code == 2 and out == ""
        assert err == "error: %s is not UTF-8: byte 0xff at offset %d\n" % (source, offset)


def test_crlf_files_read_as_lf_files(capsys, tmp_path, crown):
    # files are decoded from bytes, without the text layer's newline
    # translation; the parsers split lines on either ending
    p, prof, stable, rotated = crown
    crlf = tmp_path / "crlf.profile"
    crlf.write_bytes(serialize_profile(p).replace("\n", "\r\n").encode())
    for match in (stable, rotated):
        want = run(capsys, "check", "local", "--profile", prof, "--matching", match)
        assert run(capsys, "check", "local", "--profile", str(crlf), "--matching", match) == want


def test_profile_and_matching_cannot_both_read_stdin(capsys, monkeypatch, crown):
    # the second read of stdin would be empty, and the answer would be
    # about the empty matching; refused before anything is read
    p, _, _, _ = crown
    stdin = io.StringIO(serialize_profile(p))
    monkeypatch.setattr(sys, "stdin", stdin)
    for engine in ([], ["oracle"]):
        for what in ("stable", "robust", "local", "global"):
            code, out, err = run(capsys, *engine, "check", what, "--profile", "-", "--matching", "-")
            assert code == 2 and out == ""
            assert err == "error: --profile and --matching cannot both read stdin\n"
    assert stdin.tell() == 0


def test_commands_parse_as_the_top_level_parser_would(capsys, monkeypatch, tmp_path, crown):
    # main hands a command's arguments straight to that command's parser;
    # with an empty command map it hands everything to the top-level
    # parser, the nested path.  Both must answer every argv alike.
    _, prof, stable, rotated = crown
    out = str(tmp_path / "out")
    corpus = [
        ["check", "stable", "--profile", prof, "--matching", stable],
        ["check", "robust", "--profile", prof, "--matching", stable, "--d", "1"],
        ["check", "local", "--profile", prof, "--matching", rotated, "--d=3", "--verbose"],
        ["check", "global", "--prof", prof, "--matching", rotated],
        ["check", "global", "--profile", str(tmp_path / "nope"), "--matching", stable],
        ["solve", "robust", "--profile", prof, "--d", "1"],
        ["solve", "global-near", "--profile", prof, "--d", "1", "--objective", "perfect"],
        ["solve", "local-near", "--profile", prof, "--d", "1", "--objective", "egalitarian", "--eta", "5"],
        ["rotations", "--profile", prof, "--dot", out],
        ["tradeoff", "--profile", prof, "--mode", "global", "--max-d", "1",
         "--objective", "egalitarian", "--csv", out],
        ["gen", "--family", "cyclic", "--n", "3"],
        ["oracle", "check", "global", "--profile", prof, "--matching", rotated, "--d", "1"],
        ["oracle", "solve", "robust", "--profile", prof, "--d", "0"],
        ["--help"],
        ["-h", "check"],
        ["check", "--help"],
        ["solve", "robust", "-h"],
        ["oracle", "--help"],
        ["oracle", "solve", "--help"],
        ["check", "global", "--profile", prof],
        ["tradeoff", "--profile", prof],
        ["oracle", "check"],
        ["gen", "--family", "random", "--bogus"],
        ["oracle", "check", "stable", "--profile", prof, "--matching", stable, "--nope", "x"],
        ["gen", "--family", "example3", "extra", "--"],
        ["solve", "robust", "--profile", prof, "--d", "one"],
        ["frobnicate"],
        ["oracle", "frobnicate"],
        ["--prof", prof, "check"],
        [],
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    direct = [outcome(argv) for argv in corpus]
    monkeypatch.setattr(_build_parser(), "commands", {})
    nested = [outcome(argv) for argv in corpus]
    for argv, got, want in zip(corpus, direct, nested):
        assert got == want, argv
    assert {code for code, _, _ in direct} == {0, 1, 2}
    assert sum(o.startswith("usage: ") for _, o, _ in direct) == 6
    assert sum("unrecognized arguments" in e for _, _, e in direct) == 3

def test_module_entry_point_runs():
    # pytest's pythonpath setting does not reach a child process, so the
    # child's PYTHONPATH leads with the directory this suite imported
    # swapstable from (a checkout's src/ or site-packages)
    package_dir = os.path.dirname(os.path.dirname(swapstable.__file__))
    inherited = os.environ.get("PYTHONPATH", "")
    entries = [package_dir] + [e for e in inherited.split(os.pathsep) if e]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(entries))
    res = subprocess.run(
        [sys.executable, "-m", "swapstable.cli", "gen", "--family", "example3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0
    assert res.stdout == serialize_profile(gen_example3())


def _full_bubble_replay(p, q):
    """The swap replay bubble-sorting each changed list whole, as reference."""
    ops = []
    plan = (
        (Side.U, p.u_lists, q.u_lists, Agent.w),
        (Side.W, p.w_lists, q.w_lists, Agent.u),
    )
    for side, cur_lists, new_lists, wrap in plan:
        for k, (cur, new) in enumerate(zip(cur_lists, new_lists)):
            pos = {x: r for r, x in enumerate(new)}
            lst = list(cur)
            changed = True
            while changed:
                changed = False
                for t in range(len(lst) - 1):
                    if pos[lst[t]] > pos[lst[t + 1]]:
                        ops.append(SwapOp(Agent(side, k), wrap(lst[t]), wrap(lst[t + 1])))
                        lst[t], lst[t + 1] = lst[t + 1], lst[t]
                        changed = True
    return ops


@st.composite
def _reorderings(draw):
    """A list and a reordering of it: equal ends, one moved entry, reversed, any."""
    cur = draw(st.permutations(range(draw(st.integers(0, 9)))))
    n = len(cur)
    kind = draw(st.sampled_from(["ends", "move", "reverse", "any"]))
    if kind == "ends":
        a = draw(st.integers(0, n))
        b = draw(st.integers(a, n))
        new = cur[:a] + draw(st.permutations(cur[a:b])) + cur[b:]
    elif kind == "move" and n:
        new = list(cur)
        new.insert(draw(st.integers(0, n - 1)), new.pop(draw(st.integers(0, n - 1))))
    elif kind == "reverse":
        new = cur[::-1]
    else:
        new = draw(st.permutations(cur))
    return list(cur), list(new)


@settings(max_examples=200, deadline=None)
@given(_reorderings(), st.booleans())
def test_swap_sequence_sorts_only_the_changed_window(lists, w_side):
    # one agent owns the reordered list; every agent on it lists only the owner
    cur, new = lists
    others = [[0] for _ in cur]
    if w_side:
        p, q = validate_profile(others, [cur]), validate_profile(others, [new])
    else:
        p, q = validate_profile([cur], others), validate_profile([new], others)
    ops = [
        SwapOp(*map(p.agent_named, [owner, x, y])) for owner, x, y in _swap_sequence(p, q)
    ]
    assert ops == _full_bubble_replay(p, q)
    replayed = p
    for op in ops:
        replayed = apply_swap(replayed, op)
    assert replayed == q
    assert len(ops) == swap_distance(p, q)


_json_text = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "inf", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r", "é☃", "\U0001f600", "\ud800"]),
)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _json_text),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_json_text, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_emit_writes_the_bytes_of_json_dumps_with_indent_2(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(value)
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"


def test_every_command_prints_json_dumps_indent_2_bytes(capsys, tmp_path):
    # quotes, backslashes and non-ASCII in every name the reports carry
    base = gen_example2(3)
    p = validate_profile(
        base.u_lists, base.w_lists,
        ['u"%s' % name for name in base.u_names],
        ["w\\é%s" % name for name in base.w_names],
    )
    prof = tmp_path / "named.profile"
    prof.write_text(serialize_profile(p), encoding="utf-8")
    match = tmp_path / "rotated.matching"
    match.write_text(serialize_matching(p, example2_rotated_matching(3)), encoding="utf-8")
    check = ["--profile", str(prof), "--matching", str(match), "--d", "1"]
    commands = [
        ["check", "stable"] + check,
        ["check", "robust"] + check,
        ["check", "local"] + check,
        ["check", "global"] + check,
        ["check", "global", "--verbose"] + check,
        ["solve", "robust", "--profile", str(prof), "--d", "0"],
        ["solve", "global-near", "--profile", str(prof), "--d", "1",
         "--objective", "egalitarian", "--eta", "4", "--verbose"],
        ["solve", "local-near", "--profile", str(prof), "--d", "1", "--objective", "perfect"],
        ["rotations", "--profile", str(prof)],
        ["tradeoff", "--profile", str(prof), "--mode", "global", "--max-d", "1",
         "--objective", "egalitarian"],
    ]
    swaps = 0
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and err == ""
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n"
        swaps += len(report.get("witness_swaps", []))
    assert swaps > 0


@st.composite
def _named_cases(draw):
    """An in-memory profile whose names hold JSON escapes, a matching of
    it and a budget."""
    p = draw(profiles(max_side=4, min_side=1))
    k = p.n_u + p.n_w
    names = draw(st.lists(_json_text, min_size=k, max_size=k, unique=True))
    p = validate_profile(p.u_lists, p.w_lists, names[:p.n_u], names[p.n_u:])
    rng = make_rng(draw(st.integers(0, 2**16)))
    return p, random_matching(p, rng), draw(st.integers(0, 2))


_CROWN = gen_example2(3)


@settings(max_examples=60, deadline=None)
@given(_named_cases())
@example((
    validate_profile(
        _CROWN.u_lists, _CROWN.w_lists,
        ['"\\\x00\x1f%s' % name for name in _CROWN.u_names],
        ["\ud800é☃\n\U0001f600%s" % name for name in _CROWN.w_names],
    ),
    example2_rotated_matching(3),
    1,
))
def test_templated_lists_print_json_dumps_indent_2_bytes(case):
    # witness_swaps, blocking_pairs and matching are rendered from fixed
    # templates; every report that carries them is still the bytes
    # json.dumps(report, indent=2) writes, whatever the names hold
    p, m, d = case
    d = str(d)
    commands = [
        ["check", "global", "--d", d, "--matching", "in.matching"],
        ["check", "local", "--d", d, "--matching", "in.matching"],
        ["check", "robust", "--d", d, "--matching", "in.matching"],
        ["solve", "robust", "--d", d],
        ["solve", "global-near", "--d", d, "--objective", "egalitarian", "--eta", "99"],
        ["solve", "local-near", "--d", d, "--objective", "egalitarian", "--eta", "99"],
    ]
    with (
        mock.patch.object(cli, "_read", lambda path: ""),
        mock.patch.object(cli, "parse_profile", lambda text: p),
        mock.patch.object(cli, "parse_matching", lambda text, q: m),
    ):
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--profile", "in.profile"])
            assert code in (0, 1) and err.getvalue() == "", (argv, err.getvalue())
            text = out.getvalue()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
