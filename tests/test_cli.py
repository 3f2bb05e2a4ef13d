"""Command-line interface: JSON reports, exit codes, witness replay."""

import io
import json
import subprocess
import sys

import pytest

from swapstable import (
    SwapOp,
    apply_swap,
    blocking_pairs,
    egalitarian_cost,
    example2_rotated_matching,
    example2_stable_matching,
    gen_cyclic_latin,
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
)
from swapstable.cli import main


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
    p = gen_random(5, 5, 1.0, seed=0)
    dg = rotation_digraph(p)
    assert dg.n > 0
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
        for what, extra in (("robust", []), ("local", []), ("global", [])):
            base = [
                "check", what, "--profile", str(prof), "--matching", str(match),
                "--d", "1",
            ] + extra
            fast = run(capsys, *base)
            slow = run(capsys, "oracle", *base)
            assert fast[0] == slow[0]
        base = [
            "solve", "global-near", "--profile", str(prof), "--d", "1",
            "--objective", "perfect",
        ]
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


def test_internal_error_exits_2(capsys, monkeypatch, crown):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("swapstable.cli.solve_local_near", boom)
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


def test_module_entry_point_runs():
    res = subprocess.run(
        [sys.executable, "-m", "swapstable.cli", "gen", "--family", "example3"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stdout == serialize_profile(gen_example3())
