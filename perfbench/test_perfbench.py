"""Self-test of the benchmark at tiny sizes.

    python -m pytest -q perfbench/test_perfbench.py

Runs each workload end to end through ``run.py``, checks that the printed
metric names match ``BENCHMARK.json`` exactly, that a corrupted, missing or
incomplete reference fails the run, and that traced and untraced runs
answer alike.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from workloads import WORKLOADS  # noqa: E402


def _run(workload, trace=0, reference=None, seed=1):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--size", "tiny",
    ]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout


def _result_file(workload, trace, seed=1):
    name = "%s-s%d-t%d-tiny.json" % (workload, seed, trace)
    with open(os.path.join(ROOT, ".perfbench", "results", name), encoding="utf-8") as fh:
        return json.load(fh)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _declared()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_gates_and_prints_declared_metrics(workload):
    bench = _declared()
    rc, result, out = _run(workload)
    assert rc == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in declared:
        assert "%s = " % name in out
    assert _result_file(workload, 0)["reference"] == "recorded"

    rc, traced, out = _run(workload, trace=1)
    assert rc == 0, out
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == declared
    untraced_file, traced_file = _result_file(workload, 0), _result_file(workload, 1)
    assert traced_file["answers_sha256"] == untraced_file["answers_sha256"]
    assert traced_file["counts_repeat"]


def test_corrupted_reference_fails_the_run(tmp_path):
    import gate

    reference = gate.load_reference()
    entry = reference["repair-check"]["tiny"]
    qid = entry["qids"][0]
    answer = entry["seeds"]["1"][0]
    answer[1] = not answer[1]
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    rc, result, out = _run("repair-check", reference=str(bad))
    assert rc == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED %s" % qid in out


def test_missing_reference_file_fails_the_run(tmp_path):
    rc, result, out = _run("repair-check", reference=str(tmp_path / "no-such-reference.json"))
    assert rc == 1
    assert result is None


def test_recorded_seed_without_answers_fails_the_run(tmp_path):
    import gate

    reference = gate.load_reference()
    del reference["repair-check"]["tiny"]["seeds"]["1"]
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    rc, result, out = _run("repair-check", reference=str(bad))
    assert rc == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED reference" in out


def test_missing_source_tree_exits_without_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
