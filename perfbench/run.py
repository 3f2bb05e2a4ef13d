"""End-to-end benchmark of the swapstable CLI.

    python3 perfbench/run.py --workload robust-solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding
``src/swapstable``); nothing needs installing.  Workloads are defined in
``workloads.py``; ``--workload all`` runs each in turn.  Each workload
runs in its own worker process, so ``peak_rss_mb`` is that workload's
alone; set-up is repeated in separate processes and reported as a median.

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics (``BENCHMARK.json`` lists them); their times are scaled
to a reference host speed by calibration runs (``worker.py``).  With ``--trace 1``
the traced run reports per-layer self time, call and work counts, and the
tracing overhead instead.  The run fails (exit 1, ``"correct": false``)
when any answer fails the gate in ``gate.py``.  A result file with the
interpreter, numpy, scipy and kernel backend versions and the core count
is written to ``.perfbench/results/``, next to the spans of the traced run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170  # the whole run, set-ups included, ends well within 180 s
# Set-up is repeated in fresh processes: at least 3 samples (the measuring
# worker's included), more while they take under SETUP_BUDGET_S in all, up
# to 9.  Cheap set-ups are mostly interpreter and numpy import time, which
# is noisy, so they get more samples for their median.
SETUP_SAMPLES = (3, 9)
SETUP_BUDGET_S = 3.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("question_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(backend):
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def _worker(role, args, workdir, out, seconds, timeout, extra=()):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--role", role, "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--dir", workdir, "--out", out,
        "--seconds", str(seconds), "--trace", str(args.trace),
    ] + list(extra)
    proc = subprocess.run(cmd, timeout=max(timeout, 1), stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError("%s worker exited with %d" % (role, proc.returncode))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args, root):
    start = time.monotonic()
    tag = "%s-s%d-t%d-%s" % (args.workload, args.seed, args.trace, args.size)
    scratch = os.path.join(root, ".perfbench", "work", "%s-%d" % (tag, os.getpid()))
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    try:
        setups = []
        while not args.trace and len(setups) < SETUP_SAMPLES[1] - 1 and (
            len(setups) < SETUP_SAMPLES[0] - 1 or sum(s["setup_raw_s"] for s in setups) < SETUP_BUDGET_S
        ):
            k = len(setups)
            out = os.path.join(scratch, "setup%d.json" % k)
            left = DEADLINE_S - (time.monotonic() - start)
            setups.append(_worker("setup", args, os.path.join(scratch, "in%d" % k), out, 0, left))
        extra = ["--spans", os.path.join(results, tag + "-spans.csv.gz")] if args.trace else []
        extra += ["--reference", args.reference]
        left = DEADLINE_S - (time.monotonic() - start)
        res = _worker("measure", args, os.path.join(scratch, "in"), os.path.join(scratch, "measure.json"),
                      args.seconds, left, extra)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(res)
    res["setup_samples_s"] = [s["setup_s"] for s in setups]
    res["setup_raw_samples_s"] = [s["setup_raw_s"] for s in setups]
    res["setup_s"] = statistics.median(res["setup_samples_s"])
    res["setup_raw_s"] = statistics.median(res["setup_raw_samples_s"])
    res["environment"] = environment(res.pop("backend"))
    res["workload"], res["seed"], res["size"], res["trace"] = args.workload, args.seed, args.size, args.trace
    res["correct"] = not res["failures"] and res.get("counts_repeat", True)
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    res["metrics"] = metrics
    with open(os.path.join(results, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    return res


def report(res):
    """Human-readable lines; the JSON result line is printed by the caller."""
    env = res["environment"]
    print(
        "# %s seed %d: %d questions x %d pass(es), %d traced; reference: %s; "
        "python %s numpy %s scipy %s backend %s nproc %s"
        % (res["workload"], res["seed"], res["questions"], res["passes"], res["traced_passes"],
           res["reference"], env["python"], env["numpy"], env["scipy"], env["backend"], env["nproc"])
    )
    print("# question_p50_s over %d samples; failed_frac = %d/%d = %.4f"
          % (res["question_samples"], res["failed"], res["attempted"], res["failed"] / res["attempted"]))
    print("# unscaled: setup_raw_s %.6f, raw_wall_s %.6f, raw_question_p50_s %.6f (scaled times are at the "
          "reference host speed, see worker.CAL_NOMINAL_S)" % (res["setup_raw_s"], res["raw_wall_s"], res["raw_question_p50_s"]))
    if res.get("absent_layers"):
        print("# absent layers (no longer in the program): %s" % ", ".join(res["absent_layers"]))
    for qid, problems in sorted(res["failures"].items()):
        print("# FAILED %s: %s" % (qid, "; ".join(problems)))
    for name, m in res["metrics"].items():
        print("%s = %r %s" % (name, m["value"], m["unit"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="robust-solve, repair-check, near-search or all")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1; 29 is held out)")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--reference", help="reference answers file (default perfbench/reference.json)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "swapstable", "__init__.py")):
        print("error: run from a source checkout; src/swapstable is missing", file=sys.stderr)
        return 2
    args.reference = os.path.abspath(args.reference or os.path.join(HERE, "reference.json"))
    if not os.path.isfile(args.reference):
        print("error: no reference answers at %s" % args.reference, file=sys.stderr)
        return 1
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    ok = True
    for name in names:
        args.workload = name
        res = run_workload(args, root)
        report(res)
        ok = ok and res["correct"]
        line = {key: res[key] for key in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
