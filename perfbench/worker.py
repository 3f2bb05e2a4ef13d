"""One workload process: timed set-up, then the measured question loop.

Run by ``run.py``, never directly by the benchmark's users:

    python3 perfbench/worker.py --role setup|measure --workload W --seed N \
        --size full --dir WORKDIR --out RESULT.json [--seconds S] [--trace 0|1]

Only the standard library is imported before the set-up clock starts, so
``setup_s`` covers importing swapstable (and numpy behind it), generating
the inputs from the seed and writing the profile and matching files.  It
is scaled to the reference host speed by calibration runs right after it
(see ``CAL_NOMINAL_S``); the unscaled time is kept as ``setup_raw_s``.

``measure`` then asks the questions through ``swapstable.cli.main`` in a
closed loop with one client and fixed order, one full pass after another
while the next pass still fits in ``--seconds`` (at least one pass).  With
``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured in the same process.  Untraced passes are scaled to
the reference host speed chunk by chunk; the unscaled times are kept in
the result as ``raw_*``.  Every answer is gated after the clock stops.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import NamedTuple


def _median(values):
    return statistics.median(values) if values else None


# Host speed calibration.  On a shared machine the same work runs up to
# 1.8x slower in one minute than in another, and a fixed loop of cache-
# resident interpreter and numpy work slows down with it.  Untimed runs of
# that loop between chunks of about CHUNK_S of question time give each
# question a factor CAL_NOMINAL_S / (loop time), and the reported times are
# seconds at the speed where the loop takes CAL_NOMINAL_S.  The loop uses
# nothing of swapstable, so a change to the program cannot move it.
CAL_NOMINAL_S = 0.0113
CHUNK_S = 0.3


def _calibration_work(np, grid):
    table = {}
    for i in range(40000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
    for _ in range(100):
        np.argsort(grid, axis=1)


def calibrate(samples=1):
    """Median seconds of the fixed calibration loop over ``samples`` runs."""
    import numpy as np

    grid = np.random.default_rng(12345).permutation(4096).reshape(64, 64)
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        _calibration_work(np, grid)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Pass(NamedTuple):
    """One full pass: elapsed time with calibrations, per-question raw and
    speed-scaled latencies (the latter empty in traced passes), and either
    the answers (first pass) or the indices of answers that differ from
    the first pass's (later passes)."""

    elapsed: float
    latencies: list
    scaled: list
    answers: list
    changed: set

    @property
    def wall(self):
        return sum(self.latencies)

    @property
    def scaled_wall(self):
        return sum(self.scaled)


def run_pass(ask, questions, tracer=None, first=None):
    """Ask every question once.  Given the first pass's answers, compare
    against them and keep none, so peak memory does not grow with the
    number of passes that fit in the run."""
    latencies, scaled, answers, changed = [], [], [], set()
    clock = time.perf_counter
    start = clock()
    calibrating = tracer is None  # traced passes are not scaled
    before = calibrate() if calibrating else None
    chunk_start, chunk_s = 0, 0.0
    for k, q in enumerate(questions):
        if tracer is not None:
            tracer.qid = k
        t = clock()
        try:
            answer = ask(q.argv)
        except Exception as exc:  # a crash is a failed question, not a result
            answer = (None, "%s: %s" % (type(exc).__name__, exc))
        latencies.append(clock() - t)
        if first is None:
            answers.append(answer)
        elif answer != first[k]:
            changed.add(k)
        chunk_s += latencies[-1]
        if calibrating and (chunk_s >= CHUNK_S or k == len(questions) - 1):
            after = calibrate()
            factor = 2 * CAL_NOMINAL_S / (before + after)
            scaled += [latency * factor for latency in latencies[chunk_start:]]
            before, chunk_start, chunk_s = after, k + 1, 0.0
    return Pass(clock() - start, latencies, scaled, answers, changed)


def layer_metrics(span_stats, counts_per_pass, absent):
    """Per-layer metrics of the traced passes: medians of self time, exact counts.

    Layers whose module no longer exists are left out, not reported as zero.
    """
    import tracer as tr

    absent_modules = {name.split(".")[0] for name in absent}
    metrics = {}
    for name in tr.SPAN_NAMES:
        if name in absent:
            continue
        metrics[name + ".calls"] = {"value": span_stats[0][0][name], "unit": "count"}
        metrics[name + ".self_s"] = {"value": _median([s[1][name] for s in span_stats]), "unit": "s"}
    for name in tr.COUNTS:
        if name.split(".")[0] not in absent_modules:
            metrics[name] = {"value": counts_per_pass[0].get(name, 0), "unit": "count"}
    return metrics


def main(argv=None):
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--reference", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), here]
    import workloads  # imports swapstable

    questions = workloads.build(args.workload, args.seed, args.size, args.dir)
    setup_raw_s = time.perf_counter() - t0
    calibrate()  # first run warms up; the next ones time the host's speed now
    result = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * CAL_NOMINAL_S / calibrate(5)}
    if args.role == "setup":
        _dump(args.out, result)
        return 0

    import swapstable
    import gate

    os.chdir(args.dir)
    ask = gate.ask
    untraced, traced, span_stats, counts_per_pass = [], [], [], []
    absent = []
    tracer = None
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
    first = None  # the first pass's answers; later passes are compared with them

    clock_start = time.perf_counter()
    while True:
        untraced.append(run_pass(ask, questions, first=first))
        first = untraced[0].answers
        if tracer is not None:
            absent = tracer.install()
            try:
                traced.append(run_pass(ask, questions, tracer, first))
            finally:
                tracer.uninstall()
            calls, self_s, per_question = tracer.self_times()
            span_stats.append((calls, self_s))
            counts_per_pass.append(dict(tracer.counts))
            if len(traced) == 1:
                first_per_question = per_question
                if args.spans:
                    tracer.write(args.spans, [q.qid for q in questions])
            tracer.clear()
        elapsed = time.perf_counter() - clock_start
        next_pass = untraced[-1].elapsed + (traced[-1].elapsed if traced else 0.0)
        if elapsed + next_pass > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # --- gate, untimed ------------------------------------------------------
    gate_start = time.perf_counter()
    reference = gate.load_reference(args.reference or gate.REFERENCE)
    expected = gate.reference_for(reference, args.workload, args.size, args.seed)

    inputs = gate.Inputs()
    changed = set().union(*(p.changed for p in untraced + traced))
    failures = {}
    for k, q in enumerate(questions):
        rc, text = first[k]
        problems = gate.check(q, rc, text, None if expected is None else expected.get(q.qid), inputs)
        if expected is not None and q.qid not in expected:
            problems.append("no reference answer recorded")
        if k in changed:
            problems.append("answer changed between passes")
        if problems:
            failures[q.qid] = problems
    if expected is None and args.seed in gate.RECORDED_SEEDS.get(args.size, ()):
        failures["reference"] = ["no answers recorded for %s seed %d" % (args.size, args.seed)]
    passes = untraced + traced
    attempted = len(questions) * len(passes)
    failed = len(failures) * len(passes)
    gate_s = time.perf_counter() - gate_start
    digest = hashlib.sha256()
    for rc, text in first:
        digest.update(("%r\n%s\n" % (rc, text)).encode())
    result.update(
        {
            "backend": swapstable.backend(),
            "questions": len(questions),
            "gate_s": gate_s,
            "passes": len(untraced),
            "traced_passes": len(traced),
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "reference": "recorded" if expected is not None else "none for this seed",
            "answers_sha256": digest.hexdigest(),
            "answers": {q.qid: gate.summary(first[k][0], _json_or_none(first[k][1])) for k, q in enumerate(questions)},
            "json_bytes": sum(len(text) for _, text in first if text),
            "wall_s": _median([p.scaled_wall for p in untraced]),
            "raw_wall_s": _median([p.wall for p in untraced]),
            "pass_walls_s": [p.scaled_wall for p in untraced],
            "raw_pass_walls_s": [p.wall for p in untraced],
            "question_s": {q.qid: [p.scaled[k] for p in untraced] for k, q in enumerate(questions)},
            "question_p50_s": _median([t for p in untraced for t in p.scaled]),
            "raw_question_p50_s": _median([t for p in untraced for t in p.latencies]),
            "question_samples": sum(len(p.latencies) for p in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
    )
    if tracer is not None:
        layers = layer_metrics(span_stats, counts_per_pass, absent)
        layers["cli.json_bytes"] = {"value": result["json_bytes"], "unit": "count"}
        traced_wall = _median([p.wall for p in traced])
        untraced_wall = result["raw_wall_s"]
        unaccounted = sum(
            traced[0].latencies[k] - first_per_question.get(k, 0.0) for k in range(len(questions))
        )
        layers["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        layers["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
        layers["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
        layers["trace.unaccounted_s"] = {"value": unaccounted, "unit": "s"}
        result["layers"] = layers
        result["absent_layers"] = absent
        result["counts_repeat"] = all(c == counts_per_pass[0] for c in counts_per_pass)
    _dump(args.out, result)
    return 0


def _json_or_none(text):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
