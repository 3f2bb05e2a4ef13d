"""Record the reference answers the gate compares every run against.

    python3 perfbench/record_reference.py [--size full|tiny]

Run from the root of a source checkout.  Every question of every workload
is asked once for each seed of the size in ``gate.RECORDED_SEEDS``, and
that size's entries in ``reference.json`` are
rewritten from scratch.  Answers are recorded only if all of them pass the
gate's structural and oracle checks; otherwise nothing is written and the
problems are printed.  Recording is only for a commit whose answers are
trusted: a change that claims a speed-up must leave ``reference.json``
alone.
"""

import argparse
import functools
import json
import os
import shutil
import sys
import tempfile
from multiprocessing import get_context

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_SIZE = 2


def record_one(job):
    root, workload, size, seed = job
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    import gate
    import workloads

    tmp = tempfile.mkdtemp(prefix="record-", dir=os.path.join(root, ".perfbench"))
    try:
        questions = workloads.build(workload, seed, size, tmp)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            answers, problems = {}, {}
            inputs = gate.Inputs()
            for q in questions:
                rc, text = gate.ask(q.argv)
                found = gate.check(q, rc, text, None, inputs)
                if found:
                    problems[q.qid] = found
                answers[q.qid] = gate.summary(rc, json.loads(text) if rc in (0, 1) else None)
        finally:
            os.chdir(cwd)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return workload, seed, answers, problems


def main(argv=None):
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    import gate
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    seeds = gate.RECORDED_SEEDS[args.size]
    root = os.getcwd()
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    jobs = [(root, w, args.size, s) for w in WORKLOADS for s in seeds]
    with get_context("spawn").Pool(POOL_SIZE) as pool:
        results = pool.map(record_one, jobs, chunksize=1)
    bad = [(w, s, p) for w, s, _, p in results if p]
    for w, s, p in bad:
        for qid, found in sorted(p.items()):
            print("%s seed %d %s: %s" % (w, s, qid, "; ".join(found)), file=sys.stderr)
    if bad:
        print("nothing recorded: answers failed the gate", file=sys.stderr)
        return 1
    reference = gate.load_reference() if os.path.exists(gate.REFERENCE) else {}
    for w in WORKLOADS:
        reference.setdefault(w, {}).pop(args.size, None)
    for w, s, answers, _ in results:
        entry = reference[w].setdefault(args.size, {"qids": list(answers), "seeds": {}})
        entry["seeds"][str(s)] = [answers[q] for q in entry["qids"]]
    with open(gate.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(_dumps(reference))
    print("recorded %d (workload, seed) entries into %s" % (len(results), gate.REFERENCE))
    return 0


def _dumps(reference):
    """One line per question list and per seed, so a re-recording diffs by seed."""
    compact = functools.partial(json.dumps, separators=(",", ":"))
    lines = []
    for w in sorted(reference):
        sizes = []
        for size in sorted(reference[w]):
            entry = reference[w][size]
            seeds = ",\n".join(
                "    %s: %s" % (json.dumps(s), compact(entry["seeds"][s]))
                for s in sorted(entry["seeds"], key=int)
            )
            sizes.append('  %s: {\n   "qids": %s,\n   "seeds": {\n%s\n   }\n  }' % (json.dumps(size), compact(entry["qids"]), seeds))
        lines.append(" %s: {\n%s\n }" % (json.dumps(w), ",\n".join(sizes)))
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
