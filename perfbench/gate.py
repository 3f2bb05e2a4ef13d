"""Answer gate: a run's numbers count only if every answer passes it.

Three layers of checks, all untimed:

* reference answers recorded from an earlier commit (``reference.json``):
  exit code, ``result``, ``cost``, ``bound`` and tradeoff curve values;
* structural checks from the definitions: every ``witness_swaps`` list is
  replayed on the input, the matching must be stable in the replayed
  profile, the number of swaps must equal the reported cost (or stay
  within the budget), reported egalitarian costs are recomputed, and found
  robust matchings are re-checked by the rank-gap rule;
* on inputs small enough for ``swapstable.oracle``, the same question is
  answered again by the brute-force engines and must agree.
"""

import contextlib
import io
import json
import os

import swapstable as sw
from swapstable import cli, oracle as brute

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Seeds whose answers ``record_reference.py`` records, per size.  1 is the
# default seed and 29 the held-out one.  A run on one of these seeds fails
# when the reference holds no answers for it.
RECORDED_SEEDS = {"full": tuple(range(11)) + (29,), "tiny": tuple(range(4))}


def summary(rc, report):
    """The recorded part of an answer: [exit code, result, cost, bound].

    Fields the report lacks are null; trailing nulls are dropped.
    """
    out = [rc] + [report.get(key) if isinstance(report, dict) else None for key in ("result", "cost", "bound")]
    while len(out) > 1 and out[-1] is None:
        out.pop()
    return out


def load_reference(path=REFERENCE):
    """Recorded answers: workload -> size -> {"qids": [...], "seeds": {seed: [summary, ...]}}.

    A missing file raises, so a mistyped path cannot turn the gate off.
    """
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(reference, workload, size, seed):
    """Recorded summaries by question id, or None when the seed has none."""
    entry = reference.get(workload, {}).get(size)
    if entry is None or str(seed) not in entry["seeds"]:
        return None
    return dict(zip(entry["qids"], entry["seeds"][str(seed)]))


def ask(argv):
    """Run one CLI question in-process; return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _egal(p, m):
    """Sum of partner ranks, unmatched agents counting their list length."""
    total = 0
    for i, lst in enumerate(p.u_lists):
        j = m.partner_of(sw.Agent.u(i))
        total += len(lst) if j is None else lst.index(j.index)
    for j, lst in enumerate(p.w_lists):
        i = m.partner_of(sw.Agent.w(j))
        total += len(lst) if i is None else lst.index(i.index)
    return total


def _robust_by_gaps(p, m, d):
    """m is stable and no acceptable outside pair can block within d swaps."""
    w_rank = [{i: k for k, i in enumerate(lst)} for lst in p.w_lists]
    for i, lst in enumerate(p.u_lists):
        mine = m.partner_of(sw.Agent.u(i))
        mine_pos = None if mine is None else lst.index(mine.index)
        for pos, j in enumerate(lst):
            if mine is not None and mine.index == j:
                continue
            theirs = m.partner_of(sw.Agent.w(j))
            cost = 0
            if mine is not None:
                cost += max(pos - mine_pos, 0)
            if theirs is not None:
                cost += max(w_rank[j][i] - w_rank[j][theirs.index], 0)
            if cost <= d:
                return False
    return True


def _matching(p, pairs):
    return sw.Matching.from_pairs(
        p.n_u, p.n_w, [(p.agent_named(u).index, p.agent_named(w).index) for u, w in pairs]
    )


def _replay(p, swaps):
    q = p
    for op in swaps:
        x, y = op["pair"]
        q = sw.apply_swap(q, sw.SwapOp(p.agent_named(op["agent"]), p.agent_named(x), p.agent_named(y)))
    return q


def _positive(report):
    result = report.get("result")
    return result is True or result == "found"


def structural(argv, rc, report, p, m):
    """Problems found by checking the answer against the definitions."""
    cmd, what = argv[0], argv[1]
    problems = []
    if cmd in ("check", "solve") and (rc == 0) != _positive(report):
        problems.append("exit code %d disagrees with result %r" % (rc, report.get("result")))
    if cmd == "tradeoff":
        if rc != 0 or not isinstance(report.get("result"), list):
            problems.append("tradeoff gave no curve")
        return problems
    q = _replay(p, report["witness_swaps"]) if "witness_swaps" in report else None
    d = int(_arg(argv, "--d"))
    if cmd == "check":
        if what == "global":
            if q is None or not sw.is_stable(q, m):
                problems.append("global witness missing or m not stable in it")
            elif len(report["witness_swaps"]) != report["cost"]:
                problems.append("witness has %d swaps, cost says %r" % (len(report["witness_swaps"]), report["cost"]))
            elif report["result"] != (report["cost"] <= d):
                problems.append("result disagrees with cost and budget")
        elif what == "local":
            bound = report["bound"]
            if report["result"] != (bound != "inf" and bound <= d):
                problems.append("result disagrees with bound and budget")
            if report["result"]:
                if q is None or not sw.is_stable(q, m) or max(sw.swap_distance_per_agent(p, q).values()) > bound:
                    problems.append("local witness fails: unstable or a list moved past the bound")
        elif what == "robust":
            if report["result"] != _robust_by_gaps(p, m, d):
                problems.append("robustness answer disagrees with the rank-gap rule")
            if not report["result"]:
                u, w = report["blocking_pairs"][0]
                pair = (p.agent_named(u), p.agent_named(w))
                if q is None or len(report["witness_swaps"]) > d or pair not in sw.blocking_pairs(q, m):
                    problems.append("robustness witness fails: too far or pair does not block")
        return problems
    # solve
    if report["result"] != "found":
        return problems
    found = _matching(p, report["matching"])
    if report["cost"] != _egal(p, found):
        problems.append("reported cost %r is not the egalitarian cost %d" % (report["cost"], _egal(p, found)))
    objective = _arg(argv, "--objective") if "--objective" in argv else "any"
    if objective == "perfect" and not sw.is_perfect(p, found):
        problems.append("matching is not perfect")
    if what == "robust" and not _robust_by_gaps(p, found, d):
        problems.append("found matching is not %d-robust by the rank-gap rule" % d)
    if what == "global-near":
        if q is None or not sw.is_stable(q, found) or len(report["witness_swaps"]) > d:
            problems.append("global-near witness fails: unstable or too far")
    if what == "local-near":
        bound = report["bound"]
        if bound == "inf" or bound > d or sw.local_instability(p, found) != bound:
            problems.append("local-near bound %r outside the budget" % bound)
    return problems


def cross_check(argv, report, p):
    """Disagreements with the brute-force engines on a small input."""
    cmd = argv[0]
    if cmd == "tradeoff":
        mode = _arg(argv, "--mode")
        problems = []
        for d, value in report["result"]:
            hi = 10**9 if value == "inf" else value
            if value != "inf" and brute.brute_solve_near(p, d, mode, sw.Objective.EGALITARIAN, eta=hi) is None:
                problems.append("oracle finds nothing at d=%d within cost %r" % (d, value))
            if hi > 0 and brute.brute_solve_near(p, d, mode, sw.Objective.EGALITARIAN, eta=hi - 1) is not None:
                problems.append("oracle beats cost %r at d=%d" % (value, d))
        return problems
    rc, text = ask(["oracle"] + list(argv))
    if rc == 2:
        return ["oracle failed on the question"]
    ref = json.loads(text)
    if ref["result"] != report["result"]:
        return ["oracle result %r, engine %r" % (ref["result"], report["result"])]
    if cmd == "solve" and "--objective" in argv and _arg(argv, "--objective") == "egalitarian":
        if ref.get("cost") != report.get("cost"):
            return ["oracle cost %r, engine %r" % (ref.get("cost"), report.get("cost"))]
    if cmd == "check" and argv[1] == "global" and report["result"] and ref["cost"] != report["cost"]:
        return ["oracle cost %r, engine %r" % (ref["cost"], report["cost"])]
    return []


class Inputs:
    """Parsed input files of a workload, each parsed once."""

    def __init__(self, directory="."):
        self.directory = directory
        self._parsed = {}

    def _read(self, name):
        with open(os.path.join(self.directory, name), encoding="utf-8") as fh:
            return fh.read()

    def load(self, question):
        key = (question.profile, question.matching)
        if key not in self._parsed:
            p = sw.parse_profile(self._read(question.profile))
            m = sw.parse_matching(self._read(question.matching), p) if question.matching else None
            self._parsed[key] = (p, m)
        return self._parsed[key]


def check(question, rc, text, expected, inputs):
    """All problems with one answer; an empty list means it passes.

    ``expected`` is the recorded summary or None; ``inputs`` is the
    workload's ``Inputs``.
    """
    if rc not in (0, 1):
        return ["exit code %r" % (rc,)]
    try:
        report = json.loads(text)
    except ValueError:
        return ["stdout is not one JSON report"]
    problems = []
    if expected is not None and summary(rc, report) != expected:
        problems.append("answer %s differs from reference %s" % (json.dumps(summary(rc, report)), json.dumps(expected)))
    try:
        p, m = inputs.load(question)
        problems += structural(question.argv, rc, report, p, m)
        if question.oracle and not problems:
            problems += cross_check(question.argv, report, p)
    except (KeyError, TypeError, ValueError, sw.Error) as exc:
        problems.append("malformed answer: %s: %s" % (type(exc).__name__, exc))
    return problems
