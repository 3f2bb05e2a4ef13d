"""Seeded inputs and fixed question lists of the benchmark workloads.

Each workload is a list of CLI questions over profile and matching files
that ``build`` generates from the seed and writes into a directory.  The
same (workload, seed, size) always gives the same files and questions.

Why these inputs:

* ``robust-solve`` - complete random profiles.  ``--d 0`` runs the full
  stable-quadruple scan and a closure; ``--d`` >= 1 mostly stops early with
  "none"; the U-optimal robustness check is almost pure parse and
  validation.  Stresses fileformat, profile, rotations and robustness.
* ``repair-check`` - global and local near-stability of matchings that are
  not stable: random maximal matchings (complete and sparse profiles) and
  matchings a few partner exchanges away from the U-optimal one.  Stresses
  the promotion-chain min-cut (nearstable and the flow code) and witness
  JSON; never touches rotations or robustness.
* ``near-search`` - the exponential solvers on toy profiles.  The global
  tradeoff walks a swap ball and builds one rotation digraph and closure
  per ball profile, so it makes thousands of tiny calls into the layers the
  other two workloads call a few times on large inputs.

Every workload also asks its questions on a few inputs small enough for
``swapstable.oracle``; the gate cross-checks those answers untimed.

Sizes are chosen so that one pass holds many independent seeded inputs:
the run-to-run spread of a pass over different seeds shrinks with the
number of inputs it sums over.
"""

import os
import random
from typing import NamedTuple, Optional

import swapstable as sw

WORKLOADS = ("robust-solve", "repair-check", "near-search")

# Per-size input counts.  "full" is what the benchmark measures; "tiny"
# runs the same code paths in about a second for the self-test.
SIZES = {
    "full": {
        "robust_random": (60, 60),  # (count, n) complete profiles
        "repair_complete": (60, 20),  # (count, n) random maximal matchings
        "repair_sparse": (6, 100, 0.1),  # (count, n, density)
        "repair_perturbed": (6, 120, 3),  # (count, n, partner exchanges)
        "near_random": (70, 5),  # (count, n) complete profiles
        "near_crown": 6,
        "near_latin": 8,
    },
    "tiny": {
        "robust_random": (2, 12),
        "repair_complete": (2, 8),
        "repair_sparse": (1, 20, 0.3),
        "repair_perturbed": (1, 20, 2),
        "near_random": (2, 4),
        "near_crown": 3,
        "near_latin": 4,
    },
}


class Question(NamedTuple):
    qid: str
    argv: tuple  # CLI arguments; file names are relative to the input directory
    profile: str  # file name of the profile the question reads
    matching: Optional[str]  # file name of the matching, if any
    oracle: bool  # small enough for the brute-force cross-check


def _write(out_dir, name, text):
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _random_maximal(p, rng):
    """Greedy matching over the acceptable pairs in random order.

    Maximal, so no two unmatched agents accept each other and the global
    stabilization cost is finite.
    """
    pairs = [(i, j) for i, lst in enumerate(p.u_lists) for j in lst]
    rng.shuffle(pairs)
    used_u, used_w, chosen = set(), set(), []
    for i, j in pairs:
        if i not in used_u and j not in used_w:
            used_u.add(i)
            used_w.add(j)
            chosen.append((i, j))
    return sw.Matching.from_pairs(p.n_u, p.n_w, chosen)


def _perturbed(p, rng, exchanges):
    """U-optimal matching of a complete profile with partners exchanged
    between random couples, redrawn until it is unstable (cost nonzero)."""
    base = dict(sw.u_optimal(p).pairs)
    for _ in range(1000):
        partner = dict(base)
        for _ in range(exchanges):
            a, b = rng.sample(sorted(partner), 2)
            partner[a], partner[b] = partner[b], partner[a]
        m = sw.Matching.from_pairs(p.n_u, p.n_w, partner.items())
        if not sw.is_stable(p, m):
            return m
    raise RuntimeError("no unstable perturbation of the U-optimal matching found")


class _QuestionList:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.questions = []

    def profile(self, name, p):
        _write(self.out_dir, name + ".profile", sw.serialize_profile(p))

    def matching(self, name, p, m):
        _write(self.out_dir, name + ".matching", sw.serialize_matching(p, m))

    def ask(self, qid, argv, profile, matching=None, oracle=False):
        self.questions.append(Question(qid, tuple(argv), profile, matching, oracle))


def _robust_questions(b, name, oracle):
    prof = name + ".profile"
    for d in (0, 1, 2):
        b.ask(
            "%s.egal-d%d" % (name, d),
            ["solve", "robust", "--profile", prof, "--objective", "egalitarian", "--d", str(d)],
            prof, oracle=oracle,
        )
    b.ask("%s.any-d1" % name, ["solve", "robust", "--profile", prof, "--d", "1"], prof, oracle=oracle)
    b.ask(
        "%s.check-uopt-d1" % name,
        ["check", "robust", "--profile", prof, "--matching", name + ".matching", "--d", "1"],
        prof, name + ".matching", oracle=oracle,
    )


def _build_robust(b, rng, size):
    count, n = size["robust_random"]
    inputs = [("r%02d" % k, sw.gen_random(n, n, 1.0, rng.randrange(2**31)), False) for k in range(count)]
    inputs += [
        ("example3", sw.gen_example3(), True),
        ("latin4", sw.gen_cyclic_latin(4), True),
        ("crown2", sw.gen_example2(2), True),
    ]
    for name, p, oracle in inputs:
        b.profile(name, p)
        b.matching(name, p, sw.u_optimal(p))
        _robust_questions(b, name, oracle)


def _repair_questions(b, name, oracle):
    # Global on both matchings, local on the first: two of three questions
    # are min-cuts, so the median question latency is a min-cut's.
    prof = name + ".profile"
    for tag, what in (("a", "global"), ("b", "global"), ("a", "local")):
        match = name + tag + ".matching"
        argv = ["check", what, "--profile", prof, "--matching", match, "--d", "3"]
        b.ask("%s.%s-%s-d3" % (name, tag, what), argv, prof, match, oracle)


def _build_repair(b, rng, size):
    inputs = []
    count, n = size["repair_complete"]
    for k in range(count):
        p = sw.gen_random(n, n, 1.0, rng.randrange(2**31))
        inputs.append(("c%02d" % k, p, [_random_maximal(p, rng) for _ in "ab"], False))
    count, n, density = size["repair_sparse"]
    for k in range(count):
        p = sw.gen_random(n, n, density, rng.randrange(2**31))
        inputs.append(("s%02d" % k, p, [_random_maximal(p, rng) for _ in "ab"], False))
    count, n, exchanges = size["repair_perturbed"]
    for k in range(count):
        p = sw.gen_random(n, n, 1.0, rng.randrange(2**31))
        inputs.append(("x%02d" % k, p, [_perturbed(p, rng, exchanges) for _ in "ab"], False))
    p = sw.gen_random(4, 4, 1.0, rng.randrange(2**31))
    inputs.append(("small4", p, [_random_maximal(p, rng) for _ in "ab"], True))
    crown = [sw.example2_rotated_matching(3), sw.example2_stable_matching(3)]
    inputs.append(("crown3", sw.gen_example2(3), crown, True))
    for name, p, matchings, oracle in inputs:
        b.profile(name, p)
        for tag, m in zip("ab", matchings):
            b.matching(name + tag, p, m)
        _repair_questions(b, name, oracle)


def _near_questions(b, name, oracle, local_near=True):
    prof = name + ".profile"
    asks = [
        ("trade-global", ["tradeoff", "--profile", prof, "--mode", "global", "--objective", "egalitarian", "--max-d", "2"]),
        ("trade-local", ["tradeoff", "--profile", prof, "--mode", "local", "--objective", "egalitarian", "--max-d", "1"]),
        ("global-near", ["solve", "global-near", "--profile", prof, "--objective", "perfect", "--d", "2"]),
    ]
    if local_near:
        asks.append(("local-near", ["solve", "local-near", "--profile", prof, "--objective", "perfect", "--d", "1"]))
    for tag, argv in asks:
        b.ask("%s.%s" % (name, tag), argv, prof, oracle=oracle)


def _build_near(b, rng, size):
    # The random profiles skip the local-near question: with three
    # questions each, the median question latency sits inside the
    # trade-local group instead of on the edge between two groups.
    count, n = size["near_random"]
    for k in range(count):
        name = "r%02d" % k
        b.profile(name, sw.gen_random(n, n, 1.0, rng.randrange(2**31)))
        _near_questions(b, name, False, local_near=False)
    fixed = [
        ("crown%d" % size["near_crown"], sw.gen_example2(size["near_crown"]), False),
        ("latin%d" % size["near_latin"], sw.gen_cyclic_latin(size["near_latin"]), False),
        ("example3", sw.gen_example3(), True),
        ("crown2", sw.gen_example2(2), True),
        ("latin3", sw.gen_cyclic_latin(3), True),
    ]
    for name, p, oracle in fixed:
        b.profile(name, p)
        _near_questions(b, name, oracle)


_MAKERS = {
    "robust-solve": _build_robust,
    "repair-check": _build_repair,
    "near-search": _build_near,
}


def build(workload, seed, size, out_dir):
    """Write the workload's input files into out_dir; return its questions.

    The question order is fixed; every random choice comes from one
    generator seeded by the workload name and the seed.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random("%s/%d" % (workload, seed))
    b = _QuestionList(out_dir)
    _MAKERS[workload](b, rng, SIZES[size])
    return b.questions
