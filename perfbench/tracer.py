"""Span tracer that wraps swapstable's public functions from outside.

``Tracer.install()`` replaces each traced function in every swapstable
module that binds it (``from .rotations import rotation_digraph`` makes
``swapstable.nearstable.rotation_digraph`` a second lookup site), plus
``FlowNetwork.max_flow`` and the ``rank_u``/``rank_w`` cached properties.
``uninstall()`` puts the originals back, so untraced passes run the
unmodified program.

Spans are kept in flat arrays in memory: name, start, end, parent span and
question id.  Self time of a span is its duration minus the durations of
its direct children; children of one span never overlap because the
program is single-threaded.  Work counts are read only from the public
return values and objects of the wrapped calls.
"""

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter
from functools import cached_property

# (module, function) pairs that get a span; metric names drop the leading
# underscore of private module names, so "_flow" reports as "flow".
SPANS = (
    ("fileformat", "parse_profile"),
    ("fileformat", "parse_matching"),
    ("profile", "validate_profile"),
    ("profile", "rank_matrices"),
    ("profile", "blocking_pairs"),
    ("profile", "is_stable"),
    ("_kernels", "blocking_mask"),
    ("_kernels", "first_blocking"),
    ("_kernels", "egal_cost"),
    ("classic", "u_optimal"),
    ("classic", "w_optimal"),
    ("classic", "matched_partition"),
    ("rotations", "rotation_digraph"),
    ("rotations", "min_weight_closure"),
    ("rotations", "matching_of"),
    ("rotations", "stable_pairs"),
    ("_flow", "max_flow"),
    ("robustness", "find_d_robust_optimal"),
    ("robustness", "find_d_robust"),
    ("robustness", "is_d_robust"),
    ("nearstable", "global_stabilization_cost"),
    ("nearstable", "local_instability"),
    ("nearstable", "witness_profile_local"),
    ("nearstable", "tradeoff_curve"),
    ("nearstable", "solve_global_near"),
    ("nearstable", "solve_local_near"),
    ("cli", "main"),
)

COUNTS = (
    "rotations.rotations",
    "rotations.arcs",
    "flow.nodes",
    "flow.edges",
    "robustness.stable_pairs",
    "nearstable.blocking_pairs",
    "nearstable.ball_profiles",
    "cli.json_bytes",
)

_SEARCHES = ("nearstable.tradeoff_curve", "nearstable.solve_global_near")


def span_name(module, function):
    return "%s.%s" % (module.lstrip("_"), function)


SPAN_NAMES = tuple(span_name(m, f) for m, f in SPANS)


class Tracer:
    def __init__(self):
        self._index = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.question = array("l")
        self.counts = Counter()
        self.qid = -1  # index of the question being answered
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        code = self._index[name]
        names, starts, ends = self.name, self.start, self.end
        parents, questions, stack = self.parent, self.question, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            questions.append(self.qid)
            stack.append(idx)
            starts.append(clock())
            ends.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        return functools.update_wrapper(traced, fn)

    def _enclosing(self):
        """Names of the spans enclosing the call now running, innermost first."""
        return [SPAN_NAMES[self.name[i]] for i in reversed(self._stack)]

    def _count_digraph(self, args, dg):
        self.counts["rotations.rotations"] += dg.n
        self.counts["rotations.arcs"] += len(dg.arcs)
        if any(name in _SEARCHES for name in self._enclosing()):
            self.counts["nearstable.ball_profiles"] += 1

    def _count_flow(self, args, value):
        net = args[0]
        self.counts["flow.nodes"] += len(net.adj)
        self.counts["flow.edges"] += sum(len(v) for v in net.adj.values()) // 2

    def _count_stable_pairs(self, args, pairs):
        self.counts["robustness.stable_pairs"] += len(pairs)

    def _count_blocking(self, args, pairs):
        if self._stack and SPAN_NAMES[self.name[self._stack[-1]]].startswith("nearstable."):
            self.counts["nearstable.blocking_pairs"] += len(pairs)

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapped):
        for modname, module in list(sys.modules.items()):
            if modname != "swapstable" and not modname.startswith("swapstable."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self):
        """Wrap every traced function; return the spans that cannot be traced.

        A function or module that no longer exists (deleted by a later
        change) is reported as absent instead of failing the run.
        """
        hooks = {
            "rotations.rotation_digraph": self._count_digraph,
            "flow.max_flow": self._count_flow,
            "rotations.stable_pairs": self._count_stable_pairs,
            "profile.blocking_pairs": self._count_blocking,
        }
        absent = []
        for modname, fn_name in SPANS:
            name = span_name(modname, fn_name)
            try:
                module = importlib.import_module("swapstable." + modname)
                if name == "profile.rank_matrices":
                    self._wrap_rank_matrices(module)
                elif name == "flow.max_flow":
                    cls = module.FlowNetwork
                    original = cls.__dict__["max_flow"]
                    self._patches.append((cls, "max_flow", original))
                    cls.max_flow = self._wrap(name, original, hooks.get(name))
                else:
                    original = getattr(module, fn_name)
                    self._replace_everywhere(original, self._wrap(name, original, hooks.get(name)))
            except (ImportError, AttributeError, KeyError):
                absent.append(name)
        return absent

    def _wrap_rank_matrices(self, module):
        # rank_u/rank_w are cached properties computed on first use; wrap
        # their functions so that work shows as profile.rank_matrices
        # wherever a profile is first ranked.
        cls = module.Profile
        for attr in ("rank_u", "rank_w"):
            original = cls.__dict__[attr]
            prop = cached_property(self._wrap("profile.rank_matrices", original.func))
            prop.__set_name__(cls, attr)
            self._patches.append((cls, attr, original))
            setattr(cls, attr, prop)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def clear(self):
        for arr in (self.name, self.start, self.end, self.parent, self.question):
            del arr[:]
        self.counts.clear()

    def self_times(self):
        """(calls, self seconds) per span name, plus self time per question."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        per_question = Counter()
        for i in range(n):
            own = self.end[i] - self.start[i] - child[i]
            name = SPAN_NAMES[self.name[i]]
            calls[name] += 1
            self_s[name] += own
            per_question[self.question[i]] += own
        return calls, self_s, per_question

    def write(self, path, qids):
        """Write every span as one CSV line: name,start,end,parent,question."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("span,name,start_s,end_s,parent,question\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                fh.write(
                    "%d,%s,%.7f,%.7f,%d,%s\n"
                    % (
                        i,
                        SPAN_NAMES[self.name[i]],
                        self.start[i] - t0,
                        self.end[i] - t0,
                        self.parent[i],
                        qids[self.question[i]] if self.question[i] >= 0 else "",
                    )
                )
