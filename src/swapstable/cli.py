"""Command-line front end.

Every command reads plain-text files (see fileformat), prints one JSON
report to stdout, and exits 0 when the answer is positive (stable, found),
1 when it is negative (unstable, none), 2 on any error.  Report keys:
``result``, ``matching``, ``cost``, ``bound``, ``witness_swaps``,
``blocking_pairs``; witness profiles come back as replayable sequences of
adjacent swaps applied to the input profile, plus the full profile text
under --verbose.  Each report is byte for byte json.dumps(report,
indent=2) plus a newline: the fixed-shape lists (witness swaps, blocking
pairs, matching pairs) are rendered from one template per item, and
_encode writes every other value.

``oracle check ...`` and ``oracle solve ...`` rerun the same questions on
the brute-force engines, which enumerate whole profile balls and matching
sets; they only scale to toy inputs but answer straight from the
definitions.

Each command imports the engine modules it runs, where it runs them, so
a process that asks one question compiles and loads only those: ``check
stable`` needs no engine past the blocking scan, and only ``oracle ...``
loads the oracle.
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .errors import Error, InvalidInput, ValidationError, check_budget
from .fileformat import parse_matching, parse_profile, serialize_profile
from .profile import (
    INFINITE,
    Objective,
    _changed_window,
    blocking_indices,
    egalitarian_cost,
    is_stable,
)


def _read(path):
    """The text of file path, or of stdin for "-"; InvalidInput naming the
    source and the byte offset where the bytes are not UTF-8."""
    if path == "-":
        if not hasattr(sys.stdin, "buffer"):  # a text stream with no bytes under it
            return sys.stdin.read()
        source, data = "stdin", sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            source, data = path, fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(
            "%s is not UTF-8: byte 0x%02x at offset %d" % (source, data[exc.start], exc.start)
        ) from None


class _Encoded:
    """JSON text that _encode copies as it stands."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


def _encode(value, indent, out):
    """Append value's JSON text, as json.dumps(value, indent=2) writes it
    from that indent on, to out.  The standard library encodes with indent
    only in pure Python; this does the same with fewer calls per value."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _encode(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, _Encoded):
        out.append(value.text)
    else:
        # numbers, booleans and None; anything else raises TypeError
        out.append(json.dumps(value))


def _emit(report):
    out = []
    _encode(report, "", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _cost_json(value):
    return "inf" if value == INFINITE else value


# The fixed-shape lists a report holds under its top-level keys, laid out
# as json.dumps(indent=2) lays them out there: items at 4 spaces, their
# members at 6, a swap's two pair members at 8.  Names go in encoded.
_PAIR = "[\n      %s,\n      %s\n    ]"
_SWAP = '{\n      "agent": %s,\n      "pair": [\n        %s,\n        %s\n      ]\n    }'


def _listed(items):
    """A top-level report value: the list of the rendered items."""
    return _Encoded("[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]")


def _pairs_json(p, pairs):
    """(u index, w index) pairs as a list of [u name, w name]."""
    enc, u_names, w_names = encode_basestring_ascii, p.u_names, p.w_names
    return _listed([_PAIR % (enc(u_names[i]), enc(w_names[j])) for i, j in pairs])


def _swap_sequence(p, q):
    """Minimal adjacent-swap replay turning p into q, list by list, as
    (owner name, name, name) triples: the owner swaps the two neighbours.

    Bubble sort against the target order emits exactly swap_distance(p, q)
    operations; applying them to p in file order reproduces q.  Only the span
    from the first to the last difference is sorted: entries around it are
    in place and sort apart from it, so they would never swap.  Each pass
    after the first scans from just before the previous pass's first swap to
    its last one: the entries before that were in order and did not move,
    and the previous pass carried its largest entry to the end of the span,
    behind an ordered tail.  So an entry promoted k places costs O(k).
    """
    plan = (
        (p.u_names, p.w_names, p.u_lists, q.u_lists),
        (p.w_names, p.u_names, p.w_lists, q.w_lists),
    )
    for owners, names, cur_lists, new_lists in plan:
        for k, (cur, new) in enumerate(zip(cur_lists, new_lists)):
            if cur == new:
                continue
            window = _changed_window(cur, new)
            if window is None:
                raise InvalidInput(
                    "no swap path: %s's acceptable set differs between the profiles"
                    % owners[k]
                )
            owner = owners[k]
            pos = {names[x]: r for r, x in enumerate(window[1])}
            lst = [names[x] for x in window[0]]
            lo, hi = 0, len(lst) - 1
            while lo < hi:
                swapped = []
                for t in range(lo, hi):
                    x, y = lst[t], lst[t + 1]
                    if pos[x] > pos[y]:
                        yield owner, x, y
                        lst[t], lst[t + 1] = y, x
                        swapped.append(t)
                if not swapped:
                    break
                lo, hi = max(swapped[0] - 1, 0), swapped[-1]


def _attach_witness(report, args, p, q):
    if q is None:
        return
    enc = encode_basestring_ascii
    report["witness_swaps"] = _listed(
        [_SWAP % (enc(owner), enc(x), enc(y)) for owner, x, y in _swap_sequence(p, q)]
    )
    if args.verbose:
        report["witness_profile"] = serialize_profile(q)


def _cmd_check(args, brute):
    if args.profile == "-" and args.matching == "-":
        # the second read would find stdin empty and answer about nothing
        raise InvalidInput("--profile and --matching cannot both read stdin")
    check_budget(args.d)
    p = parse_profile(_read(args.profile))
    m = parse_matching(_read(args.matching), p)
    report = {}
    # bps: the blocking pairs the report lists, from the answer's own scan.
    # For robust that is the pair that blocks m in the witness, if any: a
    # d-robust matching is stable.
    if args.what == "robust":
        if brute:
            from .oracle import profiles_within

            ball = profiles_within(p, args.d, "global")
            q = next((q for q in ball if not is_stable(q, m)), None)
            bps = [] if q is None else blocking_indices(q, m)[:1]
        else:
            from .robustness import is_d_robust

            q, pair = is_d_robust(p, m, args.d)[1] or (None, None)
            bps = [] if pair is None else [(pair[0].index, pair[1].index)]
        report["result"] = q is None
        _attach_witness(report, args, p, q)
    else:
        bps = blocking_indices(p, m)
    if args.what == "stable":
        report["result"] = not bps
    elif args.what == "local":
        if brute:
            from .oracle import brute_is_locally_d_stable

            report["result"] = brute_is_locally_d_stable(p, m, args.d)
        else:
            from .nearstable import local_instability, witness_profile_local

            bound = local_instability(p, m, bps=bps)
            report["result"] = bound <= args.d
            report["bound"] = _cost_json(bound)
            if report["result"]:
                _attach_witness(report, args, p, witness_profile_local(p, m, args.d, bps=bps))
    elif args.what == "global":
        if brute:
            from .oracle import brute_global_cost

            found = brute_global_cost(p, m, max_d=args.d)
            report["result"] = found is not None
            report["cost"] = None if found is None else found[0]
            if found is not None:
                _attach_witness(report, args, p, found[1])
        else:
            from .nearstable import global_stabilization_cost

            cost, q = global_stabilization_cost(p, m, bps=bps)
            report["result"] = cost <= args.d
            report["cost"] = _cost_json(cost)
            _attach_witness(report, args, p, q)
    report["blocking_pairs"] = _pairs_json(p, bps)
    _emit(report)
    return 0 if report["result"] else 1


def _cmd_solve(args, brute):
    p = parse_profile(_read(args.profile))
    name = args.objective or ("any" if args.what == "robust" else None)
    if name is None:
        raise InvalidInput("solve %s requires --objective perfect|egalitarian" % args.what)
    objective = Objective(name)
    if args.eta is not None and (args.what == "robust" or objective != Objective.EGALITARIAN):
        raise InvalidInput("--eta only applies to egalitarian near-stable solving")
    found = witness = None
    if args.what == "robust":
        if brute:
            from .oracle import brute_solve_robust

            found = brute_solve_robust(p, args.d, objective)
        else:
            from .robustness import find_d_robust, find_d_robust_optimal

            if objective == Objective.ANY:
                found = find_d_robust(p, args.d)
            else:
                found = find_d_robust_optimal(p, args.d, objective)
    else:
        mode = "global" if args.what == "global-near" else "local"
        if brute:
            from .oracle import brute_solve_near

            res = brute_solve_near(p, args.d, mode, objective, eta=args.eta)
        else:
            from .nearstable import solve_global_near, solve_local_near

            solver = solve_global_near if mode == "global" else solve_local_near
            res = solver(p, args.d, objective, eta=args.eta)
        if res is not None:
            found, witness = res if mode == "global" else (res, None)
    report = {"result": "found" if found is not None else "none"}
    if found is not None:
        report["matching"] = _pairs_json(p, found.sorted_pairs())
        report["cost"] = egalitarian_cost(p, found)
        if args.what == "local-near":
            from .nearstable import local_instability

            report["bound"] = _cost_json(local_instability(p, found))
        _attach_witness(report, args, p, witness)
    _emit(report)
    return 0 if found is not None else 1


def _dot_text(p, dg):
    def esc(s):
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph rotations {"]
    for r, rot in enumerate(dg.rotations):
        label = " ".join(
            "(%s,%s)" % (esc(p.u_names[u]), esc(p.w_names[w])) for u, w in rot.cycle
        )
        lines.append('  r%d [label="%s"];' % (r, label))
    for a, b in sorted(dg.arcs):
        lines.append("  r%d -> r%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_rotations(args):
    from .rotations import rotation_digraph

    p = parse_profile(_read(args.profile))
    dg = rotation_digraph(p)
    dot = _dot_text(p, dg)
    report = {
        "result": dg.n,
        "rotations": [
            [[p.u_names[u], p.w_names[w]] for u, w in rot.cycle] for rot in dg.rotations
        ],
        "arcs": [list(arc) for arc in sorted(dg.arcs)],
        "dot": dot,
    }
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    _emit(report)
    return 0


def _csv_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cmd_tradeoff(args):
    from .nearstable import tradeoff_curve

    p = parse_profile(_read(args.profile))
    curve = tradeoff_curve(p, args.mode, args.max_d, Objective(args.objective))
    if args.csv:
        rows = ["d,value"] + ["%d,%s" % (d, _csv_value(v)) for d, v in curve]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    _emit({"result": [[d, _cost_json(v)] for d, v in curve]})
    return 0


def _cmd_gen(args):
    from .generators import gen_cyclic_latin, gen_example2, gen_example3, gen_random

    if args.family == "example2":
        prof = gen_example2(args.n)
    elif args.family == "example3":
        prof = gen_example3()
    elif args.family == "cyclic":
        prof = gen_cyclic_latin(args.n)
    else:
        prof = gen_random(args.n, args.n, args.density, args.seed)
    sys.stdout.write(serialize_profile(prof))
    return 0


def _add_check(sub, brute):
    sp = sub.add_parser(
        "check",
        help="test a matching: stable, d-robust, locally or globally d-nearly stable",
    )
    sp.add_argument("what", choices=("stable", "robust", "local", "global"))
    sp.add_argument("--profile", required=True, metavar="F", help="profile file, '-' for stdin")
    sp.add_argument("--matching", required=True, metavar="M", help="matching file")
    sp.add_argument(
        "--d", type=int, default=0, metavar="K",
        help="swap budget (default 0, which is plain stability)",
    )
    sp.add_argument("--verbose", action="store_true", help="include witness profile text")
    sp.set_defaults(func=functools.partial(_cmd_check, brute=brute))


def _add_solve(sub, brute):
    sp = sub.add_parser(
        "solve",
        help="find a d-robust or d-nearly-stable matching",
    )
    sp.add_argument("what", choices=("robust", "global-near", "local-near"))
    sp.add_argument("--profile", required=True, metavar="F", help="profile file, '-' for stdin")
    sp.add_argument("--d", type=int, required=True, metavar="K", help="swap budget")
    sp.add_argument(
        "--objective", choices=("any", "perfect", "egalitarian"),
        help="'any' (robust only, the default there), 'perfect', or 'egalitarian'",
    )
    sp.add_argument(
        "--eta", type=int, metavar="H",
        help="egalitarian-cost cap, required with --objective egalitarian on near solving",
    )
    sp.add_argument("--verbose", action="store_true", help="include witness profile text")
    sp.set_defaults(func=functools.partial(_cmd_solve, brute=brute))


@functools.cache
def _build_parser():
    top = argparse.ArgumentParser(
        prog="swapstable",
        description="Stable matchings under preference-list swaps: robustness and near stability.",
    )
    sub = top.add_subparsers(dest="command", required=True, metavar="command")
    _add_check(sub, brute=False)
    _add_solve(sub, brute=False)

    rot = sub.add_parser("rotations", help="rotation digraph of a profile, with DOT export")
    rot.add_argument("--profile", required=True, metavar="F", help="profile file, '-' for stdin")
    rot.add_argument("--dot", metavar="OUT", help="write the digraph in DOT format to OUT")
    rot.set_defaults(func=_cmd_rotations)

    tr = sub.add_parser("tradeoff", help="solution quality for each budget 0..D")
    tr.add_argument("--profile", required=True, metavar="F", help="profile file, '-' for stdin")
    tr.add_argument("--mode", required=True, choices=("global", "local"))
    tr.add_argument("--max-d", type=int, required=True, metavar="D", dest="max_d")
    tr.add_argument("--objective", required=True, choices=("perfect", "egalitarian"))
    tr.add_argument("--csv", metavar="OUT", help="also write 'd,value' rows to OUT")
    tr.set_defaults(func=_cmd_tradeoff)

    gen = sub.add_parser("gen", help="print a generated profile")
    gen.add_argument(
        "--family", required=True, choices=("example2", "example3", "cyclic", "random"),
    )
    gen.add_argument("--n", type=int, default=3, help="side size (default 3)")
    gen.add_argument(
        "--density", type=float, default=1.0,
        help="acceptability probability for --family random (default 1.0)",
    )
    gen.add_argument("--seed", type=int, default=0, help="seed for --family random")
    gen.set_defaults(func=_cmd_gen)

    orc = sub.add_parser("oracle", help="brute-force mirrors of check and solve")
    osub = orc.add_subparsers(dest="oracle_command", required=True, metavar="command")
    _add_check(osub, brute=True)
    _add_solve(osub, brute=True)
    # command name -> its parser, for main to parse a command's arguments
    top.commands = sub.choices
    return top


def main(argv=None):
    """Run one command and return its exit code.

    A command's arguments go straight to its own parser, which answers
    exactly as the top-level parser would through it, in about half the
    time.  The top-level parser takes everything else: no command, an
    unknown one, options before it.  Leftovers go to the top-level
    parser's error, as its parse_args would send them.
    """
    top = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = top.commands.get(argv[0]) if argv else None
    if command is None:
        args = top.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            top.error("unrecognized arguments: %s" % " ".join(extras))
    try:
        return args.func(args)
    except ValidationError as exc:
        for issue in exc.issues:
            print("error: %s" % issue, file=sys.stderr)
        return 2
    except (Error, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash must not read as a negative answer (exit 1)
        print(
            "error: internal error: %s: %s" % (type(exc).__name__, exc),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
