"""Command-line front end.

Every command reads plain-text files (see fileformat), prints one JSON
report to stdout, and exits 0 when the answer is positive (stable, found),
1 when it is negative (unstable, none), 2 on any error.  Report keys:
``result``, ``matching``, ``cost``, ``bound``, ``witness_swaps``,
``blocking_pairs``; witness profiles come back as replayable sequences of
adjacent swaps applied to the input profile, plus the full profile text
under --verbose.

``oracle check ...`` and ``oracle solve ...`` rerun the same questions on
the brute-force engines, which enumerate whole profile balls and matching
sets; they only scale to toy inputs but answer straight from the
definitions.
"""

import argparse
import functools
import json
import sys

from .errors import Error, InvalidInput, ValidationError
from .fileformat import parse_matching, parse_profile, serialize_profile
from .generators import gen_cyclic_latin, gen_example2, gen_example3, gen_random
from .nearstable import (
    global_stabilization_cost,
    local_instability,
    solve_global_near,
    solve_local_near,
    tradeoff_curve,
    witness_profile_local,
)
from .oracle import (
    brute_global_cost,
    brute_is_d_robust,
    brute_is_locally_d_stable,
    brute_solve_near,
    enumerate_stable_bf,
    profiles_within,
)
from .profile import (
    INFINITE,
    Agent,
    AnalysisQuery,
    Objective,
    Side,
    SwapOp,
    blocking_pairs,
    egalitarian_cost,
    is_perfect,
    is_stable,
)
from .robustness import find_d_robust, find_d_robust_optimal, is_d_robust
from .rotations import rotation_digraph

_OBJECTIVES = {
    "any": Objective.ANY,
    "perfect": Objective.PERFECT,
    "egalitarian": Objective.EGALITARIAN,
}


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(report):
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cost_json(value):
    return "inf" if value == INFINITE else value


def _pairs_json(p, m):
    return [[p.u_names[i], p.w_names[j]] for i, j in m.sorted_pairs()]


def _bps_json(p, m):
    return [[p.name_of(u), p.name_of(w)] for u, w in blocking_pairs(p, m)]


def _swap_sequence(p, q):
    """Minimal adjacent-swap replay turning p into q, list by list.

    Bubble sort against the target order emits exactly swap_distance(p, q)
    operations; applying them to p in file order reproduces q.
    """
    ops = []
    plan = (
        (Side.U, p.u_lists, q.u_lists, Agent.w),
        (Side.W, p.w_lists, q.w_lists, Agent.u),
    )
    for side, cur_lists, new_lists, wrap in plan:
        for k, (cur, new) in enumerate(zip(cur_lists, new_lists)):
            if set(cur) != set(new):
                raise InvalidInput(
                    "no swap path: %s's acceptable set differs between the profiles"
                    % p.name_of(Agent(side, k))
                )
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


def _attach_witness(report, args, p, q):
    if q is None:
        return
    ops = _swap_sequence(p, q)
    report["witness_swaps"] = [
        {"agent": p.name_of(op.owner), "pair": [p.name_of(op.x), p.name_of(op.y)]}
        for op in ops
    ]
    if args.verbose:
        report["witness_profile"] = serialize_profile(q)


def _brute_robust_witness(p, m, d):
    for q in profiles_within(p, d, "global"):
        if not is_stable(q, m):
            return q
    return None


def _cmd_check(args, brute):
    if args.d < 0:
        raise InvalidInput("--d must be nonnegative")
    p = parse_profile(_read(args.profile))
    m = parse_matching(_read(args.matching), p)
    report = {}
    if args.what == "stable":
        report["result"] = is_stable(p, m)
    elif args.what == "robust":
        if brute:
            report["result"] = brute_is_d_robust(p, m, args.d)
            if not report["result"]:
                _attach_witness(report, args, p, _brute_robust_witness(p, m, args.d))
        else:
            ok, witness = is_d_robust(p, m, args.d)
            report["result"] = ok
            if witness is not None:
                q, (u, w) = witness
                _attach_witness(report, args, p, q)
                report["blocking_pairs"] = [[p.name_of(u), p.name_of(w)]]
    elif args.what == "local":
        if brute:
            report["result"] = brute_is_locally_d_stable(p, m, args.d)
        else:
            bound = local_instability(p, m)
            report["result"] = bound <= args.d
            report["bound"] = _cost_json(bound)
            if report["result"]:
                _attach_witness(report, args, p, witness_profile_local(p, m, args.d))
    else:
        if brute:
            found = brute_global_cost(p, m, max_d=args.d)
            report["result"] = found is not None
            report["cost"] = None if found is None else found[0]
            if found is not None:
                _attach_witness(report, args, p, found[1])
        else:
            cost, q = global_stabilization_cost(p, m)
            report["result"] = cost <= args.d
            report["cost"] = _cost_json(cost)
            _attach_witness(report, args, p, q)
    if "blocking_pairs" not in report:
        report["blocking_pairs"] = _bps_json(p, m)
    _emit(report)
    return 0 if report["result"] else 1


def _brute_solve_robust(p, d, objective):
    best = None
    for m in enumerate_stable_bf(p):
        if not brute_is_d_robust(p, m, d):
            continue
        if objective == Objective.PERFECT and not is_perfect(p, m):
            continue
        if objective != Objective.EGALITARIAN:
            return m
        if best is None or egalitarian_cost(p, m) < egalitarian_cost(p, best):
            best = m
    return best


def _cmd_solve(args, brute):
    p = parse_profile(_read(args.profile))
    name = args.objective or ("any" if args.what == "robust" else None)
    if name is None:
        raise InvalidInput("solve %s requires --objective perfect|egalitarian" % args.what)
    objective = _OBJECTIVES[name]
    found = witness = None
    if args.what == "robust":
        if args.eta is not None:
            raise InvalidInput("--eta only applies to near-stable solving")
        if brute:
            found = _brute_solve_robust(p, args.d, objective)
        elif objective == Objective.ANY:
            found = find_d_robust(p, args.d)
        else:
            found = find_d_robust_optimal(p, args.d, objective)
    else:
        mode = "global" if args.what == "global-near" else "local"
        query = AnalysisQuery(d=args.d, objective=objective, eta=args.eta)
        if brute:
            res = brute_solve_near(p, query.d, mode, query.objective, eta=query.eta)
        else:
            solver = solve_global_near if mode == "global" else solve_local_near
            res = solver(p, query.d, query.objective, eta=query.eta)
        if res is not None:
            found, witness = res if mode == "global" else (res, None)
    report = {"result": "found" if found is not None else "none"}
    if found is not None:
        report["matching"] = _pairs_json(p, found)
        report["cost"] = egalitarian_cost(p, found)
        if args.what == "local-near":
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
    if value == INFINITE:
        return "inf"
    return str(value)


def _cmd_tradeoff(args):
    p = parse_profile(_read(args.profile))
    curve = tradeoff_curve(p, args.mode, args.max_d, _OBJECTIVES[args.objective])
    if args.csv:
        rows = ["d,value"] + ["%d,%s" % (d, _csv_value(v)) for d, v in curve]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    _emit({"result": [[d, _cost_json(v)] for d, v in curve]})
    return 0


def _cmd_gen(args):
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
    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
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
