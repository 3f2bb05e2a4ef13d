"""Plain-text file formats for profiles and matchings.

The profile format is UTF-8 and line oriented::

    profile v1
    side U: a1 a2
    side W: b1 b2
    a1: b1 b2
    a2: b1
    b1: a2 a1
    b2:

The header comes first, then one ``side`` line per side, then exactly one
list line per declared agent (most preferred first, possibly empty).  Agent
names are whitespace-free tokens without ``:``; only the exact labels
``side U`` and ``side W`` open a side line, so an agent may be called
``sidekick``.  Lines whose first non-blank character is ``#`` are
comments; blank lines are skipped.

A matching file holds one ``u-name w-name`` pair per line, same comment
and blank-line rules.

Parsers collect every problem they can find and raise a single
ValidationError whose messages are prefixed with 1-based line numbers.
serialize/parse round-trip exactly on canonical output.
"""

from .errors import InvalidInput, ValidationError
from .profile import Matching, Profile, Side, _ingest, validate_matching

HEADER = "profile v1"
# what parse_matching reads as (side, index) for a name no agent has
_UNKNOWN = (None, -1)


def _significant_lines(text):
    """Yield (lineno, stripped_line) skipping blanks and comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _check_name(token, lineno, issues):
    if ":" in token:
        issues.append("line %d: invalid agent name %r (no ':' allowed)" % (lineno, token))
        return False
    return True


def parse_profile(text: str) -> Profile:
    """Parse the v1 profile format, reporting all errors with line numbers."""
    issues = []
    header_seen = False
    # name -> (Side, index), and name -> index per side; filled by the two side lines
    declared = {}
    index_of = {Side.U: {}, Side.W: {}}
    side_line = {Side.U: None, Side.W: None}
    names = {Side.U: [], Side.W: []}
    # (side, index) -> (lineno, the text after the label's ':')
    list_lines = {}

    for lineno, line in _significant_lines(text):
        if not header_seen:
            if line != HEADER:
                raise ValidationError(
                    ["line %d: expected %r as the first line, got %r" % (lineno, HEADER, line)]
                )
            header_seen = True
            continue
        if ":" not in line:
            issues.append("line %d: expected ':' after the agent or side label" % lineno)
            continue
        label, _, rest = line.partition(":")
        label = label.strip()
        if label in ("side U", "side W"):
            side = Side.U if label == "side U" else Side.W
            if side_line[side] is not None:
                issues.append("line %d: duplicate '%s' line" % (lineno, label))
                continue
            side_line[side] = lineno
            for tok in rest.split():
                if not _check_name(tok, lineno, issues):
                    continue
                if tok in declared:
                    issues.append("line %d: duplicate agent name %r" % (lineno, tok))
                    continue
                declared[tok] = (side, len(names[side]))
                index_of[side][tok] = len(names[side])
                names[side].append(tok)
            continue
        if label.startswith("side") and label not in declared:
            issues.append("line %d: unknown side %r (use 'side U' or 'side W')" % (lineno, label))
            continue
        # a preference-list line
        if len(label.split()) > 1:  # label is stripped
            issues.append("line %d: agent name %r may not contain whitespace" % (lineno, label))
            continue
        if label not in declared:
            issues.append("line %d: unknown agent %r" % (lineno, label))
            continue
        key = declared[label]
        if key in list_lines:
            issues.append(
                "line %d: duplicate list for %r (first given on line %d)"
                % (lineno, label, list_lines[key][0])
            )
            continue
        list_lines[key] = (lineno, rest)

    if not header_seen:
        raise ValidationError(["line 1: missing %r header" % HEADER])
    for side, tag in ((Side.U, "side U"), (Side.W, "side W")):
        if side_line[side] is None:
            issues.append("missing '%s:' line" % tag)
    if side_line[Side.U] is None or side_line[Side.W] is None:
        # the remaining checks key off the side declarations
        raise ValidationError(issues)

    other = {Side.U: Side.W, Side.W: Side.U}
    lists = {}
    for side in (Side.U, Side.W):
        index = index_of[other[side]].get
        # a token naming no agent of the other side maps to None, and an
        # agent with no list line gets None for a list: both fault the row.
        # Each line's tokens are dropped as soon as they are mapped.
        lists[side] = [
            None if entry is None else tuple(map(index, entry[1].split()))
            for entry in map(list_lines.get, [(side, i) for i in range(len(names[side]))])
        ]

    def row_issues(side, i):
        """The issues of a row the table build rejected, token by token."""
        name = names[side][i]
        if (side, i) not in list_lines:
            return [
                "line %d: agent %r declared here has no preference-list line"
                % (side_line[side], name)
            ]
        lineno, rest = list_lines[(side, i)]
        out, seen = [], set()
        for tok in rest.split():
            if not _check_name(tok, lineno, out):
                continue
            if tok not in declared:
                out.append("line %d: unknown agent %r in %s's list" % (lineno, tok, name))
                continue
            tside, tindex = declared[tok]
            if tside != other[side]:
                out.append("line %d: %r is on the same side as %r" % (lineno, tok, name))
                continue
            if tindex in seen:
                out.append("line %d: %r listed twice by %r" % (lineno, tok, name))
            seen.add(tindex)
        return out

    return _ingest(
        lists[Side.U],
        lists[Side.W],
        names[Side.U],
        names[Side.W],
        issues,
        row_issues,
        lambda side, i: "line %d: " % list_lines[(side, i)][0],
    )


def _writable_name(name):
    # split() == [name]: non-empty and free of whitespace
    if name.split() != [name] or ":" in name or name.startswith("#"):
        raise InvalidInput("agent name %r cannot be written in the v1 format" % name)
    return name


def serialize_profile(p: Profile) -> str:
    """Canonical v1 text for p; parse_profile inverts it exactly."""
    for name in p.u_names + p.w_names:
        _writable_name(name)
    u_name, w_name = p.u_names.__getitem__, p.w_names.__getitem__
    lines = [HEADER]
    lines.append(("side U: " + " ".join(p.u_names)).rstrip())
    lines.append(("side W: " + " ".join(p.w_names)).rstrip())
    for name, lst in zip(p.u_names, p.u_lists):
        lines.append(("%s: %s" % (name, " ".join(map(w_name, lst)))).rstrip())
    for name, lst in zip(p.w_names, p.w_lists):
        lines.append(("%s: %s" % (name, " ".join(map(u_name, lst)))).rstrip())
    return "\n".join(lines) + "\n"


def parse_matching(text: str, p: Profile) -> Matching:
    """Parse one 'u-name w-name' pair per line against profile p."""
    issues = []
    pairs = []
    by_name = p._by_name
    ru, u_lists = p.rank_u, p.u_lists
    # the line that took each index, one dict per side
    taken_u = {}
    taken_w = {}
    for lineno, line in _significant_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            issues.append(
                "line %d: expected 'u-name w-name', got %d token(s)" % (lineno, len(tokens))
            )
            continue
        a, b = tokens
        side_a, i = by_name.get(a, _UNKNOWN)
        side_b, j = by_name.get(b, _UNKNOWN)
        if side_a is not Side.U or side_b is not Side.W:
            for tok, got, side in ((a, side_a, Side.U), (b, side_b, Side.W)):
                if got is None:
                    issues.append("line %d: unknown agent %r" % (lineno, tok))
                elif got is not side:
                    issues.append("line %d: %r is not on side %s" % (lineno, tok, side.value))
            continue
        first_u, first_w = taken_u.get(i), taken_w.get(j)
        if first_u is not None or first_w is not None:
            for tok, first in ((a, first_u), (b, first_w)):
                if first is not None:
                    issues.append("line %d: %s already matched on line %d" % (lineno, tok, first))
            continue
        taken_u[i] = taken_w[j] = lineno
        # one rank read: an unlisted partner ranks at the list's length
        if ru[i][j] == len(u_lists[i]):
            issues.append("line %d: %s and %s are not mutually acceptable" % (lineno, a, b))
            continue
        pairs.append((i, j))
    if issues:
        raise ValidationError(issues)
    return Matching.from_pairs(p.n_u, p.n_w, pairs)


def serialize_matching(p: Profile, m: Matching) -> str:
    """One 'u-name w-name' line per pair, sorted by the U-side index."""
    validate_matching(p, m)
    lines = ["%s %s" % (p.u_names[i], p.w_names[j]) for i, j in m.sorted_pairs()]
    return "\n".join(lines) + ("\n" if lines else "")
