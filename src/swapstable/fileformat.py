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
names are whitespace-free tokens without ``:`` that do not start with
``#``; only the exact labels ``side U`` and ``side W`` open a side line, so
an agent may be called ``sidekick``.  Lines end at ``\\n``, ``\\r\\n`` or
``\\r``.  Lines whose first non-blank character is ``#`` are comments;
blank lines are skipped.

A matching file holds one ``u-name w-name`` pair per line, same comment
and blank-line rules.

Parsers collect every problem they can find and raise a single
ValidationError whose messages are prefixed with 1-based line numbers.
serialize/parse round-trip exactly on canonical output.
"""

from itertools import repeat
from operator import itemgetter

from .errors import InvalidInput, ValidationError
from .profile import (
    Matching,
    Profile,
    Side,
    _ASYMMETRIC,
    _check_pair_count,
    _ingest,
    _name_index,
    validate_matching,
)

HEADER = "profile v1"
# what parse_matching reads as (side, index) for a name no agent has
_UNKNOWN = (None, -1)
# what parse_profile files for a side or list line the text lacks
_ABSENT = (0, "")


def _lines(text):
    """The lines of text, broken at '\\n', '\\r\\n' and '\\r' only.

    ``str.splitlines`` also breaks at \\v, \\f, \\x1c-\\x1e, \\x85, \\u2028
    and \\u2029, which the formats read as whitespace within a line.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _significant_lines(lines):
    """Yield (lineno, stripped_line) skipping blanks and comment lines."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


def _check_name(token, lineno, issues):
    if ":" in token:
        issues.append("line %d: invalid agent name %r (no ':' allowed)" % (lineno, token))
        return False
    return True


def _mapped(rest, index):
    """The indices of rest's tokens in index, or None when one is no key."""
    tokens = rest.split()
    try:
        if len(tokens) > 1:
            return itemgetter(*tokens)(index)
        return tuple(map(index.__getitem__, tokens))
    except KeyError:
        return None


def parse_profile(text: str) -> Profile:
    """Parse the v1 profile format, reporting all errors with line numbers.

    One plain loop files every line after the header under its label.
    Bulk checks then decide whether the text is well formed: one line for
    each side, no name twice, and one list line per name, after the side
    line that declares it, and no other line.  When all
    hold, each list's tokens are mapped to indices in one lookup (a token
    that names no agent of the other side makes the row None) and
    ``_ingest`` builds the rank tables.  Text that fails a bulk check, or
    that ``_ingest`` faults, goes to ``_profile_issues`` for its messages:
    only such text pays for them.
    """
    lines = _lines(text)
    it = enumerate(lines, start=1)
    for _, line in it:
        line = line.strip()
        if line and line[0] != "#":
            break
    if line != HEADER:
        raise ValidationError(_profile_issues(lines))
    # label -> (lineno, the text after the label's ':'), side lines included
    entries = {}
    count = 0
    try:
        for lineno, line in it:
            line = line.strip()
            if line and line[0] != "#":
                label, rest = line.split(":", 1)
                entries[label.rstrip()] = (lineno, rest)
                count += 1
    except ValueError:  # a line without ':'
        raise ValidationError(_profile_issues(lines)) from None
    u_line, u_text = entries.pop("side U", _ABSENT)
    w_line, w_text = entries.pop("side W", _ABSENT)
    u_names, w_names = u_text.split(), w_text.split()
    by_name = _name_index(u_names, w_names)
    # A name without its list line gets line 0, before its side line.  So
    # does one with ':' or a leading '#': no label holds ':', and a line
    # starting with '#' is a comment.
    u_rows = list(map(entries.get, u_names, repeat(_ABSENT)))
    w_rows = list(map(entries.get, w_names, repeat(_ABSENT)))
    if (
        not (u_line and w_line)  # a side line missing
        or len(entries) + 2 != count  # a label twice
        # no name twice and, each name's line found below, no other label
        or len(by_name) != len(entries)
        or len(entries) != len(u_names) + len(w_names)
        or (u_rows and min(u_rows)[0] < u_line)
        or (w_rows and min(w_rows)[0] < w_line)
    ):
        raise ValidationError(_profile_issues(lines))

    def report(side, i):
        # _ingest's callback for a faulty list or a one-sided pair
        raise ValidationError(_profile_issues(lines))

    index_u = dict(zip(u_names, range(len(u_names))))
    index_w = dict(zip(w_names, range(len(w_names))))
    p = _ingest(
        [_mapped(rest, index_w) for _, rest in u_rows],
        [_mapped(rest, index_u) for _, rest in w_rows],
        u_names,
        w_names,
        [],
        report,
        report,
    )
    vars(p)["_by_name"] = by_name  # the cached_property slot
    return p


def _profile_issues(lines):
    """parse_profile's messages for lines that do not hold a valid profile.

    The message pass: it reads the lines in order, reporting each problem
    with its line number, then each list token by token, U side first,
    and when no list has a problem, each entry its other end does not
    list.  It builds no profile.
    """
    issues = []
    header_seen = False
    # name -> (Side, index), filled by the two side lines
    declared = {}
    side_line = {Side.U: None, Side.W: None}
    names = {Side.U: [], Side.W: []}
    # name -> (lineno, the text after the label's ':')
    list_lines = {}

    for lineno, line in _significant_lines(lines):
        if not header_seen:
            if line != HEADER:
                return ["line %d: expected %r as the first line, got %r" % (lineno, HEADER, line)]
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
                if tok[0] == "#":
                    issues.append("line %d: invalid agent name %r (no leading '#')" % (lineno, tok))
                    continue
                if tok in declared:
                    issues.append("line %d: duplicate agent name %r" % (lineno, tok))
                    continue
                declared[tok] = (side, len(names[side]))
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
        if label in list_lines:
            issues.append(
                "line %d: duplicate list for %r (first given on line %d)"
                % (lineno, label, list_lines[label][0])
            )
            continue
        list_lines[label] = (lineno, rest)

    if not header_seen:
        return ["line 1: missing %r header" % HEADER]
    for side, tag in ((Side.U, "side U"), (Side.W, "side W")):
        if side_line[side] is None:
            issues.append("missing '%s:' line" % tag)
    if side_line[Side.U] is None or side_line[Side.W] is None:
        # the remaining checks key off the side declarations
        return issues
    _check_pair_count(len(names[Side.U]), len(names[Side.W]))
    for side, other in ((Side.U, Side.W), (Side.W, Side.U)):
        for name in names[side]:
            if name not in list_lines:
                issues.append(
                    "line %d: agent %r declared here has no preference-list line"
                    % (side_line[side], name)
                )
                continue
            lineno, rest = list_lines[name]
            seen = set()
            for tok in rest.split():
                if not _check_name(tok, lineno, issues):
                    continue
                if tok not in declared:
                    issues.append("line %d: unknown agent %r in %s's list" % (lineno, tok, name))
                    continue
                tside, tindex = declared[tok]
                if tside != other:
                    issues.append("line %d: %r is on the same side as %r" % (lineno, tok, name))
                    continue
                if tindex in seen:
                    issues.append("line %d: %r listed twice by %r" % (lineno, tok, name))
                seen.add(tindex)
    if not issues:
        # every list is clean: report the entries not listed back
        listed = {(name, tok) for name, (_, rest) in list_lines.items() for tok in rest.split()}
        for name in names[Side.U] + names[Side.W]:
            lineno, rest = list_lines[name]
            for tok in rest.split():
                if (tok, name) not in listed:
                    issues.append(_ASYMMETRIC % ("line %d: " % lineno, name, tok))
    return issues


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
    for lineno, line in _significant_lines(_lines(text)):
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
