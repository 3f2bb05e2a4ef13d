"""Core vocabulary: agents, preference profiles, swaps, matchings, stability.

Two finite sides U and W; every agent ranks a subset of the opposite side
strictly.  Acceptability is mutual by construction (``validate_profile``
rejects asymmetric lists).  Ranks are 0-based positions; the rank of an
unacceptable partner is the length of the owner's list, and an unmatched
agent contributes its list length to the egalitarian cost.

Distances between profiles count adjacent-transposition swaps per list
(Kendall tau) and are ``INFINITE`` when acceptable sets differ.
"""

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, compress
from numbers import Integral
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from . import _kernels
from .errors import (
    InvalidInput,
    InvalidMatching,
    NonAdjacentSwap,
    TooLarge,
    UnknownAgent,
    ValidationError,
)

INFINITE = math.inf

# Most n_u * n_w agent pairs a profile may have: ingest refuses a larger
# one with TooLarge before building either rank table.  The two tables
# keep 16.3 bytes a pair: building sparse gen_random(n, n, 0.003) profiles
# reached a max RSS of 78, 156 and 265 MB at n = 2000, 3000 and 4000
# (16 MB after import; Python 3.11, x86-64, 8 GB host).  At the cap the
# tables alone take about 1.6 GB.
TABLE_CAP = 100_000_000

Distance = Union[int, float]


class Side(str, Enum):
    U = "U"
    W = "W"


class Agent(NamedTuple):
    side: Side
    index: int

    @classmethod
    def u(cls, index: int) -> "Agent":
        return cls(Side.U, index)

    @classmethod
    def w(cls, index: int) -> "Agent":
        return cls(Side.W, index)


class Objective(str, Enum):
    ANY = "any"
    PERFECT = "perfect"
    EGALITARIAN = "egalitarian"


class SwapOp(NamedTuple):
    """One adjacent transposition in ``owner``'s list.

    The pair ``{x, y}`` is unordered; ``apply_swap`` accepts it in either
    order as long as the two agents are currently adjacent.
    """

    owner: Agent
    x: Agent
    y: Agent


@dataclass(frozen=True)
class Profile:
    """Immutable preference profile; lists hold opposite-side indices.

    ``rank_u``/``rank_w`` are the one rank table per side.  Ingest
    (``validate_profile``, ``parse_profile``) hands them over built, and a
    profile derived from another (``_derive``) inherits them row by row.
    Any other profile made in memory builds them on first use, and raises
    ValidationError there for a list with a non-index, a negative or
    out-of-range index or one index twice.  Only ingest checks that
    acceptability is mutual.  Every engine reads single ranks from the
    tables, and the scans in ``_kernels`` walk them.
    """

    u_lists: tuple
    w_lists: tuple
    u_names: tuple
    w_names: tuple

    @property
    def n_u(self) -> int:
        return len(self.u_lists)

    @property
    def n_w(self) -> int:
        return len(self.w_lists)

    @cached_property
    def rank_u(self) -> list:
        """rank_u[i][j] = position of w_j in u_i's list, its length when unlisted.

        Lists of the shared ints 0..n_w, so 8 bytes an entry.
        """
        return _checked_table(self.u_lists, self.n_w, "u", range(self.n_u))

    @cached_property
    def rank_w(self) -> list:
        return _checked_table(self.w_lists, self.n_u, "w", range(self.n_w))

    @cached_property
    def u_opt(self) -> "Matching":
        """``classic.u_optimal(self)``, run once per profile: the rotation
        digraph, the solvers' pre-checks and matched_partition share it."""
        from .classic import u_optimal  # classic imports this module

        return u_optimal(self)

    @cached_property
    def w_opt(self) -> "Matching":
        """``classic.w_optimal(self)``, run once per profile for the robust
        pre-check, which ``max_robustness`` runs at each budget it tries."""
        from .classic import w_optimal  # classic imports this module

        return w_optimal(self)

    @cached_property
    def _by_name(self) -> dict:
        table = {}
        for i, name in enumerate(self.u_names):
            table[name] = Agent.u(i)
        for j, name in enumerate(self.w_names):
            table[name] = Agent.w(j)
        return table

    def list_of(self, agent: Agent) -> tuple:
        lists = self.u_lists if agent.side == Side.U else self.w_lists
        if not 0 <= agent.index < len(lists):
            raise UnknownAgent("no agent %r" % (agent,))
        return lists[agent.index]

    def name_of(self, agent: Agent) -> str:
        names = self.u_names if agent.side == Side.U else self.w_names
        if not 0 <= agent.index < len(names):
            raise UnknownAgent("no agent %r" % (agent,))
        return names[agent.index]

    def agent_named(self, name: str) -> Agent:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAgent("no agent named %r" % name) from None

    def agents(self) -> Iterable[Agent]:
        for i in range(self.n_u):
            yield Agent.u(i)
        for j in range(self.n_w):
            yield Agent.w(j)


@dataclass(frozen=True)
class Matching:
    """Set of disjoint (u index, w index) pairs over fixed side sizes.

    The constructor is the one place a matching is checked and indexed: one
    loop fills the partner vectors ``pu``/``pw`` (-1 when unmatched) and
    raises InvalidMatching on a negative, out-of-range or non-index entry
    or an agent matched twice; only a failing pair pays for its message.
    """

    n_u: int
    n_w: int
    pairs: frozenset
    pu: tuple = field(init=False, compare=False, repr=False)
    pw: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pu, pw = [-1] * self.n_u, [-1] * self.n_w
        try:
            for i, j in self.pairs:
                if i < 0 or j < 0 or pu[i] >= 0 or pw[j] >= 0:
                    raise IndexError
                pu[i] = j
                pw[j] = i
        except (IndexError, TypeError, ValueError):
            raise InvalidMatching(_pair_fault(self.n_u, self.n_w, self.pairs)) from None
        object.__setattr__(self, "pu", tuple(pu))
        object.__setattr__(self, "pw", tuple(pw))

    @classmethod
    def from_pairs(cls, n_u: int, n_w: int, pairs: Iterable) -> "Matching":
        pairs = list(map(tuple, pairs))
        m = cls(n_u, n_w, frozenset(pairs))
        if len(m.pairs) < len(pairs):  # a pair listed twice
            raise InvalidMatching(_pair_fault(n_u, n_w, pairs))
        return m

    @classmethod
    def empty(cls, n_u: int, n_w: int) -> "Matching":
        return cls(n_u=n_u, n_w=n_w, pairs=frozenset())

    def partner_of(self, agent: Agent) -> Optional[Agent]:
        partners = self.pu if agent.side == Side.U else self.pw
        if not 0 <= agent.index < len(partners):
            raise UnknownAgent("no agent %r" % (agent,))
        k = partners[agent.index]
        if k < 0:
            return None
        return Agent.w(k) if agent.side == Side.U else Agent.u(k)

    def sorted_pairs(self) -> list:
        return sorted(self.pairs)


def _pair_fault(n_u, n_w, pairs):
    """InvalidMatching's message: the first pair that is not two indices in
    range, or that matches an agent an earlier pair matched."""
    seen = set()
    for pair in pairs:
        try:
            i, j = map(operator.index, pair)
        except (TypeError, ValueError):
            i = j = -1
        if not (0 <= i < n_u and 0 <= j < n_w):
            return "pair %r out of range" % (pair,)
        for agent in (("u", i), ("w", j)):
            if agent in seen:
                return "%s index %d matched twice" % agent
            seen.add(agent)
    return "pairs %r are not a matching" % (pairs,)


def _rank_table(lists, n_other, faults):
    """rank[i][j] = position of j in lists[i], the list's length where unlisted.

    One plain loop writes each row from ``ranks``, one list of the ints
    0..n_other, so every row shares those int objects (8 bytes an entry;
    ``enumerate`` would make a new int for every rank above 256).  The
    index of a list that is None, or names a non-index, an index past
    n_other - 1 or one index twice, goes to ``faults``: a slot written twice
    leaves one slot more holding the list's length than the list leaves
    unnamed.  Negative indices are the caller's to reject.
    """
    ranks = list(range(n_other + 1))
    table = []
    for i, lst in enumerate(lists):
        try:
            unlisted = ranks[len(lst)]
            row = [unlisted] * n_other
            for k, j in zip(ranks, lst):
                row[j] = k
            if row.count(unlisted) + len(lst) != n_other:
                faults.append(i)
        except (IndexError, TypeError):
            faults.append(i)
            row = []
        table.append(row)
    return table


def _checked_table(lists, n_other, label, which):
    """_rank_table's rows for lists[i], i in which, or ValidationError
    naming each of those lists it faults or that holds a negative index,
    which it would write from the end of a row."""
    chosen = [lists[i] for i in which]
    faults = []
    table = _rank_table(chosen, n_other, faults)
    faults += [k for k, row in enumerate(table) if row and min(chosen[k], default=0) < 0]
    if faults:
        raise ValidationError(
            "%s%d's list %r holds a non-index, an index out of range or a repeat"
            % (label, which[k] + 1, chosen[k])
            for k in sorted(faults)
        )
    return table


def _derive(p, u_lists, w_lists):
    """p with its lists replaced by u_lists and w_lists, which hold p's own
    list object wherever they keep a list.

    The one way to make a profile from another.  A rank table p has built
    passes on by row: the new table holds p's row object for every kept
    list and a row built and checked as ``_checked_table`` does for each
    other one, so a faulty list raises ValidationError here.  A table p
    has not built stays unbuilt, and deriving costs O(n_u + n_w).  Rows
    can be shared because nothing writes into a rank row once it is built.
    """
    q = Profile(u_lists, w_lists, p.u_names, p.w_names)
    built = vars(p)
    sides = (
        ("rank_u", p.u_lists, u_lists, p.n_w, "u"),
        ("rank_w", p.w_lists, w_lists, p.n_u, "w"),
    )
    for key, old, new, n_other, label in sides:
        if key in built:
            table = list(built[key])
            changed = list(compress(range(len(new)), map(operator.is_not, old, new)))
            for i, row in zip(changed, _checked_table(new, n_other, label, changed)):
                table[i] = row
            vars(q)[key] = table
    return q


def _one_sided(lists, back, back_lists):
    """(owner, other) for each entry, in list order, whose other end does
    not list its owner; ``back`` is the other side's rank table."""
    lengths = list(map(len, back_lists))
    for owner, lst in enumerate(lists):
        for other in lst:
            if back[other][owner] == lengths[other]:
                yield owner, other


def _check_pair_count(n_u, n_w):
    """Raise TooLarge when an n_u x n_w profile has more than TABLE_CAP
    agent pairs; ingest and the generators check before building lists."""
    if n_u * n_w > TABLE_CAP:
        raise TooLarge(
            "profile has %d x %d agent pairs; rank tables hold at most %d (TABLE_CAP)"
            % (n_u, n_w, TABLE_CAP)
        )


def _ingest(u_lists, w_lists, u_names, w_names, issues, row_issues, where):
    """The Profile of the lists, with both rank tables, or ValidationError.

    The one ingest pass, shared by ``validate_profile`` and
    ``fileformat.parse_profile``.  It builds each side's rank table; a
    list the table build rejects gets its messages from
    ``row_issues(side, i)``, which finds at least one.  If no list has any
    issue, every U entry must be listed back in the W table and both
    sides must hold as many entries: no list repeats an index, so the two
    sets of pairs are then equal.  When every W list names all of U, each U
    entry is listed back without a look, so only the totals are compared.
    Otherwise each one-sided entry is an issue, prefixed with
    ``where(side, owner)``.  A profile with more than
    TABLE_CAP agent pairs raises TooLarge before either table is built.
    """
    _check_pair_count(len(u_lists), len(w_lists))
    faults = ([], [])
    rank_u = _rank_table(u_lists, len(w_lists), faults[0])
    rank_w = _rank_table(w_lists, len(u_lists), faults[1])
    for side, rows in zip(Side, faults):
        for i in rows:
            issues += row_issues(side, i)
    if not issues and (
        sum(map(len, u_lists)) != sum(map(len, w_lists))
        or (
            any(len(lst) != len(u_lists) for lst in w_lists)
            and next(_one_sided(u_lists, rank_w, w_lists), None)
        )
    ):
        sides = (
            (Side.U, u_lists, rank_w, w_lists, u_names, w_names),
            (Side.W, w_lists, rank_u, u_lists, w_names, u_names),
        )
        for side, lists, back, back_lists, names, other_names in sides:
            for owner, other in _one_sided(lists, back, back_lists):
                issues.append(
                    "%sasymmetric acceptability: %s lists %s but not vice versa"
                    % (where(side, owner), names[owner], other_names[other])
                )
    if issues:
        raise ValidationError(issues)
    p = Profile(tuple(u_lists), tuple(w_lists), tuple(u_names), tuple(w_names))
    # the cached_property slots, which Profile.rank_u/rank_w would fill
    vars(p).update(rank_u=rank_u, rank_w=rank_w)
    return p


def validate_profile(
    u_lists: Sequence[Sequence[int]],
    w_lists: Sequence[Sequence[int]],
    u_names: Optional[Sequence[str]] = None,
    w_names: Optional[Sequence[str]] = None,
) -> Profile:
    """Build a Profile, collecting every violation before failing.

    Checks index bounds, duplicate entries, duplicate names, and mutual
    acceptability (w lists u iff u lists w).  Raises ValidationError whose
    ``issues`` attribute holds one message per violation.
    """
    n_u, n_w = len(u_lists), len(w_lists)
    if u_names is None:
        u_names = tuple("u%d" % (i + 1) for i in range(n_u))
    if w_names is None:
        w_names = tuple("w%d" % (j + 1) for j in range(n_w))
    issues = []
    if len(u_names) != n_u or len(w_names) != n_w:
        issues.append("name count does not match list count")
    counts = Counter(u_names)
    counts.update(w_names)
    for name in sorted(n for n, c in counts.items() if c > 1):
        issues.append("duplicate agent name %r" % name)

    def row_issues(side, i):
        if side == Side.U:
            lst, n_other, label = u_lists[i], n_w, "u"
        else:
            lst, n_other, label = w_lists[i], n_u, "w"
        out, seen = [], set()
        for j in lst:
            if not isinstance(j, Integral) or not 0 <= j < n_other:
                out.append(
                    "unknown agent: %s%d lists out-of-range index %r" % (label, i + 1, j)
                )
            elif j in seen:
                out.append(
                    "duplicate entry: index %d repeats in %s%d's list" % (j, label, i + 1)
                )
            seen.add(j)
        return out

    def as_row(lst):
        # ints, or None, which faults the row, for a non-index or negative entry
        try:
            row = tuple(map(operator.index, lst))
        except TypeError:
            return None
        return row if min(row, default=0) >= 0 else None

    return _ingest(
        list(map(as_row, u_lists)),
        list(map(as_row, w_lists)),
        u_names,
        w_names,
        issues,
        row_issues,
        lambda side, i: "",
    )


def validate_matching(p: Profile, m: Matching) -> None:
    """Raise InvalidMatching unless every pair of m is mutually acceptable in p."""
    if m.n_u != p.n_u or m.n_w != p.n_w:
        raise InvalidMatching(
            "matching sized for %dx%d agents, profile has %dx%d"
            % (m.n_u, m.n_w, p.n_u, p.n_w)
        )
    for i, j in m.pairs:
        # one read of the W table, which deferred acceptance builds anyway
        if p.rank_w[j][i] == len(p.w_lists[j]):
            raise InvalidMatching(
                "%s and %s are not mutually acceptable"
                % (p.u_names[i], p.w_names[j])
            )


def rank(p: Profile, x: Agent, y: Agent) -> int:
    """Number of agents x prefers to y; |x's list| when y is unacceptable."""
    if x.side == y.side:
        raise InvalidInput("rank needs agents from opposite sides")
    table, n_other = (p.rank_u, p.n_w) if x.side == Side.U else (p.rank_w, p.n_u)
    if not (0 <= x.index < len(table) and 0 <= y.index < n_other):
        raise UnknownAgent("agent out of range")
    return table[x.index][y.index]


def _promote(lists, owner, member, steps):
    """Move member up by steps positions in owner's list; every other list,
    and all of them when steps <= 0, stays the same object, which is how
    ``_derive`` tells the lists it keeps."""
    if steps <= 0:
        return lists
    lst = list(lists[owner])
    src = lst.index(member)
    del lst[src]
    lst.insert(src - steps, member)
    return lists[:owner] + (tuple(lst),) + lists[owner + 1 :]


def apply_swap(p: Profile, s: SwapOp) -> Profile:
    """Return the profile with s.x and s.y exchanged in s.owner's list.

    The two agents must be adjacent there; swap_distance between input and
    output is exactly 1.
    """
    owner, x, y = s.owner, s.x, s.y
    lst = p.list_of(owner)
    if x.side == owner.side or y.side == owner.side:
        raise InvalidInput("swapped agents must be on the opposite side")
    try:
        ix, iy = lst.index(x.index), lst.index(y.index)
    except ValueError:
        raise UnknownAgent(
            "swap pair not in %s's list" % p.name_of(owner)
        ) from None
    if abs(ix - iy) != 1:
        raise NonAdjacentSwap(
            "%s and %s are not adjacent in %s's list"
            % (p.name_of(x), p.name_of(y), p.name_of(owner))
        )
    # the later of the two moves up one place
    later = lst[max(ix, iy)]
    if owner.side == Side.U:
        return _derive(p, _promote(p.u_lists, owner.index, later, 1), p.w_lists)
    return _derive(p, p.u_lists, _promote(p.w_lists, owner.index, later, 1))


def _changed_window(l1, l2):
    """(l1[a:b], l2[a:b]) for the first difference a and the last b - 1,
    outside which the lists agree place by place; two empty tuples when
    they are equal.  None when their sets differ, which for lists without
    repeats the windows alone decide."""
    if l1 == l2:
        return (), ()
    if len(l1) != len(l2):
        return None
    ne = list(map(operator.ne, l1, l2))
    if True not in ne:  # a list and a tuple with the same entries
        return (), ()
    a = ne.index(True)
    b = len(ne) - ne[::-1].index(True)
    w1, w2 = l1[a:b], l2[a:b]
    return (w1, w2) if set(w1) == set(w2) else None


def _list_distance(l1: tuple, l2: tuple) -> Distance:
    """Kendall tau between two lists, counted on their changed window only:
    the entries around it are in place in both, so no inversion involves
    them."""
    window = _changed_window(l1, l2)
    if window is None:
        return INFINITE
    w1, w2 = window
    pos = {y: k for k, y in enumerate(w1)}
    return _kernels.count_inversions([pos[y] for y in w2])


def swap_distance_per_agent(p1: Profile, p2: Profile) -> dict:
    """Kendall tau per agent; INFINITE where acceptable sets differ."""
    if p1.n_u != p2.n_u or p1.n_w != p2.n_w:
        raise UnknownAgent("profiles are over different agent sets")
    out = {}
    for i in range(p1.n_u):
        out[Agent.u(i)] = _list_distance(p1.u_lists[i], p2.u_lists[i])
    for j in range(p1.n_w):
        out[Agent.w(j)] = _list_distance(p1.w_lists[j], p2.w_lists[j])
    return out


def swap_distance(p1: Profile, p2: Profile) -> Distance:
    """Total number of discordant adjacent pairs between the two profiles.

    Equals the minimum number of single swaps turning p1 into p2, summed
    over all lists; INFINITE when any agent's acceptable set differs.  A
    list the two profiles share as one object (a derived profile keeps
    every list it does not reorder) adds nothing and is not compared.
    """
    if p1.n_u != p2.n_u or p1.n_w != p2.n_w:
        raise UnknownAgent("profiles are over different agent sets")
    total = 0
    for l1, l2 in zip(chain(p1.u_lists, p1.w_lists), chain(p2.u_lists, p2.w_lists)):
        if l1 is not l2:
            total += _list_distance(l1, l2)
            if total == INFINITE:
                return INFINITE
    return total


def blocking_indices(p: Profile, m: Matching) -> list:
    """All mutually acceptable unmatched pairs where both sides improve.

    An unmatched agent improves with any acceptable partner.  Pairs come
    back as (u index, w index) ints, sorted.
    """
    validate_matching(p, m)
    return _kernels.blocking_mask(p, m)


def blocking_pairs(p: Profile, m: Matching) -> list:
    """blocking_indices as (Agent.u(i), Agent.w(j)) pairs."""
    return [(Agent.u(i), Agent.w(j)) for i, j in blocking_indices(p, m)]


def is_stable(p: Profile, m: Matching) -> bool:
    validate_matching(p, m)
    return _kernels.first_blocking(p, m) is None


def egalitarian_cost(p: Profile, m: Matching) -> int:
    """Sum of partner ranks; unmatched agents count their full list length."""
    validate_matching(p, m)
    return _kernels.egal_cost(p, m)


def is_perfect(p: Profile, m: Matching) -> bool:
    validate_matching(p, m)
    return len(m.pairs) == p.n_u and len(m.pairs) == p.n_w
