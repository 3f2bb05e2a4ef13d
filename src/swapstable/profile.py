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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
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
    (``validate_profile``, ``parse_profile``) hands them over built; a
    profile made in memory builds them on first use.  Every engine reads
    single ranks from them, and the scans in ``_kernels`` walk them.
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
        return _rank_table(self.u_lists, self.n_w, [])

    @cached_property
    def rank_w(self) -> list:
        return _rank_table(self.w_lists, self.n_u, [])

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
    """Set of disjoint (u index, w index) pairs over fixed side sizes."""

    n_u: int
    n_w: int
    pairs: frozenset

    @classmethod
    def from_pairs(cls, n_u: int, n_w: int, pairs: Iterable) -> "Matching":
        seen_u, seen_w = set(), set()
        norm = set()
        for i, j in pairs:
            if not (0 <= i < n_u and 0 <= j < n_w):
                raise InvalidMatching("pair (%d, %d) out of range" % (i, j))
            if i in seen_u:
                raise InvalidMatching("u index %d matched twice" % i)
            if j in seen_w:
                raise InvalidMatching("w index %d matched twice" % j)
            seen_u.add(i)
            seen_w.add(j)
            norm.add((int(i), int(j)))
        return cls(n_u=n_u, n_w=n_w, pairs=frozenset(norm))

    @classmethod
    def empty(cls, n_u: int, n_w: int) -> "Matching":
        return cls(n_u=n_u, n_w=n_w, pairs=frozenset())

    @cached_property
    def pu(self) -> tuple:
        """Partner index per U agent, -1 when unmatched."""
        out = [-1] * self.n_u
        for i, j in self.pairs:
            out[i] = j
        return tuple(out)

    @cached_property
    def pw(self) -> tuple:
        out = [-1] * self.n_w
        for i, j in self.pairs:
            out[j] = i
        return tuple(out)

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


def _one_sided(lists, back, back_lists):
    """(owner, other) for each entry, in list order, whose other end does
    not list its owner; ``back`` is the other side's rank table."""
    lengths = list(map(len, back_lists))
    for owner, lst in enumerate(lists):
        for other in lst:
            if back[other][owner] == lengths[other]:
                yield owner, other


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
    if len(u_lists) * len(w_lists) > TABLE_CAP:
        raise TooLarge(
            "profile has %d x %d agent pairs; rank tables hold at most %d (TABLE_CAP)"
            % (len(u_lists), len(w_lists), TABLE_CAP)
        )
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
        if not 0 <= i < p.n_u or not 0 <= j < p.n_w:
            raise InvalidMatching("pair (%d, %d) out of range" % (i, j))
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
    if x.side == Side.U:
        if not (0 <= x.index < p.n_u and 0 <= y.index < p.n_w):
            raise UnknownAgent("agent out of range")
        return p.rank_u[x.index][y.index]
    if not (0 <= x.index < p.n_w and 0 <= y.index < p.n_u):
        raise UnknownAgent("agent out of range")
    return p.rank_w[x.index][y.index]


def _promote(lists, owner, member, steps):
    """Move member up by steps positions in owner's list."""
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
    lst = list(p.list_of(owner))
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
    lst[ix], lst[iy] = lst[iy], lst[ix]
    if owner.side == Side.U:
        u_lists = list(p.u_lists)
        u_lists[owner.index] = tuple(lst)
        return Profile(tuple(u_lists), p.w_lists, p.u_names, p.w_names)
    w_lists = list(p.w_lists)
    w_lists[owner.index] = tuple(lst)
    return Profile(p.u_lists, tuple(w_lists), p.u_names, p.w_names)


def _list_distance(l1: tuple, l2: tuple) -> Distance:
    if l1 == l2:
        return 0
    if set(l1) != set(l2):
        return INFINITE
    pos = {y: k for k, y in enumerate(l1)}
    return _kernels.count_inversions([pos[y] for y in l2])


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
    list the two profiles share as one object (a witness keeps every row it
    does not promote) adds nothing and is not compared.
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
