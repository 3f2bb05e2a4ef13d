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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from numbers import Integral
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .errors import (
    InvalidInput,
    InvalidMatching,
    NonAdjacentSwap,
    UnknownAgent,
    ValidationError,
)

INFINITE = math.inf

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

    The rank matrices feed the vector kernels; loops that read single ranks
    use the row lists, as a list read costs a quarter of a numpy scalar read.
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
    def rank_u(self) -> np.ndarray:
        """(n_u, n_w) int64; rank_u[i, j] = position of w_j, len when unlisted."""
        return _rank_matrix(self.u_lists, self.n_w)

    @cached_property
    def rank_w(self) -> np.ndarray:
        return _rank_matrix(self.w_lists, self.n_u)

    @cached_property
    def rank_u_rows(self) -> list:
        """rank_u as lists of ints, one shared object per value: 8 bytes an entry.

        Built a row at a time, so the build peaks near what the table keeps.
        """
        return _shared_rows(self.rank_u, self.n_w)

    @cached_property
    def rank_w_rows(self) -> list:
        return _shared_rows(self.rank_w, self.n_u)

    @cached_property
    def len_u(self) -> np.ndarray:
        return np.array([len(lst) for lst in self.u_lists], dtype=np.int64)

    @cached_property
    def len_w(self) -> np.ndarray:
        return np.array([len(lst) for lst in self.w_lists], dtype=np.int64)

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
    def pu(self) -> np.ndarray:
        """Partner index per U agent, -1 when unmatched."""
        arr = np.full(self.n_u, -1, dtype=np.int64)
        for i, j in self.pairs:
            arr[i] = j
        return arr

    @cached_property
    def pw(self) -> np.ndarray:
        arr = np.full(self.n_w, -1, dtype=np.int64)
        for i, j in self.pairs:
            arr[j] = i
        return arr

    def partner_of(self, agent: Agent) -> Optional[Agent]:
        if agent.side == Side.U:
            j = int(self.pu[agent.index])
            return Agent.w(j) if j >= 0 else None
        i = int(self.pw[agent.index])
        return Agent.u(i) if i >= 0 else None

    def sorted_pairs(self) -> list:
        return sorted(self.pairs)


@dataclass(frozen=True)
class AnalysisQuery:
    """Bundle of budgets and objective handed from the CLI to the solvers."""

    d: int = 0
    eta: Optional[int] = None
    objective: Objective = Objective.ANY

    def __post_init__(self):
        if (self.eta is not None) != (self.objective == Objective.EGALITARIAN):
            raise InvalidInput(
                "eta must be given exactly when the objective is egalitarian"
            )


def _flatten(lists):
    """Lengths of lists, and the owner row and value of every entry, in order."""
    lengths = np.fromiter(map(len, lists), np.int64, len(lists))
    flat = np.fromiter(chain.from_iterable(lists), np.int64, int(lengths.sum()))
    return lengths, np.repeat(np.arange(len(lists)), lengths), flat


def _shared_rows(matrix, n_other):
    """matrix as lists whose entries are the shared ints 0..n_other."""
    objs = np.array(range(n_other + 1), dtype=object)
    return [objs[row].tolist() for row in matrix]


def _rank_matrix(lists, n_other):
    """Each entry's position in its list; the list's length where unlisted."""
    lengths, rows, flat = _flatten(lists)
    m = np.repeat(lengths, n_other).reshape(len(lists), n_other)
    m[rows, flat] = np.arange(len(flat)) - (np.cumsum(lengths) - lengths)[rows]
    return m


def asymmetries(u_lists, w_lists):
    """Yield each one-sided acceptance as (side, owner, other), in list order.

    First (Side.U, i, j) for every j in u_lists[i] whose list lacks i, then
    (Side.W, j, i) likewise.  One byte per (i, j) slot records which sides
    list the pair: the lists are flattened once and no list is searched, and
    the table is smaller than the rank matrices every engine builds.
    """
    n_w = len(w_lists)
    _, u_rows, u_flat = _flatten(u_lists)
    _, w_rows, w_flat = _flatten(w_lists)
    u_slots, w_slots = u_rows * n_w + u_flat, w_flat * n_w + w_rows
    listed = np.zeros(len(u_lists) * n_w, dtype=np.uint8)
    listed[u_slots] = 1
    listed[w_slots] += 2
    for side, owners, others, slots in (
        (Side.U, u_rows, u_flat, u_slots),
        (Side.W, w_rows, w_flat, w_slots),
    ):
        one_sided = np.flatnonzero(listed[slots] != 3)
        for owner, other in zip(owners[one_sided].tolist(), others[one_sided].tolist()):
            yield side, owner, other


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

    def check_side(lists, n_other, label):
        for i, lst in enumerate(lists):
            seen = set()
            for j in lst:
                # int first: the Integral check alone is an order of magnitude slower
                if not isinstance(j, (int, Integral)) or not 0 <= j < n_other:
                    issues.append(
                        "unknown agent: %s%d lists out-of-range index %r"
                        % (label, i + 1, j)
                    )
                elif j in seen:
                    issues.append(
                        "duplicate entry: index %d repeats in %s%d's list"
                        % (j, label, i + 1)
                    )
                seen.add(j)

    check_side(u_lists, n_w, "u")
    check_side(w_lists, n_u, "w")
    if not issues:
        for side, owner, other in asymmetries(u_lists, w_lists):
            names = (u_names, w_names) if side == Side.U else (w_names, u_names)
            issues.append(
                "asymmetric acceptability: %s lists %s but not vice versa"
                % (names[0][owner], names[1][other])
            )
    if issues:
        raise ValidationError(issues)
    return Profile(
        u_lists=tuple(tuple(int(j) for j in lst) for lst in u_lists),
        w_lists=tuple(tuple(int(i) for i in lst) for lst in w_lists),
        u_names=tuple(u_names),
        w_names=tuple(w_names),
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
        if j not in p.u_lists[i]:
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
        return p.rank_u_rows[x.index][y.index]
    if not (0 <= x.index < p.n_w and 0 <= y.index < p.n_u):
        raise UnknownAgent("agent out of range")
    return p.rank_w_rows[x.index][y.index]


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
    seq = np.array([pos[y] for y in l2], dtype=np.int64)
    return int(_kernels.count_inversions(seq))


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


def _partner_arrays(p: Profile, m: Matching):
    return (p.rank_u, p.rank_w, p.len_u, p.len_w, m.pu, m.pw)


def blocking_indices(p: Profile, m: Matching) -> list:
    """All mutually acceptable unmatched pairs where both sides improve.

    An unmatched agent improves with any acceptable partner.  Pairs come
    back as (u index, w index) ints, sorted.
    """
    validate_matching(p, m)
    rows, cols = np.nonzero(_kernels.blocking_mask(*_partner_arrays(p, m)))
    return list(zip(rows.tolist(), cols.tolist()))


def blocking_pairs(p: Profile, m: Matching) -> list:
    """blocking_indices as (Agent.u(i), Agent.w(j)) pairs."""
    return [(Agent.u(i), Agent.w(j)) for i, j in blocking_indices(p, m)]


def is_stable(p: Profile, m: Matching) -> bool:
    validate_matching(p, m)
    i, _ = _kernels.first_blocking(*_partner_arrays(p, m))
    return i < 0


def egalitarian_cost(p: Profile, m: Matching) -> int:
    """Sum of partner ranks; unmatched agents count their full list length."""
    validate_matching(p, m)
    return int(_kernels.egal_cost(*_partner_arrays(p, m)))


def is_perfect(p: Profile, m: Matching) -> bool:
    validate_matching(p, m)
    return len(m.pairs) == p.n_u and len(m.pairs) == p.n_w
