"""Deferred acceptance and the matched/unmatched partition.

The proposal loop runs in ascending agent order so outputs are bit-stable,
though the resulting matching is order-independent anyway.  Which agents
are matched does not depend on the stable matching chosen, so the
partition is read off the U-optimal one.
"""

from collections import deque
from itertools import chain
from typing import NamedTuple

from .profile import Matching


def _propose(n_u, n_w, u_lists, rank_rows):
    """Proposer-optimal deferred acceptance; rank_rows[j][i] ranks i in j's list."""
    nxt = [0] * n_u
    pw = [-1] * n_w
    free = deque(range(n_u))
    while free:
        i = free.popleft()
        lst = u_lists[i]
        # an agent that exhausts its list stays unmatched
        while nxt[i] < len(lst):
            j = lst[nxt[i]]
            nxt[i] += 1
            cur = pw[j]
            if cur < 0 or rank_rows[j][i] < rank_rows[j][cur]:
                pw[j] = i
                if cur >= 0:
                    free.append(cur)
                break
    return [(i, j) for j, i in enumerate(pw) if i >= 0]


def u_optimal(p):
    """Stable matching where every U-agent does weakly best.

    Parameters
    ----------
    p : Profile

    Returns
    -------
    Matching
        Stable in p; no U-agent has a better partner in any other stable
        matching of p.
    """
    pairs = _propose(p.n_u, p.n_w, p.u_lists, p.rank_w)
    return Matching(p.n_u, p.n_w, frozenset(pairs))


def w_optimal(p):
    """Stable matching where every W-agent does weakly best."""
    pairs = _propose(p.n_w, p.n_u, p.w_lists, p.rank_u)
    return Matching(p.n_u, p.n_w, frozenset((i, j) for j, i in pairs))


class PartitionResult(NamedTuple):
    """Agents matched in every stable matching vs. matched in none."""

    matched_agents: frozenset
    unmatched_agents: frozenset
    n_matched: int
    n_unmatched: int


def matched_partition(p):
    """Split agents into always-matched and never-matched sets.

    Every stable matching of a profile matches exactly the same agents,
    so the profile's one u_optimal (``p.u_opt``) determines the split.
    """
    partners = chain(p.u_opt.pu, p.u_opt.pw)  # in p.agents() order
    matched = frozenset(a for a, k in zip(p.agents(), partners) if k >= 0)
    unmatched = frozenset(p.agents()) - matched
    return PartitionResult(
        matched_agents=matched,
        unmatched_agents=unmatched,
        n_matched=len(matched),
        n_unmatched=len(unmatched),
    )
