"""Deferred acceptance and the matched/unmatched partition.

The proposal loop runs in ascending agent order so outputs are bit-stable,
though the resulting matching is order-independent anyway.  Which agents
are matched does not depend on the stable matching chosen, so the
partition is read off the U-optimal one.
"""

from collections import deque
from dataclasses import dataclass

from .profile import Agent, Matching


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
            if cur < 0:
                pw[j] = i
                break
            if rank_rows[j][i] < rank_rows[j][cur]:
                pw[j] = i
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
    # deferred acceptance never matches an agent twice, so the pairs need
    # none of Matching.from_pairs' checks
    pairs = _propose(p.n_u, p.n_w, p.u_lists, p.rank_w)
    return Matching(p.n_u, p.n_w, frozenset(pairs))


def w_optimal(p):
    """Stable matching where every W-agent does weakly best."""
    pairs = _propose(p.n_w, p.n_u, p.w_lists, p.rank_u)
    return Matching(p.n_u, p.n_w, frozenset((i, j) for j, i in pairs))


@dataclass(frozen=True)
class PartitionResult:
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
    matched = set()
    for i, j in p.u_opt.pairs:
        matched.add(Agent.u(i))
        matched.add(Agent.w(j))
    unmatched = frozenset(a for a in p.agents() if a not in matched)
    return PartitionResult(
        matched_agents=frozenset(matched),
        unmatched_agents=unmatched,
        n_matched=len(matched),
        n_unmatched=len(unmatched),
    )
