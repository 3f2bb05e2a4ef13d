"""Plain scans of the rank tables behind is_stable, blocking_indices and
egalitarian_cost (``partner_ranks``, which the rotation and robustness
engines share), and the inversion count behind swap distances.

The module and its names stay because the benchmark reports its
``kernels.*`` per-layer metrics from them.
"""

from bisect import bisect_right, insort


def partner_ranks(p, m):
    """Rank of each agent's partner in m, as one list per side.  An agent m
    leaves unmatched gets its list length, past every pair it lists, so no
    gap measured against it is positive."""
    return (
        [row[k] if k >= 0 else len(lst) for row, lst, k in zip(p.rank_u, p.u_lists, m.pu)],
        [row[k] if k >= 0 else len(lst) for row, lst, k in zip(p.rank_w, p.w_lists, m.pw)],
    )


def _above_partners(p, m):
    """Each W agent's partner rank, and lazily each U agent's list cut
    where its partner stands: the W agents it would rather have."""
    cur_u, cur_w = partner_ranks(p, m)
    return cur_w, (lst[:c] for lst, c in zip(p.u_lists, cur_u))


def blocking_mask(p, m):
    """Every blocking pair as (u index, w index), sorted."""
    rw = p.rank_w
    cur_w, above = _above_partners(p, m)
    out = []
    for i, lst in enumerate(above):
        out += [(i, j) for j in sorted(lst) if rw[j][i] < cur_w[j]]
    return out


def first_blocking(p, m):
    """The first blocking pair by U index, then list order; None if stable."""
    rw = p.rank_w
    cur_w, above = _above_partners(p, m)
    return next(((i, j) for i, lst in enumerate(above) for j in lst if rw[j][i] < cur_w[j]), None)


def egal_cost(p, m):
    cur_u, cur_w = partner_ranks(p, m)
    return sum(cur_u) + sum(cur_w)


def count_inversions(seq):
    """Pairs a < b with seq[a] > seq[b], each value counted against the
    sorted list of those before it: O(L log L) compares, O(L^2) C moves."""
    seen, total = [], 0
    for k, x in enumerate(seq):
        total += k - bisect_right(seen, x)
        insort(seen, x)
    return total


def backend():
    """Always ``"python"``; ``perfbench/worker.py`` writes it into result files."""
    return "python"
