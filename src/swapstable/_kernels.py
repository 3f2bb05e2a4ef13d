"""Plain scans of the rank tables behind is_stable, blocking_indices and
egalitarian_cost, and the inversion count behind swap distances.

The module and its names stay because the benchmark reports its
``kernels.*`` per-layer metrics from them, as it reports
``profile.rank_matrices`` from the builds of ``Profile.rank_u``/``rank_w``.
"""

from bisect import bisect_right, insort


def _current_ranks(rank, lists, partners):
    # each agent's partner rank, its list length when unmatched (-1)
    return [row[k] if k >= 0 else len(lst) for row, lst, k in zip(rank, lists, partners)]


def _above_partners(p, m):
    """Each W agent's partner rank, and lazily each U agent's list cut
    where its partner stands: the W agents it would rather have."""
    cur_u = _current_ranks(p.rank_u, p.u_lists, m.pu)
    cur_w = _current_ranks(p.rank_w, p.w_lists, m.pw)
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
    cur_u = _current_ranks(p.rank_u, p.u_lists, m.pu)
    return sum(cur_u) + sum(_current_ranks(p.rank_w, p.w_lists, m.pw))


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
