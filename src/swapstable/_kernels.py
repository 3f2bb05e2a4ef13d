"""Hot inner loops, vectorized with numpy.

All kernels take plain int64 ndarrays: ``rank_u`` is an (nU, nW) matrix
with ``rank_u[i, j]`` the 0-based position of w_j in u_i's list
(``len_u[i]`` when unacceptable), ``pu``/``pw`` are partner index vectors
with -1 for unmatched.
"""

import numpy as np


def _current_ranks(rank_u, len_u, pu):
    # rank of the current partner, list length when unmatched; an agent
    # improves with j exactly when rank_u[i, j] < this value, which also
    # folds in acceptability because unacceptable ranks equal the length
    out = len_u.copy()
    matched = pu >= 0
    out[matched] = rank_u[np.nonzero(matched)[0], pu[matched]]
    return out


def blocking_mask(rank_u, rank_w, len_u, len_w, pu, pw):
    cur_u = _current_ranks(rank_u, len_u, pu)
    cur_w = _current_ranks(rank_w, len_w, pw)
    return (rank_u < cur_u[:, None]) & (rank_w < cur_w[:, None]).T


def first_blocking(rank_u, rank_w, len_u, len_w, pu, pw):
    mask = blocking_mask(rank_u, rank_w, len_u, len_w, pu, pw)
    hits = np.argwhere(mask)
    if hits.size == 0:
        return (-1, -1)
    return (int(hits[0, 0]), int(hits[0, 1]))


def egal_cost(rank_u, rank_w, len_u, len_w, pu, pw):
    cu = _current_ranks(rank_u, len_u, pu)
    cw = _current_ranks(rank_w, len_w, pw)
    return int(cu.sum() + cw.sum())


def count_inversions(arr):
    if arr.shape[0] < 2:
        return 0
    more = arr[:, None] > arr[None, :]
    return int(np.triu(more, 1).sum())


def backend():
    """Name of the kernel implementation, always ``"numpy"``.

    There is one implementation; the function stays because
    ``perfbench/worker.py`` writes its value into every result file.
    """
    return "numpy"
