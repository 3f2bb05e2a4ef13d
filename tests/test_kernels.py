"""Numpy kernels against plain Python loops over the same inputs."""

import itertools

import numpy as np
import pytest

from swapstable import _kernels, backend, gen_random, u_optimal
from swapstable.oracle import _variant_rank_rows, stabilizable_product
from swapstable.profile import _partner_arrays

from helpers import random_matching, make_rng


def _loop_blocking(rank_u, rank_w, len_u, len_w, pu, pw):
    """Blocking pairs in (u, w) order by a double loop over the rank rows."""
    out = []
    for i in range(rank_u.shape[0]):
        cur_u = rank_u[i, pu[i]] if pu[i] >= 0 else len_u[i]
        for j in range(rank_w.shape[0]):
            cur_w = rank_w[j, pw[j]] if pw[j] >= 0 else len_w[j]
            if rank_u[i, j] < cur_u and rank_w[j, i] < cur_w:
                out.append((i, j))
    return out


def _loop_egal(rank_u, rank_w, len_u, len_w, pu, pw):
    total = 0
    for i in range(rank_u.shape[0]):
        total += rank_u[i, pu[i]] if pu[i] >= 0 else len_u[i]
    for j in range(rank_w.shape[0]):
        total += rank_w[j, pw[j]] if pw[j] >= 0 else len_w[j]
    return total


def test_backend_reports_active_path():
    assert backend() == "numpy"


@pytest.mark.parametrize("seed", range(20))
def test_matching_kernels_match_loops(seed):
    rng = make_rng(seed)
    p = gen_random(rng.randint(1, 6), rng.randint(1, 6), rng.choice([0.5, 1.0]), seed)
    for m in (u_optimal(p), random_matching(p, rng)):
        args = _partner_arrays(p, m)
        pairs = _loop_blocking(*args)
        mask = _kernels.blocking_mask(*args)
        assert [(int(i), int(j)) for i, j in np.argwhere(mask)] == pairs
        assert _kernels.first_blocking(*args) == (pairs[0] if pairs else (-1, -1))
        assert _kernels.egal_cost(*args) == _loop_egal(*args)


def test_count_inversions_matches_pair_count():
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 30):
        arr = rng.integers(0, 10, size=size).astype(np.int64)
        pairs = sum(
            1 for a in range(size) for b in range(a + 1, size) if arr[a] > arr[b]
        )
        assert _kernels.count_inversions(arr) == pairs


def _some_choice_is_stable(ru, rw, len_u, len_w, cnt_u, cnt_w, pu, pw):
    """Try every combination of candidate lists, U and W sides together."""
    choices = [range(c) for c in cnt_u] + [range(c) for c in cnt_w]
    n_u = ru.shape[0]
    for combo in itertools.product(*choices):
        args = (
            ru[np.arange(n_u), list(combo[:n_u])],
            rw[np.arange(rw.shape[0]), list(combo[n_u:])],
            len_u,
            len_w,
            pu,
            pw,
        )
        if not _loop_blocking(*args):
            return True
    return False


@pytest.mark.parametrize("seed", range(8))
def test_stabilizable_product_matches_enumeration(seed):
    rng = make_rng(seed)
    p = gen_random(3, 3, 1.0, seed=seed)
    ru, cnt_u = _variant_rank_rows(p.u_lists, p.n_w, 1)
    rw, cnt_w = _variant_rank_rows(p.w_lists, p.n_u, 1)
    m = random_matching(p, rng)
    args = (ru, rw, p.len_u, p.len_w, cnt_u, cnt_w, m.pu, m.pw)
    assert stabilizable_product(*args) == _some_choice_is_stable(*args)
