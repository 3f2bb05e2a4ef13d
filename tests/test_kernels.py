"""The plain scans of _kernels against definitions written with list positions."""

import itertools
import random

import pytest

from swapstable import _kernels, backend, gen_random, u_optimal
from swapstable.oracle import _variant_rank_rows, stabilizable_product
from swapstable.profile import _list_distance

from helpers import blocking_by_definition, egal_by_definition, random_matching, make_rng


def test_backend_reports_active_path():
    assert backend() == "python"


@pytest.mark.parametrize("seed", range(20))
def test_matching_kernels_match_loops(seed):
    rng = make_rng(seed)
    p = gen_random(rng.randint(1, 6), rng.randint(1, 6), rng.choice([0.5, 1.0]), seed)
    for m in (u_optimal(p), random_matching(p, rng)):
        pairs = blocking_by_definition(p, m)
        assert _kernels.blocking_mask(p, m) == pairs
        first = _kernels.first_blocking(p, m)
        if pairs:
            # the least U index, then that agent's list order
            i = pairs[0][0]
            assert first == (i, min((j for k, j in pairs if k == i), key=p.u_lists[i].index))
        else:
            assert first is None
        assert _kernels.egal_cost(p, m) == egal_by_definition(p, m)


def test_count_inversions_matches_pair_count():
    rng = random.Random(3)
    for size in (0, 1, 2, 30, 1000):
        l1 = list(range(size))
        l2 = rng.sample(l1, size)
        where = {y: k for k, y in enumerate(l2)}
        pairs = sum(1 for a, b in itertools.combinations(l1, 2) if where[a] > where[b])
        assert _list_distance(tuple(l1), tuple(l2)) == pairs
        values = [rng.randrange(10) for _ in range(size)]
        repeats = sum(1 for a, b in itertools.combinations(values, 2) if a > b)
        assert _kernels.count_inversions(values) == repeats


def _blocks(ru, rw, len_u, len_w, pu, pw):
    """Does any pair block, ranks read from one row per agent?"""
    return any(
        ru[i][j] < (ru[i][pu[i]] if pu[i] >= 0 else len_u[i])
        and rw[j][i] < (rw[j][pw[j]] if pw[j] >= 0 else len_w[j])
        for i in range(len(ru))
        for j in range(len(rw))
    )


def _some_choice_is_stable(ru, rw, len_u, len_w, pu, pw):
    """Try every combination of candidate lists, U and W sides together."""
    choices = [range(len(rows)) for rows in ru] + [range(len(rows)) for rows in rw]
    n_u = len(ru)
    for combo in itertools.product(*choices):
        rows_u = [ru[i][c] for i, c in enumerate(combo[:n_u])]
        rows_w = [rw[j][c] for j, c in enumerate(combo[n_u:])]
        if not _blocks(rows_u, rows_w, len_u, len_w, pu, pw):
            return True
    return False


@pytest.mark.parametrize("seed", range(8))
def test_stabilizable_product_matches_enumeration(seed):
    rng = make_rng(seed)
    p = gen_random(3, 3, 1.0, seed=seed)
    ru = _variant_rank_rows(p.u_lists, p.n_w, 1)
    rw = _variant_rank_rows(p.w_lists, p.n_u, 1)
    m = random_matching(p, rng)
    len_u = [len(lst) for lst in p.u_lists]
    len_w = [len(lst) for lst in p.w_lists]
    args = (ru, rw, len_u, len_w, m.pu, m.pw)
    assert stabilizable_product(*args) == _some_choice_is_stable(*args)
