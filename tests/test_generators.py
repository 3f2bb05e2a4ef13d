"""Instance generators: pinned structures and determinism."""

import pytest

from swapstable import (
    InvalidInput,
    egalitarian_cost,
    example2_rotated_matching,
    example2_stable_matching,
    gen_cyclic_latin,
    gen_example1_fixture,
    gen_example2,
    gen_example3,
    gen_random,
    global_stabilization_cost,
    is_stable,
    local_instability,
    rotation_digraph,
    u_optimal,
    w_optimal,
)
from swapstable.oracle import enumerate_stable_bf


@pytest.mark.parametrize("n", [2, 3, 5])
def test_crown_family_shape(n):
    p = gen_example2(n)
    assert p.n_u == p.n_w == 2 * n
    assert p.u_names[:2] == ("a0", "a1") or p.u_names[0].startswith("a")
    m = example2_stable_matching(n)
    assert is_stable(p, m)
    assert u_optimal(p) == m and w_optimal(p) == m
    assert rotation_digraph(p).n == 0
    assert egalitarian_cost(p, m) == n * n - 1
    rotated = example2_rotated_matching(n)
    assert not is_stable(p, rotated)
    assert egalitarian_cost(p, rotated) == n + 1
    assert local_instability(p, rotated) == 1
    assert global_stabilization_cost(p, rotated)[0] == 1


def test_crown_family_rejects_tiny_n():
    with pytest.raises(InvalidInput):
        gen_example2(1)


def test_two_by_two_example_facts():
    p = gen_example3()
    assert p.u_names == ("a1", "a2") and p.w_names == ("b1", "b2")
    assert p.u_lists == ((0,), (0, 1)) and p.w_lists == ((1, 0), (1,))
    mats = list(enumerate_stable_bf(p))
    assert len(mats) == 1
    assert mats[0].pairs == frozenset({(1, 0)})


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_cyclic_latin_structure(n):
    p = gen_cyclic_latin(n)
    assert p.n_u == p.n_w == n
    for i in range(n):
        assert p.u_lists[i] == tuple((i + k) % n for k in range(n))
        assert p.w_lists[i] == tuple((i + k) % n for k in range(n))
    for i, j in ((a, b) for a in range(n) for b in range(n) if a != b):
        assert p.rank_u[i][j] + p.rank_w[j][i] == n
    assert all(p.rank_u[i][i] == 0 for i in range(n))
    for k in range(n):
        assert len({p.u_lists[i][k] for i in range(n)}) == n
        assert len({p.w_lists[j][k] for j in range(n)}) == n


def test_cyclic_latin_rejects_nonpositive_n():
    with pytest.raises(InvalidInput):
        gen_cyclic_latin(0)


def test_random_generator_is_seeded_and_validated():
    a = gen_random(5, 4, 0.7, seed=9)
    b = gen_random(5, 4, 0.7, seed=9)
    assert a == b
    assert a != gen_random(5, 4, 0.7, seed=10)
    assert a.n_u == 5 and a.n_w == 4
    assert gen_random(3, 3, 0.0, seed=1).u_lists == ((), (), ())
    full = gen_random(3, 3, 1.0, seed=1)
    assert all(len(lst) == 3 for lst in full.u_lists + full.w_lists)
    with pytest.raises(InvalidInput):
        gen_random(3, 3, 1.5, seed=0)
    with pytest.raises(InvalidInput):
        gen_random(-1, 3, 0.5, seed=0)


def test_lattice_fixture_search_succeeds():
    p = gen_example1_fixture()
    assert p is not None
    assert p.n_u == p.n_w == 4
    assert len(list(enumerate_stable_bf(p))) == 5
    assert gen_example1_fixture() is p
