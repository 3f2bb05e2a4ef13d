"""Instance generators: pinned structures and determinism."""

import hashlib
import random

import pytest

from swapstable import (
    InvalidInput,
    TooLarge,
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
    serialize_profile,
    u_optimal,
    w_optimal,
)
from swapstable import generators, profile
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


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_random(3.5, 3, 1.0, 0),
        lambda: gen_random(3, 3.0, 1.0, 0),
        lambda: gen_random(3, 3, "0.5", 0),
        lambda: gen_random(3, 3, None, 0),
        lambda: gen_random("3", 3, 0.5, 0),
        lambda: gen_cyclic_latin(2.5),
        lambda: gen_cyclic_latin("4"),
        lambda: gen_example2(2.5),
    ],
)
def test_generators_refuse_non_integer_sizes_and_non_number_densities(make):
    with pytest.raises(InvalidInput):
        make()


def test_generators_build_from_the_converted_size():
    # a size with __index__ but no arithmetic is used as the int it names
    class Size:
        def __init__(self, n):
            self.n = n

        def __index__(self):
            return self.n

    assert gen_example2(Size(3)) == gen_example2(3)
    assert gen_cyclic_latin(Size(3)) == gen_cyclic_latin(3)
    assert gen_random(Size(3), Size(2), 0.5, 1) == gen_random(3, 2, 0.5, 1)


# sha256 over serialize_profile of every profile of the grid below,
# recorded while gen_random still called random.Random.shuffle; the grid
# covers empty and one-agent sides, rectangles both ways and densities 0, 1
GRID_SHA256 = "4d3dc5793245430aa63b50ee4e728736192ab2d669d84116cd08d63641ae819d"


def test_random_profiles_are_a_fixed_function_of_the_seed():
    h = hashlib.sha256()
    count = 0
    for n in (0, 1, 2, 5, 20, 60):
        for n_u, n_w in ((n, n), (n, n // 2 + 1), (n // 3 + 2, n)):
            for density in (0, 0.1, 0.5, 1.0):
                for seed in (0, 1, 29, 2**31 - 1):
                    h.update(serialize_profile(gen_random(n_u, n_w, density, seed)).encode())
                    count += 1
    assert count == 288
    assert h.hexdigest() == GRID_SHA256


def test_shuffle_draws_as_random_shuffle_does():
    # the same list, and the generator left where shuffle leaves it
    for seed in (0, 1, 7, 29, 2**31 - 1):
        for length in range(71):
            ref, rng = random.Random(seed), random.Random(seed)
            want, got = list(range(length)), list(range(length))
            ref.shuffle(want)
            generators._shuffle(got, rng.getrandbits)
            assert got == want, (seed, length)
            assert rng.getstate() == ref.getstate()


def test_generators_check_table_cap_before_building_lists(monkeypatch):
    # each generator below makes a 4 x 4 profile, 16 agent pairs; the cap
    # is read at call time, and over it no list reaches validation
    made = (
        lambda: gen_random(4, 4, 0.5, seed=0),
        lambda: gen_cyclic_latin(4),
        lambda: gen_example2(2),
    )
    monkeypatch.setattr(profile, "TABLE_CAP", 16)
    assert [p.n_u * p.n_w for p in (make() for make in made)] == [16, 16, 16]

    def no_lists(*args):
        raise AssertionError("lists built past the cap")

    monkeypatch.setattr(profile, "TABLE_CAP", 15)
    monkeypatch.setattr(generators, "validate_profile", no_lists)
    # gen_random shuffles its lists through _shuffle before validating them
    monkeypatch.setattr(generators, "_shuffle", no_lists)
    for make in made:
        with pytest.raises(TooLarge, match=r"4 x 4 agent pairs; .* at most 15 \(TABLE_CAP\)"):
            make()


def test_lattice_fixture_search_succeeds():
    p = gen_example1_fixture()
    assert p is not None
    assert p.n_u == p.n_w == 4
    assert len(list(enumerate_stable_bf(p))) == 5
    assert gen_example1_fixture() == p
