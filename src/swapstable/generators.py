"""Deterministic fixtures and seeded random instances.

The crown-like family (gen_example2) has a unique stable matching whose
egalitarian cost grows as n²−1 while one swap away a cost-(n+1) matching
becomes stable; the four-agent instance (gen_example3) has a unique,
non-perfect stable matching that one swap turns perfect; the cyclic Latin
square is the extremal family for robustness (its diagonal matching is
(n−1)-robust).  gen_example1_fixture is a fixed 4x4 profile whose five
stable matchings form the lattice of the paper's first example.
"""

import random

from .errors import InvalidInput, check_integer
from .profile import Matching, _check_pair_count, validate_profile


def gen_example2(n):
    """Crown family on sides {a_0..a_{n-1}, x_1..x_n} / {b_0..b_{n-1}, y_1..y_n}.

    a_i wants b_i then b_{i+1 (mod n)}; x_i wants y_i then b_1..b_{n-1};
    b_0 ranks a_0 over a_{n-1}; b_i (i ≥ 1) ranks a_{i-1} first, then every
    x, then a_i; y_i only accepts x_i.  Needs n ≥ 2.
    """
    n = check_integer(n, "n")
    if n < 2:
        raise InvalidInput("gen_example2 needs n >= 2")
    _check_pair_count(2 * n, 2 * n)
    u_names = ["a%d" % i for i in range(n)] + ["x%d" % i for i in range(1, n + 1)]
    w_names = ["b%d" % j for j in range(n)] + ["y%d" % i for i in range(1, n + 1)]
    u_lists = []
    for i in range(n):
        u_lists.append([i, (i + 1) % n])
    for i in range(1, n + 1):
        u_lists.append([n + i - 1] + list(range(1, n)))
    w_lists = [[0, n - 1]]
    for j in range(1, n):
        w_lists.append([j - 1] + list(range(n, 2 * n)) + [j])
    for i in range(1, n + 1):
        w_lists.append([n + i - 1])
    return validate_profile(u_lists, w_lists, u_names, w_names)


def example2_stable_matching(n):
    """The unique stable matching of gen_example2(n): a_i-b_i and x_i-y_i."""
    pairs = [(i, i) for i in range(2 * n)]
    return Matching.from_pairs(2 * n, 2 * n, pairs)


def example2_rotated_matching(n):
    """The cheap near-stable matching: a_i-b_{i+1} and x_i-y_i."""
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(n + k, n + k) for k in range(n)]
    return Matching.from_pairs(2 * n, 2 * n, pairs)


def gen_example3():
    """Four agents: a1: b1; a2: b1 b2; b1: a2 a1; b2: a2."""
    return validate_profile(
        [[0], [0, 1]],
        [[1, 0], [1]],
        ["a1", "a2"],
        ["b1", "b2"],
    )


def gen_cyclic_latin(n):
    """Complete n x n profile where u_i ranks w_{i+k} at position k.

    Every unmatched pair of the diagonal matching has rank sum exactly n,
    which makes the diagonal top-choice matching (n−1)-robust and the
    profile position-wise distinct.
    """
    n = check_integer(n, "n")
    if n < 1:
        raise InvalidInput("gen_cyclic_latin needs n >= 1")
    _check_pair_count(n, n)
    u_lists = [[(i + k) % n for k in range(n)] for i in range(n)]
    w_lists = [[(j + k) % n for k in range(n)] for j in range(n)]
    return validate_profile(u_lists, w_lists)


def _shuffle(lst, getrandbits):
    """Shuffle lst in place exactly as random.Random.shuffle does.

    CPython's shuffle is Durstenfeld's Fisher-Yates loop (CACM Algorithm
    235, 1964): for i from len - 1 down to 1 it swaps lst[i] with lst[r],
    where r < i + 1 comes from drawing (i + 1).bit_length() bits and
    redrawing while r > i.  Running that loop here skips the Python-level
    _randbelow call that shuffle makes per element; the draws, taken from
    getrandbits in the same order, give the same list.
    """
    for i in range(len(lst) - 1, 0, -1):
        k = (i + 1).bit_length()
        r = getrandbits(k)
        while r > i:
            r = getrandbits(k)
        lst[i], lst[r] = lst[r], lst[i]


def gen_random(n_u, n_w, density, seed):
    """Seeded random profile; each cross pair acceptable with prob density.

    Draws from random.Random(seed), in this order: one random() per pair
    (u_i, w_j), i outer and j inner, the pair acceptable when it is below
    density (so acceptability is mutual by construction); then a shuffle
    of each U agent's acceptable set, u_0 first; then one of each W
    agent's, w_0 first, whose set starts in index order.  Each shuffle is
    random.Random.shuffle's loop (see _shuffle).  The same arguments
    always give the same profile.
    """
    try:
        ok = 0 <= density <= 1
    except TypeError:
        ok = False
    if not ok:
        raise InvalidInput("density must be a number within [0, 1], got %r" % (density,))
    n_u, n_w = check_integer(n_u, "n_u"), check_integer(n_w, "n_w")
    if n_u < 0 or n_w < 0:
        raise InvalidInput("side sizes must be nonnegative")
    _check_pair_count(n_u, n_w)
    rng = random.Random(seed)
    rand, getrandbits = rng.random, rng.getrandbits
    cols = range(n_w)
    u_lists = [[j for j in cols if rand() < density] for _ in range(n_u)]
    w_lists = [[] for _ in cols]
    for i, lst in enumerate(u_lists):
        for j in lst:
            w_lists[j].append(i)
    for lst in u_lists:
        _shuffle(lst, getrandbits)
    for lst in w_lists:
        _shuffle(lst, getrandbits)
    return validate_profile(u_lists, w_lists)


def gen_example1_fixture():
    """Complete 4x4 profile whose stable matchings form a five-element lattice.

    The five stable matchings are M1 < M3 < {M4, M5} < M2: M1 is
    u_optimal, M2 pairs u_k with w_k (every W agent's first choice) and is
    the only 1-robust one.  A search over the orderings compatible with
    each agent's lattice-path partners found these lists; they are fixed
    here, and the tests check each fact against the brute-force oracle.
    """
    return validate_profile(
        [[1, 2, 0, 3], [2, 3, 1, 0], [3, 0, 2, 1], [0, 1, 3, 2]],
        [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
        ["u1", "u2", "u3", "u4"],
        ["w1", "w2", "w3", "w4"],
    )
