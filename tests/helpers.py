"""Shared strategies and small utilities for the test suite."""

import random

from hypothesis import strategies as st

from swapstable import Agent, Matching, Side, SwapOp, validate_profile


@st.composite
def profiles(draw, max_side=4, min_side=0, complete=False):
    """Random valid profile; mutual acceptability holds by construction."""
    n_u = draw(st.integers(min_side, max_side))
    n_w = draw(st.integers(min_side, max_side))
    accept = [
        [complete or draw(st.booleans()) for _ in range(n_w)] for _ in range(n_u)
    ]
    u_lists = []
    for i in range(n_u):
        base = [j for j in range(n_w) if accept[i][j]]
        u_lists.append(list(draw(st.permutations(base))))
    w_lists = []
    for j in range(n_w):
        base = [i for i in range(n_u) if accept[i][j]]
        w_lists.append(list(draw(st.permutations(base))))
    return validate_profile(u_lists, w_lists)


def random_matching(p, rng, skip_chance=0.2):
    """A random valid (not necessarily stable) matching of p."""
    pairs = []
    free_w = set(range(p.n_w))
    order = list(range(p.n_u))
    rng.shuffle(order)
    for i in order:
        options = [j for j in p.u_lists[i] if j in free_w]
        if options and rng.random() >= skip_chance:
            j = rng.choice(options)
            pairs.append((i, j))
            free_w.discard(j)
    return Matching.from_pairs(p.n_u, p.n_w, pairs)


def blocking_by_definition(p, m):
    """Blocking pairs of m, sorted, from list positions: u_i and w_j, each
    listing the other, block when each puts the other above its partner;
    an unmatched agent puts everyone it lists above its partner."""
    out = []
    for i, lst in enumerate(p.u_lists):
        for j in sorted(lst):
            w_lst = p.w_lists[j]
            u_better = m.pu[i] < 0 or lst.index(j) < lst.index(m.pu[i])
            w_better = m.pw[j] < 0 or w_lst.index(i) < w_lst.index(m.pw[j])
            if u_better and w_better:
                out.append((i, j))
    return out


def egal_by_definition(p, m):
    """Sum over agents of the partner's list position, the list length when
    unmatched."""
    sides = ((p.u_lists, m.pu), (p.w_lists, m.pw))
    return sum(
        lst.index(k) if k >= 0 else len(lst)
        for lists, partners in sides
        for lst, k in zip(lists, partners)
    )


def random_profiles(count, n_u, n_w, density, seed_base=0):
    """Deterministic batch of gen_random instances."""
    from swapstable import gen_random

    return [gen_random(n_u, n_w, density, seed=seed_base + k) for k in range(count)]


def random_swap(p, rng):
    """A random adjacent transposition applicable to p, or None."""
    sized = [(Agent.u(i), lst) for i, lst in enumerate(p.u_lists) if len(lst) >= 2]
    sized += [(Agent.w(j), lst) for j, lst in enumerate(p.w_lists) if len(lst) >= 2]
    if not sized:
        return None
    owner, lst = rng.choice(sized)
    pos = rng.randrange(len(lst) - 1)
    wrap = Agent.w if owner.side == Side.U else Agent.u
    return SwapOp(owner, wrap(lst[pos]), wrap(lst[pos + 1]))


def make_rng(seed):
    return random.Random(seed)


def broken_profile_texts():
    """Seeded corpus of profile files parse_profile rejects, by name.

    Hand-written cases cover each diagnostic; the seeded ones apply two
    random edits each to a serialized gen_random(4, 4, 0.7, seed) profile.
    """
    from swapstable import gen_random, serialize_profile

    base = "profile v1\nside U: a\nside W: b\n"
    corpus = {
        "empty file": "",
        "wrong header": "# hi\n\nprofile v2\n",
        "no side lines": "profile v1\na: b\n",
        "missing side W": "profile v1\nside U: a\na:\n",
        "duplicate side U": "profile v1\nside U: a\nside U: c\nside W: b\na: b\nb: a\n",
        "unknown side": "profile v1\nside X: a\nside U: a\nside W: b\na: b\nb: a\n",
        "undeclared side-like label": base + "sidekick: b\na: b\nb: a\n",
        "no colon": base + "a\nb:\n",
        "whitespace label": base + "a c: b\na: b\nb: a\n",
        "duplicate list line": base + "a: b\nb: a\na: b\n",
        "missing list line": base + "a: b\n",
        "unknown token": base + "a: q\nb:\n",
        "same-side token": "profile v1\nside U: a c\nside W: b\na: c\nb:\nc:\n",
        "repeated token": base + "a: b b\nb: a\n",
        "colon in declared name": "profile v1\nside U: a:x\nside W: b\nb:\n",
        "colon in list token": base + "a: b:y\nb: a\n",
        "duplicate declared name": "profile v1\nside U: a a\nside W: b a\na: b\nb: a\n",
        "asymmetric pair on U side": base + "a: b\nb:\n",
        "asymmetric pair on W side": base + "a:\nb: a\n",
        "asymmetric pairs on both sides": (
            "profile v1\nside U: a b c\nside W: x y z\n"
            "a: z x\nb: y x\nc: x\nx: b\ny: a c\nz: b c\n"
        ),
        "side lines after list lines": "profile v1\na: b\nb: a\nside U: a\nside W: b\n",
        "comments, blank lines and CRLF": (
            "# kept\r\nprofile v1\r\n\r\nside U: a c\r\n  # indented\r\n"
            "side W: b\r\na: b b\r\n\r\nb: a c\r\nc: b\r\nc:\r\n"
        ),
        "many faults on one line": (
            "profile v1\nside U: a b\nside W: x y z\n"
            "a: q a:x b x x y\nb: y x\nx: a b\ny: y b b\n"
        ),
    }
    for seed in range(16):
        rng = random.Random(seed)
        lines = serialize_profile(gen_random(4, 4, 0.7, seed)).splitlines()
        names = lines[1].split()[2:] + lines[2].split()[2:]
        for _ in range(2):
            k = rng.randrange(3, len(lines))
            label, _, rest = lines[k].partition(":")
            tokens = rest.split()
            edit = rng.choice(
                ["drop", "repeat", "same side", "unknown", "colon", "delete line", "copy line"]
            )
            if edit in ("drop", "repeat", "same side", "unknown", "colon") and not tokens:
                edit = "delete line"
            if edit == "drop":
                del tokens[rng.randrange(len(tokens))]
            elif edit == "repeat":
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(tokens))
            elif edit == "same side":
                own = names[:4] if label in names[:4] else names[4:]
                tokens[rng.randrange(len(tokens))] = rng.choice(own)
            elif edit == "unknown":
                tokens[rng.randrange(len(tokens))] = "zz"
            elif edit == "colon":
                tokens[rng.randrange(len(tokens))] += ":x"
            if edit == "delete line":
                del lines[k]
            elif edit == "copy line":
                lines.append(lines[k])
            else:
                lines[k] = ("%s: %s" % (label, " ".join(tokens))).rstrip()
        corpus["seed %d" % seed] = "\n".join(lines) + "\n"
    return corpus
