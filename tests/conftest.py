import random

import pytest

from cimlab.groups import (
    GroupIsomorphism,
    from_table,
    make_abelian,
    make_cyclic,
    make_generalized_quaternion,
    make_semidirect,
)
from cimlab.mapiso import _prime_divisors, _propagate, _seed_alignments
from cimlab.perms import _cyclic_subgroup, compose, identity_perm


def negation_action(g):
    return GroupIsomorphism(g, g, tuple(g.inverse))


def order8_groups():
    """Z8, Z2xZ4, Z2^3, Q8 and D4: the five groups of order 8."""
    z4 = make_cyclic(4)
    return [make_cyclic(8), make_abelian([2, 4]), make_abelian([2, 2, 2]),
            make_generalized_quaternion(8), make_semidirect(z4, 2, negation_action(z4))]


def relabelled(h, seed):
    """h with its non-identity elements renamed by a seeded permutation, as
    the benchmark's workloads rename them, and the renaming itself."""
    rest = list(range(1, h.order))
    random.Random(seed).shuffle(rest)
    new = [0] + rest
    table = [[0] * h.order for _ in range(h.order)]
    for a in range(h.order):
        for b in range(h.order):
            table[new[a]][new[b]] = new[h.table[a][b]]
    return from_table(table, h.name), new


def face_profile(m):
    """Sorted multiset of face lengths of the embedded map: the orbits of
    the arc permutation (h, s) -> (h s, rho(s^-1)). A frozen copy of the
    invariant the definitional oracle once prefiltered its isomorphism
    searches with, kept for the reference oracles in the tests."""
    g = m.group
    rot = m.rotation
    k = len(rot)
    nxt = {rot[i]: rot[(i + 1) % k] for i in range(k)}
    seen = set()
    lengths = []
    for h in g.elements():
        for s in rot:
            arc = (h, s)
            if arc in seen:
                continue
            length = 0
            while arc not in seen:
                seen.add(arc)
                hh, ss = arc
                arc = (g.table[hh][ss], nxt[g.inverse[ss]])
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths))


def composed_stabilizer(m, tables=()):
    """The identity-vertex stabilizer of a connected map as
    ``stabilizer_automorphisms`` found it before it assembled seeded
    stabilizers: the last automorphism of each prime's walk is composed
    into one generator, whose powers are listed. A frozen copy, the oracle
    for the seed assembly."""
    known = _seed_alignments(m, tables)
    k = m.valency
    generator = identity_perm(m.group.order)
    for p in _prime_divisors(k):
        kept, j = None, k // p
        while (found := known.get(j) or _propagate(m, m, 0, j)) is not None:
            kept = found
            if j % p:
                break
            j //= p
        if kept is not None:
            generator = compose(generator, kept)
    return sorted(_cyclic_subgroup(generator))


def two_step_formula(n):
    """{2, -2, 2 + 2^(n-1), -2 + 2^(n-1)} mod 2^n: the six-overlap set of
    the valency-8 witness over Z_(2^n), for n >= 5."""
    order, half = 2 ** n, 2 ** (n - 1)
    return frozenset(v % order for v in (2, -2, 2 + half, -2 + half))


@pytest.fixture(scope="session")
def z8():
    return make_cyclic(8)


@pytest.fixture(scope="session")
def z9():
    return make_cyclic(9)


@pytest.fixture(scope="session")
def k4():
    return make_abelian([2, 2])


@pytest.fixture(scope="session")
def z3sq():
    return make_abelian([3, 3])


@pytest.fixture(scope="session")
def q8():
    return make_generalized_quaternion(8)


@pytest.fixture(scope="session")
def q16():
    return make_generalized_quaternion(16)


@pytest.fixture(scope="session")
def s3():
    z3 = make_cyclic(3)
    return make_semidirect(z3, 2, negation_action(z3))


@pytest.fixture(scope="session")
def d4():
    z4 = make_cyclic(4)
    return make_semidirect(z4, 2, negation_action(z4))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running checks, excluded with -m 'not slow'"
    )
