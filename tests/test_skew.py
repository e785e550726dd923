from math import gcd

import pytest

from cimlab import skew
from cimlab.errors import CapacityError
from cimlab.groups import automorphisms, make_cyclic
from cimlab.maps import is_skew_morphism
from cimlab.perms import perm_order
from cimlab.skew import brute_force_skew_morphisms, cyclic_skew_morphisms


@pytest.mark.parametrize("n", range(3, 10))
def test_fast_enumeration_matches_bruteforce(n):
    h = make_cyclic(n)
    assert list(cyclic_skew_morphisms(n)) == brute_force_skew_morphisms(h)


@pytest.mark.parametrize("n", range(3, 10))
def test_order_equals_generator_orbit_length(n):
    # the premise behind the periodic-increment enumeration
    for phi in brute_force_skew_morphisms(make_cyclic(n)):
        orbit, x = 1, phi[1]
        while x != 1:
            orbit += 1
            x = phi[x]
        assert perm_order(phi) == orbit


@pytest.mark.parametrize("n", [11, 12, 13, 15, 16])
def test_enumeration_contains_all_automorphisms(n):
    h = make_cyclic(n)
    found = set(cyclic_skew_morphisms(n))
    for a in automorphisms(h):
        assert a.images in found


@pytest.mark.parametrize("n", [10, 11, 12, 13, 14, 15])
def test_everything_enumerated_is_skew(n):
    h = make_cyclic(n)
    for phi in cyclic_skew_morphisms(n):
        assert is_skew_morphism(h, phi)


def test_known_counts():
    # automorphism-only orders (gcd(n, phi(n)) = 1) and two richer ones
    assert len(cyclic_skew_morphisms(11)) == 10
    assert len(cyclic_skew_morphisms(13)) == 12
    assert len(cyclic_skew_morphisms(15)) == 8
    assert len(cyclic_skew_morphisms(9)) == 10
    assert len(cyclic_skew_morphisms(8)) == 6


def test_leaf_budget_is_honoured_after_a_cached_call(monkeypatch):
    assert len(cyclic_skew_morphisms(12)) == 8
    monkeypatch.setattr(skew, "DEFAULT_LEAF_BUDGET", 1)
    skew.cyclic_skew_morphisms.cache_clear()
    try:
        with pytest.raises(CapacityError, match="more than 1 leaves"):
            cyclic_skew_morphisms(12)
    finally:
        skew.cyclic_skew_morphisms.cache_clear()


def test_refusal_comes_before_any_search(monkeypatch):
    # Z28 is within budget at periods 1, 2, 4 and 7 but not at 14
    def no_search(n, q):
        raise AssertionError(f"searched period {q} before refusing")

    monkeypatch.setattr(skew, "_increment_vectors", no_search)
    skew.cyclic_skew_morphisms.cache_clear()
    try:
        with pytest.raises(CapacityError, match="at period 14"):
            cyclic_skew_morphisms(28)
    finally:
        skew.cyclic_skew_morphisms.cache_clear()


def test_skew_list_is_the_cached_tuple():
    # a tuple, so no caller can change the value every later caller reads
    first = cyclic_skew_morphisms(9)
    assert isinstance(first, tuple)
    assert cyclic_skew_morphisms(9) is first


def test_bruteforce_cap():
    with pytest.raises(CapacityError):
        brute_force_skew_morphisms(make_cyclic(12))


def unfiltered_increment_vectors(n, q):
    """``skew._increment_vectors`` frozen from before the orbit prefilter."""
    totals = [d for d in range(1, n) if gcd(d, n) == q]
    prefix = []

    def grow(s, used_residues):
        if len(prefix) == q - 1:
            for d in totals:
                if (d - s) % n:
                    yield prefix + [(d - s) % n]
            return
        for u in range(1, n):
            s2 = (s + u) % n
            bit = 1 << (s2 % q)
            if used_residues & bit:
                continue
            prefix.append(u)
            yield from grow(s2, used_residues | bit)
            prefix.pop()

    yield from grow(0, 1)


def unfiltered_cyclic_skews(n):
    """The period-q increment search as it stood before the orbit
    prefilter: every bijective candidate goes to ``is_skew_morphism``.
    Returns the sorted list and the number of candidates checked."""
    h = make_cyclic(n)
    results, checked = {tuple(range(n))}, 0
    for q in (q for q in range(1, n) if n % q == 0):
        for u in unfiltered_increment_vectors(n, q):
            psi, acc = [0] * n, 0
            for g in range(1, n):
                acc = (acc + u[(g - 1) % q]) % n
                if acc == 0:
                    break
                psi[g] = acc
            else:
                phi = tuple(psi)
                if len(set(phi)) == n and phi not in results:
                    checked += 1
                    if is_skew_morphism(h, phi):
                        results.add(phi)
    return sorted(results), checked


def test_orbit_prefilter_keeps_the_unfiltered_list(monkeypatch):
    # every increment psi(g+1) - psi(g) = psi^pi(g)(1) lies in psi's orbit
    # of 1; a candidate that leaves it is turned down before the law check,
    # which stays the only admission
    checked = []
    monkeypatch.setattr(skew, "is_skew_morphism", lambda h, phi: checked.append(phi)
                        or is_skew_morphism(h, phi))
    unfiltered = 0
    for n in range(1, 16):
        expected, count = unfiltered_cyclic_skews(n)
        # past the cache, so every candidate is searched again
        assert list(skew.cyclic_skew_morphisms.__wrapped__(n)) == expected, n
        unfiltered += count
    assert (len(checked), unfiltered) == (8452, 54937)
