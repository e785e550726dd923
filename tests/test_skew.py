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
    assert cyclic_skew_morphisms(n) == brute_force_skew_morphisms(h)


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
    skew._cyclic_skews.cache_clear()
    try:
        with pytest.raises(CapacityError, match="more than 1 leaves"):
            cyclic_skew_morphisms(12)
    finally:
        skew._cyclic_skews.cache_clear()


def test_refusal_comes_before_any_search(monkeypatch):
    # Z28 is within budget at periods 1, 2, 4 and 7 but not at 14
    def no_search(n, q):
        raise AssertionError(f"searched period {q} before refusing")

    monkeypatch.setattr(skew, "_increment_vectors", no_search)
    skew._cyclic_skews.cache_clear()
    try:
        with pytest.raises(CapacityError, match="at period 14"):
            cyclic_skew_morphisms(28)
    finally:
        skew._cyclic_skews.cache_clear()


def test_skew_list_is_a_fresh_list():
    first = cyclic_skew_morphisms(9)
    first.clear()
    assert len(cyclic_skew_morphisms(9)) == 10


def test_bruteforce_cap():
    with pytest.raises(CapacityError):
        brute_force_skew_morphisms(make_cyclic(12))
