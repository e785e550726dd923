import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cimlab import maps
from cimlab.errors import MapValidationError
from cimlab.groups import GroupIsomorphism, automorphisms, make_abelian, make_cyclic
from cimlab.maps import (
    apply_group_automorphism,
    connection_subgroup,
    identity_component,
    is_antibalanced,
    is_balanced,
    is_connected,
    is_skew_morphism,
    isomorphism_code,
    make_map,
    preserves_relation,
    skew_power_function,
    ternary_relation,
)
from cimlab.perms import left_regular_representation
from conftest import face_profile


def lemma_orbit_map():
    z9 = make_cyclic(9)
    rot, x = [], 1
    for _ in range(6):
        rot.append(x)
        x = 5 * x % 9
    return make_map(z9, rot)


# ------------------------------------------------------------- validation

def test_make_map_units(z8):
    m = make_map(z8, (1, 3, 5, 7))
    assert m.rotation == (1, 3, 5, 7)


def test_make_map_canonical_phase(z8):
    m = make_map(z8, (5, 7, 1, 3))
    assert m.rotation == (1, 3, 5, 7)


def test_make_map_rejects_asymmetric(z8):
    with pytest.raises(MapValidationError) as err:
        make_map(z8, (1, 2, 3))
    assert err.value.reason == "s-not-symmetric"


def test_make_map_rejects_identity(z8):
    with pytest.raises(MapValidationError) as err:
        make_map(z8, (0, 4))
    assert err.value.reason == "identity-in-s"


def test_make_map_rejects_duplicates(z8):
    with pytest.raises(MapValidationError) as err:
        make_map(z8, (1, 7, 1))
    assert err.value.reason == "duplicate-entry"


@pytest.mark.parametrize("rotation", [(-1, 1, 7, -7), (9,), (1, 7, 12), (8,)],
                         ids=["negative", "nine", "twelve", "eight"])
def test_make_map_rejects_elements_outside_the_group(z8, rotation):
    # a negative index would alias a real element: (-1, 1, 7, -7) reads as (7, 1, 7, 1)
    with pytest.raises(MapValidationError) as err:
        make_map(z8, rotation)
    assert err.value.reason == "element-out-of-range"


def test_make_map_range_check_uses_the_group_order():
    h = make_abelian([2, 4])
    with pytest.raises(MapValidationError) as err:
        make_map(h, (9, 3))
    assert err.value.reason == "element-out-of-range"
    assert make_map(h, (7, h.inverse[7])).valency == 2


def test_two_element_map_over_klein(k4):
    m = make_map(k4, (1, 2))
    assert m.valency == 2


def test_single_involution_map(z8):
    m = make_map(z8, (4,))
    assert m.valency == 1
    assert not is_connected(m)


def test_canonicalization_idempotent(z8):
    m = make_map(z8, (1, 3, 5, 7))
    again = make_map(z8, m.rotation)
    assert again == m
    assert hash(again) == hash(m)


def test_map_equality_requires_same_group_object():
    m1 = make_map(make_cyclic(8), (1, 3, 5, 7))
    m2 = make_map(make_cyclic(8), (1, 3, 5, 7))
    assert m1 != m2  # distinct group objects
    z8 = make_cyclic(8)
    assert make_map(z8, (1, 3, 5, 7)) == make_map(z8, (3, 5, 7, 1))


def test_mirror_is_distinct(z8):
    m = make_map(z8, (1, 3, 5, 7))
    assert m.mirror().rotation == (1, 7, 5, 3)
    assert m.mirror() != m


# ------------------------------------------------------------ connectivity

def test_connected_units(z8):
    assert is_connected(make_map(z8, (1, 3, 5, 7)))


def test_disconnected_even_subset(z8):
    assert not is_connected(make_map(z8, (2, 6)))


def test_lemma_orbit_map_connected():
    assert is_connected(lemma_orbit_map())


def test_connected_map_is_its_own_component(z8):
    m = make_map(z8, (1, 3, 5, 7))
    component, members = identity_component(m)
    assert component is m
    assert members == tuple(range(8))


def test_identity_component_over_the_connection_subgroup():
    z16 = make_cyclic(16)
    m = make_map(z16, (2, 4, 12, 14))
    component, members = identity_component(m)
    assert members == (0, 2, 4, 6, 8, 10, 12, 14)
    # member rank i of K is element i of the component's group
    assert component.group.order == 8
    assert component.rotation == (1, 2, 6, 7)
    assert is_connected(component)
    for a, x in enumerate(members):
        for b, y in enumerate(members):
            assert members[component.group.table[a][b]] == z16.table[x][y]


def test_component_group_is_built_once_per_subgroup():
    z16 = make_cyclic(16)
    first, _ = identity_component(make_map(z16, (2, 14)))
    second, _ = identity_component(make_map(z16, (6, 10)))
    third, _ = identity_component(make_map(z16, (4, 12)))
    assert first.group is second.group
    assert third.group is not first.group and third.group.order == 4


def test_connection_subgroup_is_computed_once_per_map(monkeypatch, z8):
    # once per connection set: the cache is cleared, since earlier tests warm it
    maps._connection_profile.cache_clear()
    calls = []
    closure_of = maps.closure_of
    monkeypatch.setattr(maps, "closure_of", lambda g, seed: calls.append(seed) or closure_of(g, seed))
    m = make_map(z8, (2, 4, 6))
    assert connection_subgroup(m) == (0, 2, 4, 6)
    assert not is_connected(m)
    identity_component(m)
    identity_component(m)
    assert len(calls) == 1
    # another rotation of the same set finds its subgroup in the cache
    other = make_map(z8, (2, 6, 4))
    assert other.rotation != m.rotation
    assert connection_subgroup(other) == (0, 2, 4, 6)
    identity_component(other)
    assert len(calls) == 1


# ---------------------------------------------------------------- balance

def test_lemma_orbit_map_balanced():
    assert is_balanced(lemma_orbit_map())


def test_antibalanced_valency8_over_z16():
    z16 = make_cyclic(16)
    m = make_map(z16, (1, 15, 3, 5, 9, 7, 11, 13))
    assert is_antibalanced(m)
    assert not is_balanced(m)


def test_two_cycle_both_balanced_and_antibalanced():
    z5 = make_cyclic(5)
    m = make_map(z5, (1, 4))
    assert is_balanced(m)
    assert is_antibalanced(m)


# --------------------------------------------------------------- relation

def test_relation_size(z8):
    m = make_map(z8, (1, 3, 5, 7))
    assert len(ternary_relation(m).triples) == 8 * 4


def test_relation_contains_identity_triples(z8):
    m = make_map(z8, (1, 3, 5, 7))
    triples = ternary_relation(m).triples
    for i, s in enumerate(m.rotation):
        assert (0, s, m.rotation[(i + 1) % 4]) in triples


def test_left_translations_preserve_relation(z8):
    m = make_map(z8, (1, 3, 5, 7))
    r = ternary_relation(m)
    for p in left_regular_representation(z8).elements:
        assert preserves_relation(r, p)


def test_relation_transport_matches_automorphism_application(z9=make_cyclic(9)):
    m = lemma_orbit_map()
    for sigma in automorphisms(m.group):
        image = apply_group_automorphism(m, sigma)
        f = sigma.images
        transported = {(f[x], f[y], f[z]) for x, y, z in ternary_relation(m).triples}
        assert transported == ternary_relation(image).triples


# ---------------------------------------------------- automorphism action

def test_apply_identity_automorphism(z8):
    m = make_map(z8, (1, 3, 5, 7))
    ident = GroupIsomorphism(z8, z8, tuple(range(8)))
    assert apply_group_automorphism(m, ident) == m


def test_apply_mult3_gives_mirror(z8):
    m = make_map(z8, (1, 3, 5, 7))
    sigma = GroupIsomorphism(z8, z8, tuple(3 * x % 8 for x in range(8)))
    assert apply_group_automorphism(m, sigma).rotation == (1, 7, 5, 3)


def test_rotation_power_automorphism_fixes_map(z8):
    # x -> 5x restricts to rho^2 on the unit connection set
    m = make_map(z8, (1, 3, 5, 7))
    sigma = GroupIsomorphism(z8, z8, tuple(5 * x % 8 for x in range(8)))
    assert apply_group_automorphism(m, sigma) == m


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([5, 6, 8, 9, 12]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_automorphism_application_is_group_action(n, seed):
    h = make_cyclic(n)
    rng = random.Random(seed)
    cells = {}
    for x in range(1, n):
        cells[tuple(sorted({x, (-x) % n}))] = None
    chosen = [c for c in cells if rng.random() < 0.6] or [next(iter(cells))]
    members = sorted({x for c in chosen for x in c})
    rot = [members[0]] + rng.sample(members[1:], len(members) - 1)
    m = make_map(h, rot)
    auts = automorphisms(h)
    a, b = rng.choice(auts), rng.choice(auts)
    assert apply_group_automorphism(apply_group_automorphism(m, a), b) == \
        apply_group_automorphism(m, b.compose(a))


# ----------------------------------------------------------- skew morphisms

def test_automorphisms_are_skew(z9):
    for a in automorphisms(z9):
        assert is_skew_morphism(z9, a.images)
        power = skew_power_function(z9, a.images)
        assert power is not None
        assert all(p == 1 or a.images == tuple(range(9)) for p in power[1:])


def test_affine_gamma_not_skew_on_z9(z9):
    # gamma(x) = 4x + 1 moves the identity; setting g to the identity in
    # the defining law forces gamma to be a translation, which it is not
    gamma = tuple((4 * x + 1) % 9 for x in range(9))
    assert not is_skew_morphism(z9, gamma)


def test_proper_skew_morphism_on_z9(z9):
    # a skew-morphism of Z_9 that is not a group automorphism
    phi = (0, 2, 7, 6, 8, 4, 3, 5, 1)
    assert is_skew_morphism(z9, phi)
    assert skew_power_function(z9, phi) == (1, 3, 5, 1, 3, 5, 1, 3, 5)
    assert not all(
        phi[z9.table[a][b]] == z9.table[phi[a]][phi[b]]
        for a in range(9) for b in range(9)
    )


def test_skew_by_exhaustive_power_search(z8):
    # the stabilizer of the unit map: evens fixed, odds rotated
    phi = (0, 3, 2, 5, 4, 7, 6, 1)
    assert is_skew_morphism(z8, phi)
    power = skew_power_function(z8, phi)
    assert power is not None
    # non-multiplicative scramble fails
    bad = (0, 3, 1, 2, 5, 4, 7, 6)
    assert not is_skew_morphism(z8, bad)


def test_a_map_that_is_not_a_permutation_is_not_skew():
    # x -> 2x is an endomorphism of Z4, so the skew law holds with power 1
    # everywhere, but it is not a bijection, so it is no skew-morphism
    z4 = make_cyclic(4)
    assert skew_power_function(z4, (0, 2, 0, 2)) is None
    assert not is_skew_morphism(z4, (0, 0, 0, 0))


def test_random_non_multiplicative_permutation_not_skew(z8):
    rng = random.Random(7)
    found_false = 0
    for _ in range(20):
        rest = list(range(1, 8))
        rng.shuffle(rest)
        if not is_skew_morphism(z8, (0, *rest)):
            found_false += 1
    assert found_false >= 15  # nearly all random permutations fail


# ------------------------------------------------------- isomorphism code

def test_isomorphism_code_invariant_under_cayley_iso(z8):
    for m in (make_map(z8, (1, 3, 5, 7)), make_map(z8, (1, 2, 7, 6)), make_map(z8, (2, 6))):
        code = isomorphism_code(m)
        assert code[0] == len(connection_subgroup(m))
        assert len(code[1]) == code[0] * m.valency
        for sigma in automorphisms(z8):
            assert isomorphism_code(apply_group_automorphism(m, sigma)) == code


def test_face_lengths_sum_to_arc_count(z8, k4):
    # the reference oracles' frozen prefilter counts every arc once
    for m in (make_map(z8, (1, 3, 5, 7)), make_map(k4, (1, 2)),
              make_map(z8, (2, 6))):
        profile = face_profile(m)
        assert sum(profile) == m.group.order * m.valency
