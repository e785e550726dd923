import pytest

from cimlab.ci import babai_is_ci_map
from cimlab.constructions import (
    cyclic_2power_map,
    frobenius_map,
    odd_square_map,
    overlap_set,
    quaternion16_witness,
    z8_cim_maps,
)
from cimlab.errors import CimlabError, InvalidOrderError, PreconditionError
from cimlab.groups import (
    GroupIsomorphism,
    _hom_on_generated,
    closure_of,
    is_isomorphic,
    make_abelian,
    make_cyclic,
    make_generalized_quaternion,
)
from cimlab.maps import is_antibalanced, is_balanced, is_connected
from cimlab.mapiso import (
    are_cayley_isomorphic,
    map_automorphism_group,
    map_isomorphisms,
)
from cimlab.perms import (
    are_conjugate_subgroups,
    closure,
    compose,
    identity_perm,
    inverse_perm,
    is_regular,
    left_regular_representation,
    perm_order,
)

from conftest import two_step_formula


# ------------------------------------------------------------- odd squares

def test_odd_square_cyclic_p3():
    w = odd_square_map(3, "cyclic")
    w.revalidate()
    assert w.map.rotation == (1, 5, 7, 8, 4, 2)
    assert is_balanced(w.map)
    assert is_connected(w.map)
    aut = map_automorphism_group(w.map)
    assert aut.order == 54
    assert w.ambient.element_set == aut.element_set  # ambient is all of Aut
    gamma = next(iter(w.rival.generators))
    assert gamma == tuple((4 * x + 1) % 9 for x in range(9))
    assert perm_order(gamma) == 9
    assert is_regular(w.rival)
    hhat = left_regular_representation(w.map.group)
    assert are_conjugate_subgroups(aut, w.rival, hhat) is None
    assert babai_is_ci_map(w.map, aut=aut).verdict is False


def test_odd_square_elementary_p3():
    w = odd_square_map(3, "elementary")
    w.revalidate()
    assert w.map.group.order == 9
    assert is_balanced(w.map)
    aut = map_automorphism_group(w.map)
    assert aut.order == 54
    assert w.rival.order == 9
    assert is_regular(w.rival)
    assert all(perm_order(p) in (1, 3) for p in w.rival.elements)
    hhat = left_regular_representation(w.map.group)
    assert are_conjugate_subgroups(aut, w.rival, hhat) is None
    assert babai_is_ci_map(w.map, aut=aut).verdict is False


def test_odd_square_p5_cyclic():
    w = odd_square_map(5, "cyclic")
    w.revalidate()
    assert w.map.group.order == 25
    assert w.map.valency == 10
    assert w.ambient.order == 25 * 10


def test_odd_square_rejects_non_prime():
    for bad in (4, 9, 2):
        with pytest.raises(InvalidOrderError):
            odd_square_map(bad)


# ----------------------------------------------------------- cyclic 2-power

def test_cyclic_2power_n4_exact_objects():
    w = cyclic_2power_map(4)
    w.revalidate()
    assert w.map.group.order == 16
    assert list(w.map.rotation) == [1, 15, 3, 5, 9, 7, 11, 13]
    assert is_antibalanced(w.map)
    aut = map_automorphism_group(w.map)
    assert aut.order == 32
    assert w.rival.order == 16
    gen = next(iter(w.rival.generators))
    assert perm_order(gen) == 16
    hhat = left_regular_representation(w.map.group)
    assert are_conjugate_subgroups(aut, w.rival, hhat) is None
    assert babai_is_ci_map(w.map, aut=aut).verdict is False


def test_cyclic_2power_n5_verdict_false():
    w = cyclic_2power_map(5)
    w.revalidate()
    assert babai_is_ci_map(w.map).verdict is False


def test_cyclic_2power_overlap_profile():
    # the four elements reachable by six two-step walks follow the formula
    # {2, -2, 2 + half, -2 + half} for n >= 5; at n = 4 the connection set
    # is the full odd class, so every even x has overlap 8
    for n in (5, 6):
        assert overlap_set(cyclic_2power_map(n).map, 6) == two_step_formula(n)
    w4 = cyclic_2power_map(4)
    assert overlap_set(w4.map, 8) == frozenset(range(0, 16, 2))


def test_cyclic_2power_rejects_small_n():
    with pytest.raises(InvalidOrderError):
        cyclic_2power_map(3)


# ------------------------------------------------------------------- q16

def test_quaternion16_witness_objects(q16):
    q = quaternion16_witness()
    assert q.q16.order == 16
    q8_group = q.quaternion_subgroup.as_group()
    z8_group = q.cyclic_subgroup.as_group()
    assert is_isomorphic(q8_group, make_cyclic(8)) is None
    assert is_isomorphic(z8_group, make_cyclic(8)) is not None
    assert is_isomorphic(q8_group, z8_group) is None
    assert is_balanced(q.map_quaternion)
    assert map_automorphism_group(q.map_quaternion).order == 32
    isos = map_isomorphisms(q.map_quaternion, q.map_cyclic)
    assert isos
    assert are_cayley_isomorphic(q.map_quaternion, q.map_cyclic) is None
    q.isomorphism.validate()


def _frozen_automorphism_from_generators(h, gen_images):
    # reference: gen_images extended to an automorphism of h through the
    # homomorphism walk, without enumerating automorphisms(h)
    gens = sorted(gen_images)
    phi = _hom_on_generated(h, h, gens, [gen_images[g] for g in gens])
    if phi is None or len(phi) != h.order:
        return None
    return tuple(phi[x] for x in range(h.order))


def test_quaternion16_alpha_is_the_extension_of_its_generator_images():
    # rebuild the composite from the extended alpha and walk its orbit of
    # 0; the witness's relabelling is that walk, which fixes alpha
    q = quaternion16_witness()
    members = q.quaternion_subgroup.members
    assert members == closure_of(q.q16, [8, 2])  # <a, c^2>
    q8 = q.quaternion_subgroup.as_group()
    a_i, c2_i = members.index(8), members.index(2)
    alpha = _frozen_automorphism_from_generators(q8, {a_i: c2_i, c2_i: q8.inverse[a_i]})
    regular_gen = compose(tuple(q8.table[a_i]), alpha)
    lam, v = [], 0
    for _ in range(8):
        lam.append(v)
        v = regular_gen[v]
    assert sorted(lam) == list(range(8))
    assert q.isomorphism.images == tuple(lam)


# -------------------------------------------------------------- frobenius

def test_frobenius_z7_z3():
    z7 = make_cyclic(7)
    action = GroupIsomorphism(z7, z7, tuple(2 * x % 7 for x in range(7)))
    w = frobenius_map(3, z7, action, 1)
    w.revalidate()
    h = w.map.group
    assert h.order == 21
    assert w.map.valency == 6
    assert is_connected(w.map)
    assert w.ambient.order == 63

    # the rotation squared is conjugation by the complement generator
    rot = w.map.rotation
    k = len(rot)
    c = 7  # element (0, c)
    c_inv = h.inverse[c]
    for i, s in enumerate(rot):
        twice = rot[(i + 2) % k]
        assert twice == h.table[h.table[c_inv][s]][c]

    # the forward half lies in the coset cK, the inverses in c^-1 K
    fwd = [s for s in rot if s // 7 == 1]
    bwd = [s for s in rot if s // 7 == 2]
    assert len(fwd) == 3 and len(bwd) == 3
    assert {h.inverse[s] for s in fwd} == set(bwd)

    assert w.rival.order == 21
    assert is_regular(w.rival)
    hhat = left_regular_representation(h)
    assert are_conjugate_subgroups(w.ambient, w.rival, hhat) is None
    assert babai_is_ci_map(w.map).verdict is False


def test_frobenius_z2cubed_z3():
    k = make_abelian([2, 2, 2])
    # fix the first coordinate, rotate the plane below: order-3 action
    # on index bits (x, y, z) -> (x, z, x+y+z)? use a verified matrix:
    # (x, y, z) -> (x, z, y+z)
    images = []
    for i in range(8):
        x, y, z = (i >> 2) & 1, (i >> 1) & 1, i & 1
        images.append((x << 2) | (z << 1) | (y ^ z))
    action = GroupIsomorphism(k, k, tuple(images))
    action.validate()
    # seed with nonzero fixed part and nonzero rotated part: (1,1,0)
    seed = (1 << 2) | (1 << 1)
    w = frobenius_map(3, k, action, seed)
    w.revalidate()
    assert w.map.group.order == 24
    assert is_connected(w.map)
    assert babai_is_ci_map(w.map).verdict is False


def _frozen_small_generating_set(elems, degree):
    # reference: the first generators a greedy walk over the sorted
    # elements keeps, each one outside the closure of those before it
    gens = []
    have = {identity_perm(degree)}
    for p in sorted(elems):
        if p not in have:
            gens.append(p)
            have = set(closure(gens, cap=len(elems) + 1).elements)
            if len(have) == len(elems):
                break
    return tuple(gens) if gens else (identity_perm(degree),)


def _frozen_frobenius_rival(h, nk, m_ord):
    # reference: the rival listed element by element as hat(g) sigma^(-j),
    # j = g // |K|, with the greedy generators
    n = h.order
    c_inv = h.inverse[nk]
    sigma = tuple(h.table[h.table[c_inv][x]][nk] for x in range(n))
    sigma_inv = inverse_perm(sigma)
    sigma_pows = [identity_perm(n)]
    for _ in range(m_ord - 1):
        sigma_pows.append(compose(sigma_pows[-1], sigma_inv))
    elems = [compose(tuple(h.table[g]), sigma_pows[g // nk]) for g in range(n)]
    return tuple(sorted(elems)), _frozen_small_generating_set(elems, n)


FROBENIUS_K_GROUPS = [make_cyclic(n) for n in range(2, 22)] + [
    make_abelian(orders) for orders in ([2, 2], [3, 3], [2, 4], [2, 2, 2], [5, 5])
] + [make_generalized_quaternion(8)]


def test_frobenius_rival_equals_the_listed_one():
    # every valid input over these K, odd m >= 3 with |K| m <= 64, every
    # mult:u action (u x on element indices) and every seed
    valid = 0
    for k in FROBENIUS_K_GROUPS:
        nk = k.order
        for m_ord in range(3, 64 // nk + 1, 2):
            for u in range(1, nk):
                images = tuple(u * x % nk for x in range(nk))
                if sorted(images) != list(range(nk)):
                    continue
                action = GroupIsomorphism(k, k, images)
                for seed in range(1, nk):
                    try:
                        w = frobenius_map(m_ord, k, action, seed)
                    except (CimlabError, ValueError):
                        continue
                    valid += 1
                    elems, gens = _frozen_frobenius_rival(w.map.group, nk, m_ord)
                    assert w.rival.elements == elems
                    assert w.rival.generators == gens
    assert valid == 124


def test_frobenius_unfaithful_orbit_rejected():
    z7 = make_cyclic(7)
    ident = GroupIsomorphism(z7, z7, tuple(range(7)))
    with pytest.raises((PreconditionError, Exception)):
        frobenius_map(3, z7, ident, 1)


def test_frobenius_disconnected_rejected():
    k = make_abelian([2, 2, 2])
    images = []
    for i in range(8):
        x, y, z = (i >> 2) & 1, (i >> 1) & 1, i & 1
        images.append((x << 2) | (z << 1) | (y ^ z))
    action = GroupIsomorphism(k, k, tuple(images))
    # seed with zero fixed part: differences span only the rotated plane
    seed = 1 << 1
    with pytest.raises(PreconditionError) as err:
        frobenius_map(3, k, action, seed)
    assert err.value.kind == "generation-fails"


def test_frobenius_rejects_even_complement():
    z5 = make_cyclic(5)
    action = GroupIsomorphism(z5, z5, tuple(4 * x % 5 for x in range(5)))
    with pytest.raises(InvalidOrderError):
        frobenius_map(2, z5, action, 1)


# ------------------------------------------------------------------- z8

def test_z8_featured_maps():
    maps = z8_cim_maps()
    assert [m.rotation for m in maps] == [(1, 3, 5, 7), (1, 7, 5, 3)]
    for m in maps:
        assert is_antibalanced(m)
        assert not is_balanced(m)
        assert map_automorphism_group(m).order == 32
        assert babai_is_ci_map(m).verdict is True
