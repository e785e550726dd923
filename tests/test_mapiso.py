import itertools
import random

import pytest

from cimlab import mapiso
from cimlab.ci import _rich_maps_cyclic
from cimlab.enumeration import cayley_classes, connection_sets, rotations_of
from cimlab.errors import DisconnectedMapError
from cimlab.groups import (
    GroupIsomorphism,
    automorphisms,
    closure_of,
    make_abelian,
    make_cyclic,
    make_semidirect,
)
from cimlab.maps import (
    CayleyMap,
    is_connected,
    is_skew_morphism,
    isomorphism_code,
    make_map,
    preserves_relation,
    ternary_relation,
)
from cimlab.mapiso import (
    MapMorphism,
    _propagate,
    _seed_alignments,
    are_cayley_isomorphic,
    bruteforce_map_isomorphism,
    map_automorphism_group,
    map_iso_exists,
    map_isomorphisms,
    stabilizer_automorphisms,
)
from cimlab.perms import (
    PermutationGroup,
    fixed_points,
    is_cyclic_permgroup,
    left_regular_representation,
    point_stabilizer,
    translate_table,
)
from conftest import negation_action, order8_groups, relabelled


def unit_map(z8):
    return make_map(z8, (1, 3, 5, 7))


def lemma_orbit_map():
    z9 = make_cyclic(9)
    rot, x = [], 1
    for _ in range(6):
        rot.append(x)
        x = 5 * x % 9
    return make_map(z9, rot)


def antibalanced_16_map():
    z16 = make_cyclic(16)
    return make_map(z16, (1, 15, 3, 5, 9, 7, 11, 13))


# ------------------------------------------------------------------ oracle

def aut_by_relation_stabilizer(m):
    """Brute-force oracle: all vertex permutations preserving the ternary
    relation (for |H| <= 8)."""
    n = m.group.order
    assert n <= 8
    r = ternary_relation(m)
    out = []
    for p in itertools.permutations(range(n)):
        if preserves_relation(r, p):
            out.append(p)
    return sorted(out)


# ----------------------------------------------------------- automorphisms

def test_aut_order_54_for_orbit_map():
    assert map_automorphism_group(lemma_orbit_map()).order == 54


def test_aut_order_32_for_antibalanced_16():
    assert map_automorphism_group(antibalanced_16_map()).order == 32


def test_aut_order_32_for_unit_map(z8):
    assert map_automorphism_group(unit_map(z8)).order == 32


def test_aut_requires_connected(z8):
    with pytest.raises(DisconnectedMapError):
        map_automorphism_group(make_map(z8, (2, 6)))


def explicit_automorphism_group(m, stab):
    # Aut(M) = translations times the stabilizer, built element by element
    table, n = m.group.table, m.group.order
    elems = [tuple(table[h][x] for x in phi) for h in range(n) for phi in stab]
    gens = [tuple(table[h]) for h in range(1, n)] + [p for p in stab if p != tuple(range(n))]
    return PermutationGroup.listed(n, tuple(sorted(set(elems))), gens)


@pytest.mark.parametrize("h", order8_groups() + [make_cyclic(9), make_cyclic(10)],
                         ids=["z8", "z2z4", "z2z2z2", "q8", "d4", "z9", "z10"])
def test_automorphisms_match_every_alignment_propagated(h):
    # the identity alignment is seeded, not propagated; a trivial stabilizer
    # gives the cached left-regular copy instead of a fresh group
    for s in connection_sets(h, h.order - 1):
        if len(closure_of(h, s)) != h.order:
            continue
        for rot in rotations_of(s):
            m = make_map(h, rot)
            k = m.valency
            stab = sorted(p for j in range(k) if (p := _propagate(m, m, 0, j)) is not None)
            assert stabilizer_automorphisms(m) == stab
            # the relation defines an automorphism without the engine; the
            # identity preserves it, so a trivial stabilizer is skipped
            if len(stab) > 1:
                relation = ternary_relation(m)
                assert all(preserves_relation(relation, p) for p in stab)
            aut, expected = map_automorphism_group(m), explicit_automorphism_group(m, stab)
            assert aut.elements == expected.elements
            assert aut.generators == expected.generators


def prime_divisors(n):
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))}


def test_extending_alignments_are_the_multiples_of_the_least():
    # the rich class representatives of Z13: 640 maps of valency up to 12,
    # whose least extending alignment runs from 1 to 6
    h = make_cyclic(13)
    rich, _ = _rich_maps_cyclic(h, 12)
    reps = [make_map(h, tuple(rot))
            for rot, orbit in cayley_classes(h, rich, mirror=True) if min(orbit) == rot]
    assert len(reps) == 640
    least = set()
    orders = set()
    for m in reps:
        k = m.valency
        found = {j: p for j in range(k) if (p := _propagate(m, m, 0, j)) is not None}
        g = min((j for j in found if j), default=k)
        least.add(g)
        orders.add(len(found))
        assert sorted(found) == list(range(0, k, g))
        stab = stabilizer_automorphisms(m)
        assert stab == sorted(found.values())
        relation = ternary_relation(m)
        assert all(preserves_relation(relation, p) for p in stab)
    assert least == {1, 2, 3, 4, 5, 6}
    # a stabilizer order with two primes makes the walk compose two automorphisms
    assert any(len(prime_divisors(order)) >= 2 for order in orders)


def propagations_per_map(monkeypatch):
    """(valency, alignments propagated, stabilizer) for every connected map
    of Z12 at valency <= 6 and of the five groups of order 8."""
    calls = []

    def counting_propagate(m1, m2, v0, a0):
        calls.append(a0)
        return _propagate(m1, m2, v0, a0)

    monkeypatch.setattr(mapiso, "_propagate", counting_propagate)
    z12 = make_cyclic(12)
    groups = [(z12, 6)] + [(h, h.order - 1) for h in order8_groups()]
    for h, max_valency in groups:
        for s in connection_sets(h, max_valency):
            if len(closure_of(h, s)) != h.order:
                continue
            for rot in rotations_of(s):
                m = make_map(h, rot)
                calls.clear()
                stab = stabilizer_automorphisms(m)
                yield m.valency, list(calls), stab


def test_stabilizer_propagates_only_proper_divisors_of_the_valency(monkeypatch):
    maps = 0
    for k, calls, _ in propagations_per_map(monkeypatch):
        assert all(0 < a < k and k % a == 0 for a in calls)
        assert len(calls) <= sum(1 for d in range(1, k) if k % d == 0)
        maps += 1
    assert maps > 1000


def test_stabilizer_walks_prime_powers_without_repeats(monkeypatch):
    trivial = 0
    for k, calls, stab in propagations_per_map(monkeypatch):
        assert len(calls) == len(set(calls))
        if len(stab) == 1:
            assert sorted(calls) == sorted(k // p for p in prime_divisors(k))
            trivial += 1
    assert trivial > 1000


def propagated_darts(m1, m2, v0, a0):
    """`_propagate`'s first pass, frozen from when `_verify` checked every
    extension a second time: the images its walk assigns when every dart it
    compares matches and every vertex is reached, or None."""
    g1, g2 = m1.group, m2.group
    n = g1.order
    rot1, rot2 = m1.rotation, m2.rotation
    k = len(rot1)
    pos1 = {s: i for i, s in enumerate(rot1)}
    pos2 = {s: i for i, s in enumerate(rot2)}
    mul1, mul2 = g1.table, g2.table
    inv1, inv2 = g1.inverse, g2.inverse
    images = [-1] * n
    align = [0] * n
    images[0] = v0
    align[0] = a0
    queue = [0]
    while queue:
        h = queue.pop()
        fh = images[h]
        a = align[h]
        row1 = mul1[h]
        row2 = mul2[fh]
        for i in range(k):
            s = rot1[i]
            d = rot2[(a + i) % k]
            v = row1[s]
            w = row2[d]
            if images[v] == -1:
                images[v] = w
                align[v] = (pos2[inv2[d]] - pos1[inv1[s]]) % k
                queue.append(v)
            elif images[v] != w:
                return None
    if -1 in images:
        return None
    return tuple(images)


def test_one_pass_extension_equals_the_two_pass_check():
    # every connected map, propagated at every alignment onto itself, onto
    # its own relabelled copy and onto a relabelled map of its valency drawn
    # by seed, connected or not; the rotations are carried through the
    # renaming, so the relabelled copy is isomorphic to the map. In 86 of
    # them a disconnected target matches every dart of a map that is not
    # one to one, which only the count of distinct images turns down
    z3, z5 = make_cyclic(3), make_cyclic(5)
    small = [make_cyclic(9), make_cyclic(10), make_cyclic(12), make_abelian([3, 3]),
             make_abelian([2, 6]), make_semidirect(z3, 2, negation_action(z3)),
             make_semidirect(z5, 2, negation_action(z5))]
    propagations = extensions = not_one_to_one = 0
    for seed, (h, max_valency) in enumerate([(h, h.order - 1) for h in order8_groups()]
                                            + [(h, 5) for h in small]):
        h2, new = relabelled(h, seed)
        draw = random.Random(seed)
        by_valency = {}
        for s in connection_sets(h, max_valency):
            by_valency.setdefault(len(s), []).extend(rotations_of(s))
        for k, rotations in by_valency.items():
            for rot in rotations:
                m = make_map(h, rot)
                if not is_connected(m):
                    continue
                drawn = draw.choice(rotations)
                for target in (m, make_map(h2, tuple(new[x] for x in rot)),
                               make_map(h2, tuple(new[x] for x in drawn))):
                    for a in range(k):
                        darts = propagated_darts(m, target, 0, a)
                        verified = darts is not None and mapiso._verify(m, target, darts)
                        images = _propagate(m, target, 0, a)
                        assert images == (darts if verified else None)
                        propagations += 1
                        extensions += images is not None
                        not_one_to_one += images is None and darts is not None
    assert (propagations, extensions, not_one_to_one) == (160896, 22321, 86)


def seeded_corpus():
    """(map, checked skew-morphisms of its group, their translate tables)
    for every rich map of Z7-Z14 at full valency, the rich class
    representatives of Z15 and every rich map of Z16 up to valency 8."""
    for n, max_valency in [(n, n - 1) for n in range(7, 16)] + [(16, 8)]:
        h = make_cyclic(n)
        rich, skews = _rich_maps_cyclic(h, max_valency)
        if n == 15:
            rich = [rot for rot, orbit in cayley_classes(h, rich, mirror=True)
                    if min(orbit) == rot]
        seeds = tuple(sorted(psi for psi in skews if is_skew_morphism(h, psi)))
        assert len(seeds) == len(skews)
        tables = tuple(map(translate_table, seeds))
        for rot in rich:
            yield CayleyMap(h, tuple(rot)), seeds, tables


def test_seeded_stabilizer_equals_the_propagated_one(monkeypatch):
    # a skew-morphism that rotates S by j is the automorphism of alignment
    # j, so the walk takes it instead of propagating j; the list must come
    # out the same, and each such skew must preserve the map's relation,
    # which defines an automorphism without the propagation engine
    calls = []

    def counting_propagate(m1, m2, v0, a0):
        calls.append(a0)
        return _propagate(m1, m2, v0, a0)

    monkeypatch.setattr(mapiso, "_propagate", counting_propagate)
    maps = propagated = served = rotating = 0
    for m, seeds, tables in seeded_corpus():
        calls.clear()
        plain = stabilizer_automorphisms(m)
        unseeded = len(calls)
        calls.clear()
        assert stabilizer_automorphisms(m, tables) == plain
        propagated += len(calls)
        served += unseeded - len(calls)
        rot, relation = m.rotation, None
        turns = {rot[j:] + rot[:j] for j in range(1, len(rot))}
        for psi in seeds:
            if tuple(psi[s] for s in rot) in turns:
                relation = relation or ternary_relation(m)
                assert psi in plain and preserves_relation(relation, psi)
                rotating += 1
        maps += 1
    # alignments the seeds served, alignments still propagated, and the
    # skews that rotate some map's S
    assert (maps, served, propagated, rotating) == (30080, 30306, 41433, 31406)


def frozen_seed_scan(rot, skews):
    """The seed scan of ``stabilizer_automorphisms`` as it stood while it
    mapped each psi over the rotation as a tuple; oracle for the translate
    scan in ``_seed_alignments``."""
    known = {}
    pos = {s: i for i, s in enumerate(rot)}
    for psi in skews:
        j = pos.get(psi[rot[0]])
        if j and tuple(map(psi.__getitem__, rot)) == rot[j:] + rot[:j]:
            known[j] = psi
    return known


def seed_scan_cases():
    """(group, rotations, permutations): the canonical skews of Z9-Z15 over
    their rich maps at full valency (Z15: the class representatives), and
    the automorphisms of relabelled Z9 and Z11 (seeds 0-2) over the
    relabelled images of the canonical rich maps."""
    for n in range(9, 16):
        h = make_cyclic(n)
        rich, skews = _rich_maps_cyclic(h, n - 1)
        if n == 15:
            rich = [rot for rot, orbit in cayley_classes(h, rich, mirror=True)
                    if min(orbit) == rot]
        yield h, [tuple(rot) for rot in rich], sorted(skews)
    for n in (9, 11):
        rich, _ = _rich_maps_cyclic(make_cyclic(n), n - 1)
        for seed in (0, 1, 2):
            g, new = relabelled(make_cyclic(n), seed)
            images = [tuple(new[x] for x in rot) for rot in rich]
            rotations = [rot[i:] + rot[:i] for rot in images for i in [rot.index(min(rot))]]
            yield g, rotations, [sigma.images for sigma in automorphisms(g)]


def test_translate_seed_scan_equals_the_tuple_scan():
    scans = hits = 0
    for h, rotations, perms in seed_scan_cases():
        tables = [translate_table(psi) for psi in perms]
        for rot in rotations:
            known = _seed_alignments(CayleyMap(h, rot), tables)
            assert known == frozen_seed_scan(rot, perms)
            scans += 1
            hits += len(known)
    # maps scanned, and alignments a permutation realised
    assert (scans, hits) == (30131, 31613)


def test_extension_onto_a_disconnected_map_is_one_to_one(z8):
    # the 8-cycle's darts all match when it winds twice round each 4-cycle
    # of <2>, so only the count of distinct images turns these down
    cycle, two_cycles = make_map(z8, (1, 7)), make_map(z8, (2, 6))
    for a in (0, 1):
        assert _propagate(cycle, two_cycles, 0, a) is None
    assert _propagate(cycle, cycle, 0, 0) == tuple(range(8))


def test_translations_always_automorphisms(z8, k4):
    for m in (unit_map(z8), make_map(k4, (1, 2)), lemma_orbit_map()):
        group = map_automorphism_group(m)
        hhat = left_regular_representation(m.group)
        assert hhat.is_subgroup_of(group)


def test_aut_order_divides_order_times_valency(z8, k4, q8):
    maps = [
        unit_map(z8),
        make_map(k4, (1, 2)),
        lemma_orbit_map(),
        make_map(z8, (1, 2, 6, 7)),
        make_map(q8, (1, 4, 3, 6)),
    ]
    for m in maps:
        group = map_automorphism_group(m)
        assert (m.group.order * m.valency) % group.order == 0


def test_aut_matches_relation_stabilizer_oracle(z8, k4, q8):
    maps = [
        unit_map(z8),
        make_map(z8, (1, 7, 5, 3)),
        make_map(k4, (1, 2)),
        make_map(k4, (1, 2, 3)),
        make_map(q8, (1, 4, 3, 6)),
        make_map(make_cyclic(6), (1, 5, 3)),
    ]
    for m in maps:
        got = list(map_automorphism_group(m).elements)
        assert got == aut_by_relation_stabilizer(m)


def test_stabilizer_properties(z8):
    # cyclic, faithful on S, restriction lies in the rotation's cycle group
    for m in (unit_map(z8), lemma_orbit_map(), antibalanced_16_map()):
        stab = point_stabilizer(map_automorphism_group(m), 0)
        assert is_cyclic_permgroup(stab)
        s = list(m.rotation)
        seen = set()
        for p in stab.elements:
            restriction = tuple(p[x] for x in s)
            assert restriction not in seen  # faithful on S
            seen.add(restriction)
        k = m.valency
        rho_powers = set()
        rot = m.rotation
        for j in range(k):
            rho_powers.add(tuple(rot[(rot.index(x) + j) % k] for x in s))
        assert seen <= rho_powers


# ------------------------------------------------------------ isomorphisms

def test_klein_vs_cyclic_valency2(k4):
    z4 = make_cyclic(4)
    m1 = make_map(k4, (1, 2))
    m2 = make_map(z4, (1, 3))
    isos = map_isomorphisms(m1, m2)
    assert isos
    for morphism in isos:
        morphism.validate()
    # same 4-cycle map, but no Cayley isomorphism between different groups
    assert are_cayley_isomorphic(m1, m2) is None


def test_isomorphisms_of_map_with_itself(z8):
    m = unit_map(z8)
    isos = map_isomorphisms(m, m)
    group = map_automorphism_group(m)
    assert sorted(i.images for i in isos) == list(group.elements)


def test_different_valency_no_isomorphism(z8):
    assert map_isomorphisms(unit_map(z8), make_map(z8, (1, 7))) == []


def test_composition_of_isomorphisms(z8):
    m1 = unit_map(z8)
    m2 = make_map(z8, (1, 7, 5, 3))
    isos12 = map_isomorphisms(m1, m2)
    isos21 = map_isomorphisms(m2, m1)
    all11 = {i.images for i in map_isomorphisms(m1, m1)}
    for a in isos12[:5]:
        for b in isos21[:5]:
            composed = tuple(b.images[x] for x in a.images)
            assert composed in all11


def test_morphism_validation_rejects_scramble(z8):
    m = unit_map(z8)
    bad = MapMorphism(m, m, (0, 2, 1, 3, 4, 5, 6, 7))
    with pytest.raises(ValueError):
        bad.validate()


def test_bruteforce_matches_extension_for_connected(z8, k4):
    pairs = [(unit_map(z8), make_map(z8, (1, 7, 5, 3)))]
    pairs += [(make_map(k4, (1, 2)), make_map(k4, rot)) for rot in ((1, 2), (1, 3), (2, 3))]
    for m1, m2 in pairs:
        assert (map_iso_exists(m1, m2) is not None) == \
            (bruteforce_map_isomorphism(m1, m2) is not None)


def test_bruteforce_handles_disconnected(z8):
    m1 = make_map(z8, (2, 6))
    m2 = make_map(z8, (2, 6))
    found = bruteforce_map_isomorphism(m1, m2)
    assert found is not None
    MapMorphism(m1, m2, found).validate()
    # disconnected 2-regular map vs a different component shape
    m3 = make_map(z8, (4,))
    assert bruteforce_map_isomorphism(m1, m3) is None


def groups_to_order_10():
    """The 13 groups of order at most 10 that have disconnected maps: every
    group of composite order up to 10."""
    z3, z5 = make_cyclic(3), make_cyclic(5)
    return ([make_cyclic(4), make_abelian([2, 2]), make_cyclic(6),
             make_semidirect(z3, 2, negation_action(z3))] + order8_groups()
            + [make_cyclic(9), make_abelian([3, 3]), make_cyclic(10),
               make_semidirect(z5, 2, negation_action(z5))])


def disconnected_class_keys(h):
    """Valency -> one map per Cayley class of the disconnected maps over h."""
    out = {}
    for k in range(1, h.order):
        rotations = sorted(bytes(rot) for s in connection_sets(h, k) if len(s) == k
                           for rot in rotations_of(s))
        out[k] = [m for m in (make_map(h, rot) for rot, _ in cayley_classes(h, rotations))
                  if not is_connected(m)]
    return out


def assert_agrees_with_bruteforce(m1, m2):
    found = map_iso_exists(m1, m2)
    assert (found is None) == (bruteforce_map_isomorphism(m1, m2) is None), (m1, m2)
    if found is not None:
        MapMorphism(m1, m2, found).validate()
    return found is not None


def test_component_path_agrees_with_bruteforce_within_each_group():
    groups = groups_to_order_10()
    assert len(groups) == 13
    pairs = isomorphic = 0
    for h in groups:
        for maps in disconnected_class_keys(h).values():
            for m1, m2 in itertools.combinations_with_replacement(maps, 2):
                pairs += 1
                isomorphic += assert_agrees_with_bruteforce(m1, m2)
    # 41 classes, each paired with itself, and 16 pairs of distinct classes
    assert (pairs, isomorphic) == (57, 49)


def test_component_path_agrees_with_bruteforce_across_order8_groups():
    keys = [disconnected_class_keys(h) for h in order8_groups()]
    pairs = isomorphic = 0
    for a, b in itertools.combinations(keys, 2):
        for k, maps in a.items():
            for m1, m2 in itertools.product(maps, b[k]):
                pairs += 1
                isomorphic += assert_agrees_with_bruteforce(m1, m2)
    assert (pairs, isomorphic) == (68, 58)


def test_isomorphism_code_decides_isomorphism():
    # every map of valency <= 3 over the order-8 groups and a relabelled copy
    # of each, against the first map of each code: equal codes then join
    # isomorphic maps and unequal ones part maps that are not, for every pair
    groups = [g for h in order8_groups() for g in (h, relabelled(h, 0)[0])]
    by_valency = {}
    for h in groups:
        for s in connection_sets(h, 3):
            for rot in rotations_of(s):
                m = make_map(h, rot)
                by_valency.setdefault(m.valency, []).append((m, isomorphism_code(m)))
    pairs = isomorphic = across = disconnected = 0
    for maps in by_valency.values():
        leaders = {}
        for m, code in maps:
            leaders.setdefault(code, m)
        for m, code in maps:
            disconnected += not is_connected(m)
            for leader_code, leader in leaders.items():
                found = bruteforce_map_isomorphism(m, leader) is not None
                assert found == (map_iso_exists(m, leader) is not None), (m, leader)
                assert found == (code == leader_code), (m, leader)
                pairs += 1
                isomorphic += found
                across += found and m.group is not leader.group
    assert (pairs, isomorphic, across, disconnected) == (2222, 372, 272, 176)


def test_component_isomorphism_reaches_every_coset():
    # Z16 with S = {2, 4, 12, 14} is two copies of a map over Z8, and
    # Z4xZ4 with S = {1, 3} is four 4-cycles: past any brute-force cap
    z16 = make_cyclic(16)
    m1 = make_map(z16, (2, 4, 12, 14))
    m2 = make_map(z16, tuple(3 * x % 16 for x in m1.rotation))
    found = map_iso_exists(m1, m2)
    assert found is not None
    MapMorphism(m1, m2, found).validate()
    assert map_iso_exists(m1, make_map(z16, (2, 12, 4, 14))) is None
    z4sq = make_abelian([4, 4])
    cycles = make_map(z4sq, (1, 3))
    assert map_iso_exists(cycles, make_map(make_cyclic(16), (4, 12))) is not None
    # equal valency, but components of orders 4 and 8
    assert map_iso_exists(cycles, make_map(z16, (2, 14))) is None
    assert map_iso_exists(make_map(z4sq, (1, 2, 3)), make_map(z4sq, (1, 8, 3))) is None


# ------------------------------------------------------- cayley isomorphism

def test_cayley_iso_after_automorphism(z8):
    from cimlab.maps import apply_group_automorphism

    m = unit_map(z8)
    sigma = GroupIsomorphism(z8, z8, tuple(3 * x % 8 for x in range(8)))
    image = apply_group_automorphism(m, sigma)
    witness = are_cayley_isomorphic(m, image)
    assert witness is not None
    witness.validate()


def test_unit_map_and_mirror_cayley_isomorphic(z8):
    # negation carries (1,3,5,7) to (1,7,5,3)
    m1 = unit_map(z8)
    m2 = make_map(z8, (1, 7, 5, 3))
    witness = are_cayley_isomorphic(m1, m2)
    assert witness is not None
    # both x -> 3x and x -> 7x carry one rotation to the other
    assert witness.images in {
        tuple(3 * x % 8 for x in range(8)),
        tuple(7 * x % 8 for x in range(8)),
    }
    # independent check of the witness
    rot2 = m2.rotation
    nxt2 = {rot2[i]: rot2[(i + 1) % 4] for i in range(4)}
    for i, s in enumerate(m1.rotation):
        nxt = m1.rotation[(i + 1) % 4]
        assert witness.images[nxt] == nxt2[witness.images[s]]


def test_cayley_iso_needs_isomorphic_groups(q8, z8):
    m_q = make_map(q8, (1, 4, 3, 6))
    m_z = unit_map(z8)
    assert are_cayley_isomorphic(m_q, m_z) is None


# ---------------------------------------------- identity stabilizer blocks

def test_fix_of_stabilizer_subgroups_is_block(z8):
    for m in (unit_map(z8), lemma_orbit_map()):
        group = map_automorphism_group(m)
        stab = point_stabilizer(group, 0)
        assert is_cyclic_permgroup(stab)
        from cimlab.perms import closure, is_block

        seen = set()
        for p in stab.elements:
            sub = closure([p])
            if sub.elements in seen:
                continue
            seen.add(sub.elements)
            assert is_block(group, fixed_points(list(sub.elements)))
