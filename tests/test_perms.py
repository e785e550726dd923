import itertools
from math import gcd

import pytest

from cimlab import ci, mapiso, perms
from cimlab.errors import CapacityError
from cimlab.groups import is_cyclic_group, make_abelian, make_cyclic, make_generalized_quaternion
from cimlab.perms import (
    are_conjugate_subgroups,
    closure,
    compose,
    conjugate_subgroup,
    fixed_points,
    identity_perm,
    is_block,
    is_cyclic_permgroup,
    is_regular,
    is_transitive,
    left_regular_representation,
    orbit_of,
    perm_order,
    point_stabilizer,
    regular_subgroups_isomorphic_to,
)
from cimlab.ci import _rich_maps_cyclic
from cimlab.cli import parse_group_spec
from cimlab.enumeration import cayley_classes, connection_sets, rotations_of
from cimlab.mapiso import map_automorphism_group, stabilizer_automorphisms
from cimlab.maps import CayleyMap, is_connected, make_map
from conftest import order8_groups


def eight_cycle():
    return tuple((i + 1) % 8 for i in range(8))


def mult_perm(n, u):
    return tuple(u * x % n for x in range(n))


# ------------------------------------------------------------------ oracle

def all_partitions(points):
    """Every set partition of ``points``; oracle for block systems."""
    points = list(points)
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def block_systems_by_partition_scan(g):
    """All nontrivial invariant equal-size partitions, by brute force."""
    out = []
    for part in all_partitions(range(g.degree)):
        if len(part) in (1, g.degree):
            continue
        sizes = {len(c) for c in part}
        if len(sizes) != 1:
            continue
        cells = [frozenset(c) for c in part]
        if all(frozenset(p[x] for x in c) in cells for c in cells for p in g.elements):
            out.append(tuple(sorted(tuple(sorted(c)) for c in cells)))
    return sorted(out)


def regular_subgroups_by_fpf_growth(g, h):
    """The regular-subgroup search as it stood before the cyclic branch
    built each subgroup once; oracle for ``regular_subgroups_isomorphic_to``.

    Its cyclic branch keeps every fixed-point-free element of order |h|,
    n-cycle or not, so it agrees with the current search only on groups
    without such elements; the automorphism groups of maps tested below
    have none. Its non-cyclic branch closes each candidate under products
    with every member before testing it. H^ is reported as the cached
    left-regular copy, generators and all.
    """
    n = h.order
    ident = identity_perm(n)
    hhat = left_regular_representation(h)
    if g.order == n:
        if g.elements == hhat.elements:
            return [hhat]
        return [g] if is_regular(g) and perms._perm_group_isomorphic(g, h) else []
    fpf = [p for p in g.elements if p != ident and all(p[i] != i for i in range(n))]
    if is_cyclic_group(h):
        found = {}
        for p in fpf:
            if perm_order(p) == n:
                found.setdefault(closure([p]).elements, p)
        return [hhat if key == hhat.elements else perms.PermutationGroup(n, (found[key],), key)
                for key in sorted(found)]

    def grow(members, p):
        elems, frontier, gens = set(members) | {p}, [p], list(members) + [p]
        while frontier:
            nxt = []
            for a in frontier:
                for b in gens:
                    for c in (perms.compose(a, b), perms.compose(b, a)):
                        if c not in elems:
                            if len(elems) >= n:
                                return None
                            elems.add(c)
                            nxt.append(c)
            frontier = nxt
        return elems

    fpf_set = set(fpf)
    start = frozenset({ident})
    seen, results, frontier = {start}, {}, [(start, ())]
    while frontier:
        nxt = []
        for members, gens in frontier:
            for p in fpf:
                if p in members:
                    continue
                grown = grow(members, p)
                if grown is None or len(grown) > n or n % len(grown):
                    continue
                if any(q != ident and q not in fpf_set for q in grown):
                    continue
                key = frozenset(grown)
                if key in seen:
                    continue
                seen.add(key)
                if len(grown) == n:
                    sub = perms.PermutationGroup(n, gens + (p,), tuple(sorted(grown)))
                    if sub.elements == hhat.elements:
                        results[sub.elements] = hhat
                    elif perms._perm_group_isomorphic(sub, h):
                        results[sub.elements] = sub
                else:
                    nxt.append((key, gens + (p,)))
        frontier = nxt
    return [results[k] for k in sorted(results)]


# ----------------------------------------------------------------- closure

def test_closure_identity():
    g = closure([identity_perm(5)])
    assert g.order == 1


def test_closure_eight_cycle():
    g = closure([eight_cycle()])
    assert g.order == 8
    assert closure(g.generators).elements == g.elements


def test_closure_idempotent():
    g = closure([eight_cycle(), mult_perm(8, 3)])
    again = closure(g.elements)
    assert again.elements == g.elements


def test_closure_z16_with_mult9():
    z16 = make_cyclic(16)
    hhat = left_regular_representation(z16)
    g = closure(list(hhat.generators) + [mult_perm(16, 9)])
    assert g.order == 32


def test_closure_cap():
    with pytest.raises(CapacityError):
        closure([eight_cycle(), mult_perm(8, 3)], cap=10)


def test_closure_rejects_a_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        closure([(0, 0, 1)])


# ------------------------------------------------------ regularity, orbits

def test_left_regular_is_regular(q8=make_generalized_quaternion(8)):
    hhat = left_regular_representation(q8)
    assert hhat.order == 8
    assert is_regular(hhat)
    assert point_stabilizer(hhat, 0).order == 1
    assert closure(hhat.generators).elements == hhat.elements


def test_left_regular_z8_contains_eight_cycle():
    z8 = make_cyclic(8)
    hhat = left_regular_representation(z8)
    assert eight_cycle() in hhat.element_set


def test_q8_regular_rep_has_fpf_involution():
    q8 = make_generalized_quaternion(8)
    hhat = left_regular_representation(q8)
    invols = [p for p in hhat.elements if perm_order(p) == 2]
    assert len(invols) == 1
    assert all(p[i] != i for p in invols for i in range(8))


def test_stabilizer_of_nonregular_group():
    z8 = make_cyclic(8)
    g = closure([eight_cycle(), mult_perm(8, 5)])
    assert is_transitive(g)
    assert not is_regular(g)
    stab = point_stabilizer(g, 0)
    assert stab.order == 2


def test_gamma_regular_on_z9():
    gamma = tuple((4 * x + 1) % 9 for x in range(9))
    g = closure([gamma])
    assert is_regular(g)
    assert g.order == 9


def test_orbit_stabilizer(q8=make_generalized_quaternion(8)):
    z8 = make_cyclic(8)
    for g in (closure([eight_cycle(), mult_perm(8, 3)]),
              left_regular_representation(q8)):
        for w in range(g.degree):
            assert g.order == len(orbit_of(g, w)) * point_stabilizer(g, w).order


# ------------------------------------------------------------ fixed points

def test_fixed_points_identity():
    assert fixed_points([identity_perm(6)]) == frozenset(range(6))


def test_fixed_points_mult5_mod8():
    assert fixed_points([mult_perm(8, 5)]) == frozenset({0, 2, 4, 6})


def test_fixed_points_fpf_involution():
    q8 = make_generalized_quaternion(8)
    hhat = left_regular_representation(q8)
    invol = next(p for p in hhat.elements if perm_order(p) == 2)
    assert fixed_points([invol]) == frozenset()


# ----------------------------------------------------------------- blocks

def test_whole_set_and_singletons_are_blocks():
    g = closure([eight_cycle()])
    assert is_block(g, range(8))
    assert is_block(g, [3])


def test_translation_coset_is_block():
    g = closure([eight_cycle()])
    assert is_block(g, [0, 4])
    assert is_block(g, [0, 2, 4, 6])
    assert not is_block(g, [0, 1])


def blocks_containing(g, point):
    """Every block of g through ``point``, by testing all subsets with ``is_block``."""
    others = [x for x in range(g.degree) if x != point]
    return [frozenset((point,) + extra)
            for r in range(len(others) + 1)
            for extra in itertools.combinations(others, r)
            if is_block(g, (point,) + extra)]


def test_block_systems_match_partition_scan():
    for gens in ([eight_cycle()], [eight_cycle(), mult_perm(8, 3)],
                 [mult_perm(8, 1)[1:] + (0,), mult_perm(8, 5)]):
        g = closure(gens)
        if not is_transitive(g):
            continue
        # a block through 0 is exactly a cell through 0 of an invariant partition
        cells = {frozenset(c) for blocks in block_systems_by_partition_scan(g)
                 for c in blocks if 0 in c}
        nontrivial = {b for b in blocks_containing(g, 0) if 1 < len(b) < g.degree}
        assert nontrivial == cells


def test_primitive_group_has_no_blocks():
    five_cycle = tuple((i + 1) % 5 for i in range(5))
    g = closure([five_cycle, mult_perm(5, 2)])  # order 20, primitive
    assert block_systems_by_partition_scan(g) == []
    assert sorted(map(len, blocks_containing(g, 0))) == [1, 5]


def test_block_sizes_divide_degree():
    # in a regular group the blocks through the identity are the subgroups
    z12 = make_cyclic(12)
    g = left_regular_representation(z12)
    sizes = sorted(len(b) for b in blocks_containing(g, 0))
    assert sizes == [1, 2, 3, 4, 6, 12]


# ----------------------------------------------- regular subgroup search

def test_regular_subgroups_z9_semidirect():
    z9 = make_cyclic(9)
    hhat = left_regular_representation(z9)
    alpha = mult_perm(9, 5)
    g = closure(list(hhat.generators) + [alpha])
    assert g.order == 54
    regs = regular_subgroups_isomorphic_to(g, z9)
    elems = {r.elements for r in regs}
    assert hhat.elements in elems
    gamma = tuple((4 * x + 1) % 9 for x in range(9))
    assert closure([gamma]).elements in elems


def test_regular_subgroups_of_regular_group():
    z8 = make_cyclic(8)
    hhat = left_regular_representation(z8)
    regs = regular_subgroups_isomorphic_to(hhat, z8)
    assert len(regs) == 1
    assert regs[0].elements == hhat.elements


def test_the_trivial_group_is_its_own_regular_subgroup():
    # the search starts from the trivial subgroup, which at degree 1 is
    # already regular
    z1 = make_cyclic(1)
    hhat = left_regular_representation(z1)
    assert regular_subgroups_isomorphic_to(hhat, z1) == [hhat]


def test_regular_subgroups_elementary_contains_tau_family():
    z3sq = make_abelian([3, 3])
    hhat = left_regular_representation(z3sq)
    # beta(x, y) = (x + y, y) on index i = 3x + y
    beta = tuple((((i // 3 + i % 3) % 3) * 3 + i % 3) for i in range(9))
    g = closure(list(hhat.generators) + [beta])
    assert g.order == 27
    regs = regular_subgroups_isomorphic_to(g, z3sq)

    def tau(a, b):
        return tuple((((i // 3) + a * (i % 3) + b) % 3) * 3 + ((i % 3) + a) % 3
                     for i in range(9))

    t_set = frozenset(tau(a, b) for a in range(3) for b in range(3))
    assert t_set in {frozenset(r.elements) for r in regs}


def test_regular_subgroups_wrong_type_absent():
    # the quaternion regular representation contains no Klein-regular subgroup
    q8 = make_generalized_quaternion(8)
    k4sq = make_abelian([2, 4])
    hhat = left_regular_representation(q8)
    assert regular_subgroups_isomorphic_to(hhat, k4sq) == []


def test_cyclic_search_needs_an_n_cycle():
    # (0 1 2 3)(4 5 6)(7 8 9)(10 11) is fixed-point-free of order 12 but not
    # a 12-cycle, so no cyclic subgroup of this intransitive group is regular
    a = (1, 2, 3, 0, 5, 6, 4, 8, 9, 7, 11, 10)
    b = (0, 1, 2, 3, 5, 6, 4, 7, 8, 9, 10, 11)
    g = closure([a, b])
    assert g.order == 36
    assert regular_subgroups_isomorphic_to(g, make_cyclic(12)) == []


def fresh_automorphism_group(m):
    """Aut(m) built anew, not taken from the cache that hands every map with
    one stabilizer the same group, so that each map's search runs afresh."""
    return mapiso._automorphism_group.__wrapped__(m.group, tuple(stabilizer_automorphisms(m)))


def connected_map_automorphism_groups(h, max_valency):
    for s in connection_sets(h, max_valency):
        for rotation in rotations_of(s):
            m = make_map(h, rotation)
            if is_connected(m):
                yield fresh_automorphism_group(m)


@pytest.mark.parametrize(
    "h, max_valency",
    [(h, 7) for h in order8_groups()] + [(make_cyclic(9), 8), (make_cyclic(12), 5)],
    ids=["z8", "z2z4", "z2z2z2", "q8", "d4", "z9", "z12"],
)
def test_search_matches_the_fpf_growth_oracle(h, max_valency):
    nontrivial = 0
    for g in connected_map_automorphism_groups(h, max_valency):
        nontrivial += g.order > h.order
        found = [(r.elements, r.generators) for r in regular_subgroups_isomorphic_to(g, h)]
        expected = [(r.elements, r.generators) for r in regular_subgroups_by_fpf_growth(g, h)]
        assert found == expected
    assert nontrivial > 0


def regular_subgroups_breadth_first(g, h):
    """The non-cyclic branch of ``regular_subgroups_isomorphic_to`` as it
    stood before the search by point cosets, as (elements, generators)
    pairs; oracle for that search. It adjoins every semiregular candidate
    to every subgroup found so far, level by level, and keeps the first
    generators that reach each subgroup. H^ is reported with the
    generators of the cached left-regular copy."""
    n = h.order
    hhat = left_regular_representation(h)
    ident = identity_perm(n)
    candidates = []
    for p in g.elements:
        lengths = {len(c) for c in perms.cycles_of(p)}
        if len(lengths) == 1 and n % lengths.pop() == 0 and p != ident:
            candidates.append(p)
    allowed = set(candidates)

    def grow(members, gens):
        elems, pending = set(members), [gens[-1]]
        while pending:
            r = pending.pop()
            if r in elems:
                continue
            if len(elems) + len(members) > n:
                return None
            for m in members:
                c = compose(m, r)
                if c not in allowed:
                    return None
                elems.add(c)
            pending.extend(compose(r, s) for s in gens)
        return elems

    start = frozenset({ident})
    seen, results, frontier = {start}, {}, [(start, ())]
    while frontier:
        nxt = []
        for members, gens in frontier:
            for p in candidates:
                if p in members:
                    continue
                grown = grow(members, gens + (p,))
                if grown is None or n % len(grown):
                    continue
                key = frozenset(grown)
                if key in seen:
                    continue
                seen.add(key)
                if len(grown) < n:
                    nxt.append((key, gens + (p,)))
                    continue
                sub = perms.PermutationGroup(n, gens + (p,), tuple(sorted(grown)))
                if sub.elements == hhat.elements:
                    results[sub.elements] = hhat.generators
                elif perms._perm_group_isomorphic(sub, h):
                    results[sub.elements] = sub.generators
        frontier = nxt
    return sorted(results.items())


def normal_translations_of_coprime_index(g, h):
    """Whether g names the search generators of the left translations H^ among
    its generators, conjugates each of them into H^ by each generator, and
    has |g|/|h| prime to |h|: checked from g's generators and order alone."""
    n = h.order
    hhat = left_regular_representation(h)
    ts = perms._search_generators(hhat.elements)
    return (set(ts) <= set(g.generators) and gcd(g.order // n, n) == 1
            and all(compose(compose(x, t), perms.inverse_perm(x)) in hhat
                    for x in g.generators for t in ts))


@pytest.mark.parametrize("spec, max_valency, nontrivial, settled", [
    ("abelian:2,6", 6, 198, 0),
    ("semidirect:cyclic:6,2,neg", 6, 456, 0),
    ("semidirect:cyclic:3,4,neg", 6, 186, 0),
    ("abelian:2,2,2", 7, 314, 272),
    ("quaternion:8", 7, 90, 24),
    ("abelian:3,3", 8, 228, 204),
], ids=["z2z6", "d6", "z3z4", "z2z2z2", "q8", "z3z3"])
def test_search_matches_the_breadth_first_search(spec, max_valency, nontrivial, settled):
    # the maps with a nontrivial stabilizer, and those among them where H^ is
    # normal of index prime to |h|, which the search treats like the others
    h = parse_group_spec(spec)
    counts = [0, 0]
    for g in connected_map_automorphism_groups(h, max_valency):
        if g.order == h.order:
            continue
        counts[0] += 1
        counts[1] += normal_translations_of_coprime_index(g, h)
        assert searched(g, h) == regular_subgroups_breadth_first(g, h)
    assert counts == [nontrivial, settled]


def test_search_finds_the_normal_klein_group_alone_in_sym4():
    # Sym(4) is no map's automorphism group; of its Klein four subgroups only
    # the normal one is regular, and it is the left-regular copy of V4
    v4 = make_abelian([2, 2])
    g = closure([(1, 2, 3, 0), (1, 0, 2, 3)])
    assert g.order == 24
    found = searched(g, v4)
    assert found == regular_subgroups_breadth_first(g, v4)
    assert [elements for elements, _ in found] == [
        ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))]
    hhat = left_regular_representation(v4)
    assert found == [(hhat.elements, hhat.generators)]


def right_regular_representation(h):
    return closure([tuple(h.table[x][a] for x in h.elements()) for a in h.elements()])


def test_left_regular_copy_skips_the_isomorphism_test(monkeypatch):
    def refuse(*args):
        raise AssertionError("isomorphism test run on the left-regular copy")

    monkeypatch.setattr(perms, "perm_group_as_finite_group", refuse)
    monkeypatch.setattr(perms, "is_isomorphic", refuse)
    for h in order8_groups() + [make_cyclic(9), make_abelian([3, 3])]:
        g = left_regular_representation(h)
        assert regular_subgroups_isomorphic_to(g, h) == [g]


def test_right_regular_q8_takes_the_isomorphism_test(monkeypatch):
    # the search closes g's own elements and tests them once; the subgroup
    # it returns is a new group with g's elements, not g itself
    q8 = make_generalized_quaternion(8)
    g = right_regular_representation(q8)
    assert is_regular(g) and g.elements != left_regular_representation(q8).elements
    calls = []
    as_table = perms.perm_group_as_finite_group
    monkeypatch.setattr(perms, "perm_group_as_finite_group",
                        lambda sub: calls.append(sub.elements) or as_table(sub))
    [found] = regular_subgroups_isomorphic_to(g, q8)
    assert found.elements == g.elements and found is not g
    assert calls == [g.elements]


def test_the_search_hands_back_the_cached_left_regular_copy(monkeypatch):
    # H^ is held once: on freshly built groups the search derives no
    # generators for H^, and each H^ it finds is the cached copy itself
    derived = []
    search_generators = perms._search_generators
    monkeypatch.setattr(perms, "_search_generators",
                        lambda elements: derived.append(elements) or search_generators(elements))

    def cases():
        for h in order8_groups():
            yield from ((h, g) for g in connected_map_automorphism_groups(h, 7))
        for n, max_valency in ((11, 10), (13, 12)):
            h = make_cyclic(n)
            rich, _ = _rich_maps_cyclic(h, max_valency)
            for rot, orbit in cayley_classes(h, rich, mirror=True):
                if min(orbit) == rot:
                    yield h, fresh_automorphism_group(CayleyMap(h, tuple(rot)))

    translations, searches = set(), 0
    for h, g in cases():
        hhat = left_regular_representation(h)
        translations.add(hhat.elements)
        [found] = [r for r in regular_subgroups_isomorphic_to(g, h) if r.elements == hhat.elements]
        assert found is hhat
        searches += g.order > h.order
    assert searches > 0 and derived
    assert not translations.intersection(derived)


def test_table_of_a_non_regular_group_is_refused():
    z8 = make_cyclic(8)
    g = map_automorphism_group(make_map(z8, (1, 3, 5, 7)))
    assert g.order == 32
    with pytest.raises(ValueError, match="not regular"):
        perms.perm_group_as_finite_group(g)


def test_regular_group_is_its_own_table(q8=make_generalized_quaternion(8)):
    g = right_regular_representation(q8)
    table = perms.perm_group_as_finite_group(g)
    assert table.table == g.elements
    for a, p in enumerate(g.elements):
        assert p[table.inverse[a]] == 0
        assert all(table.table[a][b] == g.elements.index(compose(p, g.elements[b]))
                   for b in range(8))


def test_left_regular_copy_of_another_group_is_not_taken():
    # the shortcut compares with the copy of h itself, not with any left-regular group
    z8 = make_cyclic(8)
    for other in order8_groups()[1:]:
        assert regular_subgroups_isomorphic_to(left_regular_representation(other), z8) == []
    assert regular_subgroups_isomorphic_to(
        left_regular_representation(z8), make_abelian([2, 2, 2])) == []


def test_left_regular_cache_is_bounded():
    for _ in range(200):
        left_regular_representation(make_cyclic(5))
    info = left_regular_representation.cache_info()
    assert info.maxsize == perms.REGULAR_REP_CACHE_SIZE
    assert info.currsize <= perms.REGULAR_REP_CACHE_SIZE


def test_element_set_is_built_once_and_lazily():
    g = closure([eight_cycle()])
    assert "element_set" not in vars(g)
    first = g.element_set
    assert first == frozenset(g.elements)
    assert g.element_set is first
    assert eight_cycle() in g


# ------------------------------------------ cyclic search against the walk

def test_cycles_of_leads_each_cycle_with_its_minimum_in_ascending_order():
    # ci._full_cycle_roots relies on this order to phase its rotations
    for p in itertools.permutations(range(6)):
        cycles = perms.cycles_of(p)
        assert all(c[0] == min(c) for c in cycles)
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
        assert sorted(x for c in cycles for x in c) == list(range(6))
        assert all(p[c[i - 1]] == c[i] for c in cycles for i in range(len(c)))


def cyclic_search_by_walk(g, n):
    """The cyclic branch ``regular_subgroups_isomorphic_to`` had before the
    search by point cosets took over cyclic h, as (elements, generators)
    pairs: one cyclic group per n-cycle, in sorted order, H^ with the
    generators of the cached left-regular copy. Oracle for that search on
    cyclic h."""
    hhat = left_regular_representation(make_cyclic(n))
    covered, found = set(), []
    for p in g.elements:
        if p in covered:
            continue
        j, length = p[0], 1
        while j:
            j = p[j]
            length += 1
        if length != n:
            continue
        sub = closure([p]).elements
        covered.update(sub)
        found.append((sub, hhat.generators if sub == hhat.elements else (p,)))
    return sorted(found)


def searched(g, h):
    return [(r.elements, r.generators) for r in regular_subgroups_isomorphic_to(g, h)]


@pytest.mark.parametrize("n, max_valency, classes", [(11, 10, 79), (13, 12, 640), (15, 12, 5350)])
def test_search_agrees_with_the_walk_on_rich_cyclic_maps(n, max_valency, classes):
    # every rich class representative here has H^ normal in Aut(M) with index
    # prime to n; Aut(M)'s elements are the sorted product of the translations
    # and the stabilizer
    h = make_cyclic(n)
    rich, _ = _rich_maps_cyclic(h, max_valency)
    reps = [rot for rot, orbit in cayley_classes(h, rich, mirror=True) if min(orbit) == rot]
    assert len(reps) == classes
    for rot in reps:
        m = CayleyMap(h, tuple(rot))
        aut = fresh_automorphism_group(m)
        assert searched(aut, h) == cyclic_search_by_walk(aut, n)
        stab = stabilizer_automorphisms(m)
        assert aut.elements == tuple(sorted(
            tuple(h.table[x][y] for y in phi) for x in range(n) for phi in stab))


def test_search_agrees_with_the_walk_on_z16_rivals(monkeypatch):
    # up to valency 8 the multipliers x -> ux seed the same 2,432 rich
    # rotations as Z16's 20 skew-morphisms, whose list takes seconds to
    # build; here H^ need not be normal, and some rivals are not conjugate
    h = make_cyclic(16)
    hhat = left_regular_representation(h)
    monkeypatch.setattr(ci, "cyclic_skew_morphisms",
                        lambda n: [mult_perm(n, u) for u in range(1, n, 2)])
    rich, _ = _rich_maps_cyclic(h, 8)
    reps = [rot for rot, orbit in cayley_classes(h, rich, mirror=True) if min(orbit) == rot]
    assert (len(rich), len(reps)) == (2432, 320)
    several = rivals = 0
    for rot in reps:
        aut = fresh_automorphism_group(CayleyMap(h, tuple(rot)))
        regs = regular_subgroups_isomorphic_to(aut, h)
        assert [(r.elements, r.generators) for r in regs] == cyclic_search_by_walk(aut, 16)
        several += len(regs) > 1
        rivals += any(are_conjugate_subgroups(aut, r, hhat) is None for r in regs)
    assert (several, rivals) == (11, 7)


def with_translations(h, *extra):
    return closure(list(left_regular_representation(h).generators) + list(extra))


@pytest.mark.parametrize("n, build, count", [
    # Aut of the Z8 unit map, order 32: index 4 is not prime to 8
    (8, lambda h: map_automorphism_group(make_map(h, (1, 3, 5, 7))), 2),
    # H^ and x -> 5x, order 16: H^ is normal, but of index 2
    (8, lambda h: with_translations(h, mult_perm(8, 5)), 2),
    # Sym(5): index 24 is prime to 5, but a transposition does not normalize H^
    (5, lambda h: with_translations(h, (1, 0, 2, 3, 4)), 6),
    # x -> x + 2 and x -> 2x generate a group of order 21 without naming the
    # least 7-cycle, x -> x + 1
    (7, lambda h: closure([(2, 3, 4, 5, 6, 0, 1), mult_perm(7, 2)]), 1),
], ids=["z8-unit-map", "z8-times-5", "sym5", "z7-without-t"])
def test_search_walks_groups_the_shortcut_cannot_settle(n, build, count):
    h = make_cyclic(n)
    g = build(h)
    found = searched(g, h)
    assert len(found) == count
    assert found == cyclic_search_by_walk(g, n)


def test_shortcut_settles_a_normal_translation_group_of_prime_index():
    # AGL(1, 5) = H^ x| Z4: H^ is normal of index 4, prime to 5, so it is the
    # only regular subgroup of order 5
    z5 = make_cyclic(5)
    g = with_translations(z5, mult_perm(5, 2))
    assert g.order == 20
    hhat = left_regular_representation(z5)
    assert searched(g, z5) == cyclic_search_by_walk(g, 5) == [(hhat.elements, hhat.generators)]


# ---------------------------------------------------------------- conjugacy

def test_conjugate_to_itself():
    z8 = make_cyclic(8)
    hhat = left_regular_representation(z8)
    x = are_conjugate_subgroups(hhat, hhat, hhat)
    assert x is not None


def test_normal_distinct_subgroups_not_conjugate():
    z9 = make_cyclic(9)
    hhat = left_regular_representation(z9)
    g = closure(list(hhat.generators) + [mult_perm(9, 5)])
    gamma_group = closure([tuple((4 * x + 1) % 9 for x in range(9))])
    assert are_conjugate_subgroups(g, gamma_group, hhat) is None


def test_conjugation_witness_revalidates():
    z8 = make_cyclic(8)
    hhat = left_regular_representation(z8)
    g = closure(list(hhat.generators) + [mult_perm(8, 3)])
    sub = closure([eight_cycle()])
    for other in regular_subgroups_isomorphic_to(g, z8):
        x = are_conjugate_subgroups(g, sub, other)
        if x is not None:
            assert conjugate_subgroup(sub, x).elements == other.elements


# ------------------------------- regular copies under a cyclic stabilizer

def regular_copies_conjugate(g, h):
    """Every regular subgroup of g isomorphic to h is conjugate in g to the
    left-regular copy of h."""
    hhat = left_regular_representation(h)
    regs = regular_subgroups_isomorphic_to(g, h)
    assert hhat.elements in {r.elements for r in regs}
    return all(are_conjugate_subgroups(g, r, hhat) is not None for r in regs)


def test_cyclic_stabilizer_check_z8_order32():
    z8 = make_cyclic(8)
    hhat = left_regular_representation(z8)
    # the vertex stabilizer of the valency-4 unit map: evens fixed, odds cycled
    skew = (0, 3, 2, 5, 4, 7, 6, 1)
    g = closure(list(hhat.generators) + [skew])
    assert g.order == 32
    assert is_cyclic_permgroup(point_stabilizer(g, 0))
    assert point_stabilizer(g, 0).order == 4
    assert len(regular_subgroups_isomorphic_to(g, z8)) == 2
    assert regular_copies_conjugate(g, z8)


def test_cyclic_stabilizer_check_z8_semidirect_16_false():
    # adjoining the order-2 group automorphism x -> 5x instead gives an
    # order-16 group with two normal regular cyclic subgroups
    z8 = make_cyclic(8)
    hhat = left_regular_representation(z8)
    g = closure(list(hhat.generators) + [mult_perm(8, 5)])
    assert g.order == 16
    assert len(regular_subgroups_isomorphic_to(g, z8)) == 2
    assert not regular_copies_conjugate(g, z8)


def test_cyclic_stabilizer_check_regular_trivial():
    q8 = make_generalized_quaternion(8)
    assert regular_copies_conjugate(left_regular_representation(q8), q8)


def test_cyclic_stabilizer_check_lemma_witness_false():
    z9 = make_cyclic(9)
    hhat = left_regular_representation(z9)
    g = closure(list(hhat.generators) + [mult_perm(9, 5)])
    assert not regular_copies_conjugate(g, z9)


# -------------------------------------------------- fix(S) blocks property

def test_fixed_point_sets_are_blocks_for_cyclic_stabilizers():
    z8 = make_cyclic(8)
    hhat = left_regular_representation(z8)
    for extra in (mult_perm(8, 3), mult_perm(8, 5), mult_perm(8, 7)):
        g = closure(list(hhat.generators) + [extra])
        stab = point_stabilizer(g, 0)
        assert is_cyclic_permgroup(stab)
        seen = set()
        for p in stab.elements:
            sub = closure([p])
            key = sub.elements
            if key in seen:
                continue
            seen.add(key)
            fix = fixed_points(list(sub.elements))
            assert is_block(g, fix)
