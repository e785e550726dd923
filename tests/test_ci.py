import importlib.util
import pickle
import sys
from bisect import bisect_left
from itertools import chain, combinations, permutations, product
from pathlib import Path

import pytest

from cimlab import ci, maps, mapiso, perms
from cimlab.ci import (
    DEFINITIONAL_CAP,
    _rich_maps_cyclic,
    _valency_classes,
    babai_is_ci_map,
    cross_validate,
    definitional_is_ci_map,
    verify_cim_group,
    verify_connected_cim,
)
from cimlab.enumeration import (
    _aut_tables,
    _orbit,
    cayley_class_key,
    cayley_classes,
    connection_sets,
    rotations_of,
    total_map_count,
)
from cimlab.errors import CapacityError, UnsupportedReductionError
from cimlab.groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    automorphisms,
    closure_of,
    is_isomorphic,
    make_abelian,
    make_cyclic,
    make_generalized_quaternion,
    make_semidirect,
)
from cimlab.maps import (
    CayleyMap,
    apply_group_automorphism,
    connection_subgroup,
    identity_component,
    is_connected,
    is_skew_morphism,
    make_map,
)
from cimlab.mapiso import (
    are_cayley_isomorphic,
    bruteforce_map_isomorphism,
    map_automorphism_group,
    map_iso_exists,
    stabilizer_automorphisms,
)
from cimlab.perms import (
    PermutationGroup,
    compose,
    cycles_of,
    identity_perm,
    inverse_perm,
    left_regular_representation,
    perm_order,
    regular_subgroups_isomorphic_to,
    translate_table,
)
from cimlab.skew import cyclic_skew_morphisms
from conftest import (
    composed_stabilizer,
    face_profile,
    negation_action,
    order8_groups,
    relabelled,
)

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def all_maps(h, max_valency):
    return [make_map(h, rot) for s in connection_sets(h, max_valency)
            for rot in rotations_of(s)]


def benchmark_relabel(h, seed):
    """h relabelled exactly as the benchmark's workloads relabel it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.relabel(h, seed)


def swept_batches(monkeypatch, verify, h, *args, **kwargs):
    """Each sweep a verification starts, as its rotations and its seed
    tables, read through a stand-in ``_sweep`` that decides no map."""
    batches = []

    def record(h, rotations, workers, seeds=()):
        batches.append((list(rotations), seeds))
        yield from ()

    monkeypatch.setattr(ci, "_sweep", record)
    verify(h, *args, **kwargs)
    return batches


def swept_rotations(monkeypatch, verify, h, *args, **kwargs):
    """Every rotation a verification hands to its sweeps."""
    return [rot for rotations, _ in swept_batches(monkeypatch, verify, h, *args, **kwargs)
            for rot in rotations]


def swept_representatives(h, max_valency, monkeypatch):
    """The rotations the stabilizer strategy hands to its sweep."""
    return swept_rotations(monkeypatch, verify_connected_cim, h, max_valency,
                           strategy="stabilizer")


def aut_orbit(h, rotation):
    """The canonical-phase rotations of a rotation's Aut(h)-orbit, as tuples."""
    return set(map(tuple, _orbit(bytes(rotation), _aut_tables(h))))


def dihedral_orbit(h, rotation):
    """The orbit of a rotation under Aut(h) and mirror reversal."""
    orbit = aut_orbit(h, rotation)
    return orbit | {make_map(h, rot).mirror().rotation for rot in orbit}


def lemma_orbit_map():
    z9 = make_cyclic(9)
    rot, x = [], 1
    for _ in range(6):
        rot.append(x)
        x = 5 * x % 9
    return make_map(z9, rot)


# ------------------------------------------------------------- enumeration

def test_connection_sets_z8(z8):
    sets = connection_sets(z8, 7)
    assert len(sets) == 15
    cells = {frozenset({4}), frozenset({1, 7}), frozenset({2, 6}), frozenset({3, 5})}
    for s in sets:
        rest = set(s)
        used = [c for c in cells if c <= rest]
        assert set().union(*used) == rest


def test_total_map_count_z8_golden(z8):
    assert total_map_count(z8, 7) == 940


def test_valency_two_has_single_rotation(z8):
    maps = [m for m in all_maps(z8, 2) if m.valency == 2]
    by_set = {}
    for m in maps:
        by_set.setdefault(m.connection_set, []).append(m)
    for group in by_set.values():
        assert len(group) == 1


def test_enumeration_no_duplicates(z8):
    seen = set()
    for m in all_maps(z8, 7):
        assert m.rotation not in seen
        seen.add(m.rotation)
    assert len(seen) == 940


def assert_one_member_per_class_is_its_key(maps, key):
    # the class paths keep exactly the maps whose key is their own rotation
    members = {}
    for m in maps:
        members.setdefault(key(m), []).append(m.rotation)
    for k, rotations in members.items():
        assert rotations.count(k) == 1, k


@pytest.mark.parametrize("spec", ["z8", "z2z4", "z2z2z2", "q8", "d4"])
def test_class_key_is_the_rotation_of_one_member(spec, z8, q8, d4):
    h = {"z8": z8, "q8": q8, "d4": d4,
         "z2z4": make_abelian([2, 4]), "z2z2z2": make_abelian([2, 2, 2])}[spec]
    assert_one_member_per_class_is_its_key(all_maps(h, 7), cayley_class_key)


@pytest.mark.parametrize("n", [7, 9, 11])
def test_class_key_up_to_mirror_is_the_rotation_of_one_rich_map(n):
    h = make_cyclic(n)
    rich, _ = _rich_maps_cyclic(h, n - 1)
    assert_one_member_per_class_is_its_key(
        [make_map(h, rot) for rot in rich],
        lambda m: min(cayley_class_key(m), cayley_class_key(m.mirror())))


@pytest.mark.parametrize("n, seed, counts", [
    (7, 0, (21, 5)), (9, 0, (99, 18)), (11, 0, (745, 79)), (13, 0, (7380, 640)),
    # relabelled Z11 is the known label-dependence defect of the stabilizer
    # strategy; the orbit walk must select what the per-map keys select anyway
    (11, 1, (449, 48)), (11, 2, (400, 24)), (11, 3, (400, 24)),
])
def test_orbit_walk_selects_the_per_map_key_representatives(n, seed, counts, monkeypatch):
    h = benchmark_relabel(make_cyclic(n), seed)
    rich, _ = _rich_maps_cyclic(h, n - 1)
    per_map = [m.rotation for m in (make_map(h, rot) for rot in rich)
               if cayley_class_key(m) == m.rotation <= cayley_class_key(m.mirror())]
    reps = swept_representatives(h, n - 1, monkeypatch)
    assert reps == per_map
    assert (len(rich), len(reps)) == counts


@pytest.mark.parametrize("n", range(7, 14))
def test_rich_maps_are_closed_and_orbit_sizes_sum_to_maps_rich(n, monkeypatch):
    h = make_cyclic(n)
    rich, _ = _rich_maps_cyclic(h, n - 1)
    rotations = set(map(tuple, rich))
    orbits = [dihedral_orbit(h, rep) for rep in swept_representatives(h, n - 1, monkeypatch)]
    # distinct orbits are disjoint, so orbits inside the rich set whose sizes
    # sum to its size cover it: every Aut(H) x mirror image of a rich map is rich
    assert all(orbit <= rotations for orbit in orbits)
    assert sum(len(orbit) for orbit in orbits) == len(rich)


@pytest.mark.parametrize("h", order8_groups(), ids=lambda h: h.name)
def test_valency_batch_keys_are_the_per_map_keys(h):
    for valency in range(1, h.order):
        key, mates = _valency_classes(h, valency)
        maps = [m for m in all_maps(h, valency) if m.valency == valency]
        assert key == {bytes(m.rotation): bytes(cayley_class_key(m)) for m in maps}
        assert list(mates) == sorted(
            bytes(m.rotation) for m in maps if cayley_class_key(m) == m.rotation)
        assert all(k in keys for k, keys in mates.items())


def test_valency_batch_detects_a_class_leaving_it(monkeypatch):
    # a batch holds every map of its valency, so each Cayley class lies inside
    # it; dropping one member of a class of two or more must be noticed
    h = make_cyclic(7)
    rotations = [rot for s in connection_sets(h, 4) if len(s) == 4 for rot in rotations_of(s)]
    dropped = [rot for rot in rotations if len(aut_orbit(h, rot)) > 1]
    assert dropped
    for gone in dropped:
        monkeypatch.setattr(ci, "rotations_of",
                            lambda s, gone=gone: (r for r in rotations_of(s) if r != gone))
        with pytest.raises(RuntimeError, match="leaves its valency batch"):
            _valency_classes.__wrapped__(h, 4)


# ---------------------------------------------------------------- verdicts

def test_orbit_map_not_ci():
    report = babai_is_ci_map(lemma_orbit_map())
    assert report.verdict is False
    kinds = [w["kind"] for w in report.witnesses]
    assert "non-conjugate-regular-subgroup" in kinds
    assert "isomorphic-non-cayley-isomorphic-map" in kinds


def test_antibalanced_16_not_ci():
    z16 = make_cyclic(16)
    m = make_map(z16, (1, 15, 3, 5, 9, 7, 11, 13))
    report = babai_is_ci_map(m)
    assert report.verdict is False
    rival = next(w for w in report.witnesses
                 if w["kind"] == "non-conjugate-regular-subgroup")
    assert rival["order"] == 16


def test_unit_map_is_ci(z8):
    report = babai_is_ci_map(make_map(z8, (1, 3, 5, 7)))
    assert report.verdict is True


def test_babai_invariant_under_group_automorphisms(z8):
    for m in (make_map(z8, (1, 3, 5, 7)), lemma_orbit_map()):
        base = babai_is_ci_map(m).verdict
        for sigma in automorphisms(m.group):
            assert babai_is_ci_map(apply_group_automorphism(m, sigma)).verdict == base


def test_babai_invariant_under_mirror(z8):
    # a map and its mirror share the same automorphism group
    for m in (make_map(z8, (1, 3, 5, 7)), lemma_orbit_map(),
              make_map(z8, (1, 2, 6, 7))):
        assert babai_is_ci_map(m).verdict == babai_is_ci_map(m.mirror()).verdict


BABAI_STATS = ("aut_order", "stabilizer_order", "regular_subgroup_count")


def test_babai_invariant_under_relabelling():
    # a relabelled group is the same group, so every connected map over it
    # gets the verdict and the counts of the canonical map it came from
    compared = 0
    for h, max_valency in ([(h, 7) for h in order8_groups()]
                           + [(make_abelian([3, 3]), 5), (make_abelian([2, 6]), 5)]):
        canonical = {}
        for seed in (1, 2):
            h2, new = relabelled(h, seed)
            old = inverse_perm(new)
            for m2 in all_maps(h2, max_valency):
                if not is_connected(m2):
                    continue
                rotation = tuple(old[x] for x in m2.rotation)
                if rotation not in canonical:
                    canonical[rotation] = babai_is_ci_map(make_map(h, rotation))
                base, report = canonical[rotation], babai_is_ci_map(m2)
                assert report.verdict == base.verdict
                assert [report.stats[k] for k in BABAI_STATS] == [base.stats[k] for k in BABAI_STATS]
                compared += 1
    assert compared == 15484


def test_regular_witness_map_properties():
    m = lemma_orbit_map()
    report = babai_is_ci_map(m)
    other = next(w for w in report.witnesses
                 if w["kind"] == "isomorphic-non-cayley-isomorphic-map")
    witness = make_map(m.group, other["other"])
    assert map_iso_exists(m, witness) is not None
    assert are_cayley_isomorphic(m, witness) is None



def witness_map_by_multiplying_out(m, rival):
    """regular_witness_map as it was first written: the rival's table from
    its products, in the order identity first, then the others sorted."""
    ident = identity_perm(rival.degree)
    order_list = [ident] + [p for p in rival.elements if p != ident]
    index = {p: i for i, p in enumerate(order_list)}
    table = tuple(tuple(index[compose(a, b)] for b in order_list) for a in order_list)
    inverse = tuple(index[inverse_perm(a)] for a in order_list)
    chi = is_isomorphic(m.group, FiniteGroup(len(order_list), table, inverse, "perm-group"))
    lam = [order_list[chi.images[g]][0] for g in m.group.elements()]
    lam_inv = {v: g for g, v in enumerate(lam)}
    return make_map(m.group, tuple(lam_inv[v] for v in m.rotation))


def test_regular_witness_map_matches_the_multiplied_out_table():
    rivals = 0
    for h in order8_groups() + [make_cyclic(9), make_abelian([3, 3])]:
        hhat = left_regular_representation(h)
        for s in connection_sets(h, 5):
            for rot in rotations_of(s):
                m = make_map(h, rot)
                if not is_connected(m):
                    break
                for r in regular_subgroups_isomorphic_to(map_automorphism_group(m), h):
                    if r.elements != hhat.elements:
                        rivals += 1
                        assert ci.regular_witness_map(m, r) == witness_map_by_multiplying_out(m, r)
    assert rivals == 38

# ------------------------------------------------------------ definitional

def test_definitional_agrees_on_orbit_map():
    report = definitional_is_ci_map(lemma_orbit_map())
    assert report.verdict is False
    assert report.witnesses


def test_definitional_single_involution_map():
    z2 = make_cyclic(2)
    report = definitional_is_ci_map(make_map(z2, (1,)))
    assert report.verdict is True


def test_definitional_cap():
    z16 = make_cyclic(16)
    with pytest.raises(CapacityError):
        definitional_is_ci_map(make_map(z16, (1, 15, 3, 5, 9, 7, 11, 13)))


def test_definitional_detects_disconnected_witness():
    # over Z2 x Z4 the two involution types give isomorphic but not
    # Cayley-isomorphic single-edge maps
    g = make_abelian([2, 4])
    square = next(x for x in g.elements() if x != 0 and g.table[x][x] == 0
                  and any(g.table[y][y] == x for y in g.elements()))
    non_square = next(x for x in g.elements() if x != 0 and g.table[x][x] == 0
                      and x != square)
    m = make_map(g, (square,))
    report = definitional_is_ci_map(m)
    assert report.verdict is False


def leader_classes(h, valency):
    """A frozen copy of the isomorphism-class search ``_valency_classes`` ran
    before it grouped by ``isomorphism_code``: one leader per class found,
    prefiltered by (connection subgroup order, face lengths), each new key
    tested against the leaders with ``map_iso_exists``."""
    rotations = sorted(bytes(rot) for s in connection_sets(h, valency) if len(s) == valency
                       for rot in rotations_of(s))
    key = {}
    for rot, orbit in cayley_classes(h, rotations):
        key.update(dict.fromkeys(orbit, rot))
    leaders, mates = {}, {}
    for k in dict.fromkeys(key.values()):
        m = CayleyMap(h, tuple(k))
        classes = leaders.setdefault((len(connection_subgroup(m)), face_profile(m)), [])
        keys = next((keys for leader, keys in classes
                     if map_iso_exists(leader, m) is not None), None)
        if keys is None:
            keys = []
            classes.append((m, keys))
        keys.append(k)
        mates[k] = keys
    return key, mates


@pytest.mark.parametrize("h", order8_groups() + [make_cyclic(7), make_cyclic(9),
                                                 make_abelian([3, 3]), make_cyclic(10),
                                                 make_cyclic(12)],
                         ids=lambda h: h.name)
def test_code_classes_equal_the_leader_search(h):
    for table in [h] + [relabelled(h, seed)[0] for seed in (0, 1, 2)]:
        for valency in range(1, min(h.order, DEFINITIONAL_CAP // h.order + 1)):
            key, mates = _valency_classes.__wrapped__(table, valency)
            frozen_key, frozen_mates = leader_classes(table, valency)
            assert key == frozen_key
            # the keys in one order, and each mates list in one order
            assert list(mates.items()) == list(frozen_mates.items())


class UnionFindBatch:
    """The definitional oracle as a union-find over Cayley class keys: every
    pair of class representatives with equal invariants is tested unless
    already joined. Kept as the reference the code grouping of
    ``_valency_classes`` must reproduce."""

    def __init__(self, h, valency):
        self.maps = [make_map(h, rot) for s in connection_sets(h, valency)
                     if len(s) == valency for rot in rotations_of(s)]
        key_of, self.reps = {}, {}
        for m in sorted(self.maps, key=lambda m: m.rotation):
            if m.rotation not in key_of:
                key_of.update(dict.fromkeys(aut_orbit(h, m.rotation), m.rotation))
                self.reps[m.rotation] = m
        self.class_key = {m.rotation: key_of[m.rotation] for m in self.maps}
        self.root = {k: k for k in self.reps}
        keys = list(self.reps)
        invariant = {k: (len(connection_subgroup(m)), face_profile(m))
                     for k, m in self.reps.items()}
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                if invariant[a] != invariant[b] or self.find(a) == self.find(b):
                    continue
                iso = map_iso_exists if invariant[a][0] == h.order else bruteforce_map_isomorphism
                if iso(self.reps[a], self.reps[b]) is not None:
                    ra, rb = self.find(a), self.find(b)
                    self.root[max(ra, rb)] = min(ra, rb)

    def find(self, k):
        while self.root[k] != k:
            k = self.root[k]
        return k

    def witness(self, rotation):
        """The least other class key isomorphic to the map's, or None."""
        mine = self.class_key[rotation]
        return next((k for k in self.reps
                     if k != mine and self.find(k) == self.find(mine)), None)


@pytest.mark.parametrize("h", order8_groups() + [make_abelian([2, 2]), make_cyclic(7), make_cyclic(9)],
                         ids=lambda h: h.name)
def test_definitional_matches_the_union_find_oracle(h):
    for valency in range(1, min(h.order, DEFINITIONAL_CAP // h.order + 1)):
        batch = UnionFindBatch(h, valency)
        for m in batch.maps:
            report = definitional_is_ci_map(m)
            witness = batch.witness(m.rotation)
            assert report.verdict is (witness is None)
            assert [w["other"] for w in report.witnesses] == \
                ([] if witness is None else [list(witness)])
            assert report.stats == {"maps_same_valency": len(batch.maps),
                                    "cayley_classes": len(batch.reps)}


# ------------------------------------------------------------ group-level

def test_verify_cim_z2():
    report = verify_cim_group(make_cyclic(2), 1)
    assert report.verdict is True


def test_verify_cim_z8(z8):
    report = verify_cim_group(z8, 7)
    assert report.verdict is True
    assert report.stats["maps_connected"] == 936
    assert report.stats["maps_disconnected"] == 4
    assert report.stats["maps_total"] == 940


def test_verify_cim_z9_false(z9):
    report = verify_cim_group(z9, 8)
    assert report.verdict is False
    assert report.notes["first_failing_map"]


def test_verify_connected_z4_full():
    report = verify_connected_cim(make_cyclic(4), 3)
    assert report.verdict is True


def test_verify_connected_z3sq_false(z3sq):
    report = verify_connected_cim(z3sq, 6)
    assert report.verdict is False


def test_strategies_agree_on_small_cyclic():
    for n, maxval in ((5, 4), (7, 6), (8, 7), (9, 8)):
        h = make_cyclic(n)
        a = verify_connected_cim(h, maxval, strategy="exhaustive")
        b = verify_connected_cim(h, maxval, strategy="stabilizer")
        assert a.verdict == b.verdict, (n, a.verdict, b.verdict)


def test_stabilizer_strategy_finds_all_rich_maps():
    # against exhaustive stabilizer detection
    from cimlab.mapiso import stabilizer_automorphisms

    for n, maxval in ((5, 4), (6, 5), (8, 7), (9, 8), (10, 9), (11, 8), (12, 8)):
        h = make_cyclic(n)
        rich = [tuple(rot) for rot in _rich_maps_cyclic(h, maxval)[0]]
        expected = set()
        for m in all_maps(h, maxval):
            if is_connected(m) and len(stabilizer_automorphisms(m)) > 1:
                expected.add(m.rotation)
        assert set(rich) == expected


def full_cycle_roots_as_tuples(orbits, d):
    """``ci._full_cycle_roots`` as it stood while rotations were tuples;
    oracle for the packed rotations."""
    c = len(orbits)
    for ordered in permutations(orbits[1:]):
        for offs in product(range(d), repeat=c - 1):
            cycles = [orbits[0]] + [cyc[o:] + cyc[:o] for cyc, o in zip(ordered, offs)]
            yield tuple(cycles[j][i] for i in range(d) for j in range(c))


def rich_maps_as_tuples(h, max_valency):
    """The sorted rotations of ``ci._rich_maps_cyclic`` as it stood while
    it gathered tuples in a set; oracle for the packed rotations."""
    n = h.order
    ident = identity_perm(n)
    rich = set()
    for psi in cyclic_skew_morphisms(n):
        if psi == ident:
            continue
        d = perm_order(psi)
        orbits = [c for c in cycles_of(psi) if len(c) == d and 0 not in c]
        if not orbits:
            continue
        max_orbits = min(len(orbits), max_valency // d)
        subsets = chain.from_iterable(
            combinations(orbits, k) for k in range(1, max_orbits + 1))
        for subset in subsets:
            s = [x for orb in subset for x in orb]
            s_set = set(s)
            if any(h.inverse[x] not in s_set for x in s):
                continue
            if len(closure_of(h, s)) != n:
                continue
            rich.update(full_cycle_roots_as_tuples(subset, d))
    return sorted(rich)


@pytest.mark.parametrize("n, max_valency",
                         [(n, n - 1) for n in range(5, 16)] + [(15, 10), (16, 8)])
def test_packed_rich_rotations_are_the_sorted_tuples(n, max_valency):
    h = make_cyclic(n)
    rich, _ = _rich_maps_cyclic(h, max_valency)
    assert all(type(rot) is bytes for rot in rich)
    decoded = [tuple(rot) for rot in rich]
    assert decoded == rich_maps_as_tuples(h, max_valency)
    # one sort and no duplicates: the order cayley_classes bisects in
    assert all(a < b for a, b in zip(decoded, decoded[1:]))
    assert all(a < b for a, b in zip(rich, rich[1:]))


def frozen_cayley_orbit(h, rotation):
    """The Aut(h)-orbit of a packed rotation as ``enumeration`` built it
    while it mapped each automorphism over the rotation one element at a
    time; oracle for the translate tables."""
    orbit = set()
    for sigma in automorphisms(h):
        rot = bytes(map(sigma.images.__getitem__, rotation))
        i = rot.index(min(rot))
        orbit.add(rot[i:] + rot[:i])
    return orbit


def frozen_cayley_classes(h, rotations, mirror=False):
    """``enumeration.cayley_classes`` over ``frozen_cayley_orbit``, as it
    stood before the translate tables."""
    covered = bytearray(len(rotations))
    for i, rot in enumerate(rotations):
        if covered[i]:
            continue
        orbit = frozen_cayley_orbit(h, rot)
        if mirror:
            orbit |= {r[:1] + r[:0:-1] for r in orbit}
        for member in orbit:
            j = bisect_left(rotations, member)
            if j < len(rotations) and rotations[j] == member:
                covered[j] = 1
        yield rot, orbit


# full valency on the order-8 groups except Z2^3, whose 168 automorphisms
# make the oracle slow; Z3^2 and Z15 up to valency 6
ORBIT_GROUPS = [(h, 7 if h.name != "Z2xZ2xZ2" else 4) for h in order8_groups()] + [
    (make_abelian([3, 3]), 6), (make_cyclic(15), 6)]


@pytest.mark.parametrize("h, max_valency", ORBIT_GROUPS,
                         ids=[h.name for h, _ in ORBIT_GROUPS])
def test_translated_orbits_equal_the_element_map(h, max_valency):
    # canonical and relabelled tables: every orbit, and the mirror walk's
    # (rotation, orbit) pairs in walk order
    for g in [h] + [relabelled(h, seed)[0] for seed in (0, 1, 2)]:
        rotations = sorted(bytes(rot) for s in connection_sets(g, max_valency)
                           for rot in rotations_of(s))
        # bytes order is tuple order, a proper prefix first
        assert list(map(tuple, rotations)) == sorted(map(tuple, rotations))
        assert any(a == b[:len(a)] for a, b in zip(rotations, rotations[1:]) if len(a) < len(b))
        tables = _aut_tables(g)
        for rot in rotations:
            assert _orbit(rot, tables) == frozen_cayley_orbit(g, rot)
        walk = list(cayley_classes(g, rotations, mirror=True))
        assert walk == list(frozen_cayley_classes(g, rotations, mirror=True))
        assert all(type(member) is bytes for _, orbit in walk for member in orbit)


def test_translate_kernels_raise_on_an_element_of_256():
    # a rotation or permutation entry past one byte is refused, never
    # truncated to its low byte: when a class key or a seed scan packs the
    # rotation, and when a permutation is tabled
    z8 = make_cyclic(8)
    for rotation in ((1, 256), (3, 300)):
        with pytest.raises(ValueError):
            cayley_class_key(CayleyMap(z8, rotation))
        with pytest.raises(ValueError):
            mapiso._seed_alignments(CayleyMap(z8, rotation), [translate_table(range(8))])
    with pytest.raises(ValueError):
        translate_table(tuple(range(257)))
    with pytest.raises(ValueError):
        list(ci._full_cycle_roots([(1, 2), (256, 257)], 2))


@pytest.mark.parametrize("n", [9, 11])
def test_stabilizer_strategy_sweeps_tuples(n, monkeypatch):
    # the rich rotations are packed as bytes; maps, workers and reports
    # must see the representatives as tuples
    reps = swept_representatives(make_cyclic(n), n - 1, monkeypatch)
    assert reps and all(type(rot) is tuple for rot in reps)


def test_stabilizer_strategy_detects_a_missing_skew_morphism(monkeypatch):
    # the completeness check reads each stabilizer off Aut(M); it must notice
    # any one non-identity skew-morphism missing from the list
    from cimlab import ci

    skews = ci.cyclic_skew_morphisms(7)
    dropped = [psi for psi in skews if psi != tuple(range(7))]
    assert dropped
    for psi in dropped:
        monkeypatch.setattr(ci, "cyclic_skew_morphisms",
                            lambda n, psi=psi: [p for p in skews if p != psi])
        with pytest.raises(RuntimeError, match="stabilizer enumeration is incomplete"):
            verify_connected_cim(make_cyclic(7), 6, strategy="stabilizer")


def test_least_alignment_generator_of_every_rich_stabilizer_is_listed(monkeypatch):
    # the completeness check requires this element of each stabilizer to be
    # a listed skew-morphism; on the complete list it is, for every class
    # representative the stabilizer strategy sweeps, and it generates G_1
    reps = nontrivial = unlisted = 0
    for n, max_valency in [(n, n - 1) for n in range(7, 16)] + [(16, 8)]:
        h = make_cyclic(n)
        skews = set(cyclic_skew_morphisms(n))
        for rot in swept_representatives(h, max_valency, monkeypatch):
            stab = stabilizer_automorphisms(CayleyMap(h, rot))
            generator = ci._stabilizer_generator(rot, stab)
            assert generator in skews and sorted(perms._cyclic_subgroup(generator)) == stab
            assert ci._stabilizer_listed(h, rot, stab, skews)
            reps += 1
            nontrivial += len(stab) > 1
            unlisted += not skews.issuperset(stab)
    # every representative is rich; one, the Z9 map below, has a stabilizer
    # element that is not a skew-morphism, so the complete list lacks it
    assert (reps, nontrivial, unlisted) == (13683, 13683, 1)


def test_completeness_check_accepts_a_power_that_is_not_a_skew_morphism():
    # over Z9 the stabilizer of (1, 2, 7, 5, 4, 8) has order 6, and its
    # element of order 2 is not a skew-morphism, so the complete list lacks
    # it; requiring every element refused that list
    h, rot = make_cyclic(9), (1, 2, 7, 5, 4, 8)
    skews = set(cyclic_skew_morphisms(9))
    stab = stabilizer_automorphisms(CayleyMap(h, rot))
    missing = [phi for phi in stab if phi not in skews]
    assert len(stab) == 6 and missing == [(0, 5, 4, 6, 2, 1, 3, 8, 7)]
    assert not is_skew_morphism(h, missing[0])
    checked, failing_rot, report = ci._first_failure(h, [rot], 1, skews)
    assert (checked, failing_rot, report.verdict) == (1, rot, False)
    # dropping the generator of least alignment, or any other listed
    # element, which is a skew-morphism, is still caught
    assert ci._stabilizer_generator(rot, stab) in skews
    for dropped in skews.intersection(stab):
        with pytest.raises(RuntimeError, match="stabilizer enumeration is incomplete"):
            ci._first_failure(h, [rot], 1, skews - {dropped})


def stabilizer_outcome(h, max_valency, workers=1):
    """The stabilizer strategy's report as JSON, or the RuntimeError it raises."""
    try:
        return verify_connected_cim(h, max_valency, strategy="stabilizer",
                                    workers=workers).to_json_dict()
    except RuntimeError as exc:
        return repr(exc)


@pytest.mark.parametrize("h, passing", [
    (make_cyclic(9), 10), (make_abelian([3, 5]), 1), (make_abelian([2, 7]), 1),
    *[(relabelled(make_cyclic(n), seed)[0], 1) for n in (9, 11) for seed in (1, 2)],
], ids=["cyclic:9", "abelian:3,5", "abelian:2,7", "z9-seed1", "z9-seed2", "z11-seed1",
        "z11-seed2"])
def test_stabilizer_sweep_is_seeded_only_with_checked_skews(h, passing, monkeypatch):
    # the canonical Z_n skews seed the stabilizer searches only where they
    # are skew-morphisms of h's own table; on a relabelled or product-labelled
    # group that leaves the identity alone, and the outcome, right or wrong,
    # is the unseeded one
    real, handed = ci._sweep, []

    def recording(h, rotations, workers, seeds=()):
        handed.append(seeds)
        return real(h, rotations, workers, seeds)

    monkeypatch.setattr(ci, "_sweep", recording)
    seeded = stabilizer_outcome(h, h.order - 1)
    checked = tuple(translate_table(psi) for psi in cyclic_skew_morphisms(h.order)
                    if is_skew_morphism(h, psi))
    assert len(checked) == passing
    assert handed == [checked]
    monkeypatch.setattr(ci, "is_skew_morphism", lambda h, psi: False)
    assert stabilizer_outcome(h, h.order - 1) == seeded
    assert handed == [checked, ()]


def test_seed_tables_are_built_once_per_sweep(monkeypatch):
    # a sweep hands every map the same seeds, so each seed's translate table
    # is built once per sweep, not once per map scanned
    calls = []
    real = translate_table
    for name, mod in list(sys.modules.items()):
        if name.startswith("cimlab") and getattr(mod, "translate_table", None) is real:
            monkeypatch.setattr(mod, "translate_table", lambda p: calls.append(p) or real(p))
    report = verify_connected_cim(make_cyclic(13), 12, strategy="stabilizer")
    assert report.stats["maps_checked"] == 640
    assert 0 < len(calls) < report.stats["maps_checked"]


def test_stabilizer_strategy_rejects_noncyclic(k4):
    with pytest.raises(CapacityError):
        verify_connected_cim(k4, 3, strategy="stabilizer")


def test_verify_cim_unsupported_reduction():
    # over Z2 x Z4 the two involution types generate subgroups that no
    # automorphism exchanges; at valency 1 there are no connected maps,
    # so the disconnected reduction is reached and must refuse
    g = make_abelian([2, 4])
    with pytest.raises(UnsupportedReductionError):
        verify_cim_group(g, 1)


def test_verify_cim_z2x4_false_via_connected_witness():
    # at full valency the connected sweep already finds a non-CI map,
    # so the verdict is reported before the reduction is consulted
    report = verify_cim_group(make_abelian([2, 4]), 7)
    assert report.verdict is False


def test_disconnected_reduction_reports_a_failing_component(monkeypatch):
    # every component over Z8 is a CI-map, so flip one verdict to reach the
    # failure branch: the map (2, 6) reduces to (1, 3) over K = <2>
    real = ci.babai_is_ci_map

    def flipped(m, aut=None):
        report = real(m, aut=aut)
        if m.group.name == "Z8|{0,2,4,6}" and m.rotation == (1, 3):
            report.verdict = False
        return report

    monkeypatch.setattr(ci, "babai_is_ci_map", flipped)
    report = verify_cim_group(make_cyclic(8), 7)
    assert report.to_json_dict() == {
        "subject": {"kind": "group", "group": "Z8", "order": 8},
        "verdict": False,
        "method": "exhaustive-babai+disconnected-reduction",
        "witnesses": [{"kind": "non-ci-map", "rotation": [1, 3], "group": "Z8|{0,2,4,6}"}],
        "stats": {"maps_checked": 936, "maps_connected": 936, "maps_total": 940,
                  "strategy": "exhaustive", "maps_disconnected": 2, "component_checks": 2},
        "notes": {"class_m_form": None, "first_failing_map": [1, 3],
                  "failing_disconnected_rotation": [2, 6]},
    }


def flip_component(monkeypatch, group_name, rotation):
    """Make ``babai_is_ci_map`` call one component over the named group non-CI."""
    real = ci.babai_is_ci_map

    def flipped(m, aut=None):
        report = real(m, aut=aut)
        if m.group.name == group_name and m.rotation == rotation:
            report.verdict = False
        return report

    monkeypatch.setattr(ci, "babai_is_ci_map", flipped)


def test_refused_reduction_ends_the_sweep_before_its_first_set(monkeypatch):
    # over Z8 the disconnected sets are {4} over K = <4>, then {2, 6} and
    # {2, 4, 6} over K = <2>; refuse <2>
    real = ci._check_reduction_conditions
    monkeypatch.setattr(ci, "_check_reduction_conditions",
                        lambda h, k, k_group: k.members != (0, 2, 4, 6) and real(h, k, k_group))
    with pytest.raises(UnsupportedReductionError, match=r"generate \(0, 2, 4, 6\)"):
        verify_cim_group(make_cyclic(8), 7)
    # no map over the refused K is swept, so its failing component goes unseen
    flip_component(monkeypatch, "Z8|{0,2,4,6}", (1, 3))
    with pytest.raises(UnsupportedReductionError):
        verify_cim_group(make_cyclic(8), 7)
    # a failing map over an earlier K is reported instead of the refusal
    flip_component(monkeypatch, "Z8|{0,4}", (1,))
    report = verify_cim_group(make_cyclic(8), 7)
    assert report.to_json_dict() == {
        "subject": {"kind": "group", "group": "Z8", "order": 8},
        "verdict": False,
        "method": "exhaustive-babai+disconnected-reduction",
        "witnesses": [{"kind": "non-ci-map", "rotation": [1], "group": "Z8|{0,4}"}],
        "stats": {"maps_checked": 936, "maps_connected": 936, "maps_total": 940,
                  "strategy": "exhaustive", "maps_disconnected": 1, "component_checks": 1},
        "notes": {"class_m_form": None, "first_failing_map": [1],
                  "failing_disconnected_rotation": [4]},
    }


def nested_reduction_conditions(h, k, k_group):
    """``ci._check_reduction_conditions`` as it stood while it searched
    Aut(h) once for each subgroup of k's order and once for each
    automorphism of k; oracle for the counting check."""
    auts = automorphisms(h)
    k_set = set(k.members)
    for other in all_subgroups(h):
        if other.order != k.order:
            continue
        if not any({a.images[x] for x in other.members} == k_set for a in auts):
            return False
    ms = k.members
    for beta in automorphisms(k_group):
        if not any(all(a.images[ms[r]] == ms[beta.images[r]] for r in range(k.order))
                   for a in auts):
            return False
    return True


def test_counted_reduction_conditions_equal_the_nested_searches():
    z3, z6 = make_cyclic(3), make_cyclic(6)
    groups = order8_groups() + [
        make_cyclic(9), make_abelian([3, 3]), make_cyclic(12), make_abelian([2, 6]),
        make_semidirect(z6, 2, negation_action(z6)), make_semidirect(z3, 4, negation_action(z3)),
        make_cyclic(16), make_abelian([2, 8]), make_abelian([4, 4]),
        make_generalized_quaternion(16), make_abelian([3, 2, 2])]
    subgroups = refused = 0
    for h in groups:
        for k in all_subgroups(h):
            if 1 < k.order < h.order:
                k_group = k.as_group()
                holds = ci._check_reduction_conditions(h, k, k_group)
                assert holds is nested_reduction_conditions(h, k, k_group), (h.name, k.members)
                subgroups += 1
                refused += not holds
    # every proper nontrivial subgroup of the 16 groups, and those refused
    assert (subgroups, refused) == (113, 51)


def test_each_connection_subgroup_is_built_once(monkeypatch):
    built = []
    as_group = Subgroup.as_group
    monkeypatch.setattr(Subgroup, "as_group",
                        lambda sub, name=None: built.append(sub.members) or as_group(sub, name))
    report = verify_cim_group(make_cyclic(16), 5)
    assert report.verdict is True
    assert report.stats["maps_disconnected"] > len(built) > 1
    assert len(built) == len(report.notes["reduction_subgroups"])
    assert sorted(map(list, built)) == report.notes["reduction_subgroups"]


def test_subgroup_heredity_of_z8(z8):
    # every subgroup of a verified CIM-group is a connected CIM-group
    assert verify_cim_group(z8, 7).verdict is True
    for sub in all_subgroups(z8):
        if sub.order == 1:
            continue
        k = sub.as_group()
        assert verify_connected_cim(k, k.order - 1).verdict is True


@pytest.mark.parametrize("verify, h, args", [
    *[(verify_connected_cim, h, (7, "exhaustive")) for h in order8_groups()],
    (verify_connected_cim, make_cyclic(11), (6, "exhaustive")),
    *[(verify_connected_cim, make_cyclic(n), (n - 1, "stabilizer")) for n in range(7, 14)],
    (verify_cim_group, make_cyclic(16), (5,)),
], ids=lambda v: getattr(v, "__name__", None) or getattr(v, "name", None) or "-".join(map(str, v)))
def test_swept_rotations_are_valid_and_in_canonical_phase(verify, h, args, monkeypatch):
    # _babai_task builds each swept map as CayleyMap(h, rotation), unvalidated
    swept = swept_rotations(monkeypatch, verify, h, *args)
    assert swept
    for rot in swept:
        assert make_map(h, rot).rotation == rot


def test_babai_task_finds_the_stabilizer_once_and_leaves_aut_unlisted(monkeypatch):
    # a Z15 rich map: Aut(M) = H^ x| G_1 with |G_1| = 2, prime to 15
    h = make_cyclic(15)
    rotation = (1, 4, 11, 14)
    calls, auts = [], []

    def counted(m, tables=()):
        calls.append(m)
        return stabilizer_automorphisms(m, tables)

    def recorded(m, stabilizer=None):
        auts.append(map_automorphism_group(m, stabilizer))
        return auts[-1]

    # ci binds the name for _babai_task, mapiso for map_automorphism_group
    monkeypatch.setattr(ci, "stabilizer_automorphisms", counted)
    monkeypatch.setattr(mapiso, "stabilizer_automorphisms", counted)
    monkeypatch.setattr(ci, "map_automorphism_group", recorded)
    failing, stab = ci._babai_task(h, rotation)
    assert failing is None
    assert calls == [CayleyMap(h, rotation)]
    assert stab == tuple(stabilizer_automorphisms(CayleyMap(h, rotation)))
    assert len(stab) == 2
    [aut] = auts
    assert aut.order == 30


def uncached_automorphism_group(m, stab):
    """``map_automorphism_group`` as it stood before its cache: a new group
    for every call. A frozen copy, the oracle for the shared groups."""
    if len(stab) == 1:
        return left_regular_representation(m.group)
    table, n = m.group.table, m.group.order
    gens = [tuple(table[h]) for h in range(1, n)] + [p for p in stab if p != identity_perm(n)]
    return PermutationGroup(n, tuple(gens), tuple(sorted(
        tuple(row[x] for x in phi) for row in table for phi in stab)))


def uncached_babai_task(h, rotation, seeds=()):
    """``_babai_task`` with the composed stabilizer and a new Aut(M) per map;
    the caller routes the regular-subgroup search past its cache."""
    component, _ = identity_component(CayleyMap(h, rotation))
    stab = composed_stabilizer(component, seeds if component.group is h else ())
    report = babai_is_ci_map(component, aut=uncached_automorphism_group(component, stab))
    return (None if report.verdict else report), tuple(stab)


def task_replies(task, h, batches):
    """The replies, report as JSON, of a task on every swept map, in order."""
    return [(None if failing is None else failing.to_json_dict(), stab)
            for rotations, seeds in batches for rot in rotations
            for failing, stab in [task(h, rot, seeds)]]


BABAI_TASK_CASES = [
    *[(make_cyclic(n), verify_connected_cim, (n - 1, "stabilizer"), None, 2 if n == 9 else 0)
      for n in range(7, 16)],
    (make_cyclic(16), verify_connected_cim, (8, "stabilizer"), None, 7),
    (make_abelian([3, 3]), verify_connected_cim, (6, "exhaustive"), None, 24),
    *[(h, cross_validate, (), seed, 6 if h.name == "Z2xZ4" else 0)
      for h in order8_groups() for seed in (None, 0, 1, 2)],
]


@pytest.mark.parametrize("h, verify, args, seed, failing", BABAI_TASK_CASES, ids=[
    (f"{h.name}/{args[0]}" if args else f"cross-validate-{h.name}")
    + ("" if seed is None else f"-seed{seed}")
    for h, _, args, seed, _ in BABAI_TASK_CASES])
def test_babai_task_replies_equal_the_uncached_ones(h, verify, args, seed, failing, monkeypatch):
    # Aut(M) shared by every map with one stabilizer, its regular subgroups
    # searched once, and the stabilizer assembled from the seeds give every
    # swept map the reply of a fresh build, search and composition: the
    # report, witnesses included, and the stabilizer
    if seed is not None:
        h = relabelled(h, seed)[0]
    batches = swept_batches(monkeypatch, verify, h, *args)
    cached = task_replies(ci._babai_task, h, batches)
    monkeypatch.setattr(ci, "regular_subgroups_isomorphic_to",
                        lambda g, h: list(perms._regular_subgroups.__wrapped__(g, h)))
    assert task_replies(uncached_babai_task, h, batches) == cached
    assert len(cached) == sum(len(rotations) for rotations, _ in batches) > 0
    assert sum(report is not None for report, _ in cached) == failing


def test_stabilizer_sweep_builds_aut_and_searches_once_per_stabilizer(monkeypatch):
    # the Z13 sweep meets 5 stabilizers over 640 maps: each Aut(M) is built,
    # and its regular subgroups searched, once, while every map still gets
    # its own babai_is_ci_map call and regular-subgroup call
    mapiso._automorphism_group.cache_clear()
    perms._regular_subgroups.cache_clear()
    stabs, calls, built = [], [], []
    task, verdict, search = ci._babai_task, ci.babai_is_ci_map, ci.regular_subgroups_isomorphic_to
    group = mapiso.PermutationGroup
    # building Aut(M) makes one PermutationGroup, and each search is one
    # miss of the per-group search cache
    monkeypatch.setattr(mapiso, "PermutationGroup", lambda *a: built.append(1) or group(*a))

    def recorded_task(*args):
        reply = task(*args)
        stabs.append(reply[1])
        return reply

    monkeypatch.setattr(ci, "_babai_task", recorded_task)
    monkeypatch.setattr(ci, "babai_is_ci_map",
                        lambda *a, **kw: calls.append("babai") or verdict(*a, **kw))
    monkeypatch.setattr(ci, "regular_subgroups_isomorphic_to",
                        lambda g, h: calls.append("search") or search(g, h))
    report = verify_connected_cim(make_cyclic(13), 12, strategy="stabilizer")
    assert report.verdict and report.stats["maps_checked"] == len(stabs) == 640
    assert calls == ["babai", "search"] * 640
    searched = perms._regular_subgroups.cache_info().misses
    assert len(set(stabs)) == len(built) == searched == 5


def test_automorphism_caches_are_bounded_by_their_constants():
    assert (mapiso._automorphism_group.cache_info().maxsize
            == mapiso.AUT_GROUP_CACHE_SIZE)
    assert (maps._connection_profile.cache_info().maxsize
            == maps.CONNECTION_CACHE_SIZE)
    assert (perms._regular_subgroups.cache_info().maxsize
            == perms.REGULAR_SUBGROUPS_CACHE_SIZE)


def test_swept_identity_components_are_valid_and_in_canonical_phase(monkeypatch):
    h = make_cyclic(16)
    swept = swept_rotations(monkeypatch, verify_cim_group, h, 5)
    disconnected = [rot for rot in swept if not is_connected(CayleyMap(h, rot))]
    assert len(disconnected) == 100
    for rot in disconnected:
        component, _ = identity_component(CayleyMap(h, rot))
        assert component == make_map(component.group, component.rotation)


# ---------------------------------------------------------- cross validate

@pytest.mark.parametrize("spec", ["cyclic:4", "abelian:2,2", "semidirect:cyclic:3,2,neg"])
def test_cross_validate_small(spec):
    from cimlab.cli import parse_group_spec

    report = cross_validate(parse_group_spec(spec))
    assert report.verdict is True
    assert report.stats["discrepancies"] == 0


def test_cross_validate_cap():
    with pytest.raises(CapacityError):
        cross_validate(make_cyclic(9))


# ------------------------------------------------------------- workers

def test_worker_counts_do_not_change_reports(z9):
    r1 = verify_cim_group(z9, 8, workers=1)
    r2 = verify_cim_group(z9, 8, workers=2)
    assert r1.verdict == r2.verdict
    assert r1.to_json_dict() == r2.to_json_dict()


class CountingMultiprocessing:
    """Stands in for ``multiprocessing`` inside ``ci``: records each pool's
    size, runs its initializer and runs ``map`` serially, so no process is
    ever started. Every task's input and result is kept."""

    def __init__(self):
        self.pool_sizes = []
        self.mapped = []
        self.items = []
        self.results = []

    def Pool(self, processes, initializer=None, initargs=()):  # noqa: N802
        self.pool_sizes.append(processes)
        if initializer is not None:
            initializer(*initargs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, items, chunksize=1):
        self.mapped.append(fn)
        out = [fn(x) for x in items]
        self.items.extend(items)
        self.results.extend(out)
        return out


@pytest.fixture
def counting_pool(monkeypatch):
    from cimlab import ci

    fake = CountingMultiprocessing()
    monkeypatch.setattr(ci, "multiprocessing", fake)
    # the initializer sets these in this process
    monkeypatch.setattr(ci, "_POOL_GROUP", None)
    monkeypatch.setattr(ci, "_POOL_SEEDS", ())
    monkeypatch.setattr(ci.os, "cpu_count", lambda: 4)
    return fake


def test_exhaustive_sweep_opens_one_pool(counting_pool):
    report = verify_connected_cim(make_cyclic(11), 6, strategy="exhaustive", workers=2)
    assert report.verdict is True
    assert report.stats["maps_checked"] == 1265
    assert counting_pool.pool_sizes == [2]


def test_pool_tasks_do_not_carry_the_group(counting_pool):
    # the group reaches each worker once, through the pool initializer
    h = make_cyclic(11)
    verify_connected_cim(h, 6, strategy="exhaustive", workers=2)
    assert counting_pool.mapped
    for fn in counting_pool.mapped:
        assert len(pickle.dumps(fn)) < len(pickle.dumps(h))


def test_disconnected_reduction_sweeps_through_its_own_pool(counting_pool):
    h = make_cyclic(16)
    report = verify_cim_group(h, 5, workers=2)
    assert report.stats["maps_disconnected"] == 100
    assert counting_pool.pool_sizes == [2, 2]  # the connected sweep's, then the reduction's
    assert report.to_json_dict() == verify_cim_group(h, 5).to_json_dict()


def test_worker_replies_carry_only_what_the_sweeps_read(counting_pool):
    # a CI-map's reply is None and its component's stabilizer elements, no
    # report; with a trivial stabilizer it pickles to a few dozen bytes
    h = make_cyclic(16)
    verify_cim_group(h, 5, workers=2)
    assert len(counting_pool.results) == 652
    nontrivial = 0
    for rot, reply in zip(counting_pool.items, counting_pool.results):
        failing, stab = reply
        component, _ = identity_component(make_map(h, rot))
        assert failing is None
        assert stab == tuple(stabilizer_automorphisms(component))
        if len(stab) == 1:
            assert len(pickle.dumps(reply)) < 100
        nontrivial += len(stab) > 1
    assert nontrivial == 61


def test_worker_reply_carries_the_failing_report(counting_pool):
    h = make_cyclic(9)
    report = verify_connected_cim(h, 8, strategy="exhaustive", workers=2)
    assert report.verdict is False
    carried = [failing for failing, _ in counting_pool.results if failing is not None]
    assert carried
    first = carried[0]
    assert first.subject["rotation"] == report.notes["first_failing_map"]
    rot = first.subject["rotation"]
    assert first.to_json_dict() == babai_is_ci_map(make_map(h, rot)).to_json_dict()


def test_seeds_reach_each_worker_through_the_initializer(counting_pool):
    h = make_cyclic(13)
    report = verify_connected_cim(h, 12, strategy="stabilizer", workers=2)
    assert counting_pool.pool_sizes == [2]
    assert ci._POOL_SEEDS == tuple(map(translate_table, cyclic_skew_morphisms(13)))
    assert report.to_json_dict() == stabilizer_outcome(h, 12)


def test_seeded_stabilizer_sweep_is_the_same_on_two_workers():
    h = make_cyclic(13)
    assert stabilizer_outcome(h, 12, workers=2) == stabilizer_outcome(h, 12)


@pytest.mark.parametrize("workers, pool_sizes", [(64, [4]), (3, [3]), (1, []), (0, []), (-3, [])])
def test_worker_count_is_clamped(counting_pool, workers, pool_sizes):
    h = make_cyclic(7)
    report = verify_connected_cim(h, 6, strategy="exhaustive", workers=workers)
    assert counting_pool.pool_sizes == pool_sizes
    assert report.to_json_dict() == verify_connected_cim(h, 6, strategy="exhaustive").to_json_dict()


@pytest.mark.slow
def test_verify_connected_z16_valency8_false():
    # the antibalanced valency-8 witness is found by the stabilizer sweep
    z16 = make_cyclic(16)
    report = verify_connected_cim(z16, 8, strategy="stabilizer")
    assert report.verdict is False


@pytest.mark.slow
def test_strategies_agree_on_z11_full_valency():
    h = make_cyclic(11)
    a = verify_connected_cim(h, 10, strategy="exhaustive", workers=2)
    b = verify_connected_cim(h, 10, strategy="stabilizer")
    assert a.verdict is True and b.verdict is True
