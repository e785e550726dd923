import hashlib
import itertools

import pytest

from cimlab import groups
from cimlab.errors import InvalidActionError, InvalidOrderError
from cimlab.groups import (
    GroupIsomorphism,
    all_subgroups,
    automorphisms,
    check_group_axioms,
    direct_product,
    element_order,
    group_from_json,
    group_to_json,
    is_in_class_m,
    is_isomorphic,
    make_abelian,
    make_cyclic,
    make_generalized_quaternion,
    make_semidirect,
)
from cimlab.perms import inverse_perm


# ---------------------------------------------------------------- oracles

def subgroups_by_subset_scan(g):
    """Independent oracle: test every subset for closure (order <= 8)."""
    assert g.order <= 8
    out = set()
    elems = list(g.elements())
    for r in range(1, g.order + 1):
        for cand in itertools.combinations(elems, r):
            s = set(cand)
            if 0 not in s:
                continue
            if all(g.table[a][b] in s and g.inverse[a] in s for a in s for b in s):
                out.add(tuple(sorted(s)))
    return sorted(out, key=lambda m: (len(m), m))


def automorphisms_by_bijection_scan(g):
    """Independent oracle: scan all bijections fixing the identity (order <= 9)."""
    assert g.order <= 9
    n = g.order
    out = []
    for rest in itertools.permutations(range(1, n)):
        f = (0,) + rest
        if all(f[g.table[a][b]] == g.table[f[a]][f[b]] for a in range(n) for b in range(n)):
            out.append(f)
    return sorted(out)


def symmetric_group_table(n):
    """S_n as an explicit table, built from permutation composition."""
    perms = sorted(itertools.permutations(range(n)))
    ident = tuple(range(n))
    order = [ident] + [p for p in perms if p != ident]
    index = {p: i for i, p in enumerate(order)}
    table = [
        [index[tuple(a[b[i]] for i in range(n))] for b in order] for a in order
    ]
    return table


# ------------------------------------------------------------ constructors

def test_cyclic_trivial():
    g = make_cyclic(1)
    check_group_axioms(g)
    assert g.order == 1


def test_cyclic_eight(z8):
    check_group_axioms(z8)
    assert element_order(z8, 1) == 8
    assert element_order(z8, 0) == 1
    assert element_order(z8, 2) == 4


def test_cyclic_nine(z9):
    assert element_order(z9, 3) == 3


def test_cyclic_rejects_zero():
    with pytest.raises(InvalidOrderError):
        make_cyclic(0)


def test_abelian_three_three(z3sq):
    check_group_axioms(z3sq)
    assert z3sq.order == 9
    assert all(element_order(z3sq, x) in (1, 3) for x in z3sq.elements())


def test_abelian_klein(k4):
    check_group_axioms(k4)
    assert k4.order == 4
    assert sorted(element_order(k4, x) for x in k4.elements()) == [1, 2, 2, 2]


def test_abelian_single_factor_is_cyclic():
    g = make_abelian([6])
    assert is_isomorphic(g, make_cyclic(6)) is not None


def test_abelian_empty_is_trivial():
    assert make_abelian([]).order == 1


# sha256 of repr(table) in the mixed-radix encoding (first factor most
# significant); inline @file.json tables and witness rotations depend on it
ABELIAN_TABLE_DIGESTS = {
    (2, 4): "028f3e4b0454e5343b7def100558db9af14d77f38f12e51fa2e5ebffa028ce2e",
    (2, 2, 2): "3f285b4ed16ad3020ecde79db0d1cce796618db7d0bba10718ea281455e93e1c",
    (3, 3): "8fd2350da88e5c6eb071817ee312f26f7d0bd58c36851ace10e54d75e2a46206",
    (15, 2, 2): "5544f781bc89039110d47902651a33c5e7a723215a3ea56c764b4e7dde44a0ee",
    (3, 4): "16f63672c1282e23a82f12165ca4caadc308195be475961347cdbd4f614dac66",
}


@pytest.mark.parametrize("orders", sorted(ABELIAN_TABLE_DIGESTS))
def test_abelian_table_encoding_is_pinned(orders):
    g = make_abelian(list(orders))
    assert hashlib.sha256(repr(g.table).encode()).hexdigest() == ABELIAN_TABLE_DIGESTS[orders]
    assert g.name == "x".join(f"Z{m}" for m in orders)


def test_quaternion_eight(q8):
    check_group_axioms(q8)
    assert sum(1 for x in q8.elements() if element_order(q8, x) == 2) == 1
    a = 4  # c^0 a
    assert element_order(q8, a) == 4


def test_quaternion_sixteen(q16):
    check_group_axioms(q16)
    orders8 = [s for s in all_subgroups(q16) if s.order == 8]
    # contains both the quaternion subgroup and a cyclic one of order 8
    assert any(is_isomorphic(s.as_group(), make_generalized_quaternion(8)) for s in orders8)
    assert any(is_isomorphic(s.as_group(), make_cyclic(8)) for s in orders8)


def test_quaternion_rejects_bad_orders():
    for bad in (4, 12, 7):
        with pytest.raises(InvalidOrderError):
            make_generalized_quaternion(bad)


def test_semidirect_order21_nonabelian():
    z7 = make_cyclic(7)
    action = GroupIsomorphism(z7, z7, tuple(2 * x % 7 for x in range(7)))
    g = make_semidirect(z7, 3, action)
    check_group_axioms(g)
    assert g.order == 21
    assert any(g.table[a][b] != g.table[b][a] for a in g.elements() for b in g.elements())


def test_semidirect_trivial_complement(k4):
    ident = GroupIsomorphism(k4, k4, tuple(range(4)))
    g = make_semidirect(k4, 1, ident)
    assert is_isomorphic(g, k4) is not None


def test_semidirect_is_s3(s3):
    # compare against an independently built symmetric-group table
    import cimlab.groups as groups

    ref = groups.from_table(symmetric_group_table(3), "S3-ref")
    assert s3.order == 6
    assert is_isomorphic(s3, ref) is not None


def test_semidirect_rejects_incompatible_action():
    z7 = make_cyclic(7)
    action = GroupIsomorphism(z7, z7, tuple(2 * x % 7 for x in range(7)))  # order 3
    with pytest.raises(InvalidActionError):
        make_semidirect(z7, 2, action)


def test_direct_product_orders(q8):
    z3 = make_cyclic(3)
    g = direct_product(z3, q8)
    check_group_axioms(g)
    assert g.order == 24
    assert is_in_class_m(g) == "Z3xQ8"


def test_direct_product_trivial_identity(z8):
    g = direct_product(make_cyclic(1), z8)
    assert is_isomorphic(g, z8) is not None


def test_direct_product_crt():
    g = direct_product(make_cyclic(3), make_cyclic(4))
    z12 = make_cyclic(12)
    # constructive witness: x -> (x mod 3, x mod 4)
    witness = tuple((x % 3) * 4 + (x % 4) for x in range(12))
    iso = GroupIsomorphism(z12, g, witness)
    iso.validate()
    assert is_isomorphic(g, z12) is not None


# ------------------------------------------------------------- subgroups

def test_all_subgroups_cyclic8(z8):
    subs = all_subgroups(z8)
    assert [s.order for s in subs] == [1, 2, 4, 8]


def test_all_subgroups_q8_vs_subset_scan(q8):
    subs = [s.members for s in all_subgroups(q8)]
    assert subs == subgroups_by_subset_scan(q8)
    assert len(subs) == 6


def test_all_subgroups_klein_vs_subset_scan(k4):
    subs = [s.members for s in all_subgroups(k4)]
    assert subs == subgroups_by_subset_scan(k4)
    assert len(subs) == 5


def test_all_subgroups_s3_vs_subset_scan(s3):
    assert [s.members for s in all_subgroups(s3)] == subgroups_by_subset_scan(s3)


def test_lagrange_property(z8, q8, s3, z3sq):
    for g in (z8, q8, s3, z3sq):
        for x in g.elements():
            assert g.order % element_order(g, x) == 0


def test_subgroup_as_group_axioms(q16):
    for sub in all_subgroups(q16):
        check_group_axioms(sub.as_group())


# ---------------------------------------------------------- automorphisms

def test_automorphisms_z8(z8):
    auts = automorphisms(z8)
    images = {a.images for a in auts}
    assert images == {tuple(u * x % 8 for x in range(8)) for u in (1, 3, 5, 7)}


def test_automorphisms_z3sq_count(z3sq):
    assert len(automorphisms(z3sq)) == 48  # |GL(2,3)|
    assert [a.images for a in automorphisms(z3sq)] == automorphisms_by_bijection_scan(z3sq)


def test_automorphisms_q8_count(q8):
    assert len(automorphisms(q8)) == 24
    assert [a.images for a in automorphisms(q8)] == automorphisms_by_bijection_scan(q8)


def test_automorphism_group_closure(s3, q8):
    for g in (s3, q8):
        auts = automorphisms(g)
        images = {a.images for a in auts}
        assert tuple(range(g.order)) in images
        for a in auts:
            assert inverse_perm(a.images) in images
            for b in auts:
                assert a.compose(b).images in images


def test_automorphisms_validate(z9):
    for a in automorphisms(z9):
        a.validate()


def test_automorphism_cache_is_bounded():
    for _ in range(200):
        automorphisms(make_cyclic(5))
    info = groups._automorphisms_of.cache_info()
    assert info.maxsize == groups.AUT_CACHE_SIZE
    assert info.currsize <= groups.AUT_CACHE_SIZE


def test_automorphisms_returns_a_fresh_list(z9):
    first = automorphisms(z9)
    expected = [a.images for a in first]
    first.pop()
    first.reverse()
    assert [a.images for a in automorphisms(z9)] == expected


# ----------------------------------------------------------- isomorphism

def test_q8_not_isomorphic_to_z8(q8, z8):
    assert is_isomorphic(q8, z8) is None


def test_isomorphic_to_self(s3):
    iso = is_isomorphic(s3, s3)
    assert iso is not None
    iso.validate()


def test_is_isomorphic_finds_witness():
    g = direct_product(make_cyclic(3), make_cyclic(4))
    iso = is_isomorphic(g, make_cyclic(12))
    assert iso is not None
    iso.validate()


# -------------------------------------------------------------- class M

def test_class_m_membership(q8, k4, z8, z9, s3, d4):
    assert is_in_class_m(make_cyclic(15)) == "Z15xZ2^0"
    assert is_in_class_m(make_cyclic(12)) == "Z3xZ4"
    assert is_in_class_m(k4) is not None
    assert is_in_class_m(q8) is not None
    assert is_in_class_m(make_abelian([2, 2, 2])) is not None
    assert is_in_class_m(z8) is None
    assert is_in_class_m(z9) is None
    assert is_in_class_m(s3) is None
    assert is_in_class_m(d4) is None


def class_m_samples():
    return [
        make_cyclic(3),
        make_abelian([2, 2]),
        make_cyclic(4),
        make_abelian([3, 2, 2]),
        make_cyclic(12),
        make_generalized_quaternion(8),
        direct_product(make_cyclic(3), make_generalized_quaternion(8)),
    ]


@pytest.mark.parametrize("g", class_m_samples(), ids=lambda g: g.name)
def test_class_m_equal_order_subgroups_conjugate(g):
    auts = automorphisms(g)
    subs = all_subgroups(g)
    by_order = {}
    for s in subs:
        by_order.setdefault(s.order, []).append(set(s.members))
    for same in by_order.values():
        base = same[0]
        for other in same[1:]:
            assert any({a.images[x] for x in other} == base for a in auts)


@pytest.mark.parametrize("g", class_m_samples(), ids=lambda g: g.name)
def test_class_m_subgroup_automorphisms_extend(g):
    auts = automorphisms(g)
    for sub in all_subgroups(g):
        ms = sub.members
        sg = sub.as_group()
        for beta in automorphisms(sg):
            assert any(
                all(a.images[ms[r]] == ms[beta.images[r]] for r in range(sub.order))
                for a in auts
            )


@pytest.mark.parametrize("g", class_m_samples(), ids=lambda g: g.name)
def test_class_m_every_subgroup_normal(g):
    for sub in all_subgroups(g):
        assert sub.is_normal()


# ------------------------------------------------------------------ json

def test_group_json_roundtrip(q8):
    data = group_to_json(q8)
    back = group_from_json(data)
    assert back.order == q8.order
    assert back.table == q8.table
    assert back.inverse == q8.inverse
