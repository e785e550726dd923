"""Map automorphisms and isomorphisms by arc-seeded extension.

For a connected map, an (iso)morphism is determined by the image of one
vertex together with one rotation alignment: every differential
(the map s -> phi(h)^-1 phi(h s)) intertwines the two rotations, and a
full cycle determines its intertwiners from a single value. So there
are at most |S| candidates fixing a vertex, one per alignment.

The automorphisms fixing a vertex compose by adding their alignments
mod k = |S|, so the alignments that extend form a subgroup g*Z_k with
g* | k, generated by the automorphism of alignment g*. The walk starts
at g = k and, for each prime p | k, divides g by p while p divides g and
alignment g/p extends; it ends at g = g* and lists the powers of the
automorphism found there, unless skew-morphism seeds already fill g*Z_k.
It tries Omega(k/g*) + omega(g*) alignments, none twice, so one per
distinct prime of k when the stabilizer is trivial. An alignment that a
skew-morphism handed to ``stabilizer_automorphisms`` as its translate
table already realises is not tried at all, and one that is tried is
either refuted by the triangle counts or propagated.

The triangle counts are a property of the connection set alone. A map
automorphism is an automorphism of the Cayley graph Cay(H, S); one that
fixes e with alignment j sends s_i to s_(i+j), and a graph automorphism
keeps the number of common neighbours of two adjacent vertices, which for
e and s is c(s) = |S & sS|. So when the sequence c(s_0), ..., c(s_(k-1))
read along the rotation changes under a turn by j, no automorphism has
alignment j, and j is refuted without propagating it. c is computed once
per connection set (``maps._connection_profile``). A propagation checks
every dart once, which with n distinct images is the definition.

Aut(M) is the left translations times the identity-vertex stabilizer, so
it depends on M only through its group and that stabilizer; it is built
once per such pair and shared by every map that has them.

A disconnected map is translated copies of its identity component, so
``map_iso_exists`` decides any two maps through their components. The
backtracking ``bruteforce_map_isomorphism`` is kept as the oracle the
tests compare that path against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from .errors import CapacityError, DisconnectedMapError
from .groups import FiniteGroup, GroupIsomorphism, automorphisms, cyclic_powers, is_isomorphic
from .maps import CayleyMap, _connection_profile, identity_component, is_connected
from .perms import Perm, PermutationGroup, left_regular_representation

BRUTE_FORCE_CAP = 10
AUT_GROUP_CACHE_SIZE = 64


@dataclass(frozen=True, eq=False)
class MapMorphism:
    source: CayleyMap
    target: CayleyMap
    images: tuple[int, ...]

    def validate(self) -> None:
        if not _verify(self.source, self.target, self.images):
            raise ValueError("not a map morphism")

    def __repr__(self) -> str:
        return f"MapMorphism({self.source!r} -> {self.target!r})"


def _verify(m1: CayleyMap, m2: CayleyMap, images) -> bool:
    """Full definition check: bijective, edges to edges, rotations intertwined."""
    n = m1.group.order
    if m2.group.order != n or len(images) != n or sorted(images) != list(range(n)):
        return False
    rot1, rot2 = m1.rotation, m2.rotation
    if len(rot1) != len(rot2):
        return False
    k = len(rot1)
    nxt1 = {rot1[i]: rot1[(i + 1) % k] for i in range(k)}
    nxt2 = {rot2[i]: rot2[(i + 1) % k] for i in range(k)}
    mul1, mul2, inv2 = m1.group.table, m2.group.table, m2.group.inverse
    in_s2 = set(rot2)
    for h in range(n):
        fh = images[h]
        fh_inv = inv2[fh]
        row1 = mul1[h]
        for s in rot1:
            d = mul2[fh_inv][images[row1[s]]]
            if d not in in_s2:
                return False
            if images[row1[nxt1[s]]] != mul2[fh][nxt2[d]]:
                return False
    return True


def _propagate(m1: CayleyMap, m2: CayleyMap, a0: int) -> Optional[tuple[int, ...]]:
    """Extend phi(e) = e, Delta_e(rot1[i]) = rot2[(a0+i) % k] over a connected m1.

    m2 has m1's order and valency. Popping each vertex h once, it checks
    all k darts, phi(h rot1[i]) = phi(h) rot2[(a_h+i) % k]: Delta_h(s) is in
    S2 and Delta_h(rho1 s) = rho2(Delta_h s) for all h and s, ``_verify``
    but for bijectivity. That needs n distinct images, since onto a
    disconnected m2 an 8-cycle can wind twice round a 4-cycle.
    """
    rot1, rot2 = m1.rotation, m2.rotation
    k, n = len(rot1), m1.group.order
    back1 = _inverse_positions(m1)
    back2 = back1 if m2 is m1 else _inverse_positions(m2)
    mul1, mul2 = m1.group.table, m2.group.table
    images, align = [-1] * n, [0] * n
    images[0], align[0] = 0, a0
    queue = [0]
    while queue:
        h = queue.pop()
        fh = images[h]
        a = align[h]
        row1 = mul1[h]
        row2 = mul2[fh]
        for i in range(k):
            j = (a + i) % k
            v = row1[rot1[i]]
            w = row2[rot2[j]]
            if images[v] == -1:
                images[v] = w
                # Delta_v(s^-1) = (Delta_h(s))^-1 pins the alignment at v
                align[v] = (back2[j] - back1[i]) % k
                queue.append(v)
            elif images[v] != w:
                return None
    if -1 in images or len(set(images)) != n:
        return None  # m1 was not connected, or phi is not one-to-one
    return tuple(images)


def _inverse_positions(m: CayleyMap) -> list[int]:
    """Where each dart's inverse sits in the rotation: rot[back[i]] is rot[i]^-1."""
    pos = {s: i for i, s in enumerate(m.rotation)}
    inv = m.group.inverse
    return [pos[inv[s]] for s in m.rotation]


def _prime_divisors(k: int) -> list[int]:
    """The distinct primes dividing k, ascending."""
    primes, p = [], 2
    while p * p <= k:
        if k % p == 0:
            primes.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        primes.append(k)
    return primes


def _extend(m: CayleyMap, j: int, triangles: Optional[bytes]) -> Optional[Perm]:
    """The automorphism of connected m fixing the identity with alignment j,
    or None. ``triangles`` is the triangle counts read along the rotation,
    or None; when turning them by j changes them, j is refuted without
    propagating it."""
    if triangles is not None and triangles != triangles[j:] + triangles[:j]:
        return None
    return _propagate(m, m, j)


def _seed_alignments(m: CayleyMap, tables: Sequence[bytes]) -> dict[int, Perm]:
    """Each psi, given as its ``bytes.translate`` table, that sends rot[i]
    to rot[(i+j) % k] for every i, decoded and keyed by its alignment j != 0.

    The rotation is packed into ``bytes`` once, and each table whose image
    of rot[0] lies in the rotation is applied to it in C, as one
    ``translate``, and compared with the packed rotation turned by j. Only
    a psi that realises an alignment is decoded, as ``tuple(table[:n])``.
    An element of 256 or more raises ValueError rather than being
    truncated.
    """
    known = {}
    if tables:
        rot = m.rotation
        pos = {s: i for i, s in enumerate(rot)}
        packed = bytes(rot)
        for table in tables:
            j = pos.get(table[rot[0]])
            # alignment 0 is the identity, which the walk never asks for
            if j and packed.translate(table) == packed[j:] + packed[:j]:
                known[j] = tuple(table[:m.group.order])
    return known


def stabilizer_automorphisms(m: CayleyMap, tables: Sequence[bytes] = ()) -> list[Perm]:
    """All automorphisms fixing the identity vertex, for a connected map, sorted.

    The alignments that extend form a subgroup g*Z_k of Z_k (k the
    valency), since composing two automorphisms that fix the identity
    adds their alignments; g* divides k, and the automorphism of
    alignment g* generates the stabilizer. The walk starts at g = k and,
    for each prime p | k, sets g = g/p while p divides g and alignment g/p
    extends, keeping the automorphism found. Alignment g/p extends exactly
    when g* divides it, so g* | g at every step, p divides g and g* equally
    often once p stops, and the walk ends at g = g*; the k/g powers of the
    automorphism kept there, the identity for a trivial stabilizer, are
    returned. It tries Omega(k/g) + omega(g) alignments, none twice: one
    per distinct prime of k for a trivial stabilizer.

    An alignment is tried by refuting it from the triangle counts or by
    propagating it (``_extend``). An automorphism fixing the identity with
    alignment j is an automorphism of the Cayley graph Cay(H, S) that
    fixes e and sends s_i to s_(i+j), and a graph automorphism keeps the
    number c(s) = |S & sS| of common neighbours of the adjacent e and s.
    So when c read along the rotation is not fixed by a turn by j, no
    automorphism has alignment j and ``_propagate`` would return None. One
    cached record per connection set (``maps._connection_profile``) gives
    the members of <S>, all of the group exactly when m is connected, and
    c as a translate table, None when c is constant on S; a map then pays
    nothing more, and a refuted alignment ends its prime's walk as a failed
    propagation does. Only alignments at which no automorphism exists are
    refuted, so the stabilizer is the one propagating every alignment gives.

    ``tables`` are skew-morphisms of m's group, in m's labels, each as its
    256-byte ``bytes.translate`` table (``perms.translate_table``), which
    the caller builds once per sweep; the caller vouches for them. One
    scan (``_seed_alignments``) keeps each psi that sends rot[i] to
    rot[(i+j) % k] for every i as the automorphism of alignment j, which
    the walk then takes instead of trying j. The scan packs the rotation
    into ``bytes`` and applies each table to it in C; an element of 256 or
    more raises ValueError rather than being truncated. That is exact: the
    skew law gives psi(h s_i) = psi(h) psi^pi(h)(s_i) = psi(h)
    s_(i + j pi(h)), so every Delta_h lies in S and intertwines rho, which
    is ``_verify``'s definition, and psi is a bijection fixing 0. A
    connected map has one automorphism per alignment, so psi is the one
    `_propagate` would find, and the returned list is the same with or
    without the skews.

    A seed's alignment extends, so the seeds sit at nonzero multiples of
    the final g; when they fill all k/g - 1 of them, the identity and the
    seeds are the whole stabilizer, one automorphism per alignment, and are
    returned without taking powers. Alignments that do not extend are
    still tried, refuted by the triangle counts or propagated, whatever the
    seeds, so g is the map's own, and an automorphism no seed realises is
    still found by the powers.
    """
    members, counts = _connection_profile(m.group, tuple(sorted(m.rotation)))
    if len(members) != m.group.order:
        raise DisconnectedMapError("map automorphisms need a connected map")
    k = m.valency
    known = _seed_alignments(m, tables)
    triangles = None if counts is None else bytes(m.rotation).translate(counts)
    ident = tuple(range(m.group.order))
    g, generator = k, ident
    for p in _prime_divisors(k):
        while g % p == 0 and (
                found := known.get(g // p) or _extend(m, g // p, triangles)) is not None:
            g, generator = g // p, found
    if len(known) == k // g - 1:
        # the seeds hold every nonzero multiple of g, each the one automorphism
        # of its alignment
        return sorted([ident, *known.values()])
    return sorted(cyclic_powers(generator))


def map_automorphism_group(m: CayleyMap, stabilizer: Optional[Sequence[Perm]] = None
                           ) -> PermutationGroup:
    """The full automorphism group: left translations times the vertex stabilizer.

    With a trivial stabilizer that is the left-regular copy of the group.
    Otherwise the product H^ G_1 has order |H| |G_1|, since H^ is regular;
    its generators are the translations and the stabilizer, and its
    elements are the products, listed when the group is built.
    ``stabilizer`` is ``stabilizer_automorphisms(m)`` when the caller
    already has it.

    The group is a function of m's group and the stabilizer alone, so it
    is built once per such pair and shared (``_automorphism_group``): maps
    with one stabilizer get the same object, listed once, and
    ``regular_subgroups_isomorphic_to`` searches it at most once.
    """
    stab = stabilizer_automorphisms(m) if stabilizer is None else stabilizer
    return _automorphism_group(m.group, tuple(stab))


@functools.lru_cache(maxsize=AUT_GROUP_CACHE_SIZE)
def _automorphism_group(h: FiniteGroup, stab: tuple[Perm, ...]) -> PermutationGroup:
    """H^ G_1 from the group and the stabilizer's elements; cached, and safe
    to share because ``PermutationGroup`` is frozen. Raises RuntimeError
    unless the products are |H| |G_1| distinct permutations."""
    if len(stab) == 1:
        return left_regular_representation(h)
    table = h.table
    n = h.order
    # itemgetter(*phi) reads a translation's row at phi's images: row after phi
    after = [itemgetter(*phi) for phi in stab]
    elements = {f(row) for row in table for f in after}
    if len(elements) != n * len(stab):
        raise RuntimeError(f"H^ G_1 has {len(elements)} distinct products, not {n * len(stab)}")
    gens = [tuple(table[x]) for x in range(1, n)] + [p for p in stab if p != tuple(range(n))]
    return PermutationGroup(n, tuple(gens), tuple(sorted(elements)))


def map_isomorphisms(m1: CayleyMap, m2: CayleyMap) -> list[MapMorphism]:
    """All isomorphisms between two connected maps, sorted by image tuple:
    a phi for each a in Aut(M2), phi any one of them (``map_iso_exists``)."""
    if not is_connected(m1) or not is_connected(m2):
        raise DisconnectedMapError("map isomorphism search needs connected maps")
    phi = map_iso_exists(m1, m2)
    if phi is None:
        return []
    images = sorted(tuple(a[x] for x in phi) for a in map_automorphism_group(m2).elements)
    return [MapMorphism(m1, m2, f) for f in images]


def map_iso_exists(m1: CayleyMap, m2: CayleyMap) -> Optional[tuple[int, ...]]:
    """One isomorphism between two maps, or None (cheap existence check).

    Each map is [H:K] translated copies of its identity component over
    K = <S>, so two maps of one valency are isomorphic exactly when their
    K have equal order and their components are isomorphic. The component
    isomorphism is carried to every left coset, xk -> y psi(k), and the
    whole image tuple is returned only once ``_verify`` accepts it.
    """
    if m1.group.order != m2.group.order or m1.valency != m2.valency:
        return None
    (c1, k1), (c2, k2) = identity_component(m1), identity_component(m2)
    if len(k1) != len(k2):
        return None
    for a0 in range(c2.valency):
        psi = _propagate(c1, c2, a0)
        if psi is not None:
            break
    else:
        return None
    mul1, mul2 = m1.group.table, m2.group.table
    n = m1.group.order
    images = [-1] * n
    used = [False] * n
    y = 0
    for x in range(n):
        if images[x] != -1:
            continue
        # x and y lead the next unmapped cosets xK1 and yK2
        while used[y]:
            y += 1
        for i, k in enumerate(k1):
            w = mul2[y][k2[psi[i]]]
            images[mul1[x][k]] = w
            used[w] = True
    out = tuple(images)
    return out if _verify(m1, m2, out) else None


def _bfs_vertex_order(m: CayleyMap) -> list[int]:
    g = m.group
    order = []
    seen = set()
    for start in range(g.order):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            h = queue.pop(0)
            order.append(h)
            for s in m.rotation:
                v = g.table[h][s]
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return order


def bruteforce_map_isomorphism(m1: CayleyMap, m2: CayleyMap) -> Optional[tuple[int, ...]]:
    """Backtracking isomorphism search that also handles disconnected maps."""
    n = m1.group.order
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute-force isomorphism capped at order {BRUTE_FORCE_CAP}")
    if m2.group.order != n or m1.valency != m2.valency:
        return None
    g1, g2 = m1.group, m2.group
    in_s1, in_s2 = set(m1.rotation), set(m2.rotation)
    mul1, mul2 = g1.table, g2.table
    inv1, inv2 = g1.inverse, g2.inverse
    order = _bfs_vertex_order(m1)
    images = [-1] * n
    used = [False] * n

    def ok_pairs(v: int, c: int) -> bool:
        for u in order:
            fu = images[u]
            if fu == -1 or u == v:
                continue
            if (mul1[inv1[u]][v] in in_s1) != (mul2[inv2[fu]][c] in in_s2):
                return False
            if (mul1[inv1[v]][u] in in_s1) != (mul2[inv2[c]][fu] in in_s2):
                return False
        return True

    def assign(idx: int) -> Optional[tuple[int, ...]]:
        if idx == n:
            out = tuple(images)
            return out if _verify(m1, m2, out) else None
        v = order[idx]
        for c in range(n):
            if used[c] or not ok_pairs(v, c):
                continue
            images[v] = c
            used[c] = True
            found = assign(idx + 1)
            if found is not None:
                return found
            images[v] = -1
            used[c] = False
        return None

    return assign(0)


def are_cayley_isomorphic(m1: CayleyMap, m2: CayleyMap):
    """A group isomorphism carrying (S1, rho1) to (S2, rho2), or None.

    Works for disconnected maps too: candidates are one isomorphism of
    the underlying groups composed with every automorphism of the target.
    """
    if m1.valency != m2.valency:
        return None
    if m1.group is m2.group:
        base: Optional[GroupIsomorphism] = GroupIsomorphism(
            m1.group, m2.group, tuple(range(m1.group.order))
        )
    else:
        base = is_isomorphic(m1.group, m2.group)
    if base is None:
        return None
    s2 = set(m2.rotation)
    k = m1.valency
    nxt2 = {m2.rotation[i]: m2.rotation[(i + 1) % k] for i in range(k)}
    rot1 = m1.rotation
    for sigma in automorphisms(m2.group):
        phi = tuple(sigma.images[x] for x in base.images)
        if any(phi[s] not in s2 for s in rot1):
            continue
        if all(phi[rot1[(i + 1) % k]] == nxt2[phi[rot1[i]]] for i in range(k)):
            return GroupIsomorphism(m1.group, m2.group, phi)
    return None
