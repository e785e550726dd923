"""Cayley maps: a finite group plus one cyclic ordering of a symmetric
connection set, applied at every vertex.

The rotation is stored in canonical phase (smallest element first), so
two maps over the same group object are equal iff their rotation tuples
are equal. A map and its mirror image are distinct objects.

``make_map`` validates and re-phases rotations from outside; the
enumerators' rotations are valid and canonical, so they build the value
directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import MapValidationError
from .groups import FiniteGroup, GroupIsomorphism, Subgroup, closure_of
from .perms import Perm, perm_order


@dataclass(frozen=True)
class CayleyMap:
    group: FiniteGroup
    rotation: tuple[int, ...]

    @property
    def valency(self) -> int:
        return len(self.rotation)

    @property
    def connection_set(self) -> frozenset[int]:
        return frozenset(self.rotation)

    def mirror(self) -> "CayleyMap":
        return make_map(self.group, (self.rotation[0],) + tuple(reversed(self.rotation[1:])))

    def __repr__(self) -> str:
        return f"CayleyMap({self.group.name}, {self.rotation})"


def make_map(h: FiniteGroup, rotation: Sequence[int]) -> CayleyMap:
    """Validate a rotation sequence and store it in canonical phase."""
    rot = tuple(int(s) for s in rotation)
    if not rot:
        raise MapValidationError("duplicate-entry", "rotation must be nonempty")
    if len(set(rot)) != len(rot):
        raise MapValidationError("duplicate-entry", f"repeated element in rotation {rot}")
    if 0 in rot:
        raise MapValidationError("identity-in-s", "identity may not lie in the connection set")
    least = min(rot)
    if least < 0 or max(rot) >= h.order:
        raise MapValidationError(
            "element-out-of-range", f"rotation {rot} names elements outside 1..{h.order - 1}")
    s = set(rot)
    if any(h.inverse[x] not in s for x in rot):
        raise MapValidationError("s-not-symmetric", f"connection set {sorted(s)} is not closed under inverse")
    i = rot.index(least)
    return CayleyMap(h, rot[i:] + rot[:i])


CONNECTION_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=CONNECTION_CACHE_SIZE)
def _connection_profile(h: FiniteGroup, connection_set: tuple[int, ...]
                        ) -> tuple[tuple[int, ...], Optional[bytes]]:
    """The one record per sorted connection set S: the sorted members of
    K = <S>, and a 256-byte ``bytes.translate`` table sending each s in S
    to its triangle count c(s) = |S & sS|, or None where it would refute
    nothing: when K is not h (a disconnected map has no stabilizer walk),
    when c is constant on S (every full-valency S, whose Cayley graph is
    complete), or when |h| > 256 (no translate table holds its elements)."""
    members = closure_of(h, connection_set)
    if len(members) != h.order or h.order > 256:
        return members, None
    in_s = set(connection_set)
    table = h.table
    counts = [sum(table[s][t] in in_s for t in connection_set) for s in connection_set]
    if len(set(counts)) == 1:
        return members, None
    images = bytearray(256)
    for s, c in zip(connection_set, counts):
        images[s] = c
    return members, bytes(images)


def connection_subgroup(m: CayleyMap) -> tuple[int, ...]:
    """Members of K = <S>, sorted; computed once per connection set."""
    return _connection_profile(m.group, tuple(sorted(m.rotation)))[0]


def is_connected(m: CayleyMap) -> bool:
    return len(connection_subgroup(m)) == m.group.order


COMPONENT_CACHE_SIZE = 128


@functools.lru_cache(maxsize=COMPONENT_CACHE_SIZE)
def _component_group(h: FiniteGroup, members: tuple[int, ...]) -> FiniteGroup:
    return Subgroup(h, members).as_group()


def identity_component(m: CayleyMap) -> tuple[CayleyMap, tuple[int, ...]]:
    """The component at the identity vertex, as a connected map over K = <S>,
    and K's members; member rank i of K is element i of the component's group.

    The map is [H:K] translated copies of this component, one on each left
    coset of K. A connected map is its own component.
    """
    members = connection_subgroup(m)
    if len(members) == m.group.order:
        return m, members
    rank = {x: i for i, x in enumerate(members)}  # in order, so the least still leads
    return CayleyMap(_component_group(m.group, members), tuple(map(rank.get, m.rotation))), members


def is_balanced(m: CayleyMap) -> bool:
    """rho(s^-1) == rho(s)^-1 for every s."""
    inv = m.group.inverse
    rot = m.rotation
    k = len(rot)
    pos = {s: i for i, s in enumerate(rot)}
    return all(rot[(pos[inv[s]] + 1) % k] == inv[rot[(pos[s] + 1) % k]] for s in rot)


def is_antibalanced(m: CayleyMap) -> bool:
    """rho(s^-1) == rho^-1(s)^-1 for every s."""
    inv = m.group.inverse
    rot = m.rotation
    k = len(rot)
    pos = {s: i for i, s in enumerate(rot)}
    return all(rot[(pos[inv[s]] + 1) % k] == inv[rot[(pos[s] - 1) % k]] for s in rot)


@dataclass(frozen=True, eq=False)
class TernaryRelation:
    degree: int
    triples: frozenset[tuple[int, int, int]]


def ternary_relation(m: CayleyMap) -> TernaryRelation:
    """(x, y, z) with x^-1 y, x^-1 z in S and rho(x^-1 y) = x^-1 z."""
    g = m.group
    rot = m.rotation
    k = len(rot)
    nxt = {rot[i]: rot[(i + 1) % k] for i in range(k)}
    triples = set()
    for x in g.elements():
        row = g.table[x]
        for s in rot:
            triples.add((x, row[s], row[nxt[s]]))
    return TernaryRelation(g.order, frozenset(triples))


def preserves_relation(r: TernaryRelation, p: Perm) -> bool:
    return all((p[x], p[y], p[z]) in r.triples for x, y, z in r.triples)


def apply_group_automorphism(m: CayleyMap, sigma: GroupIsomorphism) -> CayleyMap:
    """The image map over sigma's target, with rotation [sigma(s0), sigma(s1), ...]."""
    if sigma.source is not m.group:
        raise ValueError("isomorphism source must be the map's group")
    return make_map(sigma.target, tuple(sigma.images[s] for s in m.rotation))


def is_skew_morphism(h: FiniteGroup, phi: Perm) -> bool:
    """Does phi(g*x) = phi(g) * phi^p(g)(x) hold for some power function p?"""
    return skew_power_function(h, phi) is not None


def skew_power_function(h: FiniteGroup, phi: Perm) -> Optional[tuple[int, ...]]:
    """The power function of a skew-morphism (values in 0..order-1), or None.

    phi must fix the identity; the power p(g) is searched over
    0..order(phi)-1 for each g independently.
    """
    n = h.order
    if len(phi) != n or phi[0] != 0:
        return None
    d = perm_order(phi)
    powers = [tuple(range(n))]
    for _ in range(d - 1):
        powers.append(tuple(phi[x] for x in powers[-1]))
    tbl = h.table
    out = []
    for g in range(n):
        phig_row = tbl[phi[g]]
        g_row = tbl[g]
        for e, power in enumerate(powers):
            if all(phi[g_row[x]] == phig_row[power[x]] for x in range(n)):
                out.append(e)
                break
        else:
            return None
    return tuple(out)


def isomorphism_code(m: CayleyMap) -> tuple[int, tuple[int, ...]]:
    """|K| for K = <S>, and the least label sequence of the identity
    component over the k darts at the identity vertex; two maps of one
    order and valency are isomorphic exactly when their codes are equal.

    Each sequence is one breadth-first walk that labels vertices in the
    order met and reads each vertex's neighbours in rotation order, from
    the dart back to the vertex it was reached from. The translations act
    transitively, so an isomorphism can be taken to fix the identity
    vertex, and the image of one dart then fixes it.
    """
    rot, mul = m.rotation, m.group.table
    back = {s: rot.index(m.group.inverse[s]) for s in rot}

    def walk(first: int) -> tuple[int, ...]:
        label, out = {0: 0}, []
        queue = [(0, first)]
        for v, j in queue:  # grows as vertices are met
            for s in rot[j:] + rot[:j]:
                w = mul[v][s]
                if w not in label:
                    label[w] = len(label)
                    queue.append((w, back[s]))
                out.append(label[w])
        return tuple(out)

    return len(connection_subgroup(m)), min(map(walk, range(len(rot))))
