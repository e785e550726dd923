"""Explicit permutation groups on a finite point set.

Permutations are image tuples: ``p[i]`` is the image of point ``i``.
Composition is function composition, ``compose(p, q)(x) == p[q[x]]``.
A group holds its degree, generators and sorted elements as values, and
its order is the number of elements; the sizes in play here (degree <=
~64, order <= ~20000) make listing every group exact and fast enough.
The left translations H^ of a group are held once, as the cached
``left_regular_representation`` that the regular-subgroup search returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import lcm
from operator import eq
from typing import AbstractSet, Iterable, Optional, Sequence

from .errors import CapacityError
from .groups import FiniteGroup, is_isomorphic

Perm = tuple[int, ...]

DEFAULT_GROUP_CAP = 20000
REGULAR_REP_CACHE_SIZE = 32
REGULAR_SUBGROUPS_CACHE_SIZE = 64


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(p[x] for x in q)


def inverse_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = lcm(order, length)
    return order


def cycles_of(p: Perm) -> list[tuple[int, ...]]:
    """Cycles of p (fixed points included as 1-cycles), each starting at its minimum."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


_BYTES = bytes(range(256))


def translate_table(p: Perm) -> bytes:
    """p as a ``bytes.translate`` table: byte x goes to p[x], and each byte
    from len(p) on is fixed. An image of 256 or more raises ValueError
    rather than being truncated."""
    return bytes(p) + _BYTES[len(p):]


def is_permutation(images: Sequence[int], degree: int) -> bool:
    return len(images) == degree and sorted(images) == list(range(degree))


@dataclass(frozen=True, eq=False)
class PermutationGroup:
    """A permutation group: degree, generators and its distinct elements in
    sorted order are values, and the order is the number of elements."""

    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def element_set(self) -> frozenset[Perm]:
        """The elements as a frozenset, built on first use and kept."""
        return frozenset(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.element_set

    def is_subgroup_of(self, other: "PermutationGroup") -> bool:
        return self.degree == other.degree and self.element_set <= other.element_set

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, order={self.order})"


def closure(gens: Sequence[Perm], cap: int = DEFAULT_GROUP_CAP) -> PermutationGroup:
    """Full element enumeration of <gens> by breadth-first products."""
    gens = [tuple(g) for g in gens]
    if not gens:
        raise ValueError("need at least one permutation")
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators must share one degree")
    for g in gens:
        if not is_permutation(g, degree):
            raise ValueError("not a permutation")
    ident = identity_perm(degree)
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[x] for x in g)
                if q not in elems:
                    if len(elems) >= cap:
                        raise CapacityError(f"closure exceeds cap {cap}")
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return PermutationGroup(degree, tuple(gens), tuple(sorted(elems)))


@functools.lru_cache(maxsize=REGULAR_REP_CACHE_SIZE)
def left_regular_representation(h: FiniteGroup) -> PermutationGroup:
    """All left translations x -> g*x of a finite group, acting on its elements.

    Cached per group; the result is shared, which is safe because
    ``PermutationGroup`` is frozen. Row a of the table is the translation
    sending the identity to a, so the rows are already in sorted order.
    """
    return PermutationGroup(h.order, h.table[1:] or h.table, h.table)


def orbit_of(g: PermutationGroup, point: int) -> frozenset[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for x in frontier:
            for p in g.generators:
                y = p[x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def is_transitive(g: PermutationGroup) -> bool:
    return len(orbit_of(g, 0)) == g.degree


def is_regular(g: PermutationGroup) -> bool:
    return g.order == g.degree and is_transitive(g)


def point_stabilizer(g: PermutationGroup, point: int) -> PermutationGroup:
    elems = tuple(p for p in g.elements if p[point] == point)
    return PermutationGroup(g.degree, elems, elems)


def is_cyclic_permgroup(g: PermutationGroup) -> bool:
    return any(perm_order(p) == g.order for p in g.elements)


def fixed_points(perms: Sequence[Perm]) -> frozenset[int]:
    """Points fixed by every permutation in the list."""
    if not perms:
        raise ValueError("need at least one permutation")
    degree = len(perms[0])
    out = set(range(degree))
    for p in perms:
        out &= {i for i in range(degree) if p[i] == i}
    return frozenset(out)


def is_block(g: PermutationGroup, delta: Iterable[int]) -> bool:
    block = frozenset(delta)
    if not block:
        raise ValueError("block must be nonempty")
    for p in g.elements:
        image = {p[x] for x in block}
        if image != block and image & block:
            return False
    return True


def regular_subgroups_isomorphic_to(g: PermutationGroup, h: FiniteGroup) -> list[PermutationGroup]:
    """All regular subgroups of g isomorphic to h, sorted canonically.

    A regular subgroup has order equal to the degree, and none of its
    non-identity elements fixes a point.

    The search runs depth first over the semiregular subgroups K of g,
    those whose non-identity elements fix no point, from the trivial
    group. The orbit of 0 under such a K has |K| points, so |K| divides n.
    From K the search adjoins only the elements that send 0 to a, the
    least point outside that orbit. Each closure is grown coset by coset
    from the generators adjoined so far, and is abandoned at its first new
    element that fixes a point, or once it exceeds n elements; a closure of
    n elements is regular. A regular R has exactly one element sending 0 to
    each point, so from any K inside R exactly one step stays inside R:
    each R is reached by exactly one path, and no subgroup needs to be
    remembered.

    An R with the elements of H^, the left translations, is isomorphic to
    h by Cayley's theorem, and is returned as the cached
    ``left_regular_representation(h)`` without an isomorphism test. The
    automorphism group of a map with a trivial stabilizer is that same
    object, so it gets back [g]. Every other R found gets the generators
    the breadth-first search this one replaced gave it. That search
    adjoined every candidate, an element whose own cyclic subgroup is
    semiregular with order dividing n, to every subgroup found so far,
    level by level, and kept the first generators that reached each
    subgroup. On its way to R it passes only through subgroups of R, whose
    non-identity elements are all candidates, so it gives R what the same
    search over R's own sorted elements gives (``_search_generators``); a
    cyclic R gets its least generator, an n-cycle.

    The search's answer is a function of g and h, so it runs once per pair
    (``_regular_subgroups``) and each call returns a fresh list of the
    shared subgroups. Groups compare by identity, so the search is reused
    exactly when the same g comes back, as ``map_automorphism_group`` hands
    every map with one stabilizer the same Aut(M).
    """
    return list(_regular_subgroups(g, h))


@functools.lru_cache(maxsize=REGULAR_SUBGROUPS_CACHE_SIZE)
def _regular_subgroups(g: PermutationGroup, h: FiniteGroup) -> tuple[PermutationGroup, ...]:
    """The search behind ``regular_subgroups_isomorphic_to``, cached per (g, h)."""
    n = h.order
    if g.degree != n:
        raise ValueError("degree must equal |h|")
    if g.order > DEFAULT_GROUP_CAP:
        raise CapacityError(f"regular subgroup search capped at {DEFAULT_GROUP_CAP}")

    hhat = left_regular_representation(h)
    found = []
    sending_0_to: list[list[Perm]] = [[] for _ in range(n)]
    for p in g.elements:
        sending_0_to[p[0]].append(p)
    stack: list[tuple[AbstractSet[Perm], tuple[Perm, ...]]] = [({identity_perm(n)}, ())]
    while stack:
        members, gens = stack.pop()
        if len(members) == n:
            elements = tuple(sorted(members))
            if elements == hhat.elements:
                found.append(hhat)
            elif _perm_group_isomorphic(PermutationGroup(n, (), elements), h):
                found.append(PermutationGroup(n, _search_generators(elements), elements))
            continue
        reached = {p[0] for p in members}
        a = next(x for x in range(n) if x not in reached)
        for p in sending_0_to[a]:
            new_gens = gens + (p,)
            grown = _grow_closure(members, new_gens, n)
            if grown is not None:
                stack.append((grown, new_gens))
    found.sort(key=lambda sub: sub.elements)
    return tuple(found)


def _search_generators(elements: tuple[Perm, ...]) -> tuple[Perm, ...]:
    """The generators a breadth-first search over a group's sorted elements
    gives the group: level by level, adjoin each non-identity element in
    turn to each subgroup reached at the level before, keep the first
    generators that reach each subgroup, and stop at the first that reach
    the whole group. A cyclic group gets its least generator. The trivial
    group, which no element reaches, is generated by its identity. The
    closures refuse elements with a fixed point, so the group must be
    semiregular; every group searched here is regular.
    """
    ident, rest = elements[0], elements[1:]
    start = frozenset({ident})
    seen = {start}
    frontier: list[tuple[frozenset[Perm], tuple[Perm, ...]]] = [(start, ())]
    while frontier:
        nxt = []
        for members, gens in frontier:
            for p in rest:
                if p in members:
                    continue
                new_gens = gens + (p,)
                grown = frozenset(_grow_closure(members, new_gens, len(elements)))
                if len(grown) == len(elements):
                    return new_gens
                if grown not in seen:
                    seen.add(grown)
                    nxt.append((grown, new_gens))
        frontier = nxt
    return elements


def _cyclic_subgroup(p: Perm) -> list[Perm]:
    out = [identity_perm(len(p))]
    q = p
    while q != out[0]:
        out.append(q)
        q = compose(q, p)
    return out


def _grow_closure(members: AbstractSet[Perm], gens: tuple[Perm, ...], limit: int
                  ) -> Optional[set[Perm]]:
    """<gens> as a set, where members is the group generated by gens[:-1]
    and its non-identity elements fix no point.

    The closure is grown one right coset of members at a time from the
    generators (Dimino's algorithm). Returns None at the first new element
    that fixes a point, or once the closure would exceed limit elements.
    A closure returned is semiregular, so its order divides the degree.
    """
    elems = set(members)
    pending = [gens[-1]]
    points = range(len(pending[0]))
    while pending:
        r = pending.pop()
        if r in elems:
            continue
        if len(elems) + len(members) > limit:
            return None
        for m in members:
            c = tuple(map(m.__getitem__, r))
            if any(map(eq, c, points)):
                return None
            elems.add(c)
        pending.extend(tuple(map(r.__getitem__, s)) for s in gens)
    return elems


def perm_group_as_finite_group(g: PermutationGroup) -> FiniteGroup:
    """Abstract multiplication table of a regular group g.

    Sorted members of a regular group are ordered by their image of 0, so
    element a is the member sending 0 to a. Then a*b (b first, then a)
    sends 0 to ``g.elements[a][b]``, so ``g.elements`` is the table.
    """
    if [p[0] for p in g.elements] != list(range(g.degree)):
        raise ValueError("group is not regular")
    return FiniteGroup(g.order, g.elements, tuple(p.index(0) for p in g.elements), "perm-group")


def _perm_group_isomorphic(g: PermutationGroup, h: FiniteGroup) -> bool:
    if g.order != h.order:
        return False
    return is_isomorphic(perm_group_as_finite_group(g), h) is not None


def are_conjugate_subgroups(
    g: PermutationGroup, a: PermutationGroup, b: PermutationGroup
) -> Optional[Perm]:
    """Some x in g with x a x^-1 = b as element sets, or None."""
    if a.order != b.order:
        return None
    b_set = b.element_set
    a_elems = a.elements
    for x in g.elements:
        x_inv = inverse_perm(x)
        ok = True
        for p in a_elems:
            if tuple(x[p[y]] for y in x_inv) not in b_set:
                ok = False
                break
        if ok:
            return x
    return None


def conjugate_subgroup(sub: PermutationGroup, x: Perm) -> PermutationGroup:
    x_inv = inverse_perm(x)
    elems = tuple(sorted(tuple(x[p[y]] for y in x_inv) for p in sub.elements))
    gens = tuple(tuple(x[p[y]] for y in x_inv) for p in sub.generators)
    return PermutationGroup(sub.degree, gens, elems)
