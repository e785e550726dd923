"""Finite groups as explicit multiplication tables over dense element indices.

Elements of a group of order n are the integers 0..n-1, with 0 always the
identity. All constructors validate the group axioms, and every value is
immutable after construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import CapacityError, InvalidActionError, InvalidOrderError

DEFAULT_ORDER_CAP = 64
AUT_CACHE_SIZE = 128


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[a][b]`` is the index of a*b; ``inverse[a]`` the index of a^-1.
    Equality is identity equality: two independently built copies of the
    same table are distinct objects (callers compare tables explicitly
    when they need value equality).
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    name: str = "group"

    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, a: int, x: int) -> int:
        """x * a * x^-1."""
        return self.table[self.table[x][a]][self.inverse[x]]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


@dataclass(frozen=True, eq=False)
class GroupIsomorphism:
    """A structure-preserving bijection between two finite groups.

    ``images[a]`` is the target index of source element a.
    """

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.images[a]

    def validate(self) -> None:
        g, h, f = self.source, self.target, self.images
        if g.order != h.order or sorted(f) != list(range(g.order)):
            raise ValueError("images is not a bijection")
        if f[0] != 0:
            raise ValueError("identity is not preserved")
        for a in g.elements():
            fa = f[a]
            row = g.table[a]
            for b in g.elements():
                if f[row[b]] != h.table[fa][f[b]]:
                    raise ValueError(f"not multiplicative at ({a}, {b})")

    def compose(self, other: "GroupIsomorphism") -> "GroupIsomorphism":
        """self after other (other.source -> self.target)."""
        if other.target is not self.source:
            raise ValueError("composition mismatch")
        return GroupIsomorphism(
            other.source, self.target, tuple(self.images[x] for x in other.images)
        )


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of ``parent`` recorded as its sorted member list."""

    parent: FiniteGroup
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def as_group(self, name: Optional[str] = None) -> FiniteGroup:
        """The subgroup as a standalone group; member rank i becomes element i."""
        rank = {m: i for i, m in enumerate(self.members)}
        tbl = tuple(
            tuple(rank[self.parent.table[a][b]] for b in self.members)
            for a in self.members
        )
        inv = tuple(rank[self.parent.inverse[a]] for a in self.members)
        label = name or f"{self.parent.name}|{{{','.join(map(str, self.members))}}}"
        return FiniteGroup(len(self.members), tbl, inv, label)

    def is_normal(self) -> bool:
        g = self.parent
        members = set(self.members)
        return all(
            g.conjugate(a, x) in members for a in self.members for x in g.elements()
        )


def check_group_axioms(g: FiniteGroup) -> None:
    """Raise ValueError unless the table is a genuine group with identity 0."""
    n = g.order
    if n <= 0:
        raise ValueError("order must be positive")
    if len(g.table) != n or any(len(row) != n for row in g.table):
        raise ValueError("table shape mismatch")
    full = set(range(n))
    for a in range(n):
        if g.table[0][a] != a or g.table[a][0] != a:
            raise ValueError("identity law fails")
        if g.table[a][g.inverse[a]] != 0:
            raise ValueError("inverse law fails")
        if set(g.table[a]) != full or {g.table[b][a] for b in range(n)} != full:
            raise ValueError("table row/column is not a permutation")
    for a in range(n):
        ta = g.table[a]
        for b in range(n):
            tab = g.table[ta[b]]
            tb = g.table[b]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    raise ValueError("associativity fails")


def from_table(table: Sequence[Sequence[int]], name: str = "group") -> FiniteGroup:
    """Build and validate a group from an explicit table (e.g. parsed JSON)."""
    n = len(table)
    tbl = tuple(tuple(int(x) for x in row) for row in table)
    # a ragged table, or a row without 0, fails the axiom check below
    inv = tuple(row.index(0) if 0 in row else 0 for row in tbl)
    g = FiniteGroup(n, tbl, inv, name)
    check_group_axioms(g)
    return g


def make_cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidOrderError(f"cyclic group order must be >= 1, got {n}")
    tbl = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inv = tuple((-a) % n for a in range(n))
    return FiniteGroup(n, tbl, inv, f"Z{n}")


def make_abelian(orders: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups, elements in mixed-radix encoding."""
    if any(m < 1 for m in orders):
        raise InvalidOrderError(f"all factor orders must be >= 1, got {list(orders)}")
    return functools.reduce(direct_product, map(make_cyclic, orders or [1]))


def make_generalized_quaternion(order: int) -> FiniteGroup:
    """The group <c, a | c^(2^(k-1)) = 1, a^2 = c^(2^(k-2)), a c a^-1 = c^-1>.

    Elements are encoded as c^i a^j with j in {0, 1}: index = j * 2^(k-1) + i.
    """
    if order < 8 or order & (order - 1):
        raise InvalidOrderError(f"generalized quaternion order must be 2^k >= 8, got {order}")
    half = order // 2
    quarter = order // 4

    def mul(x: int, y: int) -> int:
        i, j = x % half, x // half
        k, l = y % half, y // half
        if j == 0:
            return ((i + k) % half) + l * half
        # a c^k = c^-k a, and a^2 = c^(half/2)
        i2 = (i - k) % half
        if l == 0:
            return i2 + half
        return (i2 + quarter) % half

    tbl = tuple(tuple(mul(x, y) for y in range(order)) for x in range(order))
    return from_table(tbl, f"Q{order}")


def action_powers(k_group: FiniteGroup, c_order: int, action: GroupIsomorphism
                  ) -> list[tuple[int, ...]]:
    """The powers of ``action``, identity first, once ``make_semidirect``'s
    checks on it pass: ``c_order`` is at least 1 and ``action`` is an
    automorphism of ``k_group`` whose order divides ``c_order``."""
    if c_order < 1:
        raise InvalidOrderError(f"complement order must be >= 1, got {c_order}")
    if action.source is not k_group or action.target is not k_group:
        raise InvalidActionError("action must be an automorphism of k_group")
    action.validate()
    powers = [tuple(range(k_group.order))]
    cur = action.images
    while cur != powers[0]:
        powers.append(cur)
        cur = tuple(cur[x] for x in action.images)
    if c_order % len(powers):
        raise InvalidActionError(
            f"action order {len(powers)} does not divide complement order {c_order}"
        )
    return powers


def make_semidirect(k_group: FiniteGroup, c_order: int, action: GroupIsomorphism) -> FiniteGroup:
    """Semidirect product K x| Z_c, elements encoded as (k, c^i) -> i*|K| + k.

    ``action`` must be an automorphism of ``k_group`` whose order divides
    ``c_order``; c acts on K by ``action``.
    """
    powers = action_powers(k_group, c_order, action)
    nk = k_group.order
    pow_of = [powers[i % len(powers)] for i in range(c_order)]
    n = nk * c_order
    tbl = []
    for x in range(n):
        k1, i = x % nk, x // nk
        act = pow_of[i]
        row = []
        for y in range(n):
            k2, j = y % nk, y // nk
            row.append(((i + j) % c_order) * nk + k_group.table[k1][act[k2]])
        tbl.append(tuple(row))
    name = f"{k_group.name}:Z{c_order}"
    return from_table(tbl, name)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element index = a * |g2| + b."""
    n2 = g2.order
    n = g1.order * n2
    tbl = tuple(
        tuple(
            g1.table[x // n2][y // n2] * n2 + g2.table[x % n2][y % n2]
            for y in range(n)
        )
        for x in range(n)
    )
    inv = tuple(g1.inverse[x // n2] * n2 + g2.inverse[x % n2] for x in range(n))
    return FiniteGroup(n, tbl, inv, f"{g1.name}x{g2.name}")


def element_order(g: FiniteGroup, x: int) -> int:
    k, y = 1, x
    while y != 0:
        y = g.table[y][x]
        k += 1
    return k


def element_order_profile(g: FiniteGroup) -> tuple[int, ...]:
    return tuple(sorted(element_order(g, x) for x in g.elements()))


def is_cyclic_group(g: FiniteGroup) -> bool:
    return any(element_order(g, x) == g.order for x in g.elements())


def closure_of(g: FiniteGroup, seed: Iterable[int]) -> tuple[int, ...]:
    """Members of the subgroup generated by ``seed``, sorted."""
    members = {0}
    frontier = [0]
    gens = sorted(set(seed) | {0})
    # all right-products of generators; a finite submonoid is a subgroup
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                b = g.table[a][s]
                if b not in members:
                    members.add(b)
                    nxt.append(b)
        frontier = nxt
    return tuple(sorted(members))


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All subgroups, by growing each known subgroup by one extra generator."""
    if g.order > DEFAULT_ORDER_CAP:
        raise CapacityError(
            f"subgroup enumeration capped at order {DEFAULT_ORDER_CAP}, got {g.order}")
    trivial = (0,)
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for members in frontier:
            inside = set(members)
            for x in g.elements():
                if x in inside:
                    continue
                grown = closure_of(g, members + (x,))
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return [Subgroup(g, m) for m in sorted(seen, key=lambda m: (len(m), m))]


def minimal_generating_sequence(g: FiniteGroup) -> tuple[int, ...]:
    """A short generating sequence, chosen deterministically (greedy by order)."""
    gens: list[int] = []
    members = {0}
    while len(members) < g.order:
        # pick the element of largest order outside the current closure,
        # ties broken by smallest index, to keep the backtracking tree shallow
        best = None
        best_key = None
        for x in g.elements():
            if x in members:
                continue
            key = (-element_order(g, x), x)
            if best_key is None or key < best_key:
                best, best_key = x, key
        gens.append(best)
        members = set(closure_of(g, gens))
    return tuple(gens)


def _hom_on_generated(
    g: FiniteGroup, h: FiniteGroup, gens: Sequence[int], imgs: Sequence[int]
) -> Optional[dict[int, int]]:
    """Partial map on <gens> forced by gens -> imgs, or None if inconsistent.

    The result is guaranteed to be an injective homomorphism on the
    subgroup generated so far.
    """
    phi = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            fx = phi[x]
            for s, fs in zip(gens, imgs):
                y = g.table[x][s]
                fy = h.table[fx][fs]
                got = phi.get(y)
                if got is None:
                    phi[y] = fy
                    nxt.append(y)
                elif got != fy:
                    return None
        frontier = nxt
    if len(set(phi.values())) != len(phi):
        return None
    for a in phi:
        fa = phi[a]
        for b in phi:
            if phi[g.table[a][b]] != h.table[fa][phi[b]]:
                return None
    return phi


def _isomorphisms_iter(g: FiniteGroup, h: FiniteGroup):
    """Yield all isomorphisms g -> h as image tuples, in backtracking order."""
    if g.order != h.order:
        return
    if element_order_profile(g) != element_order_profile(h):
        return
    gens = minimal_generating_sequence(g)
    orders = [element_order(g, s) for s in gens]
    by_order: dict[int, list[int]] = {}
    for x in h.elements():
        by_order.setdefault(element_order(h, x), []).append(x)

    n = g.order

    def extend(phi: dict[int, int], imgs: list[int]):
        # phi is the map forced by the images so far; each node extends once
        i = len(imgs)
        if i == len(gens):
            if len(phi) == n:
                yield tuple(phi[x] for x in range(n))
            return
        for cand in by_order.get(orders[i], ()):
            imgs.append(cand)
            grown = _hom_on_generated(g, h, gens[: i + 1], imgs)
            if grown is not None:
                yield from extend(grown, imgs)
            imgs.pop()

    yield from extend({0: 0}, [])


def is_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> Optional[GroupIsomorphism]:
    """First isomorphism in backtracking order, or None."""
    if max(g1.order, g2.order) > DEFAULT_ORDER_CAP:
        raise CapacityError(f"isomorphism search capped at order {DEFAULT_ORDER_CAP}")
    for images in _isomorphisms_iter(g1, g2):
        return GroupIsomorphism(g1, g2, images)
    return None


@functools.lru_cache(maxsize=AUT_CACHE_SIZE)
def _automorphisms_of(g: FiniteGroup) -> tuple[GroupIsomorphism, ...]:
    return tuple(GroupIsomorphism(g, g, f) for f in sorted(_isomorphisms_iter(g, g)))


def automorphisms(g: FiniteGroup) -> list[GroupIsomorphism]:
    """All automorphisms of g, sorted by image tuple. Cached per group object."""
    if g.order > DEFAULT_ORDER_CAP:
        raise CapacityError(f"automorphism enumeration capped at order {DEFAULT_ORDER_CAP}")
    return list(_automorphisms_of(g))


def is_in_class_m(h: FiniteGroup) -> Optional[str]:
    """Membership in the family Z_n x Z_2^r / Z_n x Z_4 / Z_n x Q_8, n odd square-free.

    Returns the name of the matching form, or None.
    """
    n = h.order
    a = 0
    while n % 2 == 0:
        n //= 2
        a += 1
    # n must be odd square-free
    m, d = n, 2
    while d * d <= m:
        if m % (d * d) == 0:
            return None
        if m % d == 0:
            m //= d
        d += 1
    candidates: list[tuple[str, FiniteGroup]] = []
    candidates.append((f"Z{n}xZ2^{a}", make_abelian([n] + [2] * a)))
    if a == 2:
        candidates.append((f"Z{n}xZ4", make_abelian([n, 4])))
    if a == 3:
        candidates.append((f"Z{n}xQ8", direct_product(make_cyclic(n), make_generalized_quaternion(8))))
    for label, cand in candidates:
        if is_isomorphic(h, cand) is not None:
            return label
    return None


def group_to_json(g: FiniteGroup) -> dict:
    return {"name": g.name, "order": g.order, "table": [list(row) for row in g.table]}


def group_from_json(data: dict) -> FiniteGroup:
    if data["order"] != len(data["table"]):
        raise ValueError("order does not match table size")
    return from_table(data["table"], str(data.get("name", "group")))
