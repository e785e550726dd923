"""Exhaustive enumeration of Cayley maps over a group.

A connection set is a union of inversion cells {x, x^-1}; every set is
paired with all (|S|-1)! rotations in canonical phase (the smallest
element leads).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import permutations
from typing import Iterator, Sequence

from .groups import FiniteGroup, automorphisms
from .maps import CayleyMap


def inversion_cells(h: FiniteGroup) -> list[tuple[int, ...]]:
    """Cells {x, x^-1} of the non-identity elements, sorted."""
    cells = {}
    for x in range(1, h.order):
        key = tuple(sorted({x, h.inverse[x]}))
        cells[key] = None
    return sorted(cells)


def connection_sets(h: FiniteGroup, max_valency: int) -> list[tuple[int, ...]]:
    """All symmetric identity-free subsets with size <= max_valency."""
    cells = inversion_cells(h)
    out: list[tuple[int, ...]] = []

    def grow(idx: int, acc: tuple[int, ...]):
        if acc:
            out.append(tuple(sorted(acc)))
        for j in range(idx, len(cells)):
            cand = acc + cells[j]
            if len(cand) <= max_valency:
                grow(j + 1, cand)

    grow(0, ())
    return sorted(out, key=lambda s: (len(s), s))


def rotations_of(connection_set: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All rotations of a set in canonical phase (minimum first)."""
    s = sorted(connection_set)
    first, rest = s[0], s[1:]
    for tail in permutations(rest):
        yield (first,) + tail


def total_map_count(h: FiniteGroup, max_valency: int) -> int:
    return sum(math.factorial(len(s) - 1) for s in connection_sets(h, max_valency))


def cayley_orbit(h: FiniteGroup, rotation: Sequence[int]) -> set[Sequence[int]]:
    """The canonical-phase rotations of the Aut(H)-orbit of one rotation.

    Each member has the rotation's own type: a tuple's orbit holds
    tuples, and a ``bytes`` rotation (as the stabilizer strategy packs
    them) gives a ``bytes`` orbit.
    """
    orbit = set()
    pack = type(rotation)
    for sigma in automorphisms(h):
        rot = pack(map(sigma.images.__getitem__, rotation))
        i = rot.index(min(rot))
        orbit.add(rot[i:] + rot[:i])
    return orbit


def cayley_classes(
    h: FiniteGroup, rotations: Sequence[Sequence[int]], mirror: bool = False
) -> Iterator[tuple[Sequence[int], set[Sequence[int]]]]:
    """One ``(rotation, orbit)`` per Aut(H)-orbit met in sorted ``rotations``.

    The orbit is walked from its first member met, so ``rotation`` is its
    least member inside ``rotations``; with ``mirror`` it is the orbit under
    Aut(H) x mirror reversal. Members already covered are skipped. They are
    marked by position, so the walk keeps no rotation that outlives its
    orbit. An orbit may leave ``rotations``; the caller decides whether
    that is an error. The rotations are all tuples or all ``bytes``, and
    each orbit has their type (see ``cayley_orbit``).
    """
    covered = bytearray(len(rotations))
    for i, rot in enumerate(rotations):
        if covered[i]:
            continue
        orbit = cayley_orbit(h, rot)
        if mirror:
            orbit |= {r[:1] + r[:0:-1] for r in orbit}
        for member in orbit:
            j = bisect_left(rotations, member)
            if j < len(rotations) and rotations[j] == member:
                covered[j] = 1
        yield rot, orbit


def cayley_class_key(m: CayleyMap) -> tuple[int, ...]:
    """Lexicographically least canonical rotation in the Aut(H)-orbit of m."""
    return min(cayley_orbit(m.group, m.rotation))
