"""Exhaustive enumeration of Cayley maps over a group.

A connection set is a union of inversion cells {x, x^-1}; every set is
paired with all (|S|-1)! rotations in canonical phase (the smallest
element leads).

Cayley classes are orbits under Aut(H), and with ``mirror`` under mirror
reversal too. A rotation is packed into ``bytes``, one element per byte,
and each automorphism is applied to it in C by ``bytes.translate`` with a
256-byte table (``perms.translate_table``); the image is then cut back to
canonical phase. Packing an element of 256 or more, or tabling an
automorphism of a group of order above 256, raises ValueError rather than
truncating; ``automorphisms`` caps |H| at 64, so no reachable input does.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import permutations
from typing import Iterator, Sequence

from .groups import FiniteGroup, automorphisms
from .maps import CayleyMap
from .perms import translate_table


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


def _aut_tables(h: FiniteGroup) -> list[bytes]:
    """One ``bytes.translate`` table per automorphism of h, in the order
    ``automorphisms`` lists them."""
    return [translate_table(sigma.images) for sigma in automorphisms(h)]


def _orbit(rotation: Sequence[int], tables: Sequence[bytes], mirror: bool = False
           ) -> set[Sequence[int]]:
    """The canonical-phase images of one rotation under each table, and
    their mirror reversals when ``mirror`` is set.

    The rotation is packed once; each image is one ``translate`` of it
    followed by the phase cut. Packing raises ValueError on an element of
    256 or more rather than truncating it. A ``bytes`` rotation gives a
    ``bytes`` orbit and a tuple gives tuples.
    """
    packed = rotation if type(rotation) is bytes else bytes(rotation)
    orbit = set()
    for table in tables:
        rot = packed.translate(table)
        i = rot.index(min(rot))
        orbit.add(rot[i:] + rot[:i])
    if mirror:
        orbit |= {r[:1] + r[:0:-1] for r in orbit}
    return orbit if packed is rotation else set(map(tuple, orbit))


def cayley_orbit(h: FiniteGroup, rotation: Sequence[int]) -> set[Sequence[int]]:
    """The canonical-phase rotations of the Aut(H)-orbit of one rotation.

    Each member has the rotation's own type: a tuple's orbit holds
    tuples, and a ``bytes`` rotation (as the stabilizer strategy packs
    them) gives a ``bytes`` orbit. Each automorphism is applied as a
    ``bytes.translate`` table (see ``_orbit``).
    """
    return _orbit(rotation, _aut_tables(h))


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
    each orbit has their type (see ``cayley_orbit``). The automorphisms'
    translate tables are built once per walk.
    """
    tables = _aut_tables(h)
    covered = bytearray(len(rotations))
    for i, rot in enumerate(rotations):
        if covered[i]:
            continue
        orbit = _orbit(rot, tables, mirror)
        for member in orbit:
            j = bisect_left(rotations, member)
            if j < len(rotations) and rotations[j] == member:
                covered[j] = 1
        yield rot, orbit


def cayley_class_key(m: CayleyMap) -> tuple[int, ...]:
    """Lexicographically least canonical rotation in the Aut(H)-orbit of m."""
    return min(cayley_orbit(m.group, m.rotation))
