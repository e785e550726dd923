"""CI verdicts: the regular-subgroup criterion, the definitional oracle,
and CIM-group verification pipelines.

A connected map passes the regular-subgroup criterion when every
subgroup of its automorphism group that is regular and isomorphic to
the base group is conjugate to the left-translation copy. The
definitional oracle instead enumerates all maps of the same valency and
compares isomorphism classes with Cayley-isomorphism classes; the two
must agree on connected maps, which ``cross_validate`` checks.

Group-level verification has two strategies. ``exhaustive`` runs the
criterion on every connected map. ``stabilizer`` (cyclic groups)
enumerates only the maps with a nontrivial vertex stabilizer, seeded by
the skew-morphisms of the group: a map whose stabilizer is trivial has
the left translations as its whole automorphism group, hence exactly
one regular subgroup, and is a CI-map for free. Its rich rotations are
packed as ``bytes``, one element per byte, sorted once and without
duplicates; they are walked into classes under Aut(H) and mirror
reversal, and only the class representatives are decoded to tuples for
the sweep, so maps, workers and reports never see bytes. The skews that
are skew-morphisms of the group's own table seed each representative's
stabilizer search: an alignment one of them realises is taken from it,
not propagated. All three steps apply a permutation to a packed
rotation in C, as one ``bytes.translate`` by a 256-byte table
(``perms.translate_table``): a full-cycle root is a power of psi on each
later orbit of one interleaved base (``_full_cycle_roots``), a class
member is an automorphism's image (``enumeration.cayley_classes``, one
table per automorphism per walk), and a seed is psi's image compared
with the turned rotation (``mapiso.stabilizer_automorphisms``, one table
per seed per sweep). Packing or tabling an element of
256 or more raises ValueError rather than truncating it; ``automorphisms``
caps |H| at 64, so no reachable input does. On a relabelled or
product-labelled cyclic group most canonical skews fail the skew check
and are not seeded, so a seed is always an automorphism of the map it
realises an alignment of. The exhaustive
strategy gets the trivial-stabilizer shortcut from
``regular_subgroups_isomorphic_to``, which returns a group of order |H|
without an isomorphism test exactly when its elements equal those of
the left-regular copy of H. A second
shortcut, for every H, reads Aut(M)'s generators and order alone: when
the translations are normal in Aut(M) with index prime to |H|, they are
the only regular subgroup of order |H|, and Aut(M)'s elements are never
listed. Otherwise cyclic H is searched one |H|-cycle at a time, and
other H by point cosets: from a subgroup K whose non-identity elements
fix no point it adjoins only the elements sending 0 to the least point
outside K's orbit of 0, refusing each closure at its first fixed point.
A regular subgroup has exactly one element sending 0 to each point, so
it is reached by exactly one path. Each subgroup found keeps the
generators the earlier breadth-first search gave it, which the
witnesses print, and the left translations skip the isomorphism test.
Both strategies are cross-checked against each other by the
test suite on every group small enough to run both.

Every map-by-map verdict goes through one sweep: ``_sweep`` runs
``_babai_task`` on each rotation, inline or through one worker pool, and
``_first_failure`` stops at the first map that is not a CI-map. The two
strategies sweep the connected maps, ``verify_cim_group`` the
disconnected ones, each decided through its identity component.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from contextlib import closing
from itertools import chain, combinations, islice, permutations
from math import factorial
from typing import Iterable, Iterator, Optional, Sequence

from .enumeration import (
    cayley_classes,
    connection_sets,
    rotations_of,
    total_map_count,
)
from .errors import CapacityError, UnsupportedReductionError
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    automorphisms,
    closure_of,
    is_cyclic_group,
    is_in_class_m,
    is_isomorphic,
)
from .maps import (
    CayleyMap,
    _component_group,
    _generated_subgroup,
    identity_component,
    is_connected,
    is_skew_morphism,
    isomorphism_code,
    make_map,
)
from .mapiso import (
    are_cayley_isomorphic,
    map_automorphism_group,
    map_iso_exists,
    stabilizer_automorphisms,
)
from .perms import (
    Perm,
    PermutationGroup,
    _perm_group_isomorphic,
    are_conjugate_subgroups,
    closure,
    conjugate_subgroup,
    cycles_of,
    identity_perm,
    is_regular,
    left_regular_representation,
    perm_group_as_finite_group,
    perm_order,
    regular_subgroups_isomorphic_to,
    translate_table,
)
from .reports import CiReport
from .skew import cyclic_skew_morphisms

DEFINITIONAL_CAP = 64  # bound on |H| * |S| for the oracle
EXHAUSTIVE_THRESHOLD = 50_000  # auto strategy switches above this many maps
EXHAUSTIVE_HARD_CAP = 3_000_000
DISCONNECTED_CAP = 500_000


def _map_subject(m: CayleyMap) -> dict:
    return {"kind": "map", "group": m.group.name, "order": m.group.order,
            "rotation": list(m.rotation)}


def _group_subject(h: FiniteGroup) -> dict:
    return {"kind": "group", "group": h.name, "order": h.order}


def regular_witness_map(m: CayleyMap, rival: PermutationGroup) -> CayleyMap:
    """Relabel m along the action of a regular subgroup of Aut(m).

    The pullback along ``g -> chi(g)(identity vertex)`` is again a Cayley
    map over m's group; when the rival is not conjugate to the left
    translations, the result is isomorphic to m but not Cayley
    isomorphic to it.
    """
    chi = is_isomorphic(m.group, perm_group_as_finite_group(rival))
    if chi is None:
        raise ValueError("rival subgroup is not isomorphic to the map's group")
    # the rival element chi(g) sends the identity vertex to chi.images[g]
    lam_inv = {v: g for g, v in enumerate(chi.images)}
    return make_map(m.group, tuple(lam_inv[v] for v in m.rotation))


def babai_is_ci_map(m: CayleyMap, aut: Optional[PermutationGroup] = None) -> CiReport:
    """CI verdict for a connected map via regular-subgroup conjugacy."""
    t0 = time.perf_counter()
    group = aut if aut is not None else map_automorphism_group(m)
    hhat = left_regular_representation(m.group)
    regs = regular_subgroups_isomorphic_to(group, m.group)
    if not any(r.elements == hhat.elements for r in regs):
        raise RuntimeError("left-regular copy missing from regular subgroup search")
    verdict = True
    witnesses: list[dict] = []
    for r in regs:
        if r.elements == hhat.elements:
            continue
        x = are_conjugate_subgroups(group, r, hhat)
        if x is None:
            verdict = False
            witness_map = regular_witness_map(m, r)
            if map_iso_exists(m, witness_map) is None:
                raise RuntimeError("witness map is not isomorphic to the original")
            if are_cayley_isomorphic(m, witness_map) is not None:
                raise RuntimeError("witness map is Cayley isomorphic to the original")
            witnesses.append(
                {
                    "kind": "non-conjugate-regular-subgroup",
                    "generators": [list(p) for p in r.generators],
                    "order": r.order,
                }
            )
            witnesses.append(
                {
                    "kind": "isomorphic-non-cayley-isomorphic-map",
                    "map": list(m.rotation),
                    "other": list(witness_map.rotation),
                }
            )
            break
        witnesses.append({"kind": "conjugator", "element": list(x),
                          "subgroup": [list(p) for p in r.generators]})
    return CiReport(
        subject=_map_subject(m),
        verdict=verdict,
        method="babai",
        witnesses=witnesses,
        stats={
            "aut_order": group.order,
            "stabilizer_order": group.order // m.group.order,
            "regular_subgroup_count": len(regs),
        },
        elapsed=time.perf_counter() - t0,
    )


BATCH_CACHE_SIZE = 32


@functools.lru_cache(maxsize=BATCH_CACHE_SIZE)
def _valency_classes(h: FiniteGroup, valency: int) -> tuple[dict, dict]:
    """The Cayley classes and map-isomorphism classes of all maps over h with
    one valency; the substrate of the definitional oracle.

    Returns each rotation's class key, the least rotation of its Cayley
    class, and each key's mates: the sorted keys of the Cayley classes in
    its isomorphism class, the key itself included. Rotations and keys are
    packed as ``bytes``, as the class walk takes them. The map is a CI-map
    exactly when its key has no other mate. One dict pass groups the keys
    by ``isomorphism_code``, which is a complete invariant.
    """
    rotations = sorted(
        bytes(rot) for s in connection_sets(h, valency) if len(s) == valency
        for rot in rotations_of(s)
    )
    key: dict[bytes, bytes] = {}
    for rot, orbit in cayley_classes(h, rotations):
        key.update(dict.fromkeys(orbit, rot))
    if len(key) != len(rotations):
        raise RuntimeError(
            "a Cayley class leaves its valency batch; the batch must be "
            "closed under Aut(H)"
        )
    classes: dict[tuple, list] = {}
    mates: dict[bytes, list] = {}
    for k in dict.fromkeys(key.values()):
        mates[k] = classes.setdefault(isomorphism_code(CayleyMap(h, tuple(k))), [])
        mates[k].append(k)
    return key, mates


def definitional_is_ci_map(m: CayleyMap) -> CiReport:
    """CI verdict straight from the definition, by exhausting same-valency maps.

    The map itself may be disconnected: ``isomorphism_code`` reads the
    identity component and its order. A false verdict's witness pair is
    checked by ``map_iso_exists``, the engine behind Aut(M), and by
    ``are_cayley_isomorphic``; a disagreement raises RuntimeError.
    """
    t0 = time.perf_counter()
    h = m.group
    if h.order * m.valency > DEFINITIONAL_CAP:
        raise CapacityError(
            f"definitional oracle capped at |H|*|S| <= {DEFINITIONAL_CAP}"
        )
    key, mates = _valency_classes(h, m.valency)
    my_key = key[bytes(m.rotation)]
    other = next((k for k in mates[my_key] if k != my_key), None)
    witnesses = []
    if other is not None:
        mate = CayleyMap(h, tuple(other))
        if map_iso_exists(m, mate) is None:
            raise RuntimeError("definitional witness is not isomorphic after all")
        if are_cayley_isomorphic(m, mate) is not None:
            raise RuntimeError("definitional witness is Cayley isomorphic after all")
        witnesses.append(
            {
                "kind": "isomorphic-non-cayley-isomorphic-map",
                "map": list(m.rotation),
                "other": list(other),
            }
        )
    return CiReport(
        subject=_map_subject(m),
        verdict=other is None,
        method="definitional",
        witnesses=witnesses,
        stats={
            "maps_same_valency": len(key),
            "cayley_classes": len(mates),
        },
        elapsed=time.perf_counter() - t0,
    )


def _rich_maps_cyclic(h: FiniteGroup, max_valency: int) -> tuple[list[bytes], set]:
    """All connected maps over a cyclic group with a nontrivial stabilizer.

    Every stabilizer is generated by a skew-morphism psi with S a union
    of psi-orbits of length o(psi) and the rotation a full-cycle root of
    psi restricted to S. Returns the rotations, each in canonical phase,
    sorted and without duplicates, plus the skew set for the runtime
    completeness check.

    A rotation is packed as ``bytes``, one element per byte, which takes
    far less memory than a tuple of ints. ``automorphisms`` caps |H| at
    64, and ``bytes`` raises on an element of 256 or more rather than
    truncating it. For elements below 256, bytes compare as their tuples
    do (a prefix first), so the order is the tuples' order. A root that
    several skew-morphisms reach is gathered once for each of them in one
    list, which is sorted once and rid of adjacent duplicates in place; no
    set of every rich rotation and no second list is built.
    """
    n = h.order
    skews = cyclic_skew_morphisms(n)
    skew_set = set(skews)
    ident = identity_perm(n)
    rich: list[bytes] = []
    for psi in skews:
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
            rich.extend(_full_cycle_roots(subset, d))
    rich.sort()
    # drop adjacent duplicates in place: a second list would cost one more
    # pointer per rotation at the peak
    kept = 0
    for rot in rich:
        if not kept or rot != rich[kept - 1]:
            rich[kept] = rot
            kept += 1
    del rich[kept:]
    return rich, skew_set


def _full_cycle_roots(orbits: Sequence[tuple[int, ...]], d: int) -> Iterator[bytes]:
    """All full cycles rho on the union with rho^c equal to the orbit
    permutation, each packed as ``bytes`` (see ``_rich_maps_cyclic``).

    Threads the c orbits in every order and relative offset behind the
    first. Each orbit is a cycle of psi, so turning a later orbit o steps
    is applying psi^o to its elements. One base interleaves the first
    orbit with the later ones at offset 0, once per order of the later
    orbits; each offset choice (o_1, ..., o_(c-1)) is then one
    ``base.translate(T)`` in C, where T applies psi^(o_r) on orbit r and
    fixes every other byte. The d^(c-1) tables are built once per call by
    composing per-orbit tables, and never outnumber the (c-1)! d^(c-1)
    roots. Packing raises ValueError on an element of 256 or more rather
    than truncating it. The orbits come from ``cycles_of``, which lists
    each cycle from its minimum and the cycles in ascending order of
    minima, and ``combinations`` keeps that order; so orbits[0] leads with
    the least element, which makes each output already canonically phased.
    """
    degree = max(map(max, orbits)) + 1
    tables = [translate_table(range(degree))]
    for cyc in orbits[1:]:
        turns = []
        for o in range(d):
            img = list(range(degree))
            for x, y in zip(cyc, cyc[o:] + cyc[:o]):
                img[x] = y
            turns.append(translate_table(img))
        tables = [t.translate(turn) for t in tables for turn in turns]
    for ordered in permutations(orbits[1:]):
        base = bytes(chain.from_iterable(zip(orbits[0], *ordered)))
        yield from map(base.translate, tables)


def _babai_task(
    h: FiniteGroup, rotation: tuple[int, ...], seeds: Sequence[bytes] = ()
) -> tuple[Optional[CiReport], tuple[Perm, ...]]:
    """One map's verdict, decided through its identity component (a
    connected map is its own), and that component's identity-vertex
    stabilizer, from a single stabilizer computation that Aut is built on;
    Aut's elements are listed only if the verdict reads them. The sweeps
    pass only enumerated rotations, valid and in canonical phase, so none
    is validated again. ``seeds`` are the translate tables of checked
    skew-morphisms of h, handed to the stabilizer search only when the
    component is the map itself: a component over K != H is labelled by
    K's member ranks.

    Only what the sweeps read crosses the pipe: the report when the map is
    not a CI-map and None when it is, and the stabilizer's elements, so a
    CI-map with a trivial stabilizer replies in a few dozen pickled bytes.
    """
    component, _ = identity_component(CayleyMap(h, rotation))
    stab = stabilizer_automorphisms(component, seeds if component.group is h else ())
    report = babai_is_ci_map(component, aut=map_automorphism_group(component, stab))
    return (None if report.verdict else report), tuple(stab)


_POOL_GROUP: Optional[FiniteGroup] = None
_POOL_SEEDS: Sequence[bytes] = ()


def _set_pool_group(h: FiniteGroup, seeds: Sequence[bytes]) -> None:
    """Pool initializer: each worker receives the group and the seeds once,
    not per chunk."""
    global _POOL_GROUP, _POOL_SEEDS
    _POOL_GROUP, _POOL_SEEDS = h, seeds


def _pool_task(rotation: tuple[int, ...]) -> tuple[Optional[CiReport], tuple[Perm, ...]]:
    return _babai_task(_POOL_GROUP, rotation, _POOL_SEEDS)


def _sweep(h: FiniteGroup, rotations: Iterable[tuple[int, ...]], workers: int,
           seeds: Sequence[bytes] = ()):
    """Each rotation, in order, with ``_babai_task``'s reply for its map:
    the report if the map is not a CI-map (else None) and its component's
    stabilizer elements. ``seeds``, the translate tables of skew-morphisms
    of h that the caller has checked, go to every ``_babai_task``.

    Worker counts are clamped to [1, cpu_count]. One pool serves the whole
    sweep and gets the group and the seeds once per worker, so the group's
    caches stay warm in each worker; rotations go to it in bounded batches
    so memory stays flat, and a sweep that fits in one batch of fewer than
    four maps runs inline. Close the generator to stop early: that also
    closes the pool.
    """
    workers = max(1, min(workers, os.cpu_count() or 1))
    rotations = iter(rotations)
    batch = list(islice(rotations, 512 * workers))
    if workers == 1 or len(batch) < 4:
        yield from ((rotation, _babai_task(h, rotation, seeds))
                    for rotation in chain(batch, rotations))
        return
    with multiprocessing.Pool(workers, initializer=_set_pool_group,
                              initargs=(h, seeds)) as pool:
        while batch:
            yield from zip(batch, pool.map(_pool_task, batch,
                                           chunksize=max(1, len(batch) // (workers * 8))))
            batch = list(islice(rotations, 512 * workers))


def _first_failure(h: FiniteGroup, rotations: Iterable[tuple[int, ...]], workers: int,
                   skews: Optional[set] = None):
    """Sweep the maps until the first one that is not a CI-map.

    Returns the number of maps checked, then the failing map's rotation
    and report, both None when every map is a CI-map. Given ``skews``,
    every stabilizer element must lie in it, and the members that pass
    ``is_skew_morphism(h, psi)`` seed the sweep's stabilizer searches: an
    alignment one of them realises is not propagated. Each seed is turned
    into its translate table once per sweep, here. The stabilizers
    come out the same, so the check keeps its strength; an element missing
    from ``skews`` sits at an alignment no seed covers and is still found.
    Only the failing map's place in the canonical order is reported: how
    far enumeration read ahead depends on the batching, so it must stay out.
    """
    checked = 0
    seeds = () if skews is None else tuple(
        translate_table(psi) for psi in sorted(skews) if is_skew_morphism(h, psi))
    with closing(_sweep(h, rotations, workers, seeds)) as results:
        for checked, (rotation, (failing, stab)) in enumerate(results, 1):
            if skews is not None and not skews.issuperset(stab):
                raise RuntimeError(
                    "map stabilizer element missing from the skew-morphism list; "
                    "stabilizer enumeration is incomplete"
                )
            if failing is not None:
                return checked, rotation, failing
    return checked, None, None


def verify_connected_cim(
    h: FiniteGroup,
    max_valency: int,
    strategy: str = "auto",
    workers: int = 1,
) -> CiReport:
    """Is every connected Cayley map over h (up to the valency bound) a CI-map?"""
    t0 = time.perf_counter()
    if max_valency < 1:
        raise ValueError("max_valency must be at least 1")
    if max_valency > h.order - 1:
        raise ValueError("max_valency exceeds |H| - 1")
    total = total_map_count(h, max_valency)
    if strategy == "auto":
        strategy = (
            "stabilizer"
            if is_cyclic_group(h) and total > EXHAUSTIVE_THRESHOLD
            else "exhaustive"
        )
    if strategy == "exhaustive":
        if total > EXHAUSTIVE_HARD_CAP:
            raise CapacityError(
                f"{total} maps exceed the exhaustive cap; use the stabilizer strategy"
            )
        rotations, skews, stats = _connected_rotations(h, max_valency), None, {}
    elif strategy == "stabilizer":
        if not is_cyclic_group(h):
            raise CapacityError("stabilizer strategy is implemented for cyclic groups only")
        rich, skews = _rich_maps_cyclic(h, max_valency)
        # Aut(H) and mirror reversal both preserve CI verdicts; an orbit whose
        # least member is not rich has no representative
        reps = [rot for rot, orbit in cayley_classes(h, rich, mirror=True)
                if min(orbit) == rot]
        stats = {"maps_rich": len(rich), "rich_classes": len(reps)}
        del rich  # the sweep needs only the representatives
        # each is decoded to a tuple as the sweep reads it, so maps, workers
        # and reports see no bytes
        rotations = map(tuple, reps)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    checked, _, failing = _first_failure(h, rotations, workers, skews)
    if failing is None and strategy == "exhaustive":
        stats["maps_connected"] = checked  # every connected map was checked
    report = _group_report(h, failing is None, f"{strategy}-babai", failing,
                           dict(stats, maps_checked=checked, maps_total=total,
                                strategy=strategy))
    report.elapsed = time.perf_counter() - t0
    return report


def _connected_rotations(h: FiniteGroup, max_valency: int):
    """Rotations of the connected maps in canonical order, testing
    connectivity once per set."""
    for s in connection_sets(h, max_valency):
        if len(closure_of(h, s)) == h.order:
            yield from rotations_of(s)


def _group_report(
    h: FiniteGroup,
    verdict: bool,
    method: str,
    failing: Optional[CiReport],
    stats: dict,
) -> CiReport:
    witnesses = []
    notes: dict = {"class_m_form": is_in_class_m(h)}
    if failing is not None:
        witnesses = [{"kind": "non-ci-map", "rotation": failing.subject["rotation"],
                      "group": failing.subject["group"]}] + failing.witnesses
        notes["first_failing_map"] = failing.subject["rotation"]
    return CiReport(
        subject=_group_subject(h),
        verdict=verdict,
        method=method,
        witnesses=witnesses,
        stats=stats,
        notes=notes,
    )


def _check_reduction_conditions(h: FiniteGroup, k: Subgroup, k_group: FiniteGroup) -> bool:
    """Equal-order subgroups conjugate to k under Aut(h), and every
    automorphism of k (as ``k_group``, member rank i as element i) extends
    to h; exactly what the disconnected-case reduction consumes.

    One pass over Aut(h) counts both. The images of k are subgroups of its
    order, so they are all of them exactly when they number as many. The
    automorphisms that fix k restrict to automorphisms of k, so every one
    extends exactly when the distinct restrictions number |Aut(k)|.
    """
    ms = k.members
    k_set = frozenset(ms)
    rank = {x: r for r, x in enumerate(ms)}
    images, restrictions = set(), set()
    for a in automorphisms(h):
        image = frozenset(a.images[x] for x in ms)
        images.add(image)
        if image == k_set:
            restrictions.add(tuple(rank[a.images[x]] for x in ms))
    return (len(images) == sum(other.order == k.order for other in all_subgroups(h))
            and len(restrictions) == len(automorphisms(k_group)))


def verify_cim_group(
    h: FiniteGroup,
    max_valency: int,
    strategy: str = "auto",
    workers: int = 1,
) -> CiReport:
    """Is h a CIM-group up to the valency bound?

    Connected maps are checked directly. A disconnected map is a CI-map
    iff its identity component (``identity_component``, a connected map
    over K = <S>) is one, provided equal-order subgroups of h are
    automorphism-conjugate and subgroup automorphisms extend. Both
    conditions are checked, not assumed, once per K in order of first
    appearance; they hold for the Z_n x Z_2^r / Z_4 / Q_8 family and for
    cyclic groups. The disconnected maps then go through the same sweep
    as the connected ones, up to the first set whose K fails the
    conditions; if none of those maps fails, h is reported as unsupported
    rather than guessed.
    """
    t0 = time.perf_counter()
    report = verify_connected_cim(h, max_valency, strategy, workers)
    report.method += "+disconnected-reduction"
    if report.verdict:
        disconnected = [(s, k) for s in connection_sets(h, max_valency)
                        if len(k := _generated_subgroup(h, s)) != h.order]
        if sum(factorial(len(s) - 1) for s, _ in disconnected) > DISCONNECTED_CAP:
            raise CapacityError("too many disconnected maps in range")
        subgroups: set[tuple[int, ...]] = set()  # the K whose conditions hold
        refused = None
        swept = []
        for s, members in disconnected:
            if members not in subgroups:
                if not _check_reduction_conditions(h, Subgroup(h, members),
                                                   _component_group(h, members)):
                    refused = members
                    break
                subgroups.add(members)
            swept.append(s)
        checked, rot, failing = _first_failure(
            h, chain.from_iterable(map(rotations_of, swept)), workers)
        if failing is not None:
            report = _group_report(h, False, report.method, failing,
                                   dict(report.stats, maps_disconnected=checked,
                                        component_checks=checked))
            report.notes["failing_disconnected_rotation"] = list(rot)
        elif refused is not None:
            raise UnsupportedReductionError(
                f"disconnected maps over {h.name} generate {refused}; "
                "subgroup conjugacy or automorphism extension fails, so the "
                "reduction to connected maps does not apply"
            )
        else:
            report.stats.update(maps_disconnected=checked, maps_reduced=checked,
                                component_checks=checked)
            report.notes["reduction_subgroups"] = sorted(map(list, subgroups))
    report.elapsed = time.perf_counter() - t0
    return report


def revalidate_map_report(report_dict: dict, h: FiniteGroup) -> None:
    """Re-verify every embedded witness of a reloaded map report.

    ``h`` is the group the report's subject refers to; raises ValueError
    on the first witness that fails to check out.
    """
    rotation = report_dict["subject"].get("rotation")
    m = make_map(h, rotation) if rotation is not None else None
    aut = None
    if m is not None and is_connected(m):
        aut = map_automorphism_group(m)
    hhat = left_regular_representation(h)
    for w in report_dict["witnesses"]:
        kind = w.get("kind")
        if kind in ("non-conjugate-regular-subgroup", "conjugator") and aut is None:
            raise ValueError(f"{kind} witness on a map that is not connected")
        if kind == "non-conjugate-regular-subgroup":
            sub = closure([tuple(p) for p in w["generators"]])
            if sub.order != w["order"] or not is_regular(sub):
                raise ValueError("stored rival subgroup is not regular")
            if not sub.is_subgroup_of(aut):
                raise ValueError("stored rival subgroup is not inside Aut(M)")
            if not _perm_group_isomorphic(sub, h):
                raise ValueError("stored rival subgroup is not isomorphic to the group")
            if are_conjugate_subgroups(aut, sub, hhat) is not None:
                raise ValueError("stored rival subgroup is conjugate after all")
        elif kind == "conjugator":
            sub = closure([tuple(p) for p in w["subgroup"]])
            conj = tuple(w["element"])
            if conj not in aut or not sub.is_subgroup_of(aut):
                raise ValueError("stored conjugator or its subgroup is not inside Aut(M)")
            if conjugate_subgroup(sub, conj).elements != hhat.elements:
                raise ValueError("stored conjugator does not map the subgroup onto the translations")
        elif kind == "isomorphic-non-cayley-isomorphic-map":
            m1 = make_map(h, w["map"])
            m2 = make_map(h, w["other"])
            if map_iso_exists(m1, m2) is None:
                raise ValueError("stored witness pair is not isomorphic")
            if are_cayley_isomorphic(m1, m2) is not None:
                raise ValueError("stored witness pair is Cayley isomorphic")


def cross_validate(h: FiniteGroup, workers: int = 1) -> CiReport:
    """Definitional verdict == regular-subgroup verdict on every connected map."""
    t0 = time.perf_counter()
    if h.order > 8:
        raise CapacityError("cross validation is limited to groups of order <= 8")
    discrepancies = []
    checked = 0
    results = _sweep(h, _connected_rotations(h, h.order - 1), workers)
    for checked, (rot, (failing, _)) in enumerate(results, 1):
        key, mates = _valency_classes(h, len(rot))
        def_verdict = len(mates[key[bytes(rot)]]) == 1
        if def_verdict != (failing is None):
            discrepancies.append({"kind": "oracle-discrepancy", "rotation": list(rot),
                                  "babai": failing is None, "definitional": def_verdict})
    return CiReport(
        subject=_group_subject(h),
        verdict=not discrepancies,
        method="cross-validate",
        witnesses=discrepancies,
        stats={
            "maps_enumerated": total_map_count(h, h.order - 1),
            "connected_checked": checked,
            "discrepancies": len(discrepancies),
        },
        elapsed=time.perf_counter() - t0,
    )
