"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in the failure report) and then asserts. Runtime bounds are part of the
criteria and are asserted too.
"""

import hashlib
import json
import random
import time

import pytest

from cimlab.ci import babai_is_ci_map, cross_validate, verify_cim_group
from cimlab.cli import run
from cimlab.constructions import (
    cyclic_2power_map,
    frobenius_map,
    odd_square_map,
    overlap_set,
    quaternion16_witness,
)
from cimlab.groups import (
    GroupIsomorphism,
    is_isomorphic,
    make_abelian,
    make_cyclic,
    make_generalized_quaternion,
    make_semidirect,
)
from cimlab.maps import is_connected, make_map
from cimlab.mapiso import (
    are_cayley_isomorphic,
    map_automorphism_group,
    map_isomorphisms,
)
from cimlab.perms import (
    are_conjugate_subgroups,
    closure,
    fixed_points,
    is_block,
    is_cyclic_permgroup,
    is_regular,
    left_regular_representation,
    point_stabilizer,
)

from conftest import negation_action, two_step_formula

# sha256 of the reproduce-paper JSON; perfbench's paper-battery gate records it too
PAPER_BATTERY_DIGEST = "e09d81c9fc0cec59afaf5360545158d36e5e6e87f3df514debbfa06a45725bba"


def announce(number: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {number}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


def test_criterion_1_z8_is_cim_via_cli(capsys):
    t0 = time.time()
    rc = run(["verify-cim", "--group", "cyclic:8", "--max-valency", "7"])
    out = capsys.readouterr().out
    elapsed = time.time() - t0
    data = json.loads(out)
    report = data["reports"][0]
    ok = (
        rc == 0
        and report["verdict"] is True
        and report["stats"]["maps_checked"] == 936
        and report["stats"]["maps_total"] == 940
        and elapsed <= 600
    )
    with capsys.disabled():
        announce(1, ok, f"{report['stats']['maps_checked']} maps in {elapsed:.1f}s")
    assert ok


def test_criterion_2_odd_square_maps():
    t0 = time.time()
    results = []
    for kind in ("cyclic", "elementary"):
        w = odd_square_map(3, kind)
        w.revalidate()
        aut = map_automorphism_group(w.map)
        hhat = left_regular_representation(w.map.group)
        results.append(
            aut.order == 54
            and babai_is_ci_map(w.map, aut=aut).verdict is False
            and is_regular(w.rival)
            and w.rival.order == 9
            and are_conjugate_subgroups(aut, w.rival, hhat) is None
        )
    # the cyclic rival is exactly x -> 4x + 1
    w = odd_square_map(3, "cyclic")
    gamma_ok = next(iter(w.rival.generators)) == tuple((4 * x + 1) % 9 for x in range(9))
    elapsed = time.time() - t0
    ok = all(results) and gamma_ok and elapsed <= 1.0
    announce(2, ok, f"{elapsed:.2f}s")
    assert all(results) and gamma_ok
    assert elapsed <= 1.0


def test_criterion_3_cyclic_2power():
    t0 = time.time()
    w = cyclic_2power_map(4)
    aut = map_automorphism_group(w.map)
    report = babai_is_ci_map(w.map, aut=aut)
    rival_order_16 = w.rival.order == 16 and is_regular(w.rival)
    hhat = left_regular_representation(w.map.group)
    non_conjugate = are_conjugate_subgroups(aut, w.rival, hhat) is None
    n5_false = babai_is_ci_map(cyclic_2power_map(5).map).verdict is False
    elapsed = time.time() - t0
    # Two-step neighbourhood structure. At n = 4, a = 9 and
    # S = {+-1, +-3, +-9, +-27 = +-11} mod 16 is the whole odd class, so
    # |S & (S + x)| is 8 for every even x and the six-overlap set is
    # empty; the formula holds from n = 5 up to the constructor's cap.
    overlap6 = overlap_set(w.map, 6)
    overlap8 = overlap_set(w.map, 8)
    n4_degenerate = (
        w.map.connection_set == frozenset(range(1, 16, 2))
        and overlap8 == frozenset(range(0, 16, 2))
        and overlap6 == frozenset()
    )
    formula_sets = {
        n: overlap_set(cyclic_2power_map(n).map, 6) for n in (5, 6)
    }
    formula_ok = all(
        got == two_step_formula(n) for n, got in formula_sets.items()
    )
    ok = (
        aut.order == 32
        and report.verdict is False
        and rival_order_16
        and non_conjugate
        and n5_false
        and elapsed <= 1.0
        and n4_degenerate
        and formula_ok
    )
    announce(
        3, ok,
        f"|Aut|=32, verdict false, n5 false, {elapsed:.2f}s; "
        f"n4 overlap-6 set = {sorted(overlap6)}, "
        f"overlap-8 set = {sorted(overlap8)}; "
        + ", ".join(
            f"n{n} overlap-6 set = {sorted(got)}"
            for n, got in formula_sets.items()
        ),
    )
    assert aut.order == 32
    assert report.verdict is False
    assert rival_order_16 and non_conjugate
    assert n5_false
    assert elapsed <= 1.0
    assert w.map.connection_set == frozenset(range(1, 16, 2))
    assert overlap8 == frozenset(range(0, 16, 2))
    assert overlap6 == frozenset()
    for n, got in formula_sets.items():
        assert got == two_step_formula(n), n


def test_criterion_4_quaternion_cyclic_pair():
    t0 = time.time()
    q = quaternion16_witness()
    isos = map_isomorphisms(q.map_quaternion, q.map_cyclic)
    cayley = are_cayley_isomorphic(q.map_quaternion, q.map_cyclic)
    groups_iso = is_isomorphic(
        q.quaternion_subgroup.as_group(), q.cyclic_subgroup.as_group()
    )
    elapsed = time.time() - t0
    ok = bool(isos) and cayley is None and groups_iso is None and elapsed <= 1.0
    announce(4, ok, f"{len(isos)} isomorphisms, {elapsed:.2f}s")
    assert isos
    assert cayley is None
    assert groups_iso is None
    assert elapsed <= 1.0


def test_criterion_5_frobenius():
    t0 = time.time()
    z7 = make_cyclic(7)
    action = GroupIsomorphism(z7, z7, tuple(2 * x % 7 for x in range(7)))
    w = frobenius_map(3, z7, action, 1)
    h = w.map.group
    rot = w.map.rotation
    c = 7
    c_inv = h.inverse[c]
    rho_sq_is_conj = all(
        rot[(i + 2) % len(rot)] == h.table[h.table[c_inv][s]][c]
        for i, s in enumerate(rot)
    )
    hhat = left_regular_representation(h)
    non_conj = are_conjugate_subgroups(w.ambient, w.rival, hhat) is None
    verdict = babai_is_ci_map(w.map).verdict
    elapsed = time.time() - t0
    ok = (
        rho_sq_is_conj
        and w.ambient.order == 63
        and w.rival.order == 21
        and is_regular(w.rival)
        and non_conj
        and verdict is False
        and elapsed <= 5.0
    )
    announce(5, ok, f"{elapsed:.2f}s")
    assert rho_sq_is_conj
    assert w.ambient.order == 63
    assert w.rival.order == 21 and is_regular(w.rival) and non_conj
    assert verdict is False
    assert elapsed <= 5.0


def test_criterion_6_odd_order_scan():
    t0 = time.time()
    expected = {
        3: True, 5: True, 7: True, 11: True, 13: True, 15: True,
        9: False,
    }
    got = {}
    for n, want in expected.items():
        report = verify_cim_group(make_cyclic(n), n - 1)
        got[f"Z{n}"] = (report.verdict, want)
    report = verify_cim_group(make_abelian([3, 3]), 8)
    got["Z3xZ3"] = (report.verdict, False)
    elapsed = time.time() - t0
    mismatches = {k: v for k, v in got.items() if v[0] != v[1]}
    ok = not mismatches and elapsed <= 1800
    announce(6, ok, f"8 groups in {elapsed:.1f}s")
    assert not mismatches, mismatches
    assert elapsed <= 1800


def order_at_most_8_groups():
    z3 = make_cyclic(3)
    z4 = make_cyclic(4)
    return [
        make_cyclic(n) for n in range(1, 9)
    ] + [
        make_abelian([2, 2]),
        make_abelian([2, 2, 2]),
        make_abelian([2, 4]),
        make_generalized_quaternion(8),
        make_semidirect(z4, 2, negation_action(z4)),
        make_semidirect(z3, 2, negation_action(z3)),
    ]


def test_criterion_7_oracle_equivalence():
    t0 = time.time()
    total_maps = 0
    bad = []
    for g in order_at_most_8_groups():
        report = cross_validate(g)
        total_maps += report.stats["maps_enumerated"]
        if not report.verdict:
            bad.append((g.name, report.witnesses))
    elapsed = time.time() - t0
    ok = not bad
    announce(7, ok, f"{total_maps} maps over 14 groups, {elapsed:.1f}s")
    assert not bad, bad


def sample_pool():
    z4 = make_cyclic(4)
    pool = [make_cyclic(n) for n in range(2, 17)]
    pool += [
        make_abelian([2, 2]),
        make_abelian([2, 2, 2]),
        make_abelian([2, 4]),
        make_abelian([3, 3]),
        make_abelian([2, 2, 2, 2]),
        make_abelian([4, 4]),
        make_abelian([2, 8]),
        make_generalized_quaternion(8),
        make_generalized_quaternion(16),
        make_semidirect(z4, 2, negation_action(z4)),
    ]
    return [g for g in pool if g.order <= 16]


def sample_connected_maps(count=200, max_valency=6, seed=20260810):
    rng = random.Random(seed)
    pool = sample_pool()
    out = []
    while len(out) < count:
        g = rng.choice(pool)
        cells = {}
        for x in range(1, g.order):
            cells[tuple(sorted({x, g.inverse[x]}))] = None
        cells = list(cells)
        rng.shuffle(cells)
        members: list[int] = []
        for cell in cells:
            if len(members) + len(cell) <= max_valency and rng.random() < 0.7:
                members.extend(cell)
        if not members:
            continue
        rot = sorted(members)
        tail = rot[1:]
        rng.shuffle(tail)
        m = make_map(g, [rot[0]] + tail)
        if is_connected(m):
            out.append(m)
    return out


_SAMPLES_CACHE = {}


def criterion8_samples():
    if "maps" not in _SAMPLES_CACHE:
        maps = sample_connected_maps()
        _SAMPLES_CACHE["maps"] = maps
        _SAMPLES_CACHE["auts"] = [map_automorphism_group(m) for m in maps]
    return _SAMPLES_CACHE["maps"], _SAMPLES_CACHE["auts"]


def test_criterion_8_stabilizer_properties():
    t0 = time.time()
    maps, auts = criterion8_samples()
    assert len(maps) == 200
    violations = []
    for m, aut in zip(maps, auts):
        stab = point_stabilizer(aut, 0)
        if not is_cyclic_permgroup(stab):
            violations.append((m, "stabilizer not cyclic"))
            continue
        s = list(m.rotation)
        restrictions = {tuple(p[x] for x in s) for p in stab.elements}
        if len(restrictions) != stab.order:
            violations.append((m, "not faithful on S"))
            continue
        k = m.valency
        rot = m.rotation
        pos = {x: i for i, x in enumerate(rot)}
        rho_powers = {
            tuple(rot[(pos[x] + j) % k] for x in s) for j in range(k)
        }
        if not restrictions <= rho_powers:
            violations.append((m, "restriction not a rotation power"))
            continue
        if (m.group.order * m.valency) % aut.order:
            violations.append((m, "|Aut| does not divide |H||S|"))
    elapsed = time.time() - t0
    ok = not violations
    announce(8, ok, f"200 sampled maps, {elapsed:.1f}s")
    assert not violations, violations[:3]


def test_criterion_9_fixed_point_blocks():
    t0 = time.time()
    maps, auts = criterion8_samples()
    violations = []
    for m, aut in zip(maps, auts):
        stab = point_stabilizer(aut, 0)
        if not is_cyclic_permgroup(stab):
            continue
        seen = set()
        for p in stab.elements:
            sub = closure([p])
            if sub.elements in seen:
                continue
            seen.add(sub.elements)
            fix = fixed_points(list(sub.elements))
            if not is_block(aut, fix):
                violations.append((m, sorted(fix)))
    elapsed = time.time() - t0
    ok = not violations
    announce(9, ok, f"{elapsed:.1f}s")
    assert not violations, violations[:3]


@pytest.mark.slow
def test_criterion_10_reproduce_paper_determinism(tmp_path, capsys):
    t0 = time.time()
    outputs = []
    rcs = []
    for i, workers in enumerate((1, 4, 8)):
        out = tmp_path / f"run{i}.json"
        rc = run([
            "reproduce-paper", "--workers", str(workers), "--out", str(out),
        ])
        capsys.readouterr()  # discard stdout copy
        rcs.append(rc)
        outputs.append(out.read_bytes())
    elapsed = time.time() - t0
    identical = outputs[0] == outputs[1] == outputs[2]
    ok = identical and all(rc == 0 for rc in rcs)
    with capsys.disabled():
        announce(10, ok, f"3 runs (workers 1/4/8) in {elapsed:.1f}s")
    assert all(rc == 0 for rc in rcs), rcs
    assert identical
    assert hashlib.sha256(outputs[0]).hexdigest() == PAPER_BATTERY_DIGEST
