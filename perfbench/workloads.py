"""The benchmark's workloads: fixed inputs, the public cimlab calls the CLI
makes for them, and the checks every run's output must pass.

Why each workload is here:

- ``paper-battery``: ``reproduce-paper`` with one worker, the headline user
  command; its time goes to the Z15/Z13/Z11 stabilizer sweeps (map
  automorphisms, the cyclic regular-subgroup search and Cayley class keys).
- ``z11-exhaustive-2w``: the only workload that starts worker processes, and
  the trivial-stabilizer case (26,120 of 26,465 maps); it computes no class
  keys, so it is the control for class-key work.
- ``order8-crossval``: ``cross-validate`` on all five groups of order 8, the
  only workload on the definitional oracle and on the non-cyclic
  closure-growth path of the regular-subgroup search.
- ``z16-stabilizer``: the stabilizer strategy on Z16, where skew-morphism
  enumeration dominates; elsewhere it is under 1% of the time.

Seeds: for ``z11-exhaustive-2w`` and ``order8-crossval`` the seed renames the
non-identity elements by a seeded permutation and the group is passed as a
table; seed 0 keeps the canonical labels. ``paper-battery`` and
``z16-stabilizer`` ignore the seed and always use canonical labels, because of
a known defect in cimlab: the stabilizer strategy applies the canonical Z_n
skew-morphisms to whatever labels it is given, so on a relabelled cyclic
group it misses rich maps (Z11 at full valency: 745 rich maps in 79 classes
canonically, 400 in 200 relabelled) or dies with an uncaught RuntimeError.
``tests/test_perfbench.py`` keeps that visible as an expected failure.
Timings of a relabelled workload depend on the seed, so compare two commits
only on the same seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from cimlab import ci, cli, constructions, groups, reports

# counts that no correct optimisation may change; maps_checked, maps_rich,
# rich_classes and the first failing map are left free on purpose
PINNED = ("maps_total", "maps_connected", "maps_enumerated", "discrepancies",
          "matching", "entries")
WITNESS_PAIR = "isomorphic-non-cayley-isomorphic-map"
ORDER8 = ("cyclic:8", "abelian:2,4", "abelian:2,2,2", "quaternion:8",
          "semidirect:cyclic:4,2,neg")


@dataclass
class Output:
    """One command's canonical JSON and the exit code the CLI would return."""

    text: str
    code: int


@dataclass
class Workload:
    name: str
    prepare: Callable[[int], dict]  # seed -> inputs (the groups to pass)
    solve: Callable[[dict], list]  # inputs -> list[Output]
    workers: int = 1


def relabel(g: groups.FiniteGroup, seed: int) -> groups.FiniteGroup:
    """g with its non-identity elements renamed by a seeded permutation,
    rebuilt from its table; seed 0 keeps the labels."""
    n = g.order
    rest = list(range(1, n))
    if seed:
        random.Random(seed).shuffle(rest)
    new = [0] + rest
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[new[a]][new[b]] = new[g.table[a][b]]
    return groups.from_table(table, g.name)


def emit(command: str, config: dict, report) -> Output:
    """The bundle the CLI writes for one report, validated and dumped as it does."""
    bundle = reports.ReportBundle(command=command, config=config,
                                  reports=[report.to_json_dict()])
    payload = bundle.to_json_dict()
    reports.validate_bundle_dict(payload)
    return Output(reports.dumps_canonical(payload), 0 if report.verdict else 1)


def _battery_prepare(seed: int) -> dict:
    return {}


def _battery_solve(inputs: dict) -> list:
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.run(["reproduce-paper", "--workers", "1"])
    if code == 2:
        raise RuntimeError(f"reproduce-paper failed: {err.getvalue().strip()}")
    return [Output(buf.getvalue(), code)]


def _z11_prepare(seed: int) -> dict:
    return {"cyclic:11": relabel(cli.parse_group_spec("cyclic:11"), seed)}


def _z11_solve(inputs: dict) -> list:
    report = ci.verify_connected_cim(inputs["cyclic:11"], 8, strategy="exhaustive", workers=2)
    return [emit("verify-connected-cim",
                 {"group": "cyclic:11", "max_valency": 8, "strategy": "exhaustive"},
                 report)]


def _order8_prepare(seed: int) -> dict:
    return {spec: relabel(cli.parse_group_spec(spec), seed) for spec in ORDER8}


def _order8_solve(inputs: dict) -> list:
    return [emit("cross-validate", {"group": spec}, ci.cross_validate(h, workers=1))
            for spec, h in inputs.items()]


def _z16_prepare(seed: int) -> dict:
    return {"cyclic:16": cli.parse_group_spec("cyclic:16")}


def _z16_solve(inputs: dict) -> list:
    report = ci.verify_connected_cim(inputs["cyclic:16"], 15, strategy="stabilizer")
    return [emit("verify-connected-cim",
                 {"group": "cyclic:16", "max_valency": 15, "strategy": "stabilizer"},
                 report)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-battery", _battery_prepare, _battery_solve),
        Workload("z11-exhaustive-2w", _z11_prepare, _z11_solve, workers=2),
        Workload("order8-crossval", _order8_prepare, _order8_solve),
        Workload("z16-stabilizer", _z16_prepare, _z16_solve),
    )
}


def summarize(outputs: list) -> list:
    """Exit codes, verdicts and pinned counts: what the gate compares."""
    out = []
    for o in outputs:
        payload = json.loads(o.text)
        rows = []
        for r in payload["reports"]:
            row = {"key": r["notes"].get("battery_key", r["subject"].get("group")),
                   "verdict": r["verdict"]}
            row.update((k, r["stats"][k]) for k in PINNED if k in r["stats"])
            rows.append(row)
        out.append({"command": payload["command"], "exit": o.code, "reports": rows})
    return out


def report_results(outputs: list) -> list:
    """Every report's verdict and stats, for the trace's reconciliation and ratios."""
    return [{"verdict": r["verdict"], "stats": r["stats"]}
            for o in outputs for r in json.loads(o.text)["reports"]]


def _battery_groups() -> dict:
    z7 = groups.make_cyclic(7)
    action = groups.GroupIsomorphism(z7, z7, tuple(2 * x % 7 for x in range(7)))
    return {
        "odd-square-cyclic-p3": constructions.odd_square_map(3, "cyclic").map.group,
        "odd-square-elementary-p3": constructions.odd_square_map(3, "elementary").map.group,
        "cyclic-2power-n4": constructions.cyclic_2power_map(4).map.group,
        "frobenius-21": constructions.frobenius_map(3, z7, action, 1).map.group,
        "odd-order-scan-cyclic9": groups.make_cyclic(9),
        "odd-order-scan-abelian3_3": groups.make_abelian([3, 3]),
    }


def check_witnesses(outputs: list, inputs: dict) -> list:
    """Re-verify every false verdict's witness pair; returns the failures.

    A group report's witnesses are checked against its first failing map, so
    that the rival subgroup's non-conjugacy is re-derived in Aut(M) as well.
    """
    failures = []
    by_name = {g.name: g for g in inputs.values()}
    battery = None
    for o in outputs:
        for r in json.loads(o.text)["reports"]:
            if r["verdict"] or r["subject"]["kind"] in ("map-pair", "battery"):
                continue
            key = r["notes"].get("battery_key")
            if key is None:
                h = by_name.get(r["subject"].get("group"))
            else:
                battery = battery or _battery_groups()
                h = battery.get(key)
            label = key or r["subject"].get("group")
            if h is None:
                failures.append(f"{label}: no group to re-verify the false verdict against")
                continue
            witnesses = r["witnesses"]
            if not any(w["kind"] == WITNESS_PAIR for w in witnesses):
                failures.append(f"{label}: false verdict without a witness pair")
                continue
            view = r
            if r["subject"]["kind"] == "group":
                head = witnesses[0]
                view = {"subject": {"rotation": head["rotation"]}, "witnesses": witnesses[1:]}
            try:
                ci.revalidate_map_report(view, h)
            except ValueError as exc:
                failures.append(f"{label}: witness does not re-verify: {exc}")
    return failures
