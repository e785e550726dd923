"""Command-line front end.

Subcommands: aut-map, iso-maps, is-ci-map, verify-cim,
verify-connected-cim, cross-validate, counterexample, reproduce-paper.
Each subcommand's builder returns its config and reports, and ``run()``
emits them as one bundle: canonical JSON (pretty, sorted keys) on
stdout, timing on stderr, so repeated runs are byte-identical. The
entries of reproduce-paper (``BATTERY``) come from the same builders.
Exit codes: 0 when the last report's verdict is true (reproduce-paper's
last report is its summary), 1 when it is false, 2 for a usage or input
error, 3 for an internal error (a failed internal check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .errors import CimlabError
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    GroupIsomorphism,
    direct_product,
    group_from_json,
    is_isomorphic,
    make_abelian,
    make_cyclic,
    make_generalized_quaternion,
    make_semidirect,
)
from .maps import CayleyMap, is_antibalanced, is_balanced, is_connected, make_map
from .mapiso import are_cayley_isomorphic, map_automorphism_group, map_isomorphisms
from .ci import (
    _map_subject,
    babai_is_ci_map,
    cross_validate,
    definitional_is_ci_map,
    verify_cim_group,
    verify_connected_cim,
)
from .constructions import (
    cyclic_2power_map,
    frobenius_map,
    odd_square_map,
    overlap_set,
    quaternion16_witness,
    z8_cim_maps,
)
from .perms import point_stabilizer
from .reports import CiReport, ReportBundle, dumps_canonical, validate_bundle_dict


def order_cap() -> int:
    return int(os.environ.get("CIMLAB_CAP_ORDER", DEFAULT_ORDER_CAP))


def _check_order_cap(order: int) -> None:
    if order > order_cap():
        raise CimlabError(
            f"group order {order} exceeds cap {order_cap()} "
            "(override with CIMLAB_CAP_ORDER)"
        )


def parse_group_spec(spec: str) -> FiniteGroup:
    """Parse shorthand specs: cyclic:8, abelian:2,2,2, quaternion:16,
    product:<spec>,<spec>, semidirect:<spec>,<order>,mult:<u>."""
    group, rest = _parse_group(spec.strip())
    if rest:
        raise ValueError(f"trailing tokens {rest!r} in group spec {spec!r}")
    _check_order_cap(group.order)
    return group


def _parse_group(spec: str) -> tuple[FiniteGroup, str]:
    kind, _, rest = spec.partition(":")
    if kind == "cyclic":
        n, rest = _take_int(rest)
        return make_cyclic(n), rest
    if kind == "abelian":
        orders = []
        while True:
            n, rest = _take_int(rest)
            orders.append(n)
            if not rest.startswith(","):
                break
            probe = rest[1:]
            head = probe.split(",", 1)[0]
            if not head.isdigit():
                break
            rest = probe
        return make_abelian(orders), rest
    if kind == "quaternion":
        n, rest = _take_int(rest)
        return make_generalized_quaternion(n), rest
    if kind == "product":
        g1, rest = _parse_group(rest)
        if not rest.startswith(","):
            raise ValueError("product needs two comma-separated specs")
        g2, rest = _parse_group(rest[1:])
        return direct_product(g1, g2), rest
    if kind == "semidirect":
        k_group, rest = _parse_group(rest)
        if not rest.startswith(","):
            raise ValueError("semidirect needs <k-spec>,<order>,<action>")
        c_order, rest = _take_int(rest[1:])
        if not rest.startswith(","):
            raise ValueError("semidirect needs an action spec")
        action, rest = _parse_action(k_group, rest[1:])
        return make_semidirect(k_group, c_order, action), rest
    raise ValueError(f"unknown group spec kind {kind!r}")


def _take_int(s: str) -> tuple[int, str]:
    i = 0
    while i < len(s) and s[i].isdigit():
        i += 1
    if i == 0:
        raise ValueError(f"expected an integer at {s!r}")
    return int(s[:i]), s[i:]


def _parse_action(k_group: FiniteGroup, s: str) -> tuple[GroupIsomorphism, str]:
    kind, _, rest = s.partition(":")
    if kind == "mult":
        u, rest = _take_int(rest)
        n = k_group.order
        images = tuple(u * x % n for x in range(n))
        if sorted(images) != list(range(n)):
            raise ValueError(f"mult:{u} is not an automorphism of order-{n} cyclic group")
        action = GroupIsomorphism(k_group, k_group, images)
        action.validate()
        return action, rest
    if kind == "neg":
        action = GroupIsomorphism(
            k_group, k_group, tuple(k_group.inverse)
        )
        action.validate()
        return action, rest
    raise ValueError(f"unknown action kind {kind!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(x) for x in value)


def _check_map_file(data) -> None:
    """Raise ValueError unless data has the shape of a map file."""
    if not isinstance(data, dict):
        raise ValueError(f"map file must hold a JSON object, not {type(data).__name__}")
    for key in ("group", "rotation"):
        if key not in data:
            raise ValueError(f"map file has no {key!r} key")
    if not _is_int_list(data["rotation"]):
        raise ValueError("map file 'rotation' must be a list of integers")
    group = data["group"]
    if isinstance(group, str):
        return
    if not isinstance(group, dict):
        raise ValueError("map file 'group' must be a group spec string or an object")
    for key in ("order", "table"):
        if key not in group:
            raise ValueError(f"map file 'group' object has no {key!r} key")
    if not _is_int(group["order"]):
        raise ValueError("map file 'group' order must be an integer")
    if not isinstance(group["table"], list) or not all(_is_int_list(r) for r in group["table"]):
        raise ValueError("map file 'group' table must be a list of integer lists")


def parse_map_spec(spec: str) -> CayleyMap:
    """Map specs: z8:1,3,5,7 | <group-spec>/1,3,5,7 | @file.json."""
    spec = spec.strip()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            data = json.load(fh)
        _check_map_file(data)
        if isinstance(data["group"], dict):
            # before from_table's O(n^3) axiom check
            _check_order_cap(max(data["group"]["order"], len(data["group"]["table"])))
            group = group_from_json(data["group"])
        else:
            group = parse_group_spec(data["group"])
        return make_map(group, data["rotation"])
    if "/" in spec:
        group_part, _, rot_part = spec.rpartition("/")
        group = parse_group_spec(group_part)
    else:
        group_part, _, rot_part = spec.partition(":")
        if not (group_part.startswith("z") and group_part[1:].isdigit()):
            raise ValueError(
                f"map spec {spec!r} not understood; use zN:..., <group-spec>/..., or @file.json"
            )
        group = parse_group_spec(f"cyclic:{group_part[1:]}")
    rotation = [int(tok) for tok in rot_part.split(",") if tok]
    return make_map(group, rotation)


def _emit(args, command: str, config: dict, reports: list[CiReport], t0: float) -> None:
    bundle = ReportBundle(
        command=command,
        config=config,
        reports=[r.to_json_dict(include_timings=args.timings) for r in reports],
        elapsed=time.perf_counter() - t0,
    )
    payload = bundle.to_json_dict(include_timings=args.timings)
    validate_bundle_dict(payload)
    text = dumps_canonical(payload)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"[{command}] {bundle.elapsed:.2f}s", file=sys.stderr)


def _cmd_aut_map(args) -> tuple[dict, list[CiReport]]:
    m = parse_map_spec(args.map)
    group = map_automorphism_group(m)
    report = CiReport(
        subject=_map_subject(m),
        verdict=True,
        method="aut-map",
        stats={"order": group.order, "stabilizer_order": point_stabilizer(group, 0).order},
        notes={
            "balanced": is_balanced(m),
            "antibalanced": is_antibalanced(m),
            "connected": is_connected(m),
            "generators": [list(p) for p in group.generators],
        },
    )
    return {"map": args.map}, [report]


def _map_pair_report(m1: CayleyMap, m2: CayleyMap, method: str) -> CiReport:
    """Verdict: m1 and m2 are isomorphic maps. The notes say whether a
    Cayley isomorphism exists too."""
    isos = map_isomorphisms(m1, m2)
    cayley = are_cayley_isomorphic(m1, m2)
    return CiReport(
        subject={"kind": "map-pair", "group1": m1.group.name, "group2": m2.group.name,
                 "rotation1": list(m1.rotation), "rotation2": list(m2.rotation)},
        verdict=bool(isos),
        method=method,
        witnesses=[{"kind": "map-isomorphism", "images": list(isos[0].images)}] if isos else [],
        stats={"isomorphism_count": len(isos)},
        notes={"cayley_isomorphic": cayley is not None,
               "cayley_witness": list(cayley.images) if cayley else None},
    )


def _cmd_iso_maps(args) -> tuple[dict, list[CiReport]]:
    report = _map_pair_report(parse_map_spec(args.map1), parse_map_spec(args.map2), "iso-maps")
    return {"map1": args.map1, "map2": args.map2}, [report]


def _cmd_is_ci_map(args) -> tuple[dict, list[CiReport]]:
    m = parse_map_spec(args.map)
    check = babai_is_ci_map if args.method == "babai" else definitional_is_ci_map
    return {"map": args.map, "method": args.method}, [check(m)]


def _cmd_verify_cim(args) -> tuple[dict, list[CiReport]]:
    """verify-cim and verify-connected-cim; the command names the maps swept."""
    h = parse_group_spec(args.group)
    verify = verify_connected_cim if args.command == "verify-connected-cim" else verify_cim_group
    report = verify(h, args.max_valency, strategy=args.strategy, workers=args.workers)
    return {"group": args.group, "max_valency": args.max_valency,
            "strategy": args.strategy}, [report]


def _cmd_cross_validate(args) -> tuple[dict, list[CiReport]]:
    report = cross_validate(parse_group_spec(args.group), workers=args.workers)
    return {"group": args.group}, [report]


def _witnessed_report(w, key: str) -> CiReport:
    aut = map_automorphism_group(w.map)
    babai = babai_is_ci_map(w.map, aut=aut)
    w.revalidate()
    return CiReport(
        subject={"kind": "witnessed-map", "group": w.map.group.name,
                 "order": w.map.group.order, "rotation": list(w.map.rotation)},
        verdict=babai.verdict,
        method="counterexample",
        witnesses=[
            {"kind": "rival-regular-subgroup",
             "generators": [list(p) for p in w.rival.generators],
             "order": w.rival.order},
        ] + babai.witnesses,
        stats={"aut_order": aut.order, "ambient_order": w.ambient.order,
               "rival_order": w.rival.order},
        notes={"family": key, "description": w.notes,
               "balanced": is_balanced(w.map), "antibalanced": is_antibalanced(w.map)},
    )


def _q16_report() -> CiReport:
    q = quaternion16_witness()
    report = _map_pair_report(q.map_quaternion, q.map_cyclic, "counterexample")
    groups_iso = is_isomorphic(q.quaternion_subgroup.as_group(), q.cyclic_subgroup.as_group())
    if not report.verdict or report.notes["cayley_isomorphic"] or groups_iso is not None:
        raise RuntimeError("quaternion-cyclic witness failed to reproduce")
    # isomorphic maps that no Cayley isomorphism relates: the CI property fails
    report.verdict = False
    report.stats["aut_order"] = map_automorphism_group(q.map_quaternion).order
    report.notes = {"family": "q16", "cayley_isomorphic": False, "groups_isomorphic": False,
                    "balanced": is_balanced(q.map_quaternion)}
    return report


# the options each counterexample family reads, which are also its config
FAMILY_OPTIONS = {
    "odd-square": ("p", "kind"),
    "cyclic-2power": ("n",),
    "frobenius": ("k_group", "c_order", "action", "seed"),
    "q16": (),
}


def _cmd_counterexample(args) -> tuple[dict, list[CiReport]]:
    family = args.family
    config = {"family": family, **{o: getattr(args, o) for o in FAMILY_OPTIONS[family]}}
    if family == "q16":
        return config, [_q16_report()]
    if family == "odd-square":
        w = odd_square_map(args.p, args.kind)
    elif family == "cyclic-2power":
        w = cyclic_2power_map(args.n)
    else:
        k_group = parse_group_spec(args.k_group)
        action, rest = _parse_action(k_group, args.action)
        if rest:
            raise ValueError(f"trailing tokens in action {args.action!r}")
        w = frobenius_map(args.c_order, k_group, action, args.seed)
    report = _witnessed_report(w, family)
    if family == "cyclic-2power":
        report.notes["overlap6_set"] = sorted(overlap_set(w.map, 6))
    return config, [report]


def _featured_maps_report() -> CiReport:
    featured = z8_cim_maps()
    checks = [babai_is_ci_map(m) for m in featured]
    return CiReport(
        subject={"kind": "map-family", "group": "Z8",
                 "rotations": [list(m.rotation) for m in featured]},
        verdict=all(r.verdict and r.stats["aut_order"] == 32 and is_antibalanced(m)
                    for m, r in zip(featured, checks)),
        method="babai",
        stats={"maps": len(featured)},
        notes={"aut_order": 32, "antibalanced": True},
    )


# reproduce-paper's entries: (battery_key, expected verdict, subcommand,
# its options). Each entry is the report of that subcommand with those
# options; only the featured Z8 maps have no subcommand.
BATTERY = [
    ("odd-square-cyclic-p3", False, "counterexample",
     {"family": "odd-square", "p": 3, "kind": "cyclic"}),
    ("odd-square-elementary-p3", False, "counterexample",
     {"family": "odd-square", "p": 3, "kind": "elementary"}),
    ("cyclic-2power-n4", False, "counterexample", {"family": "cyclic-2power", "n": 4}),
    ("quaternion16-pair", False, "counterexample", {"family": "q16"}),
    ("frobenius-21", False, "counterexample", {"family": "frobenius", "k_group": "cyclic:7",
                                               "c_order": 3, "action": "mult:2", "seed": 1}),
    ("cyclic8-cim", True, "verify-cim", {"group": "cyclic:8", "max_valency": 7,
                                         "strategy": "auto"}),
    ("cyclic8-featured-maps", True, None, {}),
] + [
    # the odd orders 3..15 at full valency
    (f"odd-order-scan-{spec.replace(':', '').replace(',', '_')}", expected, "verify-cim",
     {"group": spec, "max_valency": order - 1, "strategy": "auto"})
    for spec, order, expected in [
        ("cyclic:3", 3, True), ("cyclic:5", 5, True), ("cyclic:7", 7, True),
        ("cyclic:9", 9, False), ("cyclic:11", 11, True), ("cyclic:13", 13, True),
        ("cyclic:15", 15, True), ("abelian:3,3", 9, False),
    ]
]


def _cmd_reproduce_paper(args) -> tuple[dict, list[CiReport]]:
    reports: list[CiReport] = []
    for key, expected, command, options in BATTERY:
        if command is None:
            report = _featured_maps_report()
        else:
            sub = argparse.Namespace(command=command, workers=args.workers, **options)
            _, (report,) = _build(sub)
        report.notes.update(battery_key=key, expected_verdict=expected,
                            matches_expected=report.verdict == expected)
        reports.append(report)
    all_match = all(r.notes["matches_expected"] for r in reports)
    summary = CiReport(
        subject={"kind": "battery", "entries": len(reports)},
        verdict=all_match,
        method="reproduce-paper",
        stats={"entries": len(reports),
               "matching": sum(1 for r in reports if r.notes["matches_expected"])},
        notes={"results": {r.notes["battery_key"]: r.verdict for r in reports}},
    )
    return {"scan": "odd-orders-3-15"}, reports + [summary]


def _build(args) -> tuple[dict, list[CiReport]]:
    """The config and reports of ``args.command``, for run() and the battery.

    The builders are looked up at each call, so a wrapper set on one of
    this module's attributes is the one called.
    """
    return {
        "aut-map": _cmd_aut_map,
        "iso-maps": _cmd_iso_maps,
        "is-ci-map": _cmd_is_ci_map,
        "verify-cim": _cmd_verify_cim,
        "verify-connected-cim": _cmd_verify_cim,
        "cross-validate": _cmd_cross_validate,
        "counterexample": _cmd_counterexample,
        "reproduce-paper": _cmd_reproduce_paper,
    }[args.command](args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cimlab", description="Cayley map isomorphism workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="also write the JSON report to this file")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock stats in the JSON output")

    def workers(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="processes for the map checks, clamped to [1, CPU count]")

    p = sub.add_parser("aut-map", help="automorphism group of a map")
    p.add_argument("--map", required=True)
    common(p)

    p = sub.add_parser("iso-maps", help="all isomorphisms between two maps")
    p.add_argument("--map1", required=True)
    p.add_argument("--map2", required=True)
    common(p)

    p = sub.add_parser("is-ci-map", help="CI verdict for one map")
    p.add_argument("--map", required=True)
    p.add_argument("--method", choices=["babai", "definitional"], default="babai")
    common(p)

    for name, text in (("verify-cim", "is the group a CIM-group up to a valency bound"),
                       ("verify-connected-cim", "restrict the CIM check to connected maps")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--group", required=True)
        p.add_argument("--max-valency", type=int, required=True)
        p.add_argument("--strategy", choices=["auto", "exhaustive", "stabilizer"],
                       default="auto")
        common(p)
        workers(p)

    p = sub.add_parser("cross-validate",
                       help="definitional vs regular-subgroup verdicts, order <= 8")
    p.add_argument("--group", required=True)
    common(p)
    workers(p)

    p = sub.add_parser("counterexample", help="construct a witnessed non-CI map")
    p.add_argument("--family", required=True, choices=list(FAMILY_OPTIONS))
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--kind", choices=["cyclic", "elementary"], default="cyclic")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k-group", default="cyclic:7")
    p.add_argument("--c-order", type=int, default=3)
    p.add_argument("--action", default="mult:2")
    p.add_argument("--seed", type=int, default=1)
    common(p)

    p = sub.add_parser("reproduce-paper", help="run the full reproduction battery")
    common(p)
    workers(p)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        config, reports = _build(args)
        _emit(args, args.command, config, reports, t0)
    except (CimlabError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0 if reports[-1].verdict else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
