"""Command-line front end.

Subcommands: aut-map, iso-maps, is-ci-map, verify-cim,
verify-connected-cim, cross-validate, counterexample, reproduce-paper.
All output is canonical JSON (pretty, sorted keys) on stdout; timing
goes to stderr so repeated runs are byte-identical. Exit codes: 0 for a
true verdict, 1 for false, 2 for a usage or input error, 3 for an
internal error (a failed internal check).
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


def _cmd_aut_map(args) -> int:
    t0 = time.perf_counter()
    m = parse_map_spec(args.map)
    group = map_automorphism_group(m)
    stab = point_stabilizer(group, 0)
    report = CiReport(
        subject={"kind": "map", "group": m.group.name, "order": m.group.order,
                 "rotation": list(m.rotation)},
        verdict=True,
        method="aut-map",
        stats={
            "order": group.order,
            "stabilizer_order": stab.order,
        },
        notes={
            "balanced": is_balanced(m),
            "antibalanced": is_antibalanced(m),
            "connected": is_connected(m),
            "generators": [list(p) for p in group.generators],
        },
    )
    _emit(args, "aut-map", {"map": args.map}, [report], t0)
    return 0


def _cmd_iso_maps(args) -> int:
    t0 = time.perf_counter()
    m1 = parse_map_spec(args.map1)
    m2 = parse_map_spec(args.map2)
    isos = map_isomorphisms(m1, m2)
    cayley = are_cayley_isomorphic(m1, m2)
    report = CiReport(
        subject={"kind": "map-pair", "group1": m1.group.name, "group2": m2.group.name,
                 "rotation1": list(m1.rotation), "rotation2": list(m2.rotation)},
        verdict=bool(isos),
        method="iso-maps",
        witnesses=(
            [{"kind": "map-isomorphism", "images": list(isos[0].images)}] if isos else []
        ),
        stats={"isomorphism_count": len(isos)},
        notes={
            "cayley_isomorphic": cayley is not None,
            "cayley_witness": list(cayley.images) if cayley else None,
        },
    )
    _emit(args, "iso-maps", {"map1": args.map1, "map2": args.map2}, [report], t0)
    return 0 if isos else 1


def _cmd_is_ci_map(args) -> int:
    t0 = time.perf_counter()
    m = parse_map_spec(args.map)
    if args.method == "babai":
        report = babai_is_ci_map(m)
    else:
        report = definitional_is_ci_map(m)
    _emit(args, "is-ci-map", {"map": args.map, "method": args.method}, [report], t0)
    return 0 if report.verdict else 1


def _cmd_verify_cim(args, connected_only: bool) -> int:
    t0 = time.perf_counter()
    h = parse_group_spec(args.group)
    fn = verify_connected_cim if connected_only else verify_cim_group
    report = fn(h, args.max_valency, strategy=args.strategy, workers=args.workers)
    name = "verify-connected-cim" if connected_only else "verify-cim"
    config = {"group": args.group, "max_valency": args.max_valency,
              "strategy": args.strategy}
    _emit(args, name, config, [report], t0)
    return 0 if report.verdict else 1


def _cmd_cross_validate(args) -> int:
    t0 = time.perf_counter()
    h = parse_group_spec(args.group)
    report = cross_validate(h, workers=args.workers)
    _emit(args, "cross-validate", {"group": args.group}, [report], t0)
    return 0 if report.verdict else 1


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
        stats={
            "aut_order": aut.order,
            "ambient_order": w.ambient.order,
            "rival_order": w.rival.order,
        },
        notes={"family": key, "description": w.notes,
               "balanced": is_balanced(w.map), "antibalanced": is_antibalanced(w.map)},
    )


def _q16_report() -> CiReport:
    q = quaternion16_witness()
    isos = map_isomorphisms(q.map_quaternion, q.map_cyclic)
    cayley = are_cayley_isomorphic(q.map_quaternion, q.map_cyclic)
    groups_iso = is_isomorphic(
        q.quaternion_subgroup.as_group(), q.cyclic_subgroup.as_group()
    )
    if not isos or cayley is not None or groups_iso is not None:
        raise RuntimeError("quaternion-cyclic witness failed to reproduce")
    return CiReport(
        subject={"kind": "map-pair", "group1": q.map_quaternion.group.name,
                 "group2": q.map_cyclic.group.name,
                 "rotation1": list(q.map_quaternion.rotation),
                 "rotation2": list(q.map_cyclic.rotation)},
        verdict=False,
        method="counterexample",
        witnesses=[{"kind": "map-isomorphism", "images": list(isos[0].images)}],
        stats={"isomorphism_count": len(isos),
               "aut_order": map_automorphism_group(q.map_quaternion).order},
        notes={"family": "q16", "cayley_isomorphic": False,
               "groups_isomorphic": False,
               "balanced": is_balanced(q.map_quaternion)},
    )


def _cmd_counterexample(args) -> int:
    t0 = time.perf_counter()
    key = args.family
    if key == "odd-square":
        w = odd_square_map(args.p, args.kind)
        report = _witnessed_report(w, key)
        config = {"family": key, "p": args.p, "kind": args.kind}
    elif key == "cyclic-2power":
        w = cyclic_2power_map(args.n)
        report = _witnessed_report(w, key)
        report.notes["overlap6_set"] = sorted(overlap_set(w.map, 6))
        config = {"family": key, "n": args.n}
    elif key == "frobenius":
        k_group = parse_group_spec(args.k_group)
        action, rest = _parse_action(k_group, args.action)
        if rest:
            raise ValueError(f"trailing tokens in action {args.action!r}")
        w = frobenius_map(args.c_order, k_group, action, args.seed)
        report = _witnessed_report(w, key)
        config = {"family": key, "k_group": args.k_group, "c_order": args.c_order,
                  "action": args.action, "seed": args.seed}
    elif key == "q16":
        report = _q16_report()
        config = {"family": key}
    else:
        raise ValueError(f"unknown family {key!r}")
    _emit(args, "counterexample", config, [report], t0)
    return 0 if report.verdict else 1


def _scan_groups() -> list[tuple[str, FiniteGroup, bool]]:
    """Odd-order groups of order 3..15 with their expected CIM verdicts."""
    out: list[tuple[str, FiniteGroup, bool]] = []
    for n in (3, 5, 7, 9, 11, 13, 15):
        out.append((f"cyclic:{n}", make_cyclic(n), n not in (9,)))
    out.append(("abelian:3,3", make_abelian([3, 3]), False))
    return out


def _cmd_reproduce_paper(args) -> int:
    t0 = time.perf_counter()
    reports: list[CiReport] = []

    def add(report: CiReport, key: str, expected: bool) -> None:
        report.notes["battery_key"] = key
        report.notes["expected_verdict"] = expected
        report.notes["matches_expected"] = report.verdict == expected
        reports.append(report)

    add(_witnessed_report(odd_square_map(3, "cyclic"), "odd-square"),
        "odd-square-cyclic-p3", False)
    add(_witnessed_report(odd_square_map(3, "elementary"), "odd-square"),
        "odd-square-elementary-p3", False)
    w = cyclic_2power_map(4)
    rpt = _witnessed_report(w, "cyclic-2power")
    rpt.notes["overlap6_set"] = sorted(overlap_set(w.map, 6))
    add(rpt, "cyclic-2power-n4", False)

    add(_q16_report(), "quaternion16-pair", False)

    z7 = make_cyclic(7)
    action = GroupIsomorphism(z7, z7, tuple(2 * x % 7 for x in range(7)))
    add(_witnessed_report(frobenius_map(3, z7, action, 1), "frobenius"),
        "frobenius-21", False)

    add(verify_cim_group(make_cyclic(8), 7, workers=args.workers),
        "cyclic8-cim", True)

    featured = z8_cim_maps()
    featured_ok = all(
        map_automorphism_group(m).order == 32
        and is_antibalanced(m)
        and babai_is_ci_map(m).verdict
        for m in featured
    )
    add(
        CiReport(
            subject={"kind": "map-family", "group": "Z8",
                     "rotations": [list(m.rotation) for m in featured]},
            verdict=featured_ok,
            method="babai",
            stats={"maps": len(featured)},
            notes={"aut_order": 32, "antibalanced": True},
        ),
        "cyclic8-featured-maps", True,
    )

    for spec, group, expected in _scan_groups():
        add(
            verify_cim_group(group, group.order - 1, workers=args.workers),
            f"odd-order-scan-{spec.replace(':', '').replace(',', '_')}",
            expected,
        )

    all_match = all(r.notes["matches_expected"] for r in reports)
    summary = CiReport(
        subject={"kind": "battery", "entries": len(reports)},
        verdict=all_match,
        method="reproduce-paper",
        stats={
            "entries": len(reports),
            "matching": sum(1 for r in reports if r.notes["matches_expected"]),
        },
        notes={"results": {r.notes["battery_key"]: r.verdict for r in reports}},
    )
    reports.append(summary)
    _emit(args, "reproduce-paper", {"scan": "odd-orders-3-15"}, reports, t0)
    return 0 if all_match else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cimlab",
        description="Cayley map isomorphism workbench",
    )
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
    p.set_defaults(fn=_cmd_aut_map)

    p = sub.add_parser("iso-maps", help="all isomorphisms between two maps")
    p.add_argument("--map1", required=True)
    p.add_argument("--map2", required=True)
    common(p)
    p.set_defaults(fn=_cmd_iso_maps)

    p = sub.add_parser("is-ci-map", help="CI verdict for one map")
    p.add_argument("--map", required=True)
    p.add_argument("--method", choices=["babai", "definitional"], default="babai")
    common(p)
    p.set_defaults(fn=_cmd_is_ci_map)

    p = sub.add_parser("verify-cim", help="is the group a CIM-group up to a valency bound")
    p.add_argument("--group", required=True)
    p.add_argument("--max-valency", type=int, required=True)
    p.add_argument("--strategy", choices=["auto", "exhaustive", "stabilizer"],
                   default="auto")
    common(p)
    workers(p)
    p.set_defaults(fn=lambda a: _cmd_verify_cim(a, connected_only=False))

    p = sub.add_parser("verify-connected-cim",
                       help="restrict the CIM check to connected maps")
    p.add_argument("--group", required=True)
    p.add_argument("--max-valency", type=int, required=True)
    p.add_argument("--strategy", choices=["auto", "exhaustive", "stabilizer"],
                   default="auto")
    common(p)
    workers(p)
    p.set_defaults(fn=lambda a: _cmd_verify_cim(a, connected_only=True))

    p = sub.add_parser("cross-validate",
                       help="definitional vs regular-subgroup verdicts, order <= 8")
    p.add_argument("--group", required=True)
    common(p)
    workers(p)
    p.set_defaults(fn=_cmd_cross_validate)

    p = sub.add_parser("counterexample", help="construct a witnessed non-CI map")
    p.add_argument("--family", required=True,
                   choices=["odd-square", "cyclic-2power", "frobenius", "q16"])
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--kind", choices=["cyclic", "elementary"], default="cyclic")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k-group", default="cyclic:7")
    p.add_argument("--c-order", type=int, default=3)
    p.add_argument("--action", default="mult:2")
    p.add_argument("--seed", type=int, default=1)
    common(p)
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("reproduce-paper", help="run the full reproduction battery")
    common(p)
    workers(p)
    p.set_defaults(fn=_cmd_reproduce_paper)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CimlabError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
