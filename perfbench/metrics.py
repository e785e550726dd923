"""Metric names, the per-layer figures derived from a trace, the trace's
reconciliation checks, and the percentiles they use."""

from __future__ import annotations

from spans import FANOUT

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END = {
    "solve_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

TIMED = ("mapiso.stabilizer_automorphisms", "mapiso.map_automorphism_group",
         "perms.regular_subgroups", "perms.are_conjugate_subgroups",
         "groups.automorphisms", "groups.is_isomorphic", "groups.closure_of",
         "enumeration.connection_sets", "enumeration.cayley_class_key",
         "maps.make_map", "skew.cyclic_skew_morphisms", "ci.babai_is_ci_map")
PIPELINES = ("ci.verify_connected_cim", "ci.verify_cim_group", "ci.cross_validate")

PER_LAYER = {}
for _name in TIMED:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "mapiso.stabilizer_automorphisms.repeat_ratio": ("ratio", "lower"),
    "mapiso.stabilizer_automorphisms.hit_ratio": ("ratio", "higher"),
    "perms.regular_subgroups.trivial_stabilizer_share": ("ratio", "higher"),
    "perms.regular_subgroups.found_per_call": ("ratio", "lower"),
    "perms.are_conjugate_subgroups.candidates_tried": ("count", "lower"),
    "perms.are_conjugate_subgroups.useful_ratio": ("ratio", "higher"),
    "enumeration.rotations.yielded": ("count", "lower"),
    "skew.cyclic_skew_morphisms.found": ("count", "higher"),
    "skew.admit_ratio": ("ratio", "higher"),
    "ci.fanout.pools": ("count", "lower"),
    "ci.fanout.tasks": ("count", "lower"),
    "ci.fanout.bytes_sent": ("B", "lower"),
    "ci.fanout.wall_s": ("s", "lower"),
    "ci.fanout.child_cpu_s": ("s", "lower"),
    "ci.fanout.efficiency": ("ratio", "higher"),
    "ci.babai_is_ci_map.p50_us": ("us", "lower"),
    "ci.babai_is_ci_map.p99_us": ("us", "lower"),
    "ci.verify.self_s": ("s", "lower"),
    "ci.rich_maps": ("count", "lower"),
    "ci.rich_classes": ("count", "lower"),
    "ci.rich_per_class": ("ratio", "lower"),
    "constructions.self_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 when nothing was attempted; the base is reported beside it."""
    return a / b if b else 0.0


def quantile(values: list, q: float) -> float:
    """Linear-interpolation quantile of a nonempty sample."""
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def layer_metrics(trace: dict, results: list, overhead_s: float) -> dict:
    """Every per-layer metric from one traced repetition.

    ``results`` holds the verdict and stats of every report it emitted.
    """
    spans, counts = trace["spans"], trace["counts"]

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    out: dict = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)

    sa = "mapiso.stabilizer_automorphisms"
    out[f"{sa}.repeat_ratio"] = _ratio(calls(sa), trace["distinct_rotations"])
    out[f"{sa}.hit_ratio"] = _ratio(counts.get(f"{sa}.found", 0),
                                    counts.get(f"{sa}.alignments", 0))
    rs = "perms.regular_subgroups"
    out[f"{rs}.trivial_stabilizer_share"] = _ratio(
        counts.get(f"{rs}.trivial_stabilizer", 0), calls(rs))
    out[f"{rs}.found_per_call"] = _ratio(counts.get(f"{rs}.found", 0), calls(rs))
    cs = "perms.are_conjugate_subgroups"
    tried = counts.get(f"{cs}.candidates", 0)
    out[f"{cs}.candidates_tried"] = tried
    out[f"{cs}.useful_ratio"] = _ratio(counts.get(f"{cs}.useful", 0), tried)
    out["enumeration.rotations.yielded"] = counts.get("enumeration.rotations.yielded", 0)
    out["skew.cyclic_skew_morphisms.found"] = counts.get("skew.cyclic_skew_morphisms.found", 0)
    out["skew.admit_ratio"] = _ratio(counts.get("skew.is_skew_morphism.admitted", 0),
                                     counts.get("skew.is_skew_morphism.checks", 0))

    child_cpu = counts.get("ci.fanout.child_cpu_s", 0.0)
    out["ci.fanout.pools"] = counts.get("ci.fanout.pools", 0)
    out["ci.fanout.tasks"] = counts.get("ci.fanout.tasks", 0)
    out["ci.fanout.bytes_sent"] = counts.get("ci.fanout.bytes_sent", 0)
    out["ci.fanout.wall_s"] = spans.get(FANOUT, (0, 0.0, 0.0))[2]
    out["ci.fanout.child_cpu_s"] = child_cpu
    out["ci.fanout.efficiency"] = _ratio(child_cpu, counts.get("ci.fanout.slot_s", 0.0))

    babai = sorted(trace["samples"].get("ci.babai_is_ci_map", []))
    out["ci.babai_is_ci_map.p50_us"] = quantile(babai, 0.5) * 1e6 if babai else 0.0
    out["ci.babai_is_ci_map.p99_us"] = quantile(babai, 0.99) * 1e6 if babai else 0.0
    out["ci.verify.self_s"] = sum(self_s(n) for n in PIPELINES)

    rich = sum(r["stats"].get("maps_rich", 0) for r in results)
    classes = sum(r["stats"].get("rich_classes", 0) for r in results)
    out["ci.rich_maps"] = rich
    out["ci.rich_classes"] = classes
    out["ci.rich_per_class"] = _ratio(rich, classes)
    out["constructions.self_s"] = sum(
        (v[1] for k, v in spans.items() if k.startswith("constructions.")), 0.0)
    out["cli.emit_s"] = self_s("reports.validate_bundle_dict") + self_s("reports.dumps_canonical")
    out["trace.overhead_s"] = overhead_s
    return out


def reconcile(trace: dict, results: list, wall_s: float) -> list:
    """The trace's consistency checks against the run it traced; returns failures.

    - self time of every span in the main process, plus the time no span
      covers, is the traced solve's wall time;
    - worker self time fits in the worker slots the pools offered;
    - the pipelines' ``babai_is_ci_map`` calls equal the maps they report
      checked; after a false verdict the batch holding the failing map was
      already computed, so there the calls may exceed the count;
    - every ``babai_is_ci_map`` call makes one regular-subgroup search.
    """
    failures = []
    spans, edges = trace["spans"], trace["edges"]
    main_self = sum(v[1] for v in spans.values()) - trace["worker_self_s"]
    remainder = wall_s - trace["root_s"]
    calls = sum(v[0] for v in spans.values())
    if abs(main_self + remainder - wall_s) > 1e-6 + 1e-9 * calls or remainder < 0:
        failures.append(f"self time {main_self:.6f} s + remainder {remainder:.6f} s "
                        f"!= solve {wall_s:.6f} s")
    slots = trace["counts"].get("ci.fanout.slot_s", 0.0)
    if trace["worker_self_s"] > slots + 1e-3:
        failures.append(f"worker self time {trace['worker_self_s']:.3f} s exceeds "
                        f"{slots:.3f} s of worker slots")

    babai = "ci.babai_is_ci_map"
    in_pipeline = sum(edges.get(f"{p}>{babai}", 0)
                      for p in ("ci.verify_connected_cim", "ci.cross_validate", FANOUT))
    sweeps = [r for r in results
              if "maps_checked" in r["stats"] or "connected_checked" in r["stats"]]
    checked = sum(r["stats"].get("maps_checked", 0) + r["stats"].get("connected_checked", 0)
                  for r in sweeps)
    all_true = all(r["verdict"] for r in sweeps)
    if in_pipeline != checked and (all_true or in_pipeline < checked):
        failures.append(f"{in_pipeline} pipeline babai_is_ci_map calls for {checked} maps checked")
    regular = spans.get("perms.regular_subgroups", (0,))[0]
    total_babai = spans.get(babai, (0,))[0]
    if regular != total_babai:
        failures.append(f"{regular} regular-subgroup searches for {total_babai} "
                        "babai_is_ci_map calls")
    return failures
