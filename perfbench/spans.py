"""Spans and counters around cimlab's layer entry points, recorded from outside the package.

``tracing()`` replaces each wrapped function under every name that binds it
in a loaded ``cimlab`` module: ``ci`` and ``cli`` import the entry points of
the lower layers by name, so wrapping only the defining module would miss
their calls. A span's self time is its duration minus that of the spans it
caused. The worker fan-out is traced by standing in for ``multiprocessing``
inside ``ci``: each pool task runs under a fresh recorder in the worker and
returns its spans with its result, and the parent files them under the
``ci.fanout`` span that covers the pool's lifetime.

Spans are aggregated per name as they close, so memory stays flat on sweeps
that make millions of calls; only ``ci.babai_is_ci_map`` keeps its
per-call durations, for percentiles.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import pickle
import resource
import sys
import time
from typing import Callable, Optional

_now = time.perf_counter

FANOUT = "ci.fanout"
SAMPLED = frozenset({"ci.babai_is_ci_map"})

# (defining module, function, span name)
SPANS = [
    ("enumeration", "connection_sets", "enumeration.connection_sets"),
    ("enumeration", "cayley_class_key", "enumeration.cayley_class_key"),
    ("enumeration", "total_map_count", "enumeration.total_map_count"),
    ("maps", "make_map", "maps.make_map"),
    ("mapiso", "stabilizer_automorphisms", "mapiso.stabilizer_automorphisms"),
    ("mapiso", "map_automorphism_group", "mapiso.map_automorphism_group"),
    ("mapiso", "map_iso_exists", "mapiso.map_iso_exists"),
    ("mapiso", "map_isomorphisms", "mapiso.map_isomorphisms"),
    ("mapiso", "are_cayley_isomorphic", "mapiso.are_cayley_isomorphic"),
    ("mapiso", "bruteforce_map_isomorphism", "mapiso.bruteforce_map_isomorphism"),
    ("perms", "regular_subgroups_isomorphic_to", "perms.regular_subgroups"),
    ("perms", "are_conjugate_subgroups", "perms.are_conjugate_subgroups"),
    ("groups", "automorphisms", "groups.automorphisms"),
    ("groups", "is_isomorphic", "groups.is_isomorphic"),
    ("groups", "closure_of", "groups.closure_of"),
    ("skew", "cyclic_skew_morphisms", "skew.cyclic_skew_morphisms"),
    ("ci", "babai_is_ci_map", "ci.babai_is_ci_map"),
    ("ci", "verify_connected_cim", "ci.verify_connected_cim"),
    ("ci", "verify_cim_group", "ci.verify_cim_group"),
    ("ci", "cross_validate", "ci.cross_validate"),
    ("ci", "definitional_is_ci_map", "ci.definitional_is_ci_map"),
    ("constructions", "odd_square_map", "constructions.odd_square_map"),
    ("constructions", "cyclic_2power_map", "constructions.cyclic_2power_map"),
    ("constructions", "quaternion16_witness", "constructions.quaternion16_witness"),
    ("constructions", "frobenius_map", "constructions.frobenius_map"),
    ("constructions", "z8_cim_maps", "constructions.z8_cim_maps"),
    ("constructions", "overlap_set", "constructions.overlap_set"),
    ("reports", "validate_bundle_dict", "reports.validate_bundle_dict"),
    ("reports", "dumps_canonical", "reports.dumps_canonical"),
    ("cli", "run", "cli.run"),
]


class Recorder:
    """Per-name span aggregates and counters for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.spans: dict[str, list[float]] = {}  # name -> [calls, self_s, total_s]
        self.edges: dict[str, int] = {}  # "parent>child" -> calls
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.rotations: set = set()  # maps seen by stabilizer_automorphisms here
        self.worker_rotations = 0  # and in the workers' tasks
        self.root_s = 0.0  # time covered by spans with no parent span
        self.worker_self_s = 0.0

    def push(self, name: str) -> tuple[list, Optional[str], float]:
        parent = self.stack[-1][0] if self.stack else None
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame, parent, _now()

    def pop(self, frame: list, parent: Optional[str], t0: float) -> None:
        d = _now() - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += d
        else:
            self.root_s += d
        name = frame[0]
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += d - frame[1]
        agg[2] += d
        edge = f"{parent}>{name}"
        self.edges[edge] = self.edges.get(edge, 0) + 1
        if name in SAMPLED:
            self.samples.setdefault(name, []).append(d)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def export(self) -> dict:
        """Everything recorded, in a picklable, JSON-ready form."""
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "edges": dict(self.edges),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "distinct_rotations": len(self.rotations) + self.worker_rotations,
            "root_s": self.root_s,
            "worker_self_s": self.worker_self_s,
        }

    def merge_worker(self, data: dict) -> None:
        """Fold a worker task's export in, re-parenting its roots under the fan-out."""
        for name, (calls, self_s, total_s) in data["spans"].items():
            agg = self.spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += total_s
            self.worker_self_s += self_s
        for edge, calls in data["edges"].items():
            if edge.startswith("None>"):
                edge = FANOUT + edge[4:]
            self.edges[edge] = self.edges.get(edge, 0) + calls
        for key, n in data["counts"].items():
            self.count(key, n)
        for name, vals in data["samples"].items():
            self.samples.setdefault(name, []).extend(vals)
        # one map's repeats stay within one task, so distinct counts add up
        self.worker_rotations += data["distinct_rotations"]


_ACTIVE: Optional[Recorder] = None


def _span(rec: Recorder, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame, parent, t0 = rec.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.pop(frame, parent, t0)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    return wrapper


def _after_stabilizer(rec: Recorder, args, kwargs, result) -> None:
    m = args[0]
    rec.rotations.add((m.group.name, m.group.order, m.rotation))
    rec.count("mapiso.stabilizer_automorphisms.alignments", m.valency)
    rec.count("mapiso.stabilizer_automorphisms.found", len(result))


def _after_regular(rec: Recorder, args, kwargs, result) -> None:
    g, h = args[0], args[1]
    if g.order == h.order:
        rec.count("perms.regular_subgroups.trivial_stabilizer")
    rec.count("perms.regular_subgroups.found", len(result))


def _after_conjugate(rec: Recorder, args, kwargs, result) -> None:
    g, a, b = args[0], args[1], args[2]
    if a.order != b.order:
        return
    if result is None:
        rec.count("perms.are_conjugate_subgroups.candidates", len(g.elements))
    else:
        rec.count("perms.are_conjugate_subgroups.candidates", g.elements.index(result) + 1)
        rec.count("perms.are_conjugate_subgroups.useful")


def _after_skew(rec: Recorder, args, kwargs, result) -> None:
    rec.count("skew.cyclic_skew_morphisms.found", len(result))


AFTER = {
    "mapiso.stabilizer_automorphisms": _after_stabilizer,
    "perms.regular_subgroups": _after_regular,
    "perms.are_conjugate_subgroups": _after_conjugate,
    "skew.cyclic_skew_morphisms": _after_skew,
}


def _counted_rotations(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for rot in fn(*args, **kwargs):
            rec.count("enumeration.rotations.yielded")
            yield rot

    return wrapper


def _counted_skew_check(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ok = fn(*args, **kwargs)
        rec.count("skew.is_skew_morphism.checks")
        if ok:
            rec.count("skew.is_skew_morphism.admitted")
        return ok

    return wrapper


def _traced_chunk(fn: Callable, chunk: list) -> tuple[list, dict]:
    """Worker side of the fan-out: run one chunk under a fresh recorder."""
    rec = _ACTIVE
    rec.reset()
    out = [fn(x) for x in chunk]
    return out, rec.export()


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class _TracedPool:
    """A pool whose ``map`` sends the pool's own chunks as traced tasks."""

    def __init__(self, rec: Recorder, workers: int, args, kwargs) -> None:
        self.rec = rec
        self.workers = workers
        self.cpu0 = _children_cpu()
        self.span = rec.push(FANOUT)
        self.pool = multiprocessing.Pool(*args, **kwargs)
        rec.count("ci.fanout.pools")

    def __enter__(self) -> "_TracedPool":
        self.pool.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.pool.__exit__(*exc)
            # terminate() reaps the workers, so their CPU time is in now
            self.pool.join()
        finally:
            wall = _now() - self.span[2]
            self.rec.pop(*self.span)
            self.rec.count("ci.fanout.child_cpu_s", _children_cpu() - self.cpu0)
            self.rec.count("ci.fanout.slot_s", self.workers * wall)

    def map(self, fn: Callable, items, chunksize: int = 1) -> list:
        items = list(items)
        chunks = [items[i:i + chunksize] for i in range(0, len(items), chunksize)]
        self.rec.count("ci.fanout.tasks", len(items))
        self.rec.count(
            "ci.fanout.bytes_sent",
            sum(len(pickle.dumps((fn, tuple(c)))) for c in chunks),
        )
        out: list = []
        for results, data in self.pool.map(functools.partial(_traced_chunk, fn), chunks, 1):
            out.extend(results)
            self.rec.merge_worker(data)
        return out


class _MultiprocessingProxy:
    """Stands in for the ``multiprocessing`` module inside ``ci``."""

    def __init__(self, rec: Recorder) -> None:
        self._rec = rec

    def Pool(self, processes: int, *args, **kwargs) -> _TracedPool:  # noqa: N802
        return _TracedPool(self._rec, processes, (processes,) + args, kwargs)

    def __getattr__(self, name: str):
        return getattr(multiprocessing, name)


def _cimlab_modules() -> list:
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "cimlab" or k.startswith("cimlab."))]


@contextlib.contextmanager
def tracing():
    """Install the wrappers into every loaded cimlab module; yields the recorder."""
    global _ACTIVE
    import cimlab.cli  # noqa: F401  (load every module that binds an entry point)
    from cimlab import ci, enumeration, maps

    rec = Recorder()
    wrappers: dict[int, Callable] = {}
    for mod_name, fn_name, span in SPANS:
        fn = getattr(sys.modules[f"cimlab.{mod_name}"], fn_name)
        wrappers[id(fn)] = _span(rec, span, fn, AFTER.get(span))
    wrappers[id(enumeration.rotations_of)] = _counted_rotations(rec, enumeration.rotations_of)
    wrappers[id(maps.is_skew_morphism)] = _counted_skew_check(rec, maps.is_skew_morphism)

    saved: list[tuple[object, str, object]] = []
    for mod in _cimlab_modules():
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                saved.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    saved.append((ci, "multiprocessing", ci.multiprocessing))
    ci.multiprocessing = _MultiprocessingProxy(rec)
    _ACTIVE = rec
    try:
        yield rec
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)
        _ACTIVE = None
