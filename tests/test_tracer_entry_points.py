"""The benchmark tracer wraps cimlab entry points by name; each must still exist,
and a traced sweep must pass the benchmark's own consistency checks.

``perfbench/spans.py`` lists them in ``SPANS`` and also wraps
``enumeration.rotations_of`` and ``maps.is_skew_morphism`` and replaces
``ci.multiprocessing``. A refactor that deletes or renames one of them
fails here instead of crashing a traced benchmark run. A refactor that
changes how many ``babai_is_ci_map`` calls or regular-subgroup searches a
sweep makes fails ``metrics.reconcile`` here instead of in a traced run:
the stabilizer sweep, the disconnected reduction, a sweep ended by a
failing map, and the cross-validation sweep over a non-cyclic group.
"""

import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

from cimlab import ci
from cimlab.cli import parse_group_spec
from cimlab.groups import make_cyclic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name, monkeypatch):
    """A module of the benchmark harness, loaded without writing bytecode
    beside it; ``metrics`` imports ``spans`` by its bare name."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves(monkeypatch):
    names = [(mod, fn) for mod, fn, _ in load_perfbench("spans", monkeypatch).SPANS]
    assert len(names) > 20
    for mod, fn in names + [("enumeration", "rotations_of"), ("maps", "is_skew_morphism")]:
        assert callable(getattr(importlib.import_module(f"cimlab.{mod}"), fn, None)), (mod, fn)
    assert importlib.import_module("cimlab.ci").multiprocessing.Pool


@pytest.mark.parametrize("verify, n, max_valency, strategy, verdict", [
    ("verify_connected_cim", 13, 12, "stabilizer", True),  # the stabilizer sweep
    ("verify_cim_group", 16, 5, "auto", True),  # and the disconnected reduction
    ("verify_cim_group", 9, 8, "auto", False),
    # the oracles' sweep, through the point-coset search of a non-cyclic group
    pytest.param("cross_validate", "abelian:2,2,2", None, None, True,
                 id="cross_validate-abelian:2,2,2"),
])
def test_traced_sweep_reconciles(monkeypatch, verify, n, max_valency, strategy, verdict):
    # one worker: every map is decided in this process, by _babai_task
    spans = load_perfbench("spans", monkeypatch)
    metrics = load_perfbench("metrics", monkeypatch)
    h = make_cyclic(n) if isinstance(n, int) else parse_group_spec(n)
    args, kwargs = ((), {}) if max_valency is None else ((max_valency,), {"strategy": strategy})
    with spans.tracing() as rec:
        t0 = time.perf_counter()
        report = getattr(ci, verify)(h, *args, **kwargs)
        wall_s = time.perf_counter() - t0
        trace = rec.export()
    assert report.verdict is verdict
    results = [report.to_json_dict()]
    assert metrics.reconcile(trace, results, wall_s) == []
    checked = report.stats.get("maps_checked", report.stats.get("connected_checked"))
    assert trace["spans"]["ci.babai_is_ci_map"][0] >= checked > 0
