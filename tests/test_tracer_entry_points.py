"""The benchmark tracer wraps cimlab entry points by name; each must still exist.

``perfbench/spans.py`` lists them in ``SPANS`` and also wraps
``enumeration.rotations_of`` and ``maps.is_skew_morphism`` and replaces
``ci.multiprocessing``. A refactor that deletes or renames one of them
fails here instead of crashing a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, fn) for mod, fn, _ in spans.SPANS]


def test_every_traced_entry_point_resolves():
    names = traced_names()
    assert len(names) > 20
    for mod, fn in names + [("enumeration", "rotations_of"), ("maps", "is_skew_morphism")]:
        assert callable(getattr(importlib.import_module(f"cimlab.{mod}"), fn, None)), (mod, fn)
    assert importlib.import_module("cimlab.ci").multiprocessing.Pool
