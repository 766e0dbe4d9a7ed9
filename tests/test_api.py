"""The public names, and the names the benchmark's tracer looks up."""

import importlib
import importlib.util
import sys
from pathlib import Path

import polyrig

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_public_and_traced_names_resolve(monkeypatch):
    for name in polyrig.__all__:
        assert hasattr(polyrig, name), name
    # bench/spans.py patches these by name; a rename here breaks traced runs
    spec = importlib.util.spec_from_file_location("polyrig_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    for layer, module, attr in spans.LAYERS:
        assert hasattr(importlib.import_module(module), attr), layer
    assert "__post_init__" in vars(polyrig.polygon.PointConfig2D)
