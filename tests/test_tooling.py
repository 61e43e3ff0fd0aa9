"""The benchmark's tracer looks up library functions by name; a function
removed from the library must fail here before it breaks `bench/run.py
--trace 1` and the bench self-tests."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_library():
    spans = load_spans()
    missing = [
        f"{short}.{name}"
        for short, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"splang.{short}"), name, None))
    ]
    assert missing == []
    assert spans.GENERATORS <= {name for names in spans.TRACED.values() for name in names}
