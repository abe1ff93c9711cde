"""The benchmark's trace targets must name functions that still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_trace_target_resolves():
    # bench/run.py --trace 1 wraps each (module, function) in SPANS, so a
    # deleted or renamed name would crash only a traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for names, _ in tracing.SPANS.values() for t in names]
    assert len(targets) == 18
    for module_name, func_name in targets:
        func = getattr(importlib.import_module(module_name), func_name, None)
        assert callable(func), f"{module_name}.{func_name}"
