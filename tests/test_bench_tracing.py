"""The benchmark's trace targets must name functions that still exist."""

import contextlib
import importlib
import importlib.util
import io
import re
from collections import Counter
from pathlib import Path

from csstat import cli, mc

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_resolves():
    # bench/run.py --trace 1 wraps each (module, function) in SPANS, so a
    # deleted or renamed name would crash only a traced benchmark run
    tracing = load_tracing()
    targets = [t for names, _ in tracing.SPANS.values() for t in names]
    assert len(targets) == 18
    for module_name, func_name in targets:
        func = getattr(importlib.import_module(module_name), func_name, None)
        assert callable(func), f"{module_name}.{func_name}"


def test_metropolis_calls_fit_the_proposal_counter(monkeypatch):
    # the traced run counts proposals from each metropolis call's positional
    # arguments (model, beta, cfg); another positional argument breaks it
    real = mc.metropolis
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mc, "metropolis", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([
            "mc", "toric2d:3", "--p-start", "0.1", "--p-stop", "0.2",
            "--points", "2", "--samples", "2", "--sweeps", "40",
            "--burn-in", "8", "--replicas", "3", "--seed", "5",
        ])
    assert code == 0 and len(calls) == 4
    count, counts = load_tracing()._count_metropolis, Counter()
    for args in calls:
        count(counts, args, None)
    proposals = re.search(r"^# engine: .* proposals=(\d+)$", out.getvalue(), re.M)
    assert counts["mc.proposals"] == int(proposals.group(1))
