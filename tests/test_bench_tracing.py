"""The benchmark's trace targets and traced gate hold on the current code."""

import contextlib
import importlib
import importlib.util
import io
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from csstat import cli, info, mc

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def load_tracing():
    return _load("bench_tracing", TRACING)


def load_bench():
    """bench/run.py, bench/child.py and the tracing module run.py imported.

    run.py puts bench/ on sys.path and imports checks and tracing by those
    names; both are taken back out, so no other test sees them.
    """
    saved_path = list(sys.path)
    try:
        run = _load("bench_run", BENCH / "run.py")
        child = _load("bench_child", BENCH / "child.py")
        tracing = sys.modules.pop("tracing")
        sys.modules.pop("checks")
    finally:
        sys.path[:] = saved_path
    return run, child, tracing


@contextlib.contextmanager
def installed(tracer):
    """tracer.install(), then every wrapped csstat name put back."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "csstat" or key.startswith("csstat."))]
    saved = [(module, dict(vars(module))) for module in modules]
    tracer.install()
    try:
        yield
    finally:
        for module, names in saved:
            for attr, value in names.items():
                if getattr(vars(module)[attr], "__wrapped__", None) is value:
                    setattr(module, attr, value)


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


@pytest.mark.parametrize(
    "name", ["sweep_indep", "sweep_depol", "mc_scan", "verify_identity"]
)
def test_traced_gate_holds(name):
    # bench/run.py --trace 1 fails a workload whose traced work count is not
    # Workload.work (1536 partition_exact calls for verify_identity, 1,024,000
    # proposals for mc_scan), or whose output fails its check; one seed-1 call
    # in this process, traced as the benchmark child traces it
    run, child, tracing = load_bench()
    workload = run.WORKLOADS[name]
    tracer, real_main = tracing.Tracer(), cli.main
    with installed(tracer):
        # looked up after install, as the child does: tracing replaces it
        call = child._call(cli.main, workload.argv(run.DEFAULT_SEED))
    assert cli.main is real_main
    call.update(ref_s=1.0, warmup=False, traced=True, layers=tracer.summary(),
                counts=tracer.work_counts(), bound_slack=info.BOUND_SLACK)
    with open(BENCH / "reference.json", encoding="ascii") as fh:
        reference = json.load(fh).get(name)  # verify_identity has no rows
    _, failed, messages = workload.check(call, run.DEFAULT_SEED, reference)
    assert failed == 0, messages
    calls = [call, dict(call, traced=False)]
    metrics = run.per_layer_metrics(calls)
    assert run.trace_problems(workload, calls, metrics) == []
    assert metrics[workload.work_traced]["value"] == workload.work
