"""csstat benchmark: four CLI workloads end to end, and a traced layer breakdown.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sweep_indep --seed 1 --seconds 25 --trace 0

One client runs the workload's ``csstat.cli.main`` call in a closed loop,
in one child process: an untimed warm-up call, then one call after another
for about ``--seconds``. Each call takes 0.5 to 3 s, so a run times eight or
more of them, and the medians over the calls are reported.

``--trace 0`` reports the end-to-end metrics (BENCHMARK.json "end_to_end"):

- ``setup_s``: median over the loop child and a few set-up-only processes.
- ``wall_per_ref``: median over calls of the call's wall time divided by
  the time of a fixed reference computation (child.reference_s), averaged
  over one run just before and one just after it in the same process. On a 2-vCPU share of a busy host the speed
  of the cores drifts by 20-40% over tens of seconds, and the plain wall
  time of two runs a minute apart differed by as much; the ratio cancels
  most of that drift. The reference uses no csstat code, so a change to
  csstat moves the ratio in proportion to the call's wall time. Lower is
  better; its inverse is the workload's throughput per reference time.
- ``peak_rss_mb``: ru_maxrss of the child that ran the calls.

The plain medians ``wall_s``, the workload's throughput (points_per_s for the
sweeps, proposals_per_s for mc_scan, sectors_per_s for verify_identity) and
``ref_s`` are printed and recorded too, but not gated. Every call's output is
checked, the warm-up included. Failed operations are the result line's
``failed`` out of ``attempted``; any failure also sets ``correct`` to false.

``--trace 1`` runs a traced child for half the time and an untraced one for
the other half, and reports the per-layer metrics: calls and self time per
wrapped function, work counts derived from argument sizes, rates over self
time, and the tracing overhead.

The seed sets mc_scan's ``--seed`` and shifts the p grids of the other
workloads; the default seed (1) runs the exact command lines below and
also compares every row with bench/reference.json. All other checks hold
for any seed. Results and spans are written under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import COUNT_NAMES, SPANS  # noqa: E402

DEFAULT_SEED = 1
SETUP_PROBES = 8  # extra set-up-only processes per untraced run
MIN_CALLS = 3  # timed calls per child, even past --seconds
CHILD_TIMEOUT_S = 60.0  # set-up alone, or a loop past its --seconds


def p_offset(seed: int) -> float:
    """p-grid shift: 0 at the default seed, else in [1e-5, 1e-2]."""
    if seed == DEFAULT_SEED:
        return 0.0
    return (1 + (seed * 2654435761) % 1000) * 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    selector: str
    argv: Callable[[int], List[str]]
    work: int  # units of work per call: rows, proposals or sectors
    work_name: str
    work_traced: str  # per-layer metric that must equal `work` in a traced run
    check: Callable[[Dict, int, Optional[list]], checks.Result]


def _sweep_argv(code: str, start: float, stop: float, points: int,
                extra: List[str]) -> Callable[[int], List[str]]:
    def argv(seed: int) -> List[str]:
        d = p_offset(seed)
        return ["ic-sweep", "--code", code, *extra,
                "--p-start", repr(start + d), "--p-stop", repr(stop + d),
                "--points", str(points), "--format", "json"]
    return argv


def _sweep_check(start: float, stop: float, points: int, k: int, joint: bool):
    def check(report: Dict, seed: int, reference: Optional[list]) -> checks.Result:
        d = p_offset(seed)
        grid = checks.p_grid(start + d, stop + d, points)
        return checks.check_sweep(report, grid, k, joint, reference)
    return check


MC_GRID = (0.05, 0.2, 4)
MC_SAMPLES, MC_SWEEPS, MC_BURN_IN, MC_REPLICAS, MC_SPINS = 2, 1000, 250, 2, 64
MC_QUBITS = 128  # toric2d:8; |energy per spin| <= qubits / spins


def _mc_argv(seed: int) -> List[str]:
    start, stop, points = MC_GRID
    return ["mc", "toric2d:8", "--p-start", repr(start), "--p-stop", repr(stop),
            "--points", str(points), "--samples", str(MC_SAMPLES),
            "--sweeps", str(MC_SWEEPS), "--burn-in", str(MC_BURN_IN),
            "--replicas", str(MC_REPLICAS), "--seed", str(seed),
            "--format", "json"]


def _mc_check(report: Dict, seed: int, reference: Optional[list]) -> checks.Result:
    grid = checks.p_grid(*MC_GRID)
    return checks.check_mc(report, grid, MC_SAMPLES, MC_QUBITS / MC_SPINS, reference)


VERIFY_CODE, VERIFY_P = "surface2d:3x4", 0.1
VERIFY_SECTORS = {"x": 512, "z": 1024}  # 2^(rank_z + k), 2^(rank_x + k)


def _verify_argv(seed: int) -> List[str]:
    return ["verify", VERIFY_CODE, repr(VERIFY_P + p_offset(seed))]


def _verify_check(report: Dict, seed: int, reference: Optional[list]) -> checks.Result:
    return checks.check_verify(report, VERIFY_SECTORS)


# Why each workload is here is recorded in BENCHMARK.json ("why").
WORKLOADS = {
    w.name: w for w in (
        Workload("sweep_indep", "surface2d:4x4",
                 _sweep_argv("surface2d:4x4", 0.0, 0.5, 2, []),
                 2, "points_per_s", "info.bound_report.calls",
                 _sweep_check(0.0, 0.5, 2, 1, False)),
        Workload("sweep_depol", "surface2d:3x3",
                 _sweep_argv("surface2d:3x3", 0.0, 0.3, 2,
                             ["--noise", "depolarizing"]),
                 2, "points_per_s", "info.bound_report.calls",
                 _sweep_check(0.0, 0.3, 2, 1, True)),
        Workload("mc_scan", "toric2d:8", _mc_argv,
                 MC_GRID[2] * MC_SAMPLES * MC_REPLICAS * MC_SWEEPS * MC_SPINS,
                 "proposals_per_s", "mc.proposals", _mc_check),
        Workload("verify_identity", VERIFY_CODE, _verify_argv,
                 sum(VERIFY_SECTORS.values()), "sectors_per_s",
                 "statmech.partition_exact.calls", _verify_check),
    )
}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(numpy_version: str) -> Dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


def run_child(spec: Dict, timeout: float) -> Dict:
    """Start one child, wait for it, and return its report."""
    spec = {"root": ROOT, **spec}
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), repr(t0), json.dumps(spec)],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"benchmark child exited with {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def run_loop(workload: Workload, seed: int, seconds: float, trace: bool,
             spans_path: Optional[str] = None) -> Dict:
    """One child: a warm-up call, then closed-loop calls filling `seconds`."""
    spec = {"selector": workload.selector, "argv": workload.argv(seed),
            "mode": "loop", "trace": trace, "seconds": seconds,
            "min_calls": MIN_CALLS}
    if spans_path:
        spec["spans_path"] = spans_path
        spec["request"] = f"{workload.name}-seed{seed}"
    report = run_child(spec, seconds + CHILD_TIMEOUT_S)
    for call in report["calls"]:
        call["traced"] = trace
    return report


def timed(calls: List[Dict]) -> List[Dict]:
    return [c for c in calls if not c["warmup"]]


def relative(calls: List[Dict]) -> List[float]:
    """Each call's wall time over the reference time measured around it."""
    return [c["wall_s"] / c["ref_s"] for c in calls]


def end_to_end_metrics(report: Dict, setups: List[float]) -> Dict[str, Dict]:
    return {
        "setup_s": {"value": _median(setups), "unit": "s"},
        "wall_per_ref": {"value": _median(relative(timed(report["calls"]))),
                         "unit": "ratio"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
    }


def raw_times(workload: Workload, calls: List[Dict]) -> Dict[str, Dict]:
    """Unnormalised medians, printed and recorded beside the metrics."""
    walls = [c["wall_s"] for c in timed(calls)]
    return {
        "wall_s": {"value": _median(walls), "unit": "s"},
        workload.work_name: {"value": _median([workload.work / w for w in walls]),
                             "unit": "1/s"},
        "ref_s": {"value": _median([c["ref_s"] for c in timed(calls)]),
                  "unit": "s"},
    }


def per_layer_metrics(calls: List[Dict]) -> Dict[str, Dict]:
    traced = [c for c in timed(calls) if c["traced"]]
    untraced = [c for c in timed(calls) if not c["traced"]]
    out: Dict[str, Dict] = {}
    self_s = {}
    for name in SPANS:
        self_s[name] = _median([c["layers"][name]["self_s"] for c in traced])
        out[f"{name}.calls"] = {"value": traced[0]["layers"][name]["calls"],
                                "unit": "count"}
        out[f"{name}.self_s"] = {"value": self_s[name], "unit": "s"}
    counts = traced[0]["counts"]
    for name in COUNT_NAMES:
        if name != "channels.factorized_entries":
            out[name] = {"value": counts[name], "unit": "count"}

    def rate(count: str, span: str) -> float:
        return counts[count] / self_s[span] if self_s[span] > 0 else 0.0

    out["channels.strings_per_s"] = {
        "value": rate("channels.strings", "channels.factorized"), "unit": "1/s"}
    out["channels.pairs_per_s"] = {
        "value": rate("channels.pairs", "channels.joint"), "unit": "1/s"}
    out["statmech.configs_per_s"] = {
        "value": rate("statmech.configs", "statmech.partition_exact"),
        "unit": "1/s"}
    out["mc.proposals_per_s"] = {
        "value": rate("mc.proposals", "mc.metropolis"), "unit": "1/s"}
    entries = counts["channels.factorized_entries"]
    out["channels.strings_per_entry"] = {
        "value": counts["channels.strings"] / entries if entries else 0.0,
        "unit": "ratio"}
    out["trace.overhead_frac"] = {
        "value": _median(relative(traced)) / _median(relative(untraced)) - 1.0,
        "unit": "ratio"}
    return out


def trace_problems(workload: Workload, calls: List[Dict],
                   metrics: Dict[str, Dict]) -> List[str]:
    """Counts must repeat exactly across traced calls and match the work."""
    traced = [c for c in calls if c["traced"]]
    problems = []
    for other in traced[1:]:
        if other["counts"] != traced[0]["counts"] or any(
            other["layers"][n]["calls"] != traced[0]["layers"][n]["calls"]
            for n in SPANS
        ):
            problems.append("work counts differ between traced calls")
            break
    counted = metrics[workload.work_traced]["value"]
    if counted != workload.work:
        problems.append(f"traced {workload.work_traced} = {counted}, "
                        f"expected {workload.work}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "csstat", "cli.py")):
        print(f"error: no csstat source tree under {ROOT}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    seconds = max(1, args.seconds)
    if args.trace:
        # Half traced, half untraced, for trace.overhead_frac.
        spans_path = os.path.join(results_dir, stem + "-spans.jsonl")
        children = [run_loop(workload, args.seed, seconds / 2, True, spans_path),
                    run_loop(workload, args.seed, seconds / 2, False)]
        setups: List[float] = []
    else:
        children = [run_loop(workload, args.seed, seconds, False)]
        spec = {"selector": workload.selector, "mode": "setup", "trace": False}
        setups = [children[0]["setup_s"]] + [
            run_child(spec, CHILD_TIMEOUT_S)["setup_s"] for _ in range(SETUP_PROBES)
        ]
    calls = [{**c, "bound_slack": child["bound_slack"]}
             for child in children for c in child["calls"]]

    reference = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "reference.json"), encoding="ascii") as fh:
            reference = json.load(fh).get(workload.name)
    attempted = failed = 0
    messages: List[str] = []
    for i, call in enumerate(calls):
        a, f, msgs = workload.check(call, args.seed, reference)
        attempted += a
        failed += f
        messages += [f"call {i}: {m}" for m in msgs]
    if args.trace:
        metrics = per_layer_metrics(calls)
        messages += trace_problems(workload, calls, metrics)
    else:
        metrics = end_to_end_metrics(children[0], setups)
    correct = failed == 0 and not messages

    env = environment(children[0]["numpy"])
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": workload.argv(args.seed),
        "environment": env, "timed_calls": len(timed(calls)),
        "setup_samples": setups, "correct": correct, "attempted": attempted,
        "failed": failed, "messages": messages, "metrics": metrics,
        "raw": raw_times(workload, calls),
        "calls": [{k: v for k, v in c.items() if k != "stdout"} for c in calls],
    }
    with open(os.path.join(results_dir, stem + ".json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)

    print(f"# environment: {json.dumps(env)}")
    print(f"# csstat {' '.join(workload.argv(args.seed))}")
    print(f"# {len(timed(calls))} timed calls after {len(children)} warm-up call(s), "
          f"{len(setups)} set-up samples; medians")
    for msg in messages:
        print(f"# check failed: {msg}")
    if args.trace:
        traced_wall = _median([c["wall_s"] for c in timed(calls) if c["traced"]])
    shown = dict(metrics)
    if not args.trace:
        shown.update(record["raw"])
    for name, m in shown.items():
        note = ""
        if name not in metrics:
            note = "  (not gated: drifts with the shared host)"
        elif name.endswith(".self_s"):
            note = f"  ({100 * m['value'] / traced_wall:.1f}% of traced wall_s)"
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'fail_frac':40s} {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
