"""One benchmark process: set up, then run the CLI command in a closed loop.

Usage (from bench/run.py, not by hand):
    python3 bench/child.py <t0> <spec-json>

t0 is CLOCK_MONOTONIC, read by the parent just before it started this
process, so setup_s covers interpreter start, ``import csstat.cli`` and
building the workload's code with ``zoo.from_selector``. The spec says which
source tree to import, the CLI argv, whether to trace, and for how many
seconds to repeat the command. In "setup" mode the process stops after set-up.

In "loop" mode one untimed warm-up call is followed by timed calls, one at a
time, until the next call would end after the deadline (at least
``min_calls``). Before and after each call the process times a fixed
reference computation (``reference_s``); the mean of the two goes with the
call, so the parent can divide each call's time by the speed the shared host
gave this process around it. Every call's exit code and output are returned,
so the parent checks each of them. The last line of stdout is a JSON report.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


REFERENCE_LOOP = 400_000  # pure-Python multiply-adds
REFERENCE_PASSES = 96  # numpy passes over a 512 KiB array, so RSS barely moves


def reference_s(data, scratch) -> float:
    """Time a fixed computation that uses no csstat code.

    A pure-Python loop (like mc and the statmech sums), then numpy passes
    (like the sweeps' tables), so it slows when the host slows the core the
    workload runs on. `data` and `scratch` are allocated once by the caller.
    """
    import numpy

    shift = numpy.uint64(3)
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    for _ in range(REFERENCE_PASSES):
        numpy.right_shift(data, shift, out=scratch)
        numpy.bitwise_xor(data, scratch, out=scratch)
        scratch.sum()
    return time.perf_counter() - start


def _call(main, argv) -> dict:
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception:  # any raise is a failed call, reported to the parent
        rc = None
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    return {"wall_s": wall_s, "rc": rc, "error": error, "stdout": out.getvalue()}


def main() -> int:
    t0 = float(sys.argv[1])
    spec = json.loads(sys.argv[2])
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    sys.path.insert(0, src)
    import csstat.cli

    if not os.path.realpath(csstat.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported csstat from {csstat.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    csstat.zoo.from_selector(spec["selector"])
    setup_s = _clock() - t0
    report = {"setup_s": setup_s}
    if spec["mode"] == "loop":
        import numpy

        data = numpy.arange(1 << 16, dtype=numpy.uint64)
        scratch = numpy.empty_like(data)
        calls = []
        walls = []
        deadline = None
        ref_before = reference_s(data, scratch)
        while True:
            if tracer is not None:
                tracer.reset()
            # csstat.cli.main is looked up per call: tracing replaces it.
            call = _call(csstat.cli.main, spec["argv"])
            ref_after = reference_s(data, scratch)
            call["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
            call["warmup"] = deadline is None
            if tracer is not None:
                call["layers"] = tracer.summary()
                call["counts"] = tracer.work_counts()
                call["spans"] = len(tracer.spans)
                if len(calls) == 1 and spec.get("spans_path"):
                    tracer.write(spec["spans_path"], spec.get("request", ""))
            calls.append(call)
            if deadline is None:
                deadline = _clock() + spec["seconds"]
                continue
            walls.append(call["wall_s"] + ref_after)
            if len(walls) >= spec["min_calls"] and (
                _clock() + statistics.median(walls) > deadline
            ):
                break
        report.update(
            calls=calls,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            bound_slack=csstat.info.BOUND_SLACK,
            numpy=numpy.__version__,
        )
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
