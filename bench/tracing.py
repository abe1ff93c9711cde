"""In-memory span tracing around csstat's public functions.

The wrappers live here, in the benchmark, so nothing under src/ changes. A
wrapper replaces a function in every csstat module namespace that holds it,
which also catches names imported with ``from .x import f`` (cli imports
sector_distribution_x, css imports row_reduce, mc imports build_sm_x, ...).

Each call records one span (id, parent id, name, start, end). Self time is a
span's duration minus the durations of its direct children; spans nest
strictly within one thread, so that sum is exactly the time they cover.
Work counts derived from argument sizes are added at the same boundaries.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _count_factorized(counts: Counter, args: tuple, result) -> None:
    counts["channels.strings"] += 1 << args[0].n
    counts["channels.table_entries"] += len(result.table)
    counts["channels.factorized_entries"] += len(result.table)


def _count_joint(counts: Counter, args: tuple, result) -> None:
    counts["channels.pairs"] += 1 << (2 * args[0].n)
    counts["channels.table_entries"] += len(result.table)


def _count_partition(counts: Counter, args: tuple, result) -> None:
    counts["statmech.configs"] += 1 << args[0].num_spins


def _count_metropolis(counts: Counter, args: tuple, result) -> None:
    model, _, cfg = args
    counts["mc.proposals"] += cfg.sweeps * cfg.replicas * model.num_spins


Counter_fn = Optional[Callable[[Counter, tuple, object], None]]

# span name -> ([(module, function), ...], work counter)
SPANS: Dict[str, Tuple[List[Tuple[str, str]], Counter_fn]] = {
    "zoo.from_selector": ([("csstat.zoo", "from_selector")], None),
    "css.representative": (
        [("csstat.css", "representative_x"), ("csstat.css", "representative_z")],
        None,
    ),
    "gf2.row_reduce": ([("csstat.gf2", "row_reduce")], None),
    "gf2.kernel_basis": ([("csstat.gf2", "kernel_basis")], None),
    "channels.factorized": (
        [("csstat.channels", "sector_distribution_x"),
         ("csstat.channels", "sector_distribution_z")],
        _count_factorized,
    ),
    "channels.joint": (
        [("csstat.channels", "sector_distribution_joint")], _count_joint
    ),
    "channels.marginalize": ([("csstat.channels", "marginalize")], None),
    "info.bound_report": ([("csstat.info", "bound_report")], None),
    "info.relative_entropy": ([("csstat.info", "relative_entropy")], None),
    "statmech.build_sm": (
        [("csstat.statmech", "build_sm_x"), ("csstat.statmech", "build_sm_z")],
        None,
    ),
    "statmech.partition_exact": (
        [("csstat.statmech", "partition_exact")], _count_partition
    ),
    "statmech.verify_sector_identity": (
        [("csstat.statmech", "verify_sector_identity")], None
    ),
    "mc.metropolis": ([("csstat.mc", "metropolis")], _count_metropolis),
    "mc.sample_disorder": ([("csstat.mc", "sample_disorder")], None),
    "cli.main": ([("csstat.cli", "main")], None),
}

COUNT_NAMES = (
    "channels.strings",
    "channels.pairs",
    "channels.table_entries",
    "channels.factorized_entries",
    "statmech.configs",
    "mc.proposals",
)

Span = Tuple[int, Optional[int], str, float, float]


class Tracer:
    """Collects spans and work counts in memory for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self) -> None:
        """Forget every span and count, so the next call is measured alone."""
        self.spans = []
        self.counts = Counter()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Counter_fn) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in every loaded csstat module namespace."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "csstat" or key.startswith("csstat."))
        ]
        for name, (targets, count) in SPANS.items():
            for module_name, func_name in targets:
                original = getattr(sys.modules[module_name], func_name)
                wrapper = self.wrap(name, original, count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """{span name: {"calls": int, "self_s": float}} over every span."""
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in SPANS
        }
        for span_id, _, name, start, end in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - covered[span_id]
        return out

    def write(self, path: str, request: str) -> None:
        """Write spans as JSON lines; every span carries the request id."""
        with open(path, "w", encoding="ascii") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "request": request, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")

    def work_counts(self) -> Dict[str, int]:
        return {name: int(self.counts[name]) for name in COUNT_NAMES}
