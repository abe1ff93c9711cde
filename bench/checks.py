"""Output checks for the benchmark workloads.

Each check takes one call's CLI result and returns (attempted, failed,
messages), where an operation is one sweep row, one mc row or one verified
side. A non-zero exit code, a raise, or output that does not parse fails
every operation of the call. JSON is parsed strictly: the NaN/Infinity
tokens are rejected, so infinity has to arrive as the string "inf".
"""

from __future__ import annotations

import json
import math
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Result = Tuple[int, int, List[str]]

SWEEP_COLUMNS = ["p_x", "p_z", "ic_bits", "ml_success", "sampling_success",
                 "jensen_lower", "rel_entropy_bits"]
JOINT_COLUMNS = SWEEP_COLUMNS + ["pt_x", "pt_y", "pt_z"]
MC_COLUMNS = ["p", "beta", "mean_energy", "energy_err", "ea_overlap", "ea_err",
              "samples"]
VERIFY_TOLERANCE = 1e-9
REFERENCE_SWEEP_TOLERANCE = 1e-9
GRID_TOLERANCE = 1e-12


class OutputError(ValueError):
    """The output as a whole could not be read."""


def _reject_constant(token: str):
    raise OutputError(f"non-standard JSON token {token}")


def parse_table(text: str, columns: Sequence[str]) -> List[list]:
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OutputError(f"output is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("columns") != list(columns):
        raise OutputError("unexpected columns")
    if not isinstance(payload.get("provenance"), list):
        raise OutputError("missing provenance")
    rows = payload.get("rows")
    if not isinstance(rows, list):
        raise OutputError("missing rows")
    return rows


def p_grid(start: float, stop: float, points: int) -> List[float]:
    step = (stop - start) / (points - 1)
    return [start + i * step for i in range(points)]


def _number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _matches_reference(row: list, ref: list, tol: float) -> bool:
    if len(row) != len(ref):
        return False
    for got, want in zip(row, ref):
        if isinstance(want, str) or isinstance(got, str):
            if got != want:
                return False
        elif not _close(got, want, tol):
            return False
    return True


def sweep_row_problems(
    row: list, p: float, k: int, slack: float, joint: bool,
) -> List[str]:
    """Everything wrong with one ic-sweep row; empty when the row holds."""
    width = len(JOINT_COLUMNS if joint else SWEEP_COLUMNS)
    if not isinstance(row, list) or len(row) != width:
        return ["row has the wrong width"]
    p_x, p_z, ic, ml, samp, jensen, rel = row[:7]
    if not all(_number(v) for v in row[:6]):
        return ["non-numeric or non-finite cell"]
    if not (_number(rel) or rel == "inf"):
        return [f"rel_entropy_bits {rel!r} is neither finite nor 'inf'"]
    problems = []
    if not (_close(p_x, p, GRID_TOLERANCE) and _close(p_z, p, GRID_TOLERANCE)):
        problems.append(f"p columns {p_x}, {p_z} are not the grid value {p}")
    if not -k - slack <= ic <= k + slack:
        problems.append(f"ic_bits {ic} outside [-{k}, {k}]")
    if ml > 1.0 + slack:
        problems.append(f"ml {ml} exceeds 1")
    if samp > ml + slack:
        problems.append(f"sampling {samp} exceeds ml {ml}")
    if 2.0 * ml - 1.0 > samp + slack:
        problems.append(f"2*ml - 1 = {2.0 * ml - 1.0} exceeds sampling {samp}")
    if jensen > samp + slack:
        problems.append(f"jensen_lower {jensen} exceeds sampling {samp}")
    if not _close(jensen, 2.0 ** (ic - k), GRID_TOLERANCE):
        problems.append(f"jensen_lower {jensen} is not 2^(ic_bits - k)")
    if rel != "inf" and rel < -slack:
        problems.append(f"rel_entropy_bits {rel} is negative")
    if joint:
        want = (p * (1.0 - p), p * p, p * (1.0 - p))
        if not all(_number(v) for v in row[7:]) or not all(
            _close(got, w, GRID_TOLERANCE) for got, w in zip(row[7:], want)
        ):
            problems.append(f"pt columns {row[7:]} are not depolarizing({p})")
    return problems


def check_sweep(
    report: Dict, grid: Sequence[float], k: int, joint: bool,
    reference: Optional[list],
) -> Result:
    slack = report.get("bound_slack")
    return _check_rows(
        report, JOINT_COLUMNS if joint else SWEEP_COLUMNS, grid,
        lambda row, p: sweep_row_problems(row, p, k, slack, joint),
        reference, REFERENCE_SWEEP_TOLERANCE,
    )


def mc_row_problems(
    row: list, p: float, samples: int, max_abs_energy: float,
) -> List[str]:
    """Everything wrong with one mc row; empty when the row holds."""
    if not isinstance(row, list) or len(row) != len(MC_COLUMNS):
        return ["row has the wrong width"]
    if not all(_number(v) for v in row):
        return ["non-numeric or non-finite cell"]
    p_row, beta, energy, energy_err, overlap, overlap_err, n_samples = row
    problems = []
    if not _close(p_row, p, GRID_TOLERANCE):
        problems.append(f"p {p_row} is not the grid value {p}")
    if not _close(beta, 0.5 * math.log((1.0 - p) / p), GRID_TOLERANCE):
        problems.append(f"beta {beta} is not the Nishimori coupling of p={p}")
    if abs(energy) > max_abs_energy:
        problems.append(f"|mean_energy| {abs(energy)} exceeds {max_abs_energy}")
    if not 0.0 <= overlap <= 1.0:
        problems.append(f"ea_overlap {overlap} outside [0, 1]")
    if energy_err < 0.0 or overlap_err < 0.0:
        problems.append("negative error bar")
    if n_samples != samples:
        problems.append(f"samples {n_samples} != {samples}")
    return problems


def check_mc(
    report: Dict, grid: Sequence[float], samples: int, max_abs_energy: float,
    reference: Optional[list],
) -> Result:
    return _check_rows(
        report, MC_COLUMNS, grid,
        lambda row, p: mc_row_problems(row, p, samples, max_abs_energy),
        reference, 0.0,
    )


def _check_rows(
    report: Dict, columns: Sequence[str], grid: Sequence[float],
    row_problems: Callable[[list, float], List[str]],
    reference: Optional[list], reference_tolerance: float,
) -> Result:
    """One operation per grid point; extra rows fail the whole call."""
    attempted = len(grid)
    if report.get("rc") != 0:
        return attempted, attempted, [_failure_text(report)]
    try:
        rows = parse_table(report["stdout"], columns)
    except OutputError as exc:
        return attempted, attempted, [str(exc)]
    if len(rows) > len(grid):
        return attempted, attempted, [f"{len(rows) - len(grid)} extra rows"]
    messages, failed = [], 0
    for i, p in enumerate(grid):
        if i >= len(rows):
            problems = ["row missing"]
        else:
            problems = row_problems(rows[i], p)
            if not problems and reference is not None and not _matches_reference(
                rows[i], reference[i], reference_tolerance
            ):
                problems = [f"differs from the recorded reference "
                            f"(tolerance {reference_tolerance})"]
        if problems:
            failed += 1
            messages += [f"row {i} (p={p}): {m}" for m in problems]
    return attempted, failed, messages


_SIDE_RE = re.compile(r"^side (x|z): sectors=(\d+) max_abs_dev=(\S+)$", re.M)


def check_verify(report: Dict, sectors: Dict[str, int]) -> Result:
    attempted = len(sectors)
    if report.get("rc") != 0:
        return attempted, attempted, [_failure_text(report)]
    found = {m.group(1): m for m in _SIDE_RE.finditer(report["stdout"])}
    messages, failed = [], 0
    for side, want in sectors.items():
        match = found.get(side)
        if match is None:
            problems = ["side missing from the output"]
        else:
            problems = []
            if int(match.group(2)) != want:
                problems.append(f"sectors={match.group(2)}, expected {want}")
            try:
                dev = float(match.group(3))
            except ValueError:
                dev = math.nan
            if not dev <= VERIFY_TOLERANCE:
                problems.append(f"max_abs_dev {match.group(3)} > {VERIFY_TOLERANCE}")
        if problems:
            failed += 1
            messages += [f"side {side}: {m}" for m in problems]
    return attempted, failed, messages


def _failure_text(report: Dict) -> str:
    if report.get("error"):
        return "raised: " + report["error"].strip().splitlines()[-1]
    return f"exit code {report.get('rc')}"
