"""Command-line front end: inspect codes, sweep quantities, export models.

Exit codes: 0 success, 1 computational bound exceeded, 2 input error,
3 internal invariant violation. Every CSV artifact starts with `#` provenance
lines (tool version, command, code hash, parameters, and for sweeps the
engine that built the tables); JSON artifacts carry the same data in a
"provenance" object. Infinity and NaN are always emitted as the literal
strings "inf" and "nan", never as floating specials.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import __version__
from . import info, mc, statmech
from .channels import (
    InternalInvariantError,
    PauliNoise,
    depolarizing_from_independent,
    marginalize,
    sector_distribution_joint,
    sector_distributions,
)
from .css import CodeFormatError, CommutationViolation, CssCode, TooLarge
from .css import code_hash, distance, label_functionals
from .css import representative_x, representative_z
from .gf2 import BitVector
from .zoo import from_selector

EXIT_OK = 0
EXIT_TOO_LARGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

SWEEP_COLUMNS = ["p_x", "p_z", "ic_bits", "ml_success", "sampling_success",
                 "jensen_lower", "rel_entropy_bits"]
JOINT_EXTRA_COLUMNS = ["pt_x", "pt_y", "pt_z"]
MC_COLUMNS = ["p", "beta", "mean_energy", "energy_err", "ea_overlap", "ea_err",
              "samples"]


# ---------------------------------------------------------------------------
# Noise grammar: independent | independent:pz=<v> | depolarizing |
# general:<wx>,<wy>,<wz>
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    pz_fixed: Optional[float] = None
    weights: Optional[Tuple[float, float, float]] = None

    @property
    def joint(self) -> bool:
        return self.kind in ("depolarizing", "general")

    def rates_at(self, p: float):
        """(px, pz) for factorized kinds, PauliNoise for joint kinds."""
        if self.kind == "independent":
            return p, (self.pz_fixed if self.pz_fixed is not None else p)
        if self.kind == "depolarizing":
            return depolarizing_from_independent(p, p)
        wx, wy, wz = self.weights
        total = wx + wy + wz
        return PauliNoise(p * wx / total, p * wy / total, p * wz / total)

    def describe(self) -> str:
        if self.kind == "independent" and self.pz_fixed is not None:
            return f"independent:pz={self.pz_fixed}"
        if self.kind == "general":
            return "general:" + ",".join(str(w) for w in self.weights)
        return self.kind


def parse_noise(text: str) -> NoiseSpec:
    if text == "independent":
        return NoiseSpec("independent")
    if text.startswith("independent:pz="):
        value = float(text[len("independent:pz="):])
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"fixed pz must be a probability, got {value}")
        return NoiseSpec("independent", pz_fixed=value)
    if text == "depolarizing":
        return NoiseSpec("depolarizing")
    if text.startswith("general:"):
        parts = text[len("general:"):].split(",")
        if len(parts) != 3:
            raise ValueError("general noise needs three weights: general:<wx>,<wy>,<wz>")
        wx, wy, wz = (float(w) for w in parts)
        # written so that NaN and infinite weights or sums fail
        if not (0 <= min(wx, wy, wz) and 0 < wx + wy + wz < math.inf):
            raise ValueError(
                f"noise weights {wx},{wy},{wz} must be finite and nonnegative "
                "with a finite positive sum"
            )
        return NoiseSpec("general", weights=(wx, wy, wz))
    raise ValueError(
        f"unknown noise spec {text!r}; expected independent | independent:pz=<v> "
        "| depolarizing | general:<wx>,<wy>,<wz>"
    )


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _provenance(command: str, selector: str, code: CssCode, params: Dict) -> List[str]:
    param_text = " ".join(f"{k}={v}" for k, v in params.items())
    return [
        f"csstat {__version__}",
        f"command: {command}",
        f"code: {selector} hash={code_hash(code)}",
        f"params: {param_text}",
    ]


def format_cell(value: float) -> str:
    """CSV cell: repr-exact floats, with the literal 'inf' for infinity."""
    if math.isinf(value):
        return "inf"
    return repr(float(value))


def _json_cell(value: float) -> Union[float, str]:
    """Finite floats as numbers; infinity and NaN as the strings "inf"/"nan"."""
    if math.isinf(value):
        return "inf"
    if math.isnan(value):
        return "nan"
    return value


def _emit_table(
    out: Optional[str],
    fmt: str,
    provenance: List[str],
    columns: List[str],
    rows: List[List[float]],
) -> None:
    if fmt == "csv":
        lines = [f"# {line}" for line in provenance]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(format_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "provenance": provenance,
            "columns": columns,
            "rows": [[_json_cell(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=1) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _p_grid(start: float, stop: float, points: int) -> List[float]:
    if points < 1:
        raise ValueError("points must be >= 1")
    for v in (start, stop):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"p values must lie in [0, 1], got {v}")
    if points == 1:
        return [start]
    step = (stop - start) / (points - 1)
    return [start + i * step for i in range(points)]


# ---------------------------------------------------------------------------
# Sweep core (shared by ic-sweep / decoder-sweep / relent-sweep)
# ---------------------------------------------------------------------------


def _sweep_rows(
    code: CssCode,
    grid: Sequence[float],
    spec: NoiseSpec,
    k0: BitVector,
    k0p: BitVector,
) -> Tuple[List[str], List[List[float]], List[str]]:
    """(columns, rows, bound-chain violations tagged with their p)."""
    columns = SWEEP_COLUMNS + (JOINT_EXTRA_COLUMNS if spec.joint else [])
    rows = []
    violations = []
    if not spec.joint:
        rates = [spec.rates_at(p) for p in grid]
        dists_x = sector_distributions(code, "x", [px for px, _ in rates])
        dists_z = sector_distributions(code, "z", [pz for _, pz in rates])
    for i, p in enumerate(grid):
        if spec.joint:
            noise = spec.rates_at(p)
            dist = sector_distribution_joint(code, noise)
            report = info.bound_report(dist)
            rel_source = marginalize(dist, ["b", "kz"])
            extra = [noise.ptx, noise.pty, noise.ptz]
            p_x = p_z = p
        else:
            p_x, p_z = rates[i]
            report = info.bound_report((dists_x[i], dists_z[i]))
            rel_source = dists_x[i]
            extra = []
        rel = info.relative_entropy(rel_source, k0, k0p)
        rows.append(
            [p_x, p_z, report.ic_bits, report.ml, report.sampling,
             report.jensen_lower, rel] + extra
        )
        violations += [f"p={p}: {v}" for v in report.violations]
    return columns, rows, violations


def _engine_line(code: CssCode, joint: bool) -> str:
    """Provenance line naming the table engine and its sizes."""
    m_x, m_z = (len(label_functionals(code, side)[0]) for side in "xz")
    if joint:
        m = m_x + m_z
        return f"engine: joint-transform n={code.n} m={m} combinations={2 ** m}"
    return (
        f"engine: coset-enumerator n={code.n} m_x={m_x} m_z={m_z} "
        f"combinations={2 ** m_x + 2 ** m_z}"
    )


def _run_sweep(args: argparse.Namespace, command: str) -> int:
    code = from_selector(args.code)
    spec = parse_noise(args.noise)
    grid = _p_grid(args.p_start, args.p_stop, args.points)
    # relent-sweep compares the two given logical sectors, the other sweeps
    # sectors 0 and 1 (0 and 0 when k = 0)
    labels = (args.k0, args.k0p) if command == "relent-sweep" else (0, min(code.k, 1))
    for name, value in zip(("k0", "k0p"), labels):
        if not 0 <= value < (1 << code.k):
            raise ValueError(f"{name} must lie in [0, 2^k); k={code.k}")
    k0, k0p = (BitVector(code.k, v) for v in labels)
    columns, rows, violations = _sweep_rows(code, grid, spec, k0, k0p)
    params = {
        "p_start": args.p_start, "p_stop": args.p_stop, "points": args.points,
        "noise": spec.describe(), "rel_shift": (k0 ^ k0p).to01(),
    }
    prov = _provenance(command, args.code, code, params)
    prov.append(_engine_line(code, spec.joint))
    _emit_table(args.out, args.format, prov, columns, rows)
    for line in violations:
        print(f"bound violation: {line}", file=sys.stderr)
    return EXIT_INTERNAL if violations else EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _fields(values: Dict[str, int]) -> str:
    return " ".join(f"{name}={value}" for name, value in values.items())


def cmd_code_info(args: argparse.Namespace) -> int:
    code = from_selector(args.selector)
    sizes = {"n": code.n, "k": code.k, "rank_x": code.rank_x,
             "rank_z": code.rank_z, "Dx": code.Dx, "Dz": code.Dz}
    dist: Optional[Dict[str, int]] = None
    missing = "undefined (k = 0)"
    if code.k:
        missing = "not computed (kernel dimension exceeds enumeration bound)"
        try:
            dist = dict(zip(("dx", "dz"), distance(code)))
        except TooLarge:
            pass
    logicals = {"logical_x": code.logical_x.to01_lines(),
                "logical_z": code.logical_z.to01_lines()}
    if args.format == "json":
        lines = [json.dumps({"selector": args.selector, "hash": code_hash(code),
                             **sizes, "distance": dist, **logicals}, indent=1)]
    else:
        lines = [
            f"code: {args.selector} (hash={code_hash(code)})",
            _fields(sizes),
            "distance: " + (_fields(dist) if dist else missing),
        ]
        lines += [f"{name}[{i}]: {row}"
                  for name, rows in logicals.items() for i, row in enumerate(rows)]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    code = from_selector(args.selector)
    for side in ("x", "z"):  # refuse an oversized side before summing either
        statmech.check_sector_loop(code, side)
    reports = {
        side: statmech.verify_sector_identity(code, args.p, side=side)
        for side in ("x", "z")
    }
    for side, rep in reports.items():
        stages = " ".join(f"{stage} {s:.4f}s" for stage, s in rep.times.items())
        print(f"# time side {side}: {stages}", file=sys.stderr)
    print(f"csstat {__version__} verify")
    print(f"code: {args.selector} hash={code_hash(code)}")
    print(f"p={args.p}")
    configs = sum(rep.sectors_checked << rep.num_spins for rep in reports.values())
    print(
        f"engine: exact-enumeration spins_x={reports['x'].num_spins} "
        f"spins_z={reports['z'].num_spins} configs={configs}"
    )
    for side, rep in reports.items():
        print(
            f"side {side}: sectors={rep.sectors_checked} "
            f"max_abs_dev={rep.max_abs_dev:.3e}"
        )
    devs = [rep.max_abs_dev for rep in reports.values()]
    # max() would drop a NaN deviation; a NaN fails the check below
    worst = math.nan if any(map(math.isnan, devs)) else max(devs)
    tolerance = 1e-9
    if not worst <= tolerance:
        print(f"FAIL: deviation {worst:.3e} exceeds {tolerance}")
        return EXIT_INTERNAL
    print(f"ok (tolerance {tolerance})")
    return EXIT_OK


def cmd_kw_check(args: argparse.Namespace) -> int:
    code = from_selector(args.selector)
    rep = statmech.kw_check(code, args.beta_x)
    print(f"csstat {__version__} kw-check")
    print(f"code: {args.selector} hash={code_hash(code)}")
    print(f"beta_x={rep.beta_x} beta_z={rep.beta_z}")
    print(f"raw_residual={rep.raw_residual:.6e}")
    print(f"summed_residual={rep.summed_residual:.6e}")
    return EXIT_OK


def _parse_bits(text: str, width: int, name: str) -> BitVector:
    if text == "-":
        text = ""
    if len(text) != width or any(c not in "01" for c in text):
        raise ValueError(
            f"{name} must be a {width}-bit 0/1 string (use - when empty), "
            f"got {text!r}"
        )
    return BitVector.from01(text)


def cmd_sm_export(args: argparse.Namespace) -> int:
    code = from_selector(args.selector)
    species, *texts = args.sector.split(":")
    # the sector string's label fields per species, in order
    fields = {"x": ("b", "kz"), "z": ("a", "kx"),
              "coupled": ("b", "kz", "a", "kx")}.get(species, ())
    if not fields or len(texts) != len(fields):
        raise ValueError(
            f"sector {args.sector!r} not understood; expected x:<b>:<kz>, "
            "z:<a>:<kx>, or coupled:<b>:<kz>:<a>:<kx> with 0/1 strings "
            "(- for zero-width fields)"
        )
    widths = {**label_functionals(code, "x")[1], **label_functionals(code, "z")[1]}
    bits = {f: _parse_bits(text, widths[f], f) for f, text in zip(fields, texts)}
    reps = [representative_x(code, bits["b"], bits["kz"])] if "b" in bits else []
    reps += [representative_z(code, bits["a"], bits["kx"])] if "a" in bits else []
    model = getattr(statmech, f"build_sm_{species}")(code, *reps)
    couplings = None
    if args.p is not None and species != statmech.SPECIES_COUPLED:
        couplings = statmech.Couplings.uniform(statmech.nishimori_beta(args.p))
    elif args.p is not None:
        spec = parse_noise(args.noise)
        if not spec.joint:
            raise ValueError(
                "coupled-model couplings need a joint noise spec "
                "(depolarizing or general:<wx>,<wy>,<wz>)"
            )
        couplings = statmech.Couplings.from_pauli(spec.rates_at(args.p))
    payload = statmech.sm_to_json_dict(model, couplings)
    payload["provenance"] = _provenance(
        "sm-export", args.selector, code,
        {"sector": args.sector, "p": args.p, "noise": args.noise},
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_mc(args: argparse.Namespace) -> int:
    code = from_selector(args.selector)
    grid = _p_grid(args.p_start, args.p_stop, args.points)
    cfg = mc.McConfig(
        sweeps=args.sweeps,
        burn_in=args.burn_in,
        seed=args.seed,
        replicas=args.replicas,
    )
    scan = mc.nishimori_scan(
        code, args.side, grid, args.samples, cfg,
        log=lambda line: print(f"# {line}", file=sys.stderr),
    )
    rows = [
        [r.p, r.beta, r.mean_energy, r.energy_err, r.ea_overlap, r.ea_err,
         float(r.samples)]
        for r in scan
    ]
    params = {
        "side": args.side, "p_start": args.p_start, "p_stop": args.p_stop,
        "points": args.points, "samples": args.samples, "sweeps": args.sweeps,
        "burn_in": args.burn_in, "replicas": args.replicas, "seed": args.seed,
    }
    prov = _provenance("mc", args.selector, code, params)
    # one spin per check row of the side's matrix, one term per qubit
    spins = (code.Hx if args.side == "x" else code.Hz).rows
    proposals = len(grid) * args.samples * args.replicas * args.sweeps * spins
    prov.append(
        f"engine: metropolis spins={spins} terms={code.n} proposals={proposals}"
    )
    _emit_table(args.out, args.format, prov, MC_COLUMNS, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p-start", type=float, required=True)
    p.add_argument("--p-stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument(
        "--noise",
        default="independent",
        help="independent | independent:pz=<v> | depolarizing | "
        "general:<wx>,<wy>,<wz>  (joint kinds append pt_x,pt_y,pt_z columns; "
        "depolarizing is X(p) and Z(p) flips together, pt = (p(1-p), p^2, "
        "p(1-p)); general splits the swept total rate p by its weights)",
    )
    _add_output_flags(p)


@functools.cache  # parsing keeps no state in the parser; build it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csstat",
        description="CSS-code sector distributions, information quantities, "
        "and their disorder-model duals.",
    )
    parser.add_argument("--version", action="version", version=f"csstat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("code-info", help="print code parameters and logicals")
    p.add_argument("selector", help="family[:dims] (e.g. toric2d:3) or a code file path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_code_info)

    for name, desc in (
        ("ic-sweep", "coherent information and decoder bounds over a p grid"),
        ("decoder-sweep", "optimal-decoder success probabilities over a p grid"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--code", required=True, help="family[:dims] or file path")
        _add_sweep_flags(p)
        p.set_defaults(func=lambda a, _n=name: _run_sweep(a, _n))

    p = sub.add_parser(
        "relent-sweep",
        help="relative entropy between logical sectors k0 and k0p over a p grid",
    )
    p.add_argument("code", metavar="selector", help="family[:dims] or file path")
    p.add_argument("k0", type=int, help="first logical label (integer, low bit = pair 0)")
    p.add_argument("k0p", type=int, help="second logical label")
    _add_sweep_flags(p)
    p.set_defaults(func=lambda a: _run_sweep(a, "relent-sweep"))

    p = sub.add_parser("sm-export", help="export one sector's disorder model as JSON")
    p.add_argument("selector")
    p.add_argument(
        "sector",
        help="x:<b>:<kz> | z:<a>:<kx> | coupled:<b>:<kz>:<a>:<kx> "
        "(0/1 strings, low bit first; - for zero-width fields)",
    )
    p.add_argument("out", help="output JSON path")
    p.add_argument("--p", type=float, default=None,
                   help="include couplings at this noise rate")
    p.add_argument("--noise", default="depolarizing",
                   help="joint noise spec for coupled couplings")
    p.set_defaults(func=cmd_sm_export)

    p = sub.add_parser("kw-check", help="high/low temperature duality residuals")
    p.add_argument("selector")
    p.add_argument("beta_x", type=float)
    p.set_defaults(func=cmd_kw_check)

    p = sub.add_parser("verify", help="check sector probabilities against partition sums")
    p.add_argument("selector")
    p.add_argument("p", type=float)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mc", help="Metropolis scan along the Nishimori line")
    p.add_argument("selector")
    p.add_argument("--side", choices=("x", "z"), default="x")
    p.add_argument("--p-start", type=float, required=True)
    p.add_argument("--p-stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--samples", type=int, default=8, help="disorder samples per point")
    p.add_argument("--sweeps", type=int, default=2000)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--seed", type=int, default=1)
    _add_output_flags(p)
    p.set_defaults(func=cmd_mc)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (CodeFormatError, CommutationViolation, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
