"""Command-line surface: schemas, exit codes, provenance, round-trips."""

import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from csstat import info, mc, statmech
from csstat.channels import sector_distribution_joint, sector_distribution_x
from csstat.cli import build_parser, format_cell, main, parse_noise
from csstat.css import EmptyCodeWarning, representative_x, representative_z
from csstat.gf2 import BitVector
from csstat.statmech import nishimori_beta
from csstat.zoo import four22, steane, toric2d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_body(out):
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_code_info_text(capsys):
    code, out, _ = run(capsys, "code-info", "toric2d:2")
    assert code == 0
    assert "n=8 k=2" in out
    assert "distance: dx=2 dz=2" in out
    assert "logical_x[0]:" in out


def test_code_info_json(capsys):
    code, out, _ = run(capsys, "code-info", "steane", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 7 and payload["k"] == 1
    assert payload["distance"] == {"dx": 3, "dz": 3}
    assert len(payload["hash"]) == 12


def test_code_info_reports_too_large_distance(capsys):
    # toric3d:3 (n = 81) has kernel dimensions past the distance
    # enumeration bound, but code-info itself must not die: distance is
    # reported as not computed
    code, out, _ = run(capsys, "code-info", "toric3d:3")
    assert code == 0
    assert "not computed" in out


def test_code_info_on_a_k0_code(tmp_path, capsys):
    # a valid code with no logical qubits has parameters but no distance
    path = tmp_path / "k0.code"
    path.write_text("css-code v1\nn 2\nHz 1\n11\nHx 1\n11\n", encoding="ascii")
    with pytest.warns(EmptyCodeWarning):
        code, out, _ = run(capsys, "code-info", str(path))
    assert code == 0
    assert "n=2 k=0 rank_x=1 rank_z=1" in out
    assert "distance: undefined (k = 0)" in out
    with pytest.warns(EmptyCodeWarning):
        code, out, _ = run(capsys, "code-info", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["k"], payload["distance"]) == (0, None)
    assert payload["logical_x"] == payload["logical_z"] == []


def test_ic_sweep_schema_and_endpoints(capsys):
    code, out, _ = run(
        capsys, "ic-sweep", "--code", "steane",
        "--p-start", "0", "--p-stop", "0.5", "--points", "3",
    )
    assert code == 0
    assert out.startswith("# csstat")
    assert "# command: ic-sweep" in out
    header, rows = csv_body(out)
    assert header == [
        "p_x", "p_z", "ic_bits", "ml_success", "sampling_success",
        "jensen_lower", "rel_entropy_bits",
    ]
    assert len(rows) == 3
    assert rows[0][6] == "inf"  # p = 0: sectors perfectly distinguishable
    assert float(rows[0][2]) == 1.0  # Ic = k
    assert abs(float(rows[2][2]) + 1.0) < 1e-12  # Ic = -k at 1/2


def test_joint_noise_appends_rate_columns(capsys):
    code, out, _ = run(
        capsys, "decoder-sweep", "--code", "four22",
        "--p-start", "0.1", "--p-stop", "0.1", "--points", "1",
        "--noise", "depolarizing",
    )
    assert code == 0
    header, rows = csv_body(out)
    assert header[-3:] == ["pt_x", "pt_y", "pt_z"]
    ptx, pty, ptz = (float(v) for v in rows[0][-3:])
    assert abs(ptx - 0.1 * 0.9) < 1e-15
    assert abs(pty - 0.01) < 1e-15


def test_relent_sweep_positional_labels(capsys):
    code, out, _ = run(
        capsys, "relent-sweep", "steane", "1", "0",
        "--p-start", "0.1", "--p-stop", "0.1", "--points", "1",
    )
    assert code == 0
    header, rows = csv_body(out)
    value = float(rows[0][6])
    assert value > 0
    # label order is irrelevant: only the shift enters
    _, out2, _ = run(
        capsys, "relent-sweep", "steane", "0", "1",
        "--p-start", "0.1", "--p-stop", "0.1", "--points", "1",
    )
    assert csv_body(out2)[1][0][6] == rows[0][6]


def test_json_format_tags_infinity(capsys):
    code, out, _ = run(
        capsys, "ic-sweep", "--code", "four22",
        "--p-start", "0", "--p-stop", "0", "--points", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)  # must be valid JSON: no bare Infinity token
    row = payload["rows"][0]
    assert row[payload["columns"].index("rel_entropy_bits")] == "inf"
    assert payload["provenance"][1] == "command: ic-sweep"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_json_format_tags_nan(capsys):
    # one replica has no overlap estimate: ea_overlap and ea_err are NaN
    code, out, _ = run(
        capsys, "mc", "steane", "--p-start", "0.1", "--p-stop", "0.1",
        "--points", "1", "--samples", "1", "--sweeps", "40",
        "--burn-in", "8", "--replicas", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    row = payload["rows"][0]
    assert row[payload["columns"].index("ea_overlap")] == "nan"
    assert row[payload["columns"].index("ea_err")] == "nan"


@pytest.mark.parametrize(
    "argv, engine",
    [
        (("--code", "steane"),
         "engine: coset-enumerator n=7 m_x=4 m_z=4 combinations=32"),
        (("--code", "four22", "--noise", "depolarizing"),
         "engine: joint-transform n=4 m=6 combinations=64"),
    ],
    ids=["factorized", "joint"],
)
def test_sweep_provenance_names_engine(capsys, argv, engine):
    sweep = ("ic-sweep", *argv, "--p-start", "0.1", "--p-stop", "0.1",
             "--points", "1")
    code, out, _ = run(capsys, *sweep)
    assert code == 0
    provenance = [l for l in out.splitlines() if l.startswith("#")]
    assert len(provenance) == 5
    assert provenance[4] == f"# {engine}"
    code, out, _ = run(capsys, *sweep, "--format", "json")
    assert code == 0
    assert json.loads(out)["provenance"][4] == engine


def test_bound_violation_exits_internal(capsys, monkeypatch):
    real = info.bound_report

    def violated(dist):
        return dataclasses.replace(real(dist), violations=("ml 1.5 exceeds 1",))

    monkeypatch.setattr(info, "bound_report", violated)
    code, out, err = run(
        capsys, "ic-sweep", "--code", "steane",
        "--p-start", "0.1", "--p-stop", "0.2", "--points", "2",
    )
    assert code == 3
    assert "ml 1.5 exceeds 1" in err
    assert err.count("bound violation") == 2  # one per grid point
    assert len(csv_body(out)[1]) == 2  # the table is still written


def test_output_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "ic-sweep", "--code", "four22",
        "--p-start", "0.2", "--p-stop", "0.2", "--points", "1",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# csstat")
    assert "ic_bits" in text


def test_verify_and_kw(capsys):
    code, out, _ = run(capsys, "verify", "four22", "0.1")
    assert code == 0
    assert "ok (tolerance" in out
    lines = out.splitlines()
    # one spin per side; 2^(rank + k) = 8 sectors of 2^1 configurations each
    assert lines[2:4] == [
        "p=0.1", "engine: exact-enumeration spins_x=1 spins_z=1 configs=32",
    ]
    assert lines[4].startswith("side x: sectors=8 max_abs_dev=")
    assert lines[5].startswith("side z: sectors=8 max_abs_dev=")
    code, out, _ = run(capsys, "kw-check", "toric2d:2", "0.4")
    assert code == 0
    summed = [l for l in out.splitlines() if l.startswith("summed_residual")]
    assert float(summed[0].split("=")[1]) < 1e-12


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("ic-sweep", "--code", "toric2d:3", "--p-start", "0", "--p-stop", "0.5",
          "--points", "9"),
         "391c7a577153b7207d47d4a2d4841fc0d15882525761713f7d3e70d286ae8bb4"),
        (("ic-sweep", "--code", "color666:3x3", "--p-start", "0", "--p-stop", "0.2",
          "--points", "5", "--noise", "independent:pz=0.07"),
         "7ef6df184b383780017efbe953fed00b78ec81318df62bbee6ae7da4d839a6b9"),
        (("decoder-sweep", "--code", "steane", "--p-start", "0", "--p-stop", "0.5",
          "--points", "6"),
         "3c797ba0391ed8b4b9c1cf9bea4270f504cf265b14546a8fe3c92d266c1ab2d4"),
        (("verify", "surface2d:3x4", "0.1"),
         "27edf0762058d19a687533f75444e467e8cdb07b6561ded4afbe3e8cabf1c030"),
        (("ic-sweep", "--code", "surface2d:3x3", "--noise", "depolarizing",
          "--p-start", "0", "--p-stop", "0.3", "--points", "4"),
         "3eb447aaeffb9fb24c0e211080dc35fef13072387bddcd7dfcf47869c53c83e5"),
        (("ic-sweep", "--code", "steane", "--noise", "depolarizing",
          "--p-start", "0", "--p-stop", "0.5", "--points", "6"),
         "310caa94f899b34675c188c4377bd68f79d9c7a858e0c0cca8bb8d3e7e236fa4"),
        (("ic-sweep", "--code", "toric2d:2", "--noise", "general:1,0.5,2",
          "--p-start", "0", "--p-stop", "0.75", "--points", "6"),
         "9ae30c68df5442087112bab2e25459f9ebdc2588c6d75b98375a1ad746faa995"),
        (("code-info", "toric2d:2"),
         "8733900ff83a7284170b4cafe550eb659a948fbc019b5c25b4386806fdae6400"),
        (("code-info", "steane", "--format", "json"),
         "8c4e957858e53fcc4ebda3f3759c2f29846c48ef84af794b0c917e2d6554c925"),
        (("code-info", "surface2d:5x5"),
         "b58ac42b5251261b326b131e7d6c60631f84ef7d4d67428d11f07109182386c4"),
        (("code-info", "toric3d:3"),
         "fb931cd32bbe6b52896719dfc33adac0dbe33a4940d99bdd662d96f52515b704"),
    ],
    ids=["ic-sweep-toric2d-3", "ic-sweep-color666-pz", "decoder-sweep-steane",
         "verify-surface2d-3x4", "ic-sweep-surface2d-3x3-depol",
         "ic-sweep-steane-depol", "ic-sweep-toric2d-2-general",
         "code-info-toric2d-2", "code-info-steane-json",
         "code-info-surface2d-5x5", "code-info-toric3d-3-not-computed"],
)
def test_stdout_is_pinned(capsys, argv, digest):
    # sha256 of the whole stdout, recorded when every sweep point built its
    # own enumerators and every sector its own parity block; the provenance
    # lines carry the package version, so a version bump re-records these
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _read_model(path):
    with open(path, encoding="utf-8") as fh:
        return statmech.sm_from_json_dict(json.load(fh))  # ignores "provenance"


def test_sm_export_round_trip(tmp_path, capsys):
    # the model read back is the one build_sm_x makes for the sector, and its
    # partition sum gives that sector's entry of the enumerated table
    target = tmp_path / "model.json"
    code, out, _ = run(
        capsys, "sm-export", "toric2d:2", "x:101:01", str(target), "--p", "0.2",
    )
    assert code == 0
    model, couplings = _read_model(target)
    toric = toric2d(2)
    b, kz = BitVector.from01("101"), BitVector.from01("01")
    assert model == statmech.build_sm_x(toric, representative_x(toric, b, kz))
    assert abs(couplings.cx - nishimori_beta(0.2)) < 1e-15
    entry = sector_distribution_x(toric, 0.2).table[b.bits << toric.k | kz.bits]
    assert abs(statmech.log_sector_probability(model, couplings)
               - math.log(entry)) <= 1e-12
    payload = json.loads(target.read_text())
    assert any("sm-export" in line for line in payload["provenance"])


def test_sm_export_coupled_requires_joint_noise(tmp_path, capsys):
    target = tmp_path / "coupled.json"
    code, _, err = run(
        capsys, "sm-export", "four22", "coupled:1:00:1:00", str(target),
        "--p", "0.1", "--noise", "independent",
    )
    assert code == 2
    assert "joint noise" in err
    code, _, _ = run(
        capsys, "sm-export", "four22", "coupled:1:00:1:00", str(target),
        "--p", "0.1", "--noise", "depolarizing",
    )
    assert code == 0
    model, couplings = _read_model(target)
    four = four22()
    b = a = BitVector.from01("1")
    kz = kx = BitVector.from01("00")
    assert model == statmech.build_sm_coupled(
        four, representative_x(four, b, kz), representative_z(four, a, kx)
    )
    assert abs(couplings.cy) < 1e-13  # depolarizing: cross family off
    joint = sector_distribution_joint(four, parse_noise("depolarizing").rates_at(0.1))
    m_x = four.rank_z + four.k
    index = (a.bits << four.k | kx.bits) << m_x | b.bits << four.k | kz.bits
    assert abs(statmech.log_sector_probability(model, couplings)
               - math.log(joint.table[index])) <= 1e-12


def test_mc_subcommand_schema(capsys):
    code, out, err = run(
        capsys, "mc", "toric2d:2", "--p-start", "0.1", "--p-stop", "0.1",
        "--points", "1", "--samples", "2", "--sweeps", "200",
        "--burn-in", "40", "--seed", "3",
    )
    assert code == 0
    header, rows = csv_body(out)
    assert header == [
        "p", "beta", "mean_energy", "energy_err", "ea_overlap", "ea_err",
        "samples",
    ]
    assert float(rows[0][1]) == nishimori_beta(0.1)
    assert float(rows[0][6]) == 2.0
    # 4 spins (X checks) and 8 terms (qubits); 1 point x 2 samples x 2
    # replicas x 200 sweeps x 4 spins proposals
    provenance = [l for l in out.splitlines() if l.startswith("#")]
    assert provenance[4] == "# engine: metropolis spins=4 terms=8 proposals=3200"
    # the chain count, the kernel's build time, the point's time and its
    # acceptance rate go to stderr, not stdout
    lanes, point, accept = err.splitlines()
    assert re.fullmatch(r"# mc lanes=4 kernel=\d+\.\d{4}s", lanes), lanes
    assert re.fullmatch(r"# time p=0\.1: \d+\.\d{4}s", point), point
    assert re.fullmatch(r"# accept p=0\.1: [01]\.\d{4}", accept), accept
    assert 0.0 < float(accept.rsplit(" ", 1)[1]) < 1.0
    assert "# time" not in out and "lanes" not in out and "accept" not in out


def test_exit_code_too_large(capsys):
    code, _, err = run(
        capsys, "ic-sweep", "--code", "toric2d:8",
        "--p-start", "0.1", "--p-stop", "0.1", "--points", "1",
    )
    assert code == 1
    assert "error:" in err


def test_verify_past_spin_limit_exits_too_large(tmp_path, capsys):
    # four22 with its X check repeated 70 times: each X-side term mask spans
    # 70 spins, which must be refused by the spin limit, not overflow uint64
    target = tmp_path / "four22_x70.code"
    target.write_text("css-code v1\nn 4\nHz 1\n1111\nHx 70\n" + "1111\n" * 70)
    code, _, err = run(capsys, "verify", str(target), "0.1")
    assert code == 1
    assert "Traceback" not in err
    assert any(
        line.startswith("error:") and "24-spin limit" in line
        for line in err.splitlines()
    )


def test_verify_refuses_an_oversized_side_before_summing_either(capsys, monkeypatch):
    # surface2d:4x6: the X side alone would sum 2^19 sectors x 2^20 spin
    # configurations before the Z side's table refused m_z = 21
    def unreachable(*args):
        raise AssertionError("a sector table was built")

    monkeypatch.setattr(statmech, "sector_distribution_x", unreachable)
    code, out, err = run(capsys, "verify", "surface2d:4x6", "0.1")
    assert (code, out) == (1, "")
    assert err == (
        "error: sector loop sums 2**19 sectors x 2**20 configurations "
        "(m = 19 label bits, 20 spins) = 2**39, past its 2**36 bound\n"
    )


def test_cli_import_leaves_the_pool_modules_unloaded():
    # the mc chains run as lanes in this process, so neither importing the
    # CLI nor running an mc scan loads multiprocessing or concurrent.futures
    probe = ("import sys, csstat.cli; csstat.cli.main(['mc', 'toric2d:2', "
             "'--p-start', '0.1', '--p-stop', '0.1', '--points', '1', "
             "'--sweeps', '40', '--burn-in', '8']); print([m for m in "
             "('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(statmech.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.endswith("\n[]\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("code-info", "nosuchfamily:3"),
        ("ic-sweep", "--code", "steane", "--p-start", "-0.1",
         "--p-stop", "0.5", "--points", "3"),
        ("ic-sweep", "--code", "steane", "--p-start", "0.1",
         "--p-stop", "0.5", "--points", "0"),
        ("ic-sweep", "--code", "steane", "--p-start", "0.1",
         "--p-stop", "0.5", "--points", "3", "--noise", "gaussian"),
        ("relent-sweep", "four22", "9", "0",
         "--p-start", "0.1", "--p-stop", "0.1", "--points", "1"),
        ("sm-export", "four22", "q:1:00", "/tmp/never.json"),
        ("code-info", "/no/such/file.css"),
        ("mc", "toric2d:2", "--p-start", "0", "--p-stop", "0.1",
         "--points", "2", "--sweeps", "100", "--burn-in", "10"),
    ],
)
def test_exit_code_input_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "text, side, message",
    [("css-code v1\nn 2\nHz 0\nHx 1\n11\n", "z", "model has no spins")],
    ids=["no spins"],
)
def test_mc_refuses_a_model_before_any_chain(
    tmp_path, capsys, monkeypatch, text, side, message
):
    # the side's model is checked once, before any chain runs, so the scan
    # exits 2 with the reason

    def no_chains(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr(mc, "_lockstep", no_chains)
    path = tmp_path / "model.code"
    path.write_text(text, encoding="ascii")
    code, _, err = run(
        capsys, "mc", str(path), "--side", side, "--p-start", "0.1",
        "--p-stop", "0.2", "--points", "2", "--sweeps", "100", "--burn-in", "10",
    )
    assert code == 2
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv",
    [
        ("ic-sweep", "--code", "four22", "--p-start", "0.1", "--p-stop", "0.1",
         "--points", "1", "--out", "{file}/x.csv"),
        ("verify", "{file}/x.css", "0.1"),
        ("sm-export", "steane", "x:000:0", "{file}/o.json"),
    ],
    ids=["ic-sweep --out", "verify code file", "sm-export out"],
)
def test_path_under_a_regular_file_is_an_input_error(tmp_path, capsys, argv):
    # the OS refuses such a path with NotADirectoryError; exit code 1 means
    # "bound exceeded", so it must exit 2 with an error line, not a traceback
    regular = tmp_path / "regular"
    regular.write_text("")
    code, _, err = run(capsys, *(a.format(file=regular) for a in argv))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "toric2d:2", "1e-320"), "nishimori_beta(1e-320) is not finite"),
        (("sm-export", "toric2d:2", "x:000:00", "{dir}/o.json", "--p", "1e-320"),
         "nishimori_beta(1e-320) is not finite"),
        (("kw-check", "surface2d:2x2", "355"), "beta_x = 355.0"),
        (("kw-check", "surface2d:2x2", "5e-324"), "beta_x = 5e-324"),
        (("kw-check", "toric2d:2", "inf"), "finite beta_x > 0 so tanh(beta_x) > 0, got inf"),
        (("kw-check", "toric2d:2", "nan"), "finite beta_x > 0 so tanh(beta_x) > 0, got nan"),
        (("ic-sweep", "--code", "steane", "--p-start", "0.1", "--p-stop", "0.1",
          "--points", "1", "--noise", "general:1e308,1e308,1e308"),
         "noise weights 1e+308,1e+308,1e+308"),
        (("ic-sweep", "--code", "steane", "--p-start", "0.1", "--p-stop", "0.1",
          "--points", "1", "--noise", "general:1,nan,1"),
         "noise weights 1.0,nan,1.0"),
    ],
    ids=["verify p=1e-320", "sm-export p=1e-320", "kw-check 355", "kw-check 5e-324",
         "kw-check inf", "kw-check nan", "general 1e308", "general nan"],
)
def test_out_of_range_floats_are_input_errors(tmp_path, capsys, argv, message):
    # each used to print a false pass, zero noise, a misleading message or
    # an OverflowError traceback; sm-export used to write Infinity into JSON,
    # and kw-check inf printed beta_z=-0.0 with zero residuals
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o.json").exists()


def test_one_partition_sum_per_sector(capsys, monkeypatch):
    # the verify benchmark counts partition_exact calls as sectors and the
    # 2**num_spins of each call's first argument as configurations, so every
    # sector loop makes one call per sector with its own model
    real = statmech.partition_exact
    spins = []

    def counted(*args):
        spins.append(args[0].num_spins)
        return real(*args)

    monkeypatch.setattr(statmech, "partition_exact", counted)
    code, _, _ = run(capsys, "verify", "surface2d:3x4", "0.1")
    assert code == 0
    assert len(spins) == 512 + 1024
    assert sum(1 << s for s in spins) == 524288
    spins.clear()
    statmech.domain_wall_free_energy(toric2d(3), 0.1, BitVector.from01("01"))
    assert spins == [9] * 1024
    spins.clear()
    noise = parse_noise("depolarizing").rates_at(0.1)
    statmech.verify_sector_identity_coupled(steane(), noise)
    assert spins == [6] * 256


def test_verify_writes_stage_times_to_stderr(capsys):
    # one line per side on stderr; stdout stays a function of the inputs
    code, out, err = run(capsys, "verify", "four22", "0.1")
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 2
    for side, line in zip("xz", lines):
        assert re.fullmatch(
            rf"# time side {side}: table \d+\.\d{{4}}s "
            rf"rows \d+\.\d{{4}}s sums \d+\.\d{{4}}s",
            line,
        ), line
    assert "# time" not in out


def test_verify_fails_on_a_nan_partition_sum(capsys, monkeypatch):
    # four22 has 8 sectors a side, X first. A NaN ln Z in the second Z
    # sector must survive both worst-deviation folds; max() keeps a NaN only
    # when it comes first, so a finite sector and side ahead of it hid it
    real = statmech.partition_exact
    calls = []

    def tenth_nan(*args):
        calls.append(None)
        return math.nan if len(calls) == 10 else real(*args)

    monkeypatch.setattr(statmech, "partition_exact", tenth_nan)
    code, out, _ = run(capsys, "verify", "four22", "0.1")
    assert code == 3
    lines = out.splitlines()
    assert lines[4].startswith("side x: sectors=8 max_abs_dev=")
    assert lines[4] != "side x: sectors=8 max_abs_dev=nan"
    assert lines[5] == "side z: sectors=8 max_abs_dev=nan"
    assert lines[6] == "FAIL: deviation nan exceeds 1e-09"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["ic-sweep", "--code", "steane"],  # missing required flags: exit 2
        ["--version"],
        ["ic-sweep", "--code", "steane", "--p-start", "0.1", "--p-stop", "0.2",
         "--points", "2"],
    ],
)
def test_repeated_calls_share_the_parser_and_agree(capsys, argv):
    def call():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = call()
    assert first[1] or first[2]
    assert call() == first and call() == first


def test_argparse_errors_use_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ic-sweep", "--code", "steane"])  # missing required flags
    assert exc.value.code == 2


def test_noise_grammar():
    assert parse_noise("independent").kind == "independent"
    spec = parse_noise("independent:pz=0.03")
    assert spec.pz_fixed == 0.03
    assert spec.rates_at(0.1) == (0.1, 0.03)
    spec = parse_noise("general:1,2,1")
    noise = spec.rates_at(0.2)
    assert abs(noise.ptx - 0.05) < 1e-15
    assert abs(noise.pty - 0.1) < 1e-15
    for bad in ("gaussian", "general:1,2", "general:-1,1,1", "independent:pz=2"):
        with pytest.raises(ValueError):
            parse_noise(bad)


@pytest.mark.parametrize(
    "weights", ["1e308,1e308,1e308", "1,nan,1", "nan,1,1", "1,inf,1", "-inf,1,1"]
)
def test_general_noise_rejects_non_finite_weights(weights):
    with pytest.raises(ValueError, match="finite") as exc:
        parse_noise("general:" + weights)
    assert ",".join(str(float(w)) for w in weights.split(",")) in str(exc.value)


def test_format_cell():
    assert format_cell(math.inf) == "inf"
    assert format_cell(0.25) == "0.25"
    assert format_cell(1.0) == "1.0"


def test_rel_entropy_matches_library(capsys):
    # CSV column equals the library value at the default shift
    from csstat.channels import sector_distribution_x
    from csstat.gf2 import BitVector
    from csstat.info import relative_entropy

    code4 = four22()
    _, out, _ = run(
        capsys, "ic-sweep", "--code", "four22",
        "--p-start", "0.17", "--p-stop", "0.17", "--points", "1",
    )
    _, rows = csv_body(out)
    want = relative_entropy(
        sector_distribution_x(code4, 0.17),
        BitVector(code4.k, 0),
        BitVector(code4.k, 1),
    )
    assert abs(float(rows[0][6]) - want) < 1e-15


def test_readme_examples_run(tmp_path, monkeypatch):
    # every `csstat ...` line of README's CLI block exits 0, and the library
    # quick start runs as printed
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cli_block = readme.split("## CLI", 1)[1].split("```")[1]
    commands = cli_block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in commands if line.startswith("csstat ")]
    assert len(commands) == 8
    for argv in commands:
        argv = [str(tmp_path / a) if a == "model.json" else a for a in argv]
        assert main(argv) == 0, argv
    quick_start = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = quick_start.split("```python\n")[1:]
    assert len(blocks) == 2
    monkeypatch.syspath_prepend(str(Path(__file__).parent))  # for oracles
    namespace = {}
    for block in blocks:
        exec(block.split("```", 1)[0], namespace)
