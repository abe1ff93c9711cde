"""Command-line surface: schemas, exit codes, provenance, round-trips."""

import dataclasses
import json

import pytest

from csstat import info
from csstat.cli import main, parse_noise
from csstat.statmech import load_model_json, nishimori_beta, partition_exact
from csstat.zoo import four22


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
    # n = 75 fits factorized caps nowhere, but code-info itself must not
    # die: distance is reported as not computed
    code, out, _ = run(capsys, "code-info", "toric3d:3")
    assert code == 0
    assert "not computed" in out


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
         "engine: joint-pairs n=4 pairs=256"),
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

    def violated(dist, k):
        return dataclasses.replace(real(dist, k), violations=("ml 1.5 exceeds 1",))

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
    code, out, _ = run(capsys, "kw-check", "toric2d:2", "0.4")
    assert code == 0
    summed = [l for l in out.splitlines() if l.startswith("summed_residual")]
    assert float(summed[0].split("=")[1]) < 1e-12


def test_sm_export_round_trip(tmp_path, capsys):
    target = tmp_path / "model.json"
    code, out, _ = run(
        capsys, "sm-export", "toric2d:2", "x:101:01", str(target), "--p", "0.2",
    )
    assert code == 0
    model, couplings = load_model_json(str(target))
    assert model.num_spins == 4
    assert abs(couplings.cx - nishimori_beta(0.2)) < 1e-15
    assert partition_exact(model, couplings) != 0.0
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
    model, couplings = load_model_json(str(target))
    assert model.species == "coupled"
    assert abs(couplings.cy) < 1e-13  # depolarizing: cross family off


def test_mc_subcommand_schema(capsys):
    code, out, _ = run(
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


def test_exit_code_too_large(capsys):
    code, _, err = run(
        capsys, "ic-sweep", "--code", "toric2d:8",
        "--p-start", "0.1", "--p-stop", "0.1", "--points", "1",
    )
    assert code == 1
    assert "error:" in err


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
    ).value
    assert abs(float(rows[0][6]) - want) < 1e-15
