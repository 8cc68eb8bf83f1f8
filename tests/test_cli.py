import json
import subprocess
import sys

import pytest

from obrealize.cli import load_config, main


def run_cli(args):
    return main(args)


def test_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None, ["scales.b=42.5", "spectrum.kmax=9"])
    assert cfg["scales"]["b"] == 42.5
    assert cfg["spectrum"]["kmax"] == 9
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scales": {"s2": 0.06}}))
    cfg = load_config(str(path), None)
    assert cfg["scales"]["s2"] == 0.06
    assert cfg["scales"]["b"] == 30.0


def test_invalid_scales_rejected(tmp_path):
    with pytest.raises(SystemExit):
        load_config(None, ["scales.s0=1.5"])
    # a misspelt key is an error, not a silently ignored setting
    with pytest.raises(SystemExit, match="scales.bb"):
        load_config(None, ["scales.bb=3"])
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scales": {"bb": 3}}))
    with pytest.raises(SystemExit, match="scales.bb"):
        load_config(str(path), None)
    with pytest.raises(SystemExit, match="threads"):
        load_config(None, ["threads=2"])


def test_spectrum_stage_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["spectrum", "--out", str(out),
                    "--set", "spectrum.kmax=8",
                    "--set", "spectrum.pencil_kmax=3"])
    assert code == 0
    assert (out / "spectrum.csv").exists()
    calib = json.loads((out / "calibration.json").read_text())
    assert calib["passed"] is True
    assert calib["kernel_residual"] < 1e-6


def test_spectrum_determinism(tmp_path):
    o1, o2 = tmp_path / "a", tmp_path / "b"
    args = ["--set", "spectrum.kmax=6", "--set", "spectrum.pencil_kmax=2"]
    assert run_cli(["spectrum", "--out", str(o1)] + args) == 0
    assert run_cli(["spectrum", "--out", str(o2)] + args) == 0
    assert (o1 / "spectrum.csv").read_bytes() == (o2 / "spectrum.csv").read_bytes()
    assert (o1 / "calibration.json").read_bytes() == (o2 / "calibration.json").read_bytes()


def test_reduce_stage(tmp_path):
    out = tmp_path / "r"
    code = run_cli(["reduce", "--out", str(out), "--set", "reduce.b=40"])
    assert code == 0
    doc = json.loads((out / "reduced_system.json").read_text())
    assert doc["N"] == 5
    assert len(doc["K"]) == 5
    info = json.loads((out / "reduction_info.json").read_text())
    assert info["sparsity_ok"] is True


def test_control_stage(tmp_path):
    out = tmp_path / "c"
    code = run_cli(["control", "--out", str(out), "--seed", "7"])
    assert code == 0
    rep = json.loads((out / "control_report.json").read_text())
    assert rep["rel_frobenius_error"] < 0.05


def test_control_stage_p3(tmp_path):
    out = tmp_path / "c3"
    code = run_cli(["control", "--out", str(out), "--set", "wavenumbers.p=3"])
    assert code == 0
    rep = json.loads((out / "control_report.json").read_text())
    assert rep["rel_frobenius_error"] < 1e-6
    assert rep["condition_number"] < 1e13


def test_realize_contraction(tmp_path):
    out = tmp_path / "z"
    code = run_cli(["realize", "--out", str(out),
                    "--set", "realize.preset=contraction",
                    "--set", "realize.xi=0.01",
                    "--set", "realize.horizon=10",
                    "--set", "realize.lyapunov=false"])
    assert code == 0
    rep = json.loads((out / "realization_report.json").read_text())
    assert rep["supError"] < 0.05


def test_unknown_preset_rejected():
    with pytest.raises(SystemExit):
        load_config(None, ["realize.preset=banana"])


def test_console_entrypoint():
    res = subprocess.run([sys.executable, "-m", "obrealize.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
