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
    # no Lyapunov run: the exponents and their error bars are null, not 0
    assert all(rep[k] is None for k in ("lyapunovTarget", "lyapunovRealized",
                                        "lyapunovTargetStderr",
                                        "lyapunovRealizedStderr"))


def test_unknown_preset_rejected():
    with pytest.raises(SystemExit):
        load_config(None, ["realize.preset=banana"])


@pytest.mark.parametrize("overrides", [
    ["scales.bb=3"],                            # unknown key
    ["reduce.R0=NaN"],
    ["scales.gamma=Infinity"],
    ["realize.f=[0.0, NaN]"],                   # inside a list
    ["control.target=[[1, 0], [0, -Infinity]]"],
    ["realize.xi=0"],
    ["realize.horizon=-1"],
    ["realize.ball_radius=0"],
    ["reduce.b=1"],
    ["wavenumbers.p=0"],
    ["wavenumbers.p=2.5"],
    ["realize.preset=explicit", "realize.D=[[-1.0]]"],     # no R, no f
    ["control.target=[[1, 2], [3, 4]]"],                   # not N x N
    ["spectrum.kmax=0"],
    ["spectrum.kmax=2.5"],
    ["spectrum.grid_n=1"],
    ["spectrum.grid_n=-300"],
    ["spectrum.grid_n=\"auto\""],
    ["spectrum.pencil_kmax=-1"],
    ["spectrum.pencil_kmax=true"],
    ["realize.lyapunov=no"],                    # a string, not a boolean
    ["realize.lyapunov=1"],
    ["control.seed_scale=big"],
    ["reduce.R0=[1.0]"],
    ["scales.gamma=true"],
    ["seed=1.5"],
    ["seed=-1"],
])
def test_config_error_exits_2(tmp_path, overrides):
    args = [a for ov in overrides for a in ("--set", ov)]
    assert main(["all", "--out", str(tmp_path)] + args) == 2


def test_negative_seed_flag_exits_2(tmp_path):
    assert main(["all", "--out", str(tmp_path), "--seed", "-1"]) == 2


def test_all_runs_every_stage(tmp_path):
    args = ["--set", "spectrum.kmax=6", "--set", "spectrum.pencil_kmax=2",
            "--set", "realize.preset=contraction", "--set", "realize.xi=0.01",
            "--set", "realize.horizon=10", "--set", "realize.lyapunov=false"]
    assert main(["all", "--out", str(tmp_path)] + args) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "calibration.json", "control_report.json", "control_solution.json",
        "realization_report.json", "reduced_system.json", "reduction_info.json",
        "spectrum.csv"]


def test_console_entrypoint():
    res = subprocess.run([sys.executable, "-m", "obrealize.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
