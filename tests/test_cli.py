import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import obrealize
from obrealize.cli import CONFIG_KEYS, load_config, main
from obrealize.control import extended_set
from obrealize.profile import derive_scales, designed_profile
from obrealize.spectral import SpectralError, check_survey


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
    for ov in ("reduce.R0=1", "control.seed_scale=1", "spectrum.pencil_kmax=3"):
        with pytest.raises(SystemExit, match="unknown config key"):
            load_config(None, [ov])


def test_spectrum_stage_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["spectrum", "--out", str(out), "--set", "spectrum.kmax=8"])
    assert code == 0
    assert (out / "spectrum.csv").exists()
    calib = json.loads((out / "calibration.json").read_text())
    assert calib["passed"] is True
    assert calib["kernel_residual"] < 1e-6


def test_spectrum_determinism(tmp_path):
    o1, o2 = tmp_path / "a", tmp_path / "b"
    args = ["--set", "spectrum.kmax=7"]
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
    code = run_cli(["control", "--out", str(out), "--set", "seed=7"])
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


def test_contraction_preset_reads_ball_radius(tmp_path):
    # the contraction target is built on the configured ball, where
    # realize_target draws its start
    args = ["--set", "realize.preset=contraction", "--set", "realize.xi=0.01",
            "--set", "realize.horizon=10", "--set", "realize.lyapunov=false"]
    reports = []
    for radius in (1, 2):
        out = tmp_path / str(radius)
        assert main(["realize", "--out", str(out),
                     "--set", f"realize.ball_radius={radius}"] + args) == 0
        reports.append((out / "realization_report.json").read_bytes())
    assert reports[0] != reports[1]


def test_unknown_preset_rejected():
    with pytest.raises(SystemExit):
        load_config(None, ["realize.preset=banana"])


@pytest.mark.parametrize("overrides", [
    ["scales.bb=3"],                            # unknown key
    ["reduce.b=NaN"],
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
    ["realize.lyapunov=no"],                    # a string, not a boolean
    ["realize.lyapunov=1"],
    ["scales.s0=\"big\""],
    ["scales.s2=[0.05]"],
    ["scales.gamma=true"],
    ["seed=1.5"],
    ["seed=-1"],
    ["realize.preset=explicit", "realize.D=[[-1.0]]",      # D not p x p x p
     "realize.R=[[1]]", "realize.f=[0]"],
    ["realize.preset=explicit", "realize.D=[[[-1.0]]]",    # R not p x p
     "realize.R=[[1, 0], [0, 1]]", "realize.f=[0]"],
    ["realize.preset=explicit", "realize.D=[[[-1.0]]]",    # f not of length p
     "realize.R=[[1]]", "realize.f=[0, 0]"],
    ["spectrum.grid_n=10"],                     # too coarse for 1/(4b) at b = 30
    ["spectrum.kmax=6"],                        # kernel k = 7 not surveyed
    ["scales.b=1.5"],                           # k = 7 past h r b = 4.14
    ["scales.b=1.1"],                           # h r b = 0.96: nothing surveyed
    ["wavenumbers.p=1", "spectrum.kmax=1"],     # no wavenumber outside the kernel
])
def test_config_error_exits_2(tmp_path, overrides):
    args = [a for ov in overrides for a in ("--set", ov)]
    assert main(["all", "--out", str(tmp_path)] + args) == 2


@pytest.mark.parametrize("content", [
    b"[1, 2]", b'"x"', b"null",                 # top level not a JSON object
    b'{"seed": "\xff"}',                        # not UTF-8
])
def test_bad_config_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    assert main(["all", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("overrides, kernel, kmax, b", [
    (["spectrum.kmax=6"], [1, 7], 6, 30.0),
    (["scales.b=1.1"], [1, 7], 21, 1.1),
    (["wavenumbers.p=1", "spectrum.kmax=1"], [1], 1, 30.0),
])
def test_survey_rule_has_the_words_of_spectrum_report(tmp_path, capsys, overrides,
                                                      kernel, kmax, b):
    # the load-time check and the survey itself raise from one predicate
    args = [a for ov in overrides for a in ("--set", ov)]
    assert main(["spectrum", "--out", str(tmp_path)] + args) == 2
    with pytest.raises(SpectralError) as exc:
        check_survey(kernel, kmax, derive_scales(b, 0.95, 0.05, gamma=1e-3))
    assert f"invalid spectrum.kmax or scales.b: {exc.value}" in capsys.readouterr().err


@pytest.mark.parametrize("stage, overrides, code", [
    ("reduce", ["wavenumbers.p=4"], 0),         # kernel k = 37 past kmax 21
    ("control", ["wavenumbers.p=4"], 0),
    ("spectrum", ["wavenumbers.p=4"], 2),
    ("reduce", ["spectrum.grid_n=10"], 0),      # too coarse at b = 30
    ("spectrum", ["spectrum.grid_n=10"], 2),
])
def test_spectrum_rules_bind_only_the_stages_that_read_them(tmp_path, stage,
                                                            overrides, code):
    # the survey and grid rules read spectrum.*, which reduce and control
    # never read; all runs spectrum, so it keeps both rules
    args = [a for ov in overrides for a in ("--set", ov)]
    assert main([stage, "--out", str(tmp_path)] + args) == code


@pytest.mark.parametrize("stage, override, code", [
    ("reduce", "realize.preset=explicit", 0),   # no realize.D, R or f
    ("reduce", "control.target=[[1.0]]", 0),    # not N x N
    ("realize", "realize.preset=explicit", 2),
    ("control", "control.target=[[1.0]]", 2),
    ("all", "realize.preset=explicit", 2),
    ("all", "control.target=[[1.0]]", 2),
])
def test_target_rules_bind_only_the_stages_that_read_them(tmp_path, stage,
                                                         override, code):
    # reduce reads neither the realize preset nor the control target
    assert main([stage, "--out", str(tmp_path), "--set", override]) == code


@pytest.mark.parametrize("b, reach", [(30.0, 10), (50.0, 10), (112.0, 11)])
def test_wavenumber_reach_is_checked_before_any_set_is_built(tmp_path, monkeypatch,
                                                             b, reach):
    # the default basis grid at reduce.b resolves the 1/(4k) layer of the
    # largest wavenumber k of p's extended set up to p = reach; one past
    # it, doubling the grid moves an entry of K by 0.18-0.29 at b = 30 and
    # 50 (6.7e-3 at b = 112), where it moves it by 1.8e-4 to 5.0e-3 at the
    # reach.  No set is built to find it, so no p stalls the check
    import obrealize.control as control

    def refused(p):
        raise AssertionError(f"sidon_set({p}) ran before the reach check")

    monkeypatch.setattr(control, "sidon_set", refused)
    load_config(None, [f"reduce.b={b}", f"wavenumbers.p={reach}"], "reduce")
    for p in (reach + 1, 13, 100000):
        with pytest.raises(SystemExit, match=rf"need at most {reach} at reduce.b"):
            load_config(None, [f"reduce.b={b}", f"wavenumbers.p={p}"], "reduce")
        # spectrum's grid, at scales.b, has its own reach
        with pytest.raises(SystemExit, match=rf"need at most {reach} at scales.b"):
            load_config(None, [f"scales.b={b}", f"wavenumbers.p={p}"], "spectrum")
    monkeypatch.undo()
    assert main(["reduce", "--out", str(tmp_path), "--set", f"reduce.b={b}",
                 "--set", f"wavenumbers.p={reach}"]) == 0


def test_grid_n_is_bounded_and_checked_on_its_nodes(tmp_path, monkeypatch):
    # spectrum at grid_n = 2000 (b = 30) takes 76 s and 760 MB; the load
    # checks read the node map alone, with no differentiation matrix built
    import obrealize.grid as grid

    def refused(n):
        raise AssertionError("a differentiation matrix was built at load")

    monkeypatch.setattr(grid, "chebyshev_diff", refused)
    load_config(None, ["spectrum.grid_n=2000"], "spectrum")
    with pytest.raises(SystemExit, match="grid_n: need an integer 0 .* or 2 to 2000"):
        load_config(None, ["spectrum.grid_n=2001"], "spectrum")
    assert main(["spectrum", "--out", str(tmp_path),
                 "--set", "spectrum.grid_n=2001"]) == 2


@pytest.mark.parametrize("stage, calls", [
    ("spectrum", 1), ("reduce", 0), ("control", 1), ("realize", 0)])
def test_stage_designs_profile_only_where_read(tmp_path, monkeypatch, stage, calls):
    # reduce and realize read only K, which the asymptotic basis gives
    # without the designed polynomial; control reads sup|U| for u0
    import obrealize.cli as cli
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return designed_profile(*args, **kwargs)

    monkeypatch.setattr(cli, "designed_profile", counting)
    args = ["--set", "spectrum.kmax=7",
            "--set", "realize.preset=contraction", "--set", "realize.xi=0.01",
            "--set", "realize.horizon=10", "--set", "realize.lyapunov=false"]
    assert main([stage, "--out", str(tmp_path)] + args) == 0
    assert len(seen) == calls


def test_all_runs_every_stage(tmp_path):
    # every stage writes its figures, and a rerun writes the same bytes
    args = ["--set", "spectrum.kmax=7",
            "--set", "realize.preset=contraction", "--set", "realize.xi=0.01",
            "--set", "realize.horizon=10", "--set", "realize.lyapunov=false"]
    o1, o2 = tmp_path / "a", tmp_path / "b"
    assert main(["all", "--out", str(o1)] + args) == 0
    assert main(["all", "--out", str(o2)] + args) == 0
    names = sorted(p.name for p in o1.iterdir())
    assert names == [
        "calibration.json", "control_report.json", "control_solution.json",
        "g1_grid.csv", "phase_portrait.svg", "realization_report.json",
        "reduced_system.json", "reduction_info.json", "spectrum.csv",
        "spectrum.svg", "trajectory.csv", "u1_grid.csv"]
    assert sorted(p.name for p in o2.iterdir()) == names
    for name in names:
        assert (o1 / name).read_bytes() == (o2 / name).read_bytes(), name


def test_realize_writes_the_certified_orbit(tmp_path, monkeypatch):
    # trajectory.csv is the orbit realize_target measured its gates on:
    # it starts at the state realize_target integrated from
    import obrealize.realize as realize
    integrate, starts = realize.integrate, []

    def recording(system, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return integrate(system, x0, *args, **kwargs)

    monkeypatch.setattr(realize, "integrate", recording)
    assert main(["realize", "--out", str(tmp_path),
                 "--set", "realize.preset=contraction",
                 "--set", "realize.xi=0.01", "--set", "realize.horizon=10",
                 "--set", "realize.lyapunov=false"]) == 0
    assert len(starts) == 1
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert rows[0] == "0," + ",".join(f"{v:.12g}" for v in starts[0])
    rep = json.loads((tmp_path / "realization_report.json").read_text())
    assert len(rows) == rep["trajectory_steps"] + 1


class _Reads(dict):
    """A config section that adds the dotted key of each leaf read to seen."""

    def __init__(self, doc: dict, seen: set, prefix: str = ""):
        super().__init__((k, _Reads(v, seen, f"{prefix}{k}.") if isinstance(v, dict)
                          else v) for k, v in doc.items())
        self.seen, self.prefix = seen, prefix

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if not isinstance(value, _Reads):
            self.seen.add(self.prefix + key)
        return value


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The files of one `all` run at a small config, what the stages
    returned to the CLI on it, and the config keys it read.  Each recorded
    name maps to the (args, result) of its first call; a key counts as
    read when load_config's rules or a stage reads it.  The target is the
    explicit p = 2 field, so N = 5, and the orbit is the exponential path,
    whose step 10/399 shows the t column's digits."""
    import obrealize.cli as cli
    out = tmp_path_factory.mktemp("all")
    seen, reads = {}, set()

    def recording(name, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.setdefault(name, (args, result))
            return result
        return call

    validate, load = cli._validate, cli.load_config
    with pytest.MonkeyPatch.context() as mp:
        for name in ("spectrum_report", "compute_K", "control_solve",
                     "g1_from_u1", "realize_target"):
            mp.setattr(cli, name, recording(name, getattr(cli, name)))
        mp.setattr(cli, "_validate", lambda cfg, stage: validate(_Reads(cfg, reads), stage))
        mp.setattr(cli, "load_config", lambda *args: _Reads(load(*args), reads))
        args = ["--set", "spectrum.kmax=7", "--set", "realize.preset=explicit",
                "--set", "realize.D=[[[0,0],[0,0.2]],[[0,0],[0,0]]]",
                "--set", "realize.R=[[-1,0],[0,-1]]", "--set", "realize.f=[0.3,0]",
                "--set", "realize.horizon=10", "--set", "realize.lyapunov=false"]
        assert main(["all", "--out", str(out)] + args) == 0
    return out, seen, reads


def test_every_config_key_is_read(artifacts):
    # no key of the table is only carried: one all run reads each of them
    assert artifacts[2] == set(CONFIG_KEYS)


def _lines(out: Path, name: str) -> list[str]:
    return (out / name).read_text().splitlines()


@pytest.mark.parametrize("name, header", [
    ("spectrum.csv", "k,Re_lambda,Im_lambda,method,in_kernel_set"),
    ("u1_grid.csv", "x,y,value"),
    ("g1_grid.csv", "x,y,value"),
    ("trajectory.csv", "t,X1,X2,X3,X4,X5"),
])
def test_csv_header(artifacts, name, header):
    assert _lines(artifacts[0], name)[0] == header


def test_csv_number_formats(artifacts):
    # one row of each CSV against the value the stage returned: 12
    # significant digits for the spectrum and the orbit, 10 for the fields
    out, seen, _ = artifacts
    r = seen["spectrum_report"][1].records[0]
    assert _lines(out, "spectrum.csv")[1] == (
        f"{r.k},{r.lam_design.real:.12g},{r.lam_design.imag:.12g},design,"
        f"{int(r.in_kernel)}")
    traj = seen["realize_target"][1].trajectory
    assert _lines(out, "trajectory.csv")[2] == (
        f"{traj.t[1]:.12g}," + ",".join(f"{v:.12g}" for v in traj.X[1]))
    nodes = seen["control_solve"][0][1].grid.nodes
    xs = np.linspace(0.0, np.pi, 33)
    fields = {"u1_grid.csv": seen["control_solve"][1].profiles.at(xs, len(nodes)),
              "g1_grid.csv": seen["g1_from_u1"][1](xs)}
    for name, values in fields.items():
        # the second x, at the second y-node
        row = _lines(out, name)[1 + len(nodes) + 1]
        assert row == f"{xs[1]:.10g},{nodes[1]:.10g},{values[1, 1]:.10g}", name


def test_spectrum_csv_writes_complex_eigenvalues(tmp_path, monkeypatch):
    # every eigenvalue of the default survey is real, so its Im column
    # reads 0 at any precision; a complex one shows the column's format
    import obrealize.cli as cli
    from obrealize.spectral import SpectrumRecord, SpectrumReport
    lam = complex(-1 / 3, 2 / 7)
    # a passing report: kernel residual 0 at k = 1, gap 1e-7 at k = 2
    rep = SpectrumReport([SpectrumRecord(k=1, lam_design=0.0, lam_finite=None,
                                         lam_pencil=None, in_kernel=True),
                          SpectrumRecord(k=2, lam_design=-1e-7, lam_finite=lam,
                                         lam_pencil=lam.conjugate(), in_kernel=False)])
    monkeypatch.setattr(cli, "spectrum_report", lambda *args, **kwargs: rep)
    assert main(["spectrum", "--out", str(tmp_path)]) == 0
    assert _lines(tmp_path, "spectrum.csv")[1:] == [
        "1,0,0,design,1",
        "2,-1e-07,0,design,0", "2,-0.333333333333,0.285714285714,finite,0",
        "2,-0.333333333333,-0.285714285714,pencil,0"]


@pytest.mark.parametrize("name, keys", [
    ("calibration.json", {"coeffs", "gap", "kernel", "kernel_residual",
                          "offsets", "passed"}),
    ("reduced_system.json", {"K", "N", "kset"}),
    ("reduction_info.json", {"max_nonresonant", "max_resonant", "sparsity_ok"}),
    ("control_solution.json", {"T", "achieved_M", "gamma", "profiles", "u0"}),
    ("control_report.json", {"condition_number", "rel_frobenius_error",
                             "sup_abs_u1"}),
    ("realization_report.json", {
        "N", "fieldC0Error", "lyapunovRealized", "lyapunovRealizedStderr",
        "lyapunovTarget", "lyapunovTargetStderr", "manifoldResidual", "p",
        "supError", "trajectory_steps", "xi"}),
])
def test_json_keys(artifacts, name, keys):
    text = (artifacts[0] / name).read_text()
    doc = json.loads(text)
    assert set(doc) == keys
    # sorted keys, json's default separators, no trailing newline
    assert text == json.dumps(doc, sort_keys=True)


def test_reduced_system_json_roundtrip(artifacts):
    out, seen, _ = artifacts
    doc = json.loads((out / "reduced_system.json").read_text())
    K = seen["compute_K"][1][0]
    assert np.allclose(np.array(doc["K"]), K)
    assert tuple(doc["kset"]) == extended_set(2).full
    assert doc["N"] == 5


def test_plot_flag_is_gone(tmp_path, capsys):
    # so is --seed: the seed is set once, as the config key seed
    for flag in (["--plot"], ["--seed", "7"]):
        with pytest.raises(SystemExit) as exc:
            main(["realize", "--out", str(tmp_path)] + flag)
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "--plot" not in help_text and "--seed" not in help_text


def test_console_entrypoint():
    # the child imports the package this process imported, installed or not
    src = str(Path(obrealize.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "obrealize.cli", "--version"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0
