"""Command-line pipeline: spectrum -> reduce -> control -> realize.

Single binary with subcommands; configuration is a JSON document whose
keys can be overridden on the command line with dotted paths
(--set scales.b=50); an unknown key is rejected.  All randomness flows
from one seed; outputs are byte-deterministic.  The stages return
records, and this module alone turns them into files: each stage's
command builds its JSON documents and CSV rows here.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .control import extended_set, control_solve, g1_from_u1, sidon_reach
from .profile import ProfileError, derive_scales, designed_profile
from .realize import (contraction_field, lorenz_field, realize_target,
                      rescale_into_ball, RealizeError, TargetField)
from .reduction import asymptotic_basis, compute_K
from .spectral import (SpectralError, check_survey, default_grid, resolves_layer,
                       scale_grid, scale_nodes, spectrum_report)


# Every config key with its default and the bound on its value: a test and
# the words that name it.  A key's kind comes from its default: a float
# takes any number, an int an integer, a bool true or false, and a bool is
# never a number.  realize.D, R and f have no default: only the explicit
# preset reads them.  The rules that read more than one key, or that a
# package constructor enforces, are checked in _validate.
_PRESET = (lambda v: v in ("lorenz", "contraction", "explicit"),
           "one of lorenz, contraction, explicit")
_ABOVE_0 = (lambda v: v > 0, "above 0")
CONFIG_KEYS = {
    "scales.b": (30.0, None),
    "scales.s0": (0.95, None),
    "scales.s2": (0.05, None),
    "scales.gamma": (1e-3, None),
    "wavenumbers.p": (2, (lambda v: v >= 1, ">= 1")),
    "spectrum.kmax": (21, (lambda v: v >= 1, ">= 1")),
    # spectrum at 2000 intervals (b = 30, 2 cores) takes 76 s and 760 MB,
    # which grow as n^3 and n^2
    "spectrum.grid_n": (0, (lambda v: v == 0 or 2 <= v <= 2000,
                            "0 (the default grid) or 2 to 2000")),
    "reduce.b": (50.0, None),
    "control.target": ("random", None),
    "realize.preset": ("lorenz", _PRESET),
    "realize.xi": (1e-3, _ABOVE_0),
    "realize.horizon": (50.0, _ABOVE_0),
    "realize.ball_radius": (1.0, _ABOVE_0),
    "realize.lyapunov": (True, None),
    "realize.D": (None, None),
    "realize.R": (None, None),
    "realize.f": (None, None),
    "seed": (1234, (lambda v: v >= 0, ">= 0")),
}
_KINDS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
          bool: ((bool,), "true or false")}


def _leaves(doc: dict, prefix: str = ""):
    for k, v in doc.items():
        if isinstance(v, dict):
            yield from _leaves(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}", v


def load_config(path: str | None, overrides, stage: str = "all") -> dict:
    """The config for stage: the defaults, then the file at path, then the
    overrides, each key checked, then the rules of _validate that stage's
    keys meet."""
    flat = {key: default for key, (default, _) in CONFIG_KEYS.items()
            if default is not None}
    if path:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise SystemExit(f"{path}: the top level must be a JSON object")
        flat.update(_leaves(doc))
    for ov in overrides or []:
        key, eq, value = ov.partition("=")
        if not eq:
            raise SystemExit(f"bad override {ov!r}; expected key.path=value")
        try:
            flat[key] = json.loads(value)
        except json.JSONDecodeError:
            flat[key] = value
    for key, value in flat.items():
        _check(key, value)
    cfg: dict = {}
    for key, value in flat.items():
        section, _, leaf = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[leaf] = value
    _validate(cfg, stage)
    return cfg


def _all_finite(doc) -> bool:
    """No number anywhere in doc, inside lists included, is NaN or infinite."""
    if isinstance(doc, dict):
        return all(_all_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_all_finite(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


def _check(key: str, value) -> None:
    """The key is known, and its value has its default's kind and bound."""
    if key not in CONFIG_KEYS:
        raise SystemExit(f"unknown config key {key!r}")
    if not _all_finite(value):
        raise SystemExit(f"invalid {key}: every number must be finite")
    default, bound = CONFIG_KEYS[key]
    types, kind = _KINDS.get(type(default), (None, ""))
    test, words = bound or (None, "")
    if (types and type(value) not in types) or (test and not test(value)):
        need = " ".join(w for w in (kind, words) if w)
        raise SystemExit(f"invalid {key}: need {need}")


def _scales(cfg: dict, b: float):
    s = cfg["scales"]
    return derive_scales(b, s["s0"], s["s2"], gamma=s["gamma"])


def _check_reach(p: int, nodes: np.ndarray, key: str, b: float) -> None:
    """The reach of wavenumbers.p on a grid: the largest p whose extended
    set's largest wavenumber k has its 1/(4k) layer resolved by the node
    spacing at the wall.  Found before any set is built."""
    reach = sidon_reach(lambda k: resolves_layer(nodes, k))
    if p > reach:
        raise SystemExit(f"invalid wavenumbers.p: need at most {reach} at {key} = "
                         f"{b}, the reach of its grid: the largest p whose "
                         f"extended set's largest wavenumber k has its 1/(4k) "
                         f"layer resolved by the node spacing at the wall")


def _validate(cfg: dict, stage: str) -> None:
    """The rules that read more than one key, or that a constructor enforces.
    Each binds only the stages that read its keys: the grid and survey
    rules, and the reach of wavenumbers.p on the spectrum grid, spectrum
    and all; its reach on the reduce.b grid the stages that build a basis
    over wavenumbers.p (reduce, control, all and the contraction preset of
    realize); the explicit-preset rule realize and all; and the
    control-target rule control and all."""
    for key, b in (("scales.b", cfg["scales"]["b"]), ("reduce.b", cfg["reduce"]["b"])):
        try:
            _scales(cfg, b)
        except ProfileError as exc:
            raise SystemExit(f"invalid scales for {key} = {b}: {exc}") from None
    p, r = cfg["wavenumbers"]["p"], cfg["realize"]
    if stage in ("reduce", "control", "all") or (stage == "realize"
                                                 and r["preset"] == "contraction"):
        b = cfg["reduce"]["b"]
        _check_reach(p, scale_nodes(_scales(cfg, b)), "reduce.b", b)
    if stage in ("spectrum", "all"):
        b, n = cfg["scales"]["b"], cfg["spectrum"]["grid_n"]
        nodes = scale_nodes(_scales(cfg, b), n or None)
        if n and not resolves_layer(nodes, b):
            raise SystemExit(f"invalid spectrum.grid_n: {n} intervals do not resolve "
                             f"the 1/(4b) boundary layer at scales.b = {b}")
        _check_reach(p, nodes, "scales.b", b)
        try:
            check_survey(extended_set(p).base,
                         cfg["spectrum"]["kmax"], _scales(cfg, b))
        except SpectralError as exc:
            raise SystemExit(f"invalid spectrum.kmax or scales.b: {exc}") from None
    if stage in ("realize", "all") and r["preset"] == "explicit":
        if not {"D", "R", "f"} <= r.keys():
            raise SystemExit("the explicit preset needs realize.D, realize.R and realize.f")
        try:
            _explicit_target(r)
        except (TypeError, ValueError, RealizeError):
            raise SystemExit("the explicit preset needs realize.D p x p x p, "
                             "realize.R p x p and realize.f of length p") from None
    target = cfg["control"]["target"]
    if stage in ("control", "all") and target != "random":
        N = extended_set(p).N
        try:
            shape = np.asarray(target, dtype=float).shape
        except (TypeError, ValueError):
            shape = None
        if shape != (N, N):
            raise SystemExit(f"explicit control target must be {N} x {N}")


def _explicit_target(r: dict) -> TargetField:
    return TargetField(D=r["D"], R=r["R"], f=r["f"], ball_radius=r["ball_radius"])


def _write(outdir: Path, name: str, text: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text)


def _write_csv(outdir: Path, name: str, header: str, rows) -> None:
    """The header line, then one line per formatted row."""
    _write(outdir, name, "\n".join([header, *rows]) + "\n")


def _write_json(outdir: Path, name: str, doc: dict) -> None:
    _write(outdir, name, json.dumps(doc, sort_keys=True))


def _svg_polyline(series, labels) -> str:
    """Minimal deterministic 640 x 400 SVG: one polyline per (x, y) series."""
    width, height = 640, 400
    allx = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ally = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    x0, x1 = float(allx.min()), float(allx.max())
    y0, y1 = float(ally.min()), float(ally.max())
    if x1 - x0 < 1e-300:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-300:
        y1 = y0 + 1.0
    pad = 30
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    for i, (xs, ys) in enumerate(series):
        pts = []
        for xv, yv in zip(np.asarray(xs), np.asarray(ys)):
            px = pad + (xv - x0) / (x1 - x0) * (width - 2 * pad)
            py = height - pad - (yv - y0) / (y1 - y0) * (height - 2 * pad)
            pts.append(f"{px:.2f},{py:.2f}")
        parts.append(f'<polyline fill="none" stroke="{colors[i % 4]}" '
                     f'stroke-width="1" points="{" ".join(pts)}"/>')
    for i, lab in enumerate(labels):
        parts.append(f'<text x="{pad}" y="{15 + 14 * i}" font-size="12" '
                     f'fill="{colors[i % 4]}">{lab}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: dict, outdir: Path) -> int:
    kset = extended_set(cfg["wavenumbers"]["p"])
    profile = designed_profile(_scales(cfg, cfg["scales"]["b"]), kset.base)
    params = profile.params
    n = cfg["spectrum"]["grid_n"] or None
    grid = default_grid(profile, n=n)
    rep = spectrum_report(kset.base, cfg["spectrum"]["kmax"], params,
                          profile.poly, profile, grid=grid)
    _write_csv(outdir, "spectrum.csv", "k,Re_lambda,Im_lambda,method,in_kernel_set",
               (f"{r.k},{np.real(lam):.12g},{np.imag(lam):.12g},"
                f"{m},{int(r.in_kernel)}"
                for r in rep.records
                for lam, m in ((r.lam_design, "design"), (r.lam_finite, "finite"),
                               (r.lam_pencil, "pencil"))
                if lam is not None))
    calib = {"kernel": list(kset.base),
             "offsets": list(profile.poly.offsets),
             "coeffs": list(profile.poly.coeffs),
             "kernel_residual": rep.kernel_residual,
             "gap": rep.gap, "passed": rep.passed}
    _write_json(outdir, "calibration.json", calib)
    ks = [r.k for r in rep.records if r.lam_design is not None]
    ld = [float(np.real(r.lam_design)) for r in rep.records
          if r.lam_design is not None]
    kp = [r.k for r in rep.records if r.lam_pencil is not None]
    lp = [float(np.real(r.lam_pencil)) for r in rep.records
          if r.lam_pencil is not None]
    _write(outdir, "spectrum.svg",
           _svg_polyline([(ks, ld), (kp, lp)],
                         ["design Re lambda", "pencil Re lambda"]))
    print(f"spectrum: kernel_residual={rep.kernel_residual:.3e} "
          f"gap={rep.gap:.3e} passed={rep.passed}")
    return 0 if rep.passed else 3


def _reduce_basis(cfg: dict, p: int):
    """The p-kernel wavenumber set, the scales at reduce.b and the
    asymptotic basis on their grid: no designed profile is needed."""
    kset = extended_set(p)
    params = _scales(cfg, cfg["reduce"]["b"])
    return kset, params, asymptotic_basis(kset.full, params, scale_grid(params))


def cmd_reduce(cfg: dict, outdir: Path) -> int:
    kset, params, basis = _reduce_basis(cfg, cfg["wavenumbers"]["p"])
    K, info = compute_K(basis, params.nu)
    _write_json(outdir, "reduced_system.json",
                {"N": kset.N, "kset": list(kset.full), "K": K.tolist()})
    _write_json(outdir, "reduction_info.json", info)
    print(f"reduce: N={kset.N} max_resonant={info['max_resonant']:.4e} "
          f"max_nonresonant={info['max_nonresonant']:.2e} "
          f"sparsity_ok={info['sparsity_ok']}")
    return 0


def cmd_control(cfg: dict, outdir: Path) -> int:
    kset, params, basis = _reduce_basis(cfg, cfg["wavenumbers"]["p"])
    profile = designed_profile(params, kset.base)     # u0 = 2 sup|U| + 1 reads it
    rng = np.random.default_rng(cfg["seed"])
    N = kset.N
    if cfg["control"]["target"] == "random":
        T = rng.standard_normal((N, N))
    else:
        T = np.asarray(cfg["control"]["target"], dtype=float)
    sol = control_solve(T, basis, kset, profile)
    err = np.linalg.norm(sol.achieved - T) / max(np.linalg.norm(T), 1e-300)
    nodes = basis.grid.nodes
    _write_json(outdir, "control_solution.json",
                {"T": T.tolist(), "u0": sol.u0, "gamma": float(params.gamma),
                 "achieved_M": sol.achieved.tolist(),
                 "profiles": {str(n): [[float(y), float(v)]
                                       for y, v in zip(nodes, vals)]
                              for n, vals in sol.profiles.entries.items()}})
    _write_json(outdir, "control_report.json",
                {"rel_frobenius_error": float(err),
                 "condition_number": sol.condition_number,
                 "sup_abs_u1": sol.sup_abs_u1})
    g1 = g1_from_u1(sol.profiles, basis.grid, profile, sol.u0)
    xs = np.linspace(0.0, np.pi, 33)
    u1v = sol.profiles.at(xs, len(nodes))
    g1v = np.atleast_2d(g1(xs))
    for name, fldv in (("u1_grid.csv", u1v), ("g1_grid.csv", g1v)):
        _write_csv(outdir, name, "x,y,value",
                   (f"{xv:.10g},{yv:.10g},{vv:.10g}"
                    for xv, row in zip(xs, fldv) for yv, vv in zip(nodes, row)))
    print(f"control: rel_frobenius_error={err:.3e}")
    return 0 if err < 0.05 else 3


def cmd_realize(cfg: dict, outdir: Path) -> int:
    rcfg = cfg["realize"]
    if rcfg["preset"] == "lorenz":
        target = rescale_into_ball(lorenz_field(), rcfg["ball_radius"],
                                   seed=cfg["seed"])
    elif rcfg["preset"] == "contraction":
        target = contraction_field(cfg["wavenumbers"]["p"], rcfg["ball_radius"])
    else:
        target = _explicit_target(rcfg)
    kset, params, basis = _reduce_basis(cfg, target.p)
    K, _ = compute_K(basis, params.nu)
    report = realize_target(target, K, kset, xi=rcfg["xi"],
                            horizon=rcfg["horizon"], seed=cfg["seed"],
                            with_lyapunov=rcfg["lyapunov"])
    # the orbit the report's gates were measured on
    traj = report.trajectory

    def listed(a):
        return None if a is None else a.tolist()

    _write_json(outdir, "realization_report.json",
                {"supError": report.sup_error,
                 "manifoldResidual": report.manifold,
                 "fieldC0Error": report.field_c0_error,
                 "lyapunovTarget": listed(report.lyap_target),
                 "lyapunovRealized": listed(report.lyap_realized),
                 "lyapunovTargetStderr": listed(report.lyap_target_stderr),
                 "lyapunovRealizedStderr": listed(report.lyap_realized_stderr),
                 "xi": rcfg["xi"], "p": target.p, "N": kset.N,
                 "trajectory_steps": traj.steps})
    _write(outdir, "phase_portrait.svg",
           _svg_polyline([(traj.X[:, 0], traj.X[:, 1])], ["(Y1, Y2) projection"]))
    _write_csv(outdir, "trajectory.csv",
               "t," + ",".join(f"X{i+1}" for i in range(traj.X.shape[1])),
               (f"{ti:.12g}," + ",".join(f"{v:.12g}" for v in x)
                for ti, x in zip(traj.t, traj.X)))
    lle = "LLE off"
    if report.lyap_target is not None:
        lle = (f"LLE target={report.lyap_target[0]:.5f}"
               f"+-{report.lyap_target_stderr[0]:.5f} "
               f"realized={report.lyap_realized[0]:.5f}"
               f"+-{report.lyap_realized_stderr[0]:.5f}")
    print(f"realize: sup_error={report.sup_error:.4f} "
          f"manifold_sup={report.manifold['sup']:.4f} {lle}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="ob-realize",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("stage", choices=["spectrum", "reduce", "control",
                                      "realize", "all"])
    ap.add_argument("--config", type=str, default=None)
    ap.add_argument("--out", type=str, default="out")
    ap.add_argument("--set", dest="overrides", action="append", metavar="KEY=VAL")
    ap.add_argument("--version", action="version", version=__version__)
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, args.stage)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, SystemExit) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    stages = {"spectrum": cmd_spectrum, "reduce": cmd_reduce,
              "control": cmd_control, "realize": cmd_realize}
    try:
        if args.stage == "all":
            for name in ("spectrum", "reduce", "control", "realize"):
                code = stages[name](cfg, outdir)
                if code:
                    print(f"stage {name} failed with code {code}", file=sys.stderr)
                    return code
            return 0
        return stages[args.stage](cfg, outdir)
    except Exception as exc:  # noqa: BLE001 - stage tag on any failure
        print(f"stage {args.stage} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
