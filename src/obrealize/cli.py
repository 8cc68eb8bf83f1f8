"""Command-line pipeline: spectrum -> reduce -> control -> realize.

Single binary with subcommands; configuration is a JSON document whose
keys can be overridden on the command line with dotted paths
(--set scales.b=50); an unknown key is rejected.  All randomness flows
from one seed; outputs are byte-deterministic.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .control import extended_set, control_solve, g1_from_u1
from .profile import derive_scales, designed_profile
from .realize import (build_fast_slow, contraction_field, integrate,
                      lorenz_field, realize_target, rescale_into_ball,
                      TargetField)
from .reduction import ReducedSystem, asymptotic_basis, compute_K
from .spectral import default_grid, resolves_layer, scale_grid, spectrum_report


DEFAULTS = {
    "scales": {"b": 30.0, "s0": 0.95, "s2": 0.05, "gamma": 1e-3},
    "wavenumbers": {"p": 2},
    "spectrum": {"kmax": 21, "grid_n": 0, "pencil_kmax": 64},
    "reduce": {"b": 50.0, "R0": 1.0},
    "control": {"target": "random", "seed_scale": 1.0},
    "realize": {"preset": "lorenz", "xi": 1e-3, "horizon": 50.0,
                "ball_radius": 1.0, "lyapunov": True},
    "seed": 1234,
}


def _leaf_keys(doc: dict, prefix: str = ""):
    for k, v in doc.items():
        if isinstance(v, dict):
            yield from _leaf_keys(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}"


# the explicit preset reads realize.D, R and f, which have no default
_KNOWN_KEYS = frozenset(_leaf_keys(DEFAULTS)) | {"realize.D", "realize.R", "realize.f"}


def _check_key(key: str) -> None:
    if key not in _KNOWN_KEYS:
        raise SystemExit(f"unknown config key {key!r}")


def _deep_update(base: dict, other: dict) -> dict:
    for k, v in other.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v
    return base


def _apply_override(cfg: dict, key: str, value: str) -> None:
    *sections, leaf = key.split(".")
    d = cfg
    for p in sections:
        d = d[p]
    try:
        d[leaf] = json.loads(value)
    except json.JSONDecodeError:
        d[leaf] = value


def load_config(path: str | None, overrides) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))
    if path:
        with open(path) as fh:
            doc = json.load(fh)
        for key in _leaf_keys(doc):
            _check_key(key)
        _deep_update(cfg, doc)
    for ov in overrides or []:
        if "=" not in ov:
            raise SystemExit(f"bad override {ov!r}; expected key.path=value")
        k, v = ov.split("=", 1)
        _check_key(k)
        _apply_override(cfg, k, v)
    _validate(cfg)
    return cfg


def _all_finite(doc) -> bool:
    """No number anywhere in doc, inside lists included, is NaN or infinite."""
    if isinstance(doc, dict):
        return all(_all_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_all_finite(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _validate(cfg: dict) -> None:
    if not _all_finite(cfg):
        raise SystemExit("invalid config: every number must be finite")
    s = cfg["scales"]
    if not (all(_is_number(s[key]) for key in ("b", "s0", "s2"))
            and 0 < s["s0"] < 1 and 0 < s["s2"] < 1 and s["b"] > 1):
        raise SystemExit("invalid scales: need b > 1 and s0, s2 in (0,1)")
    for section, key, low in (("reduce", "b", 1), ("realize", "xi", 0),
                              ("realize", "horizon", 0), ("realize", "ball_radius", 0)):
        if not (_is_number(cfg[section][key]) and cfg[section][key] > low):
            raise SystemExit(f"invalid {section}.{key}: need a number above {low}")
    for section, key in (("scales", "gamma"), ("reduce", "R0"), ("control", "seed_scale")):
        if not _is_number(cfg[section][key]):
            raise SystemExit(f"invalid {section}.{key}: need a number")
    for section, key, low in (("wavenumbers", "p", 1), ("spectrum", "kmax", 1),
                              ("spectrum", "pencil_kmax", 0)):
        if not (_is_int(cfg[section][key]) and cfg[section][key] >= low):
            raise SystemExit(f"invalid {section}.{key}: need an integer >= {low}")
    n = cfg["spectrum"]["grid_n"]
    if not (_is_int(n) and (n == 0 or n >= 2)):
        raise SystemExit("invalid spectrum.grid_n: need 0 (the default grid) "
                         "or an integer >= 2")
    params = derive_scales(s["b"], s["s0"], s["s2"], gamma=s["gamma"])
    if n and not resolves_layer(scale_grid(params, n), s["b"]):
        raise SystemExit(f"invalid spectrum.grid_n: {n} intervals do not resolve "
                         f"the 1/(4b) boundary layer at scales.b = {s['b']}")
    if not (_is_int(cfg["seed"]) and cfg["seed"] >= 0):
        raise SystemExit("invalid seed: need an integer >= 0")
    if not isinstance(cfg["realize"]["lyapunov"], bool):
        raise SystemExit("invalid realize.lyapunov: need true or false")
    p = cfg["wavenumbers"]["p"]
    r = cfg["realize"]
    if r["preset"] not in ("lorenz", "contraction", "explicit"):
        raise SystemExit(f"unknown preset {r['preset']!r}")
    if r["preset"] == "explicit":
        if not {"D", "R", "f"} <= r.keys():
            raise SystemExit("the explicit preset needs realize.D, realize.R and realize.f")
        try:
            shapes = [np.asarray(r[key], dtype=float).shape for key in ("D", "R", "f")]
        except (TypeError, ValueError):         # ragged or not numbers
            shapes = [()]
        q = (shapes[0] or (0,))[0]
        if q < 1 or shapes != [(q, q, q), (q, q), (q,)]:
            raise SystemExit("the explicit preset needs realize.D p x p x p, "
                             "realize.R p x p and realize.f of length p")
    target = cfg["control"]["target"]
    if target != "random":
        N = extended_set(p).N
        try:
            shape = np.asarray(target, dtype=float).shape
        except (TypeError, ValueError):
            shape = None
        if shape != (N, N):
            raise SystemExit(f"explicit control target must be {N} x {N}")


def _write(outdir: Path, name: str, text: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text)


def _svg_polyline(series, labels=None) -> str:
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
    if labels:
        for i, lab in enumerate(labels):
            parts.append(f'<text x="{pad}" y="{15 + 14 * i}" font-size="12" '
                         f'fill="{colors[i % 4]}">{lab}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _build_design(cfg: dict, p: int, b: float):
    """The p-kernel wavenumber set and the profile designed for it at b."""
    s = cfg["scales"]
    kset = extended_set(p)
    params = derive_scales(b, s["s0"], s["s2"], gamma=s["gamma"])
    return kset, designed_profile(params, kset.base)


def cmd_spectrum(cfg: dict, outdir: Path, plot: bool) -> int:
    kset, profile = _build_design(cfg, cfg["wavenumbers"]["p"], cfg["scales"]["b"])
    params = profile.params
    n = cfg["spectrum"]["grid_n"] or None
    grid = default_grid(profile, n=n)
    rep = spectrum_report(kset.base, cfg["spectrum"]["kmax"], params,
                          profile.poly, profile, grid=grid,
                          pencil_kmax=cfg["spectrum"]["pencil_kmax"])
    _write(outdir, "spectrum.csv", rep.to_csv())
    calib = {"kernel": list(kset.base),
             "offsets": list(profile.poly.offsets),
             "coeffs": list(profile.poly.coeffs),
             "kernel_residual": rep.kernel_residual,
             "gap": rep.gap, "passed": rep.passed}
    _write(outdir, "calibration.json", json.dumps(calib, sort_keys=True))
    if plot:
        ks = [r.k for r in rep.records if r.lam_design is not None]
        ld = [float(np.real(r.lam_design)) for r in rep.records
              if r.lam_design is not None]
        kp = [r.k for r in rep.records if r.lam_pencil is not None]
        lp = [float(np.real(r.lam_pencil)) for r in rep.records
              if r.lam_pencil is not None]
        _write(outdir, "spectrum.svg",
               _svg_polyline([(ks, ld), (kp, lp)],
                             labels=["design Re lambda", "pencil Re lambda"]))
    print(f"spectrum: kernel_residual={rep.kernel_residual:.3e} "
          f"gap={rep.gap:.3e} passed={rep.passed}")
    return 0 if rep.passed else 3


def _reduced_system(cfg: dict, p: int):
    kset, profile = _build_design(cfg, p, cfg["reduce"]["b"])
    params = profile.params
    grid = default_grid(profile)
    basis = asymptotic_basis(kset.full, params, grid)
    K, info = compute_K(basis, params.nu)
    M = np.zeros((kset.N, kset.N))
    f = np.zeros(kset.N)
    sysd = ReducedSystem(N=kset.N, K=K, M=M, f=f, kset=kset.full,
                         R0=cfg["reduce"]["R0"])
    return sysd, info, basis, kset, profile


def cmd_reduce(cfg: dict, outdir: Path, plot: bool) -> int:
    sysd, info, basis, kset, _ = _reduced_system(cfg, cfg["wavenumbers"]["p"])
    _write(outdir, "reduced_system.json", sysd.to_json())
    _write(outdir, "reduction_info.json", json.dumps(info, sort_keys=True))
    print(f"reduce: N={sysd.N} max_resonant={info['max_resonant']:.4e} "
          f"max_nonresonant={info['max_nonresonant']:.2e} "
          f"sparsity_ok={info['sparsity_ok']}")
    return 0


def cmd_control(cfg: dict, outdir: Path, plot: bool) -> int:
    sysd, info, basis, kset, profile = _reduced_system(cfg, cfg["wavenumbers"]["p"])
    rng = np.random.default_rng(int(cfg["seed"]))
    N = kset.N
    if cfg["control"]["target"] == "random":
        T = cfg["control"]["seed_scale"] * rng.standard_normal((N, N))
    else:
        T = np.asarray(cfg["control"]["target"], dtype=float)
    sol = control_solve(T, basis, kset, profile)
    err = np.linalg.norm(sol.achieved - T) / max(np.linalg.norm(T), 1e-300)
    _write(outdir, "control_solution.json", sol.to_json(basis.grid))
    _write(outdir, "control_report.json",
           json.dumps({"rel_frobenius_error": float(err),
                       "condition_number": sol.condition_number,
                       "sup_abs_u1": sol.sup_abs_u1}, sort_keys=True))
    if plot:
        g1 = g1_from_u1(sol.profiles, basis.grid, profile, sol.u0, sol.gamma)
        xs = np.linspace(0.0, np.pi, 33)
        u1v = sol.profiles.at(xs, len(basis.grid.nodes))
        g1v = np.atleast_2d(g1(xs))
        for name, fldv in (("u1_grid.csv", u1v), ("g1_grid.csv", g1v)):
            lines = ["x,y,value"]
            for i, xv in enumerate(xs):
                for yv, vv in zip(basis.grid.nodes, fldv[i]):
                    lines.append(f"{xv:.10g},{yv:.10g},{vv:.10g}")
            _write(outdir, name, "\n".join(lines) + "\n")
    print(f"control: rel_frobenius_error={err:.3e}")
    return 0 if err < 0.05 else 3


def cmd_realize(cfg: dict, outdir: Path, plot: bool) -> int:
    rcfg = cfg["realize"]
    if rcfg["preset"] == "lorenz":
        target = rescale_into_ball(lorenz_field(), rcfg["ball_radius"],
                                   seed=int(cfg["seed"]))
    elif rcfg["preset"] == "contraction":
        target = contraction_field(cfg["wavenumbers"]["p"])
    else:
        D = np.asarray(rcfg["D"], dtype=float)
        target = TargetField(p=D.shape[0], D=D,
                             R=np.asarray(rcfg["R"], dtype=float),
                             f=np.asarray(rcfg["f"], dtype=float),
                             ball_radius=rcfg["ball_radius"])
    sysd, info, basis, kset, _ = _reduced_system(cfg, target.p)
    report = realize_target(target, sysd.K, kset, xi=rcfg["xi"],
                            horizon=rcfg["horizon"], seed=int(cfg["seed"]),
                            with_lyapunov=rcfg["lyapunov"])
    _write(outdir, "realization_report.json", report.to_json())
    if plot:
        system = build_fast_slow(target, sysd.K, kset, rcfg["xi"])
        y0 = np.zeros(kset.N)
        y0[0] = 0.1
        y0[kset.p:] = rcfg["xi"] * system.kt1(y0[:kset.p])
        traj = integrate(system, y0, (0.0, rcfg["horizon"]), method="auto",
                         dt=5e-3)
        _write(outdir, "phase_portrait.svg",
               _svg_polyline([(traj.X[:, 0], traj.X[:, 1])],
                             labels=["(Y1, Y2) projection"]))
        _write(outdir, "trajectory.csv", traj.to_csv())
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
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--plot", action="store_true")
    ap.add_argument("--set", dest="overrides", action="append", metavar="KEY=VAL")
    ap.add_argument("--version", action="version", version=__version__)
    args = ap.parse_args(argv)
    # --seed is the last override, so it is validated like the others
    overrides = (args.overrides or []) + (
        [] if args.seed is None else [f"seed={args.seed}"])
    try:
        cfg = load_config(args.config, overrides)
    except (OSError, json.JSONDecodeError, SystemExit) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    stages = {"spectrum": cmd_spectrum, "reduce": cmd_reduce,
              "control": cmd_control, "realize": cmd_realize}
    try:
        if args.stage == "all":
            for name in ("spectrum", "reduce", "control", "realize"):
                code = stages[name](cfg, outdir, args.plot)
                if code:
                    print(f"stage {name} failed with code {code}", file=sys.stderr)
                    return code
            return 0
        return stages[args.stage](cfg, outdir, args.plot)
    except Exception as exc:  # noqa: BLE001 - stage tag on any failure
        print(f"stage {args.stage} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
