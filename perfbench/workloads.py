"""The four workloads: inputs from the seed, one timed round, its checks.

Each workload is ``setup(seed) -> inputs``, ``run(inputs) -> result`` and
``check(inputs, result) -> (ok, gates)``.  ``run`` is the timed round: it
calls the package's public functions the way the CLI stages do, through
module attributes so a traced pass can wrap them, and counts the
operations it attempted and those that failed.  ``check`` runs outside
the timed region.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from obrealize import control, profile, realize, reduction, spectral
from obrealize.control import extended_set
from obrealize.profile import derive_scales
from obrealize.scalar import kbar_bound

import checks

# default-config scales (cli.DEFAULTS)
S0, S2, GAMMA = 0.95, 0.05, 1e-3
KMAX, PENCIL_KMAX = 21, 64
LADDER_B = (30.0, 80.0, 112.0)          # default_grid: n = 260, 400, 560
REALIZE_B, XI, HORIZON = 50.0, 1e-3, 50.0
# 2 x 76k Benettin steps: long enough for the 1% exponent-sum gate and a
# positive LLE on every seed tried, short enough for one run
LYAP_HORIZON = 1500.0
XI_LADDER = (1e-1, 1e-2, 1e-3)
XI_HORIZON = 50.0
# ETDRK2 step of the xi = 1e-3 rung (DOPRI rungs are adaptive).  At the
# 5e-3 that realize_target uses, the step's error floor (up to 1.25e-3) hides
# the O(xi) manifold error on 8 of 30 seeds; at 1e-3 the distance falls
# by 4.8x or more from xi = 1e-2 to 1e-3 on all 30
XI_DT = 1e-3
# Window of the xi-ladder distance check.  The xi = 0.1 path carries an
# O(xi) field error that the chaotic flow amplifies: over all 50 time units
# it left the target by 0.66 on seed 112 (0.083 on seed 108); over the
# first 20 it stayed within 0.014 and fell by 5x or more per decade of xi
# on all of seeds 1-30 and 101-120
TRACK_WINDOW = 20.0
REALIZE_DT = 5e-3                       # realize_target's step at xi <= 2e-3
SIGMA, RHO, BETA = 10.0, 28.0, 8.0 / 3.0      # lorenz_field defaults


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    out: dict = field(default_factory=dict)


def _design(b, p):
    kset = extended_set(p)
    prof = profile.designed_profile(derive_scales(b, S0, S2, gamma=GAMMA), kset.base)
    return kset, prof


# -- spectrum-b30 -------------------------------------------------------------

def spectrum_setup(seed):
    return {}


def spectrum_run(inputs):
    try:
        kset, prof = _design(30.0, 2)
        grid = spectral.default_grid(prof)
        rep = spectral.spectrum_report(kset.base, KMAX, prof.params, prof.poly,
                                       prof, grid=grid, pencil_kmax=PENCIL_KMAX,
                                       threads=1)
    except Exception:               # every wavenumber is lost
        return Result(KMAX, KMAX)
    bound = kbar_bound(prof.params)
    # spectrum_report swallows hierarchy failures as lam_finite = None
    failed = sum(1 for r in rep.records if r.k <= bound and r.lam_finite is None)
    return Result(KMAX, failed, {"records": rep.records, "kernel": kset.base})


def spectrum_check(inputs, res):
    ok1, g1 = checks.kernel(res.out["records"], res.out["kernel"])
    ok2, g2 = checks.cross_method(res.out["records"])
    return ok1 and ok2, {**g1, **g2}


# -- operator-ladder ----------------------------------------------------------

def ladder_setup(seed):
    rng = np.random.default_rng(seed)
    N = extended_set(2).N
    return {"T": {b: rng.standard_normal((N, N)) for b in LADDER_B}}


def ladder_run(inputs):
    res = Result()
    for b in LADDER_B:
        out = res.out[b] = {}
        stages = (_ladder_profile, _ladder_survey, _ladder_numeric, _ladder_control)
        res.attempted += len(stages)
        for i, stage in enumerate(stages):
            try:
                stage(out, b, inputs)
            except Exception:       # the stage failed; later ones need its output
                res.failed += len(stages) - i
                break
    return res


def _ladder_profile(out, b, inputs):
    out["kset"], out["profile"] = _design(b, 2)
    out["grid"] = spectral.default_grid(out["profile"])


def _ladder_survey(out, b, inputs):
    prof = out["profile"]
    rep = spectral.spectrum_report(out["kset"].base, KMAX, prof.params, prof.poly,
                                   prof, grid=out["grid"], finite_ks=())
    out["lam_pencil"] = {r.k: r.lam_pencil for r in rep.records}


def _ladder_numeric(out, b, inputs):
    basis = reduction.numeric_basis(out["kset"].full, out["profile"], out["grid"])
    out["numeric_basis"] = basis
    out["K"], _ = reduction.compute_K(basis, out["profile"].params.nu)


def _ladder_control(out, b, inputs):
    kset, prof = out["kset"], out["profile"]
    basis = reduction.asymptotic_basis(kset.full, prof.params, out["grid"])
    out["asymptotic_basis"] = basis
    out["control"] = control.control_solve(inputs["T"][b], basis, kset, prof)


def ladder_check(inputs, res):
    ok, worst = True, {}
    for b, out in res.out.items():
        if "control" not in out:
            continue
        nb, grid, prof = out["numeric_basis"], out["grid"], out["profile"]
        ks = nb.wavenumbers
        gates = {}
        for i, k in enumerate(ks):
            pen = spectral.assemble_pencil(k, prof, grid)
            v = np.concatenate([nb.psi[i], nb.theta[i]])
            o, g = checks.backward_error(pen.A, pen.B, out["lam_pencil"][k], v)
            ok &= o
            gates["backward_error"] = max(gates.get("backward_error", 0.0),
                                          g["backward_error"])
        for o, g in (checks.gram(ks, grid.nodes, grid.weights, nb.psi, nb.dpsi,
                                 nb.theta, nb.thetastar, nb.phi),
                     checks.k_structure(out["K"], ks)):
            ok &= o
            gates.update(g)
        ab, sol = out["asymptotic_basis"], out["control"]
        M = checks.achieved_M(ab.wavenumbers, grid.weights, ab.psi, ab.dpsi,
                              ab.thetastar, ab.dthetastar, sol.profiles.entries)
        o, g = checks.control(inputs["T"][b], M)
        ok &= o
        gates.update(g)
        for key, val in gates.items():
            worst[key] = max(worst.get(key, 0.0), val)
    return bool(ok), worst


# -- the two realize workloads ------------------------------------------------

def realize_setup(seed):
    """The b = 50, p = 3 reduced system as cmd_realize builds it, plus y0."""
    kset, prof = _design(REALIZE_B, 3)
    grid = spectral.default_grid(prof)
    basis = reduction.asymptotic_basis(kset.full, prof.params, grid)
    K, _ = reduction.compute_K(basis, prof.params.nu)
    rng = np.random.default_rng(seed)
    y0 = 0.25 * rng.standard_normal(kset.p)
    y0 *= min(1.0, 0.25 / np.linalg.norm(y0))
    return {"seed": seed, "kset": kset, "K": K, "y0": y0}


def _target(inputs):
    return realize.rescale_into_ball(realize.lorenz_field(), 1.0, seed=inputs["seed"])


def _reference(target, y0, horizon, times):
    """The conjugated Lorenz flow Y' = (tau/s) L(c + s Y), by solve_ivp."""
    aff = target.affine
    c, s, tau = np.asarray(aff["center"]), aff["scale"], aff["tau"]

    def rhs(t, Y):
        x, y, z = c + s * Y
        return (tau / s) * np.array([SIGMA * (y - x), x * (RHO - z) - y,
                                     x * y - BETA * z])

    sol = solve_ivp(rhs, (0.0, horizon), y0, method="DOP853", t_eval=times,
                    rtol=1e-11, atol=1e-13)
    return sol.y.T


def _slow_path(system, y0, xi, horizon, dt):
    """Integrate from y0 lifted onto the leading-order slow manifold."""
    x0 = np.zeros(system.N)
    x0[:system.p] = y0
    x0[system.p:] = xi * system.kt1(y0)
    return realize.integrate(system, x0, (0.0, horizon), method="auto", dt=dt)


def lyapunov_run(inputs):
    res = Result(attempted=2)
    try:
        target = _target(inputs)
        rep = realize.realize_target(target, inputs["K"], inputs["kset"], xi=XI,
                                     horizon=HORIZON, y0=inputs["y0"],
                                     lyap_horizon=LYAP_HORIZON, seed=inputs["seed"],
                                     with_lyapunov=True)
    except Exception:               # both Lyapunov runs are lost
        res.failed = 2
        return res
    res.out = {"target": target, "report": rep}
    return res


def lyapunov_check(inputs, res):
    if not res.out:
        return True, {}
    target, rep = res.out["target"], res.out["report"]
    expected = -target.affine["tau"] * (SIGMA + 1.0 + BETA)
    ok, gates = checks.lyapunov_pair(rep.lyap_target, rep.lyap_realized, expected)
    times = np.linspace(0.0, HORIZON, 400)
    system = realize.build_fast_slow(target, inputs["K"], inputs["kset"], XI)
    Y = _slow_path(system, inputs["y0"], XI, HORIZON, REALIZE_DT).sample(times)[:, :system.p]
    ok2, g2 = checks.tracking(Y, _reference(target, inputs["y0"], HORIZON, times))
    return ok and ok2, {**gates, **g2}


def xi_run(inputs):
    res = Result(attempted=len(XI_LADDER))
    try:
        target = _target(inputs)
    except Exception:               # no target, no ladder
        res.failed = len(XI_LADDER)
        return res
    res.out["target"] = target
    for xi in XI_LADDER:
        try:
            system = realize.build_fast_slow(target, inputs["K"], inputs["kset"], xi)
            traj = _slow_path(system, inputs["y0"], xi, XI_HORIZON, XI_DT)
            man = realize.manifold_residual(traj, system)
            # timed as realize_target runs it; its value is not gated
            realize.empirical_field_error(traj, system, target)
        except Exception:
            res.failed += 1
            continue
        res.out[xi] = {"W_sup": man["sup"], "traj": traj}
    return res


def xi_check(inputs, res):
    xis = [xi for xi in XI_LADDER if xi in res.out]
    if len(xis) < 2:
        return True, {}
    times = np.linspace(0.0, TRACK_WINDOW, 400)
    ref = _reference(res.out["target"], inputs["y0"], TRACK_WINDOW, times)
    p = inputs["kset"].p
    dist = [checks.tracking(res.out[xi]["traj"].sample(times)[:, :p], ref)[1]["sup_error"]
            for xi in xis]
    return checks.xi_ladder(xis, [res.out[xi]["W_sup"] for xi in xis], dist)


WORKLOADS = {
    "spectrum-b30": (spectrum_setup, spectrum_run, spectrum_check),
    "operator-ladder": (ladder_setup, ladder_run, ladder_check),
    "lyapunov-lorenz": (realize_setup, lyapunov_run, lyapunov_check),
    "xi-ladder": (realize_setup, xi_run, xi_check),
}
