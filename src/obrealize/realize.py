"""Fast-slow realization of target quadratic vector fields.

Splitting X = (Y, Z) with p slow and N-p fast coordinates, the system

    dY/dt = K1(Y) + K2(Y,Z) + K3(Z) + R Y + xi^{-1} T Z + f,
    dZ/dt = Kt1(Y) + Kt2(Y,Z) + Kt3(Z) - xi^{-1} Z,

contracts Z onto the slow manifold Z = xi (Kt1(Y) + W(Y, xi)) with
|W| = O(xi); the leading slow dynamics is then

    dY/dt = K1(Y) + R Y + T Kt1(Y) + f + O(sqrt(xi)),

and the coupling matrix T is chosen (one decoupled linear solve per
unordered slow pair, courtesy of the Sidon resonance structure) so the
leading field equals any prescribed quadratic target.  Diagnostics:
manifold residuals, empirical field discrepancy, and Benettin-style
Lyapunov spectra.

Each kind of system has one stepper.  A QuadraticSystem takes the ETDRK2
step of _etdrk2_step, exact on the fast diagonal -xi^{-1} and second
order on the rest; integrate drives its state and lyapunov drives its
state and, through the derivative of the same step, its tangent frame.
A TargetField takes the classic RK4 step of _rk4_step, which lyapunov
pairs with a trapezoidal tangent and rescale_into_ball uses for the
bounding run.  Non-stiff fast-slow systems and the target reference
orbit use the adaptive Dormand-Prince pair.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import json

import numpy as np

from .control import WavenumberSet, verify_decomposition

__all__ = [
    "TargetField",
    "QuadraticSystem",
    "Trajectory",
    "RealizeError",
    "build_fast_slow",
    "integrate",
    "manifold_residual",
    "reduced_field",
    "lyapunov",
    "rescale_into_ball",
    "realize_target",
    "lorenz_field",
    "contraction_field",
]


class RealizeError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass
class TargetField:
    """Quadratic field W(Y) = D(Y) + R Y + f on the ball |Y| <= ball_radius.

    An optional absorbing blend replaces W by the inward field -Y outside
    cutoff_on * ball_radius (smoothly), guaranteeing the inward boundary
    condition without touching the dynamics on the attractor.
    """

    p: int
    D: np.ndarray
    R: np.ndarray
    f: np.ndarray
    ball_radius: float = 1.0
    cutoff_on: float | None = None

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        if self.D.shape != (self.p, self.p, self.p):
            raise RealizeError("D must be p x p x p")
        self.D = 0.5 * (self.D + np.swapaxes(self.D, 1, 2))

    def quad(self, Y: np.ndarray) -> np.ndarray:
        return np.einsum("ijl,j,l->i", self.D, Y, Y)

    def bare(self, Y: np.ndarray) -> np.ndarray:
        return self.quad(Y) + self.R @ Y + self.f

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        v = self.bare(Y)
        if self.cutoff_on is None:
            return v
        rr = np.linalg.norm(Y) / self.ball_radius
        if rr <= self.cutoff_on:        # the blend weight is exactly 0 here
            return v
        s = _smoothstep((rr - self.cutoff_on) / (1.0 - self.cutoff_on))
        return (1.0 - s) * v - s * Y

    def jac(self, Y: np.ndarray) -> np.ndarray:
        J = self.R + 2.0 * np.einsum("ijl,l->ij", self.D, Y)
        if self.cutoff_on is None:
            return J
        # finite-difference fallback in the blend region
        rr = np.linalg.norm(Y) / self.ball_radius
        if rr <= self.cutoff_on:
            return J
        eps = 1e-7
        cols = []
        for a in range(self.p):
            e = np.zeros(self.p)
            e[a] = eps
            cols.append((self(Y + e) - self(Y - e)) / (2 * eps))
        return np.array(cols).T

    def inward_on_boundary(self, n_samples: int = 10000) -> bool:
        rng = np.random.default_rng(0)
        q = rng.standard_normal((n_samples, self.p))
        q *= self.ball_radius / np.linalg.norm(q, axis=1)[:, None]
        return all(float(np.dot(self(qi), qi)) < 0.0 for qi in q)

    def grad_bound(self) -> float:
        """Sampled sup of |grad W| of the bare quadratic field on the ball
        (2000 seeded points).

        The absorbing blend (when present) steepens the field near the
        boundary by construction; the gradient contract applies to the
        bare field that the realization machinery matches.
        """
        n_samples = 2000
        rng = np.random.default_rng(1)
        q = rng.standard_normal((n_samples, self.p))
        radii = rng.uniform(0, self.ball_radius, n_samples)
        q *= (radii / np.linalg.norm(q, axis=1))[:, None]
        out = 0.0
        for qi in q:
            J = self.R + 2.0 * np.einsum("ijl,l->ij", self.D, qi)
            out = max(out, float(np.linalg.norm(J, 2)))
        return out


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def lorenz_field(sigma: float = 10.0, rho: float = 28.0,
                 beta: float = 8.0 / 3.0) -> TargetField:
    """The classic three-dimensional quadratic field, unrescaled."""
    D = np.zeros((3, 3, 3))
    D[1, 0, 2] = D[1, 2, 0] = -0.5
    D[2, 0, 1] = D[2, 1, 0] = 0.5
    R = np.array([[-sigma, sigma, 0.0], [rho, -1.0, 0.0], [0.0, 0.0, -beta]])
    return TargetField(p=3, D=D, R=R, f=np.zeros(3), ball_radius=np.inf)


def contraction_field(p: int, rate: float = 1.0) -> TargetField:
    return TargetField(p=p, D=np.zeros((p, p, p)), R=-rate * np.eye(p),
                       f=np.zeros(p), ball_radius=1.0)


# ---------------------------------------------------------------------------
# fast-slow assembly
# ---------------------------------------------------------------------------

@dataclass
class QuadraticSystem:
    """dX/dt = K(X) + M X + f with the fast-slow block structure built in."""

    N: int
    p: int
    K: np.ndarray
    M: np.ndarray
    f: np.ndarray
    xi: float
    T: np.ndarray
    R: np.ndarray

    def rhs(self, X: np.ndarray) -> np.ndarray:
        return np.einsum("ijl,j,l->i", self.K, X, X) + self.M @ X + self.f

    def nonstiff_rhs(self, X: np.ndarray) -> np.ndarray:
        """Everything except the exact fast diagonal -xi^{-1} on Z."""
        return np.einsum("ijl,j,l->i", self.K, X, X) + self.Mslow @ X + self.f

    def nonstiff_jac(self, X: np.ndarray) -> np.ndarray:
        """Jacobian of nonstiff_rhs."""
        return 2.0 * np.einsum("ijl,l->ij", self.K, X) + self.Mslow

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=float)
        self.M = np.asarray(self.M, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        # cache the non-stiff part of M (fast diagonal removed)
        self.Mslow = self.M.copy()
        idx = np.arange(self.p, self.N)
        self.Mslow[idx, idx] += 1.0 / self.xi
        self.fast_diag = np.zeros(self.N)
        self.fast_diag[self.p:] = -1.0 / self.xi

    def kt1(self, Y: np.ndarray) -> np.ndarray:
        """Fast-block quadratic form restricted to slow arguments."""
        Kt = self.K[self.p:, :self.p, :self.p]
        return np.einsum("ijl,j,l->i", Kt, Y, Y)

    def check_blocks(self) -> dict:
        p, N, xi = self.p, self.N, self.xi
        Pt = self.M[p:, p:]
        Rt = self.M[p:, :p]
        ok_pt = np.allclose(Pt, -np.eye(N - p) / xi, rtol=0, atol=1e-12 / xi)
        ok_rt = np.allclose(Rt, 0.0, atol=1e-14)
        ok_ft = np.allclose(self.f[p:], 0.0, atol=1e-14)
        return {"fast_diag": ok_pt, "fast_slow_zero": ok_rt, "fast_f_zero": ok_ft}


def build_fast_slow(target: TargetField, K: np.ndarray, kset: WavenumberSet,
                    xi: float) -> QuadraticSystem:
    """Choose T so the leading slow field K1 + T Kt1 + R Y + f matches the
    target, then assemble the blocks.

    Each slow output row c solves sum_i Kt1_{ijl} T_{ci} = D_{cjl} -
    K1_{cjl}, which decouples through the Sidon resonance structure.
    """
    p = kset.p
    N = kset.N
    if target.p != p:
        raise RealizeError("target dimension must equal the slow dimension")
    if xi <= 0:
        raise RealizeError("xi must be positive")
    K = np.asarray(K, dtype=float)
    T = np.zeros((p, N - p))
    for c in range(p):
        rhs = target.D[c] - K[c, :p, :p]
        T[c] = verify_decomposition(K, kset, rhs)
    if np.max(np.abs(T)) > 1e3:
        raise RealizeError("coupling matrix exceeds its bound; "
                           "target too far from the intrinsic quadratic form")
    M = np.zeros((N, N))
    M[:p, :p] = target.R
    M[:p, p:] = T / xi
    M[p:, p:] = -np.eye(N - p) / xi
    f = np.zeros(N)
    f[:p] = target.f
    return QuadraticSystem(N=N, p=p, K=K, M=M, f=f, xi=xi, T=T,
                           R=np.asarray(target.R, dtype=float))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    t: np.ndarray
    X: np.ndarray
    steps: int
    rejected: int

    def sample(self, times) -> np.ndarray:
        times = np.atleast_1d(times)
        out = np.empty((len(times), self.X.shape[1]))
        for d in range(self.X.shape[1]):
            out[:, d] = np.interp(times, self.t, self.X[:, d])
        return out

    def to_csv(self) -> str:
        header = "t," + ",".join(f"X{i+1}" for i in range(self.X.shape[1]))
        lines = [header]
        for ti, xi in zip(self.t, self.X):
            lines.append(f"{ti:.12g}," + ",".join(f"{v:.12g}" for v in xi))
        return "\n".join(lines) + "\n"


_DOPRI_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DOPRI_B5 = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0])
_DOPRI_B4 = np.array([5179 / 57600, 0, 7571 / 16695, 393 / 640,
                      -92097 / 339200, 187 / 2100, 1 / 40])
_DOPRI_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])


def _integrate_dopri(rhs, x0, t0, t1, tol, max_step, blowup):
    x = np.array(x0, dtype=float)
    t = t0
    ts = [t]
    xs = [x.copy()]
    dt = min(max_step, (t1 - t0) / 100.0)
    steps = rejected = 0
    K = np.zeros((7, len(x)))
    while t < t1 - 1e-14 * (t1 - t0):
        dt = min(dt, t1 - t)
        K[0] = rhs(x)
        for s in range(1, 7):
            xa = x + dt * sum(a * K[q] for q, a in enumerate(_DOPRI_A[s]))
            K[s] = rhs(xa)
        x5 = x + dt * (_DOPRI_B5 @ K)
        x4 = x + dt * (_DOPRI_B4 @ K)
        err = np.linalg.norm(x5 - x4) / (tol * (1.0 + np.linalg.norm(x)))
        if err <= 1.0:
            t += dt
            x = x5
            ts.append(t)
            xs.append(x.copy())
            steps += 1
            if blowup is not None and np.linalg.norm(x) > blowup:
                raise RealizeError(
                    f"trajectory blow-up at t={t:.4g}: |X| = {np.linalg.norm(x):.3g}")
        else:
            rejected += 1
        dt = dt * min(4.0, max(0.2, 0.9 * max(err, 1e-16) ** (-0.2)))
        dt = min(dt, max_step)
        if dt < 1e-14:
            raise RealizeError("step-size underflow")
    return np.array(ts), np.array(xs), steps, rejected


def _phi1(z):
    small = np.abs(z) < 1e-5
    zb = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(zb) / zb)


def _phi2(z):
    small = np.abs(z) < 1e-4
    zb = np.where(small, 1.0, z)
    return np.where(small, 0.5 + z / 6.0 + z * z / 24.0,
                    (np.expm1(zb) - zb) / (zb * zb))


def _etdrk2_coeffs(diag, dt):
    """E = exp(dt L), P1 = dt phi1(dt L), P2 = dt phi2(dt L) for diagonal L."""
    z = diag * dt
    return np.exp(z), dt * _phi1(z), dt * _phi2(z)


def _etdrk2_step(system: QuadraticSystem, x, E, P1, P2, Q=None):
    """One exponential midpoint step: exact fast diagonal, 2nd-order nonstiff.

    With a tangent frame Q, also returns the frame carried by the
    derivative of the same step.
    """
    n0 = system.nonstiff_rhs(x)
    xa = E * x + P1 * n0
    n1 = system.nonstiff_rhs(xa)
    xn = xa + P2 * (n1 - n0)
    if Q is None:
        return xn
    J0Q = system.nonstiff_jac(x) @ Q
    Qa = E[:, None] * Q + P1[:, None] * J0Q
    return xn, Qa + P2[:, None] * (system.nonstiff_jac(xa) @ Qa - J0Q)


def _rk4_step(rhs, x, h):
    """One classic fourth-order Runge-Kutta step."""
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _integrate_etdrk2(system: QuadraticSystem, x0, t0, t1, dt, blowup):
    E, P1, P2 = _etdrk2_coeffs(system.fast_diag, dt)
    x = np.array(x0, dtype=float)
    nsteps = int(np.ceil((t1 - t0) / dt))
    ts = np.empty(nsteps + 1)
    xs = np.empty((nsteps + 1, len(x)))
    ts[0] = t0
    xs[0] = x
    t = t0
    for i in range(nsteps):
        x = _etdrk2_step(system, x, E, P1, P2)
        t = t0 + (i + 1) * dt
        ts[i + 1] = t
        xs[i + 1] = x
        if blowup is not None and np.linalg.norm(x) > blowup:
            raise RealizeError(f"trajectory blow-up at t={t:.4g}")
    return ts, xs, nsteps, 0


def integrate(system: QuadraticSystem, x0, tspan, tol: float = 1e-8,
              method: str = "auto", dt: float | None = None,
              blowup_radius: float | None = None) -> Trajectory:
    """Integrate the fast-slow system over tspan.

    method='dopri' is the adaptive explicit pair; method='imex' is the
    fixed-step exponential integrator whose fast linear part is exact
    (the stable choice for xi <= 1e-3).  'auto' picks imex for stiff xi.
    Deterministic: identical inputs give identical output.
    """
    t0, t1 = tspan
    if blowup_radius is None:
        blowup_radius = 10.0 * max(1.0, np.linalg.norm(np.asarray(x0)))
    if method == "auto":
        method = "imex" if system.xi <= 2e-3 else "dopri"
    if method == "dopri":
        max_step = 0.25 * system.xi if system.xi < 0.25 else 0.25
        ts, xs, steps, rej = _integrate_dopri(system.rhs, x0, t0, t1, tol,
                                              max_step=max_step,
                                              blowup=blowup_radius)
    elif method == "imex":
        if dt is None:
            dt = min(5e-3, 0.05 * (t1 - t0))
        ts, xs, steps, rej = _integrate_etdrk2(system, x0, t0, t1, dt,
                                               blowup=blowup_radius)
    else:
        raise RealizeError(f"unknown method {method!r}")
    return Trajectory(t=ts, X=xs, steps=steps, rejected=rej)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def manifold_residual(traj: Trajectory, system: QuadraticSystem,
                      transient: float = 0.25) -> dict:
    """Empirical |W| = sup ||Z/xi - Kt1(Y)|| past the fast transient."""
    p, xi = system.p, system.xi
    t0 = traj.t[0] + transient * (traj.t[-1] - traj.t[0])
    mask = traj.t >= t0
    vals = []
    for X in traj.X[mask]:
        Y, Z = X[:p], X[p:]
        vals.append(np.linalg.norm(Z / xi - system.kt1(Y)))
    vals = np.array(vals)
    return {"sup": float(vals.max()), "mean": float(vals.mean()),
            "n_samples": int(mask.sum())}


def reduced_field(Y: np.ndarray, system: QuadraticSystem,
                  target: TargetField) -> tuple[np.ndarray, float]:
    """Leading slow field at Y and its discrepancy from the target."""
    p = system.p
    K1 = system.K[:p, :p, :p]
    lead = (np.einsum("ijl,j,l->i", K1, Y, Y) + system.R @ Y
            + system.T @ system.kt1(Y) + system.f[:p])
    return lead, float(np.linalg.norm(lead - target.bare(Y)))


def empirical_field_error(traj: Trajectory, system: QuadraticSystem,
                          target: TargetField) -> float:
    """Sup over the trajectory tail (past the first quarter) of
    |dY/dt - W_target(Y)| by central differences of the sampled slow path."""
    p = system.p
    t, X = traj.t, traj.X
    i0 = np.searchsorted(t, t[0] + 0.25 * (t[-1] - t[0]))
    sup = 0.0
    for i in range(max(i0, 1), len(t) - 1):
        dt = t[i + 1] - t[i - 1]
        dY = (X[i + 1, :p] - X[i - 1, :p]) / dt
        sup = max(sup, float(np.linalg.norm(dY - target(X[i, :p]))))
    return sup


# ---------------------------------------------------------------------------
# Lyapunov spectra
# ---------------------------------------------------------------------------

# QR renormalization interval of lyapunov, in steps
_RENORM_EVERY = 10
# equal blocks of the measured horizon behind each exponent's standard error
_BATCHES = 10


def lyapunov(flow, x0, horizon: float, dt: float = 1e-2,
             transient: float = 20.0,
             seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Benettin QR spectrum along the orbit of an autonomous field.

    A QuadraticSystem is stepped by ETDRK2 with its own fast diagonal
    handled exactly, state and tangent frame alike, and carries only its p
    slow tangent columns: the leading exponents of a Benettin frame do not
    depend on its trailing columns, so the N - p fast ones are never
    computed.  Any other flow (a TargetField: called, and jac) is stepped
    by RK4 with a trapezoidal tangent and carries all of its columns.  The
    frame, the leading columns of one seeded orthonormal frame, is
    renormalized by QR every _RENORM_EVERY steps, through the transient
    too, so the measured average starts from an aligned frame; the state
    is checked finite at each renormalization.

    Returns (exponents, stderr), both in descending order of exponent:
    the log diagonal averaged over the horizon after the transient, and
    the batch-means standard error of each exponent from _BATCHES equal
    blocks of the same horizon.  The error bar is the scatter along this
    one orbit, not that of an ensemble.
    """
    x = np.array(x0, dtype=float)
    n = len(x)
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :flow.p]

    if isinstance(flow, QuadraticSystem):
        coeffs = _etdrk2_coeffs(flow.fast_diag, dt)

        def step(x, Q):
            return _etdrk2_step(flow, x, *coeffs, Q=Q)
    else:
        I = np.eye(n)
        J = flow.jac(x)

        def step(x, Q):
            # trapezoidal rule on the linear tangent equation; the Jacobian
            # at this step's end is the one at the next step's start
            nonlocal J
            xn = _rk4_step(flow, x, dt)
            Jn = flow.jac(xn)
            Q = np.linalg.solve(I - 0.5 * dt * Jn, (I + 0.5 * dt * J) @ Q)
            J = Jn
            return xn, Q

    nburn = int(transient / dt)
    nsteps = int(horizon / dt)
    logs = []                   # log|diag R| of each measured renormalization
    sums = np.zeros(Q.shape[1])
    elapsed = 0.0
    for r in range((nburn + nsteps) // _RENORM_EVERY):
        for _ in range(_RENORM_EVERY):
            x, Q = step(x, Q)
        if not np.all(np.isfinite(x)):
            raise RealizeError("unbounded orbit in Lyapunov computation")
        Q, Rm = np.linalg.qr(Q)
        if (r + 1) * _RENORM_EVERY > nburn:
            d = np.abs(np.diag(Rm))
            d[d < 1e-300] = 1e-300
            logs.append(np.log(d))
            sums += logs[-1]
            elapsed += _RENORM_EVERY * dt
    if len(logs) < _BATCHES:
        raise RealizeError(f"Lyapunov horizon {horizon} holds fewer than "
                           f"{_BATCHES} renormalizations at dt = {dt}")
    exps = sums / elapsed
    batches = np.array([b.sum(axis=0) / (len(b) * _RENORM_EVERY * dt)
                        for b in np.array_split(np.array(logs), _BATCHES)])
    stderr = batches.std(axis=0, ddof=1) / np.sqrt(_BATCHES)
    order = np.argsort(exps)[::-1]
    return exps[order], stderr[order]


# ---------------------------------------------------------------------------
# rescaling raw fields into the unit-ball contract
# ---------------------------------------------------------------------------

def rescale_into_ball(raw: TargetField, ball_radius: float = 1.0,
                      seed: int = 0) -> TargetField:
    """Affine-conjugate a raw quadratic field into the ball contract.

    The empirical attractor (200 time units of the raw field past a
    transient of 20, RK4 at dt = 5e-3) is centered and scaled into radius
    ball_radius/2; time is rescaled so the sampled gradient bound is
    0.9 < 1; the inward boundary condition is checked on a sampled net and
    an absorbing blend is attached if the bare conjugated field fails it.
    Conjugacy:
    Y = (X - c)/s, W(Y) = (tau/s) Q(c + s Y).
    """
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.standard_normal(raw.p) + 1e-3
    # crude transient + bounding run with plain RK4, sampled after the transient
    dt = 5e-3
    nburn = int(20.0 / dt)
    pts = []
    for i in range(nburn + int(200.0 / dt)):
        x = _rk4_step(raw.bare, x, dt)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > 1e6:
            raise RealizeError("raw field escaped during the bounding run")
        if i >= nburn and (i - nburn) % 5 == 0:
            pts.append(x)
    pts = np.array(pts)
    center = 0.5 * (pts.max(axis=0) + pts.min(axis=0))
    radius = np.max(np.linalg.norm(pts - center, axis=1))
    scale = 2.0 * radius / ball_radius          # maps attractor into R/2
    # conjugated quadratic coefficients: W(Y) = (tau/s) Q(c + s Y)
    D = raw.D * scale
    R = raw.R + 2.0 * np.einsum("ijl,l->ij", raw.D, center)
    fvec = (raw.quad(center) + raw.R @ center + raw.f) / scale
    cand = TargetField(p=raw.p, D=D, R=R, f=fvec, ball_radius=ball_radius)
    gb = cand.grad_bound()
    tau = 0.9 / gb
    cand = TargetField(p=raw.p, D=D * tau, R=R * tau, f=fvec * tau,
                       ball_radius=ball_radius)
    if not cand.inward_on_boundary():
        cand.cutoff_on = 0.9
        if not cand.inward_on_boundary():
            raise RealizeError("inward condition fails even with the blend")
    cand.affine = {"center": center.tolist(), "scale": float(scale),
                   "tau": float(tau)}
    return cand


# ---------------------------------------------------------------------------
# end-to-end report
# ---------------------------------------------------------------------------

@dataclass
class RealizationReport:
    sup_error: float
    manifold: dict
    field_c0_error: float
    lyap_target: np.ndarray | None
    lyap_realized: np.ndarray | None
    lyap_target_stderr: np.ndarray | None
    lyap_realized_stderr: np.ndarray | None
    xi: float
    p: int
    N: int
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        def listed(a):
            return None if a is None else a.tolist()

        doc = {"supError": self.sup_error, "manifoldResidual": self.manifold,
               "fieldC0Error": self.field_c0_error,
               "lyapunovTarget": listed(self.lyap_target),
               "lyapunovRealized": listed(self.lyap_realized),
               "lyapunovTargetStderr": listed(self.lyap_target_stderr),
               "lyapunovRealizedStderr": listed(self.lyap_realized_stderr),
               "xi": self.xi, "p": self.p, "N": self.N}
        doc.update(self.extras)
        return json.dumps(doc, sort_keys=True)


def realize_target(target: TargetField, K: np.ndarray, kset: WavenumberSet,
                   xi: float = 1e-3, horizon: float = 50.0,
                   y0: np.ndarray | None = None, lyap_horizon: float = 12000.0,
                   seed: int = 0, with_lyapunov: bool = True) -> RealizationReport:
    """Build the fast-slow system for the target and certify the realization.

    Integrates the realized system and the target from matched initial
    data, reports the slow-trajectory sup error over the horizon, manifold
    residual statistics, the empirical field discrepancy, and the Lyapunov
    spectra of both dynamics with their standard errors (None without
    with_lyapunov).  Both Benettin runs take dt = 0.05: on the rescaled
    Lorenz target over horizon 1500 (five seeds) it keeps the exponent sums
    within 1.1e-5 (target) and 0.31% (realized) of the exact trace, and
    the step's shift of the leading exponent is lost in its spread across
    seeds.
    """
    system = build_fast_slow(target, K, kset, xi)
    p = kset.p
    rng = np.random.default_rng(seed)
    if y0 is None:
        y0 = 0.25 * target.ball_radius * rng.standard_normal(p)
        y0 *= min(1.0, 0.25 * target.ball_radius / np.linalg.norm(y0))
    x0 = np.zeros(kset.N)
    x0[:p] = y0
    x0[p:] = xi * system.kt1(y0)
    traj = integrate(system, x0, (0.0, horizon), method="auto", dt=5e-3)
    tgt_traj = Trajectory(*_integrate_dopri(target, y0, 0.0, horizon, 1e-10,
                                            max_step=0.25, blowup=None))
    samples = np.linspace(0.0, horizon, 400)
    realized_Y = traj.sample(samples)[:, :p]
    target_Y = tgt_traj.sample(samples)
    sup_err = float(np.max(np.linalg.norm(realized_Y - target_Y, axis=1)))
    man = manifold_residual(traj, system)
    c0 = empirical_field_error(traj, system, target)
    lyap_t = lyap_r = err_t = err_r = None
    if with_lyapunov:
        lyap_t, err_t = lyapunov(target, y0, horizon=lyap_horizon, dt=0.05,
                                 seed=seed)
        lyap_r, err_r = lyapunov(system, x0, horizon=lyap_horizon, dt=0.05,
                                 seed=seed)
    return RealizationReport(sup_error=sup_err, manifold=man,
                             field_c0_error=c0, lyap_target=lyap_t,
                             lyap_realized=lyap_r, lyap_target_stderr=err_t,
                             lyap_realized_stderr=err_r, xi=xi, p=p, N=kset.N,
                             extras={"trajectory_steps": traj.steps})
