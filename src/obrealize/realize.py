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

Every quadratic flow dX/dt = K(X, X) + M X + f has one stepper, the
Cox-Matthews ETDRK4 step of _etdrk4_step, exact in the whole constant
linear part M.  It is not fourth order in K(X, X) + f at the stiffness of
a realized system: at xi = 1e-3 and steps of 0.005-0.02 its path error
falls about 3x per halving of the step, about second order, not the 16x
of fourth order.  A QuadraticSystem hands it its (K, M, f), where M
holds the stiff fast diagonal -1/xi and the coupling T/xi alike; a
TargetField hands it its bare form (D, R, f).  The e^{hM} and
phi-functions come once per (field, step) from one augmented matrix
exponential each, and each stage's K(X, X) is only ever multiplied
by fixed weights, so those weights are folded into K once, and a stage
costs two products with no outer product.  integrate drives one orbit
with that step as a 1-D state; lyapunov drives a (B, n) stack of orbits
of either kind of flow and, by the derivative of the same step, their
(B, n, k) stack of tangent frames; and rescale_into_ball's bounding run
drives a stack of raw orbits with an empty frame.  Non-stiff fast-slow
systems (xi > 2e-3) are integrated by scipy's adaptive RK45 through
QuadraticSystem.rhs at one point, behind an escape check in the field,
and realize_target evaluates the target's reference orbit, blend and
all, at its sample times by scipy's DOP853, through a TargetField on a
stack of one row.

Since ETDRK4 is exact in M, the step of a stiff orbit is set by the slow
dynamics, not by xi.  realize_target steps its orbit in s equal steps of
at most _ORBIT_STEP = 0.009 between consecutive sample times, so each
sample time is a node, where the interpolation of Trajectory.sample
adds no error; the field error evaluates the realized field itself at
the nodes, so it carries no truncation error of the step.

The long loops run on ensembles of _ORBITS orbits.  Their states are 3- to
9-vectors, where numpy's per-call overhead, not arithmetic, is the cost of
a step, so one call that steps every orbit shares that cost: the Benettin
runs of lyapunov split their measured horizon among the orbits and take
the error bar from the orbits' scatter, and the bounding run samples the
attractor along every orbit.  The ETDRK4 path of integrate writes its
states, and the bounding run its samples (one per step), into one
preallocated array, and each checks finiteness and the escape radius of
every row once per block of _RENORM_EVERY = 10 entries, not on each; the
error names the first offending entry, as a check on each would, and the
states are those of the unchecked loop.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .control import WavenumberSet, verify_decomposition

__all__ = [
    "TargetField",
    "QuadraticSystem",
    "Trajectory",
    "RealizeError",
    "build_fast_slow",
    "integrate",
    "manifold_residual",
    "empirical_field_error",
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

class _QuadraticForm:
    """C(X) = sum_l C_ijl X_l of an (n, n, n) tensor C symmetric in its last
    two slots, at each row of a (B, n) array: C(X, X) = C(X) X, and its
    Jacobian is 2 C(X).  _reshape(C) keeps C, once, as an (n^2, n) matrix
    transposed for row points.

    A subclass's form is its field C(X, X) + L X + f as the (C, L, f) that
    _etdrk4_coeffs takes, and the field is that form inside |X| <=
    bare_radius."""

    bare_radius = np.inf

    def _reshape(self, C: np.ndarray) -> None:
        self._CT = C.reshape(-1, len(C)).T

    def quad_matrix(self, X: np.ndarray) -> np.ndarray:
        """C(X) at each row of a (B, n) array."""
        n = X.shape[-1]
        return X.dot(self._CT).reshape(*X.shape[:-1], n, n)


@dataclass
class TargetField(_QuadraticForm):
    """Quadratic field W(Y) = D(Y) + R Y + f on the ball |Y| <= ball_radius.

    An optional absorbing blend replaces W by the inward field -Y outside
    cutoff_on * ball_radius (smoothly), guaranteeing the inward boundary
    condition without touching the dynamics on the attractor.  affine is
    the conjugacy rescale_into_ball built the field by (center, scale, tau).
    The dimension p is read off D.
    """

    D: np.ndarray
    R: np.ndarray
    f: np.ndarray
    ball_radius: float = 1.0
    cutoff_on: float | None = None
    affine: dict | None = None

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        p = self.D.shape[0] if self.D.ndim else 0
        if self.D.shape != (p, p, p):
            raise RealizeError("D must be p x p x p")
        if self.R.shape != (p, p):
            raise RealizeError("R must be p x p")
        if self.f.shape != (p,):
            raise RealizeError("f must have length p")
        self.D = 0.5 * (self.D + np.swapaxes(self.D, 1, 2))
        self._reshape(self.D)
        self._DF = self.D.reshape(p, -1).T

    @property
    def p(self) -> int:
        return len(self.D)

    def quad(self, Y: np.ndarray) -> np.ndarray:
        """D(Y, Y) at each row of a (B, p) array, from the outer product of
        each row with itself."""
        YY = (Y[..., :, None] * Y[..., None, :]).reshape(*Y.shape[:-1], -1)
        return YY.dot(self._DF)

    def bare(self, Y: np.ndarray) -> np.ndarray:
        """The bare field D(Y, Y) + R Y + f at each row of a (B, p) array."""
        return self.quad(Y) + Y.dot(self.R.T) + self.f

    def bare_jac(self, Y: np.ndarray) -> np.ndarray:
        """R + 2 D(Y), the bare field's Jacobian, at each row of Y."""
        return self.R + 2.0 * self.quad_matrix(Y)

    @property
    def form(self):
        return self.D, self.R, self.f

    @property
    def bare_radius(self) -> float:
        """cutoff_on * ball_radius, where the blend starts; infinite
        without one."""
        if self.cutoff_on is None:
            return np.inf
        return self.cutoff_on * self.ball_radius

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        """W at each row of a (B, p) array of points: the bare field, and in
        the blend (1 - s) times it minus s Y, with s = S(t) of each row's
        t = (|Y|/R - c)/(1 - c) clipped to [0, 1]."""
        v = self.bare(Y)
        if self.cutoff_on is None:
            return v
        r = np.linalg.norm(Y, axis=-1, keepdims=True)
        if r.max() / self.ball_radius <= self.cutoff_on:
            return v            # S(t) is 0 on every row
        s = _smoothstep((r / self.ball_radius - self.cutoff_on)
                        / (1.0 - self.cutoff_on))
        return (1.0 - s) * v - s * Y

    def inward_on_boundary(self) -> bool:
        """W(q) . q < 0 at 10000 seeded points q of the boundary sphere."""
        rng = np.random.default_rng(0)
        q = rng.standard_normal((10000, self.p))
        q *= self.ball_radius / np.linalg.norm(q, axis=1)[:, None]
        return bool(np.all(np.einsum("ni,ni->n", self(q), q) < 0.0))

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
        J = self.bare_jac(q)
        return float(np.linalg.norm(J, 2, axis=(1, 2)).max())


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def lorenz_field() -> TargetField:
    """The classic three-dimensional quadratic field, unrescaled, at
    sigma = 10, rho = 28, beta = 8/3."""
    sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
    D = np.zeros((3, 3, 3))
    D[1, 0, 2] = D[1, 2, 0] = -0.5
    D[2, 0, 1] = D[2, 1, 0] = 0.5
    R = np.array([[-sigma, sigma, 0.0], [rho, -1.0, 0.0], [0.0, 0.0, -beta]])
    return TargetField(D=D, R=R, f=np.zeros(3), ball_radius=np.inf)


def contraction_field(p: int, ball_radius: float = 1.0) -> TargetField:
    """The linear field W(Y) = -Y on the ball |Y| <= ball_radius."""
    return TargetField(D=np.zeros((p, p, p)), R=-np.eye(p),
                       f=np.zeros(p), ball_radius=ball_radius)


# ---------------------------------------------------------------------------
# fast-slow assembly
# ---------------------------------------------------------------------------

@dataclass
class QuadraticSystem(_QuadraticForm):
    """dX/dt = K(X, X) + M X + f with the fast-slow block structure built
    in: the first p of the N = len(M) coordinates are slow.  K is kept
    symmetric in its last two slots (bit for bit the K compute_K builds),
    so 2 K(., X) is the Jacobian of K(X, X) that carries tangent frames."""

    p: int
    K: np.ndarray
    M: np.ndarray
    f: np.ndarray
    xi: float

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        self.K = 0.5 * (K + np.swapaxes(K, 1, 2))
        self.M = np.asarray(self.M, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        self._reshape(self.K)

    @property
    def N(self) -> int:
        return len(self.M)

    @property
    def form(self):
        return self.K, self.M, self.f

    def rhs(self, X: np.ndarray) -> np.ndarray:
        """The field at one state X, as scipy's adaptive integrators call it."""
        n = len(X)
        return X.dot(self._CT).reshape(n, n).dot(X) + self.M.dot(X) + self.f

    def kt1(self, Y: np.ndarray) -> np.ndarray:
        """Fast-block quadratic form restricted to slow arguments, at one
        point Y or at each row of an (n, p) array."""
        Kt = self.K[self.p:, :self.p, :self.p]
        return np.einsum("ijl,...j,...l->...i", Kt, Y, Y)


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
    return QuadraticSystem(p=p, K=K, M=M, f=f, xi=xi)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

# steps between the escape checks of integrate and rescale_into_ball, and
# between the QR renormalizations of lyapunov
_RENORM_EVERY = 10

@dataclass
class Trajectory:
    t: np.ndarray
    X: np.ndarray
    rejected: int

    @property
    def steps(self) -> int:
        """The accepted steps: one per node after the first."""
        return len(self.t) - 1

    def sample(self, times) -> np.ndarray:
        times = np.atleast_1d(times)
        out = np.empty((len(times), self.X.shape[1]))
        for d in range(self.X.shape[1]):
            out[:, d] = np.interp(times, self.t, self.X[:, d])
        return out


def _phi_functions(Z):
    """e^Z, phi1(Z), phi2(Z), phi3(Z): the top block row of one expm of
    [[Z, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], [0, 0, 0, 0]]."""
    n = len(Z)
    A = np.zeros((4 * n, 4 * n))
    A[:n, :n] = Z
    A[:3 * n, n:] += np.eye(3 * n)
    top = expm(A)[:n]
    return tuple(top[:, k * n:(k + 1) * n] for k in range(4))


def _etdrk4_coeffs(K, M, f, h):
    """The fixed arrays of one Cox-Matthews ETDRK4 step of size h for
    dX/dt = K(X, X) + M X + f, K symmetric in its last two slots (a field's
    form).

    With E = e^{hM}, E2 = e^{hM/2}, P = (h/2) phi1(hM/2), the weights
    B1 = h (phi1 - 3 phi2 + 4 phi3), B2 = h (2 phi2 - 4 phi3) and
    B4 = h (4 phi3 - phi2) of hM, and N(v) = K(v, v) + f, the step from u is

        a = E2 u + P N(u),    b = E2 u + P N(a),
        c = E2 a + P (2 N(b) - N(u)) = E u + (E2 P - P) N(u) + 2 P N(b),
        u' = E u + B1 N(u) + B2 (N(a) + N(b)) + B4 N(c).

    Each K(v, v) is only ever multiplied by fixed weights, so they are
    folded into K once: for weights W stacked row-wise into an (m, n)
    matrix, T_W[j, l, r] = sum_i K_ilj W_ri, kept as an (n, n m) matrix.
    Then v.dot(v.dot(T_W).reshape(n, m)) is W K(v, v), and
    q.dot(v.dot(T_W).reshape(n, m)) is W K(q, v).

    Returns (L, g, Tu, Ta, Tb, Tc), transposed for row states.  L stacks
    [E2; E2; E; E], g the forcing terms [P f; P f; (B1 + 2 B2 + B4) f;
    (E2 P + P) f], and Tu weights K(u, u) by [P; 0; B1; E2 P - P], so that
    their sum at u holds side by side a, and the parts of b, u' and c that
    come before K(a, a), K(b, b) and K(c, c).  Ta weights K(a, a) by
    [P; B2], Tb weights K(b, b) by [2 P; B2] and Tc weights K(c, c) by B4.
    """
    n = len(M)
    E, p1, p2, p3 = _phi_functions(h * M)
    E2, q1 = _phi_functions(0.5 * h * M)[:2]
    P = 0.5 * h * q1
    B1 = h * (p1 - 3.0 * p2 + 4.0 * p3)
    B2 = h * (2.0 * p2 - 4.0 * p3)
    B4 = h * (4.0 * p3 - p2)
    E2P = E2 @ P

    def fold(*W):
        W = np.concatenate(W).T
        return np.tensordot(K, W, (0, 0)).transpose(1, 0, 2).reshape(n, -1)

    L = np.concatenate([E2, E2, E, E]).T
    g = np.concatenate([P @ f, P @ f, (B1 + 2.0 * B2 + B4) @ f, (E2P + P) @ f])
    return (np.ascontiguousarray(L), g, fold(P, np.zeros((n, n)), B1, E2P - P),
            fold(P, B2), fold(2.0 * P, B2), fold(B4))


def _etdrk4_step(x, coeffs, Q=None):
    """One ETDRK4 step of dX/dt = M X + K(X, X) + f, exact in M, of one
    state x, or of each row of a (B, N) stack of states x with its (B, N, k)
    tangent frame Q.

    With Q, also returns the frames carried by the derivative of the same
    step: each stage's Jacobian 2 K(., stage) applied to that stage's frame.
    The frame then rides as k more rows under each state, so one product
    applies each linear operator to states and frames alike, and one
    batched matmul per stage applies the folded K(., stage) to the state
    (giving K(X, X)) and to twice the frame (giving the Jacobian product).
    A (B, N, 0) frame steps a stack of states alone.
    """
    L, g, Tu, Ta, Tb, Tc = coeffs
    n = len(L)
    if Q is None:
        m = 1

        def weighted(u, T):
            return u.dot(u.dot(T).reshape(n, -1))
        V = x
    else:
        B, m = len(x), 1 + Q.shape[2]
        scale = np.full((m, 1), 2.0)
        scale[0] = 1.0

        def weighted(U, T):
            U = U.reshape(B, m, n)
            KU = np.matmul(U, U[:, 0].dot(T).reshape(B, n, -1))
            KU *= scale
            return KU.reshape(B * m, -1)
        V = np.concatenate([x[:, None], Q.transpose(0, 2, 1)],
                           axis=1).reshape(B * m, n)
    # the forcing moves states, not frames, and joins the small stage terms
    # before the linear part: added to a state alone, its part below the
    # state's last digit would round the same way on every step, and the
    # orbit would drift by that much per step
    r = weighted(V, Tu)
    r[::m] += g
    r += V.dot(L)
    a = r[..., :n]
    Ka = weighted(a, Ta)
    b = r[..., n:2 * n] + Ka[..., :n]
    Kb = weighted(b, Tb)
    c = r[..., 3 * n:] + Kb[..., :n]
    Vn = r[..., 2 * n:3 * n] + Ka[..., n:] + Kb[..., n:] + weighted(c, Tc)
    if Q is None:
        return Vn
    Vn = Vn.reshape(B, m, n)
    return Vn[:, 0], Vn[:, 1:].transpose(0, 2, 1)


def _fill_checked(step, x, xs, radius):
    """Fill xs[i], one state or a (B, n) stack of states, with x after
    i + 1 steps.

    Each block of _RENORM_EVERY steps is checked once it is filled, not
    each step.  Returns the index of the first step at which some row is
    not finite or has |x| > radius (the row's np.linalg.norm), or None.
    One sum of squares per row clears a block inside 0.99 radius; only a
    block near or past the radius, or one holding a non-finite row, is
    walked step by step.  Steps run on past an escaped row to the end of
    its block, so the overflow they may meet is not warned about.
    """
    n = len(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n, _RENORM_EVERY):
            i1 = min(i0 + _RENORM_EVERY, n)
            for i in range(i0, i1):
                x = xs[i] = step(x)
            block = xs[i0:i1]
            if np.einsum("...i,...i->...", block, block).max() < (0.99 * radius) ** 2:
                continue
            for i in range(i0, i1):
                if (not np.all(np.isfinite(xs[i]))
                        or np.linalg.norm(xs[i], axis=-1).max() > radius):
                    return i
    return None


def _integrate_etdrk4(system: QuadraticSystem, x0, t0, t1, dt, blowup):
    """ETDRK4 over [t0, t1] in n = ceil((t1 - t0)/dt) equal steps, so the
    path ends at t1; the step is dt itself wherever dt divides the span.
    A quotient within 1e-12 relative above an integer counts as that
    integer, so a dt computed as span/n takes n steps, not n + 1."""
    nsteps = int(np.ceil((t1 - t0) / dt * (1.0 - 1e-12)))
    ts = np.linspace(t0, t1, nsteps + 1)
    coeffs = _etdrk4_coeffs(*system.form, (t1 - t0) / nsteps)
    xs = np.empty((nsteps + 1, len(x0)))
    xs[0] = x0
    i = _fill_checked(lambda x: _etdrk4_step(x, coeffs), x0, xs[1:], blowup)
    if i is not None:
        raise RealizeError(f"trajectory blow-up at t={ts[i + 1]:.4g}")
    return ts, xs, 0


def _integrate_rk45(system: QuadraticSystem, x0, t0, t1, tol, blowup):
    """scipy's RK45 at rtol = atol = tol, max step min(xi/4, 1/4).

    The field handed to solve_ivp raises RealizeError at the first point it
    is evaluated at with |X| > blowup, a stage of an attempted step among
    them, and names that point's time and |X|.  Where no point passes the
    radius, the path is that of solve_ivp on system.rhs alone.

    RK45 makes two evaluations before its first step (the field at t0 and
    one to choose the step) and six on each attempted step, so the
    rejected attempts are (nfev - 2)/6 - steps.
    """
    rhs, r2 = system.rhs, blowup * blowup

    def field(t, x):
        xx = x.dot(x)
        if xx > r2:
            raise RealizeError(f"trajectory blow-up at t={t:.4g}: "
                               f"|X| = {np.sqrt(xx):.3g}")
        return rhs(x)

    sol = solve_ivp(field, (t0, t1), x0, method="RK45", rtol=tol, atol=tol,
                    max_step=min(0.25 * system.xi, 0.25))
    if not sol.success:
        raise RealizeError(sol.message)
    return sol.t, sol.y.T, (sol.nfev - 2) // 6 - (len(sol.t) - 1)


def integrate(system: QuadraticSystem, x0, tspan, tol: float = 1e-8,
              method: str = "auto", dt: float | None = None,
              blowup_radius: float | None = None) -> Trajectory:
    """Integrate the fast-slow system over tspan.

    method='dopri' is scipy's adaptive RK45 (the Dormand-Prince 5(4) pair)
    at rtol = atol = tol; method='imex' is the fixed-step ETDRK4
    exponential integrator, exact in M (the stable choice for stiff xi),
    in ceil(span/dt) equal steps that end on t1, span/dt rounded down to
    an integer it passes by 1e-12 relative or less (dt defaults to
    min(5e-3, 5% of the span)).  'auto' picks imex for xi <= 2e-3 and
    RK45 above; RK45 chooses its own steps and does not read dt.  Either
    raises RealizeError once |X| passes blowup_radius (default
    10 max(1, |x0|)); imex also once a state is not finite, and both
    reject a non-finite x0.  Deterministic: identical inputs give
    identical output.
    """
    t0, t1 = tspan
    x0 = np.array(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise RealizeError("x0 must be finite")
    if blowup_radius is None:
        blowup_radius = 10.0 * max(1.0, np.linalg.norm(x0))
    if method == "auto":
        method = "imex" if system.xi <= 2e-3 else "dopri"
    if method == "dopri":
        ts, xs, rej = _integrate_rk45(system, x0, t0, t1, tol, blowup_radius)
    elif method == "imex":
        if dt is None:
            dt = min(5e-3, 0.05 * (t1 - t0))
        ts, xs, rej = _integrate_etdrk4(system, x0, t0, t1, dt, blowup_radius)
    else:
        raise RealizeError(f"unknown method {method!r}")
    return Trajectory(t=ts, X=xs, rejected=rej)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

# the diagnostics read an orbit past this share of its span
_TAIL_FROM = 0.25


def manifold_residual(traj: Trajectory, system: QuadraticSystem,
                      transient: float = _TAIL_FROM) -> dict:
    """Empirical |W| = sup ||Z/xi - Kt1(Y)|| past the fast transient."""
    p, xi = system.p, system.xi
    t0 = traj.t[0] + transient * (traj.t[-1] - traj.t[0])
    X = traj.X[np.searchsorted(traj.t, t0):]
    W = X[:, p:] / xi
    W -= system.kt1(X[:, :p])
    vals = np.sqrt(np.einsum("ni,ni->n", W, W))
    return {"sup": float(vals.max()), "mean": float(vals.mean()),
            "n_samples": len(X)}


def empirical_field_error(traj: Trajectory, system: QuadraticSystem,
                          target: TargetField) -> float:
    """Sup over the trajectory tail (past the first quarter) of
    |dY/dt - W_target(Y)|, with dY/dt the realized system's slow rows
    K[:p](X, X) + M[:p] X + f[:p] at each tail node.

    The value is the field's own discrepancy along the orbit, free of the
    truncation error a difference of the stepped path would add.  K(X, X)
    is taken one slow row at a time, so no (nodes, N, N) array is formed.
    """
    p = system.p
    t = traj.t
    X = traj.X[np.searchsorted(t, t[0] + _TAIL_FROM * (t[-1] - t[0])):]
    G = X.dot(system.M[:p].T) + system.f[:p]
    for i in range(p):
        G[:, i] += np.einsum("nj,nj->n", X.dot(system.K[i]), X)
    G -= target(X[:, :p])
    return float(np.sqrt(np.max(np.einsum("ni,ni->n", G, G))))


# ---------------------------------------------------------------------------
# Lyapunov spectra
# ---------------------------------------------------------------------------

# orbits in each Benettin ensemble and in the bounding run, and the
# transient each Benettin orbit runs before its measured part (CHANGES.md
# has the study that chose them)
_ORBITS = 16
_TRANSIENT = 200.0


def lyapunov(flow, starts, horizon: float, dt: float = 1e-2,
             transient: float = _TRANSIENT,
             seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Benettin QR spectrum of an autonomous field over an ensemble of
    orbits, one from each row of the (B, n) array starts.

    The B orbits are stepped together, each by transient and then by
    horizon / B time units: horizon is the measured time of the whole
    ensemble.  The flow, a QuadraticSystem or a TargetField, is stepped as
    its quadratic form by ETDRK4, exact in the linear part, and its frames
    are carried by the derivative of the same step, so the tangent has the
    orbit's order (about second, not fourth, at xi = 1e-3; see the module
    docstring).  A flow carries p tangent columns: all of a TargetField's,
    and a QuadraticSystem's p slow ones, since the leading exponents of a
    Benettin frame do not depend on its trailing columns, so the N - p
    fast ones are never computed.  Every orbit starts from the
    leading columns of one seeded orthonormal frame, and every
    _RENORM_EVERY steps one stacked QR renormalizes all the frames, through
    the transient too, so the measured average starts from an aligned
    frame.  The starts, and the states at each renormalization, are
    checked finite and inside the flow's bare_radius: a TargetField's form
    is not its field past cutoff_on * ball_radius, where the blend starts.

    Returns (exponents, stderr), both in descending order of exponent:
    each orbit's log diagonal averaged over its measured whole blocks of
    _RENORM_EVERY steps, then the mean over the B orbits, and its standard
    error, the scatter of the B orbits' exponents over sqrt(B).  Raises
    RealizeError for a non-finite start, for fewer than 2 orbits (no
    scatter, so no error bar), for a per-orbit horizon that holds no
    measured renormalization, and for an orbit that is not finite or is
    past bare_radius.
    """
    x = np.array(starts, dtype=float)
    if x.ndim != 2 or len(x) < 2:
        raise RealizeError("lyapunov needs a (B, n) array of B >= 2 starts: "
                           "one orbit gives no scatter for an error bar")
    if not np.all(np.isfinite(x)):
        raise RealizeError("Lyapunov starts must be finite")
    B, n = x.shape
    nburn = int(transient / dt)
    nblocks = int(horizon / B / dt) // _RENORM_EVERY
    if nblocks == 0:
        raise RealizeError(f"Lyapunov horizon {horizon} over {B} orbits gives "
                           f"each {horizon / B:.4g} time units, short of one "
                           f"renormalization ({_RENORM_EVERY} steps at dt = {dt})")
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :flow.p]
    Q = np.repeat(Q[None], B, axis=0)
    coeffs = _etdrk4_coeffs(*flow.form, dt)

    def check(x):
        if not np.all(np.isfinite(x)):
            raise RealizeError("unbounded orbit in Lyapunov computation")
        if np.einsum("bi,bi->b", x, x).max() > flow.bare_radius ** 2:
            raise RealizeError(f"Lyapunov orbit past radius {flow.bare_radius:.4g}, "
                               "outside which the flow is not its quadratic form")

    check(x)
    # the transient in blocks of up to _RENORM_EVERY steps, then the
    # measured whole blocks
    blocks = [min(_RENORM_EVERY, nburn - i) for i in range(0, nburn, _RENORM_EVERY)]
    burn_blocks = len(blocks)
    blocks += [_RENORM_EVERY] * nblocks
    sums = np.zeros((B, Q.shape[2]))
    for r, nsteps in enumerate(blocks):
        for _ in range(nsteps):
            x, Q = _etdrk4_step(x, coeffs, Q)
        check(x)
        Q, Rm = np.linalg.qr(Q)
        if r >= burn_blocks:
            d = np.abs(np.diagonal(Rm, axis1=1, axis2=2))
            d[d < 1e-300] = 1e-300
            sums += np.log(d)
    per_orbit = sums / (nblocks * _RENORM_EVERY * dt)
    exps = per_orbit.mean(axis=0)
    stderr = per_orbit.std(axis=0, ddof=1) / np.sqrt(B)
    order = np.argsort(exps)[::-1]
    return exps[order], stderr[order]


# ---------------------------------------------------------------------------
# rescaling raw fields into the unit-ball contract
# ---------------------------------------------------------------------------

def rescale_into_ball(raw: TargetField, ball_radius: float = 1.0,
                      seed: int = 0) -> TargetField:
    """Affine-conjugate a raw quadratic field into the ball contract.

    The empirical attractor is sampled at each step of the bare field's
    ETDRK4 at dt = 0.025 on _ORBITS seeded orbits, each past a transient of
    20 time units, 200 time units in all; it is centered and scaled into
    radius ball_radius/2.  The box's center and radius are statistics of a
    chaotic sample, which move by more across seeds than by the step's
    path error.  Time is rescaled so the sampled gradient bound is
    0.9 < 1; the inward boundary condition is checked on a sampled net and
    an absorbing blend is attached if the bare conjugated field fails it.
    Conjugacy:
    Y = (X - c)/s, W(Y) = (tau/s) Q(c + s Y).
    """
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.standard_normal((_ORBITS, raw.p)) + 1e-3
    dt = 0.025
    nburn = round(20.0 / dt)
    nkeep = round(200.0 / dt) // _ORBITS
    coeffs = _etdrk4_coeffs(*raw.form, dt)
    no_frame = np.empty((_ORBITS, raw.p, 0))

    # every state is a sample, the transient's among them
    xs = np.empty((nburn + nkeep, _ORBITS, raw.p))
    if _fill_checked(lambda x: _etdrk4_step(x, coeffs, no_frame)[0],
                     x, xs, 1e6) is not None:
        raise RealizeError("raw field escaped during the bounding run")
    pts = xs[nburn:].reshape(-1, raw.p)
    center = 0.5 * (pts.max(axis=0) + pts.min(axis=0))
    radius = np.max(np.linalg.norm(pts - center, axis=1))
    scale = 2.0 * radius / ball_radius          # maps attractor into R/2
    # conjugated quadratic coefficients: W(Y) = (tau/s) Q(c + s Y)
    D = raw.D * scale
    R = raw.bare_jac(center)
    fvec = raw.bare(center) / scale
    tau = 0.9 / TargetField(D=D, R=R, f=fvec, ball_radius=ball_radius).grad_bound()
    bare = TargetField(D=D * tau, R=R * tau, f=fvec * tau, ball_radius=ball_radius)
    # the blend is -Y on the sphere (its smoothstep is 1 there to an ulp),
    # so a blended field is inward there by construction
    cutoff_on = None if bare.inward_on_boundary() else 0.9
    return replace(bare, cutoff_on=cutoff_on,
                   affine={"center": center.tolist(), "scale": float(scale),
                           "tau": float(tau)})


# ---------------------------------------------------------------------------
# end-to-end report
# ---------------------------------------------------------------------------

# the largest ETDRK4 step of realize_target's orbit, which takes equal
# steps from one sample time of its sup error to the next.  ETDRK4 loses
# order at this stiffness (its path error at the samples falls about 3x
# per halving of the step at xi = 1e-3, not 16x), so the step is set by
# accuracy: 0.009 (14 steps per interval at the default horizon) keeps
# the path error at the samples of the CLI's Lorenz realization below
# that of the 5e-3 path read through interpolation at seeds 1234, 101
# and 17; 0.025 (6 per interval) read 3.2x that at seed 1234
_ORBIT_STEP = 0.009


@dataclass
class RealizationReport:
    """The gates realize_target measured, and the realized orbit they were
    measured on."""

    sup_error: float
    manifold: dict
    field_c0_error: float
    lyap_target: np.ndarray | None
    lyap_realized: np.ndarray | None
    lyap_target_stderr: np.ndarray | None
    lyap_realized_stderr: np.ndarray | None
    trajectory: Trajectory


def realize_target(target: TargetField, K: np.ndarray, kset: WavenumberSet,
                   xi: float = 1e-3, horizon: float = 50.0,
                   y0: np.ndarray | None = None, lyap_horizon: float = 12000.0,
                   seed: int = 0, with_lyapunov: bool = True) -> RealizationReport:
    """Build the fast-slow system for the target and certify the realization.

    Integrates the realized system and the target from matched initial
    data and reports the sup error of the slow path at 400 equally spaced
    times of the horizon, manifold residual statistics, the discrepancy of
    the realized slow field from the target at the nodes of the orbit's
    tail (empirical_field_error), and the Lyapunov spectra of both
    dynamics with their standard errors (None without with_lyapunov).
    For xi <= 2e-3 the realized orbit is the ETDRK4 path in
    s = ceil(spacing / _ORBIT_STEP) equal steps per sample interval
    (spacing = horizon / 399: at the default horizon of 50, s = 14 and
    5586 steps of 0.00895), so each sample time is a node; above, it is
    the RK45 path, interpolated between its nodes.  The target is
    evaluated at the sample times themselves by DOP853 at rtol 1e-10,
    atol 1e-12, a method independent of the realized system's ETDRK4 and
    RK45.  The report carries the realized trajectory.

    The Benettin runs step _ORBITS orbits each, from starts drawn after y0
    and as y0 is drawn (y0 is drawn even when given, so the starts depend
    on the seed alone); the realized system starts each on the slow
    manifold, Z = xi Kt1(Y).  Both take dt = 0.5 and split lyap_horizon
    among their orbits.  The ensemble study behind _ORBITS and _TRANSIENT
    is in CHANGES.md: on the rescaled Lorenz target, over 16 seeds, it
    keeps the exponent sums within 2.1e-6 (target) and 1.5e-5 (realized)
    of the exact trace (with the target's ETDRK4 step, 3.3e-7 and 1.1e-5
    over seeds 0-15), and at lyap_horizon 12000 a single 12000-unit
    orbit's LLE lies within two ensemble standard errors of the ensemble
    LLE on 28 of 32 runs.
    """
    system = build_fast_slow(target, K, kset, xi)
    p = kset.p
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(1 + _ORBITS):
        y = 0.25 * target.ball_radius * rng.standard_normal(p)
        y *= min(1.0, 0.25 * target.ball_radius / np.linalg.norm(y))
        draws.append(y)
    if y0 is None:
        y0 = draws[0]
    x0 = np.zeros(kset.N)
    x0[:p] = y0
    x0[p:] = xi * system.kt1(y0)
    samples = np.linspace(0.0, horizon, 400)
    s = math.ceil(horizon / 399 / _ORBIT_STEP)      # steps per sample interval
    traj = integrate(system, x0, (0.0, horizon), method="auto",
                     dt=horizon / (399 * s))
    ref = solve_ivp(lambda t, y: target(y[None])[0], (0.0, horizon), y0,
                    method="DOP853", t_eval=samples, rtol=1e-10, atol=1e-12)
    if not ref.success:
        raise RealizeError(ref.message)
    realized_Y = traj.sample(samples)[:, :p]
    sup_err = float(np.max(np.linalg.norm(realized_Y - ref.y.T, axis=1)))
    man = manifold_residual(traj, system)
    c0 = empirical_field_error(traj, system, target)
    lyap_t = lyap_r = err_t = err_r = None
    if with_lyapunov:
        starts = np.array(draws[1:])
        lifted = np.zeros((_ORBITS, kset.N))
        lifted[:, :p] = starts
        lifted[:, p:] = xi * system.kt1(starts)
        lyap_t, err_t = lyapunov(target, starts, horizon=lyap_horizon, dt=0.5,
                                 seed=seed)
        lyap_r, err_r = lyapunov(system, lifted, horizon=lyap_horizon, dt=0.5,
                                 seed=seed)
    return RealizationReport(sup_error=sup_err, manifold=man,
                             field_c0_error=c0, lyap_target=lyap_t,
                             lyap_realized=lyap_r, lyap_target_stderr=err_t,
                             lyap_realized_stderr=err_r, trajectory=traj)
