import numpy as np
import pytest

from obrealize.control import extended_set
from obrealize.realize import (QuadraticSystem, RealizeError, TargetField,
                               _etdrk2_coeffs, _etdrk2_step, build_fast_slow, contraction_field,
                               empirical_field_error, integrate, lorenz_field,
                               lyapunov, manifold_residual, realize_target,
                               rescale_into_ball)


def check_blocks(system: QuadraticSystem) -> dict:
    """The fast blocks of M and f: -I/xi on the diagonal, zero elsewhere."""
    p, N, xi = system.p, system.N, system.xi
    Pt = system.M[p:, p:]
    Rt = system.M[p:, :p]
    ok_pt = np.allclose(Pt, -np.eye(N - p) / xi, rtol=0, atol=1e-12 / xi)
    ok_rt = np.allclose(Rt, 0.0, atol=1e-14)
    ok_ft = np.allclose(system.f[p:], 0.0, atol=1e-14)
    return {"fast_diag": ok_pt, "fast_slow_zero": ok_rt, "fast_f_zero": ok_ft}


def reduced_field(Y: np.ndarray, system: QuadraticSystem,
                  target: TargetField) -> tuple[np.ndarray, float]:
    """Leading slow field at Y and its discrepancy from the target."""
    p = system.p
    K1 = system.K[:p, :p, :p]
    lead = (np.einsum("ijl,j,l->i", K1, Y, Y) + system.R @ Y
            + system.T @ system.kt1(Y) + system.f[:p])
    return lead, float(np.linalg.norm(lead - target.bare(Y)))


@pytest.fixture(scope="module")
def kset3():
    return extended_set(3)


@pytest.fixture(scope="module")
def K9(kset3):
    # synthetic resonant tensor over the p=3 extended set: a fixed nonzero
    # coefficient on every Fourier-resonant triple, symmetrized
    N = kset3.N
    ks = kset3.full
    K = np.zeros((N, N, N))
    rng = np.random.default_rng(5)
    for i in range(N):
        for j in range(N):
            for l in range(N):
                if ks[i] == ks[j] + ks[l] or ks[i] == abs(ks[j] - ks[l]):
                    K[i, j, l] = 0.3 + 0.05 * ((i * 7 + j * 3 + l) % 5)
    K = 0.5 * (K + np.swapaxes(K, 1, 2))
    return K


def test_build_fast_slow_blocks(K9, kset3):
    target = contraction_field(3)
    sysd = build_fast_slow(target, K9, kset3, xi=0.01)
    checks = check_blocks(sysd)
    assert all(checks.values())
    # fast diagonal entries are exactly -1/xi
    assert np.allclose(np.diag(sysd.M[3:, 3:]), -100.0)
    # reduced leading field equals the target exactly on samples
    rng = np.random.default_rng(0)
    for _ in range(5):
        Y = 0.3 * rng.standard_normal(3)
        lead, disc = reduced_field(Y, sysd, target)
        assert disc < 1e-10


def test_trivial_target_zero_coupling(K9, kset3):
    # target equal to the intrinsic slow field needs no coupling
    p = kset3.p
    D = K9[:p, :p, :p].copy()
    target = TargetField(p=p, D=D, R=np.zeros((p, p)), f=np.zeros(p),
                         ball_radius=1.0)
    sysd = build_fast_slow(target, K9, kset3, xi=0.01)
    assert np.max(np.abs(sysd.T)) < 1e-12


def test_integrator_constant_and_linear(kset3):
    N = kset3.N
    sys0 = QuadraticSystem(N=N, p=3, K=np.zeros((N, N, N)),
                           M=np.zeros((N, N)), f=np.zeros(N), xi=1.0,
                           T=np.zeros((3, N - 3)), R=np.zeros((3, 3)))
    x0 = np.arange(1.0, N + 1.0)
    traj = integrate(sys0, x0, (0.0, 2.0), method="dopri")
    assert np.allclose(traj.X[-1], x0, atol=1e-12)
    # dX/dt = -X decays exactly
    sys1 = QuadraticSystem(N=N, p=3, K=np.zeros((N, N, N)),
                           M=-np.eye(N), f=np.zeros(N), xi=1.0,
                           T=np.zeros((3, N - 3)), R=-np.eye(3))
    traj = integrate(sys1, x0, (0.0, 1.0), method="dopri", tol=1e-10)
    assert np.allclose(traj.X[-1], x0 * np.exp(-1.0), rtol=1e-7)


def test_fast_block_entry_time(K9, kset3):
    # Z enters the O(xi) tube within O(xi ln(1/xi)) time
    xi = 1e-2
    target = contraction_field(3)
    sysd = build_fast_slow(target, K9, kset3, xi=xi)
    rng = np.random.default_rng(1)
    x0 = np.zeros(kset3.N)
    x0[:3] = 0.2 * rng.standard_normal(3)
    x0[3:] = 0.5 * rng.standard_normal(kset3.N - 3)
    traj = integrate(sysd, x0, (0.0, 1.0), method="dopri", tol=1e-9)
    tube = 4.0 * np.max(np.abs(sysd.kt1(x0[:3]))) * xi + 10 * xi
    entry = None
    for t, X in zip(traj.t, traj.X):
        if np.linalg.norm(X[3:]) < tube:
            entry = t
            break
    assert entry is not None
    assert entry < 10.0 * xi * np.log(1.0 / xi)


def test_blowup_detection(kset3):
    N = kset3.N
    K = np.zeros((N, N, N))
    K[0, 0, 0] = 1.0     # dX0/dt = X0^2 blows up
    sysu = QuadraticSystem(N=N, p=3, K=K, M=np.zeros((N, N)), f=np.zeros(N),
                           xi=1.0, T=np.zeros((3, N - 3)), R=np.zeros((3, 3)))
    x0 = np.zeros(N)
    x0[0] = 5.0
    with pytest.raises(RealizeError):
        integrate(sysu, x0, (0.0, 10.0), method="dopri",
                  blowup_radius=20.0)


def test_manifold_residual_ladder(K9, kset3):
    target = contraction_field(3, rate=0.5)
    rng = np.random.default_rng(2)
    y0 = np.array([0.3, -0.2, 0.25])
    sups = []
    for xi in (1e-1, 1e-2, 1e-3):
        sysd = build_fast_slow(target, K9, kset3, xi=xi)
        x0 = np.zeros(kset3.N)
        x0[:3] = y0
        x0[3:] = xi * sysd.kt1(y0)
        traj = integrate(sysd, x0, (0.0, 5.0), method="auto", dt=1e-3)
        sups.append(manifold_residual(traj, sysd)["sup"])
    assert sups[0] > sups[1] > sups[2]


def test_manifold_local_invariance(K9, kset3):
    xi = 1e-2
    target = contraction_field(3, rate=0.5)
    sysd = build_fast_slow(target, K9, kset3, xi=xi)
    y0 = np.array([0.3, -0.2, 0.25])
    x0 = np.zeros(kset3.N)
    x0[:3] = y0
    x0[3:] = xi * sysd.kt1(y0)
    traj = integrate(sysd, x0, (0.0, 3.0), method="dopri", tol=1e-10)
    res = manifold_residual(traj, sysd, transient=0.0)
    first = np.linalg.norm(traj.X[0, 3:] / xi - sysd.kt1(traj.X[0, :3]))
    assert res["sup"] <= 2.0 * max(first, 0.05)


def test_lyapunov_linear_contraction():
    field = contraction_field(3, rate=1.0)
    exps, _ = lyapunov(field, np.array([0.1, 0.05, -0.08]), horizon=50.0,
                       dt=1e-2, transient=1.0)
    assert np.allclose(exps, -1.0, atol=1e-3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lyapunov_transient_aligns_frame(seed):
    # distinct rates: over a horizon of 10 the average is this close only
    # if the transient has already turned the random frame onto the axes
    field = TargetField(p=3, D=np.zeros((3, 3, 3)), R=np.diag([-1.0, -2.0, -3.0]),
                        f=np.zeros(3))
    exps, _ = lyapunov(field, np.array([0.1, 0.05, -0.08]), horizon=10.0,
                       dt=1e-2, transient=20.0, seed=seed)
    assert np.allclose(exps, [-1.0, -2.0, -3.0], rtol=0.0, atol=1e-3)


def test_lyapunov_stiff_linear_system():
    # fast rate -1/xi at dt/xi = 20: an explicit step blows the fast
    # coordinates up; the step exact on the fast diagonal does not.  Only
    # the p slow exponents are computed.
    xi = 1e-3
    M = np.diag([-1.0, -2.0] + [-1.0 / xi] * 3)
    sysd = QuadraticSystem(N=5, p=2, K=np.zeros((5, 5, 5)), M=M, f=np.zeros(5),
                           xi=xi, T=np.zeros((2, 3)), R=M[:2, :2])
    x0 = np.array([0.1, 0.05, 0.02, -0.01, 0.03])
    args = dict(horizon=10.0, dt=0.02, transient=20.0, seed=0)
    exps, _ = lyapunov(sysd, x0, **args)
    assert np.allclose(exps[:2], [-1.0, -2.0], rtol=0.0, atol=1e-3)
    # the fast block of the tangent frame is carried exactly: the N - p
    # exponents the oracle also computes are -1/xi to rounding
    full = _full_frame_spectrum(sysd, x0, **args)
    assert np.allclose(full[2:], -1.0 / xi, rtol=1e-12, atol=0.0)


def _full_frame_spectrum(system, x0, horizon, dt, transient, seed):
    """Oracle: all N tangent columns, QR on every step, all N exponents."""
    coeffs = _etdrk2_coeffs(system.fast_diag, dt)
    x = np.array(x0, dtype=float)
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((system.N, system.N)))[0]
    nburn, nsteps = int(transient / dt), int(horizon / dt)
    sums = np.zeros(system.N)
    for i in range(nburn + nsteps):
        x, Q = _etdrk2_step(system, x, *coeffs, Q=Q)
        Q, Rm = np.linalg.qr(Q)
        if i >= nburn:
            sums += np.log(np.abs(np.diag(Rm)))
    return np.sort(sums / (nsteps * dt))[::-1]


def test_lyapunov_slow_columns_match_full_frame():
    # stiff (dt/xi = 20), with a quadratic part that moves the Jacobian
    # along the orbit and a forcing that keeps the fixed point off 0
    xi, p, N = 1e-3, 2, 5
    rng = np.random.default_rng(3)
    K = 0.3 * rng.standard_normal((N, N, N))
    K = 0.5 * (K + np.swapaxes(K, 1, 2))
    M = np.diag([-1.0, -2.0] + [-1.0 / xi] * 3)
    M[0, 1], M[1, 0] = 0.7, -0.4
    M[:p, p:] = 0.5 * rng.standard_normal((p, N - p)) / xi
    f = np.array([0.05, -0.03, 0.0, 0.0, 0.0])
    sysd = QuadraticSystem(N=N, p=p, K=K, M=M, f=f, xi=xi,
                           T=xi * M[:p, p:], R=M[:p, :p])
    x0 = np.array([0.1, 0.05, 0.02, -0.01, 0.03])
    args = dict(horizon=10.0, dt=0.02, transient=20.0, seed=4)
    exps, _ = lyapunov(sysd, x0, **args)
    assert len(exps) == p
    assert np.allclose(exps, _full_frame_spectrum(sysd, x0, **args)[:p],
                       rtol=1e-9, atol=0.0)


def test_lyapunov_target_exponents_pinned():
    # the RK4 + trapezoidal run on the blended Lorenz target, bit for bit
    # as the per-step QR and per-step Jacobian pair gave it
    tgt = rescale_into_ball(lorenz_field(), seed=1)
    exps, stderr = lyapunov(tgt, np.array([0.05, 0.02, 0.1]), horizon=50.0,
                            dt=0.02)
    assert exps == pytest.approx([0.008789796083788047, 0.0021816097530520245,
                                  -0.20174561832852755], rel=1e-15, abs=0.0)
    assert np.all(np.isfinite(stderr)) and np.all(stderr > 0.0)


def test_lyapunov_rejects_blowup_and_short_horizon(kset3):
    # dX0/dt = X0^2 from X0 = 5 leaves every bound before t = 0.2; the
    # state is checked at each renormalization, not at each step
    blowup = TargetField(p=1, D=np.ones((1, 1, 1)), R=np.zeros((1, 1)),
                         f=np.zeros(1), ball_radius=np.inf)
    N = kset3.N
    K = np.zeros((N, N, N))
    K[0, 0, 0] = 1.0
    sysu = QuadraticSystem(N=N, p=3, K=K, M=np.zeros((N, N)), f=np.zeros(N),
                           xi=1.0, T=np.zeros((3, N - 3)), R=np.zeros((3, 3)))
    x0 = np.zeros(N)
    x0[0] = 5.0
    with np.errstate(all="ignore"):
        for flow, x in ((blowup, np.array([5.0])), (sysu, x0)):
            with pytest.raises(RealizeError, match="unbounded"):
                lyapunov(flow, x, horizon=10.0, dt=0.01, transient=0.0)
    # fewer measured renormalizations than batches for the error bar
    with pytest.raises(RealizeError, match="horizon"):
        lyapunov(contraction_field(2), np.array([0.1, 0.0]), horizon=0.5,
                 dt=0.01, transient=0.0)


def test_lyapunov_lorenz_and_trace():
    lor = lorenz_field()
    exps, _ = lyapunov(lor, np.array([1.0, 1.0, 20.0]), horizon=500.0,
                       dt=2e-3, transient=20.0, seed=0)
    # classic largest exponent ~ 0.9056
    assert exps[0] == pytest.approx(0.9056, rel=0.05)
    # trace identity: sum of exponents ~ average divergence -(sigma+1+beta)
    div = -(10.0 + 1.0 + 8.0 / 3.0)
    assert np.sum(exps) == pytest.approx(div, rel=0.01)


def test_rescale_into_ball_properties():
    lor = lorenz_field()
    tgt = rescale_into_ball(lor, ball_radius=1.0, seed=1)
    assert tgt.grad_bound() < 1.0
    assert tgt.inward_on_boundary()
    # conjugacy round-trip: mapped orbits match raw orbits
    c = np.array(tgt.affine["center"])
    s = tgt.affine["scale"]
    tau = tgt.affine["tau"]
    x = np.array([2.0, 3.0, 15.0])
    y = (x - c) / s
    # dY/dtau = tau/s * Q(c + s y): check the field identity inside the ball
    lhs = tgt.bare(y)
    rhs = (tau / s) * lor.bare(c + s * y)
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_realize_contraction_end_to_end(K9, kset3):
    target = contraction_field(3, rate=1.0)
    rep = realize_target(target, K9, kset3, xi=1e-2, horizon=20.0,
                         with_lyapunov=False, seed=4)
    assert rep.sup_error < 1e-2
    assert rep.manifold["sup"] < 0.5


def test_field_discrepancy_ladder(K9, kset3):
    lor = lorenz_field()
    tgt = rescale_into_ball(lor, ball_radius=1.0, seed=1)
    cs = []
    for xi in (4e-3, 1e-3):
        sysd = build_fast_slow(tgt, K9, kset3, xi=xi)
        y0 = np.array([0.05, 0.02, 0.1])
        x0 = np.zeros(kset3.N)
        x0[:3] = y0
        x0[3:] = xi * sysd.kt1(y0)
        traj = integrate(sysd, x0, (0.0, 30.0), method="imex", dt=1e-3)
        err = empirical_field_error(traj, sysd, tgt)
        cs.append(err / np.sqrt(xi))
    # C0 discrepancy bounded by c sqrt(xi) with c stable along the ladder
    assert cs[1] < 4.0 * cs[0] + 1e-6
