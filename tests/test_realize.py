import numpy as np
import pytest

from obrealize.control import extended_set
from obrealize.realize import (QuadraticSystem, RealizeError, TargetField,
                               build_fast_slow, contraction_field,
                               empirical_field_error, integrate, lorenz_field,
                               lyapunov, manifold_residual, realize_target,
                               reduced_field, rescale_into_ball)


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
    checks = sysd.check_blocks()
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
    exps = lyapunov(field, np.array([0.1, 0.05, -0.08]), horizon=50.0,
                    dt=1e-2, transient=1.0)
    assert np.allclose(exps, -1.0, atol=1e-3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lyapunov_transient_aligns_frame(seed):
    # distinct rates: over a horizon of 10 the average is this close only
    # if the transient has already turned the random frame onto the axes
    field = TargetField(p=3, D=np.zeros((3, 3, 3)), R=np.diag([-1.0, -2.0, -3.0]),
                        f=np.zeros(3))
    exps = lyapunov(field, np.array([0.1, 0.05, -0.08]), horizon=10.0,
                    dt=1e-2, transient=20.0, seed=seed)
    assert np.allclose(exps, [-1.0, -2.0, -3.0], rtol=0.0, atol=1e-3)


def test_lyapunov_stiff_linear_system():
    # fast rate -1/xi at dt/xi = 20: an explicit step blows the fast
    # coordinates up; the step exact on the fast diagonal does not
    xi = 1e-3
    M = np.diag([-1.0, -2.0] + [-1.0 / xi] * 3)
    sysd = QuadraticSystem(N=5, p=2, K=np.zeros((5, 5, 5)), M=M, f=np.zeros(5),
                           xi=xi, T=np.zeros((2, 3)), R=M[:2, :2])
    x0 = np.array([0.1, 0.05, 0.02, -0.01, 0.03])
    exps = lyapunov(sysd, x0, horizon=10.0, dt=0.02, transient=20.0,
                    renorm_every=1)
    assert np.allclose(exps[:2], [-1.0, -2.0], rtol=0.0, atol=1e-3)
    assert np.allclose(exps[2:], -1.0 / xi, rtol=1e-12, atol=0.0)


def test_lyapunov_lorenz_and_trace():
    lor = lorenz_field()
    exps = lyapunov(lor, np.array([1.0, 1.0, 20.0]), horizon=500.0, dt=2e-3,
                    transient=20.0, seed=0)
    # classic largest exponent ~ 0.9056
    assert exps[0] == pytest.approx(0.9056, rel=0.05)
    # trace identity: sum of exponents ~ average divergence -(sigma+1+beta)
    div = -(10.0 + 1.0 + 8.0 / 3.0)
    assert np.sum(exps) == pytest.approx(div, rel=0.01)


def test_rescale_into_ball_properties():
    lor = lorenz_field()
    tgt = rescale_into_ball(lor, ball_radius=1.0, seed=1)
    assert tgt.grad_bound() < 1.0
    assert tgt.inward_on_boundary(n_samples=10000)
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
