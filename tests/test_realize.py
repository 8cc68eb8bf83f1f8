import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from obrealize.control import extended_set
from obrealize.realize import (QuadraticSystem, RealizeError, TargetField,
                               _etdrk4_coeffs, _etdrk4_step, _phi_functions,
                               _rk4_step, build_fast_slow, contraction_field,
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
    lead = (np.einsum("ijl,j,l->i", K1, Y, Y) + system.M[:p, :p] @ Y
            + system.xi * system.M[:p, p:] @ system.kt1(Y) + system.f[:p])
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
    assert np.max(np.abs(sysd.xi * sysd.M[:3, 3:])) < 1e-12


def test_integrator_constant_and_linear(kset3):
    N = kset3.N
    sys0 = QuadraticSystem(p=3, K=np.zeros((N, N, N)), M=np.zeros((N, N)),
                           f=np.zeros(N), xi=1.0)
    x0 = np.arange(1.0, N + 1.0)
    traj = integrate(sys0, x0, (0.0, 2.0), method="dopri")
    assert np.allclose(traj.X[-1], x0, atol=1e-12)
    # dX/dt = -X decays exactly
    sys1 = QuadraticSystem(p=3, K=np.zeros((N, N, N)), M=-np.eye(N),
                           f=np.zeros(N), xi=1.0)
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


@pytest.mark.parametrize("R, f, match", [
    (np.eye(3), np.zeros(2), "R must be p x p"),
    (np.eye(2), np.zeros(3), "f must have length p"),
])
def test_target_field_rejects_mismatched_R_and_f(R, f, match):
    with pytest.raises(RealizeError, match=match):
        TargetField(p=2, D=np.zeros((2, 2, 2)), R=R, f=f)


def _squaring_system(kset3):
    """dX0/dt = X0^2 on the p = 3 extended set, everything else at rest."""
    N = kset3.N
    K = np.zeros((N, N, N))
    K[0, 0, 0] = 1.0
    return QuadraticSystem(p=3, K=K, M=np.zeros((N, N)), f=np.zeros(N), xi=1.0)


def test_blowup_detection(kset3):
    x0 = np.zeros(kset3.N)
    x0[0] = 5.0
    with pytest.raises(RealizeError):
        integrate(_squaring_system(kset3), x0, (0.0, 10.0), method="dopri",
                  blowup_radius=20.0)


@pytest.mark.parametrize("dt, t_escape", [(1e-3, "0.151"), (5e-3, "0.155"),
                                          (7e-3, "0.154")])
def test_etdrk4_blowup_reported_at_its_first_step(kset3, dt, t_escape):
    # X0 = 5/(1 - 5t) passes 20 at t = 0.15; the escape is checked once per
    # block of steps, and names the first step past the radius, as a check
    # on every step would
    sysu = _squaring_system(kset3)
    x0 = np.zeros(kset3.N)
    x0[0] = 5.0
    with pytest.raises(RealizeError, match=rf"blow-up at t={t_escape}$"):
        integrate(sysu, x0, (0.0, 10.0), method="imex", dt=dt,
                  blowup_radius=20.0)


def test_etdrk4_non_finite_state_is_a_blowup(kset3):
    # no radius stops dX0/dt = X0^2, so the orbit overflows: the first
    # non-finite state is a blow-up
    x0 = np.zeros(kset3.N)
    x0[0] = 5.0
    with pytest.raises(RealizeError, match=r"blow-up at t=0.203$"):
        integrate(_squaring_system(kset3), x0, (0.0, 1.0), method="imex",
                  dt=1e-3, blowup_radius=np.inf)


@pytest.mark.parametrize("method", ["imex", "dopri"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_rejects_non_finite_start(kset3, method, bad):
    x0 = np.zeros(kset3.N)
    x0[1] = bad
    with pytest.raises(RealizeError, match="x0 must be finite"):
        integrate(_squaring_system(kset3), x0, (0.0, 1.0), method=method)


def test_rk45_rejections_counted_from_its_evaluations(kset3):
    # a fast decay at rate 200 under the max step 1/4 of xi = 1 holds RK45
    # at its stability limit, where it rejects steps
    N = kset3.N
    M = -np.diag(np.r_[np.ones(3), 200.0 * np.ones(N - 3)])
    sysd = QuadraticSystem(p=3, K=np.zeros((N, N, N)), M=M, f=np.zeros(N),
                           xi=1.0)
    calls = 0
    rhs = sysd.rhs

    def counted(x):
        nonlocal calls
        calls += 1
        return rhs(x)

    sysd.rhs = counted
    traj = integrate(sysd, np.ones(N), (0.0, 5.0), method="dopri", tol=1e-6)
    assert traj.rejected > 0
    # two evaluations before the first step, six on each attempted step
    assert 2 + 6 * (traj.steps + traj.rejected) == calls
    assert np.allclose(traj.X[-1, :3], np.exp(-5.0), rtol=1e-5)


@pytest.mark.parametrize("horizon", [12.3456, 0.004])
def test_etdrk4_path_ends_at_t1(kset3, horizon):
    # ETDRK4 is exact in M, so on a linear system the end state is
    # e^{M t1} x0 whatever the step, if the steps add up to t1
    N = kset3.N
    M = -np.diag(np.linspace(0.5, 3.0, N))
    M[0, 1] = 0.7
    sysd = QuadraticSystem(p=3, K=np.zeros((N, N, N)), M=M, f=np.zeros(N),
                           xi=1e-3)
    x0 = np.linspace(1.0, -1.0, N)
    traj = integrate(sysd, x0, (0.0, horizon), method="imex", dt=5e-3)
    assert traj.steps == math.ceil(horizon / 5e-3)
    assert traj.t[-1] == horizon
    assert np.allclose(np.diff(traj.t), horizon / traj.steps, rtol=1e-9)
    assert np.allclose(traj.X[-1], expm(horizon * M) @ x0, rtol=0, atol=1e-12)


def test_field_error_refuses_an_orbit_with_no_tail(K9, kset3):
    # one ETDRK4 step leaves no interior node to difference; the report
    # must not read 0 for a discrepancy it never measured
    with pytest.raises(RealizeError, match="no interior node"):
        realize_target(contraction_field(3), K9, kset3, xi=1e-3,
                       horizon=0.004, with_lyapunov=False)


def test_sup_error_is_measured_at_the_sample_times(K9, kset3, lorenz_target):
    rep = realize_target(lorenz_target, K9, kset3, xi=1e-3,
                         with_lyapunov=False)
    samples = np.linspace(0.0, 50.0, 400)
    y0 = rep.trajectory.X[0, :3]
    ref = solve_ivp(lambda t, y: lorenz_target(y), (0.0, 50.0), y0,
                    method="DOP853", t_eval=samples, rtol=1e-13, atol=1e-15)
    dist = np.linalg.norm(rep.trajectory.sample(samples)[:, :3] - ref.y.T,
                          axis=1)
    assert abs(rep.sup_error - dist.max()) < 1e-8


def test_manifold_residual_ladder(K9, kset3):
    target = TargetField(p=3, D=np.zeros((3, 3, 3)), R=-0.5 * np.eye(3),
                         f=np.zeros(3))
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
    target = TargetField(p=3, D=np.zeros((3, 3, 3)), R=-0.5 * np.eye(3),
                         f=np.zeros(3))
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
    field = contraction_field(3)
    exps, _ = lyapunov(field, np.array([[0.1, 0.05, -0.08], [-0.2, 0.1, 0.03]]),
                       horizon=50.0, dt=1e-2, transient=1.0)
    assert np.allclose(exps, -1.0, atol=1e-3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lyapunov_transient_aligns_frame(seed):
    # distinct rates: over a horizon of 10 the average is this close only
    # if the transient has already turned the random frame onto the axes
    field = TargetField(p=3, D=np.zeros((3, 3, 3)), R=np.diag([-1.0, -2.0, -3.0]),
                        f=np.zeros(3))
    exps, _ = lyapunov(field, np.array([[0.1, 0.05, -0.08], [-0.2, 0.1, 0.03]]),
                       horizon=10.0, dt=1e-2, transient=20.0, seed=seed)
    assert np.allclose(exps, [-1.0, -2.0, -3.0], rtol=0.0, atol=1e-3)


def test_lyapunov_stiff_linear_system():
    # fast rate -1/xi at dt/xi = 20: an explicit step blows the fast
    # coordinates up; the step exact in M does not.  Only the p slow
    # exponents are computed.
    xi = 1e-3
    M = np.diag([-1.0, -2.0] + [-1.0 / xi] * 3)
    sysd = QuadraticSystem(p=2, K=np.zeros((5, 5, 5)), M=M, f=np.zeros(5),
                           xi=xi)
    starts = np.array([[0.1, 0.05, 0.02, -0.01, 0.03],
                       [-0.2, 0.1, 0.0, 0.05, -0.02]])
    args = dict(horizon=10.0, dt=0.02, transient=20.0, seed=0)
    exps, _ = lyapunov(sysd, starts, **args)
    assert np.allclose(exps[:2], [-1.0, -2.0], rtol=0.0, atol=1e-3)
    # the fast block of the tangent frame is carried exactly: the N - p
    # exponents the oracle also computes are -1/xi to rounding
    full = _full_frame_spectrum(sysd, starts, **args)
    assert np.allclose(full[2:], -1.0 / xi, rtol=1e-12, atol=0.0)


def _full_frame_spectrum(system, starts, horizon, dt, transient, seed):
    """Oracle: each start alone, all N tangent columns, QR on every step
    over the orbit's share of the horizon; all N exponents, averaged over
    the orbits."""
    coeffs = _etdrk4_coeffs(system.M, dt)
    rng = np.random.default_rng(seed)
    Q0 = np.linalg.qr(rng.standard_normal((system.N, system.N)))[0]
    nburn, nsteps = int(transient / dt), int(horizon / len(starts) / dt)
    spectra = []
    for x0 in starts:
        x, Q = np.array([x0], dtype=float), Q0[None]
        sums = np.zeros(system.N)
        for i in range(nburn + nsteps):
            x, Q = _etdrk4_step(system, x, coeffs, Q)
            Q, Rm = np.linalg.qr(Q[0])
            Q = Q[None]
            if i >= nburn:
                sums += np.log(np.abs(np.diag(Rm)))
        spectra.append(np.sort(sums / (nsteps * dt))[::-1])
    return np.mean(spectra, axis=0)


def _phi_closed(k, z):
    """phi_k(z) = sum_m z^m / (m + k)!: its series near 0, else its closed form."""
    if abs(z) < 1e-2:
        return sum(z ** m / math.factorial(m + k) for m in range(12))
    e = np.exp(z)
    return [e, (e - 1) / z, (e - 1 - z) / z ** 2, (e - 1 - z - z * z / 2) / z ** 3][k]


def test_phi_functions_match_closed_forms():
    z = np.array([1e-9, -1e-5, 3e-3, -2.0, -500.0])
    for k, block in enumerate(_phi_functions(np.diag(z))):
        assert np.count_nonzero(block - np.diag(np.diag(block))) == 0
        assert np.diag(block) == pytest.approx([_phi_closed(k, v) for v in z],
                                               rel=1e-12, abs=0.0)


def test_etdrk4_error_falls_16x_per_halving():
    # a non-stiff system with a full M, a full K and a forcing, against an
    # independent tight-tolerance reference
    rng = np.random.default_rng(7)
    N, p = 4, 2
    M = rng.standard_normal((N, N)) - 2.0 * np.eye(N)
    sysd = QuadraticSystem(p=p, K=0.5 * rng.standard_normal((N, N, N)), M=M,
                           f=0.3 * rng.standard_normal(N), xi=1.0)
    x0 = 0.5 * rng.standard_normal(N)
    ref = solve_ivp(lambda t, x: sysd.rhs(x), (0.0, 2.0), x0, method="DOP853",
                    rtol=1e-13, atol=1e-15).y[:, -1]
    errs = [np.linalg.norm(integrate(sysd, x0, (0.0, 2.0), method="imex",
                                     dt=dt).X[-1] - ref)
            for dt in (1 / 8, 1 / 16, 1 / 32)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 < coarse / fine < 18.0


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
    sysd = QuadraticSystem(p=p, K=K, M=M, f=f, xi=xi)
    starts = np.array([[0.1, 0.05, 0.02, -0.01, 0.03],
                       [-0.2, 0.1, 0.0, 0.05, -0.02]])
    args = dict(horizon=10.0, dt=0.02, transient=20.0, seed=4)
    exps, _ = lyapunov(sysd, starts, **args)
    assert len(exps) == p
    assert np.allclose(exps, _full_frame_spectrum(sysd, starts, **args)[:p],
                       rtol=1e-9, atol=0.0)


def test_lyapunov_target_exponents_pinned(lorenz_target):
    # the batched RK4 state step and its derivative on the frames, on the
    # blended Lorenz target, bit for bit as the stacked QR and stage
    # Jacobians give it for two orbits past the default transient
    tgt = lorenz_target
    exps, stderr = lyapunov(tgt, np.array([[0.05, 0.02, 0.1], [-0.1, 0.05, 0.0]]),
                            horizon=50.0, dt=0.02)
    assert exps == pytest.approx([0.00032000529337517826, -0.005648148951183028,
                                  -0.18328264703633057], rel=1e-15, abs=0.0)
    assert np.all(np.isfinite(stderr)) and np.all(stderr > 0.0)


def test_lyapunov_rejects_blowup_and_short_horizon(kset3):
    # dX0/dt = X0^2 from X0 = 5 leaves every bound before t = 0.2; the
    # state is checked at each renormalization, not at each step
    blowup = TargetField(p=1, D=np.ones((1, 1, 1)), R=np.zeros((1, 1)),
                         f=np.zeros(1), ball_radius=np.inf)
    x0 = np.zeros((2, kset3.N))
    x0[:, 0] = 5.0
    with np.errstate(all="ignore"):
        for flow, x in ((blowup, np.array([[5.0], [5.0]])),
                        (_squaring_system(kset3), x0)):
            with pytest.raises(RealizeError, match="unbounded"):
                lyapunov(flow, x, horizon=10.0, dt=0.01, transient=0.0)
    # 8 orbits share 0.5 time units: 6 steps each, short of one
    # renormalization of 10 steps
    with pytest.raises(RealizeError, match="horizon"):
        lyapunov(contraction_field(2), np.tile([0.1, 0.0], (8, 1)), horizon=0.5,
                 dt=0.01, transient=0.0)


def test_lyapunov_lorenz_and_trace():
    lor = lorenz_field()
    exps, _ = lyapunov(lor, np.array([[1.0, 1.0, 20.0], [2.0, -1.0, 25.0]]),
                       horizon=500.0, dt=1e-2, transient=20.0, seed=0)
    # classic largest exponent ~ 0.9056
    assert exps[0] == pytest.approx(0.9056, rel=0.05)
    # trace identity: sum of exponents ~ average divergence -(sigma+1+beta)
    div = -(10.0 + 1.0 + 8.0 / 3.0)
    assert np.sum(exps) == pytest.approx(div, rel=0.01)


def test_rescale_into_ball_properties(lorenz_target):
    lor = lorenz_field()
    tgt = lorenz_target
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


@pytest.mark.parametrize("seed, center, scale, tau", [
    (1, [-0.3317390432638323, -0.6459544950746476, 24.833042528792415],
     61.79151947711712, 0.013800789563030899),
    (1234, [-0.015538592326928224, -0.06273751236764902, 24.99344600696745],
     62.0516737977121, 0.013820292381902485),
])
def test_rescale_into_ball_affine_pinned(seed, center, scale, tau):
    # the raw bounding run over its 16 orbits, bit for bit: every realize
    # artifact of the Lorenz preset is computed in this map
    tgt = rescale_into_ball(lorenz_field(), seed=seed)
    assert tgt.affine == {"center": center, "scale": scale, "tau": tau}
    assert tgt.cutoff_on == 0.9


def test_rescale_into_ball_rejects_escaping_field():
    # dX/dt = X^2 blows up at t = 1/X from a positive start X: the largest
    # of seed 0's 16 starts, X = 0.131, near t = 7.6, inside the 32.5 time
    # units each orbit of the bounding run takes
    raw = TargetField(p=1, D=np.ones((1, 1, 1)), R=np.zeros((1, 1)),
                      f=np.zeros(1), ball_radius=np.inf)
    with pytest.raises(RealizeError, match="escaped"):
        rescale_into_ball(raw, seed=0)


def test_one_point_field_matches_batched(lorenz_target):
    # 200 seeded points inside cutoff_on and 200 in the blend shell: each
    # point alone, as a batch of one row, gives its row of the batch to
    # rounding, relative to the row's norm
    W = lorenz_target
    rng = np.random.default_rng(11)
    for lo, hi in ((0.0, W.cutoff_on), (W.cutoff_on, 1.0)):
        q = rng.standard_normal((200, 3))
        q *= (rng.uniform(lo, hi, 200) / np.linalg.norm(q, axis=1))[:, None]
        for f in (W, W.quad):
            batched = f(q)
            diff = np.array([f(y[None])[0] for y in q]) - batched
            assert np.all(np.linalg.norm(diff, axis=1)
                          <= 1e-14 * np.linalg.norm(batched, axis=1))


def _rows_match(batched, lone, rtol=1e-14):
    """Each row of a batched result against the same row computed alone,
    relative to that row's largest entry."""
    for b, l in zip(batched, lone):
        assert np.max(np.abs(b - l)) <= rtol * np.max(np.abs(l))


def test_rk4_step_rows_match_lone_rows(lorenz_target):
    # 8 rows inside cutoff_on and 8 in the blend shell, with their frames:
    # the blend acts per row, so a row steps as it would alone
    W = lorenz_target
    rng = np.random.default_rng(12)
    q = rng.standard_normal((16, 3))
    radii = np.r_[rng.uniform(0.0, W.cutoff_on, 8), rng.uniform(W.cutoff_on, 1.0, 8)]
    q *= (radii / np.linalg.norm(q, axis=1))[:, None]
    Q = np.linalg.qr(rng.standard_normal((16, 3, 3)))[0]
    x, F = _rk4_step(W, q, 0.5, W.jac, Q)
    lone = [_rk4_step(W, q[i:i + 1], 0.5, W.jac, Q[i:i + 1]) for i in range(16)]
    _rows_match(x, [l[0][0] for l in lone])
    _rows_match(F, [l[1][0] for l in lone])
    _rows_match(_rk4_step(W, q, 0.5), [_rk4_step(W, y[None], 0.5)[0] for y in q])


def test_etdrk4_step_rows_match_lone_rows(K9, kset3, lorenz_target):
    sysd = build_fast_slow(lorenz_target, K9, kset3, xi=1e-3)
    coeffs = _etdrk4_coeffs(sysd.M, 0.5)
    rng = np.random.default_rng(13)
    X = 0.3 * rng.standard_normal((16, kset3.N))
    Q = np.linalg.qr(rng.standard_normal((16, kset3.N, 3)))[0]
    x, F = _etdrk4_step(sysd, X, coeffs, Q)
    lone = [_etdrk4_step(sysd, X[i:i + 1], coeffs, Q[i:i + 1]) for i in range(16)]
    _rows_match(x, [l[0][0] for l in lone])
    _rows_match(F, [l[1][0] for l in lone])
    _rows_match(_etdrk4_step(sysd, X, coeffs),
                [_etdrk4_step(sysd, y[None], coeffs)[0] for y in X])


def test_lyapunov_exponents_do_not_depend_on_start_order(lorenz_target):
    rng = np.random.default_rng(14)
    starts = 0.2 * rng.standard_normal((8, 3))
    perm = rng.permutation(8)
    args = dict(horizon=8 * 100.0, dt=0.5, transient=50.0, seed=3)
    exps, err = lyapunov(lorenz_target, starts, **args)
    exps_p, err_p = lyapunov(lorenz_target, starts[perm], **args)
    assert exps_p == pytest.approx(exps, rel=1e-12, abs=1e-15)
    assert err_p == pytest.approx(err, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("starts, match", [
    (np.array([[0.1, 0.0], [np.nan, 0.0]]), "starts must be finite"),
    (np.array([[0.1, np.inf], [0.2, 0.0]]), "starts must be finite"),
    (np.array([[0.1, 0.0]]), "B >= 2 starts"),
    (np.array([0.1, 0.0]), "B >= 2 starts"),
])
def test_lyapunov_rejects_bad_starts(starts, match):
    with pytest.raises(RealizeError, match=match):
        lyapunov(contraction_field(2), starts, horizon=10.0, dt=0.01,
                 transient=0.0)


def test_lyapunov_rejects_a_per_orbit_horizon_with_no_renormalization():
    # 2 orbits over a horizon of 0.19 run 9 steps each at dt = 0.01, short of
    # the 10 a renormalization takes; a horizon of 0.2 gives each one
    with pytest.raises(RealizeError, match=r"horizon 0\.19 over 2 orbits"):
        lyapunov(contraction_field(2), np.array([[0.1, 0.0], [0.0, 0.1]]),
                 horizon=0.19, dt=0.01, transient=0.0)
    exps, _ = lyapunov(contraction_field(2), np.array([[0.1, 0.0], [0.0, 0.1]]),
                       horizon=0.2, dt=0.01, transient=0.0)
    assert np.allclose(exps, -1.0, atol=1e-6)


def _inward_by_loop(field):
    """inward_on_boundary's verdict point by point, on its seeded points."""
    rng = np.random.default_rng(0)
    q = rng.standard_normal((10000, field.p))
    q *= field.ball_radius / np.linalg.norm(q, axis=1)[:, None]
    return all(float(np.dot(field(qi[None])[0], qi)) < 0.0 for qi in q), q


def test_inward_on_boundary_matches_point_loop(lorenz_target):
    blended = lorenz_target
    assert blended.cutoff_on is not None
    bare = TargetField(p=3, D=blended.D, R=blended.R, f=blended.f,
                       ball_radius=blended.ball_radius)
    # -q + f with f along the first sample point, just long enough to turn
    # the field outward there and nowhere else among the samples
    _, q = _inward_by_loop(contraction_field(3))
    c = np.max(q[1:] @ q[0])
    one_bad = contraction_field(3)
    one_bad.f = 0.5 * (1.0 + 1.0 / c) * q[0]
    assert np.count_nonzero(np.einsum("ni,ni->n", one_bad(q), q) >= 0.0) == 1
    for field, verdict in ((bare, False), (blended, True), (one_bad, False)):
        assert field.inward_on_boundary() is verdict
        assert _inward_by_loop(field)[0] is verdict


def test_blend_jacobian_matches_central_differences(lorenz_target):
    # seeded points in the shell 0.9 R < |Y| < R, where the blend acts, and
    # as many inside it, in one batch: each row of the batched Jacobian
    # against central differences of the batched field; at h = 1e-6 the
    # measured difference error is 7.7e-9 of max|J|
    W = lorenz_target
    rng = np.random.default_rng(3)
    q = rng.standard_normal((100, 3))
    radii = np.r_[rng.uniform(0.9, 1.0, 50), rng.uniform(0.0, 0.9, 50)]
    q *= (radii / np.linalg.norm(q, axis=1))[:, None]
    h = 1e-6
    fd = np.stack([(W(q + e) - W(q - e)) / (2 * h) for e in h * np.eye(3)],
                  axis=-1)
    J = W.jac(q)
    assert J.shape == (100, 3, 3)
    for fd_row, J_row in zip(fd, J):
        assert np.max(np.abs(fd_row - J_row)) < 1e-7 * np.max(np.abs(J_row))


def test_realize_contraction_end_to_end(K9, kset3):
    target = contraction_field(3)
    rep = realize_target(target, K9, kset3, xi=1e-2, horizon=20.0,
                         with_lyapunov=False, seed=4)
    assert rep.sup_error < 1e-2
    assert rep.manifold["sup"] < 0.5


def test_field_discrepancy_ladder(K9, kset3, lorenz_target):
    tgt = lorenz_target
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
