import numpy as np
import pytest
from scipy.integrate import trapezoid

from obrealize import extended_set
from obrealize.grid import make_grid
from obrealize.reduction import (FourierProfileSet, asymptotic_basis,
                                 asymptotic_profiles, compute_K, compute_M,
                                 compute_f, eta_for_f, numeric_basis,
                                 zeta_profiles)
from obrealize.spectral import ModeBasis


def test_asymptotic_profile_wall_conditions(params50):
    g = make_grid(params50.h, 200, 3.0)
    psi, dpsi, theta, thetastar, dthetastar = asymptotic_profiles(3, params50, g)
    assert psi[0] == 0.0
    # Psi'(0) = 0 and Theta*'(0) = 1 for the unit-slope convention, in the
    # closed-form slopes and in the spectral derivative
    assert dpsi[0] == 0.0 and dthetastar[0] == 1.0
    assert abs((g.diff @ psi)[0]) < 1e-9
    assert thetastar[0] == 0.0
    assert (g.diff @ thetastar)[0] == pytest.approx(1.0, rel=1e-9)
    assert np.max(np.abs(g.diff @ psi - dpsi)) < 1e-8 * np.max(np.abs(dpsi))


def test_zeta_closed_forms(basis50):
    """zeta and zeta~ against the expanded kernels
    y^2[(kj+2ki) + 2ki^2 y - 2ki^2 kj y^2] e^{-(ki+kj)y} and
    y^2[(kj-2ki) + 2ki(kj-ki) y] e^{-(ki+kj)y} (amplitudes fitted)."""
    g = basis50.grid
    y = g.nodes
    i, j = 0, 1
    ki, kj = basis50.wavenumbers[i], basis50.wavenumbers[j]
    zeta, zeta_t = (z[i, j] for z in zeta_profiles(basis50))
    eta = y**2 * ((kj + 2 * ki) + 2 * ki**2 * y
                  - 2 * ki**2 * kj * y**2) * np.exp(-(ki + kj) * y)
    eta_t = y**2 * ((kj - 2 * ki) + 2 * ki * (kj - ki) * y) * np.exp(-(ki + kj) * y)
    for prof, ref in ((zeta, eta), (zeta_t, eta_t)):
        amp = g.integrate(prof * ref) / g.integrate(ref * ref)
        rel = np.sqrt(g.integrate((prof - amp * ref) ** 2)
                      / g.integrate((amp * ref) ** 2))
        assert rel < 1e-10


def test_zeta_tilde_diagonal_drops_linear_term(basis50):
    # i = j: kj - 2ki = -ki and the y^3 term vanishes
    g = basis50.grid
    y = g.nodes
    zeta_t = zeta_profiles(basis50)[1][0, 0]
    k = basis50.wavenumbers[0]
    ref = y**2 * (-k) * np.exp(-2 * k * y)
    amp = g.integrate(zeta_t * ref) / g.integrate(ref * ref)
    rel = np.sqrt(g.integrate((zeta_t - amp * ref) ** 2)
                  / g.integrate((amp * ref) ** 2))
    assert rel < 1e-10


def test_M_zero_for_zero_u1(basis50):
    M = compute_M(FourierProfileSet(), basis50)
    assert np.all(M == 0.0)


def test_M_zero_for_nonresonant_slots(basis50):
    g = basis50.grid
    u1 = FourierProfileSet({11: np.exp(-g.nodes)})   # 11 never resonates
    M = compute_M(u1, basis50)
    assert np.all(M == 0.0)


def compute_M_2d(u1: FourierProfileSet, basis: ModeBasis, nx: int = 256) -> np.ndarray:
    """Independent 2-D tensor-grid evaluation of <{psi_j, theta*_i}, u1>.

    Trapezoid in x over [0, pi] with the (2/pi) normalization; used as the
    oracle for compute_M.
    """
    g = basis.grid
    m = len(g.nodes)
    x = np.linspace(0.0, np.pi, nx)
    N = basis.size
    u1_xy = np.zeros((nx, m))
    for n, prof in u1.entries.items():
        u1_xy += np.cos(n * x)[:, None] * prof[None, :]
    M = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            ki, kj = basis.wavenumbers[i], basis.wavenumbers[j]
            # {psi_j, theta*_i} = k_j Psi_j dTheta*_i cos(k_j x)cos(k_i x)
            #                    + k_i dPsi_j Theta*_i sin(k_j x)sin(k_i x)
            fy1 = kj * basis.psi[j] * basis.dthetastar[i]
            fy2 = ki * basis.dpsi[j] * basis.thetastar[i]
            fx1 = np.cos(kj * x) * np.cos(ki * x)
            fx2 = np.sin(kj * x) * np.sin(ki * x)
            integrand = fx1[:, None] * fy1[None, :] + fx2[:, None] * fy2[None, :]
            integrand = integrand * u1_xy
            ix = trapezoid(integrand, x, axis=0)
            M[i, j] = (2.0 / np.pi) * g.integrate(ix)
    return M


def test_M_matches_2d_oracle(basis50):
    rng = np.random.default_rng(7)
    g = basis50.grid
    y = g.nodes
    u1 = FourierProfileSet()
    for n in (2, 6, 8, 0):
        u1[n] = np.exp(-0.5 * y) * (1.0 + 0.3 * np.sin(n + y)) * y
    M1 = compute_M(u1, basis50)
    M2 = compute_M_2d(u1, basis50)
    assert np.max(np.abs(M1 - M2)) < 1e-6 * max(np.max(np.abs(M2)), 1e-300)


def test_M_bilinearity(basis50):
    g = basis50.grid
    y = g.nodes
    u6 = np.exp(-y) * y**2
    v8 = np.exp(-2 * y) * y
    a, b = 0.7, -1.3
    Mu = compute_M(FourierProfileSet({6: u6}), basis50)
    Mv = compute_M(FourierProfileSet({8: v8}), basis50)
    Mw = compute_M(FourierProfileSet({6: a * u6, 8: b * v8}), basis50)
    assert np.allclose(Mw, a * Mu + b * Mv, rtol=1e-12, atol=1e-14)


def test_K_resonance_structure(basis50, kset2):
    K, info = compute_K(basis50, 50.0**10)
    assert info["sparsity_ok"]
    assert info["max_nonresonant"] <= 1e-3 * info["max_resonant"]
    # sign pattern over unordered base pairs matches sign(kj - 5 kl) up to
    # one global sign (kj <= kl makes the reference all-negative)
    signs = []
    refs = []
    for (j, l) in [(0, 0), (0, 1), (1, 1)]:
        i = kset2.index_of_sum(j, l)
        signs.append(np.sign(K[i, j, l]))
        refs.append(np.sign(kset2.base[j] - 5 * kset2.base[l]))
    signs = np.array(signs)
    refs = np.array(refs)
    assert np.all(signs == refs) or np.all(signs == -refs)


def test_K_symmetrized(basis50):
    K, _ = compute_K(basis50, 50.0**10)
    assert np.allclose(K, np.swapaxes(K, 1, 2), atol=1e-15)


def test_K_quadrature_convergence(params50, kset2):
    vals = []
    for n in (240, 480):
        g = make_grid(params50.h, n, 4.0)
        basis = asymptotic_basis(kset2.full, params50, g)
        K, _ = compute_K(basis, params50.nu)
        vals.append(K)
    denom = np.max(np.abs(vals[1]))
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-8 * denom


def test_bracket_parts_identity(basis50):
    """<{psi_j, theta_l}, theta*_i> = -<{psi_j, theta*_i}, theta_l>: the
    integration-by-parts sign relating the two K conventions, verified by
    independent 2-D quadrature."""
    g = basis50.grid
    y = g.nodes
    nx = 400
    x = np.linspace(0.0, np.pi, nx)
    i, j, l = 3, 0, 1      # resonant: k_i = 8 = 1 + 7
    ki, kj, kl = (basis50.wavenumbers[m] for m in (i, j, l))
    Dy = g.diff
    th_l = basis50.theta[l]
    dth_l = Dy @ th_l
    ts_i = basis50.thetastar[i]
    dts_i = basis50.dthetastar[i]
    psi_j, dpsi_j = basis50.psi[j], basis50.dpsi[j]

    def inner(fy1, fx1, fy2, fx2, gy, gxk):
        # (2/pi) int ( fx1 fy1 + fx2 fy2 ) * gy cos(gxk x) dx dy
        ix = trapezoid((fx1[:, None] * fy1[None, :] + fx2[:, None] * fy2[None, :])
                       * (np.cos(gxk * x)[:, None] * gy[None, :]), x, axis=0)
        return (2.0 / np.pi) * g.integrate(ix)

    # {psi_j, theta_l} projected on theta*_i
    lhs = inner(kj * psi_j * dth_l, np.cos(kj * x) * np.cos(kl * x),
                kl * dpsi_j * th_l, np.sin(kj * x) * np.sin(kl * x),
                ts_i, ki)
    # {psi_j, theta*_i} projected on theta_l
    rhs = inner(kj * psi_j * dts_i, np.cos(kj * x) * np.cos(ki * x),
                ki * dpsi_j * ts_i, np.sin(kj * x) * np.sin(ki * x),
                th_l, kl)
    assert lhs == pytest.approx(-rhs, rel=1e-8)


def test_f_roundtrip(basis50):
    f_target = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    eta = eta_for_f(f_target, basis50)
    f = compute_f(eta, basis50)
    assert np.allclose(f, f_target, atol=1e-8)
    rng = np.random.default_rng(3)
    f2 = rng.standard_normal(5)
    assert np.allclose(compute_f(eta_for_f(f2, basis50), basis50), f2, atol=1e-8)


def test_f_zero(basis50):
    assert np.all(compute_f(FourierProfileSet(), basis50) == 0.0)


# Per-entry loop oracles: each quadrature integrates the same elementwise
# products, one (i, j) or (i, j, l) at a time, with the same weights; the
# array code must agree with them bit for bit, which pins numpy's summation
# order over the last axis of an (..., m) array to that of a single row.

def _loop_slots(i, j, basis):
    ki, kj = basis.wavenumbers[i], basis.wavenumbers[j]
    stream = kj * basis.psi[j] * basis.dthetastar[i]
    slope = ki * basis.dpsi[j] * basis.thetastar[i]
    dif = abs(ki - kj)
    return ((ki + kj, 0.5, stream - slope),
            (dif, 1.0 if dif == 0 else 0.5, stream + slope))


def _loop_M(u1, basis):
    N, g = basis.size, basis.grid
    zero = np.zeros(len(g.nodes))
    M = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            M[i, j] = sum(w * g.integrate(kern * u1.entries.get(n, zero))
                          for n, w, kern in _loop_slots(i, j, basis))
    return M


def _loop_K(basis):
    N, g = basis.size, basis.grid
    K = np.zeros((N, N, N))
    for i in range(N):
        for j in range(N):
            for n, w, kern in _loop_slots(i, j, basis):
                for l in range(N):
                    if basis.wavenumbers[l] == n:
                        K[i, j, l] += w * g.integrate(kern * basis.theta[l])
    return -0.5 * (K + np.swapaxes(K, 1, 2))


def _loop_f(eta1, basis):
    g = basis.grid
    return np.array([g.integrate(basis.thetastar[i] * eta1.entries[k])
                     for i, k in enumerate(basis.wavenumbers)])


@pytest.fixture(scope="module")
def basis50_p3(params50):
    return asymptotic_basis(extended_set(3).full, params50,
                            make_grid(params50.h, 300, 4.0))


@pytest.mark.parametrize("name", ["basis50", "basis50_p3"])
def test_quadratures_match_loop_oracles(name, request):
    basis = request.getfixturevalue(name)
    y = basis.grid.nodes
    rng = np.random.default_rng(11)
    # every slot up to 2 max k, u_0 included, but every third one missing
    u1 = FourierProfileSet({n: rng.standard_normal() * y * np.exp(-0.2 * n * y)
                            for n in range(2 * max(basis.wavenumbers) + 1)
                            if n % 3 != 1})
    eta1 = FourierProfileSet({k: rng.standard_normal() * y**2 * np.exp(-k * y)
                              for k in basis.wavenumbers})
    M, K, f = compute_M(u1, basis), compute_K(basis, 50.0**10)[0], compute_f(eta1, basis)
    assert np.abs(M).max() > 0 and np.abs(K).max() > 0 and np.abs(f).min() > 0
    assert np.array_equal(M, _loop_M(u1, basis))
    assert np.array_equal(K, _loop_K(basis))
    assert np.array_equal(f, _loop_f(eta1, basis))


def test_numeric_basis_assembles_once(profile30, grid30, monkeypatch):
    """One pencil (and so one Schur reduction) and one eigendecomposition
    per wavenumber, np.linalg.eig: the conjugate mode reuses the direct
    one's eigenvalue, and neither eigvals nor scipy's eig runs."""
    import scipy.linalg
    from obrealize import reduction, spectral
    calls = []
    solves = []

    def counted(assemble):
        def wrapper(k, profile, grid):
            calls.append(k)
            return assemble(k, profile, grid)
        return wrapper

    def counted_solve(name, solve):
        def wrapper(*args, **kwargs):
            solves.append(name)
            return solve(*args, **kwargs)
        return wrapper

    for module in (reduction, spectral):
        monkeypatch.setattr(module, "assemble_pencil", counted(module.assemble_pencil))
    for module, prefix in ((np.linalg, "np.linalg"), (scipy.linalg, "scipy.linalg")):
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(module, name, counted_solve(f"{prefix}.{name}",
                                                            getattr(module, name)))
    numeric_basis((1, 2), profile30, grid30)
    assert sorted(calls) == [1, 2]
    assert solves == ["np.linalg.eig", "np.linalg.eig"]
    assert not hasattr(spectral, "eig")


def test_numeric_basis_pool_matches_serial(profile30, grid30, monkeypatch):
    """The wavenumbers on every core give the serial basis bit for bit."""
    from obrealize import extended_set, reduction

    ks = extended_set(2).full
    pooled = numeric_basis(ks, profile30, grid30)
    monkeypatch.setattr(reduction, "_map_cores", map)
    serial = numeric_basis(ks, profile30, grid30)
    assert pooled.wavenumbers == serial.wavenumbers == ks
    for name in ("psi", "dpsi", "theta", "thetastar", "dthetastar", "phi"):
        assert np.array_equal(getattr(pooled, name), getattr(serial, name))
    assert np.array_equal(pooled.pairings(), serial.pairings())


def test_numeric_basis_peak_memory():
    """One pencil per core at b = 112 (m = 561) stays below 70 MB of traced
    peak: 40 MB serial, 45-58 MB on 2 cores.  With (A, B) kept on each
    pencil, two residuals at once reached 78 MB."""
    import tracemalloc
    from obrealize import default_grid, derive_scales, designed_profile, extended_set

    kset = extended_set(2)
    prof = designed_profile(derive_scales(112.0), kset.base)
    grid = default_grid(prof)
    assert len(grid.nodes) == 561
    tracemalloc.start()
    try:
        numeric_basis(kset.full, prof, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70e6


@pytest.mark.xfail(reason="at desk-scale b the leading collocation mode sits "
                          "at lambda = O(-1), far from the critical-mode "
                          "shapes that hold at lambda = 0; see the decisions "
                          "notes", raises=AssertionError, strict=True)
def test_numeric_mode_matches_asymptotic_shape(profile50):
    from obrealize.spectral import default_grid
    g = default_grid(profile50)
    basis = numeric_basis((1,), profile50, g)
    y = g.nodes
    psi = basis.psi[0] / np.max(np.abs(basis.psi[0]))
    ref = y**2 * np.exp(-y)
    ref = ref / np.max(np.abs(ref))
    if psi[np.argmax(np.abs(psi))] * ref[np.argmax(np.abs(ref))] < 0:
        psi = -psi
    assert np.max(np.abs(psi - ref)) < 0.1
