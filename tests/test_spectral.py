import numpy as np
import pytest

from obrealize.profile import DesignPolynomial, build_profile
from obrealize.reduction import numeric_basis
from obrealize.spectral import (SpectralError, assemble_pencil, biorthogonalize,
                                default_grid, semigroup_decay,
                                solve_conjugate_modes, solve_modes,
                                spectrum_report)


def test_decoupled_heat_block(params30):
    """With U_y = 0 the temperature block reduces to the Robin Laplacian:
    eigenvalues -(k^2 + rho_m), checked against a bisection oracle for the
    smallest Robin mode."""
    from dataclasses import replace
    from scipy.optimize import brentq
    p = replace(params30, C_U=0.0, Cbar_U=1.0)
    prof = build_profile(p, DesignPolynomial(coeffs=(0.0,)))
    assert float(np.max(np.abs(prof.u_y(np.linspace(0, p.h, 99))))) == 0.0
    grid = default_grid(prof, n=300)
    k = 1
    lam = np.linalg.eigvals(assemble_pencil(k, prof, grid).Ared)
    lead = np.sort(lam.real)[::-1][:3]
    # oracle: smallest rho >= 0 with sqrt(rho) tan/cot matching Robin data:
    # solutions of s cos(s h) (beta ... ) -- use the determinant of the
    # 2x2 boundary system for w = A cos(s y) + B sin(s y)
    beta, beta1, h = p.beta, prof.params.beta1, p.h

    def det(s):
        # w = A cos(sy) + B sin(sy); rows: w'(0) = beta w(0), w'(h) = beta1 w(h)
        return np.linalg.det(np.array([
            [-beta, s],
            [-s * np.sin(s * h) - beta1 * np.cos(s * h),
             s * np.cos(s * h) - beta1 * np.sin(s * h)]]))

    roots = []
    ss = np.linspace(1e-4, 1.0, 4000)
    vals = [det(s) for s in ss]
    for i in range(len(ss) - 1):
        if np.sign(vals[i]) != np.sign(vals[i + 1]):
            roots.append(brentq(det, ss[i], ss[i + 1]))
        if len(roots) >= 3:
            break
    oracle = [-(k * k + r * r) for r in roots]
    assert lead[0] == pytest.approx(oracle[0], abs=2e-6)
    assert lead[1] == pytest.approx(oracle[1], abs=2e-6)


def test_boundary_rows_enforced(profile30, grid30):
    pen = assemble_pencil(2, profile30, grid30)
    m = solve_modes(pen)
    assert m.boundary_residual < 1e-8
    assert m.pencil_residual < 1e-6
    Dy = grid30.diff
    d2 = (Dy @ (Dy @ m.psi))[grid30.i0]
    assert d2 == pytest.approx(2.0, rel=1e-9)


def test_mode_residual_bounds_enforced(profile30, grid30):
    """A pencil whose (A, B) no longer matches its Schur operator fails the
    backward-error bound instead of returning the mode: shifting A by the
    identity moves its eigenvalues by 1, while Ared stays as assembled."""
    pen = assemble_pencil(1, profile30, grid30)
    pen.A = pen.A + np.eye(len(pen.A))
    with pytest.raises(SpectralError, match="backward error"):
        solve_modes(pen)
    # a Robin elimination that no longer holds breaks both modes' wall rows
    pen = assemble_pencil(1, profile30, grid30)
    pen.T = 1.01 * pen.T
    with pytest.raises(SpectralError, match="boundary"):
        solve_conjugate_modes(pen)


def test_conjugate_spectrum_matches_direct(profile30, grid30):
    # one eigendecomposition gives both: the eigenvalues are the same number
    for k in (1, 2, 7):
        pen = assemble_pencil(k, profile30, grid30)
        assert solve_conjugate_modes(pen).lam == solve_modes(pen).lam


def test_conjugate_is_weighted_adjoint_eigenvector(profile30, grid30):
    """W wtilde solves Ared^T u = lambda u on the interior nodes, i.e. wtilde
    is an eigenvector of the quadrature adjoint W^{-1} Ared^T W."""
    for k in (1, 7, 14):
        pen = assemble_pencil(k, profile30, grid30)
        scale = np.linalg.norm(pen.Ared, 2)
        cm = solve_conjugate_modes(pen)
        u = grid30.weights[pen.interior] * cm.wtilde[pen.interior]
        r = pen.Ared.T @ u - cm.lam * u
        assert np.linalg.norm(r) < 1e-12 * scale * np.linalg.norm(u)


def test_conjugate_stream_small(profile30, grid30):
    # || phi || / || wtilde || = O(1/nu)
    cm = solve_conjugate_modes(assemble_pencil(3, profile30, grid30))
    ratio = np.max(np.abs(cm.phi)) / np.max(np.abs(cm.wtilde))
    assert ratio < 1e3 / profile30.params.nu


def test_biorthogonal_numeric_basis(profile30, grid30):
    basis = numeric_basis((1, 2), profile30, grid30)
    assert np.max(np.abs(basis.gram - np.eye(2))) < 1e-8


def test_duplicated_mode_raises(profile30, grid30):
    basis = numeric_basis((1, 2), profile30, grid30)
    basis.wavenumbers = (1, 1)
    basis.psi[1] = basis.psi[0]
    basis.theta[1] = basis.theta[0]
    basis.thetastar[1] = basis.thetastar[0]
    basis.dthetastar[1] = basis.dthetastar[0]
    basis.dpsi[1] = basis.dpsi[0]
    basis.phi = None
    with pytest.raises(SpectralError):
        biorthogonalize(basis)


def test_spectrum_report(profile30):
    p = profile30.params
    rep = spectrum_report([1, 7], 9, p, profile30.poly, profile30,
                          pencil_kmax=4, finite_ks=())
    assert rep.kernel_residual < 1e-6
    assert rep.gap > 0.0
    assert rep.passed
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "k,Re_lambda,Im_lambda,method,in_kernel_set"
    ks = {r.k for r in rep.records}
    assert ks == set(range(1, 10))
    # pencil attempted only for k <= pencil_kmax
    assert all(r.lam_pencil is None for r in rep.records if r.k > 4)


def test_spectrum_report_apriori_bound(profile30):
    from obrealize.scalar import kbar_bound
    p = profile30.params
    kmax = int(kbar_bound(p)) + 3
    rep = spectrum_report([1, 7], kmax, p, profile30.poly, profile30,
                          pencil_kmax=2, finite_ks=())
    # an a-priori-gapped record carries no eigenvalue, and only those do not
    gapped = [r for r in rep.records if r.lam_design is None]
    assert gapped and all(r.k > kbar_bound(p) for r in gapped)
    assert all(r.lam_pencil is None and r.lam_finite is None for r in gapped)
    assert all(r.k <= kbar_bound(p) for r in rep.records if r.lam_design is not None)


def _report_with_leading_lambda(profile, monkeypatch, exc):
    from obrealize.scalar import TransferHierarchy

    def leading_lambda(self):
        raise exc

    monkeypatch.setattr(TransferHierarchy, "leading_lambda", leading_lambda)
    return spectrum_report([1, 7], 2, profile.params, profile.poly, profile,
                           pencil_kmax=0)


def test_spectrum_report_no_finite_root(profile30, monkeypatch):
    from obrealize.scalar import ScalarError
    rep = _report_with_leading_lambda(profile30, monkeypatch,
                                      ScalarError("no separated root"))
    assert [r.lam_finite for r in rep.records] == [None, None]


def test_spectrum_report_hierarchy_fault_propagates(profile30, monkeypatch):
    with pytest.raises(RuntimeError, match="fault"):
        _report_with_leading_lambda(profile30, monkeypatch, RuntimeError("fault"))


def test_spectrum_report_pencil_fault_propagates(profile30, monkeypatch):
    import obrealize.spectral as spectral

    def assemble_pencil(k, profile, grid):
        raise RuntimeError("fault")

    monkeypatch.setattr(spectral, "assemble_pencil", assemble_pencil)
    with pytest.raises(RuntimeError, match="fault") as excinfo:
        spectrum_report([1, 7], 2, profile30.params, profile30.poly, profile30,
                        finite_ks=())
    assert excinfo.type is RuntimeError     # not rewrapped as a SpectralError


def test_spectrum_report_pool_matches_serial(profile30, monkeypatch):
    """The per-k records on every core equal a serial survey bit for bit."""
    import obrealize.spectral as spectral

    def survey():
        return spectrum_report([1, 7], 9, profile30.params, profile30.poly,
                               profile30).records

    pooled = survey()
    monkeypatch.setattr(spectral, "_map_cores", map)
    serial = survey()
    assert [r.k for r in pooled] == list(range(1, 10))
    assert pooled == serial
    assert all(r.lam_pencil is not None and r.lam_finite is not None for r in pooled)


def test_map_cores_order_and_lowest_failure(monkeypatch):
    import time
    import obrealize.spectral as spectral

    monkeypatch.setattr(spectral, "_cores", lambda: 3)
    assert spectral._map_cores(lambda x: (time.sleep(0.002 * (x % 3)), x * x)[1],
                               range(12)) == [x * x for x in range(12)]
    raised = {1: KeyError(1), 2: RuntimeError(2)}

    def fn(x):
        if x == 1:
            time.sleep(0.05)        # the higher item fails first
        if x in raised:
            raise raised[x]
        return x

    with pytest.raises(KeyError) as excinfo:
        spectral._map_cores(fn, range(6))
    assert excinfo.value is raised[1]


def test_map_cores_one_core_starts_no_thread(monkeypatch):
    import threading
    import obrealize.spectral as spectral

    monkeypatch.setattr(spectral, "_cores", lambda: 1)
    threads = spectral._map_cores(lambda x: threading.current_thread(), range(5))
    assert threads == [threading.current_thread()] * 5


def test_cores_without_affinity(monkeypatch):
    import os
    import obrealize.spectral as spectral

    assert spectral._cores() >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert spectral._cores() == (os.cpu_count() or 1)


def test_assemble_pencil_peak_memory():
    """The survey's pencil builds neither the 2m x 2m (A, B) nor a second
    copy of the clamped block system: one assembly at b = 112 (m = 561)
    peaks below 25 MB, where building them took 37.8 MB."""
    import tracemalloc
    from obrealize import derive_scales, designed_profile

    prof = designed_profile(derive_scales(112.0), [1, 7])
    grid = default_grid(prof)
    assert len(grid.nodes) == 561
    tracemalloc.start()
    try:
        assemble_pencil(3, prof, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def test_semigroup_rate_matches_pencil(profile30, grid30):
    pen = assemble_pencil(2, profile30, grid30)
    lead = np.max(np.linalg.eigvals(pen.Ared).real)
    rate, diag = semigroup_decay(pen, horizon=10.0)
    assert abs(rate - lead) <= 0.02 * abs(lead)


@pytest.mark.xfail(reason="at desk-scale b the leading adjoint mode sits at "
                          "lambda = O(-1); the (k y^2 + y)e^{-ky} shape only "
                          "holds for critical modes; see the decisions notes",
                   strict=True)
def test_conjugate_temperature_matches_asymptotic_shape(profile50):
    g = default_grid(profile50)
    cm = solve_conjugate_modes(assemble_pencil(1, profile50, g))
    y = g.nodes
    wt = np.real(cm.wtilde)
    wt = wt / np.max(np.abs(wt))
    ref = (y**2 + y) * np.exp(-y)
    ref = ref / np.max(np.abs(ref))
    if wt[np.argmax(np.abs(wt))] * ref[np.argmax(np.abs(ref))] < 0:
        wt = -wt
    assert np.max(np.abs(wt - ref)) < 0.1


@pytest.mark.xfail(reason="the engineered zeros live in the design (scalar) "
                          "equation; the collocation operator's leading "
                          "eigenvalue at desk-scale b stays O(1) negative, "
                          "so a pencil kernel mode decays over unit time; "
                          "see the decisions notes", strict=True)
def test_kernel_mode_neutral_under_evolution(profile30, grid30):
    pen = assemble_pencil(1, profile30, grid30)
    mode = solve_modes(pen)
    w0 = np.real(mode.w)
    rate, _ = semigroup_decay(pen, horizon=1.0, dt=5e-4, x0=w0,
                              fit_fraction=0.9)
    assert abs(np.expm1(rate * 1.0)) < 1e-4
