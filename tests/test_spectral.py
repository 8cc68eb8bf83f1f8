import numpy as np
import pytest

from obrealize.profile import DesignPolynomial, TemperatureProfile
from obrealize.reduction import numeric_basis
from obrealize.spectral import (SpectralError, _leading_eigenpair, _left_vector,
                                assemble_pencil, biorthogonalize, default_grid,
                                semigroup_decay, solve_conjugate_modes,
                                solve_modes, spectrum_report)


class _FlatProfile(TemperatureProfile):
    """U = 1 and U_y = 0 at the scales' own beta: the temperature block
    decouples from the stream function."""

    def u(self, y):
        return np.ones_like(np.asarray(y, dtype=float))

    def u_y(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))


def test_decoupled_heat_block(params30):
    """With U_y = 0 the temperature block reduces to the Robin Laplacian:
    eigenvalues -(k^2 + rho_m), checked against a bisection oracle for the
    smallest Robin mode."""
    from scipy.optimize import brentq
    prof = _FlatProfile(params=params30, poly=DesignPolynomial(coeffs=(0.0,)))
    assert prof.beta1 == 0.0
    grid = default_grid(prof, n=300)
    k = 1
    lam = np.linalg.eigvals(assemble_pencil(k, prof, grid).Ared)
    lead = np.sort(lam.real)[::-1][:3]
    # oracle: smallest rho >= 0 with sqrt(rho) tan/cot matching Robin data:
    # solutions of s cos(s h) (beta ... ) -- use the determinant of the
    # 2x2 boundary system for w = A cos(s y) + B sin(s y)
    beta, beta1, h = params30.beta, prof.beta1, params30.h

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
    d2 = (Dy @ (Dy @ m.psi))[0]
    assert d2 == pytest.approx(2.0, rel=1e-9)


def _index_array_pencil(k, profile, grid, G):
    """T and Ared rebuilt from explicit index arrays: the walls are found as
    the nodes at y = 0 and y = h, the interior is every other index, the
    blocks are np.ix_ copies and the Robin rows use unit rows np.eye(1, m, i)."""
    y, Dy, params = grid.nodes, grid.diff, profile.params
    m = len(y)
    i0, ih = np.flatnonzero(y == 0.0)[0], np.flatnonzero(y == params.h)[0]
    rows = np.array([i0, ih])
    interior = np.array([i for i in range(m) if i != i0 and i != ih])
    L = grid.d2 - (k * k) * np.eye(m)
    Aop = L - ((k * k) * profile.u_y(y))[:, None] * G
    Bc = np.array([Dy[i0] - params.beta * np.eye(1, m, i0)[0],
                   Dy[ih] - profile.beta1 * np.eye(1, m, ih)[0]])
    T = -np.linalg.solve(Bc[:, rows], Bc[:, interior])
    Ared = Aop[np.ix_(interior, interior)] + Aop[np.ix_(interior, rows)] @ T
    return T, Ared


@pytest.mark.parametrize("b", [30.0, 80.0])
def test_wall_slices_match_index_arrays(b):
    """assemble_pencil's wall slices [0, -1] and [1:-1] build T and Ared bit
    for bit as explicit index arrays do."""
    from obrealize import derive_scales, designed_profile
    prof = designed_profile(derive_scales(b), [1, 7])
    grid = default_grid(prof)
    for k in (1, 7, 14):
        pen = assemble_pencil(k, prof, grid)
        T, Ared = _index_array_pencil(k, prof, grid, pen.G)
        assert np.array_equal(pen.T, T)
        assert np.array_equal(pen.Ared, Ared)


def test_mode_residual_bounds_enforced(profile30, grid30):
    """A pencil whose (A, B) no longer matches its Schur operator fails the
    backward-error bound instead of returning the mode: shifting Ared by the
    identity moves its eigenvalues by 1, while (A, B) stays as assembled."""
    pen = assemble_pencil(1, profile30, grid30)
    pen.Ared = pen.Ared + np.eye(len(pen.Ared))
    with pytest.raises(SpectralError, match="backward error"):
        solve_modes(pen)
    # a Robin elimination that no longer holds breaks the adjoint's wall
    # rows; the direct mode is taken before, so the adjoint's bound fails
    pen = assemble_pencil(1, profile30, grid30)
    mode = solve_modes(pen)
    pen.T = 1.01 * pen.T
    with pytest.raises(SpectralError, match="adjoint mode .* boundary"):
        solve_conjugate_modes(pen, mode)


def test_conjugate_spectrum_matches_direct(profile30, grid30):
    # one eigendecomposition gives both: the eigenvalues are the same number
    for k in (1, 2, 7):
        pen = assemble_pencil(k, profile30, grid30)
        mode = solve_modes(pen)
        assert solve_conjugate_modes(pen, mode).lam == mode.lam


def test_conjugate_is_weighted_adjoint_eigenvector(profile30, grid30):
    """W wtilde solves Ared^T u = lambda u on the interior nodes, i.e. wtilde
    is an eigenvector of the quadrature adjoint W^{-1} Ared^T W."""
    for k in (1, 7, 14):
        pen = assemble_pencil(k, profile30, grid30)
        scale = np.linalg.norm(pen.Ared, 2)
        cm = solve_conjugate_modes(pen, solve_modes(pen))
        u = grid30.weights[1:-1] * cm.wtilde[1:-1]
        r = pen.Ared.T @ u - cm.lam * u
        assert np.linalg.norm(r) < 1e-12 * scale * np.linalg.norm(u)


def test_conjugate_stream_small(profile30, grid30):
    # || phi || / || wtilde || = O(1/nu)
    pen = assemble_pencil(3, profile30, grid30)
    cm = solve_conjugate_modes(pen, solve_modes(pen))
    ratio = np.max(np.abs(cm.phi)) / np.max(np.abs(cm.wtilde))
    assert ratio < 1e3 / profile30.params.nu


def test_biorthogonal_numeric_basis(profile30, grid30):
    basis = numeric_basis((1, 2), profile30, grid30)
    assert np.max(np.abs(basis.pairings() - 1.0)) < 1e-8


def test_stream_pairing_reads_both_slopes(profile30, grid30):
    """The stream part of <e_i, e*_i> is int psi' phi' + k^2 psi phi dy.
    With phi scaled by 1e15 the psi' phi' term is 8 to 37% of the pairing,
    and biorthogonalize brings the whole sum, taken here row by row, to 1."""
    basis = numeric_basis((1, 2, 7), profile30, grid30)
    basis.phi = 1e15 * np.asarray(basis.phi)
    biorthogonalize(basis)
    w = grid30.weights
    for i, k in enumerate(basis.wavenumbers):
        psi, phi = basis.psi[i], basis.phi[i]
        pair = (np.sum(w * basis.theta[i] * basis.thetastar[i])
                + np.sum(w * (basis.dpsi[i] * (grid30.diff @ phi) + k * k * psi * phi)))
        assert pair == pytest.approx(1.0, rel=1e-12)


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


def test_vanishing_pairing_raises(profile30, grid30):
    basis = numeric_basis((1, 2), profile30, grid30)
    basis.thetastar[1] = 0.0
    basis.phi[1] = 0.0
    with pytest.raises(SpectralError, match="singular Gram"):
        biorthogonalize(basis)


def test_repeated_wavenumber_raises(params50):
    """Two distinct modes labelled with one wavenumber: the x-integral does
    not separate them, so the Gram matrix is not diagonal."""
    from obrealize.grid import make_grid
    from obrealize.reduction import asymptotic_basis

    basis = asymptotic_basis((1, 2), params50, make_grid(params50.h, 300, 4.0))
    basis.wavenumbers = (1, 1)
    with pytest.raises(SpectralError, match="repeated wavenumbers"):
        biorthogonalize(basis)


@pytest.mark.parametrize("kernel, kmax, match", [
    ([1], 1, "no wavenumber outside the kernel"),
    ([1, 7], 1, "inside the survey k = 1..1"),
    ([3], 2, "inside the survey k = 1..2"),
    ([1, 7], 5, "inside the survey k = 1..5"),
])
def test_spectrum_report_names_survey_errors(profile30, kernel, kmax, match):
    """A survey that cannot measure the kernel residual or the gap is
    refused before any solve."""
    with pytest.raises(SpectralError, match=match):
        spectrum_report(kernel, kmax, profile30.params, profile30.poly, profile30,
                        default_grid(profile30), finite_ks=())


def test_spectrum_report(profile30):
    p = profile30.params
    rep = spectrum_report([1, 7], 9, p, profile30.poly, profile30,
                          default_grid(profile30), pencil_kmax=4, finite_ks=())
    assert rep.kernel_residual < 1e-6
    assert rep.gap > 0.0
    assert rep.passed
    ks = {r.k for r in rep.records}
    assert ks == set(range(1, 10))
    # pencil attempted only for k <= pencil_kmax
    assert all(r.lam_pencil is None for r in rep.records if r.k > 4)


def test_spectrum_report_apriori_bound(profile30):
    from obrealize.scalar import kbar_bound
    p = profile30.params
    kmax = int(kbar_bound(p)) + 3
    rep = spectrum_report([1, 7], kmax, p, profile30.poly, profile30,
                          default_grid(profile30), pencil_kmax=2, finite_ks=())
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
    return spectrum_report([1], 2, profile.params, profile.poly, profile,
                           default_grid(profile), pencil_kmax=0)


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
        spectrum_report([1], 2, profile30.params, profile30.poly, profile30,
                        default_grid(profile30), finite_ks=())
    assert excinfo.type is RuntimeError     # not rewrapped as a SpectralError


def test_spectrum_report_pool_matches_serial(profile30, monkeypatch):
    """The per-k records on every core equal a serial survey bit for bit."""
    import obrealize.spectral as spectral

    def survey():
        return spectrum_report([1, 7], 9, profile30.params, profile30.poly,
                               profile30, default_grid(profile30)).records

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


@pytest.mark.parametrize("b", [30.0, 80.0])
def test_stacked_pencil_eigenvalues_match_lone_calls(profile30, b):
    """Each survey pencil eigenvalue, solved in a stack, equals the leading
    value of a one-matrix eigvals call on its Schur operator bit for bit,
    type included."""
    from obrealize import derive_scales, designed_profile

    prof = profile30 if b == 30.0 else designed_profile(derive_scales(b), [1, 7])
    grid = default_grid(prof)
    rep = spectrum_report([1, 7], 21, prof.params, prof.poly, prof, grid=grid,
                          finite_ks=())
    assert [r.k for r in rep.records if r.lam_pencil is not None] == list(range(1, 22))
    for r in rep.records:
        ev = np.linalg.eigvals(assemble_pencil(r.k, prof, grid).Ared)
        lone = ev[np.argmax(ev.real)]
        assert type(r.lam_pencil) is type(lone)
        assert np.asarray(r.lam_pencil).tobytes() == np.asarray(lone).tobytes()


def test_survey_stack_sizes(profile30, grid30, monkeypatch):
    """Two Schur operators a stack at m = 259 and 399 (b = 30, 80), one
    at 559 (b = 112): the fewest whose rows exceed 500."""
    import obrealize.spectral as spectral
    from obrealize import derive_scales

    ms = [len(spectral.scale_grid(derive_scales(b)).nodes) - 2
          for b in (30.0, 80.0, 112.0)]
    assert ms == [259, 399, 559]
    assert [spectral._stack_size(m) for m in ms] == [2, 2, 1]
    shapes = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        shapes.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    monkeypatch.setattr(spectral, "_map_cores", map)
    spectrum_report([1], 5, profile30.params, profile30.poly, profile30,
                    grid=grid30, finite_ks=())
    assert shapes == [(2, 259, 259), (2, 259, 259), (1, 259, 259)]


def _spins_during(call) -> int:
    """How far a pure-Python counting thread gets while call() runs.

    The switch interval is set far above the call's length, so once the
    counter waits for the GIL it runs again only if the call releases it
    (and then keeps it for a whole interval)."""
    import sys
    import threading

    count, stop = [0], [False]

    def spin():
        while not stop[0]:
            count[0] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.25)
    counter = threading.Thread(target=spin)
    try:
        counter.start()
        before = count[0]
        call()
        return count[0] - before
    finally:
        stop[0] = True
        counter.join()
        sys.setswitchinterval(interval)


def test_stacked_eigvals_releases_the_gil(profile30, grid30):
    """numpy's eigvals loop runs a stack of _stack_size(259) Schur
    operators without the GIL and a lone m = 259 one with it: a Python
    thread counts millions of steps beside the stacked call and none
    beside the lone one.  The loop is called as np.linalg.eigvals calls
    it, without the wrapper's finite check, which releases the GIL for a
    moment whatever the stack size."""
    import obrealize.spectral as spectral
    from numpy.linalg import _umath_linalg

    m = len(grid30.nodes) - 2
    stack = np.stack([assemble_pencil(k, profile30, grid30).Ared
                      for k in range(1, spectral._stack_size(m) + 1)])
    assert np.array_equal(_umath_linalg.eigvals(stack, signature="d->D"),
                          np.linalg.eigvals(stack))
    lone = _spins_during(lambda: _umath_linalg.eigvals(stack[0], signature="d->D"))
    stacked = _spins_during(lambda: _umath_linalg.eigvals(stack, signature="d->D"))
    assert stacked > 1000 * (lone + 1), (lone, stacked)


def test_spectrum_report_eigvals_fault_names_the_stack(profile30, grid30, monkeypatch):
    """A LinAlgError of the stacked eigvals call comes out as a
    SpectralError naming the stack's wavenumbers."""
    def eigvals(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    with pytest.raises(SpectralError, match=r"k=1, 2: Eigenvalues did not") as excinfo:
        spectrum_report([1], 4, profile30.params, profile30.poly, profile30,
                        grid=grid30, finite_ks=())
    assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)


def test_spectrum_report_rejects_another_profiles_scales(profile30, params50):
    from obrealize.profile import DesignPolynomial

    with pytest.raises(SpectralError, match="profile's own"):
        spectrum_report([1, 7], 2, params50, profile30.poly, profile30,
                        default_grid(profile30))
    with pytest.raises(SpectralError, match="profile's own"):
        spectrum_report([1, 7], 2, profile30.params,
                        DesignPolynomial(coeffs=(0.0,)), profile30,
                        default_grid(profile30))


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
                   raises=AssertionError, strict=True)
def test_conjugate_temperature_matches_asymptotic_shape(profile50):
    g = default_grid(profile50)
    pen = assemble_pencil(1, profile50, g)
    cm = solve_conjugate_modes(pen, solve_modes(pen))
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
                          "see the decisions notes",
                   raises=AssertionError, strict=True)
def test_kernel_mode_neutral_under_evolution(profile30, grid30):
    pen = assemble_pencil(1, profile30, grid30)
    mode = solve_modes(pen)
    w0 = np.real(mode.w)
    rate, _ = semigroup_decay(pen, horizon=1.0, dt=5e-4, x0=w0,
                              fit_fraction=0.9)
    assert abs(np.expm1(rate * 1.0)) < 1e-4


def test_adjoint_of_complex_leading_pair():
    """The inverse-iteration left vector at a complex rightmost eigenvalue:
    u^H A = lambda u^H to 1e-12 ||A||, unit norm, beside the right vector."""
    rot = np.array([[-0.5, 2.0], [-3.0, -0.5]])     # eigenvalues -0.5 +- i sqrt(6)
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    S = np.zeros((5, 5))
    S[:2, :2] = rot
    S[2:, 2:] = np.diag([-4.0, -7.0, -9.0]) + np.triu(rng.standard_normal((3, 3)), 1)
    S[:2, 2:] = rng.standard_normal((2, 3))
    A = Q @ S @ Q.T
    lam, right = _leading_eigenpair(A)
    left = _left_vector(A, lam)
    scale = np.linalg.norm(A, 2)
    assert lam == pytest.approx(-0.5 + 1j * np.sign(lam.imag) * np.sqrt(6.0), rel=1e-13)
    assert np.linalg.norm(left) == pytest.approx(1.0, rel=1e-14)
    assert np.linalg.norm(left.conj() @ A - lam * left.conj()) <= 1e-12 * scale
    assert np.linalg.norm(A @ right - lam * right) <= 1e-12 * scale


def test_adjoint_at_exactly_singular_shift():
    """An eigenvalue LAPACK returns exactly (a triangular Ared) makes the
    shifted solve exactly singular; the shift is nudged, nothing raises."""
    A = np.array([[1.0, 0.0, 0.0], [2.0, -2.0, 0.0], [0.5, 1.0, -3.0]])
    with pytest.raises(np.linalg.LinAlgError):      # the shift is exact
        np.linalg.solve(A.T - np.eye(3), np.ones(3))
    lam, _ = _leading_eigenpair(A)
    assert lam == 1.0
    left = _left_vector(A, lam)
    assert np.linalg.norm(left @ A - lam * left) <= 1e-12 * np.linalg.norm(A, 2)
