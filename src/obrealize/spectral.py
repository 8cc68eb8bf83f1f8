"""Per-wavenumber eigenvalue problem of the linearized convection operator.

For each integer wavenumber k the stream/temperature pair solves

    lambda nu^{-1} L_k psi = L_k^2 psi + k^2 w,
    lambda w           = L_k w + U_y psi,            L_k = D_y^2 - k^2,

with psi clamped at both walls and w Robin (w' = beta w at y=0,
w' = beta1 w at y=h).  The sign of the coupling U_y psi follows the
stream-function form of the linearized equations; see the decisions notes
for the discrepancy with one printed variant.

Solvers: assemble_pencil builds the Schur complement in w of the
collocation pencil with boundary rows (the nu^{-1} block is ~1e-15 of the
rest, so psi is slaved through the clamped biharmonic solve), which avoids
the spurious modes of the singular pencil.  The generalized 2m x 2m pair
(A, B) itself is built only when read, by the backward error.  Every
solver below takes that Pencil.  One left-and-right eigendecomposition of
the Schur operator per wavenumber gives both the leading direct mode
(solve_modes) and its conjugate (adjoint) mode (solve_conjugate_modes),
which therefore share one eigenvalue.  Each mode records its residuals
and is rejected with a SpectralError above their bounds: the direct mode's
componentwise backward error against (A, B) above PENCIL_RESIDUAL_TOL, and
either mode's boundary-row residual above BOUNDARY_RESIDUAL_TOL.

spectrum_report solves its per-k records on every core this process may
use, one whole record per thread; each record runs the same serial code,
so the survey is bit-identical to a one-thread run.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eig, lu_factor, lu_solve

from .grid import Grid, make_grid
from .profile import ScaleParams, TemperatureProfile
from .scalar import (ScalarError, TransferHierarchy, find_root_z, kbar_bound,
                     lambda_from_z)

__all__ = [
    "Pencil",
    "EigenMode",
    "ConjugateMode",
    "ModeBasis",
    "SpectrumReport",
    "assemble_pencil",
    "solve_modes",
    "solve_conjugate_modes",
    "biorthogonalize",
    "spectrum_report",
    "semigroup_decay",
    "default_grid",
    "scale_grid",
    "resolves_layer",
    "SpectralError",
]

# Bounds on the recorded residuals of an accepted mode.  The largest values
# measured on the p = 2, 3 and 4 wavenumber sets at b = 30, 50, 80 and 112
# are 1.3e-11 (backward error) and 5.3e-8 (boundary rows, direct; 4.0e-10
# adjoint), so each bound sits over 10x above them
PENCIL_RESIDUAL_TOL = 1e-9
BOUNDARY_RESIDUAL_TOL = 1e-6


class SpectralError(RuntimeError):
    pass


def default_grid(profile: TemperatureProfile, n: int | None = None) -> Grid:
    return scale_grid(profile.params, n)


def scale_grid(params: ScaleParams, n: int | None = None) -> Grid:
    """The graded grid on [0, h] at these scales, with n = 5b clipped to
    [260, 560] intervals unless n is given."""
    if n is None:
        n = max(260, int(5.0 * params.b))
        n = min(n, 560)
    return make_grid(params.h, n, 5.0)


def resolves_layer(grid: Grid, b: float) -> bool:
    """Whether the node spacing near y = 0 resolves the 1/(4b) layer."""
    return bool(np.min(np.diff(grid.nodes[:8])) <= 0.25 / b)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def _operator(grid: Grid, k: int) -> np.ndarray:
    """L_k = D_y^2 - k^2 at the nodes."""
    return grid.d2 - (k * k) * np.eye(len(grid.nodes))


def _robin_rows(grid: Grid, params: ScaleParams) -> np.ndarray:
    """The w Robin rows w' - beta w at y = 0 and w' - beta1 w at y = h."""
    Dy, m = grid.diff, len(grid.nodes)
    return np.array([Dy[grid.i0] - params.beta * np.eye(1, m, grid.i0)[0],
                     Dy[grid.ih] - params.beta1 * np.eye(1, m, grid.ih)[0]])


def _clamped_biharmonic(grid: Grid, L: np.ndarray) -> np.ndarray:
    """G with psi = G f solving (D^2-k^2)^2 psi = f, clamped ends; L = D^2-k^2.

    The fourth-order solve is split through phi = L_k psi into two
    second-order blocks, which keeps the conditioning at the level of D^2.
    The block system is filled in place in the Fortran order LAPACK
    factors in, and the factorization and the solve overwrite their inputs.
    """
    Dy = grid.diff
    m = len(grid.nodes)
    i0, ih = grid.i0, grid.ih
    A = np.zeros((2 * m, 2 * m), order="F")
    A[:m, :m] = L
    A[:m, m:] = -np.eye(m)
    A[m:, m:] = L
    A[i0, :] = 0.0
    A[i0, i0] = 1.0
    A[ih, :] = 0.0
    A[ih, ih] = 1.0
    A[m + i0, :] = 0.0
    A[m + i0, :m] = Dy[i0]
    A[m + ih, :] = 0.0
    A[m + ih, :m] = Dy[ih]
    rhs = np.zeros((2 * m, m), order="F")
    rhs[m:, :] = np.eye(m)
    rhs[[i0, ih, m + i0, m + ih], :] = 0.0
    return lu_solve(lu_factor(A, overwrite_a=True), rhs, overwrite_b=True)[:m]


@dataclass
class Pencil:
    """Generalized eigenpair data lambda B v = A v over stacked (psi, w).

    Ared is the reduced standard eigenproblem in the interior w unknowns:
    psi is slaved through the clamped biharmonic G (the nu^{-1} mass block
    is negligible at nu = b^10), and the two Robin rows eliminate the
    boundary values w[rows] = T @ w[interior].  The 2m x 2m pair (A, B)
    is built on first read: only the backward error reads it.
    """

    k: int
    grid: Grid = field(repr=False)
    profile: TemperatureProfile = field(repr=False)
    uy: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    Ared: np.ndarray = field(repr=False)
    interior: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    T: np.ndarray = field(repr=False)

    @property
    def _boundary_rows(self) -> list[int]:
        """Rows of (A, B) replaced by boundary conditions: psi values at
        both ends, psi slopes on the adjacent rows, the w Robin rows."""
        m, i0, ih = len(self.grid.nodes), self.grid.i0, self.grid.ih
        return [i0, ih, 1, m - 2, m + i0, m + ih]

    @cached_property
    def A(self) -> np.ndarray:
        """The collocation operator with its boundary rows."""
        g, k = self.grid, self.k
        Dy, m = g.diff, len(g.nodes)
        L = _operator(g, k)
        A = np.block([[L @ L, (k * k) * np.eye(m)], [np.diag(self.uy), L]])
        A[self._boundary_rows, :] = 0.0
        A[g.i0, g.i0] = A[g.ih, g.ih] = 1.0
        A[1, :m] = Dy[g.i0]
        A[m - 2, :m] = Dy[g.ih]
        A[m + self.rows, m:] = _robin_rows(g, self.profile.params)
        return A

    @cached_property
    def B(self) -> np.ndarray:
        """The mass operator, zero on the boundary rows."""
        m = len(self.grid.nodes)
        zero = np.zeros((m, m))
        B = np.block([[_operator(self.grid, self.k) / self.profile.params.nu, zero],
                      [zero, np.eye(m)]])
        B[self._boundary_rows, :] = 0.0
        return B

    def residual(self, lam: complex, v: np.ndarray) -> float:
        """Componentwise backward error of the eigenpair.

        Per-row normalization keeps the metric meaningful despite the
        wildly different scales of the fourth-order rows.
        """
        r = self.A @ v - lam * (self.B @ v)
        denom = (np.abs(self.A) @ np.abs(v)
                 + abs(lam) * (np.abs(self.B) @ np.abs(v)))
        # rows whose natural magnitude is negligible (satisfied boundary
        # rows) are measured against the dominant row scale
        denom = np.maximum(denom, 1e-10 * np.max(denom))
        return float(np.max(np.abs(r) / denom))

    @cached_property
    def leading(self):
        """(lambda, right, left) eigentriple of Ared with the largest Re
        lambda, from one eigendecomposition; u^H Ared = lambda u^H for left.
        The vectors are copied out, so the full eigenvector matrices are
        not kept."""
        lam, vl, vr = eig(self.Ared, left=True, right=True)
        j = np.argsort(-lam.real)[0]
        return lam[j], vr[:, j].copy(), vl[:, j].copy()

    def lift(self, vec: np.ndarray) -> np.ndarray:
        """Full w profile from its interior values through the Robin rows."""
        w = np.zeros(len(self.grid.nodes), dtype=vec.dtype)
        w[self.interior] = vec
        w[self.rows] = self.T @ vec
        return w


def assemble_pencil(k: int, profile: TemperatureProfile, grid: Grid) -> Pencil:
    """The Schur operator of the clamped/Robin collocation pencil."""
    if k < 1:
        raise SpectralError("wavenumber must be a positive integer")
    p = profile.params
    y = grid.nodes
    if not resolves_layer(grid, p.b):
        raise SpectralError("grid too coarse for the boundary layer; "
                            "node spacing near y=0 must resolve 1/(4b)")
    m = len(y)
    L = _operator(grid, k)
    uy = profile.u_y(y)
    G = _clamped_biharmonic(grid, L)
    i0, ih = grid.i0, grid.ih
    # Schur operator: k^2 scales uy first, then G (the product order sets
    # Ared's rounding)
    Aop = L - ((k * k) * uy)[:, None] * G
    rows = np.array([i0, ih])
    interior = np.array([i for i in range(m) if i != i0 and i != ih])
    Bc = _robin_rows(grid, p)
    T = -np.linalg.solve(Bc[:, rows], Bc[:, interior])
    Ared = Aop[np.ix_(interior, interior)] + Aop[np.ix_(interior, rows)] @ T
    return Pencil(k=k, grid=grid, profile=profile, uy=uy, G=G,
                  Ared=Ared, interior=interior, rows=rows, T=T)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

@dataclass
class EigenMode:
    k: int
    lam: complex
    psi: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    boundary_residual: float = 0.0
    pencil_residual: float = 0.0


@dataclass
class ConjugateMode:
    k: int
    lam: complex
    phi: np.ndarray = field(repr=False)
    wtilde: np.ndarray = field(repr=False)
    boundary_residual: float = 0.0


def _boundary_residual(mode_psi, mode_w, grid: Grid, params) -> float:
    Dy = grid.diff
    i0, ih = grid.i0, grid.ih
    sp = np.max(np.abs(mode_psi)) or 1.0
    sw = np.max(np.abs(mode_w)) or 1.0
    res = [abs(mode_psi[i0]) / sp, abs(mode_psi[ih]) / sp,
           abs((Dy @ mode_psi)[i0]) / sp, abs((Dy @ mode_psi)[ih]) / sp,
           abs((Dy @ mode_w)[i0] - params.beta * mode_w[i0]) / sw,
           abs((Dy @ mode_w)[ih] - params.beta1 * mode_w[ih]) / sw]
    return float(max(res))


def solve_modes(pencil: Pencil) -> EigenMode:
    """Leading eigenpair, scaled to psi''(0) = 2 (max |w| = 1 where psi''(0)
    vanishes).

    Raises SpectralError when its backward error against the assembled
    (A, B) pencil exceeds PENCIL_RESIDUAL_TOL or its boundary-row residual
    exceeds BOUNDARY_RESIDUAL_TOL.
    """
    k = pencil.k
    grid = pencil.grid
    Dy = grid.diff
    lam, right, _ = pencil.leading
    w = pencil.lift(right)
    psi = -(k * k) * (pencil.G @ w)
    d2psi0 = (Dy @ (Dy @ psi))[grid.i0]
    if abs(d2psi0) > 1e-8 * np.max(np.abs(psi)):
        scalef = 2.0 / d2psi0
    else:
        scalef = 1.0 / np.max(np.abs(w))
    psi = psi * scalef
    w = w * scalef
    mode = EigenMode(k=k, lam=lam, psi=psi, w=w,
                     boundary_residual=_boundary_residual(
                         psi, w, grid, pencil.profile.params),
                     pencil_residual=pencil.residual(
                         lam, np.concatenate([psi, w])))
    if (mode.pencil_residual > PENCIL_RESIDUAL_TOL
            or mode.boundary_residual > BOUNDARY_RESIDUAL_TOL):
        raise SpectralError(
            f"mode at k={k}, lambda={lam:.6g} fails its residual bounds: "
            f"backward error {mode.pencil_residual:.2e}, "
            f"boundary residual {mode.boundary_residual:.2e}")
    return mode


def solve_conjugate_modes(pencil: Pencil) -> ConjugateMode:
    """Adjoint mode (phi, wtilde) at the leading eigenvalue.

    The adjoint of the Schur operator with respect to the quadrature inner
    product is W^{-1} A^T W, whose eigenvectors are W^{-1} u for the
    eigenvectors u of A^T, i.e. the conjugated left eigenvectors of A; they
    are the conjugate temperature profiles.  Their boundary values satisfy
    the same Robin rows (the adjoint BCs coincide for this Robin pair), so
    they lift through the direct elimination T.  Raises SpectralError when
    the boundary-row residual exceeds BOUNDARY_RESIDUAL_TOL.
    """
    k = pencil.k
    grid = pencil.grid
    p = pencil.profile.params
    lam, _, left = pencil.leading
    wt = pencil.lift(np.conj(left) / grid.weights[pencil.interior])
    i0 = grid.i0
    if abs(wt[i0]) > 1e-10 * np.max(np.abs(wt)):
        wt = wt / wt[i0]
    # conjugate stream part through the clamped solve (the residual
    # division (lam - L_k) wt / nu is cancellation-limited):
    # nu phi = k^2 phihat with L_k^2 phihat = -U_y wtilde
    phi = -(k * k / p.nu) * (pencil.G @ (pencil.uy * wt))
    mode = ConjugateMode(k=k, lam=lam, phi=phi, wtilde=wt,
                         boundary_residual=_boundary_residual(phi, wt, grid, p))
    if mode.boundary_residual > BOUNDARY_RESIDUAL_TOL:
        raise SpectralError(
            f"adjoint mode at k={k}, lambda={lam:.6g} fails its boundary "
            f"bound: residual {mode.boundary_residual:.2e}")
    return mode


# ---------------------------------------------------------------------------
# biorthogonal basis
# ---------------------------------------------------------------------------

@dataclass
class ModeBasis:
    """Direct and conjugate mode families over a wavenumber set.

    Profile arrays are sampled on the shared grid; dpsi/dthetastar are the
    y-derivatives used by the reduction quadratures.  The x-dependence is
    sin(kx) for stream parts and cos(kx) for temperature parts, with inner
    product normalized so matched cosines pair to the plain y-integral.
    """

    wavenumbers: tuple[int, ...]
    grid: Grid
    psi: list[np.ndarray]
    dpsi: list[np.ndarray]
    theta: list[np.ndarray]
    thetastar: list[np.ndarray]
    dthetastar: list[np.ndarray]
    phi: list[np.ndarray] | None = None
    gram: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.wavenumbers)

    def pairing(self, j: int, i: int) -> float:
        """<e_j, e*_i> with Fourier orthogonality in x built in."""
        if self.wavenumbers[j] != self.wavenumbers[i]:
            return 0.0
        g = self.grid
        val = g.integrate(self.theta[j] * self.thetastar[i])
        if self.phi is not None:
            k = self.wavenumbers[j]
            val += g.integrate(self.dpsi[j] * g.diff @ self.phi[i]
                               + k * k * self.psi[j] * self.phi[i])
        return float(np.real(val))


def biorthogonalize(basis: ModeBasis) -> ModeBasis:
    """Rescale the conjugate family so the Gram matrix is the identity.

    Distinct wavenumbers are orthogonal through the x-integral; the
    kernel-block Gram must be invertible (no generalized eigenvectors), so
    a singular diagonal raises.
    """
    N = basis.size
    raw = np.array([[basis.pairing(j, i) for i in range(N)] for j in range(N)])
    diag = np.diag(raw)
    tol = 1e-12 * (np.max(np.abs(raw)) or 1.0)
    if np.min(np.abs(diag)) < tol or np.linalg.matrix_rank(raw, tol=tol) < N:
        raise SpectralError("singular Gram matrix: defective or duplicated modes")
    for i in range(N):
        basis.thetastar[i] = basis.thetastar[i] / diag[i]
        basis.dthetastar[i] = basis.dthetastar[i] / diag[i]
        if basis.phi is not None:
            basis.phi[i] = basis.phi[i] / diag[i]
    gram = np.array([[basis.pairing(j, i) for i in range(N)] for j in range(N)])
    basis.gram = gram
    return basis


# ---------------------------------------------------------------------------
# spectrum report
# ---------------------------------------------------------------------------

@dataclass
class SpectrumRecord:
    k: int
    lam_design: complex | None
    lam_finite: complex | None
    lam_pencil: complex | None
    in_kernel: bool


@dataclass
class SpectrumReport:
    records: list[SpectrumRecord]
    kernel_residual: float
    gap: float

    @property
    def passed(self) -> bool:
        return self.kernel_residual < 1e-6 and self.gap > 0.0

    def to_csv(self) -> str:
        lines = ["k,Re_lambda,Im_lambda,method,in_kernel_set"]
        for r in self.records:
            for lam, m in ((r.lam_design, "design"), (r.lam_finite, "finite"),
                           (r.lam_pencil, "pencil")):
                if lam is None:
                    continue
                lines.append(f"{r.k},{np.real(lam):.12g},{np.imag(lam):.12g},"
                             f"{m},{int(r.in_kernel)}")
        return "\n".join(lines) + "\n"


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _map_cores(fn, items) -> list:
    """[fn(x) for x in items], spread over the cores this process may use.

    The calling thread takes part, with one worker thread per further
    core; each item runs whole on one thread (LAPACK releases the GIL).
    Items are claimed in order and, once one has failed, no new one
    starts: every item before a failed one still runs, so the exception
    raised, unchanged, is that of the lowest failing item, as in the
    serial loop.
    """
    items = list(items)
    results = [None] * len(items)
    errors: dict[int, BaseException] = {}
    claims = iter(range(len(items)))
    lock = threading.Lock()
    failed = threading.Event()

    def work():
        while not failed.is_set():
            with lock:
                i = next(claims, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                errors[i] = exc
                failed.set()

    workers = [threading.Thread(target=work)
               for _ in range(min(_cores(), len(items)) - 1)]
    for t in workers:
        t.start()
    work()
    for t in workers:
        t.join()
    if errors:
        raise errors[min(errors)]
    return results


def spectrum_report(kernel, kmax: int, params, poly, profile: TemperatureProfile,
                    grid: Grid | None = None, pencil_kmax: int = 64,
                    finite_ks: tuple[int, ...] | None = None,
                    threads: int = 1) -> SpectrumReport:
    """Per-k eigenvalue survey with design, finite-b, and pencil methods.

    The design values carry the engineered-kernel statement; pencil and
    finite-b hierarchy values cross-validate each other where affordable.
    Wavenumbers beyond the a-priori bound h r b are gapped without solving:
    their records carry no eigenvalue.  The per-k records run on the cores
    this process may use (_map_cores), each whole on one thread, so they
    are bit-identical to a serial survey.  threads is not read; the
    benchmark still passes it.
    """
    kernel = tuple(int(k) for k in kernel)
    if grid is None:
        grid = default_grid(profile)
    bound = kbar_bound(params)

    def record(k: int) -> SpectrumRecord:
        if k > bound:
            return SpectrumRecord(k=k, lam_design=None, lam_finite=None,
                                  lam_pencil=None, in_kernel=k in kernel)
        lam_p = None
        if k <= pencil_kmax:
            try:
                ev = np.linalg.eigvals(assemble_pencil(k, profile, grid).Ared)
            except (SpectralError, np.linalg.LinAlgError) as exc:
                raise SpectralError(f"pencil solve failed at k={k}: {exc}") from exc
            lam_p = ev[np.argmax(ev.real)]
        z = find_root_z(k, params, poly)
        lam_d = lambda_from_z(z, k)
        lam_f = None
        if finite_ks is None or k in finite_ks:
            try:
                lam_f = complex(TransferHierarchy(k, params).leading_lambda())
            except ScalarError:     # no separated root at this k
                lam_f = None
        return SpectrumRecord(k=k, lam_design=lam_d, lam_finite=lam_f,
                              lam_pencil=lam_p, in_kernel=k in kernel)

    grid.d2     # built before the pool: a worker's array would pin its heap
    records = list(_map_cores(record, range(1, kmax + 1)))
    kr = max(abs(r.lam_design) for r in records
             if r.in_kernel and r.lam_design is not None)
    gap = min(-np.real(r.lam_design) for r in records
              if not r.in_kernel and r.lam_design is not None)
    return SpectrumReport(records=records, kernel_residual=float(kr),
                          gap=float(gap))


# ---------------------------------------------------------------------------
# semigroup decay
# ---------------------------------------------------------------------------

def semigroup_decay(pencil: Pencil, horizon: float = 14.0, dt: float = 1e-3,
                    x0: np.ndarray | None = None, fit_fraction: float = 0.25):
    """Integrate the per-k linear evolution and fit the tail decay rate.

    TR-BDF2 time stepping: the collocation operator carries grid-scale
    eigenvalues ~ -1/dy_min^2, so the scheme must be L-stable (trapezoidal
    stepping lets the stiff modes linger and pollutes the tail).  The
    log-norm slope over the trailing fit_fraction of the horizon is the
    decay rate, which should match the leading pencil eigenvalue.  Raises
    if the tail fit is not clean (horizon too short for modal separation).
    Without x0 the start is a seeded random interior w.
    """
    Ared, interior = pencil.Ared, pencil.interior
    m = Ared.shape[0]
    rng = np.random.default_rng(0)
    w = x0[interior].astype(float) if x0 is not None else rng.standard_normal(m)
    w = w / np.linalg.norm(w)
    steps = int(horizon / dt)
    I = np.eye(m)
    g = 2.0 - np.sqrt(2.0)
    lhs1 = lu_factor(I - 0.5 * g * dt * Ared)
    rhs1 = I + 0.5 * g * dt * Ared
    lhs2 = lu_factor(I - (1.0 - g) / (2.0 - g) * dt * Ared)
    c_star = 1.0 / (g * (2.0 - g))
    c_old = (1.0 - g) ** 2 / (g * (2.0 - g))
    log_norms = np.empty(steps)
    wq = pencil.grid.weights[interior]
    acc = 0.0
    for i in range(steps):
        wstar = lu_solve(lhs1, rhs1 @ w)
        w = lu_solve(lhs2, c_star * wstar - c_old * w)
        nrm = np.sqrt(np.sum(wq * np.abs(w) ** 2))
        acc += np.log(nrm)
        log_norms[i] = acc
        w = w / nrm          # renormalize; slope accumulates in acc
    t = dt * np.arange(1, steps + 1)
    tail = slice(int(steps * (1.0 - fit_fraction)), steps)
    coef, res = np.polyfit(t[tail], log_norms[tail], 1, full=True)[:2]
    rate = float(coef[0])
    resid = float(np.sqrt(res[0] / len(t[tail]))) if len(res) else 0.0
    if resid > 2e-3 * max(1.0, abs(rate)):
        raise SpectralError("tail fit not separated; extend the horizon")
    return rate, {"fit_residual": resid, "steps": steps, "dt": dt}
