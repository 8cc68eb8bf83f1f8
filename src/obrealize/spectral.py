"""Per-wavenumber eigenvalue problem of the linearized convection operator.

For each integer wavenumber k the stream/temperature pair solves

    lambda nu^{-1} L_k psi = L_k^2 psi + k^2 w,
    lambda w           = L_k w + U_y psi,            L_k = D_y^2 - k^2,

with psi clamped at both walls and w Robin (w' = beta w at y=0,
w' = beta1 w at y=h).  The sign of the coupling U_y psi follows the
stream-function form of the linearized equations; see the decisions notes
for the discrepancy with one printed variant.

Solvers: assemble_pencil builds the generalized (A, B) pair with boundary
rows; solve_modes works on the Schur complement in w (the nu^{-1} block is
~1e-15 of the rest, so psi is slaved through the clamped biharmonic
solve), which avoids the spurious modes of the singular pencil, and every
accepted eigenpair is verified against (A, B) directly.  The adjoint
problem shares the machinery through the transposed operator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .grid import Grid, make_grid
from .profile import TemperatureProfile
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
    "SpectralError",
]


class SpectralError(RuntimeError):
    pass


def default_grid(profile: TemperatureProfile, n: int | None = None,
                 alpha: float = 5.0) -> Grid:
    p = profile.params
    if n is None:
        n = max(260, int(5.0 * p.b))
        n = min(n, 560)
    return make_grid(p.h, n, alpha)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def _clamped_biharmonic(grid: Grid, k: int):
    """LU-factorized solver psi = G f for (D^2-k^2)^2 psi = f, clamped ends.

    The fourth-order solve is split through phi = L_k psi into two
    second-order blocks, which keeps the conditioning at the level of D^2.
    """
    y, Dy = grid.nodes, grid.diff
    m = len(y)
    I = np.eye(m)
    L = Dy @ Dy - (k * k) * I
    i0, ih = grid.i0, grid.ih
    A = np.block([[L, -I], [np.zeros((m, m)), L]])
    A[i0, :] = 0.0
    A[i0, i0] = 1.0
    A[ih, :] = 0.0
    A[ih, ih] = 1.0
    A[m + i0, :] = 0.0
    A[m + i0, :m] = Dy[i0]
    A[m + ih, :] = 0.0
    A[m + ih, :m] = Dy[ih]
    piv = lu_factor(A)
    mask = np.ones(m, dtype=bool)

    def apply(F: np.ndarray) -> np.ndarray:
        F2 = np.atleast_2d(F.T).T
        rhs = np.zeros((2 * m, F2.shape[1]), dtype=F2.dtype)
        rhs[m:, :] = F2
        rhs[i0, :] = rhs[ih, :] = rhs[m + i0, :] = rhs[m + ih, :] = 0.0
        sol = lu_solve(piv, rhs)
        out = sol[:m]
        return out[:, 0] if F.ndim == 1 else out

    G = apply(np.eye(m))
    return G, L, apply


@dataclass
class Pencil:
    """Generalized eigenpair data lambda B v = A v over stacked (psi, w)."""

    k: int
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    grid: Grid = field(repr=False)
    profile: TemperatureProfile = field(repr=False)
    uy: np.ndarray = field(repr=False)
    L: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return 2 * len(self.grid.nodes)

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


def assemble_pencil(k: int, profile: TemperatureProfile, grid: Grid) -> Pencil:
    """Collocation matrices with boundary rows for the clamped/Robin pair."""
    if k < 1:
        raise SpectralError("wavenumber must be a positive integer")
    p = profile.params
    y, Dy = grid.nodes, grid.diff
    dy_min = np.min(np.diff(y[:8]))
    if dy_min > 0.25 / p.b:
        raise SpectralError("grid too coarse for the boundary layer; "
                            "node spacing near y=0 must resolve 1/(4b)")
    m = len(y)
    I = np.eye(m)
    L = Dy @ Dy - (k * k) * I
    uy = profile.u_y(y)
    G, _, _ = _clamped_biharmonic(grid, k)
    A = np.block([[L @ L, (k * k) * I], [np.diag(uy), L]])
    B = np.block([[L / p.nu, np.zeros((m, m))], [np.zeros((m, m)), I]])
    i0, ih = grid.i0, grid.ih
    # psi rows: value at both ends on the value rows, slope on the adjacent rows
    for row, vec in ((i0, I[i0]), (ih, I[ih])):
        A[row, :m] = vec
        A[row, m:] = 0.0
        B[row, :] = 0.0
    A[1, :m] = Dy[i0]
    A[1, m:] = 0.0
    B[1, :] = 0.0
    A[m - 2, :m] = Dy[ih]
    A[m - 2, m:] = 0.0
    B[m - 2, :] = 0.0
    # w Robin rows
    A[m + i0, :] = 0.0
    A[m + i0, m:] = Dy[i0] - p.beta * I[i0]
    B[m + i0, :] = 0.0
    A[m + ih, :] = 0.0
    A[m + ih, m:] = Dy[ih] - p.beta1 * I[ih]
    B[m + ih, :] = 0.0
    return Pencil(k=k, A=A, B=B, grid=grid, profile=profile, uy=uy, L=L, G=G)


def _schur_operator(pencil: Pencil):
    """Reduced standard eigenproblem in the interior w unknowns.

    psi is slaved through the clamped biharmonic (the nu^{-1} mass block is
    negligible at nu = b^10); the two Robin rows eliminate the boundary
    values of w.
    """
    grid = pencil.grid
    p = pencil.profile.params
    k = pencil.k
    m = len(grid.nodes)
    Dy = grid.diff
    I = np.eye(m)
    Aop = pencil.L - (k * k) * np.diag(pencil.uy) @ pencil.G
    i0, ih = grid.i0, grid.ih
    rows = np.array([i0, ih])
    interior = np.array([i for i in range(m) if i != i0 and i != ih])
    Bc = np.zeros((2, m))
    Bc[0] = Dy[i0]
    Bc[0, i0] -= p.beta
    Bc[1] = Dy[ih]
    Bc[1, ih] -= p.beta1
    T = -np.linalg.solve(Bc[:, rows], Bc[:, interior])
    Ared = Aop[np.ix_(interior, interior)] + Aop[np.ix_(interior, rows)] @ T
    return Ared, interior, rows, T


def _lift(vec: np.ndarray, m: int, interior, rows, T) -> np.ndarray:
    w = np.zeros(m, dtype=vec.dtype)
    w[interior] = vec
    w[rows] = T @ vec
    return w


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

@dataclass
class EigenMode:
    k: int
    lam: complex
    psi: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    rho2: complex = 1.0
    grid: Grid | None = field(default=None, repr=False)
    boundary_residual: float = 0.0
    pencil_residual: float = 0.0

    def to_csv(self) -> str:
        lines = ["y,Re_psi,Im_psi,Re_w,Im_w"]
        for y, ps, wv in zip(self.grid.nodes, self.psi, self.w):
            lines.append(f"{y:.12g},{np.real(ps):.12g},{np.imag(ps):.12g},"
                         f"{np.real(wv):.12g},{np.imag(wv):.12g}")
        return "\n".join(lines) + "\n"


@dataclass
class ConjugateMode:
    k: int
    lam: complex
    phi: np.ndarray = field(repr=False)
    wtilde: np.ndarray = field(repr=False)
    grid: Grid | None = field(default=None, repr=False)
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


def solve_modes(k: int, pencil: Pencil, halfplane: float = 0.5,
                nev: int = 6, refine: bool = True,
                refine_tol: float = 1e-4) -> list[EigenMode]:
    """Eigenpairs with Re lambda > -halfplane, rho2-normalized.

    Eigenvalues are accepted only if they move by less than refine_tol
    (relative) under a 1.5x finer grid; each accepted pair is then checked
    against the assembled (A, B) pencil.
    """
    grid = pencil.grid
    p = pencil.profile.params
    Ared, interior, rows, T = _schur_operator(pencil)
    lam, V = np.linalg.eig(Ared)
    order = np.argsort(-lam.real)
    lam, V = lam[order], V[:, order]
    sel = np.where(lam.real > -abs(halfplane))[0]
    if len(sel) == 0:
        sel = np.array([0])   # always report the leading mode
    sel = sel[:nev]

    ref_vals = None
    if refine:
        fine = assemble_pencil(k, pencil.profile, grid.refined(1.5))
        Af, _, _, _ = _schur_operator(fine)
        ref_vals = np.linalg.eigvals(Af)

    m = len(grid.nodes)
    Dy = grid.diff
    out = []
    for j in sel:
        lj = lam[j]
        if ref_vals is not None:
            dist = np.min(np.abs(ref_vals - lj))
            if dist > refine_tol * max(1.0, abs(lj)):
                raise SpectralError(
                    f"eigenvalue {lj:.6g} at k={k} failed the refinement filter "
                    f"(moved by {dist:.2e})")
        w = _lift(V[:, j], m, interior, rows, T)
        psi = -(k * k) * (pencil.G @ w)
        d2psi0 = (Dy @ (Dy @ psi))[grid.i0]
        if abs(d2psi0) > 1e-8 * np.max(np.abs(psi)):
            scalef = 2.0 / d2psi0
            rho2 = 1.0
        else:
            scalef = 1.0 / np.max(np.abs(w))
            rho2 = d2psi0 / 2.0
        psi = psi * scalef
        w = w * scalef
        v = np.concatenate([psi, w])
        mode = EigenMode(k=k, lam=lj, psi=psi, w=w, rho2=rho2, grid=grid,
                         boundary_residual=_boundary_residual(psi, w, grid, p),
                         pencil_residual=pencil.residual(lj, v))
        out.append(mode)
    return out


def solve_conjugate_modes(k: int, profile: TemperatureProfile, grid: Grid,
                          nev: int = 3) -> list[ConjugateMode]:
    """Leading adjoint eigenpairs (phi, wtilde) at the matching eigenvalues.

    The adjoint of the Schur operator with respect to the quadrature inner
    product is W^{-1} A^T W; its eigenfunctions are the conjugate
    temperature profiles, and the conjugate stream part follows from
    phi = (lambda wtilde - L_k wtilde)/nu.
    """
    p = profile.params
    pencil = assemble_pencil(k, profile, grid)
    Ared, interior, rows, T = _schur_operator(pencil)
    wq = grid.weights[interior]
    Astar = np.diag(1.0 / wq) @ Ared.T @ np.diag(wq)
    lam, V = np.linalg.eig(Astar)
    order = np.argsort(-lam.real)
    lam, V = lam[order], V[:, order]
    m = len(grid.nodes)
    Dy = grid.diff
    out = []
    for j in range(min(nev, len(lam))):
        vec = V[:, j]
        wt = np.zeros(m, dtype=vec.dtype)
        wt[interior] = vec
        # boundary values of the adjoint temperature satisfy the same Robin
        # rows (the adjoint BCs coincide for this Robin pair)
        Bc = np.zeros((2, m))
        Bc[0] = Dy[grid.i0]
        Bc[0, grid.i0] -= p.beta
        Bc[1] = Dy[grid.ih]
        Bc[1, grid.ih] -= p.beta1
        wt[[grid.i0, grid.ih]] = -np.linalg.solve(
            Bc[:, [grid.i0, grid.ih]], Bc[:, interior] @ vec)
        i0 = grid.i0
        if abs(wt[i0]) > 1e-10 * np.max(np.abs(wt)):
            wt = wt / wt[i0]
        # conjugate stream part through the clamped solve (the residual
        # division (lam - L_k) wt / nu is cancellation-limited):
        # nu phi = k^2 phihat with L_k^2 phihat = -U_y wtilde
        phi = -(k * k / p.nu) * (pencil.G @ (pencil.uy * wt))
        out.append(ConjugateMode(
            k=k, lam=lam[j], phi=phi, wtilde=wt, grid=grid,
            boundary_residual=_boundary_residual(phi, wt, grid, p)))
    return out


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


def biorthogonalize(basis: ModeBasis, tol: float = 1e-12) -> ModeBasis:
    """Rescale the conjugate family so the Gram matrix is the identity.

    Distinct wavenumbers are orthogonal through the x-integral; the
    kernel-block Gram must be invertible (no generalized eigenvectors), so
    a singular diagonal raises.
    """
    N = basis.size
    raw = np.array([[basis.pairing(j, i) for i in range(N)] for j in range(N)])
    diag = np.diag(raw)
    scale = np.max(np.abs(raw)) or 1.0
    if np.min(np.abs(diag)) < tol * scale or np.linalg.matrix_rank(
            raw, tol=tol * scale) < N:
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
    method: str


@dataclass
class SpectrumReport:
    records: list[SpectrumRecord]
    kernel_residual: float
    gap: float
    kernel: tuple[int, ...]

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


def spectrum_report(kernel, kmax: int, params, poly, profile: TemperatureProfile,
                    grid: Grid | None = None, pencil_kmax: int = 64,
                    finite_ks: tuple[int, ...] | None = None,
                    threads: int = 1) -> SpectrumReport:
    """Per-k eigenvalue survey with design, finite-b, and pencil methods.

    The design values carry the engineered-kernel statement; pencil and
    finite-b hierarchy values cross-validate each other where affordable.
    Wavenumbers beyond the a-priori bound h r b are marked gapped without
    solving.  threads is not read; the benchmark still passes it.
    """
    kernel = tuple(int(k) for k in kernel)
    if grid is None:
        grid = default_grid(profile)
    bound = kbar_bound(params)
    records: list[SpectrumRecord] = []

    def pencil_leading(k: int) -> complex:
        try:
            pen = assemble_pencil(k, profile, grid)
            Ared, _, _, _ = _schur_operator(pen)
            ev = np.linalg.eigvals(Ared)
            return ev[np.argmax(ev.real)]
        except Exception as exc:
            raise SpectralError(f"pencil solve failed at k={k}: {exc}") from exc

    for k in range(1, kmax + 1):
        if k > bound:
            records.append(SpectrumRecord(k=k, lam_design=None, lam_finite=None,
                                          lam_pencil=None, in_kernel=k in kernel,
                                          method="apriori-gapped"))
            continue
        lam_p = pencil_leading(k) if k <= pencil_kmax else None
        z = find_root_z(k, params, poly)
        lam_d = lambda_from_z(z, k)
        lam_f = None
        if finite_ks is None or k in finite_ks:
            try:
                lam_f = complex(TransferHierarchy(k, params).leading_lambda())
            except ScalarError:     # no separated root at this k
                lam_f = None
        records.append(SpectrumRecord(k=k, lam_design=lam_d, lam_finite=lam_f,
                                      lam_pencil=lam_p,
                                      in_kernel=k in kernel, method="scalar+pencil"))
    kr = max(abs(r.lam_design) for r in records
             if r.in_kernel and r.lam_design is not None)
    gap = min(-np.real(r.lam_design) for r in records
              if not r.in_kernel and r.lam_design is not None)
    return SpectrumReport(records=records, kernel_residual=float(kr),
                          gap=float(gap), kernel=kernel)


# ---------------------------------------------------------------------------
# semigroup decay
# ---------------------------------------------------------------------------

def semigroup_decay(k: int, profile: TemperatureProfile, grid: Grid,
                    horizon: float = 14.0, dt: float = 1e-3,
                    x0: np.ndarray | None = None, fit_fraction: float = 0.25,
                    seed: int = 0):
    """Integrate the per-k linear evolution and fit the tail decay rate.

    TR-BDF2 time stepping: the collocation operator carries grid-scale
    eigenvalues ~ -1/dy_min^2, so the scheme must be L-stable (trapezoidal
    stepping lets the stiff modes linger and pollutes the tail).  The
    log-norm slope over the trailing fit_fraction of the horizon is the
    decay rate, which should match the leading pencil eigenvalue.  Raises
    if the tail fit is not clean (horizon too short for modal separation).
    """
    pen = assemble_pencil(k, profile, grid)
    Ared, interior, rows, T = _schur_operator(pen)
    m = Ared.shape[0]
    rng = np.random.default_rng(seed)
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
    wq = pen.grid.weights[interior]
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
