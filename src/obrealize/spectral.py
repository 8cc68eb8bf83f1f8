"""Per-wavenumber eigenvalue problem of the linearized convection operator.

For each integer wavenumber k the stream/temperature pair solves

    lambda nu^{-1} L_k psi = L_k^2 psi + k^2 w,
    lambda w           = L_k w + U_y psi,            L_k = D_y^2 - k^2,

with psi clamped at both walls and w Robin: w' = beta w at y=0 (the
scales' beta) and w' = beta1 w at y=h (the profile's beta1).  The sign of
the coupling U_y psi follows the stream-function form of the linearized
equations; see the decisions notes for the discrepancy with one printed variant.

Solvers: assemble_pencil builds the Schur complement in w of the
collocation pencil with boundary rows (the nu^{-1} block is ~1e-15 of the
rest, so psi is slaved through the clamped biharmonic solve), which avoids
the spurious modes of the singular pencil.  The generalized 2m x 2m pair
(A, B) itself is built on each read, by the backward error, and not kept.
Every solver below takes that Pencil.  solve_modes takes the leading
eigenvalue and direct mode from one np.linalg.eig of the Schur operator;
solve_conjugate_modes takes the conjugate (adjoint) mode from one
inverse-iteration solve for the left vector at that mode's eigenvalue, so
the two share one eigenvalue.  Each mode records its residuals and is
rejected with a SpectralError above their bounds: the direct mode's
componentwise backward error against (A, B) above PENCIL_RESIDUAL_TOL, and
either mode's boundary-row residual above BOUNDARY_RESIDUAL_TOL.

spectrum_report solves its records in groups of consecutive wavenumbers,
and reduction.numeric_basis its wavenumbers, on every core this process
may use, one whole item per thread; each item runs the same serial code,
so the result is bit-identical to a one-thread run.  The threads overlap
only inside LAPACK calls that release the GIL.  numpy's eigvals loop
releases it only when batch x m > 500 (batch matrices of m unknowns in
one call): beside one eigvals call a pure-Python thread ran at 0.18-0.25
of its solo rate at m = 259 (b = 30), 0.06-0.15 at 399 (b = 80) and 0.11
at 500, but at 1.26 at 501; at 0.17 beside a stack of 2 x 250 and 0.93
beside 2 x 251; at 0.19 beside 3 x 166 and 1.23 beside 3 x 167.  So
spectrum_report hands eigvals stacks of _stack_size(m) Schur operators,
whose eigenvalues are each bit-identical to a lone call's.  eig (geev)
runs without the GIL at every m here (0.9-1.0 at m = 259), so
solve_modes takes its eigenpair from it, not from
scipy.linalg.eig(left=True, right=True), which holds the GIL for much of
its run.  The one-column left solve of solve_conjugate_modes also holds it
at m <= 500 (a thread beside it ran at 0.46-0.61); it stays, because a
two-column solve moves the unit left vector by 5e-15 to 6e-14, not bit for
bit.  Nothing on a Grid or a Pencil is cached after construction, so the
threads share no lazy state.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .grid import Grid, graded_nodes, make_grid
from .profile import KERNEL_TOL, ScaleParams, TemperatureProfile
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
    "check_survey",
    "semigroup_decay",
    "default_grid",
    "scale_grid",
    "scale_nodes",
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


def _intervals(params: ScaleParams, n: int | None) -> int:
    """n, or 5b clipped to [260, 560] when n is None."""
    return min(max(260, int(5.0 * params.b)), 560) if n is None else n


def scale_grid(params: ScaleParams, n: int | None = None) -> Grid:
    """The graded grid on [0, h] at these scales, with n = 5b clipped to
    [260, 560] intervals unless n is given."""
    return make_grid(params.h, _intervals(params, n), 5.0)


def scale_nodes(params: ScaleParams, n: int | None = None) -> np.ndarray:
    """The nodes of scale_grid(params, n) alone, with no matrix built."""
    return graded_nodes(params.h, _intervals(params, n), 5.0)


def resolves_layer(nodes: np.ndarray, b: float) -> bool:
    """Whether the node spacing near y = 0 resolves the 1/(4b) layer: the
    thermal layer at b, or the e^{-by} decay of a mode at wavenumber b."""
    return bool(np.min(np.diff(nodes[:8])) <= 0.25 / b)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def _operator(grid: Grid, k: int) -> np.ndarray:
    """L_k = D_y^2 - k^2 at the nodes."""
    return grid.d2 - (k * k) * np.eye(len(grid.nodes))


def _robin_rows(grid: Grid, profile: TemperatureProfile) -> np.ndarray:
    """The w Robin rows w' - beta w at y = 0 and w' - beta1 w at y = h,
    with beta from the profile's scales and beta1 = U_y(h)/U(h) its own."""
    rows = grid.diff[[0, -1]]
    rows[0, 0] -= profile.params.beta
    rows[1, -1] -= profile.beta1
    return rows


def _clamped_biharmonic(grid: Grid, L: np.ndarray) -> np.ndarray:
    """G with psi = G f solving (D^2-k^2)^2 psi = f, clamped ends; L = D^2-k^2.

    The fourth-order solve is split through phi = L_k psi into two
    second-order blocks, which keeps the conditioning at the level of D^2.
    The block system is filled in place in the Fortran order LAPACK
    factors in, and the factorization and the solve overwrite their inputs.
    The psi rows at the two walls (first and last node) clamp psi, the phi
    rows there clamp psi'.
    """
    Dy = grid.diff
    m = len(grid.nodes)
    walls = [0, m - 1, m, 2 * m - 1]
    A = np.zeros((2 * m, 2 * m), order="F")
    A[:m, :m] = L
    A[:m, m:] = -np.eye(m)
    A[m:, m:] = L
    A[walls, :] = 0.0
    A[0, 0] = A[m - 1, m - 1] = 1.0
    A[m, :m] = Dy[0]
    A[2 * m - 1, :m] = Dy[-1]
    rhs = np.zeros((2 * m, m), order="F")
    rhs[m:, :] = np.eye(m)
    rhs[walls, :] = 0.0
    return lu_solve(lu_factor(A, overwrite_a=True), rhs, overwrite_b=True)[:m]


@dataclass
class Pencil:
    """Generalized eigenpair data lambda B v = A v over stacked (psi, w).

    Ared is the reduced standard eigenproblem in the interior w unknowns:
    psi is slaved through the clamped biharmonic G (the nu^{-1} mass block
    is negligible at nu = b^10), and the two Robin rows eliminate the
    wall values w[[0, -1]] = T @ w[1:-1] (the grid's first and last nodes
    are y = 0 and y = h).  The 2m x 2m pair (A, B) is built on each read
    and not kept: only the backward error reads it, one matrix at a time,
    so a pencil per core fits beside the others.
    """

    k: int
    grid: Grid = field(repr=False)
    profile: TemperatureProfile = field(repr=False)
    G: np.ndarray = field(repr=False)
    Ared: np.ndarray = field(repr=False)
    T: np.ndarray = field(repr=False)

    @property
    def uy(self) -> np.ndarray:
        """U_y at the grid nodes."""
        return self.profile.u_y(self.grid.nodes)

    @property
    def _boundary_rows(self) -> list[int]:
        """Rows of (A, B) replaced by boundary conditions: psi values at
        both ends, psi slopes on the adjacent rows, the w Robin rows."""
        m = len(self.grid.nodes)
        return [0, m - 1, 1, m - 2, m, 2 * m - 1]

    @property
    def A(self) -> np.ndarray:
        """The collocation operator with its boundary rows."""
        g, k = self.grid, self.k
        Dy, m = g.diff, len(g.nodes)
        L = _operator(g, k)
        A = np.block([[L @ L, (k * k) * np.eye(m)], [np.diag(self.uy), L]])
        A[self._boundary_rows, :] = 0.0
        A[0, 0] = A[m - 1, m - 1] = 1.0
        A[1, :m] = Dy[0]
        A[m - 2, :m] = Dy[-1]
        A[[m, 2 * m - 1], m:] = _robin_rows(g, self.profile)
        return A

    @property
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
        av = np.abs(v)
        A = self.A
        r = A @ v
        denom = np.abs(A) @ av
        del A                   # so that A and B are never alive together
        B = self.B
        r = r - lam * (B @ v)
        denom += abs(lam) * (np.abs(B) @ av)
        # rows whose natural magnitude is negligible (satisfied boundary
        # rows) are measured against the dominant row scale
        denom = np.maximum(denom, 1e-10 * np.max(denom))
        return float(np.max(np.abs(r) / denom))

    def lift(self, vec: np.ndarray) -> np.ndarray:
        """Full w profile from its interior values through the Robin rows."""
        w = np.zeros(len(self.grid.nodes), dtype=vec.dtype)
        w[1:-1] = vec
        w[[0, -1]] = self.T @ vec
        return w


def assemble_pencil(k: int, profile: TemperatureProfile, grid: Grid) -> Pencil:
    """The Schur operator of the clamped/Robin collocation pencil."""
    if k < 1:
        raise SpectralError("wavenumber must be a positive integer")
    if not resolves_layer(grid.nodes, profile.params.b):
        raise SpectralError("grid too coarse for the boundary layer; "
                            "node spacing near y=0 must resolve 1/(4b)")
    L = _operator(grid, k)
    G = _clamped_biharmonic(grid, L)
    # Schur operator: k^2 scales uy first, then G (the product order sets
    # Ared's rounding)
    Aop = L - ((k * k) * profile.u_y(grid.nodes))[:, None] * G
    Bc = _robin_rows(grid, profile)
    T = -np.linalg.solve(Bc[:, [0, -1]], Bc[:, 1:-1])
    Ared = Aop[1:-1, 1:-1] + Aop[1:-1, [0, -1]] @ T
    return Pencil(k=k, grid=grid, profile=profile, G=G, Ared=Ared, T=T)


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


def _boundary_residual(mode_psi, mode_w, grid: Grid, profile) -> float:
    dpsi, dw = grid.diff @ mode_psi, grid.diff @ mode_w
    sp = np.max(np.abs(mode_psi)) or 1.0
    sw = np.max(np.abs(mode_w)) or 1.0
    res = [abs(mode_psi[0]) / sp, abs(mode_psi[-1]) / sp,
           abs(dpsi[0]) / sp, abs(dpsi[-1]) / sp,
           abs(dw[0] - profile.params.beta * mode_w[0]) / sw,
           abs(dw[-1] - profile.beta1 * mode_w[-1]) / sw]
    return float(max(res))


def _leading_eigenpair(Ared: np.ndarray):
    """(lambda, right) of Ared with the largest Re lambda, from one
    np.linalg.eig (LAPACK geev, which runs without the GIL); only the
    chosen column is kept."""
    lam, vr = np.linalg.eig(Ared)
    j = np.argsort(-lam.real)[0]
    return lam[j], vr[:, j].copy()


def _left_vector(Ared: np.ndarray, lam) -> np.ndarray:
    """Unit-norm u with u^H Ared = lam u^H: one inverse-iteration solve of
    (Ared^T - conj(lam) I) u = r from a seeded r, in real arithmetic when
    lam is real.  A shift that makes the matrix exactly singular is nudged
    by eps ||Ared||_1."""
    shift = np.conj(lam) if lam.imag else lam.real
    At = Ared.T
    r = np.random.default_rng(0).standard_normal(len(At))
    try:
        u = np.linalg.solve(At - shift * np.eye(len(At)), r)
    except np.linalg.LinAlgError:   # shift is exactly an eigenvalue
        shift += np.finfo(float).eps * (np.linalg.norm(At, np.inf) or 1.0)
        u = np.linalg.solve(At - shift * np.eye(len(At)), r)
    return u / np.linalg.norm(u)


def solve_modes(pencil: Pencil) -> EigenMode:
    """Leading eigenpair of the Schur operator, scaled to psi''(0) = 2
    (max |w| = 1 where psi''(0) vanishes).

    Raises SpectralError when its backward error against the assembled
    (A, B) pencil exceeds PENCIL_RESIDUAL_TOL or its boundary-row residual
    exceeds BOUNDARY_RESIDUAL_TOL.
    """
    k = pencil.k
    grid = pencil.grid
    Dy = grid.diff
    lam, right = _leading_eigenpair(pencil.Ared)
    w = pencil.lift(right)
    psi = -(k * k) * (pencil.G @ w)
    d2psi0 = (Dy @ (Dy @ psi))[0]
    if abs(d2psi0) > 1e-8 * np.max(np.abs(psi)):
        scalef = 2.0 / d2psi0
    else:
        scalef = 1.0 / np.max(np.abs(w))
    psi = psi * scalef
    w = w * scalef
    mode = EigenMode(k=k, lam=lam, psi=psi, w=w,
                     boundary_residual=_boundary_residual(
                         psi, w, grid, pencil.profile),
                     pencil_residual=pencil.residual(
                         lam, np.concatenate([psi, w])))
    if (mode.pencil_residual > PENCIL_RESIDUAL_TOL
            or mode.boundary_residual > BOUNDARY_RESIDUAL_TOL):
        raise SpectralError(
            f"mode at k={k}, lambda={lam:.6g} fails its residual bounds: "
            f"backward error {mode.pencil_residual:.2e}, "
            f"boundary residual {mode.boundary_residual:.2e}")
    return mode


def solve_conjugate_modes(pencil: Pencil, mode: EigenMode) -> ConjugateMode:
    """Adjoint mode (phi, wtilde) at the eigenvalue of the direct mode.

    The adjoint of the Schur operator with respect to the quadrature inner
    product is W^{-1} A^T W, whose eigenvectors are W^{-1} u for the
    eigenvectors u of A^T, i.e. the conjugated left eigenvectors of A; they
    are the conjugate temperature profiles.  Their boundary values satisfy
    the same Robin rows (the adjoint BCs coincide for this Robin pair), so
    they lift through the direct elimination T.  Raises SpectralError when
    the boundary-row residual exceeds BOUNDARY_RESIDUAL_TOL.
    """
    k, lam = pencil.k, mode.lam
    grid, profile = pencil.grid, pencil.profile
    left = _left_vector(pencil.Ared, lam)
    wt = pencil.lift(np.conj(left) / grid.weights[1:-1])
    if abs(wt[0]) > 1e-10 * np.max(np.abs(wt)):
        wt = wt / wt[0]
    # conjugate stream part through the clamped solve (the residual
    # division (lam - L_k) wt / nu is cancellation-limited):
    # nu phi = k^2 phihat with L_k^2 phihat = -U_y wtilde
    phi = -(k * k / profile.params.nu) * (pencil.G @ (pencil.uy * wt))
    cm = ConjugateMode(k=k, lam=lam, phi=phi, wtilde=wt,
                       boundary_residual=_boundary_residual(phi, wt, grid, profile))
    if cm.boundary_residual > BOUNDARY_RESIDUAL_TOL:
        raise SpectralError(
            f"adjoint mode at k={k}, lambda={lam:.6g} fails its boundary "
            f"bound: residual {cm.boundary_residual:.2e}")
    return cm


# ---------------------------------------------------------------------------
# biorthogonal basis
# ---------------------------------------------------------------------------

@dataclass
class ModeBasis:
    """Direct and conjugate mode families over a set of distinct wavenumbers.

    Each profile family is one (N, m) array sampled on the shared grid, row
    i at wavenumbers[i]; dpsi/dthetastar are the y-derivatives used by the
    reduction quadratures.  The x-dependence is sin(kx) for stream parts
    and cos(kx) for temperature parts, with inner product normalized so
    matched cosines pair to the plain y-integral.  The x-integral zeroes
    the pairing of two distinct wavenumbers, so the Gram matrix
    <e_j, e*_i> is diagonal and pairings() is its diagonal.
    """

    wavenumbers: tuple[int, ...]
    grid: Grid
    psi: np.ndarray
    dpsi: np.ndarray
    theta: np.ndarray
    thetastar: np.ndarray
    dthetastar: np.ndarray
    phi: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.wavenumbers)

    def pairings(self) -> np.ndarray:
        """<e_i, e*_i> for each i: int theta theta* dy, plus
        int psi' phi' + k^2 psi phi dy when there is a conjugate stream part."""
        g = self.grid
        pair = g.integrate(self.theta * self.thetastar)
        if self.phi is not None:
            k2 = (np.asarray(self.wavenumbers) ** 2)[:, None]
            pair = pair + g.integrate(self.dpsi * (self.phi @ g.diff.T)
                                      + k2 * self.psi * self.phi)
        return pair


def biorthogonalize(basis: ModeBasis) -> ModeBasis:
    """Rescale the conjugate family so the Gram matrix is the identity.

    Only its diagonal is computed, since the x-integral makes distinct
    wavenumbers orthogonal.  A repeated wavenumber, whose modes it does not
    separate, raises, as does a vanishing diagonal entry (a generalized
    eigenvector).
    """
    ks = basis.wavenumbers
    if len(set(ks)) < len(ks):
        raise SpectralError(f"repeated wavenumbers in {ks}: their modes are "
                            "not separated by the x-integral")
    diag = basis.pairings()
    if np.min(np.abs(diag)) < 1e-12 * (np.max(np.abs(diag)) or 1.0):
        raise SpectralError("singular Gram matrix: defective modes")
    scale = diag[:, None]
    basis.thetastar = basis.thetastar / scale
    basis.dthetastar = basis.dthetastar / scale
    if basis.phi is not None:
        basis.phi = basis.phi / scale
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

    @property
    def kernel_residual(self) -> float:
        return float(max(abs(r.lam_design) for r in self.records
                         if r.in_kernel and r.lam_design is not None))

    @property
    def gap(self) -> float:
        return float(min(-np.real(r.lam_design) for r in self.records
                         if not r.in_kernel and r.lam_design is not None))

    @property
    def passed(self) -> bool:
        return self.kernel_residual <= KERNEL_TOL and self.gap > 0.0


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

    The calling thread's part in the work, and the malloc arenas it keeps
    in use, are what make this pool worth its lines: with a stdlib
    ThreadPoolExecutor in its place (2 cores, benchmark seeds 1-3) the
    spectrum-b30 wall time went from 0.56-0.61 s to 0.67-0.79 s and the
    operator-ladder peak RSS from 165.6-166.1 MB to 169.3-174.0 MB.
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


def _stack_size(m: int) -> int:
    """Schur operators per eigvals call at m unknowns: the fewest with
    batch x m > 500, above which numpy runs its eigvals loop without the
    GIL."""
    return -(-501 // m)


def check_survey(kernel, kmax: int, params) -> None:
    """Raise SpectralError unless the wavenumbers a spectrum survey solves,
    k = 1 to min(kmax, h r b), hold the whole nonempty kernel and one
    wavenumber outside it: else its kernel residual or its gap is
    undefined."""
    kernel = sorted(set(int(k) for k in kernel))
    bound = kbar_bound(params)
    top = int(min(kmax, bound))
    if not kernel or not set(kernel) <= set(range(1, top + 1)):
        raise SpectralError(f"the kernel {kernel} must be nonempty and inside "
                            f"the survey k = 1..{top} (kmax {kmax}, a-priori "
                            f"bound h r b = {bound:.4g})")
    if top <= len(kernel):
        raise SpectralError(f"the survey k = 1..{top} holds no wavenumber outside "
                            f"the kernel {kernel}: the gap is undefined")


def spectrum_report(kernel, kmax: int, params, poly, profile: TemperatureProfile,
                    grid: Grid, pencil_kmax: int = 64,
                    finite_ks: tuple[int, ...] | None = None,
                    threads: int = 1) -> SpectrumReport:
    """Per-k eigenvalue survey with design, finite-b, and pencil methods.

    The design values carry the engineered-kernel statement; pencil and
    finite-b hierarchy values cross-validate each other where affordable.
    Wavenumbers beyond the a-priori bound h r b are gapped without solving:
    their records carry no eigenvalue.  params and poly must equal
    profile.params and profile.poly, and the wavenumbers solved, k = 1 to
    min(kmax, h r b), must hold the whole kernel and one wavenumber outside
    it (check_survey); else a SpectralError is raised before any solve.

    The records run in groups of _stack_size(m) consecutive wavenumbers
    (2 at b = 30 and 80, 1 at b = 112), on the cores this process may use
    (_map_cores), each group whole on one thread.  A group assembles its
    pencils, keeps only their Schur operators, stacks them into one
    (batch, m, m) array and solves it in one np.linalg.eigvals call:
    numpy runs that without the GIL only when batch x m > 500, and a lone
    m = 259 or 399 matrix holds it for the whole call.  Each matrix's
    eigenvalues are bit-identical to a lone call's, so the records are
    those of a serial survey.  Within a group the failures come in this
    order: a pencil assembly fault at any of its wavenumbers, then an
    eigvals LinAlgError (a SpectralError naming the group's wavenumbers),
    then each k's design root and hierarchy in k order; across groups the
    lowest failing group's exception is raised.  threads is not read; the
    benchmark still passes it.
    """
    if params != profile.params or poly != profile.poly:
        raise SpectralError("params and poly must be the profile's own")
    kernel = tuple(int(k) for k in kernel)
    check_survey(kernel, kmax, params)
    bound = kbar_bound(params)

    def pencil_eigenvalues(ks) -> dict:
        """The leading eigenvalue of each k's Schur operator, from one
        eigvals call on their stack.  Each pencil is dropped once its Ared
        is kept, and the stack is built after the last assembly, so no
        assembly runs beside it (peak RSS of the b = 30 survey 102.4 MB,
        against 103.5 MB with the stack allocated first)."""
        areds = []
        for k in ks:
            try:
                areds.append(assemble_pencil(k, profile, grid).Ared)
            except (SpectralError, np.linalg.LinAlgError) as exc:
                raise SpectralError(f"pencil solve failed at k={k}: {exc}") from exc
        try:
            evs = np.linalg.eigvals(np.stack(areds))
        except np.linalg.LinAlgError as exc:
            raise SpectralError("pencil solve failed at k="
                                f"{', '.join(map(str, ks))}: {exc}") from exc
        # a lone matrix's eigvals are real when all their imaginary parts are 0
        evs = [ev if ev.imag.any() else ev.real for ev in evs]
        return {k: ev[np.argmax(ev.real)] for k, ev in zip(ks, evs)}

    def group_records(ks) -> list[SpectrumRecord]:
        solved = [k for k in ks if k <= bound and k <= pencil_kmax]
        lam_p = pencil_eigenvalues(solved) if solved else {}
        return [record(k, lam_p.get(k)) for k in ks]

    def record(k: int, lam_p) -> SpectrumRecord:
        if k > bound:
            return SpectrumRecord(k=k, lam_design=None, lam_finite=None,
                                  lam_pencil=None, in_kernel=k in kernel)
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

    ks, batch = range(1, kmax + 1), _stack_size(len(grid.nodes) - 2)
    groups = [ks[i:i + batch] for i in range(0, kmax, batch)]
    return SpectrumReport(
        records=[r for group in _map_cores(group_records, groups) for r in group])


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
    Ared = pencil.Ared
    m = Ared.shape[0]
    rng = np.random.default_rng(0)
    w = x0[1:-1].astype(float) if x0 is not None else rng.standard_normal(m)
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
    wq = pencil.grid.weights[1:-1]
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
