"""Reduced quadratic-system coefficients over a biorthogonal mode basis.

The Galerkin reduction of the perturbed convection dynamics onto the mode
set {e_j} produces dX/dt = K(X) + M X + f with

    M_ij = < {psi_j, theta*_i}, u1 >,     K_ijl = -M_ij(theta_l) + O(1/nu),
    f_i  = < theta*_i, eta1 >,

where {f, g} = f_x g_y - f_y g_x.  With psi_j = Psi_j(y) sin(k_j x) and
theta-parts on cos(k x), the x-integrals collapse to the resonant Fourier
slots: writing u1 = sum_n u_n(y) cos(n x),

    M_ij = q_ij [ int zt_ij u_{k_i+k_j} dy + int z_ij u_{|k_i-k_j|} dy ],

with z/zt the plus/minus combinations of k_j Psi_j dTheta*_i and
k_i dPsi_j Theta*_i, q_ij = 1/2 off the diagonal; the |k_i-k_j| = 0 slot
pairs with u_0 at weight 1 (inner product normalized to (2/pi) per unit
x-interval so matched cosines integrate to the plain y-integral).

The basis may be either the closed-form critical-mode shapes (default;
the design-level objects) or numerically computed pencil modes.  Each
quadrature reads every (i, j) at once, from the (N, N, m) slot kernels of
resonant_slots.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid
from .profile import ScaleParams, TemperatureProfile
from .spectral import (ModeBasis, _map_cores, assemble_pencil, biorthogonalize,
                       solve_conjugate_modes, solve_modes)

__all__ = [
    "FourierProfileSet",
    "asymptotic_profiles",
    "asymptotic_basis",
    "numeric_basis",
    "zeta_profiles",
    "resonant_slots",
    "compute_M",
    "compute_K",
    "compute_f",
    "eta_for_f",
]


@dataclass
class FourierProfileSet:
    """Map from cosine index n >= 0 to a sampled y-profile; missing n is 0."""

    entries: dict[int, np.ndarray] = field(default_factory=dict)

    def take(self, ns, size: int) -> np.ndarray:
        """The profiles at an integer array of indices: shape ns.shape + (size,)."""
        ns = np.asarray(ns)
        table = np.zeros((ns.max(initial=-1) + 1, size))
        for n, prof in self.entries.items():
            if n < len(table):
                table[n] = prof
        return table[ns]

    def at(self, x, size: int) -> np.ndarray:
        """sum_n cos(n x) u_n(y): one row of size profile samples per x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((len(x), size))
        for n, prof in self.entries.items():
            out += np.cos(n * x)[:, None] * prof[None, :]
        return out

    def __setitem__(self, n: int, prof: np.ndarray):
        if not np.all(np.isfinite(prof)):
            raise ValueError("profile must be finite")
        self.entries[int(n)] = prof


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

def asymptotic_profiles(k, params: ScaleParams, grid: Grid):
    """Leading-order critical-mode shapes and slopes sampled on the grid.

    Psi = y^2 e^{-ky}; Theta = amp (e^{-by} - e^{-ky}) with the layer
    transfer amplitude amp = 2|C_U|(1+3r) beta/(beta+k); Theta* =
    (k y^2 + y) e^{-ky} with unit slope at the wall (the conjugate scale is
    fixed afterwards by biorthogonality).  Returns (Psi, Psi', Theta,
    Theta*, Theta*'), the order of ModeBasis's fields; k may be a column
    of wavenumbers, one row each.
    """
    y = grid.nodes
    b, r, beta = params.b, params.r, params.beta
    decay = np.exp(-k * y)
    amp = 2.0 * abs(params.C_U) * (1.0 + 3.0 * r) * beta / (beta + k)
    psi = y**2 * decay
    dpsi = (2.0 * y - k * y**2) * decay
    theta = amp * (np.exp(-b * y) - decay)
    thetastar = (k * y**2 + y) * decay
    # d/dy (k y^2 + y) e^{-ky} = (1 + 2ky - k(k y^2 + y)) e^{-ky}
    dthetastar = (1.0 + 2.0 * k * y - k * (k * y**2 + y)) * decay
    return psi, dpsi, theta, thetastar, dthetastar


def asymptotic_basis(wavenumbers, params: ScaleParams, grid: Grid) -> ModeBasis:
    """Closed-form mode basis over the wavenumber set, biorthogonalized."""
    ks = tuple(int(k) for k in wavenumbers)
    return biorthogonalize(ModeBasis(
        ks, grid, *asymptotic_profiles(np.array(ks)[:, None], params, grid)))


def numeric_basis(wavenumbers, profile: TemperatureProfile, grid: Grid) -> ModeBasis:
    """Biorthogonalized basis from the leading pencil modes and their adjoints.

    One pencil per wavenumber gives the direct mode and its adjoint at the
    same eigenvalue: solve_modes takes the eigenvalue and right vector
    from one np.linalg.eig (LAPACK's geev, without the GIL), and
    solve_conjugate_modes the left vector from one inverse-iteration solve
    at it.  The wavenumbers run on the cores this process may use
    (_map_cores), each whole on one thread, so the basis is bit-identical
    to a serial run.
    """
    ks = tuple(int(k) for k in wavenumbers)
    Dy = grid.diff

    def profiles(k: int):
        pen = assemble_pencil(k, profile, grid)
        mode = solve_modes(pen)
        cm = solve_conjugate_modes(pen, mode)
        return (np.real(mode.psi), np.real(Dy @ mode.psi), np.real(mode.w),
                np.real(cm.wtilde), np.real(Dy @ cm.wtilde), np.real(cm.phi))

    return biorthogonalize(ModeBasis(
        ks, grid, *(np.array(col) for col in zip(*_map_cores(profiles, ks)))))


# ---------------------------------------------------------------------------
# quadratures
# ---------------------------------------------------------------------------

def zeta_profiles(basis: ModeBasis):
    """(zeta, zeta~): the difference- and sum-slot y-kernels of M, each
    (N, N, m) with entry [i, j] = k_j Psi_j Theta*_i' +- k_i Psi_j' Theta*_i."""
    k = np.asarray(basis.wavenumbers)[:, None]
    stream = (k * basis.psi)[None] * basis.dthetastar[:, None]
    slope = k[:, None] * basis.dpsi[None] * basis.thetastar[:, None]
    return stream + slope, stream - slope


def resonant_slots(basis: ModeBasis):
    """The Fourier slots M reads, as two (n, weight, y-kernel) triples:
    n and weight (N, N) arrays, the kernel (N, N, m), entry [i, j] for M_ij.

    M_ij is the sum over them of weight * int kernel u_n dy: the sum slot
    k_i+k_j at weight 1/2 against zeta~_ij, and the difference slot
    |k_i-k_j| against zeta_ij at weight 1/2, or 1 on the diagonal (u_0).
    """
    k = np.asarray(basis.wavenumbers)
    total, dif = k[:, None] + k, np.abs(k[:, None] - k)
    zeta, zeta_t = zeta_profiles(basis)
    return ((total, np.full(total.shape, 0.5), zeta_t),
            (dif, np.where(dif == 0, 1.0, 0.5), zeta))


def compute_M(u1: FourierProfileSet, basis: ModeBasis) -> np.ndarray:
    """M_ij = <{psi_j, theta*_i}, u1> via the resonant Fourier slots."""
    g = basis.grid
    m = len(g.nodes)
    return sum(w * g.integrate(kern * u1.take(n, m))
               for n, w, kern in resonant_slots(basis))


def compute_K(basis: ModeBasis, nu: float):
    """K_ijl = -M_ij(theta_l), symmetrized over (j, l).

    theta_l lives on the single cosine slot k_l, so M_ij(theta_l) reads
    only the resonant slot of (i, j) at n = k_l: each slot of each (i, j)
    is integrated once, against the theta_l it meets, and every other
    entry is zero.  The size of K off the resonances k_i = k_j + k_l,
    k_i = |k_j - k_l| is reported (not projected).  nu is not read: the
    O(1/nu) corrections are dropped.
    """
    N = basis.size
    g = basis.grid
    ks = np.asarray(basis.wavenumbers)
    K = np.zeros((N, N, N))
    for n, w, kern in resonant_slots(basis):
        i, j, l = np.nonzero(n[:, :, None] == ks)
        K[i, j, l] += w[i, j] * g.integrate(kern[i, j] * basis.theta[l])
    K = -0.5 * (K + np.swapaxes(K, 1, 2))
    ki, kj, kl = np.meshgrid(ks, ks, ks, indexing="ij")
    resonant = (ki == kj + kl) | (ki == np.abs(kj - kl))
    kmax_res = np.max(np.abs(K[resonant])) if resonant.any() else 0.0
    off = np.abs(K[~resonant]).max() if (~resonant).any() else 0.0
    info = {"max_resonant": float(kmax_res), "max_nonresonant": float(off),
            "sparsity_ok": bool(off <= 1e-3 * max(kmax_res, 1e-300))}
    return K, info


def compute_f(eta1: FourierProfileSet, basis: ModeBasis) -> np.ndarray:
    """f_i = <theta*_i, eta1>: the k_i cosine slot against Theta*_i."""
    g = basis.grid
    return g.integrate(basis.thetastar * eta1.take(basis.wavenumbers, len(g.nodes)))


def eta_for_f(f_target: np.ndarray, basis: ModeBasis) -> FourierProfileSet:
    """Inverse of compute_f: heat-source profiles achieving a target f."""
    ts = basis.thetastar
    norms = basis.grid.integrate(ts * ts)
    out = FourierProfileSet()
    for k, prof in zip(basis.wavenumbers, (np.asarray(f_target) / norms)[:, None] * ts):
        out[k] = prof
    return out
