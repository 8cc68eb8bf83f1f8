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
the design-level objects) or numerically computed pencil modes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import json

import numpy as np

from .grid import Grid
from .profile import ScaleParams, TemperatureProfile
from .spectral import (ModeBasis, biorthogonalize, solve_conjugate_modes,
                       solve_modes, assemble_pencil)

__all__ = [
    "FourierProfileSet",
    "ReducedSystem",
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

    def get(self, n: int, size: int) -> np.ndarray:
        return self.entries.get(n, np.zeros(size))

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

def asymptotic_profiles(k: int, params: ScaleParams, grid: Grid):
    """Leading-order critical-mode shapes sampled on the grid.

    Psi = y^2 e^{-ky}; Theta = amp (e^{-by} - e^{-ky}) with the layer
    transfer amplitude amp = 2|C_U|(1+3r) beta/(beta+k); Theta* =
    (k y^2 + y) e^{-ky} with unit slope at the wall (the conjugate scale is
    fixed afterwards by biorthogonality).
    """
    y = grid.nodes
    b, r, beta = params.b, params.r, params.beta
    psi = y**2 * np.exp(-k * y)
    amp = 2.0 * abs(params.C_U) * (1.0 + 3.0 * r) * beta / (beta + k)
    theta = amp * (np.exp(-b * y) - np.exp(-k * y))
    thetastar = (k * y**2 + y) * np.exp(-k * y)
    return psi, theta, thetastar


def _asym_derivatives(k: int, grid: Grid):
    y = grid.nodes
    dpsi = (2.0 * y - k * y**2) * np.exp(-k * y)
    # d/dy (k y^2 + y) e^{-ky} = (1 + 2ky - k(k y^2 + y)) e^{-ky}
    dthetastar = (1.0 + 2.0 * k * y - k * (k * y**2 + y)) * np.exp(-k * y)
    return dpsi, dthetastar


def asymptotic_basis(wavenumbers, params: ScaleParams, grid: Grid) -> ModeBasis:
    """Closed-form mode basis over the wavenumber set, biorthogonalized."""
    ks = tuple(int(k) for k in wavenumbers)
    psi, dpsi, theta, thetastar, dthetastar = [], [], [], [], []
    for k in ks:
        P, Th, Ts = asymptotic_profiles(k, params, grid)
        dP, dTs = _asym_derivatives(k, grid)
        psi.append(P)
        dpsi.append(dP)
        theta.append(Th)
        thetastar.append(Ts)
        dthetastar.append(dTs)
    return biorthogonalize(ModeBasis(wavenumbers=ks, grid=grid, psi=psi,
                                     dpsi=dpsi, theta=theta, thetastar=thetastar,
                                     dthetastar=dthetastar))


def numeric_basis(wavenumbers, profile: TemperatureProfile, grid: Grid) -> ModeBasis:
    """Biorthogonalized basis from the leading pencil modes and their adjoints.

    One pencil and one eigendecomposition per wavenumber give the direct
    mode and its adjoint at the same eigenvalue.
    """
    ks = tuple(int(k) for k in wavenumbers)
    psi, dpsi, theta, thetastar, dthetastar, phi = [], [], [], [], [], []
    Dy = grid.diff
    for k in ks:
        pen = assemble_pencil(k, profile, grid)
        mode = solve_modes(pen)
        cm = solve_conjugate_modes(pen)
        del pen                 # frees its (A, B) before the next assembly
        psi.append(np.real(mode.psi))
        dpsi.append(np.real(Dy @ mode.psi))
        theta.append(np.real(mode.w))
        thetastar.append(np.real(cm.wtilde))
        dthetastar.append(np.real(Dy @ cm.wtilde))
        phi.append(np.real(cm.phi))
    return biorthogonalize(ModeBasis(wavenumbers=ks, grid=grid, psi=psi,
                                     dpsi=dpsi, theta=theta, thetastar=thetastar,
                                     dthetastar=dthetastar, phi=phi))


# ---------------------------------------------------------------------------
# quadratures
# ---------------------------------------------------------------------------

def zeta_profiles(i: int, j: int, basis: ModeBasis):
    """(zeta_ij, zeta~_ij): the difference- and sum-slot y-kernels of M."""
    ki = basis.wavenumbers[i]
    kj = basis.wavenumbers[j]
    zeta = (kj * basis.psi[j] * basis.dthetastar[i]
            + ki * basis.dpsi[j] * basis.thetastar[i])
    zeta_t = (kj * basis.psi[j] * basis.dthetastar[i]
              - ki * basis.dpsi[j] * basis.thetastar[i])
    return zeta, zeta_t


def resonant_slots(i: int, j: int, basis: ModeBasis):
    """The Fourier slots M_ij reads, as (n, weight, y-kernel) triples.

    M_ij is the sum over them of weight * int kernel u_n dy: the sum slot
    k_i+k_j at weight 1/2 against zeta~_ij, and the difference slot
    |k_i-k_j| against zeta_ij at weight 1/2, or 1 on the diagonal (u_0).
    """
    ki, kj = basis.wavenumbers[i], basis.wavenumbers[j]
    zeta, zeta_t = zeta_profiles(i, j, basis)
    dif = abs(ki - kj)
    return ((ki + kj, 0.5, zeta_t), (dif, 1.0 if dif == 0 else 0.5, zeta))


def compute_M(u1: FourierProfileSet, basis: ModeBasis) -> np.ndarray:
    """M_ij = <{psi_j, theta*_i}, u1> via the resonant Fourier slots."""
    N = basis.size
    g = basis.grid
    m = len(g.nodes)
    M = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            M[i, j] = sum(w * g.integrate(kern * u1.get(n, m))
                          for n, w, kern in resonant_slots(i, j, basis))
    return M


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
    for i in range(N):
        for j in range(N):
            for n, w, kern in resonant_slots(i, j, basis):
                for l in np.flatnonzero(ks == n):
                    K[i, j, l] += w * g.integrate(kern * basis.theta[l])
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
    m = len(g.nodes)
    return np.array([g.integrate(basis.thetastar[i] * eta1.get(basis.wavenumbers[i], m))
                     for i in range(basis.size)])


def eta_for_f(f_target: np.ndarray, basis: ModeBasis) -> FourierProfileSet:
    """Inverse of compute_f: heat-source profiles achieving a target f."""
    g = basis.grid
    out = FourierProfileSet()
    for i, fi in enumerate(f_target):
        ts = basis.thetastar[i]
        norm = g.integrate(ts * ts)
        out[basis.wavenumbers[i]] = (fi / norm) * ts
    return out


# ---------------------------------------------------------------------------
# reduced system container
# ---------------------------------------------------------------------------

@dataclass
class ReducedSystem:
    """The quadratic ODE data dX/dt = K(X) + M X + f over N modes."""

    N: int
    K: np.ndarray
    M: np.ndarray
    f: np.ndarray
    kset: tuple[int, ...]
    R0: float = 1.0

    def validate(self):
        if self.K.shape != (self.N, self.N, self.N):
            raise ValueError("K must be N x N x N")
        if not np.allclose(self.K, np.swapaxes(self.K, 1, 2), atol=1e-12):
            raise ValueError("K must be symmetric in its last two indices")

    def to_json(self) -> str:
        self.validate()
        doc = {"N": self.N, "kset": list(self.kset),
               "K": self.K.tolist(), "M": self.M.tolist(),
               "f": self.f.tolist(), "R0": self.R0}
        return json.dumps(doc, sort_keys=True)
