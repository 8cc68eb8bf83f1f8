"""Designed temperature profiles and their calibration.

The background temperature is an exponential boundary layer plus a small
polynomial correction,

    U(y) = Cbar_U + C_U r b^3 (1 - e^{-b y}) + mu * int_0^y s P(s) ds,

with all scales derived from a single large parameter b.  The polynomial
P is built from a target polynomial in 1/k so that a chosen set of
wavenumbers is pinned at the critical point of the associated scalar
eigenvalue equation while every other wavenumber is pushed strictly into
the stable half plane (see the scalar module).

Conventions: beta = r b with r = b^{-s0} is the lower Robin coefficient,
mu = b^{-s2} the polynomial amplitude, and 3 C_U = -8(1 - 1/nu)/(1 + r).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np

__all__ = [
    "ScaleParams",
    "DesignPolynomial",
    "TemperatureProfile",
    "derive_scales",
    "build_profile",
    "compute_beta1",
    "design_polynomial",
    "designed_profile",
    "calibrate_offsets",
    "kernel_target_coeffs",
    "perturbation_response",
]


class ProfileError(ValueError):
    pass


@dataclass(frozen=True)
class ScaleParams:
    """All b-derived scalars governing the profile and spectral regime."""

    b: float
    r: float
    beta: float
    beta1: float
    mu: float
    h: float
    nu: float
    C_U: float
    Cbar_U: float
    gamma: float


def derive_scales(b: float, s0: float = 0.95, s2: float = 0.05,
                  gamma: float = 1e-3) -> ScaleParams:
    """Derive every profile scale from (b, s0, s2).

    nu is exactly b^10.  beta1 here is the pure-exponential-profile value;
    compute_beta1 refreshes it once a polynomial is attached.
    """
    if b <= 1.0:
        raise ProfileError("b must exceed 1")
    if not (0.0 < s0 < 1.0):
        raise ProfileError("s0 must lie in (0, 1)")
    if not (0.0 < s2 < 1.0):
        raise ProfileError("s2 must lie in (0, 1)")
    r = b ** (-s0)
    beta = r * b
    mu = b ** (-s2)
    h = 10.0 * np.log(b)
    nu = b ** 10.0
    C_U = -8.0 * (1.0 - 1.0 / nu) / (3.0 * (1.0 + r))
    Cbar_U = C_U * r * b**4 / beta        # = C_U b^3
    return ScaleParams(b=b, r=r, beta=beta, beta1=0.0, mu=mu, h=h, nu=nu,
                       C_U=C_U, Cbar_U=Cbar_U, gamma=gamma)


# ---------------------------------------------------------------------------
# design polynomial
# ---------------------------------------------------------------------------

def _denominator(n: int) -> Fraction:
    # 3(n+4)!/2 + (n+5)!/4
    return Fraction(3 * factorial(n + 4), 2) + Fraction(factorial(n + 5), 4)


@cache
def _r_per_q(n: int) -> float:
    """r_n / q_n = 2^{n+6} / (3(n+4)!/2 + (n+5)!/4), the diagonal q -> r map."""
    return float(Fraction(2 ** (n + 6)) / _denominator(n))


@dataclass(frozen=True)
class DesignPolynomial:
    """P(y) = sum r_n y^n; offsets are the kernel calibration shifts d_j."""

    coeffs: tuple[float, ...]
    offsets: tuple[float, ...] = ()

    def __post_init__(self):
        if any(abs(d) >= 0.1 for d in self.offsets):
            raise ProfileError("calibration offsets must satisfy |d_j| < 1/10")

    def __call__(self, y):
        out = np.zeros_like(np.asarray(y, dtype=float))
        for c in self.coeffs[::-1]:
            out = out * y + c
        return out

    def antiderivative_s_p(self, y):
        """int_0^y s P(s) ds in closed form."""
        out = np.zeros_like(np.asarray(y, dtype=float))
        for n, c in enumerate(self.coeffs):
            out = out + c * np.asarray(y) ** (n + 2) / (n + 2)
        return out


def design_polynomial(targetQ) -> DesignPolynomial:
    """Map target coefficients q_n to polynomial coefficients r_n.

    Solves  sum_n r_n (2k)^{-n-6} (3(n+4)!/2 + (n+5)!/4) = k^{-6} sum q_l k^{-l}
    identically in k.  The system is diagonal in this basis, so the solve is
    exact rational arithmetic: r_n = q_n 2^{n+6} / (3(n+4)!/2 + (n+5)!/4).
    """
    q = [float(v) for v in targetQ]
    if not all(np.isfinite(q)):
        raise ProfileError("target coefficients must be finite")
    return DesignPolynomial(coeffs=tuple(qn * _r_per_q(n) for n, qn in enumerate(q)))


def kernel_target_coeffs(wavenumbers, offsets):
    """Coefficients of Z(p) = (prod_j (p - (k_j + d_j)^{-1}))^2, ascending in p.

    The squared-product form puts a double zero of the stabilizing term at
    each kernel wavenumber; the positive overall sign makes the polynomial
    perturbation damp every non-kernel mode (see scalar.design_y).
    """
    c = np.array([1.0], dtype=complex if np.iscomplexobj(offsets) else float)
    for kj, dj in zip(wavenumbers, offsets):
        root = 1.0 / (kj + dj)
        c = np.convolve(c, np.array([-root, 1.0]))
    q = np.convolve(c, c)
    return q


# ---------------------------------------------------------------------------
# perturbation functionals of the design boundary-value problem
# ---------------------------------------------------------------------------

def perturbation_response(k: float, poly: DesignPolynomial, beta: float):
    """Second derivative at 0 of the stream response to the polynomial forcing.

    For the pair  (D^2-k^2)^2 Psi = k^2 W,  (D^2-k^2) W = y^3 P(y) e^{-ky}
    with clamped Psi and Robin W, the curvature at the wall is

        Psi''(0) = -sum_n r_n (2k)^{-n-6} k [ (n+5)!/4 + (n+4)!/2
                                              + k (n+3)!/(beta+k) ].

    This is the quantity that feeds the eigenvalue perturbation; it is held
    in closed form (the factorials are exact integers).
    """
    return _curvature(k, poly.coeffs, beta)


def _curvature(k: float, coeffs, beta: float):
    """perturbation_response over the coefficients r_n; complex-safe."""
    s = 0.0
    for n, rn in enumerate(coeffs):
        br = (factorial(n + 5) / 4.0 + factorial(n + 4) / 2.0
              + k * factorial(n + 3) / (beta + k))
        s += rn * (2.0 * k) ** (-(n + 6)) * k * br
    return -s


def _kernel_response(k: float, wavenumbers, d, beta: float):
    """perturbation_response for the squared-product target at offsets d.

    Complex-safe in d so the calibration Jacobian can use complex-step
    differentiation.
    """
    q = kernel_target_coeffs(wavenumbers, d)
    return _curvature(k, [qn * _r_per_q(n) for n, qn in enumerate(q)], beta)


def calibrate_offsets(wavenumbers, params: ScaleParams):
    """Solve the kernel conditions for the offsets d.

    The calibrated polynomial must make the designed eigenvalue
    perturbation vanish at every kernel wavenumber.  The equations (carried
    in lambda units, k^2 mu times the response) are driven to zero by damped
    Gauss-Newton with complex-step Jacobian; the squared-product structure
    leaves the highest wavenumber's equation with a small positive floor,
    so convergence is declared either at 1e-13 or at a stationary point of
    the least-squares objective (at most 200 iterations).  The result must
    leave every kernel eigenvalue of the design equation below 1e-6 (in
    lambda units), and every |d_j| below 1/10; otherwise the calibration
    fails loudly.
    """
    ks = [int(k) for k in wavenumbers]
    if len(set(ks)) != len(ks) or any(k < 1 for k in ks):
        raise ProfileError("kernel wavenumbers must be distinct positive integers")
    beta = params.beta
    N = len(ks)
    d = np.zeros(N)
    # residuals carried in lambda units: |lambda_kj| ~ k^2 mu |W(kj)|
    lam_w = np.array([k * k * params.mu for k in ks])

    def residual(dv):
        return lam_w * np.array([_kernel_response(kj, ks, dv, beta) for kj in ks])

    def jacobian(dv):
        J = np.empty((N, N))
        hstep = 1e-30
        for l in range(N):
            dc = dv.astype(complex)
            dc[l] += 1j * hstep
            col = np.array([_kernel_response(kj, ks, dc, beta) for kj in ks]).imag
            J[:, l] = lam_w * col / hstep
        return J

    f = residual(d)
    lm = 0.0
    box = 0.095                        # keep iterates inside the |d| < 1/10 regime
    for _ in range(200):
        if np.max(np.abs(f)) < 1e-13:
            break
        J = jacobian(d)
        g = J.T @ f
        H = J.T @ J
        try:
            step = np.linalg.solve(H + lm * np.eye(N), -g)
        except np.linalg.LinAlgError:   # singular J^T J: damp as after a failed step
            step = None
        t = 1.0
        improved = False
        while step is not None and t > 1e-13:
            dn = np.clip(d + t * step, -box, box)
            fn = residual(dn)
            if np.linalg.norm(fn) < np.linalg.norm(f) - 1e-18:
                d, f = dn, fn
                improved = True
                break
            t *= 0.5
        if improved:
            lm *= 0.1
        elif lm == 0.0:
            lm = 1e-10
        elif lm > 1e6:
            break                       # converged to the structural floor
        else:
            lm *= 30.0
    # the binding contract: kernel eigenvalues of the design equation
    poly = design_polynomial(kernel_target_coeffs(ks, d))
    worst = 0.0
    for kj in ks:
        y = 2.0 * params.mu * perturbation_response(kj, poly, beta)
        z = np.sqrt(max(4.0 + y, 0.0)) - 1.0
        worst = max(worst, abs(kj * kj * (z * z - 1.0)))
    if worst > 1e-6:
        raise ProfileError(
            f"offset calibration left a kernel eigenvalue at {worst:.3e}")
    if np.max(np.abs(d)) >= 0.1:
        raise ProfileError("calibrated offsets left the |d| < 1/10 regime")
    return d


# ---------------------------------------------------------------------------
# the profile itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemperatureProfile:
    """Closed-form U(y) and U_y(y) for given scales and design polynomial."""

    params: ScaleParams
    poly: DesignPolynomial

    def u(self, y):
        p = self.params
        y = np.asarray(y, dtype=float)
        out = (p.Cbar_U + p.C_U * p.r * p.b**3 * (-np.expm1(-p.b * y))
               + p.mu * self.poly.antiderivative_s_p(y))
        return out

    def u_y(self, y):
        p = self.params
        y = np.asarray(y, dtype=float)
        return p.C_U * p.r * p.b**4 * np.exp(-p.b * y) + p.mu * y * self.poly(y)

    def sup_abs_u(self) -> float:
        y = np.linspace(0.0, self.params.h, 4001)
        return float(np.max(np.abs(self.u(y))))


def compute_beta1(params: ScaleParams, poly: DesignPolynomial) -> float:
    """beta1 = U_y(h)/U(h) so the upper Robin identity holds exactly."""
    probe = TemperatureProfile(params=params, poly=poly)
    uh = float(probe.u(params.h))
    if abs(uh) < 1e-200:
        raise ProfileError("degenerate profile: U(h) ~ 0")
    return float(probe.u_y(params.h)) / uh


def build_profile(params: ScaleParams, poly: DesignPolynomial) -> TemperatureProfile:
    """Attach the polynomial and refresh beta1 from the Robin identity."""
    if not all(np.isfinite(poly.coeffs)):
        raise ProfileError("polynomial coefficients must be finite")
    beta1 = compute_beta1(params, poly)
    return TemperatureProfile(params=replace(params, beta1=beta1), poly=poly)


def designed_profile(params: ScaleParams, wavenumbers) -> TemperatureProfile:
    """Full design: calibrate offsets, build the polynomial, build U."""
    d = calibrate_offsets(wavenumbers, params)
    q = kernel_target_coeffs(wavenumbers, d)
    poly = design_polynomial(q)
    poly = replace(poly, offsets=tuple(float(x) for x in d))
    return build_profile(params, poly)
