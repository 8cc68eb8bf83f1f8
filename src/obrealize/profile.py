"""Designed temperature profiles and their calibration.

The background temperature is an exponential boundary layer plus a small
polynomial correction,

    U(y) = Cbar_U + C_U r b^3 (1 - e^{-b y}) + mu * int_0^y s P(s) ds,

with all scales derived from a single large parameter b.  The polynomial
P is built from a target polynomial in 1/k so that a chosen set of
wavenumbers is pinned at the critical point of the associated scalar
eigenvalue equation while every other wavenumber is pushed strictly into
the stable half plane (see the scalar module).  The target has a double
zero at each 1/k_j; one offset, d_1, pins k_1 = 1 exactly, and the double
zero holds every other kernel wavenumber under the KERNEL_TOL = 1e-6
contract (below 1.6e-7 in lambda units at p = 2 for b from 1.5 to 1e4),
so d_2 ... d_p are 0.

Conventions: ScaleParams holds (b, s0, s2, gamma) and derives the rest:
beta = r b with r = b^{-s0} is the lower Robin coefficient, mu = b^{-s2} the
polynomial amplitude, and 3 C_U = -8(1 - 1/nu)/(1 + r).  The profile holds
the upper Robin coefficient beta1 = U_y(h)/U(h).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "ScaleParams",
    "DesignPolynomial",
    "TemperatureProfile",
    "derive_scales",
    "build_profile",
    "design_polynomial",
    "designed_profile",
    "calibrate_offsets",
    "kernel_target_coeffs",
    "perturbation_response",
]


# the kernel contract: every kernel eigenvalue of the design equation is at
# most KERNEL_TOL in lambda units.  calibrate_offsets refuses offsets past
# it, and a spectrum report passes only within it
KERNEL_TOL = 1e-6


class ProfileError(ValueError):
    pass


@dataclass(frozen=True)
class ScaleParams:
    """The regime's inputs (b, s0, s2, gamma); the other scales are derived
    from (b, s0, s2) once, at construction, with nu exactly b^10."""

    b: float
    s0: float
    s2: float
    gamma: float
    r: float = field(init=False)
    beta: float = field(init=False)
    mu: float = field(init=False)
    h: float = field(init=False)
    nu: float = field(init=False)
    C_U: float = field(init=False)
    Cbar_U: float = field(init=False)

    def __post_init__(self):
        b = self.b
        if b <= 1.0:
            raise ProfileError("b must exceed 1")
        for name in ("s0", "s2"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ProfileError(f"{name} must lie in (0, 1)")
        r = b ** (-self.s0)
        beta = r * b
        nu = b ** 10.0
        C_U = -8.0 * (1.0 - 1.0 / nu) / (3.0 * (1.0 + r))
        derived = dict(r=r, beta=beta, mu=b ** (-self.s2), h=10.0 * np.log(b),
                       nu=nu, C_U=C_U, Cbar_U=C_U * r * b**4 / beta)   # = C_U b^3
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def derive_scales(b: float, s0: float = 0.95, s2: float = 0.05,
                  gamma: float = 1e-3) -> ScaleParams:
    """The scales at (b, s0, s2) and gain gamma, b > 1 and s0, s2 in (0, 1)."""
    return ScaleParams(b=b, s0=s0, s2=s2, gamma=gamma)


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
    perturbation damp every non-kernel mode (see design_y).
    """
    c = np.array([1.0])
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
    s = 0.0
    for n, rn in enumerate(poly.coeffs):
        br = (factorial(n + 5) / 4.0 + factorial(n + 4) / 2.0
              + k * factorial(n + 3) / (beta + k))
        s += rn * (2.0 * k) ** (-(n + 6)) * k * br
    return -s


def design_y(k: int, params: ScaleParams, poly: DesignPolynomial) -> float:
    """Polynomial perturbation of the design equation at z = 1.

    Y_k = 2 mu Psi0''(0) with Psi0 the stream response of the design
    boundary-value problem; the factor 2 converts wall curvature into the
    (z+1)^2-normalized residual at z = 1.
    """
    return 2.0 * params.mu * perturbation_response(k, poly, params.beta)


def lambda_from_z(z, k: int):
    return k * k * (z * z - 1.0)


def _kernel_lambda(k: int, wavenumbers, d, params: ScaleParams) -> float:
    """Signed kernel residual of the design equation in lambda units,
    k^2 (z^2 - 1) with z = sqrt(4 + Y_k) - 1, for the squared-product
    target at offsets d."""
    poly = design_polynomial(kernel_target_coeffs(wavenumbers, d))
    z = np.sqrt(max(4.0 + design_y(k, params, poly), 0.0)) - 1.0
    return lambda_from_z(z, k)


def calibrate_offsets(wavenumbers, params: ScaleParams):
    """Offsets d that pin the kernel wavenumbers at criticality.

    Only the first wavenumber's equation has a root: d_1 comes from
    Brent's method on k_1's residual over [0, 1/10], and d_2 ... d_p stay
    0.  A zero offset keeps the target's exact double zero at 1/k_j, and
    that leaves each other kernel residual at a floor of one sign, under
    the contract, that no offset in the |d| < 1/10 regime removes (for
    k = 7 at p = 2 and b = 30, -1.26e-7 to -1.42e-7 in lambda units over
    every d_2; -1.30e-7 at d_2 = 0).  The result must leave every kernel
    eigenvalue of the design equation within KERNEL_TOL (in lambda
    units), and every |d_j| below 1/10; otherwise, or when k_1's residual
    keeps one sign over the bracket, the calibration fails loudly.
    """
    ks = [int(k) for k in wavenumbers]
    if len(set(ks)) != len(ks) or any(k < 1 for k in ks):
        raise ProfileError("kernel wavenumbers must be distinct positive integers")
    d = np.zeros(len(ks))

    def first(d1):
        d[0] = d1
        return _kernel_lambda(ks[0], ks, d, params)

    try:
        d[0] = brentq(first, 0.0, 0.1)
    except ValueError:                 # no sign change over the bracket
        raise ProfileError(f"offset calibration: k={ks[0]}'s residual keeps "
                           "one sign over d_1 in [0, 1/10]") from None
    # the binding contract: kernel eigenvalues of the design equation, by
    # SpectrumReport.passed's comparison, which a NaN fails
    worst = max(abs(_kernel_lambda(kj, ks, d, params)) for kj in ks)
    if not worst <= KERNEL_TOL:
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
    """Closed-form U(y) and U_y(y) for given scales and design polynomial,
    and beta1 = U_y(h)/U(h), so that the upper Robin identity holds exactly."""

    params: ScaleParams
    poly: DesignPolynomial
    beta1: float = field(init=False)

    def __post_init__(self):
        uh = float(self.u(self.params.h))
        if abs(uh) < 1e-200:
            raise ProfileError("degenerate profile: U(h) ~ 0")
        object.__setattr__(self, "beta1", float(self.u_y(self.params.h)) / uh)

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


def build_profile(params: ScaleParams, poly: DesignPolynomial) -> TemperatureProfile:
    """Attach the polynomial to the scales."""
    if not all(np.isfinite(poly.coeffs)):
        raise ProfileError("polynomial coefficients must be finite")
    return TemperatureProfile(params=params, poly=poly)


def designed_profile(params: ScaleParams, wavenumbers) -> TemperatureProfile:
    """Full design: calibrate offsets, build the polynomial, build U."""
    d = calibrate_offsets(wavenumbers, params)
    q = kernel_target_coeffs(wavenumbers, d)
    poly = design_polynomial(q)
    poly = replace(poly, offsets=tuple(float(x) for x in d))
    return build_profile(params, poly)
