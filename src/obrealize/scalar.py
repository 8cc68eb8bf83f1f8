"""Scalar eigenvalue equation for the per-wavenumber linear operator.

With z = kbar/k and kbar^2 = k^2 + lambda, the leading eigenvalue of the
coupled stream/temperature system satisfies a scalar consistency
condition.  Each regime has one form:

* design form (the b -> infinity contract used to engineer the kernel),
  solved in closed form by find_root_z:

      (z+1)^2 = 4 + Y_k(d),

  where Y_k collects the polynomial perturbation.  The calibrated
  offsets d make Y vanish at the kernel wavenumbers, so z = 1 (lambda = 0)
  exactly, and push Y < 0 (hence Re lambda < 0) everywhere else.

* finite-b form: the exact layer-transfer hierarchy, whose leading root
  is TransferHierarchy.leading_lambda.  The wall curvature of the stream
  function is balanced against the temperature response of the
  exponential layer, keeping the full Taylor chain psi = sum rho_n y^n
  through a configurable order and the exact single-layer moment
  transfer.  This is the form that tracks the collocation pencil at
  finite b.
"""
from __future__ import annotations

from math import comb, factorial

import numpy as np

from .profile import (DesignPolynomial, ScaleParams, perturbation_response)

__all__ = [
    "design_y",
    "find_root_z",
    "kbar_bound",
    "lambda_from_z",
    "TransferHierarchy",
    "ScalarError",
]


class ScalarError(ValueError):
    pass


def lambda_from_z(z, k: int):
    return k * k * (z * z - 1.0)


def kbar_bound(params: ScaleParams) -> float:
    """A-priori bound |kbar| < h r b for eigenvalues right of Re = -1/2."""
    return params.h * params.r * params.b


def design_y(k: int, params: ScaleParams, poly: DesignPolynomial) -> float:
    """Polynomial perturbation of the design equation at z = 1.

    Y_k = 2 mu Psi0''(0) with Psi0 the stream response of the design
    boundary-value problem; the factor 2 converts wall curvature into the
    (z+1)^2-normalized residual at z = 1.
    """
    return 2.0 * params.mu * perturbation_response(k, poly, params.beta)


# ---------------------------------------------------------------------------
# exact layer-transfer hierarchy (finite-b form)
# ---------------------------------------------------------------------------

class TransferHierarchy:
    """Exact finite-b consistency residual for the leading eigenvalue branch.

    Unknowns are the wall Taylor coefficients rho_2..rho_M of the stream
    function.  The temperature response to the layer forcing
    y^n e^{-by} rho_n is written in closed form (exponential moments of
    the Robin kernel plus polynomial particular solutions); the stream
    responses are closed-form solutions of the clamped fourth-order
    operator.  rho_2 = 1 normalizes; the equations for m = 3..M are solved
    linearly and the residual of the m = 2 equation is returned.

    The operator is the exponential layer alone.  At desk scales the
    designed polynomial acts non-perturbatively on the far field (its
    first-order response has the wrong sign while the actual eigenvalue
    shift is tiny), so its footprint is read off the collocation pencil.
    """

    def __init__(self, k: int, params: ScaleParams, order: int = 8):
        if order < 3:
            raise ScalarError("hierarchy order must be at least 3")
        self.k = int(k)
        self.p = params
        self.M = order

    # -- closed-form building blocks -------------------------------------

    def _layer_bulk_moment(self, n: int, kbar: complex) -> complex:
        """e^{-kbar y} amplitude of the Robin solve of (D^2-kbar^2) w = y^n e^{-by}.

        Positive normalization: the true solve carries amplitude -S_n.
        """
        b, beta = self.p.b, self.p.beta
        kap = kbar / beta
        f = factorial(n)
        return f * ((1 + kap) * (b - kbar) ** (-(n + 1))
                    - (1 - kap) * (b + kbar) ** (-(n + 1))) / (2 * kbar * (1 + kap))

    def _stream_response_bulk(self, kbar: complex) -> np.ndarray:
        """psi^{(m)}(0), m=2..M, for unit forcing e^{-kbar y} of the clamped
        biharmonic (D^2-k^2)^2 psi = f."""
        k = self.k
        p = kbar
        den = (p * p - k * k) ** 2
        out = []
        for m in range(2, self.M + 1):
            v = (-p) ** m - (-k) ** m + (p - k) * m * (-k) ** (m - 1)
            out.append(v / den)
        return np.array(out)

    def _layer_particular(self, n: int, kbar: complex) -> np.ndarray:
        """Polynomial Q (ascending) with (D^2-kbar^2)[Q e^{-by}] = y^n e^{-by}."""
        b = self.p.b
        c = np.zeros(n + 1, dtype=complex)
        A2 = b * b - kbar * kbar
        for j in range(n, -1, -1):
            t = 1.0 if j == n else 0.0
            if j + 2 <= n:
                t -= (j + 2) * (j + 1) * c[j + 2]
            if j + 1 <= n:
                t += 2 * b * (j + 1) * c[j + 1]
            c[j] = t / A2
        return c

    @staticmethod
    def _shifted_deriv(c: np.ndarray, q: complex) -> np.ndarray:
        """Coefficient action of d/dy on P(y) e^{-qy}: P' - q P."""
        dc = np.array([(i + 1) * c[i + 1] for i in range(len(c) - 1)] + [0.0],
                      dtype=complex)
        return dc - q * c

    def _expoly_particular(self, R: np.ndarray, q: complex, a: complex) -> np.ndarray:
        """Particular polynomial P with (D^2-a^2)^2 [P e^{-qy}] = R e^{-qy}.

        The least-squares solve handles the resonant case q = a (where the
        kernel polynomials drop the effective rank) by returning any
        particular solution; the clamping/Robin homogeneous pieces absorb
        the kernel freedom.
        """
        dim = len(R) + 4
        O = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            e = np.zeros(dim, dtype=complex)
            e[j] = 1.0
            c1 = self._shifted_deriv(self._shifted_deriv(e, q), q) - a * a * e
            c1 = self._shifted_deriv(self._shifted_deriv(c1, q), q) - a * a * c1
            O[:, j] = c1
        col = np.linalg.norm(O, axis=0)
        col[col == 0] = 1.0
        rhs = np.zeros(dim, dtype=complex)
        rhs[:len(R)] = R
        P, *_ = np.linalg.lstsq(O / col, rhs, rcond=1e-13)
        P = P / col
        if np.linalg.norm(O @ P - rhs) > 1e-8 * max(np.linalg.norm(rhs), 1e-300):
            raise ScalarError("exponential-polynomial solve failed")
        return P

    def _wall_derivs(self, P: np.ndarray, q: complex, c1: complex,
                     c2: complex) -> np.ndarray:
        """m-th wall derivatives of P(y)e^{-qy} + (c1 + c2 y)e^{-ky}."""
        k = self.k
        out = []
        for m in range(2, self.M + 1):
            v = sum(comb(m, j) * factorial(j) * P[j] * (-q) ** (m - j)
                    for j in range(0, min(m, len(P) - 1) + 1))
            v += c1 * (-k) ** m + c2 * m * (-k) ** (m - 1)
            out.append(v)
        return np.array(out)

    def _stream_response_layer(self, R: np.ndarray, q: complex) -> np.ndarray:
        """psi^{(m)}(0), m=2..M, for clamped (D^2-k^2)^2 psi = R(y) e^{-qy}."""
        P = self._expoly_particular(np.asarray(R, dtype=complex), q, self.k)
        c1 = -P[0]
        P1 = P[1] if len(P) > 1 else 0.0
        c2 = -(P1 - q * P[0]) + self.k * c1
        return self._wall_derivs(P, q, c1, c2)

    def _transfer_matrix(self, kbar: complex) -> np.ndarray:
        p = self.p
        k = self.k
        AL = abs(p.C_U) * p.r * p.b ** 4
        ns = list(range(2, self.M + 1))
        phid = self._stream_response_bulk(kbar)
        T = np.zeros((len(ns), len(ns)), dtype=complex)
        for jn, n in enumerate(ns):
            s_n = self._layer_bulk_moment(n, kbar)
            contrib = (k * k) * AL * s_n * phid
            Q = self._layer_particular(n, kbar)
            contrib = contrib + AL * self._stream_response_layer(-(k * k) * Q, p.b)
            for im, m in enumerate(ns):
                T[im, jn] = contrib[im] / factorial(m)
        return T

    def residual(self, lam: complex) -> float:
        """Consistency residual 2 - psi''(0) at the normalized Taylor chain."""
        k = self.k
        kbar = np.sqrt(complex(k * k + lam))
        if abs(kbar.imag) < 1e-300:
            kbar = complex(kbar.real, 0.0)
        T = self._transfer_matrix(kbar)
        nM = T.shape[0]
        A = T[1:, 1:] - np.eye(nM - 1)
        rho_rest = np.linalg.solve(A, -T[1:, 0])
        rho = np.concatenate([[1.0], rho_rest])
        theta = 2.0 * (T[0] @ rho)    # psi''(0) with rho_2 = 1
        resid = 2.0 - theta
        return float(resid.real) if abs(resid.imag) < 1e-10 else resid

    def _safe_residual(self, lam: float) -> float:
        try:
            return self.residual(lam)
        except (np.linalg.LinAlgError, ScalarError):
            return np.nan

    def leading_lambda(self, scan_points: int = 400) -> float:
        """Leading real eigenvalue of the separated branch.

        The scan runs over kbar in (0, k) -- i.e. lambda in (-k^2, 0) -- to
        stay clear of the removable singularity of the transfer kernels at
        lambda = 0.  The truncated hierarchy has isolated internal
        resonances (poles) that also flip the residual's sign, so sign
        changes are bisected with a pole guard and verified to be genuine
        zeros; the largest verified root is returned.
        """
        k = self.k
        kbars = np.linspace(5e-3, 0.999 * k, scan_points)
        lams = kbars**2 - k * k
        vals = np.array([self._safe_residual(x) for x in lams])
        roots = []
        for i in range(len(vals) - 1):
            fa, fb = vals[i], vals[i + 1]
            if not (np.isfinite(fa) and np.isfinite(fb)):
                continue
            if np.sign(fa) == np.sign(fb):
                continue
            a, b = lams[i], lams[i + 1]
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = self._safe_residual(mid)
                if not np.isfinite(fm):
                    mid = a + 0.61803398875 * (b - a)
                    fm = self._safe_residual(mid)
                    if not np.isfinite(fm):
                        break
                if np.sign(fm) == np.sign(fa):
                    a, fa = mid, fm
                else:
                    b, fb = mid, fm
                if b - a < 1e-14 * max(1.0, abs(a)):
                    break
            cand = 0.5 * (a + b)
            fc = self._safe_residual(cand)
            # genuine zero: residual small and locally bounded (poles blow up)
            if np.isfinite(fc) and abs(fc) < 1e-6:
                roots.append(cand)
        if not roots:
            raise ScalarError(f"no separated root found for k={k}")
        return float(max(roots))


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def find_root_z(k: int, params: ScaleParams, poly: DesignPolynomial,
                tol: float = 1e-12) -> complex:
    """Root of the design equation near z = 1.

    (z+1)^2 = 4 + Y_k has the closed-form root z = sqrt(4 + Y) - 1; with
    calibrated offsets Y(k in kernel) = 0 so z = 1 to machine precision,
    and Y < 0 gives Re z < 1 off the kernel.  The finite-b root is
    TransferHierarchy.leading_lambda.
    """
    if k > kbar_bound(params):
        raise ScalarError(
            f"k={k} beyond the a-priori bound h r b = {kbar_bound(params):.3g}; "
            "mode is gapped a priori")
    y = design_y(k, params, poly)
    if y <= -4.0:
        raise ScalarError("design perturbation too large; no root near 1")
    z = np.sqrt(4.0 + y) - 1.0
    # Newton polish on the residual (a = 0)
    for _ in range(4):
        f = (z + 1.0) ** 2 - 4.0 - y
        z -= f / (2.0 * (z + 1.0))
    if abs((z + 1.0) ** 2 - 4.0 - y) > tol:
        raise ScalarError("design root did not converge")
    return complex(z)
