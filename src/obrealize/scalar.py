"""Scalar eigenvalue equation for the per-wavenumber linear operator.

With z = kbar/k and kbar^2 = k^2 + lambda, the leading eigenvalue of the
coupled stream/temperature system satisfies a scalar consistency
condition.  Each regime has one form:

* design form (the b -> infinity contract used to engineer the kernel),
  solved in closed form by find_root_z:

      (z+1)^2 = 4 + Y_k(d),

  where Y_k collects the polynomial perturbation.  The calibrated
  offset d_1 makes Y vanish at k = 1, so z = 1 (lambda = 0) there; the
  target's double zeros hold Y at the other kernel wavenumbers under the
  1e-6 contract; and Y < 0 (hence Re lambda < 0) everywhere else.

* finite-b form: the exact layer-transfer hierarchy, whose leading root
  is TransferHierarchy.leading_lambda.  The wall curvature of the stream
  function is balanced against the temperature response of the
  exponential layer, keeping the full Taylor chain psi = sum rho_n y^n
  through order 8 and the exact single-layer moment transfer.  This is
  the form that tracks the collocation pencil at finite b.
"""
from __future__ import annotations

from math import comb, factorial

import numpy as np
from scipy.optimize import brentq

from .profile import DesignPolynomial, ScaleParams, design_y, lambda_from_z

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


def kbar_bound(params: ScaleParams) -> float:
    """A-priori bound |kbar| < h r b for eigenvalues right of Re = -1/2."""
    return params.h * params.r * params.b


# ---------------------------------------------------------------------------
# exact layer-transfer hierarchy (finite-b form)
# ---------------------------------------------------------------------------

class TransferHierarchy:
    """Exact finite-b consistency residual for the leading eigenvalue branch.

    Unknowns are the wall Taylor coefficients rho_2..rho_M of the stream
    function (M = 8).  The temperature response to the layer forcing
    y^n e^{-by} rho_n is written in closed form (exponential moments of
    the Robin kernel plus polynomial particular solutions); the stream
    responses are closed-form solutions of the clamped fourth-order
    operator.  rho_2 = 1 normalizes; the equations for m = 3..M are solved
    linearly and the residual of the m = 2 equation is returned.

    The stream response to R(y) e^{-by} does not depend on lambda, so for
    each layer degree n the constructor builds once the linear map from
    the coefficients of R to the wall derivatives psi^(m)(0), together
    with the residual map of its particular solve; residual() then
    evaluates any number of lambda with array arithmetic and one batched
    solve.

    The operator is the exponential layer alone.  At desk scales the
    designed polynomial acts non-perturbatively on the far field (its
    first-order response has the wrong sign while the actual eigenvalue
    shift is tiny), so its footprint is read off the collocation pencil.
    """

    M = 8   # highest wall Taylor order kept

    def __init__(self, k: int, params: ScaleParams):
        self.k = int(k)
        self.p = params
        self._AL = abs(params.C_U) * params.r * params.b ** 4
        self._fact = np.array([float(factorial(m)) for m in range(2, self.M + 1)])
        self._layer_maps = [(n, *self._layer_map(n)) for n in range(2, self.M + 1)]

    # -- closed-form building blocks (vectorized over kbar) ---------------

    def _layer_bulk_moment(self, n: int, kbar):
        """e^{-kbar y} amplitude of the Robin solve of (D^2-kbar^2) w = y^n e^{-by}.

        Positive normalization: the true solve carries amplitude -S_n.
        """
        b, beta = self.p.b, self.p.beta
        kap = kbar / beta
        f = factorial(n)
        return f * ((1 + kap) * (b - kbar) ** (-(n + 1))
                    - (1 - kap) * (b + kbar) ** (-(n + 1))) / (2 * kbar * (1 + kap))

    def _stream_response_bulk(self, kbar) -> np.ndarray:
        """psi^{(m)}(0), m=2..M along the last axis, for unit forcing
        e^{-kbar y} of the clamped biharmonic (D^2-k^2)^2 psi = f."""
        k = self.k
        p = np.asarray(kbar)[..., None]
        m = np.arange(2, self.M + 1)
        den = (p * p - k * k) ** 2
        return ((-p) ** m - (-k) ** m + (p - k) * m * (-k) ** (m - 1)) / den

    def _layer_particular(self, n: int, kbar) -> np.ndarray:
        """Polynomial Q (ascending, last axis) with
        (D^2-kbar^2)[Q e^{-by}] = y^n e^{-by}."""
        b = self.p.b
        A2 = b * b - np.asarray(kbar) ** 2
        c = np.zeros(A2.shape + (n + 1,), dtype=complex)
        for j in range(n, -1, -1):
            t = 1.0 if j == n else 0.0
            if j + 2 <= n:
                t = t - (j + 2) * (j + 1) * c[..., j + 2]
            if j + 1 <= n:
                t = t + 2 * b * (j + 1) * c[..., j + 1]
            c[..., j] = t / A2
        return c

    @staticmethod
    def _shifted_deriv(c: np.ndarray, q: complex) -> np.ndarray:
        """Coefficient action of d/dy on P(y) e^{-qy}: P' - q P."""
        dc = np.array([(i + 1) * c[i + 1] for i in range(len(c) - 1)] + [0.0],
                      dtype=complex)
        return dc - q * c

    def _layer_map(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Maps G, C of the clamped solve (D^2-k^2)^2 psi = R(y) e^{-by}, deg R = n.

        psi = P(y) e^{-by} + (c1 + c2 y) e^{-ky}, where the particular
        polynomial P = X R solves O P = R (O is (D^2-k^2)^2 acting on the
        coefficients of P e^{-by}) and c1, c2 clamp the wall.  Returns
        G with psi^{(m)}(0) = G @ R for m = 2..M, and C = O X - E with
        O P - R = C @ R.  The column-scaled least-squares solve handles
        the resonant case b = k (where the kernel polynomials drop the
        effective rank) by returning any particular solution; the
        clamping pieces absorb the kernel freedom.
        """
        q, k = self.p.b, self.k
        dim = n + 5
        O = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            e = np.zeros(dim, dtype=complex)
            e[j] = 1.0
            c1 = self._shifted_deriv(self._shifted_deriv(e, q), q) - k * k * e
            c1 = self._shifted_deriv(self._shifted_deriv(c1, q), q) - k * k * c1
            O[:, j] = c1
        col = np.linalg.norm(O, axis=0)
        col[col == 0] = 1.0
        E = np.eye(dim, n + 1, dtype=complex)
        X, *_ = np.linalg.lstsq(O / col, E, rcond=1e-13)
        X = X / col[:, None]
        # wall derivatives of P e^{-qy} + (c1 + c2 y) e^{-ky} with
        # c1 = -P_0 and c2 = -P_1 + (q - k) P_0
        W = np.zeros((self.M - 1, dim), dtype=complex)
        for im, m in enumerate(range(2, self.M + 1)):
            for j in range(min(m, dim - 1) + 1):
                W[im, j] = comb(m, j) * factorial(j) * (-q) ** (m - j)
            W[im, 0] += -(-k) ** m + (q - k) * m * (-k) ** (m - 1)
            W[im, 1] += -m * (-k) ** (m - 1)
        return W @ X, O @ X - E

    def residual(self, lam):
        """Consistency residual 2 - psi''(0) at the normalized Taylor chain.

        lam is a scalar or an array; the result has its shape, real where
        every imaginary part is below 1e-10.  A point whose particular
        solve fails its check (|O P - R| > 1e-8 |R|) gives NaN, as does a
        singular transfer system.
        """
        k, AL = self.k, self._AL
        lam_a = np.asarray(lam, dtype=complex)
        kbar = np.sqrt(k * k + lam_a.ravel())
        kbar.imag[np.abs(kbar.imag) < 1e-300] = 0.0
        phid = self._stream_response_bulk(kbar)
        T = np.empty(kbar.shape + (self.M - 1, self.M - 1), dtype=complex)
        bad = np.zeros(kbar.shape, dtype=bool)
        for jn, (n, G, C) in enumerate(self._layer_maps):
            s_n = self._layer_bulk_moment(n, kbar)
            R = -(k * k) * self._layer_particular(n, kbar)
            bad |= (np.linalg.norm(R @ C.T, axis=-1)
                    > 1e-8 * np.maximum(np.linalg.norm(R, axis=-1), 1e-300))
            T[:, :, jn] = ((k * k) * AL * s_n)[:, None] * phid + AL * (R @ G.T)
        T /= self._fact[:, None]
        A = T[:, 1:, 1:] - np.eye(self.M - 2)
        try:
            rho_rest = np.linalg.solve(A, -T[:, 1:, :1])[..., 0]
        except np.linalg.LinAlgError:
            if kbar.size == 1:
                return np.nan
            return np.array([self.residual(x) for x in lam_a.ravel()]
                            ).reshape(lam_a.shape)[()]
        rho = np.concatenate([np.ones((kbar.size, 1)), rho_rest], axis=1)
        theta = 2.0 * np.einsum("bi,bi->b", T[:, 0, :], rho)   # psi''(0), rho_2 = 1
        resid = 2.0 - theta
        resid[bad] = np.nan
        if np.all(np.abs(resid.imag) < 1e-10):
            resid = resid.real
        return resid.reshape(lam_a.shape)[()]

    def leading_lambda(self) -> float:
        """Leading real eigenvalue of the separated branch.

        The scan evaluates 400 points of kbar in (0, k) -- i.e. lambda in
        (-k^2, 0) -- in one residual call, staying clear of the removable
        singularity of the transfer kernels at lambda = 0.  The truncated
        hierarchy has isolated internal resonances (poles) that also flip
        the residual's sign, so each sign change is polished by Brent's
        method (scipy.optimize.brentq) one lambda at a time, a bracket that
        it cannot close (a NaN inside it) is skipped, and a root counts
        only if the residual there is below 1e-6 (poles blow up); the
        largest such root is returned.  Raises ScalarError when no root is
        found.
        """
        k = self.k
        kbars = np.linspace(5e-3, 0.999 * k, 400)
        lams = kbars**2 - k * k
        vals = self.residual(lams)
        roots = []
        for i in range(len(vals) - 1):
            fa, fb = vals[i], vals[i + 1]
            if not (np.isfinite(fa) and np.isfinite(fb)):
                continue
            if np.sign(fa) == np.sign(fb):
                continue
            try:
                cand = brentq(self.residual, lams[i], lams[i + 1], xtol=1e-14,
                              rtol=4 * np.finfo(float).eps)
            except (ValueError, RuntimeError):      # NaN or no convergence
                continue
            fc = self.residual(cand)
            # genuine zero: residual small and locally bounded (poles blow up)
            if np.isfinite(fc) and abs(fc) < 1e-6:
                roots.append(cand)
        if not roots:
            raise ScalarError(f"no separated root found for k={k}")
        return float(max(roots))


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def find_root_z(k: int, params: ScaleParams, poly: DesignPolynomial) -> complex:
    """Root of the design equation near z = 1.

    (z+1)^2 = 4 + Y_k has the closed-form root z = sqrt(4 + Y) - 1.  The
    calibrated offset d_1 gives Y = 0 at k = 1, so z = 1 to machine
    precision; at the other kernel wavenumbers the target's double zero
    leaves lambda within the 1e-6 contract (below 1.6e-7 at p = 2); and
    Y < 0 gives Re z < 1 off the kernel.  The finite-b root is
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
    if abs((z + 1.0) ** 2 - 4.0 - y) > 1e-12:
        raise ScalarError("design root did not converge")
    return complex(z)
