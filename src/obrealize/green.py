"""Green function of the shifted Laplacian with Robin boundary conditions.

Both routines return the kernel of (kbar^2 - D_y^2)^{-1} on [0, h] with
d/dy G = beta G at y = 0 and d/dy G = beta1 G at y = h; equivalently
(D_y^2 - kbar^2) G = -delta(y - y0), so the y-derivative jumps by -1
across the diagonal.  green_closed evaluates the half-line formula

    G(y, y0) = e^{-kbar y>} (sinh(kbar y<) + (kbar/beta) cosh(kbar y<))
               / (kbar (1 + kbar/beta)),

which ignores the far wall; green_numeric builds the finite-interval
kernel from two numerically integrated homogeneous solutions, so the two
routes are independent and differ only by the e^{-kbar(h-y)} far-wall
layer.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

__all__ = ["green_closed", "green_numeric", "GreenError"]


class GreenError(ValueError):
    pass


def green_closed(kbar, beta: float, y, y0):
    """Half-line Robin Green kernel; symmetric in (y, y0); Re kbar > 0."""
    kbar = complex(kbar)
    if kbar.real <= 0:
        raise GreenError("need Re kbar > 0")
    y = np.asarray(y, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    lo = np.minimum(y, y0)
    hi = np.maximum(y, y0)
    val = (np.exp(-kbar * hi)
           * (np.sinh(kbar * lo) + (kbar / beta) * np.cosh(kbar * lo))
           / (kbar * (1.0 + kbar / beta)))
    if np.isrealobj(np.asarray(kbar)) or kbar.imag == 0.0:
        return val.real if np.iscomplexobj(val) else val
    return val


def _integrate_scaled(kbar: complex, h: float, beta_left: complex, nodes: np.ndarray):
    """Integrate u'' = kbar^2 u with u'(0) = beta_left u(0), scaled by e^{-kbar y}.

    Writing u = e^{kbar y} v keeps v bounded; returns v and v' at the nodes.
    """
    def rhs(t, s):
        v, vp = s[0] + 1j * s[1], s[2] + 1j * s[3]
        dv = vp
        dvp = -2.0 * kbar * vp          # v'' + 2 kbar v' = 0
        return [dv.real, dv.imag, dvp.real, dvp.imag]

    v0 = 1.0 + 0.0j
    vp0 = (beta_left - kbar) * v0       # u'(0) = beta u(0)
    sol = solve_ivp(rhs, (0.0, h), [v0.real, v0.imag, vp0.real, vp0.imag],
                    t_eval=nodes, rtol=1e-12, atol=1e-14, method="DOP853")
    if not sol.success:
        raise GreenError("homogeneous solve failed: " + sol.message)
    v = sol.y[0] + 1j * sol.y[1]
    vp = sol.y[2] + 1j * sol.y[3]
    return v, vp


def green_numeric(kbar, beta: float, beta1: float, grid) -> np.ndarray:
    """Finite-interval Robin Green kernel sampled on the grid.

    Two homogeneous solutions are integrated numerically (exponentially
    rescaled so no overflow occurs for large |kbar| h): u_L satisfies the
    left Robin condition, u_R the right one.  The kernel is
    G(y,y0) = -u_L(y<) u_R(y>)/W with W the (constant) Wronskian; the
    overall sign matches green_closed's convention (kbar^2 - D^2)^{-1}.
    A vanishing Wronskian means kbar^2 hits a Robin eigenvalue of D_y^2.
    """
    kbar = complex(kbar)
    if kbar.real <= 0:
        raise GreenError("need Re kbar > 0")
    y = np.asarray(grid.nodes, dtype=float)
    h = grid.h
    # u_L = e^{kbar y} vL(y): left Robin at 0.
    vL, vLp = _integrate_scaled(kbar, h, beta, y)
    # u_R = e^{kbar (h - y)} vR(h - y) integrated in t = h - y from the right
    # wall: d/dy = -d/dt, Robin at h: u_R'(h) = beta1 u_R(h)  ->  in t:
    # uR = e^{kbar t} vR(t) with vR'(0) = (-beta1 - kbar) vR(0).
    t_nodes = np.sort(h - y)
    vR_t, vRp_t = _integrate_scaled(kbar, h, -beta1, t_nodes)
    # map back to y order (ascending y = descending t)
    vR = vR_t[::-1]
    vRp = -vRp_t[::-1]                  # d/dy vR(h-y)
    # u_L = e^{kbar y} vL ; u_L' = e^{kbar y}(kbar vL + vLp)
    # u_R = e^{kbar(h-y)} vR(in y) ; u_R' = e^{kbar(h-y)}(-kbar vR + vRp)
    # W = u_L u_R' - u_L' u_R = e^{kbar h} * Wtilde, constant in y.
    Wt = vL * (-kbar * vR + vRp) - (kbar * vL + vLp) * vR
    Wtilde = Wt[len(Wt) // 2]
    scale = max(np.max(np.abs(vL)), 1.0) * max(np.max(np.abs(vR)), 1.0) * abs(kbar)
    if abs(Wtilde) < 1e-9 * scale:
        raise GreenError("singular kernel: kbar^2 matches a Robin eigenvalue")
    # G(y_i, y_j) = -u_L(min) u_R(max) / W
    #            = -vL(min) vR(max) e^{kbar(min + h - max)} / (e^{kbar h} Wtilde)
    #            = -vL(min) vR(max) e^{-kbar(max - min)} / Wtilde
    idx = np.arange(len(y))
    I, J = np.meshgrid(idx, idx, indexing="ij")
    iL = np.minimum(I, J)
    iR = np.maximum(I, J)
    G = -vL[iL] * vR[iR] * np.exp(-kbar * (y[iR] - y[iL])) / Wtilde
    if kbar.imag == 0.0:
        return G.real
    return G
