"""Collocation grids on [0, h] with boundary-layer grading.

The temperature profile varies on the scale 1/b near y = 0 while the
eigenfunctions live on O(1/k) scales, so we use Chebyshev points mapped
through an exponential stretch that clusters nodes near y = 0.  The grid
carries spectral differentiation matrices and Clenshaw-Curtis quadrature
weights transformed to the mapped coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def chebyshev_diff(n: int):
    """Differentiation matrix on Chebyshev-Lobatto points x_j = cos(j pi/n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    X = np.tile(x, (n + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    return D, x


def clenshaw_curtis(n: int):
    """Quadrature weights for Chebyshev-Lobatto points on [-1, 1]."""
    if n < 2:
        raise ValueError("need n >= 2")
    theta = np.pi * np.arange(n + 1) / n
    w = np.zeros(n + 1)
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / (n * n - 1)
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2 * k * theta[1:-1]) / (4 * k * k - 1)
        v -= np.cos(n * theta[1:-1]) / (n * n - 1)
    else:
        w[0] = w[n] = 1.0 / (n * n)
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * k * theta[1:-1]) / (4 * k * k - 1)
    w[1:-1] = 2.0 * v / n
    return w


@dataclass
class Grid:
    """Graded collocation grid on [0, h].

    nodes are strictly increasing in [0, h], with y = 0 exactly at the
    first node and y = h exactly at the last, so index 0 and index -1 are
    the two walls; weights are the transformed Clenshaw-Curtis weights
    (positive, summing to h); diff is d/dy at the nodes and d2 its square,
    computed once per grid.
    """

    h: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    diff: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)

    def integrate(self, f: np.ndarray) -> float | complex:
        return (self.weights * f).sum(axis=-1)


def make_grid(h: float, n: int = 280, alpha: float = 5.0) -> Grid:
    """Build the graded grid: y = h (e^{alpha s} - 1)/(e^alpha - 1), s in [0,1].

    The map concentrates points near y = 0; alpha ~ 5 puts a few dozen
    nodes inside a 1/30 boundary layer at n ~ 280 without wrecking the
    conditioning of the second-derivative operator.
    """
    if h <= 0:
        raise ValueError("domain height must be positive")
    D, x = chebyshev_diff(n)
    wx = clenshaw_curtis(n)
    s = (1.0 - x) / 2.0     # s = 0 at x = 1; s, and so y, rise with the node index
    denom = np.expm1(alpha)
    y = h * np.expm1(alpha * s) / denom
    dyds = h * alpha * np.exp(alpha * s) / denom
    dydx = -0.5 * dyds
    Dy = D / dydx[:, None]
    wy = wx * np.abs(dydx)
    y[0] = 0.0
    y[-1] = h
    return Grid(h=h, nodes=y, weights=wy, diff=Dy, d2=Dy @ Dy)
