"""Inverse problems: wavenumber sets, decomposition checks, and synthesis
of the forcing profiles that realize a prescribed linear term.

The wavenumber machinery guarantees that every unordered pair of base
wavenumbers has a distinct sum (a Sidon set) with no base element
divisible by 5, so the resonance map (j, l) -> k_j + k_l is injective and
all the inverse linear systems decouple.

M is linear in u1 = sum_n u_n(y) cos(n x), and entry (i, j) reads only the
two resonant slots k_i + k_j and |k_i - k_j| (reduction.resonant_slots).
Expanding every slot profile over bump-Legendre functions makes each entry
one linear functional of the coefficients, integrated with the same
kernels and quadrature as compute_M.  control_solve takes the
minimum-norm coefficients achieving M = T from one row-normalized least
squares solve over these N^2 functionals (Golub & Van Loan, Matrix
Computations, section 5.5), for any p.  moment_profile solves the same
kind of problem for prescribed exponential moments of a single profile.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .grid import Grid, make_grid
from .profile import TemperatureProfile
from .reduction import FourierProfileSet, ModeBasis, compute_M, resonant_slots

__all__ = [
    "WavenumberSet",
    "ControlSolution",
    "ControlError",
    "sidon_set",
    "extended_set",
    "verify_decomposition",
    "moment_profile",
    "g1_from_u1",
    "control_solve",
]


class ControlError(ValueError):
    pass


# ---------------------------------------------------------------------------
# wavenumber sets
# ---------------------------------------------------------------------------

def sidon_set(p: int) -> list[int]:
    """Base wavenumbers with pairwise-distinct sums, none divisible by 5.

    Inductive rule: seed {1, 7}; extend by the smallest odd integer that
    exceeds every existing pairwise sum and is not a multiple of 5.
    extended_set checks the result (WavenumberSet.validate).
    """
    if p < 1:
        raise ControlError("p must be a positive integer")
    base = [1] if p == 1 else [1, 7]
    while len(base) < p:
        cand = max(a + b for a in base for b in base) + 1
        if cand % 2 == 0:
            cand += 1
        while cand % 5 == 0:
            cand += 2
        base.append(cand)
    return base


def _check_sidon(base) -> None:
    sums = {}
    for i in range(len(base)):
        for j in range(i, len(base)):
            s = base[i] + base[j]
            if s in sums:
                raise ControlError(f"pairwise sums collide: {s}")
            sums[s] = (i, j)
    if any(b % 5 == 0 for b in base):
        raise ControlError("base element divisible by 5")


@dataclass(frozen=True)
class WavenumberSet:
    """Base Sidon wavenumbers plus all unordered pairwise sums.

    full = base followed by the sorted sums; p = len(base) slow and N =
    len(full) modes in all.
    """

    base: tuple[int, ...]

    @property
    def full(self) -> tuple[int, ...]:
        base = self.base
        return base + tuple(sorted(k + l for i, k in enumerate(base) for l in base[i:]))

    @property
    def p(self) -> int:
        return len(self.base)

    @property
    def N(self) -> int:
        return len(self.full)

    def index_of_sum(self, j: int, l: int) -> int:
        """The index in full of k_j + k_l, for base indices j and l (0-based)."""
        return self.full.index(self.base[j] + self.base[l])

    def validate(self) -> None:
        _check_sidon(self.base)
        full = self.full
        pair_map = {}       # a repeated entry full[i] = full[j] puts (i, i), (i, j) on one key
        for i in range(len(full)):
            for j in range(i, len(full)):
                key = (abs(full[j] - full[i]), full[i] + full[j])
                if key in pair_map:
                    raise ControlError("pair map (|k_j-k_i|, k_j+k_i) not injective")
                pair_map[key] = (i, j)


def extended_set(p: int) -> WavenumberSet:
    ws = WavenumberSet(base=tuple(sidon_set(p)))
    ws.validate()
    return ws


def verify_decomposition(K: np.ndarray, kset: WavenumberSet,
                         rhs: np.ndarray) -> np.ndarray:
    """Solve sum_i K_{i j l} chi_i = b_{jl} over the fast indices.

    The Sidon structure makes the system block-diagonal: each unordered
    (j, l) couples to the single fast index with k = k_j + k_l.  Raises if
    the wavenumber set violates the mod-5 condition (the resonant
    coefficient is then not guaranteed nonzero) or if a resonant
    coefficient vanishes numerically.
    """
    p = kset.p
    N = kset.N
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (p, p):
        raise ControlError("rhs must be p x p")
    for kj in kset.base:
        for kl in kset.base:
            if kj == 5 * kl:
                raise ControlError(
                    f"decomposition violated: base pair ({kj},{kl}) with k_j = 5 k_l "
                    "makes the resonant coefficient vanish")
    pairs = [(j, l) for j in range(p) for l in range(j, p)]
    A = np.zeros((len(pairs), N - p))
    b = np.zeros(len(pairs))
    for row, (j, l) in enumerate(pairs):
        A[row] = K[p:, j, l]
        b[row] = 0.5 * (rhs[j, l] + rhs[l, j])
        diag = K[kset.index_of_sum(j, l), j, l]
        if abs(diag) < 1e-12 * max(1.0, np.max(np.abs(K))):
            raise ControlError(f"vanishing resonant coefficient at pair ({j},{l})")
    chi = np.linalg.solve(A, b)
    resid = np.max(np.abs(A @ chi - b))
    if resid > 1e-8 * max(1.0, np.max(np.abs(b))):
        raise ControlError(f"decomposition residual {resid:.2e} exceeds tolerance")
    return chi


# ---------------------------------------------------------------------------
# least-norm profile synthesis
# ---------------------------------------------------------------------------

_N_QUAD = 500           # moment_profile quadrature nodes
_BASIS_FACTOR = 6       # moment_profile basis members per constraint
_SLOT_BASIS = 24        # control_solve basis members per Fourier slot
_MAX_COND = 1e13        # row-normalized condition number beyond which we refuse


def _bump_legendre(h: float, y, nb: int) -> np.ndarray:
    """nb x len(y) basis y^2 (h-y)^2 P_q(1 - 2e^{-y}), q < nb.

    Every member and its slope vanish at both ends.  The Legendre argument
    is mapped exponentially: the functionals are concentrated at y = O(1),
    where a polynomial in y/h has no resolution.
    """
    y = np.asarray(y, dtype=float)
    bump = (y**2) * (h - y) ** 2
    return (legendre.legvander(1.0 - 2.0 * np.exp(-y), nb - 1) * bump[:, None]).T


def _least_norm(A: np.ndarray, a: np.ndarray, rcond: float):
    """Minimum-norm c with A c = a, after row equilibration.

    Row scaling evens out the wildly different functional scales; the
    solve is taken by SVD (normal equations bias the solution once the
    Gram matrix gets stiff).  Returns c and the condition number of the
    row-normalized matrix; refuses nearly dependent rows.
    """
    scale = np.linalg.norm(A, axis=1)
    if np.min(scale) <= 0:
        raise ControlError("degenerate functional")
    As, ash = A / scale[:, None], a / scale
    c, _, _, sv = np.linalg.lstsq(As, ash, rcond=rcond)
    cond = float(sv[0] / max(sv[-1], 1e-300))
    if cond > _MAX_COND:
        raise ControlError(f"nearly dependent functionals (condition number "
                           f"{cond:.1e}); enlarge basis")
    for _ in range(3):     # iterative refinement against the stiff scales
        resid = ash - As @ c
        if np.max(np.abs(resid)) < 1e-12:
            break
        c = c + np.linalg.lstsq(As, resid, rcond=rcond)[0]
    return c, cond


def moment_profile(targets: dict, h: float) -> np.ndarray:
    """Least-norm W with prescribed moments int y^p e^{-my} W dy = a_{m,p}.

    targets maps (m, p) to the desired value; the (m, p) pairs must be
    distinct.  W is expanded over the bump-Legendre basis (W and W' vanish
    at both ends) with six members per constraint.  Returns the coefficient
    vector; use eval_profile to sample it.
    """
    items = sorted(targets.items())
    if len({mp for mp, _ in items}) != len(items):
        raise ControlError("moment targets must have distinct (m, p) pairs")
    g = make_grid(h, _N_QUAD, alpha=2.5)
    y = g.nodes
    B = _bump_legendre(h, y, max(_BASIS_FACTOR * len(items), 8))
    A = np.array([B @ (g.weights * y**pexp * np.exp(-m * y))
                  for (m, pexp), _ in items])
    a = np.array([v for _, v in items])
    coeffs, _ = _least_norm(A, a, rcond=1e-12)
    err = np.max(np.abs(A @ coeffs - a))
    if err > 1e-8 * max(1.0, np.max(np.abs(a))) + 1e-10:
        raise ControlError(f"moment targets missed by {err:.2e}")
    return coeffs


def eval_profile(coeffs: np.ndarray, h: float, y) -> np.ndarray:
    """Sample the bump-basis profile at points y."""
    return coeffs @ _bump_legendre(h, y, len(coeffs))


# ---------------------------------------------------------------------------
# control of M
# ---------------------------------------------------------------------------

@dataclass
class ControlSolution:
    profiles: FourierProfileSet
    u0: float
    achieved: np.ndarray
    condition_number: float

    @property
    def sup_abs_u1(self) -> float:
        """max |u1(x, y)| over the grid nodes, x sampled 8 times per period
        of the highest slot."""
        entries = self.profiles.entries
        x = np.linspace(0.0, np.pi, 4 * max(entries, default=0) + 2)
        size = len(next(iter(entries.values()), ()))
        return float(np.max(np.abs(self.profiles.at(x, size)), initial=0.0))


def g1_from_u1(u1: FourierProfileSet, grid: Grid, profile: TemperatureProfile,
               u0: float):
    """Exact inversion g1 = -u1 / ((U - u0) + gamma u1), gamma =
    profile.params.gamma.

    Returns a sampler g1(x) -> values on the grid nodes (x scalar or
    array); requires u0 > sup |U| so the denominator stays away from zero.
    """
    sup_u = profile.sup_abs_u()
    if u0 <= sup_u:
        raise ControlError("need u0 > sup |U|")
    uy = profile.u(grid.nodes)
    gamma = profile.params.gamma

    def g1(x):
        u1v = u1.at(x, len(grid.nodes))
        den = (uy - u0)[None, :] + gamma * u1v
        if np.min(np.abs(den)) < 1e-8 * (abs(u0) + sup_u):
            raise ControlError("g1 denominator within tolerance of zero; enlarge u0")
        return np.squeeze(-u1v / den)

    return g1


def control_solve(T: np.ndarray, basis: ModeBasis, kset: WavenumberSet,
                  profile: TemperatureProfile) -> ControlSolution:
    """Least-norm u1 achieving M(u1) = T over the basis.

    One row per entry M_ij, one column per bump-Legendre member of each
    slot that some entry reads.  kset is not read: the wavenumbers are the
    basis's.  The g1 inversion's u0 = 2 sup|U| + 1 comes from the profile,
    as its gamma does in g1_from_u1.
    """
    T = np.asarray(T, dtype=float)
    N = basis.size
    if T.shape != (N, N):
        raise ControlError("target matrix must be N x N")
    g = basis.grid
    Bw = _bump_legendre(g.h, g.nodes, _SLOT_BASIS) * g.weights
    pairs = resonant_slots(basis)
    slots = np.unique([n for n, _, _ in pairs]).tolist()
    A = np.zeros((N * N, _SLOT_BASIS * len(slots)))
    for n, w, kern in pairs:
        cols = _SLOT_BASIS * np.searchsorted(slots, n.ravel())
        for r, (col, wr, kr) in enumerate(zip(cols, w.ravel(), kern.reshape(N * N, -1))):
            A[r, col:col + _SLOT_BASIS] += wr * (Bw @ kr)
    c, cond = _least_norm(A, T.ravel(), rcond=1e-13)
    profiles = FourierProfileSet(
        {n: eval_profile(c[_SLOT_BASIS * s:_SLOT_BASIS * (s + 1)], g.h, g.nodes)
         for s, n in enumerate(slots)})
    return ControlSolution(profiles=profiles,
                           u0=float(2.0 * profile.sup_abs_u() + 1.0),
                           achieved=compute_M(profiles, basis),
                           condition_number=cond)
