"""Self-tests of the benchmark's checks: good outputs pass, perturbed fail.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eig

sys.path[:0] = [str(Path(__file__).resolve().parent),
                str(Path(__file__).resolve().parents[1] / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from obrealize.control import control_solve, extended_set  # noqa: E402
from obrealize.profile import derive_scales, designed_profile  # noqa: E402
from obrealize.reduction import asymptotic_basis, compute_K  # noqa: E402
from obrealize.spectral import default_grid  # noqa: E402


def _records(override=None):
    lam = {k: -(k * k) * 0.9 for k in range(1, 22)}
    lam[1], lam[7] = -1e-12, -1e-7
    recs = {k: SimpleNamespace(k=k, lam_design=complex(lam[k]),
                               lam_finite=-(k * k) * 1.0001 - 0.05 * (k == 1),
                               lam_pencil=-(k * k) * 1.0)
            for k in range(1, 22)}
    for (k, attr), val in (override or {}).items():
        setattr(recs[k], attr, val)
    return list(recs.values())


def test_kernel():
    assert checks.kernel(_records(), (1, 7))[0]
    assert not checks.kernel(_records({(7, "lam_design"): 1e-5}), (1, 7))[0]
    assert not checks.kernel(_records({(3, "lam_design"): 1e-4 + 0j}), (1, 7))[0]


def test_cross_method():
    assert checks.cross_method(_records())[0]
    assert not checks.cross_method(_records({(5, "lam_finite"): -25 * 1.01}))[0]
    assert not checks.cross_method(_records({(1, "lam_finite"): -1.2}))[0]


def test_backward_error():
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((6, 6)), np.eye(6) + 0.1 * rng.standard_normal((6, 6))
    lam, V = eig(A, B)
    assert checks.backward_error(A, B, lam[0], V[:, 0])[0]
    assert not checks.backward_error(A, B, lam[0] * (1 + 1e-6), V[:, 0])[0]


@pytest.fixture(scope="module")
def design():
    kset = extended_set(2)
    prof = designed_profile(derive_scales(30.0), kset.base)
    grid = default_grid(prof)
    return kset, prof, grid, asymptotic_basis(kset.full, prof.params, grid)


def test_gram(design):
    _, _, grid, nb = design
    args = [nb.wavenumbers, grid.nodes, grid.weights, nb.psi, nb.dpsi, nb.theta]
    assert checks.gram(*args, nb.thetastar)[0]
    bad = list(nb.thetastar)
    bad[1] = bad[1] * 1.001
    assert not checks.gram(*args, bad)[0]


def test_k_structure(design):
    _, prof, _, basis = design
    K, _ = compute_K(basis, prof.params.nu)
    assert checks.k_structure(K, basis.wavenumbers)[0]
    nonres = K.copy()
    nonres[0, 0, 0] += 1e-6 * np.abs(K).max()       # k_i = 1, k_j + k_l = 2
    assert not checks.k_structure(nonres, basis.wavenumbers)[0]
    asym = K.copy()
    asym[3, 0, 1] += 1e-3                           # resonant 8 = 1 + 7, (j, l) only
    assert not checks.k_structure(asym, basis.wavenumbers)[0]


def test_control(design):
    kset, prof, grid, basis = design
    T = np.random.default_rng(3).standard_normal((kset.N, kset.N))
    sol = control_solve(T, basis, kset, prof)
    args = [basis.wavenumbers, grid.weights, basis.psi, basis.dpsi, basis.thetastar,
            basis.dthetastar]
    assert checks.control(T, checks.achieved_M(*args, sol.profiles.entries))[0]
    scaled = {n: 1.1 * v for n, v in sol.profiles.entries.items()}
    assert not checks.control(T, checks.achieved_M(*args, scaled))[0]


def test_lyapunov_pair():
    expected = -0.0137 * (10.0 + 1.0 + 8.0 / 3.0)
    good = np.array([0.0124, 0.0, expected - 0.0124])
    assert checks.lyapunov_pair(good, good * 1.005, expected)[0]
    assert not checks.lyapunov_pair(good * 1.001, good, expected)[0]
    assert not checks.lyapunov_pair(good, good * 1.04, expected)[0]
    flipped = np.array([-0.001, 0.0, expected + 0.001])
    assert not checks.lyapunov_pair(good, flipped, expected)[0]


def test_tracking():
    ref = np.zeros((50, 3))
    assert checks.tracking(ref + 0.01, ref)[0]
    assert not checks.tracking(ref + 0.1, ref)[0]


def test_xi_ladder():
    xis = (1e-1, 1e-2, 1e-3)
    w, d = [1.6e-3, 1.6e-4, 1.6e-5], [2e-3, 2e-4, 7e-5]
    assert checks.xi_ladder(xis, w, d)[0]
    assert not checks.xi_ladder(xis, [1.6e-3, 1.6e-3, 1.6e-5], d)[0]
    assert not checks.xi_ladder(xis, w, [2e-3, 2e-4, 3e-4])[0]
    assert not checks.xi_ladder(xis, w, [0.06, 2e-4, 7e-5])[0]


def test_layer_metrics_self_time():
    # parent 0..10 with children 1..3 and 4..8; a residual call that failed
    recorded = [["control.control_solve", -1, 0.0, 10.0, None],
                ["control.moment_profile", 0, 1.0, 3.0, None],
                ["control.moment_profile", 0, 4.0, 8.0, None],
                ["scalar.residual", -1, 10.0, 10.5, {"failed": 1}]]
    m = spans.layer_metrics(recorded, rounds=2)
    assert m["control.control_solve_self_s"] == pytest.approx(2.0)
    assert m["control.moment_profile_s"] == pytest.approx(3.0)
    assert m["control.moment_profile_calls"] == 1.0
    assert m["scalar.residual_failed"] == 0.5
    assert m["scalar.residual_us_per_call"] == pytest.approx(5e5)
