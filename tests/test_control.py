from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obrealize import default_grid, derive_scales, designed_profile
from obrealize.control import (ControlError, control_solve, eval_profile,
                               extended_set, g1_from_u1, moment_profile,
                               sidon_set, verify_decomposition, WavenumberSet)
from obrealize.grid import make_grid
from obrealize.reduction import (FourierProfileSet, asymptotic_basis, compute_K,
                                 compute_M, numeric_basis)


def test_sidon_base_cases():
    assert sidon_set(1) == [1]
    assert sidon_set(2) == [1, 7]
    assert sidon_set(3) == [1, 7, 17]


def _sidon_by_every_sum(p):
    """Oracle: the inductive rule as stated, each candidate past the
    largest sum of every pair of the base so far."""
    base = [1] if p == 1 else [1, 7]
    while len(base) < p:
        cand = max(a + b for a in base for b in base) + 1
        if cand % 2 == 0:
            cand += 1
        while cand % 5 == 0:
            cand += 2
        base.append(cand)
    return base


def test_sidon_set_is_the_rule_over_every_pair():
    # the next candidate reads the last entry alone; the base is the one
    # the rule over every pairwise sum builds
    for p in range(1, 60):
        assert sidon_set(p) == _sidon_by_every_sum(p)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_sidon_property_exhaustive(p):
    base = sidon_set(p)
    sums = [base[i] + base[j] for i in range(p) for j in range(i, p)]
    assert len(set(sums)) == len(sums)
    assert all(b % 5 != 0 for b in base)


def test_extended_set_p2():
    ws = extended_set(2)
    assert ws.full == (1, 7, 2, 8, 14)
    assert ws.N == 5
    assert ws.full[ws.index_of_sum(0, 0)] == 2
    assert ws.full[ws.index_of_sum(0, 1)] == 8


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_index_of_sum_matches_pair_table(p):
    """index_of_sum reads full.index(k_j + k_l); the table built pair by
    pair from the sorted sums (full is base, then the sorted sums) holds
    the same index, for either order of the pair."""
    ws = extended_set(p)
    pairs = [(j, l) for j in range(p) for l in range(j, p)]
    sums = sorted(ws.base[j] + ws.base[l] for j, l in pairs)
    table = {(j, l): p + sums.index(ws.base[j] + ws.base[l]) for j, l in pairs}
    for (j, l), i in table.items():
        assert ws.index_of_sum(j, l) == ws.index_of_sum(l, j) == i
        assert ws.full[i] == ws.base[j] + ws.base[l]


def test_extended_set_p3():
    ws = extended_set(3)
    assert ws.N == 9
    assert len(set(ws.full)) == 9
    ws.validate()


def test_pair_map_injective():
    for p in (2, 3, 4):
        extended_set(p).validate()


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_wavenumber_set_derives_full_from_base(p):
    assert WavenumberSet(base=extended_set(p).base) == extended_set(p)
    assert WavenumberSet(base=extended_set(p).base).full == extended_set(p).full


def test_decomposition_solves(basis50, kset2, params50):
    K, _ = compute_K(basis50, params50.nu)
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal((2, 2))
    chi = verify_decomposition(K, kset2, rhs)
    pairs = [(j, l) for j in range(2) for l in range(j, 2)]
    for (j, l) in pairs:
        val = sum(K[i, j, l] * chi[i - 2] for i in range(2, 5))
        assert val == pytest.approx(0.5 * (rhs[j, l] + rhs[l, j]), abs=1e-8)


def test_decomposition_zero_rhs(basis50, kset2, params50):
    K, _ = compute_K(basis50, params50.nu)
    chi = verify_decomposition(K, kset2, np.zeros((2, 2)))
    assert np.allclose(chi, 0.0, atol=1e-12)


def test_decomposition_mod5_guard(basis50, params50):
    K, _ = compute_K(basis50, params50.nu)
    bad = WavenumberSet(base=(1, 5))
    with pytest.raises(ControlError):
        verify_decomposition(K, bad, np.zeros((2, 2)))


def test_moment_profile_single_target():
    h = 34.0
    coeffs = moment_profile({(1, 0): 1.0}, h)
    g = make_grid(h, 600, 2.5)
    W = eval_profile(coeffs, h, g.nodes)
    val = g.integrate(np.exp(-g.nodes) * W)
    assert val == pytest.approx(1.0, abs=1e-8)
    # boundary values and slopes vanish
    dW = g.diff @ W
    sup = np.max(np.abs(W))
    for v in (W[0], W[-1], dW[0], dW[-1]):
        assert abs(v) < 1e-10 * sup


def test_moment_profile_zero_targets():
    coeffs = moment_profile({(1, 0): 0.0, (2, 1): 0.0}, 20.0)
    assert np.max(np.abs(coeffs)) < 1e-12


def test_moment_profile_near_dependent_rejected():
    # two essentially identical functionals make the Gram system singular
    with pytest.raises(ControlError):
        moment_profile({(1.0, 0): 1.0, (1.0 + 1e-13, 0): -1.0}, 10.0)


def test_control_round_trip(basis50, kset2, profile50):
    rng = np.random.default_rng(42)
    T = rng.standard_normal((5, 5))
    sol = control_solve(T, basis50, kset2, profile50)
    err = np.linalg.norm(sol.achieved - T) / np.linalg.norm(T)
    assert err < 0.05


@pytest.mark.parametrize("b, p, numeric", [(50.0, 3, False), (50.0, 4, False),
                                         (30.0, 2, True)])
def test_control_round_trip_exact(b, p, numeric):
    kset = extended_set(p)
    prof = designed_profile(derive_scales(b), kset.base)
    grid = default_grid(prof)
    basis = (numeric_basis(kset.full, prof, grid) if numeric
             else asymptotic_basis(kset.full, prof.params, grid))
    T = np.random.default_rng(42).standard_normal((kset.N, kset.N))
    sol = control_solve(T, basis, kset, prof)
    # the reported M is the forward quadrature of the synthesized profiles
    assert np.array_equal(sol.achieved, compute_M(sol.profiles, basis))
    assert np.linalg.norm(sol.achieved - T) / np.linalg.norm(T) < 1e-6


def test_control_zero_target(basis50, kset2, profile50):
    sol = control_solve(np.zeros((5, 5)), basis50, kset2, profile50)
    assert np.allclose(sol.achieved, 0.0, atol=1e-10)
    assert all(np.max(np.abs(v)) < 1e-10 for v in sol.profiles.entries.values())


def test_g1_inversion_limits(profile50):
    g = make_grid(profile50.params.h, 200, 3.0)
    u1 = FourierProfileSet({1: np.zeros(len(g.nodes))})
    u0 = 2 * profile50.sup_abs_u() + 1.0
    g1 = g1_from_u1(u1, g, profile50, u0)
    assert np.max(np.abs(g1(0.3))) == 0.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_g1_round_trip_random(profile50, seed):
    g = make_grid(profile50.params.h, 120, 3.0)
    rng = np.random.default_rng(seed)
    u1 = FourierProfileSet({2: rng.standard_normal(len(g.nodes))})
    u0 = 2 * profile50.sup_abs_u() + 1.0
    gamma = profile50.params.gamma
    g1 = g1_from_u1(u1, g, profile50, u0)
    x = np.linspace(0.0, np.pi, 5)
    g1v = np.atleast_2d(g1(x))
    u1v = u1.at(x, len(g.nodes))
    back = -g1v * (profile50.u(g.nodes)[None, :] - u0) / (1.0 + gamma * g1v)
    assert np.max(np.abs(back - u1v)) < 1e-12 * max(1.0, np.max(np.abs(u1v)))


def test_g1_gamma_zero_limit(profile50):
    g = make_grid(profile50.params.h, 120, 3.0)
    u1 = FourierProfileSet({1: np.sin(g.nodes)})
    u0 = 2 * profile50.sup_abs_u() + 1.0
    flat = replace(profile50, params=replace(profile50.params, gamma=0.0))
    g1 = g1_from_u1(u1, g, flat, u0)
    expected = -np.cos(1 * 0.0) * np.sin(g.nodes) / (profile50.u(g.nodes) - u0)
    assert np.allclose(g1(0.0), expected, rtol=1e-12)


def test_g1_requires_large_u0(profile50):
    g = make_grid(profile50.params.h, 60, 3.0)
    u1 = FourierProfileSet({1: np.ones(len(g.nodes))})
    with pytest.raises(ControlError):
        g1_from_u1(u1, g, profile50, u0=0.0)
