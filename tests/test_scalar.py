import numpy as np
import pytest

from obrealize.profile import DesignPolynomial, build_profile, derive_scales
from obrealize.scalar import (ScalarError, TransferHierarchy, find_root_z,
                              kbar_bound, lambda_from_z)


def test_design_root_kernel_and_gap(profile30):
    p = profile30.params
    for k in (1, 7):
        z = find_root_z(k, p, profile30.poly)
        assert abs(z - 1.0) < 1e-7 / k
    for k in (2, 3, 8, 21):
        z = find_root_z(k, p, profile30.poly)
        assert np.real(z) < 1.0
        assert np.real(lambda_from_z(z, k)) < 0.0


def test_design_gap_ladder():
    # 1 - Re z_k at fixed non-kernel k shrinks like a power of b (the
    # polynomial amplitude mu = b^{-s2})
    ks = 3
    vals = []
    for b in (20.0, 40.0, 80.0):
        from obrealize.profile import designed_profile
        p = derive_scales(b)
        prof = designed_profile(p, [1, 7])
        z = find_root_z(ks, prof.params, prof.poly)
        vals.append(1.0 - np.real(z))
    assert vals[0] > vals[1] > vals[2] > 0
    rates = [np.log(vals[i] / vals[i + 1]) / np.log(2.0) for i in range(2)]
    # exponent consistent with s2 = 0.05 up to the slowly varying offsets
    assert rates[0] == pytest.approx(rates[1], abs=0.1)


def test_apriori_bound_guard(params30):
    poly = DesignPolynomial.zero()
    kbig = int(kbar_bound(params30)) + 5
    with pytest.raises(ScalarError):
        find_root_z(kbig, params30, poly)


def test_hierarchy_matches_pencil_layer_profile(params30):
    from obrealize.spectral import assemble_pencil, default_grid, solve_modes
    prof = build_profile(params30, DesignPolynomial.zero())
    grid = default_grid(prof)
    for k in (1, 7):
        pen = assemble_pencil(k, prof, grid)
        lam_p = solve_modes(pen).lam
        th = TransferHierarchy(k, prof.params)
        lam_h = th.leading_lambda()
        assert abs(lam_p.real - lam_h) <= 1e-2 * max(1.0, abs(lam_p.real))


def test_hierarchy_internal_consistency(params30):
    # the closed-form bulk moment equals the Robin coefficient of the
    # layer particular solution
    th = TransferHierarchy(2, params30)
    kbar = 0.7
    b, beta = params30.b, params30.beta
    for n in (2, 4):
        S = th._layer_bulk_moment(n, kbar)
        Q = th._layer_particular(n, kbar)
        Q1 = Q[1] if len(Q) > 1 else 0.0
        C = (Q1 - (b + beta) * Q[0]) / (beta + kbar)
        assert C == pytest.approx(-S, rel=1e-12)


@pytest.mark.parametrize("k, lam", [(1, -0.836480602089437),
                                    (7, -48.62223271388277),
                                    (21, -440.5027213241689)])
def test_hierarchy_leading_lambda_pinned(params30, k, lam):
    # roots of the per-point hierarchy that rebuilt its layer maps per lambda
    assert TransferHierarchy(k, params30).leading_lambda() == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("k, lam", [(1, -0.836480602089437),
                                    (7, -48.62223271388277),
                                    (21, -440.5027213241427)])
def test_hierarchy_brent_matches_bisection(params30, k, lam):
    # roots of the batched scan polished by an 80-step bisection
    assert TransferHierarchy(k, params30).leading_lambda() == pytest.approx(lam, rel=1e-13)


def test_hierarchy_skips_bracket_it_cannot_close(params30, monkeypatch):
    # a NaN at every one-lambda point: each bracket is skipped, none is a root
    th = TransferHierarchy(7, params30)
    batched = th.residual
    monkeypatch.setattr(th, "residual",
                        lambda lam: batched(lam) if np.ndim(lam) else np.nan)
    with pytest.raises(ScalarError, match="no separated root"):
        th.leading_lambda()


@pytest.mark.parametrize("k", [2, 14])
def test_residual_batch_matches_pointwise(params30, k):
    th = TransferHierarchy(k, params30)
    lams = np.linspace(-k * k, 0.0, 52)[1:-1]
    batch = th.residual(lams)
    single = np.array([th.residual(x) for x in lams])
    assert batch.shape == lams.shape
    assert np.all(np.isfinite(single))
    np.testing.assert_allclose(batch, single, rtol=1e-13, atol=0.0)


def test_residual_singular_solve(params30, monkeypatch):
    # a singular batch is evaluated point by point; a singular point is NaN
    th = TransferHierarchy(2, params30)
    lams = np.array([-3.0, -2.0, -1.0])
    ref = th.residual(lams)
    solve = np.linalg.solve

    def singular_batch(a, b):
        if a.shape[0] > 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_batch)
    np.testing.assert_allclose(th.residual(lams), ref, rtol=1e-13, atol=0.0)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert np.isnan(th.residual(-1.0))
    assert np.all(np.isnan(th.residual(lams)))
