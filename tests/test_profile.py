import numpy as np
import pytest
from fractions import Fraction
from math import factorial

from obrealize.profile import (DesignPolynomial, ProfileError, build_profile,
                               calibrate_offsets, compute_beta1, derive_scales,
                               design_polynomial, designed_profile,
                               kernel_target_coeffs, perturbation_response)


def tilde_coefficient(n: int) -> Fraction:
    """a_n = 3 (3(n+4)/2 + (n+4)(n+5)/4)^(-1); a_0 = 3/11, a_1 = 1/5, ..."""
    return Fraction(3, 1) / (Fraction(3 * (n + 4), 2) + Fraction((n + 4) * (n + 5), 4))


def assert_scale_relations(p):
    """The relations the derived scales hold by construction."""
    assert p.beta == pytest.approx(p.r * p.b, rel=1e-12)
    assert 3.0 * p.C_U == pytest.approx(-8.0 * (1.0 - 1.0 / p.nu) / (1.0 + p.r),
                                        rel=1e-12)
    assert p.Cbar_U == pytest.approx(p.C_U * p.r * p.b**4 / p.beta, rel=1e-12)


def test_derived_scale_values():
    p = derive_scales(10.0, s0=0.9, s2=0.05)
    assert p.r == pytest.approx(0.125893, rel=1e-5)
    assert p.beta == pytest.approx(1.25893, rel=1e-5)
    assert p.mu == pytest.approx(10 ** (-0.05), rel=1e-12)
    assert p.h == pytest.approx(10 * np.log(10.0))
    assert p.nu == pytest.approx(10.0**10)


@pytest.mark.parametrize("b, s0, s2", [(1.5, 0.5, 0.5), (10.0, 0.9, 0.05),
                                       (30.0, 0.95, 0.05), (1e3, 0.99, 0.2)])
def test_scale_relations(b, s0, s2):
    assert_scale_relations(derive_scales(b, s0, s2))


def test_amplitude_limit_large_b():
    # with nu -> inf and r -> 0 the amplitude relation gives C_U -> -8/3
    p = derive_scales(1e6, s0=0.999)
    assert p.C_U == pytest.approx(-8.0 / 3.0, rel=1e-2)
    assert_scale_relations(p)


def test_rejects_bad_inputs():
    with pytest.raises(ProfileError):
        derive_scales(0.5)
    with pytest.raises(ProfileError):
        derive_scales(10.0, s0=1.5)
    with pytest.raises(ProfileError):
        derive_scales(10.0, s2=-0.1)


def test_profile_wall_values():
    # zero polynomial: U(0) = Cbar_U and U_y(0) = C_U r b^4 = beta Cbar_U
    p = derive_scales(12.0)
    prof = build_profile(p, DesignPolynomial(coeffs=(0.0,)))
    assert float(prof.u(0.0)) == pytest.approx(p.Cbar_U, rel=1e-14)
    uy0 = p.C_U * p.r * p.b**4
    assert float(prof.u_y(0.0)) == pytest.approx(uy0, rel=1e-14)
    assert uy0 == pytest.approx(p.beta * p.Cbar_U, rel=1e-14)
    # exponential part saturates at Cbar_U + C_U r b^3
    u_inf = p.Cbar_U + p.C_U * p.r * p.b**3
    assert float(prof.u(p.h)) == pytest.approx(u_inf, rel=1e-12)


def test_profile_derivative_vs_finite_differences():
    p = derive_scales(30.0, s0=0.95)
    poly = DesignPolynomial(coeffs=(1.0, 0.0))
    prof = build_profile(p, poly)
    y0 = 1.0
    expected = p.C_U * p.r * p.b**4 * np.exp(-30.0) + p.mu * 1.0
    assert float(prof.u_y(y0)) == pytest.approx(expected, rel=1e-12)
    # fourth-order stencil: U carries a large constant offset, so the step
    # must stay well above the cancellation floor
    hs = 0.01
    fd = (8 * (prof.u(y0 + hs) - prof.u(y0 - hs))
          - (prof.u(y0 + 2 * hs) - prof.u(y0 - 2 * hs))) / (12 * hs)
    assert fd == pytest.approx(float(prof.u_y(y0)), rel=1e-8)


def test_robin_identities(profile30):
    p = profile30.params
    r0 = profile30.u_y(0.0) - p.beta * profile30.u(0.0)
    rh = profile30.u_y(p.h) - p.beta1 * profile30.u(p.h)
    assert abs(r0) <= 1e-12 * abs(p.beta * profile30.u(0.0))
    assert abs(rh) <= 1e-12 * max(abs(p.beta1 * profile30.u(p.h)), 1.0)


def test_beta1_zero_poly_formula():
    p = derive_scales(8.0)
    b1 = compute_beta1(p, DesignPolynomial(coeffs=(0.0,)))
    num = p.C_U * p.r * p.b**4 * np.exp(-p.b * p.h)
    den = p.Cbar_U + p.C_U * p.r * p.b**3 * (1 - np.exp(-p.b * p.h))
    assert b1 == pytest.approx(num / den, abs=1e-300)


def test_beta1_small_and_below_beta(profile30):
    p = profile30.params
    assert abs(p.beta1) < p.beta
    # pure-exponential profile: e^{-bh} = b^{-10b} underflows, so beta1 ~ 0
    b1 = compute_beta1(derive_scales(30.0), DesignPolynomial(coeffs=(0.0,)))
    assert abs(b1) < 30.0 ** (-10) * derive_scales(30.0).beta


def test_tilde_coefficients():
    assert tilde_coefficient(0) == Fraction(3, 11)
    assert tilde_coefficient(1) == Fraction(1, 5)
    assert float(tilde_coefficient(0)) == pytest.approx(0.272727, rel=1e-5)


def test_design_polynomial_exact_reexpansion():
    # re-expanding sum r_n (2k)^{-n-6}(3(n+4)!/2+(n+5)!/4) must reproduce
    # k^{-6} Z(1/k) to 1e-12 relative at k = 1..20
    from math import factorial
    q = [0.3, -1.2, 0.7, 0.05]
    poly = design_polynomial(q)
    for k in range(1, 21):
        lhs = k**-6.0 * sum(qq * k**-n for n, qq in enumerate(q))
        rhs = sum(rn * (2.0 * k) ** (-(n + 6))
                  * (1.5 * factorial(n + 4) + 0.25 * factorial(n + 5))
                  for n, rn in enumerate(poly.coeffs))
        assert rhs == pytest.approx(lhs, rel=1e-12)


def paper_second_derivative_formula(k: float, poly: DesignPolynomial, beta: float):
    """The companion closed form sum_n r_n (2k)^{-n-6} (3k(n+3)!/(beta+k)
    + 3(n+4)!/2 + (n+5)!/4).

    Numerically this equals Psi'''(0)/k^2 of the same boundary-value
    problem (the third, not second, wall derivative); it is kept as the
    reference functional behind the q -> r map and the a_n coefficients.
    """
    s = 0.0
    for n, rn in enumerate(poly.coeffs):
        br = (3.0 * k * factorial(n + 3) / (beta + k)
              + 1.5 * factorial(n + 4) + 0.25 * factorial(n + 5))
        s += rn * (2.0 * k) ** (-(n + 6)) * br
    return s


def test_reference_formula_against_bvp_oracle():
    """The closed form with the (beta+k)-term evaluates, at N=0, rbar_0=1,
    beta -> inf, k=1, to 66/64; the boundary-value problem's third wall
    derivative over k^2 reproduces it (the curvature functional used for
    the design is perturbation_response, checked in the scalar tests)."""
    from scipy.linalg import solve
    from obrealize.grid import make_grid
    poly = DesignPolynomial(coeffs=(1.0,))
    val = paper_second_derivative_formula(1.0, poly, beta=1e12)
    assert val == pytest.approx(66.0 / 64.0, rel=1e-10)

    # oracle: solve (D^2-k^2) W = y^3 e^{-ky} (Robin, beta large), then
    # (D^2-k^2)^2 Psi = k^2 W clamped; compare wall derivatives
    g = make_grid(40.0, 260, 6.0)
    y, Dy = g.nodes, g.diff
    m = len(y)
    I = np.eye(m)
    k = 1.0
    L = Dy @ Dy - I
    A = L.copy()
    rhs = y**3 * np.exp(-y)
    A[0] = Dy[0] - 1e8 * I[0]
    rhs[0] = 0.0
    A[-1] = Dy[-1]
    rhs[-1] = 0.0
    W = solve(A, rhs)
    A2 = np.block([[L, -I], [np.zeros((m, m)), L]])
    rb = np.concatenate([np.zeros(m), k * k * W])
    A2[0] = 0.0; A2[0, 0] = 1.0; rb[0] = 0.0
    A2[m - 1] = 0.0; A2[m - 1, m - 1] = 1.0; rb[m - 1] = 0.0
    A2[m] = 0.0; A2[m, :m] = Dy[0]; rb[m] = 0.0
    A2[2 * m - 1] = 0.0; A2[2 * m - 1, :m] = Dy[-1]; rb[2 * m - 1] = 0.0
    psi = solve(A2, rb)[:m]
    d3 = (Dy @ Dy @ Dy @ psi)[0]
    assert d3 / k**2 == pytest.approx(66.0 / 64.0, rel=1e-3)
    # and the curvature functional itself
    d2 = (Dy @ Dy @ psi)[0]
    assert d2 == pytest.approx(perturbation_response(1.0, poly, 1e8), rel=1e-6)
    assert d2 == pytest.approx(-21.0 / 32.0, rel=1e-6)


def test_kernel_target_vanishes_at_kernel_points():
    q = kernel_target_coeffs([1, 7], [0.0, 0.0])
    for kj in (1, 7):
        val = sum(qq * kj ** (-n) for n, qq in enumerate(q))
        assert val == pytest.approx(0.0, abs=1e-14)


def test_calibration_jacobian_invertible(params30):
    from obrealize.profile import _kernel_response
    d = np.array([0.01, -0.02])
    J = np.empty((2, 2))
    for l in range(2):
        dc = d.astype(complex)
        dc[l] += 1e-30j
        J[:, l] = np.array([_kernel_response(kj, [1, 7], dc, params30.beta)
                            for kj in (1, 7)]).imag / 1e-30
    assert np.linalg.cond(J) < 1e12


def test_calibrated_offsets_small(profile30):
    assert max(abs(d) for d in profile30.poly.offsets) < 0.1


def test_calibration_survives_singular_first_step(params30):
    # J^T J is singular at d = 0 for this kernel; the undamped first
    # Gauss-Newton step cannot be solved
    d = calibrate_offsets([1, 7, 17, 37], params30)
    assert np.max(np.abs(d)) < 0.1


@pytest.mark.xfail(reason="the squared-product target filtered through the "
                          "curvature functional leaves a nonzero beta-free "
                          "offset, so d(b) approaches a nonzero limit instead "
                          "of 0; see the decisions notes", strict=True)
def test_offset_ladder_decreases():
    vals = []
    for b in (20.0, 40.0, 80.0):
        p = derive_scales(b)
        d = calibrate_offsets([1, 7], p)
        vals.append(np.max(np.abs(d)))
    assert vals[0] > vals[1] > vals[2]
