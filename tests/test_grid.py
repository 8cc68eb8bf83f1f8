import numpy as np
import pytest

from obrealize.grid import chebyshev_diff, clenshaw_curtis, make_grid


def test_grid_invariants():
    g = make_grid(34.0, 300, 5.0)
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 34.0
    assert np.all(g.weights > 0)
    assert g.integrate(np.ones_like(g.nodes)) == pytest.approx(34.0, rel=1e-10)


def test_boundary_layer_resolution():
    # near-wall spacing resolves 1/(4b) at b = 30 for the default sizes
    g = make_grid(10 * np.log(30.0), 260, 5.0)
    assert np.min(np.diff(g.nodes[:8])) < 0.25 / 30.0


def test_quadrature_spectral_accuracy():
    g = make_grid(20.0, 200, 3.0)
    val = g.integrate(np.exp(-g.nodes))
    assert val == pytest.approx(1.0 - np.exp(-20.0), rel=1e-12)
    val2 = g.integrate(g.nodes**2 * np.exp(-2 * g.nodes))
    assert val2 == pytest.approx(0.25, rel=1e-12)


def test_diff_matrix_accuracy():
    g = make_grid(5.0, 200, 2.0)
    f = np.sin(g.nodes)
    df = g.diff @ f
    assert np.max(np.abs(df - np.cos(g.nodes))) < 1e-9


def test_clenshaw_curtis_exactness():
    # exact for low-degree polynomials on [-1, 1]
    for n in (8, 9):
        w = clenshaw_curtis(n)
        x = np.cos(np.pi * np.arange(n + 1) / n)
        assert w @ np.ones_like(x) == pytest.approx(2.0, rel=1e-14)
        assert w @ x**2 == pytest.approx(2.0 / 3.0, rel=1e-13)
        assert w @ x**4 == pytest.approx(2.0 / 5.0, rel=1e-13)


def test_chebyshev_diff_exact_on_polys():
    D, x = chebyshev_diff(16)
    assert np.allclose(D @ x**3, 3 * x**2, atol=1e-10)
