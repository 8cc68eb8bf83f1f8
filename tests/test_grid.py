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


def test_cached_attribute_holds_no_shared_lock():
    """First reads of one cached attribute on two instances run at once:
    X's computation waits for Y's, which starts only once X's has (under
    Python 3.11's functools.cached_property, Y would wait for X's lock)."""
    import threading
    from obrealize.grid import cached_attribute

    x_started, y_ran = threading.Event(), threading.Event()

    class Probe:
        def __init__(self, first):
            self.first = first

        @cached_attribute
        def value(self):
            if self.first:
                x_started.set()
                return y_ran.wait(timeout=5.0)
            y_ran.set()
            return True

    x, y = Probe(True), Probe(False)
    got = []
    t = threading.Thread(target=lambda: got.append(x.value))
    t.start()
    assert x_started.wait(timeout=5.0)
    assert y.value is True
    t.join(timeout=10.0)
    assert not t.is_alive()
    assert got == [True]
    assert x.__dict__["value"] is True      # later reads skip the computation
    x.value = "set"
    assert x.value == "set"
