import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from specfill._quadrature import _WG, _WK, QuadratureError, adaptive_quad


def test_rule_weights_sum_to_two():
    assert abs(_WK.sum() - 2.0) < 1e-13
    assert abs(_WG.sum() - 2.0) < 1e-13


@pytest.mark.parametrize("power", [0, 1, 2, 5, 10])
def test_polynomials_exact(power):
    value = adaptive_quad(lambda x: x ** power, 0.0, 1.0, tol=1e-13)
    assert value == pytest.approx(1.0 / (power + 1), abs=1e-13)


def test_sine_closed_form():
    assert adaptive_quad(np.sin, 0.0, math.pi, tol=1e-13) == pytest.approx(
        2.0, abs=1e-12)


def test_oscillatory():
    value = adaptive_quad(lambda x: np.cos(40.0 * x), 0.0, 2.0 * math.pi,
                          tol=1e-12)
    assert abs(value) < 1e-11


def test_orientation_and_empty():
    fwd = adaptive_quad(lambda x: x, 0.0, 1.0, tol=1e-12)
    rev = adaptive_quad(lambda x: x, 1.0, 0.0, tol=1e-12)
    assert fwd == pytest.approx(-rev, abs=1e-14)
    assert adaptive_quad(lambda x: x, 0.3, 0.3) == 0.0


def test_narrow_spike_matches_scipy():
    def spike(x):
        return np.exp(-2000.0 * (x - 0.37) ** 2)

    mine = adaptive_quad(spike, 0.0, 1.0, tol=1e-12)
    ref, _ = scipy_quad(lambda x: math.exp(-2000.0 * (x - 0.37) ** 2),
                        0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert mine == pytest.approx(ref, abs=1e-12)


def test_breakpoints_accepted():
    value = adaptive_quad(np.sin, 0.0, math.pi, tol=1e-12,
                          breakpoints=[0.5, 1.0, 2.0])
    assert value == pytest.approx(2.0, abs=1e-12)


def test_nonconvergence_raises(monkeypatch):
    from specfill import _quadrature

    def jumpy(x):
        return np.where(np.sin(1.0 / np.maximum(x, 1e-300)) > 0, 1.0, -1.0)

    monkeypatch.setattr(_quadrature, "_MAX_ROUNDS", 6)
    with pytest.raises(QuadratureError, match="refinement rounds"):
        adaptive_quad(jumpy, 0.0, 1.0, tol=1e-14)


def test_nonfinite_limits_rejected():
    with pytest.raises(QuadratureError):
        adaptive_quad(np.sin, 0.0, math.inf)
