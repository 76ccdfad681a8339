import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfill._quadrature import QuadratureError
from specfill.weights import (
    PI,
    WeightSpec,
    conjugate_exponent,
    eval_companion,
    eval_weight,
    gap_power_integral,
    u_from_gap,
    validate_weight,
)

#: The paper's power-law weight: h = (pi^2 - omega^2)^(-1), W = h.
POWER = WeightSpec(1.0, 1.0, math.inf)


def simpson(f, a, b, panels):
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = f(xs)
    h = (b - a) / (2 * panels)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())


class TestWeightSpec:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(WeightSpec)] == [
            "nu", "beta", "p"]

    def test_power_weight_basic(self):
        assert POWER.q == 1.0
        assert eval_companion(POWER, 0.0) == pytest.approx(1.0 / PI ** 2)

    @pytest.mark.parametrize("nu, beta, p, fragment", [
        (-1.0, 1.0, math.inf, "nu must be finite and nonnegative"),
        (math.inf, 1.0, math.inf, "nu must be finite and nonnegative"),
        (math.nan, 1.0, math.inf, "nu must be finite and nonnegative"),
        (1.0, math.inf, math.inf, "beta must be finite"),
        (1.0, math.nan, math.inf, "beta must be finite"),
        (1.0, 1.0, 1.0, "p must exceed 1"),
        (1.0, 1.0, 0.5, "p must exceed 1"),
        (1.0, 1.0, math.nan, "p must exceed 1"),
    ])
    def test_out_of_range_rejected(self, nu, beta, p, fragment):
        with pytest.raises(ValueError, match=fragment):
            WeightSpec(nu, beta, p)

    def test_conjugate_exponent_precomputed(self):
        spec = WeightSpec(1.0, 1.0, 2.0)
        assert spec.q == pytest.approx(2.0, abs=1e-15)
        spec = WeightSpec(1.0, 1.0, 1.5)
        assert spec.q == pytest.approx(3.0, abs=1e-15)

    def test_constant_weight_constructible(self):
        spec = WeightSpec(0.0, 0.0, math.inf)
        assert eval_weight(spec, 1.0) == 1.0
        assert eval_companion(spec, 1.0) == 1.0

    @given(st.floats(min_value=1.0 + 1e-6, max_value=1e6))
    def test_conjugate_identity(self, p):
        # 1/p + 1/q = 1 is the well-conditioned form of the conjugacy.
        q = conjugate_exponent(p)
        assert abs(1.0 / p + 1.0 / q - 1.0) < 5e-16


class TestEvaluation:
    def test_weight_at_zero(self):
        spec = POWER
        assert eval_weight(spec, 0.0) == pytest.approx(1.0 / PI ** 2,
                                                       rel=1e-15)
        spec2 = WeightSpec(2.0, 1.0, math.inf)
        assert eval_weight(spec2, 0.0) == pytest.approx(1.0 / PI ** 4,
                                                        rel=1e-15)

    def test_symmetry_exact(self):
        spec = POWER
        assert eval_weight(spec, 2.0) == eval_weight(spec, -2.0)
        assert eval_companion(spec, 2.0) == eval_companion(spec, -2.0)

    @settings(max_examples=200)
    @given(st.floats(min_value=-3.14, max_value=3.14))
    def test_symmetry_property(self, omega):
        spec = WeightSpec(1.5, 1.0, math.inf)
        assert eval_weight(spec, omega) == eval_weight(spec, -omega)
        assert eval_companion(spec, omega) == eval_companion(spec, -omega)

    def test_domain_error(self):
        spec = POWER
        for bad in (PI, -PI, 3.5, -4.0):
            with pytest.raises(ValueError):
                eval_weight(spec, bad)
            with pytest.raises(ValueError):
                eval_companion(spec, bad)

    def test_companion_near_edge(self):
        # Oracle: expand pi^2 - w^2 = (pi - w)(pi + w) at w = pi - 1e-6.
        spec = POWER
        gap = 1e-6
        oracle = 1.0 / (gap * (2.0 * PI - gap))
        assert eval_companion(spec, PI - gap) == pytest.approx(oracle,
                                                               rel=1e-9)
        assert oracle == pytest.approx(1.59155e5, rel=1e-4)

    def test_companion_is_weight_when_beta_is_nu(self):
        spec = WeightSpec(2.0, 2.0, math.inf)
        assert eval_companion(spec, 0.0) == pytest.approx(
            eval_weight(spec, 0.0), rel=1e-15)

    def test_companion_independent_of_nu_for_power_law(self):
        a = WeightSpec(0.5, 1.0, math.inf)
        b = WeightSpec(3.0, 1.0, math.inf)
        omega = 1.234
        assert eval_companion(a, omega) == eval_companion(b, omega)


class TestCompanionIntegral:
    """Integrals of W over omega-intervals, through gap_power_integral."""

    @staticmethod
    def mass(beta, lo, hi):
        return gap_power_integral(beta, u_from_gap(PI - lo),
                                  u_from_gap(PI - hi))

    def test_empty_interval(self):
        assert self.mass(1.0, 0.0, 0.0) == 0.0

    def test_even_symmetry(self):
        b = 2.5
        two_sided = self.mass(1.0, -b, b)
        one_sided = self.mass(1.0, 0.0, b)
        assert two_sided == pytest.approx(2.0 * one_sided, rel=1e-12)

    def test_closed_form_log3(self):
        value = self.mass(1.0, 0.0, PI / 2)
        assert value == pytest.approx(math.log(3.0) / (2.0 * PI), rel=1e-13)
        # Brute-force cross-check on the raw integrand.
        brute = simpson(lambda w: 1.0 / ((PI - w) * (PI + w)), 0.0, PI / 2,
                        4096)
        assert value == pytest.approx(brute, rel=1e-10)

    def test_closed_form_matches_quadrature_family(self):
        # The general-power path (companion exponent 2) against Simpson on a
        # resolvable interval.
        spec = WeightSpec(1.0, 2.0, math.inf)
        value = self.mass(spec.beta, 0.2, 1.8)
        brute = simpson(lambda w: ((PI - w) * (PI + w)) ** -2.0, 0.2, 1.8,
                        8192)
        assert value == pytest.approx(brute, rel=1e-9)

    def test_closed_form_vs_brute_force_near_edge(self):
        # Spec invariant: the power-1 mass matches brute-force quadrature
        # within 1e-8 relative on [0, pi - 1e-3].
        hi = PI - 1e-3
        value = self.mass(1.0, 0.0, hi)
        # Composite Simpson under the flattening substitution (a brute-force
        # rule, not the antiderivative).
        u_hi = math.log((PI + hi) / (PI - hi))
        brute = simpson(lambda u: np.full_like(u, 1.0 / (2.0 * PI)),
                        0.0, u_hi, 1 << 15)
        assert value == pytest.approx(brute, rel=1e-8)

    @pytest.mark.parametrize("power", [1.0, 2.0])
    @pytest.mark.parametrize("u_lo, u_hi", [
        (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan),
        (math.nan, math.nan)])
    def test_non_finite_limits_rejected(self, power, u_lo, u_hi):
        # u = inf is omega = pi; the quadrature reports it before doing
        # any arithmetic on the limits.
        with pytest.raises(QuadratureError, match="limits must be finite"):
            gap_power_integral(power, u_lo, u_hi)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_additivity(self, x, y, z):
        a, b, c = sorted((x, y, z))
        whole = self.mass(1.0, a, c)
        parts = self.mass(1.0, a, b) + self.mass(1.0, b, c)
        assert whole == pytest.approx(parts, rel=1e-10, abs=1e-14)

    def test_divergence_toward_edge(self):
        # Partial integrals must be strictly increasing as the outer limit
        # walks toward the band edge.
        values = [self.mass(1.0, 0.0, PI - 10.0 ** -k) for k in range(1, 9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_reversed_limits_negate(self):
        # The u-limits are signed: swapping them negates the integral.
        assert self.mass(2.0, 1.0, 0.5) == pytest.approx(
            -self.mass(2.0, 0.5, 1.0), rel=1e-14)
        assert self.mass(1.0, 1.0, 0.5) == -self.mass(1.0, 0.5, 1.0)


class TestValidateWeight:
    def test_power_law_all_pass(self):
        report = validate_weight(POWER)
        assert report.ok
        by_name = {c.name: c for c in report.checks}
        # nu = 1, q = 1: the ratio integrand is identically 1, so the
        # symmetric integral is 2 pi.
        assert by_name["ratio_integrable"].value == pytest.approx(
            2.0 * PI, abs=1e-5)

    def test_power_law_finite_p(self):
        assert validate_weight(WeightSpec(1.0, 1.0, 2.0)).ok

    def test_constant_weight_fails_divergence(self):
        report = validate_weight(WeightSpec(0.0, 0.0, math.inf))
        by_name = {c.name: c for c in report.checks}
        assert not by_name["companion_tail_divergent"].passed
        assert not report.ok

    def test_direct_admissible(self):
        assert validate_weight(WeightSpec(1.5, 1.5, math.inf)).ok

    def test_general_power_admissible(self):
        # beta = 1.5 >= 1 diverges; q (beta - nu) = 0.5 < 1 stays
        # integrable.
        spec = WeightSpec(1.0, 1.5, math.inf)
        assert validate_weight(spec).ok

    def test_general_power_ratio_check_fails(self):
        # q (beta - nu) = 2 >= 1: the ratio integral diverges.
        spec = WeightSpec(1.0, 3.0, math.inf)
        report = validate_weight(spec)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["ratio_integrable"].passed

    def test_report_is_printable(self):
        lines = str(validate_weight(WeightSpec(2.0, 1.5, 4.0))).splitlines()
        assert lines[0] == "weight nu=2.0 beta=1.5 p=4.0"
        assert str(validate_weight(POWER)).startswith(
            "weight nu=1.0 beta=1.0 p=inf\n  [PASS] symmetry")
