import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import sici

import specfill
from specfill._quadrature import QuadratureError
from specfill.kernel import (
    KernelSpec,
    _cosine_integral,
    _middle_band_cos_integral,
    compute_kappa,
    eval_transfer,
    normalization_residual,
    resolve_kernel,
    solve_epsilon_n,
    solve_epsilon_n_bisect,
    synthesize_taps,
    transfer_mean,
    write_taps_binary,
    write_taps_text,
)
from specfill.weights import PI, WeightSpec, gap_power_integral

POWER = WeightSpec(1.0, 1.0, math.inf)
N_SET = (2, 4, 8, 16, 32, 64)


@pytest.fixture(scope="module")
def spec2():
    return resolve_kernel(POWER, 2)


class TestEpsilonSolve:
    def test_known_value_n2(self):
        # Oracle: plug the solution back into the antiderivative identity
        # (1/2pi) log((2pi - eps)/eps) = (1/2pi) log(4pi - 1) + pi - 1/2.
        eps = solve_epsilon_n(POWER, 2)
        lhs = math.log((2 * PI - eps) / eps) / (2 * PI)
        rhs = math.log(4 * PI - 1) / (2 * PI) + PI - 0.5
        assert lhs == pytest.approx(rhs, rel=1e-13)
        assert eps == pytest.approx(3.36e-8, rel=5e-3)

    @pytest.mark.parametrize("n", N_SET)
    def test_strictly_inside_band(self, n):
        eps = solve_epsilon_n(POWER, n)
        assert 0.0 < eps < 1.0 / n

    def test_monotone_decreasing(self):
        eps4 = solve_epsilon_n(POWER, 4)
        eps8 = solve_epsilon_n(POWER, 8)
        assert eps4 > eps8
        # Independent confirmation through the quadrature/bisection route.
        assert solve_epsilon_n_bisect(POWER, 4) > solve_epsilon_n_bisect(
            POWER, 8)

    @pytest.mark.parametrize("n", N_SET)
    def test_closed_form_vs_bisection(self, n):
        closed = solve_epsilon_n(POWER, n)
        bisect = solve_epsilon_n_bisect(POWER, n)
        assert abs(closed - bisect) / closed < 1e-12

    def test_general_power_family(self):
        weight = WeightSpec(1.0, 1.5, math.inf)
        eps = solve_epsilon_n(weight, 3)
        assert 0.0 < eps < 1.0 / 3.0
        spec = KernelSpec(weight=weight, n=3, epsilon_n=eps)
        assert abs(normalization_residual(spec)) < 1e-10

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            solve_epsilon_n(POWER, 1)

    @pytest.mark.parametrize("nu, n", [(2.0, 2), (3.0, 3), (3.0, 4)])
    def test_bisection_resolves_steep_direct_weights(self, nu, n):
        # The bracket search evaluates band masses in the thousands, where
        # a relative budget below what a double sum holds never converges.
        spec = resolve_kernel(WeightSpec(nu, nu, math.inf), n)
        assert 0.0 < spec.epsilon_n < 1.0 / n
        assert abs(normalization_residual(spec)) <= 1e-13

    def test_no_root_is_hard_error_naming_beta(self):
        constant = WeightSpec(0.0, 0.0, math.inf)
        with pytest.raises(QuadratureError, match="beta=0.0 at n=2"):
            solve_epsilon_n(constant, 2)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_band_mass_quadrature_matches_log_closed_form(self, n):
        # W = 1 has density 1/(2 pi) per unit u, so the band mass between
        # two u-limits is their difference over 2 pi, a closed form that
        # the quadrature must match without taking it.
        eps = solve_epsilon_n(POWER, n)
        u_a = math.log(2 * PI * n - 1)
        u_b = math.log((2 * PI - eps) / eps)
        value = gap_power_integral(1.0, u_a, u_b)
        assert value == pytest.approx((u_b - u_a) / (2 * PI), rel=1e-14)

    @pytest.mark.parametrize("n", [2 ** k for k in range(1, 21)])
    def test_power_law_residual_checks_closed_form(self, n):
        # The residual integrates the band by quadrature, so for beta = 1
        # it checks the closed-form eps_n rather than restating it.
        spec = resolve_kernel(POWER, n)
        assert abs(normalization_residual(spec)) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=64))
    def test_normalization_residual_property(self, n):
        spec = resolve_kernel(POWER, n)
        assert abs(normalization_residual(spec)) <= 1e-10


class TestTransfer:
    def test_inner_band_is_one(self, spec2):
        assert eval_transfer(spec2, 0.0) == 1.0
        assert eval_transfer(spec2, -1.5) == 1.0

    def test_outer_band_is_zero(self, spec2):
        assert eval_transfer(spec2, PI) == 0.0
        assert eval_transfer(spec2, -PI) == 0.0

    def test_middle_band_value(self, spec2):
        # omega = pi - 0.3 lies in [pi - 1/2, pi - eps_2]; oracle is the
        # independent gap-product evaluation of the companion.
        omega = PI - 0.3
        oracle = -1.0 / (0.3 * (2.0 * PI - 0.3))
        value = eval_transfer(spec2, omega)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(-0.557, abs=5e-4)

    def test_boundaries_take_middle_branch(self, spec2):
        inner = PI - 0.5
        assert eval_transfer(spec2, inner) < 0.0
        outer = PI - spec2.epsilon_n
        assert eval_transfer(spec2, outer) < 0.0

    def test_even(self, spec2):
        om = np.linspace(0.0, PI, 1001)
        np.testing.assert_array_equal(eval_transfer(spec2, om),
                                      eval_transfer(spec2, -om))

    def test_domain(self, spec2):
        with pytest.raises(ValueError):
            eval_transfer(spec2, 3.2)

    @pytest.mark.parametrize("n", (2, 8, 32))
    def test_mean_zero(self, n):
        spec = resolve_kernel(POWER, n)
        assert abs(transfer_mean(spec)) <= 1e-10

    def test_mean_zero_general_power_family(self):
        spec = resolve_kernel(
            WeightSpec(1.0, 1.5, math.inf), 4)
        assert abs(transfer_mean(spec)) <= 1e-10


class TestKappa:
    def test_value_at_n2(self, spec2):
        eps = spec2.epsilon_n
        assert spec2.kappa == pytest.approx(1.0 / (eps * (2 * PI - eps)),
                                            rel=1e-12)
        assert spec2.kappa == pytest.approx(4.7e6, rel=2e-2)

    def test_grid_max_oracle(self, spec2):
        # Sup over a dense grid of the middle band, where |transfer| peaks.
        om = np.linspace(PI - 0.5, PI - spec2.epsilon_n, 10 ** 6)
        grid_max = np.abs(eval_transfer(spec2, om)).max()
        assert spec2.kappa == pytest.approx(grid_max, rel=1e-6)

    def test_monotone_in_n(self):
        kappas = [resolve_kernel(POWER, n).kappa for n in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(kappas, kappas[1:]))

    def test_at_least_one(self):
        # A flat companion (W == 1) caps the middle band at 1, so the inner
        # band dominates; no normalization root exists for it, so kappa is
        # taken at a chosen outer width.
        assert compute_kappa(WeightSpec(0.0, 0.0, math.inf), 0.1) == 1.0
        assert resolve_kernel(POWER, 2).kappa >= 1.0


class TestMpmathOracle:
    """eps_n and kappa against the normalization equation solved at 30
    digits, with no code shared with the closed form or the bisection."""

    @staticmethod
    def oracle(beta: float, n: int):
        with mpmath.mp.workdps(30):
            mp = mpmath.mp
            beta = mp.mpf(beta)
            u_a = mp.log(2 * mp.pi * n - 1)
            target = mp.pi - mp.mpf(1) / n

            def density(u):
                # W d(omega) / (2 pi) in the log-band coordinate u.
                return ((mp.pi ** 2 * mp.sech(u / 2) ** 2) ** (1 - beta)
                        / (2 * mp.pi))

            u_b = mp.findroot(
                lambda u: mp.quad(density, [u_a, u]) - target,
                (u_a + 1, u_a + 2))
            eps = 2 * mp.pi / (1 + mp.exp(u_b))
            kappa = max(mp.mpf(1), (eps * (2 * mp.pi - eps)) ** -beta)
            return float(eps), float(kappa)

    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("beta", [1.0, 1.5])
    def test_epsilon_and_kappa(self, beta, n):
        eps, kappa = self.oracle(beta, n)
        spec = resolve_kernel(WeightSpec(1.0, beta, math.inf), n)
        assert spec.epsilon_n == pytest.approx(eps, rel=1e-13, abs=0)
        assert spec.kappa == pytest.approx(kappa, rel=1e-13, abs=0)


class TestTaps:
    def test_center_forced_zero_with_small_residual(self, spec2):
        taps = synthesize_taps(spec2, 32)
        assert taps.taps[32] == 0.0
        assert taps.zero_residual <= 1e-8

    def test_even_exact(self, spec2):
        taps = synthesize_taps(spec2, 48)
        np.testing.assert_array_equal(taps.taps, taps.taps[::-1])

    def test_against_dense_trapezoid_oracle(self, spec2):
        # Brute-force trapezoid on a 2^20-point grid in the flattening
        # coordinate (the raw-omega grid cannot resolve the outer bands).
        taps = synthesize_taps(spec2, 4)
        u_a = math.log(2 * PI * 2 - 1)
        u_b = math.log((2 * PI - spec2.epsilon_n) / spec2.epsilon_n)
        u = np.linspace(u_a, u_b, 2 ** 20)
        gap = 2.0 * PI / (1.0 + np.exp(u))
        inner_edge = PI - 0.5
        for t in (1, 2, 3, 4):
            mid = (-1) ** t * np.trapezoid(np.cos(gap * t), u) / (2.0 * PI)
            oracle = (math.sin(inner_edge * t) / t - mid) / PI
            assert taps.taps[4 + t] == pytest.approx(oracle, abs=1e-7)

    def test_against_scipy_quad(self, spec2):
        taps = synthesize_taps(spec2, 8)
        u_a = math.log(2 * PI * 2 - 1)
        u_b = math.log((2 * PI - spec2.epsilon_n) / spec2.epsilon_n)
        inner_edge = PI - 0.5
        for t in (1, 5, 8):
            val, _ = scipy_quad(
                lambda u: math.cos((2 * PI / (1 + math.exp(u))) * t)
                / (2 * PI),
                u_a, u_b, epsabs=1e-12, epsrel=1e-12, limit=500)
            oracle = (math.sin(inner_edge * t) / t - (-1) ** t * val) / PI
            assert taps.taps[8 + t] == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("n", (2, 8))
    def test_zero_residual_across_n(self, n):
        spec = resolve_kernel(POWER, n)
        taps = synthesize_taps(spec, 16)
        assert taps.zero_residual <= 1e-8

    def test_general_power_family_taps(self):
        # Steeper companion: much wider outer band, much smaller sup.
        spec = resolve_kernel(
            WeightSpec(1.0, 1.5, math.inf), 3)
        taps = synthesize_taps(spec, 16)
        assert taps.zero_residual <= 1e-8
        u_a = math.log(2 * PI * 3 - 1)
        u_b = math.log((2 * PI - spec.epsilon_n) / spec.epsilon_n)
        t = 2
        val, _ = scipy_quad(
            lambda u: (PI ** 2 / math.cosh(0.5 * u) ** 2) ** -0.5
            * math.cos((2 * PI / (1 + math.exp(u))) * t) / (2 * PI),
            u_a, u_b, epsabs=1e-12, epsrel=1e-12, limit=2000)
        oracle = (math.sin((PI - 1 / 3) * t) / t - (-1) ** t * val) / PI
        assert taps.taps[16 + t] == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("weight", [
        pytest.param(POWER, id="power_law"),
        pytest.param(WeightSpec(1.0, 1.5, math.inf),
                     id="general_power-a1.5")])
    def test_short_taps_issue_no_warning(self, weight):
        # T = 32 leaves a large share of the squared taps in the last
        # octave; that is the nature of the kernel, not a fault to report.
        spec = resolve_kernel(weight, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            synthesize_taps(spec, 32)

    def test_transfer_reconstruction_improves_with_length(self, spec2):
        # The tap Fourier series should reproduce 1 on the inner band with
        # sup error decreasing as the length doubles (away from the edges;
        # ringing at the jumps caps pointwise accuracy there).
        om = np.linspace(0.0, PI - 0.5 - 0.1, 400)
        errors = []
        for T in (64, 128, 256):
            taps = synthesize_taps(spec2, T)
            ts = np.arange(-T, T + 1)
            series = taps.taps @ np.cos(np.outer(ts, om))
            errors.append(np.abs(series - 1.0).max())
        assert errors[2] < errors[1] < errors[0]

    def test_bad_half_length(self, spec2):
        with pytest.raises(ValueError):
            synthesize_taps(spec2, 0)

    def test_quadrature_failure_names_the_tap(self, monkeypatch):
        # Companion exponent 1.5 takes the fixed-panel route, whose per-tap
        # |K15 - G7| estimates (1e-14 and up here) cannot meet 1e-15; the
        # adaptive center tap still can, through its relative budget.
        from specfill import kernel as kernel_module

        spec = resolve_kernel(
            WeightSpec(1.0, 1.5, math.inf), 3)
        monkeypatch.setattr(kernel_module, "QUAD_TOL", 1e-15)
        with pytest.raises(QuadratureError,
                           match=r"t=\d+ \(n=3, beta=1\.5\)"):
            synthesize_taps(spec, 64)

    def test_center_tap_failure_names_t0(self, monkeypatch):
        from specfill import kernel as kernel_module

        def explode(beta, u_lo, u_hi, tol=1e-13):
            raise QuadratureError("synthetic")

        # Resolve first: bisection also calls gap_power_integral.
        spec = resolve_kernel(
            WeightSpec(1.0, 1.5, math.inf), 3)
        monkeypatch.setattr(kernel_module, "gap_power_integral", explode)
        with pytest.raises(QuadratureError, match="t=0"):
            synthesize_taps(spec, 8)

    @pytest.mark.parametrize("weight, n", [
        pytest.param(WeightSpec(1.0, 1.5, math.inf), n,
                     id=f"general_power-a1.5-n{n}")
        for n in (2, 8, 32)
    ] + [pytest.param(WeightSpec(2.0, 2.0, math.inf), 8,
                      id="direct-nu2-n8")])
    def test_fixed_panels_match_quadrature_route(self, weight, n):
        # Companion exponents other than 1 take the fixed-panel evaluator;
        # the per-tap adaptive quadrature is the oracle.  Every fifth t (5
        # is prime to the 64-tap block, so every in-block offset is hit)
        # plus t = T keeps the oracle cheap.
        spec = resolve_kernel(weight, n)
        T = 1024
        taps = synthesize_taps(spec, T)
        u_a = math.log(2 * PI * n - 1)
        u_b = math.log((2 * PI - spec.epsilon_n) / spec.epsilon_n)
        inner_edge = PI - 1.0 / n
        ts = np.append(np.arange(1, T + 1, 5), T)
        quad = np.array([
            (math.sin(inner_edge * t) / t
             - _middle_band_cos_integral(spec, int(t), u_a, u_b, 1e-10)) / PI
            for t in ts])
        assert np.max(np.abs(taps.taps[T + ts] - quad)) <= 1e-12

    @pytest.mark.parametrize("n", (2, 8, 32))
    def test_closed_form_matches_quadrature_route(self, n):
        # Power-law taps come from the cosine integral; the per-tap
        # quadrature that other companions use is the oracle.
        spec = resolve_kernel(POWER, n)
        T = 2048
        taps = synthesize_taps(spec, T)
        u_a = math.log(2 * PI * n - 1)
        u_b = math.log((2 * PI - spec.epsilon_n) / spec.epsilon_n)
        inner_edge = PI - 1.0 / n
        quad = np.array([
            (math.sin(inner_edge * t) / t
             - _middle_band_cos_integral(spec, t, u_a, u_b, 1e-10)) / PI
            for t in range(1, T + 1)])
        assert np.max(np.abs(taps.taps[T + 1:] - quad)) <= 1e-12


class TestCosineIntegral:
    # Both sides of the series / continued-fraction switch at x = 2.
    XS = np.concatenate((np.geomspace(1e-12, 1e5, 4001),
                         np.linspace(1.5, 2.5, 401),
                         [2.0, np.nextafter(2.0, 3.0)]))

    def test_against_scipy_sici(self):
        assert np.max(np.abs(_cosine_integral(self.XS)
                             - sici(self.XS)[1])) <= 1e-14

    def test_against_mpmath(self):
        xs = self.XS[::10]
        oracle = np.array([float(mpmath.ci(mpmath.mpf(float(x))))
                           for x in xs])
        assert np.max(np.abs(_cosine_integral(xs) - oracle)) <= 1e-14

    @pytest.mark.parametrize("xs", [
        np.linspace(1e-3, 2.0, 50),          # series only
        np.geomspace(np.nextafter(2.0, 3.0), 1e5, 50),  # fraction only
        # The slowest and a fast argument leave the recurrence apart.
        np.array([np.nextafter(2.0, 3.0), 1e5] * 3),
    ], ids=["all-series", "all-fraction", "mixed-exits"])
    def test_one_side_or_staggered_exits(self, xs):
        assert np.max(np.abs(_cosine_integral(xs) - sici(xs)[1])) <= 1e-14

    def test_unconverged_fraction_names_the_term_limit(self, monkeypatch):
        from specfill import kernel as kernel_module

        monkeypatch.setattr(kernel_module, "_CI_MAX_TERMS", 5)
        with pytest.raises(QuadratureError, match="in 5 terms"):
            _cosine_integral(np.array([1.0, 3.0, 1e5]))


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # Runtime dependencies are numpy only; scipy, mpmath and numpy.random
    # are test oracles.  numpy.ma costs start-up time in every command that
    # integrates, and none of them needs it.  The seeded draws come from
    # specfill's own Philox and the config hash from the interpreter's
    # builtin SHA-256, so no command loads numpy.random or OpenSSL
    # (_hashlib) either.
    base = {
        "weight": {"family": "general_power", "nu": 1.0, "a": 1.5,
                   "p": "inf"},
        "signal": {"kind": "bandlimited", "omega": 2.5, "seed": 3},
        "n_values": [2], "T": 32, "S": 128, "grid_size": 4096}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base))
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps({
        **base, "weight": {"family": "power_law", "nu": 1.0, "p": "inf"},
        "noise": {"sigma": 1e-6, "seeds": [0, 1]}}))
    src = Path(specfill.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, specfill.cli; "
         "print(sorted({'scipy', 'mpmath'} & set(sys.modules))); "
         "config, noisy, out = sys.argv[1:]; "
         "codes = [specfill.cli.main([*cmd, '--out', out + name]) "
         "for cmd, name in ((['validate-weight', '--config', config], ''), "
         "(['kernel', '--config', config], '/taps'), "
         "(['robustness', '--config', noisy], '/rob.csv'))]; "
         "print(json.dumps([codes, sorted({'scipy', 'mpmath', 'numpy.ma', "
         "'numpy.random', '_hashlib'} & set(sys.modules))]))",
         str(config), str(noisy), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "[]"
    codes, loaded = json.loads(lines[-1])
    assert codes == [0, 0, 0]
    if not any(importlib.util.find_spec(name) for name in ("_sha2",
                                                           "_sha256")):
        # An interpreter built without its own hashes falls back to
        # hashlib, which loads OpenSSL.
        loaded = [name for name in loaded if name != "_hashlib"]
    assert loaded == []


class TestExports:
    def test_text_roundtrip(self, spec2, tmp_path):
        taps = synthesize_taps(spec2, 16)
        path = tmp_path / "taps.txt"
        write_taps_text(taps, path, header="demo")
        lines = path.read_text().splitlines()
        assert lines[0] == "# demo"
        assert len(lines) == 1 + 33
        ts, vals = zip(*(line.split() for line in lines[1:]))
        assert [int(t) for t in ts] == list(range(-16, 17))
        np.testing.assert_array_equal(
            np.array([float(v) for v in vals]), taps.taps)
        # Center row is exactly zero in text form.
        assert lines[1 + 16] == "0 0.0"

    # T = 1100 spans three formatting blocks, the last holding t = 0 only.
    @pytest.mark.parametrize("T", [1, 40, 1100])
    def test_text_rows_mirror(self, spec2, tmp_path, T):
        # Rows run t = -T .. T, and the row for -t carries the same value
        # text as the row for t.
        taps = synthesize_taps(spec2, T)
        path = tmp_path / "taps.txt"
        write_taps_text(taps, path)
        rows = [line.split() for line in path.read_text().splitlines()]
        assert [int(t) for t, _ in rows] == list(range(-T, T + 1))
        text = [v for _, v in rows]
        assert text == [repr(v) for v in taps.taps.tolist()]
        assert text[:T] == text[T + 1:][::-1]

    def test_binary_roundtrip(self, spec2, tmp_path):
        taps = synthesize_taps(spec2, 16)
        path = tmp_path / "taps.f64"
        write_taps_binary(taps, path)
        back = np.fromfile(path, dtype="<f8")
        np.testing.assert_array_equal(back, taps.taps)
