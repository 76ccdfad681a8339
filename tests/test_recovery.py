import math
import weakref
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfill import signals
from specfill.kernel import resolve_kernel, synthesize_taps
from specfill.recovery import (
    CSV_COLUMNS,
    RecoveryReport,
    convergence_sweep,
    recover_center,
    robustness_bound,
    spectral_error,
)
from specfill.signals import (
    ENVELOPE_DEGREE,
    SpectralSignal,
    TimeSignal,
    add_spectral_noise,
    from_profile,
    inverse_transform,
    make_bandlimited,
    make_power_decay,
)
from specfill.weights import PI, WeightSpec

POWER = WeightSpec(1.0, 1.0, math.inf)


@pytest.fixture(scope="module")
def spec2():
    return resolve_kernel(POWER, 2)


@pytest.fixture(scope="module")
def taps2(spec2):
    return synthesize_taps(spec2, 64)


def flat_spectrum(grid_size=2 ** 16):
    return from_profile(
        lambda om: np.ones_like(np.asarray(om), dtype=complex),
        grid_size)


class TestRecoverCenter:
    def test_zero_signal(self, taps2):
        zero = TimeSignal(samples=np.zeros(257))
        assert recover_center(taps2, zero) == 0.0

    def test_shifted_delta_picks_one_tap(self, taps2):
        samples = np.zeros(257)
        samples[128 + 5] = 1.0
        delta = TimeSignal(samples=samples)
        assert recover_center(taps2, delta) == taps2.taps[64 + 5]

    def test_center_sample_never_leaks(self, taps2):
        samples = np.zeros(257)
        samples[128] = 1e12
        spiked = TimeSignal(samples=samples)
        assert recover_center(taps2, spiked) == 0.0

    def test_window_mismatch_rejected(self, taps2):
        short = TimeSignal(samples=np.zeros(65))
        with pytest.raises(ValueError):
            recover_center(taps2, short)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-10, max_value=10),
           st.floats(min_value=-10, max_value=10))
    def test_linearity(self, taps2, alpha, beta):
        rng = np.random.Generator(np.random.Philox(42))
        x = rng.normal(size=129)
        y = rng.normal(size=129)
        sig_x = TimeSignal(samples=x)
        sig_y = TimeSignal(samples=y)
        combined = TimeSignal(samples=alpha * x + beta * y)
        lhs = recover_center(taps2, combined)
        rhs = (alpha * recover_center(taps2, sig_x)
               + beta * recover_center(taps2, sig_y))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    def test_in_band_recovery_accuracy(self, spec2):
        signal = make_bandlimited(PI / 2, 7, 2 ** 16)
        taps = synthesize_taps(spec2, 512)
        ts = inverse_transform(signal, 4095)
        estimate = recover_center(taps, ts)
        assert abs(estimate - ts.truth_center) < 1e-6


class TestSpectralError:
    def test_in_band_support_exact_zero(self, spec2):
        signal = make_bandlimited(PI / 2, 7, 2 ** 14)
        report = spectral_error(spec2, signal)
        assert report.I2 == 0.0
        assert report.I3 == 0.0
        assert report.spectral_bound == 0.0

    def test_in_band_any_n(self):
        signal = make_bandlimited(PI / 2, 7, 2 ** 14)
        for n in (2, 3, 17, 64):
            spec = resolve_kernel(POWER, n)
            assert spectral_error(spec, signal).spectral_bound == 0.0

    def test_inner_band_integrand_identically_zero(self, spec2):
        # (transfer - 1) X vanishes pointwise on the whole inner band, so
        # the bound rightly leaves that band out: its term is exactly zero,
        # not just small.
        from specfill.kernel import eval_transfer
        from specfill.signals import _positive_omegas

        signal = make_power_decay(1.0, 3, 2 ** 14)
        om = _positive_omegas(2 ** 14)
        inner = om < PI - 1.0 / spec2.n
        # transfer - 1 is even, so the negative half vanishes with this one.
        integrand = (eval_transfer(spec2, om[inner]) - 1.0) \
            * signal.positive[inner]
        assert np.all(integrand == 0.0)

    def test_flat_spectrum_bound_is_one(self, spec2):
        # (transfer - 1) has total L1 mass exactly 2 pi for |X| == 1: the
        # middle band contributes 2 (pi - 1/n) of companion mass by the
        # normalization identity plus the band lengths.
        report = spectral_error(spec2, flat_spectrum())
        assert report.spectral_bound == pytest.approx(1.0, abs=1e-9)

    def test_flat_spectrum_bound_constant_in_n(self):
        flat = flat_spectrum()
        bounds = [spectral_error(resolve_kernel(POWER, n), flat).spectral_bound
                  for n in (2, 8, 32)]
        assert bounds == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)

    def test_power_decay_bound_decreasing(self):
        signal = make_power_decay(1.0, 3, 2 ** 16)
        bounds = [spectral_error(resolve_kernel(POWER, n),
                                 signal).spectral_bound
                  for n in (2, 4, 8, 16, 32)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_decomposition_sums_to_bound(self):
        signal = make_power_decay(1.0, 3, 2 ** 16)
        report = spectral_error(resolve_kernel(POWER, 4), signal)
        recomposed = (report.I2 + report.I3) / (2 * PI)
        assert report.spectral_bound == pytest.approx(recomposed, abs=1e-10)
        assert report.I3 < report.I2

    def test_profileless_spectrum_raises(self, spec2):
        clean = make_bandlimited(PI / 2, 7, 2 ** 16)
        noisy = add_spectral_noise(clean, 1e-3, 5)
        assert noisy.profile is None
        with pytest.raises(ValueError, match="profile"):
            spectral_error(spec2, noisy)


def mp_spectral_error(spec, kind, nu, seed, grid_size):
    """Oracle for (I2, I3, spectral_bound): mpmath at 20 digits, in log g
    on unit panels, g = pi - omega, with the envelope rebuilt from its
    Philox coefficients and summed over the powers of e^(i omega).

    I2 = 2 integral of (W + 1) |X| over g in [eps_n, 1/n]; I3 = 2 integral
    of |X| over g in (0, eps_n], whose integrand falls like g^nu for the
    power-decay signal, so g below e^-40 eps_n adds nothing at this
    precision.
    """
    mp = mpmath.mp
    rng = np.random.Generator(np.random.Philox(seed))
    scale = 1.0 / (1.0 + np.arange(ENVELOPE_DEGREE + 1)) ** 2
    re_coef = rng.uniform(-1.0, 1.0, ENVELOPE_DEGREE + 1) * scale
    im_coef = rng.uniform(-1.0, 1.0, ENVELOPE_DEGREE + 1) * scale
    im_coef[0] = 0.0
    if kind == "powerdecay":
        # The generator divides by max |envelope| over its grid.
        om = (np.arange(grid_size // 2) + 0.5) * (2.0 * PI / grid_size)
        angles = np.multiply.outer(om, np.arange(ENVELOPE_DEGREE + 1))
        norm = float(np.max(np.abs(np.cos(angles) @ re_coef
                                   + 1j * (np.sin(angles) @ im_coef))))
    with mp.workdps(20):
        beta = mp.mpf(spec.weight.beta)
        coefs = [(mp.mpf(a), mp.mpf(b)) for a, b in zip(re_coef, im_coef)]

        def magnitude(g):
            omega = mp.pi - g
            if kind == "bandlimited":
                support = mp.mpf(2.5)
                if omega >= support:
                    return mp.zero
                rolloff = (1 + mp.cos(mp.pi * omega / support)) / 2
            else:
                rolloff = (g * (2 * mp.pi - g)) ** nu / norm
            # e^(i j omega) by powers: cos(j omega) and sin(j omega) are
            # its parts.
            z, power, env = mp.expj(omega), mp.one, mp.zero
            for re, im in coefs:
                env += mp.mpc(re * power.real, im * power.imag)
                power *= z
            return abs(env) * rolloff

        def log_gap_quad(f, g_lo, g_hi):
            # mp.quad stops on an absolute error estimate, so the integrand
            # is scaled to order one at the top of the band.
            scale = f(g_hi) * g_hi or mp.one
            v_lo, v_hi = mp.log(g_lo), mp.log(g_hi)
            knots = mp.linspace(v_lo, v_hi, int(mp.ceil(v_hi - v_lo)) + 1)
            return scale * mp.quad(lambda v: f(mp.exp(v)) * mp.exp(v) / scale,
                                   knots)

        eps = mp.mpf(spec.epsilon_n)
        i2 = 2 * log_gap_quad(
            lambda g: ((g * (2 * mp.pi - g)) ** -beta + 1) * magnitude(g),
            eps, mp.mpf(1) / spec.n)
        i3 = 2 * log_gap_quad(magnitude, eps * mp.exp(-40), eps)
        return float(i2), float(i3), float((i2 + i3) / (2 * mp.pi))


class TestSpectralErrorOracle:
    @pytest.mark.parametrize("kind, nu", [("powerdecay", 1.0),
                                          ("powerdecay", 3.0),
                                          ("bandlimited", None)],
                             ids=["powerdecay", "powerdecay-nu3",
                                  "bandlimited"])
    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("weight", [
        WeightSpec(1.0, 1.0, math.inf), WeightSpec(1.0, 1.5, math.inf)],
        ids=["power_law", "general_power-a1.5"])
    def test_matches_mpmath(self, weight, n, kind, nu):
        grid_size = 2 ** 12
        if kind == "powerdecay":
            signal = make_power_decay(nu, 3, grid_size)
        else:
            signal = make_bandlimited(2.5, 3, grid_size)
        spec = resolve_kernel(weight, n)
        report = spectral_error(spec, signal)
        i2, i3, bound = mp_spectral_error(spec, kind, nu, 3, grid_size)
        assert report.I2 == pytest.approx(i2, rel=1e-13, abs=0.0)
        assert report.I3 == pytest.approx(i3, rel=1e-13, abs=0.0)
        assert report.spectral_bound == pytest.approx(bound, rel=1e-13,
                                                      abs=0.0)


class TestRobustnessBound:
    def test_no_noise_reduces_to_epsilon(self):
        assert robustness_bound(0.01, 0.0, 1e6) == 0.01

    def test_direct_formula(self):
        assert robustness_bound(0.0, 0.3, 2.0) == pytest.approx(0.9)

    def test_large_kappa_example(self):
        value = robustness_bound(0.01, 1e-9, 4.7e6)
        assert value == pytest.approx(0.01 + 1e-9 * (4.7e6 + 1), rel=1e-12)
        assert value == pytest.approx(0.0147, abs=2e-4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            robustness_bound(-0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            robustness_bound(0.0, -1e-9, 1.0)

    @pytest.mark.parametrize("args", [(math.nan, 0.0, 1.0),
                                      (0.0, math.nan, 1.0),
                                      (0.0, 0.0, math.nan)])
    def test_rejects_nan(self, args):
        with pytest.raises(ValueError, match="nonnegative numbers"):
            robustness_bound(*args)


class TestConvergenceSweep:
    def test_band_limited_rows_zero_bound(self):
        signal = make_bandlimited(PI / 2, 7, 2 ** 14)
        reports = convergence_sweep(POWER, lambda: signal, [2, 4], 64, 256,
                                    base_seed=7)
        assert [r.n for r in reports] == [2, 4]
        assert all(r.spectral_bound == 0.0 for r in reports)
        assert all(r.seed == 7 for r in reports)

    def test_noise_rows_carry_bound_and_respect_it(self):
        signal = make_bandlimited(PI / 2, 7, 2 ** 14)
        reports = convergence_sweep(
            POWER, lambda: signal, [4], 128, 512,
            noise_sigma=1e-6, noise_seeds=tuple(range(10)))
        assert len(reports) == 10
        assert [r.seed for r in reports] == list(range(10))
        for r in reports:
            assert r.robust_bound is not None
            assert r.abs_error <= r.robust_bound

    # The fold is D = 8 rows of P = M/16: at 2^14 one block of 8 rows of
    # 1024, at 2^20 4 blocks of 2 rows of 65536, whatever S is.
    @pytest.mark.parametrize("grid_size, S, blocks", [(2 ** 14, 256, 1),
                                                      (2 ** 20, 4096, 4)])
    @pytest.mark.parametrize("n_values", [[2], [2, 3, 4]])
    def test_one_inverse_transform_per_seed(self, monkeypatch, n_values,
                                            grid_size, S, blocks):
        calls = []
        ifft = np.fft.ifft

        def counting(a, *args, **kwargs):
            # Each call transforms a block of the fold's rows; record which.
            offset = (a.__array_interface__["data"][0]
                      - a.base.__array_interface__["data"][0])
            first = offset // a.strides[0]
            calls.append((range(first, first + a.shape[0]), a.shape[1]))
            return ifft(a, *args, **kwargs)

        def transforms(count):
            # The fold's M/2 entries as 8 rows of M/16 points; each
            # transform covers all 8 rows exactly once, in blocks of at most
            # _ROW_BLOCK entries.
            P, D = grid_size // 16, 8
            assert len(calls) == count * blocks
            for k in range(count):
                group = calls[k * blocks:(k + 1) * blocks]
                assert all(cols == P for _, cols in group)
                assert all(len(rows) * P <= signals._ROW_BLOCK
                           for rows, _ in group)
                assert sorted(r for rows, _ in group for r in rows) == list(
                    range(D))
            calls.clear()

        # The signals layer reaches ifft through the numpy module, so the
        # count covers both the noisy sweep and inverse_transform.
        monkeypatch.setattr(np.fft, "ifft", counting)
        signal = make_power_decay(1.0, 3, grid_size)
        seeds = (0, 1, 2)
        convergence_sweep(POWER, lambda: signal, n_values, 32, S,
                          noise_sigma=1e-6, noise_seeds=seeds)
        transforms(len(seeds))
        convergence_sweep(POWER, lambda: signal, n_values, 32, S, base_seed=3)
        transforms(1)

    def test_shared_draws_match_per_cell_route(self):
        # Reference: draw and transform the noisy spectrum inside every
        # (n, seed) cell, as the sweep once did.
        signal = make_power_decay(1.0, 3, 2 ** 14)
        reports = convergence_sweep(POWER, lambda: signal, [2, 3], 32, 256,
                                    noise_sigma=1e-6, noise_seeds=(2, 0))
        expected = []
        for n in (2, 3):
            taps = synthesize_taps(resolve_kernel(POWER, n), 32)
            for seed in (0, 2):
                noisy = add_spectral_noise(signal, 1e-6, seed)
                time_sig = inverse_transform(noisy, 256)
                expected.append((n, seed, recover_center(taps, time_sig),
                                 time_sig.truth_center))
        assert [(r.n, r.seed, r.estimate, r.truth)
                for r in reports] == expected

    # The README config and the grid_noise benchmark config, each at its S
    # and at another valid S: every CSV cell but S keeps its bytes.
    @pytest.mark.parametrize("grid_size, n_values, T, seeds, S_values", [
        (2 ** 18, [2, 4, 8, 16, 32], 2048, (0, 1, 2), (4096, 8192)),
        (2 ** 20, [2, 32], 64, tuple(range(8)), (32768, 64))],
        ids=["readme", "grid_noise"])
    def test_signal_window_moves_no_number(self, grid_size, n_values, T,
                                           seeds, S_values):
        signal = make_power_decay(1.0, 3, grid_size)
        s_column = CSV_COLUMNS.index("S")
        runs = []
        for S in S_values:
            reports = convergence_sweep(POWER, lambda: signal, n_values, T, S,
                                        noise_sigma=1e-6, noise_seeds=seeds)
            assert {r.S for r in reports} == {S}
            runs.append([r.csv_row()[:s_column] + r.csv_row()[s_column + 1:]
                         for r in reports])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n_values, seeds, name", [
        ([4, 2], (0,), "n_values"), ([2, 2], (1, 3), "n_values"),
        ([2], (1, 1), "noise_seeds")],
        ids=["unsorted-n", "repeated-n", "repeated-seed"])
    def test_repeats_rejected_before_build(self, n_values, seeds, name):
        # A repeated n or seed would only repeat rows; like the config, the
        # sweep refuses it, naming the argument, before any spectrum.
        def build():
            raise AssertionError("built the spectrum before the checks")

        with pytest.raises(ValueError, match=f"^{name} must be"):
            convergence_sweep(POWER, build, n_values, 8, 8,
                              noise_sigma=1e-6, noise_seeds=seeds)

    @pytest.mark.parametrize("sigma", [math.nan, -1e-6])
    def test_bad_sigma_rejected_before_build(self, sigma):
        def build():
            raise AssertionError("built the spectrum before the checks")

        with pytest.raises(ValueError, match=f"^noise_sigma must be a "
                                             f"nonnegative number, got "
                                             f"{sigma}"):
            convergence_sweep(POWER, build, [2], 8, 8, noise_sigma=sigma,
                              noise_seeds=(0,))

    @pytest.mark.parametrize("noise", [
        {"base_seed": 3}, {"noise_sigma": 1e-6, "noise_seeds": (0, 1)}],
        ids=["clean", "noisy"])
    def test_half_grid_dead_at_first_row_transform(self, monkeypatch,
                                                   noise):
        # The sweep holds the only reference to the spectrum it builds,
        # and drops it once folded, so no row transform runs beside the
        # half-grid.
        half_grids = []
        alive = []
        ifft = np.fft.ifft

        def build():
            signal = make_power_decay(1.0, 3, 2 ** 20)
            half_grids.append(weakref.ref(signal.positive))
            return signal

        def spy(*args, **kwargs):
            alive.append(half_grids[0]() is not None)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spy)
        convergence_sweep(POWER, build, [2], 64, 64, **noise)
        assert len(half_grids) == 1
        assert alive and not any(alive)

    def test_errors_tagged_with_n(self):
        # A spectrum with no analytic profile transforms, but
        # spectral_error rejects it inside the cell.
        signal = SpectralSignal(
            positive=make_bandlimited(PI / 2, 7, 2 ** 14).positive)
        with pytest.raises(RuntimeError, match="n=2.*analytic profile"):
            convergence_sweep(POWER, lambda: signal, [2], 32, 256)

    def test_huge_band_index_tagged_in_three_digits(self):
        # 10^300 is a float, but the closed-form eps_n underflows to 0,
        # outside (0, 1/n); past a float's exact range n prints in 3
        # digits, not 301, in the kernel's message and the cell's tag.
        signal = make_bandlimited(PI / 2, 7, 2 ** 14)
        with pytest.raises(RuntimeError) as info:
            convergence_sweep(POWER, lambda: signal, [10 ** 300], 32, 256)
        message = str(info.value)
        assert message.startswith(
            "sweep cell n=1e+300 failed: closed form for beta=1.0 left the "
            "admissible interval (0, 1/1e+300)")
        assert len(message) < 200

    def test_band_index_past_float_range_tagged_by_size(self):
        # 10^400 overflows the cell's first float conversion; its tag gives
        # the size, not 401 digits, and formatting it cannot fail.
        signal = make_bandlimited(PI / 2, 7, 2 ** 14)
        with pytest.raises(RuntimeError,
                           match=r"^sweep cell n=<1329-bit integer> failed"):
            convergence_sweep(POWER, lambda: signal, [10 ** 400], 32, 256)

    @pytest.mark.parametrize("noise", [{}, {"noise_sigma": 1e-6,
                                            "noise_seeds": (0,)}])
    def test_tap_window_wider_than_signal_window_rejected(self, monkeypatch,
                                                          noise):
        # A report's S column claims a signal window that holds the taps,
        # so T > S is refused before any transform runs, naming both.
        def no_ifft(*args, **kwargs):
            raise AssertionError("transformed before the window check")

        monkeypatch.setattr(np.fft, "ifft", no_ifft)
        signal = make_bandlimited(PI / 2, 7, 2 ** 14)
        with pytest.raises(ValueError, match=r"T=512 .*S=256"):
            convergence_sweep(POWER, lambda: signal, [2], 512, 256, **noise)


class TestCsvRow:
    def test_no_noise_row(self):
        signal = make_bandlimited(PI / 2, 7, 2 ** 14)
        [report] = convergence_sweep(POWER, lambda: signal, [2], 32, 256,
                                     base_seed=7)
        row = report.csv_row()
        assert len(row) == len(CSV_COLUMNS)
        # A run without noise has no robust bound: its cell is empty.
        assert row[CSV_COLUMNS.index("robust_bound")] == ""
        assert row[CSV_COLUMNS.index("estimate")] == repr(report.estimate)
        assert [row[CSV_COLUMNS.index(name)]
                for name in ("n", "T", "S", "seed")] == ["2", "32", "256", "7"]

    def test_columns_are_the_field_names_in_order(self):
        assert CSV_COLUMNS == tuple(f.name for f in fields(RecoveryReport))
        assert CSV_COLUMNS == (
            "n", "epsilon_n", "kappa", "estimate", "truth", "abs_error",
            "spectral_bound", "I2", "I3", "robust_bound", "zero_residual",
            "T", "S", "seed")
