import functools
import math
import warnings

import numpy as np
import pytest

from specfill.signals import (
    ENVELOPE_DEGREE,
    NOISE_BAND,
    SpectralSignal,
    TimeSignal,
    _band_width,
    _envelope,
    _fold_rows,
    _fold_twiddle,
    _noise_band_count,
    _positive_omegas,
    _split_shape,
    _window_reader,
    add_spectral_noise,
    assert_hermitian,
    class_norm,
    forward_transform,
    from_profile,
    grid_omegas,
    inverse_transform,
    make_bandlimited,
    make_power_decay,
    noisy_inverse_transforms,
)
from specfill.weights import PI, make_power_weight

W_INF = make_power_weight(1.0, math.inf)
W_P2 = make_power_weight(1.0, 2.0)


def flat_signal(grid_size=2 ** 14):
    return from_profile(
        lambda om: np.ones_like(np.asarray(om), dtype=complex),
        grid_size)


def random_hermitian(grid_size, seed):
    rng = np.random.default_rng(seed)
    half = (rng.standard_normal(grid_size // 2)
            + 1j * rng.standard_normal(grid_size // 2))
    return SpectralSignal(values=np.concatenate([half[::-1].conj(), half]))


def full_grid_inverse(values, half_length):
    """Reference route: one M-point ifft, then the midpoint-grid phases."""
    M = values.size
    base = np.fft.ifft(values)
    ts = np.arange(-half_length, half_length + 1)
    parity = np.where(ts % 2 == 0, 1.0, -1.0)
    return (parity * np.exp(1j * PI * ts / M) * base[ts % M]).real


def direct_envelope(seed, omega):
    """Reference route: the envelope from a full cos/sin angle matrix."""
    rng = np.random.Generator(np.random.Philox(seed))
    scale = 1.0 / (1.0 + np.arange(ENVELOPE_DEGREE + 1)) ** 2
    re_coef = rng.uniform(-1.0, 1.0, ENVELOPE_DEGREE + 1) * scale
    im_coef = rng.uniform(-1.0, 1.0, ENVELOPE_DEGREE + 1) * scale
    im_coef[0] = 0.0
    angles = omega[:, None] * np.arange(ENVELOPE_DEGREE + 1)
    return (np.cos(angles) @ re_coef) + 1j * (np.sin(angles) @ im_coef)


@functools.lru_cache(maxsize=None)
def generated(make, grid_size):
    return make({make_bandlimited: 2.5, make_power_decay: 1.0}[make], 7,
                grid_size)


def masked_noise_values(spec, sigma, noise_seed):
    """Reference route: full-grid zeros, filled through the band masks."""
    M = spec.grid_size
    half = M // 2
    pos_mask = _positive_omegas(M) > PI - NOISE_BAND
    count = int(np.count_nonzero(pos_mask))
    rng = np.random.Generator(np.random.Philox(noise_seed))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * PI, count))
    amplitude = sigma / (2.0 * count * (2.0 * PI / M))
    noise = np.zeros(M, dtype=complex)
    noise[half:][pos_mask] = amplitude * phases
    noise[:half][pos_mask[::-1]] = np.conj(amplitude * phases)[::-1]
    return spec.values + noise


# (M, S) splits beyond the power-of-two byte-equality grid: count % D != 0
# with several entries per row in the band (3 * 2^12, S = 100 and
# 5 * 2^10, S = 50), D = 1 (2 * 4099, S = 511) and P = 3 (3 * 2^12, S = 1);
# 2^14 at its largest S is a power-of-two grid for comparison.  The last
# two fold in several blocks: D = 1 with P = 2^15 + 1, one entry past two
# full blocks (2 * (2^15 + 1), S = 511), and D = 2^15 > _BLOCK, one column
# per block (2^17, S = 1).
ODD_SPLITS = [(3 * 2 ** 12, 100), (5 * 2 ** 10, 50), (2 * 4099, 511),
              (3 * 2 ** 12, 1), (2 ** 14, 1023), (2 * (2 ** 15 + 1), 511),
              (2 ** 17, 1)]


class TestGrid:
    def test_symmetric_exact(self):
        om = grid_omegas(4096)
        np.testing.assert_array_equal(om, -om[::-1])

    def test_open_interval(self):
        om = grid_omegas(4096)
        assert om[0] > -PI and om[-1] < PI
        assert 0.0 not in om

    def test_uniform(self):
        om = grid_omegas(1024)
        np.testing.assert_allclose(np.diff(om), 2 * PI / 1024, rtol=1e-12)


class TestGenerators:
    def test_bandlimited_support_zeros(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 16)
        om = grid_omegas(2 ** 16)
        outside = np.abs(om) > PI / 2
        assert np.all(sig.values[outside] == 0)
        # Point values beyond the declared support, via the kept profile.
        assert sig.profile(np.array([3 * PI / 4]))[0] == 0
        assert sig.profile(np.array([-3 * PI / 4]))[0] == 0

    def test_bandlimited_deterministic(self):
        a = make_bandlimited(PI / 2, 7, 2 ** 14)
        b = make_bandlimited(PI / 2, 7, 2 ** 14)
        np.testing.assert_array_equal(a.values, b.values)

    def test_bandlimited_distinct_seeds(self):
        a = make_bandlimited(PI / 2, 7, 2 ** 14)
        b = make_bandlimited(PI / 2, 8, 2 ** 14)
        assert not np.array_equal(a.values, b.values)

    def test_bandlimited_hermitian_exact(self):
        sig = make_bandlimited(1.1, 3, 2 ** 14)
        np.testing.assert_array_equal(sig.values[::-1].conj(), sig.values)
        assert_hermitian(sig)

    def test_bandlimited_class_norm_finite(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        value = class_norm(sig, W_P2)
        assert math.isfinite(value)
        # Brute-force Riemann oracle at 4x grid density via the profile.
        m4 = 4 * 2 ** 14
        om4 = grid_omegas(m4)
        h4 = 1.0 / ((PI - om4) * (PI + om4))
        riemann = float(np.sum(h4 * np.abs(sig.profile(om4)) ** 2)
                        * (2 * PI / m4))
        assert value == pytest.approx(riemann, rel=1e-6)

    def test_bandlimited_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            make_bandlimited(0.0, 1, 2 ** 14)
        with pytest.raises(ValueError):
            make_bandlimited(PI, 1, 2 ** 14)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            make_bandlimited(1.0, 1, 1000)
        with pytest.raises(ValueError):
            make_power_decay(1.0, 1, 3000)

    def test_power_decay_envelope_bound(self):
        sig = make_power_decay(1.0, 3, 2 ** 14)
        om = grid_omegas(2 ** 14)
        cap = (PI - om) * (PI + om)
        assert np.all(np.abs(sig.values) <= cap * (1 + 1e-12))

    def test_power_decay_class_norm_sup(self):
        # Weight exponent equals decay exponent: pointwise product is |g|,
        # capped at 1; oracle is the plain grid maximum.
        sig = make_power_decay(1.0, 3, 2 ** 14)
        value = class_norm(sig, W_INF)
        assert math.isfinite(value)
        om = grid_omegas(2 ** 14)
        h = 1.0 / ((PI - om) * (PI + om))
        oracle = float(np.max(h * np.abs(sig.values)))
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value <= 1.0 + 1e-12

    def test_power_decay_mass_comparison(self):
        shallow = make_power_decay(0.25, 3, 2 ** 14)
        steep = make_power_decay(2.0, 3, 2 ** 14)
        om = grid_omegas(2 ** 14)
        edge = np.abs(om) > 3.0
        mass_shallow = np.abs(shallow.values[edge]).sum()
        mass_steep = np.abs(steep.values[edge]).sum()
        assert mass_steep < mass_shallow

    def test_power_decay_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            make_power_decay(0.0, 1, 2 ** 14)

    @pytest.mark.parametrize("grid_size", [1024, 2 ** 18])
    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("make, arg", [(make_bandlimited, 2.5),
                                           (make_power_decay, 1.0)])
    def test_grid_values_are_the_profile_bit_for_bit(self, make, arg, seed,
                                                     grid_size):
        # Values come from the positive half in chunks plus the mirror; the
        # profile here runs on the whole grid at once.
        sig = make(arg, seed, grid_size)
        assert np.array_equal(sig.values, sig.profile(grid_omegas(grid_size)))
        assert_hermitian(sig, tol=0.0)

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_envelope_recurrence_matches_angle_matrix(self, seed):
        # Whole grid plus points at the band edges, zero and beyond.
        om = np.concatenate([grid_omegas(2 ** 14),
                             [-PI, 0.0, PI, 2.0 * PI, -7.5]])
        gap = np.abs(_envelope(seed)(om) - direct_envelope(seed, om))
        assert np.max(gap) <= 1e-14


class TestSignalTypes:
    @pytest.mark.parametrize("values", [
        np.zeros((2, 8)), np.zeros(7), np.zeros(0)],
        ids=["two-dimensional", "odd-length", "empty"])
    def test_spectral_signal_rejects_bad_values(self, values):
        with pytest.raises(ValueError, match="positive even length"):
            SpectralSignal(values=values)

    @pytest.mark.parametrize("samples", [np.zeros(8), np.zeros((3, 3))],
                             ids=["even-length", "two-dimensional"])
    def test_time_signal_rejects_bad_samples(self, samples):
        with pytest.raises(ValueError, match="odd length"):
            TimeSignal(samples=samples)


class TestInverseTransform:
    def test_zero_spectrum(self):
        sig = SpectralSignal(values=np.zeros(2 ** 12, dtype=complex))
        ts = inverse_transform(sig, 8)
        assert np.all(ts.samples == 0.0)
        assert ts.truth_center == 0.0

    def test_unit_spectrum_is_delta(self):
        sig = SpectralSignal(values=np.ones(2 ** 12, dtype=complex))
        ts = inverse_transform(sig, 16)
        assert ts.samples[16] == pytest.approx(1.0, abs=1e-14)
        off = np.delete(ts.samples, 16)
        assert np.max(np.abs(off)) < 1e-12

    def test_ideal_band_indicator_is_sinc(self):
        M = 2 ** 15
        om = grid_omegas(M)
        sig = SpectralSignal(values=(np.abs(om) <= PI / 2).astype(complex))
        ts = inverse_transform(sig, 16)
        assert ts.samples[16] == pytest.approx(0.5, abs=1e-13)
        for t in (1, 2, 5, 9, 16):
            analytic = math.sin(PI / 2 * t) / (PI * t)
            assert ts.samples[16 + t] == pytest.approx(analytic, abs=1e-6)

    def test_truth_center_matches_sample(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        ts = inverse_transform(sig, 64)
        assert ts.truth_center == ts.samples[64]

    def test_grid_too_coarse_rejected(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 10)
        with pytest.raises(ValueError):
            inverse_transform(sig, 512)

    # Even grids that are not powers of two: at 3 * 2^12 every row
    # transform has a factor 3 in its length P, and at 2 * 4099 the fold's
    # length 4099 is odd, so D = 1 and one row is the whole fold.
    @pytest.mark.parametrize("grid_size", [1024, 2 ** 14, 2 ** 18,
                                           3 * 2 ** 12, 2 * 4099])
    @pytest.mark.parametrize("which", [1, 2, 3, "largest_odd",
                                       "largest_even"])
    def test_matches_full_grid_route(self, grid_size, which):
        # Largest S with grid_size >= 8 (2S + 1) is grid_size/16 - 1 (odd).
        largest = grid_size // 16 - 1
        half_length = {"largest_odd": largest,
                       "largest_even": largest - 1}.get(which, which)
        sig = random_hermitian(grid_size, seed=grid_size + half_length)
        ts = inverse_transform(sig, half_length)
        ref = full_grid_inverse(sig.values, half_length)
        assert ts.samples.shape == ref.shape
        assert np.max(np.abs(ts.samples - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert ts.truth_center == ts.samples[half_length]

    # The check runs _BLOCK pairs at a time; at 2^16 the bins 20000 and
    # its mirror 2^16 - 1 - 20000 pair in the second block.
    @pytest.mark.parametrize("grid_size, index", [
        (2 ** 12, 100), (2 ** 16, 20000), (2 ** 16, 2 ** 16 - 1 - 20000)])
    def test_small_hermitian_defect_rejected(self, grid_size, index):
        # A 1e-9 defect at one bin puts at most 1e-9 / (2M) into Im x, far
        # below a 1e-10 residue test on x; the input check still sees it.
        sig = random_hermitian(grid_size, seed=5)
        values = sig.values.copy()
        values[index] += 1e-9
        with pytest.raises(ValueError, match="Hermitian"):
            inverse_transform(SpectralSignal(values=values), 8)

    def test_hermitian_violation_is_hard_error(self):
        values = np.zeros(2 ** 12, dtype=complex)
        values[100] = 5.0 + 3.0j
        broken = SpectralSignal(values=values)
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            inverse_transform(broken, 8)

    @pytest.mark.parametrize("grid_size, index", [
        (2 ** 12, 100), (2 ** 16, 20000)])
    def test_hermitian_paired_nan_rejected(self, grid_size, index):
        # A NaN bin and its mirror give a NaN defect, which must fail the
        # check rather than compare false against the tolerance, also after
        # a clean first block.
        values = np.ones(grid_size, dtype=complex)
        values[index] = values[grid_size - 1 - index] = complex(math.nan, 0.0)
        with pytest.raises(ValueError, match="Hermitian"):
            inverse_transform(SpectralSignal(values=values), 8)

    @pytest.mark.parametrize("grid_size, half_length, shape", [
        (2 ** 10, 2 ** 10 // 16 - 1, (64, 8)),
        (2 ** 18, 2 ** 18 // 16 - 1, (16384, 8)),
        (2 ** 20, 2 ** 20 // 16 - 1, (65536, 8)),
        (2 ** 20, 32768, (65536, 8)),
        (2 ** 14, 256, (512, 16)),
        (3 * 2 ** 12, 1, (3, 2048)),
        (2 * 4099, 511, (4099, 1)),
    ])
    def test_split_shape(self, grid_size, half_length, shape):
        # The largest power-of-two D dividing M/2 with P = M/(2D) >= S + 1.
        assert _split_shape(grid_size, half_length) == shape

    @pytest.mark.parametrize("grid_size, half_length", ODD_SPLITS)
    def test_reader_leaves_fold_unchanged(self, grid_size, half_length):
        # A sweep runs one reader on one fold per seed, so a read must not
        # disturb the fold: two reads give the same bytes, and those of
        # inverse_transform.
        sig = random_hermitian(grid_size, seed=grid_size + half_length)
        P, D = _split_shape(grid_size, half_length)
        half = grid_size // 2
        fold = _fold_rows(sig.values[:half], sig.values[half:],
                          *_fold_twiddle(grid_size, P, D))
        assert fold.shape == (D, P) and fold.flags.c_contiguous
        before = fold.tobytes()
        read = _window_reader(grid_size, half_length)
        first, second = read(fold), read(fold)
        assert fold.tobytes() == before
        assert first.samples.tobytes() == second.samples.tobytes()
        assert (first.samples.tobytes()
                == inverse_transform(sig, half_length).samples.tobytes())

    @pytest.mark.parametrize("grid_size, half_length", ODD_SPLITS)
    def test_fold_twiddle_matches_direct_trig(self, grid_size, half_length):
        # head[r] step[q] is i e^(i theta_m) at m = D q + r.
        P, D = _split_shape(grid_size, half_length)
        theta = _positive_omegas(grid_size)
        direct = -np.sin(theta) + 1j * np.cos(theta)
        head, step = _fold_twiddle(grid_size, P, D)
        assert head.shape == (D,) and step.shape == (P,)
        twiddle = np.multiply.outer(head, step)
        assert np.max(np.abs(twiddle.T.reshape(-1) - direct)) <= 1e-15

    @pytest.mark.parametrize("grid_size, half_length",
                             [*ODD_SPLITS, (2 ** 18, 4096)])
    def test_fold_rows_blocks_keep_bits(self, grid_size, half_length):
        # The fold runs in blocks of columns, with a block's twiddle formed
        # on the fly; its bytes are those of one pass on the whole twiddle.
        sig = random_hermitian(grid_size, seed=grid_size + half_length)
        P, D = _split_shape(grid_size, half_length)
        half = grid_size // 2
        neg = sig.values[:half].reshape(P, D)
        pos = sig.values[half:].reshape(P, D)
        head, step = _fold_twiddle(grid_size, P, D)
        whole = (pos - neg) * np.multiply.outer(head, step).T + (pos + neg)
        fold = _fold_rows(neg, pos, head, step)
        assert fold.tobytes() == np.ascontiguousarray(whole.T).tobytes()

    def test_overflowing_transform_rejected(self):
        # Each value is finite, but the fold's sums X(w) + X(-w) are not.
        sig = SpectralSignal(values=np.full(2 ** 12, 1.5e308, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                inverse_transform(sig, 8)

    def test_large_flat_spectrum_is_finite_delta(self):
        # Every |x(t)| <= max |X|, and each row transform sums only P
        # terms of the fold, not all M/2, so a flat 1e306 spectrum gives
        # 1e306 at t = 0 and zero elsewhere with no intermediate overflow.
        sig = SpectralSignal(values=np.full(2 ** 12, 1e306, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ts = inverse_transform(sig, 8)
        expected = np.zeros(17)
        expected[8] = 1e306
        np.testing.assert_allclose(ts.samples, expected, rtol=0.0,
                                   atol=1e306 * 1e-15)


class TestRoundTripAndParseval:
    def test_round_trip_error_decreases_and_hits_tolerance(self):
        M = 2 ** 18
        sig = make_bandlimited(PI / 2, 7, M)
        errors = []
        for S in (2048, 4096, 8192):
            ts = inverse_transform(sig, S)
            back = forward_transform(ts, M)
            errors.append(float(np.max(np.abs(back.values - sig.values))))
        assert errors[2] < errors[1] < errors[0]
        assert errors[2] <= 1e-6

    def test_forward_output_hermitian(self):
        sig = make_bandlimited(1.2, 5, 2 ** 14)
        ts = inverse_transform(sig, 128)
        back = forward_transform(ts, 2 ** 14)
        assert_hermitian(back, tol=1e-12)

    def test_parseval_partial_sums_monotone_from_below(self):
        M = 2 ** 16
        sig = make_bandlimited(PI / 2, 7, M)
        spectral = float(np.sum(np.abs(sig.values) ** 2) / M)
        ts = inverse_transform(sig, 4095)
        S = ts.half_length
        center = ts.samples[S] ** 2
        partials = [center]
        for t in (1, 2, 4, 8, 64, 512, 4095):
            block = ts.samples[S - t:S + t + 1]
            partials.append(float(np.sum(block * block)))
        assert all(b >= a - 1e-12 for a, b in zip(partials, partials[1:]))
        assert partials[-1] <= spectral + 1e-12


class TestClassNorm:
    def test_zero_signal(self):
        sig = SpectralSignal(values=np.zeros(2 ** 14, dtype=complex))
        assert class_norm(sig, W_INF) == 0.0

    def test_flat_signal_divergent(self):
        assert class_norm(flat_signal(), W_INF) == math.inf

    def test_flat_signal_divergent_finite_p(self):
        assert class_norm(flat_signal(), W_P2) == math.inf

    def test_noisy_sum_divergent(self):
        clean = make_bandlimited(PI / 2, 7, 2 ** 14)
        noisy = add_spectral_noise(clean, 0.3, 11)
        assert class_norm(noisy, W_INF) == math.inf


class TestNoise:
    def test_zero_sigma_identity(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        out = add_spectral_noise(sig, 0.0, 99)
        assert out is sig

    def test_l1_norm_exact(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 16)
        noisy = add_spectral_noise(sig, 0.3, 11)
        added = noisy.values - sig.values
        l1 = float(np.sum(np.abs(added)) * (2.0 * PI / 2 ** 16))
        assert l1 == pytest.approx(0.3, abs=1e-12)

    def test_noise_confined_to_edge_band(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        noisy = add_spectral_noise(sig, 0.5, 4)
        om = grid_omegas(2 ** 14)
        inner = np.abs(om) <= PI - 0.05
        np.testing.assert_array_equal(noisy.values[inner], sig.values[inner])

    def test_noise_hermitian(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        noisy = add_spectral_noise(sig, 0.5, 4)
        assert_hermitian(noisy)
        # The noisy sequence is therefore still real-valued.
        inverse_transform(noisy, 32)

    def test_deterministic_per_seed(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        a = add_spectral_noise(sig, 0.1, 5)
        b = add_spectral_noise(sig, 0.1, 5)
        c = add_spectral_noise(sig, 0.1, 6)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("make, arg", [(make_bandlimited, PI / 2),
                                           (make_power_decay, 1.0)])
    @pytest.mark.parametrize("grid_size", [1024, 2 ** 16])
    def test_values_equal_masked_route(self, make, arg, grid_size):
        sig = make(arg, 7, grid_size)
        noisy = add_spectral_noise(sig, 0.3, 11)
        # Equal by value: the masked route's "+ 0" turns the mirror's -0.0
        # imaginary parts into +0.0, the in-place slices leave them.
        assert np.array_equal(noisy.values, masked_noise_values(sig, 0.3, 11))

    @pytest.mark.parametrize("log2_size", range(10, 23))
    def test_band_count_matches_mask(self, log2_size):
        M = 2 ** log2_size
        mask = _positive_omegas(M) > PI - NOISE_BAND
        assert _noise_band_count(M) == int(np.count_nonzero(mask))

    def test_negative_sigma_rejected(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        with pytest.raises(ValueError):
            add_spectral_noise(sig, -0.1, 5)

    def test_overflowing_amplitude_rejected(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        with pytest.raises(ValueError, match=r"sigma=1e\+308"):
            add_spectral_noise(sig, 1e308, 5)


class TestNoisyInverseTransforms:
    @pytest.mark.parametrize("sigma", [0.0, 1e-6, 0.3])
    @pytest.mark.parametrize("make", [make_bandlimited, make_power_decay])
    @pytest.mark.parametrize("which", [1, 2, 3, "second_largest", "largest"])
    @pytest.mark.parametrize("log2_size", [10, 12, 14, 16, 18])
    def test_equals_per_seed_route_byte_for_byte(self, log2_size, which,
                                                 make, sigma):
        M = 2 ** log2_size
        # Largest S with M >= 8 (2S + 1) is M/16 - 1.
        half_length = {"largest": M // 16 - 1,
                       "second_largest": M // 16 - 2}.get(which, which)
        sig = generated(make, M)
        seeds = (4, 0, 9)
        draws = noisy_inverse_transforms(sig, half_length, sigma, seeds)
        assert len(draws) == len(seeds)
        for seed, draw in zip(seeds, draws):
            ref = inverse_transform(add_spectral_noise(sig, sigma, seed),
                                    half_length)
            assert draw.samples.tobytes() == ref.samples.tobytes()

    @pytest.mark.parametrize("sigma", [1e-6, 0.3])
    @pytest.mark.parametrize("grid_size, half_length", ODD_SPLITS)
    def test_equals_per_seed_route_on_odd_splits(self, grid_size,
                                                 half_length, sigma):
        sig = random_hermitian(grid_size, seed=grid_size + half_length)
        seeds = (4, 0, 9)
        draws = noisy_inverse_transforms(sig, half_length, sigma, seeds)
        for seed, draw in zip(seeds, draws):
            ref = inverse_transform(add_spectral_noise(sig, sigma, seed),
                                    half_length)
            assert draw.samples.tobytes() == ref.samples.tobytes()

    # Grids too small for the generators, where D = 1 and the band holds
    # one entry, so each seed's blocks are widened to two entries.
    @pytest.mark.parametrize("sigma", [1e-6, 0.3])
    @pytest.mark.parametrize("grid_size, half_length",
                             [(66, 3), (70, 1), (74, 2), (82, 2)])
    def test_equals_per_seed_route_on_one_entry_band(self, grid_size,
                                                     half_length, sigma):
        assert _noise_band_count(grid_size) == 1
        assert _split_shape(grid_size, half_length)[1] == 1
        sig = random_hermitian(grid_size, seed=grid_size + half_length)
        seeds = (0, 1, 2)
        draws = noisy_inverse_transforms(sig, half_length, sigma, seeds)
        for seed, draw in zip(seeds, draws):
            ref = inverse_transform(add_spectral_noise(sig, sigma, seed),
                                    half_length)
            assert draw.samples.tobytes() == ref.samples.tobytes()

    @pytest.mark.parametrize("grid_size", [
        *(2 ** k for k in range(10, 21)), 3 * 2 ** 12, 5 * 2 ** 10,
        2 * 4099, 2 * 1025, 66, 70])
    def test_band_blocks_cover_band_and_never_overlap(self, grid_size):
        # Each seed rewrites the first and the last `width` entries of every
        # fold row; together they must hold the band's count entries at
        # each end of the fold, and at least two, and stay apart, at every
        # valid S.
        count = max(_noise_band_count(grid_size), 2)
        for half_length in range(1, (grid_size // 8 - 1) // 2 + 1):
            P, D = _split_shape(grid_size, half_length)
            width = _band_width(grid_size, half_length)
            assert width * D >= count
            assert (width - 1) * D < count
            assert 2 * width <= P

    @pytest.mark.parametrize("M, index, nan_pair", [
        (2 ** 12, 100, False), (2 ** 12, 2, False), (2 ** 12, 2, True),
        (2 ** 16, 20000, False)],
        ids=["defect-outside-band", "defect-in-band", "nan-pair-in-band",
             "defect-outside-band-second-block"])
    def test_non_hermitian_spectrum_rejected(self, M, index, nan_pair):
        # The clean spectrum is checked once outside the noise band, the
        # noisy band pairs once per seed; a fault in either part fails.
        values = random_hermitian(M, seed=5).values.copy()
        if nan_pair:
            values[index] = values[M - 1 - index] = complex(math.nan, 0.0)
        else:
            values[index] += 1e-9
        with pytest.raises(ValueError, match="Hermitian"):
            noisy_inverse_transforms(SpectralSignal(values=values), 8, 1e-6,
                                     (0,))

    def test_overflowing_transform_rejected(self):
        # The band amplitude (about 1e308) is finite; the fold's sums of
        # the band values are not.
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="inverse transform overflows"):
                noisy_inverse_transforms(sig, 8, 1e307, (5,))

    def test_large_sigma_window_is_finite_and_linear(self):
        # At sigma = 1e306 (band amplitude about 1e307) the clean signal is
        # lost to rounding, and the window is 1e306 times the window of
        # unit noise alone.
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        zero = SpectralSignal(values=np.zeros(2 ** 14, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (big,) = noisy_inverse_transforms(sig, 8, 1e306, (5,))
        (unit,) = noisy_inverse_transforms(zero, 8, 1.0, (5,))
        scale = np.max(np.abs(big.samples))
        assert np.isfinite(scale)
        assert (np.max(np.abs(big.samples - 1e306 * unit.samples))
                <= 1e-14 * scale)
