import functools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from specfill import _philox, signals
from specfill.signals import (
    ENVELOPE_DEGREE,
    NOISE_BAND,
    SpectralSignal,
    TimeSignal,
    _envelope,
    _fold_rows,
    _fold_twiddle,
    _noise_band_count,
    _positive_omegas,
    _window_reader,
    add_spectral_noise,
    fold_spectrum,
    forward_transform,
    from_profile,
    inverse_transform,
    make_bandlimited,
    make_power_decay,
)
from specfill.recovery import convergence_sweep
from specfill.weights import PI, WeightSpec

W_INF = WeightSpec(1.0, 1.0, math.inf)


def random_spectrum(grid_size, seed):
    rng = np.random.default_rng(seed)
    half = (rng.standard_normal(grid_size // 2)
            + 1j * rng.standard_normal(grid_size // 2))
    return SpectralSignal(positive=half)


def full_grid(spec):
    """Both halves of the grid, the negative one built by Hermitian
    symmetry."""
    return np.concatenate([np.conj(spec.positive[::-1]), spec.positive])


def full_grid_inverse(spec, half_length):
    """Reference route: one M-point ifft of the whole grid, then the
    midpoint-grid phases."""
    M = spec.grid_size
    base = np.fft.ifft(full_grid(spec))
    ts = np.arange(-half_length, half_length + 1)
    parity = np.where(ts % 2 == 0, 1.0, -1.0)
    return (parity * np.exp(1j * PI * ts / M) * base[ts % M]).real


def positive_gaps(grid_size):
    """The gaps pi - omega of the positive half-grid's midpoints, as a
    profile takes them: (M/2 - m - 1/2) 2 pi / M at index m."""
    return ((grid_size // 2 - np.arange(grid_size // 2) - 0.5)
            * (2.0 * PI / grid_size))


def direct_envelope(seed, omega):
    """Reference route: the envelope at omega from a full cos/sin angle
    matrix."""
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


def whole_fold_read(fold, grid_size, half_length):
    """Reference route: one inverse FFT of every fold row, then each
    output pair's D phased row values summed in one einsum (one for the
    pairs s < 0, which read the rows' last entries, one for the rest).
    Returns the window and the largest sum of |term| over the output
    pairs, the scale of the sums' rounding."""
    D, P = fold.shape
    first = -half_length // 2
    ss = np.arange(first, half_length // 2 + 1)
    angle = np.multiply.outer(2.0 * np.arange(D) + 1, ss)
    angle *= 2.0 * PI / grid_size
    phases = (np.cos(angle) + 1j * np.sin(angle)) * (0.5 / D)
    rows = np.fft.ifft(fold, axis=1)
    below = -first
    pairs = np.concatenate([
        np.einsum("rs,rs->s", phases[:, :below], rows[:, P - below:]),
        np.einsum("rs,rs->s", phases[:, below:], rows[:, :ss.size - below])])
    start = -half_length - 2 * first
    scale = float(np.max(np.sum(np.abs(phases * rows[:, ss % P]), axis=0)))
    return pairs.view(float)[start:start + 2 * half_length + 1], scale


def traced_peak(fn):
    """fn() and the most bytes it held at once above those held before the
    call, as tracemalloc sees them; numpy reports its data buffers to it,
    so the figure is deterministic."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def masked_noise_values(spec, sigma, noise_seed):
    """Reference route: half-grid zeros, filled through the band mask."""
    M = spec.grid_size
    pos_mask = _positive_omegas(M) > PI - NOISE_BAND
    count = int(np.count_nonzero(pos_mask))
    rng = np.random.Generator(np.random.Philox(noise_seed))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * PI, count))
    amplitude = sigma / (2.0 * count * (2.0 * PI / M))
    noise = np.zeros(M // 2, dtype=complex)
    noise[pos_mask] = amplitude * phases
    return spec.positive + noise


# Grid sizes M of the fold in row layout, D = 8 rows of P = M/16: one block
# of _BLOCK entries or fewer (2^10 and 2^12), 2 blocks of 512 columns
# (2^14), 8 blocks (2^16), 32 blocks (2^18), and 128 blocks (2^20), whose
# 2^19 entries the reader takes in four blocks of 2 rows.
GRIDS = [2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16, 2 ** 18, 2 ** 20]


def largest_window(grid_size):
    """The largest W with grid_size >= 8 (2W + 1): M/16 - 1, so P = W + 1
    and the window spans a whole period of every row transform."""
    return grid_size // 16 - 1


def window(grid_size, which):
    """The smallest window ("one") or the largest."""
    return 1 if which == "one" else largest_window(grid_size)


def split(grid_size):
    """(P, D), the fold's row length and row count."""
    return grid_size // 16, signals._ROWS


class TestGrid:
    def test_symmetric_exact(self):
        # The negative half-grid that conj(positive[::-1]) stands for is
        # the exact mirror of the positive one: together they are the
        # midpoints (m - M/2 + 1/2) 2 pi / M of the whole grid.
        M = 4096
        om = _positive_omegas(M)
        whole = (np.arange(M) - M // 2 + 0.5) * (2.0 * PI / M)
        np.testing.assert_array_equal(np.concatenate([-om[::-1], om]), whole)
        # The gaps pi - omega that the generators hand their profiles are
        # the midpoints reversed, bit for bit.
        gaps = np.concatenate([g for _, g in signals._chunks(M)])
        np.testing.assert_array_equal(gaps, positive_gaps(M))
        np.testing.assert_array_equal(gaps[::-1], om)

    def test_open_interval(self):
        om = _positive_omegas(4096)
        assert om[0] > 0.0 and om[-1] < PI
        assert om.size == 2048

    def test_uniform(self):
        om = _positive_omegas(1024)
        np.testing.assert_allclose(np.diff(om), 2 * PI / 1024, rtol=1e-12)
        assert om[0] == pytest.approx(PI / 1024, rel=1e-15)


class TestGenerators:
    def test_bandlimited_support_zeros(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 16)
        om = _positive_omegas(2 ** 16)
        outside = om > PI / 2
        assert np.all(sig.positive[outside] == 0)
        # Point values beyond the declared support, at gaps below
        # pi - support, via the kept profile.
        gaps = np.array([5e-324, 1e-12, PI / 4, PI / 2 - 1e-9])
        assert np.all(sig.profile(gaps) == 0)
        assert np.all(sig.profile(np.array([2.0, PI])) != 0)

    def test_bandlimited_deterministic(self):
        a = make_bandlimited(PI / 2, 7, 2 ** 14)
        b = make_bandlimited(PI / 2, 7, 2 ** 14)
        np.testing.assert_array_equal(a.positive, b.positive)

    def test_bandlimited_distinct_seeds(self):
        a = make_bandlimited(PI / 2, 7, 2 ** 14)
        b = make_bandlimited(PI / 2, 8, 2 ** 14)
        assert not np.array_equal(a.positive, b.positive)

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
        # |X| <= (pi - omega)(pi + omega), so h |X| <= 1 for the weight of
        # the same exponent, h = 1 / ((pi - omega)(pi + omega)).
        sig = make_power_decay(1.0, 3, 2 ** 14)
        om = _positive_omegas(2 ** 14)
        cap = (PI - om) * (PI + om)
        assert np.all(np.abs(sig.positive) <= cap * (1 + 1e-12))

    # The edge orders around the weight exponents 1 and 2: a weight
    # h = (pi^2 - omega^2)^-nu_w keeps h |X| bounded at the edges exactly
    # when nu >= nu_w.
    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.99, 1.0, 2.0])
    def test_power_decay_edge_order(self, nu):
        # |X| / (g (2 pi - g))^nu is the envelope over its grid maximum,
        # whose limit at g -> 0 is finite and nonzero: |X| vanishes at the
        # edges to order nu exactly.
        M = 2 ** 14
        sig = make_power_decay(nu, 3, M)
        envelope = _envelope(3)
        norm = np.max(np.abs(envelope(positive_gaps(M))))
        gaps = np.array([1e-3, 1e-6, 1e-9, 1e-12])
        ratio = np.abs(sig.profile(gaps)) / (gaps * (2.0 * PI - gaps)) ** nu
        np.testing.assert_allclose(ratio, np.abs(envelope(gaps)) / norm,
                                   rtol=1e-12)
        limit = abs(envelope(np.array([0.0]))[0]) / norm
        assert limit > 0.1
        assert ratio[-1] == pytest.approx(limit, rel=1e-9)

    # The profile at four times the grid density gives the values of the
    # denser grid's spectrum, bit for bit: a band-limited profile does not
    # depend on the grid it was made on, so integrals may resample it.
    @pytest.mark.parametrize("grid_size", [1024, 2 ** 14])
    def test_bandlimited_profile_is_grid_free(self, grid_size):
        sig = make_bandlimited(PI / 2, 7, grid_size)
        finer = make_bandlimited(PI / 2, 7, 4 * grid_size)
        assert np.array_equal(sig.profile(positive_gaps(4 * grid_size)),
                              finer.positive)

    def test_power_decay_mass_comparison(self):
        shallow = make_power_decay(0.25, 3, 2 ** 14)
        steep = make_power_decay(2.0, 3, 2 ** 14)
        om = _positive_omegas(2 ** 14)
        edge = om > 3.0
        mass_shallow = np.abs(shallow.positive[edge]).sum()
        mass_steep = np.abs(steep.positive[edge]).sum()
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
        # Values come from the positive half in chunks; the profile here
        # runs on all of its gaps at once.
        sig = make(arg, seed, grid_size)
        assert np.array_equal(sig.profile(positive_gaps(grid_size)),
                              sig.positive)

    # Half-grids of less than one _BLOCK of samples, of one, and of four.
    @pytest.mark.parametrize("grid_size", [1024, 2 * signals._BLOCK,
                                           8 * signals._BLOCK])
    def test_from_profile_reads_each_gap_once_by_chunk(self, grid_size):
        calls = []

        def profile(gap):
            calls.append(np.array(gap))
            return gap * (1.0 - 2.0j)

        sig = from_profile(profile, grid_size)
        assert sig.profile is profile
        assert sig.grid_size == grid_size
        assert all(0 < g.size <= signals._BLOCK for g in calls)
        gaps = positive_gaps(grid_size)
        np.testing.assert_array_equal(np.concatenate(calls), gaps)
        np.testing.assert_array_equal(sig.positive, gaps * (1.0 - 2.0j))

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_envelope_recurrence_matches_angle_matrix(self, seed):
        # The positive half-grid's gaps plus gaps toward 0 (omega -> pi)
        # and at pi (omega = 0); the oracle takes omega = pi - g.
        gaps = np.concatenate([positive_gaps(2 ** 14),
                               [5e-324, 1e-300, 1e-12, PI / 2, PI]])
        diff = np.abs(_envelope(seed)(gaps) - direct_envelope(seed, PI - gaps))
        assert np.max(diff) <= 1e-14


# Seeds across one, two and three 32-bit words of entropy, and counts from
# part of one Philox block of 4 words to the 2086 blocks of a 2^20 grid's
# noise band.
PHILOX_SEEDS = [*range(40), 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64 + 7,
                10 ** 30]
PHILOX_COUNTS = [0, 1, 3, 4, 5, 9, 18, 2086, 8344]


class TestPhilox:
    @pytest.mark.parametrize("low, high", [(-1.0, 1.0), (0.0, 2.0 * PI)])
    @pytest.mark.parametrize("seed", PHILOX_SEEDS)
    def test_uniform_equals_numpy_philox(self, seed, low, high):
        for count in PHILOX_COUNTS:
            expected = np.random.Generator(np.random.Philox(seed)).uniform(
                low, high, count)
            got = _philox.uniform(seed, count, low, high)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes(), count

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_envelope_draw_is_numpy_two_draws(self, seed):
        # _envelope splits one 18-value draw 9/9; numpy's stream continues
        # across calls, so that is its two consecutive 9-value draws.
        rng = np.random.Generator(np.random.Philox(seed))
        expected = np.concatenate([rng.uniform(-1.0, 1.0, 9),
                                   rng.uniform(-1.0, 1.0, 9)])
        assert (_philox.uniform(seed, 18, -1.0, 1.0).tobytes()
                == expected.tobytes())

    def test_numpy_integer_seeds(self):
        for seed in (np.int64(7), np.uint64(2 ** 64 - 1), np.int32(0)):
            assert (_philox.uniform(seed, 9, 0.0, 2.0 * PI).tobytes()
                    == _philox.uniform(int(seed), 9, 0.0, 2.0 * PI).tobytes())

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), -(2 ** 64)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            _philox.uniform(seed, 4, -1.0, 1.0)


class TestSignalTypes:
    def test_spectral_signal_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            SpectralSignal(positive=np.zeros((2, 512)))

    @pytest.mark.parametrize("half", [0, 256, 511, 768])
    def test_spectral_signal_rejects_bad_grid_size(self, half):
        # Grids 0, 512, 1022 and 1536: below 1024 or not a power of two.
        with pytest.raises(ValueError, match="power of two >= 1024"):
            SpectralSignal(positive=np.zeros(half, dtype=complex))

    @pytest.mark.parametrize("grid_size", [1000, 1536])
    @pytest.mark.parametrize("build", [
        lambda M: make_bandlimited(PI / 2, 7, M),
        lambda M: make_power_decay(1.0, 7, M),
        lambda M: from_profile(lambda om: np.ones_like(om, dtype=complex), M),
        lambda M: forward_transform(TimeSignal(samples=np.ones(3)), M)],
        ids=["bandlimited", "power_decay", "from_profile", "forward"])
    def test_builders_reject_bad_grid_size(self, build, grid_size):
        with pytest.raises(ValueError, match="power of two"):
            build(grid_size)

    @pytest.mark.parametrize("samples", [np.zeros(8), np.zeros((3, 3))],
                             ids=["even-length", "two-dimensional"])
    def test_time_signal_rejects_bad_samples(self, samples):
        with pytest.raises(ValueError, match="odd length"):
            TimeSignal(samples=samples)


class TestInverseTransform:
    def test_zero_spectrum(self):
        sig = SpectralSignal(positive=np.zeros(2 ** 11, dtype=complex))
        ts = inverse_transform(sig, 8)
        assert np.all(ts.samples == 0.0)
        assert ts.truth_center == 0.0

    def test_unit_spectrum_is_delta(self):
        sig = SpectralSignal(positive=np.ones(2 ** 11, dtype=complex))
        ts = inverse_transform(sig, 16)
        assert ts.samples[16] == pytest.approx(1.0, abs=1e-14)
        off = np.delete(ts.samples, 16)
        assert np.max(np.abs(off)) < 1e-12

    def test_ideal_band_indicator_is_sinc(self):
        M = 2 ** 15
        om = _positive_omegas(M)
        sig = SpectralSignal(positive=(om <= PI / 2).astype(complex))
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

    @pytest.mark.parametrize("grid_size", [1024, 2 ** 12, 2 ** 14, 2 ** 16,
                                           2 ** 18])
    @pytest.mark.parametrize("which", [1, 2, 3, "largest_odd",
                                       "largest_even"])
    def test_matches_full_grid_route(self, grid_size, which):
        # Largest S with grid_size >= 8 (2S + 1) is grid_size/16 - 1 (odd).
        largest = grid_size // 16 - 1
        half_length = {"largest_odd": largest,
                       "largest_even": largest - 1}.get(which, which)
        sig = random_spectrum(grid_size, seed=grid_size + half_length)
        ts = inverse_transform(sig, half_length)
        ref = full_grid_inverse(sig, half_length)
        assert ts.samples.shape == ref.shape
        assert np.max(np.abs(ts.samples - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert ts.truth_center == ts.samples[half_length]

    # The fold runs _BLOCK entries at a time; at 2^16 the bin 20000 lies
    # in the fifth block and its mirror in the fourth.
    @pytest.mark.parametrize("grid_size, index", [
        (2 ** 12, 100), (2 ** 12, 2 ** 11 - 1), (2 ** 16, 20000)])
    def test_nan_bin_rejected(self, grid_size, index):
        # A NaN bin reaches every row of the fold, and so every sample of
        # the window, through the bin and its mirror; it must fail as a
        # non-finite window, also after a clean first block, with no numpy
        # warning on the way.
        positive = np.ones(grid_size // 2, dtype=complex)
        positive[index] = complex(math.nan, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite samples"):
                inverse_transform(SpectralSignal(positive=positive), 8)

    @pytest.mark.parametrize("which", ["one", "largest"])
    @pytest.mark.parametrize("grid_size", GRIDS)
    def test_reader_leaves_fold_unchanged(self, grid_size, which):
        # A sweep runs one reader on one fold per seed, so a read must not
        # disturb the fold: two reads give the same bytes, and those of
        # inverse_transform.
        half_length = window(grid_size, which)
        sig = random_spectrum(grid_size, seed=grid_size + half_length)
        P, D = split(grid_size)
        fold = _fold_rows(sig.positive, sig.positive,
                          *_fold_twiddle(grid_size))
        assert fold.shape == (D, P) and fold.flags.c_contiguous
        before = fold.tobytes()
        read = _window_reader(grid_size, half_length)
        first, second = read(fold), read(fold)
        assert fold.tobytes() == before
        assert first.samples.tobytes() == second.samples.tobytes()
        assert (first.samples.tobytes()
                == inverse_transform(sig, half_length).samples.tobytes())

    # The default _ROW_BLOCK reads every GRIDS fold but the 2^20 one in one
    # block; 2 forces four 2-row blocks, and 2^10 blocks of 8 rows (2^10),
    # 4 rows (2^12) or 2 rows.
    @pytest.mark.parametrize("row_block", [2, 2 ** 10, signals._ROW_BLOCK],
                             ids=["two", "1024", "default"])
    @pytest.mark.parametrize("which", ["one", "largest"])
    @pytest.mark.parametrize("grid_size", GRIDS)
    def test_blocked_reader_matches_whole_fold_route(
            self, monkeypatch, grid_size, which, row_block):
        monkeypatch.setattr(signals, "_ROW_BLOCK", row_block)
        half_length = window(grid_size, which)
        sig = random_spectrum(grid_size, seed=grid_size + half_length)
        fold = _fold_rows(sig.positive, sig.positive,
                          *_fold_twiddle(grid_size))
        read = _window_reader(grid_size, half_length)
        samples = read(fold).samples
        ref, scale = whole_fold_read(fold, grid_size, half_length)
        if row_block >= fold.size:
            assert samples.tobytes() == ref.tobytes()
        else:
            # Blocks only regroup each output's sum of D terms, so the gap
            # is rounding relative to the terms' magnitudes.
            assert np.max(np.abs(samples - ref)) <= 1e-15 * scale

    @pytest.mark.parametrize("grid_size", GRIDS)
    def test_fold_twiddle_matches_direct_trig(self, grid_size):
        # head[r] step[q] is i e^(i theta_m) at m = D q + r.
        P, D = split(grid_size)
        theta = _positive_omegas(grid_size)
        direct = -np.sin(theta) + 1j * np.cos(theta)
        head, step = _fold_twiddle(grid_size)
        assert head.shape == (D,) and step.shape == (P,)
        twiddle = np.multiply.outer(head, step)
        assert np.max(np.abs(twiddle.T.reshape(-1) - direct)) <= 1e-15

    @pytest.mark.parametrize("grid_size", GRIDS)
    def test_fold_rows_blocks_keep_bits(self, grid_size):
        # The fold runs in blocks of columns, with a block's twiddle and
        # negative half-grid formed on the fly; its bytes are those of one
        # pass on the whole twiddle and the whole negative half-grid.
        sig = random_spectrum(grid_size, seed=grid_size)
        P, D = split(grid_size)
        neg = np.conj(sig.positive[::-1]).reshape(P, D)
        pos = sig.positive.reshape(P, D)
        head, step = _fold_twiddle(grid_size)
        whole = (pos - neg) * np.multiply.outer(head, step).T + (pos + neg)
        fold = _fold_rows(sig.positive, sig.positive, head, step)
        assert fold.tobytes() == np.ascontiguousarray(whole.T).tobytes()

    # At 1.5e308 each value is finite, but the fold's sums X(w) + X(-w)
    # are not; at 4e305 the fold is finite, but its row sums are not (see
    # the next test).
    @pytest.mark.parametrize("value", [1.5e308, 4e305])
    def test_overflowing_transform_rejected(self, value):
        sig = SpectralSignal(positive=np.full(2 ** 11, value, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                inverse_transform(sig, 8)

    def test_large_flat_spectrum_is_finite_delta(self):
        # Every |x(t)| <= max |X|, but each row transform sums its M/16
        # fold values 2X before scaling, so a flat spectrum transforms
        # only while 2 X M/16 < 1.8e308: at M = 2^12 that is X < 3.5e305.
        # A flat 3e305 spectrum gives 3e305 at t = 0 and zero elsewhere
        # with no intermediate overflow; 4e305 overflows (test above).
        sig = SpectralSignal(positive=np.full(2 ** 11, 3e305, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ts = inverse_transform(sig, 8)
        expected = np.zeros(17)
        expected[8] = 3e305
        np.testing.assert_allclose(ts.samples, expected, rtol=0.0,
                                   atol=3e305 * 1e-15)


class TestRoundTripAndParseval:
    def test_round_trip_error_decreases_and_hits_tolerance(self):
        M = 2 ** 18
        sig = make_bandlimited(PI / 2, 7, M)
        errors = []
        for S in (2048, 4096, 8192):
            ts = inverse_transform(sig, S)
            back = forward_transform(ts, M)
            errors.append(float(np.max(np.abs(back.positive
                                              - sig.positive))))
        assert errors[2] < errors[1] < errors[0]
        assert errors[2] <= 1e-6

    @pytest.mark.parametrize("half_length", [1, 7, 128])
    def test_forward_output_matches_direct_sum(self, half_length):
        # The positive half is the finite sum at each positive grid point;
        # conj(positive[::-1]) is the sum at each negative one, as x is
        # real.
        M = 2 ** 12
        rng = np.random.default_rng(half_length)
        ts = TimeSignal(samples=rng.standard_normal(2 * half_length + 1))
        back = forward_transform(ts, M)
        om = _positive_omegas(M)
        t = np.arange(-half_length, half_length + 1)
        direct = np.exp(-1j * np.multiply.outer(om, t)) @ ts.samples
        mirror = np.exp(1j * np.multiply.outer(om[::-1], t)) @ ts.samples
        scale = np.sum(np.abs(ts.samples))
        assert np.max(np.abs(back.positive - direct)) <= 1e-12 * scale
        assert (np.max(np.abs(np.conj(back.positive[::-1]) - mirror))
                <= 1e-12 * scale)

    def test_parseval_partial_sums_monotone_from_below(self):
        M = 2 ** 16
        sig = make_bandlimited(PI / 2, 7, M)
        # Both halves: |X| is even.
        spectral = float(2.0 * np.sum(np.abs(sig.positive) ** 2) / M)
        ts = inverse_transform(sig, 4095)
        S = ts.half_length
        center = ts.samples[S] ** 2
        partials = [center]
        for t in (1, 2, 4, 8, 64, 512, 4095):
            block = ts.samples[S - t:S + t + 1]
            partials.append(float(np.sum(block * block)))
        assert all(b >= a - 1e-12 for a, b in zip(partials, partials[1:]))
        assert partials[-1] <= spectral + 1e-12


class TestNoise:
    def test_zero_sigma_identity(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        out = add_spectral_noise(sig, 0.0, 99)
        assert out is sig

    def test_l1_norm_exact(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 16)
        noisy = add_spectral_noise(sig, 0.3, 11)
        added = noisy.positive - sig.positive
        # The negative half carries the mirror of the same magnitudes.
        l1 = float(2.0 * np.sum(np.abs(added)) * (2.0 * PI / 2 ** 16))
        assert l1 == pytest.approx(0.3, abs=1e-12)

    def test_noise_confined_to_edge_band(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        noisy = add_spectral_noise(sig, 0.5, 4)
        om = _positive_omegas(2 ** 14)
        inner = om <= PI - 0.05
        np.testing.assert_array_equal(noisy.positive[inner],
                                      sig.positive[inner])

    @pytest.mark.parametrize("sigma", [1e-6, 0.3])
    def test_noisy_matches_full_grid_route(self, sigma):
        # The noise's mirror is carried by conj(positive[::-1]): one M-point
        # ifft of both halves of the noisy grid, phased to the midpoint
        # grid, gives a real sequence, and the fold reproduces it.
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        noisy = add_spectral_noise(sig, sigma, 4)
        M, S = noisy.grid_size, 32
        ts = np.arange(-S, S + 1)
        parity = np.where(ts % 2 == 0, 1.0, -1.0)
        phased = (parity * np.exp(1j * PI * ts / M)
                  * np.fft.ifft(full_grid(noisy))[ts % M])
        scale = np.max(np.abs(phased))
        assert np.max(np.abs(phased.imag)) <= 1e-14 * scale
        samples = inverse_transform(noisy, S).samples
        assert np.max(np.abs(samples - phased.real)) <= 1e-14 * scale

    def test_deterministic_per_seed(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        a = add_spectral_noise(sig, 0.1, 5)
        b = add_spectral_noise(sig, 0.1, 5)
        c = add_spectral_noise(sig, 0.1, 6)
        np.testing.assert_array_equal(a.positive, b.positive)
        assert not np.array_equal(a.positive, c.positive)

    @pytest.mark.parametrize("make, arg", [(make_bandlimited, PI / 2),
                                           (make_power_decay, 1.0)])
    @pytest.mark.parametrize("grid_size", [1024, 2 ** 16])
    def test_values_equal_masked_route(self, make, arg, grid_size):
        sig = make(arg, 7, grid_size)
        noisy = add_spectral_noise(sig, 0.3, 11)
        assert (noisy.positive.tobytes()
                == masked_noise_values(sig, 0.3, 11).tobytes())

    # Every grid the CLI accepts, 2^10 to 2^24, with its band count: the
    # count decides every noise draw, so it is pinned, and taken in omega.
    @pytest.mark.parametrize("log2_size", range(10, 25))
    def test_band_count_matches_mask(self, log2_size):
        counts = [8, 16, 33, 65, 130, 261, 522, 1043, 2086, 4172, 8344,
                  16689, 33377, 66754, 133509]
        M = 2 ** log2_size
        omegas = (np.arange(M // 2) + 0.5) * (2.0 * PI / M)
        mask = omegas > PI - NOISE_BAND
        assert (_noise_band_count(M) == int(np.count_nonzero(mask))
                == counts[log2_size - 10])

    def test_negative_sigma_rejected(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        with pytest.raises(ValueError):
            add_spectral_noise(sig, -0.1, 5)

    def test_overflowing_amplitude_rejected(self):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        with pytest.raises(ValueError, match=r"sigma=1e\+308"):
            add_spectral_noise(sig, 1e308, 5)

    def test_nan_sigma_rejected_as_nan(self):
        # NaN passes the sign check; it is named as NaN, not as an
        # overflowing amplitude, on both noise routes.
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        with pytest.raises(ValueError, match="sigma must be a number, got "
                                             "nan") as info:
            add_spectral_noise(sig, math.nan, 5)
        assert "overflows" not in str(info.value)
        with pytest.raises(ValueError, match="sigma must be a number"):
            fold_spectrum(sig, 8)(math.nan, (5,))


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
        draws = fold_spectrum(sig, half_length)(sigma, seeds)
        assert len(draws) == len(seeds)
        for seed, draw in zip(seeds, draws):
            ref = inverse_transform(add_spectral_noise(sig, sigma, seed),
                                    half_length)
            assert draw.samples.tobytes() == ref.samples.tobytes()

    @pytest.mark.parametrize("sigma", [1e-6, 0.3])
    @pytest.mark.parametrize("grid_size", GRIDS)
    def test_equals_per_seed_route_on_grids(self, grid_size, sigma):
        half_length = largest_window(grid_size)
        sig = random_spectrum(grid_size, seed=grid_size + half_length)
        seeds = (4, 0, 9)
        draws = fold_spectrum(sig, half_length)(sigma, seeds)
        for seed, draw in zip(seeds, draws):
            ref = inverse_transform(add_spectral_noise(sig, sigma, seed),
                                    half_length)
            assert draw.samples.tobytes() == ref.samples.tobytes()

    # The narrowest band blocks: at 2^10 the band's 8 entries are one at
    # each end of each of the D = 8 rows; at 2^11 its 16 are two; at 2^12
    # its 33 reach a fifth entry at each end of only one row.
    @pytest.mark.parametrize("sigma", [1e-6, 0.3])
    @pytest.mark.parametrize("which", ["one", "largest"])
    @pytest.mark.parametrize("grid_size, count", [
        (2 ** 10, 8), (2 ** 11, 16), (2 ** 12, 33)])
    def test_equals_per_seed_route_on_narrowest_blocks(self, grid_size,
                                                       count, which, sigma):
        assert _noise_band_count(grid_size) == count
        half_length = window(grid_size, which)
        sig = random_spectrum(grid_size, seed=grid_size + half_length)
        seeds = (0, 1, 2)
        draws = fold_spectrum(sig, half_length)(sigma, seeds)
        for seed, draw in zip(seeds, draws):
            ref = inverse_transform(add_spectral_noise(sig, sigma, seed),
                                    half_length)
            assert draw.samples.tobytes() == ref.samples.tobytes()

    @pytest.mark.parametrize("grid_size", [2 ** k for k in range(10, 25)])
    def test_band_blocks_cover_band_and_never_overlap(self, grid_size):
        # Each seed rewrites the first and the last width = ceil(count / D)
        # entries of every fold row; together they must hold the band's
        # count entries at each end of the fold, and stay apart, on every
        # grid the CLI accepts.
        count = _noise_band_count(grid_size)
        P, D = split(grid_size)
        width = -(-count // D)
        assert width * D >= count
        assert (width - 1) * D < count
        assert 2 * width <= P

    # The fold runs _BLOCK entries at a time; at 2^16 the bin 20000 lies in
    # the fifth block, and the top bins lie in the noise band.
    @pytest.mark.parametrize("M, index", [
        (2 ** 12, 100), (2 ** 12, 2 ** 11 - 3), (2 ** 16, 20000)],
        ids=["outside-band", "in-band", "outside-band-later-block"])
    def test_nan_bin_rejected(self, M, index):
        # The clean fold is built once and the band blocks are refolded per
        # seed; a NaN bin in either part leaves a non-finite window, which
        # fails as in inverse_transform, with no numpy warning on the way.
        positive = random_spectrum(M, seed=5).positive.copy()
        positive[index] = complex(math.nan, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite samples"):
                fold_spectrum(SpectralSignal(positive=positive), 8)(
                    1e-6, (0,))

    # At sigma = 1e307 the band amplitude (about 1e308) is finite, but the
    # fold's sums of the band values are not; at 1e306 the fold is finite,
    # but its row sums are not (see the next test).
    @pytest.mark.parametrize("sigma", [1e306, 1e307])
    def test_overflowing_transform_rejected(self, sigma):
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="inverse transform overflows"):
                fold_spectrum(sig, 8)(sigma, (5,))

    def test_large_sigma_window_is_finite_and_linear(self):
        # Each row transform of the 2^14 grid sums about 34 band values of
        # the fold, each up to twice the band amplitude, about 10 sigma,
        # before scaling; at seed 5 the sums stay finite up to sigma of
        # about 8.8e305 (1e306 overflows, test above).  At sigma = 8e305
        # the clean signal is lost to rounding, and the window is 8e305
        # times the window of unit noise alone.
        sig = make_bandlimited(PI / 2, 7, 2 ** 14)
        zero = SpectralSignal(positive=np.zeros(2 ** 13, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (big,) = fold_spectrum(sig, 8)(8e305, (5,))
        (unit,) = fold_spectrum(zero, 8)(1.0, (5,))
        scale = np.max(np.abs(big.samples))
        assert np.isfinite(scale)
        assert (np.max(np.abs(big.samples - 8e305 * unit.samples))
                <= 1e-14 * scale)


    @pytest.mark.parametrize("sigma", [0.0, 1e-6])
    def test_fold_phase_keeps_no_view_of_half_grid(self, sigma):
        # The read phase holds the fold and copies of the band's clean
        # entries only, so dropping the spectrum frees its half-grid.
        M, half_length, seeds = 2 ** 14, 64, (4, 0)
        sig = make_power_decay(1.0, 3, M)
        half_grid = weakref.ref(sig.positive)
        draws = fold_spectrum(sig, half_length)
        del sig
        assert half_grid() is None
        expected = fold_spectrum(make_power_decay(1.0, 3, M),
                                 half_length)(sigma, seeds)
        for draw, ref in zip(draws(sigma, seeds), expected, strict=True):
            assert draw.samples.tobytes() == ref.samples.tobytes()

    @pytest.mark.parametrize("grid_size", [2 ** 10, 2 ** 14])
    def test_read_phase_runs_again(self, grid_size):
        # Each noisy read refolds the band blocks in place; the clean ones
        # are restored after the seeds, so a later read of any sigma, and
        # one after a seed that fails, keeps the one-route bits.
        half_length = largest_window(grid_size)
        sig = random_spectrum(grid_size, seed=grid_size)
        draws = fold_spectrum(sig, half_length)

        def same(got, sigma, seeds):
            ref = fold_spectrum(sig, half_length)(sigma, seeds)
            assert ([d.samples.tobytes() for d in got]
                    == [r.samples.tobytes() for r in ref])

        same(draws(0.3, (4, 0)), 0.3, (4, 0))
        same(draws(0.0, (1,)), 0.0, (1,))
        # Seed 2 refolds its noise; seed -1 then fails.
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            draws(0.3, (2, -1))
        same(draws(0.0, (1,)), 0.0, (1,))
        same(draws(1e-6, (2, 9)), 1e-6, (2, 9))


class TestTapWindow:
    """A transform formed on the window [-T, T] is the [-T, T] slice of the
    transform on any longer window [-S, S], bit for bit: the split, and so
    every row transform, phase and per-pair sum, depends on the grid
    alone."""

    # 2 forces 2-row blocks, so every fold is read in four blocks; the
    # default reads each GRIDS fold but the 2^20 one in one.
    @pytest.mark.parametrize("row_block", [2, signals._ROW_BLOCK],
                             ids=["two", "default"])
    @pytest.mark.parametrize("sigma", [0.0, 1e-6])
    @pytest.mark.parametrize("grid_size", GRIDS)
    @pytest.mark.parametrize("make", [make_bandlimited, make_power_decay])
    def test_tap_window_is_slice_of_longer_window(
            self, monkeypatch, make, grid_size, sigma, row_block):
        monkeypatch.setattr(signals, "_ROW_BLOCK", row_block)
        S = largest_window(grid_size)
        sig = generated(make, grid_size)
        noisy = add_spectral_noise(sig, sigma, 4)
        seeds = (4, 0)
        whole = inverse_transform(noisy, S).samples
        whole_draws = fold_spectrum(sig, S)(sigma, seeds)
        for T in (1, 2, S // 2, S):
            inner = slice(S - T, S + T + 1)
            part = inverse_transform(noisy, T)
            assert part.half_length == T
            assert part.samples.tobytes() == whole[inner].tobytes()
            draws = fold_spectrum(sig, T)(sigma, seeds)
            for draw, ref in zip(draws, whole_draws, strict=True):
                assert (draw.samples.tobytes()
                        == ref.samples[inner].tobytes())


class TestTracedMemory:
    """Peaks of numpy allocations at grid_noise's scale (grid 2^20):
    no whole-grid temporary beyond the arrays named."""

    M = 2 ** 20
    MiB = 2 ** 20

    @pytest.mark.parametrize("build", [
        lambda M: make_power_decay(1.0, 3, M),
        lambda M: make_bandlimited(2.5, 3, M)],
        ids=["power_decay", "bandlimited"])
    def test_generators_peak_at_the_positive_half(self, build):
        sig, peak = traced_peak(lambda: build(self.M))
        assert sig.positive.nbytes == 8 * self.MiB
        assert peak <= sig.positive.nbytes + self.MiB

    def test_noisy_tap_window_sweep_peaks_at_fold_and_one_row_block(self):
        # grid_noise's sweep: each draw is formed only on the tap window
        # T = 64, so the reader's phases and outputs are O(D T).
        T, seeds = 64, (0, 1)
        sig = make_power_decay(1.0, 3, self.M)
        draws, peak = traced_peak(
            lambda: fold_spectrum(sig, T)(1e-6, seeds))
        P, D = split(self.M)
        item = np.dtype(complex).itemsize
        fold = D * P * item
        row_block = min(D, max(2, signals._ROW_BLOCK // P)) * P * item
        # The returned windows are the sweep's output, not working memory:
        # each is a view of its T + 1 output pairs.
        phases_and_outputs = (D + len(seeds)) * (T + 1) * item
        assert [draw.half_length for draw in draws] == [T] * len(seeds)
        assert peak <= fold + row_block + phases_and_outputs + self.MiB

    @pytest.mark.parametrize("noise", [
        {"base_seed": 3}, {"noise_sigma": 1e-6, "noise_seeds": (0, 1)}],
        ids=["clean", "noisy"])
    def test_sweep_frees_half_grid_before_row_transforms(self, monkeypatch,
                                                         noise):
        # grid_noise's sweep: the spectrum is folded and dropped before the
        # first row transform, which then runs beside the fold and one row
        # block alone; the sweep peaks while the fold is built beside the
        # half-grid.
        T = 64
        held = {}
        ifft = np.fft.ifft

        def build():
            held["before"] = tracemalloc.get_traced_memory()[0]
            return make_power_decay(1.0, 3, self.M)

        def spy(*args, **kwargs):
            held.setdefault("first", tracemalloc.get_traced_memory()[0])
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spy)
        reports, peak = traced_peak(lambda: convergence_sweep(
            W_INF, build, [2], T, T, **noise))
        P, D = split(self.M)
        item = np.dtype(complex).itemsize
        half_grid = fold = D * P * item
        row_block = min(D, max(2, signals._ROW_BLOCK // P)) * P * item
        seeds = noise.get("noise_seeds", (3,))
        assert [(r.n, r.seed) for r in reports] == [(2, s) for s in seeds]
        assert held["first"] - held["before"] <= fold + row_block + self.MiB
        assert peak <= 2 * half_grid + 2 * self.MiB
