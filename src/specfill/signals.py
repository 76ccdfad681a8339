"""Test-sequence generators, grid transforms, and spectral noise.

Every spectrum here is that of a real sequence, so it is Hermitian:
X(-omega) = conj X(omega).  It is stored as its samples on the positive
half of a midpoint grid of M uniform samples on (-pi, pi) (no sample at the
band edges, none at zero), with M a power of two >= 1024.  The negative
half is conj of the positive half reversed; it is never stored, so the
symmetry holds by construction.  Sequences live on finite windows [-W, W];
window-growth assertions in the tests stand in for the infinite objects.
A recovery sweep forms only the 2T + 1 samples its taps read, |t| <= T.

Generators are deterministic functions of (parameters, seed).  Their draws
come from specfill's own Philox4x64-10 (``_philox``), equal byte for byte
to numpy's ``Generator(Philox(seed)).uniform``: owning the stream keeps
``numpy.random`` out of every process and pins the bytes against changes
to numpy's ``Generator`` methods.  Every spectrum built from a profile is
evaluated once, ``_BLOCK`` samples at a time, straight into the positive
half-grid by one sampler (:func:`from_profile`; ``make_power_decay`` runs
the same chunks to scale its envelope in place), forming each chunk's
frequencies per chunk, so no temporary spans the half-grid.  Each
generated spectrum carries its exact analytic profile as a callable, which
downstream error integrals use to resolve sub-grid bands near the edges.

The inverse transform folds the positive half and its conjugate mirror into
one half-length array whose inverse DFT yields the real sequence two
samples per output value.  The fold is held in row layout, a C-contiguous
(8, M/16) array whose row r is fold[r::8]; only the outputs the window
reads are formed: blocks of at least two rows are inverse-transformed
along their contiguous points into one reused block array, and each output
accumulates its 8 phased row values block by block.  The split depends on
the grid alone, so a window is the slice of any longer one, bit for bit.
The fold runs in the same blocks of ``_BLOCK`` grid entries, so no
temporary grows with the grid; the fold is the only half-grid array.
Spectral noise is flat-magnitude and random-phase on the edge band
omega > pi - NOISE_BAND, the top of the positive half-grid, so its mirror
covers the other edge.  Every draw takes one route,
:func:`noisy_inverse_transforms`, of which :func:`inverse_transform` is the
one-draw, noise-free case: it folds the clean spectrum once; each noise
seed then adds its noise to a copy of the band's top entries and refolds
from them, in place, only the block of entries at each end of every row
that the band reaches, and reads the window from the fold block by block,
with no noisy grid built.

Both generated families are uniformly well behaved: envelopes are bounded
trigonometric polynomials, so any finite family drawn from them has
uniformly vanishing weighted mass near the band edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import _philox
from .weights import PI, WeightSpec, _classify_tail, eval_weight

#: Degree of the seeded trigonometric envelope polynomials.
ENVELOPE_DEGREE = 8

#: Spectral noise is confined to the band |omega| > pi - NOISE_BAND.
NOISE_BAND = 0.05

#: Grid entries per block of a profile evaluation and of the fold, whose
#: temporaries then hold one block rather than a half-grid and stay
#: cache-sized.  On a 2-core Xeon VM one 2^20-point make_power_decay took
#: 0.082-0.092 s CPU in chunks of 4096 samples and 0.095-0.109 s in one
#: piece, at the same peak RSS.
_BLOCK = 4096


def _check_grid_size(grid_size: int) -> None:
    if grid_size < 1024 or grid_size & (grid_size - 1):
        raise ValueError(
            f"grid_size must be a power of two >= 1024, got {grid_size}")


@dataclass(frozen=True, eq=False)
class SpectralSignal:
    """Samples of a Hermitian spectrum X on the positive half of the
    midpoint frequency grid.

    ``positive`` is one-dimensional and holds X at the M/2 grid points in
    (0, pi), ascending (see :func:`_positive_omegas`); the grid size M is
    twice its length and must be a power of two >= 1024.  X at the
    negative grid points is ``conj(positive[::-1])``.  ``profile`` is the
    exact generator closure (omega array -> complex values), which the
    spectral error bound integrates; None for spectra with no closed form
    (for example after noise injection).
    """

    positive: np.ndarray
    profile: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False)

    def __post_init__(self):
        positive = np.asarray(self.positive, dtype=complex)
        positive.setflags(write=False)
        object.__setattr__(self, "positive", positive)
        if positive.ndim != 1:
            raise ValueError(f"positive must be one-dimensional, got shape "
                             f"{positive.shape}")
        _check_grid_size(self.grid_size)

    @property
    def grid_size(self) -> int:
        """M, the number of grid samples on (-pi, pi)."""
        return 2 * self.positive.size


@dataclass(frozen=True, eq=False)
class TimeSignal:
    """Real samples x(t) on t in [-W, W] with the center value retained.

    ``samples`` is one-dimensional with an odd length 2W + 1.  A recovery
    sweep's draws hold only the tap window [-T, T], so their half-length
    is T: the 2T + 1 samples the taps read.
    """

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size % 2 != 1:
            raise ValueError(f"samples must be one-dimensional with an odd "
                             f"length, got shape {samples.shape}")

    @property
    def half_length(self) -> int:
        """W, the largest |t| with a stored sample."""
        return self.samples.size // 2

    @property
    def truth_center(self) -> float:
        """x(0), the value a recovering kernel estimates."""
        return float(self.samples[self.half_length])


def _positive_omegas(grid_size: int) -> np.ndarray:
    """The M/2 midpoints (m + 1/2) 2 pi / M of the grid in (0, pi),
    ascending; a grid size that is not a power of two >= 1024 is a
    ValueError."""
    _check_grid_size(grid_size)
    return (np.arange(grid_size // 2) + 0.5) * (2.0 * PI / grid_size)


def _chunks(grid_size: int) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, omegas) over the positive half-grid, ``_BLOCK`` samples at a
    time: ``rows`` a slice of it and ``omegas`` its midpoints, with the
    bits of :func:`_positive_omegas`, formed one chunk at a time."""
    h = 2.0 * PI / grid_size
    half = grid_size // 2
    for start in range(0, half, _BLOCK):
        stop = min(start + _BLOCK, half)
        yield slice(start, stop), (np.arange(start, stop) + 0.5) * h


def _envelope(seed: int) -> Callable[[np.ndarray], np.ndarray]:
    """Seeded Hermitian trig-polynomial envelope (even real + odd imaginary).

    cos/sin of negated arguments are bit-exact mirrors, and the recurrences
    below negate every sine term exactly, so the closure is exactly
    Hermitian.
    """
    draw = _philox.uniform(seed, 2 * (ENVELOPE_DEGREE + 1), -1.0, 1.0)
    scale = 1.0 / (1.0 + np.arange(ENVELOPE_DEGREE + 1)) ** 2
    re_coef = draw[:ENVELOPE_DEGREE + 1] * scale
    im_coef = draw[ENVELOPE_DEGREE + 1:] * scale
    im_coef[0] = 0.0

    def profile(omega: np.ndarray) -> np.ndarray:
        om = np.asarray(omega, dtype=float)
        # Chebyshev recurrences f_(k+1) = 2 cos(omega) f_k - f_(k-1) give
        # cos(k omega) and sin(k omega) from one cos and one sin per sample.
        cos_prev, cos_k = 1.0, np.cos(om)
        sin_prev, sin_k = 0.0, np.sin(om)
        twice_cos = 2.0 * cos_k
        re = re_coef[0] + re_coef[1] * cos_k
        im = im_coef[1] * sin_k
        for k in range(2, ENVELOPE_DEGREE + 1):
            cos_prev, cos_k = cos_k, twice_cos * cos_k - cos_prev
            sin_prev, sin_k = sin_k, twice_cos * sin_k - sin_prev
            re += re_coef[k] * cos_k
            im += im_coef[k] * sin_k
        return re + 1j * im

    return profile


def make_bandlimited(support: float, shape_seed: int,
                     grid_size: int) -> SpectralSignal:
    """Band-limited spectrum: seeded smooth envelope times a raised cosine.

    The raised-cosine factor vanishes at +-support and the values are
    exactly zero beyond; bit-identical for identical (parameters, seed).
    """
    if not 0.0 < support < PI:
        raise ValueError(f"support must lie in (0, pi), got {support}")
    envelope = _envelope(shape_seed)
    support = float(support)

    def profile(omega: np.ndarray) -> np.ndarray:
        om = np.asarray(omega, dtype=float)
        inside = np.abs(om) < support
        rolloff = np.where(inside,
                           0.5 * (1.0 + np.cos(PI * om / support)),
                           0.0)
        return np.where(inside, envelope(om) * rolloff, 0.0 + 0.0j)

    return from_profile(profile, grid_size)


def make_power_decay(nu: float, shape_seed: int,
                     grid_size: int) -> SpectralSignal:
    """Spectrum decaying like (pi^2 - omega^2)^nu toward the band edges.

    X = (pi^2 - omega^2)^nu * g with g a seeded Hermitian envelope
    normalized to |g| <= 1 on the grid.  Class membership is a numerical
    question for :func:`class_norm`, not an assumption.
    """
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    _check_grid_size(grid_size)
    envelope = _envelope(shape_seed)
    # The envelope fills the output, and then the decay scales it in place,
    # chunk by chunk, so no temporary spans the half-grid.  |g| is even, so
    # the positive half-grid holds its maximum on the grid.
    positive = np.empty(grid_size // 2, dtype=complex)
    norm = 0.0
    for rows, omegas in _chunks(grid_size):
        env = positive[rows]
        env[...] = envelope(omegas)
        norm = max(norm, float(np.max(np.abs(env))))

    def decay(om: np.ndarray, env: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        gap = ((PI - om) * (PI + om)) ** nu
        return np.divide(np.multiply(gap, env, out=out), norm, out=out)

    def profile(omega: np.ndarray) -> np.ndarray:
        om = np.asarray(omega, dtype=float)
        return decay(om, envelope(om))

    for rows, omegas in _chunks(grid_size):
        decay(omegas, positive[rows], out=positive[rows])
    return SpectralSignal(positive=positive, profile=profile)


def from_profile(profile: Callable[[np.ndarray], np.ndarray],
                 grid_size: int) -> SpectralSignal:
    """Sample a Hermitian closure onto the positive half-grid, chunk by
    chunk (:func:`_chunks`), keeping it as the ``profile`` that the
    spectral error bound integrates."""
    _check_grid_size(grid_size)
    positive = np.empty(grid_size // 2, dtype=complex)
    for rows, omegas in _chunks(grid_size):
        positive[rows] = profile(omegas)
    return SpectralSignal(positive=positive, profile=profile)

#: D, the rows of the fold: its M/2 entries are inverse-transformed as D
#: interleaved rows of P = M/16 points.  Any P is exact, as each row's
#: inverse FFT is P-periodic; the window check M >= 8 (2W + 1) gives
#: P >= W + 1, so a window's outputs fit in one period.  The split depends
#: on the grid alone, so a window is the slice of any longer one, bit for
#: bit.  D < _BLOCK, so a block of the fold spans whole columns.
_ROWS = 8

#: Grid entries per block of fold rows that the window reader
#: inverse-transforms at once; a block holds at least two rows, because
#: pocketfft transforms rows in pairs of SIMD lanes, so one-row calls are
#: slower per row.  Each numpy ifft call also allocates about 5 MiB of
#: scratch at P = 2^16, which glibc may return to the system and fault in
#: again at the next call, so smaller blocks trade time for memory.  On a
#: 2-core Xeon VM, CLI runs of a 2^20 grid (D = 8 rows of 2^16) with 8 noise
#: seeds took a median 0.418, 0.394 and 0.356 s of CPU at a peak RSS of
#: 67.2, 69.2 and 73.2 MiB with blocks of 2^17, 2^18 and 2^19 entries (2, 4
#: and 8 rows).  2^18 also keeps a fold of 2^17 entries, as of the README
#: config, in one block.
_ROW_BLOCK = 2 ** 18


def _fold_twiddle(grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The factors of i e^(i theta_m) = -sin theta_m + i cos theta_m on the
    positive half-grid theta_m = (m + 1/2) h, h = 2 pi / M, in the fold's
    row layout: at m = D q + r it is head[r] step[q], with
    head = i e^(i (r + 1/2) h) (D values) and step = e^(i q D h) (P values).
    Trig runs on D + P points rather than M/2.
    """
    D = _ROWS
    P = grid_size // (2 * D)
    h = 2.0 * PI / grid_size
    head_angle = (np.arange(D) + 0.5) * h
    head = np.empty(D, dtype=complex)
    np.sin(head_angle, out=head.real)
    np.negative(head.real, out=head.real)
    np.cos(head_angle, out=head.imag)
    step_angle = np.arange(P) * (D * h)
    step = np.empty(P, dtype=complex)
    np.cos(step_angle, out=step.real)
    np.sin(step_angle, out=step.imag)
    return head, step


def _fold_rows(mirror: np.ndarray, pos: np.ndarray, head: np.ndarray,
               step: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The fold (pos - neg) twiddle + (pos + neg), with
    neg = conj(mirror[::-1]), in row layout: for the twiddle factors
    ``head`` and ``step`` of :func:`_fold_twiddle`, a (D, P) array whose
    row r is fold[r::D], into ``out`` when given and else into a new
    C-contiguous array.  For the whole fold ``mirror`` is ``pos``, the
    positive half-grid, and neg is the negative one.  The fold is written
    once, through the transpose, from the (P, D) reshapes of
    ``mirror[::-1]`` and ``pos``, ``_BLOCK`` entries at a time, so neither
    neg nor the twiddle is formed in full."""
    D, P = head.size, step.size
    if out is None:
        out = np.empty((D, P), dtype=complex)
    mirror, pos = mirror[::-1].reshape(P, D), pos.reshape(P, D)
    columns = _BLOCK // D
    for start in range(0, P, columns):
        q = slice(start, start + columns)
        neg = np.conjugate(mirror[q])
        folded = np.subtract(pos[q], neg, out=out[:, q].T)
        folded *= np.multiply.outer(head, step[q]).T
        folded += pos[q] + neg
    return out


def _check_window(grid_size: int, half_length: int) -> None:
    if half_length < 1:
        raise ValueError(f"half_length must be >= 1, got {half_length}")
    if grid_size < 8 * (2 * half_length + 1):
        raise ValueError(
            f"grid_size {grid_size} too coarse for half_length "
            f"{half_length}; need at least 8 * (2 * half_length + 1) = "
            f"{8 * (2 * half_length + 1)}")


def _window_reader(grid_size: int,
                   half_length: int) -> Callable[[np.ndarray], TimeSignal]:
    """The map from a fold of an M-point grid, in the row layout of
    :func:`_fold_rows`, to x(t) on the window [-W, W], W = ``half_length``.

    Writing L = M/2 and splitting the fold's index as m = D q + r (D =
    ``_ROWS``, P = L/D), the inverse FFT of the fold at s is
    (1/D) sum_r e^(2 pi i r s / L) Z[r, s mod P], where row r of Z is the
    P-point inverse FFT of row r of the fold, fold[r::D].  With the pair
    phase (1/2) e^(2 pi i s / M) of :func:`inverse_transform` folded in,
    x(2s) + i x(2s+1) = sum_r phases[r, s] Z[r, s mod P] with
    phases[r, s] = (0.5 / D) e^(2 pi i s (2r + 1) / M).  Only the W + 1
    pairs that cover [-W, W] are formed, so the phases are a (D, W + 1)
    table; P >= W + 1 keeps them inside one period of Z.  The phases and a
    block array for Z are built once per reader, so a sweep shares them
    across its folds.  Each call takes the fold's rows in blocks of
    ``_ROW_BLOCK`` entries (at least two rows, at most D): it runs one
    inverse FFT along the block's contiguous rows into the block array,
    gathers each pair's column s mod P, and adds the block's terms into
    each output pair.  A fold of one block sums each pair in one pass; more
    blocks regroup each pair's sum, which moves it by rounding, about 1e-16
    of the sum of its terms' magnitudes.  The fold is left unchanged, and
    the window is a view of a fresh pairs array, so no copy is made.
    """
    D = _ROWS
    P = grid_size // (2 * D)
    W = half_length
    # Pairs (x(2s), x(2s+1)) for s = floor(-W/2) .. floor(W/2) cover [-W, W].
    first = -W // 2
    count = W // 2 + 1 - first
    # The angles are built in the phases' real parts, whose products
    # s (2r + 1) are exact, so the set-up makes no (D, W + 1) temporary.
    phases = np.empty((D, count), dtype=complex)
    angle = phases.real
    np.multiply.outer(2.0 * np.arange(D) + 1,
                      np.arange(first, first + count), out=angle)
    angle *= 2.0 * PI / grid_size
    np.sin(angle, out=phases.imag)
    np.cos(angle, out=angle)
    phases *= 0.5 / D
    # D and P are powers of two, so the blocks tile the rows.
    rows = min(D, max(2, _ROW_BLOCK // P))
    block = np.empty((rows, P), dtype=complex)
    # The column of Z that each output pair reads: s mod P.
    columns = np.arange(first, first + count) % P
    start = -W - 2 * first

    def read(fold: np.ndarray) -> TimeSignal:
        for r in range(0, D, rows):
            np.fft.ifft(fold[r:r + rows], axis=1, out=block)
            terms = np.einsum("rs,rs->s", phases[r:r + rows],
                              block[:, columns])
            if r:
                pairs += terms
            else:
                pairs = terms
        samples = pairs.view(float)[start:start + 2 * W + 1]
        if not np.all(np.isfinite(samples)):
            raise ValueError(
                f"inverse transform overflows: the window of half-length "
                f"{W} holds non-finite samples")
        return TimeSignal(samples=samples)

    return read


def inverse_transform(spec: SpectralSignal, half_length: int) -> TimeSignal:
    """x(t) = (1/2pi) integral of X e^(i omega t), trapezoid on the grid.

    On the midpoint grid the trapezoid sum is a phase-shifted inverse DFT.
    X is Hermitian, so x is real and the grid folds into one array of
    length M/2, A_m = (P_m + N_m) + i e^(i theta_m) (P_m - N_m) with
    P = ``spec.positive``, N = conj(P[::-1]) the negative half-grid and
    theta_m = (m + 1/2) 2 pi / M, and
    x(2s) + i x(2s+1) = (1/2) e^(2 pi i s / M) ifft(A)[s mod M/2].  The
    window is [-W, W], W = ``half_length``, and only its W + 1 outputs are
    formed: A is held as 8 contiguous rows of M/16 points, row r = A[r::8],
    the rows are inverse-transformed a block at a time, and each output
    combines its 8 row values (see :func:`_window_reader`).  Requires
    grid_size >= 8 * (2 * half_length + 1).  A spectrum whose transform
    overflows or holds a NaN, leaving a sample of the window infinite or
    NaN, is a ValueError.  This is the one-draw, noise-free case of
    :func:`noisy_inverse_transforms`.
    """
    return noisy_inverse_transforms(spec, half_length, 0.0, (0,))[0]


def forward_transform(signal: TimeSignal, grid_size: int) -> SpectralSignal:
    """Evaluate the finite sum of x(t) e^(-i omega t) on the positive
    half-grid via FFT."""
    S = signal.half_length
    if grid_size < 2 * (2 * S + 1) or grid_size & (grid_size - 1):
        raise ValueError(
            f"grid_size must be a power of two >= 2 * (2 * half_length + 1), "
            f"got {grid_size}")
    M = grid_size
    ts = np.arange(-S, S + 1)
    parity = np.where(ts % 2 == 0, 1.0, -1.0)
    packed = np.zeros(M, dtype=complex)
    packed[ts % M] = signal.samples * parity * np.exp(-1j * PI * ts / M)
    return SpectralSignal(positive=np.fft.fft(packed)[M // 2:])


def _tail_decades(grid_size: int) -> np.ndarray:
    """Nested edge distances for stabilization checks, down to grid scale."""
    spacing = 2.0 * PI / grid_size
    deltas = [PI / 4]
    while deltas[-1] / 4.0 > 2.0 * spacing:
        deltas.append(deltas[-1] / 4.0)
    return np.array(deltas)


def class_norm(spec: SpectralSignal, weight: WeightSpec) -> float:
    """Weighted spectral norm of X against a weight; inf when it diverges.

    Finite p: the grid integral of h |X|^p.  p = inf: the grid essential
    sup of h |X|.  h and |X| are even, so both run on the positive
    half-grid, the integral counting each sample twice.  Both are scanned
    over nested windows approaching the band edges; a value that keeps
    growing toward the edge instead of stabilizing (or overflows) is
    reported as ``math.inf``.
    """
    omegas = _positive_omegas(spec.grid_size)
    absx = np.abs(spec.positive)
    h = eval_weight(weight, omegas)
    deltas = _tail_decades(spec.grid_size)

    if weight.p == math.inf:
        pointwise = h * absx
        partials = [float(np.max(pointwise[omegas <= PI - d]))
                    for d in deltas]
    else:
        density = h * absx ** weight.p
        spacing = 2.0 * PI / spec.grid_size
        partials = [float(np.sum(density[omegas <= PI - d]) * 2.0 * spacing)
                    for d in deltas]

    if _classify_tail(partials) == "divergent":
        return math.inf
    return partials[-1]


def _noise_band_count(grid_size: int) -> int:
    """Samples of the positive half-grid with omega > pi - NOISE_BAND.

    The half-grid ascends, so the band is its tail, of about NOISE_BAND / h
    samples at spacing h; its top ceil(NOISE_BAND / h) + 1 midpoints,
    formed as in :func:`_positive_omegas`, take the same floating-point
    comparison as ``_positive_omegas(M) > pi - NOISE_BAND``.
    """
    spacing = 2.0 * PI / grid_size
    top = np.arange(grid_size // 2 - math.ceil(NOISE_BAND / spacing) - 1,
                    grid_size // 2)
    return int(np.count_nonzero((top + 0.5) * spacing > PI - NOISE_BAND))


def _noise_band(grid_size: int, sigma: float, noise_seed: int) -> np.ndarray:
    """The noise on the band of the positive half-grid, ascending in omega:
    flat amplitude, so that the Hermitian noise (this band and its mirror)
    has grid L1 norm sigma, and seeded random phases.  A negative sigma and
    an amplitude that overflows are ValueErrors."""
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    count = _noise_band_count(grid_size)
    phases = np.exp(1j * _philox.uniform(noise_seed, count, 0.0, 2.0 * PI))
    amplitude = sigma / (2.0 * count * (2.0 * PI / grid_size))
    if not math.isfinite(amplitude):
        raise ValueError(
            f"sigma={sigma!r} overflows the noise amplitude on the "
            f"{2 * count} band samples")
    return amplitude * phases


def add_spectral_noise(spec: SpectralSignal, sigma: float,
                       noise_seed: int) -> SpectralSignal:
    """Add Hermitian edge-band noise with grid L1 norm exactly sigma.

    The noise has flat magnitude and seeded random phases on the edge band
    |omega| > pi - NOISE_BAND, where the weighted classes have little mass,
    and is zero elsewhere.  It is added in place on the band's top slice of
    a copy of the positive half-grid; the mirror carries it to the negative
    edge.  sigma = 0 returns the spectrum unchanged; a sigma whose band
    amplitude overflows is a ValueError.  A sweep over seeds takes
    :func:`noisy_inverse_transforms`, which yields the transforms of these
    spectra without building them.
    """
    if sigma == 0.0:
        return spec
    band = _noise_band(spec.grid_size, sigma, noise_seed)
    positive = spec.positive.copy()
    positive[positive.size - band.size:] += band
    return SpectralSignal(positive=positive)


def noisy_inverse_transforms(spec: SpectralSignal, half_length: int,
                             sigma: float,
                             seeds: tuple[int, ...]) -> list[TimeSignal]:
    """``inverse_transform(add_spectral_noise(spec, sigma, seed),
    half_length)`` for each seed, bit for bit, with no noisy grid built.

    The clean spectrum is folded once and one window reader serves every
    draw; sigma = 0 reads the clean fold once and returns that draw for
    every seed.  The noise band is the top ``count`` bins of
    P = ``spec.positive``, so it enters both ends of the fold: entries
    M/2 - count .. M/2 - 1 through P and entries 0 .. count - 1 through
    N = conj(P[::-1]).  In the row layout of :func:`_fold_rows` those lie in
    the first and the last ``width = ceil(count / D)`` entries of every row,
    which never overlap: the band is about 1/63 of the fold.  Of the
    twiddle's column factors only the 2 width that the band blocks use are
    kept.  Each seed copies the top ``width D`` entries of P and adds its
    band to them; that one noisy slice, paired with the clean bottom
    ``width D`` entries, refolds both (D, width) blocks in place, and the
    reader leaves the fold unchanged.  The D width - count entries of each
    block that the band misses are refolded from clean values, so they keep
    their bits.  Errors are those of the per-seed route.
    """
    M = spec.grid_size
    _check_window(M, half_length)
    count = _noise_band_count(M)
    width = -(-count // _ROWS)
    pos = spec.positive
    bottom, top = pos[:width * _ROWS], pos[pos.size - width * _ROWS:]
    # A finite spectrum can still overflow the sums; the window reader
    # reports that, so numpy's own warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        head, step = _fold_twiddle(M)
        fold = _fold_rows(pos, pos, head, step)
        # Only the band blocks' step factors outlive the clean fold.
        low, high = step[:width].copy(), step[-width:].copy()
        del step
        read = _window_reader(M, half_length)
        if sigma == 0.0:
            return [read(fold)] * len(seeds)
        draws = []
        for seed in seeds:
            noisy_top = top.copy()
            noisy_top[-count:] += _noise_band(M, sigma, seed)
            _fold_rows(noisy_top, bottom, head, low, out=fold[:, :width])
            _fold_rows(bottom, noisy_top, head, high, out=fold[:, -width:])
            draws.append(read(fold))
    return draws
