"""Applying recovering kernels and verifying their error guarantees.

The estimate of the missing center value is the tap/sample dot product with
the center structurally excluded.  Its spectral error bound is the L1 norm
of (transfer - 1) X over the circle, split into the three bands where the
transfer function is 1 (contributes nothing), -W, and 0; the noisy-input
bound adds sigma (kappa + 1) on top.  The band integrals run on the
spectrum's analytic profile, so every bound needs one; grid samples never
stand in for it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ._quadrature import adaptive_quad
from .kernel import (
    QUAD_TOL,
    KernelSpec,
    KernelTaps,
    _format_n,
    _inner_edge_u,
    resolve_kernel,
    synthesize_taps,
)
from .signals import SpectralSignal, TimeSignal, noisy_inverse_transforms
from .weights import PI, WeightSpec, gap_from_u, u_from_gap


@dataclass(frozen=True)
class SpectralError:
    """The L1 masses of (transfer - 1) X over the middle band (``I2``) and
    the outer band (``I3``); the inner band contributes nothing."""

    I2: float
    I3: float

    @property
    def spectral_bound(self) -> float:
        """(I2 + I3) / 2 pi, a bound on the untruncated kernel's error."""
        return (self.I2 + self.I3) / (2.0 * PI)


@dataclass(frozen=True)
class RecoveryReport:
    """One CSV row: a kernel, one seed's estimate and truth, and the bounds.

    The fields are the CSV columns, in order.  ``T`` and ``S`` are the tap
    and signal half-lengths.  ``robust_bound`` is spectral_bound +
    sigma (kappa + 1), or None (an empty cell) when the run has no noise.
    """

    n: int
    epsilon_n: float
    kappa: float
    estimate: float
    truth: float
    abs_error: float
    spectral_bound: float
    I2: float
    I3: float
    robust_bound: float | None
    zero_residual: float
    T: int
    S: int
    seed: int | None

    def csv_row(self) -> list[str]:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return repr(float(x))
            return str(x)

        return [fmt(getattr(self, name)) for name in CSV_COLUMNS]


#: Column order of the CSV serialization of a report row.
CSV_COLUMNS = tuple(f.name for f in fields(RecoveryReport))


def recover_center(taps: KernelTaps, signal: TimeSignal) -> float:
    """Estimate the center value: sum of k(s) x(s) over 0 < |s| <= T.

    The center term is structurally excluded: the stored center tap is exact
    zero, asserted here before the dot product.
    """
    T = taps.half_length
    S = signal.half_length
    if T > S:
        raise ValueError(
            f"tap window T={T} exceeds signal window S={S}")
    if taps.taps[T] != 0.0:
        raise ValueError("center tap is nonzero; taps are corrupt")
    segment = signal.samples[S - T:S + T + 1]
    return float(np.dot(taps.taps, segment))


def robustness_bound(epsilon_est: float, sigma: float, kappa: float) -> float:
    """Noise-aware error bound: epsilon_est + sigma (kappa + 1)."""
    if epsilon_est < 0 or sigma < 0 or kappa < 0:
        raise ValueError("bound inputs must be nonnegative")
    return epsilon_est + sigma * (kappa + 1.0)


def spectral_error(spec: KernelSpec, signal: SpectralSignal) -> SpectralError:
    """Spectral L1 error of one kernel against one spectrum, band by band:
    the :class:`SpectralError` holding I2, I3 and their spectral bound.

    The inner band contributes nothing because the transfer function is 1
    there.  I2 and I3 integrate |(transfer - 1) X| over the middle and
    outer bands from the spectrum's analytic profile, on one side of the
    circle and doubled, as |X| is even; the outer band is far narrower than
    any grid spacing, so a spectrum without a profile (for example a noisy
    one) raises ValueError.  I2 runs under the log-band substitution (W is
    analytic there; the substitution flattens its blow-up); I3 integrates
    |X| over the outer band directly, which is harmless because X carries
    no singularity.  A band-limited profile that ends inside the inner band
    is exactly zero on both, so its bound is 0.
    """
    profile = signal.profile
    if profile is None:
        raise ValueError("spectral_error needs the spectrum's analytic "
                         "profile; this spectrum has none")

    def magnitude(omega):
        return np.abs(profile(np.asarray(omega, dtype=float)))

    beta = spec.weight.beta
    u_a = _inner_edge_u(spec.n)
    u_b = u_from_gap(spec.epsilon_n)

    def mid_integrand(u):
        gap = gap_from_u(u)
        om = PI - gap
        gap_prod = gap * (2.0 * PI - gap)
        w_plus_one = gap_prod ** -beta + 1.0
        return w_plus_one * magnitude(om) * gap_prod / (2.0 * PI)

    bp = np.linspace(u_a, u_b, 33)[1:-1]
    i2 = adaptive_quad(mid_integrand, u_a, u_b, tol=QUAD_TOL,
                       breakpoints=bp)

    def outer_integrand(gap):
        return magnitude(PI - np.asarray(gap))

    i3 = adaptive_quad(outer_integrand, 0.0, spec.epsilon_n, tol=QUAD_TOL)
    return SpectralError(I2=2.0 * i2, I3=2.0 * i3)


def _sweep_cell(weight: WeightSpec, signal: SpectralSignal, n: int,
                tap_half_length: int, signal_half_length: int,
                noise_sigma: float | None,
                draws: list[tuple[int | None, TimeSignal]]
                ) -> list[RecoveryReport]:
    spec = resolve_kernel(weight, n)
    spectral = spectral_error(spec, signal)
    taps = synthesize_taps(spec, tap_half_length)
    robust = None
    if noise_sigma is not None:
        robust = robustness_bound(spectral.spectral_bound, noise_sigma,
                                  spec.kappa)

    reports = []
    for seed, time_sig in draws:
        estimate = recover_center(taps, time_sig)
        truth = time_sig.truth_center
        reports.append(RecoveryReport(
            n=n, epsilon_n=spec.epsilon_n, kappa=spec.kappa,
            estimate=estimate, truth=truth, abs_error=abs(truth - estimate),
            spectral_bound=spectral.spectral_bound,
            I2=spectral.I2, I3=spectral.I3, robust_bound=robust,
            zero_residual=taps.zero_residual, T=tap_half_length,
            S=signal_half_length, seed=seed))
    return reports


def convergence_sweep(weight: WeightSpec, signal: SpectralSignal,
                      n_values: list[int], tap_half_length: int,
                      signal_half_length: int, *,
                      noise_sigma: float | None = None,
                      noise_seeds: tuple[int, ...] = (),
                      base_seed: int | None = None) -> list[RecoveryReport]:
    """Run kernel resolution, synthesis, and recovery over a band-index sweep.

    First, the time signals, none of which depends on n, all from
    :func:`signals.noisy_inverse_transforms`: with ``noise_sigma`` None,
    one noise-free draw tagged ``base_seed``; otherwise one per noise seed,
    sharing one clean fold and bit for bit the transforms of the noisy
    spectra.  Each is formed only on the tap window |t| <= T =
    ``tap_half_length``, the 2T + 1 samples that the taps and the truth
    x(0) read.  Then, for each n: resolve the kernel,
    synthesize taps at ``tap_half_length``, and assemble one report per
    seed carrying the estimate, truth, spectral error split, and constants.
    The report order is (n ascending, seed ascending).
    ``signal_half_length`` S is only checked (T <= S, a ValueError raised
    before any transform) and echoed in each report; no number depends on
    it.  Errors from the per-n stages propagate tagged with their n.
    """
    if sorted(n_values) != list(n_values):
        raise ValueError("n_values must be sorted ascending")
    if any(n < 2 for n in n_values):
        raise ValueError("every n must be at least 2")
    if noise_sigma is not None and not noise_seeds:
        raise ValueError("noise_sigma given without noise seeds")
    if tap_half_length > signal_half_length:
        raise ValueError(
            f"tap window T={tap_half_length} exceeds signal window "
            f"S={signal_half_length}")
    if noise_sigma is None:
        sigma, seeds = 0.0, (base_seed,)
    else:
        sigma, seeds = noise_sigma, tuple(sorted(noise_seeds))
    draws = list(zip(seeds, noisy_inverse_transforms(
        signal, tap_half_length, sigma, seeds)))

    reports = []
    for n in n_values:
        try:
            reports += _sweep_cell(weight, signal, n, tap_half_length,
                                   signal_half_length, noise_sigma, draws)
        except Exception as exc:
            raise RuntimeError(
                f"sweep cell n={_format_n(n)} failed: {exc}") from exc
    return reports
