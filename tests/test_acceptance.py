"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned in the assertions, not configurable.
"""

import json
import math

import numpy as np

from specfill.cli import main
from specfill.kernel import (
    resolve_kernel,
    solve_epsilon_n,
    solve_epsilon_n_bisect,
    synthesize_taps,
    normalization_residual,
)
from specfill.recovery import (
    convergence_sweep,
    recover_center,
    robustness_bound,
    spectral_error,
)
from specfill.signals import (
    add_spectral_noise,
    forward_transform,
    from_profile,
    inverse_transform,
    make_bandlimited,
    make_power_decay,
)
from specfill.weights import PI, WeightSpec

POWER = WeightSpec(1.0, 1.0, math.inf)
N_SET = (2, 4, 8, 16, 32, 64)


def test_c1_kernel_zero_center():
    """Pre-forcing |k(0)| residual stays within 1e-8 for n up to 64."""
    worst = 0.0
    for n in N_SET:
        taps = synthesize_taps(resolve_kernel(POWER, n), 8)
        assert taps.zero_residual <= 1e-8, (n, taps.zero_residual)
        assert taps.taps[taps.half_length] == 0.0
        worst = max(worst, taps.zero_residual)
    print(f"ACCEPTANCE 1 (kernel zero-center): PASS - "
          f"max residual {worst:.3e} <= 1e-8 over n in {N_SET}")


def test_c2_normalization_equation():
    """Band-mass residual <= 1e-10, eps strictly inside (0, 1/n), and the
    closed-form and bisection solvers agree within 1e-12 relative."""
    worst_resid = 0.0
    worst_gap = 0.0
    for n in N_SET:
        spec = resolve_kernel(POWER, n)
        resid = abs(normalization_residual(spec))
        assert resid <= 1e-10, (n, resid)
        assert 0.0 < spec.epsilon_n < 1.0 / n
        closed = solve_epsilon_n(POWER, n)
        bisect = solve_epsilon_n_bisect(POWER, n)
        rel = abs(closed - bisect) / closed
        assert rel <= 1e-12, (n, rel)
        worst_resid = max(worst_resid, resid)
        worst_gap = max(worst_gap, rel)
    print(f"ACCEPTANCE 2 (normalization equation): PASS - "
          f"max residual {worst_resid:.3e} <= 1e-10, "
          f"max solver disagreement {worst_gap:.3e} <= 1e-12")


def test_c3_exact_in_band_recovery():
    """Band edge pi/2 sits inside the inner band for every n >= 2, so the
    spectral bound is exactly zero; the tap-truncated estimate reaches the
    truth within 1e-3 at T = 4096 and improves at least 2x at T = 8192."""
    signal = make_bandlimited(PI / 2, 7, 2 ** 18)
    for n in (2, 3, 8, 64):
        report = spectral_error(resolve_kernel(POWER, n), signal)
        assert report.spectral_bound == 0.0, n

    spec = resolve_kernel(POWER, 2)
    time_signal = inverse_transform(signal, 8192)
    errors = {}
    for T in (4096, 8192):
        estimate = recover_center(synthesize_taps(spec, T), time_signal)
        errors[T] = abs(estimate - time_signal.truth_center)
    assert errors[4096] <= 1e-3, errors
    assert errors[8192] <= errors[4096] / 2.0, errors
    print(f"ACCEPTANCE 3 (exact in-band recovery): PASS - bound exactly 0; "
          f"abs_error {errors[4096]:.3e} at T=4096, "
          f"{errors[4096] / errors[8192]:.1f}x smaller at T=8192")


def test_c4_convergence():
    """Power-decay signals: spectral bound at n = 32 within 10% of its n = 2
    value, and the measured error strictly decreasing in n."""
    signal = make_power_decay(1.0, 3, 2 ** 18)
    reports = convergence_sweep(POWER, lambda: signal, [2, 4, 8, 16, 32],
                                2048, 4096, base_seed=3)
    bounds = [r.spectral_bound for r in reports]
    errors = [r.abs_error for r in reports]
    assert bounds[-1] <= 0.1 * bounds[0], bounds
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    print(f"ACCEPTANCE 4 (convergence): PASS - bound ratio "
          f"{bounds[-1] / bounds[0]:.3f} <= 0.1; errors "
          f"{' -> '.join(f'{e:.2e}' for e in errors)}")


def test_c5_negative_control():
    """A spectrum bounded away from zero at the band edges is outside every
    weighted class; its spectral bound must not decay over the sweep."""
    flat = from_profile(
        lambda om: np.ones_like(np.asarray(om), dtype=complex),
        2 ** 16)
    bounds = [spectral_error(resolve_kernel(POWER, n), flat).spectral_bound
              for n in (2, 4, 8, 16, 32)]
    assert bounds[-1] >= 0.5 * bounds[0], bounds
    print(f"ACCEPTANCE 5 (negative control): PASS - bound stays at "
          f"{bounds[-1]:.6f} (initial {bounds[0]:.6f}, "
          f"ratio {bounds[-1] / bounds[0]:.2f} >= 0.5)")


def test_c6_robustness_bound():
    """Zero violations of the noise bound over 100 seeded draws at each
    sigma, and the bound eventually grows with n at fixed sigma."""
    clean = make_bandlimited(PI / 2, 7, 2 ** 16)
    spec = resolve_kernel(POWER, 4)
    taps = synthesize_taps(spec, 1024)
    epsilon_est = spectral_error(spec, clean).spectral_bound
    worst = {}
    for sigma in (1e-9, 1e-6):
        bound = robustness_bound(epsilon_est, sigma, spec.kappa)
        violations = 0
        worst[sigma] = 0.0
        for seed in range(100):
            noisy = add_spectral_noise(clean, sigma, seed)
            time_signal = inverse_transform(noisy, 2048)
            err = abs(recover_center(taps, time_signal)
                      - time_signal.truth_center)
            worst[sigma] = max(worst[sigma], err)
            violations += err > bound
        assert violations == 0, (sigma, worst[sigma], bound)

    decay = make_power_decay(1.0, 3, 2 ** 16)
    sigma = 1e-6
    tradeoff = []
    for n in (2, 4, 8, 16):
        spec_n = resolve_kernel(POWER, n)
        eps_n = spectral_error(spec_n, decay).spectral_bound
        tradeoff.append(robustness_bound(eps_n, sigma, spec_n.kappa))
    diffs = np.diff(tradeoff)
    first_rise = int(np.argmax(diffs > 0))
    assert np.all(diffs[first_rise:] > 0), tradeoff
    assert tradeoff[-1] > tradeoff[0], tradeoff
    print(f"ACCEPTANCE 6 (robustness bound): PASS - 0 violations in 200 "
          f"draws (worst {max(worst.values()):.3e}); bound grows "
          f"{tradeoff[0]:.2f} -> {tradeoff[-1]:.2f} with n at sigma=1e-6")


def test_c7_transform_consistency():
    """Forward/inverse round trip within 1e-6 sup error (improving with the
    window) and Parseval partial sums monotone from below."""
    M = 2 ** 18
    signal = make_bandlimited(PI / 2, 7, M)
    errors = []
    for S in (2048, 4096, 8192):
        ts = inverse_transform(signal, S)
        back = forward_transform(ts, M)
        errors.append(float(np.max(np.abs(back.positive - signal.positive))))
    assert errors[2] < errors[1] < errors[0], errors
    assert errors[2] <= 1e-6, errors

    M2 = 2 ** 16
    sig2 = make_bandlimited(PI / 2, 7, M2)
    # Both halves of the grid: |X| is even.
    spectral_energy = float(2.0 * np.sum(np.abs(sig2.positive) ** 2) / M2)
    ts2 = inverse_transform(sig2, 4095)
    S2 = ts2.half_length
    partials = []
    for t in (0, 1, 2, 4, 16, 128, 1024, 4095):
        block = ts2.samples[S2 - t:S2 + t + 1]
        partials.append(float(np.sum(block * block)))
    assert all(b >= a - 1e-12 for a, b in zip(partials, partials[1:]))
    assert partials[-1] <= spectral_energy + 1e-12
    print(f"ACCEPTANCE 7 (transform consistency): PASS - round trip "
          f"{errors[2]:.3e} <= 1e-6 at S=8192; Parseval partial sums "
          f"monotone, final within {spectral_energy - partials[-1]:.3e}")


def test_c8_determinism(tmp_path):
    """Identical configs give byte-identical CSVs across runs."""
    config = {
        "weight": {"family": "power_law", "nu": 1.0, "p": "inf"},
        "signal": {"kind": "powerdecay", "nu": 1.0, "seed": 3},
        "n_values": [2, 4],
        "T": 256,
        "S": 512,
        "grid_size": 16384,
        "noise": {"sigma": 1e-9, "seeds": [0, 1, 2]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = []
    for name in ("r1.csv", "r2.csv", "r3.csv"):
        out = tmp_path / name
        assert main(["recover", "--config", str(path), "--out",
                     str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    rob = []
    for name in ("b1.csv", "b2.csv"):
        out = tmp_path / name
        assert main(["robustness", "--config", str(path), "--out",
                     str(out)]) == 0
        rob.append(out.read_bytes())
    assert rob[0] == rob[1]
    print("ACCEPTANCE 8 (determinism): PASS - recover and robustness CSVs "
          "byte-identical across reruns")
