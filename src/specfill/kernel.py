"""Recovering-kernel construction: band normalization, transfer function, taps.

The transfer function of the order-n recovering kernel is piecewise on the
circle: 1 on the inner band |omega| < pi - 1/n, minus the companion W on the
middle band [pi - 1/n, pi - eps_n], 0 on the thin outer band.  The outer
width eps_n in (0, 1/n) is fixed by the normalization

    integral of W over [pi - 1/n, pi - eps_n]  =  pi - 1/n,

which forces the transfer function to integrate to zero over the circle, so
the center tap of the synthesized kernel vanishes and the missing value never
leaks into its own estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import _WG, _WK, _XK, QuadratureError, adaptive_quad
from .weights import (
    PI,
    WeightSpec,
    eval_companion,
    gap_from_u,
    gap_power_density,
    gap_power_integral,
    u_from_gap,
)

#: Absolute tolerance of each tap's |K15 - G7| estimate, of the center-tap
#: quadrature and residual, and of the spectral-bound band integrals.
QUAD_TOL = 1e-10

#: Absolute tolerance of both band quadratures in :func:`transfer_mean`.
_MEAN_TOL = 1e-12


class TruncationWarning(UserWarning):
    """Nothing issues this.  ``perfbench/tracing.py`` imports it, so it goes
    when that module does (ROADMAP item 2, step 2, the benchmark-only
    step)."""


@dataclass(frozen=True)
class KernelSpec:
    """A resolved kernel: weight, band index n and outer width eps_n."""

    weight: WeightSpec
    n: int
    epsilon_n: float

    @property
    def kappa(self) -> float:
        """Sup of |transfer| over the circle (:func:`compute_kappa`)."""
        return compute_kappa(self.weight, self.epsilon_n)


@dataclass(frozen=True)
class KernelTaps:
    """Time-domain taps k(t) for t = -T..T, stored in that order.

    Taps are real and even; the stored center tap is exactly zero, and
    ``zero_residual`` records the magnitude the quadrature produced there
    before forcing.
    """

    taps: np.ndarray
    zero_residual: float

    @property
    def half_length(self) -> int:
        """T, the largest |t| with a stored tap."""
        return self.taps.size // 2


def _inner_edge_u(n: int) -> float:
    # u at omega = pi - 1/n: (pi + omega)/(pi - omega) = 2 pi n - 1
    return math.log(2.0 * PI * n - 1.0)


def _format_n(n: int) -> str:
    """n for a message: every digit while a float holds it exactly
    (|n| <= 2^53), three significant digits beyond that."""
    if abs(n) <= 2 ** 53:
        return str(n)
    try:
        return f"{n:.3g}"
    except OverflowError:
        return f"<{n.bit_length()}-bit integer>"


def _check_n(n: int) -> None:
    if n <= 1:
        raise ValueError(f"band index n must exceed 1, got {_format_n(n)}")


def solve_epsilon_n(weight: WeightSpec, n: int) -> float:
    """Outer band width eps_n in (0, 1/n) solving the normalization equation.

    Companion exponent beta = 1 (the paper's power law) inverts the
    closed-form antiderivative exactly; other companions fall back to
    bisection with quadrature (:func:`solve_epsilon_n_bisect`).  A root
    outside (0, 1/n), as when the closed form underflows to 0 at a huge n,
    is a :class:`QuadratureError`.
    """
    _check_n(n)
    if weight.beta == 1.0:
        # (1/2pi) log((2pi - eps)/eps) = (1/2pi) log(2 pi n - 1) + pi - 1/n
        ratio = (2.0 * PI * n - 1.0) * math.exp(2.0 * PI * PI - 2.0 * PI / n)
        return _admissible(2.0 * PI / (1.0 + ratio), n,
                           "closed form for beta=1.0")
    return solve_epsilon_n_bisect(weight, n)


def _admissible(eps: float, n: int, route: str) -> float:
    """eps, checked to lie in the admissible interval (0, 1/n)."""
    if not 0.0 < eps < 1.0 / n:
        raise QuadratureError(
            f"{route} left the admissible interval (0, 1/{_format_n(n)}) for "
            f"eps_n: {eps}")
    return eps


def solve_epsilon_n_bisect(weight: WeightSpec, n: int) -> float:
    """Solve the normalization equation by bisection on the log-band axis.

    Works for any admissible companion and doubles as the independent
    cross-check of the closed form.  The bracket is guaranteed when the
    companion tail integral diverges: the band integral is 0 at width 1/n
    and grows without bound as the outer edge approaches pi.  Bisection runs
    to machine precision in u, far below 1e-14/n absolute in eps_n.
    """
    _check_n(n)
    beta = weight.beta
    u_a = _inner_edge_u(n)
    target = PI - 1.0 / n

    def excess(u: float) -> float:
        return gap_power_integral(beta, u_a, u) - target

    step = 1.0
    u_hi = u_a + step
    while excess(u_hi) <= 0.0:
        step *= 2.0
        u_hi = u_a + step
        if step > 512.0:
            raise QuadratureError(
                f"normalization equation has no root for beta={beta!r} "
                f"at n={_format_n(n)}; the companion tail integral does not "
                "diverge")
    u_lo = u_a + 0.5 * step if step > 1.0 else u_a
    for _ in range(200):
        u_mid = 0.5 * (u_lo + u_hi)
        if u_mid <= u_lo or u_mid >= u_hi:
            break
        if excess(u_mid) > 0.0:
            u_hi = u_mid
        else:
            u_lo = u_mid
        if (u_hi - u_lo) <= 8.0 * math.ulp(u_hi):
            break
    return _admissible(float(gap_from_u(0.5 * (u_lo + u_hi))), n,
                       f"bisection for beta={beta!r}")


def resolve_kernel(weight: WeightSpec, n: int) -> KernelSpec:
    """Solve the normalization equation for one band index."""
    return KernelSpec(weight=weight, n=n, epsilon_n=solve_epsilon_n(weight, n))


def compute_kappa(weight: WeightSpec, epsilon: float) -> float:
    """Sup of |transfer| over the circle: max(1, W at the outer edge).

    W is nondecreasing toward the edge, so sup |transfer| on the middle band
    sits at the outer edge pi - epsilon; the inner band contributes 1.
    """
    gap_prod = epsilon * (2.0 * PI - epsilon)
    return max(1.0, gap_prod ** -weight.beta)


def normalization_residual(spec: KernelSpec) -> float:
    """Signed defect of the normalization equation for a resolved kernel.

    Evaluates the middle-band companion integral from the stored eps_n
    (working in the log-band coordinate, so no precision is lost recovering
    the tiny edge distance) and subtracts pi - 1/n.
    """
    u_a = _inner_edge_u(spec.n)
    u_b = u_from_gap(spec.epsilon_n)
    value = gap_power_integral(spec.weight.beta, u_a, u_b)
    return value - (PI - 1.0 / spec.n)


def eval_transfer(spec: KernelSpec, omega):
    """Piecewise transfer function on [-pi, pi]; even, real.

    1 on |omega| < pi - 1/n; -W(omega) for |omega| in the closed middle band
    [pi - 1/n, pi - eps_n]; 0 beyond.  Both boundary points belong to the
    middle branch (a measure-zero convention fixed for determinism).
    """
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(np.abs(om) > PI):
        raise ValueError("omega must lie in [-pi, pi]")
    absw = np.abs(om)
    inner_edge = PI - 1.0 / spec.n
    outer_edge = PI - spec.epsilon_n
    out = np.zeros_like(absw)
    out[absw < inner_edge] = 1.0
    middle = (absw >= inner_edge) & (absw <= outer_edge)
    if np.any(middle):
        out[middle] = -eval_companion(spec.weight, absw[middle])
    if np.ndim(omega) == 0:
        return float(out[0])
    return out


def transfer_mean(spec: KernelSpec) -> float:
    """(1/2pi) integral of the transfer function over the circle.

    Zero for every resolved kernel (the normalization identity).  The inner
    band integrates :func:`eval_transfer` directly in omega; the middle band
    integrates the companion branch by quadrature in the log-band
    coordinate, where its values keep full precision (raw omega loses ten
    digits recovering the edge distance there).  Neither route touches the
    tap-synthesis machinery or the closed-form antiderivative.
    """
    inner_edge = PI - 1.0 / spec.n

    def f(om):
        return eval_transfer(spec, om)

    inner = adaptive_quad(f, 0.0, inner_edge, tol=_MEAN_TOL)
    middle = -gap_power_integral(spec.weight.beta, _inner_edge_u(spec.n),
                                 u_from_gap(spec.epsilon_n), tol=_MEAN_TOL)
    return (inner + middle) / PI


def _middle_band_cos_integral(spec: KernelSpec, t: int, u_a: float,
                              u_b: float, tol: float) -> float:
    """Integral of W(omega) cos(omega t) over the middle band, t >= 1.

    Runs in the log-band coordinate u.  For integer t,
    cos(omega t) = (-1)^t cos((pi - omega) t), and pi - omega is available
    from u at full precision, so the oscillatory phase never suffers
    cancellation.  The initial partition resolves the oscillation (equal
    phase steps where the gap exceeds ~3/t, log-spaced knots beyond).  It
    is the per-tap reference the fixed panels of :func:`_middle_band_fixed`
    are tested against.
    """
    beta = spec.weight.beta

    def f(u):
        return gap_power_density(beta, u) * np.cos(gap_from_u(u) * t)

    gap_a = 1.0 / spec.n
    gap_b = spec.epsilon_n
    phase_step = 3.0 / t
    knots = []
    if gap_a > phase_step:
        gaps = np.arange(gap_a, max(gap_b, phase_step), -phase_step)[1:]
        knots.append(u_from_gap(gaps))
    lo = max(gap_b * (1.0 + 1e-12), 1e-300)
    hi = min(phase_step, gap_a)
    if hi > lo:
        gaps = np.geomspace(hi, lo, 9)
        knots.append(u_from_gap(gaps))
    bp = np.concatenate(knots) if knots else None
    sign = -1.0 if t % 2 else 1.0
    return sign * adaptive_quad(f, u_a, u_b, tol=tol, breakpoints=bp)


_EULER_GAMMA = 0.5772156649015329
_CI_SERIES_MAX = 2.0
# Power series of Ci(x) - gamma - log(x) in x^2: (-1)^k / (2k (2k)!), k >= 1.
# Sixteen terms: the last is about 5e-28 at x = 2.
_CI_SERIES = tuple((-1.0) ** k / (2 * k * math.factorial(2 * k))
                   for k in range(16, 0, -1))
_CI_MAX_TERMS = 100


def _cosine_integral(x: np.ndarray) -> np.ndarray:
    """Ci(x) = -integral from x to infinity of cos(s)/s ds, for x > 0.

    Vectorized after Numerical Recipes section 6.8 (``cisi``), for an array
    of any shape.  At x <= 2 the power series
    gamma + log(x) + sum (-1)^k x^(2k) / (2k (2k)!) (Abramowitz & Stegun
    5.2.16) is summed by Horner's rule; above that, Ci(x) = -Re E1(ix) with
    E1 from its continued fraction (A&S 5.1.22) by the modified Lentz
    method.  Each argument leaves the recurrence at the first term whose
    factor is within 1e-15 of one, so large arguments stop after a few
    terms while those near x = 2 still take about 85.  Absolute error is a
    few ulps of |Ci(x)|.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= _CI_SERIES_MAX

    xs = x[small]
    z = xs * xs
    acc = np.zeros_like(xs)
    for coef in _CI_SERIES:
        acc = acc * z + coef
    out[small] = _EULER_GAMMA + np.log(xs) + acc * z

    xl = x[~small]
    h_final = np.empty(xl.shape, dtype=complex)
    # The arguments still in the recurrence, as positions in xl.
    idx = np.arange(xl.size)
    b = 1.0 + 1j * xl
    c = np.full(xl.shape, 1e300 + 0j)
    d = 1.0 / b
    h = d
    for i in range(2, _CI_MAX_TERMS):
        if not idx.size:
            break
        a = -(i - 1.0) ** 2
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) <= 1e-15
        if done.any():
            h_final[idx[done]] = h[done]
            keep = ~done
            b, c, d, h, idx = b[keep], c[keep], d[keep], h[keep], idx[keep]
    if idx.size:
        raise QuadratureError(
            f"cosine-integral continued fraction did not converge in "
            f"{_CI_MAX_TERMS} terms")
    out[~small] = -((np.cos(xl) - 1j * np.sin(xl)) * h_final).real
    return out


def _power_law_middle_band(spec: KernelSpec, t: np.ndarray) -> np.ndarray:
    """Integral of W(omega) cos(g t), g = pi - omega, over the middle band
    for the companion exponent 1, at integer t >= 1, in closed form.

    The companion splits into partial fractions,
    W = (1/2pi) (1/g + 1/(2pi - g)), so each fraction integrates to a
    difference of cosine integrals.  The four
    argument rows (gap_a t, eps_n t, (2pi - eps_n) t, (2pi - gap_a) t) go
    through one :func:`_cosine_integral` call, one per n.
    """
    gap_a = 1.0 / spec.n
    gap_b = spec.epsilon_n
    gaps = np.array([gap_a, gap_b, 2.0 * PI - gap_b, 2.0 * PI - gap_a])
    ci = _cosine_integral(gaps[:, None] * t)
    return (ci[0] - ci[1] + ci[2] - ci[3]) / (2.0 * PI)


# Fixed-panel evaluation of the middle band for every t at once.  Panels
# take equal steps of _PANEL_PHASE radians in the phase gap * T while that
# keeps them under _PANEL_DU wide in u (gap >= _PANEL_PHASE / (_PANEL_DU T)),
# then equal steps of at most _PANEL_DU in u out to the outer edge.  The
# taps t = t0 + s (0 <= s < _TAP_BLOCK) are summed through
# cos(g t) = cos(g t0) cos(g s) - sin(g t0) sin(g s), _NODE_CHUNK nodes and
# _TAP_BLOCK values of t0 at a time, so no T-by-nodes matrix is ever formed
# and trig work is (T/B + B) per node rather than T.  Each matrix product is
# 64 x 32 x 128, too small to gain from more than one thread; the CLI runs
# OpenBLAS on one thread.
_PANEL_PHASE = 3.0
_PANEL_DU = 0.5
_TAP_BLOCK = 64
_NODE_CHUNK = 32
# Kronrod weights and Kronrod-minus-Gauss weights on the 15 nodes: the second
# row turns each tap's sum into its |K15 - G7| error estimate.
_RULES = np.stack((_WK, _WK))
_RULES[1, 1::2] -= _WG


def _middle_band_nodes(spec: KernelSpec, half_length: int):
    """Gap values and rule weights of the fixed panels for taps up to T.

    Returns ``(gap, weights)``: the gap pi - omega at every Kronrod node in
    u, and a (2, nodes) array holding the K15 and K15 - G7 weights times the
    companion density there.
    """
    beta = spec.weight.beta
    gap_a = 1.0 / spec.n
    u_b = u_from_gap(spec.epsilon_n)
    step = _PANEL_PHASE / half_length
    gap_knee = min(gap_a, max(spec.epsilon_n, step / _PANEL_DU))
    gaps = np.linspace(gap_a, gap_knee, math.ceil((gap_a - gap_knee) / step)
                       + 1)
    u_gap = u_from_gap(gaps)
    u_gap[0] = _inner_edge_u(spec.n)
    u_rest = np.linspace(u_gap[-1], u_b,
                         math.ceil((u_b - u_gap[-1]) / _PANEL_DU) + 1)[1:]
    knots = np.concatenate((u_gap, u_rest))
    mid = 0.5 * (knots[1:] + knots[:-1])
    half = 0.5 * (knots[1:] - knots[:-1])
    u = (mid[:, None] + half[:, None] * _XK).ravel()
    scale = np.repeat(half, _XK.size) * gap_power_density(beta, u)
    weights = np.tile(_RULES, half.size) * scale
    return gap_from_u(u), weights


def _middle_band_fixed(spec: KernelSpec, half_length: int) -> np.ndarray:
    """Integral of W(omega) cos(g t), g = pi - omega, over the middle band
    for every t = 1..T, on fixed Gauss-Kronrod panels in the log-band
    coordinate.

    Each tap's K15 sum comes with its embedded G7 sum; when |K15 - G7|
    exceeds ``QUAD_TOL`` for any tap the worst one is named in the raised
    error.
    """
    gap, weights = _middle_band_nodes(spec, half_length)
    block = _TAP_BLOCK
    t0 = 1.0 + block * np.arange(-(-half_length // block))
    s = np.arange(block, dtype=float)
    # Columns: K15 sums for s = 0..B-1, then the K15 - G7 sums.
    sums = np.zeros((t0.size, 2 * block))
    for lo in range(0, gap.size, _NODE_CHUNK):
        g = gap[lo:lo + _NODE_CHUNK]
        w = weights[:, lo:lo + _NODE_CHUNK, None]
        phase = np.outer(g, s)
        cos_s = np.cos(phase)
        sin_s = np.sin(phase)
        w_cos = np.concatenate((w[0] * cos_s, w[1] * cos_s), axis=1)
        w_sin = np.concatenate((w[0] * sin_s, w[1] * sin_s), axis=1)
        for b in range(0, t0.size, block):
            phase0 = np.outer(t0[b:b + block], g)
            sums[b:b + block] += (np.cos(phase0) @ w_cos
                                  - np.sin(phase0) @ w_sin)
    kron = sums[:, :block].ravel()[:half_length]
    diff = sums[:, block:].ravel()[:half_length]
    err = np.abs(diff)
    worst = int(np.argmax(err))
    if err[worst] > QUAD_TOL:
        raise QuadratureError(
            f"tap quadrature error estimate {err[worst]:.3e} exceeds "
            f"tolerance {QUAD_TOL:.1e} at t={worst + 1} "
            f"(n={_format_n(spec.n)}, "
            f"beta={spec.weight.beta!r})")
    return kron


def synthesize_taps(spec: KernelSpec, half_length: int) -> KernelTaps:
    """Inverse-transform the transfer function into taps on [-T, T].

    For t != 0,

        k(t) = (1/pi) [ sin((pi - 1/n) t)/t  -  integral of W cos(omega t) ],

    with the inner-band term in closed form.  The middle-band term is
    (-1)^t times the integral of W cos(g t), g = pi - omega, which keeps
    the phase free of cancellation near the edge.  For companion exponent
    beta = 1 it is closed form too, through the cosine integral Ci, for all
    t at once:

        (-1)^t/(2pi) [Ci(t/n) - Ci(eps_n t) + Ci((2pi - eps_n) t)
                      - Ci((2pi - 1/n) t)].

    Other companions take it for all t at once on fixed 15-point Kronrod
    panels in the log-band coordinate, sized to the phase at t = T (at most
    3 rad each where the gap is wide, 0.5 in u toward the outer edge), with
    the sums blocked by angle addition.  The embedded 7-point Gauss rule
    gives each tap an error estimate |K15 - G7|; one above ``QUAD_TOL``
    raises with the worst t.  The center tap always goes through adaptive
    quadrature, independently of both routes, so its magnitude, recorded as
    ``zero_residual``, checks the normalization; it is then stored as exact
    zero.
    """
    if half_length < 1:
        raise ValueError(f"half_length must be at least 1, got {half_length}")
    n = spec.n
    u_a = _inner_edge_u(n)
    u_b = u_from_gap(spec.epsilon_n)
    inner_edge = PI - 1.0 / n

    try:
        center_mid = gap_power_integral(spec.weight.beta, u_a, u_b,
                                        tol=QUAD_TOL)
    except QuadratureError as exc:
        raise QuadratureError(
            f"tap quadrature failed at t=0 (n={_format_n(n)}, "
            f"beta={spec.weight.beta!r}): {exc}") from exc
    zero_tap = (inner_edge - center_mid) / PI
    t = np.arange(1, half_length + 1)
    if spec.weight.beta == 1.0:
        mid = _power_law_middle_band(spec, t)
    else:
        mid = _middle_band_fixed(spec, half_length)
    # cos(omega t) = (-1)^t cos((pi - omega) t): both routes integrate the
    # cosine of the gap, and the sign of odd t enters here.
    mid *= np.where(t % 2 == 1, -1.0, 1.0)
    side = (np.sin(inner_edge * t) / t - mid) / PI

    zero_residual = float(abs(zero_tap))
    if zero_residual > QUAD_TOL:
        raise QuadratureError(
            f"center-tap residual {zero_residual:.3e} exceeds the quadrature "
            f"tolerance {QUAD_TOL:.1e}; kernel spec is inconsistent")
    taps = np.concatenate((side[::-1], [0.0], side))
    taps.setflags(write=False)
    return KernelTaps(taps=taps, zero_residual=zero_residual)


#: Values per formatting block of :func:`write_taps_text`, whose kept rows
#: are then a few joined strings rather than one string object per tap.
_TEXT_BLOCK = 512


def write_taps_text(taps: KernelTaps, path, *, header: str = "") -> None:
    """Two-column text export: t and k(t), one row per tap.

    The taps are even, so each value's text is formed once and serves the
    rows of -t and t.  Blocks of ``_TEXT_BLOCK`` values are formatted from
    the largest |t| down: a block's -t rows are written at once, and its
    t rows are kept as one string until the rows t >= 0 follow, in
    ascending order.
    """
    T = taps.half_length
    ascending = []
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(f"# {header}\n")
        for stop in range(T + 1, 0, -_TEXT_BLOCK):
            ts = range(max(stop - _TEXT_BLOCK, 0), stop)
            block = taps.taps[T + ts.start:T + stop].tolist()
            values = [repr(v) for v in block]
            fh.writelines(f"{-t} {v}\n"
                          for t, v in zip(ts[::-1], values[::-1]) if t)
            ascending.append("".join(f"{t} {v}\n"
                                     for t, v in zip(ts, values)))
        fh.writelines(ascending[::-1])


def write_taps_binary(taps: KernelTaps, path) -> None:
    """Flat little-endian float64 export, taps ordered t = -T .. T."""
    taps.taps.astype("<f8").tofile(path)
