"""Admissible spectral weights and their companion functions.

A weight ``h`` assigns growing mass toward the band edges ``±pi``; sequences
whose spectrum decays fast enough against ``h`` are the recoverable classes.
Each weight travels with a companion ``W`` whose integral must diverge at the
band edge while ``|W|^q h^(-q)`` stays integrable (``q`` conjugate to ``p``).

Every weight here, and its companion, is a power of the band gap
``pi^2 - omega^2``:

=============================  =============================
weight h(omega)                companion W(omega)
=============================  =============================
``(pi^2 - omega^2)^(-nu)``     ``(pi^2 - omega^2)^(-beta)``
=============================  =============================

:class:`WeightSpec` checks only that the numbers are in range.  It takes
``nu >= 0`` so that deliberately inadmissible weights (for example the
constant ``h = 1`` at ``nu = 0``) can be built and then rejected by
:func:`validate_weight`.

All near-edge integrals run under the substitution
``u = log((pi + omega)/(pi - omega))``, which flattens the companion
singularity; composite rules on the raw integrand lose all accuracy within
1e-4 of the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import QuadratureError, adaptive_quad
# Defined without numpy, so that the CLI can check a config before numpy
# loads; this module is their public home.
from ._weightspec import WeightSpec, conjugate_exponent  # noqa: F401

PI = math.pi
INF = math.inf


# ---------------------------------------------------------------------------
# Band-gap coordinates.
#
# u = log((pi + omega)/(pi - omega)) maps (-pi, pi) to the real line; the
# inverse and the gap product (pi - omega)(pi + omega) have stable closed
# forms that never subtract nearly equal floats.
# ---------------------------------------------------------------------------

def u_from_gap(gap):
    """u at omega = pi - gap; the gap enters directly, never as pi - omega."""
    return np.log((2.0 * PI - gap) / gap)


def gap_from_u(u):
    """pi - omega(u), stable for large positive u."""
    return 2.0 * PI / (1.0 + np.exp(np.asarray(u, dtype=float)))


def gap_product_from_u(u):
    """(pi - omega)(pi + omega) = pi^2 sech^2(u/2)."""
    c = np.cosh(0.5 * np.asarray(u, dtype=float))
    return PI * PI / (c * c)


def gap_power_density(power: float, u):
    """(pi^2 - omega^2)^(-power) d(omega) / (2 pi), per unit u.

    The Jacobian d(omega)/du is the gap product itself, so the integrand in
    u is (gap product)^(1 - power) / (2 pi).
    """
    return gap_product_from_u(u) ** (1.0 - power) / (2.0 * PI)


def _check_domain(omega) -> np.ndarray:
    om = np.asarray(omega, dtype=float)
    if np.any(np.abs(om) >= PI):
        raise ValueError("omega must lie strictly inside (-pi, pi)")
    return om


def _gap_power(omega, power: float):
    """(pi^2 - omega^2)^(-power), factored so symmetry is exact."""
    om = _check_domain(omega)
    prod = (PI - om) * (PI + om)
    return prod ** (-power)


def eval_weight(spec: WeightSpec, omega):
    """h(omega); even in omega, positive on (-pi, pi)."""
    return _gap_power(omega, spec.nu)


def eval_companion(spec: WeightSpec, omega):
    """W(omega); even in omega."""
    return _gap_power(omega, spec.beta)


def gap_power_integral(power: float, u_lo: float, u_hi: float,
                       *, tol: float = 1e-13) -> float:
    """Integral of (pi^2 - omega^2)^(-power) d(omega) between two u-limits,
    by adaptive quadrature in u on 16 equal initial panels.

    The one band-mass quadrature: it has no closed-form shortcut, so it
    checks the analytic antiderivative rather than repeating it.  An
    infinite or NaN limit is a QuadratureError.
    """
    if not (math.isfinite(u_lo) and math.isfinite(u_hi)):
        raise QuadratureError("integration limits must be finite")
    # rtol only binds for masses above tol/rtol (the bisection's bracket
    # search reaches thousands); 1e-15 there asks for more digits than a
    # double sum of many panels holds, and refinement never converges.
    bp = np.linspace(u_lo, u_hi, 17)[1:-1]
    return adaptive_quad(lambda u: gap_power_density(power, u), u_lo, u_hi,
                         tol=tol, rtol=1e-14, breakpoints=bp)


# ---------------------------------------------------------------------------
# Numerical admissibility checks.
# ---------------------------------------------------------------------------

#: Points of the grid on [0, pi) that the symmetry and positivity checks
#: sample.
_CHECK_GRID = 1024

#: Geometric tail probes: steps shrinking the edge distance by RATIO each
#: time.  The divergence check uses 8 steps so a logarithmically divergent
#: tail still classifies as divergent (constant increments, share 1/8 >
#: 0.1); the finiteness check probes deeper (12 steps, down to 1e-13) so
#: slowly converging tails like sqrt(edge distance) fall under 1e-6.
_TAIL_STEPS_DIVERGENT = 8
_TAIL_STEPS_FINITE = 12
_TAIL_RATIO = 10.0
_FINITE_SHARE = 1e-6
_DIVERGENT_SHARE = 1e-1


def _classify_tail(values) -> str:
    """'finite' | 'divergent' | 'inconclusive' from nested partial values."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return "divergent"
    last = values[-1]
    if last == 0.0:
        return "finite"
    share = (values[-1] - values[-2]) / abs(last)
    if share < _FINITE_SHARE:
        return "finite"
    if share > _DIVERGENT_SHARE:
        return "divergent"
    return "inconclusive"


@dataclass(frozen=True)
class WeightCheck:
    name: str
    passed: bool
    value: float
    detail: str


@dataclass(frozen=True)
class WeightValidation:
    spec: WeightSpec
    checks: tuple[WeightCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        spec = self.spec
        p = "inf" if spec.p == INF else repr(spec.p)
        lines = [f"weight nu={spec.nu!r} beta={spec.beta!r} p={p}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: {c.detail} "
                         f"(value={c.value:.6g})")
        return "\n".join(lines)


def validate_weight(spec: WeightSpec) -> WeightValidation:
    """Numerically check the admissibility conditions of a weight.

    Checks, each reported pass/fail with its computed value:

    * symmetry of h on a 1024-point grid over [0, pi) (exact, h is computed
      through omega^2 only);
    * positivity of h (infimum over the grid strictly positive);
    * integrability of |W|^q h^(-q) over (-pi, pi): partial integrals over
      expanding symmetric subintervals must stabilize;
    * divergence of the companion tail integral toward the band edge:
      partial integrals must keep growing without stabilizing.

    Finite/divergent classification probes a geometric sequence of edge
    distances (factor 10; 12 steps for the finiteness check, 8 for the
    divergence check): last relative increment below 1e-6 means finite,
    above 0.1 means divergent, otherwise inconclusive (which fails
    whichever check needed the opposite verdict).
    """
    checks = []

    omegas = np.linspace(0.0, PI - PI / _CHECK_GRID, _CHECK_GRID)
    h_pos = eval_weight(spec, omegas)
    h_neg = eval_weight(spec, -omegas)
    sym_ok = bool(np.array_equal(h_pos, h_neg))
    checks.append(WeightCheck(
        "symmetry", sym_ok, float(np.max(np.abs(h_pos - h_neg))),
        "h(omega) == h(-omega) on the grid"))

    h_min = float(np.min(h_pos))
    checks.append(WeightCheck(
        "positivity", h_min > 0.0, h_min, "inf h over the grid"))

    # |W|^q h^(-q) = (pi^2 - omega^2)^(-(beta - nu) q); integrate over
    # symmetric windows [-(pi - d_k), pi - d_k] with d_k shrinking
    # geometrically and look for stabilization.
    s = (spec.beta - spec.nu) * spec.q
    deltas = 0.1 * _TAIL_RATIO ** -np.arange(_TAIL_STEPS_FINITE + 1)
    partials = []
    for d in deltas:
        partials.append(2.0 * gap_power_integral(s, 0.0, u_from_gap(d),
                                                 tol=1e-11))
    verdict = _classify_tail(partials)
    checks.append(WeightCheck(
        "ratio_integrable", verdict == "finite", partials[-1],
        f"integral of |W|^q h^-q stabilization: {verdict}"))

    # Companion tail: integral of W over [pi - 0.1, pi - d_k] must grow
    # without stabilizing as d_k -> 0.
    u_lo = u_from_gap(0.1)
    tail_deltas = 0.1 * _TAIL_RATIO ** -np.arange(1, _TAIL_STEPS_DIVERGENT + 1)
    tails = []
    for d in tail_deltas:
        tails.append(gap_power_integral(spec.beta, u_lo, u_from_gap(d),
                                        tol=1e-11))
    verdict = _classify_tail(tails)
    checks.append(WeightCheck(
        "companion_tail_divergent", verdict == "divergent", tails[-1],
        f"integral of W toward the edge: {verdict}"))

    return WeightValidation(spec=spec, checks=tuple(checks))
