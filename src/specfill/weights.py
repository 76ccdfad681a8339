"""Spectral weights, their companions, and band-gap integrals.

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

so both admissibility conditions are inequalities on the exponents:
``beta >= 1`` and ``(beta - nu) q < 1``.  :func:`validate_weight` checks
them in closed form; it lives with :class:`WeightSpec` in the numpy-free
``_weightspec`` and is re-exported here.  :class:`WeightSpec` checks only
that the numbers are in range.  It takes ``nu >= 0`` so that deliberately
inadmissible weights (for example the constant ``h = 1`` at ``nu = 0``) can
be built and then rejected by :func:`validate_weight`.

All near-edge integrals run under the substitution
``u = log((pi + omega)/(pi - omega))``, which flattens the companion
singularity; composite rules on the raw integrand lose all accuracy within
1e-4 of the edges.
"""

from __future__ import annotations

import math

import numpy as np

from ._quadrature import QuadratureError, adaptive_quad
# Defined without numpy, so that the CLI can check a config and validate a
# weight before numpy loads; this module is their public home.
from ._weightspec import (  # noqa: F401
    WeightCheck,
    WeightSpec,
    WeightValidation,
    conjugate_exponent,
    validate_weight,
)

PI = math.pi


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
    """The integrand in u of (pi^2 - omega^2)^(-power) d(omega).

    The Jacobian d(omega)/du is the gap product over 2 pi, so the integrand
    in u is (gap product)^(1 - power) / (2 pi), with no further factor.
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
