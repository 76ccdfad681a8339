"""The weight specification and its admissibility checks, kept free of numpy.

:mod:`specfill.weights` re-exports every name; they live here so that the
CLI can parse and reject a config, and run ``validate-weight``, without
loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class WeightSpec:
    """Weight h = (pi^2 - omega^2)^(-nu), companion
    W = (pi^2 - omega^2)^(-beta), and the target norm index p.

    Every numeric route reads only ``beta``; ``nu`` and ``p`` define the
    class that :func:`validate_weight` checks.
    """

    nu: float
    beta: float
    p: float

    def __post_init__(self):
        if not (self.nu >= 0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be finite and nonnegative, "
                             f"got {self.nu}")
        if self.p != math.inf and not self.p > 1.0:
            raise ValueError(f"p must exceed 1 (or be inf), got {self.p}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")

    @property
    def q(self) -> float:
        """The conjugate exponent of ``p`` (:func:`conjugate_exponent`)."""
        return conjugate_exponent(self.p)


def conjugate_exponent(p: float) -> float:
    """q = (1 - 1/p)^(-1); q = 1 for p = inf."""
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


# Every command loads this module as it parses its config (not --version or
# --help): a NamedTuple class costs a fifth of a frozen dataclass to create.
class WeightCheck(NamedTuple):
    name: str
    passed: bool
    value: float
    detail: str


class WeightValidation(NamedTuple):
    spec: WeightSpec
    checks: tuple[WeightCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        spec = self.spec
        p = "inf" if spec.p == math.inf else repr(spec.p)
        lines = [f"weight nu={spec.nu!r} beta={spec.beta!r} p={p}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: {c.detail} "
                         f"(value={c.value:.6g})")
        return "\n".join(lines)


def validate_weight(spec: WeightSpec) -> WeightValidation:
    """Check the admissibility conditions of a weight, in closed form.

    h and W are powers of the band gap pi^2 - omega^2, which vanishes to
    first order at each edge, so each condition is one inequality on the
    exponents.  Each check reports pass/fail with its value:

    * symmetry: h depends on omega only through omega^2 (value 0);
    * positivity: h is positive on (-pi, pi), with infimum
      h(0) = pi^(-2 nu) (the value);
    * ratio_integrable: |W|^q h^(-q) = (pi^2 - omega^2)^(-s) is integrable
      over (-pi, pi) exactly when s = (beta - nu) q < 1 (value s);
    * companion_tail_divergent: the integral of W toward the band edge
      diverges exactly when beta >= 1 (value beta).
    """
    s = (spec.beta - spec.nu) * spec.q
    return WeightValidation(spec=spec, checks=(
        WeightCheck("symmetry", True, 0.0,
                    "h depends on omega only through omega^2"),
        WeightCheck("positivity", True, math.pi ** (-2.0 * spec.nu),
                    "inf h = h(0) = pi^(-2 nu)"),
        WeightCheck("ratio_integrable", s < 1.0, s,
                    "|W|^q h^-q integrable iff s = (beta - nu) q < 1"),
        WeightCheck("companion_tail_divergent", spec.beta >= 1.0, spec.beta,
                    "integral of W toward the edge diverges iff beta >= 1"),
    ))
