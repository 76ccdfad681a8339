"""The weight specification, kept free of numpy.

:mod:`specfill.weights` re-exports both names; they live here so that the
CLI can parse and reject a config without loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
