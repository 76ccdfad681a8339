"""specfill: recovery of a missing sequence value from its spectrum.

Builds explicit recovering kernels whose transfer function is 1 on an inner
band, minus a companion weight on a middle band, and 0 on a thin outer band
near the edges of the circle; applies them to generated test sequences; and
verifies the convergence and noise-robustness guarantees numerically.
"""

__version__ = "0.1.0"
