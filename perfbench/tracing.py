"""In-process replicas of the workloads, with spans around each layer call.

The replicas call the public functions of ``weights``, ``kernel``,
``signals``, ``recovery`` and ``cli`` in the order the CLI does, one thread,
and record a span around each call: name, start, end, parent span and cell
(the band index n).  Spans stay in memory until the run ends.  Running a
replica with :class:`NullTracer` gives the untraced time the tracing
overhead is measured against.

``specfill`` must be importable before this module is imported.
"""

from __future__ import annotations

import contextlib
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from specfill.cli import load_config
from specfill.kernel import (
    TruncationWarning,
    normalization_residual,
    resolve_kernel,
    synthesize_taps,
    write_taps_binary,
    write_taps_text,
)
from specfill.recovery import recover_center, robustness_bound, spectral_error
from specfill.signals import add_spectral_noise, inverse_transform
from specfill.weights import validate_weight

#: Layer spans; every other span (the workload root, one per cell) only
#: groups them.
LAYERS = ("cli.parse", "weights.validate", "kernel.resolve", "kernel.taps",
          "kernel.residual", "kernel.export", "signals.generate",
          "signals.noise", "signals.inverse", "recovery.spectral",
          "recovery.recover")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cell: int | None


class Tracer:
    """Records spans in memory; ``parent`` is an index into ``spans``."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, cell: int | None = None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, cell)

    def layer_seconds(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            if s.name in totals:
                totals[s.name] += s.end - s.start
        return totals


class NullTracer:
    """Same interface, records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, cell: int | None = None):
        return self._null


def replay_robustness(config_path, tracer) -> list[dict]:
    """The ``robustness`` command's calls, in ``convergence_sweep`` order.

    Returns one dict per row with n, seed, estimate, abs_error and
    spectral_bound.
    """
    rows = []
    with warnings.catch_warnings(), tracer.span("workload"):
        warnings.simplefilter("ignore", TruncationWarning)
        with tracer.span("cli.parse"):
            config = load_config(config_path)
        with tracer.span("signals.generate"):
            signal = config.build_signal()
        for n in config.n_values:
            with tracer.span("cell", n):
                with tracer.span("kernel.resolve", n):
                    spec = resolve_kernel(config.weight, n)
                with tracer.span("recovery.spectral", n):
                    spectral = spectral_error(spec, signal)
                with tracer.span("kernel.taps", n):
                    taps = synthesize_taps(spec, config.T)
                robustness_bound(spectral.spectral_bound, config.noise_sigma,
                                 spec.kappa)
                for seed in config.noise_seeds:
                    with tracer.span("signals.noise", n):
                        noisy = add_spectral_noise(signal, config.noise_sigma,
                                                   seed)
                    with tracer.span("signals.inverse", n):
                        samples = inverse_transform(noisy, config.S)
                    with tracer.span("recovery.recover", n):
                        estimate = recover_center(taps, samples)
                    rows.append({
                        "n": n, "seed": seed, "estimate": estimate,
                        "abs_error": abs(samples.truth_center - estimate),
                        "spectral_bound": spectral.spectral_bound})
    return rows


def replay_general_kernel(config_path, out_dir, tracer) -> int:
    """``validate-weight`` then ``kernel``, each parsing the config itself.

    Writes the tap files into ``out_dir`` and returns the bytes written.
    """
    out_dir = Path(out_dir)
    written = 0
    with warnings.catch_warnings(), tracer.span("workload"):
        warnings.simplefilter("ignore", TruncationWarning)
        with tracer.span("cli.parse"):
            config = load_config(config_path)
        with tracer.span("weights.validate"):
            if not validate_weight(config.weight).ok:
                raise RuntimeError("validate_weight failed")
        with tracer.span("cli.parse"):
            config = load_config(config_path)
        for n in config.n_values:
            with tracer.span("cell", n):
                with tracer.span("kernel.resolve", n):
                    spec = resolve_kernel(config.weight, n)
                with tracer.span("kernel.taps", n):
                    taps = synthesize_taps(spec, config.T)
                text = out_dir / f"taps_n{n}.txt"
                binary = out_dir / f"taps_n{n}.f64"
                with tracer.span("kernel.export", n):
                    write_taps_text(taps, text, header=f"n={n} T={config.T}")
                    write_taps_binary(taps, binary)
                with tracer.span("kernel.residual", n):
                    normalization_residual(spec)
                written += text.stat().st_size + binary.stat().st_size
    return written
