"""Batch experiment runner.

Subcommands
-----------
``kernel``          resolve kernels and export tap files plus a summary
``recover``         recovery sweep over band indices, CSV of report rows
``robustness``      the same sweep, with ``noise`` required
``validate-weight`` check a weight's admissibility conditions in closed form

Every command takes ``--config <path>`` (JSON, schema below) and ``--out``
(output file or directory, overriding the config's ``output_path``).  Exit
codes: 0 success, 1 configuration error (an output path that cannot be
written is one), 2 numerical failure (for ``validate-weight``, a failed
check), 3 a failed robustness check.  A ``recover`` or ``robustness`` sweep
with ``noise`` ends its CSV with ``# violations=<count>``, the number of
rows whose ``abs_error <= robust_bound`` does not hold, and exits 3 when
that count is not 0.  Outputs are byte-identical across reruns: rows are
sorted canonically, floats serialize via repr, and every file opens with a
header comment carrying the tool version, a hash of the canonical config,
and the seeds in play.

Config schema (JSON)::

    {
      "weight": {"family": "power_law", "nu": 1.0, "p": "inf"},
      "signal": {"kind": "bandlimited", "omega": 1.5707963267948966,
                 "seed": 7},
      "n_values": [2, 4, 8],
      "T": 512,
      "S": 1024,
      "grid_size": 65536,
      "noise": {"sigma": 1e-6, "seeds": [0, 1, 2]},
      "output_path": "reports.csv"
    }

The weight is h = (pi^2 - omega^2)^(-nu) with companion
W = (pi^2 - omega^2)^(-beta); ``weight.family`` fixes beta:

* ``power_law``: beta = 1; needs ``nu > 0`` and ``p > 1/nu``;
* ``general_power``: beta = nu * a; needs ``nu > 0`` and a finite
  ``nu * a``;
* ``direct``: beta = nu; needs ``nu >= 0`` and ``p = "inf"``.

``p`` accepts a number above 1 or the string ``"inf"``, its default.  Only
``general_power`` takes ``a``; the other families accept it only as
``null``.  ``signal.kind`` is ``bandlimited`` (needs ``omega``, takes no
``nu``) or ``powerdecay`` (needs ``nu``, takes no ``omega``); both need
``seed``.  ``signal.seed`` and every ``noise.seeds`` entry are
nonnegative integers.  A field the chosen family or kind would ignore is an
error, so the config hash records only what the run used.  ``grid_size`` is
a power of two from 1024 to 2^24 with ``grid_size >= 8 * (2 * S + 1)``.
``noise`` is optional for ``recover``, required for ``robustness``.  Every
number must be finite.  A key the schema does not name, at any level, is an
error.

The CLI runs OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is
set: its idle worker would spin on a second core that no command uses.
Seeded draws come from specfill's own Philox4x64-10, equal byte for byte
to numpy's ``Generator(Philox(seed))`` streams, and the config hash takes
the interpreter's builtin SHA-256, so no command loads ``numpy.random``
or OpenSSL (a smaller footprint per process) and numpy cannot move the
stream under a rerun.

At start-up the CLI loads only the standard library, ``__version__`` and
the numpy-free ``_weightspec``, which holds ``WeightSpec`` and the
closed-form ``validate_weight``, so ``validate-weight`` loads no numeric
module.  Each other command imports its numeric modules once its config
has parsed and its output path is known: ``kernel`` loads ``kernel``
(with ``weights``), and nothing of ``signals``, ``recovery`` or
``_philox``; ``recover`` and ``robustness`` load ``recovery``, which
brings in ``kernel`` and ``signals``.  So ``validate-weight``,
``--version``, ``--help`` and every config error answer without numpy:
``--version`` takes about 0.07 s and 15.5 MiB of peak RSS (Python 3.11,
2-core x86-64 VM), against about 0.15-0.17 s and 29.5 MiB when every
module loaded at start-up.

Tap exports: ``taps_n<k>.txt`` (two columns: t, k(t), one header comment
line) and ``taps_n<k>.f64`` (flat little-endian float64, t = -T..T).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

# The interpreter's own SHA-256 hashes the config without loading OpenSSL,
# which ``hashlib`` does on import.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

# Must run before numpy loads, which a command does when it imports its
# numeric modules.  On import, OpenBLAS otherwise starts a worker thread
# that spin-waits on a second core, costing every CLI process about 0.06 s
# of CPU; no specfill call needs it, as the tap products are sized for one
# thread.  A value the user exported still wins.  The pin stays out of the
# package __init__ so that library importers keep their own BLAS policy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Nothing below loads numpy: each command imports its numeric modules
# after its config has parsed, so --version, --help and a config error
# answer without them.
from . import __version__
from ._weightspec import WeightSpec, validate_weight

if TYPE_CHECKING:
    from .signals import SpectralSignal

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATIONS = 3

#: Largest accepted ``grid_size`` (256 MiB of complex grid values).  T and
#: S are at most grid_size / 16, so this one cap bounds every array a
#: command builds.
MAX_GRID_SIZE = 2 ** 24

#: Largest accepted band index: a float holds every integer up to 2^53,
#: the range in which messages print n in full, and beyond it the inner
#: band edge pi - 1/n is pi in double precision.  The library takes any n;
#: the bound also keeps tap file names short.
MAX_BAND_INDEX = 2 ** 53


class ConfigError(ValueError):
    """A config field is missing, malformed, or violates a precondition."""


@dataclass(frozen=True)
class ExperimentConfig:
    weight: WeightSpec
    # The config's own spelling of the weight, kept for the config hash.
    weight_family: str
    weight_a: float | None
    signal_kind: str
    signal_omega: float | None
    signal_nu: float | None
    signal_seed: int
    n_values: tuple[int, ...]
    T: int
    S: int
    grid_size: int
    noise_sigma: float | None
    noise_seeds: tuple[int, ...]
    output_path: str | None

    def to_dict(self) -> dict:
        weight = {
            "family": self.weight_family,
            "nu": self.weight.nu,
            "a": self.weight_a,
            "p": "inf" if self.weight.p == math.inf else self.weight.p,
        }
        signal: dict = {"kind": self.signal_kind, "seed": self.signal_seed}
        if self.signal_omega is not None:
            signal["omega"] = self.signal_omega
        if self.signal_nu is not None:
            signal["nu"] = self.signal_nu
        out = {
            "weight": weight,
            "signal": signal,
            "n_values": list(self.n_values),
            "T": self.T,
            "S": self.S,
            "grid_size": self.grid_size,
        }
        if self.noise_sigma is not None:
            out["noise"] = {"sigma": self.noise_sigma,
                            "seeds": list(self.noise_seeds)}
        if self.output_path is not None:
            out["output_path"] = self.output_path
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def config_hash(self) -> str:
        return sha256(self.canonical_json().encode()).hexdigest()

    def build_signal(self) -> SpectralSignal:
        from .signals import make_bandlimited, make_power_decay

        if self.signal_kind == "bandlimited":
            return make_bandlimited(self.signal_omega, self.signal_seed,
                                    self.grid_size)
        return make_power_decay(self.signal_nu, self.signal_seed,
                                self.grid_size)


#: What a config field of each structured kind is called in errors.
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}

#: The keys each config object may hold; any other key is an error.
_FIELDS = {
    "config": ("weight", "signal", "n_values", "T", "S", "grid_size",
               "noise", "output_path"),
    "weight": ("family", "nu", "a", "p"),
    "signal": ("kind", "omega", "nu", "seed"),
    "noise": ("sigma", "seeds"),
}


def _reject_unknown(mapping: dict, where: str) -> None:
    for key in mapping:
        if key not in _FIELDS[where]:
            raise ConfigError(f"{where}.{key}: unknown field")


def _require(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}.{key}: required field missing")
    value = mapping[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}.{key}: expected a number, "
                              f"got {value!r}")
        return _finite(value, f"{where}.{key}")
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}.{key}: expected an integer, "
                              f"got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key}: expected {_KIND_NAMES[kind]}, "
                          f"got {value!r}")
    return value


def _integer_list(mapping: dict, key: str, where: str) -> list[int]:
    """A required nonempty list of integers (bools excluded)."""
    values = _require(mapping, key, list, where)
    if (not values
            or any(isinstance(v, bool) or not isinstance(v, int)
                   for v in values)):
        field = key if where == "config" else f"{where}.{key}"
        raise ConfigError(f"{field}: expected a nonempty list of integers")
    return values


def _finite(value: int | float, field: str) -> float:
    # json.load accepts NaN and Infinity, and an integer literal can
    # overflow a float.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{field}: expected a finite number, "
                          f"got {value!r}")
    return number


def _parse_p(raw, where: str) -> float:
    if raw == "inf":
        return math.inf
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f'{where}.p: expected a number or "inf", '
                          f"got {raw!r}")
    return _finite(raw, f"{where}.p")


def _parse_weight(raw: dict) -> tuple[WeightSpec, str, float | None]:
    """The weight spec, family and a of a config's ``weight`` object."""
    _reject_unknown(raw, "weight")
    family = _require(raw, "family", str, "weight")
    if family not in ("power_law", "general_power", "direct"):
        raise ConfigError(f"weight.family: unknown family {family!r}")
    nu = _require(raw, "nu", float, "weight")
    p = _parse_p(raw.get("p", "inf"), "weight")
    # A field the family would drop is an error, so the config hash never
    # records a value the run did not use.  A null a is what to_dict
    # writes for the families without one.
    a = None
    if family == "general_power":
        a = _require(raw, "a", float, "weight")
    elif raw.get("a") is not None:
        raise ConfigError(f"weight.a: family {family!r} takes no a, "
                          f"got {raw['a']!r}")
    if family == "direct" and p != math.inf:
        raise ConfigError(f'weight.p: family {family!r} needs p = "inf", '
                          f"got {raw['p']!r}")
    try:
        # direct accepts nu = 0, the constant weight, so that
        # validate-weight can show it inadmissible.
        if family != "direct" and not nu > 0:
            raise ValueError(f"nu must be positive, got {nu}")
        if family == "power_law":
            beta = 1.0
        elif family == "general_power":
            beta = nu * a
        else:
            beta = nu
        weight = WeightSpec(nu, beta, p)
        if family == "power_law" and p != math.inf and not p > 1.0 / nu:
            raise ValueError(
                f"power-law weight with nu={nu} requires p > 1/nu = "
                f"{1.0 / nu}, got p={p}")
    except ValueError as exc:
        raise ConfigError(f"weight: {exc}") from exc
    return weight, family, a


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping; failures name the offending field."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, "config")
    weight, family, a = _parse_weight(_require(raw, "weight", dict,
                                               "config"))

    sig = _require(raw, "signal", dict, "config")
    _reject_unknown(sig, "signal")
    kind = _require(sig, "kind", str, "signal")
    if kind not in ("bandlimited", "powerdecay"):
        raise ConfigError(f"signal.kind: unknown kind {kind!r}")
    seed = _require(sig, "seed", int, "signal")
    if seed < 0:
        raise ConfigError(f"signal.seed: must be nonnegative, got {seed}")
    dropped = "nu" if kind == "bandlimited" else "omega"
    if dropped in sig:
        raise ConfigError(f"signal.{dropped}: kind {kind!r} takes no "
                          f"{dropped}, got {sig[dropped]!r}")
    omega = nu = None
    if kind == "bandlimited":
        omega = _require(sig, "omega", float, "signal")
        if not 0.0 < omega < math.pi:
            raise ConfigError(f"signal.omega: must lie in (0, pi), "
                              f"got {omega}")
    else:
        nu = _require(sig, "nu", float, "signal")
        if not nu > 0:
            raise ConfigError(f"signal.nu: must be positive, got {nu}")

    n_values = _integer_list(raw, "n_values", "config")
    for n in n_values:
        _finite(n, "n_values")
    if max(n_values) > MAX_BAND_INDEX:
        raise ConfigError(f"n_values: must be at most 2^53 = "
                          f"{MAX_BAND_INDEX}")
    if (any(hi <= lo for lo, hi in zip(n_values, n_values[1:]))
            or n_values[0] < 2):
        raise ConfigError("n_values: must be strictly ascending integers "
                          ">= 2")

    T = _require(raw, "T", int, "config")
    S = _require(raw, "S", int, "config")
    grid_size = _require(raw, "grid_size", int, "config")
    if T < 1:
        raise ConfigError(f"T: must be >= 1, got {T}")
    if S < T:
        raise ConfigError(f"S: must be >= T, got S={S} T={T}")
    if grid_size < 8 * (2 * S + 1):
        raise ConfigError(
            f"grid_size: must be >= 8 * (2 * S + 1) = {8 * (2 * S + 1)}, "
            f"got {grid_size}")
    if grid_size < 1024 or grid_size & (grid_size - 1):
        raise ConfigError(
            f"grid_size: must be a power of two >= 1024, got {grid_size}")
    if grid_size > MAX_GRID_SIZE:
        raise ConfigError(
            f"grid_size: must be <= 2^24 = {MAX_GRID_SIZE}, got {grid_size}")

    noise_sigma = None
    noise_seeds: tuple[int, ...] = ()
    if "noise" in raw:
        noise = _require(raw, "noise", dict, "config")
        _reject_unknown(noise, "noise")
        noise_sigma = _require(noise, "sigma", float, "noise")
        if noise_sigma < 0:
            raise ConfigError(f"noise.sigma: must be nonnegative, "
                              f"got {noise_sigma}")
        seeds = _integer_list(noise, "seeds", "noise")
        if any(s < 0 for s in seeds):
            raise ConfigError(f"noise.seeds: must be nonnegative, got "
                              f"{min(seeds)}")
        if len(set(seeds)) != len(seeds):
            raise ConfigError("noise.seeds: must be distinct integers")
        noise_seeds = tuple(sorted(seeds))

    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path: expected a string")

    return ExperimentConfig(
        weight=weight, weight_family=family, weight_a=a, signal_kind=kind,
        signal_omega=omega, signal_nu=nu, signal_seed=seed,
        n_values=tuple(n_values), T=T, S=S, grid_size=grid_size,
        noise_sigma=noise_sigma, noise_seeds=noise_seeds,
        output_path=output_path)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _header_lines(config: ExperimentConfig) -> list[str]:
    seeds = [config.signal_seed, *config.noise_seeds]
    return [
        f"# specfill-version={__version__}",
        f"# config-sha256={config.config_hash()}",
        f"# seeds={','.join(str(s) for s in seeds)}",
    ]


def _resolve_out(args, config: ExperimentConfig, what: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    if config.output_path is not None:
        return Path(config.output_path)
    raise ConfigError(f"output_path: required for {what} (or pass --out)")


def cmd_kernel(args) -> int:
    config = load_config(args.config)
    out_dir = _resolve_out(args, config, "kernel")
    from .kernel import (
        normalization_residual,
        resolve_kernel,
        synthesize_taps,
        write_taps_binary,
        write_taps_text,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    header = " ".join(line[2:] for line in _header_lines(config))
    for n in config.n_values:
        spec = resolve_kernel(config.weight, n)
        taps = synthesize_taps(spec, config.T)
        write_taps_text(taps, out_dir / f"taps_n{n}.txt",
                        header=f"{header} n={n} T={config.T}")
        write_taps_binary(taps, out_dir / f"taps_n{n}.f64")
        print(f"kernel n={n}: epsilon_n={spec.epsilon_n!r} "
              f"kappa={spec.kappa!r} "
              f"en_residual={normalization_residual(spec)!r} "
              f"zero_residual={taps.zero_residual!r}")
    return EXIT_OK


def _write_reports_csv(path: Path, config: ExperimentConfig, reports,
                       trailer: str | None = None) -> None:
    from .recovery import CSV_COLUMNS

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in _header_lines(config):
            fh.write(line + "\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for report in reports:
            fh.write(",".join(report.csv_row()) + "\n")
        if trailer is not None:
            fh.write(trailer + "\n")


def cmd_sweep(args) -> int:
    """``recover`` and ``robustness``; the latter requires ``noise``."""
    config = load_config(args.config)
    noisy = config.noise_sigma is not None
    if args.command == "robustness" and not noisy:
        raise ConfigError("noise: required for robustness")
    out = _resolve_out(args, config, args.command)
    from .recovery import convergence_sweep

    rows = convergence_sweep(
        config.weight, config.build_signal(), list(config.n_values),
        config.T, config.S, noise_sigma=config.noise_sigma,
        noise_seeds=config.noise_seeds, base_seed=config.signal_seed)
    summary = f"{args.command}: wrote {len(rows)} rows to {out}"
    trailer = None
    violations = 0
    if noisy:
        # A NaN error or bound compares false both ways; it counts as a
        # violation, never as a pass.
        violations = sum(1 for r in rows if not r.abs_error <= r.robust_bound)
        trailer = f"# violations={violations}"
        summary += f"; violations={violations}"
    _write_reports_csv(out, config, rows, trailer=trailer)
    print(summary)
    return EXIT_VIOLATIONS if violations else EXIT_OK


def cmd_validate_weight(args) -> int:
    config = load_config(args.config)
    report = validate_weight(config.weight)
    print(report)
    return EXIT_OK if report.ok else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specfill",
        description="Recovering-kernel construction and verification runner")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("kernel", cmd_kernel), ("recover", cmd_sweep),
                     ("robustness", cmd_sweep),
                     ("validate-weight", cmd_validate_weight)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None,
                       help="output file or directory (overrides config)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # load_config reports its own OSError as a ConfigError, so one that
        # arrives here came from writing an output.
        print(f"config error: output_path: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # QuadratureError is a RuntimeError.
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure in stage '{args.command}': {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
