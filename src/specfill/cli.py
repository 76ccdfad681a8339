"""Batch experiment runner.

Subcommands
-----------
``kernel``          resolve kernels and export tap files plus a summary
``recover``         recovery sweep over band indices, CSV of report rows
``robustness``      the same sweep, with ``noise`` required
``validate-weight`` check a weight's admissibility conditions in closed form

Every command takes ``--config <path>`` (JSON, schema below) and ``--out``
(output file or directory, overriding the config's ``output_path``).  Exit
codes: 0 success, 1 bad input (a configuration error, an output path that
cannot be written, or bad usage such as a missing ``--config`` or an
unknown command, for which argparse's own code would be 2), 2 numerical
failure (for ``validate-weight``, a failed check), 3 a failed robustness
check.  A ``recover`` or ``robustness`` sweep with ``noise`` ends its CSV
with ``# violations=<count>``, the number of rows whose
``abs_error <= robust_bound`` does not hold, and exits 3 when that count
is not 0.  Outputs are byte-identical across reruns: rows are
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

This module is the argument parser alone: it loads argparse and
``__version__``.  The config schema, the config hash and the command
bodies live in ``_config``, which ``main`` imports once argparse has
dispatched to a command, so ``--version``, ``--help``, ``<command>
--help`` and usage errors compile nothing else of specfill.  Without a
bytecode cache, ``--version`` takes about 0.047 s and 14.4 MiB of peak RSS
(Python 3.11, 2-core x86-64 VM; ``python -c pass`` takes 0.038 s),
against 0.064 s and 15.5 MiB when this module held the config code too.
``_config`` loads the numpy-free ``_weightspec``, which holds
``WeightSpec`` and the closed-form ``validate_weight``, so
``validate-weight`` and every config error answer without numpy.  Each
other command imports its numeric modules once its config has parsed and
its output path is known: ``kernel`` loads ``kernel`` (with ``weights``),
and nothing of ``signals``, ``recovery`` or ``_philox``; ``recover`` and
``robustness`` load ``recovery``, which brings in ``kernel`` and
``signals``.

Tap exports: ``taps_n<k>.txt`` (two columns: t, k(t), one header comment
line) and ``taps_n<k>.f64`` (flat little-endian float64, t = -T..T).
"""

import argparse
import os
import sys

from . import __version__

# Must run before numpy loads, which a command does when it imports its
# numeric modules.  On import, OpenBLAS otherwise starts a worker thread
# that spin-waits on a second core, costing every CLI process about 0.06 s
# of CPU; no specfill call needs it, as the tap products are sized for one
# thread.  A value the user exported still wins.  The pin stays out of the
# package __init__ so that library importers keep their own BLAS policy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATIONS = 3

#: Each subcommand and the name of the function in ``_config`` that runs
#: it.  Only ``main`` imports ``_config``, once a command has parsed.
_COMMANDS = (("kernel", "cmd_kernel"), ("recover", "cmd_sweep"),
             ("robustness", "cmd_sweep"),
             ("validate-weight", "cmd_validate_weight"))


class ConfigError(ValueError):
    """A config field is missing, malformed, or violates a precondition."""


def load_config(path):
    """The parsed config at ``path``: :func:`specfill._config.load_config`.

    ``perfbench/tracing.py`` imports ``load_config`` from this module; this
    forwarder goes when that replica does (ROADMAP item 2, step 2).
    """
    from ._config import load_config

    return load_config(path)


class _Parser(argparse.ArgumentParser):
    """argparse with bad usage exiting ``EXIT_CONFIG``, not argparse's 2,
    which this CLI reports for a numerical failure.  Sub-parsers take this
    class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specfill",
        description="Recovering-kernel construction and verification runner")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None,
                       help="output file or directory (overrides config)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from . import _config

    try:
        return getattr(_config, args.fn)(args)
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
    # ``python -m specfill.cli`` runs this file as a second module,
    # ``__main__``; _config raises specfill.cli's ConfigError, so run that
    # module's main.
    from specfill.cli import main as _main

    sys.exit(_main())
