"""Correctness checks on the outputs of one workload invocation.

Every seed gets the invariant checks: each expected row or tap file is
present, every value is finite, the center tap is exactly zero,
zero_residual <= 1e-8, the ``error`` cell is empty, and abs_error <=
robust_bound recomputed from the row's own estimate and truth (the
``# violations=`` trailer is never read).  At the default seed CSV rows are
also compared with the stored reference column by column, by name, so
columns added later do not break the check.  Tap files depend only on the
weight, n and T, so they are compared with the reference on every seed.

Each CSV row and each tap pair (``.txt`` plus ``.f64``) is one attempted
item; an item with any problem, a missing item, or any item of a command
that exited nonzero counts as failed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: CSV columns compared with the reference pass when
#: |out - ref| <= REL_TOL * |ref| + ABS_TOL.
REL_TOL = 1e-8
ABS_TOL = 1e-12
#: Tap values compared with the reference pass within this absolute gap.
TAP_ABS_TOL = 1e-12
#: Largest center-tap quadrature residual accepted.
ZERO_RESIDUAL_MAX = 1e-8
#: zero_residual is quadrature noise near 1e-15, so it is held to
#: ZERO_RESIDUAL_MAX rather than compared with the reference.
NOT_COMPARED = ("zero_residual", "error")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a report CSV, comment lines dropped."""
    lines = [line for line in Path(path).read_text().splitlines()
             if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(out: float, ref: float) -> bool:
    return abs(out - ref) <= REL_TOL * abs(ref) + ABS_TOL


def _row_problems(row: dict[str, str], ref: dict[str, str] | None
                  ) -> list[str]:
    problems = []
    if row.get("error", ""):
        problems.append(f"error cell {row['error']!r}")
    values = {}
    for name, cell in row.items():
        if name == "error":
            continue
        try:
            values[name] = float(cell)
        except ValueError:
            problems.append(f"{name}={cell!r} is not a number")
            continue
        if not math.isfinite(values[name]):
            problems.append(f"{name}={cell} is not finite")
    if problems:
        return problems
    try:
        err = abs(values["truth"] - values["estimate"])
        if not err <= values["robust_bound"]:
            problems.append(f"|truth - estimate| = {err!r} exceeds "
                            f"robust_bound {values['robust_bound']!r}")
        if not _close(values["abs_error"], err):
            problems.append(f"abs_error {values['abs_error']!r} is not "
                            f"|truth - estimate| = {err!r}")
        if not abs(values["zero_residual"]) <= ZERO_RESIDUAL_MAX:
            problems.append(f"zero_residual {values['zero_residual']!r} "
                            f"exceeds {ZERO_RESIDUAL_MAX}")
    except KeyError as exc:
        problems.append(f"column {exc} missing")
    for name, cell in (ref or {}).items():
        if name in NOT_COMPARED:
            continue
        if name not in values:
            problems.append(f"reference column {name!r} missing")
        elif not _close(values[name], float(cell)):
            problems.append(f"{name}={row[name]} differs from reference "
                            f"{cell}")
    return problems


def _keyed(header: list[str], rows: list[list[str]]):
    """Rows as {(n, seed): {column: cell}}, plus rows that do not parse."""
    keyed, bad = {}, []
    for cells in rows:
        if len(cells) != len(header):
            bad.append(f"row {','.join(cells)!r} has {len(cells)} cells, "
                       f"header has {len(header)}")
            continue
        row = dict(zip(header, cells))
        try:
            key = (int(row["n"]), int(row["seed"]))
        except (KeyError, ValueError):
            bad.append(f"row {','.join(cells)!r} has no integer n and seed")
            continue
        if key in keyed:
            bad.append(f"row n={key[0]} seed={key[1]} appears twice")
            continue
        keyed[key] = row
    return keyed, bad


def check_csv(path, config: dict, reference=None) -> Outcome:
    """Check a robustness CSV; ``reference`` is a reference CSV path."""
    expected = [(n, s) for n in config["n_values"]
                for s in sorted(config["noise"]["seeds"])]
    outcome = Outcome(attempted=len(expected))
    if not Path(path).is_file():
        outcome.failed = len(expected)
        outcome.problems.append(f"{path} was not written")
        return outcome
    keyed, bad = _keyed(*read_csv(path))
    outcome.problems.extend(bad)
    ref_rows = _keyed(*read_csv(reference))[0] if reference else {}
    for key in expected:
        if key not in keyed:
            outcome.failed += 1
            outcome.problems.append(f"row n={key[0]} seed={key[1]} missing")
            continue
        ref = ref_rows.get(key) if reference else None
        problems = _row_problems(keyed[key], ref)
        if reference and ref is None:
            problems.append("no reference row")
        if problems:
            outcome.failed += 1
            outcome.problems.extend(f"row n={key[0]} seed={key[1]}: {p}"
                                    for p in problems)
    extra = set(keyed) - set(expected)
    if extra:
        outcome.problems.append(f"unexpected rows {sorted(extra)}")
    return outcome


_SUMMARY = re.compile(r"^kernel n=(\d+): .*zero_residual=(\S+)", re.M)


def _tap_problems(out_dir: Path, n: int, T: int, ref_dir: Path,
                  zero_residual: str | None) -> list[str]:
    binary = out_dir / f"taps_n{n}.f64"
    text = out_dir / f"taps_n{n}.txt"
    if not binary.is_file() or not text.is_file():
        return ["tap files not written"]
    taps = np.fromfile(binary, dtype="<f8")
    if taps.shape != (2 * T + 1,):
        return [f"{binary.name} holds {taps.size} taps, expected {2 * T + 1}"]
    problems = []
    if not np.all(np.isfinite(taps)):
        problems.append("non-finite taps")
    if taps[T] != 0.0:
        problems.append(f"center tap {taps[T]!r} is not exactly 0")
    rows = [line.split() for line in text.read_text().splitlines()
            if line and not line.startswith("#")]
    if ([int(t) for t, _ in rows] != list(range(-T, T + 1))
            or not np.array_equal([float(v) for _, v in rows], taps)):
        problems.append(f"{text.name} does not match {binary.name}")
    ref = np.fromfile(ref_dir / binary.name, dtype="<f8")
    gap = float(np.max(np.abs(taps - ref))) if ref.shape == taps.shape \
        else math.inf
    if not gap <= TAP_ABS_TOL:
        problems.append(f"taps differ from reference by {gap:.3e}")
    if zero_residual is None:
        problems.append("no summary line")
    elif not abs(float(zero_residual)) <= ZERO_RESIDUAL_MAX:
        problems.append(f"zero_residual {zero_residual} exceeds "
                        f"{ZERO_RESIDUAL_MAX}")
    return problems


def check_taps(out_dir, config: dict, stdout: str, ref_dir) -> Outcome:
    """Check a ``kernel`` tap directory and its stdout summary lines."""
    residuals = dict(_SUMMARY.findall(stdout))
    outcome = Outcome(attempted=len(config["n_values"]))
    for n in config["n_values"]:
        problems = _tap_problems(Path(out_dir), n, config["T"], Path(ref_dir),
                                 residuals.get(str(n)))
        if problems:
            outcome.failed += 1
            outcome.problems.extend(f"taps n={n}: {p}" for p in problems)
    return outcome


def check_invocation(workload: str, config: dict, out, stdout: str,
                     exit_codes: list[int], reference_dir,
                     default_seed: bool) -> Outcome:
    """Check everything one invocation of a workload produced."""
    if workload == "general_kernel":
        outcome = check_taps(out, config, stdout, reference_dir / workload)
    else:
        reference = (reference_dir / f"{workload}.csv" if default_seed
                     else None)
        outcome = check_csv(out, config, reference)
    if any(code != 0 for code in exit_codes):
        outcome.failed = outcome.attempted
        outcome.problems.append(f"exit codes {exit_codes}")
    return outcome


def compare_estimates(csv_path, replica: dict[tuple[int, int], float]
                      ) -> list[str]:
    """Problems where the replica's estimates differ from the CLI CSV's.

    The comparison is on the CSV text: repr of the replica's float must
    equal the CSV cell byte for byte.
    """
    keyed, _ = _keyed(*read_csv(csv_path))
    problems = []
    for key, estimate in sorted(replica.items()):
        cell = keyed.get(key, {}).get("estimate")
        if cell != repr(float(estimate)):
            problems.append(f"replica estimate n={key[0]} seed={key[1]} "
                            f"{estimate!r} != CLI {cell!r}")
    if set(keyed) != set(replica):
        problems.append(f"replica rows {sorted(replica)} != CLI rows "
                        f"{sorted(keyed)}")
    return problems


def compare_tap_files(cli_dir, replica_dir, n_values) -> list[str]:
    """Problems where the replica's .f64 taps differ from the CLI's bytes."""
    problems = []
    for n in n_values:
        name = f"taps_n{n}.f64"
        cli_file, replica_file = Path(cli_dir) / name, Path(replica_dir) / name
        if (not cli_file.is_file() or not replica_file.is_file()
                or cli_file.read_bytes() != replica_file.read_bytes()):
            problems.append(f"replica {name} differs from the CLI's")
    return problems
