#!/usr/bin/env python3
"""specfill benchmark: end-to-end CLI runs, or a traced in-process run.

    python3 perfbench/run.py --workload readme_robustness --seed 0 \\
        --seconds 40 --trace 0

``--trace 0`` runs the workload through ``python -m specfill``, one fresh
process per command, for ``--seconds`` seconds and reports the end-to-end
metrics of BENCHMARK.json: median CPU seconds and peak RSS per invocation,
and the median start-up time of ``python -m specfill --version``, timed
once before each invocation.  The median wall seconds per invocation are
printed in the summary but are not a bounded metric: on a shared VM they
follow the host's steal time.  ``--trace 1`` runs the CLI's ``main``
in-process, then an untraced and a traced single-threaded replica of the
same calls, and reports the per-layer metrics.  Both modes check every
output (see checks.py) and print a readable summary, then one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Scratch files go to ``.perfbench_work/`` at the repository root.  The
program is run from ``src/``; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from workloads import COMMANDS, DEFAULT_SEED, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"
#: Fewest fresh ``--version`` processes timed per run for setup_s; one more
#: is timed before each invocation beyond these.
SETUP_RUNS = 5
#: Invocations (end to end) or iterations (traced) made however short
#: ``--seconds`` is.
MIN_SAMPLES = 2
#: A CLI process still running this many seconds after the benchmark
#: started is killed, so a hung program cannot hold the benchmark past 180 s.
RUN_LIMIT_S = 170.0
_DEADLINE = time.monotonic() + RUN_LIMIT_S


@dataclass(frozen=True)
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str


def host_steal_s() -> float:
    """Seconds this VM's CPUs were held by the host (``/proc/stat`` steal),
    summed over CPUs; 0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_cli(args: list[str], cwd: Path) -> Child:
    """One fresh ``python -m specfill`` process, timed from outside."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = cwd / "stdout.txt"
    with open(out_path, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "specfill", *args],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(_DEADLINE - time.monotonic(), 1.0),
                                 os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                 stdout=out_path.read_text())


def command_args(workload: str, config_path: Path, out: Path):
    """argv lists, one per CLI command of one workload invocation."""
    for command in COMMANDS[workload]:
        args = [command, "--config", str(config_path)]
        if command != "validate-weight":
            args += ["--out", str(out)]
        yield args


def output_path(workload: str, work: Path) -> Path:
    return work / ("taps" if workload == "general_kernel" else "report.csv")


def time_setup(work: Path, walls: list[float], problems: list[str]) -> None:
    """Time one fresh ``python -m specfill --version``."""
    child = run_cli(["--version"], work)
    walls.append(child.wall_s)
    if child.code != 0 or not child.stdout.strip():
        problems.append(f"--version exited {child.code}")


def keep_going(durations: list[float], start: float, seconds: float) -> bool:
    """Whether another sample fits: at least MIN_SAMPLES, then only while
    one more of median length ends within ``seconds`` of ``start``."""
    if len(durations) < MIN_SAMPLES:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(durations) <= seconds


def max_abs_error(csv_path: Path) -> float | None:
    if not csv_path.is_file():
        return None
    header, rows = checks.read_csv(csv_path)
    if "abs_error" not in header:
        return None
    col = header.index("abs_error")
    values = []
    for cells in rows:
        try:
            values.append(float(cells[col]))
        except (IndexError, ValueError):
            continue
    return max(values, default=None)


def end_to_end(workload, seed, config, config_path, work, seconds):
    """Invocations while another fits in ``seconds``, each after one timed
    start-up, so both medians sample the same stretch of the machine's time."""
    setup_walls, setup_problems = [], []
    outcome = checks.Outcome(problems=setup_problems)
    out = output_path(workload, work)
    walls, cpus, rsss, errors, steals, durations = [], [], [], [], [], []
    start = time.perf_counter()
    while keep_going(durations, start, seconds):
        t0 = time.perf_counter()
        time_setup(work, setup_walls, setup_problems)
        steal0 = host_steal_s()
        children = [run_cli(args, work)
                    for args in command_args(workload, config_path, out)]
        steals.append(host_steal_s() - steal0)
        walls.append(sum(c.wall_s for c in children))
        cpus.append(sum(c.cpu_s for c in children))
        rsss.append(max(c.rss_mb for c in children))
        outcome.add(checks.check_invocation(
            workload, config, out, "".join(c.stdout for c in children),
            [c.code for c in children], REFERENCE, seed == DEFAULT_SEED))
        if workload != "general_kernel":
            errors.append(max_abs_error(out))
        durations.append(time.perf_counter() - t0)
    while len(setup_walls) < SETUP_RUNS:
        time_setup(work, setup_walls, setup_problems)
    metrics = {
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "setup_s": statistics.median(setup_walls),
    }
    notes = {
        "invocations": len(walls),
        "setup_runs": len(setup_walls),
        "wall_s": statistics.median(walls),
        "wall_s_all": walls,
        "cpu_s_all": cpus,
        "steal_s_all": steals,
        "setup_s_all": setup_walls,
        "max_abs_error": max((e for e in errors if e is not None),
                             default=None),
    }
    return metrics, outcome, notes


def _quiet_main(main, args: list[str]) -> tuple[int, str]:
    """Run ``specfill.cli.main`` in-process, capturing what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue()


def traced(workload, seed, config, config_path, work, seconds):
    sys.path.insert(0, str(SRC))
    import specfill
    from specfill import cli
    import tracing

    if not Path(specfill.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported specfill from {specfill.__file__}, "
                           f"not {SRC}")
    out = output_path(workload, work)
    replica_dir = work / "replica"
    replica_dir.mkdir()
    outcome = checks.Outcome()
    samples, spans, durations = [], [], []
    start = time.perf_counter()
    while keep_going(durations, start, seconds):
        t0 = time.perf_counter()
        runs = [_quiet_main(cli.main, args)
                for args in command_args(workload, config_path, out)]
        main_s = time.perf_counter() - t0
        outcome.add(checks.check_invocation(
            workload, config, out, "".join(text for _, text in runs),
            [code for code, _ in runs], REFERENCE, seed == DEFAULT_SEED))

        walls = {}
        tracer = tracing.Tracer()
        # Alternate which replica runs first, so neither always runs on a
        # warmer cache.
        order = [tracing.NullTracer(), tracer]
        if len(samples) % 2:
            order.reverse()
        for tr in order:
            t0 = time.perf_counter()
            if workload == "general_kernel":
                result = tracing.replay_general_kernel(
                    config_path, replica_dir, tr)
            else:
                result = tracing.replay_robustness(config_path, tr)
            walls[tr is tracer] = time.perf_counter() - t0

        if workload == "general_kernel":
            compared = config["n_values"]
            problems = checks.compare_tap_files(out, replica_dir, compared)
            rows, export_bytes = [], result
        else:
            compared = {(r["n"], r["seed"]): r["estimate"] for r in result}
            problems = checks.compare_estimates(out, compared)
            rows, export_bytes = result, 0
        outcome.add(checks.Outcome(
            len(compared), min(len(problems), len(compared)), problems))
        layers = tracer.layer_seconds()
        samples.append({
            "layers": layers,
            "other_s": main_s - sum(layers.values()),
            "overhead_s": walls[True] - walls[False],
            "rows": rows,
            "export_bytes": export_bytes,
        })
        spans.append([dataclasses.asdict(s) for s in tracer.spans])
        durations.append(time.perf_counter() - t0)

    with open(work / "spans.jsonl", "w") as fh:
        for iteration, recorded in enumerate(spans):
            for s in recorded:
                fh.write(json.dumps({"iteration": iteration, **s}) + "\n")

    def median(key):
        return statistics.median(key(s) for s in samples)

    metrics = {f"{name}_s": median(lambda s: s["layers"][name])
               for name in tracing.LAYERS}
    n_count = len(config["n_values"])
    metrics["kernel.taps_per_s"] = (n_count * (config["T"] + 1)
                                    / metrics["kernel.taps_s"])
    metrics["kernel.export_bytes"] = samples[-1]["export_bytes"]
    draws = len(config.get("noise", {}).get("seeds", ()))
    metrics["signals.grid_bytes"] = n_count * draws * config["grid_size"] * 16
    rows = samples[-1]["rows"]
    metrics["recovery.rows"] = len(rows)
    metrics["recovery.bound_miss_rows"] = sum(
        1 for r in rows if r["abs_error"] > r["spectral_bound"])
    metrics["cli.other_s"] = median(lambda s: s["other_s"])
    metrics["trace.overhead_s"] = median(lambda s: s["overhead_s"])
    notes = {"iterations": len(samples), "spans": str(work / "spans.jsonl")}
    return metrics, outcome, notes


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS")},
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specfill" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'specfill'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2

    mode = "trace" if args.trace else "e2e"
    work = WORK / f"{args.workload}-{args.seed}-{mode}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = make_config(args.workload, args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    measure = traced if args.trace else end_to_end
    metrics, outcome, notes = measure(args.workload, args.seed, config,
                                      config_path, work, args.seconds)
    units = declared_metrics(bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from "
                           f"BENCHMARK.json {sorted(units)}")
    facts = machine_facts()
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed,
         "notes": notes, "machine": facts, "problems": outcome.problems},
        indent=2) + "\n")

    error = notes.pop("max_abs_error", None)
    wall = notes.pop("wall_s", None)
    print(f"perfbench {args.workload} seed={args.seed} {mode}: "
          + ", ".join(f"{k}={v}" for k, v in notes.items()
                      if not isinstance(v, list)))
    for name, unit in units.items():
        print(f"  {name:<26} {metrics[name]:<14.6g} {unit}")
    if wall is not None:
        print(f"  {'wall_s':<26} {wall:<14.6g} s "
              f"(median wall seconds per invocation)")
    fail_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"  {'fail_frac':<26} {fail_frac:<14.6g} 1 "
          f"({outcome.failed} of {outcome.attempted} rows or tap files)")
    if error is not None:
        print(f"  {'max_abs_error':<26} {error:<14.6g} 1 "
              f"(largest abs_error in the CSV)")
    for problem in outcome.problems[:20]:
        print(f"  problem: {problem}")
    print(f"  machine: {json.dumps(facts)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
