#!/usr/bin/env python3
"""Rewrite perfbench/reference/ from the current program at the default seed.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the program's outputs, and say
so in the change: the reference is what the benchmark's correctness check
compares against.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCE, WORK, command_args, output_path, run_cli
from workloads import COMMANDS, DEFAULT_SEED, make_config


def main() -> int:
    for workload in COMMANDS:
        work = WORK / f"{workload}-reference"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config_path = work / "config.json"
        config_path.write_text(
            json.dumps(make_config(workload, DEFAULT_SEED), indent=2) + "\n")
        out = output_path(workload, work)
        for args in command_args(workload, config_path, out):
            child = run_cli(args, work)
            if child.code != 0:
                print(f"{workload}: {args[0]} exited {child.code}",
                      file=sys.stderr)
                return 1
        if workload == "general_kernel":
            target = REFERENCE / workload
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for f64 in sorted(out.glob("*.f64")):
                shutil.copyfile(f64, target / f64.name)
        else:
            shutil.copyfile(out, REFERENCE / f"{workload}.csv")
        print(f"{workload}: reference written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
