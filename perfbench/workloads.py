"""The benchmark's workloads: configs generated from a seed, and the CLI
commands each workload runs.

A workload seed picks the signal seed and the noise seeds; every size (n
values, T, S, grid) is fixed, so runs on different seeds do the same amount
of work.  Seed 0 reproduces the README example config exactly (signal seed 3,
noise seeds 0, 1, 2).
"""

from __future__ import annotations

DEFAULT_SEED = 0


#: CLI subcommands one invocation of each workload runs, in order.
COMMANDS = {
    "readme_robustness": ("robustness",),
    "grid_noise": ("robustness",),
    "general_kernel": ("validate-weight", "kernel"),
}


def make_config(workload: str, seed: int) -> dict:
    """The JSON config a workload hands the CLI for one benchmark seed."""
    power_law = {"family": "power_law", "nu": 1.0, "p": "inf"}
    powerdecay = {"kind": "powerdecay", "nu": 1.0, "seed": 3 + seed}
    if workload == "readme_robustness":
        return {
            "weight": power_law,
            "signal": powerdecay,
            "n_values": [2, 4, 8, 16, 32],
            "T": 2048,
            "S": 4096,
            "grid_size": 2 ** 18,
            "noise": {"sigma": 1e-6,
                      "seeds": [3 * seed, 3 * seed + 1, 3 * seed + 2]},
        }
    if workload == "grid_noise":
        return {
            "weight": power_law,
            "signal": powerdecay,
            "n_values": [2, 32],
            "T": 64,
            "S": 32768,
            "grid_size": 2 ** 20,
            "noise": {"sigma": 1e-6,
                      "seeds": list(range(8 * seed, 8 * seed + 8))},
        }
    if workload == "general_kernel":
        return {
            "weight": {"family": "general_power", "nu": 1.0, "a": 1.5,
                       "p": "inf"},
            "signal": {"kind": "bandlimited", "omega": 2.5, "seed": 3 + seed},
            "n_values": [2, 8, 32],
            "T": 4096,
            "S": 4096,
            "grid_size": 2 ** 17,
        }
    raise ValueError(f"unknown workload {workload!r}")
