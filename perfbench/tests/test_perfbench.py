"""Self-tests of the benchmark: configs, metric names and the checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
from run import MIN_SAMPLES, REFERENCE, ROOT, keep_going
from workloads import COMMANDS, DEFAULT_SEED, make_config

README_CONFIG = {
    "weight": {"family": "power_law", "nu": 1.0, "p": "inf"},
    "signal": {"kind": "powerdecay", "nu": 1.0, "seed": 3},
    "n_values": [2, 4, 8, 16, 32],
    "T": 2048,
    "S": 4096,
    "grid_size": 262144,
    "noise": {"sigma": 1e-6, "seeds": [0, 1, 2]},
}


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_config_is_a_function_of_the_seed(workload):
    for seed in (0, 1, 7, 2 ** 40):
        assert make_config(workload, seed) == make_config(workload, seed)
    assert make_config(workload, 1) != make_config(workload, 2)
    sizes = [{k: v for k, v in make_config(workload, s).items()
              if k not in ("signal", "noise")} for s in (0, 5)]
    assert sizes[0] == sizes[1]


def test_default_seed_reproduces_the_readme_config():
    assert make_config("readme_robustness", DEFAULT_SEED) == README_CONFIG


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {f"{layer}_s" for layer in tracing.LAYERS} <= per_layer
    assert [w["name"] for w in spec["workloads"]] == list(COMMANDS)


def test_sampling_stops_before_overrunning_the_run(monkeypatch):
    monkeypatch.setattr("run.time.perf_counter", lambda: 100.0)
    assert keep_going([50.0] * (MIN_SAMPLES - 1), start=100.0, seconds=1.0)
    assert keep_going([3.0, 4.0, 5.0], start=90.0, seconds=14.0)
    assert not keep_going([3.0, 4.0, 5.0], start=90.0, seconds=13.9)


@pytest.fixture
def csv_copy(tmp_path):
    path = tmp_path / "report.csv"
    shutil.copyfile(REFERENCE / "readme_robustness.csv", path)
    return path


def _edit_cell(path, row_index, column, value):
    lines = path.read_text().splitlines()
    header_at = next(i for i, line in enumerate(lines)
                     if not line.startswith("#"))
    col = lines[header_at].split(",").index(column)
    cells = lines[header_at + 1 + row_index].split(",")
    cells[col] = value
    lines[header_at + 1 + row_index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _check(path, exit_codes=(0,)):
    return checks.check_invocation(
        "readme_robustness", make_config("readme_robustness", DEFAULT_SEED),
        path, "", list(exit_codes), REFERENCE, default_seed=True)


def test_reference_csv_passes(csv_copy):
    outcome = _check(csv_copy)
    assert (outcome.attempted, outcome.failed, outcome.problems) == (15, 0, [])


@pytest.mark.parametrize("column, value", [
    ("estimate", "nan"),
    ("robust_bound", "inf"),
    ("error", "sweep cell n=2 failed"),
    ("estimate", "-4.0"),
    ("zero_residual", "1e-6"),
])
def test_a_doctored_row_fails(csv_copy, column, value):
    _edit_cell(csv_copy, 4, column, value)
    outcome = _check(csv_copy)
    assert outcome.failed == 1, outcome.problems


def test_an_all_nan_csv_fails_despite_no_violations(csv_copy):
    for row in range(15):
        for column in ("estimate", "truth", "abs_error", "robust_bound"):
            _edit_cell(csv_copy, row, column, "nan")
    assert "# violations=0" in csv_copy.read_text()
    assert _check(csv_copy).failed == 15


def test_a_missing_row_fails(csv_copy):
    lines = csv_copy.read_text().splitlines()
    del lines[5]
    csv_copy.write_text("\n".join(lines) + "\n")
    assert _check(csv_copy).failed == 1


def test_a_new_column_does_not_fail(csv_copy):
    lines = csv_copy.read_text().splitlines()
    lines = [line if line.startswith("#")
             else line + (",untruncated_error" if line.startswith("n,")
                          else ",0.5")
             for line in lines]
    csv_copy.write_text("\n".join(lines) + "\n")
    assert _check(csv_copy).failed == 0


def test_a_nonzero_exit_fails_every_item(csv_copy):
    outcome = _check(csv_copy, exit_codes=(2,))
    assert outcome.failed == outcome.attempted == 15


def test_the_replica_estimate_check_fires_on_a_mismatch(csv_copy):
    header, rows = checks.read_csv(csv_copy)
    col = header.index("estimate")
    replica = {(int(r[0]), int(r[header.index("seed")])): float(r[col])
               for r in rows}
    assert checks.compare_estimates(csv_copy, replica) == []
    key = min(replica)
    replica[key] = math.nextafter(replica[key], math.inf)
    assert len(checks.compare_estimates(csv_copy, replica)) == 1


@pytest.fixture
def tap_dir(tmp_path):
    config = make_config("general_kernel", DEFAULT_SEED)
    T = config["T"]
    lines = []
    for n in config["n_values"]:
        taps = np.fromfile(REFERENCE / "general_kernel" / f"taps_n{n}.f64",
                           dtype="<f8")
        taps.tofile(tmp_path / f"taps_n{n}.f64")
        (tmp_path / f"taps_n{n}.txt").write_text("# header\n" + "".join(
            f"{t} {float(taps[t + T])!r}\n" for t in range(-T, T + 1)))
        lines.append(f"kernel n={n}: epsilon_n=0.1 zero_residual=1e-15")
    return tmp_path, config, "\n".join(lines)


def test_reference_taps_pass_and_a_nonzero_center_fails(tap_dir):
    out, config, stdout = tap_dir
    ref = REFERENCE / "general_kernel"
    assert checks.check_taps(out, config, stdout, ref).failed == 0
    T = config["T"]
    taps = np.fromfile(out / "taps_n8.f64", dtype="<f8")
    taps[T] = 1e-300
    taps.tofile(out / "taps_n8.f64")
    outcome = checks.check_taps(out, config, stdout, ref)
    assert outcome.failed == 1, outcome.problems


def test_taps_off_the_reference_fail(tap_dir):
    out, config, stdout = tap_dir
    taps = np.fromfile(out / "taps_n2.f64", dtype="<f8")
    taps[0] += 1e-11
    taps.tofile(out / "taps_n2.f64")
    outcome = checks.check_taps(out, config, stdout,
                                REFERENCE / "general_kernel")
    assert outcome.failed == 1, outcome.problems


def test_replica_tap_check_fires_on_a_mismatch(tap_dir, tmp_path_factory):
    out, config, _ = tap_dir
    other = tmp_path_factory.mktemp("replica")
    for n in config["n_values"]:
        shutil.copyfile(out / f"taps_n{n}.f64", other / f"taps_n{n}.f64")
    assert checks.compare_tap_files(out, other, config["n_values"]) == []
    (other / "taps_n32.f64").write_bytes(b"\0" * 8)
    assert len(checks.compare_tap_files(out, other, config["n_values"])) == 1


def test_tracer_records_parents_and_cells():
    tracer = tracing.Tracer()
    with tracer.span("workload"):
        with tracer.span("cell", 4):
            with tracer.span("kernel.taps", 4):
                pass
    root, cell, leaf = tracer.spans
    assert (root.parent, cell.parent, leaf.parent) == (None, 0, 1)
    assert (leaf.name, leaf.cell) == ("kernel.taps", 4)
    assert root.start <= cell.start <= leaf.start <= leaf.end <= root.end
    assert tracer.layer_seconds()["kernel.taps"] == leaf.end - leaf.start
