import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specfill
from specfill import cli, kernel, recovery
from specfill._config import ExperimentConfig, load_config, parse_config
from specfill._quadrature import QuadratureError
from specfill.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VIOLATIONS,
    ConfigError,
    main,
)
from specfill.weights import WeightSpec

BASE_CONFIG = {
    "weight": {"family": "power_law", "nu": 1.0, "p": "inf"},
    "signal": {"kind": "bandlimited", "omega": math.pi / 2, "seed": 7},
    "n_values": [2, 4],
    "T": 32,
    "S": 128,
    "grid_size": 4096,
}


#: BASE_CONFIG with the optional fields filled in, for the property test.
FULL_CONFIG = {**BASE_CONFIG, "noise": {"sigma": 1e-6, "seeds": [0, 1]},
               "output_path": "out.csv"}

#: Every top-level field of FULL_CONFIG and every field nested in it.
FIELD_PATHS = [(key,) for key in FULL_CONFIG] + [
    (key, sub) for key, value in FULL_CONFIG.items()
    if isinstance(value, dict) for sub in value]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=8)


def run_fresh(*args, **env_overrides):
    """Run ``python *args`` in a fresh interpreter that imports specfill
    from this checkout, with OPENBLAS_NUM_THREADS unset unless given."""
    src = Path(specfill.__file__).resolve().parent.parent
    env = dict(os.environ)
    # This process imported specfill.cli, which set it.
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), env.get("PYTHONPATH"))))
    env.update(env_overrides)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def print_fresh(code, **env_overrides):
    """What ``python -c code`` prints in a fresh interpreter."""
    proc = run_fresh("-c", code, **env_overrides)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def write_config(tmp_path, overrides=None, name="config.json", drop=()):
    raw = json.loads(json.dumps(BASE_CONFIG))
    for key in drop:
        raw.pop(key, None)
    if overrides:
        for key, value in overrides.items():
            if isinstance(value, dict) and isinstance(raw.get(key), dict):
                raw[key].update(value)
            else:
                raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, {"noise": {"sigma": 1e-6,
                                                 "seeds": [2, 0, 1]}})
        config = load_config(path)
        again = parse_config(config.to_dict())
        assert again == config
        assert again.config_hash() == config.config_hash()

    @pytest.mark.parametrize("weight, signal", [
        ({"family": "general_power", "nu": 1.0, "a": 1.5, "p": 4.0},
         {"kind": "powerdecay", "nu": 1.0, "seed": 3}),
        ({"family": "direct", "nu": 1.0}, BASE_CONFIG["signal"]),
    ])
    def test_round_trip_other_families(self, weight, signal):
        # to_dict writes "a": null and "p": "inf" for direct, and
        # parse_config must take both back.
        config = parse_config({**BASE_CONFIG, "weight": weight,
                               "signal": signal})
        again = parse_config(config.to_dict())
        assert again == config
        assert again.config_hash() == config.config_hash()

    def test_noise_seeds_canonicalized(self, tmp_path):
        path = write_config(tmp_path, {"noise": {"sigma": 1e-6,
                                                 "seeds": [2, 0, 1]}})
        assert load_config(path).noise_seeds == (0, 1, 2)

    def test_infinite_p_spelling(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.weight.p == math.inf
        assert config.to_dict()["weight"]["p"] == "inf"

    @pytest.mark.parametrize("overrides, fragment", [
        ({"weight": {"p": 1}}, "p"),
        ({"weight": {"nu": -1}}, "nu"),
        # The acceptance rules of each family.
        ({"weight": {"nu": 0.5, "p": 1.5}},
         r"weight: power-law weight with nu=0.5 requires p > 1/nu = 2.0"),
        ({"weight": {"nu": 2.0, "p": 1.0}},
         r"weight: p must exceed 1 \(or be inf\), got 1.0"),
        ({"weight": {"nu": 0.0}}, "weight: nu must be positive, got 0.0"),
        ({"weight": {"family": "general_power", "nu": 0.0, "a": 1.5}},
         "weight: nu must be positive, got 0.0"),
        ({"weight": {"family": "general_power", "nu": 2.0, "a": 1.5,
                     "p": 0.5}}, "weight: p must exceed 1"),
        ({"weight": {"family": "direct", "nu": -1.0}},
         "weight: nu must be finite and nonnegative, got -1.0"),
        ({"weight": {"family": "general_power", "nu": 1e300, "a": 1e300}},
         "weight: beta must be finite, got inf"),
        ({"weight": {"family": "mystery"}}, "family"),
        ({"signal": {"kind": "chirp"}}, "kind"),
        ({"signal": {"omega": 4.0}}, "omega"),
        ({"n_values": [4, 2]}, "n_values"),
        ({"n_values": [1, 2]}, "n_values"),
        ({"T": 0}, "T"),
        ({"S": 16}, "S"),
        ({"grid_size": 1000}, "grid_size"),
        ({"noise": {"sigma": -1.0, "seeds": [1]}}, "sigma"),
        ({"noise": {"sigma": 0.1, "seeds": []}}, "seeds"),
        ({"weight": 5}, "weight"),
        ({"signal": 7}, "signal"),
        ({"weight": "family"}, "weight"),
        ({"nosie": 1}, "config.nosie: unknown field"),
        ({"weight": {"q": 2.0}}, "weight.q: unknown field"),
        ({"signal": {"omgea": 1.0}}, "signal.omgea: unknown field"),
        ({"noise": {"sigma": 0.1, "seeds": [1], "seed": 1}},
         "noise.seed: unknown field"),
        ({"weight": {"a": 2.0}}, "weight.a: family 'power_law' takes no a"),
        ({"weight": {"family": "direct", "a": 2.0}},
         "weight.a: family 'direct' takes no a"),
        ({"weight": {"family": "direct", "p": 2}},
         "weight.p: family 'direct' needs p"),
        ({"signal": {"kind": "powerdecay", "nu": 1.0}},
         "signal.omega: kind 'powerdecay' takes no omega"),
        ({"signal": {"nu": 1.0}},
         "signal.nu: kind 'bandlimited' takes no nu"),
    ])
    def test_invalid_configs_name_the_field(self, tmp_path, overrides,
                                            fragment):
        path = write_config(tmp_path, overrides)
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)

    def test_oversized_grid_exits_config_error(self, tmp_path, capsys):
        # 2^40 passes every other grid check; the cap rejects it before
        # any array is allocated.
        config = write_config(tmp_path, {"grid_size": 2 ** 40})
        assert main(["recover", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"grid_size: must be <= 2^24 = {2 ** 24}, got {2 ** 40}" in err
        path = write_config(tmp_path, {"grid_size": 2 ** 24})
        assert load_config(path).grid_size == 2 ** 24

    @pytest.mark.parametrize("command, overrides, field", [
        ("robustness", {"noise": {"sigma": math.nan, "seeds": [0]}},
         "noise.sigma"),
        ("kernel", {"weight": {"family": "general_power", "a": math.nan}},
         "weight.a"),
        ("kernel", {"weight": {"p": math.inf}}, "weight.p"),
        ("kernel", {"weight": {"nu": 10 ** 400}}, "weight.nu"),
        # An index with no float: the closed-form eps_n cannot be formed.
        ("kernel", {"n_values": [2, 10 ** 309]}, "n_values"),
        ("recover", {"n_values": [2, 10 ** 309]}, "n_values"),
    ])
    def test_non_finite_numbers_exit_config_error(self, tmp_path, capsys,
                                                  command, overrides,
                                                  field):
        config = write_config(tmp_path, overrides)
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{field}: expected a finite number" in err

    @pytest.mark.parametrize("overrides, field", [
        ({"n_values": [2, 2]}, "n_values"),
        ({"n_values": [2, 4, 4]}, "n_values"),
        ({"noise": {"sigma": 1e-6, "seeds": [1, 1]}}, "noise.seeds"),
        ({"noise": {"sigma": 1e-6, "seeds": [3, 0, 3]}}, "noise.seeds"),
    ])
    def test_duplicate_entries_exit_config_error(self, tmp_path, capsys,
                                                 overrides, field):
        config = write_config(tmp_path, overrides)
        out = tmp_path / "rob.csv"
        assert main(["robustness", "--config", str(config),
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"{field}: must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"signal": {"seed": -1}}, "signal.seed"),
        ({"noise": {"sigma": 1e-6, "seeds": [0, -1]}}, "noise.seeds"),
        ({"noise": {"sigma": 0.0, "seeds": [-3]}}, "noise.seeds"),
    ])
    def test_negative_seeds_exit_config_error(self, tmp_path, capsys,
                                              overrides, field):
        # Philox takes only nonnegative seeds; a negative one must fail as
        # bad input naming its field, before any stage runs.
        config = write_config(tmp_path, {"noise": {"sigma": 1e-6,
                                                   "seeds": [0]},
                                         **overrides})
        out = tmp_path / "rob.csv"
        assert main(["robustness", "--config", str(config),
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"{field}: must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_field_swap_parses_or_raises_config_error(self, data):
        raw = json.loads(json.dumps(FULL_CONFIG))
        path = data.draw(st.sampled_from(FIELD_PATHS))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON_VALUES)
        try:
            config = parse_config(raw)
        except ConfigError:
            return
        assert isinstance(config, ExperimentConfig)

    def test_missing_field(self, tmp_path):
        path = write_config(tmp_path, drop=("n_values",))
        with pytest.raises(ConfigError, match="n_values"):
            load_config(path)

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


class TestWeightFamilies:
    @pytest.mark.parametrize("nu", [0.5, 2.0])
    def test_direct_is_general_power_with_a_one(self, tmp_path, capsys,
                                                nu):
        # Both families give beta = nu, so every output below the header,
        # and every failure, must match.  At nu = 0.5 the companion tail
        # integral converges, so no kernel exists and both exit 2.
        weights = {"direct": {"family": "direct", "nu": nu},
                   "general_power": {"family": "general_power", "nu": nu,
                                     "a": 1.0}}
        specs, results = {}, {}
        for family, weight in weights.items():
            config = write_config(tmp_path, {"weight": weight},
                                  name=f"{family}.json")
            specs[family] = load_config(config).weight
            csv, taps = tmp_path / f"{family}.csv", tmp_path / family
            codes = [main([command, "--config", str(config), "--out",
                           str(out)])
                     for command, out in (("recover", csv), ("kernel", taps))]
            results[family] = (
                codes, capsys.readouterr().err,
                csv.read_text().splitlines()[3:] if csv.exists() else None,
                [f.read_bytes() for f in sorted(taps.glob("*.f64"))])
        assert specs["direct"] == specs["general_power"] == WeightSpec(
            nu, nu, math.inf)
        assert results["direct"] == results["general_power"]
        codes, err, _, taps = results["direct"]
        if nu < 1:
            assert codes == [EXIT_NUMERICAL, EXIT_NUMERICAL]
            assert f"no root for beta={nu!r}" in err
        else:
            assert codes == [EXIT_OK, EXIT_OK] and err == ""
            assert len(taps) == len(BASE_CONFIG["n_values"])


class TestKernelCommand:
    def test_tap_files_and_summary(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n_values": [2]})
        out = tmp_path / "kout"
        assert main(["kernel", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        text = (out / "taps_n2.txt").read_text().splitlines()
        assert text[0].startswith("# specfill-version=")
        rows = text[1:]
        assert len(rows) == 2 * 32 + 1
        center_t, center_val = rows[32].split()
        assert center_t == "0" and float(center_val) == 0.0
        binary = np.fromfile(out / "taps_n2.f64", dtype="<f8")
        assert binary.shape == (65,)
        summary = capsys.readouterr().out
        assert "epsilon_n=" in summary and "kappa=" in summary

    def test_summary_line_fields(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n_values": [2, 4]})
        assert main(["kernel", "--config", str(config),
                     "--out", str(tmp_path / "kout")]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for n, line in zip((2, 4), lines):
            prefix, fields = line.split(": ", 1)
            assert prefix == f"kernel n={n}"
            pairs = [field.split("=") for field in fields.split()]
            assert [name for name, _ in pairs] == [
                "epsilon_n", "kappa", "en_residual", "zero_residual"]
            for _, value in pairs:
                float(value)

    def test_epsilon_strictly_decreasing_across_n(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n_values": [2, 4, 8]})
        out = tmp_path / "kout"
        assert main(["kernel", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("kernel n=")]
        eps = [float(l.split("epsilon_n=")[1].split()[0]) for l in lines]
        assert eps == sorted(eps, reverse=True)

    def test_invalid_p_exits_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {"weight": {"p": 1}})
        code = main(["kernel", "--config", str(config),
                     "--out", str(tmp_path / "k")])
        assert code == EXIT_CONFIG
        assert "exceed 1" in capsys.readouterr().err

    # A float holds every index up to 2^53, and past it pi - 1/n is pi; a
    # larger index is bad input, named before any output is written.  At
    # 10^294 the closed form still resolves, so without the bound the tap
    # file name (every digit of n) would fail as a too-long output path.
    @pytest.mark.parametrize("command, n", [
        ("kernel", 10 ** 300), ("recover", 10 ** 300), ("kernel", 10 ** 294),
        ("kernel", 2 ** 53 + 1)])
    def test_huge_band_index_exits_config_error(self, tmp_path, capsys,
                                                command, n):
        config = write_config(tmp_path, {"n_values": [2, n]})
        out = tmp_path / "k"
        code = main([command, "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: n_values: must be at most 2^53 = "
            "9007199254740992\n")
        assert not out.exists()

    def test_band_index_2_53_accepted(self, tmp_path):
        config = write_config(tmp_path, {"n_values": [2, 2 ** 53]})
        assert load_config(config).n_values == (2, 2 ** 53)

    def test_inadmissible_weight_exits_numerical(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"weight": {"family": "direct", "nu": 0.0}})
        code = main(["kernel", "--config", str(config),
                     "--out", str(tmp_path / "k")])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_quadrature_error_exits_numerical(self, tmp_path, capsys,
                                              monkeypatch):
        def fail(spec, T):
            raise QuadratureError("no convergence")

        monkeypatch.setattr(kernel, "synthesize_taps", fail)
        config = write_config(tmp_path)
        code = main(["kernel", "--config", str(config),
                     "--out", str(tmp_path / "k")])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure in stage 'kernel': no convergence\n")


class TestRecoverCommand:
    def test_zero_bound_column_for_in_band_signal(self, tmp_path):
        config = write_config(tmp_path, {"n_values": [2]})
        out = tmp_path / "r.csv"
        assert main(["recover", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        header = lines[3].split(",")
        row = lines[4].split(",")
        assert row[header.index("spectral_bound")] == "0.0"
        assert header == list(recovery.CSV_COLUMNS)
        assert len(row) == len(header)

    def test_byte_identical_across_runs(self, tmp_path):
        config = write_config(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv", "c.csv"):
            out = tmp_path / name
            assert main(["recover", "--config", str(config), "--out",
                         str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        # kernel's tap files, text and binary, rerun byte for byte too.
        runs = []
        for name in ("a", "b", "c"):
            out = tmp_path / f"taps_{name}"
            assert main(["kernel", "--config", str(config), "--out",
                         str(out)]) == EXIT_OK
            runs.append({path.name: path.read_bytes()
                         for path in sorted(out.iterdir())})
        assert sorted(runs[0]) == [f"taps_n{n}.{ext}" for n in (2, 4)
                                   for ext in ("f64", "txt")]
        assert runs[0] == runs[1] == runs[2]

    def test_header_carries_version_hash_seeds(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "r.csv"
        main(["recover", "--config", str(config), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# specfill-version=")
        assert lines[1].startswith("# config-sha256=")
        assert lines[2] == "# seeds=7"

    def test_output_path_from_config(self, tmp_path):
        target = tmp_path / "from_config.csv"
        config = write_config(tmp_path, {"output_path": str(target)})
        assert main(["recover", "--config", str(config)]) == EXIT_OK
        assert target.exists()

    def test_missing_output_path(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["recover", "--config", str(config)]) == EXIT_CONFIG
        assert "output_path" in capsys.readouterr().err

    # The README config and the grid_noise benchmark config, each at its S
    # and at another valid S: the data rows differ only in the S column.
    @pytest.mark.parametrize("overrides, S_values", [
        ({"n_values": [2, 4, 8, 16, 32], "T": 2048, "grid_size": 2 ** 18,
          "noise": {"sigma": 1e-6, "seeds": [0, 1, 2]}}, (4096, 8192)),
        ({"n_values": [2, 32], "T": 64, "grid_size": 2 ** 20,
          "noise": {"sigma": 1e-6, "seeds": list(range(8))}}, (32768, 64))],
        ids=["readme", "grid_noise"])
    def test_signal_window_moves_no_number(self, tmp_path, overrides,
                                           S_values):
        signal = {"kind": "powerdecay", "nu": 1.0, "seed": 3}
        bodies = []
        for S in S_values:
            raw = {**BASE_CONFIG, **overrides, "signal": signal, "S": S}
            config = tmp_path / f"config_{S}.json"
            config.write_text(json.dumps(raw))
            out = tmp_path / f"r_{S}.csv"
            assert main(["recover", "--config", str(config),
                         "--out", str(out)]) == EXIT_OK
            rows = [line.split(",") for line in out.read_text().splitlines()
                    if not line.startswith("#")]
            s_column = rows[0].index("S")
            assert {row[s_column] for row in rows[1:]} == {str(S)}
            bodies.append([row[:s_column] + row[s_column + 1:]
                           for row in rows])
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("command, make_out", [
        ("recover", lambda path: path.mkdir()),
        ("kernel", lambda path: path.write_text("")),
    ], ids=["recover-out-is-directory", "kernel-out-is-file"])
    def test_unwritable_output_exits_config_error(self, tmp_path, capsys,
                                                  command, make_out):
        config = write_config(tmp_path)
        out = tmp_path / "taken"
        make_out(out)
        assert main([command, "--config", str(config),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: output_path: ")
        assert "Traceback" not in err


class TestRobustnessCommand:
    def test_rows_violations_and_zero_sigma_identity(self, tmp_path):
        # Power-decay signal: epsilon_est is well above the truncation
        # floor, so sigma = 0 shows both the column identity and a clean
        # violation count.
        config = write_config(
            tmp_path,
            {"signal": {"kind": "powerdecay", "nu": 1.0, "seed": 3},
             "n_values": [2], "noise": {"sigma": 0.0, "seeds": [0, 1]}},
            drop=("signal",))
        out = tmp_path / "rob.csv"
        code = main(["robustness", "--config", str(config),
                     "--out", str(out)])
        lines = out.read_text().splitlines()
        # Final summary row carries the violation count.  At sigma = 0 the
        # bound has no slack at all for finite-window truncation, so only
        # its format and its agreement with the exit code are pinned here;
        # the zero-violation guarantee is exercised at sigma > 0 below.
        assert lines[-1].startswith("# violations=")
        violations = int(lines[-1].rsplit("=", 1)[1])
        assert code == (EXIT_VIOLATIONS if violations else EXIT_OK)
        header = lines[3].split(",")
        rows = [l.split(",") for l in lines[4:-1]]
        assert len(rows) == 2
        for row in rows:
            # sigma = 0: the robust bound column equals epsilon_est exactly.
            assert (row[header.index("robust_bound")]
                    == row[header.index("spectral_bound")])

    def test_small_noise_run(self, tmp_path):
        config = write_config(
            tmp_path,
            {"n_values": [2], "noise": {"sigma": 1e-9, "seeds": [0, 1, 2]}})
        out = tmp_path / "rob.csv"
        assert main(["robustness", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[-1] == "# violations=0"
        assert len(lines) == 4 + 3 + 1

    def test_stderr_stays_empty(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"n_values": [2], "noise": {"sigma": 1e-9, "seeds": [0]}})
        assert main(["robustness", "--config", str(config),
                     "--out", str(tmp_path / "rob.csv")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, noise", [
        ("recover", None), ("robustness", {"sigma": 1e-6, "seeds": [0, 1]})])
    def test_half_grid_dead_at_first_row_transform(self, tmp_path,
                                                   monkeypatch, command,
                                                   noise):
        # The command hands the sweep the config's builder, not a built
        # spectrum, so no caller's frame keeps the half-grid alive while
        # the rows are transformed.
        half_grids = []
        alive = []
        build_signal = ExperimentConfig.build_signal
        ifft = np.fft.ifft

        def tracked(config):
            signal = build_signal(config)
            half_grids.append(weakref.ref(signal.positive))
            return signal

        def spy(*args, **kwargs):
            alive.append(half_grids[0]() is not None)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(ExperimentConfig, "build_signal", tracked)
        monkeypatch.setattr(np.fft, "ifft", spy)
        overrides = {"signal": {"kind": "powerdecay", "nu": 1.0, "seed": 3},
                     "n_values": [2], "T": 64, "S": 64, "grid_size": 2 ** 20}
        if noise is not None:
            overrides["noise"] = noise
        config = write_config(tmp_path, overrides, drop=("signal",))
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / "out.csv")]) == EXIT_OK
        assert len(half_grids) == 1
        assert alive and not any(alive)

    def test_overflowing_noise_row_counts_as_violation(self, tmp_path,
                                                        capsys):
        # sigma = 1e308 is finite, but its band amplitude overflows; the
        # noise stage rejects it before any row exists.
        config = write_config(
            tmp_path,
            {"n_values": [2], "noise": {"sigma": 1e308, "seeds": [0]}})
        out = tmp_path / "rob.csv"
        assert main(["robustness", "--config", str(config),
                     "--out", str(out)]) == EXIT_NUMERICAL
        assert "sigma=1e+308" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_transform_exits_numerical(self, tmp_path):
        # sigma = 1e307 gives a finite band amplitude (about 1e308), but
        # the inverse transform of the noisy spectrum overflows.  A fresh
        # process keeps the default warning filters, so any numpy warning
        # would show on its stderr.
        config = write_config(
            tmp_path,
            {"n_values": [2], "noise": {"sigma": 1e307, "seeds": [0]}})
        out = tmp_path / "rob.csv"
        proc = run_fresh("-m", "specfill", "robustness",
                         "--config", str(config), "--out", str(out))
        assert proc.returncode == EXIT_NUMERICAL
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure in stage "
                                   "'robustness': inverse transform "
                                   "overflows")
        assert not out.exists()

    def test_nan_estimate_counts_as_violation(self, tmp_path, monkeypatch):
        # A NaN error compares false against any bound; the row is a
        # violation, not a pass.
        monkeypatch.setattr(recovery, "recover_center",
                            lambda taps, signal: math.nan)
        config = write_config(
            tmp_path,
            {"n_values": [2], "noise": {"sigma": 1e-9, "seeds": [0]}})
        out = tmp_path / "rob.csv"
        assert main(["robustness", "--config", str(config),
                     "--out", str(out)]) == EXIT_VIOLATIONS
        lines = out.read_text().splitlines()
        header = lines[3].split(",")
        assert lines[4].split(",")[header.index("abs_error")] == "nan"
        assert lines[-1] == "# violations=1"

    def test_noisy_recover_writes_the_robustness_csv(self, tmp_path,
                                                     capsys):
        config = write_config(
            tmp_path,
            {"n_values": [2], "noise": {"sigma": 1e-9, "seeds": [0, 1]}})
        outs = {}
        for command in ("recover", "robustness"):
            outs[command] = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(config),
                         "--out", str(outs[command])]) == EXIT_OK
        assert (outs["recover"].read_bytes()
                == outs["robustness"].read_bytes())
        assert outs["recover"].read_text().endswith("\n# violations=0\n")
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == (f"recover: wrote 2 rows to {outs['recover']}; "
                              f"violations=0")

    def test_noise_required(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["robustness", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert "noise" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["kernel"], "the following arguments are required: --config"),
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ], ids=["no-config", "no-command", "unknown-command"])
    def test_exit_config_error(self, capsys, argv, message):
        # argparse's own code is 2, which this CLI uses for a numerical
        # failure.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: specfill")
        assert f": error: {message}" in err

    def test_module_run_as_script(self, tmp_path):
        # python -m specfill.cli runs a second copy of the module; a config
        # error from _config must still exit 1.
        config = write_config(tmp_path, {"grid_size": 1000})
        proc = run_fresh("-m", "specfill.cli", "kernel", "--config",
                         str(config), "--out", str(tmp_path / "out"))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error: grid_size: must be")

    def test_cli_load_config_forwards(self, tmp_path):
        # perfbench/tracing.py imports load_config from specfill.cli.
        path = write_config(tmp_path)
        config = cli.load_config(path)
        assert isinstance(config, ExperimentConfig)
        assert config == load_config(path)
        assert print_fresh(
            "import sys; from specfill.cli import load_config; "
            "print('specfill._config' in sys.modules)") == "False"


class TestBlasThreadPin:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs Linux /proc thread listing")
    def test_cli_import_starts_no_blas_thread(self):
        # specfill.cli loads no numpy itself; a command imports it after
        # the pin has run.  Without the pin, numpy's OpenBLAS starts a
        # spinning worker thread on import and this reads 2.
        assert print_fresh(
            "import os, specfill.cli, numpy; "
            "print(len(os.listdir('/proc/self/task')))") == "1"

    def test_exported_value_wins(self):
        assert print_fresh(
            "import os, specfill.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'])",
            OPENBLAS_NUM_THREADS="2") == "2"

    def test_package_import_loads_no_numpy(self):
        # The pin in specfill.cli only works if nothing imported before
        # it (the package __init__, or __main__) loads numpy.
        assert print_fresh(
            "import sys, specfill; "
            "print('numpy' in sys.modules)") == "False"


#: Runs ``python -m specfill <argv>`` in this process, then prints its
#: exit code and every module it loaded as the last line of stdout.  json
#: is imported only after the list is taken.
RUN_AND_LIST_MODULES = (
    "import runpy, sys\n"
    "sys.argv[0] = 'specfill'\n"
    "try:\n"
    "    runpy.run_module('specfill', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "modules = sorted(sys.modules)\n"
    "import json\n"
    "print(json.dumps([code, modules]))\n")


def run_and_list_modules(*argv):
    """Exit code, loaded modules and stderr of a fresh CLI process."""
    proc = run_fresh("-c", RUN_AND_LIST_MODULES, *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules), proc.stderr


class TestImportFootprint:
    """Each command loads only the modules it runs, after its config has
    parsed; answers that need no numbers load no numpy."""

    @pytest.mark.parametrize("argv, expected", [
        (["--version"], EXIT_OK), (["--help"], EXIT_OK),
        (["kernel", "--help"], EXIT_OK), (["kernel"], EXIT_CONFIG)])
    def test_version_and_help_load_no_numpy(self, argv, expected):
        # The parser answers these alone: neither the config code nor
        # what it imports is loaded.
        code, modules, _ = run_and_list_modules(*argv)
        assert code == expected
        assert not modules & {"numpy", "specfill._config",
                              "specfill._weightspec", "json", "dataclasses"}

    @pytest.mark.parametrize("command, overrides, out, message", [
        ("recover", {"nosie": 1}, True, "config.nosie: unknown field"),
        ("kernel", {"grid_size": 1000}, True, "grid_size: must be"),
        ("validate-weight", {"weight": {"nu": -1.0}}, False,
         "weight: nu must be positive"),
        ("robustness", {}, True, "noise: required for robustness"),
        ("kernel", {}, False, "output_path: required for kernel"),
    ])
    def test_config_errors_load_no_numpy(self, tmp_path, command,
                                         overrides, out, message):
        config = write_config(tmp_path, overrides)
        argv = [command, "--config", str(config)]
        if out:
            argv += ["--out", str(tmp_path / "out")]
        code, modules, err = run_and_list_modules(*argv)
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {message}")
        assert "numpy" not in modules
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, loaded, unloaded", [
        ("validate-weight", "specfill._weightspec",
         {"numpy", "specfill.weights", "specfill._quadrature",
          "specfill.kernel", "specfill.signals", "specfill.recovery"}),
        ("kernel", "specfill.kernel",
         {"specfill.signals", "specfill.recovery", "specfill._philox"}),
    ])
    def test_command_loads_only_its_modules(self, tmp_path, command, loaded,
                                            unloaded):
        config = write_config(tmp_path, {"n_values": [2]})
        code, modules, _ = run_and_list_modules(
            command, "--config", str(config), "--out", str(tmp_path / "out"))
        assert code == EXIT_OK
        assert loaded in modules
        assert not modules & unloaded

    def test_fresh_robustness_csv_matches_in_process(self, tmp_path):
        config = write_config(
            tmp_path,
            {"n_values": [2, 4], "noise": {"sigma": 1e-6, "seeds": [0, 1]}})
        fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
        proc = run_fresh("-m", "specfill", "robustness", "--config",
                         str(config), "--out", str(fresh))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert main(["robustness", "--config", str(config),
                     "--out", str(here)]) == EXIT_OK
        assert fresh.read_bytes() == here.read_bytes()


class TestValidateWeightCommand:
    def test_admissible(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["validate-weight", "--config", str(config)]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_power_law_at_its_p_boundary(self, tmp_path, capsys):
        # nu = 0.5, p = 4 > 1/nu is a valid power_law config, and
        # (beta - nu) q = 2/3 < 1 makes it admissible.
        config = write_config(tmp_path, {"weight": {"nu": 0.5, "p": 4.0}})
        assert main(["validate-weight", "--config", str(config)]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    def test_inadmissible(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"weight": {"family": "direct", "nu": 0.0}})
        assert main(["validate-weight", "--config",
                     str(config)]) == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert out.startswith("weight nu=0.0 beta=0.0 p=inf\n")
        assert "FAIL" in out
