"""CLI config handling, dispatch, exit codes, and output determinism."""

import json

import numpy as np
import pytest

from nlwaves.cli import main, parse_config
from nlwaves.errors import ConfigError
from nlwaves.shapes import evaluate_on_nodes
from nlwaves.spectral import Grid


def write_config(tmp_path, **entries):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(entries))
    return str(path)


class TestParseConfig:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path), {})
        assert cfg["grid_l"] == 20.0
        assert cfg["grid_n"] == 1024
        assert cfg["s"] == 3.0
        assert cfg["dt"] is None  # CFL-derived downstream
        assert cfg["kernel"] == "triangular"

    def test_flags_override_file_values(self, tmp_path):
        path = write_config(tmp_path, epsilon=0.5, grid_n=256)
        cfg = parse_config(path, {"epsilon": 0.25, "t_end": 2.0})
        assert cfg["epsilon"] == 0.25
        assert cfg["grid_n"] == 256
        assert cfg["t_end"] == 2.0

    def test_negative_delta_names_field(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, delta=-0.1), {})
        assert info.value.field == "delta"

    def test_ascending_delta_list_names_ordering(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, delta_list=[0.1, 0.2, 0.4]), {})
        assert "delta_list ordering" in str(info.value)

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, grid_m=12), {})
        assert info.value.field == "grid_m"

    def test_dirac_limit_string_means_classical(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, delta="dirac-limit"), {})
        assert cfg["delta"] is None


class TestKernelInfo:
    def test_prints_symbol_table(self, tmp_path, capsys):
        code = main(["kernel-info", "triangular", "--grid-n", "64", "--grid-l", "10",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "xi,symbol,k_symbol"
        assert len(lines) == 1 + 32  # nonnegative frequencies of a 64-point grid
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["command"] == "kernel-info"
        assert summary["hypotheses_passed"] is True
        assert summary["config"]["kernel"] == "triangular"

    def test_table_kernel_from_file(self, tmp_path, capsys):
        xi = np.linspace(0, 5, 50)
        table = tmp_path / "kern.txt"
        np.savetxt(table, np.column_stack([xi, 1.0 / (1.0 + xi**2)]))
        code = main(["kernel-info", str(table), "--grid-n", "16", "--grid-l", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "xi,symbol" in capsys.readouterr().out

    def test_unknown_kernel_exits_3(self, tmp_path, capsys):
        code = main(["kernel-info", "box", "--out", str(tmp_path)])
        assert code == 3
        assert "kernel" in capsys.readouterr().err


class TestSimulate:
    def test_small_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "simulate", "--out", str(out), "--grid-n", "64", "--grid-l", "10",
            "--t-end", "0.1", "--delta", "0.5", "--emit-timeseries",
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["breakdown"] is None
        assert summary["final"]["t"] == 0.1
        assert summary["config"]["grid_n"] == 64
        ts = (out / "timeseries.csv").read_text().splitlines()
        assert ts[0] == "t,E_s,monitor,u_linf"
        assert (out / "final_u.csv").exists()
        assert (out / "final_v.csv").exists()

    def test_timeseries_ends_at_t_end(self, tmp_path):
        # two steps, fewer than sample_stride: rows at t = 0 and t = t_end
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--grid-n", "64", "--grid-l", "10",
                     "--t-end", "0.1", "--dt", "0.06", "--emit-timeseries"]) == 0
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.1]

    def test_breakdown_exits_2_with_halt_time(self, tmp_path, capsys):
        cfg = write_config(tmp_path, breakdown_threshold=0.1, t_end=1.0,
                           grid_n=64, grid_l=10.0, delta=0.5)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "breakdown" in err and "t=" in err
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["breakdown"]["monitor"] > 0.1

    def test_config_error_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, delta=-1.0)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["simulate", "--epsilon", "abc"], "epsilon"),
            (["simulate", "--grid-n", "1e3"], "grid_n"),
            (["simulate", "--n", "2.0"], "n"),
            (["simulate", "--dt", "-1e-3"], "dt"),
            (["simulate", "--epsilon", "-Infinity"], "epsilon"),
            (["simulate", "--bogus", "1"], None),
            ([], None),
        ],
        ids=["epsilon-abc", "grid_n-1e3", "n-2.0", "dt--1e-3", "epsilon--Infinity",
             "unknown-flag", "no-command"],
    )
    def test_bad_flag_or_usage_exits_3(self, tmp_path, capsys, argv, key):
        assert main([*argv, "--out", str(tmp_path)] if argv else []) == 3
        if key is not None:
            assert f"config field '{key}'" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["simulate", "--help"]) == 0
        assert "--grid-n" in capsys.readouterr().out


class TestConfigTypes:
    @pytest.mark.parametrize(
        "key, text",
        [
            ("grid_l", '"x"'),
            ("grid_l", "null"),
            ("delta_list", '["a"]'),
            ("t_end", "1e400"),
            ("t_end", "Infinity"),
            pytest.param("t_end", "1" + "0" * 400, id="t_end-int-1e400"),
            ("n", "true"),
            ("sample_stride", "true"),
            ("dt", "NaN"),
            ("epsilon", "NaN"),
            ("breakdown_threshold", "Infinity"),
        ],
    )
    def test_bad_numeric_value_exits_3_naming_key(self, tmp_path, capsys, key, text):
        path = tmp_path / "config.json"
        path.write_text(f'{{"grid_n": 64, "grid_l": 10.0, "{key}": {text}}}')
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 3
        assert f"config field '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, table",
        [
            ("kernel", 5, None),
            ("kernel", ["triangular"], None),
            pytest.param("kernel", None, "0 1\n1 x\n", id="kernel-non-numeric-table"),
            pytest.param("kernel", None, "0 1 1\n1 0.5 0.5\n", id="kernel-three-column-table"),
            ("emit_timeseries", "no", None),
        ],
    )
    def test_bad_value_exits_3_naming_key(self, tmp_path, capsys, key, value, table):
        if table is not None:
            value = str(tmp_path / "kern.txt")
            (tmp_path / "kern.txt").write_text(table)
        cfg = write_config(tmp_path, grid_n=64, grid_l=10.0, t_end=0.05, **{key: value})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
        assert f"config field '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "kernel-info", "converge-dispersion"])
    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("column", [0, 1], ids=["xi", "value"])
    def test_non_finite_kernel_table_exits_3(self, tmp_path, capsys, command, entry, column):
        xi = np.linspace(0, 5, 50)
        table = np.column_stack([xi, 1.0 / (1.0 + xi**2)])
        table[-1, column] = entry
        np.savetxt(tmp_path / "kern.txt", table)
        cfg = write_config(tmp_path, kernel=str(tmp_path / "kern.txt"), grid_n=64, grid_l=10.0,
                           t_end=0.05, delta=0.5, delta_list=[0.4, 0.2])
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 3
        assert "config field 'kernel'" in capsys.readouterr().err
        assert not (tmp_path / "run" / "summary.json").exists()


class TestInitialDataSpecs:
    @pytest.mark.parametrize(
        "command, key, spec",
        [
            ("simulate", "u0", {"shape": "blob"}),
            ("simulate", "v0", {"shape": ["x"]}),
            ("simulate", "u0", {"shape": "samples", "values": [1.0, 2.0]}),
            ("simulate", "u0", {"shape": "samples"}),
            ("simulate", "u0", {"shape": "samples", "values": ["a"] * 64}),
            ("simulate", "u0", {"shape": "gaussian", "a": 0.5}),
            ("simulate", "u0", {"shape": "gaussian", "a": 0.5, "b": 2.0, "c": 1.0}),
            ("simulate", "u0", 5),
            ("simulate", "u0", {"shape": "gaussian", "a": "x", "b": 2.0}),
            ("simulate", "v0", {"shape": "sine", "a": 0.1, "k": True}),
            ("converge-dispersion", "u0", {"shape": "blob"}),
            ("converge-lattice", "v0", {"shape": "samples", "values": [0.0] * 64}),
        ],
    )
    def test_bad_spec_exits_3_naming_key(self, tmp_path, capsys, command, key, spec):
        h = 2 * 10.0 / 64
        cfg = write_config(tmp_path, grid_n=64, grid_l=10.0, t_end=0.05,
                           delta_list=[2 * h, h], **{key: spec})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 3
        assert f"config field '{key}'" in capsys.readouterr().err


class TestNonFiniteOutputs:
    @pytest.mark.parametrize("command, changes", [
        pytest.param("simulate", {}, id="simulate"),
        pytest.param("converge-dispersion", {}, id="converge-dispersion"),
        pytest.param("kernel-info", {}, id="kernel-info"),
        pytest.param("simulate", {"n": 2, "t_end": 0.0}, id="simulate-energy-weight"),
    ])
    def test_overflow_exits_1_without_invalid_json(self, tmp_path, capsys, command, changes):
        # finite values whose run overflows: a table kernel whose slope
        # overflows between entries one ulp either side of the grid frequency
        # pi/10, or a huge u0 under a huge breakdown threshold; with n = 2 and
        # no step, the energy weight u^2 of the initial state overflows
        xi1 = Grid(10.0, 64).freqs[1]
        xi = [0.0, np.nextafter(xi1, 0.0), np.nextafter(xi1, 1.0), 5.0]
        np.savetxt(tmp_path / "kern.txt", np.column_stack([xi, [1.0, 1.0, 1e308, 0.0]]))
        kernel = str(tmp_path / "kern.txt") if command == "kernel-info" else "triangular"
        settings = dict(kernel=kernel, grid_n=64, grid_l=10.0, t_end=0.05,
                        delta_list=[0.4, 0.2], u0={"shape": "gaussian", "a": 1e155, "b": 2.0},
                        epsilon=1.0, breakdown_threshold=1e300)
        cfg = write_config(tmp_path, **{**settings, **changes})
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "numeric failure" in capsys.readouterr().err
        summary = out / "summary.json"
        if summary.exists():
            json.loads(summary.read_text(), parse_constant=pytest.fail)
        assert list(out.iterdir()) == []

    def test_norms_of_huge_finite_data_do_not_overflow(self, tmp_path):
        # with eps = 0 the run is linear, so scaling u0 by 2**515 scales every
        # sweep error and the energy by 2**515 exactly
        results = []
        for a in (0.5, np.ldexp(0.5, 515)):
            (tmp_path / str(a)).mkdir()
            cfg = write_config(tmp_path / str(a), grid_n=64, grid_l=10.0, t_end=0.05,
                               delta_list=[0.4, 0.2], epsilon=0.0, breakdown_threshold=1e300,
                               u0={"shape": "gaussian", "a": a, "b": 2.0})
            summaries = []
            for command in ("converge-dispersion", "simulate"):
                out = tmp_path / str(a) / command
                assert main([command, "--config", cfg, "--out", str(out)]) == 0
                summaries.append(json.loads((out / "summary.json").read_text()))
            results.append((summaries[0]["errors"], summaries[1]["final"]["energy"]))
        (errors, energy), (huge_errors, huge_energy) = results
        assert huge_errors == [np.ldexp(e, 515) for e in errors]
        assert huge_energy == np.ldexp(energy, 515)


class TestConvergeCommands:
    def test_dispersion_sweep_summary_has_slope(self, tmp_path):
        cfg = write_config(
            tmp_path, grid_n=128, grid_l=10.0, t_end=0.2,
            delta_list=[0.4, 0.2], sample_stride=5,
        )
        out = tmp_path / "sweep"
        code = main(["converge-dispersion", "--config", cfg, "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "converge-dispersion"
        assert isinstance(summary["slope"], float)
        assert summary["config"]["sample_stride"] == 5
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "delta,error_terminal,slope_running"
        assert len(rows) == 3
        assert rows[1].split(",")[2] == "nan"
        assert float(rows[2].split(",")[2]) == pytest.approx(summary["slope"])

    def test_lattice_sweep_runs(self, tmp_path):
        h = 2 * 10.0 / 128
        cfg = write_config(
            tmp_path, grid_n=128, grid_l=10.0, t_end=0.2,
            delta_list=[4 * h, 2 * h], sample_stride=5,
            v0={"shape": "gaussian", "a": 0.3, "b": 1.0},
        )
        out = tmp_path / "lat"
        code = main(["converge-lattice", "--config", cfg, "--out", str(out),
                     "--emit-timeseries"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["errors"]) == 2
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "delta,t,error"
        assert len(series) > 2

    def test_unaligned_delta_list_exits_3(self, tmp_path, capsys):
        # none of these is a multiple of the default grid spacing 0.0390625
        cfg = write_config(tmp_path, delta_list=[0.4, 0.2, 0.1, 0.05])
        assert main(["converge-lattice", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "config field 'delta_list'" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_n, strides", [(64, (16, 8)), (96, (32, 16))])
    def test_chain_of_fewer_than_8_sites_exits_3(self, tmp_path, capsys, grid_n, strides):
        # 64 / 16 = 4 sites; 96 / 32 = 3 sites
        h = 2 * 10.0 / grid_n
        cfg = write_config(tmp_path, grid_n=grid_n, grid_l=10.0, t_end=0.05,
                           delta_list=[s * h for s in strides])
        assert main(["converge-lattice", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "config field 'delta_list'" in capsys.readouterr().err

    def test_lattice_sweep_runs_on_defaults(self, tmp_path):
        assert main(["converge-lattice", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["deltas"] == [0.3125, 0.15625, 0.078125, 0.0390625]
        assert 1.7 <= summary["slope"] <= 2.3

    def test_lattice_sweep_takes_sample_u0_on_coarse_chains(self, tmp_path):
        # the chain sites of delta = 2h are every second grid node
        grid_l, grid_n = 10.0, 64
        h = 2 * grid_l / grid_n
        gaussian = {"shape": "gaussian", "a": 0.5, "b": 2.0}
        nodes = -grid_l + h * np.arange(grid_n)
        values = evaluate_on_nodes(gaussian, nodes, grid_l).tolist()
        common = dict(grid_n=grid_n, grid_l=grid_l, t_end=0.2, delta_list=[2 * h, h])
        outputs = []
        for name, u0 in (("samples", {"shape": "samples", "values": values}), ("shape", gaussian)):
            (tmp_path / name).mkdir()
            cfg = write_config(tmp_path / name, u0=u0, **common)
            out = tmp_path / name / "out"
            assert main(["converge-lattice", "--config", cfg, "--out", str(out)]) == 0
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path, grid_n=64, grid_l=10.0, t_end=0.1,
                           delta_list=[0.4, 0.2], sample_stride=5)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["converge-dispersion", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["converge-dispersion", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("summary.json", "sweep.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
