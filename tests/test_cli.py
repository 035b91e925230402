"""CLI config handling, dispatch, exit codes, and output determinism."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlwaves
from nlwaves.cli import COMMANDS, FLAG_KEYS, main, parse_config, split_argv
from nlwaves import Kernel, dynamics
from nlwaves.errors import ConfigError
from nlwaves.shapes import sample
from nlwaves.spectral import Grid


def write_config(tmp_path, **entries):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(entries))
    return str(path)


def _bad_kernel_tables() -> dict:
    """Tables that break a kernel hypothesis, by test id: a non-finite entry
    in either column, a negative value, b(0) = 2, finite entries one ulp
    either side of the grid frequency pi/10 whose slope overflows, and a
    value above b(0) = 1, huge (its CFL step would be of order 1e-152) or
    mild."""
    xi = np.linspace(0, 5, 50)
    good = np.column_stack([xi, 1.0 / (1.0 + xi**2)])
    tables = {}
    for column, name in ((0, "xi"), (1, "value")):
        for entry in (np.nan, np.inf):
            tables[f"{name}-{entry}"] = good.copy()
            tables[f"{name}-{entry}"][-1, column] = entry
    tables["negative-value"] = good.copy()
    tables["negative-value"][-1, 1] = -0.01
    tables["b0-is-2"] = good * [1.0, 2.0]
    xi1 = Grid(10.0, 64).rfreqs[1]
    tables["slope-overflow"] = np.column_stack(
        [[0.0, np.nextafter(xi1, 0.0), np.nextafter(xi1, 1.0), 5.0], [1.0, 1.0, 1e308, 0.0]]
    )
    tables["value-1e300"] = np.array([[0.0, 1.0], [1.0, 1e300], [2.0, 0.0]])
    tables["value-1.5"] = np.array([[0.0, 1.0], [1.0, 1.5], [2.0, 0.0]])
    return tables


BAD_TABLES = _bad_kernel_tables()


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

    @pytest.mark.parametrize(
        "content, reason",
        [(b"\xff\xfe{", "can't decode"), (b'{"t_end": ' + b"1" * 5000 + b"}", "4300 digits"),
         (b'{"u0": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "recursion")],
        ids=["not-utf-8", "integer-past-digit-limit", "nested-past-recursion-limit"],
    )
    def test_unreadable_config_exits_3(self, tmp_path, capsys, content, reason):
        (tmp_path / "config.json").write_bytes(content)
        argv = ["simulate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "config field 'config'" in err and reason in err


class TestSplitArgv:
    """The CLI's grammar: a value flag takes the next token verbatim or the
    text after '=', and every usage error exits 3 naming its token."""

    @settings(max_examples=50, deadline=None)
    @given(key=st.sampled_from(FLAG_KEYS), text=st.text())
    @example(key="dt", text="-1e-3")
    @example(key="t_end", text="--help")
    @example(key="delta", text="a=b")
    def test_spaced_and_joined_values_give_the_same_overrides(self, key, text):
        flag = "--" + key.replace("_", "-")
        spaced = split_argv(["simulate", flag, text])[1]
        joined = split_argv(["simulate", f"{flag}={text}"])[1]
        assert list(spaced) == [key]
        assert repr(spaced) == repr(joined)  # repr, since NaN != NaN

    def test_values_are_read_as_json_or_else_as_text(self):
        args, overrides = split_argv(
            ["simulate", "--dt", "-1e-3", "--grid-n=64", "--delta", "dirac-limit",
             "--emit-timeseries", "--config", "c.json", "--out=run"]
        )
        assert (args.command, args.config, args.out) == ("simulate", "c.json", "run")
        assert overrides == {"dt": -1e-3, "grid_n": 64, "delta": "dirac-limit",
                             "emit_timeseries": True}

    @pytest.mark.parametrize(
        "text", ["1" * 5000, "[" * 100_000], ids=["integer-past-digit-limit", "nested"]
    )
    def test_flag_text_that_json_cannot_read_is_text(self, capsys, text):
        assert split_argv(["simulate", "--dt", text])[1] == {"dt": text}
        assert main(["simulate", "--dt", text]) == 3
        assert "config field 'dt'" in capsys.readouterr().err

    def test_kernel_info_takes_an_optional_kernel(self):
        assert split_argv(["kernel-info", "exponential"])[1] == {"kernel": "exponential"}
        assert split_argv(["kernel-info"])[1] == {}

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["simulate", "--dt"], "'--dt'"),
            (["simulate", "--grid", "64"], "'--grid'"),
            (["simulate", "--config=c.json", "extra"], "'extra'"),
            (["kernel-info", "exponential", "dirac"], "'dirac'"),
            (["simulation"], "'simulation'"),
            (["--dt", "0.1"], "no command"),
            (["simulate", "--emit-timeseries=true"], "'--emit-timeseries'"),
        ],
        ids=["value-flag-last", "abbreviation", "second-positional", "second-kernel",
             "unknown-command", "no-command", "switch-with-value"],
    )
    def test_usage_error_exits_3_naming_the_token(self, tmp_path, capsys, argv, token):
        assert main(["--out", str(tmp_path / "run"), *argv]) == 3
        assert token in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_cli_import_leaves_argparse_out(self):
        src = str(Path(nlwaves.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import nlwaves.cli; "
                "print('argparse' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"


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
        assert "hypotheses_passed" not in summary  # a kernel that exists satisfies them
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

    @pytest.mark.parametrize("below", [None, "sub"], ids=["file", "below-file"])
    def test_out_naming_a_file_exits_3(self, tmp_path, capsys, below):
        target = tmp_path / "taken"
        target.write_text("")
        out = target / below if below else target
        assert main(["kernel-info", "dirac", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err


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

    def test_final_fields_are_the_integrated_samples(self, tmp_path):
        # final_u.csv and final_v.csv parse back to the grid nodes and to the
        # final samples of `integrate` on the same config, bit for bit
        path = write_config(tmp_path, grid_n=64, grid_l=10.0, t_end=0.1, delta=0.5, epsilon=0.1,
                            v0={"shape": "sine", "a": 0.2, "k": 2})
        out = tmp_path / "run"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        cfg = parse_config(path, {})
        grid = Grid(cfg["grid_l"], cfg["grid_n"])
        mc = dynamics.ModelConfig(
            kernel=Kernel(cfg["kernel"]), delta=cfg["delta"], dt=dynamics.shared_dt(grid),
            **{k: cfg[k] for k in ("t_end", "epsilon", "n", "s", "breakdown_threshold")})
        final = dynamics.integrate(mc, dynamics.make_initial(cfg["u0"], cfg["v0"], grid))
        for name, field in (("final_u.csv", final.u), ("final_v.csv", final.v)):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "x,value"
            data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
            assert np.array_equal(data[:, 0], grid.nodes)
            assert np.array_equal(data[:, 1], field)

    def test_timeseries_ends_at_t_end(self, tmp_path):
        # two steps, fewer than sample_stride: rows at t = 0 and t = t_end
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--grid-n", "64", "--grid-l", "10",
                     "--t-end", "0.1", "--dt", "0.06", "--emit-timeseries"]) == 0
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.1]

    # the Gaussian amplitude and width of perfbench's seeds (a in [0.4, 0.6],
    # b in [1.5, 2.5], six decimals); seeds 62 and 65 as examples
    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(0.4, 0.6).map(lambda a: round(a, 6)),
           b=st.floats(1.5, 2.5).map(lambda b: round(b, 6)))
    @example(a=0.585598, b=1.673027)
    @example(a=0.482949, b=1.7877)
    def test_first_row_is_read_from_the_initial_samples(self, tmp_path_factory, a, b):
        """The t = 0 row of the time series has u_linf = max|u0| bit for bit,
        here the amplitude, which the grid samples at x = 0."""
        tmp_path = tmp_path_factory.mktemp("first-row")
        cfg = write_config(tmp_path, kernel="exponential", grid_n=256, grid_l=20.0, delta=0.5,
                           epsilon=0.1, n=2, t_end=0.0625, sample_stride=10,
                           u0={"shape": "gaussian", "a": a, "b": b}, emit_timeseries=True)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        rows = (tmp_path / "run" / "timeseries.csv").read_text().splitlines()[1:]
        u0 = sample({"shape": "gaussian", "a": a, "b": b}, Grid(20.0, 256), "u0")
        first = [float(x) for x in rows[0].split(",")]
        assert first[0] == 0.0 and first[3] == np.max(np.abs(u0)) == a

    @settings(max_examples=10, deadline=None)
    @given(a=st.floats(0.4, 0.6).map(lambda a: round(a, 6)),
           b=st.floats(1.5, 2.5).map(lambda b: round(b, 6)))
    @example(a=0.585598, b=1.673027)
    @example(a=0.482949, b=1.7877)
    def test_final_is_the_last_sample_with_or_without_a_time_series(self, tmp_path_factory, a, b):
        """summary.json's final values are the time series' last row bit for
        bit, and the same run without a time series writes the same ones."""
        tmp_path = tmp_path_factory.mktemp("final")
        # 6.4 steps of the CFL dt: the last one is shortened and off the stride
        cfg = write_config(tmp_path, kernel="exponential", grid_n=256, grid_l=20.0, delta=0.5,
                           epsilon=0.1, n=2, t_end=0.25, sample_stride=10,
                           u0={"shape": "gaussian", "a": a, "b": b})
        finals = []
        for flags in (["--emit-timeseries"], []):
            out = tmp_path / f"run{len(flags)}"
            assert main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 0
            finals.append(json.loads((out / "summary.json").read_text())["final"])
        assert not (tmp_path / "run0" / "timeseries.csv").exists()
        rows = (tmp_path / "run1" / "timeseries.csv").read_text().splitlines()
        last = dict(zip(["t", "energy", "monitor", "u_linf"], map(float, rows[-1].split(","))))
        assert finals[0] == finals[1] == last
        assert last["t"] == 0.25

    @pytest.mark.parametrize("flags", [[], ["--emit-timeseries"]], ids=["summary", "timeseries"])
    def test_non_hyperbolic_initial_data_exits_1_at_t0(self, tmp_path, capsys, flags):
        # 1 + g'(u0) = 1 + 1.2 u0 reaches -0.2 at the trough u0 = -1; the
        # monitor is past the threshold too, but the t = 0 sample comes first
        cfg = write_config(tmp_path, grid_n=64, t_end=0.1, epsilon=0.6, breakdown_threshold=0.5,
                           u0={"shape": "gaussian", "a": -1.0, "b": 2.0})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert "numeric failure" in err and "<= 0 at t=0" in err
        assert not out.exists()

    def test_steep_sech2_runs_without_warnings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid_n=64, grid_l=20.0, t_end=0.1,
                           u0={"shape": "sech2", "a": 0.5, "b": 40})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().err == ""

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
        flags = ["--config", "--out", "--emit-timeseries"]
        flags += ["--" + key.replace("_", "-") for key in FLAG_KEYS]
        for argv in (["-h"], ["simulate", "--help"]):
            assert main(argv) == 0
            usage = capsys.readouterr().out
            assert all(word in usage for word in [*COMMANDS, *flags])


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

    @pytest.mark.parametrize(
        "command", ["simulate", "kernel-info", "converge-dispersion", "converge-lattice"]
    )
    @pytest.mark.parametrize("table", list(BAD_TABLES.values()), ids=list(BAD_TABLES))
    def test_non_finite_kernel_table_exits_3(self, tmp_path, capsys, command, table):
        np.savetxt(tmp_path / "kern.txt", table)
        cfg = write_config(tmp_path, kernel=str(tmp_path / "kern.txt"), grid_n=64, grid_l=10.0,
                           t_end=0.05, delta=0.5, delta_list=[0.4, 0.2])
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 3
        assert "config field 'kernel'" in capsys.readouterr().err
        assert not (tmp_path / "run" / "summary.json").exists()

    @pytest.mark.parametrize("command", ["kernel-info", "simulate", "converge-dispersion"])
    def test_unreadable_kernel_table_exits_3_before_out_is_made(self, tmp_path, capsys,
                                                              monkeypatch, command):
        # root reads a mode-000 file, so the read error is raised by hand
        def unreadable(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        np.savetxt(tmp_path / "kern.txt", [[0.0, 1.0], [1.0, 0.5]])
        monkeypatch.setattr(np, "loadtxt", unreadable)
        out = tmp_path / "run"
        cfg = write_config(tmp_path, kernel=str(tmp_path / "kern.txt"), grid_n=64, t_end=0.05)
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert "config field 'kernel'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["simulate", "kernel-info", "converge-dispersion", "converge-lattice"]
    )
    def test_grid_l_whose_frequencies_overflow_exits_3(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        argv = [command, "--grid-l", "2.225073858507203e-309", "--grid-n", "64", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        assert "config field 'grid_l'" in capsys.readouterr().err
        assert not out.exists()  # rejected while the config is parsed

    @pytest.mark.parametrize("command", COMMANDS)
    def test_grid_l_whose_spacing_overflows_exits_3(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        argv = [command, "--grid-l", "1e308", "--grid-n", "8", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        assert "config field 'grid_l'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_grid_n_too_large_to_allocate_exits_3(self, tmp_path, capsys, command):
        out = tmp_path / "run"  # numpy refuses 2**62 nodes before it allocates any
        assert main([command, "--grid-n", str(2**62), "--out", str(out)]) == 3
        assert "config field 'grid_n'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("command, entries", [
        pytest.param("simulate", {"kernel": kernel, "delta": 1e308}, id=kernel)
        for kernel in ("dirac", "exponential", "triangular")
    ] + [pytest.param("converge-dispersion", {"delta_list": [1e308, 0.1]}, id="sweep")])
    def test_delta_whose_scaled_frequencies_overflow_runs(self, tmp_path, capsys, command,
                                                          entries, epsilon):
        # delta xi is infinite on most frequencies, where each symbol is at its limit
        cfg = write_config(tmp_path, grid_n=64, epsilon=epsilon, **entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["simulate", "converge-dispersion", "converge-lattice"])
    def test_dt_whose_step_count_overflows_exits_3(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        assert main([command, "--dt", "1e-320", "--t-end", "1", "--out", str(out)]) == 3
        assert "config field 'dt'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("simulate", ["--grid-l", "1e-300", "--grid-n", "64", "--t-end", "0.01"]),
            ("simulate", ["--dt", "1e-300", "--t-end", "1e-280"]),
            ("converge-dispersion", ["--dt", "1e-300", "--t-end", "1e-280"]),
            ("converge-lattice", ["--dt", "1e-300", "--t-end", "1e-280"]),
        ],
        ids=["simulate-cfl", "simulate", "converge-dispersion", "converge-lattice"],
    )
    def test_dt_whose_finite_step_count_exceeds_2_53_exits_3(self, tmp_path, capsys,
                                                              command, argv):
        # finite counts past 2**53 steps (1.3e300 and 1e20): t + dt would stall
        out = tmp_path / "run"
        assert main([command, *argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "config field 'dt'" in err and "2**53" in err
        assert not out.exists()

    def test_step_counts_up_to_2_53_are_legitimate(self):
        assert dynamics.n_steps(1.0, 1e-10) == 10**10
        assert dynamics.n_steps(1.0, 2.0**-53) == 2**53
        with pytest.raises(ConfigError, match="2\\*\\*53"):
            dynamics.n_steps(1.0, 2.0**-54)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_kernel_exits_3_before_out_is_made(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, kernel="box", grid_n=64, t_end=0.05)
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert "config field 'kernel'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("simulate", ["--n", "170", "--epsilon", "0.5"]),
            ("simulate", ["--n", "400", "--epsilon", "10"]),
            ("simulate", ["--n", "1100", "--epsilon", "2"]),
            ("simulate", ["--n", "1" + "0" * 21, "--epsilon", "2"]),
            ("simulate", ["--n", "1" + "0" * 21, "--epsilon", "1"]),
            ("converge-dispersion", ["--n", "400", "--epsilon", "10"]),
            ("converge-lattice", ["--n", "1000", "--epsilon", "1"]),
        ],
        ids=["scale-n170", "eps10-n400", "int-eps2-n1100", "eps2-n1e21", "scale-n1e21",
             "converge-dispersion", "converge-lattice"],
    )
    def test_n_whose_power_overflows_exits_3(self, tmp_path, capsys, command, argv):
        # (n+1) eps^n, or the nonlinear multiplier eps^n (P/N)^n M with P/N
        # about (n+2)/2, is not finite
        out = tmp_path / "run"
        cfg = write_config(tmp_path, grid_n=64, grid_l=10.0, t_end=0.01,
                           delta_list=[0.625, 0.3125])
        assert main([command, "--config", cfg, *argv, "--out", str(out)]) == 3
        assert "config field 'n'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, s",
        [("converge-dispersion", 100), ("converge-lattice", 100), ("simulate", 200),
         ("converge-dispersion", 200), ("converge-lattice", 200)],
    )
    def test_s_whose_weights_overflow_exits_3(self, tmp_path, capsys, command, s):
        # on the default grid the largest frequency is about 80: the sweeps'
        # order-(s-1) norm weights overflow at s = 100, simulate's order-s
        # smoothing multiplier (1 + xi^2)^(s/2) at s = 200
        out = tmp_path / "run"
        assert main([command, "--config", write_config(tmp_path, s=s, t_end=0.05),
                     "--out", str(out)]) == 3
        assert "config field 's'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "0 1\n"], ids=["empty", "one-row"])
    def test_short_kernel_table_exits_3_without_warning(self, tmp_path, capsys, text):
        (tmp_path / "kern.txt").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["kernel-info", str(tmp_path / "kern.txt"), "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "config field 'kernel'" in err and "at least two rows" in err


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

    @pytest.mark.parametrize("command", ["simulate", "converge-dispersion", "converge-lattice"])
    @pytest.mark.parametrize("key", ["u0", "v0"])
    @pytest.mark.parametrize(
        "spec",
        [
            {"shape": "gaussian", "a": 0.5, "b": -10},  # exp(10 x^2) overflows
            {"shape": "sine", "a": 0.5, "k": 1e308},  # k pi x / L overflows; sin(inf) is NaN
            {"shape": "samples", "values": [float("nan")] * 64},
        ],
        ids=["gaussian-b-10", "sine-k-1e308", "samples-nan"],
    )
    def test_non_finite_initial_samples_exit_3_naming_key(self, tmp_path, capsys, command,
                                                          key, spec):
        h = 2 * 10.0 / 64
        cfg = write_config(tmp_path, grid_n=64, grid_l=10.0, t_end=0.05,
                           delta_list=[2 * h, h], **{key: spec})
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"config field '{key}'" in err and "not finite" in err
        assert not out.exists()

    def test_v0_whose_chain_quotient_is_not_finite_exits_3(self, tmp_path, capsys):
        # exp(6.8 x^2) is finite at x +/- h/2 for the grid spacing h = 0.3125,
        # but overflows at x +/- 0.3125 for the chain of delta = 0.625
        cfg = write_config(tmp_path, grid_n=64, grid_l=10.0, t_end=0.05, delta_list=[0.625, 0.3125],
                           v0={"shape": "gaussian", "a": 1.0, "b": -6.8})
        out = tmp_path / "run"
        assert main(["converge-lattice", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "config field 'v0'" in err and "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["u0", "v0"])
    @pytest.mark.parametrize("command", ["simulate", "converge-dispersion", "converge-lattice"])
    def test_finite_data_whose_transform_overflows_exits_3(self, tmp_path, capsys, command, key):
        # 1e308 sin(3 pi x / L) is finite at every node; its k = 3 coefficient is not
        cfg = write_config(tmp_path, grid_n=64, grid_l=10.0, delta_list=[0.625, 0.3125],
                           **{key: {"shape": "sine", "a": 1e308, "k": 3}})
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert f"config field '{key}'" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteOutputs:
    @pytest.mark.parametrize("command, changes", [
        pytest.param("simulate", {}, id="simulate"),
        pytest.param("converge-dispersion", {}, id="converge-dispersion"),
        pytest.param("converge-lattice", {"delta_list": [0.625, 0.3125]},  # 2h and h
                     id="converge-lattice"),
        pytest.param("simulate", {"n": 2, "t_end": 0.0}, id="simulate-energy-weight"),
    ])
    def test_overflow_exits_1_without_invalid_json(self, tmp_path, capsys, command, changes):
        # finite values whose run overflows: a huge u0 under a huge breakdown
        # threshold; with n = 2 and no step, the energy weight u^2 of the
        # initial state overflows
        settings = dict(grid_n=64, grid_l=10.0, t_end=0.05,
                        delta_list=[0.4, 0.2], u0={"shape": "gaussian", "a": 1e155, "b": 2.0},
                        epsilon=1.0, breakdown_threshold=1e300)
        cfg = write_config(tmp_path, **{**settings, **changes})
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists()  # so no summary.json, valid or not

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
    @settings(max_examples=10, deadline=None)
    @given(a=st.floats(0.4, 0.6).map(lambda a: round(a, 6)),
           b=st.floats(1.5, 2.5).map(lambda b: round(b, 6)))
    def test_dispersion_error_at_t0_is_exactly_zero(self, tmp_path_factory, a, b):
        tmp_path = tmp_path_factory.mktemp("dispersion-t0")
        cfg = write_config(tmp_path, grid_n=64, grid_l=10.0, t_end=0.1, delta_list=[0.4, 0.2],
                           u0={"shape": "gaussian", "a": a, "b": b}, emit_timeseries=True)
        out = tmp_path / "sweep"
        assert main(["converge-dispersion", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "series.csv").read_text().splitlines()[1:]]
        initial = [float(error) for _, t, error in rows if float(t) == 0.0]
        assert initial == [0.0, 0.0]

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

    def test_lattice_error_at_t0_is_exactly_zero_for_a_stride_of_3(self, tmp_path):
        # the chain of delta = 3h starts on every third grid node, whose
        # sites -L + 3h j differ from the nodes -L + h (3j) in the last bit
        cfg = write_config(tmp_path, grid_l=7.3, grid_n=96, t_end=0.5,
                           delta_list=[0.45625, 0.30416666666666664], emit_timeseries=True)
        out = tmp_path / "lat"
        assert main(["converge-lattice", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "series.csv").read_text().splitlines()[1:]]
        assert [float(error) for _, t, error in rows if float(t) == 0.0] == [0.0, 0.0]

    def test_dispersion_breakdown_exits_2_without_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid_n=64, grid_l=10.0, t_end=0.05, delta_list=[0.4, 0.2],
                           breakdown_threshold=0.1)
        out = tmp_path / "sweep"
        assert main(["converge-dispersion", "--config", cfg, "--out", str(out)]) == 2
        assert "breakdown" in capsys.readouterr().err
        assert not out.exists()

    def test_lattice_breakdown_exits_2_without_out(self, tmp_path, capsys):
        # the classical run breaks down at t=0 (monitor 1.07229)
        cfg = write_config(tmp_path, grid_n=64, grid_l=10.0, t_end=0.05,
                           delta_list=[0.625, 0.3125], breakdown_threshold=0.1)
        out = tmp_path / "sweep"
        assert main(["converge-lattice", "--config", cfg, "--out", str(out)]) == 2
        assert "breakdown monitor 1.07229 exceeded threshold 0.1 at t=0" in capsys.readouterr().err
        assert not out.exists()

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
        values = sample(gaussian, Grid(grid_l, grid_n), "u0").tolist()
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


class TestBenchmarkEntryPoints:
    """The benchmark's child process (`perfbench/launch.py`) runs each
    workload's command, clocked or traced, on this source tree.  Its clock
    rebinds `dynamics.integrate` and `lattice.integrate_chain`, and its tracer
    wraps the integrators' `observers`, every layer's public functions and
    the class members it names, so a change to these fails here before it
    fails the benchmark."""

    ROOT = Path(__file__).resolve().parents[1]
    H = 20.0 / 32  # grid spacing at grid_l 20, grid_n 64

    @pytest.mark.parametrize("trace", ["0", "1"])
    @pytest.mark.parametrize("command", ["simulate", "converge-dispersion", "converge-lattice"])
    def test_launch_records_the_first_step(self, tmp_path, command, trace):
        cfg = write_config(tmp_path, grid_l=20.0, grid_n=64, t_end=4 * 0.25 * self.H,
                           kernel="exponential", delta=0.5, epsilon=0.1, n=2,
                           delta_list=[4 * self.H, 2 * self.H], sample_stride=2,
                           emit_timeseries=True)
        record = tmp_path / "record.json"
        argv = [sys.executable, "-s", str(self.ROOT / "perfbench" / "launch.py"),
                str(self.ROOT / "src"), str(record), trace, "--",
                command, "--config", cfg, "--out", str(tmp_path / "out")]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        recorded = json.loads(record.read_text())
        assert recorded["exit"] == 0
        assert isinstance(recorded["first_step_ns"], int)
