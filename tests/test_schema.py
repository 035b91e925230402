"""The configuration schema: one rule per key, applied alike by the CLI and the library."""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlwaves import Chain, ConfigError, Grid, Kernel, ModelConfig, SweepConfig, integrate_chain
from nlwaves import integrate, make_initial, operator_error
from nlwaves.cli import FLAG_KEYS, main, parse_config, split_argv
from nlwaves.dynamics import shared_dt
from nlwaves import schema
from nlwaves.schema import RULES
from reference import energy, sobolev_norm

TRI = Kernel("triangular")
NAN, INF = float("nan"), float("inf")
GRID = Grid(10.0, 64)


def model(**kw):
    return ModelConfig(**{"kernel": TRI, "delta": 0.5, "dt": 0.01, "t_end": 1.0, **kw})


def sweep(**kw):
    return SweepConfig(**{"model": model(delta=None), "deltas": (0.4, 0.2), "grid": GRID, **kw})


#: each numeric config key as a library call takes it
LIBRARY = {
    "grid_l": lambda v: Grid(v, RULES["grid_n"][0]),  # a config without grid_n takes the default
    "grid_n": lambda v: Grid(10.0, v),
    "delta": lambda v: model(delta=v),
    "delta_list": lambda v: sweep(deltas=v),
    "epsilon": lambda v: model(epsilon=v),
    "n": lambda v: model(n=v),
    "s": lambda v: model(s=v),
    "dt": lambda v: model(dt=shared_dt(GRID, v)),  # the CLI resolves a null dt alike
    "t_end": lambda v: model(t_end=v),
    "breakdown_threshold": lambda v: model(breakdown_threshold=v),
    "sample_stride": lambda v: sweep(sample_stride=v),
}


@pytest.mark.parametrize(
    "make, key",
    [
        (lambda: model(dt=INF), "dt"),
        (lambda: model(t_end=NAN), "t_end"),
        (lambda: model(n=True), "n"),
        (lambda: model(n=1.0), "n"),
        (lambda: model(dt=None), "dt"),
        (lambda: model(epsilon=-1), "epsilon"),
        (lambda: model(n=0), "n"),
        (lambda: model(s=1), "s"),
        pytest.param(lambda: sweep(model=model(delta=0.5)), "delta", id="sweep-model-delta"),
        (lambda: sweep(deltas=(0.2, 0.4)), "delta_list ordering"),
        (lambda: Grid(NAN, 64), "grid_l"),
        (lambda: Grid(10.0, 64.0), "grid_n"),
        (lambda: Chain(-1.0, [0.0] * 8, [0.0] * 8, 0.0), "grid_l"),
        (lambda: integrate_chain(Chain(8.0, [0.0] * 8, [0.0] * 8, 0.0), 0.0, 1, INF, 1.0), "dt"),
        (lambda: integrate_chain(Chain(8.0, [0.0] * 8, [0.0] * 8, 0.0), 0.0, 1, None, 1.0), "dt"),
        (lambda: integrate_chain(Chain(8.0, [0.0] * 8, [0.0] * 8, 0.0), 0.0, 1, 0.1, NAN), "t_end"),
        # (n+1) eps^n, or the nonlinear multiplier eps^n (P/N)^n M, is not finite
        pytest.param(lambda: model(epsilon=10.0, n=400), "n", id="eps10-n400"),
        # an integer past the largest float, and one rejected before the power is taken
        pytest.param(lambda: model(epsilon=2, n=1100), "n", id="int-eps2-n1100"),
        pytest.param(lambda: model(epsilon=2, n=10**21), "n", id="eps2-n1e21"),
        pytest.param(lambda: integrate_chain(Chain(8.0, [0.0] * 8, [0.0] * 8, 0.0), 10.0, 400,
                                             0.1, 1.0), "n", id="chain-eps10-n400"),
        pytest.param(lambda: integrate(model(epsilon=0.5, n=170), make_initial(None, None, GRID)),
                     "n", id="multiplier-n170"),
        pytest.param(lambda: integrate(model(epsilon=1, n=10**21), make_initial(None, None, GRID)),
                     "n", id="multiplier-n1e21"),
        # Sobolev weights or smoothing multipliers that overflow on the default grid
        pytest.param(lambda: sobolev_norm(Grid(20.0, 1024),
                                          make_initial(None, None, Grid(20.0, 1024)).u, 99.0),
                     "s", id="sobolev-norm"),
        pytest.param(lambda: operator_error(TRI, 0.5, GRID, make_initial(None, None, GRID).u, 150.0,
                                            10.0), "s", id="operator-error"),
        pytest.param(lambda: energy(make_initial(None, None, Grid(20.0, 1024)), model(s=200.0)),
                     "s", id="energy"),
    ],
)
def test_library_rejects_bad_value_naming_key(make, key):
    with pytest.raises(ValueError) as info:  # ConfigError is a ValueError
        make()
    assert isinstance(info.value, ConfigError)
    assert info.value.field == key


@settings(max_examples=200, deadline=None)
@given(epsilon=st.one_of(st.floats(0.0, 1e10), st.integers(0, 10**6)), n=st.integers(1, 2000))
@example(epsilon=2, n=1023)
@example(epsilon=2, n=1024)
@example(epsilon=2.0, n=1024)
@example(epsilon=1e10, n=30)
@example(epsilon=1e10, n=31)
@example(epsilon=1e308, n=1)  # eps^n is finite, the energy weight's 2 eps^n is not
@example(epsilon=10**308, n=1)
def test_nonlinear_coefficient_is_eps_to_the_n_unless_it_overflows(epsilon, n):
    try:
        finite = math.isfinite((n + 1) * epsilon**n)
    except OverflowError:  # a float power, or an integer one past the largest float
        finite = False
    if finite:
        coef = model(epsilon=epsilon, n=n).nonlinear_coefficient
        assert coef == epsilon**n and type(coef) is type(epsilon**n)
    else:
        with pytest.raises(ConfigError) as info:
            model(epsilon=epsilon, n=n)
        assert info.value.field == "n"


def test_every_numeric_key_is_compared_with_the_library():
    numeric = {key for key, (_, kind, _, _) in RULES.items() if kind not in (str, bool, object)}
    assert set(LIBRARY) == numeric
    assert list(parse_config(None, {})) == list(RULES)  # the defaults obey the rules


def test_library_defaults_are_the_config_defaults():
    # a library call that leaves a key out runs what a config file without it runs
    config = parse_config(None, {})
    built = [ModelConfig(kernel=TRI, delta=None, dt=0.01),
             SweepConfig(model(delta=None), deltas=(0.4, 0.2), grid=GRID)]
    defaulted = {}
    for instance in built:
        for f in fields(instance):
            if f.name in RULES and (f.default, f.default_factory) != (MISSING, MISSING):
                defaulted[f.name] = getattr(instance, f.name)
    assert sorted(defaulted) == sorted(["t_end", "epsilon", "n", "s", "breakdown_threshold",
                                        "u0", "v0", "sample_stride"])
    for key, value in defaulted.items():
        assert value == config[key] and type(value) is type(config[key])
    again = SweepConfig(model(delta=None), deltas=(0.4, 0.2), grid=GRID)
    assert again.u0 is not built[1].u0 and again.u0 is not RULES["u0"][0]  # a copy each


VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-20, 100),
    st.lists(st.floats(-1.0, 1.0), max_size=3),
    st.sampled_from([10**400, -(10**400), True, False, None, "x", [0.4, "a"], [0.4, 10**400]]),
)


@settings(max_examples=120, deadline=None)
@given(key=st.sampled_from(sorted(LIBRARY)), value=VALUES)
@example(key="grid_l", value=2.225073858507203e-309)  # pi N / L overflows
@example(key="epsilon", value=1e308)  # the energy weight's (n+1) eps^n overflows
@example(key="breakdown_threshold", value=INF)  # finite, from the CLI and the library alike
def test_cli_and_library_accept_alike(key, value):
    def field_of_error(call):
        try:
            call()
        except ConfigError as exc:
            return exc.field
        return None

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({key: value}))
        cli = field_of_error(lambda: parse_config(path, {}))
    assert cli == field_of_error(lambda: LIBRARY[key](value))
    if key in FLAG_KEYS:  # the same value as flag text, through main's parse path
        # --key=text, which gives the overrides --key text gives (see test_cli.TestSplitArgv)
        argv = ["simulate", f"--{key.replace('_', '-')}={json.dumps(value)}"]
        assert field_of_error(lambda: parse_config(None, split_argv(argv)[1])) == cli


#: values each key takes in a small, fast run (grid_n <= 32, t_end <= 0.05)
VALID = {
    "kernel": ["triangular", "exponential", "dirac"],
    "grid_l": [10.0, 5.0],
    "grid_n": [16, 32],
    "delta": [None, 0.5, "dirac-limit"],
    "delta_list": [[0.4, 0.2], [2.5, 1.25], [1.25, 0.625]],
    "epsilon": [0.0, 0.1, 5.0],
    "n": [1, 2],
    "s": [3.0],
    "dt": [None, 0.01, 0.05],
    "t_end": [0.0, 0.02, 0.05],
    "u0": [
        {"shape": "gaussian", "a": 0.5, "b": 2.0},
        {"shape": "sine", "a": 0.1, "k": 1},
        {"shape": "gaussian", "a": 1e155, "b": 2.0},
    ],
    "v0": [{"shape": "zero"}, {"shape": "gaussian", "a": 0.1, "b": 1.0}],
    "breakdown_threshold": [1e3, 0.1, 1e300],
    "sample_stride": [1, 10],
    "emit_timeseries": [True, False],
}
#: out-of-range, NaN, wrong-type and huge-int values
BAD = [NAN, INF, -1, 0, 2.5, "x", True, None, 10**400, [], [0.2, 0.4], {"shape": "blob"}, 5]


@st.composite
def fuzzed_configs(draw):
    bad = draw(st.sets(st.sampled_from(sorted(VALID)), max_size=3))
    return {
        key: draw(st.sampled_from(BAD if key in bad else options)) for key, options in VALID.items()
    }


@settings(max_examples=50, deadline=None)
@given(
    command=st.sampled_from(["kernel-info", "simulate", "converge-dispersion", "converge-lattice"]),
    cfg=fuzzed_configs(),
)
@example(command="simulate", cfg={**{key: options[0] for key, options in VALID.items()}, "kernel": 5})
def test_fuzzed_config_exits_with_a_documented_code(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if (out / "summary.json").exists():
            json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)


def test_grid_rule_is_stated_once():
    """Grid and parse_config apply one rule of grid_l on grid_n, with one text."""
    schema.check_grid(1e-300, 64)  # pi N / L is finite
    tiny = 2.225073858507203e-309  # pi N / L overflows
    texts = set()
    for call in (lambda: schema.check_grid(tiny, 64), lambda: Grid(tiny, 64),
                 lambda: parse_config(None, {"grid_l": tiny, "grid_n": 64})):
        with pytest.raises(ConfigError) as info:
            call()
        assert info.value.field == "grid_l"
        texts.add(str(info.value))
    assert texts == {"config field 'grid_l': 2.225073858507203e-309 is too small for 64 nodes: "
                     "the grid's frequencies overflow"}
