"""Configuration parsing, seed precedence, and the command-line driver."""

import dataclasses
import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdsim import (
    InverterParams, blended_field, check_safety, cli_main,
    generate_truth_and_measurements, inverter_automaton, load_config,
    parse_config_text, run_ekf, simulate, smib_system,
)
from hdsim import cli, power
from hdsim import compare as compare_module
from hdsim import config as config_module
from hdsim.config import SCHEMA, ExperimentConfig
from hdsim.compare import run_comparison
from hdsim.errors import ConfigError, NumericalFailureError
from hdsim.estimation import NoiseModel
from hdsim.report import read_trajectory_csv


def test_defaults_without_file():
    config = load_config(None)
    assert config["model"] == "inverter"
    assert config["dt"] == 1e-4
    assert config["inverter.l_pu"] == 0.0189


def test_default_config_pins_the_reference_experiment_by_value():
    sc = ExperimentConfig().scenario()
    assert (sc.seed, sc.horizon, sc.dt) == (42, 0.2, 1e-4)
    assert np.array_equal(sc.x0, [0.0, 0.0, 1.0, 0.0])
    assert sc.v_grid.times == (0.0, 0.05, 0.06, 0.12, 0.13, 0.2)
    assert sc.v_grid.values == (1.0, 1.0, 0.5, 0.5, 1.0, 1.0)
    assert np.array_equal(sc.noise.q, 1e-2 * 1e-4 * np.eye(4))
    assert np.array_equal(sc.noise.r, np.diag([0.01**2, 0.01**2, 0.004**2, 0.004**2]))
    assert np.array_equal(sc.noise.h, np.eye(4))
    assert sc.params == InverterParams()


def test_parse_with_comments_and_sections():
    config = parse_config_text(
        """
        # experiment
        model = smib          # trailing comment
        smib.i_max = 1.25
        inverter.profile = 0:1, 0.1:0.5, 0.2:1
        """
    )
    assert config["model"] == "smib"
    assert config["smib.i_max"] == 1.25
    assert config["inverter.profile"] == ((0.0, 1.0), (0.1, 0.5), (0.2, 1.0))
    # dt divides a long horizon within a tolerance relative to the horizon
    long = parse_config_text(
        "horizon = 54321.1\ndt = 0.1\ninverter.profile = 0:1, 54321.1:1\n"
    )
    assert long.scenario().n_steps == 543211


def test_resolved_config_echo_reads_back_as_the_same_values():
    config = parse_config_text(
        "inverter.x0 = 0.123456789, 0, 1.0000001, 0\n"
        "inverter.profile = 0:1, 0.1:0.9, 0.12345678:0.5, 0.2:0.987654321\n"
    )
    echo = "".join(f"{k} = {v}\n" for k, v in config.resolved_items().items())
    assert parse_config_text(echo).values == config.values
    # values that :g keeps exactly are echoed as before
    assert ExperimentConfig().resolved_items()["inverter.profile"] == (
        "0:1, 0.05:1, 0.06:0.5, 0.12:0.5, 0.13:1, 0.2:1"
    )


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("inverter.vlow = 0.8")
    assert "unknown key" in str(err.value)


def test_a_key_set_twice_exits_1_naming_both_lines(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config_text("dt = 1e-4\nseed = 1\n\nseed = 2\n")
    assert str(err.value) == "<config>:4: key 'seed' already set on line 2"
    cfg = write_cfg(tmp_path, "seed = 1\nseed = 2\n")
    assert cli_main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: key 'seed' already set on line 1\n"
    assert not (tmp_path / "o").exists()


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("dt = fast")
    with pytest.raises(ConfigError):
        parse_config_text("filter = median")
    with pytest.raises(ConfigError):
        parse_config_text("model = inverter\nhorizon = -1")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "inverter.profile = 0:1, 0.2",
            "bad value for 'inverter.profile': '0:1, 0.2' "
            "(breakpoint '0.2' is not t:value)",
        ),
        ("model = smib\nsmib.m = -1", "invalid smib model: inertia must be positive"),
        (
            "model = smib\nsmib.d = -0.5",
            "invalid smib model: damping must be non-negative",
        ),
    ],
    ids=["profile-breakpoint", "smib-inertia", "smib-damping"],
)
def test_a_bad_value_exits_1_with_its_message(tmp_path, capsys, text, message):
    cfg = write_cfg(tmp_path, text + "\n")
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_equals_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("just some words")


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _resolved_seed(argv):
    """The seed of the config one command line resolves to."""
    return cli._prepare(cli._build_parser().parse_args(["simulate", *argv]))["seed"]


def test_seed_precedence(tmp_path, monkeypatch):
    seeded = write_cfg(tmp_path, "seed = 9\n", "seeded.cfg")
    unseeded = write_cfg(tmp_path, "dt = 1e-4\n", "unseeded.cfg")
    monkeypatch.delenv("HDS_SEED", raising=False)
    assert _resolved_seed([]) == 42  # the default
    assert _resolved_seed(["--config", unseeded]) == 42
    monkeypatch.setenv("HDS_SEED", "7")
    assert _resolved_seed([]) == 7  # env beats default
    assert _resolved_seed(["--config", unseeded]) == 7
    assert _resolved_seed(["--config", seeded]) == 9  # file beats env
    assert _resolved_seed(["--config", seeded, "--seed", "3"]) == 3  # flag beats file
    assert _resolved_seed(["--seed", "3"]) == 3  # flag beats env
    # a bad HDS_SEED is an error only when it would be used
    monkeypatch.setenv("HDS_SEED", "oops")
    assert _resolved_seed(["--seed", "3"]) == 3
    assert _resolved_seed(["--config", seeded]) == 9
    with pytest.raises(ConfigError, match="HDS_SEED must be an integer, got 'oops'"):
        _resolved_seed(["--config", unseeded])
    with pytest.raises(ConfigError, match="HDS_SEED"):
        _resolved_seed([])


def test_file_values_the_command_line_replaces_are_not_read(tmp_path):
    # one validation of the resolved values: a file value that a flag or
    # the command replaces is never used, so it is not checked either
    cfg = write_cfg(tmp_path, "seed = -1\nfilter = median\n")
    args = cli._build_parser().parse_args(["compare", "--config", cfg, "--seed", "3"])
    config = cli._prepare(args)
    assert (config["seed"], config["filter"]) == (3, "both")
    with pytest.raises(ConfigError, match="filter must be one of"):
        cli._prepare(cli._build_parser().parse_args(["estimate", "--config", cfg]))


def test_bad_hds_seed_exits_1_only_when_used(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, "horizon = 0.001\n")
    monkeypatch.setenv("HDS_SEED", "oops")
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: HDS_SEED must be an integer, got 'oops'\n"
    argv = ["simulate", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "o")]
    assert cli_main(argv) == 0


@pytest.mark.parametrize("command", ["compare", "estimate", "verify", "simulate"])
def test_one_validated_config_per_run(tmp_path, monkeypatch, command):
    cfg = write_cfg(
        tmp_path, "horizon = 0.01\nfilter = hybrid\nverify.samples = 2\n"
    )
    validate = ExperimentConfig.__post_init__
    calls = []

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    out = str(tmp_path / "o")
    argv = [command, "--config", cfg, "--seed", "5", "--out", out]
    assert cli_main(argv) == 0
    assert len(calls) == 1
    assert (calls[0]["seed"], calls[0]["out"]) == (5, out)
    if command == "compare":
        assert calls[0]["filter"] == "both"


def test_non_utf8_config_is_a_config_error_naming_file_and_byte(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"seed = 4\xff2\n")
    with pytest.raises(ConfigError, match=r"latin\.cfg: not UTF-8 text at byte 8"):
        load_config(str(path))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: not UTF-8 text at byte 8\n"
    # the offset counts from the start of the file, past any read buffer
    path.write_bytes(b"# " + b"x" * 20000 + b"\r\nseed = 4\xff2\n")
    with pytest.raises(ConfigError, match="not UTF-8 text at byte 20012"):
        load_config(str(path))


def test_missing_config_file_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    code = cli_main(["compare", "--config", missing])
    assert code == 1
    assert missing in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert cli_main(["compare", "--frobnicate"]) == 1


@pytest.mark.parametrize(
    "command, text",
    [
        ("simulate", "inverter.l_pu = 1e-300"),
        ("verify", "inverter.tau_v = 1e-300"),
        ("compare", "inverter.tau_v = 1e-300"),
        ("compare", "inverter.tau_i = 1e-300"),
        ("simulate", "model = smib\nsmib.m = 1e-300"),
        ("verify", "model = smib\nsmib.m = 1e-300"),
    ],
)
def test_overflowing_model_exits_2_with_one_line_error(tmp_path, capsys, command, text):
    cfg = write_cfg(tmp_path, text + "\nhorizon = 0.01\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "entry, text",
    [
        ("simulate", "inverter.l_pu = 1e-300"),
        ("check_safety", "inverter.l_pu = 1e-300"),
        ("hybrid", "inverter.l_pu = 1e-300"),
        ("continuous", "inverter.l_pu = 1e-300"),
        ("simulate", "model = smib\nsmib.m = 1e-300"),
        ("check_safety", "model = smib\nsmib.m = 1e-300"),
    ],
)
def test_overflowing_model_is_a_typed_error_of_the_library(entry, text):
    config = parse_config_text(text + "\nhorizon = 0.01\n")
    if config["model"] == "smib":
        system, x0, mode0 = smib_system(config.smib_params()), config.system().x0, None
    else:
        sc = config.scenario()
        system, x0, mode0 = inverter_automaton(sc.params, sc.v_grid), sc.x0, "GFL"
    horizon, dt = float(config["horizon"]), float(config["dt"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError):
            if entry == "simulate":
                simulate(system, x0, horizon, 10, dt, mode0=mode0)
            elif entry == "check_safety":
                check_safety(
                    system, lambda: x0, lambda x: np.zeros_like(x[0], dtype=bool),
                    horizon, 3, dt, max_jumps=10, mode0=mode0,
                )
            else:
                blended = blended_field(sc.params, sc.v_grid)
                process = system if entry == "hybrid" else blended
                run_ekf(process, sc, np.zeros((sc.n_steps + 1, 4)))


@pytest.mark.parametrize(
    "command, text",
    [
        ("compare", "horizon = inf"),
        ("compare", "noise.r_vd = -1"),
        ("compare", "near_switch_window = nan"),
        ("compare", "inverter.x0 = 0, 0, 1"),
        ("compare", "ekf.p0 = -1"),
        ("simulate", "max_jumps = -1"),
        ("verify", "verify.samples = 0"),
        ("compare", "inverter.v_low = 0.9"),
        ("simulate", "inverter.v_low = 0.95"),
        ("simulate", "inverter.profile = 0:1, 0.1:1, 0.1:0.5, 0.2:1"),
        ("verify", "inverter.profile = 0:1, 0.2:1, 0.1:0.5"),
        ("verify", "model = smib\nsmib.p_min = 0.4"),
        ("simulate", "model = smib\nsmib.p_min = 0.5"),
        ("compare", "horizon = 1e300"),
        ("simulate", "horizon = 1e300"),
        ("simulate", "model = smib\nsmib.line0 = 3"),
        ("compare", "seed = -1"),
        ("verify", "verify.x0_half_width = -1"),
        ("compare", "model = smib"),
        ("estimate", "model = smib\nfilter = hybrid"),
        ("simulate", "model = smib\nhorizon = 1e300"),
        ("verify", "model = smib\nhorizon = 1e300"),
        ("simulate", "dt = 1e-9"),
    ],
)
def test_invalid_config_value_exits_1_with_one_line_error(
    tmp_path, capsys, command, text
):
    cfg = write_cfg(tmp_path, text + "\n")
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _value_text(key):
    """Values of the key's own type, extremes included."""
    default = SCHEMA[key][1]
    if isinstance(default, str):
        return st.sampled_from(("inverter", "smib", "hybrid", "continuous", "both"))
    if isinstance(default, int):
        return st.one_of(st.integers(), st.integers(-(10**400), 10**400)).map(str)
    if isinstance(default, float):
        return st.floats().map(repr)
    if key == "inverter.profile":
        point = st.tuples(st.floats(-0.5, 1.5), st.floats(-2.0, 2.0))
        points = st.lists(point, max_size=5)
        return points.map(lambda pts: ", ".join(f"{t!r}:{v!r}" for t, v in pts))
    return st.lists(st.floats(), max_size=5).map(lambda xs: ", ".join(map(repr, xs)))


_CONFIG_TEXT = st.one_of(
    st.lists(
        st.sampled_from(sorted(SCHEMA)).flatmap(
            lambda key: _value_text(key).map(f"{key} = {{}}".format)
        ),
        max_size=5,
    ).map("\n".join),
    st.text(),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_CONFIG_TEXT)
def test_any_config_text_gives_a_config_or_a_config_error(text):
    try:
        config = parse_config_text(text)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)
    assert ExperimentConfig(values=config.values).values == config.values


@pytest.mark.parametrize(
    "values, message",
    [
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"max_jumps": 2.5}, "max_jumps must be an integer, got 2.5"),
        ({"verify.samples": 2.5}, "verify.samples must be an integer, got 2.5"),
        ({"model": "smib", "smib.line0": 1.5}, "smib.line0 must be an integer, got 1.5"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"inverter.x0": 5}, "inverter.x0 must be a list of numbers, got 5"),
        ({"horizon": "abc"}, "horizon must be a number, got 'abc'"),
        (
            {"inverter.profile": "0:1, 0.2:1"},
            "inverter.profile must be a list of (t, value) pairs, got '0:1, 0.2:1'",
        ),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"horizon": True}, "horizon must be a number, got True"),
        ({"horizon": "0.2"}, "horizon must be a number, got '0.2'"),
        ({"seed": 7.0}, "seed must be an integer, got 7.0"),
        (
            {"inverter.profile": [[0, 1], [0.2]]},
            "inverter.profile must be a list of (t, value) pairs, got [[0, 1], [0.2]]",
        ),
        (
            {"inverter.x0": np.zeros((2, 2))},
            "inverter.x0 must be a list of numbers, got array([[0., 0.],\n"
            "       [0., 0.]])",
        ),
        # exact values that no float equals
        ({"horizon": Fraction(1, 5)}, "horizon must be a number, got Fraction(1, 5)"),
        ({"horizon": Decimal("0.2")}, "horizon must be a number, got Decimal('0.2')"),
        (
            {"model": np.array(["smib", "x"])},
            "model must be one of ('inverter', 'smib'), "
            "got array(['smib', 'x'], dtype='<U4')",
        ),
    ],
)
def test_a_value_set_from_python_must_have_its_keys_type(values, message):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(values=values)
    assert str(err.value) == message


def test_values_set_from_python_of_their_keys_type_are_kept_as_read():
    config = ExperimentConfig(
        values={"seed": 7, "noise.q": 1, "inverter.x0": [0, 0, 1.0, 0]}
    )
    assert config["inverter.x0"] == (0.0, 0.0, 1.0, 0.0)
    assert [type(config[key]) for key in ("seed", "noise.q")] == [int, float]
    assert config.scenario().seed == 7


def test_a_value_set_from_python_is_not_the_callers_object():
    x0 = np.array([0.0, 0.0, 1.0, 0.0])
    profile = [[0.0, 1.0], [0.2, 1.0]]
    config = ExperimentConfig(values={
        "inverter.x0": x0, "inverter.profile": profile,
        "seed": np.int64(5), "noise.q": np.float32(0.5),
    })
    echo = config.resolved_items()
    scenario = config.system().scenario
    x0[2] = 5.0
    profile[1][1] = 9.0
    profile.append([0.3, 1.0])
    assert config.resolved_items() == echo
    assert scenario.x0.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert scenario.v_grid.times == (0.0, 0.2) and scenario.v_grid.values == (1.0, 1.0)
    assert config["inverter.profile"] == ((0.0, 1.0), (0.2, 1.0))
    assert {type(value) for value in config.values.values()} <= {str, int, float, tuple}


def _extreme_forms(key, x):
    """``key`` set to the number ``x`` in each of its kind's forms: an entry
    of ``inverter.x0``, the profile's values or one of its breakpoint times."""
    default = SCHEMA[key][1]
    if key == "inverter.x0":
        return [(x,) * 4] + [default[:i] + (x,) + default[i + 1:] for i in range(4)]
    if key == "inverter.profile":
        return [tuple((t, x) for t, _ in default), ((0.0, 1.0), (x, 1.0)),
                ((x, 1.0), (0.2, 1.0))]
    return [type(default)(x)]


@pytest.mark.parametrize(
    "key", [key for key, (parse, _, _) in SCHEMA.items() if parse is not str]
)
def test_an_extreme_number_gives_a_config_or_a_config_error(key):
    # numpy overflow and invalid-value warnings are errors here, so a model
    # build that overflows fails the test instead of running on with inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e308, -1e308, 1.7e308, 1e154, 5e-324):
            for value in _extreme_forms(key, x):
                for model in ("inverter", "smib"):
                    try:
                        ExperimentConfig(values={"model": model, key: value})
                    except ConfigError:
                        pass


def _python_forms(key):
    """A key's value in each form Python may set it in, each valid for the
    key: the default as a Python number and as a numpy scalar, an ``int``
    and a ``float32`` for a float key, and the sequences as lists, tuples
    and arrays."""
    default = SCHEMA[key][1]
    if key == "inverter.x0":
        return [list(default), tuple(default), np.array(default),
                np.array(default, dtype=np.float32), [0, 0, 1, 0]]
    if key == "inverter.profile":
        return [[list(point) for point in default], np.array(default),
                np.array(default, dtype=np.float32)]
    if isinstance(default, int):
        return [default, np.int64(default)]
    whole = max(1, round(default))
    return [default, np.float64(default), np.float32(default), whole, np.int64(whole)]


@pytest.mark.parametrize(
    "key", [key for key, (parse, _, _) in SCHEMA.items() if parse is not str]
)
def test_a_value_set_from_python_echoes_as_text_that_reads_back_as_it(key):
    # the other model's keys are not built into its model, so any value of
    # their kind passes; the shared keys run with the cheap smib model
    model = "inverter" if key.startswith("smib.") else "smib"
    for value in _python_forms(key):
        config = ExperimentConfig(values={"model": model, key: value})
        echo = config.resolved_items()
        read = parse_config_text("".join(f"{k} = {v}\n" for k, v in echo.items()))
        assert np.array_equal(read[key], value), (key, value)
        assert read.resolved_items() == echo
        if SCHEMA[key][0] is float:  # a number runs as the float its echo reads
            assert type(config[key]) is float and echo[key] == repr(float(value))


def test_a_config_set_from_python_writes_the_report_of_its_file_twin(tmp_path):
    values = {
        "horizon": 0.06, "seed": 5, "noise.q": 1, "inverter.x0": [0, 0, 1.0, 0],
        "inverter.profile": [[0, 1], [0.05, 0.5], [0.06, 1]],
    }
    twin = write_cfg(
        tmp_path,
        "horizon = 0.06\nseed = 5\nnoise.q = 1\ninverter.x0 = 0, 0, 1.0, 0\n"
        "inverter.profile = 0:1, 0.05:0.5, 0.06:1\n",
    )
    run_comparison(ExperimentConfig(values={**values, "out": str(tmp_path / "py")}))
    file_values = {**config_module.read_values(twin), "out": str(tmp_path / "file")}
    run_comparison(ExperimentConfig(values=file_values))
    report = (tmp_path / "py" / "report.csv").read_bytes()
    assert b"#   noise.q = 1.0\n" in report
    assert b"#   inverter.profile = 0:1, 0.05:0.5, 0.06:1\n" in report
    assert report == (tmp_path / "file" / "report.csv").read_bytes()


def test_a_config_of_numpy_values_runs_as_the_config_its_report_echoes(tmp_path):
    # float32 values that no short decimal gives: the run must be that of the
    # doubles the echo writes, not float32 arithmetic
    values = {
        "horizon": np.float64(0.0625), "seed": np.int64(5), "noise.q": np.float32(0.01),
        "inverter.x0": np.array([0, 0, 1, 0], dtype=np.float32),
        "inverter.profile": np.array([[0, 1], [0.03, 0.7], [0.0625, 1]], np.float32),
    }
    config = ExperimentConfig(values={**values, "out": str(tmp_path / "py")})
    echo = "".join(f"{k} = {v}\n" for k, v in config.resolved_items().items())
    assert "noise.q = 0.009999999776482582\n" in echo
    assert "inverter.profile = 0:1, 0.029999999329447746:0.699999988079071" in echo
    run_comparison(config)
    twin = config_module.read_values(write_cfg(tmp_path, echo))
    run_comparison(ExperimentConfig(values={**twin, "out": str(tmp_path / "file")}))
    for name in ("report.csv", "trajectory_continuous.csv", "trajectory_hybrid.csv"):
        ours, its_twins = tmp_path / "py" / name, tmp_path / "file" / name
        assert ours.read_bytes() == its_twins.read_bytes(), name


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "noise.r_id = 1e200",
            "noise.r_id = 1e+200 is too large: its variance sigma^2 overflows",
        ),
        (
            "noise.q = 1e308\nhorizon = 100\ndt = 10\ninverter.profile = 0:1, 100:1",
            "noise.q = 1e+308 is too large: its per-step Q = q*dt overflows at "
            "dt = 10.0",
        ),
    ],
    ids=["variance", "per-step-q"],
)
def test_a_noise_key_that_overflows_the_noise_model_is_named(
    tmp_path, capsys, text, message
):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value) == message
    cfg = write_cfg(tmp_path, text + "\n")
    assert cli_main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, model, builds",
    [
        ("simulate", "inverter", 1),
        ("verify", "inverter", 1),
        ("compare", "inverter", 2),  # the second is the truth's own
        ("estimate", "inverter", 2),
        ("simulate", "smib", 1),
        ("verify", "smib", 1),
    ],
)
def test_each_run_builds_its_configured_model_once(
    tmp_path, monkeypatch, command, model, builds
):
    builder = "smib_system" if model == "smib" else "inverter_automaton"
    original = getattr(power, builder)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (power, config_module, compare_module):
        if getattr(module, builder, None) is original:
            monkeypatch.setattr(module, builder, counted)
    # the inverter's one scenario, with the profile and noise model it holds
    made = {}
    for cls in (power.InverterScenario, power.PiecewiseLinearProfile, NoiseModel):

        def counted_init(self, _cls=cls, _init=cls.__post_init__):
            made[_cls.__name__] = made.get(_cls.__name__, 0) + 1
            _init(self)

        monkeypatch.setattr(cls, "__post_init__", counted_init)
    cfg = write_cfg(
        tmp_path,
        f"model = {model}\nhorizon = 0.01\nfilter = hybrid\nverify.samples = 2\n",
    )
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == builds
    names = ("InverterScenario", "PiecewiseLinearProfile", "NoiseModel")
    assert [made.get(name, 0) for name in names] == [int(model == "inverter")] * 3


# A dip inside a short horizon: both switches happen within 20 ms.
SHORT_DIP = (
    "horizon = 0.02\n"
    "inverter.profile = 0:1, 0.005:1, 0.006:0.5, 0.012:0.5, 0.013:1, 0.02:1\n"
)


def test_a_compare_run_reads_one_scenario_on_the_filters_own_grid(
    tmp_path, monkeypatch
):
    config = parse_config_text(SHORT_DIP + f"out = {tmp_path}\n")
    seen = []
    truth = compare_module.generate_truth_and_measurements

    def recorded_truth(scenario, **kwargs):
        seen.append(("truth", scenario))
        return truth(scenario, **kwargs)

    ekf = compare_module.run_ekf

    def recorded_ekf(process, scenario, *args, **kwargs):
        seen.append(("ekf", scenario))
        return ekf(process, scenario, *args, **kwargs)

    monkeypatch.setattr(compare_module, "generate_truth_and_measurements", recorded_truth)
    monkeypatch.setattr(compare_module, "run_ekf", recorded_ekf)
    report, _ = run_comparison(config)
    scenario = config.system().scenario
    assert [name for name, _ in seen] == ["truth", "ekf", "ekf"]
    assert all(arg is scenario for _, arg in seen)
    assert len(report.switching_instants) == 2

    grid = [k * scenario.dt for k in range(scenario.n_steps + 1)]
    for name in ("hybrid", "continuous"):
        _, rows = read_trajectory_csv(str(tmp_path / f"trajectory_{name}.csv"))
        assert [float(row[0]) for row in rows] == grid  # == on floats: bit for bit


def test_a_validated_config_is_read_only():
    config = ExperimentConfig()
    r_pu = config["inverter.r_pu"]
    with pytest.raises(TypeError):
        config.values["inverter.r_pu"] = 5.0
    with pytest.raises(TypeError):
        del config.values["inverter.r_pu"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.values = {**config.values, "inverter.r_pu": 5.0}
    with pytest.raises(dataclasses.FrozenInstanceError):
        config._model = None
    assert config["inverter.r_pu"] == r_pu
    assert config.system().scenario.params.r_pu == r_pu
    # a changed value is a new config, validated and built anew
    changed = ExperimentConfig(values={**config.values, "inverter.r_pu": 5.0})
    assert changed.system().scenario.params.r_pu == 5.0
    assert config.system().scenario.params.r_pu == r_pu


def test_an_unknown_key_set_from_python_is_refused_as_in_a_file():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(values={"noise.qq": 1.0})
    assert str(err.value) == "unknown key 'noise.qq'"
    with pytest.raises(ConfigError) as err:
        parse_config_text("noise.qq = 1.0\n")
    assert str(err.value) == "<config>:1: unknown key 'noise.qq'"


def test_out_set_from_python_is_text_or_a_path(tmp_path):
    with pytest.raises(ConfigError) as err:
        run_comparison(ExperimentConfig(values={"out": 5, "horizon": 0.01}))
    assert str(err.value) == "out must be text or a path, got 5"
    out = tmp_path / "o"
    _, paths = run_comparison(ExperimentConfig(values={"out": out, "horizon": 0.01}))
    assert sorted(os.listdir(out)) == [
        "report.csv", "trajectory_continuous.csv", "trajectory_hybrid.csv"
    ]
    assert all(pathlib.Path(path).parent == out for path in paths)


def test_compare_writes_three_files_and_is_byte_deterministic(tmp_path, monkeypatch):
    # the seed-42 digests are the benchmark's own pin table; its dataclasses
    # look their module up in sys.modules while it loads
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    cfg = write_cfg(tmp_path, "model = inverter\nfilter = both\nseed = 42\n")
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli_main(["compare", "--config", cfg, "--out", out_a]) == 0
    assert cli_main(["compare", "--config", cfg, "--seed", "42", "--out", out_b]) == 0
    names = sorted(os.listdir(out_a))
    assert names == ["report.csv", "trajectory_continuous.csv", "trajectory_hybrid.csv"]
    for name in names:
        with open(os.path.join(out_a, name), "rb") as fa:
            with open(os.path.join(out_b, name), "rb") as fb:
                data = fa.read()
                assert data == fb.read(), f"{name} differs between reruns"
        assert hashlib.sha256(data).hexdigest() == workloads.GOLDEN_COMPARE_DIGESTS[name]


# An out-of-step SMIB (p_m above the transfer limit): line 1 trips and is
# restored nine times in 5 s, each crossing of the state-dependent guard
# localized on the RK4 interpolant.  The SMIB digests are of the simulate
# trajectory and of a verify sweep whose witness is the first localized
# trip, taken with the Illinois false-position localizer; its crossings
# stay within LOCATE_TOL of the bisection localizer it replaced
# (test_events.py compares the two).  The inverter digests are of the
# seed-42 reference simulate, with its two time-triggered switches, and of
# a reference verify whose witness exceeds i_lim after the first switch,
# taken before trajectories were stored as columns.
SMIB_TRIPS = (
    "model = smib\nhorizon = 5.0\ndt = 0.01\nmax_jumps = 1000000\n"
    "smib.p_m = 2.0\nsmib.d = 0.5\nsmib.p_e_max = 1.5\n"
    "verify.samples = 5\nverify.delta_half_width = 0.6\n"
    "verify.omega_half_width = 6\nseed = 7\n"
)
INVERTER_REF = "model = inverter\nseed = 42\n"
GOLDEN_EVENT_PATH_DIGESTS = {
    # test id: (config, command, output file, SHA-256)
    "simulate-trajectory_smib.csv": (
        SMIB_TRIPS, "simulate", "trajectory_smib.csv",
        "f7f2c445927e5b3a181cc722ef9cdf0d630b6f934af53c657dc745952fece193",
    ),
    "verify-verify_report.txt": (
        SMIB_TRIPS, "verify", "verify_report.txt",
        "6690547a1bbe2f24eab4b0428a4a9ed2a71b617b4d360456c3381771bb351b35",
    ),
    "simulate-trajectory_inverter.csv": (
        INVERTER_REF, "simulate", "trajectory_inverter.csv",
        "8042125d1d6f21d08185b83fd91f52c814be064bfbc4882b52defd4289ae2cf6",
    ),
    "verify-inverter-verify_report.txt": (
        INVERTER_REF, "verify", "verify_report.txt",
        "b62bcd3de2fd3ccb52837ecfc5d518976bcfbafdd6bdc349555f30f9e8bd1eeb",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_EVENT_PATH_DIGESTS))
def test_smib_event_path_bytes_are_pinned(tmp_path, case):
    text, command, name, golden = GOLDEN_EVENT_PATH_DIGESTS[case]
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert cli_main([command, "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, name), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == golden


@pytest.mark.parametrize("command", ["compare", "estimate"])
def test_truth_stopped_by_its_jump_budget_exits_1_naming_it(tmp_path, capsys, command):
    # the reference truth switches at 0.054, which a zero jump budget forbids
    cfg = write_cfg(tmp_path, "max_jumps = 0\nfilter = hybrid\n")
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: the truth stopped at t=0.054 (max jumps reached) before the "
        "horizon 0.2; raise max_jumps = 0\n"
    )


def test_covariance_overflow_is_a_typed_error_naming_its_time(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "noise.q = 1e308\ndt = 0.1\nhorizon = 0.2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["compare", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: predicted covariance overflowed at t=0.1 in mode 'GFM'\n"
    )


def test_update_losing_psd_is_a_typed_error_naming_time_and_mode(tmp_path, capsys):
    # with this process noise (I - KH)P loses its sign to cancellation
    cfg = write_cfg(tmp_path, "noise.q = 1e300\nhorizon = 0.01\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = {**load_config(cfg).values, "out": str(tmp_path / "lib")}
        with pytest.raises(NumericalFailureError) as err:
            run_comparison(ExperimentConfig(values=values))
        code = cli_main(["compare", "--config", cfg, "--out", str(tmp_path / "o")])
    message = str(err.value)
    assert "not PSD" in message and "t=0.0004" in message and "'GFL'" in message
    assert err.value.time == 4 * 1e-4
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, text, code",
    [
        ("compare", "ekf.p0 = 1e308\nhorizon = 0.01", 2),
        ("verify", "model = smib\nverify.delta_half_width = 1e308", 1),
        ("verify", "model = smib\nverify.omega_half_width = 1e308", 1),
        ("verify", "verify.x0_half_width = 1e308", 1),
    ],
)
def test_extreme_valid_values_exit_with_one_error_line(tmp_path, capsys, command, text, code):
    cfg = write_cfg(tmp_path, text + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert got == code
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if code == 1:  # the sampling box: the error names its half-width key
        assert text.rpartition("\n")[2].partition(" = ")[0] in err


@pytest.mark.parametrize(
    "command, out",
    [("compare", "afile"), ("verify", "afile/sub"), ("simulate", "afile")],
)
def test_an_out_that_is_a_file_or_runs_through_one_exits_1_naming_it(
    tmp_path, command, out
):
    # through the installed entry point's own path: python -m hdsim, cli.main
    (tmp_path / "afile").write_text("")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-m", "hdsim", command, "--out", out], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: output directory {out!r} is a file or lies under one\n"


def test_compare_different_seed_changes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, "model = inverter\n")
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli_main(["compare", "--config", cfg, "--seed", "1", "--out", out_a]) == 0
    assert cli_main(["compare", "--config", cfg, "--seed", "2", "--out", out_b]) == 0
    with open(os.path.join(out_a, "trajectory_hybrid.csv"), "rb") as fa:
        with open(os.path.join(out_b, "trajectory_hybrid.csv"), "rb") as fb:
            assert fa.read() != fb.read()


def test_estimate_requires_single_filter(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "filter = both\n")
    assert cli_main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_estimate_single_filter_runs(tmp_path):
    cfg = write_cfg(tmp_path, "filter = hybrid\nnoise.r_id = 0\nnoise.r_iq = 0\n"
                              "noise.r_vd = 0\nnoise.r_vq = 0\n")
    out = str(tmp_path / "est")
    assert cli_main(["estimate", "--config", cfg, "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == ["report.csv", "trajectory_hybrid.csv"]
    # noiseless filter tracks its own generator: hat columns equal truth
    header, rows = read_trajectory_csv(os.path.join(out, "trajectory_hybrid.csv"))
    i_d = header.index("i_d")
    ihat_d = header.index("ihat_d")
    worst = max(abs(float(r[i_d]) - float(r[ihat_d])) for r in rows)
    assert worst <= 1e-6


def test_compare_with_one_noiseless_channel_runs(tmp_path):
    # R is singular but not zero: the measurement noise takes its square
    # root from an eigendecomposition, and only the v_d channel is exact
    cfg = write_cfg(tmp_path, "noise.r_vd = 0\nhorizon = 0.06\n")
    assert cli_main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    scenario = load_config(cfg).scenario()
    truth, z = generate_truth_and_measurements(scenario)
    grid = truth.grid_states(0.0, scenario.dt, scenario.n_steps)
    exact = [np.array_equal(z[:, i], grid[:, i]) for i in range(4)]
    assert exact == [False, False, True, False]


def test_simulate_inverter_csv_round_trips(tmp_path):
    cfg = write_cfg(tmp_path, "model = inverter\n")
    out = str(tmp_path / "sim")
    assert cli_main(["simulate", "--config", cfg, "--out", out]) == 0
    path = os.path.join(out, "trajectory_inverter.csv")
    header, rows = read_trajectory_csv(path)
    assert header == ["t", "j", "mode", "i_d", "i_q", "v_d", "v_q"]

    from hdsim import inverter_automaton, simulate
    sc = load_config(cfg).scenario()
    traj = simulate(
        inverter_automaton(sc.params, sc.v_grid), sc.x0, sc.horizon, 50,
        sc.dt, mode0="GFL",
    )
    assert len(rows) == len(traj.samples)
    for row, sample in zip(rows, traj.samples):
        assert float(row[0]) == sample.time.t
        assert int(row[1]) == sample.time.j
        assert row[2] == sample.mode
        recovered = np.array([float(c) for c in row[3:]])
        assert np.array_equal(recovered, sample.state)


def test_verify_smib_reports_witness(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "model = smib\nhorizon = 1.0\nsmib.delta0 = 0.5\n"
        "smib.i_max = 1.1\nsmib.p_max = 0.2\nverify.samples = 3\n"
        "verify.delta_half_width = 0\nverify.omega_half_width = 0\n",
    )
    out = str(tmp_path / "verify")
    assert cli_main(["verify", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "verify_report.txt")) as fh:
        text = fh.read()
    assert "verdict: unsafe" in text
    assert "witness time:" in text


def test_verify_safe_case(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "model = smib\nhorizon = 0.5\nsmib.delta0 = 0.5\n"
        "verify.samples = 2\nverify.i_unsafe = 10.0\n",
    )
    out = str(tmp_path / "verify")
    assert cli_main(["verify", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "verify_report.txt")) as fh:
        assert "no-counterexample-found" in fh.read()


def test_hds_seed_env_is_lowest_priority(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "model = inverter\nfilter = hybrid\n")
    out_env = str(tmp_path / "env")
    out_flag = str(tmp_path / "flag")
    monkeypatch.setenv("HDS_SEED", "1")
    assert cli_main(["estimate", "--config", cfg, "--out", out_env]) == 0
    with open(os.path.join(out_env, "report.csv")) as fh:
        assert "seed = 1" in fh.read()
    assert cli_main(
        ["estimate", "--config", cfg, "--seed", "5", "--out", out_flag]
    ) == 0
    with open(os.path.join(out_flag, "report.csv")) as fh:
        assert "seed = 5" in fh.read()


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


def _grid():
    # dt must divide the horizon for the inverter: horizon = steps * dt
    return st.integers(1, 500).flatmap(
        lambda steps: st.floats(1e-3, 0.5 / steps).map(
            lambda dt: {"dt": repr(dt), "horizon": repr(steps * dt)}
        )
    )


_SMALL_COMMON = {
    "verify.samples": st.integers(1, 8).map(str),
    "seed": st.integers(0, 2**31 - 1).map(str),
    "max_jumps": st.integers(0, 50).map(str),
    "verify.i_unsafe": _num(-1.0, 3.0),
}
_SMALL_SMIB = st.fixed_dictionaries(
    {"model": st.just("smib"), **_SMALL_COMMON},
    optional={
        "smib.m": _num(0.01, 1.0),
        "smib.d": _num(0.0, 1.0),
        "smib.p_m": _num(0.0, 3.0),
        "smib.p_e_max": _num(0.1, 3.0),
        "smib.i_max": _num(0.0, 3.0),
        "smib.p_min": _num(-1.0, 0.8),
        "smib.p_max": _num(0.6, 1.5),
        "smib.delta0": _num(-3.5, 3.5),
        "smib.omega0": _num(-10.0, 10.0),
        "smib.line0": st.sampled_from(["1", "2", "3"]),
        "verify.delta_half_width": _num(0.0, 1.0),
        "verify.omega_half_width": _num(0.0, 6.0),
    },
)
_SMALL_INVERTER = st.fixed_dictionaries(
    {
        "model": st.just("inverter"),
        "inverter.profile": st.sampled_from(
            ["0:1, 0.1:1, 0.12:0.5, 0.3:0.5, 0.32:1, 0.5:1", "0:1, 0.5:0.6"]
        ),
        **_SMALL_COMMON,
    },
    optional={
        "inverter.i_lim": _num(0.1, 2.0),
        "inverter.v_low": _num(0.5, 0.85),
        "inverter.v_high": _num(0.8, 1.0),
        "verify.x0_half_width": _num(0.0, 0.5),
    },
)
_SMALL_CONFIGS = {
    "verify": st.one_of(_SMALL_SMIB, _SMALL_INVERTER),
    "simulate": st.one_of(_SMALL_SMIB, _SMALL_INVERTER),
    "estimate": st.builds(
        lambda values, which: {**values, "filter": which},
        _SMALL_INVERTER, st.sampled_from(["hybrid", "continuous"]),
    ),
    "compare": _SMALL_INVERTER,
}


@pytest.mark.parametrize("command", sorted(_SMALL_CONFIGS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_small_configs_exit_cleanly(command, data):
    import contextlib
    import io
    import tempfile

    values = {**data.draw(_SMALL_CONFIGS[command]), **data.draw(_grid())}
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "exp.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            out = os.path.join(tmp, "out")
            code = cli_main([command, "--config", cfg, "--out", out])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")
