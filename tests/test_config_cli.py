"""Configuration parsing, seed precedence, and the command-line driver."""

import hashlib
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdsim import cli_main, load_config, parse_config_text, reference_scenario
from hdsim.config import SCHEMA, ExperimentConfig, resolve_seed
from hdsim.compare import run_comparison
from hdsim.errors import ConfigError, NumericalFailureError
from hdsim.report import read_trajectory_csv


def test_defaults_without_file():
    config = load_config(None)
    assert config["model"] == "inverter"
    assert config["dt"] == 1e-4
    assert config["inverter.l_pu"] == 0.0189


def test_default_config_is_the_reference_scenario():
    ours = ExperimentConfig().scenario()
    ref = reference_scenario()
    assert ours.params == ref.params
    assert ours.v_grid == ref.v_grid
    assert np.array_equal(ours.x0, ref.x0)
    assert (ours.horizon, ours.dt, ours.seed) == (ref.horizon, ref.dt, ref.seed)
    for name in ("q", "r", "h"):
        assert np.array_equal(getattr(ours.noise, name), getattr(ref.noise, name))


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


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("inverter.vlow = 0.8")
    assert "unknown key" in str(err.value)


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("dt = fast")
    with pytest.raises(ConfigError):
        parse_config_text("filter = median")
    with pytest.raises(ConfigError):
        parse_config_text("model = inverter\nhorizon = -1")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("just some words")


def test_seed_precedence(monkeypatch):
    monkeypatch.delenv("HDS_SEED", raising=False)
    default = ExperimentConfig()
    assert resolve_seed(default, None) == 42
    monkeypatch.setenv("HDS_SEED", "7")
    assert resolve_seed(default, None) == 7
    explicit = parse_config_text("seed = 9")
    assert resolve_seed(explicit, None) == 9  # config beats env
    assert resolve_seed(explicit, 3) == 3  # flag beats config
    monkeypatch.setenv("HDS_SEED", "oops")
    with pytest.raises(ConfigError):
        resolve_seed(default, None)


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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


# SHA-256 of the three seed-42 compare files, copied from
# GOLDEN_COMPARE_DIGESTS in bench/workloads.py.
GOLDEN_COMPARE_DIGESTS = {
    "report.csv": "77dfb7eac0a478bdcb2d4615e65ea45f854929da3be324763628249f456b16aa",
    "trajectory_continuous.csv":
        "36071396d51721c9dfd577d2029a1ef8db55066061f543f396f9053a118b0236",
    "trajectory_hybrid.csv":
        "f8ae6594eb48b73ee2dbb464761dc02023d0e8ea7d600016b805b8bc62c505ac",
}


def test_compare_writes_three_files_and_is_byte_deterministic(tmp_path):
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
        assert hashlib.sha256(data).hexdigest() == GOLDEN_COMPARE_DIGESTS[name]


# An out-of-step SMIB (p_m above the transfer limit): line 1 trips and is
# restored nine times in 5 s, each crossing of the state-dependent guard
# localized on the RK4 interpolant.  SHA-256 of the simulate trajectory and
# of a verify sweep whose witness is the first localized trip, taken before
# the event path began reusing its RK4 stages, states and margins.
SMIB_TRIPS = (
    "model = smib\nhorizon = 5.0\ndt = 0.01\nmax_jumps = 1000000\n"
    "smib.p_m = 2.0\nsmib.d = 0.5\nsmib.p_e_max = 1.5\n"
)
GOLDEN_SMIB_DIGESTS = {
    ("simulate", "trajectory_smib.csv"):
        "801543bb0f386142e0964724e75ab52e4d31a494d8ea97330fd241b4f95c52d4",
    ("verify", "verify_report.txt"):
        "b90c72e47e3b707fabe92bd1108b9a2c990362419e01643b873b062a159faba7",
}


@pytest.mark.parametrize("command, name", sorted(GOLDEN_SMIB_DIGESTS))
def test_smib_event_path_bytes_are_pinned(tmp_path, command, name):
    sweep = (
        "verify.samples = 5\nverify.delta_half_width = 0.6\n"
        "verify.omega_half_width = 6\nseed = 7\n"
    )
    cfg = write_cfg(tmp_path, SMIB_TRIPS + sweep)
    out = str(tmp_path / "out")
    assert cli_main([command, "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, name), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == GOLDEN_SMIB_DIGESTS[command, name]


def test_covariance_overflow_is_a_typed_error_naming_its_time(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "noise.q = 1e308\ndt = 0.1\nhorizon = 0.2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["compare", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "error: predicted covariance overflowed at t=0.1\n"


def test_update_losing_psd_is_a_typed_error_naming_time_and_mode(tmp_path, capsys):
    # with this process noise (I - KH)P loses its sign to cancellation
    cfg = write_cfg(tmp_path, "noise.q = 1e300\nhorizon = 0.01\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError) as err:
            run_comparison(load_config(cfg), str(tmp_path / "lib"))
        code = cli_main(["compare", "--config", cfg, "--out", str(tmp_path / "o")])
    message = str(err.value)
    assert "not PSD" in message and "t=0.0004" in message and "'GFL'" in message
    assert err.value.time == 4 * 1e-4
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
