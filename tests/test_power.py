"""Inverter and SMIB model checks."""

import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import expit

from hdsim import (
    ArgumentError,
    ExperimentConfig,
    InverterParams,
    InverterScenario,
    PiecewiseLinearProfile,
    SmibParams,
    blended_flow,
    current_clamp,
    generate_truth_and_measurements,
    gfl_flow,
    gfm_flow,
    gfm_system_matrices,
    inverter_automaton,
    mode_sigmoid,
    saltation_matrix,
    simulate,
    smib_state,
    smib_system,
)
from hdsim._pcg64 import PCG64
from hdsim.estimation import NoiseModel
from hdsim.power import GFL, GaussianStream

from oracles import box_muller_normals, integrate_flow, swing_field
from refusals import refusal_test

P = InverterParams()


# -- GFL flow ----------------------------------------------------------------


def test_gfl_current_equilibrium():
    # with v_d = R and v_q = omega L, unit d-current is an equilibrium of
    # both current equations
    x = np.array([1.0, 0.0, 1.89, 0.0189])
    dx = gfl_flow(x, v_grid=1.89, p=P)
    assert abs(dx[0]) < 1e-12 and abs(dx[1]) < 1e-12


def test_gfl_origin_equilibrium():
    dx = gfl_flow(np.zeros(4), v_grid=0.0, p=P)
    assert np.all(dx == 0.0)


def test_gfl_voltage_tracking_rate():
    dx = gfl_flow(np.zeros(4), v_grid=1.0, p=P)
    assert abs(dx[2] - 1.0 / P.tau_v) < 1e-12


# -- GFM flow ----------------------------------------------------------------


def test_gfm_zero_current_means_static_voltages():
    dx = gfm_flow(np.array([0.0, 0.0, 0.7, -0.3]), p=P)
    assert dx[2] == 0.0 and dx[3] == 0.0


def test_gfm_reference_reached_means_zero_algebraic_currents():
    dx = gfm_flow(np.array([0.0, 0.0, 1.0, 0.0]), p=P)
    assert np.all(dx == 0.0)


def test_gfm_algebraic_q_current():
    # i_q_alg = -v_q / R = 1 when v_q = -1.89; tracking rate (1 - i_q)/tau_i
    dx = gfm_flow(np.array([0.0, 0.0, 1.0, -1.89]), p=P)
    assert abs(dx[1] - 1.0 / P.tau_i) < 1e-12


def test_gfm_affine_form_is_exact():
    a, b = gfm_system_matrices(P)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(4)
        assert np.max(np.abs(gfm_flow(x, P) - (a @ x + b))) < 1e-12


def test_gfm_matrices_have_the_documented_open_loop_spectrum():
    # the instability note of gfm_flow: about +50.4 +- 0.48j and -1050.4 +- 0.48j
    a, _ = gfm_system_matrices(InverterParams())
    eig = sorted(np.linalg.eigvals(a), key=lambda z: (z.real, z.imag))
    expected = [-1050.4 - 0.48j, -1050.4 + 0.48j, 50.4 - 0.48j, 50.4 + 0.48j]
    assert np.allclose(eig, expected, atol=0.05)


def test_gfm_trajectory_matches_matrix_exponential():
    a, b = gfm_system_matrices(P)
    aug = np.zeros((5, 5))
    aug[:4, :4] = a
    aug[:4, 4] = b
    x0 = np.array([0.0, 0.0, 1.0, 0.0])
    samples = integrate_flow(lambda x, t: gfm_flow(x, P), x0, 0.0, 0.2, 1e-4)
    worst = 0.0
    for t, x in samples[::100]:
        exact = (expm(aug * t) @ np.concatenate([x0, [1.0]]))[:4]
        worst = max(worst, float(np.max(np.abs(x - exact))))
    assert worst < 1e-8


# -- sigmoid blend ------------------------------------------------------------


def test_blend_midpoint_is_exact_mean():
    x = np.array([0.4, -0.1, 0.9, 0.05])
    v = P.sigmoid_mid
    assert mode_sigmoid(v, P) == 0.5
    blend = blended_flow(x, v, P)
    mean = 0.5 * gfl_flow(x, v, P) + 0.5 * gfm_flow(x, P)
    assert np.max(np.abs(blend - mean)) < 1e-15


def test_blend_far_above_threshold_is_nearly_gfl():
    x = np.array([0.4, -0.1, 0.9, 0.05])
    v = P.sigmoid_mid + 0.2
    assert abs(mode_sigmoid(v, P) - 0.9999546021312976) < 1e-12  # expit(10)
    f_gfl = gfl_flow(x, v, P)
    f_gfm = gfm_flow(x, P)
    gap = np.linalg.norm(f_gfm - f_gfl)
    assert np.linalg.norm(blended_flow(x, v, P) - f_gfl) <= 1e-4 * gap


def test_sigmoid_equals_expit_bitwise_on_a_dense_voltage_grid():
    v = np.linspace(0.0, 1.5, 300_001)
    ours = np.array([mode_sigmoid(x, P) for x in v.tolist()])
    theirs = np.array([expit(P.sigmoid_gain * (x - P.sigmoid_mid)) for x in v.tolist()])
    assert np.array_equal(ours.view(np.int64), theirs.view(np.int64))


def test_sigmoid_equals_expit_bitwise_on_random_arguments():
    # gain 1 and midpoint 0 make the argument z = v_grid itself
    unit = replace(P, sigmoid_gain=1.0, sigmoid_mid=0.0)
    z = np.random.default_rng(9).uniform(-800.0, 800.0, 200_000)
    ours = np.array([mode_sigmoid(x, unit) for x in z.tolist()])
    theirs = np.array([expit(x) for x in z.tolist()])
    assert np.array_equal(ours.view(np.int64), theirs.view(np.int64))


def test_sigmoid_edge_values():
    unit = replace(P, sigmoid_gain=1.0, sigmoid_mid=0.0)
    assert mode_sigmoid(0.0, unit) == 0.5
    assert mode_sigmoid(-0.0, unit) == 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mode_sigmoid(-709.0, unit) == expit(-709.0) > 0.0
        for z in (-710.0, -745.0, -1e6, -1e308):
            assert mode_sigmoid(z, unit) == 0.0 == expit(z)
        assert mode_sigmoid(float("inf"), P) == 1.0 == expit(np.inf)
        assert mode_sigmoid(float("-inf"), P) == 0.0 == expit(-np.inf)
        sharp = replace(P, sigmoid_gain=1e6)
        for v in (0.0, 0.8499, P.sigmoid_mid, 0.8500001, 0.85 + 1e-9, 1.0, 1.5):
            expected = expit(1e6 * (v - P.sigmoid_mid))
            assert mode_sigmoid(v, sharp) == expected
            assert isinstance(mode_sigmoid(v, sharp), float)


def test_cold_start_imports_no_scipy():
    code = (
        "import sys\n"
        "import hdsim, hdsim.cli\n"
        "from hdsim import InverterParams, SmibParams, blended_field, "
        "inverter_automaton, mode_sigmoid, smib_system\n"
        "p = InverterParams()\n"
        "inverter_automaton(p, lambda t: 1.0)\n"
        "blended_field(p, lambda t: 1.0)\n"
        "smib_system(SmibParams())\n"
        "mode_sigmoid(0.9, p)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    (scipy_modules,) = done.stdout.splitlines()
    assert scipy_modules == "[]"


@pytest.mark.parametrize(
    "config",
    [
        "model = smib\nhorizon = 1.0\nsmib.p_m = 2.0\nsmib.d = 0.5\n"
        "verify.samples = 3\nverify.delta_half_width = 0.6\nverify.omega_half_width = 6\n",
        "model = inverter\nhorizon = 0.2\nverify.samples = 3\n",
    ],
    ids=["smib", "inverter"],
)
def test_a_verify_run_imports_no_numpy_ma(tmp_path, config):
    # numpy.ma costs a fresh process about 17 ms and 1.25 MB (numpy 2.4, where
    # `import numpy` leaves it out and np.unique loads it)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]
    code = (
        "import sys, numpy\n"
        "def ma(): return {m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']}\n"
        "before = ma()\n"
        "from hdsim.cli import cli_main\n"
        f"assert cli_main({argv!r}) == 0\n"
        "print(sorted(ma() - before))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "[]"


def test_compare_estimate_and_verify_never_import_numpy_random(tmp_path):
    # numpy.random costs a fresh process about 16 ms and 5.6 MB of peak RSS
    # (numpy 2.4); the seeded draws come from hdsim._pcg64 instead
    runs = [
        ("compare", "model = inverter\nhorizon = 0.08\n"),
        ("estimate", "model = inverter\nhorizon = 0.08\nfilter = continuous\n"),
        ("verify", "model = inverter\nhorizon = 0.08\nverify.samples = 3\n"),
        ("verify", "model = smib\nhorizon = 0.5\nverify.samples = 3\n"),
    ]
    argvs = []
    for i, (command, config) in enumerate(runs):
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_text(config)
        argvs.append([command, "--config", str(cfg), "--out", str(tmp_path / f"o{i}")])
    code = (
        "import sys\n"
        "from hdsim.cli import cli_main\n"
        f"for argv in {argvs!r}:\n"
        "    assert cli_main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "[]"


def test_blend_of_identical_fields_is_that_field():
    # both fields are affine in x; solve for the state where they agree
    from hdsim import numerical_jacobian

    v = 0.9
    a_gfl = numerical_jacobian(lambda x: gfl_flow(x, v, P), np.zeros(4))
    a_gfm = numerical_jacobian(lambda x: gfm_flow(x, P), np.zeros(4))
    b_gfl = gfl_flow(np.zeros(4), v, P)
    b_gfm = gfm_flow(np.zeros(4), P)
    x_star = np.linalg.solve(a_gfl - a_gfm, b_gfm - b_gfl)
    f_gfl = gfl_flow(x_star, v, P)
    assert np.max(np.abs(f_gfl - gfm_flow(x_star, P))) < 1e-6
    blend = blended_flow(x_star, v, P)
    assert np.max(np.abs(blend - f_gfl)) < 1e-6


def test_blend_converges_to_mode_fields_for_sharp_gain():
    sharp = InverterParams(sigmoid_gain=5000.0)
    x = np.array([0.4, -0.1, 0.9, 0.05])
    for dv, target in ((0.05, "gfl"), (-0.05, "gfm")):
        v = sharp.sigmoid_mid + dv
        f_gfl = gfl_flow(x, v, sharp)
        f_gfm = gfm_flow(x, sharp)
        blend = blended_flow(x, v, sharp)
        ref = f_gfl if target == "gfl" else f_gfm
        scale = max(np.linalg.norm(ref), np.linalg.norm(f_gfm - f_gfl))
        assert np.linalg.norm(blend - ref) <= 1e-6 * scale


# -- clamp reset ---------------------------------------------------------------


def test_clamp_definition_and_idempotence():
    x = np.array([2.0, -1.5, 0.8, 0.1])
    once = current_clamp(x, P)
    assert once[0] == P.i_lim and once[1] == -P.i_lim
    assert once[2] == 0.8 and once[3] == 0.1
    assert np.array_equal(current_clamp(once, P), once)


# -- inverter automaton --------------------------------------------------------


def test_constant_nominal_voltage_never_leaves_gfl():
    profile = PiecewiseLinearProfile(times=(0.0, 0.2), values=(1.0, 1.0))
    automaton = inverter_automaton(P, profile)
    traj = simulate(automaton, np.array([0.0, 0.0, 1.0, 0.0]), 0.2, 10, 1e-4,
                    mode0=GFL)
    assert len(traj.jumps) == 0
    assert set(traj.modes) == {GFL}


def test_default_scenario_has_two_jumps_at_analytic_crossings():
    sc = ExperimentConfig().scenario()
    automaton = inverter_automaton(sc.params, sc.v_grid)
    traj = simulate(automaton, sc.x0, sc.horizon, 10, sc.dt, mode0=GFL)
    assert [r.edge for r in traj.jumps] == ["GFL->GFM", "GFM->GFL"]
    # ramp 1.0->0.5 over [0.05, 0.06] crosses 0.8 at 0.054;
    # ramp 0.5->1.0 over [0.12, 0.13] crosses 0.9 at 0.128
    assert abs(traj.jump_times[0] - 0.054) <= 1e-9
    assert abs(traj.jump_times[1] - 0.128) <= 1e-9


def test_reset_clamps_currents_only():
    params = InverterParams(i_lim=1.2)
    profile = ExperimentConfig().scenario().v_grid
    automaton = inverter_automaton(params, profile)
    _, _, (edge,) = automaton.locations[GFL]
    post = edge.reset(np.array([2.0, 0.1, 0.77, -0.02]))
    assert post[0] == 1.2
    assert post[1] == 0.1
    assert post[2] == 0.77 and post[3] == -0.02


def test_hysteresis_alternates_edges_on_random_profiles():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n_pts = int(rng.integers(3, 8))
        times = np.sort(rng.random(n_pts)) * 0.18
        times = np.concatenate([[0.0], times, [0.2]])
        values = rng.random(times.size) * 0.8 + 0.4  # 0.4 .. 1.2 pu
        values[0] = 1.0
        profile = PiecewiseLinearProfile(tuple(times), tuple(values))
        automaton = inverter_automaton(P, profile)
        traj = simulate(automaton, np.array([0.0, 0.0, 1.0, 0.0]),
                        0.2, 20, 2e-4, mode0=GFL)
        edges = [r.edge for r in traj.jumps]
        for first, second in zip(edges, edges[1:]):
            assert first != second  # strict alternation under hysteresis
        # the guards keep each mode in its domain
        for s in traj.samples:
            if s.mode == GFL:
                assert profile(s.time.t) >= P.v_low - 1e-6
            else:
                assert profile(s.time.t) <= P.v_high + 1e-6
        for r in traj.jumps:
            v_at_jump = profile(r.t)
            if r.edge == "GFL->GFM":
                assert abs(v_at_jump - P.v_low) <= 1e-6
            else:
                assert abs(v_at_jump - P.v_high) <= 1e-6


def test_no_jump_inside_hysteresis_band():
    # profile dips into the band (0.85) without crossing v_low: no jumps
    profile = PiecewiseLinearProfile(
        times=(0.0, 0.05, 0.1, 0.2), values=(1.0, 0.85, 1.0, 1.0)
    )
    automaton = inverter_automaton(P, profile)
    traj = simulate(automaton, np.array([0.0, 0.0, 1.0, 0.0]), 0.2, 10, 1e-4,
                    mode0=GFL)
    assert len(traj.jumps) == 0


# -- grid-voltage profile -----------------------------------------------------


def ten_dip_profile(seed):
    """Ten seeded dips, one per 0.1 s slot, each below v_low and back to 1 pu."""
    rng = np.random.default_rng(seed)
    points = [(0.0, 1.0)]
    for k in range(10):
        start = k * 0.1 + rng.uniform(0.01, 0.03)
        fall, hold, rise = rng.uniform(0.004, 0.03, 3)
        depth = rng.uniform(0.4, 0.7)
        points += [(start, 1.0), (start + fall, depth),
                   (start + fall + hold, depth), (start + fall + hold + rise, 1.0)]
    points.append((1.0, 1.0))
    times, values = zip(*points)
    return PiecewiseLinearProfile(tuple(float(t) for t in times),
                                  tuple(float(v) for v in values))


@pytest.mark.parametrize(
    "profile", [ExperimentConfig().scenario().v_grid, ten_dip_profile(11)]
)
def test_profile_lookup_is_bitwise_np_interp(profile):
    xs = np.asarray(profile.times)
    rng = np.random.default_rng(5)
    span = xs[-1] - xs[0]
    points = np.concatenate([
        xs,  # on every breakpoint
        np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
        xs[0] - span * rng.random(50),  # below the first breakpoint
        xs[-1] + span * rng.random(50),  # above the last
        rng.uniform(xs[0], xs[-1], 5000),
        np.arange(0, 10001) * 1e-4,  # the simulation grid and its half-steps
        np.arange(0, 10000) * 1e-4 + 5e-5,
    ])
    got = np.array([profile(float(t)) for t in points])
    want = np.array([np.interp(float(t), profile.times, profile.values) for t in points])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("times, values, want", [
    # through a breakpoint on the level, touching it, a plateau on it
    ((0.0, 0.05, 0.1, 0.2), (1.0, 0.8, 0.5, 1.0), (0.05, 0.16)),
    ((0.0, 0.05, 0.1), (1.0, 0.8, 1.0), (0.05,)),
    ((0.0, 0.05, 0.1, 0.2), (1.0, 0.8, 0.8, 1.0), (0.05, 0.1)),
    ((0.0, 0.05, 0.1), (1.0, 0.9, 1.0), ()),
    # two dips, each crossing down then up, in time order
    ((0.0, 0.05, 0.06, 0.12, 0.13, 0.2, 0.25, 0.26, 0.3),
     (1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 0.6, 1.0, 1.0),
     (0.054, 0.126, 0.225, 0.255)),
], ids=["through-breakpoint", "touch", "plateau", "none", "two-dips"])
def test_crossing_times_list_each_instant_once(times, values, want):
    got = PiecewiseLinearProfile(times, values).crossing_times(0.8)
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("times, values, name", [
    ((0.0, np.nan, 1.0), (1.0, 1.0, 1.0), "times"),
    ((0.0, 1.0), (1.0, np.inf), "values"),
    ((0, 10**400), (1, 1), "times"),
    (0.5, 1.0, "times"),
    ((0.0, 1.0), 0.5, "values"),
], ids=["nan-time", "inf-value", "huge-int-time", "scalar-times", "scalar-values"])
def test_profile_refuses_non_finite_breakpoints(times, values, name):
    with pytest.raises(
        ArgumentError, match=rf"PiecewiseLinearProfile\.{name} must be finite"
    ):
        PiecewiseLinearProfile(times, values)


@pytest.mark.parametrize("record, name, value", [
    (InverterParams, "l_pu", np.nan),
    (InverterParams, "tau_v", np.nan),
    (InverterParams, "i_lim", np.nan),
    (InverterParams, "sigmoid_gain", np.nan),
    (InverterParams, "omega", np.inf),
    (SmibParams, "m", np.nan),
    (SmibParams, "d", np.nan),
    (SmibParams, "i_max", np.nan),
    (SmibParams, "m", np.inf),
    (SmibParams, "p_e_max", np.nan),
    pytest.param(InverterParams, "omega", 10**400, id="InverterParams-omega-huge-int"),
    pytest.param(InverterParams, "omega", "1", id="InverterParams-omega-text"),
    pytest.param(InverterParams, "omega", None, id="InverterParams-omega-None"),
    pytest.param(SmibParams, "m", 10**400, id="SmibParams-m-huge-int"),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_model_parameters_refuse_non_finite_values(record, name, value):
    with pytest.raises(
        ArgumentError, match=rf"{record.__name__}\.{name} must be finite, got {value!r}"
    ):
        record(**{name: value})


def test_a_model_parameter_given_a_sequence_is_refused():
    with pytest.raises(
        ArgumentError, match=r"InverterParams\.omega must be finite, got \(1\.0,\)"
    ):
        InverterParams(omega=(1.0,))


def test_smib_parameters_are_a_record_of_numbers():
    assert SmibParams() == SmibParams()
    assert hash(SmibParams()) == hash(SmibParams())
    cfg = ExperimentConfig(values={"model": "smib"})
    assert cfg.smib_params() == cfg.smib_params()
    with pytest.raises(
        ArgumentError, match=r"SmibParams\.p_e_max must be finite, got <function"
    ):
        SmibParams(p_e_max=lambda d: 1.0)


# -- scenarios, truth, measurements -------------------------------------------


def test_scenario_validation():
    ref = ExperimentConfig().scenario()
    with pytest.raises(ArgumentError):
        InverterScenario(
            horizon=0.2, dt=3e-4, v_grid=ref.v_grid, seed=1,
            x0=np.zeros(4), params=P, noise=ref.noise,
        )
    with pytest.raises(ArgumentError):
        InverterScenario(
            horizon=0.5, dt=1e-4, v_grid=ref.v_grid, seed=1,
            x0=np.zeros(4), params=P, noise=ref.noise,
        )


test_scenario_refuses_a_seed_that_is_not_a_non_negative_integer = refusal_test(
    "test_scenario_refuses_a_seed_that_is_not_a_non_negative_integer"
)


def test_scenario_takes_a_numpy_integer_seed():
    sc = replace(ExperimentConfig().scenario(), seed=np.int64(3))
    _, z = generate_truth_and_measurements(sc)
    _, z_int = generate_truth_and_measurements(replace(sc, seed=3))
    assert np.array_equal(z, z_int)


test_scenario_refuses_an_initial_state_that_is_not_four_finite_reals = refusal_test(
    "test_scenario_refuses_an_initial_state_that_is_not_four_finite_reals"
)
test_smib_state_refuses_what_it_cannot_pack = refusal_test(
    "test_smib_state_refuses_what_it_cannot_pack"
)


def test_a_scenario_owns_its_initial_state():
    x0 = np.array([0.0, 0.0, 1.0, 0.0])
    ref = ExperimentConfig().scenario()
    sc = InverterScenario(
        horizon=0.2, dt=1e-4, v_grid=ref.v_grid, seed=1,
        x0=x0, params=P, noise=ref.noise,
    )
    x0[2] = 5.0
    assert sc.x0.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_noiseless_measurements_equal_truth():
    noise = NoiseModel(q=1e-6 * np.eye(4), r=np.zeros((4, 4)), h=np.eye(4))
    sc = replace(ExperimentConfig().scenario(), noise=noise)
    truth, z = generate_truth_and_measurements(sc)
    grid = truth.grid_states(0.0, sc.dt, sc.n_steps)
    assert np.array_equal(z, grid)


def test_measurement_stream_is_seed_deterministic():
    sc_a = ExperimentConfig(values={"seed": 42}).scenario()
    sc_b = ExperimentConfig(values={"seed": 42}).scenario()
    _, za = generate_truth_and_measurements(sc_a)
    _, zb = generate_truth_and_measurements(sc_b)
    assert np.array_equal(za, zb)
    sc_c = ExperimentConfig(values={"seed": 43}).scenario()
    _, zc = generate_truth_and_measurements(sc_c)
    assert not np.array_equal(za, zc)


def test_empirical_noise_standard_deviations():
    sc = ExperimentConfig(values={"seed": 7}).scenario()
    truth, z = generate_truth_and_measurements(sc)
    grid = truth.grid_states(0.0, sc.dt, sc.n_steps)
    resid = z - grid
    # voltage channels carry the 0.004 noise, current channels the 0.01
    sd = resid.std(axis=0, ddof=1)
    assert abs(sd[2] - 0.004) <= 0.15 * 0.004
    assert abs(sd[3] - 0.004) <= 0.15 * 0.004
    assert abs(sd[0] - 0.01) <= 0.15 * 0.01
    assert abs(sd[1] - 0.01) <= 0.15 * 0.01


# -- SMIB ----------------------------------------------------------------------


def test_balanced_torque_equilibrium():
    params = SmibParams(p_m=1.5 * np.sin(0.5), i_max=1.4)
    system = smib_system(params)
    traj = simulate(system, smib_state(0.5, 0.0), 0.5, 5, 1e-3)
    assert len(traj.jumps) == 0
    states = traj.states
    assert np.max(np.abs(states[:, 0] - 0.5)) < 1e-12
    assert np.max(np.abs(states[:, 1])) < 1e-12


def test_smib_without_events_evaluates_the_margin_once_per_sample_time():
    angles = []

    class Spy(SmibParams):
        def p_e(self, delta):
            angles.append(delta)
            return super().p_e(delta)

    # the equilibrium angle: |P_e| = 1 stays below i_max = 1.4, so no trip
    params = Spy(p_m=1.0, i_max=1.4)
    x0 = smib_state(np.arcsin(1.0 / 1.5), 0.0)
    traj = simulate(smib_system(params), x0, 0.5, 5, 1e-2)
    assert traj.jumps == [] and len(traj.samples) == 51
    # four flow evaluations per RK4 step, one margin evaluation per sample
    assert len(angles) == 4 * 50 + 51


def test_smib_flow_and_margin_act_column_wise():
    system = smib_system(SmibParams(p_m=2.0, d=0.5, p_min=0.1, p_max=0.4))
    rng = np.random.default_rng(3)
    angles_speeds = rng.uniform(-4.0, 4.0, (2, 400))
    batch = np.vstack([angles_speeds, rng.choice([1.0, 2.0], (1, 400))])
    flows = system.flow_map(batch, 0.3)
    margins = system.jump_set(batch, 0.3)
    jumps = system.jump_map(batch)
    for c in range(batch.shape[1]):
        assert np.array_equal(flows[:, c], system.flow_map(batch[:, c], 0.3))
        assert margins[c] == system.jump_set(batch[:, c], 0.3)
        assert np.array_equal(jumps[:, c], system.jump_map(batch[:, c]))


def test_the_smib_trip_has_a_saltation_matrix_without_a_reset_jacobian():
    # the numerical reset Jacobian runs the jump map on a column batch
    system = smib_system(SmibParams())
    x = np.array([np.arcsin(1.4 / 1.5), 1.2, 1.0])  # on the trip guard |p_e| = i_max
    line_row_cleared = np.diag([1.0, 1.0, 0.0])
    xi = saltation_matrix(system.jump_map, system.flow_map, system.flow_map, None, x, 0.0)
    # the central difference of an identity row is 1 up to the rounding of x +- h
    assert np.array_equal(xi != 0.0, line_row_cleared != 0.0)
    assert np.max(np.abs(xi - line_row_cleared)) <= 1e-9
    # the flow is the same on both lines, so the guard's gradient adds ~0
    trip_gradient = lambda x, t: np.array([1.5 * np.cos(x[0]), 0.0, 0.0])  # noqa: E731
    xi = saltation_matrix(system.jump_map, system.flow_map, system.flow_map, trip_gradient,
                          x, 0.0)
    assert np.max(np.abs(xi - line_row_cleared)) <= 1e-9


def test_identical_line_switch_matches_unswitched():
    # start below the equilibrium angle so the swing overshoots and the
    # line-1 current crosses the (lowered) protection threshold mid-flight
    params = SmibParams(i_max=1.1, p_min=0.1, p_max=0.2)
    system = smib_system(params)
    x0 = smib_state(0.5, 0.0, line=1)
    traj = simulate(system, x0, 1.0, 5, 1e-4)
    # the restoration band [0.1, 0.2] is never revisited: exactly one switch
    assert len(traj.jumps) == 1
    assert traj.jumps[0].t > 0.0
    assert traj.samples[-1].time.j == 1
    oracle = integrate_flow(swing_field(params), np.array([0.5, 0.0]), 0.0, 1.0, 1e-4)
    grid = traj.grid_states(0.0, 1e-4, 10000)
    diff = np.max(np.abs(grid[:, :2] - np.array([x for _, x in oracle])))
    assert diff <= 1e-9


def test_zero_threshold_trips_immediately():
    params = SmibParams(i_max=0.0)
    system = smib_system(params)
    traj = simulate(system, smib_state(0.5, 0.0), 0.1, 3, 1e-3)
    assert traj.jumps[0].t == 0.0
    assert traj.jumps[0].edge == "jump"
    assert traj.samples[1].mode == "line2"


def test_line_restoration_band():
    # after tripping, line 1 returns once P_e re-enters [p_min, p_max]
    params = SmibParams(i_max=1.1, p_min=0.5, p_max=0.9)
    system = smib_system(params)
    traj = simulate(system, smib_state(0.5, 0.0), 2.0, 10, 1e-4)
    modes = [r.mode_after for r in traj.jumps]
    if len(traj.jumps) >= 2:
        assert modes[0] == "line2" and modes[1] == "line1"
        pe_at_restore = params.p_e(traj.jumps[1].state_before[0])
        assert params.p_min - 1e-6 <= pe_at_restore <= params.p_max + 1e-6


@pytest.mark.parametrize("shape", [(1,), (3, 3), (2001, 4)])
def test_normals_are_the_one_at_a_time_box_muller_stream(shape):
    for seed in (0, 42):
        got = GaussianStream(seed).normals(shape)
        want = box_muller_normals(seed, shape)
        assert got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()


_PCG64_SEEDS = [
    0, 1, 2, 3, 7, 42, 100, 2024, 31337, 123456789, 2**31 - 1, 2**32 - 1, 2**32,
    2**32 + 1, 2**63, 2**64 - 1, 2**64, 2**64 + 12345, 2**96 + 3, 2**127,
    2**128 - 1, 2**128, 2**160 + 7, 987654321987654321, (1 << 200) - 12345,
]


@pytest.mark.parametrize(
    "seed", _PCG64_SEEDS + [np.int64(42), np.uint64(2**64 - 1)], ids=repr
)
def test_pcg64_is_numpys_stream_bit_for_bit(seed):
    got = np.array(PCG64(seed).random(1000))
    want = np.random.default_rng(np.random.PCG64(seed)).random(1000)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_pcg64_draws_in_pieces_continue_one_stream():
    uniforms = PCG64(9)
    pieces = [uniforms.random(n) for n in (3, 0, 1, 500, 2, 7)]
    assert [u for piece in pieces for u in piece] == (
        np.random.default_rng(np.random.PCG64(9)).random(513).tolist()
    )
