"""Full filter runs over the inverter scenario."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import hdsim.estimation as estimation
from hdsim import (
    MAX_JUMPS_REACHED,
    ArgumentError,
    Edge,
    ExperimentConfig,
    GaussianBelief,
    HybridAutomaton,
    NumericalFailureError,
    generate_truth_and_measurements,
    inverter_automaton,
    rmse,
    run_ekf,
    run_comparison,
    simulate,
)
from hdsim.estimation import NoiseModel
from hdsim.power import InverterParams, blended_field
from hdsim.simulate import SAME_TIME_JUMP_BUDGET


def scenario_with(r_matrix, q=1e-6):
    noise = NoiseModel(q=q * np.eye(4), r=r_matrix, h=np.eye(4))
    return replace(ExperimentConfig().scenario(), noise=noise)


def scalar_scenario(horizon, dt, r):
    """The scenario fields run_ekf reads, for a 1-D automaton in mode "a"."""
    noise = NoiseModel(q=[[1e-6]], r=[[r]], h=[[1.0]])
    return SimpleNamespace(
        n_steps=int(round(horizon / dt)), dt=dt, x0=np.array([1.0]),
        initial_mode="a", noise=noise,
    )


def decay(x, t):
    return -x


def test_zero_noise_hybrid_filter_tracks_its_own_generator():
    sc = scenario_with(np.zeros((4, 4)))
    truth, z = generate_truth_and_measurements(sc)
    run = run_ekf(inverter_automaton(sc.params, sc.v_grid), sc, z)
    grid = truth.grid_states(0.0, sc.dt, sc.n_steps)
    err = rmse(run.means, grid)
    assert np.max(err) <= 1e-6


def test_short_measurement_stream_rejected():
    sc = ExperimentConfig(values={"seed": 1}).scenario()
    _, z = generate_truth_and_measurements(sc)
    with pytest.raises(ArgumentError):
        run_ekf(inverter_automaton(sc.params, sc.v_grid), sc, z[:-5])


def test_hybrid_filter_modes_follow_truth_modes():
    sc = ExperimentConfig(values={"seed": 5}).scenario()
    truth, z = generate_truth_and_measurements(sc)
    run = run_ekf(inverter_automaton(sc.params, sc.v_grid), sc, z)
    assert [r.edge for r in run.jumps] == ["GFL->GFM", "GFM->GFL"]
    assert abs(run.jumps[0].t - 0.054) <= 1e-9
    assert abs(run.jumps[1].t - 0.128) <= 1e-9
    assert run.modes == truth.grid_modes(0.0, sc.dt, sc.n_steps)


def test_covariances_stay_symmetric_psd_over_full_run():
    sc = ExperimentConfig(values={"seed": 9}).scenario()
    _, z = generate_truth_and_measurements(sc)
    for process in (
        inverter_automaton(sc.params, sc.v_grid),
        blended_field(sc.params, sc.v_grid),
    ):
        run = run_ekf(process, sc, z)
        for k in range(0, sc.n_steps + 1, 100):
            p = run.covariances[k]
            assert np.max(np.abs(p - p.T)) <= 1e-12 * max(1.0, np.max(np.abs(p)))
            assert np.linalg.eigvalsh(p)[0] >= -1e-10


def test_estimate_trajectory_obeys_hybrid_time():
    sc = ExperimentConfig(values={"seed": 3}).scenario()
    _, z = generate_truth_and_measurements(sc)
    run = run_ekf(inverter_automaton(sc.params, sc.v_grid), sc, z)
    assert np.all(np.diff(run.times) > 0.0)
    assert np.all(np.diff(run.jump_counts) >= 0)
    assert run.jump_counts[-1] == 2
    # each jump lies in the grid step where the jump count passes j_before
    assert [r.j_before for r in run.jumps] == [0, 1]
    for r in run.jumps:
        k = np.flatnonzero(run.jump_counts > r.j_before)[0]
        assert run.times[k - 1] <= r.t <= run.times[k]
    assert abs(run.jumps[0].t - 0.054) <= 1e-9


def test_blended_filter_never_jumps():
    sc = ExperimentConfig(values={"seed": 3}).scenario()
    _, z = generate_truth_and_measurements(sc)
    run = run_ekf(blended_field(sc.params, sc.v_grid), sc, z)
    assert run.jumps == []
    assert set(run.modes) == {"blended"}


def test_identity_reset_jump_leaves_covariance_continuous():
    # GFM->GFL reset is the identity, so the saltation matrix is I and the
    # covariance is unchanged across the second switch
    sc = ExperimentConfig(values={"seed": 11}).scenario()
    _, z = generate_truth_and_measurements(sc)
    run = run_ekf(inverter_automaton(sc.params, sc.v_grid), sc, z)
    second = run.jumps[1]
    assert second.edge == "GFM->GFL"
    assert np.array_equal(second.state_before, second.state_after)


def counted_calls(monkeypatch, name):
    """Wrap ``hdsim.estimation.<name>`` so that each call is counted."""
    calls = []
    original = getattr(estimation, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimation, name, counted)
    return calls


def test_same_instant_jump_budget_raises_naming_time_mode_and_edge(monkeypatch):
    # the identity reset leaves the guard enabled: from t = 0.05 on the
    # filter would jump at one instant without end.  The simulator and the
    # filter share one budget: each takes exactly that many jumps.
    chatter = Edge("a", "a", guard=lambda x, t: t - 0.05, reset=lambda x: x,
                   label="chatter")
    automaton = HybridAutomaton(dim=1, modes=("a",), flows={"a": decay},
                                edges=(chatter,))
    sc = scalar_scenario(horizon=0.1, dt=1e-3, r=1e-2)
    traj = simulate(automaton, sc.x0, 0.1, max_jumps=100, dt=sc.dt, mode0="a")
    assert traj.termination == MAX_JUMPS_REACHED
    assert traj.jump_times == [0.05] * SAME_TIME_JUMP_BUDGET
    jumps = counted_calls(monkeypatch, "_jump_belief")
    with pytest.raises(NumericalFailureError) as err:
        run_ekf(automaton, sc, np.ones((sc.n_steps + 1, 1)))
    assert len(jumps) == SAME_TIME_JUMP_BUDGET
    assert err.value.time == 0.05
    assert str(err.value) == (
        f"more than {SAME_TIME_JUMP_BUDGET} jumps at t=0.05 in mode 'a' "
        "on edge 'chatter'"
    )


def test_a_jump_just_before_a_grid_time_keeps_that_grid_time():
    # the jump lands 5e-14 s before the grid time 0.054, within 1e-9 dt:
    # both the simulator and the filter step the remainder back to it
    dt = 1e-4
    t_switch = 540 * dt - 5e-14
    switch = Edge("a", "b", guard=lambda x, t: t - t_switch, reset=lambda x: x)
    automaton = HybridAutomaton(dim=1, modes=("a", "b"),
                                flows={"a": decay, "b": decay}, edges=(switch,))
    sc = scalar_scenario(horizon=0.06, dt=dt, r=1e-2)
    traj = simulate(automaton, sc.x0, 0.06, max_jumps=10, dt=dt, mode0="a")
    assert traj.jump_times == [t_switch]
    assert traj.times[539:544].tolist() == [539 * dt, t_switch, t_switch, 540 * dt,
                                            541 * dt]
    run = run_ekf(automaton, sc, np.ones((sc.n_steps + 1, 1)))
    assert [r.t for r in run.jumps] == [t_switch]
    assert run.times.tolist() == [k * dt for k in range(sc.n_steps + 1)]
    assert run.modes[539:541] == ["a", "b"]


def test_a_guard_the_update_enables_fires_at_that_grid_time():
    # x' = 1 - x holds the truth at 1.  The measurement at row 5 pulls the
    # mean below the guard at 0.5; the flow would carry it back above 0.5
    # within the next step, so only a guard check at (updated mean, 5 dt)
    # sees it: the filter must jump there, before it flows.
    refill = Edge("a", "a", guard=lambda x, t: 0.5 - x[0],
                  reset=lambda x: np.array([1.0]),
                  guard_gradient=lambda x, t: np.array([-1.0]), label="refill")
    automaton = HybridAutomaton(dim=1, modes=("a",),
                                flows={"a": lambda x, t: 1.0 - x}, edges=(refill,))
    sc = scalar_scenario(horizon=0.1, dt=1e-2, r=0.0)
    z = np.ones((sc.n_steps + 1, 1))
    z[5] = 0.499
    run = run_ekf(automaton, sc, z)
    assert abs(run.means[5, 0] - 0.499) <= 1e-12
    assert [r.t for r in run.jumps] == [run.times[5]] == [5 * sc.dt]
    assert run.jump_counts.tolist() == [0] * 6 + [1] * (sc.n_steps - 5)


def test_an_event_on_the_step_end_reuses_the_step_prediction(monkeypatch):
    # both reference switches land on grid times: the prediction to the
    # grid time is the prediction to the event
    predictions = counted_calls(monkeypatch, "ekf_predict")
    sc = ExperimentConfig(values={"seed": 42}).scenario()
    _, z = generate_truth_and_measurements(sc)
    run = run_ekf(inverter_automaton(sc.params, sc.v_grid), sc, z)
    assert [r.t for r in run.jumps] == [0.054, 0.128]
    assert len(predictions) == sc.n_steps


def test_state_dependent_guard_jump_times_match_simulate():
    # x' = -x from 1 jumps back to 1 at x = 0.5.  The guard gradient is
    # non-zero, so the covariance crosses each jump by the grad.f saltation
    # branch; with R = 0 and H = I the filter mean is pinned to the truth.
    refill = Edge("a", "a", guard=lambda x, t: 0.5 - x[0],
                  reset=lambda x: np.array([1.0]),
                  guard_gradient=lambda x, t: np.array([-1.0]), label="refill")
    automaton = HybridAutomaton(dim=1, modes=("a",), flows={"a": decay},
                                edges=(refill,))
    sc = scalar_scenario(horizon=2.0, dt=1e-2, r=0.0)
    truth = simulate(automaton, sc.x0, 2.0, max_jumps=10, dt=sc.dt, mode0="a")
    z = truth.grid_states(0.0, sc.dt, sc.n_steps)
    run = run_ekf(automaton, sc, z)
    assert len(truth.jumps) == 2
    assert [r.edge for r in run.jumps] == ["refill", "refill"]
    assert np.allclose([r.t for r in run.jumps], truth.jump_times, rtol=0.0,
                       atol=1e-9)
    assert np.max(np.abs(run.means - z)) <= 1e-9
    flat = run_ekf(automaton, sc, z[:, 0])  # a 1-D stream is one column
    assert np.array_equal(flat.means, run.means)
    assert np.array_equal(flat.covariances, run.covariances)


def test_hybrid_step_without_event_evaluates_the_field_four_times():
    # the guard scan takes the prediction's mean as its end state instead
    # of stepping the mean again
    calls = []

    def counted_decay(x, t):
        calls.append(t)
        return decay(x, t)

    never = Edge("a", "a", guard=lambda x, t: -1.0, reset=lambda x: x, label="never")
    automaton = HybridAutomaton(dim=1, modes=("a",), flows={"a": counted_decay},
                                edges=(never,))
    sc = scalar_scenario(horizon=0.5, dt=1e-2, r=1e-2)
    run = run_ekf(automaton, sc, np.ones((sc.n_steps + 1, 1)))
    assert run.jumps == []
    assert len(calls) == 4 * sc.n_steps


def test_beliefs_are_validated_once_per_run(monkeypatch):
    # a jump checks the belief it computes like a prediction does, not as
    # caller input
    checks = []
    post_init = GaussianBelief.__post_init__

    def counted_post_init(self):
        checks.append(1)
        post_init(self)

    monkeypatch.setattr(GaussianBelief, "__post_init__", counted_post_init)
    refill = Edge("a", "a", guard=lambda x, t: 0.5 - x[0],
                  reset=lambda x: np.array([1.0]),
                  guard_gradient=lambda x, t: np.array([-1.0]), label="refill")
    automaton = HybridAutomaton(dim=1, modes=("a",), flows={"a": decay},
                                edges=(refill,))
    sc = scalar_scenario(horizon=2.0, dt=1e-2, r=0.0)
    truth = simulate(automaton, sc.x0, 2.0, max_jumps=10, dt=sc.dt, mode0="a")
    z = truth.grid_states(0.0, sc.dt, sc.n_steps)
    run = run_ekf(automaton, sc, z)
    assert len(run.jumps) == 2
    assert len(checks) == 1
    checks.clear()
    run_ekf(decay, sc, z)
    assert len(checks) == 1


@pytest.mark.parametrize("model", ["scalar", "inverter"])
def test_a_field_runs_as_a_one_mode_automaton_with_no_edges(model):
    # the continuous filter is the hybrid recursion whose scan never fires
    if model == "scalar":
        sc = scalar_scenario(horizon=0.5, dt=1e-2, r=1e-2)
        sc.initial_mode = "blended"
        field, z = decay, np.linspace(1.0, 0.5, sc.n_steps + 1)
    else:
        sc = ExperimentConfig(values={"seed": 4, "horizon": 0.08}).scenario()
        _, z = generate_truth_and_measurements(sc)
        sc = replace(sc, initial_mode="blended")
        field = blended_field(sc.params, sc.v_grid)
    one_mode = HybridAutomaton(dim=sc.x0.size, modes=("blended",),
                               flows={"blended": field}, edges=())
    bare, automaton = run_ekf(field, sc, z), run_ekf(one_mode, sc, z)
    assert bare.means.tobytes() == automaton.means.tobytes()
    assert bare.covariances.tobytes() == automaton.covariances.tobytes()
    assert bare.modes == automaton.modes
    assert automaton.jumps == [] and not automaton.jump_counts.any()


def _reference_with_gfl_to_gfm(**changes):
    """The reference automaton with the GFL->GFM edge changed, its scenario
    and the reference measurements."""
    sc = ExperimentConfig().scenario()
    automaton = inverter_automaton(sc.params, sc.v_grid)
    edges = tuple(
        replace(e, **changes) if e.label == "GFL->GFM" else e for e in automaton.edges
    )
    _, z = generate_truth_and_measurements(sc)
    return replace(automaton, edges=edges), sc, z


@pytest.mark.parametrize(
    "changes, error, fragment",
    [
        pytest.param(
            dict(reset=lambda x: 1e200 * np.asarray(x),
                 reset_jacobian=lambda x: 1e200 * np.eye(4)),
            NumericalFailureError, "belief is not finite after the jump", id="overflow",
        ),
        pytest.param(
            dict(reset_jacobian=lambda x: np.full((4, 4), np.nan)),
            ArgumentError, "saltation matrix entries must be finite", id="nan-jacobian",
        ),
        pytest.param(
            dict(reset=lambda x: np.asarray(x)[:3], reset_jacobian=None),
            ArgumentError, "saltation matrix must be square", id="short-reset",
        ),
    ],
)
def test_a_failed_jump_names_its_time_mode_and_edge(changes, error, fragment):
    automaton, sc, z = _reference_with_gfl_to_gfm(**changes)
    with pytest.raises(error) as err:
        run_ekf(automaton, sc, z)
    assert type(err.value) is error
    assert str(err.value) == f"{fragment} at t=0.054 in mode 'GFL' on edge 'GFL->GFM'"
    if error is NumericalFailureError:
        assert err.value.time == 0.054


@pytest.mark.parametrize("hybrid, mode", [(True, "GFL"), (False, "blended")])
def test_a_non_finite_measurement_names_the_update_time_and_mode(hybrid, mode):
    sc = ExperimentConfig(values={"horizon": 0.01}).scenario()
    _, z = generate_truth_and_measurements(sc)
    z = np.array(z)
    z[5] = np.nan
    process = (
        inverter_automaton(sc.params, sc.v_grid) if hybrid
        else blended_field(sc.params, sc.v_grid)
    )
    with pytest.raises(NumericalFailureError) as err:
        run_ekf(process, sc, z)
    assert str(err.value) == f"updated belief is not finite at t=0.0005 in mode {mode!r}"


@pytest.mark.parametrize("hybrid, mode", [(True, "GFM"), (False, "blended")])
def test_a_diverged_prediction_names_its_time_and_mode(hybrid, mode):
    sc = replace(ExperimentConfig().scenario(), params=InverterParams(r_pu=5e-324))
    _, z = generate_truth_and_measurements(ExperimentConfig().scenario())
    process = (
        inverter_automaton(sc.params, sc.v_grid) if hybrid
        else blended_field(sc.params, sc.v_grid)
    )
    with pytest.raises(NumericalFailureError) as err:
        run_ekf(process, sc, z)
    assert str(err.value) == f"prediction diverged at t={err.value.time} in mode {mode!r}"


def test_a_reference_compare_calls_no_eigensolver(tmp_path, monkeypatch):
    # every covariance of both filters at seed 42 is diagonally dominant, so
    # the PSD check certifies each one without LAPACK's eigensolver
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda p: calls.append(p) or eigvalsh(p))
    run_comparison(ExperimentConfig(values={"out": str(tmp_path)}))
    assert calls == []
