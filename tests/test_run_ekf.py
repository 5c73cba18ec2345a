"""Full filter runs over the inverter scenario."""

from types import SimpleNamespace

import numpy as np
import pytest

from hdsim import (
    ArgumentError,
    Edge,
    GaussianBelief,
    HybridAutomaton,
    NumericalFailureError,
    generate_truth_and_measurements,
    inverter_automaton,
    reference_scenario,
    rmse,
    run_ekf,
    simulate,
)
from hdsim.estimation import NoiseModel
from hdsim.power import blended_field


def scenario_with(r_matrix, q=1e-6):
    noise = NoiseModel(q=q * np.eye(4), r=r_matrix, h=np.eye(4))
    return reference_scenario(seed=42, noise=noise)


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
    sc = reference_scenario(seed=1)
    _, z = generate_truth_and_measurements(sc)
    with pytest.raises(ArgumentError):
        run_ekf(inverter_automaton(sc.params, sc.v_grid), sc, z[:-5])


def test_hybrid_filter_modes_follow_truth_modes():
    sc = reference_scenario(seed=5)
    truth, z = generate_truth_and_measurements(sc)
    run = run_ekf(inverter_automaton(sc.params, sc.v_grid), sc, z)
    assert [r.edge for r in run.jumps] == ["GFL->GFM", "GFM->GFL"]
    assert abs(run.jumps[0].t - 0.054) <= 1e-9
    assert abs(run.jumps[1].t - 0.128) <= 1e-9
    assert run.modes == truth.grid_modes(0.0, sc.dt, sc.n_steps)


def test_covariances_stay_symmetric_psd_over_full_run():
    sc = reference_scenario(seed=9)
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
    sc = reference_scenario(seed=3)
    _, z = generate_truth_and_measurements(sc)
    run = run_ekf(inverter_automaton(sc.params, sc.v_grid), sc, z)
    traj = run.trajectory()
    keys = [(s.time.t, s.time.j) for s in traj.samples]
    assert keys == sorted(keys)
    assert traj.jump_counts[-1] == 2
    # pre/post mean samples recorded at the localized jump times
    jump_ts = [r.t for r in traj.jumps]
    assert abs(jump_ts[0] - 0.054) <= 1e-9


def test_blended_filter_never_jumps():
    sc = reference_scenario(seed=3)
    _, z = generate_truth_and_measurements(sc)
    run = run_ekf(blended_field(sc.params, sc.v_grid), sc, z)
    assert run.jumps == []
    assert set(run.modes) == {"blended"}


def test_identity_reset_jump_leaves_covariance_continuous():
    # GFM->GFL reset is the identity, so the saltation matrix is I and the
    # covariance is unchanged across the second switch
    sc = reference_scenario(seed=11)
    _, z = generate_truth_and_measurements(sc)
    run = run_ekf(inverter_automaton(sc.params, sc.v_grid), sc, z)
    second = run.jumps[1]
    assert second.edge == "GFM->GFL"
    assert np.array_equal(second.state_before, second.state_after)


def test_same_instant_jump_budget_raises_naming_time_mode_and_edge():
    # the identity reset leaves the guard enabled: from t = 0.05 on the
    # filter would jump at one instant without end
    chatter = Edge("a", "a", guard=lambda x, t: t - 0.05, reset=lambda x: x,
                   label="chatter")
    automaton = HybridAutomaton(dim=1, modes=("a",), flows={"a": decay},
                                edges=(chatter,))
    sc = scalar_scenario(horizon=0.1, dt=1e-3, r=1e-2)
    with pytest.raises(NumericalFailureError) as err:
        run_ekf(automaton, sc, np.ones((sc.n_steps + 1, 1)))
    assert abs(err.value.time - 0.05) <= 1e-9
    assert "'a'" in str(err.value) and "chatter" in str(err.value)


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


def test_beliefs_are_validated_once_per_run_and_once_per_jump(monkeypatch):
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
    assert len(checks) == 1 + len(run.jumps)
    checks.clear()
    run_ekf(decay, sc, z)
    assert len(checks) == 1
