"""Hybrid simulation semantics: jumps, priorities, terminations, hybrid time."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import hdsim
from hdsim import (
    AmbiguousTransitionError,
    ArgumentError,
    Edge,
    FlowJumpSystem,
    HORIZON_REACHED,
    HybridAutomaton,
    HybridTime,
    HybridTrajectory,
    LEFT_FLOW_SET,
    MAX_JUMPS_REACHED,
    NUMERICAL_FAILURE,
    NoiseModel,
    NumericalFailureError,
    run_ekf,
    simulate,
)
from hdsim.cli import cli_main
from hdsim.config import ExperimentConfig, load_config
from hdsim.integrate import rk4_step
from hdsim.power import SmibParams, smib_state, smib_system
from hdsim.report import ROW_CHUNK, fmt
from hdsim.safety import check_safety
from hdsim.simulate import Stepper, next_event, next_grid_time
from hdsim.systems import as_state


def decay(x, t):
    return -x


def test_pure_flow_no_jumps():
    system = FlowJumpSystem(dim=1, flow_map=decay)
    traj = simulate(system, np.array([1.0]), 0.2, max_jumps=10, dt=1e-3)
    assert traj.termination == HORIZON_REACHED
    assert all(s.time.j == 0 for s in traj.samples)
    assert abs(traj.final_state()[0] - math.exp(-0.2)) < 1e-9


def test_jump_budget_exhausted_immediately():
    system = FlowJumpSystem(
        dim=1,
        flow_map=decay,
        jump_set=lambda x, t: 1.0,  # always inside the jump set
        jump_map=lambda x: x * 0.5,
    )
    traj = simulate(system, np.array([1.0]), 0.2, max_jumps=0, dt=1e-3)
    assert traj.termination == MAX_JUMPS_REACHED
    assert len(traj.samples) == 1
    assert traj.samples[0].time.t == 0.0


def test_jump_priority_over_flow():
    # x0 lies in both C and D; the jump must fire before any flow happens.
    system = FlowJumpSystem(
        dim=1,
        flow_map=decay,
        jump_set=lambda x, t: x[0] - 0.5,
        jump_map=lambda x: np.array([0.25]),
    )
    traj = simulate(system, np.array([1.0]), 0.1, max_jumps=3, dt=1e-3)
    assert traj.jumps[0].t == 0.0
    assert traj.samples[1].state[0] == 0.25
    assert traj.samples[1].time.j == 1


def test_event_localization_and_hybrid_time():
    # Decay from 1.0 crosses 0.5 at t = ln 2; the reset restarts at 2.0.
    system = FlowJumpSystem(
        dim=1,
        flow_map=decay,
        jump_set=lambda x, t: 0.5 - x[0],
        jump_map=lambda x: np.array([2.0]),
    )
    traj = simulate(system, np.array([1.0]), 1.0, max_jumps=1, dt=1e-2)
    assert len(traj.jumps) == 1
    assert abs(traj.jumps[0].t - math.log(2.0)) < 1e-6
    # pre/post samples share the jump time with consecutive jump counts
    ts = [(s.time.t, s.time.j) for s in traj.samples]
    assert ts == sorted(ts)
    ks = traj.jump_counts
    steps = np.diff(ks)
    assert set(steps.tolist()) <= {0, 1}
    # the guard margin at the jump is within the legality tolerance
    assert abs(0.5 - traj.jumps[0].state_before[0]) <= 1e-6


def test_post_jump_samples_return_to_grid():
    system = FlowJumpSystem(
        dim=1,
        flow_map=decay,
        jump_set=lambda x, t: 0.5 - x[0],
        jump_map=lambda x: np.array([2.0]),
    )
    traj = simulate(system, np.array([1.0]), 1.0, max_jumps=1, dt=1e-2)
    grid_times = [s.time.t for s in traj.samples if s.time.t not in traj.jump_times]
    for t in grid_times:
        assert abs(t / 1e-2 - round(t / 1e-2)) < 1e-6


def test_left_flow_set_termination():
    # a flow set, and the same set as the invariant of a one-mode automaton
    for system, mode0 in (
        (FlowJumpSystem(
            dim=1, flow_map=lambda x, t: np.ones(1),
            flow_set=lambda x, t: x[0] <= 0.5,
        ), None),
        (HybridAutomaton(
            dim=1, modes=("a",), flows={"a": lambda x, t: np.ones(1)}, edges=(),
            invariants={"a": lambda x, t: x[0] <= 0.5},
        ), "a"),
    ):
        traj = simulate(system, np.array([0.0]), 1.0, max_jumps=0, dt=1e-2, mode0=mode0)
        assert traj.termination == LEFT_FLOW_SET
        assert traj.final_state()[0] > 0.5
        # the run stopped early, so every grid alignment lacks the later samples
        for align in (traj.grid_states, traj.grid_modes, traj.grid_jump_counts):
            with pytest.raises(ArgumentError):
                align(0.0, 1e-2, 100)


def _hand_built():
    # a jump at the grid time 0.2 and one between grid times, at 0.25
    traj = HybridTrajectory()
    for t, j, mode, x in (
        (0.0, 0, "a", 0.0),
        (0.1, 0, "a", 1.0),
        (0.2, 0, "a", 2.0),
        (0.2, 1, "b", 20.0),
        (0.25, 1, "b", 25.0),
        (0.25, 2, "a", 26.0),
        (0.3, 2, "a", 3.0),
    ):
        traj.append(t, j, mode, np.array([x]))
    return traj


def test_trajectory_columns_and_samples():
    traj = _hand_built()
    assert traj.times.tolist() == [0.0, 0.1, 0.2, 0.2, 0.25, 0.25, 0.3]
    assert traj.jump_counts.tolist() == [0, 0, 0, 1, 1, 2, 2]
    assert traj.modes == ["a", "a", "a", "b", "b", "a", "a"]
    assert traj.states.shape == (7, 1)
    assert traj.states[:, 0].tolist() == [0.0, 1.0, 2.0, 20.0, 25.0, 26.0, 3.0]
    assert len(traj.samples) == 7
    post = traj.samples[3]
    assert post.time == HybridTime(0.2, 1) and (post.time.t, post.time.j) == (0.2, 1)
    assert post.mode == "b" and post.state.tolist() == [20.0]
    assert traj.final_state().tolist() == [3.0]


def test_grid_alignment_takes_the_post_jump_sample_at_a_coincidence():
    traj = _hand_built()
    # 3 * 0.1 is 0.30000000000000004, within the tolerance of the sample at 0.3
    assert traj.grid_states(0.0, 0.1, 3)[:, 0].tolist() == [0.0, 1.0, 20.0, 3.0]
    assert traj.grid_modes(0.0, 0.1, 3) == ["a", "a", "b", "a"]
    assert traj.grid_jump_counts(0.0, 0.1, 3).tolist() == [0, 0, 1, 2]


@pytest.mark.parametrize("dt", [0.1, 10.0])
def test_grid_alignment_tolerance_is_1e_9_of_max_dt_1(dt):
    tol = 1e-9 * max(dt, 1.0)
    for offset in (0.5 * tol, -0.5 * tol):
        traj = HybridTrajectory()
        traj.append(0.0, 0, "a", np.zeros(1))
        traj.append(dt + offset, 0, "a", np.ones(1))
        assert traj.grid_states(0.0, dt, 1)[:, 0].tolist() == [0.0, 1.0]
    for offset in (2.0 * tol, -2.0 * tol):
        traj = HybridTrajectory()
        traj.append(0.0, 0, "a", np.zeros(1))
        traj.append(dt + offset, 0, "a", np.ones(1))
        if offset < 0.0:
            traj.append(2.0 * dt, 0, "a", np.ones(1))
        with pytest.raises(ArgumentError, match=f"no trajectory sample at grid time {dt}"):
            traj.grid_states(0.0, dt, 1)


def test_grid_alignment_of_a_truncated_trajectory_raises():
    traj = _hand_built()
    for align in (traj.grid_states, traj.grid_modes, traj.grid_jump_counts):
        with pytest.raises(ArgumentError, match="grid time 0.4"):
            align(0.0, 0.1, 4)
    with pytest.raises(ArgumentError, match="grid time 0.0"):
        HybridTrajectory().grid_states(0.0, 0.1, 1)


@pytest.mark.parametrize(
    "t, j", [(0.2, 0), (0.25, 1), (0.29, 5), (-1.0, 0), (0.4, -1)]
)
def test_append_rejects_decreasing_or_negative_hybrid_time(t, j):
    traj = _hand_built()
    with pytest.raises(ArgumentError, match="hybrid time must be"):
        traj.append(t, j, "a", np.zeros(1))
    assert len(traj.samples) == 7


def test_a_state_of_another_dimension_is_refused():
    traj = _hand_built()
    for state, fragment in (
        (np.zeros(2), "state has dimension 2, expected 1"),
        (np.zeros((1, 1)), r"state must be a 1-D vector, got shape \(1, 1\)"),
    ):
        with pytest.raises(ArgumentError, match=fragment):
            traj.append(0.4, 2, "a", state)
    with pytest.raises(ArgumentError, match=r"1-D vector, got shape \(\)"):
        HybridTrajectory().append(0.0, 0, "a", 1.0)
    assert len(traj.samples) == 7 and traj.states.shape == (7, 1)


# a dip below v_low and back: more samples than one chunk of CSV rows, and
# GFL and GFM rows on both sides of the first chunk boundary
_DIP_RUN = (
    "model = inverter\n"
    "horizon = 0.5\n"
    "inverter.profile = 0:1, 0.3:1, 0.31:0.5, 0.45:0.5, 0.46:1, 0.5:1\n"
)


def _recorded_run(tmp_path):
    """The dip run, stepped into a trajectory and into plain lists of the
    samples as the stepper hands them over, plus its config file."""
    cfg = tmp_path / "dip.cfg"
    cfg.write_text(_DIP_RUN)
    config = load_config(str(cfg))
    model = config.system()
    given = []
    traj = HybridTrajectory()

    def sink(t, j, mode, x):
        given.append((t, j, mode, np.array(x)))
        traj.append(t, j, mode, x)

    stepper = Stepper(
        model.system, model.x0, config["horizon"], config["max_jumps"], config["dt"],
        model.mode0, 0.0, sink, traj.jumps,
    )
    stepper.advance(to_end=True)
    return str(cfg), given, traj


def test_stored_columns_and_samples_are_the_samples_as_given(tmp_path):
    _, given, traj = _recorded_run(tmp_path)
    assert len(given) > ROW_CHUNK and len(traj.jumps) == 2
    assert traj.times.tolist() == [t for t, _, _, _ in given]
    assert traj.jump_counts.tolist() == [j for _, j, _, _ in given]
    assert traj.modes == [mode for _, _, mode, _ in given]
    assert np.array_equal(traj.states, np.array([x for _, _, _, x in given]))
    records = [(s.time, s.mode, s.state.tolist()) for s in traj.samples]
    assert records == [(HybridTime(t, j), mode, x.tolist()) for t, j, mode, x in given]
    assert np.array_equal(traj.final_state(), given[-1][3])
    # the stored rows are read-only: a caller cannot change the trajectory
    with pytest.raises(ValueError):
        traj.states[0, 0] = 1.0


def test_simulate_csv_holds_the_samples_as_given_row_for_row(tmp_path):
    cfg, given, _ = _recorded_run(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    expected = "t,j,mode,i_d,i_q,v_d,v_q\n" + "".join(
        ",".join([fmt(t), str(j), mode] + [fmt(v) for v in x]) + "\n"
        for t, j, mode, x in given
    )
    assert (out / "trajectory_inverter.csv").read_bytes() == expected.encode("utf-8")


def test_a_stored_sample_costs_under_250_bytes_of_traced_memory(tmp_path):
    # 20,001 samples: the states live in one array and the CSV rows are
    # converted a chunk at a time, so neither costs an object per sample
    cfg = tmp_path / "long.cfg"
    cfg.write_text("model = inverter\nhorizon = 2.0\ninverter.profile = 0:1, 2:1\n")
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path)]
    warm = tmp_path / "warm.cfg"  # first-call imports and caches are not samples
    warm.write_text("model = inverter\nhorizon = 0.001\n")
    assert cli_main(["simulate", "--config", str(warm), "--out", str(tmp_path)]) == 0
    tracemalloc.start()
    try:
        assert cli_main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(tmp_path / "trajectory_inverter.csv", encoding="utf-8") as fh:
        samples = sum(1 for _ in fh) - 1
    assert samples == 20001
    assert peak / samples < 250


@pytest.mark.parametrize("t, j", [(-0.1, 0), (0.0, -1), (math.nan, 0)])
def test_first_sample_must_have_non_negative_hybrid_time(t, j):
    with pytest.raises(ArgumentError, match="non-negative"):
        HybridTrajectory().append(t, j, "a", np.zeros(1))


def test_a_nan_time_is_refused_after_the_first_sample():
    traj = HybridTrajectory()
    traj.append(0.0, 0, "a", np.zeros(1))
    with pytest.raises(ArgumentError, match="hybrid time must be non-negative"):
        traj.append(math.nan, 0, "a", np.zeros(1))
    traj.append(0.5, 0, "a", np.zeros(1))
    assert traj.times.tolist() == [0.0, 0.5]


def test_same_time_zeno_budget():
    # jump map keeps the state inside the jump set: jumps pile up at t=0
    system = FlowJumpSystem(
        dim=1,
        flow_map=decay,
        jump_set=lambda x, t: 1.0,
        jump_map=lambda x: x,
    )
    traj = simulate(system, np.array([1.0]), 0.1, max_jumps=100, dt=1e-3)
    assert traj.termination == MAX_JUMPS_REACHED
    assert traj.samples[-1].time.t == 0.0
    assert traj.samples[-1].time.j == 10


def test_ambiguous_simultaneous_guards():
    edges = (
        Edge("a", "b", guard=lambda x, t: t - 0.05, reset=lambda x: x, label="one"),
        Edge("a", "b", guard=lambda x, t: 2.0 * (t - 0.05), reset=lambda x: x,
             label="two"),
    )
    automaton = HybridAutomaton(
        dim=1, modes=("a", "b"),
        flows={"a": decay, "b": decay},
        edges=edges,
    )
    with pytest.raises(AmbiguousTransitionError) as err:
        simulate(automaton, np.array([1.0]), 0.2, max_jumps=5, dt=1e-2, mode0="a")
    assert "one" in str(err.value) and "two" in str(err.value)
    # the filter steps through the same core and refuses to choose as well
    scenario = SimpleNamespace(
        n_steps=20, dt=1e-2, x0=np.array([1.0]), initial_mode="a",
        noise=NoiseModel(q=[[1e-6]], r=[[1e-2]], h=[[1.0]]),
    )
    with pytest.raises(AmbiguousTransitionError) as err:
        run_ekf(automaton, scenario, np.ones((21, 1)))
    assert "one" in str(err.value) and "two" in str(err.value)


def test_automaton_mode_switch_and_reset():
    edges = (
        Edge(
            "slow", "fast",
            guard=lambda x, t: t - 0.1,
            reset=lambda x: x + 1.0,
            label="speed-up",
        ),
    )
    automaton = HybridAutomaton(
        dim=1, modes=("slow", "fast"),
        flows={"slow": lambda x, t: -x, "fast": lambda x, t: -2.0 * x},
        edges=edges,
    )
    traj = simulate(automaton, np.array([1.0]), 0.2, max_jumps=2, dt=1e-3, mode0="slow")
    assert traj.jumps[0].edge == "speed-up"
    assert abs(traj.jumps[0].t - 0.1) < 1e-9
    expected = (math.exp(-0.1) + 1.0) * math.exp(-2.0 * 0.1)
    assert abs(traj.final_state()[0] - expected) < 1e-8
    assert traj.modes[-1] == "fast"


def test_init_set_enforced():
    automaton = HybridAutomaton(
        dim=1, modes=("a",),
        flows={"a": decay},
        edges=(),
        init=lambda mode, x: x[0] >= 0.0,
    )
    simulate(automaton, np.array([0.5]), 0.1, 1, 1e-2, mode0="a")
    with pytest.raises(ArgumentError):
        simulate(automaton, np.array([-0.5]), 0.1, 1, 1e-2, mode0="a")
    with pytest.raises(ArgumentError):
        simulate(automaton, np.array([0.5]), 0.1, 1, 1e-2)  # missing mode


def test_numerical_failure_carries_partial_trajectory():
    def blow_up(x, t):
        with np.errstate(over="ignore"):
            return x * x * 1e8

    system = FlowJumpSystem(dim=1, flow_map=blow_up)
    with pytest.raises(NumericalFailureError) as err:
        simulate(system, np.array([100.0]), 1.0, 0, 1e-2)
    assert err.value.trajectory is not None
    assert len(err.value.trajectory.samples) >= 1


def test_flow_containment_between_jumps():
    # bouncing-style system: x decays, resets upward on hitting 0.4
    system = FlowJumpSystem(
        dim=1,
        flow_map=decay,
        jump_set=lambda x, t: 0.4 - x[0],
        jump_map=lambda x: np.array([0.9]),
        flow_set=lambda x, t: x[0] >= 0.4 - 1e-6,
    )
    traj = simulate(system, np.array([1.0]), 3.0, max_jumps=5, dt=1e-3)
    assert len(traj.jumps) == 3
    expected = [math.log(1.0 / 0.4) + k * math.log(0.9 / 0.4) for k in range(3)]
    assert np.allclose(traj.jump_times, expected, atol=1e-9)
    for s in traj.samples:
        assert s.state[0] >= 0.4 - 1e-6


def test_one_localization_probes_each_time_once(monkeypatch):
    # Out-of-step SMIB: line 1 trips at t ~ 0.4979, inside the step to 0.5.
    system = smib_system(SmibParams(p_m=2.0, d=0.5))
    x = simulate(system, smib_state(0.6, 0.0), 0.49, 0, 0.01).final_state()
    probe_times, field_times = [], []
    simulate_module = sys.modules["hdsim.simulate"]
    real_locate = simulate_module.locate_event

    def recording_locate(margin, *args, **kwargs):
        def recorded(t):
            probe_times.append(t)
            return margin(t)

        return real_locate(recorded, *args, **kwargs)

    def counted_flow(state, t):
        field_times.append(t)
        return system.flow_map(state, t)

    monkeypatch.setattr(simulate_module, "locate_event", recording_locate)
    edge = Edge("line1", "line1", system.jump_set, system.jump_map)
    _, event = next_event([edge], counted_flow, x, 0.49, 0.5)
    assert event is not None and 0.497 < event[0] < 0.498
    assert len(probe_times) == len(set(probe_times))
    probes = sum(0.49 < t < 0.5 for t in probe_times)
    # four stages for the step, three per new probe (the first is shared)
    assert len(field_times) <= 4 + 3 * probes


def test_given_end_state_is_not_stepped_again():
    # The same SMIB step as above, once before the trip and once across it.
    system = smib_system(SmibParams(p_m=2.0, d=0.5))
    x = simulate(system, smib_state(0.6, 0.0), 0.48, 0, 0.01).final_state()
    edge = Edge("line1", "line1", system.jump_set, system.jump_map)
    field_times = []

    def counted_flow(state, t):
        field_times.append(t)
        return system.flow_map(state, t)

    quiet_end = rk4_step(system.flow_map, x, 0.48, 0.01)
    assert next_event([edge], counted_flow, x, 0.48, 0.49, x_next=quiet_end) == (
        quiet_end, None
    )
    assert field_times == []

    trip_end = rk4_step(system.flow_map, quiet_end, 0.49, 0.01)
    given = next_event([edge], counted_flow, quiet_end, 0.49, 0.5, x_next=trip_end)
    own = next_event([edge], system.flow_map, quiet_end, 0.49, 0.5)
    assert given[0] is trip_end and np.array_equal(own[0], trip_end)
    (t_given, e_given, x_given), (t_own, e_own, x_own) = given[1], own[1]
    assert (t_given, e_given) == (t_own, e_own) and np.array_equal(x_given, x_own)
    # one first stage, then three stages per new probe time
    assert field_times.count(0.49) == 1
    assert (len(field_times) - 1) % 3 == 0


def test_flow_steps_evaluate_each_guard_once_per_sample_time():
    calls = []

    def margin(x, t):
        calls.append(t)
        return -1.0

    automaton = HybridAutomaton(
        dim=1, modes=("a",), flows={"a": decay},
        edges=(Edge("a", "a", guard=margin, reset=lambda x: x),),
    )
    traj = simulate(automaton, np.array([1.0]), 0.1, max_jumps=1, dt=0.01, mode0="a")
    assert traj.termination == HORIZON_REACHED
    assert calls == list(traj.times)


@pytest.mark.parametrize("t0, dt", [(1000.0, 1e-6), (1e4, 1e-4), (1.0, 1e-9)])
def test_grid_walk_advances_far_from_t0(t0, dt):
    # (t - t0) / dt rounds below the grid index here; the next grid time
    # must still lie ahead of t
    t = t0
    for _ in range(10):
        _, t_next = next_grid_time(t, t0, dt, t0 + 1.0)
        assert t_next > t
        t = t_next


def test_simulate_far_from_t0_reaches_the_horizon():
    calls = []

    def flow_set(x, t):
        # a stalled grid walk checks the invariant on every pass: fail,
        # do not hang
        calls.append(t)
        if len(calls) > 10**4:
            raise RuntimeError("the grid walk stalled")
        return True

    system = FlowJumpSystem(dim=1, flow_map=decay, flow_set=flow_set)
    traj = simulate(system, [1.0], 1e-4, max_jumps=0, dt=1e-6, t0=1000.0)
    assert traj.termination == HORIZON_REACHED
    assert len(traj.times) == 101
    assert np.all(np.diff(traj.times) > 0)


def test_a_run_of_femtosecond_steps_reaches_its_horizon():
    # "at the horizon" is exact: any slack below t_end is a whole step
    # when dt is that small
    traj = simulate(FlowJumpSystem(1, decay), [1.0], 1e-14, 5, 1e-15)
    assert traj.termination == HORIZON_REACHED
    assert len(traj.times) == 11 and traj.times[-1] == 1e-14


def test_compare_runs_femtosecond_steps_to_its_horizon(tmp_path, capsys):
    # the filters step the same grid clock: stopping one step short of the
    # horizon left them an unreachable last grid time
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("horizon = 1e-14\ndt = 1e-15\n")
    out = tmp_path / "out"
    assert cli_main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "trajectory_hybrid.csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    assert len(rows) == 11 and float(rows[-1].split(",")[0]) == 10 * 1e-15  # k*dt


def _always(x, t):
    return 1.0


def _never(x):
    return np.zeros_like(x[0], dtype=bool)


def _ignore(*sample):
    pass


def _identity(x):
    return x


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: next_event(
                [Edge("a", "a", _always, _identity, label="one"),
                 Edge("a", "a", _always, _identity, label="two")],
                decay, np.array([1.0]), 0.0, 0.1,
            ),
            AmbiguousTransitionError, "guards simultaneously enabled at t=0.0: one, two",
            id="two-guards-enabled",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 0.0, 1, 0.1),
            ArgumentError, "horizon must be positive", id="horizon",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, 1, -0.1),
            ArgumentError, "dt must be positive", id="dt",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, -1, 0.1),
            ArgumentError, "max_jumps must be non-negative", id="max-jumps",
        ),
        pytest.param(
            lambda: simulate(
                FlowJumpSystem(1, decay, flow_set=lambda x, t: False),
                [1.0], 1.0, 1, 0.1,
            ),
            ArgumentError, "outside both the flow set and the jump set", id="x0",
        ),
        # a run window that is not finite: refused, neither run without end
        # nor escaping as a bare ValueError from the grid arithmetic
        pytest.param(
            lambda: Stepper(FlowJumpSystem(1, decay), [1.0], math.nan, 5, 0.1, None,
                            0.0, _ignore),
            ArgumentError, "horizon must be positive", id="horizon-nan",
        ),
        pytest.param(
            lambda: Stepper(FlowJumpSystem(1, decay), [1.0], math.inf, 5, 0.1, None,
                            0.0, _ignore),
            ArgumentError, "horizon must be positive", id="horizon-inf",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, 5, math.nan),
            ArgumentError, "dt must be positive", id="dt-nan",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, 5, 0.1, t0=math.nan),
            ArgumentError, "t0 must be finite, got nan", id="t0-nan",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, 5, 0.1, t0=math.inf),
            ArgumentError, "t0 must be finite, got inf", id="t0-inf",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, 10, 0.1, t0=-1.0),
            ArgumentError, r"^t0 must be non-negative, got -1\.0$", id="t0-negative",
        ),
        # a run argument that is no real number: refused by name, not a bare
        # TypeError from the comparisons that check its value
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, 5, 0.1, t0="0"),
            ArgumentError, "^t0 must be a real number, got '0'$", id="t0-text",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], "1", 5, 0.1),
            ArgumentError, "^horizon must be a real number, got '1'$", id="horizon-text",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, 5, None),
            ArgumentError, "^dt must be a real number, got None$", id="dt-none",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, "5", 0.1),
            ArgumentError, "^max_jumps must be a real number, got '5'$",
            id="max-jumps-text",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], True, 5, 0.1),
            ArgumentError, "^horizon must be a real number, got True$", id="horizon-bool",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, 5, True),
            ArgumentError, "^dt must be a real number, got True$", id="dt-bool",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, True, 0.1),
            ArgumentError, "^max_jumps must be a real number, got True$", id="max-jumps-bool",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), "ab", 1.0, 5, 0.1),
            ArgumentError, "^x0 entries must be finite reals, got 'ab'$", id="x0-text",
        ),
        pytest.param(
            lambda: simulate(FlowJumpSystem(1, decay), [1.0], 1.0, math.nan, 0.1),
            ArgumentError, "max_jumps must be non-negative", id="max-jumps-nan",
        ),
        pytest.param(
            lambda: replace(ExperimentConfig().scenario(), horizon=math.nan),
            ArgumentError, "horizon and dt must be positive and finite",
            id="scenario-horizon-nan",
        ),
        pytest.param(
            lambda: replace(ExperimentConfig().scenario(), horizon=math.inf),
            ArgumentError, "horizon and dt must be positive and finite",
            id="scenario-horizon-inf",
        ),
        pytest.param(
            lambda: check_safety(FlowJumpSystem(1, decay), lambda: [1.0], _never,
                                 1.0, 2.5, 0.1),
            ArgumentError, "samples must be an integer >= 1, got 2.5",
            id="samples-fraction",
        ),
        pytest.param(
            lambda: check_safety(FlowJumpSystem(1, decay), lambda: [1.0], _never,
                                 1.0, math.nan, 0.1),
            ArgumentError, "samples must be an integer >= 1, got nan",
            id="samples-nan",
        ),
    ],
)
def test_simulate_input_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


_NON_FINITE_HORIZONS = """
import math
import numpy as np
from hdsim import ArgumentError, FlowJumpSystem, check_safety, simulate

system = FlowJumpSystem(1, lambda x, t: -x)
never = lambda x: np.zeros_like(x[0], dtype=bool)
for horizon in (math.nan, math.inf):
    for run in (
        lambda: simulate(system, [1.0], horizon, 5, 0.1),
        lambda: check_safety(system, lambda: [1.0], never, horizon, 2, 0.1),
    ):
        try:
            run()
        except ArgumentError as exc:
            print(exc)
"""


def test_a_non_finite_horizon_is_refused_not_run():
    # a grid that never reaches its end would never return, so the calls run
    # in a child process that the timeout stops
    src = os.path.dirname(os.path.dirname(hdsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _NON_FINITE_HORIZONS],
        capture_output=True, text=True, timeout=30, env=env, check=True,
    )
    assert done.stdout.splitlines() == [
        "horizon must be positive and finite, got nan",
        "horizon must be positive and finite, got nan",
        "horizon must be positive and finite, got inf",
        "horizon must be positive and finite, got inf",
    ]


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(lambda: as_state(np.zeros((2, 2))),
                     r"state must be a 1-D vector, got shape \(2, 2\)", id="ndim"),
        pytest.param(lambda: as_state([1.0, 2.0], 3),
                     "state has dimension 2, expected 3", id="dim"),
        pytest.param(lambda: FlowJumpSystem(0, decay),
                     "dimension must be >= 1, got 0", id="flow-jump-dim"),
        pytest.param(lambda: HybridAutomaton(0, ("a",), {"a": decay}, ()),
                     "dimension must be >= 1, got 0", id="automaton-dim"),
        pytest.param(lambda: FlowJumpSystem(True, decay),
                     r"^FlowJumpSystem\.dim must be an integer, got True",
                     id="flow-jump-bool"),
        pytest.param(lambda: FlowJumpSystem(1.0, decay),
                     r"^FlowJumpSystem\.dim must be an integer, got 1\.0",
                     id="flow-jump-float"),
        pytest.param(lambda: HybridAutomaton(2.5, ("a",), {"a": decay}, ()),
                     r"^HybridAutomaton\.dim must be an integer, got 2\.5",
                     id="automaton-float"),
        pytest.param(lambda: HybridAutomaton(1, (), {}, ()),
                     "at least one mode", id="no-modes"),
        pytest.param(lambda: HybridAutomaton(1, ("a",), {}, ()),
                     "mode 'a' has no flow", id="no-flow"),
        pytest.param(
            lambda: HybridAutomaton(
                1, ("a",), {"a": decay}, (Edge("a", "b", _always, _identity),)
            ),
            "edge 'a->b' references unknown modes", id="edge-mode",
        ),
        pytest.param(lambda: HybridAutomaton(1, ("a", "b", "a"), {"a": decay, "b": decay}, ()),
                     "^mode 'a' is listed twice$", id="repeated-mode"),
        pytest.param(lambda: simulate(FlowJumpSystem(1, decay), [10**400], 1.0, 1, 0.1),
                     "x0 entries must be finite", id="huge-int-x0"),
    ],
)
def test_systems_input_checks(call, fragment):
    with pytest.raises(ArgumentError, match=fragment):
        call()


def _reset_to_inf():
    """Flows at unit speed and jumps at x = 0.5 to a non-finite state."""
    return FlowJumpSystem(
        dim=1, flow_map=lambda x, t: np.ones_like(x),
        jump_set=lambda x, t: x[0] - 0.5, jump_map=lambda x: np.array([np.inf]),
    )


def test_a_reset_to_a_non_finite_state_is_a_numerical_failure():
    with pytest.raises(NumericalFailureError) as err:
        simulate(_reset_to_inf(), [0.0], 1.0, 5, 0.1)
    t = err.value.time
    assert abs(t - 0.5) < 1e-9
    assert str(err.value) == (
        f"reset to a non-finite state at t={t} in mode 'flow' on edge 'jump'"
    )
    traj = err.value.trajectory
    assert traj.termination == NUMERICAL_FAILURE
    assert traj.times[-1] == t and np.isfinite(traj.states).all()


def test_a_flow_failure_names_its_mode():
    system = FlowJumpSystem(
        dim=1, flow_map=lambda x, t: np.where(x > 0.25, np.nan, 1.0),
        mode_label=lambda x: "ramp",
    )
    with pytest.raises(NumericalFailureError) as err:
        simulate(system, [0.0], 1.0, 5, 0.1)
    t = err.value.time
    assert str(err.value) == f"non-finite state while flowing to t={t} in mode 'ramp'"
    assert err.value.trajectory.times.tolist() == [0.0, 0.1, 0.2]


def test_a_flow_jump_systems_mode_label_is_read_at_x0_and_after_each_jump():
    # a unit ramp that drops back to 0 at 1 and counts its drops in x[1]:
    # three jumps in 3.5 s, so four labels and no more, whatever the samples
    calls = []

    def label(x):
        calls.append(x.copy())
        return f"run {int(x[1])}"

    system = FlowJumpSystem(
        dim=2, flow_map=lambda x, t: np.array([np.ones_like(x[0]), 0.0 * x[1]]),
        jump_set=lambda x, t: x[0] - 1.0, jump_map=lambda x: np.array([0.0, x[1] + 1.0]),
        mode_label=label,
    )
    traj = simulate(system, [0.0, 0.0], 3.5, 10, 0.1)
    assert len(traj.jumps) == 3 and len(calls) == 1 + 3
    assert [x.tolist() for x in calls] == [[0.0, k] for k in (0.0, 1.0, 2.0, 3.0)]
    assert traj.modes == [f"run {int(c)}" for c in traj.states[:, 1]]
    assert [(r.mode_before, r.mode_after) for r in traj.jumps] == [
        ("run 0", "run 1"), ("run 1", "run 2"), ("run 2", "run 3")
    ]
