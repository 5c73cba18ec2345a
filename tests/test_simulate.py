"""Hybrid simulation semantics: jumps, priorities, terminations, hybrid time."""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from hdsim import (
    AmbiguousTransitionError,
    ArgumentError,
    Edge,
    FlowJumpSystem,
    HORIZON_REACHED,
    HybridAutomaton,
    LEFT_FLOW_SET,
    MAX_JUMPS_REACHED,
    NoiseModel,
    NumericalFailureError,
    run_ekf,
    simulate,
)
from hdsim.integrate import rk4_step
from hdsim.power import SmibParams, smib_state, smib_system
from hdsim.simulate import next_event


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
    system = FlowJumpSystem(
        dim=1,
        flow_map=lambda x, t: np.ones(1),
        flow_set=lambda x, t: x[0] <= 0.5,
    )
    traj = simulate(system, np.array([0.0]), 1.0, max_jumps=0, dt=1e-2)
    assert traj.termination == LEFT_FLOW_SET
    assert traj.final_state()[0] > 0.5
    # the run stopped early, so every grid alignment lacks the later samples
    for align in (traj.grid_states, traj.grid_modes, traj.grid_jump_counts):
        with pytest.raises(ArgumentError):
            align(0.0, 1e-2, 100)


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
        def recorded(state, t):
            probe_times.append(t)
            return margin(state, t)

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
