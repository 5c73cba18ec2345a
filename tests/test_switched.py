"""Switched systems: signal semantics, lift equivalence, direct integration."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from hdsim import (
    ArgumentError,
    ExperimentConfig,
    HybridAutomaton,
    SwitchedSystem,
    generate_truth_and_measurements,
    gfl_flow,
    gfm_flow,
    inverter_automaton,
    lift_switched,
    run_ekf,
    simulate,
)

from oracles import integrate_flow, simulate_switched
from refusals import refusal_test


def test_signal_is_right_continuous():
    sw = SwitchedSystem(
        dim=1,
        fields=(lambda x, t: -x, lambda x, t: -2 * x),
        mode_sequence=(1, 2),
        switch_times=(0.1,),
    )
    assert sw.signal(0.0) == 1
    assert sw.signal(0.1) == 2
    assert sw.signal(0.0999) == 1


def test_degenerate_lift_equals_plain_integration():
    sw = SwitchedSystem(dim=1, fields=(lambda x, t: -x,), mode_sequence=(1,))
    lifted = lift_switched(sw)
    traj = simulate(lifted, [1.0], 0.2, max_jumps=5, dt=1e-3, mode0=lifted.modes[0])
    oracle = integrate_flow(lambda x, t: -x, np.array([1.0]), 0.0, 0.2, 1e-3)
    assert len(traj.samples) == len(oracle)
    for sample, (t, x) in zip(traj.samples, oracle):
        assert sample.time.t == t
        assert sample.state[0] == x[0]
    assert all(s.time.j == 0 for s in traj.samples)


def test_two_mode_switch_closed_form():
    sw = SwitchedSystem(
        dim=1,
        fields=(lambda x, t: -x, lambda x, t: -2 * x),
        mode_sequence=(1, 2),
        switch_times=(0.1,),
    )
    lifted = lift_switched(sw)
    traj = simulate(lifted, [1.0], 0.2, max_jumps=5, dt=1e-4, mode0=lifted.modes[0])
    assert len(traj.jumps) == 1
    assert abs(traj.final_state()[0] - math.exp(-0.3)) < 1e-10


def test_cycling_lift_matches_direct_simulation():
    fields = (lambda x, t: -x, lambda x, t: -2 * x, lambda x, t: -3 * x)
    # 0.3 lies 4e-17 s before the grid time 3 * 0.1: the step after that
    # switch still ends there
    for switch_times, dt in [
        ((0.05, 0.10, 0.15, 0.20, 0.25), 1e-3),
        ((0.1, 0.2, 0.3, 0.31, 0.4), 0.1),
    ]:
        sw = SwitchedSystem(
            dim=1,
            fields=fields,
            mode_sequence=(1, 2, 3, 1, 2, 3),
            switch_times=switch_times,
        )
        lifted = lift_switched(sw)
        lift_traj = simulate(lifted, [1.0], 0.5, max_jumps=10, dt=dt,
                             mode0=lifted.modes[0])
        direct = simulate_switched(sw, [1.0], 0.5, dt)
        assert len(lift_traj.samples) == len(direct.samples)
        for a, b in zip(lift_traj.samples, direct.samples):
            assert abs(a.time.t - b.time.t) <= 1e-12
            assert a.time.j == b.time.j
            assert abs(a.state[0] - b.state[0]) <= 1e-12
            assert a.mode == b.mode


@pytest.mark.parametrize(
    "switch_times, t0",
    [((0.1, 0.2, 0.35), 0.15), ((0.0, 0.2), 0.0), ((0.1, 0.2), 0.1)],
    ids=["past-a-switch", "switch-at-0", "on-a-switch"],
)
def test_a_lift_started_at_t0_matches_direct_simulation(switch_times, t0):
    fields = (lambda x, t: -x, lambda x, t: -2 * x + t, lambda x, t: np.sin(3 * x))
    sw = SwitchedSystem(dim=1, fields=fields, switch_times=switch_times,
                        mode_sequence=(1, 2, 3, 1)[: len(switch_times) + 1])
    lifted = lift_switched(sw)
    mode0 = lifted.modes[sw.segment_of(t0)]
    lift_traj = simulate(lifted, [1.0], 0.5, 10, 0.01, mode0=mode0, t0=t0)
    direct = simulate_switched(sw, [1.0], 0.5, 0.01, t0=t0)
    for column in ("times", "states", "jump_counts", "modes"):
        assert np.array_equal(getattr(lift_traj, column), getattr(direct, column))
    assert [r.edge for r in lift_traj.jumps] == [r.edge for r in direct.jumps]
    assert lift_traj.jump_times == [s for s in switch_times if s > t0]


def test_multidimensional_lift():
    a1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    a2 = np.array([[-1.0, 0.0], [0.0, -1.0]])
    sw = SwitchedSystem(
        dim=2,
        fields=(lambda x, t: a1 @ x, lambda x, t: a2 @ x),
        mode_sequence=(1, 2),
        switch_times=(0.123,),
    )
    lifted = lift_switched(sw)
    lift_traj = simulate(lifted, [1.0, 0.0], 0.25, max_jumps=3, dt=1e-3,
                         mode0=lifted.modes[0])
    direct = simulate_switched(sw, [1.0, 0.0], 0.25, 1e-3)
    for a, b in zip(lift_traj.samples, direct.samples):
        assert np.max(np.abs(a.state - b.state)) <= 1e-12


def test_validation_errors():
    with pytest.raises(ArgumentError):
        SwitchedSystem(dim=1, fields=(), mode_sequence=(1,))
    with pytest.raises(ArgumentError):
        SwitchedSystem(
            dim=1, fields=(lambda x, t: -x,), mode_sequence=(1, 1),
            switch_times=(0.2, 0.1),
        )
    with pytest.raises(ArgumentError):
        SwitchedSystem(
            dim=1, fields=(lambda x, t: -x,), mode_sequence=(1, 2),
            switch_times=(0.1,),
        )
    with pytest.raises(ArgumentError):
        SwitchedSystem(dim=1, fields=(lambda x, t: -x,), mode_sequence=(1, 1))


_F1, _F2 = (lambda x, t: -x), (lambda x, t: -2 * x)


test_a_switched_system_refuses_a_bad_dimension_index_or_instant = refusal_test(
    "test_a_switched_system_refuses_a_bad_dimension_index_or_instant"
)


def test_numpy_integer_dimension_and_indices_are_integers():
    sw = SwitchedSystem(
        dim=np.int64(1), fields=(_F1, _F2), mode_sequence=(np.int64(1), np.int32(2)),
        switch_times=(0.1,),
    )
    lifted = lift_switched(sw)
    traj = simulate(lifted, [1.0], 0.2, 5, 0.05, mode0=lifted.modes[0])
    assert sw.signal(0.15) == 2 and traj.jump_times == [0.1]


@pytest.mark.parametrize(
    "switch_times",
    [(math.nan,), (math.inf,), ("0.5",), (None,), (10**400,), 0.5],
    ids=["nan", "inf", "text", "none", "huge-int", "scalar"],
)
def test_a_switch_instant_that_is_not_a_finite_real_is_refused(switch_times):
    with pytest.raises(
        ArgumentError, match=r"^SwitchedSystem\.switch_times must be finite reals"
    ):
        SwitchedSystem(
            dim=1, fields=(lambda x, t: -x, lambda x, t: -2 * x), mode_sequence=(1, 2),
            switch_times=switch_times,
        )


def test_the_lift_is_an_automaton_with_one_location_per_segment():
    sw = SwitchedSystem(dim=2, fields=(_F1, _F2), mode_sequence=(1, 2, 1),
                        switch_times=(0.1, 0.2))
    lift = lift_switched(sw)
    assert isinstance(lift, HybridAutomaton) and lift.dim == 2
    assert lift.modes == ("mode 1 (segment 0)", "mode 2 (segment 1)", "mode 1 (segment 2)")
    assert [lift.flows[q] for q in lift.modes] == [_F1, _F2, _F1]
    assert [(e.source, e.target) for e in lift.edges] == list(zip(lift.modes, lift.modes[1:]))
    x = np.array([0.3, -0.4])
    for edge, s in zip(lift.edges, (0.1, 0.2)):
        assert edge.guard(x, 0.15) == 0.15 - s and edge.guard_gradient is None
        after = edge.reset(x)
        assert np.array_equal(after, x) and after is not x
        assert np.array_equal(edge.reset_jacobian(x), np.eye(2))


class _CountedEdges(tuple):
    """A tuple of edges that counts the passes over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_a_run_of_the_lift_looks_each_location_up_without_rescanning_the_edges():
    # 200 switches: a run enters 201 locations, and the edges are read once,
    # when the automaton is built, not at each entry
    sw = SwitchedSystem(dim=2, fields=(_F1, _F2), mode_sequence=(1, 2) * 100 + (1,),
                        switch_times=tuple(0.005 * (k + 1) for k in range(200)))
    lift = lift_switched(sw)
    edges = _CountedEdges(lift.edges)
    counted = replace(lift, edges=edges)
    assert edges.passes == 1
    traj = simulate(counted, [1.0, 0.5], 1.1, 250, 1e-3, mode0=counted.modes[0])
    assert edges.passes == 1
    assert [len(counted.locations[q][2]) for q in counted.modes] == [1] * 200 + [0]
    assert len(traj.jumps) == 200 and traj.modes[-1] == counted.modes[-1]
    plain = simulate(lift, [1.0, 0.5], 1.1, 250, 1e-3, mode0=lift.modes[0])
    assert traj.states.tobytes() == plain.states.tobytes()


def inverter_as_switched_system(values):
    """The configured inverter's scenario, truth and measurements, and the
    switched system GFL, GFM, GFL switching at the truth's own jump times."""
    sc = ExperimentConfig(values=values).scenario()
    truth, measurements = generate_truth_and_measurements(sc)
    p, v_grid = sc.params, sc.v_grid
    sw = SwitchedSystem(
        dim=4,
        fields=(lambda x, t: gfl_flow(x, v_grid(t), p), lambda x, t: gfm_flow(x, p)),
        mode_sequence=(1, 2, 1),
        switch_times=tuple(truth.jump_times),
    )
    return sc, truth, measurements, sw


def inverter_truth_and_switched_lift(values):
    """The configured inverter's truth on its grid, and the grid states and
    jump times of its switched system run through the lift."""
    sc, truth, _, sw = inverter_as_switched_system(values)
    lifted = lift_switched(sw)
    lift = simulate(lifted, sc.x0, sc.horizon, 50, sc.dt, mode0=lifted.modes[0])
    return (
        truth.grid_states(0.0, sc.dt, sc.n_steps),
        lift.grid_states(0.0, sc.dt, sc.n_steps),
        lift.jump_times,
    )


def test_the_default_inverter_run_is_a_switched_system():
    # both guards read only v_grid(t) and the clamp is idle at the GFL->GFM
    # jump, so the automaton's run is the switched system's, bit for bit
    truth, lifted, jump_times = inverter_truth_and_switched_lift({})
    assert jump_times == [0.054, 0.128]
    assert np.array_equal(truth, lifted)


@pytest.mark.parametrize("i_lim, floor", [(0.5, 1e-3), (0.3, 0.1)])
def test_an_acting_current_clamp_is_what_needs_the_automaton(i_lim, floor):
    # the clamp resets the currents at the GFL->GFM jump; a switched system
    # has no reset, so its run departs from the truth (9.1e-3 and 0.150 of a
    # column's largest value)
    truth, lifted, jump_times = inverter_truth_and_switched_lift({"inverter.i_lim": i_lim})
    assert jump_times == [0.054, 0.128]
    assert np.max(np.abs(truth - lifted) / np.max(np.abs(truth), axis=0)) > floor


def lift_and_hybrid_filters(values):
    """The EKF runs of the configured inverter's switched-system lift and of
    its automaton, on the same measurements."""
    sc, _, z, sw = inverter_as_switched_system(values)
    lifted = lift_switched(sw)
    lift_run = run_ekf(lifted, replace(sc, initial_mode=lifted.modes[0]), z)
    return lift_run, run_ekf(inverter_automaton(sc.params, sc.v_grid), sc, z)


@pytest.mark.parametrize("seed", [42, 7])
def test_the_default_hybrid_filter_is_the_lift_s_filter(seed):
    # the lift's jumps are the automaton's, at the same times, and both
    # saltation matrices are the identity: the filters agree bit for bit
    lift_run, hybrid = lift_and_hybrid_filters({"seed": seed})
    assert np.array_equal(lift_run.means, hybrid.means)
    assert np.array_equal(lift_run.covariances, hybrid.covariances)
    assert np.array_equal(lift_run.jump_counts, hybrid.jump_counts)
    assert [r.t for r in lift_run.jumps] == [0.054, 0.128]


def test_an_acting_current_clamp_parts_the_filters():
    lift_run, hybrid = lift_and_hybrid_filters({"inverter.i_lim": 0.5})
    assert not np.array_equal(lift_run.means, hybrid.means)


def test_the_switched_names_import_from_the_package():
    import hdsim
    from hdsim import SwitchedSystem, lift_switched, switched

    assert (SwitchedSystem, lift_switched) == (
        switched.SwitchedSystem, switched.lift_switched
    )
    with pytest.raises(AttributeError):
        getattr(hdsim, "no_such_name")


def test_the_retired_pwa_names_and_module_are_gone():
    # the names are spelled in parts, so that a search of the tree for them
    # finds no reader but this test
    retired = ("Pwa" "System", "pwa" "_step", "Uncovered" "StateError", "lift" "_state")
    for name in retired:
        with pytest.raises(ImportError):
            exec(f"from hdsim import {name}", {})
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(".pwa", "hdsim")
