"""Switched systems: signal semantics, lift equivalence, direct integration."""

import importlib
import math

import numpy as np
import pytest

from hdsim import (
    ArgumentError,
    ExperimentConfig,
    SwitchedSystem,
    generate_truth_and_measurements,
    gfl_flow,
    gfm_flow,
    lift_state,
    lift_switched,
    numerical_jacobian,
    simulate,
)

from oracles import integrate_flow, simulate_switched


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
    traj = simulate(lifted, lift_state(sw, [1.0]), 0.2, max_jumps=5, dt=1e-3)
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
    traj = simulate(lifted, lift_state(sw, [1.0]), 0.2, max_jumps=5, dt=1e-4)
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
        lift_traj = simulate(lifted, lift_state(sw, [1.0]), 0.5, max_jumps=10, dt=dt)
        direct = simulate_switched(sw, [1.0], 0.5, dt)
        assert len(lift_traj.samples) == len(direct.samples)
        for a, b in zip(lift_traj.samples, direct.samples):
            assert abs(a.time.t - b.time.t) <= 1e-12
            assert a.time.j == b.time.j
            assert abs(a.state[0] - b.state[0]) <= 1e-12
            assert a.mode == b.mode


def test_multidimensional_lift():
    a1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    a2 = np.array([[-1.0, 0.0], [0.0, -1.0]])
    sw = SwitchedSystem(
        dim=2,
        fields=(lambda x, t: a1 @ x, lambda x, t: a2 @ x),
        mode_sequence=(1, 2),
        switch_times=(0.123,),
    )
    lift_traj = simulate(
        lift_switched(sw), lift_state(sw, [1.0, 0.0]), 0.25, max_jumps=3, dt=1e-3
    )
    direct = simulate_switched(sw, [1.0, 0.0], 0.25, 1e-3)
    for a, b in zip(lift_traj.samples, direct.samples):
        assert np.max(np.abs(a.state[:2] - b.state)) <= 1e-12


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


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        pytest.param(dict(dim=0), "dimension must be >= 1, got 0", id="dim-0"),
        pytest.param(dict(dim=2.5), r"^SwitchedSystem\.dim must be an integer, got 2\.5",
                     id="dim-float"),
        pytest.param(dict(dim=True), r"^SwitchedSystem\.dim must be an integer, got True",
                     id="dim-bool"),
        pytest.param(
            dict(mode_sequence=(1.5, 2)),
            r"^SwitchedSystem\.mode_sequence entries must be integers, got 1\.5",
            id="mode-float",
        ),
        pytest.param(
            dict(mode_sequence=(True, 2)),
            r"^SwitchedSystem\.mode_sequence entries must be integers, got True",
            id="mode-bool",
        ),
        pytest.param(
            dict(mode_sequence=(1, 2, 1), switch_times=(0.2, 0.2)),
            "switch instants must be strictly increasing", id="equal-instants",
        ),
        pytest.param(
            dict(mode_sequence=(1, 2, 1), switch_times=(0.2, 0.1)),
            "switch instants must be strictly increasing", id="decreasing-instants",
        ),
    ],
)
def test_a_switched_system_refuses_a_bad_dimension_index_or_instant(kwargs, fragment):
    args = dict(dim=1, fields=(_F1, _F2), mode_sequence=(1, 2), switch_times=(0.1,))
    with pytest.raises(ArgumentError, match=fragment):
        SwitchedSystem(**{**args, **kwargs})


def test_numpy_integer_dimension_and_indices_are_integers():
    sw = SwitchedSystem(
        dim=np.int64(1), fields=(_F1, _F2), mode_sequence=(np.int64(1), np.int32(2)),
        switch_times=(0.1,),
    )
    traj = simulate(lift_switched(sw), lift_state(sw, [1.0]), 0.2, 5, 0.05)
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


def test_the_lift_acts_on_each_column():
    sw = SwitchedSystem(
        dim=1,
        fields=(lambda x, t: -x, lambda x, t: -2 * x),
        mode_sequence=(1, 2),
        switch_times=(0.1,),
    )
    lift = lift_switched(sw)
    jac = numerical_jacobian(lambda y: lift.flow_map(y, 0.0), lift_state(sw, [1.0]))
    assert np.allclose(jac, [[-1.0, 0.0], [0.0, 0.0]], atol=1e-9)
    batch = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])  # segments 0, 1, 0
    flows = lift.flow_map(batch, 0.05)
    margins = lift.jump_set(batch, 0.05)
    for c in range(3):
        assert np.array_equal(flows[:, c], lift.flow_map(batch[:, c], 0.05))
        assert margins[c] == lift.jump_set(batch[:, c], 0.05)
    assert margins.tolist() == [0.05 - 0.1, -np.inf, 0.05 - 0.1]


def three_segment_lift():
    sw = SwitchedSystem(
        dim=2,
        fields=(lambda x, t: -x, lambda x, t: np.sin(x) * t, lambda x, t: x[::-1] ** 2),
        mode_sequence=(1, 2, 3),
        switch_times=(0.1, 0.2),
    )
    return lift_switched(sw)


def test_a_batch_in_any_segments_equals_its_columns():
    lift = three_segment_lift()
    rng = np.random.default_rng(3)
    for labels in ([1, 1, 1, 1], [2, 0, 1, 2, 0], [0], [2, 2, 0]):
        batch = np.vstack([rng.normal(size=(2, len(labels))), labels])
        flows = lift.flow_map(batch, 0.15)
        margins = lift.jump_set(batch, 0.15)
        for c in range(len(labels)):
            assert np.array_equal(flows[:, c], lift.flow_map(batch[:, c], 0.15))
            assert margins[c] == lift.jump_set(batch[:, c], 0.15)


@pytest.mark.parametrize("label", [-1.0, 3.0, np.nan])
def test_a_segment_label_out_of_range_is_an_argument_error(label):
    lift = three_segment_lift()
    message = f"segment label {label} outside 0..2"
    for x in (np.array([1.0, 0.5, label]), np.array([[1.0, 2.0], [0.5, 0.5], [1.0, label]])):
        with pytest.raises(ArgumentError, match=message):
            lift.flow_map(x, 0.0)
        with pytest.raises(ArgumentError, match=message):
            lift.jump_set(x, 0.0)
    if np.isfinite(label):
        with pytest.raises(ArgumentError, match=message):
            simulate(lift, [1.0, 0.5, label], 0.3, max_jumps=5, dt=0.01)


def inverter_truth_and_switched_lift(values):
    """The configured inverter's truth on its grid, and the grid states and
    jump times of the switched system GFL, GFM, GFL switching at the
    truth's own jump times, run through its lift."""
    sc = ExperimentConfig(values=values).scenario()
    truth, _ = generate_truth_and_measurements(sc)
    p, v_grid = sc.params, sc.v_grid
    sw = SwitchedSystem(
        dim=4,
        fields=(lambda x, t: gfl_flow(x, v_grid(t), p), lambda x, t: gfm_flow(x, p)),
        mode_sequence=(1, 2, 1),
        switch_times=tuple(truth.jump_times),
    )
    lift = simulate(lift_switched(sw), lift_state(sw, sc.x0), sc.horizon, 50, sc.dt)
    return (
        truth.grid_states(0.0, sc.dt, sc.n_steps),
        lift.grid_states(0.0, sc.dt, sc.n_steps)[:, :4],
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


def test_optional_formalisms_import_from_the_package():
    import hdsim
    from hdsim import SwitchedSystem, lift_state, lift_switched, switched

    assert (SwitchedSystem, lift_state, lift_switched) == (
        switched.SwitchedSystem, switched.lift_state, switched.lift_switched
    )
    with pytest.raises(AttributeError):
        getattr(hdsim, "no_such_name")


def test_the_retired_pwa_names_and_module_are_gone():
    # the names are spelled in parts, so that a search of the tree for them
    # finds no reader but this test
    for name in ("Pwa" "System", "pwa" "_step", "Uncovered" "StateError"):
        with pytest.raises(ImportError):
            exec(f"from hdsim import {name}", {})
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(".pwa", "hdsim")
