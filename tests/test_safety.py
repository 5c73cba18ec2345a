"""Sampling-based safety falsification checks."""

import numpy as np
import pytest

from hdsim import (
    AmbiguousTransitionError,
    ArgumentError,
    Edge,
    ExperimentConfig,
    FlowJumpSystem,
    HybridAutomaton,
    LEFT_FLOW_SET,
    MAX_JUMPS_REACHED,
    NO_COUNTEREXAMPLE,
    NumericalFailureError,
    SafetyVerdict,
    SmibParams,
    UNSAFE,
    box_sampler,
    check_safety,
    inverter_automaton,
    simulate,
    smib_system,
)
from hdsim.simulate import Stepper

from oracles import box_samples, integrate_flow, swing_field
from refusals import refusal_test


def test_contracting_system_stays_safe():
    system = FlowJumpSystem(dim=1, flow_map=lambda x, t: -x)
    sampler = box_sampler([-1.0], [1.0], seed=10)
    verdict = check_safety(
        system, sampler, lambda x: abs(x[0]) > 10.0, horizon=1.0,
        samples=25, dt=1e-2,
    )
    assert verdict.status == NO_COUNTEREXAMPLE
    assert verdict.samples_checked == 25
    assert verdict.witness is None


def test_smib_overload_gives_witness_at_threshold_crossing():
    params = SmibParams(i_max=1.1, p_min=0.1, p_max=0.2)
    system = smib_system(params)
    sampler = box_sampler([0.5, 0.0, 1.0], [0.5, 0.0, 1.0], seed=0)  # fixed x0

    def unsafe(x):
        return abs(params.p_e(x[0])) > params.i_max - 1e-9

    verdict = check_safety(system, sampler, unsafe, horizon=1.0, samples=3, dt=1e-4)
    assert verdict.unsafe
    assert len(verdict.witness.jumps) >= 1
    # oracle: nominal swing trajectory, first |P_e| threshold crossing
    oracle = integrate_flow(swing_field(params), np.array([0.5, 0.0]), 0.0, 1.0, 1e-4)
    t_cross = next(
        t for t, x in oracle if abs(params.p_e(x[0])) >= params.i_max
    )
    assert abs(verdict.witness_time - t_cross) <= 2e-4
    assert abs(verdict.witness.jumps[0].t - verdict.witness_time) <= 2e-4


def test_zero_samples_rejected():
    system = FlowJumpSystem(dim=1, flow_map=lambda x, t: -x)
    sampler = box_sampler([-1.0], [1.0], seed=1)
    with pytest.raises(ArgumentError):
        check_safety(system, sampler, lambda x: False, 1.0, samples=0, dt=1e-2)


test_a_run_argument_that_is_no_number_is_refused_before_any_draw = refusal_test(
    "test_a_run_argument_that_is_no_number_is_refused_before_any_draw"
)


def test_sampler_is_seed_deterministic():
    a = box_sampler([0.0, 0.0], [1.0, 1.0], seed=5)
    b = box_sampler([0.0, 0.0], [1.0, 1.0], seed=5)
    for _ in range(10):
        assert np.array_equal(a(), b())


@pytest.mark.parametrize(
    "lo, hi, seed",
    [
        ([0.0, 0.0], [1.0, 1.0], 5),
        ([-1.0], [1.0], 0),
        ([0.0, -6.0, 1.0], [1.2, 6.0, 1.0], 2**64 + 12345),
        ([[0.0, 1.0], [2.0, 3.0]], [[0.5, 1.0], [4.0, 9.0]], np.uint64(2**64 - 1)),
        (0.25, 0.75, 7),
        ([], [], 3),
    ],
    ids=["unit-square", "interval", "big-seed", "matrix", "scalar", "empty"],
)
def test_sampler_draws_numpys_default_rng_states(lo, hi, seed):
    sampler = box_sampler(lo, hi, seed)
    for got, want in zip((sampler() for _ in range(20)), box_samples(lo, hi, seed, 20)):
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


test_sampler_refuses_a_seed_that_is_not_a_non_negative_integer = refusal_test(
    "test_sampler_refuses_a_seed_that_is_not_a_non_negative_integer"
)


def test_automaton_sampler_with_modes():
    from hdsim import HybridAutomaton

    automaton = HybridAutomaton(
        dim=1, modes=("only",), flows={"only": lambda x, t: np.ones(1)}, edges=()
    )
    base = box_sampler([0.0], [0.1], seed=2)
    verdict = check_safety(
        automaton, lambda: ("only", base()), lambda x: x[0] > 0.5,
        horizon=1.0, samples=2, dt=1e-2,
    )
    assert verdict.unsafe
    assert 0.3 <= verdict.witness_time <= 0.55


def test_tuple_samples_are_states_for_a_flow_jump_system():
    # only an automaton's sampler may return (mode, state) pairs
    system = FlowJumpSystem(dim=2, flow_map=lambda x, t: -x)
    verdict = check_safety(
        system, lambda: (0.1, 0.2), lambda x: x[1] > 0.15, horizon=0.1,
        samples=2, dt=1e-2,
    )
    assert verdict.unsafe and verdict.witness_time == 0.0
    assert np.array_equal(verdict.witness_initial_state, [0.1, 0.2])


# -- the batched sweep against the sample-by-sample loop ------------------------


def oracle_check_safety(system, init_sampler, unsafe, horizon, samples, dt,
                        max_jumps=100, mode0=None):
    """The sample-by-sample loop the sweep must agree with."""
    for i in range(samples):
        drawn = init_sampler()
        if isinstance(system, HybridAutomaton) and isinstance(drawn, tuple) \
                and len(drawn) == 2 and isinstance(drawn[0], str):
            m0, x0 = drawn
        else:
            m0, x0 = mode0, drawn
        traj = simulate(system, x0, horizon, max_jumps, dt, mode0=m0)
        for s in traj.samples:
            if unsafe(s.state):
                return SafetyVerdict(
                    status=UNSAFE, samples_checked=i + 1, witness=traj,
                    witness_time=s.time.t,
                    witness_initial_state=np.asarray(x0, dtype=float),
                )
    return SafetyVerdict(status=NO_COUNTEREXAMPLE, samples_checked=samples)


def assert_same_verdict(make_sampler, system, unsafe, **kwargs):
    """Run sweep and oracle on fresh samplers; return the sweep's verdict."""
    got = check_safety(system, make_sampler(), unsafe, **kwargs)
    want = oracle_check_safety(system, make_sampler(), unsafe, **kwargs)
    assert (got.status, got.samples_checked) == (want.status, want.samples_checked)
    assert got.witness_time == want.witness_time
    if want.unsafe:
        assert got.witness.jump_times == want.witness.jump_times
        assert np.array_equal(got.witness_initial_state, want.witness_initial_state)
    return got


def reaches(target):
    """Column-wise predicate: the state equals ``target`` bit for bit."""
    target = np.asarray(target, dtype=float)
    return lambda x: (np.asarray(x).T == target).all(axis=-1)


OUT_OF_STEP = SmibParams(p_m=2.0, d=0.5)  # slips poles: trips and restores


def smib_sampler(seed):
    return lambda: box_sampler([0.0, -6.0, 1.0], [1.2, 6.0, 1.0], seed)


SMIB_RUN = dict(horizon=2.0, samples=8, dt=1e-2, max_jumps=1000)


@pytest.fixture
def simulate_calls(monkeypatch):
    import hdsim.safety

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(hdsim.safety, "simulate", counted)
    return calls


def test_safe_sweep_matches_the_loop_and_simulates_nothing(simulate_calls):
    system = smib_system(OUT_OF_STEP)
    verdict = assert_same_verdict(
        smib_sampler(1), system, lambda x: np.abs(x[1]) > 1e3, **SMIB_RUN
    )
    assert verdict.status == NO_COUNTEREXAMPLE and verdict.samples_checked == 8
    assert simulate_calls == []


def scalar_runs(system, sampler, n, **kwargs):
    return [simulate(system, sampler(), **kwargs) for _ in range(n)]


def test_every_column_ends_bitwise_where_simulate_ends(simulate_calls):
    system = smib_system(OUT_OF_STEP)
    kwargs = dict(horizon=2.0, max_jumps=1000, dt=1e-2)
    runs = scalar_runs(system, smib_sampler(2)(), 8, **kwargs)
    assert all(len(r.jumps) >= 2 for r in runs)
    for k, run in enumerate(runs):
        verdict = assert_same_verdict(
            smib_sampler(2), system, reaches(run.final_state()), samples=8, **kwargs
        )
        assert verdict.samples_checked == k + 1
        assert verdict.witness_time == run.samples[-1].time.t
    assert len(simulate_calls) == len(runs)  # one witness run per sweep


@pytest.mark.parametrize("side", ["state_before", "state_after"])
def test_unsafe_only_at_a_pre_or_post_jump_sample(side, simulate_calls):
    system = smib_system(OUT_OF_STEP)
    runs = scalar_runs(system, smib_sampler(3)(), 8, horizon=2.0, max_jumps=1000, dt=1e-2)
    k = 5
    jump = runs[k].jumps[1]
    verdict = assert_same_verdict(
        smib_sampler(3), system, reaches(getattr(jump, side)), **SMIB_RUN
    )
    assert verdict.samples_checked == k + 1
    assert verdict.witness_time == jump.t
    assert len(simulate_calls) == 1  # the witness


def test_inverter_columns_that_jump_onto_a_grid_time():
    # the reference dip crosses v_low at t = 0.054, a grid time at dt = 1e-3:
    # each column lands one grid step ahead of the sweep and waits there
    scenario = ExperimentConfig().scenario()
    automaton = inverter_automaton(scenario.params, scenario.v_grid)
    kwargs = dict(horizon=0.2, max_jumps=10, dt=1e-3, mode0=scenario.initial_mode)

    def sampler():
        return box_sampler(scenario.x0 - 0.3, scenario.x0 + 0.3, seed=12)

    runs = scalar_runs(automaton, sampler(), 6, **kwargs)
    assert all(abs(r.jump_times[0] - 0.054) < 1e-9 for r in runs)
    for k, run in enumerate(runs):
        verdict = assert_same_verdict(
            sampler, automaton, reaches(run.final_state()), samples=6, **kwargs
        )
        assert verdict.samples_checked == k + 1


def test_columns_that_jump_onto_a_grid_time_rejoin_the_batch(monkeypatch):
    # finishing them on the scalar path instead would leave a safe inverter
    # sweep scalar after its first switch: 14 times slower at 200 samples
    scenario = ExperimentConfig().scenario()
    automaton = inverter_automaton(scenario.params, scenario.v_grid)
    flags = []
    advance = Stepper.advance

    def counted(self, x_next=None, to_end=False):
        flags.append(to_end)
        return advance(self, x_next, to_end)

    monkeypatch.setattr(Stepper, "advance", counted)
    verdict = check_safety(
        automaton, box_sampler(scenario.x0 - 0.3, scenario.x0 + 0.3, seed=12),
        lambda x: np.abs(x[0]) > 100.0, horizon=0.2, samples=6, dt=1e-3,
        max_jumps=10, mode0=scenario.initial_mode,
    )
    assert verdict.status == NO_COUNTEREXAMPLE
    assert len(flags) == 6 * 3 and not any(flags)  # t = 0 and two switches


def test_a_predicate_that_takes_no_batch_still_gives_the_loop_verdict():
    # max() of two arrays raises: every step is redone column by column
    system = smib_system(OUT_OF_STEP)
    for level in (3.0, 5.5, 1e3):
        assert_same_verdict(
            smib_sampler(7), system, lambda x: max(abs(x[1]), 0.0) > level, **SMIB_RUN
        )


def test_unsafe_at_the_initial_state():
    system = smib_system(OUT_OF_STEP)
    sampler = smib_sampler(4)()
    x3 = [sampler() for _ in range(4)][3]
    verdict = assert_same_verdict(smib_sampler(4), system, reaches(x3), **SMIB_RUN)
    assert verdict.samples_checked == 4 and verdict.witness_time == 0.0


@pytest.mark.parametrize("fail_at", [2, 5])
def test_a_sampler_that_raises_surfaces_after_the_lower_samples(fail_at):
    system = smib_system(OUT_OF_STEP)
    first = smib_sampler(4)()
    x3 = [first() for _ in range(4)][3]

    def make_sampler():
        base, draws = smib_sampler(4)(), iter(range(100))

        def sample():
            if next(draws) == fail_at:
                raise ValueError("no more samples")
            return base()

        return sample

    if fail_at > 3:
        assert assert_same_verdict(make_sampler, system, reaches(x3), **SMIB_RUN).unsafe
    else:
        with pytest.raises(ValueError, match="no more samples"):
            check_safety(system, make_sampler(), reaches(x3), **SMIB_RUN)


@pytest.mark.parametrize("level", [0.52, 0.55, 0.58, 0.6])
def test_columns_that_leave_the_flow_set(level):
    # a flow set, and the same set as the invariant of a one-mode automaton
    for system, mode0 in (
        (FlowJumpSystem(
            dim=1, flow_map=lambda x, t: np.ones_like(x),
            flow_set=lambda x, t: x[0] <= 0.5,
        ), None),
        (HybridAutomaton(
            dim=1, modes=("a",), flows={"a": lambda x, t: np.ones_like(x)}, edges=(),
            invariants={"a": lambda x, t: x[0] <= 0.5},
        ), "a"),
    ):
        verdict = assert_same_verdict(
            lambda: box_sampler([0.0], [0.1], seed=5), system, lambda x: x[0] > level,
            horizon=1.0, samples=12, dt=0.1, mode0=mode0,
        )
        assert verdict.witness is None or verdict.witness.termination == LEFT_FLOW_SET


@pytest.mark.parametrize("n_jump", [1, 2])
def test_jump_budget_stops_a_column(n_jump):
    system = smib_system(OUT_OF_STEP)
    runs = scalar_runs(system, smib_sampler(6)(), 8, horizon=2.0, max_jumps=1000, dt=1e-2)
    target = runs[4].jumps[n_jump].state_after
    verdict = assert_same_verdict(
        smib_sampler(6), system, reaches(target), horizon=2.0, samples=8,
        dt=1e-2, max_jumps=2,
    )
    # the third jump (n_jump 2) lies beyond the budget of two
    assert verdict.unsafe == (n_jump < 2)
    if verdict.unsafe:
        assert verdict.witness.termination == MAX_JUMPS_REACHED


def two_mode_automaton():
    return HybridAutomaton(
        dim=2, modes=("up", "down"),
        flows={
            "up": lambda x, t: np.array([x[1], np.ones_like(x[0])]),
            "down": lambda x, t: np.array([x[1], -2.0 * np.ones_like(x[0])]),
        },
        edges=(
            Edge("up", "down", guard=lambda x, t: x[0] - 1.0, reset=lambda x: x),
            Edge("down", "up", guard=lambda x, t: -x[0], reset=lambda x: -0.5 * x),
        ),
    )


@pytest.mark.parametrize("level", [0.9, 1.2, 1.5, 2.0])
def test_mode_varying_automaton_sampler(level):
    automaton = two_mode_automaton()

    def make_sampler():
        base = box_sampler([0.0, -1.0], [0.9, 1.0], seed=8)
        count = iter(range(10**6))
        return lambda: ("up" if next(count) % 2 else "down", base())

    assert_same_verdict(
        make_sampler, automaton, lambda x: np.abs(x[1]) > level,
        horizon=3.0, samples=10, dt=1e-2,
    )


@pytest.mark.parametrize("level", [0.9, 1e3])
def test_a_two_entry_tuple_draw_is_a_state(level):
    # the automaton's states have two entries, so (0.1, 0.2) is a state
    # like the array [0.1, 0.2], not a (mode, state) pair
    automaton = two_mode_automaton()
    unsafe = lambda x: np.abs(x[1]) > level  # noqa: E731
    run = dict(horizon=3.0, samples=10, dt=1e-2, mode0="up")

    def draws(as_tuple):
        base = box_sampler([0.0, -1.0], [0.9, 1.0], seed=8)
        return (lambda: tuple(base().tolist())) if as_tuple else base

    got = check_safety(automaton, draws(True), unsafe, **run)
    want = check_safety(automaton, draws(False), unsafe, **run)
    assert (got.status, got.samples_checked, got.witness_time) == (
        want.status, want.samples_checked, want.witness_time
    )
    assert want.unsafe == (level < 2.0)
    if want.unsafe:
        assert np.array_equal(got.witness_initial_state, want.witness_initial_state)


@pytest.mark.parametrize("bad", [("nowhere", [0.5, 0.0]), ("up", [np.nan, 0.0])],
                         ids=["unknown-mode", "non-finite-state"])
@pytest.mark.parametrize("level", [2.0, 1e3])
def test_a_sample_that_cannot_start_surfaces_after_the_lower_samples(bad, level):
    automaton = two_mode_automaton()

    def make_sampler():
        good, count = alternating_modes(8)(), iter(range(10**6))
        return lambda: bad if next(count) == 3 else good()

    unsafe = lambda x: np.abs(x[1]) > level  # noqa: E731
    run = dict(horizon=3.0, samples=6, dt=1e-2)
    if level == 2.0:  # sample 1 turns unsafe at t = 2.42, after 3 failed to start
        verdict = assert_same_verdict(make_sampler, automaton, unsafe, **run)
        assert verdict.samples_checked == 2 and verdict.witness_time > 2.0
        return
    with pytest.raises(ArgumentError) as got:
        check_safety(automaton, make_sampler(), unsafe, **run)
    with pytest.raises(ArgumentError) as want:
        oracle_check_safety(automaton, make_sampler(), unsafe, **run)
    assert str(got.value) == str(want.value)


def ambiguous_automaton():
    # x[0] drives two guards that cross together; x[1] drives the unsafe set
    cross = lambda x, t: x[0] - 1.0  # noqa: E731
    return HybridAutomaton(
        dim=2, modes=("a", "b", "c"),
        flows={q: lambda x, t: np.ones_like(x) for q in "abc"},
        edges=(
            Edge("a", "b", guard=cross, reset=lambda x: x),
            Edge("a", "c", guard=cross, reset=lambda x: x),
        ),
    )


def listed(*states):
    return lambda: iter([np.array(s) for s in states]).__next__


RAISES = (0.7, 0.0)  # crosses both guards at t = 0.3
UNSAFE_AT_02 = (0.0, 0.8)  # unsafe at t = 0.2, never crosses before 0.5
KWARGS = dict(horizon=0.5, samples=3, dt=0.1, mode0="a")


def test_a_column_that_raises_after_a_lower_unsafe_one(simulate_calls):
    verdict = assert_same_verdict(
        listed((0.0, 0.0), UNSAFE_AT_02, RAISES), ambiguous_automaton(),
        lambda x: x[1] > 0.95, **KWARGS,
    )
    assert verdict.samples_checked == 2
    assert len(simulate_calls) == 1  # the witness


def test_a_column_that_raises_before_a_lower_unsafe_one():
    run = dict(system=ambiguous_automaton(), unsafe=lambda x: x[1] > 0.95, **KWARGS)
    with pytest.raises(AmbiguousTransitionError) as got:
        check_safety(init_sampler=listed((0.0, 0.0), RAISES, UNSAFE_AT_02)(), **run)
    with pytest.raises(AmbiguousTransitionError) as want:
        oracle_check_safety(
            init_sampler=listed((0.0, 0.0), RAISES, UNSAFE_AT_02)(), **run
        )
    assert str(got.value) == str(want.value)


def test_a_flow_that_is_not_column_wise_is_named_when_the_witness_is_safe():
    # the flow sums over the batch, so three columns grow three times as fast
    # as one sample simulated on its own, which stays below the threshold
    system = FlowJumpSystem(1, lambda x, t: np.full_like(x, np.sum(x)))
    with pytest.raises(
        ArgumentError, match="sample 0 was unsafe or raised in the sweep but not on its own"
    ):
        check_safety(system, lambda: [1.0], lambda x: x[0] > 5.0, 1.0, 3, 0.01)


def test_a_numerical_failure_surfaces_with_its_partial_trajectory():
    system = FlowJumpSystem(
        dim=1, flow_map=lambda x, t: np.where(x > 0.55, np.nan, 1.0),
    )
    run = dict(system=system, unsafe=lambda x: x[0] > 2.0, horizon=1.0, samples=4, dt=0.1)
    with pytest.raises(NumericalFailureError) as got:
        check_safety(init_sampler=listed([0.0], [0.1], [0.3], [0.0])(), **run)
    with pytest.raises(NumericalFailureError) as want:
        oracle_check_safety(init_sampler=listed([0.0], [0.1], [0.3], [0.0])(), **run)
    assert str(got.value) == str(want.value)
    assert got.value.trajectory.times.tolist() == want.value.trajectory.times.tolist()


@pytest.mark.parametrize("k", [6, 9, None])
def test_more_samples_than_one_chunk(k, monkeypatch, simulate_calls):
    import hdsim.safety

    monkeypatch.setattr(hdsim.safety, "SWEEP_CHUNK", 4)
    system = smib_system(OUT_OF_STEP)
    kwargs = dict(horizon=0.5, max_jumps=1000, dt=1e-2)
    runs = scalar_runs(system, smib_sampler(9)(), 11, **kwargs)
    unsafe = reaches(runs[k].final_state()) if k is not None else lambda x: False
    verdict = assert_same_verdict(smib_sampler(9), system, unsafe, samples=11, **kwargs)
    assert verdict.samples_checked == (11 if k is None else k + 1)
    assert len(simulate_calls) == (1 if verdict.unsafe else 0)


def alternating_modes(seed):
    def make_sampler():
        base = box_sampler([0.0, -1.0], [0.9, 1.0], seed=seed)
        count = iter(range(10**6))
        return lambda: ("up" if next(count) % 2 else "down", base())

    return make_sampler


def test_columns_that_change_mode_while_others_flow_in_the_target_mode():
    # up -> down crossings land on the grid while other columns flow in "down"
    automaton = two_mode_automaton()
    kwargs = dict(horizon=3.0, max_jumps=100, dt=1e-2)
    sampler = alternating_modes(10)()
    runs = [simulate(automaton, x, mode0=q, **kwargs)
            for q, x in (sampler() for _ in range(8))]
    assert sum(j.mode_before == "up" for r in runs for j in r.jumps) >= 8
    for k, run in enumerate(runs):
        verdict = assert_same_verdict(
            alternating_modes(10), automaton, reaches(run.final_state()),
            samples=8, **kwargs,
        )
        assert verdict.samples_checked == k + 1


def grid_timed_jump():
    # jumps once, at t = 0.5 exactly: a grid time at dt = 0.01
    return FlowJumpSystem(
        dim=2,
        flow_map=lambda x, t: np.array([np.ones_like(x[0]), np.zeros_like(x[1])]),
        jump_set=lambda x, t: t - 0.5 - 10.0 * x[1],
        jump_map=lambda x: np.array([x[0] + 1.0, 1.0]),
    )


@pytest.mark.parametrize("samples", [1, 3])
def test_every_column_jumps_onto_a_grid_time(samples):
    system = grid_timed_jump()
    kwargs = dict(horizon=1.0, max_jumps=10, dt=1e-2)

    def make_sampler():
        return box_sampler([0.0, 0.0], [0.1, 0.0], seed=13)

    runs = scalar_runs(system, make_sampler(), samples, **kwargs)
    assert all(r.jump_times == runs[0].jump_times for r in runs)
    assert abs(runs[0].jump_times[0] - 0.5) < 1e-9
    for level in (1.2, 1.55, 10.0):
        assert_same_verdict(
            make_sampler, system, lambda x: x[0] > level, samples=samples, **kwargs
        )
    for k, run in enumerate(runs):
        verdict = assert_same_verdict(
            make_sampler, system, reaches(run.final_state()), samples=samples, **kwargs
        )
        assert verdict.samples_checked == k + 1


@pytest.mark.parametrize("radius", [0.6, 1.0, 3.0, 6.0])
def test_an_unsafe_predicate_that_reduces_over_the_batch(radius):
    # the norm of a batch is one scalar: the sweep must ask state by state
    system = smib_system(OUT_OF_STEP)
    for unsafe in (lambda x: np.linalg.norm(x[:2]) > radius,
                   lambda x: np.linalg.norm(x[:2]) < radius,
                   lambda x: radius > 5.0):
        assert_same_verdict(smib_sampler(11), system, unsafe, **SMIB_RUN)


def test_the_last_live_column_finishes_on_its_own():
    # sample 1 is unsafe early, which leaves sample 0 as the one live column
    system = smib_system(OUT_OF_STEP)
    kwargs = dict(horizon=2.0, max_jumps=1000, dt=1e-2)
    runs = scalar_runs(system, smib_sampler(2)(), 2, **kwargs)
    end0, early1 = reaches(runs[0].final_state()), reaches(runs[1].samples[5].state)
    verdict = assert_same_verdict(
        smib_sampler(2), system, lambda x: end0(x) | early1(x), samples=2, **kwargs
    )
    assert verdict.samples_checked == 1


ORDER = "box bounds must have equal shape with hi >= lo"
FINITE = "box bounds and their width hi - lo must be finite"


@pytest.mark.parametrize(
    "lo, hi, message",
    [
        pytest.param([0.0, 0.0], [1.0], ORDER, id="shape"),
        pytest.param([0.0, 1.0], [1.0, 0.5], ORDER, id="order"),
        pytest.param([np.nan], [1.0], FINITE, id="nan-lo"),
        pytest.param([0.0], [np.nan], FINITE, id="nan-hi"),
        pytest.param([0.0], [np.inf], FINITE, id="inf-hi"),
        pytest.param([-np.inf], [np.inf], FINITE, id="inf-both"),
        pytest.param([0.0, -1e308], [1.0, 1e308], FINITE, id="inf-width"),
        pytest.param([10**400], [10**401], FINITE, id="huge-int"),
        pytest.param([0.0], ["1"], FINITE, id="text-hi"),  # numpy reads "1" as 1.0
        pytest.param([0.0], [1 + 2j], FINITE, id="complex-hi"),  # numpy drops 2j
    ],
)
def test_safety_input_checks(lo, hi, message):
    with pytest.raises(ArgumentError, match=message):
        box_sampler(lo, hi, seed=0)


def test_a_reset_to_a_non_finite_state_surfaces_for_the_lowest_sample():
    system = FlowJumpSystem(
        dim=1, flow_map=lambda x, t: np.ones_like(x),
        jump_set=lambda x, t: x[0] - 0.5, jump_map=lambda x: np.array([np.inf]),
    )
    run = dict(system=system, unsafe=lambda x: x[0] > 2.0, horizon=1.0, samples=3, dt=0.1)
    with pytest.raises(NumericalFailureError) as got:
        check_safety(init_sampler=listed([0.0], [0.2], [0.45])(), **run)
    with pytest.raises(NumericalFailureError) as want:
        oracle_check_safety(init_sampler=listed([0.0], [0.2], [0.45])(), **run)
    assert str(got.value) == str(want.value)
    assert "in mode 'flow' on edge 'jump'" in str(got.value)
    assert got.value.trajectory.times.tolist() == want.value.trajectory.times.tolist()


@pytest.mark.parametrize("level", [1.2, 2.0])
def test_a_switched_lift_sweeps_as_a_batch(level):
    # decays until the switch at 0.1, then grows: 1.2 is first passed after
    # the switch, by sample 9
    from hdsim import SwitchedSystem, lift_switched

    batches = {"decay": 0, "grow": 0}

    def counted(name, rate):
        def field(x, t):
            batches[name] += np.ndim(x) == 2
            return rate * x
        return field

    sw = SwitchedSystem(dim=1, fields=(counted("decay", -1.0), counted("grow", 3.0)),
                        mode_sequence=(1, 2), switch_times=(0.1,))
    lift = lift_switched(sw)

    def sampler():
        return box_sampler([0.9], [1.0], seed=5)

    run = dict(unsafe=lambda x: x[0] > level, horizon=0.2, samples=20, dt=1e-3,
               mode0=lift.modes[0])
    verdict = check_safety(lift, sampler(), **run)
    assert batches["decay"] > 0 and batches["grow"] > 0
    assert verdict.samples_checked == (10 if level < 2.0 else 20)
    assert_same_verdict(sampler, lift, **run)
