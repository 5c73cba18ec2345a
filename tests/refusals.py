"""The one table of argument refusals, and the test that runs it.

Each row calls one library entry point with valid arguments except one,
set to a value the entry point must refuse, and pins the message (a regex)
of the error it raises, an ``ArgumentError`` unless the row names another
type.  The rows are grouped by the test that runs them, and
``refusal_test(name)`` builds that test, so each test module keeps its
tests' names and case ids.  ``test_simulate.py`` checks that every rule of
``hdsim.systems.ARGUMENT_RULES`` has a row.
"""

import math
import re
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from hdsim import (
    AmbiguousTransitionError,
    ArgumentError,
    Edge,
    FlowJumpSystem,
    GaussianBelief,
    HybridAutomaton,
    NoiseModel,
    SwitchedSystem,
    box_sampler,
    check_safety,
    ekf_predict,
    ekf_update,
    propagate_belief_through_jump,
    run_ekf,
    simulate,
    smib_state,
)
from hdsim.config import ExperimentConfig
from hdsim.simulate import Stepper, next_event
from hdsim.systems import as_state


def _decay(x, t):
    return -x


def _always(x, t):
    return 1.0


def _no_draw():
    pytest.fail("a sample was drawn before the arguments were checked")


_SYSTEM = FlowJumpSystem(1, _decay)
_RUN = dict(system=_SYSTEM, x0=[1.0], horizon=1.0, max_jumps=5, dt=0.1)
_BELIEF = GaussianBelief([0.3, 0.4], np.eye(2))
_NOISE = NoiseModel(q=1e-4 * np.eye(2), r=[[1.0]], h=[[1.0, 0.0]])
_SCENARIO = ExperimentConfig().scenario()
_TWO_ENABLED = [Edge("a", "a", _always, np.copy, label=label) for label in ("one", "two")]
_TOO_LARGE = "got a number too large for a float$"


def _exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def _call(entry, **defaults):
    return lambda **values: entry(**{**defaults, **values})


ENTRY_POINTS = {
    "simulate": _call(simulate, **_RUN),
    "Stepper": _call(Stepper, **_RUN, mode0=None, t0=0.0, sink=lambda *sample: None),
    "next_event": _call(next_event, edges=(), flow=_decay, x=np.ones(1), t=0.0, t_next=0.1),
    "check_safety": _call(check_safety, system=_SYSTEM, init_sampler=_no_draw,
                          unsafe=lambda x: False, horizon=1.0, samples=3, dt=1e-2),
    "as_state": _call(as_state, values=[1.0, 2.0]),
    "FlowJumpSystem": _call(FlowJumpSystem, dim=1, flow_map=_decay),
    "HybridAutomaton": _call(HybridAutomaton, dim=1, modes=("a",), flows={"a": _decay}, edges=()),
    "SwitchedSystem": _call(SwitchedSystem, dim=1, fields=(_decay, _decay),
                            mode_sequence=(1, 2, 1), switch_times=(0.1, 0.2)),
    "GaussianBelief": _call(GaussianBelief, mean=[0.3, 0.4], covariance=np.eye(2)),
    "NoiseModel": _call(NoiseModel, q=1e-4 * np.eye(2), r=[[1.0]], h=[[1.0, 0.0]]),
    "ekf_predict": _call(ekf_predict, belief=_BELIEF, flow=_decay, dt=0.1, noise=_NOISE),
    "ekf_update": _call(ekf_update, belief=_BELIEF, z=[1.0], noise=_NOISE),
    "propagate_belief_through_jump": _call(propagate_belief_through_jump, belief=_BELIEF,
                                           reset=np.copy, xi=np.eye(2)),
    "run_ekf": _call(run_ekf, process=_decay, scenario=_SCENARIO),
    "InverterScenario": lambda **values: replace(_SCENARIO, **values),
    "box_sampler": _call(box_sampler, lo=[0.0], hi=[1.0], seed=1),
    "smib_state": _call(smib_state, delta=0.6, omega=0.0, line=1),
}


class Refusal(NamedTuple):
    id: str
    entry: str
    argument: str
    value: object
    message: str
    error: type = ArgumentError


REFUSALS = {  # test: its rows (id, entry point, argument, value, message[, error])
    "test_simulate_input_checks": (
        ("two-guards-enabled", "next_event", "edges", _TWO_ENABLED,
         "^guards simultaneously enabled at t=0.0: one, two$", AmbiguousTransitionError),
        ("horizon", "simulate", "horizon", 0.0, r"^horizon must be positive and finite, got 0\.0$"),
        ("dt", "simulate", "dt", -0.1, r"^dt must be positive and finite, got -0\.1$"),
        ("max-jumps", "simulate", "max_jumps", -1, "^max_jumps must be non-negative, got -1$"),
        ("x0", "simulate", "system", FlowJumpSystem(1, _decay, flow_set=lambda x, t: False),
         "^x0 lies outside both the flow set and the jump set$"),
        # a run window that is not finite: refused, neither run without end
        # nor escaping as a bare ValueError from the grid arithmetic
        ("horizon-nan", "Stepper", "horizon", math.nan,
         "^horizon must be positive and finite, got nan$"),
        ("horizon-inf", "Stepper", "horizon", math.inf,
         "^horizon must be positive and finite, got inf$"),
        ("dt-nan", "simulate", "dt", math.nan, "^dt must be positive and finite, got nan$"),
        ("t0-nan", "simulate", "t0", math.nan, "^t0 must be finite, got nan$"),
        ("t0-inf", "simulate", "t0", math.inf, "^t0 must be finite, got inf$"),
        ("t0-negative", "simulate", "t0", -1.0, r"^t0 must be non-negative, got -1\.0$"),
        # no real number: refused by name, not a bare TypeError of a comparison
        ("t0-text", "simulate", "t0", "0", "^t0 must be a real number, got '0'$"),
        ("horizon-text", "simulate", "horizon", "1", "^horizon must be a real number, got '1'$"),
        ("dt-none", "simulate", "dt", None, "^dt must be a real number, got None$"),
        ("max-jumps-text", "simulate", "max_jumps", "5",
         "^max_jumps must be a real number, got '5'$"),
        ("horizon-bool", "simulate", "horizon", True, "^horizon must be a real number, got True$"),
        ("dt-bool", "simulate", "dt", True, "^dt must be a real number, got True$"),
        ("max-jumps-bool", "simulate", "max_jumps", True,
         "^max_jumps must be a real number, got True$"),
        # an int too large for a float: refused by name, not a bare
        # OverflowError of the grid arithmetic
        ("t0-huge-int", "simulate", "t0", 10**400, "^t0 must be finite, " + _TOO_LARGE),
        ("horizon-huge-int", "simulate", "horizon", 10**400,
         "^horizon must be positive and finite, " + _TOO_LARGE),
        ("dt-huge-int", "simulate", "dt", -10**400,
         "^dt must be positive and finite, " + _TOO_LARGE),
        ("x0-text", "simulate", "x0", "ab", "^x0 entries must be finite reals, got 'ab'$"),
        ("max-jumps-nan", "simulate", "max_jumps", math.nan,
         "^max_jumps must be non-negative, got nan$"),
        ("scenario-horizon-nan", "InverterScenario", "horizon", math.nan,
         r"^InverterScenario\.horizon must be positive and finite, got nan$"),
        ("scenario-horizon-inf", "InverterScenario", "horizon", math.inf,
         r"^InverterScenario\.horizon must be positive and finite, got inf$"),
        ("scenario-horizon-text", "InverterScenario", "horizon", "0.2",
         r"^InverterScenario\.horizon must be a real number, got '0\.2'$"),
        ("scenario-dt-bool", "InverterScenario", "dt", True,
         r"^InverterScenario\.dt must be a real number, got True$"),
        ("samples-fraction", "check_safety", "samples", 2.5,
         r"^samples must be an integer >= 1, got 2\.5$"),
        ("samples-nan", "check_safety", "samples", math.nan,
         "^samples must be an integer >= 1, got nan$"),
    ),
    "test_systems_input_checks": (
        ("ndim", "as_state", "values", np.zeros((2, 2)),
         r"^state must be a 1-D vector, got shape \(2, 2\)$"),
        ("dim", "as_state", "dim", 3, "^state has dimension 2, expected 3$"),
        ("flow-jump-dim", "FlowJumpSystem", "dim", 0,
         r"^FlowJumpSystem\.dim must be an integer >= 1, got 0$"),
        ("automaton-dim", "HybridAutomaton", "dim", 0,
         r"^HybridAutomaton\.dim must be an integer >= 1, got 0$"),
        ("flow-jump-bool", "FlowJumpSystem", "dim", True,
         r"^FlowJumpSystem\.dim must be an integer >= 1, got True$"),
        ("flow-jump-float", "FlowJumpSystem", "dim", 1.0,
         r"^FlowJumpSystem\.dim must be an integer >= 1, got 1\.0$"),
        ("automaton-float", "HybridAutomaton", "dim", 2.5,
         r"^HybridAutomaton\.dim must be an integer >= 1, got 2\.5$"),
        ("no-modes", "HybridAutomaton", "modes", (), "^automaton needs at least one mode$"),
        ("no-flow", "HybridAutomaton", "flows", {}, "^mode 'a' has no flow$"),
        ("edge-mode", "HybridAutomaton", "edges", (Edge("a", "b", _always, np.copy),),
         "^edge 'a->b' references unknown modes$"),
        ("repeated-mode", "HybridAutomaton", "modes", ("a", "a"), "^mode 'a' is listed twice$"),
        # a misspelled key would leave its mode without that flow or invariant
        ("flows-key", "HybridAutomaton", "flows", {"a": _decay, "b": _decay},
         r"^HybridAutomaton\.flows key 'b' names no mode$"),
        ("invariants-key", "HybridAutomaton", "invariants", {"b": _always},
         r"^HybridAutomaton\.invariants key 'b' names no mode$"),
        ("huge-int-x0", "simulate", "x0", [10**400], "^x0 entries must be finite reals"),
        # text is no number, though numpy reads '1' as 1.0
        ("text-entries", "as_state", "values", ["1", "2.5"],
         r"^state entries must be finite reals, got \['1', '2\.5'\]$"),
        ("bytes-entries", "as_state", "values", [b"1", b"2"],
         r"^state entries must be finite reals, got \[b'1', b'2'\]$"),
        # numpy reads a bytearray, or a memoryview of bytes, as its byte codes
        ("bytearray", "as_state", "values", bytearray(b"12"),
         r"^state entries must be finite reals, got bytearray\(b'12'\)$"),
        ("memoryview-bytes", "as_state", "values", memoryview(b"12"),
         "^state entries must be finite reals, got <memory at "),
        ("memoryview-bytearray", "as_state", "values", memoryview(bytearray(b"12")),
         "^state entries must be finite reals, got <memory at "),
        ("box-bytearray", "box_sampler", "lo", bytearray(b"\0"),
         "^box bounds and their width hi - lo must be finite$"),
        ("text-x0", "simulate", "x0", ["1"], r"^x0 entries must be finite reals, got \['1'\]$"),
        ("complex-entries", "as_state", "values", [1j, 0.0], r"^state entries .*, got \[1j, 0\.0\]$"),
        ("complex-array", "as_state", "values", np.array([1j, 0.0]),  # numpy drops 1j
         "^state entries must be finite reals"),
    ),
    "test_estimation_input_checks": (
        ("mean", "GaussianBelief", "mean", np.zeros((2, 2)), "^mean must be a vector$"),
        ("shape", "GaussianBelief", "covariance", np.eye(3),
         r"^covariance must be \(2, 2\), got \(3, 3\)$"),
        ("finite", "GaussianBelief", "mean", [np.nan, 0.0], "^belief entries must be finite$"),
        ("q", "NoiseModel", "q", np.ones((2, 3)), "^Q must be square$"),
        ("r", "NoiseModel", "r", np.ones((1, 2)), "^R must be square$"),
        ("h-nan", "NoiseModel", "h", [[np.nan, 0.0]], "^H entries must be finite$"),
        ("h-inf", "NoiseModel", "h", [[np.inf, 0.0]], "^H entries must be finite$"),
        ("predict-dt", "ekf_predict", "dt", 0.0, r"^dt must be positive and finite, got 0\.0$"),
        ("predict-dt-nan", "ekf_predict", "dt", math.nan,
         "^dt must be positive and finite, got nan$"),
        ("predict-dt-inf", "ekf_predict", "dt", math.inf,
         "^dt must be positive and finite, got inf$"),
        ("predict-dt-text", "ekf_predict", "dt", "0.1", r"^dt must be a real number, got '0\.1'$"),
        ("predict-dt-bool", "ekf_predict", "dt", True, "^dt must be a real number, got True$"),
        ("predict-dt-huge-int", "ekf_predict", "dt", 10**400,
         "^dt must be positive and finite, " + _TOO_LARGE),
        ("predict-t0-none", "ekf_predict", "t0", None, "^t0 must be a real number, got None$"),
        ("predict-t0-nan", "ekf_predict", "t0", math.nan, "^t0 must be finite, got nan$"),
        ("predict-t0-inf", "ekf_predict", "t0", math.inf, "^t0 must be finite, got inf$"),
        ("predict-t0-negative", "ekf_predict", "t0", -1.0, r"^t0 must be non-negative, got -1\.0$"),
        ("predict-t0-huge-int", "ekf_predict", "t0", 10**400, "^t0 must be finite, " + _TOO_LARGE),
        ("predict-q-scale-negative", "ekf_predict", "q_scale", -5,
         "^q_scale must be non-negative and finite, got -5$"),
        ("predict-q-scale-nan", "ekf_predict", "q_scale", math.nan,
         "^q_scale must be non-negative and finite, got nan$"),
        ("predict-q-scale-huge-int", "ekf_predict", "q_scale", 10**400,
         "^q_scale must be non-negative and finite, " + _TOO_LARGE),
        ("predict-q-scale-text", "ekf_predict", "q_scale", "1",
         "^q_scale must be a real number, got '1'$"),
        ("update-z", "ekf_update", "z", [1.0, 2.0], "^measurement must have length 1$"),
        ("reset-dim", "propagate_belief_through_jump", "reset", lambda x: x[:1],
         "^reset changed the state dimension$"),
        ("measurement-row", "run_ekf", "measurements", np.zeros((_SCENARIO.n_steps + 1, 3)),
         "^measurement rows have length 3, expected 4$"),
    ),
    # refused before the first draw, not by a bare error of the grid
    # arithmetic or after the chunk is drawn
    "test_a_run_argument_that_is_no_number_is_refused_before_any_draw": (
        ("horizon-text", "check_safety", "horizon", "1",
         "^horizon must be a real number, got '1'$"),
        ("dt-none", "check_safety", "dt", None, "^dt must be a real number, got None$"),
        ("max-jumps-text", "check_safety", "max_jumps", "5",
         "^max_jumps must be a real number, got '5'$"),
        ("dt-zero", "check_safety", "dt", 0.0, r"^dt must be positive and finite, got 0\.0$"),
        ("dt-nan", "check_safety", "dt", math.nan, "^dt must be positive and finite, got nan$"),
        ("horizon-negative", "check_safety", "horizon", -1.0,
         r"^horizon must be positive and finite, got -1\.0$"),
        ("max-jumps-negative", "check_safety", "max_jumps", -1,
         "^max_jumps must be non-negative, got -1$"),
        ("horizon-bool", "check_safety", "horizon", True,
         "^horizon must be a real number, got True$"),
        ("dt-bool", "check_safety", "dt", True, "^dt must be a real number, got True$"),
        ("max-jumps-bool", "check_safety", "max_jumps", True,
         "^max_jumps must be a real number, got True$"),
        ("horizon-huge-int", "check_safety", "horizon", 10**400,
         "^horizon must be positive and finite, " + _TOO_LARGE),
        ("dt-huge-int", "check_safety", "dt", 10**400,
         "^dt must be positive and finite, " + _TOO_LARGE),
    ),
    "test_sampler_refuses_a_seed_that_is_not_a_non_negative_integer": tuple(
        (repr(seed), "box_sampler", "seed", seed,
         _exactly(f"seed must be a non-negative integer, got {seed!r}"))
        for seed in (-1, 1.0, 2.5, True, False, None, "3", np.float64(3.0))
    ),
    "test_scenario_refuses_a_seed_that_is_not_a_non_negative_integer": tuple(
        (name, "InverterScenario", "seed", seed,
         _exactly(f"InverterScenario.seed must be a non-negative integer, got {seed!r}"))
        for name, seed in (("negative", -1), ("float", 1.5), ("text", "3"), ("bool", True),
                           ("numpy-bool", np.True_))
    ),
    "test_scenario_refuses_an_initial_state_that_is_not_four_finite_reals": (
        ("nan", "InverterScenario", "x0", [np.nan, 0.0, 1.0, 0.0],
         r"^InverterScenario\.x0 entries must be finite$"),
        ("inf", "InverterScenario", "x0", [0.0, 0.0, 1.0, np.inf],
         r"^InverterScenario\.x0 entries must be finite$"),
        ("text", "InverterScenario", "x0", "abcd",
         r"^InverterScenario\.x0 entries must be finite reals, got 'abcd'$"),
        ("short", "InverterScenario", "x0", [0.0, 1.0, 0.0],
         r"^InverterScenario\.x0 has dimension 3, expected 4$"),
        ("text-entries", "InverterScenario", "x0", ("0", 0.0, 1.0, 0.0),
         r"^InverterScenario\.x0 entries must be finite reals, got \('0', 0\.0, 1\.0, 0\.0\)$"),
    ),
    "test_smib_state_refuses_what_it_cannot_pack": (
        ("line-3", "smib_state", "line", 3, "^line must be 1 or 2, got 3$"),
        ("line-bool", "smib_state", "line", True, "^line must be 1 or 2, got True$"),
        ("line-float", "smib_state", "line", 1.0, r"^line must be 1 or 2, got 1\.0$"),
        ("omega-text", "smib_state", "omega", "x",
         r"^smib_state entries must be finite reals, got \(0\.6, 'x', 1\)$"),
        ("delta-nan", "smib_state", "delta", math.nan, "^smib_state entries must be finite$"),
    ),
    "test_a_switched_system_refuses_a_bad_dimension_index_or_instant": (
        ("dim-0", "SwitchedSystem", "dim", 0,
         r"^SwitchedSystem\.dim must be an integer >= 1, got 0$"),
        ("dim-float", "SwitchedSystem", "dim", 2.5,
         r"^SwitchedSystem\.dim must be an integer >= 1, got 2\.5$"),
        ("dim-bool", "SwitchedSystem", "dim", True,
         r"^SwitchedSystem\.dim must be an integer >= 1, got True$"),
        ("mode-float", "SwitchedSystem", "mode_sequence", (1.5, 2, 1),
         r"^SwitchedSystem\.mode_sequence entries must be integers, got 1\.5$"),
        ("mode-bool", "SwitchedSystem", "mode_sequence", (True, 2, 1),
         r"^SwitchedSystem\.mode_sequence entries must be integers, got True$"),
        ("equal-instants", "SwitchedSystem", "switch_times", (0.2, 0.2),
         "^switch instants must be strictly increasing$"),
        ("decreasing-instants", "SwitchedSystem", "switch_times", (0.2, 0.1),
         "^switch instants must be strictly increasing$"),
    ),
}


def refusal_test(name: str):
    """The test ``name``: each of its rows, by its id, refused as the row says."""
    rows = [Refusal(*row) for row in REFUSALS[name]]

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(row):
        with pytest.raises(row.error, match=row.message):
            ENTRY_POINTS[row.entry](**{row.argument: row.value})

    test.__name__ = name
    return test
