"""Where a hybrid run failed: every entry point names the time, the mode
and, for a jump, the edge of a failed step, jump or filter update, once
and in one format."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from hdsim import (
    ArgumentError,
    Edge,
    HybridAutomaton,
    NumericalFailureError,
    check_safety,
    run_ekf,
    simulate,
)
from hdsim.estimation import NoiseModel

JUMP_AT = 0.45  # every edge fires on the time guard t = 0.45
DT = 0.1


def decay(x, t):
    return -x


def nan_after_025(x, t):
    """Decays, until it turns NaN after t = 0.25 for a positive state."""
    return np.where((x > 0.0) & (t > 0.25), np.nan, -x)


def reset_to_inf(x):
    return np.where(x > 0.0, np.inf, x)


def reset_to_two_entries(x):
    return np.concatenate([x, x]) if (np.asarray(x) > 0.0).all() else x


def reset_that_raises(x):
    if (np.asarray(x) > 0.0).all():
        raise ArgumentError("reset refused")
    return x


def automaton(flow=decay, reset=lambda x: x, target="b"):
    """Mode ``a`` flows by ``flow`` and jumps along ``a->target`` at t = 0.45.

    The failures are all reserved for a positive state, so the sweep's
    sample 0 (x0 = -1) runs through, and sample 1 is the lowest that fails.
    """
    edge = Edge("a", target, guard=lambda x, t: t - JUMP_AT, reset=reset)
    return HybridAutomaton(dim=1, modes=("a", "b"), flows={"a": flow, "b": decay},
                           edges=(edge,))


def scenario(r=1e-2):
    """The scenario fields run_ekf reads: ten steps of 0.1 s from x0 = 1 in
    mode ``a``.  A negative ``r`` is an R that is no covariance: the gain at
    t = 0 is then 2 and the updated P turns negative."""
    q, h = np.array([[1e-6]]), np.array([[1.0]])
    if r < 0:
        noise = SimpleNamespace(q=q, r=np.array([[r]]), h=h, measurement_dim=1)
    else:
        noise = NoiseModel(q=q, r=[[r]], h=h)
    return SimpleNamespace(n_steps=10, dt=DT, x0=np.array([1.0]), initial_mode="a",
                           noise=noise)


def run_simulate(system, sc):
    simulate(system, sc.x0, 1.0, 5, DT, mode0="a")


def run_check_safety(system, sc):
    samples = iter([np.array([-1.0]), np.array([1.0]), np.array([2.0])])
    check_safety(system, samples.__next__, lambda x: x[0] > 10.0, 1.0, 3, DT,
                 max_jumps=5, mode0="a")


def run_hybrid_ekf(system, sc):
    run_ekf(system, sc, np.ones(sc.n_steps + 1))


def run_continuous_ekf(system, sc):
    run_ekf(system.flows["a"], sc, np.ones(sc.n_steps + 1))


ENTRIES = {
    "simulate": run_simulate,
    "check_safety": run_check_safety,
    "run_ekf-hybrid": run_hybrid_ekf,
    "run_ekf-continuous": run_continuous_ekf,
}
ON_EDGE = " on edge 'a->b'"

# entry, model changes, r, error type, failure time, whether the error's own
# text names the time, mode, edge
CASES = [
    pytest.param(entry, dict(flow=nan_after_025), 1e-2, NumericalFailureError, 0.3,
                 True, mode, "", id=f"{name}-{entry}")
    for name, entry, mode in [
        ("flow-nan", "simulate", "a"),
        ("flow-nan", "check_safety", "a"),
        ("diverged-prediction", "run_ekf-hybrid", "a"),
        ("diverged-prediction", "run_ekf-continuous", "blended"),
    ]
] + [
    pytest.param(entry, dict(reset=reset), 1e-2, error, JUMP_AT, False, "a", ON_EDGE,
                 id=f"{name}-{entry}")
    for name, reset, error in [
        ("reset-inf", reset_to_inf, NumericalFailureError),
        ("reset-wrong-dimension", reset_to_two_entries, ArgumentError),
        ("failed-jump", reset_that_raises, ArgumentError),
    ]
    for entry in ("simulate", "check_safety", "run_ekf-hybrid")
] + [
    pytest.param(entry, {}, -5e-4, NumericalFailureError, 0.0, False, mode, "",
                 id=f"non-psd-update-{entry}")
    for entry, mode in [("run_ekf-hybrid", "a"), ("run_ekf-continuous", "blended")]
] + [
    pytest.param("run_ekf-hybrid", dict(target="a"), 1e-2, NumericalFailureError,
                 JUMP_AT, False, "a", " on edge 'a->a'",
                 id="jump-budget-run_ekf-hybrid"),
]


@pytest.mark.parametrize("entry, model, r, error, time, timed, mode, edge", CASES)
def test_a_failure_names_its_time_mode_and_edge_once(
    entry, model, r, error, time, timed, mode, edge
):
    with pytest.raises(error) as err:
        ENTRIES[entry](automaton(**model), scenario(r))
    assert type(err.value) is error
    message = str(err.value)
    assert message.count(" in mode ") == 1
    suffix = f" in mode {mode!r}{edge}"
    assert message.endswith(suffix), message
    head = message[: -len(suffix)]
    if timed:  # the error's own text names its time
        t = float(re.search(r"t=(\S+)", head).group(1))
    else:
        _, at, t_text = head.rpartition(" at t=")
        assert at, message
        t = float(t_text)
    assert abs(t - time) <= 1e-9
    if error is NumericalFailureError:
        assert err.value.time == t
        if entry in ("simulate", "check_safety"):
            assert err.value.trajectory.states[0].tolist() == [1.0]  # sample 1

