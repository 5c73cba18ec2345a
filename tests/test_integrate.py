"""Fixed-step RK4 checks, run through the ``integrate_flow`` test oracle."""

import math

import numpy as np
import pytest

from hdsim import ArgumentError, NumericalFailureError

from oracles import integrate_flow


def test_constant_field_stays_put():
    samples = integrate_flow(lambda x, t: np.zeros(1), np.array([1.0]), 0.0, 0.1, 1e-3)
    assert all(x[0] == 1.0 for _, x in samples)
    assert samples[0][0] == 0.0
    assert samples[-1][0] == 0.1


def test_exponential_decay_matches_closed_form():
    samples = integrate_flow(lambda x, t: -x, np.array([1.0]), 0.0, 0.2, 1e-4)
    t_end, x_end = samples[-1]
    assert t_end == 0.2
    assert abs(x_end[0] - math.exp(-0.2)) < 1e-10


def test_final_partial_step_lands_exactly_on_t1():
    samples = integrate_flow(lambda x, t: -x, np.array([1.0]), 0.0, 0.25, 1e-1)
    times = [t for t, _ in samples]
    assert times == [0.0, 0.1, 0.2, 0.25]
    assert abs(samples[-1][1][0] - math.exp(-0.25)) < 1e-6


def test_fourth_order_convergence():
    # Halving dt must shrink the endpoint error by roughly 2^4.
    def endpoint_error(dt):
        samples = integrate_flow(lambda x, t: -x, np.array([1.0]), 0.0, 1.0, dt)
        return abs(samples[-1][1][0] - math.exp(-1.0))

    factor = endpoint_error(0.01) / endpoint_error(0.005)
    assert 12.0 <= factor <= 20.0


def test_time_varying_field():
    # dx/dt = t has the closed form x = t^2 / 2.
    samples = integrate_flow(
        lambda x, t: np.array([t]), np.array([0.0]), 0.0, 1.0, 1e-3
    )
    assert abs(samples[-1][1][0] - 0.5) < 1e-12


def test_bad_interval_rejected():
    with pytest.raises(ArgumentError):
        integrate_flow(lambda x, t: -x, np.array([1.0]), 0.2, 0.1, 1e-3)
    with pytest.raises(ArgumentError):
        integrate_flow(lambda x, t: -x, np.array([1.0]), 0.0, 0.1, -1e-3)


def test_nonfinite_state_names_offending_time():
    def exploding(x, t):
        with np.errstate(over="ignore"):
            return x * x * 1e6

    with pytest.raises(NumericalFailureError) as err:
        integrate_flow(exploding, np.array([10.0]), 0.0, 1.0, 1e-2)
    assert err.value.time is not None


def test_nonfinite_initial_derivative_rejected():
    with pytest.raises(NumericalFailureError):
        integrate_flow(
            lambda x, t: np.array([float("nan")]), np.array([1.0]), 0.0, 0.1, 1e-2
        )
