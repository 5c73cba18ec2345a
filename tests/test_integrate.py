"""Fixed-step RK4 checks, run through the ``integrate_flow`` and
``python_float_rk4_step`` test oracles."""

import math

import numpy as np
import pytest

from hdsim import ArgumentError, NumericalFailureError, rk4_step

from oracles import integrate_flow, python_float_rk4_step


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


def cubic(x, t):
    # keeps a float32 state's dtype: numpy casts the Python floats to it
    x = np.asarray(x)
    return 0.3 - x * x * x + t * x


RK4_CASES = {
    "float64-state": (cubic, np.array([0.4, -1.3, 2.0, 1e-3])),
    "float64-batch": (cubic, np.random.default_rng(3).uniform(-2.0, 2.0, (4, 9))),
    "float32-state-and-field": (cubic, np.array([0.4, -1.3, 2.0, 1e-3], np.float32)),
    "integer-state": (cubic, np.array([1, -2, 0, 3])),
    "integer-state-and-field": (lambda x, t: -x, np.array([1, -2, 0, 3])),
    "list-state": (cubic, [0.4, -1.3, 2, 0]),
    "float32-field": (lambda x, t: cubic(x, t).astype(np.float32),
                      np.array([0.4, -1.3, 2.0, 1e-3])),
}


@pytest.mark.parametrize("case", sorted(RK4_CASES))
def test_rk4_step_keeps_the_python_float_formula_bits_and_dtype(case):
    field, x = RK4_CASES[case]
    rng = np.random.default_rng(17)
    for t, h in zip(rng.uniform(0.0, 1.0, 20), 10.0 ** rng.uniform(-7.0, -0.5, 20)):
        t, h = float(t), float(h)
        want = python_float_rk4_step(field, x, t, h)
        for k1 in (None, field(x, t)):
            got = rk4_step(field, x, t, h, k1)
            assert type(got) is type(want) and got.dtype == want.dtype
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
