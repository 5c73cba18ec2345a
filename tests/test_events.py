"""Event localization on signed guard margins."""

import numpy as np
import pytest

from hdsim import ArgumentError, locate_event
from hdsim.power import PiecewiseLinearProfile


def test_linear_margin_crossing():
    t = locate_event(lambda t: t - 0.05, 0.04, 0.06)
    assert abs(t - 0.05) <= 1e-9
    # the regula-falsi polish lands on the root exactly for linear margins
    assert abs(t - 0.05) <= 1e-12


def test_ramp_profile_crossing_at_analytic_time():
    # 1.0 -> 0.5 over [0.04, 0.06]; V = 0.8 at t* = 0.048 exactly.
    ramp = PiecewiseLinearProfile(times=(0.04, 0.06), values=(1.0, 0.5))
    t = locate_event(lambda t: 0.8 - ramp(t), 0.04, 0.06)
    assert abs(t - 0.048) <= 1e-9


def test_no_sign_change_returns_none():
    assert locate_event(lambda t: t + 1.0 - 2.0, 0.0, 0.5) is None


def test_margin_already_triggered_returns_left_endpoint():
    assert locate_event(lambda t: 1.0, 0.0, 1.0) == 0.0


def test_degenerate_bracket_rejected():
    with pytest.raises(ArgumentError):
        locate_event(lambda t: t, 0.06, 0.04)
    with pytest.raises(ArgumentError):
        locate_event(lambda t: t, 0.05, 0.05)


def test_interpolant_threading():
    # state x(t) = t^2, guard margin x - 0.25 crosses at t = 0.5; the
    # caller composes guard and interpolant into one margin of time
    t = locate_event(lambda t: t * t - 0.25, 0.0, 1.0)
    assert abs(t - 0.5) <= 1e-9


def test_nonlinear_margin_tight_localization():
    t = locate_event(lambda t: np.sin(t) - 0.5, 0.0, 1.0)
    assert abs(t - np.arcsin(0.5)) <= 1e-9


def test_margin_is_evaluated_once_per_probe_time():
    times = []

    def margin(t):
        times.append(t)
        return np.sin(t) - 0.5

    t = locate_event(margin, 0.0, 1.0)
    assert abs(t - np.arcsin(0.5)) <= 1e-9
    assert len(times) == len(set(times))
