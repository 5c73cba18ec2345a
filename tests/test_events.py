"""Event localization on signed guard margins."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdsim import ArgumentError, locate_event
from hdsim.config import parse_config_text
from hdsim.events import LOCATE_TOL, _POLISH_ITERS
from hdsim.power import PiecewiseLinearProfile
from hdsim.simulate import simulate
from oracles import bisection_locate_event
from test_config_cli import INVERTER_REF, SMIB_TRIPS


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


def _recorded(margin):
    """``margin`` and the list of the times it is probed at, in order."""
    probes = []

    def recorded(t):
        probes.append(t)
        return margin(t)

    return recorded, probes


def _increasing_margin(family, k, r):
    """A margin of ``family`` that is non-decreasing in t, zero at ``r``."""
    if family == "sine":  # k * (t - r) stays within (-pi/2, pi/2)
        return lambda t: math.sin(k * (t - r))
    if family == "cubic":
        return lambda t: (t - r) ** 3 + k * (t - r)
    if family == "exponential":
        return lambda t: math.expm1(k * (t - r))
    if family == "tanh":
        return lambda t: math.tanh(k * (t - r))
    # kinked piecewise-linear: slope 1 up to r + k, slope 1e4 after it
    def kinked(s):
        return s if s <= 0.0 else 1e4 * s

    return lambda t: kinked(t - r - k) - kinked(-k)


@st.composite
def _brackets_and_margins(draw):
    t_lo = draw(st.floats(0.0, 10.0))
    width = 10.0 ** draw(st.floats(-9.5, -1.0))
    t_hi = t_lo + width
    r = t_lo + width * draw(st.floats(0.0, 1.0))
    family = draw(st.sampled_from(["sine", "cubic", "exponential", "tanh", "kinked"]))
    if family == "sine":
        k = draw(st.floats(0.01, 1.5)) / width
    elif family == "cubic":
        k = draw(st.sampled_from([0.0, 1e-6, 1e-3, 1.0]))
    elif family == "exponential":
        k = draw(st.floats(1.0, 30.0)) / width
    elif family == "tanh":
        k = 10.0 ** draw(st.floats(2.0, 9.0))
    else:
        k = width * draw(st.floats(-1.0, 1.0))
    return t_lo, t_hi, _increasing_margin(family, k, r)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_brackets_and_margins())
def test_localization_contract_on_increasing_margins(case):
    t_lo, t_hi, margin = case
    recorded, probes = _recorded(margin)
    t = locate_event(recorded, t_lo, t_hi)
    assert len(probes) == len(set(probes))
    if t is None:
        assert margin(t_hi) < 0.0
        return
    assert t_lo <= t <= t_hi
    assert margin(t) >= 0.0
    if t > t_lo:
        assert margin(max(t_lo, t - LOCATE_TOL)) < 0.0
    # at most three probes per halving of the bracket, besides the two
    # ends and the polish
    halvings = max(0, math.ceil(math.log2((t_hi - t_lo) / LOCATE_TOL)))
    assert len(probes) <= 2 + 3 * halvings + _POLISH_ITERS


@pytest.mark.parametrize(
    "t_lo, t_hi, root",
    [
        (0.04, 0.06, 0.06),
        (0.053, 0.054, 0.054),
        (0.127, 0.128, 0.128),
        (0.04, 0.06, 0.04 + 5e-14),
        (0.04, 0.06, 0.06 - 5e-14),
        (0.04, 0.06, 0.05),
        (4.38, 4.39, 4.3849),
        # far from 0, lo + LOCATE_TOL/2 rounds to lo and hi - LOCATE_TOL/2 to
        # hi, so the search ends on the probe leaving the open bracket
        (1e7, 1e7 + 1e-5, 1e7 + 3e-6),
        (1e8, 1e8 + 1e-5, 1e8 + 3e-6),
        (1e9, 1e9 + 1e-5, 1e9 + 3e-6),
    ],
)
@pytest.mark.parametrize("slope", [1.0, 0.37, 250.0])
def test_linear_margin_gives_the_exact_float_root(t_lo, t_hi, root, slope):
    # slope * (t - root) changes sign exactly at the float root
    recorded, probes = _recorded(lambda t: slope * (t - root))
    assert locate_event(recorded, t_lo, t_hi) == root
    if root == t_hi:
        # the secant lands on t_hi; one nudged probe closes the bracket
        assert len(probes) <= 3


def test_convex_margin_needs_few_probes():
    # a secant kept on one side stalls on a convex margin; the Illinois
    # step pulls it across in 9 probes, where bisection takes 30
    recorded, probes = _recorded(lambda t: (t + 0.01) ** 2 - 0.0171 ** 2)
    assert abs(locate_event(recorded, 0.0, 0.01) - 0.0071) <= 1e-12
    assert len(probes) <= 10


def _localizations(config_text, localizer, monkeypatch):
    """Simulate ``config_text`` with ``localizer`` in place of ``locate_event``;
    returns the trajectory, the crossings found and the margin probes made."""
    simulate_module = sys.modules["hdsim.simulate"]
    counts = {"found": 0, "probes": 0}

    def counted(margin, t_lo, t_hi):
        recorded, probes = _recorded(margin)
        t_star = localizer(recorded, t_lo, t_hi)
        counts["found"] += t_star is not None
        counts["probes"] += len(probes)
        return t_star

    config = parse_config_text(config_text)
    model = config.system()
    with monkeypatch.context() as patched:
        patched.setattr(simulate_module, "locate_event", counted)
        traj = simulate(
            model.system, model.x0, float(config["horizon"]),
            int(config["max_jumps"]), float(config["dt"]), mode0=model.mode0,
        )
    return traj, counts["found"], counts["probes"]


def test_smib_trips_match_the_bisection_localizer(monkeypatch):
    shipped, _, _ = _localizations(SMIB_TRIPS, locate_event, monkeypatch)
    oracle, _, _ = _localizations(SMIB_TRIPS, bisection_locate_event, monkeypatch)
    assert len(shipped.jumps) == len(oracle.jumps) == 9
    assert [j.edge for j in shipped.jumps] == [j.edge for j in oracle.jumps]
    for a, b in zip(shipped.jump_times, oracle.jump_times):
        assert abs(a - b) <= LOCATE_TOL


@pytest.mark.parametrize(
    "config_text, crossings, max_mean_probes",
    # bisection from a 1e-2 s step takes 27 probes per SMIB crossing, and
    # 19 per switch from the 1e-3 s inverter step
    [(SMIB_TRIPS, 9, 12), (INVERTER_REF, 2, 4)],
    ids=["smib-trips", "inverter-reference"],
)
def test_mean_margin_probes_per_crossing(monkeypatch, config_text, crossings, max_mean_probes):
    _, found, probes = _localizations(config_text, locate_event, monkeypatch)
    assert found == crossings
    assert probes <= max_mean_probes * found
