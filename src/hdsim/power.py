"""Concrete hybrid power-system models.

* a single-machine-infinite-bus generator feeding a load over two
  identical transmission lines, with protection-driven line switching;
* a grid-connected inverter that switches between grid-following (GFL)
  and grid-forming (GFM) operation on grid-voltage thresholds with a
  hysteresis band, plus its sigmoid-blended continuous counterpart.

All electrical quantities are per-unit.  The inverter state vector is
``[i_d, i_q, v_d, v_q]`` in the synchronous dq frame.

The four-state embedding: the GFL current equations and GFM voltage
equations are exact dynamic laws; the remaining channels (GFL voltages
are pinned to the grid, GFM currents obey algebraic droop laws) are
realized as fast first-order tracking with time constants ``tau_v`` /
``tau_i`` so one uniform ODE state vector serves both modes and the EKF.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from typing import Callable, Tuple

import numpy as np

from ._pcg64 import PCG64, checked_seed
from .errors import ArgumentError, ConfigError
from .estimation import NoiseModel
from .simulate import simulate
from .systems import (
    HORIZON_REACHED, Edge, FlowJumpSystem, HybridAutomaton, HybridTrajectory,
    as_state, require_finite,
)

GFL = "GFL"
GFM = "GFM"

DEFAULT_MAX_JUMPS = 50
"""Jump budget of the ground-truth simulation."""


# ---------------------------------------------------------------------------
# Exogenous grid-voltage profiles


@dataclass(frozen=True)
class PiecewiseLinearProfile:
    """Piecewise-linear scalar signal defined by (time, value) breakpoints."""

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        require_finite(self, ("times", "values"), sequence=True)
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ArgumentError("profile needs matching times/values, >= 2 points")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ArgumentError("profile times must be strictly increasing")

    def __call__(self, t: float) -> float:
        # np.interp's formula for one point, without its array set-up.
        xs, ys = self.times, self.values
        j = bisect.bisect_right(xs, t) - 1
        if j < 0:
            return float(ys[0])
        if j == len(xs) - 1 or xs[j] == t:
            return float(ys[j])
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        return float(slope * (t - xs[j]) + ys[j])

    def crossing_times(self, level: float) -> Tuple[float, ...]:
        """Analytic crossing times of ``level``, in order, each instant once
        (a breakpoint on the level too); a plateau on it gives both ends."""
        out = []
        for (t0, v0), (t1, v1) in zip(
            zip(self.times, self.values), zip(self.times[1:], self.values[1:])
        ):
            if v0 == v1:
                continue
            s = (level - v0) / (v1 - v0)
            if 0.0 <= s <= 1.0:
                t = t1 if s == 1.0 else t0 + s * (t1 - t0)
                if not out or out[-1] != t:
                    out.append(t)
        return tuple(out)


# ---------------------------------------------------------------------------
# Grid-connected inverter


@dataclass(frozen=True)
class InverterParams:
    """Per-unit inverter filter and mode-switching parameters."""

    l_pu: float = 0.0189
    r_pu: float = 1.89
    omega: float = 1.0
    v_ref: float = 1.0
    i_lim: float = 1.2
    v_low: float = 0.8
    v_high: float = 0.9
    sigmoid_gain: float = 50.0
    sigmoid_mid: float = 0.85
    tau_v: float = 1e-3
    tau_i: float = 1e-3

    def __post_init__(self):
        require_finite(self, [f.name for f in fields(self)])
        if not (self.l_pu > 0.0 and self.r_pu > 0.0):
            raise ArgumentError("l_pu and r_pu must be positive")
        if not self.v_low < self.v_high:
            raise ArgumentError("hysteresis requires v_low < v_high")
        if not (self.tau_v > 0.0 and self.tau_i > 0.0):
            raise ArgumentError("tracking time constants must be positive")
        if not self.i_lim > 0.0:
            raise ArgumentError("current limit must be positive")


def gfl_flow(x, v_grid: float, p: InverterParams) -> np.ndarray:
    """Grid-following dynamics: current control with grid-pinned voltages.

    The d/q current equations are the RL filter laws; the voltage states
    track the measured grid voltage (d-axis) and zero (q-axis) with time
    constant ``tau_v``.  ``x`` is a state or a batch of state columns.
    """
    if len(x) != 4:
        raise ValueError(f"an inverter state has 4 rows, got {len(x)}")
    i_d, i_q, v_d, v_q = x[0], x[1], x[2], x[3]
    wl = p.omega * p.l_pu
    return np.array(
        [
            (v_d - p.r_pu * i_d + wl * i_q) / p.l_pu,
            (v_q - p.r_pu * i_q - wl * i_d) / p.l_pu,
            (v_grid - v_d) / p.tau_v,
            -v_q / p.tau_v,
        ]
    )


def gfm_flow(x, p: InverterParams) -> np.ndarray:
    """Grid-forming dynamics: voltage control with droop current tracking.

    The d/q voltage equations are the forming laws; the current states
    track the algebraic droop currents ``(v_ref - v_d)/r`` and ``-v_q/r``
    with time constant ``tau_i``.

    The field is open-loop unstable: at the default ``InverterParams`` its
    eigenvalues are about +50.4 +- 0.48j and -1050.4 +- 0.48j s^-1 (see
    ``gfm_system_matrices``), so the d-axis diverges during a long dip.
    The project documents do not settle whether this is intended.
    """
    if len(x) != 4:
        raise ValueError(f"an inverter state has 4 rows, got {len(x)}")
    i_d, i_q, v_d, v_q = x[0], x[1], x[2], x[3]
    wl = p.omega * p.l_pu
    i_d_alg = (p.v_ref - v_d) / p.r_pu
    i_q_alg = -v_q / p.r_pu
    return np.array(
        [
            (i_d_alg - i_d) / p.tau_i,
            (i_q_alg - i_q) / p.tau_i,
            (wl * i_q - p.r_pu * i_d) / p.l_pu,
            (-wl * i_d - p.r_pu * i_q) / p.l_pu,
        ]
    )


def mode_sigmoid(v_grid: float, p: InverterParams) -> float:
    """Smooth GFL-activation weight: 1 well above the threshold, 0 below.

    The logistic ``1 / (1 + exp(-z))`` with ``z = gain*(v_grid - mid)``;
    below ``z ~ -709`` ``exp(-z)`` overflows and the weight is 0.0.
    ``math.exp`` keeps it a scalar call and matches
    ``scipy.special.expit`` bit for bit (pinned in the tests).
    """
    z = p.sigmoid_gain * (v_grid - p.sigmoid_mid)
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:
        return 0.0


def blended_flow(x, v_grid: float, p: InverterParams) -> np.ndarray:
    """Sigmoid-weighted interpolation between the GFL and GFM fields."""
    s = mode_sigmoid(v_grid, p)
    return s * gfl_flow(x, v_grid, p) + (1.0 - s) * gfm_flow(x, p)


def current_clamp(x, p: InverterParams) -> np.ndarray:
    """GFL->GFM reset: clamp both currents into [-i_lim, i_lim], voltages kept."""
    out = np.asarray(x, dtype=float).copy()
    out[0] = min(max(out[0], -p.i_lim), p.i_lim)
    out[1] = min(max(out[1], -p.i_lim), p.i_lim)
    return out


def current_clamp_jacobian(x, p: InverterParams) -> np.ndarray:
    """Subgradient Jacobian of the clamp: 0 on clamped current channels.

    A coordinate exactly on the limit counts as clamped.
    """
    d = np.ones(4)
    if abs(x[0]) >= p.i_lim:
        d[0] = 0.0
    if abs(x[1]) >= p.i_lim:
        d[1] = 0.0
    return np.diag(d)


def inverter_automaton(
    p: InverterParams, v_grid: Callable[[float], float]
) -> HybridAutomaton:
    """Two-mode GFL/GFM automaton driven by the measured grid voltage.

    Guards fire on the exogenous signal: GFL->GFM when it falls below
    ``v_low`` and GFM->GFL when it rises above ``v_high`` (the gap is the
    anti-chattering hysteresis band).  The GFL->GFM reset clamps the
    currents; GFM->GFL applies no reset.  Both guards are
    state-independent, so their saltation matrices reduce to the reset
    Jacobians.

    The modes have no invariants: a guard enabled at the start of a step
    fires before the flow (jump priority) and a step without an event ends
    with its guard negative, so GFL flows only while ``v_grid > v_low``
    and GFM only while ``v_grid < v_high``.
    """

    def gfl_field(x, t):
        return gfl_flow(x, v_grid(t), p)

    def gfm_field(x, t):
        return gfm_flow(x, p)

    edges = (
        Edge(
            source=GFL,
            target=GFM,
            guard=lambda x, t: p.v_low - v_grid(t),
            reset=lambda x: current_clamp(x, p),
            guard_gradient=None,
            reset_jacobian=lambda x: current_clamp_jacobian(x, p),
            label="GFL->GFM",
        ),
        Edge(
            source=GFM,
            target=GFL,
            guard=lambda x, t: v_grid(t) - p.v_high,
            reset=lambda x: np.asarray(x, dtype=float).copy(),
            guard_gradient=None,
            reset_jacobian=lambda x: np.eye(4),
            label="GFM->GFL",
        ),
    )
    return HybridAutomaton(
        dim=4,
        modes=(GFL, GFM),
        flows={GFL: gfl_field, GFM: gfm_field},
        edges=edges,
    )


def blended_field(
    p: InverterParams, v_grid: Callable[[float], float]
) -> Callable[[np.ndarray, float], np.ndarray]:
    """The continuous-model process field ``f(x, t)`` for the EKF."""

    def f(x, t):
        return blended_flow(x, v_grid(t), p)

    return f


def gfm_system_matrices(p: InverterParams) -> Tuple[np.ndarray, np.ndarray]:
    """(A, b) with ``gfm_flow(x) == A x + b``, read off :func:`gfm_flow`.

    The GFM law is affine, so one call on the columns ``[0 | I]`` gives
    both: ``b`` is the field at 0, and column ``k`` of ``A`` is the field
    at the unit vector ``e_k`` minus ``b``.
    """
    f = gfm_flow(np.hstack((np.zeros((4, 1)), np.eye(4))), p)
    b = f[:, 0]
    return f[:, 1:] - b[:, None], b


# ---------------------------------------------------------------------------
# Scenario: exogenous profile + noise + seed


@dataclass(frozen=True)
class InverterScenario:
    """A reproducible inverter experiment: grid profile, noise, and seed."""

    horizon: float
    dt: float
    v_grid: PiecewiseLinearProfile
    seed: int
    x0: np.ndarray
    params: InverterParams
    noise: NoiseModel
    initial_mode: str = GFL

    def __post_init__(self):
        if not (0.0 < self.horizon < math.inf and 0.0 < self.dt < math.inf):
            raise ArgumentError("horizon and dt must be positive and finite")
        ratio = self.horizon / self.dt
        tol = 1e-12 * max(1.0, self.horizon)
        if abs(self.horizon - round(ratio) * self.dt) > tol:
            raise ArgumentError(f"dt must divide the horizon within {tol:g}")
        if self.v_grid.times[0] > 0.0 or self.v_grid.times[-1] < self.horizon - 1e-12:
            raise ArgumentError("the grid profile must cover [0, horizon]")
        checked_seed(self.seed)
        object.__setattr__(self, "x0", as_state(self.x0, 4, "InverterScenario.x0").copy())

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


# ---------------------------------------------------------------------------
# Deterministic Gaussian sampling


class GaussianStream:
    """Box-Muller Gaussian stream over a seeded 64-bit PCG64 generator.

    Each pair of uniforms gives a cosine and then a sine normal.  The
    uniforms are numpy's ``default_rng(seed).random`` stream, drawn by
    :mod:`hdsim._pcg64` in pure Python, so identical seeds give
    bit-identical streams whatever the numpy version (the contract needed
    for byte-reproducible experiments).
    """

    def __init__(self, seed: int):
        self._uniforms = PCG64(seed)

    def normals(self, shape) -> np.ndarray:
        """Standard normals of ``shape``; an odd count drops its last sine."""
        n = int(np.prod(shape))
        u = self._uniforms.random(2 * ((n + 1) // 2))
        out = []
        for u1, u2 in zip(u[::2], u[1::2]):
            radius = math.sqrt(-2.0 * math.log(1.0 - u1))
            angle = 2.0 * math.pi * u2
            out.append(radius * math.cos(angle))
            out.append(radius * math.sin(angle))
        return np.array(out[:n], dtype=float).reshape(shape)


def _covariance_sqrt(r: np.ndarray) -> np.ndarray:
    if not np.any(r):
        return np.zeros_like(r)
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(r)
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def generate_truth_and_measurements(
    scenario: InverterScenario, max_jumps: int = DEFAULT_MAX_JUMPS
) -> Tuple[HybridTrajectory, np.ndarray]:
    """Simulate the hybrid automaton as ground truth and synthesize measurements.

    Measurements are ``z_k = H x_k + n_k`` on the scenario grid with
    ``n_k ~ N(0, R)`` drawn from the seeded Box-Muller stream; the same
    seed always reproduces the identical stream.  A truth that stops
    before the horizon (its jump budget ran out) raises ``ConfigError``.
    """
    automaton = inverter_automaton(scenario.params, scenario.v_grid)
    truth = simulate(
        automaton,
        scenario.x0,
        scenario.horizon,
        max_jumps=max_jumps,
        dt=scenario.dt,
        mode0=scenario.initial_mode,
    )
    if truth.termination != HORIZON_REACHED:
        raise ConfigError(
            f"the truth stopped at t={truth.times[-1]} ({truth.termination}) "
            f"before the horizon {scenario.horizon}; raise max_jumps = {max_jumps}"
        )
    states = truth.grid_states(0.0, scenario.dt, scenario.n_steps)
    h = scenario.noise.h
    sqrt_r = _covariance_sqrt(scenario.noise.r)
    stream = GaussianStream(scenario.seed)
    draws = stream.normals((scenario.n_steps + 1, h.shape[0]))
    z = states @ h.T + draws @ sqrt_r.T
    return truth, z


# ---------------------------------------------------------------------------
# Two-line SMIB example


@dataclass(frozen=True)
class SmibParams:
    """Swing-equation and line-switching parameters (per-unit).

    ``p_e`` is the classic electrical-power curve
    ``p_e_max * sin(delta)``.  Like a vector field it acts elementwise:
    given an array of angles (one per column of a state batch) it returns
    the array of their powers, and a scalar for a scalar angle, with the
    same bits as ``math.sin`` there (numpy 2.4).  A subclass may override
    it with another curve.
    """

    m: float = 0.1
    d: float = 0.05
    p_m: float = 1.0
    p_e_max: float = 1.5
    i_max: float = 1.4
    p_min: float = 0.1
    p_max: float = 0.4

    def __post_init__(self):
        require_finite(self, [f.name for f in fields(self)])
        if not self.m > 0.0:
            raise ArgumentError("inertia must be positive")
        if not self.d >= 0.0:
            raise ArgumentError("damping must be non-negative")
        if not self.p_min < self.p_max:
            raise ArgumentError("restoration band requires p_min < p_max")

    def p_e(self, delta):
        """Electrical power at rotor angle ``delta`` (elementwise)."""
        return self.p_e_max * np.sin(delta)


LINE1 = "line1"
LINE2 = "line2"


def smib_state(delta: float, omega: float, line: int = 1) -> np.ndarray:
    """Pack rotor angle, speed deviation and the active-line label."""
    if line not in (1, 2):
        raise ArgumentError(f"line must be 1 or 2, got {line}")
    return np.array([delta, omega, float(line)])


def smib_system(p: SmibParams) -> FlowJumpSystem:
    """Two-line SMIB as a flow/jump system over state [delta, omega, line].

    The two lines are electrically identical, so the swing dynamics are
    the same in both discrete states and the jump map only toggles the
    line label.  Line 1 trips when its current magnitude exceeds
    ``i_max``; it is restored once the power it would carry re-enters
    ``[p_min, p_max]``.  Line current is |P_e(delta)| at 1 pu voltage.

    The flow set C is the whole state space: with jump priority, a state
    in D jumps before it flows, so C = {margin <= 0} would give the same
    trajectories and only repeat the margin evaluation after every step.
    The flow and the margin act column-wise on a ``(3, m)`` state batch.
    """

    def flow(x, t):
        delta, omega = x[0], x[1]
        # 0.0 * label is +0.0 in omega's shape (the label is 1.0 or 2.0)
        return np.array(
            [omega, (p.p_m - p.p_e(delta) - p.d * omega) / p.m, 0.0 * x[2]]
        )

    def jump_margin(x, t):
        # line 1 active: trip on overcurrent; line 2: restore inside the band
        pe = p.p_e(x[0])
        if x.ndim == 1:  # one state: a branch costs far less than np.where
            if x[2] < 1.5:
                return abs(pe) - p.i_max
            return min(pe - p.p_min, p.p_max - pe)
        return np.where(
            x[2] < 1.5, np.abs(pe) - p.i_max, np.minimum(pe - p.p_min, p.p_max - pe)
        )

    def jump_map(x) -> np.ndarray:
        out = np.asarray(x, dtype=float).copy()
        out[2] = 2.0 if x[2] < 1.5 else 1.0
        return out

    def label(x) -> str:
        return LINE1 if x[2] < 1.5 else LINE2

    return FlowJumpSystem(
        dim=3,
        flow_map=flow,
        jump_set=jump_margin,
        jump_map=jump_map,
        mode_label=label,
    )
