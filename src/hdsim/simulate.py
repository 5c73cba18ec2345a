"""Hybrid simulation: flow until a guard margin crosses zero, localize,
reset, repeat.

One stepping core, :func:`next_event`, serves both the simulator and the
hybrid EKF (:func:`hdsim.estimation.run_ekf`).  From a state at time
``t`` it fires a guard already enabled at ``t`` (jump priority: when the
state sits in both the flow and the jump set, the jump fires first);
otherwise it takes one RK4 step to ``t_next`` and, when a guard margin
changes sign inside the step, localizes the crossing with
:func:`hdsim.events.locate_event` against the single-step RK4
interpolant.  Two guards enabled within one localization tolerance raise
:class:`AmbiguousTransitionError` instead of choosing.

The simulator walks a fixed RK4 grid of step ``dt``.  At a localized
crossing it records a pre-jump sample at the event time, applies the
reset, and resumes from the event time with a shortened step back to the
grid.  Keeping every later sample on the original grid makes trajectories
directly comparable across runs with and without jumps.  At most
``SAME_TIME_JUMP_BUDGET`` jumps may follow one another at one instant.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import AmbiguousTransitionError, ArgumentError, NumericalFailureError
from .events import LOCATE_TOL, locate_event
from .integrate import rk4_step
from .systems import (
    Edge,
    FlowJumpSystem,
    HORIZON_REACHED,
    HybridAutomaton,
    HybridTrajectory,
    JumpRecord,
    LEFT_FLOW_SET,
    MAX_JUMPS_REACHED,
    NUMERICAL_FAILURE,
    VectorField,
    as_state,
)

SAME_TIME_JUMP_BUDGET = 10
"""Consecutive jumps allowed at one instant before declaring Zeno-like stop."""


def next_event(
    edges: List[Edge], flow: VectorField, x: np.ndarray, t: float, t_next: float
) -> Tuple[np.ndarray, Optional[Tuple[float, Edge, np.ndarray]]]:
    """Advance one step from ``(t, x)`` towards ``t_next`` under ``flow``.

    Returns ``(x_next, event)``.  ``event`` is ``None`` when no guard of
    ``edges`` fires up to ``t_next``; ``x_next`` is then the RK4 state at
    ``t_next``.  Otherwise ``event`` is the first ``(t_star, edge, x_star)``,
    with ``x_star`` the state on the step's RK4 interpolant at ``t_star``.
    A guard enabled at ``t`` fires at ``t`` (jump priority); with
    ``t_next <= t`` only that check runs.

    Raises
    ------
    AmbiguousTransitionError
        If two guards are enabled at ``t``, or cross within one
        localization tolerance of each other.
    NumericalFailureError
        If the RK4 state at ``t_next`` is non-finite.
    """
    enabled = [e for e in edges if e.guard(x, t) >= 0.0]
    if len(enabled) > 1:
        names = ", ".join(e.label for e in enabled)
        raise AmbiguousTransitionError(
            f"guards simultaneously enabled at t={t}: {names}", edges=enabled
        )
    if enabled:
        return x, (t, enabled[0], x)
    if t_next <= t:
        return x, None
    x_next = rk4_step(flow, x, t, t_next - t)
    if not np.all(np.isfinite(x_next)):
        raise NumericalFailureError(
            f"non-finite state while flowing to t={t_next}", time=t_next
        )
    crossed = [e for e in edges if e.guard(x_next, t_next) >= 0.0]
    if not crossed:
        return x_next, None

    def interpolant(s: float) -> np.ndarray:
        if s <= t:
            return x
        return rk4_step(flow, x, t, s - t)

    located: List[Tuple[float, Edge]] = []
    for e in crossed:
        t_star = locate_event(e.guard, t, t_next, interpolant)
        if t_star is not None:
            located.append((t_star, e))
    if not located:
        return x_next, None
    located.sort(key=lambda pair: pair[0])
    if len(located) >= 2 and located[1][0] - located[0][0] <= LOCATE_TOL:
        names = ", ".join(e.label for _, e in located[:2])
        raise AmbiguousTransitionError(
            f"guards cross within one localization tolerance near "
            f"t={located[0][0]}: {names}",
            edges=[e for _, e in located[:2]],
        )
    t_star, edge = located[0]
    return x_next, (t_star, edge, interpolant(t_star))


def simulate(
    system: Union[FlowJumpSystem, HybridAutomaton],
    x0,
    horizon: float,
    max_jumps: int,
    dt: float,
    mode0: Optional[str] = None,
    t0: float = 0.0,
) -> HybridTrajectory:
    """Simulate a flow/jump system or hybrid automaton on a hybrid time domain.

    Parameters
    ----------
    system : FlowJumpSystem or HybridAutomaton
    x0 : array-like
        Initial continuous state.
    horizon : float
        Amount of ordinary time to simulate.
    max_jumps : int
        Total jump budget; reaching it terminates the run.
    dt : float
        Fixed RK4 step.
    mode0 : str, optional
        Initial mode (required for automata).
    t0 : float
        Initial ordinary time.

    Returns
    -------
    HybridTrajectory
        Terminated by horizon, jump budget, or flow-set exit.

    Raises
    ------
    AmbiguousTransitionError
        If two guards become enabled within one localization tolerance.
    NumericalFailureError
        If the state turns non-finite; carries the partial trajectory.
    """
    if horizon <= 0.0:
        raise ArgumentError(f"horizon must be positive, got {horizon}")
    if dt <= 0.0:
        raise ArgumentError(f"dt must be positive, got {dt}")
    if max_jumps < 0:
        raise ArgumentError(f"max_jumps must be non-negative, got {max_jumps}")

    is_automaton = isinstance(system, HybridAutomaton)
    x = as_state(x0, system.dim)
    if is_automaton:
        if mode0 is None:
            raise ArgumentError("an automaton simulation needs an initial mode")
        if mode0 not in system.modes:
            raise ArgumentError(f"unknown initial mode {mode0!r}")
        if system.init is not None and not system.init(mode0, x):
            raise ArgumentError(f"({mode0!r}, x0) is not in the initial set")
        mode = mode0
        flow = system.flows[mode]
        invariant = system.invariant(mode)
        edges = system.outgoing(mode)
    else:
        mode = system.mode_label(x)
        flow = system.flow_map
        invariant = system.flow_set
        in_jump_set = system.jump_set(x, t0) >= 0.0
        if not invariant(x, t0) and not in_jump_set:
            raise ArgumentError("x0 lies outside both the flow set and the jump set")
        edges = [Edge(mode, mode, system.jump_set, system.jump_map, label="jump")]

    traj = HybridTrajectory()
    t = t0
    j = 0
    t_end = t0 + horizon
    same_t_jumps = 0
    traj.append(t, j, mode, x)

    def label_of(state: np.ndarray, m: str) -> str:
        return m if is_automaton else system.mode_label(state)

    def apply_jump(edge: Edge, state: np.ndarray):
        nonlocal mode, flow, invariant, edges
        x_new = as_state(edge.reset(state), system.dim)
        old_mode = mode
        if is_automaton:
            mode = edge.target
            flow = system.flows[mode]
            invariant = system.invariant(mode)
            edges = system.outgoing(mode)
        else:
            mode = system.mode_label(x_new)
        traj.jumps.append(
            JumpRecord(
                t=t,
                j_before=j,
                edge=edge.label,
                state_before=state.copy(),
                state_after=x_new.copy(),
                mode_before=old_mode,
                mode_after=label_of(x_new, mode),
            )
        )
        return x_new

    while True:
        # Step towards the next grid point (grid stays aligned to t0); at
        # the horizon only the guards enabled there may still fire.
        at_end = t >= t_end - 1e-15 * max(1.0, abs(t_end))
        k = math.floor((t - t0) / dt + 1e-9) + 1
        t_next = t if at_end else min(t0 + k * dt, t_end)
        try:
            x_next, event = next_event(edges, flow, x, t, t_next)
        except NumericalFailureError as exc:
            traj.termination = NUMERICAL_FAILURE
            exc.trajectory = traj
            raise
        if event is None:
            if at_end:
                traj.termination = HORIZON_REACHED
                return traj
            t = t_next
            x = x_next
            same_t_jumps = 0
            traj.append(t, j, label_of(x, mode), x)
            if not invariant(x, t):
                traj.termination = LEFT_FLOW_SET
                return traj
            continue

        t_star, edge, x_star = event
        if t_star > t:
            same_t_jumps = 0
            traj.append(t_star, j, label_of(x_star, mode), x_star)
            t = t_star
        if j >= max_jumps or same_t_jumps >= SAME_TIME_JUMP_BUDGET:
            traj.termination = MAX_JUMPS_REACHED
            return traj
        x = apply_jump(edge, x_star)
        j += 1
        same_t_jumps += 1
        traj.append(t, j, label_of(x, mode), x)
