"""Hybrid simulation: flow until a guard margin crosses zero, localize,
reset, repeat.

One stepping core, :func:`next_event`, scans one step.  From a state at
time ``t`` it fires a guard already enabled at ``t`` (jump priority: when
the state sits in both the flow and the jump set, the jump fires first);
otherwise it takes one RK4 step to ``t_next`` and, when a guard margin
changes sign inside the step, localizes the crossing with
:func:`hdsim.events.locate_event` against the single-step RK4
interpolant.  Two guards enabled within one localization tolerance raise
:class:`AmbiguousTransitionError` instead of choosing.

One loop, :meth:`Stepper.advance`, walks a fixed RK4 grid of step ``dt``.
At a localized crossing it records a pre-jump sample at the event time,
applies the reset, and resumes from the event time with a shortened step
back to the grid time it was heading for.  Keeping every later sample on
the original grid makes trajectories directly comparable across runs with
and without jumps.  At most ``SAME_TIME_JUMP_BUDGET`` jumps may follow one
another at one instant.  :func:`simulate` runs one stepper to its end, the
safety sweep runs it for the columns whose guard crossed, and the EKF
(:func:`hdsim.estimation.run_ekf`) runs one that carries a belief.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Callable, List, Optional, Sequence, Tuple, Union

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

quiet_overflow = np.errstate(over="ignore", invalid="ignore", divide="ignore")
"""Decorator of the library and command-line entry points: an overflowing
model gives a non-finite state, which they raise as a typed error instead
of numpy warnings.  Only a decorator: the one instance used in a ``with``
block cannot be entered twice."""


_RUN_RULES = {  # name: its (rule, test) pairs, in the order they are checked
    "t0": (("finite", lambda v: abs(v) < math.inf), ("non-negative", lambda v: v >= 0)),
    "horizon": (("positive and finite", lambda v: 0.0 < v < math.inf),),
    "dt": (("positive and finite", lambda v: 0.0 < v < math.inf),),
    "max_jumps": (("non-negative", lambda v: v >= 0),),  # np.inf: no budget
    "q_scale": (("non-negative and finite", lambda v: 0.0 <= v < math.inf),),
}


def require_run_args(**values) -> None:
    """Raise ``ArgumentError`` naming the first of ``values`` that is no real number
    (text, ``None``, a ``bool``) or breaks a rule of its name in ``_RUN_RULES``."""
    for name, value in values.items():
        if not isinstance(value, Real) or isinstance(value, bool):
            raise ArgumentError(f"{name} must be a real number, got {value!r}")
        for rule, holds in _RUN_RULES[name]:
            if not holds(value):
                raise ArgumentError(f"{name} must be {rule}, got {value}")


def next_event(
    edges: Sequence[Edge],
    flow: VectorField,
    x: np.ndarray,
    t: float,
    t_next: float,
    guards_clear: bool = False,
    x_next: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[Tuple[float, Edge, np.ndarray]]]:
    """Advance one step from ``(t, x)`` towards ``t_next`` under ``flow``.

    Returns ``(x_next, event)``.  ``event`` is ``None`` when no guard of
    ``edges`` fires up to ``t_next``; ``x_next`` is then the RK4 state at
    ``t_next``.  Otherwise ``event`` is the first ``(t_star, edge, x_star)``,
    with ``x_star`` the state on the step's RK4 interpolant at ``t_star``.
    A guard enabled at ``t`` fires at ``t`` (jump priority); with
    ``t_next <= t`` only that check runs.  ``guards_clear`` says the caller
    already knows every guard is negative at ``(x, t)`` (the previous step
    ended there without an event), and skips that check.  ``x_next``, when
    given, must be the state :func:`hdsim.integrate.rk4_step` gives for one
    step of ``flow`` from ``(x, t)`` to ``t_next``; the step is then not
    taken again, and its first stage is computed only if a guard crossed.

    The interpolant shares the step's first RK4 stage and remembers every
    state it computes, so one localization costs three field evaluations
    per new probe time on top of the four of the step itself.

    Raises
    ------
    AmbiguousTransitionError
        If two guards are enabled at ``t``, or cross within one
        localization tolerance of each other.
    NumericalFailureError
        If the RK4 state at ``t_next`` is non-finite.
    """
    if not guards_clear:
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
    k1 = None
    if x_next is None:
        k1 = flow(x, t)
        x_next = rk4_step(flow, x, t, t_next - t, k1)
    if not np.isfinite(x_next).all():
        raise NumericalFailureError(
            f"non-finite state while flowing to t={t_next}", time=t_next
        )
    crossed = [e for e in edges if e.guard(x_next, t_next) >= 0.0]
    if not crossed:
        return x_next, None
    if k1 is None:
        k1 = flow(x, t)

    states = {t_next: x_next}

    def interpolant(s: float) -> np.ndarray:
        if s <= t:
            return x
        if s not in states:
            states[s] = rk4_step(flow, x, t, s - t, k1)
        return states[s]

    located: List[Tuple[float, Edge]] = []
    for e in crossed:
        t_star = locate_event(lambda s: e.guard(interpolant(s), s), t, t_next)
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


def located(exc: Exception, t: float, mode: str, edge: Optional[Edge] = None):
    """``exc``, its message ending `` at t=<t>`` if it has no ``time`` (then
    ``t`` is its time), `` in mode '<mode>'`` and, for a jump, `` on edge
    '<label>'``.  Changed in place, so it keeps its type and fields."""
    where = f" in mode {mode!r}" + ("" if edge is None else f" on edge {edge.label!r}")
    if getattr(exc, "time", None) is None:
        where = f" at t={t}{where}"
        if isinstance(exc, NumericalFailureError):
            exc.time = t
    exc.args = (f"{exc}{where}",)
    return exc


def next_grid_time(t: float, t0: float, dt: float, t_end: float) -> Tuple[bool, float]:
    """The target of the step from ``t`` on the grid ``t0 + k*dt``.

    Returns ``(at_end, t_next)``: the next grid time, clipped to ``t_end``,
    or ``(True, t)`` at the horizon, where only the guards enabled there
    may still fire.  The grid stays aligned to ``t0`` after a jump.
    """
    if t >= t_end:
        return True, t
    k = math.floor((t - t0) / dt + 1e-9) + 1
    while t0 + k * dt <= t:  # t - t0 loses digits when abs(t0) >> dt
        k += 1
    return False, min(t0 + k * dt, t_end)


class Stepper:
    """The stepping state of one trajectory on a fixed RK4 grid.

    :meth:`advance` is the hybrid loop: it steps towards the next grid
    time with :meth:`_scan`; at a localized crossing it records the
    pre-jump sample, checks the jump budget and the same-instant budget,
    applies the reset with :meth:`_jump` and resumes with a shortened step
    back to the same grid time.  Every sample goes to
    ``sink(t, j, mode, state)`` and every jump to the list ``jumps`` when
    one is given.  :func:`simulate` runs one stepper to its end;
    :func:`hdsim.safety.check_safety` steps the event-free columns of a
    sweep as one batch and hands each column whose guard crossed to
    :meth:`advance`.  The arguments are those of :func:`simulate`.

    ``mode``, ``flow``, ``invariant`` and ``edges`` are the current location,
    looked up once on entering a mode; every sample carries ``mode``.  ``x`` is
    a state, or what a subclass's :meth:`_scan` and :meth:`_jump` carry (the
    EKF's belief).  Whoever replaces ``x`` between two calls of :meth:`advance`
    clears ``guards_clear``, so the guards enabled there fire.
    """

    def __init__(
        self,
        system: Union[FlowJumpSystem, HybridAutomaton],
        x0,
        horizon: float,
        max_jumps: int,
        dt: float,
        mode0: Optional[str],
        t0: float,
        sink: Callable[[float, int, str, np.ndarray], None],
        jumps: Optional[List[JumpRecord]] = None,
    ):
        require_run_args(t0=t0, horizon=horizon, dt=dt, max_jumps=max_jumps)
        self.system = system
        self.is_automaton = isinstance(system, HybridAutomaton)
        x = as_state(x0, system.dim, "x0")
        if self.is_automaton:
            if mode0 is None:
                raise ArgumentError("an automaton simulation needs an initial mode")
            if mode0 not in system.modes:
                raise ArgumentError(f"unknown initial mode {mode0!r}")
            if system.init is not None and not system.init(mode0, x):
                raise ArgumentError(f"({mode0!r}, x0) is not in the initial set")
            self._enter(mode0, system.locations[mode0])
        else:
            if not system.flow_set(x, t0) and not system.jump_set(x, t0) >= 0.0:
                raise ArgumentError("x0 lies outside both the flow set and the jump set")
            self._enter(system.mode_label(x), system.location)
        self.x, self.t, self.j = x, t0, 0
        self.t0, self.dt, self.t_end, self.max_jumps = t0, dt, t0 + horizon, max_jumps
        self.guards_clear = False
        self.termination: Optional[str] = None
        self.refused: Optional[Edge] = None  # the edge a spent budget refused
        self.sink, self.jumps = sink, jumps
        sink(t0, 0, self.mode, x)

    def _enter(self, mode: str, location) -> None:
        self.mode = mode
        self.flow, self.invariant, self.edges = location

    def _scan(self, x, t: float, t_next: float, guards_clear: bool, x_next=None):
        """:func:`next_event` in the current mode; an event carries ``x`` at its time."""
        return next_event(self.edges, self.flow, x, t, t_next, guards_clear, x_next)

    def advance(self, x_next: Optional[np.ndarray] = None, to_end: bool = False) -> bool:
        """Step to the next grid time, through every event on the way.

        Returns ``True`` on reaching it (``x``, ``t`` and ``j`` then hold
        the new grid sample, taken after any jumps at that time), or
        ``False`` once ``termination`` is set.  However close to it a jump
        lands, the target stays that grid time.  ``x_next`` is as for
        :func:`next_event`: the RK4 state at the next grid time from
        ``(x, t)``.  With ``to_end`` it keeps stepping until the run
        terminates.

        Raises the errors of :func:`next_event` and of the resets (a reset to
        a non-finite state is a :class:`NumericalFailureError`); those two types
        leave :func:`located` at the step's target or the jump's time and edge.
        """
        x, t, j = self.x, self.t, self.j
        t0, dt, t_end, sink = self.t0, self.dt, self.t_end, self.sink
        guards_clear = self.guards_clear
        same_t_jumps = 0
        at_end, t_next = next_grid_time(t, t0, dt, t_end)
        while True:
            try:
                x_new, event = self._scan(x, t, t_next, guards_clear, x_next)
            except (ArgumentError, NumericalFailureError) as exc:
                raise located(exc, t_next, self.mode)
            x_next = None
            if event is None:
                if at_end:
                    return self._stop(HORIZON_REACHED, x, t, j)
                if t_next > t:  # jumps at t_next itself leave no step to take
                    t, x = t_next, x_new
                    sink(t, j, self.mode, x)
                    if not self.invariant(x, t):
                        return self._stop(LEFT_FLOW_SET, x, t, j)
                same_t_jumps = 0
                guards_clear = True
                if to_end:
                    at_end, t_next = next_grid_time(t, t0, dt, t_end)
                    continue
                self.x, self.t, self.j, self.guards_clear = x, t, j, True
                return True

            t_star, edge, x_star = event
            guards_clear = False
            if t_star > t:
                same_t_jumps = 0
                sink(t_star, j, self.mode, x_star)
                t = t_star
            if j >= self.max_jumps or same_t_jumps >= SAME_TIME_JUMP_BUDGET:
                self.refused = edge
                return self._stop(MAX_JUMPS_REACHED, x_star, t, j)
            try:
                x = self._jump(edge, x_star, t, j)
            except (ArgumentError, NumericalFailureError) as exc:
                raise located(exc, t, self.mode, edge)
            j += 1
            same_t_jumps += 1
            sink(t, j, self.mode, x)

    def _jump(self, edge: Edge, state: np.ndarray, t: float, j: int) -> np.ndarray:
        x_new = np.asarray(edge.reset(state), dtype=float)
        if not np.isfinite(x_new).all():
            raise NumericalFailureError("reset to a non-finite state")
        x_new = as_state(x_new, self.system.dim)
        self._switch(edge, state, x_new, t, j)
        return x_new

    def _switch(self, edge: Edge, before: np.ndarray, after: np.ndarray, t: float,
                j: int) -> None:
        """Take the mode the jump along ``edge`` leads to, and record the jump."""
        old_mode = self.mode
        if self.is_automaton:
            self._enter(edge.target, self.system.locations[edge.target])
        else:
            self.mode = self.system.mode_label(after)
        if self.jumps is not None:
            self.jumps.append(
                JumpRecord(
                    t=t,
                    j_before=j,
                    edge=edge.label,
                    state_before=before.copy(),
                    state_after=after.copy(),
                    mode_before=old_mode,
                    mode_after=self.mode,
                )
            )

    def _stop(self, termination: str, x: np.ndarray, t: float, j: int) -> bool:
        self.x, self.t, self.j, self.termination = x, t, j, termination
        return False


@quiet_overflow
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
        Initial ordinary time, finite and non-negative.

    Returns
    -------
    HybridTrajectory
        Terminated by horizon, jump budget, or flow-set exit.

    Raises
    ------
    AmbiguousTransitionError
        If two guards become enabled within one localization tolerance.
    NumericalFailureError
        If the state turns non-finite while flowing or at a reset.  It, and an
        ``ArgumentError`` of a step or reset, is :func:`located` at its time,
        mode and reset edge; it carries the partial trajectory.
    """
    traj = HybridTrajectory()
    stepper = Stepper(
        system, x0, horizon, max_jumps, dt, mode0, t0, traj.append, traj.jumps
    )
    try:
        stepper.advance(to_end=True)
    except NumericalFailureError as exc:
        traj.termination, exc.trajectory = NUMERICAL_FAILURE, traj
        raise
    traj.termination = stepper.termination
    return traj
