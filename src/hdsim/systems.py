"""Core representations: flow/jump systems, hybrid automata, trajectories.

State vectors are plain 1-D ``float64`` numpy arrays of fixed dimension.
Hybrid time is the pair ``(t, j)`` of ordinary time and jump count;
trajectories hold samples indexed by hybrid time together with the label
of the active mode, stored column by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ArgumentError
from .integrate import VectorField

Predicate = Callable[[np.ndarray, float], bool]
"""``c(x, t)``: membership in a flow set or invariant.  It acts column-wise
like a margin: given an ``(n, m)`` batch it returns ``m`` booleans, or one
that holds for every column (a time-only predicate).  A predicate that
reduces over the batch (``np.all(x)``) gives silently wrong results."""
Margin = Callable[[np.ndarray, float], float]
"""``g(x, t)``: a signed guard margin, negative outside the guard set and
non-negative inside.  Like a vector field it must be a deterministic,
side-effect-free function of ``(x, t)``: event localization evaluates it
once per probe time and reuses the value, and a margin found negative at
the end of a step is not evaluated again at the start of the next one.

It also acts column-wise: given an ``(n, m)`` batch of states it returns
the ``m`` margins, each equal to the margin of its column alone, or one
scalar that holds for every column (a time-only guard).  The safety sweep
evaluates the guards of all its columns in one call per step, so a margin
that reduces over the batch (``r - np.linalg.norm(x)``) gives silently
wrong verdicts."""

# Trajectory termination reasons.
HORIZON_REACHED = "horizon reached"
MAX_JUMPS_REACHED = "max jumps reached"
LEFT_FLOW_SET = "left flow set"
NUMERICAL_FAILURE = "numerical failure"

_INITIAL_CAPACITY = 64
"""Samples a new :class:`HybridTrajectory` has room for before it grows."""


def as_state(values, dim: Optional[int] = None, name: str = "state") -> np.ndarray:
    """Validate and convert ``values`` into a finite 1-D float state vector;
    the messages call it ``name``."""
    try:
        x = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ArgumentError(f"{name} entries must be finite reals, got {values!r}") from None
    if x.ndim != 1 or x.size < 1:
        raise ArgumentError(f"{name} must be a 1-D vector, got shape {x.shape}")
    if dim is not None and x.size != dim:
        raise ArgumentError(f"{name} has dimension {x.size}, expected {dim}")
    if not np.all(np.isfinite(x)):
        raise ArgumentError(f"{name} entries must be finite")
    return x


def require_finite(record, names, sequence=False) -> None:
    """Store each of ``record``'s fields ``names`` as a float, or with
    ``sequence`` a tuple of floats, raising ``ArgumentError`` naming the first
    that holds anything else: a NaN, an infinity, an int too large for a
    float, text, ``None``, a scalar where a sequence belongs or the reverse."""
    for name in names:
        value = getattr(record, name)
        try:
            items = tuple(value) if sequence else (value,)
            reals = tuple(float(v) if isinstance(v, Real) else math.nan for v in items)
            ok = all(map(math.isfinite, reals))
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            kind = " reals in a sequence" if sequence else ""
            raise ArgumentError(
                f"{type(record).__name__}.{name} must be finite{kind}, got {value!r}"
            )
        object.__setattr__(record, name, reals if sequence else reals[0])


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included, and not a ``bool``."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def require_dim(record) -> None:
    """Raise ``ArgumentError`` unless ``record.dim`` is an integer >= 1."""
    if not is_integer(record.dim):
        raise ArgumentError(
            f"{type(record).__name__}.dim must be an integer, got {record.dim!r}"
        )
    if record.dim < 1:
        raise ArgumentError(f"dimension must be >= 1, got {record.dim}")


class HybridTime(NamedTuple):
    """A point (t, j) of the hybrid time domain."""

    t: float
    j: int


class TrajectorySample(NamedTuple):
    """One record of the ``samples`` view of a :class:`HybridTrajectory`."""

    time: HybridTime
    mode: str
    state: np.ndarray


@dataclass(frozen=True)
class JumpRecord:
    """One discrete transition: time, edge label, pre/post states."""

    t: float
    j_before: int
    edge: str
    state_before: np.ndarray
    state_after: np.ndarray
    mode_before: str
    mode_after: str


class HybridTrajectory:
    """Samples indexed by hybrid time plus the reason the run stopped.

    The samples are stored as four append-only columns: ordinary time
    ``t`` and jump count ``j`` in typed arrays, the mode labels in a list,
    and the states as the rows of one ``(capacity, dim)`` float array whose
    ``dim`` the first state fixes.  The arrays double their capacity when
    full, so a stored sample costs its numbers and one list slot, not an
    array object of its own.  ``times``, ``jump_counts`` and ``states`` are
    read-only views of the stored rows; ``samples`` builds the
    :class:`TrajectorySample` records from them on each access.
    """

    def __init__(self) -> None:
        self._t = np.empty(_INITIAL_CAPACITY)
        self._j = np.empty(_INITIAL_CAPACITY, dtype=int)
        self._x = np.empty((_INITIAL_CAPACITY, 0))
        self._last: Tuple[float, int] = (0.0, 0)
        self._modes: List[str] = []
        self.jumps: List[JumpRecord] = []
        self.termination: str = HORIZON_REACHED

    def append(self, t: float, j: int, mode: str, state: np.ndarray) -> None:
        if not t >= 0.0 or j < 0:
            raise ArgumentError(f"hybrid time must be non-negative, got ({t}, {j})")
        n = len(self._modes)
        if n and (t, j) < self._last:
            raise ArgumentError(
                f"hybrid time must be non-decreasing: ({t}, {j}) after "
                f"({self._last[0]}, {self._last[1]})"
            )
        x = np.asarray(state, dtype=float)
        if x.shape != self._x.shape[1:]:
            if x.ndim != 1:
                raise ArgumentError(f"state must be a 1-D vector, got shape {x.shape}")
            if n:
                raise ArgumentError(
                    f"state has dimension {x.size}, expected {self._x.shape[1]}"
                )
            self._x = np.empty((len(self._t), x.size))
        if n == len(self._t):
            self._t, self._j, self._x = (
                np.concatenate((col, np.empty_like(col)))
                for col in (self._t, self._j, self._x)
            )
        self._t[n], self._j[n], self._x[n] = t, j, x
        self._modes.append(mode)
        self._last = (t, j)

    def _rows(self, column: np.ndarray) -> np.ndarray:
        """The stored rows of ``column``, as a read-only view."""
        view = column[: len(self._modes)]
        view.flags.writeable = False
        return view

    @property
    def samples(self) -> Tuple[TrajectorySample, ...]:
        return tuple(
            TrajectorySample(HybridTime(t, j), mode, state)
            for t, j, mode, state in zip(
                self.times.tolist(), self.jump_counts.tolist(), self._modes, self.states
            )
        )

    @property
    def times(self) -> np.ndarray:
        return self._rows(self._t)

    @property
    def jump_counts(self) -> np.ndarray:
        return self._rows(self._j)

    @property
    def states(self) -> np.ndarray:
        return self._rows(self._x)

    @property
    def modes(self) -> List[str]:
        return list(self._modes)

    @property
    def jump_times(self) -> List[float]:
        return [r.t for r in self.jumps]

    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()

    def _grid_indices(self, t0: float, dt: float, n_steps: int) -> np.ndarray:
        """Sample index at each grid time ``t0 + k*dt``, k = 0..n_steps.

        The index is that of the last sample within ``1e-9*max(dt, 1)`` of
        the grid time, so at a grid time that coincides with a jump the
        post-jump sample wins.
        """
        tol = 1e-9 * max(dt, 1.0)
        grid = t0 + np.arange(n_steps + 1) * dt
        times = np.append(self.times, np.inf)  # index -1 finds no sample
        idx = np.searchsorted(times, grid + tol, side="right") - 1
        missing = np.abs(times[idx] - grid) > tol
        if missing.any():
            tk = float(grid[np.argmax(missing)])
            raise ArgumentError(f"no trajectory sample at grid time {tk}")
        return idx

    def grid_states(self, t0: float, dt: float, n_steps: int) -> np.ndarray:
        """States on the uniform grid, post-jump state at coincidences."""
        return self.states[self._grid_indices(t0, dt, n_steps)]

    def grid_modes(self, t0: float, dt: float, n_steps: int) -> List[str]:
        """Mode labels on the uniform grid, post-jump label at coincidences."""
        modes = np.array(self._modes, dtype=object)
        return modes[self._grid_indices(t0, dt, n_steps)].tolist()

    def grid_jump_counts(self, t0: float, dt: float, n_steps: int) -> np.ndarray:
        """Jump counts on the uniform grid, post-jump count at coincidences."""
        return self.jump_counts[self._grid_indices(t0, dt, n_steps)]


def _always_true(x: np.ndarray, t: float) -> bool:
    return True


def _never_margin(x: np.ndarray, t: float) -> float:
    return -np.inf


@dataclass(frozen=True)
class FlowJumpSystem:
    """The data (C, f, D, g) of a flow/jump system.

    ``flow_set`` is a boolean predicate; ``jump_set`` is a signed margin
    (negative outside the jump set, non-negative inside) so crossings can
    be localized by false position.  Both receive ``(state, time)`` so
    exogenous inputs can be threaded through as explicit time
    dependence.  When state and time put the system in both C and D, the
    jump fires first.  ``mode_label`` names the discrete state, which changes
    only at jumps: a run reads it at ``x0`` and after each jump.  ``location``
    is built with the system: ``(flow_map, flow_set, (the edge "jump",))``.
    """

    dim: int
    flow_map: VectorField
    jump_set: Margin = _never_margin
    jump_map: Callable[[np.ndarray], np.ndarray] = lambda x: x
    flow_set: Predicate = _always_true
    mode_label: Callable[[np.ndarray], str] = lambda x: "flow"

    def __post_init__(self):
        require_dim(self)
        jump = Edge("", "", self.jump_set, self.jump_map, label="jump")
        object.__setattr__(self, "location", (self.flow_map, self.flow_set, (jump,)))


@dataclass(frozen=True)
class Edge:
    """A guarded transition of a hybrid automaton.

    ``guard`` is a signed margin on ``(state, time)``.  ``guard_gradient``
    is the state-gradient of that margin where one exists; ``None`` marks
    a state-independent (exogenous / time-triggered) guard, which is what
    the saltation construction keys on.  ``reset_jacobian`` optionally
    supplies an analytic Jacobian for resets with kinks (clamps), where a
    central difference straddling the kink would be wrong.
    """

    source: str
    target: str
    guard: Margin
    reset: Callable[[np.ndarray], np.ndarray]
    guard_gradient: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    reset_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", f"{self.source}->{self.target}")


@dataclass(frozen=True)
class HybridAutomaton:
    """Finite modes with per-mode flows and invariants, joined by edges; ``locations``,
    built with it, maps a mode to its ``(flow, invariant, edges out in edges order)``."""

    dim: int
    modes: Tuple[str, ...]
    flows: Mapping[str, VectorField]
    edges: Tuple[Edge, ...]
    invariants: Mapping[str, Predicate] = field(default_factory=dict)
    init: Optional[Callable[[str, np.ndarray], bool]] = None

    def __post_init__(self):
        require_dim(self)
        if not self.modes:
            raise ArgumentError("automaton needs at least one mode")
        locations: Dict[str, Tuple[VectorField, Predicate, List[Edge]]] = {}
        for q in self.modes:
            if q not in self.flows:
                raise ArgumentError(f"mode {q!r} has no flow")
            if q in locations:
                raise ArgumentError(f"mode {q!r} is listed twice")
            locations[q] = (self.flows[q], self.invariants.get(q, _always_true), [])
        for e in self.edges:
            if e.source not in locations or e.target not in locations:
                raise ArgumentError(f"edge {e.label!r} references unknown modes")
            locations[e.source][2].append(e)
        object.__setattr__(self, "locations", locations)
