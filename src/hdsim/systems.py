"""Core representations: flow/jump systems, hybrid automata, trajectories.

State vectors are plain 1-D ``float64`` numpy arrays of fixed dimension.
Hybrid time is the pair ``(t, j)`` of ordinary time and jump count;
trajectories are sequences of samples indexed by hybrid time together
with the label of the active mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from .errors import ArgumentError
from .integrate import VectorField

StateVector = np.ndarray
Predicate = Callable[[np.ndarray, float], bool]
Margin = Callable[[np.ndarray, float], float]
"""``g(x, t)``: a signed guard margin, negative outside the guard set and
non-negative inside.  Like a vector field it must be a deterministic,
side-effect-free function of ``(x, t)``: event localization evaluates it
once per probe time and reuses the value, and a margin found negative at
the end of a step is not evaluated again at the start of the next one."""

# Trajectory termination reasons.
HORIZON_REACHED = "horizon reached"
MAX_JUMPS_REACHED = "max jumps reached"
LEFT_FLOW_SET = "left flow set"
NUMERICAL_FAILURE = "numerical failure"


def as_state(values, dim: Optional[int] = None) -> np.ndarray:
    """Validate and convert ``values`` into a finite 1-D float state vector."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ArgumentError(f"state must be a 1-D vector, got shape {x.shape}")
    if dim is not None and x.size != dim:
        raise ArgumentError(f"state has dimension {x.size}, expected {dim}")
    if not np.all(np.isfinite(x)):
        raise ArgumentError("state entries must be finite")
    return x


@dataclass(frozen=True)
class HybridTime:
    """A point (t, j) of the hybrid time domain."""

    t: float
    j: int

    def __post_init__(self):
        if self.t < 0.0 or self.j < 0:
            raise ArgumentError(f"hybrid time must be non-negative, got {self}")


@dataclass(frozen=True)
class TrajectorySample:
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


@dataclass
class HybridTrajectory:
    """Samples indexed by hybrid time plus the reason the run stopped."""

    samples: List[TrajectorySample] = field(default_factory=list)
    jumps: List[JumpRecord] = field(default_factory=list)
    termination: str = HORIZON_REACHED

    def append(self, t: float, j: int, mode: str, state: np.ndarray) -> None:
        if self.samples:
            last = self.samples[-1].time
            if (t, j) < (last.t, last.j):
                raise ArgumentError(
                    f"hybrid time must be non-decreasing: ({t}, {j}) after {last}"
                )
        self.samples.append(TrajectorySample(HybridTime(t, j), mode, np.asarray(state, float)))

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time.t for s in self.samples])

    @property
    def jump_counts(self) -> np.ndarray:
        return np.array([s.time.j for s in self.samples], dtype=int)

    @property
    def states(self) -> np.ndarray:
        return np.array([s.state for s in self.samples])

    @property
    def modes(self) -> List[str]:
        return [s.mode for s in self.samples]

    @property
    def jump_times(self) -> List[float]:
        return [r.t for r in self.jumps]

    def final_state(self) -> np.ndarray:
        return self.samples[-1].state

    def _grid_indices(self, t0: float, dt: float, n_steps: int) -> List[int]:
        """Sample index at each grid time ``t0 + k*dt``, k = 0..n_steps.

        At a grid time that coincides with a jump the post-jump sample wins.
        """
        indices: List[int] = []
        tol = 1e-9 * max(dt, 1.0)
        idx = 0
        n = len(self.samples)
        for k in range(n_steps + 1):
            tk = t0 + k * dt
            while idx < n and self.samples[idx].time.t < tk - tol:
                idx += 1
            if idx >= n or abs(self.samples[idx].time.t - tk) > tol:
                raise ArgumentError(f"no trajectory sample at grid time {tk}")
            while idx + 1 < n and abs(self.samples[idx + 1].time.t - tk) <= tol:
                idx += 1
            indices.append(idx)
        return indices

    def grid_states(self, t0: float, dt: float, n_steps: int) -> np.ndarray:
        """States on the uniform grid, post-jump state at coincidences."""
        return np.array(
            [self.samples[i].state for i in self._grid_indices(t0, dt, n_steps)]
        )

    def grid_modes(self, t0: float, dt: float, n_steps: int) -> List[str]:
        """Mode labels on the uniform grid, post-jump label at coincidences."""
        return [self.samples[i].mode for i in self._grid_indices(t0, dt, n_steps)]

    def grid_jump_counts(self, t0: float, dt: float, n_steps: int) -> np.ndarray:
        """Jump counts on the uniform grid, post-jump count at coincidences."""
        return np.array(
            [self.samples[i].time.j for i in self._grid_indices(t0, dt, n_steps)],
            dtype=int,
        )


def _always_true(x: np.ndarray, t: float) -> bool:
    return True


def _never_margin(x: np.ndarray, t: float) -> float:
    return -np.inf


@dataclass(frozen=True)
class FlowJumpSystem:
    """The data (C, f, D, g) of a flow/jump system.

    ``flow_set`` is a boolean predicate; ``jump_set`` is a signed margin
    (negative outside the jump set, non-negative inside) so crossings can
    be localized by bisection.  Both receive ``(state, time)`` so
    exogenous inputs can be threaded through as explicit time
    dependence.  When state and time put the system in both C and D, the
    jump fires first.
    """

    dim: int
    flow_map: VectorField
    jump_set: Margin = _never_margin
    jump_map: Callable[[np.ndarray], np.ndarray] = lambda x: x
    flow_set: Predicate = _always_true
    mode_label: Callable[[np.ndarray], str] = lambda x: "flow"

    def __post_init__(self):
        if self.dim < 1:
            raise ArgumentError(f"dimension must be >= 1, got {self.dim}")


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
    """Finite modes with per-mode flows and invariants, joined by edges."""

    dim: int
    modes: Tuple[str, ...]
    flows: Mapping[str, VectorField]
    edges: Tuple[Edge, ...]
    invariants: Mapping[str, Predicate] = field(default_factory=dict)
    init: Optional[Callable[[str, np.ndarray], bool]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ArgumentError(f"dimension must be >= 1, got {self.dim}")
        if not self.modes:
            raise ArgumentError("automaton needs at least one mode")
        mode_set = set(self.modes)
        for q in self.modes:
            if q not in self.flows:
                raise ArgumentError(f"mode {q!r} has no flow")
        for e in self.edges:
            if e.source not in mode_set or e.target not in mode_set:
                raise ArgumentError(f"edge {e.label!r} references unknown modes")

    def invariant(self, mode: str) -> Predicate:
        return self.invariants.get(mode, _always_true)

    def outgoing(self, mode: str) -> List[Edge]:
        return [e for e in self.edges if e.source == mode]
