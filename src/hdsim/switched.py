"""Switched systems and their lift to a hybrid automaton.

A switched system pairs a family of vector fields with a piecewise-constant
switching signal.  With the signal known, it is a hybrid automaton whose
locations are the signal's segments and whose guards are its switch
instants, so :func:`hdsim.simulate.simulate`, the safety sweep and the EKF
run the lift like any other automaton.  The independent reference the lift
is checked against, a direct segment-by-segment integration, is a test
oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import ArgumentError
from .systems import Edge, HybridAutomaton, require_arg, require_args, require_finite


@dataclass(frozen=True)
class SwitchedSystem:
    """Vector fields f_1..f_N selected by a piecewise-constant signal.

    ``mode_sequence`` holds 1-based subsystem indices per segment;
    ``switch_times`` are the strictly increasing instants separating the
    segments, so ``len(mode_sequence) == len(switch_times) + 1``.  The
    signal is right-continuous: the new mode applies from its switch
    instant onwards.
    """

    dim: int
    fields: Tuple[Callable, ...]
    mode_sequence: Tuple[int, ...]
    switch_times: Tuple[float, ...] = ()

    def __post_init__(self):
        require_finite(self, ("switch_times",), sequence=True)
        require_args(type(self).__name__, dim=self.dim)
        if not self.fields:
            raise ArgumentError("at least one subsystem is required")
        if len(self.mode_sequence) != len(self.switch_times) + 1:
            raise ArgumentError(
                "mode_sequence must have one more entry than switch_times"
            )
        n = len(self.fields)
        for m in self.mode_sequence:
            require_arg("mode_sequence", m, "SwitchedSystem.mode_sequence entries")
            if not 1 <= m <= n:
                raise ArgumentError(f"mode index {m} outside 1..{n}")
        times = self.switch_times
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ArgumentError("switch instants must be strictly increasing")

    def signal(self, t: float) -> int:
        """The active subsystem index (1-based) at time ``t``."""
        return self.mode_sequence[self.segment_of(t)]

    def segment_of(self, t: float) -> int:
        """The index of the segment active at time ``t``."""
        return bisect.bisect_right(self.switch_times, t)


def lift_switched(sw: SwitchedSystem) -> HybridAutomaton:
    """Lift ``sw`` to a hybrid automaton with one location per segment.

    Location ``k``, ``"mode m (segment k)"`` for subsystem ``m``, flows by
    that subsystem's field; its edge to location ``k + 1`` has the time guard
    ``t - switch_times[k]`` and copies the state.  A run from ``t0`` starts
    in ``modes[sw.segment_of(t0)]``.
    """
    modes = tuple(f"mode {m} (segment {k})" for k, m in enumerate(sw.mode_sequence))
    edges = tuple(
        Edge(source, target, guard=lambda x, t, s=s: t - s, reset=np.copy,
             reset_jacobian=lambda x: np.eye(x.size))
        for source, target, s in zip(modes, modes[1:], sw.switch_times)
    )
    flows = {q: sw.fields[m - 1] for q, m in zip(modes, sw.mode_sequence)}
    return HybridAutomaton(dim=sw.dim, modes=modes, flows=flows, edges=edges)
