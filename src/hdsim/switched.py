"""Switched systems and their flow/jump lift.

A switched system pairs a family of vector fields with a piecewise-constant
switching signal.  The lift augments the state with the active segment
index: the flow leaves the index constant and a time-triggered jump
increments it at each switch instant, which reproduces the switched
dynamics inside the flow/jump formalism, so :func:`hdsim.simulate.simulate`
steps it like any other hybrid system.  The independent reference the
lift is checked against, a direct segment-by-segment integration, is a
test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import ArgumentError
from .systems import FlowJumpSystem, is_integer, require_dim, require_finite


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
        require_dim(self)
        if not self.fields:
            raise ArgumentError("at least one subsystem is required")
        if len(self.mode_sequence) != len(self.switch_times) + 1:
            raise ArgumentError(
                "mode_sequence must have one more entry than switch_times"
            )
        n = len(self.fields)
        for m in self.mode_sequence:
            if not is_integer(m):
                raise ArgumentError(
                    f"SwitchedSystem.mode_sequence entries must be integers, got {m!r}"
                )
            if not 1 <= m <= n:
                raise ArgumentError(f"mode index {m} outside 1..{n}")
        times = self.switch_times
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ArgumentError("switch instants must be strictly increasing")

    def signal(self, t: float) -> int:
        """The active subsystem index (1-based) at time ``t``."""
        return self.mode_sequence[bisect.bisect_right(self.switch_times, t)]

    def segment_of(self, t: float) -> int:
        return bisect.bisect_right(self.switch_times, t)


def lift_switched(sw: SwitchedSystem) -> FlowJumpSystem:
    """Lift a switched system to a flow/jump system over (z, segment).

    The augmented state appends the current segment index; the jump set is
    the time margin ``t - next_switch_instant`` and the jump map advances
    the segment while leaving the continuous state untouched.  The flow and
    the jump margin act on each column of a state batch (the fields must
    too): each column follows the field of its own segment.  A segment
    label outside the segments (it rounds below 0 or past the last) is an
    :class:`ArgumentError` from the flow, the jump margin and the mode label.
    """
    n = sw.dim
    fields = [sw.fields[m - 1] for m in sw.mode_sequence]
    next_switch = np.append(np.asarray(sw.switch_times, dtype=float), np.inf)

    def segment(x: np.ndarray) -> np.ndarray:
        """The segment index of ``x``, one per column of a batch."""
        label = np.rint(x[n])
        inside = (label >= 0) & (label < len(fields))
        if not np.all(inside):
            bad = float(np.extract(~inside, x[n])[0])
            raise ArgumentError(f"segment label {bad} outside 0..{len(fields) - 1}")
        return label.astype(int)

    def flow_map(x: np.ndarray, t: float) -> np.ndarray:
        seg = segment(x)
        out = np.zeros_like(x, dtype=float)
        present = np.bincount(np.ravel(seg)).nonzero()[0]
        if present.size == 1:  # a single state, or a batch in one segment
            out[:n] = fields[present[0]](x[:n], t)
            return out
        for s in present:
            cols = seg == s
            out[:n, cols] = fields[s](x[:n, cols], t)
        return out

    def jump_set(x: np.ndarray, t: float) -> float:
        return t - next_switch[segment(x)]

    def jump_map(x: np.ndarray) -> np.ndarray:
        out = x.copy()
        out[n] = round(x[n]) + 1.0
        return out

    def mode_label(x: np.ndarray) -> str:
        return f"mode {sw.mode_sequence[int(segment(x))]}"

    return FlowJumpSystem(
        dim=n + 1,
        flow_map=flow_map,
        jump_set=jump_set,
        jump_map=jump_map,
        mode_label=mode_label,
    )


def lift_state(sw: SwitchedSystem, z0, t0: float = 0.0) -> np.ndarray:
    """Initial augmented state for the lift of ``sw`` starting at ``t0``."""
    z0 = np.asarray(z0, dtype=float)
    return np.concatenate([z0, [float(sw.segment_of(t0))]])
