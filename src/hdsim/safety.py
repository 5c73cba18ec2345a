"""Sampling-based safety falsification.

This checker simulates finitely many sampled initial conditions and
reports the first trajectory that enters the unsafe set.  It can only
falsify: "no counterexample found" is evidence, not a proof, since no
over-approximation of the reachable set is computed.

The samples are advanced together, in chunks of ``SWEEP_CHUNK``: each
grid step is one RK4 step of the batch of event-free columns per mode
present, followed by one column-wise guard, ``unsafe`` and invariant
evaluation.  A batch that is the whole chunk steps the chunk's state
array itself, with no gather of its columns.
Only a column whose guard crossed (or whose state turned non-finite)
goes through the scalar event path of :class:`hdsim.simulate.Stepper`,
so every column follows exactly the trajectory :func:`simulate` gives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ._pcg64 import PCG64
from .errors import ArgumentError
from .integrate import rk4_step
from .simulate import Stepper, next_grid_time, quiet_overflow, simulate
from .systems import FlowJumpSystem, HybridAutomaton, HybridTrajectory, float_array, require_args

NO_COUNTEREXAMPLE = "no-counterexample-found"
UNSAFE = "unsafe"

SWEEP_CHUNK = 1024
"""Samples drawn and advanced together; bounds the sweep's memory."""


@dataclass
class SafetyVerdict:
    status: str
    samples_checked: int
    witness: Optional[HybridTrajectory] = None
    witness_time: Optional[float] = None
    witness_initial_state: Optional[np.ndarray] = None

    @property
    def unsafe(self) -> bool:
        return self.status == UNSAFE


def box_sampler(lo, hi, seed: int) -> Callable[[], np.ndarray]:
    """Uniform sampler over the axis-aligned box ``[lo, hi]``, seeded.

    ``seed`` must be a non-negative integer.  The draws are those of
    numpy's ``default_rng(seed).random(lo.shape)``, bit for bit.
    """
    finite = "box bounds and their width hi - lo must be finite"
    try:
        lo, hi = float_array(lo), float_array(hi)
    except (TypeError, ValueError, OverflowError):
        raise ArgumentError(finite) from None
    if lo.shape != hi.shape or np.any(hi < lo):
        raise ArgumentError("box bounds must have equal shape with hi >= lo")
    with np.errstate(over="ignore"):
        width = hi - lo
    if not (np.isfinite(lo).all() and np.isfinite(width).all()):
        raise ArgumentError(finite)
    uniforms = PCG64(seed)

    def sample() -> np.ndarray:
        return lo + width * np.array(uniforms.random(lo.size)).reshape(lo.shape)

    return sample


@quiet_overflow
def check_safety(
    system: Union[FlowJumpSystem, HybridAutomaton],
    init_sampler: Callable,
    unsafe: Callable[[np.ndarray], bool],
    horizon: float,
    samples: int,
    dt: float,
    max_jumps: int = 100,
    mode0: Optional[str] = None,
) -> SafetyVerdict:
    """Falsify a safety property by simulating sampled initial states.

    ``init_sampler`` returns an initial state per call; for an automaton
    it may return a ``(mode, state)`` pair when the mode varies (a tuple
    of two is that pair only when its first entry is a ``str``).  It is
    called in chunks of ``SWEEP_CHUNK`` draws.  ``unsafe`` is a predicate
    on the continuous state, evaluated at every recorded sample including
    localized event times.  It acts column-wise like the system's flows,
    guard margins and invariants: given an ``(n, m)`` batch of states it
    returns the ``m`` per-column results, each equal to its single-state
    result.  A result of any other shape (a constant, or a reduction such
    as ``np.linalg.norm(x[:2]) < r``) makes that step be redone one state
    at a time: still the right verdict, only slower.  Guard margins and
    invariants may return one scalar for every column (a time-only guard),
    so for them a reduction over the batch gives silently wrong verdicts.
    A sweep left with one sample still running finishes it on its own.

    The verdict is the one a sample-by-sample loop over :func:`simulate`
    gives: the lowest sample index that is unsafe, or that raised.  The
    unsafe sample is simulated again on its own to build the witness, and
    a sample that raised is simulated again so that the same exception
    surfaces, carrying its partial trajectory.
    """
    require_args(samples=samples, horizon=horizon, dt=dt, max_jumps=max_jumps)
    is_automaton = isinstance(system, HybridAutomaton)
    for start in range(0, samples, SWEEP_CHUNK):
        draws: List[Tuple[Optional[str], object]] = []
        draw_error = None
        for _ in range(min(SWEEP_CHUNK, samples - start)):
            try:
                drawn = init_sampler()
            except Exception as exc:  # surfaces after the lower samples
                draw_error = exc
                break
            pair = isinstance(drawn, tuple) and len(drawn) == 2
            if is_automaton and pair and isinstance(drawn[0], str):
                draws.append(drawn)
            else:
                draws.append((mode0, drawn))
        found = _sweep(system, draws, unsafe, horizon, max_jumps, dt)
        if found is None:
            if draw_error is not None:
                raise draw_error
            continue
        i, error = found
        m0, x0 = draws[i]
        traj = simulate(system, x0, horizon, max_jumps, dt, mode0=m0)
        for t, x in zip(traj.times.tolist(), traj.states):
            if unsafe(x):
                return SafetyVerdict(
                    status=UNSAFE,
                    samples_checked=start + i + 1,
                    witness=traj,
                    witness_time=t,
                    witness_initial_state=np.asarray(x0, dtype=float),
                )
        raise ArgumentError(
            f"sample {start + i} was unsafe or raised in the sweep but not on "
            "its own: the system or the unsafe predicate is not column-wise"
        ) from error
    return SafetyVerdict(status=NO_COUNTEREXAMPLE, samples_checked=samples)


def _sweep(
    system: Union[FlowJumpSystem, HybridAutomaton],
    draws: List[Tuple[Optional[str], object]],
    unsafe: Callable[[np.ndarray], bool],
    horizon: float,
    max_jumps: int,
    dt: float,
) -> Optional[Tuple[int, Optional[Exception]]]:
    """Advance the drawn samples together up to the first one decided.

    Returns ``(i, error)`` for the lowest index ``i`` that is unsafe
    (``error`` is ``None``) or raised ``error``, or ``None`` when every
    sample ran to its end safely.  A decided column retires every column
    above it at once.
    """
    m = len(draws)
    steppers: List[Stepper] = []
    errors: Dict[int, Exception] = {}
    running = np.zeros(m, dtype=bool)  # the columns at the sweep's grid time
    X = np.zeros((system.dim, m))
    modes = system.modes if isinstance(system, HybridAutomaton) else ()
    index = {q: i for i, q in enumerate(modes)}  # empty for a flow/jump system
    group = np.zeros(m, dtype=int)  # index[mode] of each column (automata)
    best = m  # lowest decided column so far

    def decide(c: int) -> None:
        nonlocal best
        best = min(best, c)
        running[best:] = False

    def run(c: int, t: float, x_next=None, to_end: bool = False) -> None:
        # the scalar path: column c from (X[:, c], t) through its events to
        # the sweep's next grid time
        s = steppers[c]
        s.x, s.t = X[:, c].copy(), t
        try:
            stepping = s.advance(x_next, to_end)
        except Exception as exc:  # surfaces after the lower samples
            errors[c] = exc
            decide(c)
            return
        if best <= c:  # the sink met an unsafe sample
            return
        running[c] = stepping
        if stepping:
            X[:, c] = s.x
            if index:
                group[c] = index[s.mode]

    def batch_step(cols: np.ndarray, t: float, t_next: float) -> None:
        if cols.size == 0:
            return
        s = steppers[cols[0]]
        # the whole chunk steps X itself: a field never writes into its input
        # (integrate.VectorField), so X holds the states at t until written
        whole = cols.size == m
        try:
            x_next = rk4_step(s.flow, X if whole else X[:, cols], t, t_next - t)
            clear = np.isfinite(x_next).all(axis=0)
            for e in s.edges:
                clear &= np.asarray(e.guard(x_next, t_next)) < 0.0
            all_clear = clear.all()
            if all_clear:
                flowing, x_flow = cols, x_next
            else:
                flowing, x_flow = cols[clear], x_next[:, clear]
            bad = np.asarray(unsafe(x_flow), dtype=bool)
            inside = np.asarray(s.invariant(x_flow, t_next), dtype=bool)
            batched = bad.shape == flowing.shape
        except Exception:
            batched = False
        if not batched:
            # redo the step column by column, so that an error belongs to
            # the sample that raised it and an ``unsafe`` that gave no
            # per-column answer is asked one state at a time
            x_next, clear, all_clear = None, np.zeros(cols.size, dtype=bool), False
        else:
            if whole and all_clear:
                X[...] = x_flow
            else:
                X[:, flowing] = x_flow
            if not inside.all():  # left the flow set
                running[flowing[~np.broadcast_to(inside, flowing.shape)]] = False
            if bad.any():
                decide(flowing[bad][0])
        if all_clear:
            return
        for k in (~clear).nonzero()[0]:
            c = cols[k]
            if c < best:
                run(c, t, None if x_next is None else x_next[:, k])

    _, t = next_grid_time(0.0, 0.0, dt, horizon)
    for c, (m0, x0) in enumerate(draws):

        def sink(t, j, mode, x, c=c):
            if unsafe(x):
                decide(c)

        try:
            steppers.append(Stepper(system, x0, horizon, max_jumps, dt, m0, 0.0, sink))
        except Exception as exc:
            errors[c] = exc
            decide(c)
        if best <= c:
            break
        X[:, c] = steppers[c].x  # run hands X[:, c] to the stepper
        run(c, 0.0)  # the first step also fires the guards enabled at t = 0
        if best <= c:
            break

    while True:
        cols = running[:best].nonzero()[0]
        at_end, t_next = next_grid_time(t, 0.0, dt, horizon)
        if at_end or cols.size == 0:
            break  # at the horizon every column is done
        if cols.size == 1:
            # a lone column costs less on its own than as a batch of one
            run(cols[0], t, to_end=True)
            break
        # the modes at t, before any column of this step jumps, ascending: a
        # column decided in one mode retires the higher columns of the next
        present = np.bincount(group[cols]).nonzero()[0] if index else ()
        if len(present) <= 1:
            batch_step(cols, t, t_next)  # one mode: every column, no mask
        else:
            g = group[cols]
            for q in present:
                batch_step(cols[(g == q) & (cols < best)], t, t_next)
        t = t_next
    if best == m:
        return None
    return int(best), errors.get(best)
