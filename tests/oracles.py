"""Independent reference implementations the tests compare ``hdsim`` against.

The package steps every model through :class:`hdsim.simulate.Stepper`.
These loops step without it, on the same fixed RK4 grid, so a test can
check the guard-localized simulation against a computation that shares
none of its event machinery:

* :func:`integrate_flow` integrates one vector field with no events;
* :func:`python_float_rk4_step` is the RK4 step written with Python-float
  coefficients, against which :func:`hdsim.integrate.rk4_step`'s 0-d
  operands must keep every bit and dtype;
* :func:`simulate_switched` integrates a switched system segment by
  segment, splitting steps at the known switch instants, which the
  lift-equivalence tests compare bitwise with the lifted simulation;
* :func:`swing_field` is the bare two-state SMIB swing field, without
  the line label the simulated system carries;
* :func:`box_muller_normals` draws the measurement-noise stream one
  normal at a time, keeping each pair's sine for the next draw;
* :func:`box_samples` draws a box sampler's states from numpy's own
  ``default_rng(seed)``;
* :func:`bisection_locate_event` localizes a guard crossing by plain
  bisection plus the regula-falsi polish, the localizer that
  :func:`hdsim.events.locate_event` replaced.

They are kept test references, not part of the library API; their
arithmetic must not change, or the bitwise comparisons stop meaning
anything.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from hdsim.errors import ArgumentError, NumericalFailureError
from hdsim.events import LOCATE_TOL, _POLISH_ITERS
from hdsim.integrate import VectorField, rk4_step
from hdsim.power import SmibParams
from hdsim.switched import SwitchedSystem
from hdsim.systems import HORIZON_REACHED, HybridTrajectory, JumpRecord


def integrate_flow(
    field: VectorField,
    x0: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
) -> List[Tuple[float, np.ndarray]]:
    """Integrate ``dx/dt = field(x, t)`` from ``t0`` to ``t1`` with fixed step ``dt``.

    Returns the dense list of ``(time, state)`` samples, starting with
    ``(t0, x0)`` and ending exactly at ``t1`` (the final step is shortened
    when ``t1 - t0`` is not an integer number of steps).

    Raises
    ------
    ArgumentError
        If ``t1 <= t0`` or ``dt <= 0``.
    NumericalFailureError
        If the state or derivative becomes non-finite; the message names
        the offending time.
    """
    if t1 <= t0:
        raise ArgumentError(f"t1 must exceed t0 (got t0={t0}, t1={t1})")
    if dt <= 0.0:
        raise ArgumentError(f"dt must be positive (got {dt})")
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError(f"non-finite initial state at t={t0}", time=t0)
    d0 = np.asarray(field(x, t0), dtype=float)
    if not np.all(np.isfinite(d0)):
        raise NumericalFailureError(f"non-finite derivative at t={t0}", time=t0)

    samples: List[Tuple[float, np.ndarray]] = [(t0, x.copy())]
    t = t0
    k = 0
    while t < t1:
        k += 1
        t_next = t0 + k * dt
        if t_next > t1 - 1e-15 * max(1.0, abs(t1)):
            t_next = t1
        h = t_next - t
        if h <= 0.0:
            break
        x = rk4_step(field, x, t, h)
        if not np.all(np.isfinite(x)):
            raise NumericalFailureError(
                f"non-finite state after step ending at t={t_next}", time=t_next
            )
        t = t_next
        samples.append((t, x.copy()))
    return samples


def python_float_rk4_step(
    field: VectorField, x, t: float, h: float, k1: Optional[np.ndarray] = None
):
    """One classic RK4 step whose coefficients are Python floats."""
    if k1 is None:
        k1 = field(x, t)
    k2 = field(x + 0.5 * h * k1, t + 0.5 * h)
    k3 = field(x + 0.5 * h * k2, t + 0.5 * h)
    k4 = field(x + h * k3, t + h)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate_switched(
    sw: SwitchedSystem,
    x0,
    horizon: float,
    dt: float,
    t0: float = 0.0,
) -> HybridTrajectory:
    """Integrate the switched system directly, segment by segment.

    Walks the same uniform grid as :func:`hdsim.simulate.simulate`, splitting
    any step that straddles a switch instant exactly at that instant, and
    records a pre/post sample pair there so the trajectory shape matches
    the lifted simulation sample for sample; the samples and jumps carry
    the lift's location and edge names.  After a switch the step goes
    on to the grid time it was heading for, however close the switch was.
    """
    if horizon <= 0.0 or dt <= 0.0:
        raise ArgumentError("horizon and dt must be positive")
    x = np.asarray(x0, dtype=float).copy()
    t = t0
    t_end = t0 + horizon
    seg = sw.segment_of(t0)

    def location(segment: int) -> str:
        return f"mode {sw.mode_sequence[segment]} (segment {segment})"

    traj = HybridTrajectory()
    j = 0
    traj.append(t, j, location(seg), x)
    k = 1
    while t < t_end - 1e-15 * max(1.0, abs(t_end)):
        t_next = min(t0 + k * dt, t_end)
        # Split at the next switch instant when it falls inside this step.
        if seg < len(sw.switch_times) and t < sw.switch_times[seg] <= t_next:
            s = sw.switch_times[seg]
            if s > t:
                x = rk4_step(sw.fields[sw.mode_sequence[seg] - 1], x, t, s - t)
                t = s
            traj.append(t, j, location(seg), x)
            traj.jumps.append(
                JumpRecord(
                    t=t,
                    j_before=j,
                    edge=f"{location(seg)}->{location(seg + 1)}",
                    state_before=x.copy(),
                    state_after=x.copy(),
                    mode_before=location(seg),
                    mode_after=location(seg + 1),
                )
            )
            seg += 1
            j += 1
            traj.append(t, j, location(seg), x)
            continue
        if t_next > t:  # a switch on the grid time itself leaves no step
            x = rk4_step(sw.fields[sw.mode_sequence[seg] - 1], x, t, t_next - t)
            t = t_next
            traj.append(t, j, location(seg), x)
        k += 1
    traj.termination = HORIZON_REACHED
    return traj


def swing_field(p: SmibParams) -> Callable[[np.ndarray, float], np.ndarray]:
    """The bare 2-state swing vector field (no line label), for oracles."""

    def flow(x, t):
        delta, omega = x
        return np.array([omega, (p.p_m - p.p_e(delta) - p.d * omega) / p.m])

    return flow


def box_muller_normals(seed: int, shape) -> np.ndarray:
    """Standard normals of ``shape`` from a seeded PCG64 stream, one at a time.

    Each draw either returns the sine kept from the last uniform pair or
    takes a new pair ``(u1, u2)``, returns ``r cos(a)`` and keeps
    ``r sin(a)``, with ``r = sqrt(-2 log(1 - u1))`` and ``a = 2 pi u2``.
    """
    uniforms = np.random.default_rng(np.random.PCG64(seed))
    out = np.empty(int(np.prod(shape)))
    spare = None
    for i in range(out.size):
        if spare is not None:
            out[i], spare = spare, None
            continue
        u1 = uniforms.random()
        u2 = uniforms.random()
        radius = math.sqrt(-2.0 * math.log(1.0 - u1))
        angle = 2.0 * math.pi * u2
        spare = radius * math.sin(angle)
        out[i] = radius * math.cos(angle)
    return out.reshape(shape)


def box_samples(lo, hi, seed: int, count: int) -> List[np.ndarray]:
    """``count`` uniform states of the box ``[lo, hi]`` from ``default_rng(seed)``."""
    lo = np.asarray(lo, dtype=float)
    width = np.asarray(hi, dtype=float) - lo
    rng = np.random.default_rng(seed)
    return [lo + width * rng.random(lo.shape) for _ in range(count)]


def bisection_locate_event(margin: Callable, t_lo: float, t_hi: float) -> Optional[float]:
    """:func:`hdsim.events.locate_event` by bisection down to ``LOCATE_TOL``.

    Same contract: the upper end of a bracket at most ``LOCATE_TOL`` wide,
    ``t_lo`` when the margin is already non-negative there and ``None``
    when it is still negative at ``t_hi``.  The bisection halves the
    bracket once per probe, about 27 probes from a 1e-2 s step, and the
    same regula-falsi polish as the library's follows it.
    """
    m_lo = float(margin(t_lo))
    if m_lo >= 0.0:
        return t_lo
    m_hi = float(margin(t_hi))
    if m_hi < 0.0:
        return None
    lo, hi = t_lo, t_hi
    while hi - lo > LOCATE_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        m_mid = float(margin(mid))
        if m_mid >= 0.0:
            hi, m_hi = mid, m_mid
        else:
            lo, m_lo = mid, m_mid
    for _ in range(_POLISH_ITERS):
        denom = m_hi - m_lo
        if denom <= 0.0:
            break
        t_star = lo - m_lo * (hi - lo) / denom
        if not lo < t_star < hi:
            break
        m_star = float(margin(t_star))
        if m_star >= 0.0:
            if t_star == hi:
                break
            hi, m_hi = t_star, m_star
        else:
            if t_star == lo:
                break
            lo, m_lo = t_star, m_star
    return hi
