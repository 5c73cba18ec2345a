"""Fixed-step fourth-order Runge-Kutta integration.

The whole toolkit runs on a deterministic fixed-step RK4 grid: the same
inputs always produce bit-identical trajectories, and event localization
can split a step without changing the arithmetic of neighbouring steps.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ArgumentError, NumericalFailureError

VectorField = Callable[[np.ndarray, float], np.ndarray]
"""``f(x, t)``: the time derivative of the state ``x`` at time ``t``.

A field (and any map handed to
:func:`hdsim.estimation.numerical_jacobian`) acts column-wise: given an
``(n, m)`` array whose columns are states it returns the ``(n, m)`` array
of their derivatives, column by column, as well as an ``(n,)`` result for
an ``(n,)`` state.  Unpacking ``x`` by rows (``i_d, i_q, v_d, v_q = x``)
and elementwise arithmetic give this for free.  The EKF prediction relies
on it to advance the mean and all ``2n`` central-difference columns in one
:func:`rk4_step`.  A reset map takes single states; it meets a column batch
only through ``numerical_jacobian``, when its edge has no
``reset_jacobian``.

A field must also be a deterministic, side-effect-free function of
``(x, t)``: event localization reuses a computed first stage for every
trial step and a computed state for every repeated query time.
"""


def rk4_step(
    field: VectorField,
    x: np.ndarray,
    t: float,
    h: float,
    k1: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Advance ``x`` by one classic RK4 step of size ``h`` starting at time ``t``.

    ``k1`` is ``field(x, t)`` when the caller already holds it; it does not
    depend on ``h``, so several steps from one ``(x, t)`` can share it.
    """
    if k1 is None:
        k1 = field(x, t)
    k2 = field(x + 0.5 * h * k1, t + 0.5 * h)
    k3 = field(x + 0.5 * h * k2, t + 0.5 * h)
    k4 = field(x + h * k3, t + h)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
