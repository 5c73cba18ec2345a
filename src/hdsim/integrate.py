"""Fixed-step fourth-order Runge-Kutta integration.

The whole toolkit runs on a deterministic fixed-step RK4 grid: the same
inputs always produce bit-identical trajectories, and event localization
can split a step without changing the arithmetic of neighbouring steps.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

_FLOAT64 = np.dtype(np.float64)
_TWO = np.array(2.0)
_TWO.flags.writeable = False

VectorField = Callable[[np.ndarray, float], np.ndarray]
"""``f(x, t)``: the time derivative of the state ``x`` at time ``t``.

A field (and any map handed to
:func:`hdsim.estimation.numerical_jacobian`) acts column-wise: given an
``(n, m)`` array whose columns are states it returns the ``(n, m)`` array
of their derivatives, column by column, as well as an ``(n,)`` result for
an ``(n,)`` state.  Unpacking ``x`` by rows (``i_d, i_q, v_d, v_q = x``)
and elementwise arithmetic give this for free.  A field may evaluate a
batch with another sequence of operations than a single state, as long as
every column's floats equal its single-state evaluation; the inverter
fields of :mod:`hdsim.power` do.  The EKF prediction relies on it to
advance the mean and all ``2n`` central-difference columns in one
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

    When ``k1`` is a float64 array, the stage coefficients ``0.5*h``, ``h``,
    ``h/6`` and ``2.0`` enter as 0-d float64 arrays, which numpy takes
    without converting a Python float on every operation (NEP 50); against
    float64 and integer stages they give the Python floats' bits.  Any
    other ``k1`` (float32, integers, a scalar) keeps the Python floats, so
    every state and field gives the bits and dtype of the plain formula.
    """
    if k1 is None:
        k1 = field(x, t)
    half, whole, sixth, two = 0.5 * h, h, h / 6.0, 2.0
    if type(k1) is np.ndarray and k1.dtype is _FLOAT64:
        half, whole, sixth, two = np.array(half), np.array(whole), np.array(sixth), _TWO
    k2 = field(x + half * k1, t + 0.5 * h)
    k3 = field(x + half * k2, t + 0.5 * h)
    k4 = field(x + whole * k3, t + h)
    return x + sixth * (k1 + two * k2 + two * k3 + k4)
