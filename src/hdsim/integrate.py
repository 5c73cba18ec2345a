"""Fixed-step fourth-order Runge-Kutta integration.

The whole toolkit runs on a deterministic fixed-step RK4 grid: the same
inputs always produce bit-identical trajectories, and event localization
can split a step without changing the arithmetic of neighbouring steps.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

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
    """
    if k1 is None:
        k1 = field(x, t)
    k2 = field(x + 0.5 * h * k1, t + 0.5 * h)
    k3 = field(x + 0.5 * h * k2, t + 0.5 * h)
    k4 = field(x + h * k3, t + h)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
