"""Extended Kalman filtering with saltation-matrix covariance transport.

The filter follows the classic two-step recursion.  Prediction advances
the mean one RK4 step and propagates covariance through the numerical
Jacobian of that one-step transition map; the correction is the standard
gain/mean/covariance update.  A filter run is a hybrid arc whose payload
is a belief: :func:`run_ekf` steps it with :class:`hdsim.simulate.Stepper`,
so the filter fires, localizes and disambiguates guards on the mean
exactly as :func:`hdsim.simulate.simulate` does on the state; a continuous
process model is one mode with no edges.  At an event the belief is
predicted to the event time, the mean passes through the reset map, and
the covariance passes through the saltation matrix, which extends the
reset Jacobian with the vector-field discontinuity across the guard
surface.  More than ``SAME_TIME_JUMP_BUDGET`` jumps at one instant
(Zeno-like chattering) raise :class:`NumericalFailureError` naming the
time, mode and edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, List, Optional, Union

import numpy as np

from .errors import ArgumentError, GrazingError, HdsimError, NumericalFailureError
from .integrate import rk4_step
from .simulate import SAME_TIME_JUMP_BUDGET, Stepper, located, quiet_overflow, require_run_args
from .systems import HybridAutomaton, JumpRecord, VectorField

JACOBIAN_STEP_SCALE = 1e-6
SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-10
TRANSVERSALITY_TOL = 1e-12
DEFAULT_P0 = 1e-3
"""Initial covariance scale of :func:`run_ekf`: P0 = p0 * I."""
LARGEST_COVARIANCE_ENTRY = np.finfo(float).max / 2
"""Largest covariance entry whose symmetrization cannot overflow."""


def symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _checked_covariance(p, name, error, symmetric=False) -> np.ndarray:
    """``p`` symmetrized, once it passed the covariance test; else ``error``.

    Every entry of ``p`` must be finite and at most
    ``LARGEST_COVARIANCE_ENTRY`` in magnitude.  With ``scale = max(1,
    max|p|)``, ``p`` must be symmetric within ``SYMMETRY_TOL * scale``
    (skipped when it is ``symmetric`` by construction) and its smallest
    eigenvalue at least ``PSD_TOL * scale``.

    A ``p`` whose diagonal entries are each at least the sum of the
    magnitudes of the other entries of their row passes without an
    eigenvalue computation: by Gershgorin's theorem its eigenvalues are
    non-negative up to rounding of order ``n * eps * scale``, far above
    ``PSD_TOL * scale``, so the verdict is the one ``eigvalsh`` gives.
    """
    largest = float(np.abs(p).max())
    if not largest <= LARGEST_COVARIANCE_ENTRY:
        raise error(
            f"{name} entries must be finite and at most "
            f"{LARGEST_COVARIANCE_ENTRY:.3e} in magnitude, got {largest:.3e}"
        )
    scale = max(1.0, largest)
    if not symmetric:
        if np.abs(p - p.T).max() > SYMMETRY_TOL * scale:
            raise error(f"{name} is not symmetric within tolerance")
        p = symmetrize(p)
    if all(2.0 * row[i] >= sum(map(abs, row)) for i, row in enumerate(p.tolist())):
        return p
    min_eig = float(np.linalg.eigvalsh(p)[0])
    if not min_eig >= PSD_TOL * scale:
        raise error(f"{name} is not PSD (min eigenvalue {min_eig:.3e})")
    return p


@dataclass
class GaussianBelief:
    """State estimate as mean and covariance.

    A belief built by a caller is fully validated: a finite mean vector and
    a finite, square covariance, symmetric within tolerance (then
    symmetrized) and positive semidefinite up to a small eigenvalue
    tolerance.  The beliefs the filter computes (:func:`ekf_predict`,
    :func:`ekf_update`, :func:`propagate_belief_through_jump`) are
    symmetric by construction and skip this; each checks that its result
    is finite, and an update also checks that it stays PSD.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        p = np.asarray(self.covariance, dtype=float)
        n = self.mean.size
        if self.mean.ndim != 1:
            raise ArgumentError("mean must be a vector")
        if p.shape != (n, n):
            raise ArgumentError(f"covariance must be ({n}, {n}), got {p.shape}")
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(p)):
            raise ArgumentError("belief entries must be finite")
        self.covariance = _checked_covariance(p, "covariance", ArgumentError)

    @classmethod
    def _computed(cls, mean: np.ndarray, covariance: np.ndarray) -> "GaussianBelief":
        """A belief the filter computed from a valid one, taken as it is."""
        belief = cls.__new__(cls)
        belief.mean = mean
        belief.covariance = covariance
        return belief

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class NoiseModel:
    """Process noise Q (applied per discrete step), measurement noise R, and H.

    R may be singular (even zero, for noiseless self-tracking studies);
    the update step raises only if the innovation covariance H P H^T + R
    itself becomes singular.  H must be finite.
    """

    q: np.ndarray
    r: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        r = np.atleast_2d(np.asarray(self.r, dtype=float))
        h = np.atleast_2d(np.array(self.h, dtype=float))
        if q.shape[0] != q.shape[1]:
            raise ArgumentError("Q must be square")
        if r.shape[0] != r.shape[1]:
            raise ArgumentError("R must be square")
        if h.shape != (r.shape[0], q.shape[0]):
            raise ArgumentError(
                f"H must be ({r.shape[0]}, {q.shape[0]}), got {h.shape}"
            )
        if not np.isfinite(h).all():
            raise ArgumentError("H entries must be finite")
        object.__setattr__(self, "q", _checked_covariance(q, "Q", ArgumentError))
        object.__setattr__(self, "r", _checked_covariance(r, "R", ArgumentError))
        object.__setattr__(self, "h", h)
        is_identity = h.shape == q.shape and np.array_equal(h, _identity(len(h)))
        object.__setattr__(self, "_h_is_identity", is_identity)

    @property
    def measurement_dim(self) -> int:
        return self.r.shape[0]


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """Read-only ``n x n`` identity shared by every update of that size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _value_and_jacobian(fn: Callable[[np.ndarray], np.ndarray], x):
    """``(fn(x), J)`` from one call of ``fn`` on the ``(n, 2n+1)`` column batch
    ``[x, x + h_i e_i, x - h_i e_i]``, ``h_i = 1e-6*max(1, |x_i|)``.

    J is the central difference of the perturbed columns.  ``fn`` acts
    column-wise (see :data:`hdsim.integrate.VectorField`), and a result of
    fewer than two dimensions is one row; one that does not broadcast to
    ``(k, 2n+1)`` raises :class:`ArgumentError`.  J is None exactly when
    the value is not finite, for the caller to report; non-finite perturbed
    columns raise :class:`NumericalFailureError`.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    step = JACOBIAN_STEP_SCALE * np.maximum(1.0, np.abs(x))
    cols = np.repeat(x[:, None], 2 * n + 1, axis=1)
    flat = cols.reshape(-1)  # (i, 1+i) is at 1 + i(2n+2), (i, 1+n+i) n places on
    flat[1::2 * n + 2] += step
    flat[n + 1::2 * n + 2] -= step
    try:
        y = np.asarray(fn(cols), dtype=float)
        if y.shape != cols.shape:
            y = np.broadcast_to(y, (y.shape[0] if y.ndim == 2 else 1, cols.shape[1]))
    except HdsimError:  # ArgumentError is a ValueError too: pass it on as is
        raise
    except (TypeError, ValueError) as exc:
        raise ArgumentError(
            f"map must act on each column of its input; on a {cols.shape} "
            f"batch: {exc}"
        ) from exc
    value = y[:, 0].copy()
    if not np.isfinite(y).all():
        if not np.isfinite(value).all():
            return value, None
        bad = ~np.isfinite(y[:, 1:]).all(axis=0)
        i = int(np.flatnonzero(bad)[0]) % n
        raise NumericalFailureError(f"map is non-finite near {x} (coordinate {i})")
    return value, (y[:, 1:n + 1] - y[:, n + 1:]) / (2.0 * step)


def numerical_jacobian(fn: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference Jacobian with per-coordinate step 1e-6*max(1, |x_i|).

    ``fn`` must act on each column of an ``(n, m)`` array (see
    :data:`hdsim.integrate.VectorField`).
    """
    value, jac = _value_and_jacobian(fn, x)
    if jac is None:
        raise NumericalFailureError(f"map is non-finite at {np.asarray(x, dtype=float)}")
    return jac


@quiet_overflow
def ekf_predict(
    belief: GaussianBelief,
    flow: VectorField,
    dt: float,
    noise: NoiseModel,
    t0: float = 0.0,
    q_scale: float = 1.0,
) -> GaussianBelief:
    """One prediction step: RK4 mean propagation, F P F^T + Q covariance.

    One RK4 step on a column batch gives both the mean and the transition
    Jacobian F, so ``flow`` must act column-wise.  ``q_scale`` lets a caller
    apportion the per-step Q across a split step (event localization
    splits a step at the jump time); it is 1 for a whole step.
    """
    require_run_args(dt=dt, t0=t0, q_scale=q_scale)
    mean_next, f_jac = _value_and_jacobian(
        lambda x: rk4_step(flow, x, t0, dt), belief.mean
    )
    if f_jac is None:
        raise NumericalFailureError(f"prediction diverged at t={t0 + dt}", time=t0 + dt)
    p_next = symmetrize(f_jac @ belief.covariance @ f_jac.T + q_scale * noise.q)
    if not np.isfinite(p_next).all():
        raise NumericalFailureError(
            f"predicted covariance overflowed at t={t0 + dt}", time=t0 + dt
        )
    return GaussianBelief._computed(mean_next, p_next)


@quiet_overflow
def ekf_update(belief: GaussianBelief, z, noise: NoiseModel) -> GaussianBelief:
    """Measurement correction: K = P H^T S^-1 with S = H P H^T + R,
    mean += K (z - H mean), P = (I - K H) P, then symmetrization.

    With an H that :class:`NoiseModel` found to be the identity, the five
    products with H are skipped: S = P + R, K = P S^-1, z - mean, (I - K) P.
    That is exact: an entry of a product with an exact identity is one term
    plus terms times 0.0, so for a finite P and mean no float changes.

    The result gets one health check: a finite mean and covariance whose
    smallest eigenvalue is at least ``PSD_TOL`` times its largest entry
    (or 1).  A failure raises :class:`NumericalFailureError`.
    """
    z = np.asarray(z, dtype=float)
    h = noise.h
    if z.shape != (h.shape[0],):
        raise ArgumentError(f"measurement must have length {h.shape[0]}")
    p = belief.covariance
    h_is_identity = getattr(noise, "_h_is_identity", False)
    if h_is_identity:
        s, p_ht, h_mean = p + noise.r, p, belief.mean
    else:
        s, p_ht, h_mean = h @ p @ h.T + noise.r, p @ h.T, h @ belief.mean
    try:
        k_gain = np.linalg.solve(s.T, p_ht.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"singular innovation covariance: {exc}") from exc
    if not np.isfinite(k_gain).all():
        raise NumericalFailureError("non-finite Kalman gain")
    mean = belief.mean + k_gain @ (z - h_mean)
    k_h = k_gain if h_is_identity else k_gain @ h
    p_post = symmetrize((_identity(belief.dim) - k_h) @ p)
    if not (np.isfinite(mean).all() and np.isfinite(p_post).all()):
        raise NumericalFailureError("updated belief is not finite")
    p_post = _checked_covariance(
        p_post, "updated covariance", NumericalFailureError, symmetric=True
    )
    return GaussianBelief._computed(mean, p_post)


def saltation_matrix(
    reset: Callable[[np.ndarray], np.ndarray],
    f_pre: VectorField,
    f_post: VectorField,
    guard_gradient: Optional[Callable[[np.ndarray, float], np.ndarray]],
    x_minus: np.ndarray,
    t: float,
    reset_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    edge: str = "",
) -> np.ndarray:
    """Build the ``(n, n)`` saltation matrix Xi at a localized jump.

    For a transversal state-dependent guard g with gradient ``grad``:

        Xi = DR + (f_post(R(x)) - DR f_pre(x)) grad^T / (grad . f_pre(x))

    For a state-independent guard (``guard_gradient`` is None or returns
    the zero vector — the exogenous, time-triggered case) the jump time
    does not vary with the state and Xi reduces to the reset Jacobian
    exactly.  The caller must hand in ``x_minus`` on the guard surface.
    A Xi that is not square or not finite raises :class:`ArgumentError`.
    """
    x_minus = np.asarray(x_minus, dtype=float)
    if reset_jacobian is not None:
        xi = np.asarray(reset_jacobian(x_minus), dtype=float)
    else:
        xi = numerical_jacobian(reset, x_minus)

    grad = None if guard_gradient is None else guard_gradient(x_minus, t)
    if grad is not None and np.any(grad):  # a state-dependent guard
        grad = np.asarray(grad, dtype=float)
        f_minus = np.asarray(f_pre(x_minus, t), dtype=float)
        denom = float(grad @ f_minus)
        if abs(denom) < TRANSVERSALITY_TOL:
            raise GrazingError(
                f"guard {edge or '?'} is grazing at t={t}: grad.f_pre = {denom:.3e}"
            )
        x_plus = np.asarray(reset(x_minus), dtype=float)
        f_plus = np.asarray(f_post(x_plus, t), dtype=float)
        xi = xi + np.outer(f_plus - xi @ f_minus, grad) / denom
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
        raise ArgumentError("saltation matrix must be square")
    if not np.all(np.isfinite(xi)):
        raise ArgumentError("saltation matrix entries must be finite")
    return xi


@quiet_overflow
def propagate_belief_through_jump(
    belief: GaussianBelief,
    reset: Callable[[np.ndarray], np.ndarray],
    xi: np.ndarray,
) -> GaussianBelief:
    """Map a belief through a jump: mean by the reset, covariance by Xi P Xi^T.

    A result that is not finite raises :class:`NumericalFailureError`.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (belief.dim, belief.dim):
        raise ArgumentError(
            f"saltation matrix is {xi.shape}, belief dimension is {belief.dim}"
        )
    mean = np.asarray(reset(belief.mean), dtype=float)
    if mean.shape != belief.mean.shape:
        raise ArgumentError("reset changed the state dimension")
    p = symmetrize(xi @ belief.covariance @ xi.T)
    if not (np.isfinite(mean).all() and np.isfinite(p).all()):
        raise NumericalFailureError("belief is not finite after the jump")
    return GaussianBelief._computed(mean, p)


@dataclass
class EkfRun:
    """Grid-aligned filter output: posterior beliefs plus jump bookkeeping."""

    times: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    modes: List[str]
    jump_counts: np.ndarray
    jumps: List[JumpRecord] = field(default_factory=list)


@quiet_overflow
def run_ekf(
    process: Union[HybridAutomaton, VectorField],
    scenario,
    measurements,
    p0: float = DEFAULT_P0,
) -> EkfRun:
    """Run the EKF over a scenario with either a hybrid or a continuous model.

    ``process`` is the hybrid automaton (explicit switching, resets, and
    saltation transport) or a blended continuous vector field ``f(x, t)``,
    which runs as the one mode ``"blended"`` with no edges.
    ``scenario`` supplies the grid (``horizon``, ``dt``), the initial state
    and mode, and the noise model; ``measurements`` is the ``(n_steps+1, m)``
    stream aligned with the grid, one row per grid time starting at t=0
    (a 1-D stream is one column).

    The filter is initialized at the true initial state with covariance
    ``p0 * I`` and corrected with the measurement at every grid time,
    including t=0.  Between two grid times the belief goes through one
    :meth:`hdsim.simulate.Stepper.advance`, whose guard scan reads the
    mean; the automaton's invariants are not checked.  Hybrid mode
    decisions replay the scenario's measured grid-voltage signal through
    the automaton guards (with hysteresis), not the estimated state.  A
    failed prediction, update or jump keeps its type and names its time,
    mode and jump edge (:func:`hdsim.simulate.located`), as does the
    ``NumericalFailureError`` of more than ``SAME_TIME_JUMP_BUDGET`` jumps at once.
    """
    n_steps = scenario.n_steps
    noise = scenario.noise
    z = np.asarray(measurements, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    if z.shape[0] < n_steps + 1:
        raise ArgumentError(
            f"measurement stream has {z.shape[0]} rows; the horizon needs "
            f"{n_steps + 1}"
        )
    if z.shape[1] != noise.measurement_dim:
        raise ArgumentError(
            f"measurement rows have length {z.shape[1]}, expected "
            f"{noise.measurement_dim}"
        )

    stepper = _BeliefStepper(process, scenario)
    stepper.x = GaussianBelief(scenario.x0, p0 * np.eye(scenario.x0.size))
    n = stepper.x.dim
    times = np.empty(n_steps + 1)
    means = np.empty((n_steps + 1, n))
    covs = np.empty((n_steps + 1, n, n))
    modes: List[str] = []
    jump_counts = np.zeros(n_steps + 1, dtype=int)
    for k in range(n_steps + 1):
        if k and not stepper.advance():  # only the same-instant budget stops it
            budget = NumericalFailureError(f"more than {SAME_TIME_JUMP_BUDGET} jumps")
            raise located(budget, stepper.t, stepper.mode, stepper.refused)
        try:
            belief = ekf_update(stepper.x, z[k], noise)
        except (ArgumentError, NumericalFailureError) as exc:
            raise located(exc, stepper.t, stepper.mode)
        # the update moved the mean: the guards enabled at it fire first
        stepper.x, stepper.guards_clear = belief, False
        times[k] = stepper.t
        means[k] = belief.mean
        covs[k] = belief.covariance
        modes.append(stepper.mode)
        jump_counts[k] = stepper.j

    return EkfRun(times, means, covs, modes, jump_counts, stepper.jumps)


class _BeliefStepper(Stepper):
    """A stepper over the scenario's grid that carries a :class:`GaussianBelief`:
    it steps by :func:`ekf_predict`, whose mean the guard scan takes as the
    step's end state, and jumps by :func:`_jump_belief`.  An automaton runs
    without invariants, initial set or total jump budget."""

    def __init__(self, process, scenario):
        if isinstance(process, HybridAutomaton):
            automaton = replace(process, invariants={}, init=None)
            mode0 = scenario.initial_mode
        else:
            automaton = HybridAutomaton(
                dim=scenario.x0.size, modes=("blended",), flows={"blended": process},
                edges=(),
            )
            mode0 = "blended"
        super().__init__(
            automaton, scenario.x0, scenario.n_steps * scenario.dt, np.inf,
            scenario.dt, mode0, 0.0, lambda *sample: None, [],
        )
        self.noise = scenario.noise

    def _predict(self, belief: GaussianBelief, t: float, t_next: float) -> GaussianBelief:
        h = t_next - t
        return ekf_predict(belief, self.flow, h, self.noise, t0=t, q_scale=h / self.dt)

    def _scan(self, belief, t, t_next, guards_clear, x_next=None):
        predicted = self._predict(belief, t, t_next) if t_next > t else belief
        _, event = super()._scan(belief.mean, t, t_next, guards_clear, predicted.mean)
        if event is None:
            return predicted, None
        t_star, edge, _ = event
        if t_star < t_next:  # else the step's prediction is the event's
            predicted = belief if t_star == t else self._predict(belief, t, t_star)
        return None, (t_star, edge, predicted)

    def _jump(self, edge, belief, t, j):
        after = _jump_belief(self.system, edge, belief, t)
        self._switch(edge, belief.mean, after.mean, t, j)
        return after


def _jump_belief(automaton, edge, belief, t):
    xi = saltation_matrix(
        edge.reset, automaton.flows[edge.source], automaton.flows[edge.target],
        edge.guard_gradient, belief.mean, t,
        reset_jacobian=edge.reset_jacobian, edge=edge.label,
    )
    return propagate_belief_through_jump(belief, edge.reset, xi)
