"""Extended Kalman filtering with saltation-matrix covariance transport.

The filter follows the classic two-step recursion.  Prediction advances
the mean one RK4 step and propagates covariance through the numerical
Jacobian of that one-step transition map; the correction is the standard
gain/mean/covariance update.  When the process model is a hybrid
automaton, the mean moves through the simulator's stepping core
(:func:`hdsim.simulate.next_event`), so the filter fires, localizes and
disambiguates guards exactly as :func:`hdsim.simulate.simulate` does.
At an event the belief is predicted to the event time, the mean passes
through the reset map, and the covariance passes through the saltation
matrix, which extends the reset Jacobian with the vector-field
discontinuity across the guard surface.  More than
``SAME_TIME_JUMP_BUDGET`` jumps at one instant (Zeno-like chattering)
raise :class:`NumericalFailureError` naming the time, mode and edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from .errors import ArgumentError, GrazingError, HdsimError, NumericalFailureError
from .integrate import rk4_step
from .simulate import SAME_TIME_JUMP_BUDGET, next_event
from .systems import (
    HybridAutomaton,
    HybridTrajectory,
    JumpRecord,
    VectorField,
)

JACOBIAN_STEP_SCALE = 1e-6
SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-10
TRANSVERSALITY_TOL = 1e-12
DEFAULT_P0 = 1e-3
"""Initial covariance scale of :func:`run_ekf`: P0 = p0 * I."""


def symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


@dataclass
class GaussianBelief:
    """State estimate as mean and covariance.

    A belief built by a caller is fully validated: a finite mean vector and
    a finite, square covariance, symmetric within tolerance (then
    symmetrized) and positive semidefinite up to a small eigenvalue
    tolerance.  The beliefs the filter computes (:func:`ekf_predict`,
    :func:`ekf_update`) are symmetric by construction and skip this; each
    update ends with one health check of its result instead.
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
        scale = max(1.0, float(np.max(np.abs(p))))
        if np.max(np.abs(p - p.T)) > SYMMETRY_TOL * scale:
            raise ArgumentError("covariance is not symmetric within tolerance")
        p = symmetrize(p)
        min_eig = float(np.linalg.eigvalsh(p)[0])
        if min_eig < PSD_TOL * scale:
            raise ArgumentError(
                f"covariance is not PSD (min eigenvalue {min_eig:.3e})"
            )
        self.covariance = p

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
    itself becomes singular.
    """

    q: np.ndarray
    r: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        r = np.atleast_2d(np.asarray(self.r, dtype=float))
        h = np.atleast_2d(np.asarray(self.h, dtype=float))
        if q.shape[0] != q.shape[1]:
            raise ArgumentError("Q must be square")
        if r.shape[0] != r.shape[1]:
            raise ArgumentError("R must be square")
        if h.shape != (r.shape[0], q.shape[0]):
            raise ArgumentError(
                f"H must be ({r.shape[0]}, {q.shape[0]}), got {h.shape}"
            )
        for name, m in (("Q", q), ("R", r)):
            scale = max(1.0, float(np.max(np.abs(m))))
            if np.max(np.abs(m - m.T)) > SYMMETRY_TOL * scale:
                raise ArgumentError(f"{name} must be symmetric")
            if float(np.linalg.eigvalsh(symmetrize(m))[0]) < PSD_TOL * scale:
                raise ArgumentError(f"{name} must be positive semidefinite")
        object.__setattr__(self, "q", symmetrize(q))
        object.__setattr__(self, "r", symmetrize(r))
        object.__setattr__(self, "h", h)

    @property
    def state_dim(self) -> int:
        return self.q.shape[0]

    @property
    def measurement_dim(self) -> int:
        return self.r.shape[0]


def _value_and_jacobian(fn: Callable[[np.ndarray], np.ndarray], x):
    """``(fn(x), J)`` from one call of ``fn`` on the ``(n, 2n+1)`` column batch
    ``[x, x + h_i e_i, x - h_i e_i]``, ``h_i = 1e-6*max(1, |x_i|)``.

    J is the central difference of the perturbed columns.  ``fn`` acts
    column-wise (see :data:`hdsim.integrate.VectorField`), and a result of
    fewer than two dimensions is one row; one that does not broadcast to
    ``(k, 2n+1)`` raises :class:`ArgumentError`.  A non-finite value comes
    back with J = None for the caller to report; non-finite perturbed
    columns raise :class:`NumericalFailureError`.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    step = JACOBIAN_STEP_SCALE * np.maximum(1.0, np.abs(x))
    cols = np.repeat(x[:, None], 2 * n + 1, axis=1)
    diag = np.arange(n)
    cols[diag, diag + 1] += step
    cols[diag, diag + 1 + n] -= step
    try:
        y = np.asarray(fn(cols), dtype=float)
        if y.shape != cols.shape:
            y = np.broadcast_to(y, (y.shape[0] if y.ndim == 2 else 1, cols.shape[1]))
    except HdsimError:  # ArgumentError is a ValueError too: pass it on as is
        raise
    except ValueError as exc:
        raise ArgumentError(
            f"map must act on each column of its input; on a {cols.shape} "
            f"batch: {exc}"
        ) from exc
    value = y[:, 0].copy()
    if not np.all(np.isfinite(y)):
        if not np.all(np.isfinite(value)):
            return value, None
        bad = ~np.all(np.isfinite(y[:, 1:]), axis=0)
        i = int(np.flatnonzero(bad)[0]) % n
        raise NumericalFailureError(f"map is non-finite near {x} (coordinate {i})")
    return value, (y[:, 1:n + 1] - y[:, n + 1:]) / (2.0 * step)


def numerical_jacobian(fn: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference Jacobian with per-coordinate step 1e-6*max(1, |x_i|).

    ``fn`` must act on each column of an ``(n, m)`` array (see
    :data:`hdsim.integrate.VectorField`).
    """
    value, jac = _value_and_jacobian(fn, x)
    if not np.all(np.isfinite(value)):
        raise NumericalFailureError(f"map is non-finite at {np.asarray(x, dtype=float)}")
    return jac


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
    if dt <= 0.0:
        raise ArgumentError(f"dt must be positive, got {dt}")
    mean_next, f_jac = _value_and_jacobian(
        lambda x: rk4_step(flow, x, t0, dt), belief.mean
    )
    if not np.all(np.isfinite(mean_next)):
        raise NumericalFailureError(f"prediction diverged at t={t0 + dt}", time=t0 + dt)
    with np.errstate(over="ignore", invalid="ignore"):
        p_next = symmetrize(f_jac @ belief.covariance @ f_jac.T + q_scale * noise.q)
    if not np.isfinite(p_next).all():
        raise NumericalFailureError(
            f"predicted covariance overflowed at t={t0 + dt}", time=t0 + dt
        )
    return GaussianBelief._computed(mean_next, p_next)


def ekf_update(belief: GaussianBelief, z, noise: NoiseModel) -> GaussianBelief:
    """Measurement correction: K = P H^T S^-1, mean += K innovation,
    P = (I - K H) P, then symmetrization.

    The result gets one health check: a finite mean and covariance whose
    smallest eigenvalue is at least ``PSD_TOL`` times its largest entry
    (or 1).  A failure raises :class:`NumericalFailureError`.
    """
    z = np.asarray(z, dtype=float)
    h = noise.h
    if z.shape != (h.shape[0],):
        raise ArgumentError(f"measurement must have length {h.shape[0]}")
    p = belief.covariance
    s = h @ p @ h.T + noise.r
    try:
        k_gain = np.linalg.solve(s.T, (p @ h.T).T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"singular innovation covariance: {exc}") from exc
    if not np.all(np.isfinite(k_gain)):
        raise NumericalFailureError("non-finite Kalman gain")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = belief.mean + k_gain @ (z - h @ belief.mean)
        p_post = symmetrize((np.eye(belief.dim) - k_gain @ h) @ p)
    if not (np.isfinite(mean).all() and np.isfinite(p_post).all()):
        raise NumericalFailureError("updated belief is not finite")
    scale = max(1.0, float(np.max(np.abs(p_post))))
    min_eig = float(np.linalg.eigvalsh(p_post)[0])
    if min_eig < PSD_TOL * scale:
        raise NumericalFailureError(
            f"updated covariance is not PSD (min eigenvalue {min_eig:.3e})"
        )
    return GaussianBelief._computed(mean, p_post)


@dataclass(frozen=True)
class SaltationMatrix:
    """First-order trajectory sensitivity across one jump."""

    matrix: np.ndarray
    jump_time: float
    edge: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ArgumentError("saltation matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ArgumentError("saltation matrix entries must be finite")
        object.__setattr__(self, "matrix", m)


def saltation_matrix(
    reset: Callable[[np.ndarray], np.ndarray],
    f_pre: VectorField,
    f_post: VectorField,
    guard_gradient: Optional[Callable[[np.ndarray, float], np.ndarray]],
    x_minus: np.ndarray,
    t: float,
    reset_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    edge: str = "",
) -> SaltationMatrix:
    """Build the saltation matrix at a localized jump.

    For a transversal state-dependent guard g with gradient ``grad``:

        Xi = DR + (f_post(R(x)) - DR f_pre(x)) grad^T / (grad . f_pre(x))

    For a state-independent guard (``guard_gradient`` is None or returns
    the zero vector — the exogenous, time-triggered case) the jump time
    does not vary with the state and Xi reduces to the reset Jacobian
    exactly.  The caller must hand in ``x_minus`` on the guard surface.
    """
    x_minus = np.asarray(x_minus, dtype=float)
    if reset_jacobian is not None:
        d_reset = np.asarray(reset_jacobian(x_minus), dtype=float)
    else:
        d_reset = numerical_jacobian(reset, x_minus)

    if guard_gradient is None:
        return SaltationMatrix(d_reset, jump_time=t, edge=edge)
    grad = np.asarray(guard_gradient(x_minus, t), dtype=float)
    if not np.any(grad):
        return SaltationMatrix(d_reset, jump_time=t, edge=edge)

    f_minus = np.asarray(f_pre(x_minus, t), dtype=float)
    denom = float(grad @ f_minus)
    if abs(denom) < TRANSVERSALITY_TOL:
        raise GrazingError(
            f"guard {edge or '?'} is grazing at t={t}: grad.f_pre = {denom:.3e}"
        )
    f_plus = np.asarray(f_post(np.asarray(reset(x_minus), dtype=float), t), dtype=float)
    xi = d_reset + np.outer(f_plus - d_reset @ f_minus, grad) / denom
    return SaltationMatrix(xi, jump_time=t, edge=edge)


def propagate_belief_through_jump(
    belief: GaussianBelief,
    reset: Callable[[np.ndarray], np.ndarray],
    xi: SaltationMatrix,
) -> GaussianBelief:
    """Map a belief through a jump: mean by the reset, covariance by Xi P Xi^T."""
    m = xi.matrix
    if m.shape != (belief.dim, belief.dim):
        raise ArgumentError(
            f"saltation matrix is {m.shape}, belief dimension is {belief.dim}"
        )
    mean = np.asarray(reset(belief.mean), dtype=float)
    if mean.shape != belief.mean.shape:
        raise ArgumentError("reset changed the state dimension")
    p = symmetrize(m @ belief.covariance @ m.T)
    return GaussianBelief(mean, p)


@dataclass
class EkfRun:
    """Grid-aligned filter output: posterior beliefs plus jump bookkeeping."""

    times: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    modes: List[str]
    jump_counts: np.ndarray
    jumps: List[JumpRecord] = field(default_factory=list)

    def trajectory(self) -> HybridTrajectory:
        """Estimate trajectory on the hybrid time domain (with jump records)."""
        traj = HybridTrajectory()
        jump_iter = iter(self.jumps)
        pending = next(jump_iter, None)
        for k, t in enumerate(self.times):
            while pending is not None and pending.t <= t:
                traj.append(pending.t, pending.j_before, pending.mode_before,
                            pending.state_before)
                traj.jumps.append(pending)
                traj.append(pending.t, pending.j_before + 1, pending.mode_after,
                            pending.state_after)
                pending = next(jump_iter, None)
            traj.append(float(t), int(self.jump_counts[k]), self.modes[k],
                        self.means[k])
        return traj


def run_ekf(
    process: Union[HybridAutomaton, VectorField],
    scenario,
    measurements,
    p0: float = DEFAULT_P0,
) -> EkfRun:
    """Run the EKF over a scenario with either a hybrid or a continuous model.

    ``process`` is the hybrid automaton (explicit switching, resets, and
    saltation transport) or a blended continuous vector field ``f(x, t)``.
    ``scenario`` supplies the grid (``horizon``, ``dt``), the initial state
    and mode, and the noise model; ``measurements`` is the ``(n_steps+1, m)``
    stream aligned with the grid, one row per grid time starting at t=0.

    The filter is initialized at the true initial state with covariance
    ``p0 * I`` and corrected with the measurement at every grid time,
    including t=0.  Hybrid mode decisions replay the scenario's measured
    grid-voltage signal through the automaton guards (with hysteresis),
    not the estimated state.  Guards fire as in
    :func:`hdsim.simulate.next_event`; more than ``SAME_TIME_JUMP_BUDGET``
    jumps at one instant raise :class:`NumericalFailureError`, and so does
    an update that fails its health check, naming the grid time and mode.
    """
    n_steps = scenario.n_steps
    dt = scenario.dt
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

    hybrid = isinstance(process, HybridAutomaton)
    if hybrid:
        mode = scenario.initial_mode
        flow = process.flows[mode]
    else:
        mode = "blended"
        flow = process

    belief = GaussianBelief(scenario.x0, p0 * np.eye(scenario.x0.size))
    belief = _update_at(belief, z[0], noise, 0.0, mode)

    times = np.empty(n_steps + 1)
    means = np.empty((n_steps + 1, belief.dim))
    covs = np.empty((n_steps + 1, belief.dim, belief.dim))
    modes: List[str] = []
    jump_counts = np.zeros(n_steps + 1, dtype=int)
    jumps: List[JumpRecord] = []
    times[0] = 0.0
    means[0] = belief.mean
    covs[0] = belief.covariance
    modes.append(mode)
    j = 0
    same_t_jumps = 0

    for k in range(1, n_steps + 1):
        t_cur = (k - 1) * dt
        t_k = k * dt
        while hybrid:
            # Guards enabled at (mean, t_cur) fire before any prediction.
            # Otherwise the prediction's mean is the step's RK4 end state,
            # which the guard scan takes as is; at an event it is dropped.
            edges = process.outgoing(mode)
            _, event = next_event(edges, flow, belief.mean, t_cur, t_cur)
            if event is None and t_k > t_cur:
                predicted = ekf_predict(
                    belief, flow, t_k - t_cur, noise,
                    t0=t_cur, q_scale=(t_k - t_cur) / dt,
                )
                _, event = next_event(
                    edges, flow, belief.mean, t_cur, t_k,
                    guards_clear=True, x_next=predicted.mean,
                )
                if event is None:
                    belief, t_cur, same_t_jumps = predicted, t_k, 0
            if event is None:
                break
            t_star, edge, _ = event
            if t_star > t_cur:
                belief = ekf_predict(
                    belief, flow, t_star - t_cur, noise,
                    t0=t_cur, q_scale=(t_star - t_cur) / dt,
                )
                t_cur = t_star
                same_t_jumps = 0
            if same_t_jumps >= SAME_TIME_JUMP_BUDGET:
                raise NumericalFailureError(
                    f"more than {SAME_TIME_JUMP_BUDGET} jumps at t={t_cur} "
                    f"in mode {mode!r}, next edge {edge.label!r}",
                    time=t_cur,
                )
            belief, mode, flow = _jump_belief(
                process, edge, belief, mode, t_cur, jumps, j
            )
            j += 1
            same_t_jumps += 1
        if t_k > t_cur:
            belief = ekf_predict(
                belief, flow, t_k - t_cur, noise,
                t0=t_cur, q_scale=(t_k - t_cur) / dt,
            )
            same_t_jumps = 0
        belief = _update_at(belief, z[k], noise, t_k, mode)
        times[k] = t_k
        means[k] = belief.mean
        covs[k] = belief.covariance
        modes.append(mode)
        jump_counts[k] = j

    return EkfRun(times, means, covs, modes, jump_counts, jumps)


def _update_at(belief, z, noise, t, mode):
    try:
        return ekf_update(belief, z, noise)
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"{exc} at t={t} in mode {mode!r}", time=t) from exc


def _jump_belief(automaton, edge, belief, mode, t, jumps, j):
    f_pre = automaton.flows[mode]
    f_post = automaton.flows[edge.target]
    xi = saltation_matrix(
        edge.reset, f_pre, f_post, edge.guard_gradient, belief.mean, t,
        reset_jacobian=edge.reset_jacobian, edge=edge.label,
    )
    mean_before = belief.mean.copy()
    belief = propagate_belief_through_jump(belief, edge.reset, xi)
    jumps.append(
        JumpRecord(
            t=t,
            j_before=j,
            edge=edge.label,
            state_before=mean_before,
            state_after=belief.mean.copy(),
            mode_before=mode,
            mode_after=edge.target,
        )
    )
    return belief, edge.target, automaton.flows[edge.target]
