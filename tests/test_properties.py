"""Randomized structural invariants, fixed seeds.

Each property runs on at least 100 freshly drawn instances.  The
generators only produce well-posed systems (decaying linear fields,
strictly increasing switch schedules) so failures indicate semantics
bugs, not degenerate inputs.
"""

import numpy as np
import pytest

from hdsim import (
    ArgumentError,
    FlowJumpSystem,
    HybridTrajectory,
    SwitchedSystem,
    lift_switched,
    simulate,
)

from oracles import simulate_switched


def random_switched_system(rng):
    n = int(rng.integers(1, 4))
    n_modes = int(rng.integers(1, 6))  # <= 5 modes
    fields = []
    for _ in range(n_modes):
        a = rng.standard_normal((n, n))
        a = a - (np.abs(a).sum() + 1.0) * np.eye(n)  # strictly diagonally stable
        fields.append(lambda x, t, a=a: a @ x)
    n_switches = int(rng.integers(0, 11))  # <= 10 switches
    times = np.sort(rng.random(n_switches)) * 0.25 + 1e-3
    times = np.unique(times)
    seq = rng.integers(1, n_modes + 1, size=times.size + 1)
    return SwitchedSystem(
        dim=n, fields=tuple(fields),
        mode_sequence=tuple(int(m) for m in seq),
        switch_times=tuple(float(t) for t in times),
    ), n


def test_lift_equivalence_on_random_systems():
    rng = np.random.default_rng(314159)
    for _ in range(100):
        sw, n = random_switched_system(rng)
        x0 = rng.standard_normal(n)
        lifted = lift_switched(sw)
        lift_traj = simulate(lifted, x0, 0.3, max_jumps=20, dt=1e-3, mode0=lifted.modes[0])
        direct = simulate_switched(sw, x0, 0.3, 1e-3)
        assert len(lift_traj.samples) == len(direct.samples)
        for a, b in zip(lift_traj.samples, direct.samples):
            assert abs(a.time.t - b.time.t) <= 1e-12
            assert a.time.j == b.time.j
            assert np.max(np.abs(a.state - b.state)) <= 1e-12


def random_reset_system(rng):
    """Scalar decay with a random lower trigger and upward reset."""
    trigger = 0.2 + 0.3 * rng.random()
    reset_to = trigger + 0.3 + 0.4 * rng.random()
    rate = 0.5 + 2.0 * rng.random()
    return FlowJumpSystem(
        dim=1,
        flow_map=lambda x, t, r=rate: -r * x,
        jump_set=lambda x, t, g=trigger: g - x[0],
        jump_map=lambda x, r=reset_to: np.array([r]),
        flow_set=lambda x, t, g=trigger: x[0] >= g - 1e-6,
    ), reset_to, trigger


def test_hybrid_time_monotonicity_on_random_systems():
    rng = np.random.default_rng(271828)
    for _ in range(100):
        system, reset_to, trigger = random_reset_system(rng)
        x0 = np.array([reset_to + rng.random()])
        traj = simulate(system, x0, 2.0, max_jumps=int(rng.integers(1, 8)), dt=1e-3)
        keys = [(s.time.t, s.time.j) for s in traj.samples]
        assert keys == sorted(keys)
        # j increments by exactly one per recorded jump
        j_prev = 0
        for record in traj.jumps:
            assert record.j_before == j_prev
            j_prev += 1
        steps = np.diff(traj.jump_counts)
        assert set(steps.tolist()) <= {0, 1}
        # pre/post samples at each jump share the time coordinate
        for record in traj.jumps:
            shared = [s for s in traj.samples if s.time.t == record.t]
            assert {s.time.j for s in shared} >= {record.j_before, record.j_before + 1}


def test_flow_containment_on_random_systems():
    rng = np.random.default_rng(161803)
    for _ in range(100):
        system, reset_to, trigger = random_reset_system(rng)
        x0 = np.array([reset_to])
        traj = simulate(system, x0, 2.0, max_jumps=10, dt=1e-3)
        for s in traj.samples:
            assert s.state[0] >= trigger - 1e-6


def test_jump_legality_on_random_systems():
    # every applied reset fires with the guard margin at zero (localized)
    # or non-negative (jump-set entry at a grid point)
    rng = np.random.default_rng(111)
    for _ in range(100):
        system, reset_to, trigger = random_reset_system(rng)
        x0 = np.array([reset_to])
        traj = simulate(system, x0, 2.0, max_jumps=10, dt=1e-3)
        for record in traj.jumps:
            margin = trigger - record.state_before[0]
            assert margin >= -1e-6


def test_simulation_is_deterministic():
    rng = np.random.default_rng(999)
    system, reset_to, _ = random_reset_system(rng)
    x0 = np.array([reset_to])
    a = simulate(system, x0, 2.0, max_jumps=10, dt=1e-3)
    b = simulate(system, x0, 2.0, max_jumps=10, dt=1e-3)
    assert len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.time.t == sb.time.t
        assert sa.time.j == sb.time.j
        assert np.array_equal(sa.state, sb.state)


def _walk_grid_indices(times, t0, dt, n_steps):
    """Grid alignment as a walk over the grid steps: the reference for the
    one ``np.searchsorted`` of ``HybridTrajectory`` (``None``: no sample)."""
    indices, tol, idx, n = [], 1e-9 * max(dt, 1.0), 0, len(times)
    for k in range(n_steps + 1):
        tk = t0 + k * dt
        while idx < n and times[idx] < tk - tol:
            idx += 1
        if idx >= n or abs(times[idx] - tk) > tol:
            return None
        while idx + 1 < n and abs(times[idx + 1] - tk) <= tol:
            idx += 1
        indices.append(idx)
    return indices


def test_grid_alignment_matches_the_reference_walk():
    rng = np.random.default_rng(8)
    for _ in range(300):
        dt = float(rng.choice([1e-3, 0.1, 3.0]))
        n_steps = int(rng.integers(0, 12))
        tol = 1e-9 * max(dt, 1.0)
        # samples on, near, just outside the tolerance of, and between grid times
        offsets = [0.0, 0.0, 0.0, 0.4 * tol, -0.4 * tol, 3.0 * tol, -3.0 * tol, 0.5 * dt]
        times = sorted(
            max(0.0, k * dt + float(rng.choice(offsets)))
            for k in range(n_steps + 2)
            for _ in range(int(rng.integers(1, 4)))
        )
        traj = HybridTrajectory()
        for i, t in enumerate(times):
            traj.append(t, i, "q", np.array([float(i)]))
        want = _walk_grid_indices(times, 0.0, dt, n_steps)
        if want is None:
            with pytest.raises(ArgumentError, match="no trajectory sample"):
                traj.grid_jump_counts(0.0, dt, n_steps)
        else:
            assert traj.grid_jump_counts(0.0, dt, n_steps).tolist() == want
            assert traj.grid_states(0.0, dt, n_steps)[:, 0].tolist() == want
