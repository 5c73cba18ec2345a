"""Jacobians, EKF predict/update, saltation matrices, jump propagation."""

import itertools
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from hdsim import (
    ArgumentError,
    ExperimentConfig,
    GaussianBelief,
    GrazingError,
    NoiseModel,
    NumericalFailureError,
    ekf_predict,
    ekf_update,
    numerical_jacobian,
    propagate_belief_through_jump,
    saltation_matrix,
)
from hdsim.estimation import (
    JACOBIAN_STEP_SCALE,
    PSD_TOL,
    SYMMETRY_TOL,
    _checked_covariance,
    _value_and_jacobian,
    symmetrize,
)
from hdsim.integrate import rk4_step
from hdsim.power import (
    InverterParams,
    blended_flow,
    current_clamp,
    current_clamp_jacobian,
    gfl_flow,
    gfm_flow,
)
from hdsim.simulate import quiet_overflow

from refusals import refusal_test


# -- numerical_jacobian ------------------------------------------------------


def test_jacobian_identity():
    jac = numerical_jacobian(lambda x: x, np.array([1.0, -2.0, 3.0]))
    assert np.max(np.abs(jac - np.eye(3))) < 1e-9


def test_jacobian_linear_map_is_exact():
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    jac = numerical_jacobian(lambda x: a @ x, np.array([0.7, -0.3]))
    assert np.max(np.abs(jac - a)) < 1e-7


def test_jacobian_square():
    jac = numerical_jacobian(lambda x: np.array([x[0] ** 2]), np.array([3.0]))
    assert abs(jac[0, 0] - 6.0) < 1e-6


def test_jacobian_nonfinite_map():
    with pytest.raises(NumericalFailureError):
        numerical_jacobian(lambda x: np.array([float("inf")]), np.array([1.0]))


def test_jacobian_of_constant_and_scalar_maps_is_one_row():
    x = np.array([0.5, 2.0])
    constant = numerical_jacobian(lambda y: np.array([1.0]), x)
    assert np.array_equal(constant, np.zeros((1, 2)))
    jac = numerical_jacobian(lambda y: y[0] * y[1], x)
    assert jac.shape == (1, 2)
    assert np.max(np.abs(jac - np.array([[2.0, 0.5]]))) < 1e-9


def test_jacobian_nonfinite_next_to_finite_value_names_coordinate():
    with pytest.raises(NumericalFailureError, match=r"non-finite near .*coordinate 1"):
        numerical_jacobian(lambda x: np.where(x > 1.0, np.inf, x), np.array([0.0, 1.0]))


def test_map_that_ignores_columns_raises_argument_error():
    # a field returning one fixed-length vector whatever its input shape
    with pytest.raises(ArgumentError, match=r"\(2, 5\)"):
        numerical_jacobian(lambda x: np.zeros(3), np.array([0.5, 2.0]))
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    noise = NoiseModel(q=np.eye(2), r=np.eye(2), h=np.eye(2))
    with pytest.raises(ArgumentError, match=r"\(2, 5\)"):
        ekf_predict(belief, lambda x, t: np.zeros(3), 1e-3, noise)
    with pytest.raises(ArgumentError, match=r"\(2, 5\)"):
        ekf_predict(belief, lambda x, t: np.zeros((3, 2, 5)), 1e-3, noise)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("n", range(1, 7))
def test_jacobian_batch_is_the_state_then_plus_then_minus_columns(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
    x[0] = -0.0
    step = JACOBIAN_STEP_SCALE * np.maximum(1.0, np.abs(x))
    want = [x.copy() for _ in range(2 * n + 1)]
    for i in range(n):
        want[1 + i][i] += step[i]
        want[1 + n + i][i] -= step[i]
    seen = []
    _value_and_jacobian(lambda cols: seen.append(cols.copy()) or cols, x)
    assert seen[0].shape == (n, 2 * n + 1)
    assert np.array_equal(_bits(seen[0]), _bits(np.array(want).T))


@pytest.mark.parametrize("rows", [3, 5])
@pytest.mark.parametrize("flow", [
    lambda x: gfl_flow(x, 1.0, InverterParams()),
    lambda x: gfm_flow(x, InverterParams()),
    lambda x: blended_flow(x, 0.85, InverterParams()),
], ids=["gfl", "gfm", "blended"])
def test_inverter_fields_refuse_a_state_without_four_rows(flow, rows):
    with pytest.raises(ValueError):
        flow(np.zeros(rows))
    for m in (1, 9):
        with pytest.raises(ValueError):
            flow(np.zeros((rows, m)))
    with pytest.raises(ArgumentError, match=rf"map must act on each column.*\({rows}, "):
        numerical_jacobian(flow, np.zeros(rows))


# -- beliefs and noise models ------------------------------------------------


def test_belief_symmetrizes_and_validates():
    belief = GaussianBelief(np.zeros(2), np.array([[1.0, 1e-14], [0.0, 1.0]]))
    assert np.array_equal(belief.covariance, belief.covariance.T)
    with pytest.raises(ArgumentError):
        GaussianBelief(np.zeros(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ArgumentError):
        GaussianBelief(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    # both tolerances scale with max(1, max|P|)
    big = GaussianBelief(np.zeros(2), np.array([[1e6, 1e-7], [0.0, 1e6]]))
    assert big.covariance[0, 1] == big.covariance[1, 0] == 5e-8
    with pytest.raises(ArgumentError, match="not symmetric"):
        GaussianBelief(np.zeros(2), np.array([[1e6, 1e-5], [0.0, 1e6]]))
    GaussianBelief(np.zeros(2), np.diag([1e6, -1e-5]))
    with pytest.raises(ArgumentError, match="not PSD"):
        GaussianBelief(np.zeros(2), np.diag([1e6, -1e-3]))


def test_noise_model_validation():
    with pytest.raises(ArgumentError):
        NoiseModel(q=np.eye(2), r=np.eye(2), h=np.eye(3))
    with pytest.raises(ArgumentError):
        NoiseModel(q=-np.eye(2), r=np.eye(2), h=np.eye(2))
    skew = np.array([[1.0, 0.5], [-0.5, 1.0]])
    with pytest.raises(ArgumentError, match="Q is not symmetric"):
        NoiseModel(q=skew, r=np.eye(2), h=np.eye(2))
    with pytest.raises(ArgumentError, match="R is not symmetric"):
        NoiseModel(q=np.eye(2), r=skew, h=np.eye(2))
    with pytest.raises(ArgumentError, match="R is not PSD"):
        NoiseModel(q=np.eye(2), r=np.diag([1.0, -1.0]), h=np.eye(2))
    # asymmetry within SYMMETRY_TOL is accepted and symmetrized
    near = np.array([[1.0, 0.5 * SYMMETRY_TOL], [0.0, 1.0]])
    noise = NoiseModel(q=near, r=near, h=np.eye(2))
    for m in (noise.q, noise.r):
        assert np.array_equal(m, m.T)
        assert m[0, 1] == 0.25 * SYMMETRY_TOL


def test_a_noise_model_owns_its_measurement_matrix():
    h = np.eye(2)
    noise = NoiseModel(q=np.eye(2), r=np.eye(2), h=h)
    h[0, 1] = 7.0
    assert noise.h.tolist() == [[1.0, 0.0], [0.0, 1.0]]


# -- ekf_predict -------------------------------------------------------------


def scalar_noise(q=0.0, r=1.0):
    return NoiseModel(q=np.array([[q]]), r=np.array([[r]]), h=np.array([[1.0]]))


def test_predict_static_system_is_identity():
    belief = GaussianBelief(np.array([2.0]), np.array([[0.5]]))
    out = ekf_predict(belief, lambda x, t: np.zeros(1), 1e-3, scalar_noise())
    assert out.mean[0] == 2.0
    # covariance passes through the numerically differenced identity map,
    # which carries central-difference rounding of order 1e-10
    assert abs(out.covariance[0, 0] - 0.5) < 1e-9


def test_predict_scalar_decay_closed_form():
    dt = 1e-4
    belief = GaussianBelief(np.array([1.0]), np.array([[1.0]]))
    out = ekf_predict(belief, lambda x, t: -x, dt, scalar_noise())
    assert abs(out.covariance[0, 0] - math.exp(-2.0 * dt)) < 1e-10


def test_predict_matches_exact_discrete_kalman_prediction():
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    dt = 1e-3
    f_exact = expm(a * dt)
    q = 1e-5 * np.eye(2)
    noise = NoiseModel(q=q, r=np.eye(2), h=np.eye(2))
    mean = np.array([0.4, -0.2])
    cov = np.array([[2e-3, 1e-4], [1e-4, 3e-3]])
    belief = ekf_predict(GaussianBelief(mean, cov), lambda x, t: a @ x, dt, noise)
    mean_exact = f_exact @ mean
    cov_exact = f_exact @ cov @ f_exact.T + q
    assert np.max(np.abs(belief.mean - mean_exact)) < 1e-7
    assert np.max(np.abs(belief.covariance - cov_exact)) < 1e-7


def test_predict_jacobian_matches_truncated_exponential():
    # one-step RK4 transition Jacobian of a linear field reproduces
    # I + A dt + ... to within 1e-7 for ||A|| dt <= 0.1
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    dt = 0.02
    def transition(x):
        from hdsim.integrate import rk4_step

        return rk4_step(lambda y, t: a @ y, x, 0.0, dt)

    jac = numerical_jacobian(transition, np.array([0.3, 0.1]))
    assert np.max(np.abs(jac - expm(a * dt))) < 1e-7


def per_column_jacobian(fn, x):
    """The per-coordinate central-difference loop, one map call per column."""
    jac = np.empty((x.size, x.size))
    for i in range(x.size):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return jac


P_INV = InverterParams()
V_GRID = ExperimentConfig().scenario().v_grid
INVERTER_FIELDS = {
    "gfl": lambda x, t, p=P_INV: gfl_flow(x, V_GRID(t), p),
    "gfm": lambda x, t, p=P_INV: gfm_flow(x, p),
    "blended": lambda x, t, p=P_INV: blended_flow(x, V_GRID(t), p),
}
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
               0.37, -2.9)


def _bits_nan_as_one(a):
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan  # numpy's loops may carry a NaN's sign differently
    return a.view(np.int64)


@pytest.mark.parametrize("r_pu", [P_INV.r_pu, 5e-324], ids=["default", "r-subnormal"])
@pytest.mark.parametrize("name", sorted(INVERTER_FIELDS))
@quiet_overflow
def test_a_batch_column_is_bitwise_its_single_state_evaluation(name, r_pu):
    # a batch is evaluated by row pairs and a state in Python floats: one law
    field, p = INVERTER_FIELDS[name], replace(P_INV, r_pu=r_pu)
    rng = np.random.default_rng(5)
    batch = np.hstack((rng.choice(EDGE_FLOATS, (4, 400)), rng.uniform(-3.0, 3.0, (4, 9))))
    # the grid voltage before, in and after the dip; at 0.053 it is 0.85, the
    # sigmoid's midpoint, where both of the blend's weights are near 0.5
    times = (0.0, 0.05, 0.053, 0.1, 0.15)
    for t, dtype in itertools.product(times, (np.float64, np.float32)):
        cast = batch.astype(dtype)
        got = field(cast, t, p)
        assert got.shape == batch.shape
        for j in range(batch.shape[1]):
            want = field(cast[:, j], t, p)
            assert np.array_equal(_bits_nan_as_one(got[:, j]), _bits_nan_as_one(want))


@pytest.mark.parametrize("name", sorted(INVERTER_FIELDS))
def test_a_list_state_is_evaluated_as_its_array(name):
    field = INVERTER_FIELDS[name]
    for state in ([0, 0, 1, 0], [0.3, -1.0, 0.9, 0.05]):
        assert np.array_equal(field(state, 0.05), field(np.array(state, dtype=float), 0.05))


@pytest.mark.parametrize("name", sorted(INVERTER_FIELDS))
def test_batched_prediction_is_bitwise_the_per_column_one(name):
    field = INVERTER_FIELDS[name]
    noise = ExperimentConfig().scenario().noise
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, 4)
        t0 = float(rng.uniform(0.0, 0.2 - 1e-4))  # across the dip and recovery
        dt = float(rng.uniform(1e-6, 1e-4))

        def transition(y):
            return rk4_step(field, y, t0, dt)

        f_ref = per_column_jacobian(transition, x)
        assert np.array_equal(numerical_jacobian(transition, x), f_ref)
        a = rng.standard_normal((4, 4))
        cov = 1e-3 * (a @ a.T + np.eye(4))
        out = ekf_predict(GaussianBelief(x, cov), field, dt, noise, t0=t0)
        assert np.array_equal(out.mean, transition(x))
        p_ref = f_ref @ GaussianBelief(x, cov).covariance @ f_ref.T + noise.q
        assert np.array_equal(out.covariance, 0.5 * (p_ref + p_ref.T))


@pytest.mark.parametrize("name", sorted(INVERTER_FIELDS))
def test_predicted_mean_is_bitwise_the_single_state_step(name):
    # run_ekf hands this mean to next_event as the step's RK4 end state
    field = INVERTER_FIELDS[name]
    noise = ExperimentConfig().scenario().noise
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, 4)
        t0 = float(rng.uniform(0.0, 0.2 - 1e-4))
        dt = float(rng.uniform(1e-6, 1e-4))
        out = ekf_predict(GaussianBelief(x, 1e-3 * np.eye(4)), field, dt, noise, t0=t0)
        assert np.array_equal(out.mean, rk4_step(field, x, t0, dt))


def test_one_prediction_makes_four_field_evaluations():
    shapes = []

    def counting_field(x, t):
        shapes.append(np.shape(x))
        return INVERTER_FIELDS["blended"](x, t)

    belief = GaussianBelief(np.array([0.1, 0.0, 1.0, 0.0]), 1e-3 * np.eye(4))
    noise = ExperimentConfig().scenario().noise
    ekf_predict(belief, counting_field, 1e-4, noise, t0=0.05)
    assert shapes == [(4, 9)] * 4


def test_diverged_prediction_names_its_time():
    belief = GaussianBelief(np.array([1.0]), np.array([[1.0]]))
    blow_up = lambda x, t: np.full_like(x, np.inf)
    with pytest.raises(NumericalFailureError, match=r"diverged at t=0\.5") as err:
        ekf_predict(belief, blow_up, 0.25, scalar_noise(), t0=0.25)
    assert err.value.time == 0.5


# -- ekf_update --------------------------------------------------------------


def test_update_uninformative_measurement_limit():
    noise = scalar_noise(q=0.0, r=1e9)
    belief = GaussianBelief(np.array([1.0]), np.array([[1.0]]))
    out = ekf_update(belief, np.array([2.0]), noise)
    assert abs(out.mean[0] - 1.0) < 1e-6


def test_update_perfect_measurement_limit():
    noise = NoiseModel(q=np.zeros((2, 2)), r=1e-12 * np.eye(2), h=np.eye(2))
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    z = np.array([0.3, -0.8])
    out = ekf_update(belief, z, noise)
    assert np.max(np.abs(out.mean - z)) < 1e-6


def test_update_scalar_hand_computed():
    noise = scalar_noise(q=0.0, r=1.0)
    belief = GaussianBelief(np.array([0.0]), np.array([[1.0]]))
    out = ekf_update(belief, np.array([1.0]), noise)
    assert abs(out.mean[0] - 0.5) < 1e-12
    assert abs(out.covariance[0, 0] - 0.5) < 1e-12


def test_update_result_that_is_not_psd_is_a_numerical_failure():
    # a covariance far too large for (I - KH)P to keep its sign in floats
    noise = NoiseModel(q=np.zeros((2, 2)), r=np.eye(2), h=np.eye(2))
    a = np.array([[1.0, 0.999], [0.999, 1.0]])
    belief = GaussianBelief(np.zeros(2), 1e300 * a)
    with pytest.raises(NumericalFailureError, match="not PSD"):
        ekf_update(belief, np.zeros(2), noise)


def _psd_test_matrices():
    """Symmetric matrices on both sides of the diagonal-dominance shortcut."""
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        for scale in (1e-6, 1.0, 1e6):
            a = rng.standard_normal((n, n))
            off = a + a.T - np.diag(np.diag(a + a.T))
            row_sums = np.abs(off).sum(axis=1)
            yield "dominant", scale * (off + np.diag(row_sums + 0.1 + rng.random(n)))
            yield "tight", scale * (off + np.diag(row_sums))
            yield "psd", scale * (a @ a.T)
            yield "indefinite", scale * (a + a.T)
            q = np.linalg.qr(a)[0]
            for edge in (0.5, 0.999, 1.001, 2.0):
                w = np.linspace(scale, 2.0 * scale, n)
                w[0] = edge * PSD_TOL * max(1.0, 2.0 * scale)
                yield "edge", symmetrize(q * w @ q.T)
                yield "edge", np.diag(w)
        yield "zero", np.zeros((n, n))
        yield "tight", 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    yield "tight", np.array([[1.0, -1.0], [-1.0, 1.0]])
    yield "indefinite", np.array([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]])


def test_psd_verdict_is_the_eigvalsh_verdict(monkeypatch):
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda p: calls.append(p) or eigvalsh(p))
    verdicts = set()
    for kind, p in _psd_test_matrices():
        expected = float(eigvalsh(p)[0]) >= PSD_TOL * max(1.0, float(np.abs(p).max()))
        n_calls = len(calls)
        try:
            got = _checked_covariance(p, "P", ArgumentError, symmetric=True)
        except ArgumentError as err:
            assert not expected and "not PSD" in str(err), kind
        else:
            assert expected and got is p, kind
        if kind in ("dominant", "zero"):
            assert len(calls) == n_calls, kind
        verdicts.add((kind, expected))
    assert {("psd", True), ("indefinite", False), ("edge", True), ("edge", False)} <= verdicts


def test_update_singular_innovation_raises():
    noise = NoiseModel(
        q=np.zeros((2, 2)), r=np.zeros((2, 2)), h=np.zeros((2, 2))
    )
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    with pytest.raises(NumericalFailureError):
        ekf_update(belief, np.zeros(2), noise)


def test_covariance_stays_symmetric_psd_through_random_sequences():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        q = rng.random() * 1e-4 * np.eye(n)
        r = (rng.random() + 0.1) * np.eye(n)
        noise = NoiseModel(q=q, r=r, h=np.eye(n))
        belief = GaussianBelief(rng.standard_normal(n), 1e-2 * np.eye(n))
        for _ in range(5):
            belief = ekf_predict(belief, lambda x, t: a @ x, 1e-3, noise)
            belief = ekf_update(belief, rng.standard_normal(n), noise)
            p = belief.covariance
            assert np.max(np.abs(p - p.T)) <= 1e-12 * max(1.0, np.max(np.abs(p)))
            assert np.linalg.eigvalsh(p)[0] >= -1e-10


def test_identity_measurement_update_matches_the_general_products_bit_for_bit():
    rng = np.random.default_rng(2027)
    for case in range(300):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        p0 = rng.uniform(1e-6, 10.0) * np.eye(n)
        p = p0 if case % 3 == 0 else a @ a.T * 10.0 ** rng.integers(-6, 3)
        mean = rng.standard_normal(n)
        mean[rng.integers(n)] = -0.0
        b = rng.standard_normal((n, n))
        r = b @ b.T if case % 2 else np.diag(rng.uniform(0.0, 1.0, n))
        noise = NoiseModel(q=np.eye(n), r=r, h=np.eye(n))
        general = SimpleNamespace(q=noise.q, r=noise.r, h=noise.h, measurement_dim=n)
        assert noise._h_is_identity
        belief = GaussianBelief(mean, p)
        z = mean.copy() if case % 5 == 0 else rng.standard_normal(n)
        fast, slow = ekf_update(belief, z, noise), ekf_update(belief, z, general)
        assert np.array_equal(_bits(fast.mean), _bits(slow.mean))
        assert np.array_equal(_bits(fast.covariance), _bits(slow.covariance))
    for h in ([[1.0, 0.0], [0.0, 2.0]], [[1.0, 0.0]]):
        assert not NoiseModel(q=np.eye(2), r=np.eye(len(h)), h=h)._h_is_identity
    # a singular S = P + R gives the same error on both paths
    noise = NoiseModel(q=np.eye(2), r=np.zeros((2, 2)), h=np.eye(2))
    general = SimpleNamespace(q=noise.q, r=noise.r, h=noise.h, measurement_dim=2)
    belief = GaussianBelief(np.zeros(2), np.diag([1.0, 0.0]))
    messages = []
    for model in (noise, general):
        with pytest.raises(NumericalFailureError, match="singular innovation") as err:
            ekf_update(belief, np.ones(2), model)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# -- saltation matrices ------------------------------------------------------


def test_state_independent_guard_reduces_to_reset_jacobian():
    # no gradient, or one that is zero everywhere (a time-only guard)
    d_reset = numerical_jacobian(lambda x: x.copy(), np.array([1.0, 2.0]))
    for guard_gradient in (None, lambda x, t: np.zeros(2)):
        xi = saltation_matrix(
            reset=lambda x: x.copy(),
            f_pre=lambda x, t: -x,
            f_post=lambda x, t: -2 * x,
            guard_gradient=guard_gradient,
            x_minus=np.array([1.0, 2.0]),
            t=0.5,
        )
        assert np.array_equal(xi, d_reset)  # bitwise-equal construction path
        assert np.max(np.abs(xi - np.eye(2))) < 1e-9
    # a given reset Jacobian that is not square, or not finite, is refused
    for bad, message in ((np.ones((2, 3)), "square"), (np.diag([1.0, np.nan]), "finite")):
        with pytest.raises(ArgumentError, match=message):
            saltation_matrix(
                reset=lambda x: x.copy(),
                f_pre=lambda x, t: -x,
                f_post=lambda x, t: -2 * x,
                guard_gradient=None,
                x_minus=np.array([1.0, 2.0]),
                t=0.5,
                reset_jacobian=lambda x, bad=bad: bad,
            )


def test_identity_reset_matched_fields_gives_identity():
    # continuous vector field across the guard: no discontinuity correction
    field = lambda x, t: np.array([1.0, -x[1]])
    xi = saltation_matrix(
        reset=lambda x: x.copy(),
        f_pre=field,
        f_post=field,
        guard_gradient=lambda x, t: np.array([1.0, 0.0]),
        x_minus=np.array([0.0, 1.0]),
        t=0.0,
        reset_jacobian=lambda x: np.eye(2),
    )
    assert np.max(np.abs(xi - np.eye(2))) < 1e-12


def test_clamp_reset_zeroes_clamped_row():
    p = InverterParams()
    x_minus = np.array([2.0, 0.3, 0.85, 0.02])  # i_d clamped, i_q not
    xi = saltation_matrix(
        reset=lambda x: current_clamp(x, p),
        f_pre=lambda x, t: -x,
        f_post=lambda x, t: -x,
        guard_gradient=None,
        x_minus=x_minus,
        t=0.054,
        reset_jacobian=lambda x: current_clamp_jacobian(x, p),
    )
    assert np.array_equal(xi[0], np.zeros(4))
    assert xi[1, 1] == 1.0


def test_grazing_guard_raises():
    with pytest.raises(GrazingError):
        saltation_matrix(
            reset=lambda x: x.copy(),
            f_pre=lambda x, t: np.array([0.0, 1.0]),  # flow tangent to guard
            f_post=lambda x, t: np.array([0.0, 1.0]),
            guard_gradient=lambda x, t: np.array([1.0, 0.0]),
            x_minus=np.array([0.0, 0.0]),
            t=0.0,
        )


def test_transversal_saltation_standard_formula():
    # hand-checkable 1-D case: reset r(x) = 0.5 x, fields f_pre = 1, f_post = 3,
    # guard g(x) = x - 1.  Xi = Dr + (f_post - Dr f_pre) g' / (g' f_pre) = 3.0
    xi = saltation_matrix(
        reset=lambda x: 0.5 * x,
        f_pre=lambda x, t: np.array([1.0]),
        f_post=lambda x, t: np.array([3.0]),
        guard_gradient=lambda x, t: np.array([1.0]),
        x_minus=np.array([1.0]),
        t=0.0,
    )
    assert abs(xi[0, 0] - 3.0) < 1e-6


# -- belief propagation through jumps ---------------------------------------


def test_identity_jump_keeps_belief():
    belief = GaussianBelief(np.array([1.0, 2.0]), 0.3 * np.eye(2))
    out = propagate_belief_through_jump(belief, lambda x: x.copy(), np.eye(2))
    assert np.array_equal(out.mean, belief.mean)
    assert np.max(np.abs(out.covariance - belief.covariance)) < 1e-15


def test_scaling_jump_scales_covariance():
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    out = propagate_belief_through_jump(
        belief, lambda x: 2.0 * x, 2.0 * np.eye(2)
    )
    assert np.max(np.abs(out.covariance - 4.0 * np.eye(2))) < 1e-12


def test_clamped_jump_zeroes_row_and_column():
    p = InverterParams()
    x = np.array([2.0, 0.3, 0.85, 0.02])
    xi = current_clamp_jacobian(x, p)
    cov = np.arange(1.0, 17.0).reshape(4, 4)
    cov = 0.5 * (cov + cov.T) + 8.0 * np.eye(4)
    belief = GaussianBelief(x, cov)
    out = propagate_belief_through_jump(belief, lambda y: current_clamp(y, p), xi)
    assert np.all(out.covariance[0, :] == 0.0)
    assert np.all(out.covariance[:, 0] == 0.0)
    assert out.mean[0] == p.i_lim
    expected = xi @ cov @ xi.T
    assert np.max(np.abs(out.covariance - expected)) < 1e-12


def test_dimension_mismatch_rejected():
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    with pytest.raises(ArgumentError):
        propagate_belief_through_jump(belief, lambda x: x, np.eye(3))


def test_scalar_math_map_is_an_argument_error():
    # math.sin takes one number, not a row of the column batch
    with pytest.raises(ArgumentError, match="map must act on each column"):
        numerical_jacobian(lambda x: np.array([math.sin(x[0]), x[1]]), [0.3, 0.4])


def test_scalar_float_flow_is_an_argument_error_of_predict():
    belief = GaussianBelief([0.3, 0.4], np.eye(2))
    noise = NoiseModel(q=1e-4 * np.eye(2), r=[[1.0]], h=[[1.0, 0.0]])
    with pytest.raises(ArgumentError, match="map must act on each column"):
        ekf_predict(belief, lambda x, t: np.array([-float(x[0]), x[1]]), 0.01, noise)


test_estimation_input_checks = refusal_test("test_estimation_input_checks")


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(lambda: GaussianBelief(np.zeros(4), 1e308 * np.eye(4)),
                     "covariance entries must be finite and at most", id="belief-eye"),
        pytest.param(lambda: GaussianBelief(np.zeros(2), np.full((2, 2), 1e308)),
                     "covariance entries must be finite and at most", id="belief-full"),
        pytest.param(
            lambda: NoiseModel(q=1e308 * np.eye(4), r=[[1.0]], h=np.ones((1, 4))),
            "Q entries must be finite and at most", id="q",
        ),
    ],
)
def test_a_covariance_whose_symmetrization_overflows_is_rejected(call, fragment):
    # symmetrizing 1e308 entries overflows: at the parent a LinAlgError, or a
    # RuntimeWarning and an all-inf covariance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match=fragment):
            call()


def test_a_jump_to_a_non_finite_belief_is_a_numerical_failure():
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    with pytest.raises(NumericalFailureError, match="not finite after the jump"):
        propagate_belief_through_jump(belief, lambda x: x, 1e200 * np.eye(2))
