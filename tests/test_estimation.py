"""Jacobians, EKF predict/update, saltation matrices, jump propagation."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from hdsim import (
    ArgumentError,
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
from hdsim.integrate import rk4_step
from hdsim.power import (
    InverterParams,
    blended_flow,
    current_clamp,
    current_clamp_jacobian,
    gfl_flow,
    gfm_flow,
    reference_noise,
    reference_profile,
)


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


# -- beliefs and noise models ------------------------------------------------


def test_belief_symmetrizes_and_validates():
    belief = GaussianBelief(np.zeros(2), np.array([[1.0, 1e-14], [0.0, 1.0]]))
    assert np.array_equal(belief.covariance, belief.covariance.T)
    with pytest.raises(ArgumentError):
        GaussianBelief(np.zeros(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ArgumentError):
        GaussianBelief(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_noise_model_validation():
    with pytest.raises(ArgumentError):
        NoiseModel(q=np.eye(2), r=np.eye(2), h=np.eye(3))
    with pytest.raises(ArgumentError):
        NoiseModel(q=-np.eye(2), r=np.eye(2), h=np.eye(2))


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
V_GRID = reference_profile()
INVERTER_FIELDS = {
    "gfl": lambda x, t: gfl_flow(x, V_GRID(t), P_INV),
    "gfm": lambda x, t: gfm_flow(x, P_INV),
    "blended": lambda x, t: blended_flow(x, V_GRID(t), P_INV),
}


@pytest.mark.parametrize("name", sorted(INVERTER_FIELDS))
def test_batched_prediction_is_bitwise_the_per_column_one(name):
    field = INVERTER_FIELDS[name]
    noise = reference_noise()
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
    noise = reference_noise()
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
    ekf_predict(belief, counting_field, 1e-4, reference_noise(), t0=0.05)
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


# -- saltation matrices ------------------------------------------------------


def test_state_independent_guard_reduces_to_reset_jacobian():
    xi = saltation_matrix(
        reset=lambda x: x.copy(),
        f_pre=lambda x, t: -x,
        f_post=lambda x, t: -2 * x,
        guard_gradient=None,
        x_minus=np.array([1.0, 2.0]),
        t=0.5,
    )
    d_reset = numerical_jacobian(lambda x: x.copy(), np.array([1.0, 2.0]))
    assert np.array_equal(xi.matrix, d_reset)  # bitwise-equal construction path
    assert np.max(np.abs(xi.matrix - np.eye(2))) < 1e-9


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
    assert np.max(np.abs(xi.matrix - np.eye(2))) < 1e-12


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
    assert np.array_equal(xi.matrix[0], np.zeros(4))
    assert xi.matrix[1, 1] == 1.0


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
    assert abs(xi.matrix[0, 0] - 3.0) < 1e-6


# -- belief propagation through jumps ---------------------------------------


def make_xi(matrix):
    from hdsim import SaltationMatrix

    return SaltationMatrix(np.asarray(matrix, dtype=float), jump_time=0.0)


def test_identity_jump_keeps_belief():
    belief = GaussianBelief(np.array([1.0, 2.0]), 0.3 * np.eye(2))
    out = propagate_belief_through_jump(belief, lambda x: x.copy(), make_xi(np.eye(2)))
    assert np.array_equal(out.mean, belief.mean)
    assert np.max(np.abs(out.covariance - belief.covariance)) < 1e-15


def test_scaling_jump_scales_covariance():
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    out = propagate_belief_through_jump(
        belief, lambda x: 2.0 * x, make_xi(2.0 * np.eye(2))
    )
    assert np.max(np.abs(out.covariance - 4.0 * np.eye(2))) < 1e-12


def test_clamped_jump_zeroes_row_and_column():
    p = InverterParams()
    x = np.array([2.0, 0.3, 0.85, 0.02])
    xi = make_xi(current_clamp_jacobian(x, p))
    cov = np.arange(1.0, 17.0).reshape(4, 4)
    cov = 0.5 * (cov + cov.T) + 8.0 * np.eye(4)
    belief = GaussianBelief(x, cov)
    out = propagate_belief_through_jump(belief, lambda y: current_clamp(y, p), xi)
    assert np.all(out.covariance[0, :] == 0.0)
    assert np.all(out.covariance[:, 0] == 0.0)
    assert out.mean[0] == p.i_lim
    expected = xi.matrix @ cov @ xi.matrix.T
    assert np.max(np.abs(out.covariance - expected)) < 1e-12


def test_dimension_mismatch_rejected():
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    with pytest.raises(ArgumentError):
        propagate_belief_through_jump(belief, lambda x: x, make_xi(np.eye(3)))
