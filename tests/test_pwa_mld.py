"""PWA region selection and MLD one-step semantics."""

import numpy as np
import pytest

from hdsim import (
    ArgumentError,
    InfeasibleError,
    MldSystem,
    PwaSystem,
    UncoveredStateError,
    mld_step,
    pwa_step,
)


def whole_space_region(n):
    return (np.zeros((1, n)), np.zeros(1))


def test_identity_dynamics():
    sys = PwaSystem(
        regions=(whole_space_region(2),),
        dynamics=((np.eye(2), np.zeros((2, 1)), np.zeros(2)),),
    )
    x = np.array([0.3, -0.7])
    assert np.array_equal(pwa_step(sys, x, np.zeros(1)), x)


def two_region_split():
    # region 0: x1 <= 0 with A = 0.5 I; region 1: x1 >= 0 with A = 2 I
    return PwaSystem(
        regions=(
            (np.array([[1.0]]), np.zeros(1)),
            (np.array([[-1.0]]), np.zeros(1)),
        ),
        dynamics=(
            (np.array([[0.5]]), np.zeros((1, 0)), np.zeros(1)),
            (np.array([[2.0]]), np.zeros((1, 0)), np.zeros(1)),
        ),
    )


def test_region_selection_by_halfspace():
    sys = two_region_split()
    assert pwa_step(sys, np.array([-1.0]), np.zeros(0))[0] == -0.5
    assert pwa_step(sys, np.array([1.0]), np.zeros(0))[0] == 2.0


def test_boundary_tie_breaks_to_lowest_index():
    sys = two_region_split()
    assert sys.region_index(np.array([0.0])) == 0
    assert pwa_step(sys, np.array([0.0]), np.zeros(0))[0] == 0.0


def test_uncovered_state_reports_x():
    sys = PwaSystem(
        regions=((np.array([[1.0]]), np.array([-1.0])),),  # x <= -1 only
        dynamics=((np.eye(1), np.zeros((1, 0)), np.zeros(1)),),
    )
    with pytest.raises(UncoveredStateError) as err:
        pwa_step(sys, np.array([0.0]), np.zeros(0))
    assert err.value.state is not None


def test_interior_points_fall_in_exactly_one_region():
    # random hyperplane splits; interior points must pass exactly one test
    rng = np.random.default_rng(7)
    for _ in range(100):
        normal = rng.standard_normal(3)
        normal /= np.linalg.norm(normal)
        offset = rng.standard_normal()
        sys = PwaSystem(
            regions=(
                (normal[None, :], np.array([offset])),
                (-normal[None, :], np.array([-offset])),
            ),
            dynamics=(
                (np.eye(3), np.zeros((3, 0)), np.zeros(3)),
                (2 * np.eye(3), np.zeros((3, 0)), np.zeros(3)),
            ),
        )
        x = rng.standard_normal(3)
        if abs(normal @ x - offset) < 1e-9:
            continue  # boundary points are covered by the tie-break test
        assert len(sys.region_memberships(x)) == 1


def test_mismatched_lengths_rejected():
    with pytest.raises(ArgumentError):
        PwaSystem(
            regions=(whole_space_region(1),),
            dynamics=(),
        )


def zero_mld():
    return MldSystem(n_x=2, n_u=1, n_d=1, n_z=1, n_y=1, n_c=2,
                     e5=np.array([0.0, 1.0]))


def test_zero_system_is_feasible():
    x_next, y = mld_step(zero_mld(), [1.0, 2.0], [0.5], [1.0], [3.0])
    assert np.array_equal(x_next, np.zeros(2))
    assert np.array_equal(y, np.zeros(1))


def scalar_coupled_mld():
    # x+ = x + u + d subject to d <= x, written as E2 d + E3 z <= E1 u + E4 x + E5
    return MldSystem(
        n_x=1, n_u=1, n_d=1, n_z=0, n_y=1, n_c=1,
        a=np.array([[1.0]]),
        b1=np.array([[1.0]]),
        b2=np.array([[1.0]]),
        c=np.array([[1.0]]),
        e2=np.array([[1.0]]),
        e4=np.array([[1.0]]),
    )


def test_hand_encoded_constraint_feasible_step():
    sys = scalar_coupled_mld()
    x_next, y = mld_step(sys, [1.0], [0.0], [1.0], [])
    assert x_next[0] == 2.0
    assert y[0] == 1.0


def test_violated_row_is_reported_one_based():
    sys = scalar_coupled_mld()
    with pytest.raises(InfeasibleError) as err:
        mld_step(sys, [0.0], [0.0], [1.0], [])
    assert err.value.rows == (1,)


def test_constraint_tolerance():
    sys = scalar_coupled_mld()
    # violation below the 1e-9 tolerance passes
    x_next, _ = mld_step(sys, [1.0 - 5e-10], [0.0], [1.0], [])
    assert abs(x_next[0] - (2.0 - 5e-10)) < 1e-12


def test_non_binary_delta_rejected():
    sys = scalar_coupled_mld()
    with pytest.raises(ArgumentError):
        mld_step(sys, [1.0], [0.0], [0.5], [])


def test_random_feasibility_verdicts():
    # random instances with a slack constraint row: tighten it to flip verdicts
    rng = np.random.default_rng(11)
    for _ in range(100):
        n_x, n_u, n_d, n_z = 2, 1, 2, 1
        sys_mats = dict(
            a=rng.standard_normal((n_x, n_x)),
            b1=rng.standard_normal((n_x, n_u)),
            b2=rng.standard_normal((n_x, n_d)),
            b3=rng.standard_normal((n_x, n_z)),
            e1=rng.standard_normal((1, n_u)),
            e2=rng.standard_normal((1, n_d)),
            e3=rng.standard_normal((1, n_z)),
            e4=rng.standard_normal((1, n_x)),
        )
        x = rng.standard_normal(n_x)
        u = rng.standard_normal(n_u)
        delta = rng.integers(0, 2, n_d).astype(float)
        z = rng.standard_normal(n_z)
        lhs = sys_mats["e2"] @ delta + sys_mats["e3"] @ z
        rhs_wo = sys_mats["e1"] @ u + sys_mats["e4"] @ x
        slack = lhs - rhs_wo

        feasible = MldSystem(n_x=n_x, n_u=n_u, n_d=n_d, n_z=n_z, n_y=1, n_c=1,
                             e5=slack + 1.0, **sys_mats)
        x_next, _ = mld_step(feasible, x, u, delta, z)
        expected = (sys_mats["a"] @ x + sys_mats["b1"] @ u
                    + sys_mats["b2"] @ delta + sys_mats["b3"] @ z)
        assert np.allclose(x_next, expected, atol=1e-12)

        infeasible = MldSystem(n_x=n_x, n_u=n_u, n_d=n_d, n_z=n_z, n_y=1, n_c=1,
                               e5=slack - 1.0, **sys_mats)
        with pytest.raises(InfeasibleError):
            mld_step(infeasible, x, u, delta, z)



def test_optional_formalisms_import_from_the_package():
    import hdsim
    from hdsim import (
        MldSystem,
        PwaSystem,
        SwitchedSystem,
        lift_state,
        lift_switched,
        mld,
        mld_step,
        pwa,
        pwa_step,
        switched,
    )

    assert (SwitchedSystem, lift_state, lift_switched) == (
        switched.SwitchedSystem, switched.lift_state, switched.lift_switched
    )
    assert (PwaSystem, pwa_step) == (pwa.PwaSystem, pwa.pwa_step)
    assert (MldSystem, mld_step) == (mld.MldSystem, mld.mld_step)
    with pytest.raises(AttributeError):
        getattr(hdsim, "no_such_name")
