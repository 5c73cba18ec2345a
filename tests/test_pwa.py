"""PWA region selection and stepping."""

import numpy as np
import pytest

from hdsim import (
    ArgumentError,
    PwaSystem,
    UncoveredStateError,
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


def test_optional_formalisms_import_from_the_package():
    import hdsim
    from hdsim import (
        PwaSystem,
        SwitchedSystem,
        lift_state,
        lift_switched,
        pwa,
        pwa_step,
        switched,
    )

    assert (SwitchedSystem, lift_state, lift_switched) == (
        switched.SwitchedSystem, switched.lift_state, switched.lift_switched
    )
    assert (PwaSystem, pwa_step) == (pwa.PwaSystem, pwa.pwa_step)
    with pytest.raises(AttributeError):
        getattr(hdsim, "no_such_name")
