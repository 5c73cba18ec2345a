"""Hybrid dynamical systems: representation, simulation, and estimation.

The toolkit covers flow/jump systems, hybrid automata, switched systems
(lifted to automata with one location per segment), guard-localized
simulation on hybrid time domains, an extended Kalman filter with
saltation-matrix covariance transport, and the grid-following/grid-forming
inverter and two-line SMIB studies built on top of them.

Hybrid stepping has one implementation, :mod:`hdsim.simulate`; the
independent loops the tests compare it against live in ``tests/oracles.py``.
"""

from .errors import (
    AmbiguousTransitionError,
    ArgumentError,
    ConfigError,
    GrazingError,
    HdsimError,
    NumericalFailureError,
)
from .events import LOCATE_TOL, locate_event
from .integrate import rk4_step
from .systems import (
    Edge,
    FlowJumpSystem,
    HORIZON_REACHED,
    HybridAutomaton,
    HybridTime,
    HybridTrajectory,
    JumpRecord,
    LEFT_FLOW_SET,
    MAX_JUMPS_REACHED,
    NUMERICAL_FAILURE,
    TrajectorySample,
)
from .simulate import simulate
from .switched import SwitchedSystem, lift_switched
from .safety import NO_COUNTEREXAMPLE, UNSAFE, SafetyVerdict, box_sampler, check_safety
from .estimation import (
    EkfRun,
    GaussianBelief,
    NoiseModel,
    ekf_predict,
    ekf_update,
    numerical_jacobian,
    propagate_belief_through_jump,
    run_ekf,
    saltation_matrix,
)
from .power import (
    GFL,
    GFM,
    GaussianStream,
    InverterParams,
    InverterScenario,
    PiecewiseLinearProfile,
    SmibParams,
    blended_field,
    blended_flow,
    current_clamp,
    generate_truth_and_measurements,
    gfl_flow,
    gfm_flow,
    gfm_system_matrices,
    inverter_automaton,
    mode_sigmoid,
    smib_state,
    smib_system,
)
from .metrics import rmse
from .config import ExperimentConfig, load_config, parse_config_text
from .compare import near_switch_windows, run_comparison
from .report import RmseReport, read_report_csv, read_trajectory_csv
from .cli import cli_main

__version__ = "0.1.0"
