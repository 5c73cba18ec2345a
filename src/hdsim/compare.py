"""Experiment orchestration: one truth stream, two filters, one report."""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError
from .estimation import EkfRun, run_ekf
from .metrics import rmse
from .power import (
    blended_field,
    generate_truth_and_measurements,
    inverter_automaton,
)
from .report import (
    INVERTER_STATES,
    NEAR_SWITCH,
    OVERALL,
    RmseReport,
    ensure_dir,
    write_report_csv,
    write_trajectory_csv,
)

TRAJECTORY_COLUMNS = (
    "t", "j", "mode", "i_d", "i_q", "v_d", "v_q",
    "ihat_d", "ihat_q", "vhat_d", "vhat_q", "p_trace",
)


def near_switch_windows(
    jump_times, half_width: float, horizon: float
) -> Tuple[Tuple[float, float], ...]:
    """Closed intervals of +-half_width around each jump, clipped to [0, horizon]."""
    return tuple(
        (max(0.0, t - half_width), min(horizon, t + half_width)) for t in jump_times
    )


def _estimate_rows(t_grid, truth_states, truth_modes, truth_jumps, run: EkfRun):
    p_traces = np.trace(run.covariances, axis1=1, axis2=2)
    for k in range(len(t_grid)):
        yield (
            t_grid[k], int(truth_jumps[k]), truth_modes[k],
            truth_states[k, 0], truth_states[k, 1],
            truth_states[k, 2], truth_states[k, 3],
            run.means[k, 0], run.means[k, 1],
            run.means[k, 2], run.means[k, 3],
            p_traces[k],
        )


def run_comparison(
    config: ExperimentConfig, out_dir: Optional[str] = None
) -> Tuple[RmseReport, List[str]]:
    """Generate one seeded truth/measurement stream, run the configured
    filters on the identical stream, and persist trajectory CSVs plus the
    RMSE report.

    Returns the report and the list of files written.
    """
    if config["model"] != "inverter":
        raise ConfigError(
            "compare and estimate run the inverter study; "
            f"got model = {config['model']}"
        )
    t_start = time.perf_counter()
    out_dir = out_dir if out_dir is not None else str(config["out"])
    ensure_dir(out_dir)
    scenario = config.scenario()
    truth, measurements = generate_truth_and_measurements(
        scenario, max_jumps=int(config["max_jumps"])
    )

    which = config["filter"]
    filters = ("hybrid", "continuous") if which == "both" else (which,)
    automaton = inverter_automaton(scenario.params, scenario.v_grid)
    blended = blended_field(scenario.params, scenario.v_grid)
    p0 = float(config["ekf.p0"])

    runs: Dict[str, EkfRun] = {}
    for name in filters:
        process = automaton if name == "hybrid" else blended
        runs[name] = run_ekf(process, scenario, measurements, p0=p0)

    grid = (0.0, scenario.dt, scenario.n_steps)
    truth_states = truth.grid_states(*grid)
    truth_modes = truth.grid_modes(*grid)
    truth_jumps = truth.grid_jump_counts(*grid)
    t_grid = scenario.grid_times()
    windows = near_switch_windows(
        truth.jump_times, float(config["near_switch_window"]), scenario.horizon
    )

    report = RmseReport(
        states=INVERTER_STATES,
        filters=filters,
        switching_instants=tuple(truth.jump_times),
        windows=windows,
        resolved=config.resolved_items(),
    )
    for name in filters:
        overall = rmse(runs[name].means, truth_states)
        near = rmse(runs[name].means, truth_states, times=t_grid, windows=windows)
        for idx, state in enumerate(INVERTER_STATES):
            report.entries[(name, state, OVERALL)] = float(overall[idx])
            report.entries[(name, state, NEAR_SWITCH)] = float(near[idx])

    paths: List[str] = []
    for name in filters:
        path = os.path.join(out_dir, f"trajectory_{name}.csv")
        write_trajectory_csv(
            path,
            TRAJECTORY_COLUMNS,
            _estimate_rows(t_grid, truth_states, truth_modes, truth_jumps, runs[name]),
        )
        paths.append(path)
    report_path = os.path.join(out_dir, "report.csv")
    write_report_csv(report_path, report)
    paths.append(report_path)
    report.runtime_seconds = time.perf_counter() - t_start
    return report, paths
