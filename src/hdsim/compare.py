"""Experiment orchestration: one truth stream, two filters, one report."""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError
from .estimation import EkfRun, run_ekf
from .metrics import rmse
from .power import blended_field, generate_truth_and_measurements
from .report import (
    INVERTER_STATES,
    NEAR_SWITCH,
    OVERALL,
    RmseReport,
    column_rows,
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
    return column_rows(
        t_grid, truth_jumps, truth_modes, *truth_states.T, *run.means.T, p_traces
    )


def run_comparison(config: ExperimentConfig) -> Tuple[RmseReport, List[str]]:
    """Generate one seeded truth/measurement stream, run the configured
    filters on the identical stream, and write trajectory CSVs plus the
    RMSE report to the directory ``config["out"]``.

    Returns the report and the list of files written.
    """
    if config["model"] != "inverter":
        raise ConfigError(
            "compare and estimate run the inverter study; "
            f"got model = {config['model']}"
        )
    t_start = time.perf_counter()
    out_dir = config["out"]
    ensure_dir(out_dir)
    model = config.system()
    scenario = model.scenario
    truth, measurements = generate_truth_and_measurements(
        scenario, max_jumps=config["max_jumps"]
    )

    which = config["filter"]
    filters = ("hybrid", "continuous") if which == "both" else (which,)
    blended = blended_field(scenario.params, scenario.v_grid)

    runs: Dict[str, EkfRun] = {}
    for name in filters:
        process = model.system if name == "hybrid" else blended
        runs[name] = run_ekf(process, scenario, measurements, p0=config["ekf.p0"])

    grid = (0.0, scenario.dt, scenario.n_steps)
    truth_states = truth.grid_states(*grid)
    truth_modes = truth.grid_modes(*grid)
    truth_jumps = truth.grid_jump_counts(*grid)
    t_grid = runs[filters[0]].times  # k*dt, as the truth's grid
    windows = near_switch_windows(
        truth.jump_times, config["near_switch_window"], scenario.horizon
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
