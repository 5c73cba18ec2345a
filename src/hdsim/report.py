"""Report and CSV persistence.

Floating-point values are serialized with 17 significant digits so the
emitted files round-trip to the exact in-memory doubles, which is what
makes byte-determinism a meaningful contract.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ArgumentError, ConfigError

OVERALL = "overall"
NEAR_SWITCH = "near_switch"

INVERTER_STATES = ("i_d", "i_q", "v_d", "v_q")

ROW_CHUNK = 512
"""Rows that :func:`column_rows` converts to Python values at a time."""


def fmt(x: float) -> str:
    """17-significant-digit decimal form (round-trips any float64)."""
    return format(float(x), ".17g")


def _cell_format(cell) -> str:
    """``%`` conversion for one CSV cell: text as is, integers in decimal,
    anything else as a float in the 17-digit form of :func:`fmt`."""
    if isinstance(cell, str):
        return "%s"
    if isinstance(cell, (int, np.integer)):
        return "%d"
    return "%.17g"


def write_trajectory_csv(path: str, columns: Sequence[str], rows) -> None:
    """Write a trajectory table: a header, then one line per row.

    Every row holds the cell types of the first, so one ``%`` template,
    built from the first row, formats them all.
    """
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        first = next(rows, None)
        if first is not None:
            template = ",".join(map(_cell_format, first)) + "\n"
            fh.write(template % tuple(first))
            fh.writelines(template % tuple(row) for row in rows)


def column_rows(*columns):
    """The rows of equal-length columns (arrays or lists), as tuples of
    Python values.

    Each column is converted ``ROW_CHUNK`` rows at a time, so writing a
    table holds one chunk of Python values, not a copy of every column.
    """
    def values(part):
        return part.tolist() if isinstance(part, np.ndarray) else part

    return itertools.chain.from_iterable(
        zip(*(values(col[k : k + ROW_CHUNK]) for col in columns))
        for k in range(0, len(columns[0]), ROW_CHUNK)
    )


def read_trajectory_csv(path: str) -> Tuple[List[str], List[List[str]]]:
    """Read a CSV written by this module; '#' comment lines are skipped."""
    header: Optional[List[str]] = None
    rows: List[List[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise ArgumentError(f"{path} holds no CSV header")
    return header, rows


@dataclass
class RmseReport:
    """Per-(filter, state, window) RMSE plus the resolved experiment setup.

    ``runtime_seconds`` is informational only and never serialized, so
    identical configurations produce byte-identical report files.
    """

    entries: Dict[Tuple[str, str, str], float] = field(default_factory=dict)
    states: Tuple[str, ...] = INVERTER_STATES
    filters: Tuple[str, ...] = ()
    switching_instants: Tuple[float, ...] = ()
    windows: Tuple[Tuple[float, float], ...] = ()
    resolved: Dict[str, str] = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def table(self) -> str:
        """Aligned text table: one row per filter, near-switch and overall groups."""
        col_names = [f"near:{s}" for s in self.states] + [
            f"overall:{s}" for s in self.states
        ]
        width = 13
        lines = []
        header = "underlying model".ljust(18) + "".join(
            name.rjust(width) for name in col_names
        )
        lines.append(header)
        lines.append("-" * len(header))
        for filt in self.filters:
            cells = []
            for window in (NEAR_SWITCH, OVERALL):
                for state in self.states:
                    cells.append(f"{self.entries[(filt, state, window)]:.3e}".rjust(width))
            lines.append(filt.ljust(18) + "".join(cells))
        return "\n".join(lines)


def write_report_csv(path: str, report: RmseReport) -> None:
    """One report file: '#'-commented aligned table + resolved setup, then CSV rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# RMSE report (per-unit)\n")
        for line in report.table().splitlines():
            fh.write("# " + line + "\n")
        if report.switching_instants:
            instants = ", ".join(fmt(t) for t in report.switching_instants)
            fh.write(f"# switching instants (s): {instants}\n")
        else:
            fh.write("# switching instants (s): none\n")
        if report.windows:
            windows = "; ".join(f"[{fmt(a)}, {fmt(b)}]" for a, b in report.windows)
            fh.write(f"# near-switch windows (s): {windows}\n")
        fh.write("# resolved configuration:\n")
        for key, val in report.resolved.items():
            fh.write(f"#   {key} = {val}\n")
        fh.write("filter,state,window,rmse\n")
        for filt in report.filters:
            for state in report.states:
                for window in (OVERALL, NEAR_SWITCH):
                    val = report.entries[(filt, state, window)]
                    fh.write(f"{filt},{state},{window},{fmt(val)}\n")


def read_report_csv(path: str) -> Dict[Tuple[str, str, str], float]:
    header, rows = read_trajectory_csv(path)
    if header != ["filter", "state", "window", "rmse"]:
        raise ArgumentError(f"{path} is not a report CSV")
    return {(r[0], r[1], r[2]): float(r[3]) for r in rows}


def ensure_dir(path: str) -> None:
    """Make the output directory ``path``; a file in its way is a ``ConfigError``."""
    if path and not os.path.isdir(path):
        try:
            os.makedirs(path, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ConfigError(
                f"output directory {path!r} is a file or lies under one"
            ) from None
