"""RMSE metric, CSV fidelity, and report rendering."""

import numpy as np
import pytest

from hdsim import ArgumentError, rmse
from hdsim.report import (
    NEAR_SWITCH,
    OVERALL,
    ROW_CHUNK,
    RmseReport,
    column_rows,
    fmt,
    read_report_csv,
    read_trajectory_csv,
    write_report_csv,
    write_trajectory_csv,
)


def test_rmse_zero_for_identical_series():
    series = np.random.default_rng(0).standard_normal((50, 4))
    assert np.all(rmse(series, series) == 0.0)


def test_rmse_constant_offset_is_exact():
    truth = np.zeros((40, 4))
    est = truth.copy()
    est[:, 2] += 0.1
    out = rmse(est, truth)
    assert out[2] == pytest.approx(0.1, abs=1e-15)
    assert out[0] == 0.0 and out[1] == 0.0 and out[3] == 0.0


def test_rmse_length_mismatch_rejected():
    with pytest.raises(ArgumentError):
        rmse(np.zeros((5, 2)), np.zeros((6, 2)))


def test_rmse_window_restriction():
    times = np.arange(10) * 0.1
    truth = np.zeros((10, 1))
    est = truth.copy()
    est[3:5, 0] = 1.0  # errors only at t = 0.3, 0.4
    inside = rmse(est, truth, times=times, windows=[(0.25, 0.45)])
    assert inside[0] == pytest.approx(1.0)
    outside = rmse(est, truth, times=times, windows=[(0.6, 0.9)])
    assert outside[0] == 0.0
    empty = rmse(est, truth, times=times, windows=[(5.0, 6.0)])
    assert np.isnan(empty[0])


def test_rmse_requires_times_with_windows():
    with pytest.raises(ArgumentError):
        rmse(np.zeros((5, 1)), np.zeros((5, 1)), windows=[(0.0, 1.0)])


def test_rmse_refuses_timestamps_of_another_length():
    with pytest.raises(ArgumentError, match="timestamps have length 2, series have 3"):
        rmse(np.zeros((3, 1)), np.zeros((3, 1)), times=[0.0, 1.0], windows=[(0.0, 1.0)])


def test_fmt_round_trips_float64():
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(fmt(x)) == x


def test_trajectory_csv_round_trip(tmp_path):
    path = str(tmp_path / "traj.csv")
    rows = [
        (0.0, 0, "GFL", 0.1234567890123456789, -1e-17),
        (1e-4, 1, "GFM", 3.14159265358979312, 2.0),
    ]
    write_trajectory_csv(path, ("t", "j", "mode", "a", "b"), rows)
    header, parsed = read_trajectory_csv(path)
    assert header == ["t", "j", "mode", "a", "b"]
    for row, orig in zip(parsed, rows):
        assert float(row[0]) == orig[0]
        assert int(row[1]) == orig[1]
        assert row[2] == orig[2]
        assert float(row[3]) == orig[3]
        assert float(row[4]) == orig[4]
    write_trajectory_csv(path, ("t", "j"), iter([]))  # no rows: the header alone
    assert read_trajectory_csv(path) == (["t", "j"], [])


def test_column_rows_are_the_rows_of_the_columns_across_chunks():
    n = 2 * ROW_CHUNK + 3
    rng = np.random.default_rng(5)
    times, states = rng.standard_normal(n), rng.standard_normal((n, 2))
    jumps, modes = np.arange(n) // 1000, [f"m{k % 3}" for k in range(n)]
    rows = list(column_rows(times, jumps, modes, *states.T))
    assert rows == list(zip(times.tolist(), jumps.tolist(), modes, *states.T.tolist()))
    assert all(type(row[1]) is int and type(row[3]) is float for row in rows)
    assert list(column_rows(np.empty(0), [])) == []


def _old_per_cell_line(row):
    # The writer's text before rows were formatted by one template.
    cells = []
    for cell in row:
        if isinstance(cell, str):
            cells.append(cell)
        elif isinstance(cell, (int, np.integer)):
            cells.append(str(int(cell)))
        else:
            cells.append(fmt(cell))
    return ",".join(cells) + "\n"


def test_trajectory_csv_cells_keep_their_per_cell_text(tmp_path):
    rng = np.random.default_rng(11)
    rows = [
        ("GFL", 3, np.int64(-7), 0.1, np.float64(2.5e-300)),
        ("GFM", True, np.int32(0), float("nan"), float("inf")),
        ("50%", -4, np.int64(2**62), -0.0, float("-inf")),
        [np.str_("x"), 0, np.uint8(255), np.float64(-0.0), np.float64("nan")],
        ("GFL", 1, 2, 3, 4.0),  # an int where the other rows hold floats
    ]
    rows += [
        ("GFL", int(k), np.int64(k), float(a), np.float64(b))
        for k, a, b in zip(
            rng.integers(-10**9, 10**9, 200),
            rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
            rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200),
        )
    ]
    path = tmp_path / "cells.csv"
    write_trajectory_csv(str(path), ("a", "b", "c", "d", "e"), iter(rows))
    expected = "a,b,c,d,e\n" + "".join(map(_old_per_cell_line, rows))
    assert path.read_bytes() == expected.encode("utf-8")


def sample_report():
    report = RmseReport(filters=("hybrid", "continuous"))
    for f in report.filters:
        for s in report.states:
            for w in (OVERALL, NEAR_SWITCH):
                report.entries[(f, s, w)] = 0.5 if f == "continuous" else 1e-4
    report.switching_instants = (0.054, 0.128)
    report.windows = ((0.049, 0.059), (0.123, 0.133))
    report.resolved = {"dt": "0.0001", "seed": "42"}
    return report


def test_report_csv_round_trip(tmp_path):
    path = str(tmp_path / "report.csv")
    report = sample_report()
    write_report_csv(path, report)
    entries = read_report_csv(path)
    assert entries[("hybrid", "v_d", OVERALL)] == 1e-4
    assert entries[("continuous", "i_q", NEAR_SWITCH)] == 0.5
    # resolved configuration is echoed in the comment header
    with open(path) as fh:
        text = fh.read()
    assert "seed = 42" in text
    assert "switching instants" in text


def test_a_csv_with_no_header_is_refused(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# a comment\n\n")
    with pytest.raises(ArgumentError, match="holds no CSV header"):
        read_trajectory_csv(str(path))


def test_a_csv_that_is_not_a_report_is_refused(tmp_path):
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(path, ("t", "x"), [(0.0, 1.0)])
    with pytest.raises(ArgumentError, match="is not a report CSV"):
        read_report_csv(path)


def test_report_table_is_aligned():
    table = sample_report().table()
    lines = table.splitlines()
    assert len(lines) == 4
    assert "near:i_d" in lines[0] and "overall:v_q" in lines[0]
    assert lines[2].startswith("hybrid")
    assert lines[3].startswith("continuous")
