"""The benchmark's tracer (``bench/spans.py``) still installs on the package.

The tracer rebinds functions and methods of ``hdsim`` by name, so renaming
one of them breaks a traced benchmark run.  These runs are short: a
0.06 s ``compare`` that crosses the first switch and a 3-sample SMIB
``verify`` with trips.
"""

import os

from hdsim import cli_main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

SMIB_TRIPS = (
    "model = smib\nhorizon = 1.0\ndt = 0.01\nmax_jumps = 1000\n"
    "smib.p_m = 2.0\nsmib.d = 0.5\nsmib.p_e_max = 1.5\n"
    "verify.samples = 3\nverify.delta_half_width = 0.6\n"
    "verify.omega_half_width = 6\nverify.i_unsafe = 2.0\nseed = 7\n"
)


def test_bench_tracer_installs_counts_and_restores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans

    compare_cfg = tmp_path / "compare.cfg"
    compare_cfg.write_text("model = inverter\nhorizon = 0.06\nseed = 5\n")
    verify_cfg = tmp_path / "verify.cfg"
    verify_cfg.write_text(SMIB_TRIPS)
    with spans.tracing() as tracer:
        assert cli_main(["compare", "--config", str(compare_cfg),
                         "--out", str(tmp_path / "c")]) == 0
        assert cli_main(["verify", "--config", str(verify_cfg),
                         "--out", str(tmp_path / "v")]) == 0
    assert spans.leftover_patches() == []
    # the spans patched by name were reached: one hybrid-filter jump at
    # 0.054 s, a validated belief per filter run (the filter checks the
    # beliefs it computes itself), and grid alignment
    assert tracer.calls["estimation.jump"] == 1
    assert tracer.calls["estimation.belief_check"] == 2
    assert tracer.calls["systems.grid_align"] > 0
    assert tracer.counts["safety.samples"] == 3
