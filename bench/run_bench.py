#!/usr/bin/env python3
"""hdsim benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --workload all  --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/``.  ``NAME`` is one of ``compare_ref``, ``verify_smib_trips`` and
``simulate_inverter_long`` (see bench/README.md).

``--trace 0`` measures the end-to-end metrics with tracing off: warm
in-process runs of the workload command for ``S`` seconds, each between
two runs of a fixed reference kernel (``wall_ref``; also ``wall_s`` and
``steps_per_s``), fresh processes for set-up time (``setup_s``) and peak
memory (``peak_rss_mb``).  ``--trace 1`` alternates traced and untraced
runs for ``S`` seconds and reports the per-layer metrics of
bench/spans.py plus ``trace.overhead_s``.

Every run's outputs are checked (bench/workloads.py); a run fails on a
nonzero exit, an exception or a failed check.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything is written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 9
MIN_SAMPLES = 3
REFERENCE_ITERS = 100_000
MIN_TRACED = 2  # two traced runs, so their counters can be compared
CHILD_TIMEOUT_S = 150

# The metrics BENCHMARK.json lists, in its order.
END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def quartiles(values: List[float]):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Session:
    """One workload at one seed: its configs, runs and failure count."""

    def __init__(self, workload, seed: int):
        from workloads import GOLDEN_COMPARE_DIGESTS, GOLDEN_SEED, program_seed

        self.workload = workload
        self.dir = WORK / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        # Seed -> the digests every run at that seed must reproduce.
        self.reference: Dict[int, Dict[str, str]] = {}
        if workload.name == "compare_ref":
            self.reference[program_seed(GOLDEN_SEED)] = dict(GOLDEN_COMPARE_DIGESTS)
        self.config_path = self.write_config(seed)

    def write_config(self, seed: int) -> str:
        text = self.workload.make_config(seed)
        path = self.dir / f"seed{seed}.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def out_dir(self, label: str) -> str:
        path = self.dir / label
        path.mkdir(exist_ok=True)
        return str(path)

    def record(self, label: str, config_path: str, out_dir: str,
               rc: Optional[int], stdout: str, stderr: str) -> None:
        """Count one workload run and check its outputs."""
        from hdsim.config import load_config

        from workloads import file_digests

        self.attempted += 1
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}: {stderr.strip()[-500:]}")
        else:
            try:
                config = load_config(config_path)
                problems += self.workload.check(config, out_dir, stdout)
                digests = file_digests(out_dir, self.workload.outputs)
                expected = self.reference.setdefault(int(config["seed"]), digests)
                if digests != expected:
                    changed = sorted(k for k in digests if digests[k] != expected.get(k))
                    problems.append(f"output digests differ: {', '.join(changed)}")
            except (OSError, ValueError) as exc:
                problems.append(f"output check raised {exc!r}")
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def run(self, label: str, config_path: Optional[str] = None) -> float:
        """One in-process run of the workload command; returns its wall time."""
        import hdsim.cli as cli

        config_path = config_path or self.config_path
        out_dir = self.out_dir(label)
        argv = self.workload.argv(config_path, out_dir)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.cli_main(argv)
        except Exception:  # a crash is a failed run, not a crashed benchmark
            rc = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
        self.record(label, config_path, out_dir, rc, out.getvalue(), err.getvalue())
        return elapsed

    def warm_up(self) -> None:
        """First in-process run, not timed: fills caches and lazy imports.

        For ``compare_ref`` it runs at the golden seed, so every benchmark
        run also checks the reference study's bytes.
        """
        from workloads import GOLDEN_SEED

        if self.workload.name == "compare_ref":
            self.run("golden", self.write_config(GOLDEN_SEED))
        else:
            self.run("warmup")

    def child(self, *args: str) -> subprocess.CompletedProcess:
        # The BLAS thread variables are already 1 in os.environ (load_program).
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, str(Path(__file__).with_name("child.py")), *args],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )

    def setup_times(self) -> List[float]:
        times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            proc = self.child("setup", self.workload.name, self.config_path)
            times.append(perf_counter() - start)
            self.attempted += 1
            if proc.returncode != 0:
                self.failed += 1
                self.problems.append(f"setup child: {proc.stderr.strip()[-500:]}")
        return times

    def peak_rss_mb(self) -> float:
        out_dir = self.out_dir("fresh")
        proc = self.child("once", self.workload.name, self.config_path, out_dir)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"fresh run: {proc.stderr.strip()[-500:]}")
            return float("nan")
        self.record("fresh", self.config_path, out_dir, result["rc"],
                    result["stdout"], result["stderr"])
        return result["peak_rss_kb"] / 1024.0


def reference_kernel_s() -> float:
    """Seconds taken by a fixed computation that does not use hdsim.

    It has the shape of hdsim's hot path, a Python loop that builds and
    combines 4-element numpy arrays, so it slows down with the host the
    way the workloads do.  The speed of the shared host drifts by up to
    a factor of two over seconds to minutes; dividing a run's wall time
    by the kernel times measured around it cancels most of that drift.
    """
    import numpy as np

    x = np.array([0.1, 0.2, 0.3, 0.4])
    start = perf_counter()
    for _ in range(REFERENCE_ITERS):
        k = np.array([x[1], -x[0], x[3], -x[2]])
        x = x + 1e-3 * k
    return perf_counter() - start


def timed_loop(seconds: float, step, min_count: int) -> None:
    """Call ``step()`` (which returns its own duration) for ``seconds``:
    at least ``min_count`` times, then while the next call is expected to
    end inside the budget."""
    start = perf_counter()
    last = 0.0
    count = 0
    while count < min_count or perf_counter() - start + last <= seconds:
        last = step()
        count += 1


def measure_end_to_end(session: Session, seconds: float) -> dict:
    from hdsim.config import load_config

    setup = session.setup_times()
    rss = session.peak_rss_mb()
    session.warm_up()
    walls: List[float] = []
    kernels = [reference_kernel_s()]

    def timed_run() -> float:
        walls.append(session.run("timed"))
        kernels.append(reference_kernel_s())
        return walls[-1] + kernels[-1]

    timed_loop(seconds, timed_run, MIN_SAMPLES)
    # Each run against the mean of the kernel runs just before and after it.
    ratios = [2.0 * w / (a + b) for w, a, b in zip(walls, kernels, kernels[1:])]
    q1, wall, q3 = quartiles(walls)
    steps = session.workload.steps(load_config(session.config_path))
    metrics = {
        "wall_ref": statistics.median(ratios),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    detail = {
        "wall_s": wall,
        "wall_s_q1": q1,
        "wall_s_q3": q3,
        "steps_per_s": steps / wall,
        "steps": steps,
        "wall_s_samples": walls,
        "reference_kernel_s_samples": kernels,
        "wall_ref_samples": ratios,
        "setup_s_samples": setup,
    }
    if session.workload.name == "compare_ref":
        from hdsim.report import read_report_csv

        report = read_report_csv(os.path.join(session.out_dir("timed"), "report.csv"))
        detail["rmse_v_d_hybrid"] = report[("hybrid", "v_d", "overall")]
        detail["rmse_v_d_hybrid_near"] = report[("hybrid", "v_d", "near_switch")]
    return {"metrics": {k: (metrics[k], unit) for k, unit in END_TO_END}, "detail": detail}


def measure_per_layer(session: Session, seconds: float) -> dict:
    from spans import leftover_patches, tracing

    session.warm_up()
    traced: List[float] = []
    untraced: List[float] = []
    tracers = []

    def pair() -> float:
        with tracing() as tracer:
            traced.append(session.run("traced"))
        tracers.append(tracer)
        left = leftover_patches()
        if left:
            session.failed += 1
            session.problems.append(f"bindings left patched: {', '.join(left)}")
        untraced.append(session.run("untraced"))
        return traced[-1] + untraced[-1]

    timed_loop(seconds, pair, MIN_TRACED)
    if any(t.counters() != tracers[0].counters() for t in tracers[1:]):
        session.failed += 1
        session.problems.append("per-layer counters differ between traced runs")
    per_run = [t.metrics() for t in tracers]
    metrics = {}
    for name, (value, unit) in per_run[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_run)
        metrics[name] = (value, unit)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    detail = {"traced_s_samples": traced, "untraced_s_samples": untraced}
    return {"metrics": metrics, "detail": detail}


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    from workloads import WORKLOADS

    session = Session(WORKLOADS[name], seed)
    measure = measure_per_layer if trace else measure_end_to_end
    result = measure(session, seconds)
    config_text = Path(session.config_path).read_bytes()
    result.update({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config_sha256": hashlib.sha256(config_text).hexdigest(),
        "attempted": session.attempted,
        "failed": session.failed,
        "fail_ratio": session.failed / max(session.attempted, 1),
        "problems": session.problems,
        "machine": machine_facts(),
    })
    return result


def print_summary(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, trace {result['trace']}, "
          f"config sha256 {result['config_sha256'][:16]})")
    for metric, (value, unit) in result["metrics"].items():
        print(f"  {metric:<46} {value:>14.6g} {unit}")
    detail = result["detail"]
    if "wall_s" in detail:
        print(f"  {'wall_s':<46} {detail['wall_s']:>14.6g} s "
              f"(quartiles {detail['wall_s_q1']:.6g} .. {detail['wall_s_q3']:.6g}, "
              f"n = {len(detail['wall_s_samples'])})")
        print(f"  {'steps_per_s':<46} {detail['steps_per_s']:>14.6g} 1/s")
        print(f"  {'reference_kernel_s':<46} "
              f"{statistics.median(detail['reference_kernel_s_samples']):>14.6g} s")
    for key in ("rmse_v_d_hybrid", "rmse_v_d_hybrid_near"):
        if key in detail:
            print(f"  {key:<46} {detail[key]:>14.6g} pu")
    print(f"  {'fail_ratio':<46} {result['fail_ratio']:>14.6g} "
          f"({result['failed']} of {result['attempted']} runs)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_program() -> Optional[str]:
    """Import hdsim from the checkout's ``src``; returns an error or None."""
    if not (SRC / "hdsim" / "__init__.py").is_file():
        return f"no hdsim source at {SRC}; run from a source checkout"
    for var in THREAD_VARS:  # before numpy loads, in this process too
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import hdsim

    if Path(hdsim.__file__).resolve().parent != (SRC / "hdsim").resolve():
        return f"imported hdsim from {hdsim.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    error = load_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    for result in results:
        print_summary(result)
        path = WORK / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for metric, (value, unit) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
