"""Per-layer tracing of hdsim from outside the package.

``tracing()`` wraps the public functions of each hdsim module in timing
spans for the duration of a ``with`` block.  A function is wrapped by
rebinding every module attribute that refers to it (``estimation`` and
``simulate`` each hold their own ``rk4_step``, ``cli`` holds
``run_comparison``, the package ``hdsim`` holds the ``simulate``
function that shadows its submodule, ...); methods are wrapped on their
class.  Leaving the block restores every binding.

Each span records ``calls``, ``self_s`` (duration minus the time its
child spans cover) and ``total_s``.  Counters are taken at the same
boundaries.  Spans and counters stay in memory; ``Tracer.metrics()``
turns them into the benchmark's per-layer metrics at the end.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Tuple

SPAN_MARK = "_bench_span"


def hdsim_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hdsim" or name.startswith("hdsim."))
    ]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn: Callable, merge_nested: bool = False) -> Callable:
        """Wrap ``fn`` in a span called ``name``.

        With ``merge_nested``, a call made from inside a span of the same
        name stays part of that span (one blended field evaluation that
        calls the GFL and GFM fields counts as one evaluation).
        """
        stack = self._stack
        calls, self_s, total_s, active = self.calls, self.self_s, self.total_s, self.active
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            if merge_nested and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                total_s[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        setattr(wrapper, SPAN_MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch_function(self, original: Callable, replacement: Callable) -> None:
        """Rebind every hdsim module attribute that is ``original``."""
        found = False
        for mod in hdsim_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"no module binding of {original!r}")

    def patch_method(self, cls: type, attr: str, replacement: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        out: Dict[str, Tuple[float, str]] = {}
        for name, kind, unit in PER_LAYER:
            out[name] = (self._value(name, kind), unit)
        return out

    def counters(self) -> Dict[str, float]:
        """The metrics that count work (everything but times)."""
        return {k: v for k, (v, unit) in self.metrics().items() if unit != "s"}

    def _value(self, metric: str, kind: str) -> float:
        span, _, stat = metric.rpartition(".")
        if kind == "span":
            if stat == "calls":
                return self.calls[span]
            if stat == "self_s":
                return self.self_s.get(span, 0.0)
            return self.total_s.get(span, 0.0)
        if kind == "ratio":
            counter, per_span = RATIOS[metric]
            calls = self.calls[per_span]
            return self.counts[counter] / calls if calls else 0.0
        return self.counts[metric]


def _install(tracer: Tracer) -> None:
    import hdsim.cli as cli
    import hdsim.compare as compare
    import hdsim.config as config
    import hdsim.estimation as estimation
    import hdsim.events as events
    import hdsim.integrate as integrate
    import hdsim.metrics as metrics
    import hdsim.power as power
    import hdsim.report as report
    import hdsim.safety as safety
    import hdsim.systems as systems

    simulate_mod = sys.modules["hdsim.simulate"]
    counts, active, span = tracer.counts, tracer.active, tracer.span

    def plain(name, fn, **kw):
        tracer.patch_function(fn, span(name, fn, **kw))

    for name, fn in (
        ("estimation.ekf_update", estimation.ekf_update),
        ("estimation.numerical_jacobian", estimation.numerical_jacobian),
        ("estimation.jump", estimation._jump_belief),
        ("estimation.run_ekf", estimation.run_ekf),
        ("estimation.ekf_predict", estimation.ekf_predict),
        ("power.generate_truth_and_measurements", power.generate_truth_and_measurements),
        ("metrics.rmse", metrics.rmse),
        ("compare.run_comparison", compare.run_comparison),
        ("config.load_config", config.load_config),
        ("cli.cli_main", cli.cli_main),
    ):
        plain(name, fn)
    for fn in (power.gfl_flow, power.gfm_flow, power.blended_flow):
        plain("power.field", fn, merge_nested=True)

    rk4_step = integrate.rk4_step

    def counted_rk4(*args, **kwargs):
        if active["estimation.ekf_predict"]:
            counts["estimation.ekf_predict.rk4"] += 1
        return rk4_step(*args, **kwargs)

    tracer.patch_function(rk4_step, span("integrate.rk4_step", counted_rk4))

    locate_event = events.locate_event

    def counted_locate(margin, *args, **kwargs):
        def counted_margin(*margin_args):
            counts["events.locate_event.margin_evals"] += 1
            return margin(*margin_args)

        t_star = locate_event(counted_margin, *args, **kwargs)
        counts["events.locate_event.found"] += t_star is not None
        return t_star

    tracer.patch_function(locate_event, span("events.locate_event", counted_locate))

    simulate = simulate_mod.simulate

    def counted_simulate(system, x0, horizon, max_jumps, dt, mode0=None, t0=0.0):
        traj = simulate(system, x0, horizon, max_jumps, dt, mode0=mode0, t0=t0)
        counts["simulate.jumps"] += len(traj.jumps)
        counts["simulate.grid_steps"] += round((traj.samples[-1].time.t - t0) / dt)
        return traj

    tracer.patch_function(simulate, span("simulate.simulate", counted_simulate))

    check_safety = safety.check_safety

    def counted_safety(*args, **kwargs):
        verdict = check_safety(*args, **kwargs)
        counts["safety.samples"] += verdict.samples_checked
        return verdict

    tracer.patch_function(check_safety, span("safety.check_safety", counted_safety))

    for name in ("write_trajectory_csv", "write_report_csv"):
        writer = getattr(report, name)

        def counted_writer(path, *args, _writer=writer, **kwargs):
            _writer(path, *args, **kwargs)
            counts["report.bytes_written"] += os.path.getsize(path)

        tracer.patch_function(writer, span(f"report.{name}", counted_writer))

    smib_system = power.smib_system

    def traced_smib_system(*args, **kwargs):
        system = smib_system(*args, **kwargs)
        return dataclasses.replace(
            system, flow_map=span("power.field", system.flow_map, merge_nested=True)
        )

    setattr(traced_smib_system, SPAN_MARK, "power.smib_system")
    tracer.patch_function(smib_system, traced_smib_system)

    for cls, attr, name in (
        (estimation.GaussianBelief, "__post_init__", "estimation.belief_check"),
        (power.PiecewiseLinearProfile, "__call__", "power.profile"),
        (power.GaussianStream, "normals", "power.gaussian_normals"),
        (systems.HybridTrajectory, "append", "systems.append"),
        (systems.HybridTrajectory, "grid_states", "systems.grid_align"),
        (systems.HybridTrajectory, "grid_modes", "systems.grid_align"),
        (systems.HybridTrajectory, "grid_jump_counts", "systems.grid_align"),
    ):
        tracer.patch_method(cls, attr, span(name, cls.__dict__[attr]))


def leftover_patches() -> List[str]:
    """Names of hdsim bindings that still hold a span wrapper."""
    import hdsim.estimation as estimation
    import hdsim.power as power
    import hdsim.systems as systems

    owners = hdsim_modules() + [
        estimation.GaussianBelief,
        power.PiecewiseLinearProfile,
        power.GaussianStream,
        systems.HybridTrajectory,
    ]
    left = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if callable(value) and hasattr(value, SPAN_MARK):
                left.append(f"{owner.__name__}.{attr}")
    return left


@contextmanager
def tracing():
    """Trace hdsim for the duration of the block; yields the Tracer."""
    tracer = Tracer()
    try:
        _install(tracer)
        yield tracer
    finally:
        tracer.restore()


# (metric, kind, unit).  kind: "span" reads a span statistic named by the
# metric's last component, "count" reads a counter, "ratio" divides the
# counter named in RATIOS by the calls of the span named there.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("estimation.ekf_predict.calls", "span", "count"),
    ("estimation.ekf_predict.self_s", "span", "s"),
    ("estimation.ekf_predict.rk4_per_call", "ratio", "count"),
    ("estimation.numerical_jacobian.self_s", "span", "s"),
    ("estimation.ekf_update.calls", "span", "count"),
    ("estimation.ekf_update.self_s", "span", "s"),
    ("estimation.belief_check.calls", "span", "count"),
    ("estimation.belief_check.self_s", "span", "s"),
    ("estimation.jump.calls", "span", "count"),
    ("estimation.jump.self_s", "span", "s"),
    ("estimation.run_ekf.self_s", "span", "s"),
    ("power.profile.calls", "span", "count"),
    ("power.profile.self_s", "span", "s"),
    ("power.field.calls", "span", "count"),
    ("power.field.self_s", "span", "s"),
    ("power.generate_truth_and_measurements.self_s", "span", "s"),
    ("power.gaussian_normals.self_s", "span", "s"),
    ("events.locate_event.calls", "span", "count"),
    ("events.locate_event.found", "count", "count"),
    ("events.locate_event.found_ratio", "ratio", "ratio"),
    ("events.locate_event.margin_evals", "count", "count"),
    ("events.locate_event.self_s", "span", "s"),
    ("simulate.simulate.calls", "span", "count"),
    ("simulate.simulate.self_s", "span", "s"),
    ("simulate.jumps", "count", "count"),
    ("simulate.grid_steps", "count", "count"),
    ("systems.append.calls", "span", "count"),
    ("systems.append.self_s", "span", "s"),
    ("systems.grid_align.calls", "span", "count"),
    ("systems.grid_align.self_s", "span", "s"),
    ("integrate.rk4_step.calls", "span", "count"),
    ("integrate.rk4_step.self_s", "span", "s"),
    ("report.write_trajectory_csv.self_s", "span", "s"),
    ("report.write_report_csv.self_s", "span", "s"),
    ("report.bytes_written", "count", "B"),
    ("metrics.rmse.self_s", "span", "s"),
    ("safety.check_safety.self_s", "span", "s"),
    ("safety.samples", "count", "count"),
    ("compare.run_comparison.self_s", "span", "s"),
    ("config.load_config.total_s", "span", "s"),
    ("cli.cli_main.total_s", "span", "s"),
]

RATIOS = {
    "estimation.ekf_predict.rk4_per_call": (
        "estimation.ekf_predict.rk4", "estimation.ekf_predict"
    ),
    "events.locate_event.found_ratio": (
        "events.locate_event.found", "events.locate_event"
    ),
}
