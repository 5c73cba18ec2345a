"""Seeded workload generator and output checks for the hdsim benchmark.

Each workload is one ``hdsim`` subcommand plus a config file generated
from the benchmark seed.  The config file is the program's only input:
the command line passes ``--config`` and ``--out`` and nothing else.

This module imports ``hdsim`` lazily, inside functions, so the runner can
report a missing program source before anything else happens.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

# SHA-256 of the three ``compare`` files at seed 42, taken at the commit
# that introduced this benchmark.  Any byte change in the reference study
# fails this check.
GOLDEN_SEED = 42
GOLDEN_COMPARE_DIGESTS = {
    "report.csv": "77dfb7eac0a478bdcb2d4615e65ea45f854929da3be324763628249f456b16aa",
    "trajectory_continuous.csv": "36071396d51721c9dfd577d2029a1ef8db55066061f543f396f9053a118b0236",
    "trajectory_hybrid.csv": "f8ae6594eb48b73ee2dbb464761dc02023d0e8ea7d600016b805b8bc62c505ac",
}

SWITCH_TOL = 1e-9
"""Largest allowed distance between a localized switch and the profile's
analytic threshold crossing (the program's own localization tolerance)."""

# Reference inverter scenario (the defaults of ``hdsim.config.SCHEMA``),
# written out so a change of defaults cannot silently change the workload.
_REFERENCE_INVERTER = (
    "model = inverter\n"
    "dt = 0.0001\n"
    "inverter.v_low = 0.8\n"
    "inverter.v_high = 0.9\n"
    "noise.q = 0.01\n"
    "noise.r_id = 0.01\n"
    "noise.r_iq = 0.01\n"
    "noise.r_vd = 0.004\n"
    "noise.r_vq = 0.004\n"
    "ekf.p0 = 0.001\n"
)

VERIFY_SAMPLES = 50
VERIFY_HORIZON = 5.0
VERIFY_DT = 1e-2
LONG_HORIZON = 1.0
LONG_DIPS = 10


def program_seed(seed: int) -> int:
    """The seed handed to hdsim (its generators take non-negative seeds)."""
    return seed % 2**31


def compare_config(seed: int) -> str:
    return (
        _REFERENCE_INVERTER
        + "filter = both\n"
        + "horizon = 0.2\n"
        + "max_jumps = 50\n"
        + "inverter.profile = 0:1, 0.05:1, 0.06:0.5, 0.12:0.5, 0.13:1, 0.2:1\n"
        + f"seed = {program_seed(seed)}\n"
    )


def verify_config(seed: int) -> str:
    # Mechanical power above the transfer limit (p_m > p_e_max): every
    # sample slips poles at a speed set by the damping, and line 1 trips
    # and is restored about nine times per sample whatever its initial
    # state, so the work barely depends on the seed.  The unsafe threshold
    # sits above p_e_max, so no sample can stop the sweep early.
    return (
        "model = smib\n"
        f"horizon = {VERIFY_HORIZON!r}\n"
        f"dt = {VERIFY_DT!r}\n"
        "max_jumps = 1000000\n"
        "smib.p_m = 2.0\n"
        "smib.d = 0.5\n"
        "smib.p_e_max = 1.5\n"
        f"verify.samples = {VERIFY_SAMPLES}\n"
        "verify.delta_half_width = 0.6\n"
        "verify.omega_half_width = 6\n"
        "verify.i_unsafe = 2.0\n"
        f"seed = {program_seed(seed)}\n"
    )


def dip_profile(seed: int) -> List[Tuple[float, float]]:
    """Grid-voltage breakpoints with LONG_DIPS dips drawn from ``seed``.

    Dip k starts inside its own 0.1 s slot, falls to a depth in
    [0.4, 0.7] pu (below v_low = 0.8), holds, and recovers to 1 pu (above
    v_high = 0.9) before the slot ends, so every dip gives exactly one
    GFL->GFM and one GFM->GFL switch.
    """
    rng = random.Random(seed)
    points = [(0.0, 1.0)]
    for k in range(LONG_DIPS):
        start = k * 0.1 + rng.uniform(0.01, 0.03)
        fall = rng.uniform(0.004, 0.012)
        hold = rng.uniform(0.01, 0.03)
        rise = rng.uniform(0.004, 0.012)
        depth = rng.uniform(0.4, 0.7)
        points += [
            (start, 1.0),
            (start + fall, depth),
            (start + fall + hold, depth),
            (start + fall + hold + rise, 1.0),
        ]
    points.append((LONG_HORIZON, 1.0))
    return points


def simulate_config(seed: int) -> str:
    profile = ", ".join(f"{t!r}:{v!r}" for t, v in dip_profile(seed))
    return (
        _REFERENCE_INVERTER
        + f"horizon = {LONG_HORIZON!r}\n"
        + "max_jumps = 100\n"
        + f"inverter.profile = {profile}\n"
        + f"seed = {program_seed(seed)}\n"
    )


# ---------------------------------------------------------------------------
# Output checks


def file_digests(out_dir: str, names) -> Dict[str, str]:
    digests = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def expected_switches(config) -> List[float]:
    """Analytic switching instants: each fall through v_low (GFL->GFM) and
    each rise through v_high (GFM->GFL) of the grid-voltage profile."""
    scenario = config.scenario()
    profile = scenario.v_grid
    p = scenario.params
    # Every dip crosses each level once going down and once going up, so
    # the crossings alternate down/up in time order.
    falls = profile.crossing_times(p.v_low)[0::2]
    rises = profile.crossing_times(p.v_high)[1::2]
    return sorted(falls + rises)


def _parse_instants(text: str) -> List[float]:
    text = text.strip()
    if text in ("", "none"):
        return []
    return [float(part) for part in text.split(",")]


def _switch_problems(found: List[float], expected: List[float]) -> List[str]:
    if len(found) != len(expected):
        return [f"{len(found)} switches, expected {len(expected)}"]
    worst = max((abs(a - b) for a, b in zip(found, expected)), default=0.0)
    if worst > SWITCH_TOL:
        return [f"switch instants off the profile crossings by {worst:.3e} s"]
    return []


def _line_value(text: str, prefix: str):
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def check_compare(config, out_dir: str, stdout: str) -> List[str]:
    with open(os.path.join(out_dir, "report.csv"), encoding="utf-8") as fh:
        report = fh.read()
    found = _line_value(report, "# switching instants (s):")
    if found is None:
        return ["report.csv has no switching-instants line"]
    return _switch_problems(_parse_instants(found), expected_switches(config))


def check_verify(config, out_dir: str, stdout: str) -> List[str]:
    with open(os.path.join(out_dir, "verify_report.txt"), encoding="utf-8") as fh:
        report = fh.read()
    problems = []
    if _line_value(report, "verdict:") != "no-counterexample-found":
        problems.append(f"verdict {_line_value(report, 'verdict:')!r}")
    checked = _line_value(report, "samples checked:")
    if checked != str(config["verify.samples"]):
        problems.append(f"samples checked {checked!r}, expected {config['verify.samples']}")
    return problems


def check_simulate(config, out_dir: str, stdout: str) -> List[str]:
    problems = []
    termination = _line_value(stdout, "termination:")
    if termination != "horizon reached":
        problems.append(f"termination {termination!r}")
    found = _parse_instants(_line_value(stdout, "jumps at:") or "")
    return problems + _switch_problems(found, expected_switches(config))


# ---------------------------------------------------------------------------
# Model construction (what set-up time covers besides imports and config)


def build_compare(config):
    from hdsim.power import blended_field, inverter_automaton

    scenario = config.scenario()
    return (
        inverter_automaton(scenario.params, scenario.v_grid),
        blended_field(scenario.params, scenario.v_grid),
    )


def build_verify(config):
    from hdsim.power import smib_system

    return smib_system(config.smib_params())


def build_simulate(config):
    from hdsim.power import inverter_automaton

    scenario = config.scenario()
    return inverter_automaton(scenario.params, scenario.v_grid)


# ---------------------------------------------------------------------------
# The workloads


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    make_config: Callable[[int], str]
    outputs: Tuple[str, ...]
    check: Callable
    build: Callable
    steps: Callable
    layers: Tuple[str, ...]
    """Span-name prefixes of the layers this workload was chosen to stress."""

    def argv(self, config_path: str, out_dir: str) -> List[str]:
        return [self.command, "--config", config_path, "--out", out_dir]


def _compare_steps(config) -> int:
    # Truth simulation plus the hybrid and the continuous filter.
    return 3 * config.scenario().n_steps


def _verify_steps(config) -> int:
    n = int(round(float(config["horizon"]) / float(config["dt"])))
    return int(config["verify.samples"]) * n


def _simulate_steps(config) -> int:
    return config.scenario().n_steps


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="compare_ref",
            command="compare",
            why="the paper's headline study: both EKFs on the reference dip, "
            "estimation dominates and events barely run",
            make_config=compare_config,
            outputs=tuple(sorted(GOLDEN_COMPARE_DIGESTS)),
            check=check_compare,
            build=build_compare,
            steps=_compare_steps,
            layers=("estimation",),
        ),
        Workload(
            name="verify_smib_trips",
            command="verify",
            why="SMIB out-of-step falsification sweep with a state-dependent "
            "guard: event localization and the simulate loop work, no EKF",
            make_config=verify_config,
            outputs=("verify_report.txt",),
            check=check_verify,
            build=build_verify,
            steps=_verify_steps,
            layers=("events", "simulate"),
        ),
        Workload(
            name="simulate_inverter_long",
            command="simulate",
            why="long inverter simulation with ten seeded dips: profile lookup "
            "and CSV writing dominate, time-only guards, no EKF",
            make_config=simulate_config,
            outputs=("trajectory_inverter.csv",),
            check=check_simulate,
            build=build_simulate,
            steps=_simulate_steps,
            layers=("report", "power.profile"),
        ),
    )
}
