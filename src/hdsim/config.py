"""Flat key=value experiment configuration.

The format is deliberately schema-free text: one ``key = value`` pair per
line, ``#`` starts a comment, dotted prefixes group related keys
(``inverter.v_low = 0.8``).  Unknown keys and a key set twice are
rejected so typos fail loudly instead of silently running defaults or
the last of two values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import ArgumentError, ConfigError
from .estimation import DEFAULT_P0, NoiseModel
from .power import (
    DEFAULT_MAX_JUMPS,
    InverterParams,
    InverterScenario,
    PiecewiseLinearProfile,
    SmibParams,
    inverter_automaton,
    smib_state,
    smib_system,
)
from .report import INVERTER_STATES
from .systems import FlowJumpSystem, HybridAutomaton

# Model-parameter and filter defaults come from their single sources in
# ``power`` and ``estimation``; the inverter experiment's own defaults (seed,
# horizon, dt, initial state, grid profile, noise) are the literals in SCHEMA.
_INV = InverterParams()
_SMIB = SmibParams()


def _floats(raw: str) -> Tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


def _profile(raw: str) -> Tuple[Tuple[float, float], ...]:
    points = []
    for part in filter(None, map(str.strip, raw.split(","))):
        t, colon, v = part.partition(":")
        if not colon:
            raise ValueError(f"breakpoint {part!r} is not t:value")
        points.append((float(t), float(v)))
    return tuple(points)


def _echo(x) -> str:
    """The double ``x`` in ``:g`` form when that reads back as it, else its repr."""
    x = float(x)
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


# parser -> (noun, writer): what the parser reads, and the echo of a value
# that the parser reads back as that value
_KINDS: Dict[Callable[[str], object], Tuple[str, Callable[[object], str]]] = {
    str: ("text", str),
    int: ("an integer", str),
    float: ("a number", lambda x: str(float(x))),
    _floats: ("a list of numbers", lambda xs: ", ".join(map(_echo, xs))),
    _profile: (
        "a list of (t, value) pairs",
        lambda pts: ", ".join(f"{_echo(t)}:{_echo(x)}" for t, x in pts),
    ),
}


# key -> (parser, default, description)
SCHEMA: Dict[str, Tuple[Callable[[str], object], object, str]] = {
    "model": (str, "inverter", "model to run: inverter | smib"),
    "filter": (str, "both", "filter(s) to run: hybrid | continuous | both"),
    "seed": (int, 42, "measurement-noise seed (flag > config > HDS_SEED env)"),
    "horizon": (float, 0.2, "simulation horizon in seconds"),
    "dt": (float, 1e-4, "fixed integration / measurement step in seconds"),
    "near_switch_window": (float, 0.005, "half-width of near-switch RMSE windows (s)"),
    "max_jumps": (int, DEFAULT_MAX_JUMPS, "jump budget per simulation"),
    "out": (str, ".", "output directory (overridden by --out)"),
    "inverter.l_pu": (float, _INV.l_pu, "filter inductance, per-unit"),
    "inverter.r_pu": (float, _INV.r_pu, "filter resistance, per-unit"),
    "inverter.omega": (float, _INV.omega, "grid angular frequency, per-unit"),
    "inverter.v_ref": (float, _INV.v_ref, "GFM d-axis voltage reference, per-unit"),
    "inverter.i_lim": (float, _INV.i_lim, "GFM current clamp, per-unit"),
    "inverter.v_low": (float, _INV.v_low, "GFL->GFM threshold, per-unit"),
    "inverter.v_high": (float, _INV.v_high, "GFM->GFL threshold, per-unit"),
    "inverter.sigmoid_k": (float, _INV.sigmoid_gain, "blend sharpness gain"),
    "inverter.sigmoid_vth": (float, _INV.sigmoid_mid, "blend midpoint voltage, per-unit"),
    "inverter.tau_v": (float, _INV.tau_v, "GFL voltage-tracking time constant (s)"),
    "inverter.tau_i": (float, _INV.tau_i, "GFM current-tracking time constant (s)"),
    "inverter.x0": (_floats, (0.0, 0.0, 1.0, 0.0), "initial [i_d, i_q, v_d, v_q]"),
    "inverter.profile": (  # 1 pu, a dip to 0.5 pu over 50-60 ms, back over 120-130 ms
        _profile,
        ((0.0, 1.0), (0.05, 1.0), (0.06, 0.5), (0.12, 0.5), (0.13, 1.0), (0.2, 1.0)),
        "grid-voltage breakpoints as comma-separated t:value pairs",
    ),
    "noise.q": (float, 1e-2, "process-noise intensity (per-step Q = q*dt*I)"),
    "noise.r_id": (float, 0.01, "i_d measurement noise standard deviation"),
    "noise.r_iq": (float, 0.01, "i_q measurement noise standard deviation"),
    "noise.r_vd": (float, 0.004, "v_d measurement noise standard deviation"),
    "noise.r_vq": (float, 0.004, "v_q measurement noise standard deviation"),
    "ekf.p0": (float, DEFAULT_P0, "initial covariance P0 = p0*I"),
    "smib.m": (float, _SMIB.m, "inertia constant"),
    "smib.d": (float, _SMIB.d, "damping coefficient"),
    "smib.p_m": (float, _SMIB.p_m, "mechanical power, per-unit"),
    "smib.p_e_max": (float, _SMIB.p_e_max, "electrical power amplitude: P_e = p_e_max*sin(delta)"),
    "smib.i_max": (float, _SMIB.i_max, "line-1 overload threshold, per-unit"),
    "smib.p_min": (float, _SMIB.p_min, "restoration band lower edge, per-unit"),
    "smib.p_max": (float, _SMIB.p_max, "restoration band upper edge, per-unit"),
    "smib.delta0": (float, 0.6, "initial rotor angle (rad)"),
    "smib.omega0": (float, 0.0, "initial speed deviation"),
    "smib.line0": (int, 1, "initially active line: 1 | 2"),
    "verify.samples": (int, 20, "number of sampled initial states"),
    "verify.delta_half_width": (float, 0.2, "smib sampling half-width around delta0"),
    "verify.omega_half_width": (float, 0.5, "smib sampling half-width around omega0"),
    "verify.x0_half_width": (float, 0.05, "inverter sampling half-width around x0"),
    "verify.i_unsafe": (float, -1.0, "unsafe current threshold (-1: model default)"),
}

MAX_GRID_STEPS = 10**7
"""Largest number of grid steps ``horizon / dt`` a config may ask for."""


def _one_of(*choices):
    return (lambda x: isinstance(x, str) and x in choices), f"one of {choices}"


# key -> (test, what the value must be): what a value, once read as its kind
# (and, for a number, found finite), must also pass
_RULES: Dict[str, Tuple[Callable[[object], bool], str]] = {
    "model": _one_of("inverter", "smib"),
    "filter": _one_of("hybrid", "continuous", "both"),
    "out": (lambda x: isinstance(x, (str, os.PathLike)), "text or a path"),
    "horizon": (lambda x: x > 0.0, "positive"),
    "dt": (lambda x: x > 0.0, "positive"),
    "verify.samples": (lambda n: n >= 1, "at least 1"),
    "inverter.x0": (lambda x: len(x) == 4, "4 numbers [i_d, i_q, v_d, v_q]"),
    **dict.fromkeys(
        (
            "seed", "near_switch_window", "max_jumps", "ekf.p0",
            "noise.q", "noise.r_id", "noise.r_iq", "noise.r_vd", "noise.r_vq",
            "verify.delta_half_width", "verify.omega_half_width",
            "verify.x0_half_width",
        ),
        (lambda x: x >= 0, "non-negative"),
    ),
}


def _read_back(key: str, parse: Callable[[str], object], value):
    """What ``key``'s ``parse`` reads from the echo of ``value``.  A value
    set from Python is accepted when it is neither text nor a bool and reads
    back as an equal value (NaN equal to NaN, entry by entry); it is then
    kept as read: an ``int`` for a float key runs as a ``float``, a list as a tuple."""
    noun, write = _KINDS[parse]
    if not isinstance(value, (str, bool, np.bool_)):
        try:
            read = parse(write(value))
            if _same(read, value):
                return read
        except (TypeError, ValueError, ArithmeticError):
            pass
    raise ConfigError(f"{key} must be {noun}, got {value!r}")


def _same(read, value) -> bool:
    if isinstance(read, tuple):
        return len(read) == len(value) and all(map(_same, read, value))
    return bool(read == value) or (read != read and value != value)


class ConfiguredModel(NamedTuple):
    """What a command needs of the configured model: ``system``, ``x0`` and
    ``mode0`` as :func:`hdsim.simulate.simulate` takes them, the ``states``
    a trajectory CSV writes, the box ``x0 ± half`` that ``verify`` samples,
    the column-wise ``current`` it checks, its limit and the inverter's ``scenario``."""

    system: Union[FlowJumpSystem, HybridAutomaton]
    x0: np.ndarray
    mode0: Optional[str]
    states: Tuple[str, ...]
    half: np.ndarray
    current: Callable[[np.ndarray], np.ndarray]
    current_limit: float
    scenario: Optional[InverterScenario] = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration: schema defaults overlaid with ``values``, each
    read back through its key's kind, kept as read and checked against its
    rule in one pass; read-only."""

    values: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        for key in self.values:
            if key not in SCHEMA:
                raise ConfigError(f"unknown key {key!r}")
        v = {k: spec[1] for k, spec in SCHEMA.items()}
        v.update(self.values)
        for key, (parse, _, _) in SCHEMA.items():
            if parse is not str:
                v[key] = _read_back(key, parse, v[key])
                if parse is not int and not np.all(np.isfinite(v[key])):
                    raise ConfigError(f"{key} must be finite, got {v[key]!r}")
            if key in _RULES and not _RULES[key][0](v[key]):
                raise ConfigError(f"{key} must be {_RULES[key][1]}, got {v[key]!r}")
        object.__setattr__(self, "values", MappingProxyType(v))
        if v["horizon"] / v["dt"] > MAX_GRID_STEPS:
            raise ConfigError(
                f"horizon / dt must be at most {MAX_GRID_STEPS} grid steps, "
                f"got horizon = {v['horizon']!r}, dt = {v['dt']!r}"
            )
        # Model parameters, the initial state, the profile and its coverage
        # of the horizon are checked where they are defined, and the noise
        # keys and the verify sampling box where they are built.
        try:
            object.__setattr__(self, "_model", self._build())
        except ArgumentError as exc:
            raise ConfigError(f"invalid {v['model']} model: {exc}") from exc

    def __getitem__(self, key: str):
        return self.values[key]

    # -- model builders ----------------------------------------------------

    def scenario(self) -> InverterScenario:
        v = self.values
        sigmas = ("noise.r_id", "noise.r_iq", "noise.r_vd", "noise.r_vq")
        for key in sigmas:  # R = diag(sigma^2)
            if math.isinf(v[key] * v[key]):
                raise ConfigError(
                    f"{key} = {v[key]!r} is too large: its variance sigma^2 overflows"
                )
        if math.isinf(v["noise.q"] * v["dt"]):  # Q = q*dt*I
            raise ConfigError(
                f"noise.q = {v['noise.q']!r} is too large: its per-step Q = q*dt "
                f"overflows at dt = {v['dt']!r}"
            )
        profile = PiecewiseLinearProfile(
            times=tuple(t for t, _ in v["inverter.profile"]),
            values=tuple(val for _, val in v["inverter.profile"]),
        )
        return InverterScenario(
            horizon=v["horizon"],
            dt=v["dt"],
            v_grid=profile,
            seed=v["seed"],
            x0=v["inverter.x0"],
            params=InverterParams(
                l_pu=v["inverter.l_pu"],
                r_pu=v["inverter.r_pu"],
                omega=v["inverter.omega"],
                v_ref=v["inverter.v_ref"],
                i_lim=v["inverter.i_lim"],
                v_low=v["inverter.v_low"],
                v_high=v["inverter.v_high"],
                sigmoid_gain=v["inverter.sigmoid_k"],
                sigmoid_mid=v["inverter.sigmoid_vth"],
                tau_v=v["inverter.tau_v"],
                tau_i=v["inverter.tau_i"],
            ),
            noise=NoiseModel(  # every state is measured: H = I
                q=v["noise.q"] * v["dt"] * np.eye(4),
                r=np.diag([v[key] ** 2 for key in sigmas]),
                h=np.eye(4),
            ),
        )

    def smib_params(self) -> SmibParams:
        v = self.values
        return SmibParams(**{f.name: v[f"smib.{f.name}"] for f in fields(SmibParams)})

    def system(self) -> ConfiguredModel:
        """The configured model, as built once when the values were validated."""
        return self._model

    def _build(self) -> ConfiguredModel:
        """Build the configured model from the values as read, where ``model``
        picks the system (the CLI also names outputs by it, and
        ``run_comparison`` refuses smib)."""
        v = self.values
        if v["model"] == "smib":
            params = self.smib_params()
            x0 = smib_state(v["smib.delta0"], v["smib.omega0"], v["smib.line0"])
            keys = ("verify.delta_half_width", "verify.omega_half_width", None)
            return ConfiguredModel(
                smib_system(params), x0, None, ("delta", "omega"),
                self._half(x0, keys), lambda x: abs(params.p_e(x[0])), params.i_max,
            )
        scenario = self.scenario()
        automaton = inverter_automaton(scenario.params, scenario.v_grid)
        return ConfiguredModel(
            automaton, scenario.x0, scenario.initial_mode, INVERTER_STATES,
            self._half(scenario.x0, ("verify.x0_half_width",) * 4),
            lambda x: np.maximum(np.abs(x[0]), np.abs(x[1])), scenario.params.i_lim,
            scenario,
        )

    def _half(self, x0: np.ndarray, keys: Tuple[Optional[str], ...]) -> np.ndarray:
        """The half-width each key gives its entry of ``x0`` (``None``: 0),
        once the sampling box ``x0 ± half`` has a finite width."""
        half = [0.0 if key is None else self.values[key] for key in keys]
        for x, h, key in zip(x0.tolist(), half, keys):
            if not math.isfinite((x + h) - (x - h)):
                raise ConfigError(
                    f"{key} = {h!r} leaves no finite sampling box around {x!r}"
                )
        return np.array(half)

    def resolved_items(self) -> Dict[str, str]:
        """Every schema key with its resolved value, for report echoing.

        The output directory is omitted: it does not affect any computed
        number, and leaving it out keeps reports byte-identical across
        reruns into different directories.
        """
        keys = sorted(set(SCHEMA) - {"out"})
        return {key: _KINDS[SCHEMA[key][0]][1](self.values[key]) for key in keys}


def _parse_values(text: str, source: Optional[str]) -> Dict[str, object]:
    values: Dict[str, object] = {}
    set_on: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(
                f"{source or '<config>'}:{lineno}: expected 'key = value', got {line!r}"
            )
        key = key.strip()
        raw = raw.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source or '<config>'}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(
                f"{source or '<config>'}:{lineno}: key {key!r} already set on line "
                f"{set_on[key]}"
            )
        set_on[key] = lineno
        try:
            values[key] = SCHEMA[key][0](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
    return values


def read_values(path: Optional[str]) -> Dict[str, object]:
    """The values a config file sets, parsed but not yet validated; ``None``
    sets none.  :class:`ExperimentConfig` validates them."""
    if path is None:
        return {}
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    return _parse_values(text, path)


def parse_config_text(text: str, source: Optional[str] = None) -> ExperimentConfig:
    return ExperimentConfig(values=_parse_values(text, source))


def load_config(path: Optional[str]) -> ExperimentConfig:
    """Load a config file; ``None`` yields the built-in defaults."""
    return ExperimentConfig(values=read_values(path))
