"""Flat key=value experiment configuration.

The format is deliberately schema-free text: one ``key = value`` pair per
line, ``#`` starts a comment, dotted prefixes group related keys
(``inverter.v_low = 0.8``).  Unknown keys are rejected so typos fail
loudly instead of silently running defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import ArgumentError, ConfigError
from .estimation import DEFAULT_P0, NoiseModel
from .power import (
    DEFAULT_MAX_JUMPS,
    REFERENCE_Q_INTENSITY,
    REFERENCE_SIGMA_CURRENT,
    REFERENCE_SIGMA_VOLTAGE,
    SMIB_P_E_MAX,
    InverterParams,
    InverterScenario,
    PiecewiseLinearProfile,
    SmibParams,
    reference_scenario,
    sine_power,
    smib_state,
)

_INT = "int"
_FLOAT = "float"
_STR = "str"
_FLOATS = "float-list"
_PROFILE = "profile"

# Model, scenario and filter defaults come from their single sources in
# ``power`` and ``estimation``.
_INV = InverterParams()
_SMIB = SmibParams()
_REF = reference_scenario()

# key -> (type, default, description)
SCHEMA: Dict[str, Tuple[str, object, str]] = {
    "model": (_STR, "inverter", "model to run: inverter | smib"),
    "filter": (_STR, "both", "filter(s) to run: hybrid | continuous | both"),
    "seed": (_INT, _REF.seed, "measurement-noise seed (flag > config > HDS_SEED env)"),
    "horizon": (_FLOAT, _REF.horizon, "simulation horizon in seconds"),
    "dt": (_FLOAT, _REF.dt, "fixed integration / measurement step in seconds"),
    "near_switch_window": (_FLOAT, 0.005, "half-width of near-switch RMSE windows (s)"),
    "max_jumps": (_INT, DEFAULT_MAX_JUMPS, "jump budget per simulation"),
    "out": (_STR, ".", "output directory (overridden by --out)"),
    "inverter.l_pu": (_FLOAT, _INV.l_pu, "filter inductance, per-unit"),
    "inverter.r_pu": (_FLOAT, _INV.r_pu, "filter resistance, per-unit"),
    "inverter.omega": (_FLOAT, _INV.omega, "grid angular frequency, per-unit"),
    "inverter.v_ref": (_FLOAT, _INV.v_ref, "GFM d-axis voltage reference, per-unit"),
    "inverter.i_lim": (_FLOAT, _INV.i_lim, "GFM current clamp, per-unit"),
    "inverter.v_low": (_FLOAT, _INV.v_low, "GFL->GFM threshold, per-unit"),
    "inverter.v_high": (_FLOAT, _INV.v_high, "GFM->GFL threshold, per-unit"),
    "inverter.sigmoid_k": (_FLOAT, _INV.sigmoid_gain, "blend sharpness gain"),
    "inverter.sigmoid_vth": (_FLOAT, _INV.sigmoid_mid, "blend midpoint voltage, per-unit"),
    "inverter.tau_v": (_FLOAT, _INV.tau_v, "GFL voltage-tracking time constant (s)"),
    "inverter.tau_i": (_FLOAT, _INV.tau_i, "GFM current-tracking time constant (s)"),
    "inverter.x0": (_FLOATS, tuple(float(v) for v in _REF.x0), "initial [i_d, i_q, v_d, v_q]"),
    "inverter.profile": (
        _PROFILE,
        tuple(zip(_REF.v_grid.times, _REF.v_grid.values)),
        "grid-voltage breakpoints as comma-separated t:value pairs",
    ),
    "noise.q": (_FLOAT, REFERENCE_Q_INTENSITY, "process-noise intensity (per-step Q = q*dt*I)"),
    "noise.r_id": (_FLOAT, REFERENCE_SIGMA_CURRENT, "i_d measurement noise standard deviation"),
    "noise.r_iq": (_FLOAT, REFERENCE_SIGMA_CURRENT, "i_q measurement noise standard deviation"),
    "noise.r_vd": (_FLOAT, REFERENCE_SIGMA_VOLTAGE, "v_d measurement noise standard deviation"),
    "noise.r_vq": (_FLOAT, REFERENCE_SIGMA_VOLTAGE, "v_q measurement noise standard deviation"),
    "ekf.p0": (_FLOAT, DEFAULT_P0, "initial covariance P0 = p0*I"),
    "smib.m": (_FLOAT, _SMIB.m, "inertia constant"),
    "smib.d": (_FLOAT, _SMIB.d, "damping coefficient"),
    "smib.p_m": (_FLOAT, _SMIB.p_m, "mechanical power, per-unit"),
    "smib.p_e_max": (_FLOAT, SMIB_P_E_MAX, "electrical power amplitude: P_e = p_e_max*sin(delta)"),
    "smib.i_max": (_FLOAT, _SMIB.i_max, "line-1 overload threshold, per-unit"),
    "smib.p_min": (_FLOAT, _SMIB.p_min, "restoration band lower edge, per-unit"),
    "smib.p_max": (_FLOAT, _SMIB.p_max, "restoration band upper edge, per-unit"),
    "smib.delta0": (_FLOAT, 0.6, "initial rotor angle (rad)"),
    "smib.omega0": (_FLOAT, 0.0, "initial speed deviation"),
    "smib.line0": (_INT, 1, "initially active line: 1 | 2"),
    "verify.samples": (_INT, 20, "number of sampled initial states"),
    "verify.delta_half_width": (_FLOAT, 0.2, "smib sampling half-width around delta0"),
    "verify.omega_half_width": (_FLOAT, 0.5, "smib sampling half-width around omega0"),
    "verify.x0_half_width": (_FLOAT, 0.05, "inverter sampling half-width around x0"),
    "verify.i_unsafe": (_FLOAT, -1.0, "unsafe current threshold (-1: model default)"),
}

MAX_GRID_STEPS = 10**7
"""Largest number of grid steps ``horizon / dt`` a config may ask for."""

_NON_NEGATIVE = (
    "seed", "near_switch_window", "max_jumps", "ekf.p0",
    "noise.q", "noise.r_id", "noise.r_iq", "noise.r_vd", "noise.r_vq",
    "verify.delta_half_width", "verify.omega_half_width", "verify.x0_half_width",
)

_CHOICES = {
    "model": ("inverter", "smib"),
    "filter": ("hybrid", "continuous", "both"),
}


def _parse_value(key: str, raw: str):
    kind = SCHEMA[key][0]
    try:
        if kind == _INT:
            return int(raw)
        if kind == _FLOAT:
            return float(raw)
        if kind == _STR:
            return raw
        if kind == _FLOATS:
            return tuple(float(part) for part in raw.split(",") if part.strip())
        if kind == _PROFILE:
            points = []
            for part in raw.split(","):
                part = part.strip()
                if not part:
                    continue
                t, _, v = part.partition(":")
                if not _:
                    raise ValueError(f"breakpoint {part!r} is not t:value")
                points.append((float(t), float(v)))
            return tuple(points)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
    raise ConfigError(f"unhandled kind {kind} for key {key}")


@dataclass
class ExperimentConfig:
    """Resolved configuration: schema defaults overlaid with file values."""

    values: Dict[str, object] = field(default_factory=dict)
    source: Optional[str] = None
    explicit: frozenset = frozenset()

    def __post_init__(self):
        self.explicit = frozenset(self.explicit) | frozenset(self.values)
        resolved = {k: spec[1] for k, spec in SCHEMA.items()}
        resolved.update(self.values)
        self.values = v = resolved
        for key, choices in _CHOICES.items():
            if v[key] not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got {v[key]!r}")
        for key, (kind, _, _) in SCHEMA.items():
            numeric = kind in (_FLOAT, _FLOATS, _PROFILE)
            if numeric and not np.all(np.isfinite(np.asarray(v[key], dtype=float))):
                raise ConfigError(f"{key} must be finite, got {v[key]!r}")
        for key in ("horizon", "dt"):
            if not float(v[key]) > 0.0:
                raise ConfigError(f"{key} must be positive, got {v[key]!r}")
        if float(v["horizon"]) / float(v["dt"]) > MAX_GRID_STEPS:
            raise ConfigError(
                f"horizon / dt must be at most {MAX_GRID_STEPS} grid steps, "
                f"got horizon = {v['horizon']!r}, dt = {v['dt']!r}"
            )
        for key in _NON_NEGATIVE:
            if v[key] < 0:
                raise ConfigError(f"{key} must be non-negative, got {v[key]!r}")
        if int(v["verify.samples"]) < 1:
            raise ConfigError(
                f"verify.samples must be at least 1, got {v['verify.samples']!r}"
            )
        if len(v["inverter.x0"]) != 4:
            raise ConfigError(
                f"inverter.x0 needs 4 entries [i_d, i_q, v_d, v_q], "
                f"got {len(v['inverter.x0'])}"
            )
        # Model parameters, the initial state, the profile and its coverage
        # of the horizon are checked where they are defined; a bad value,
        # or one so large that building the model overflows, is a config
        # error.
        try:
            with np.errstate(over="raise", invalid="raise"):
                if v["model"] == "smib":
                    self.smib_params()
                    self.smib_x0()
                else:
                    self.scenario()
        except ArgumentError as exc:
            raise ConfigError(f"invalid {v['model']} model: {exc}") from exc
        except ArithmeticError as exc:
            raise ConfigError(
                f"invalid {v['model']} model: a value is out of range ({exc})"
            ) from exc

    def __getitem__(self, key: str):
        return self.values[key]

    def with_overrides(self, **kv) -> "ExperimentConfig":
        merged = dict(self.values)
        merged.update(kv)
        return ExperimentConfig(
            values=merged, source=self.source,
            explicit=self.explicit | frozenset(kv),
        )

    # -- model builders ----------------------------------------------------

    def inverter_params(self) -> InverterParams:
        v = self.values
        return InverterParams(
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
        )

    def noise_model(self) -> NoiseModel:
        v = self.values
        dt = float(v["dt"])
        q = float(v["noise.q"]) * dt * np.eye(4)
        r = np.diag(
            [
                float(v["noise.r_id"]) ** 2,
                float(v["noise.r_iq"]) ** 2,
                float(v["noise.r_vd"]) ** 2,
                float(v["noise.r_vq"]) ** 2,
            ]
        )
        return NoiseModel(q=q, r=r, h=np.eye(4))

    def scenario(self) -> InverterScenario:
        v = self.values
        profile = PiecewiseLinearProfile(
            times=tuple(t for t, _ in v["inverter.profile"]),
            values=tuple(val for _, val in v["inverter.profile"]),
        )
        return InverterScenario(
            horizon=float(v["horizon"]),
            dt=float(v["dt"]),
            v_grid=profile,
            seed=int(v["seed"]),
            x0=np.asarray(v["inverter.x0"], dtype=float),
            params=self.inverter_params(),
            noise=self.noise_model(),
        )

    def smib_params(self) -> SmibParams:
        v = self.values
        return SmibParams(
            m=v["smib.m"],
            d=v["smib.d"],
            p_m=v["smib.p_m"],
            p_e=sine_power(v["smib.p_e_max"]),
            i_max=v["smib.i_max"],
            p_min=v["smib.p_min"],
            p_max=v["smib.p_max"],
        )

    def smib_x0(self) -> np.ndarray:
        v = self.values
        return smib_state(
            float(v["smib.delta0"]), float(v["smib.omega0"]), int(v["smib.line0"])
        )

    def resolved_items(self) -> Dict[str, str]:
        """Every schema key with its resolved value, for report echoing.

        The output directory is omitted: it does not affect any computed
        number, and leaving it out keeps reports byte-identical across
        reruns into different directories.
        """
        out = {}
        for key in sorted(SCHEMA):
            if key == "out":
                continue
            val = self.values[key]
            if isinstance(val, tuple) and val and isinstance(val[0], tuple):
                out[key] = ", ".join(f"{t:g}:{v:g}" for t, v in val)
            elif isinstance(val, tuple):
                out[key] = ", ".join(f"{x:g}" for x in val)
            else:
                out[key] = str(val)
        return out


def parse_config_text(text: str, source: Optional[str] = None) -> ExperimentConfig:
    values: Dict[str, object] = {}
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
        values[key] = _parse_value(key, raw)
    return ExperimentConfig(values=values, source=source)


def load_config(path: Optional[str]) -> ExperimentConfig:
    """Load a config file; ``None`` yields the built-in defaults."""
    if path is None:
        return ExperimentConfig()
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)


def resolve_seed(config: ExperimentConfig, flag_seed: Optional[int]) -> int:
    """Seed priority: --seed flag, then config file, then HDS_SEED, then default."""
    if flag_seed is not None:
        return int(flag_seed)
    if "seed" in config.explicit:
        return int(config["seed"])
    env = os.environ.get("HDS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"HDS_SEED must be an integer, got {env!r}") from exc
    return int(config["seed"])
