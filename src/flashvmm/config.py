"""Model configuration: parameter blocks, YAML round-trip, calibration,
and the field checks every public entry point validates its inputs with.

Building a ``ModelConfig`` resolves its slope factor and derives its
``Calibration`` block (threshold-voltage window and nominal per-pulse
shifts) from the other fields, verifying the feasibility targets. Every
config is therefore calibrated, and ``replace`` re-derives the block.

A field check accepts a real (``require_count``: an integer), numpy
scalars included; NaN, +-inf, bool, str and None are a ValueError naming
the field. A float (an int) takes an exact-type fast path before the ABC
check.
"""

import hashlib
import json
import math
import numbers
import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from .constants import T_25C, T_85C, T_MAX, T_MIN, TINY, V_CG_READ, thermal_voltage


class CalibrationError(ValueError):
    """Raised when the calibration targets cannot all be met."""


def require_positive(name: str, value) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a finite real > 0."""
    real = type(value) is float or type(value) is not bool and isinstance(value, (int, numbers.Real))
    if not (real and 0.0 < value < math.inf):  # also rejects NaN
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def require_finite(name: str, value, low: float = -math.inf) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a finite real >= ``low``."""
    real = type(value) is float or type(value) is not bool and isinstance(value, (int, numbers.Real))
    if not (real and low <= value < math.inf and value != -math.inf):
        bound = "" if low == -math.inf else f" >= {low}"
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


def require_count(name: str, value, low: float = 1) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer >= ``low``."""
    whole = type(value) is int or type(value) is not bool and isinstance(value, (int, np.integer))
    if not (whole and value >= low):
        bound = "" if low == -math.inf else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def require_flag(name: str, value) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a bool (numpy's too)."""
    if not (type(value) is bool or isinstance(value, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def require_in(name: str, value, lo: float, hi: float) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a real in [``lo``, ``hi``]."""
    real = type(value) is float or type(value) is not bool and isinstance(value, (int, numbers.Real))
    if not (real and lo <= value <= hi):  # also rejects NaN
        raise ValueError(f"{name} must lie in the window [{lo!r}, {hi!r}], got {value!r}")


def check_temperature(temperature, name: str = "temperature") -> None:
    """Raise a ValueError naming ``name`` unless ``temperature`` lies in the model window."""
    real = type(temperature) is float or (
        type(temperature) is not bool and isinstance(temperature, (int, numbers.Real))
    )
    if not (real and T_MIN <= temperature <= T_MAX):  # also rejects NaN
        raise ValueError(f"{name} {temperature!r} K outside the model window [{T_MIN}, {T_MAX}] K")


def read_yaml(path):
    """The YAML document at ``path`` as plain data, ``{}`` when empty. A number
    in exponent form without a dot (``1e-3``), a string in YAML 1.1, is a float."""
    loader = type("Loader", (yaml.SafeLoader,), {})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float", re.compile(r"[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+$"), list("-+0123456789")
    )
    with open(path, "r", encoding="utf-8") as fh:
        return yaml.load(fh, Loader=loader) or {}


def known_keys(cls, raw, what: str) -> dict:
    """``raw`` as keyword arguments of the dataclass ``cls``.

    A non-mapping, or a key ``cls`` has no field for, is a ValueError
    naming ``what`` and the key.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a mapping, got {type(raw).__name__}")
    unknown = sorted(str(key) for key in set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    return raw


@dataclass(frozen=True)
class NoiseParams:
    """Relative read-noise envelope, log-linear in current between anchors."""

    sigma_low: float = 0.04  # relative r.m.s. at the low-current anchor
    sigma_high: float = 0.0095  # stays below the 1% bound at and above the anchor
    i_low_anchor: float = 1.0e-10  # [A]
    i_high_anchor: float = 1.0e-8  # [A]

    def __post_init__(self):
        for name in ("sigma_low", "sigma_high"):
            require_in(name, getattr(self, name), 0.0, 0.10)
        for name in ("i_low_anchor", "i_high_anchor"):
            require_positive(name, getattr(self, name))
        if not (self.sigma_high <= self.sigma_low and self.i_low_anchor < self.i_high_anchor):
            raise ValueError("noise needs sigma_high <= sigma_low and i_low_anchor < i_high_anchor")
        logs = (math.log(self.i_low_anchor), math.log(self.i_high_anchor))
        # not fields: hash, == and YAML skip them; np.interp's xp and fp, as arrays it takes fastest
        object.__setattr__(self, "_log_anchors", logs)
        object.__setattr__(self, "_interp", tuple(np.array([logs, (self.sigma_low, self.sigma_high)])))

    def sigma_at(self, current):
        """Relative r.m.s. at the given current, constant outside the anchors.

        Log-linear in current between the anchors; broadcasts over arrays.
        A float takes np.interp's two-point arithmetic, in its order; 0 reads ``sigma_low``.
        """
        if isinstance(current, float):
            if not 0.0 <= current < math.inf:  # also rejects NaN
                raise ValueError(f"current must be a finite number >= 0, got {current!r}")
            return self._sigma_law(current) if current else float(self.sigma_low)
        current = np.asarray(current)
        if current.size and not (current.min() >= 0.0 and current.max() < math.inf):  # NaN fails both
            raise ValueError(f"current must be finite numbers >= 0, got [{current.min()}, {current.max()}]")
        with np.errstate(divide="ignore"):  # log(0) is -inf, which np.interp reads as sigma_low
            sigma = self._sigma_law(current)
        return float(sigma) if np.ndim(current) == 0 else sigma

    def _sigma_law(self, current):
        """``sigma_at`` unchecked, for a float > 0 or an array of finite currents >= 0.

        An array's zero reads ``sigma_low``, with numpy's divide warning for log(0).
        """
        x0, x1 = self._log_anchors
        if isinstance(current, float):
            x = float(np.log(current))
            if x0 < x < x1:
                return (self.sigma_high - self.sigma_low) / (x1 - x0) * (x - x0) + self.sigma_low
            return float(self.sigma_low if x <= x0 else self.sigma_high)
        return np.interp(np.log(current), *self._interp)


@dataclass(frozen=True)
class PulseDefaults:
    program_amplitude: float = 4.5  # [V]
    program_duration: float = 10.0e-6  # [s]
    erase_amplitude: float = 11.5  # [V]
    erase_duration: float = 0.5e-3  # [s]
    variability_sigma: float = 0.30  # lognormal sigma of the per-pulse shift

    def __post_init__(self):
        # nominal amplitudes and durations divide a pulse's own in pulse_law
        for name in ("program_amplitude", "program_duration", "erase_amplitude", "erase_duration"):
            require_positive(name, getattr(self, name))
        require_finite("variability_sigma", self.variability_sigma, 0.0)


@dataclass(frozen=True)
class InhibitionParams:
    """Two-point fits of the half-select inhibition curves.

    Each curve is a normalized logistic pinned to 1.0 at the full-select
    voltage and to ``floor`` at the documented inhibit voltage.
    """

    floor: float = 1.0e-4
    program_bl_full: float = 0.5  # selected bit line [V]
    program_bl_inhibit: float = 2.25  # unselected bit lines held at or above [V]
    program_sl_full: float = 4.5  # selected source line [V]
    program_sl_off: float = 0.5  # unselected source lines [V]
    erase_eg_full: float = 11.5  # selected erase-gate column [V]
    erase_eg_off: float = 0.0
    erase_cg_full: float = 0.0  # selected row's coupling gate grounded [V]
    erase_cg_inhibit: float = 8.0  # unselected rows' coupling gates [V]

    def __post_init__(self):
        for f in fields(self):
            require_finite(f.name, getattr(self, f.name))
        require_in("floor", self.floor, TINY, math.nextafter(1.0, 0.0))  # (0, 1)


@dataclass(frozen=True)
class RetentionParams:
    """Optional random-walk state drift; disabled by default.

    When enabled, the per-day threshold-voltage walk is sized so the
    resulting relative current deviation stays at ``sigma_scale`` times
    the read-noise envelope at the cell's current.
    """

    random_walk: bool = False
    sigma_scale: float = 1.0

    def __post_init__(self):
        require_finite("sigma_scale", self.sigma_scale, 0.0)


@dataclass(frozen=True)
class Calibration:
    """Derived quantities; ``ModelConfig`` builds its own."""

    v_th_min: float  # [V], fully-erased bound (highest current)
    v_th_max: float  # [V], fully-programmed bound (lowest current)
    dv_program_nominal: float  # [V] per nominal program pulse
    dv_erase_nominal: float  # [V] per nominal erase pulse

    @property
    def v_th_center(self) -> float:
        return 0.5 * (self.v_th_min + self.v_th_max)

    @property
    def window_width(self) -> float:
        return self.v_th_max - self.v_th_min


# ModelConfig's parameter blocks, by field name
_BLOCKS = {
    "pulse": PulseDefaults,
    "noise": NoiseParams,
    "inhibition": InhibitionParams,
    "retention": RetentionParams,
}


@dataclass(frozen=True)
class ModelConfig:
    seed: int = 12345
    i0: float = 1.0e-3  # effective prefactor [A]
    n_slope: object = (5.0, 5.1)  # scalar, or (lo, hi) resolved from seed
    i_sat: float = 1.0e-6  # saturation ceiling [A]
    wl_on_threshold: float = 1.0  # word-line pass switch [V]
    temperature_ref: float = T_25C  # [K]
    current_window: tuple = (1.0e-10, 1.0e-6)  # tunable range at standard bias [A]
    traversal_pulses: int = 20  # nominal pulses across the full window
    pulse: PulseDefaults = field(default_factory=PulseDefaults)
    noise: NoiseParams = field(default_factory=NoiseParams)
    inhibition: InhibitionParams = field(default_factory=InhibitionParams)
    retention: RetentionParams = field(default_factory=RetentionParams)
    calibration: Calibration = field(init=False)

    def __post_init__(self):
        require_count("seed", self.seed, 0)
        require_count("traversal_pulses", self.traversal_pulses)
        for name, cls in _BLOCKS.items():
            block = getattr(self, name)
            if not isinstance(block, cls):
                raise ValueError(f"{name} must be a {cls.__name__}, got {type(block).__name__}")
        for name in ("i0", "i_sat"):
            require_positive(name, getattr(self, name))
        check_temperature(self.temperature_ref, "temperature_ref")
        require_finite("wl_on_threshold", self.wl_on_threshold)
        window = self.current_window
        if not (isinstance(window, (tuple, list)) and len(window) == 2):
            raise ValueError(f"current_window must be a (lo, hi) pair, got {window!r}")
        lo, hi = window
        require_positive("current_window", lo)
        require_positive("current_window", hi)
        if not lo < hi:
            raise ValueError("current_window must be ordered: lo < hi")
        object.__setattr__(self, "current_window", (lo, hi))
        if self.i_sat < hi:
            raise ValueError("i_sat must be at or above the current window top")
        n = _resolve_n_slope(self.n_slope, self.seed)
        if not (5.0 <= n <= 5.1):
            raise CalibrationError(f"n_slope must lie in [5.0, 5.1], got {n!r}")
        object.__setattr__(self, "n_slope", n)
        object.__setattr__(self, "calibration", _derive_calibration(self))

    @property
    def n(self) -> float:
        """Slope factor, resolved from ``n_slope`` when the config was built."""
        return self.n_slope


def _resolve_n_slope(n_slope, seed: int) -> float:
    if isinstance(n_slope, numbers.Real):
        return float(n_slope)
    try:
        lo, hi = n_slope
    except (TypeError, ValueError):
        raise CalibrationError(f"n_slope must be a number or a (lo, hi) pair, got {n_slope!r}") from None
    require_finite("n_slope", lo)
    require_finite("n_slope", hi)
    if not (lo <= hi):
        raise CalibrationError("n_slope range must be ordered")
    u = np.random.default_rng((int(seed), 0x6E)).random()
    return lo + u * (hi - lo)


def _derive_calibration(cfg: ModelConfig) -> Calibration:
    """Derive the threshold window and nominal pulse shifts.

    Solves for the v_th window that maps the tunable current range onto
    the standard readout bias at the reference temperature, sizes the
    nominal per-pulse shift for a full-window traversal in
    ``traversal_pulses`` pulses, and verifies the >10x warm-up ratio of
    a 1 nA cell between 25 and 85 C.
    """
    if not (20 <= cfg.traversal_pulses <= 60):
        raise CalibrationError(
            f"traversal_pulses={cfg.traversal_pulses} outside the 20..60 design range"
        )

    i_lo, i_hi = cfg.current_window
    ut = cfg.n * thermal_voltage(cfg.temperature_ref)
    v_th_max = V_CG_READ - ut * math.log(i_lo / cfg.i0)
    v_th_min = V_CG_READ - ut * math.log(i_hi / cfg.i0)
    if not v_th_min < v_th_max:
        raise CalibrationError(f"current_window {cfg.current_window} maps to an empty v_th window")
    if v_th_min <= V_CG_READ:
        raise CalibrationError(
            "window top current reaches the prefactor regime: raise i0 or lower "
            "the current window"
        )

    width = v_th_max - v_th_min
    dv = width / cfg.traversal_pulses

    # warm-up feasibility: I(85C)/I(25C) = (I/i0)**(T1/T2 - 1) at I = 1 nA
    ratio = (1.0e-9 / cfg.i0) ** (T_25C / T_85C - 1.0)
    if ratio < 10.0:
        raise CalibrationError(
            f"temperature-ratio target violated: I(85C)/I(25C) = {ratio:.3f} < 10 "
            "for a 1 nA cell; increase i0"
        )

    return Calibration(
        v_th_min=v_th_min,
        v_th_max=v_th_max,
        dv_program_nominal=dv,
        dv_erase_nominal=dv,
    )


# ---------------------------------------------------------------- file I/O

def _to_plain(cfg: ModelConfig) -> dict:
    d = asdict(cfg)
    d["current_window"] = list(cfg.current_window)
    return d


def config_hash(cfg: ModelConfig) -> str:
    """Stable 12-hex-digit digest of the full parameter set."""
    blob = json.dumps(_to_plain(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return repr(float(x))


def write_rows(path, columns, rows, header: str = None) -> None:
    """CSV of ``rows`` under a ``columns`` line, after the ``header`` line
    when given. Integers and bools are written as integers, strings as
    they are, any other value as ``repr(float(x))``, which reads back
    exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def load_config(path, seed: int = None) -> ModelConfig:
    """Config from a YAML file; ``seed``, when given, replaces the file's
    seed before an ``n_slope`` range is resolved from it."""
    raw = read_yaml(path)
    if seed is not None:
        raw = dict(known_keys(ModelConfig, raw, "config"), seed=seed)
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ModelConfig:
    """Config from plain data; an unknown key, at any level, is a ValueError naming it.

    So is a ``calibration`` block that differs from the derived one by a bit.
    """
    kwargs = dict(known_keys(ModelConfig, raw, "config"))
    saved = kwargs.pop("calibration", None)
    for key, cls in _BLOCKS.items():
        if key in kwargs:  # an empty block reads as None and is refused as such
            kwargs[key] = cls(**known_keys(cls, kwargs[key], key))
    cfg = ModelConfig(**kwargs)
    if saved is not None and known_keys(Calibration, saved, "calibration") != asdict(cfg.calibration):
        raise ValueError("calibration block differs from the one derived from the config")
    return cfg


def save_config(cfg: ModelConfig, path) -> None:
    """Write the config as YAML; derived fields carry provenance comments."""
    d = _to_plain(cfg)
    cal = d.pop("calibration")
    text = yaml.safe_dump(d, sort_keys=True, default_flow_style=None)
    lines = [
        "calibration:",
        "  # derived from the keys above and checked on load: window maps",
        "  # current_window onto the standard readout bias at temperature_ref;",
        f"  # dv nominals give a full-window traversal in {cfg.traversal_pulses} pulses",
    ]
    for key in ("v_th_min", "v_th_max", "dv_program_nominal", "dv_erase_nominal"):
        lines.append(f"  {key}: {cal[key]!r}")
    text += "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


DEFAULT_CONFIG = ModelConfig()
