"""Closed-loop write-verify tuning.

The tuner alternates program and erase pulses under run-time readout
control: after each averaged read it picks the pulse direction from the
sign of the error and sizes the pulse by scaling its duration, with a
proportional step bounded by a geometric back-off cap that halves on
overshoot. Convergence is decided on a 128-sample averaged readout.
"""

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .array import INITIAL_STATES, ArrayState, _Kernel
from .cell import PulseKind
from .config import (
    ModelConfig, known_keys, read_yaml, require_count, require_in, require_positive, write_rows,
)
from .constants import TINY, thermal_voltage

VERIFY_SAMPLES = 128  # deciding readout averaging
TRACK_SAMPLES = 8  # intermediate readout averaging
MIN_SCALE = 1.0 / 64.0  # duration scaling floor
PRECISION_WINDOW = (TINY, 0.5)  # a target's relative tolerance, in (0, 0.5]


@dataclass(frozen=True)
class TuneTarget:
    row: int
    col: int
    target_current: float  # [A]
    precision: float  # relative tolerance

    def __post_init__(self):
        require_count("row", self.row, 0)
        require_count("col", self.col, 0)
        require_positive("target_current", self.target_current)
        require_in("precision", self.precision, *PRECISION_WINDOW)


@dataclass
class TuneResult:
    row: int
    col: int
    target_current: float
    converged: bool
    pulses_used: dict  # {"program": n, "erase": m}
    final_current: float  # deciding (or last verification) readout [A]
    relative_error: float
    trajectory: list  # [(pulses applied, tracking read current [A]), ...]

    @property
    def pulses_total(self) -> int:
        return sum(self.pulses_used.values())


def tune_cell(array: ArrayState, target: TuneTarget, budget: int) -> TuneResult:
    """Drive one cell to its target current within the pulse budget.

    Budget exhaustion yields a non-converged result, not an exception.
    """
    require_count("budget", budget)
    cfg = array.cfg
    cal, p = cfg.calibration, cfg.pulse
    require_in("target_current", target.target_current, *cfg.current_window)
    row, col = target.row, target.col
    goal = target.target_current
    ut = cfg.n * thermal_voltage(cfg.temperature_ref)

    with _Kernel(array, row, col) as kernel:
        pulse, read = kernel.pulse, kernel.read
        pulses, trajectory = {"program": 0, "erase": 0}, []
        used, cap, last_sign, last_clamped = 0, 1.0, 0, False
        while True:
            current = read(TRACK_SAMPLES)
            trajectory.append((used, current))
            err = current / goal - 1.0
            if abs(err) <= target.precision:
                final = read(VERIFY_SAMPLES)
                final_err = final / goal - 1.0
                if abs(final_err) <= target.precision:
                    return TuneResult(row, col, goal, True, pulses, final, abs(final_err), trajectory)
                current, err = final, final_err  # verification disagreed; keep going
            if used >= budget:
                final = read(VERIFY_SAMPLES)
                return TuneResult(
                    row, col, goal, False, pulses, final, abs(final / goal - 1.0), trajectory
                )

            # too much current -> program (raise v_th); too little -> erase
            sign = 1 if err > 0 else -1
            if last_sign != 0 and sign != last_sign:
                cap = MIN_SCALE if last_clamped else max(cap / 2.0, MIN_SCALE)
            nominal_dv = cal.dv_program_nominal if sign > 0 else cal.dv_erase_nominal
            needed = abs(math.log1p(err)) * ut / nominal_dv
            scale = min(cap, max(needed, MIN_SCALE))
            if sign > 0:
                dvth = pulse(PulseKind.PROGRAM, p.program_duration * scale, p.program_amplitude)
                pulses["program"] += 1
            else:
                dvth = pulse(PulseKind.ERASE, p.erase_duration * scale, p.erase_amplitude)
                pulses["erase"] += 1
            last_clamped = dvth[row, col] == 0.0
            last_sign = sign
            used += 1


def tune_array(array: ArrayState, targets, budget: int):
    """Tune the listed cells one by one; returns (results, summary stats).

    Every target is checked before the first pulse, as ``tune_cell``
    would check it, so a bad one leaves the array unchanged.
    """
    require_count("budget", budget)
    targets = list(targets)
    seen = set()
    for t in targets:
        require_in("target_current", t.target_current, *array.cfg.current_window)
        array._check_target(t.row, t.col)
        if (t.row, t.col) in seen:
            raise ValueError(f"conflicting targets for cell {(t.row, t.col)}")
        seen.add((t.row, t.col))
    results = [tune_cell(array, t, budget) for t in targets]
    errors = [r.relative_error for r in results]
    summary = {
        "targets": len(results),
        "converged": sum(r.converged for r in results),
        "pulses_total": sum(r.pulses_total for r in results),
        "rel_error_max": max(errors) if errors else 0.0,
        "rel_error_mean": float(np.mean(errors)) if errors else 0.0,
    }
    return results, summary


# ------------------------------------------------------- target builders

def uniform_targets(array: ArrayState, current: float, precision: float) -> list:
    """One target per non-peripheral cell, row-major."""
    require_in("current", current, *array.cfg.current_window)
    return [
        TuneTarget(r, c, current, precision)
        for r in range(array.rows)
        for c in array.array_cols
    ]


def ramp_targets(array: ArrayState, lo: float, hi: float, precision: float) -> list:
    """Geometric current ramp over the cell number, row-major."""
    require_in("lo", lo, *array.cfg.current_window)
    require_in("hi", hi, *array.cfg.current_window)
    cols = array.array_cols
    count = array.rows * len(cols)
    if count < 2:
        raise ValueError("ramp needs at least two cells")
    ratio = hi / lo
    targets = []
    k = 0
    for r in range(array.rows):
        for c in cols:
            targets.append(TuneTarget(r, c, lo * ratio ** (k / (count - 1)), precision))
            k += 1
    return targets


# ---------------------------------------------------------- campaign I/O

_TARGET_KEYS = {"uniform": ("current",), "ramp": ("lo", "hi"), "explicit": ("cells",)}


@dataclass(frozen=True)
class TuningCampaign:
    rows: int = 10
    cols: int = 12
    precision: float = 0.05
    budget: int = 100
    seed: int = None  # overrides the config seed when given
    initial: str = "programmed"
    targets: dict = None  # {"kind": "ramp"|"uniform"|"explicit", ...}

    def __post_init__(self):
        for name in ("rows", "cols", "budget"):
            require_count(f"campaign {name}", getattr(self, name))
        require_in("campaign precision", self.precision, *PRECISION_WINDOW)
        if self.seed is not None:
            require_count("campaign seed", self.seed, 0)
        if self.initial not in INITIAL_STATES:
            raise ValueError(
                f"campaign initial must be one of {', '.join(INITIAL_STATES)}, got {self.initial!r}"
            )
        if self.targets:
            if not isinstance(self.targets, dict):
                raise ValueError(
                    f"campaign targets must be a mapping, got {type(self.targets).__name__}"
                )
            kind = self.targets.get("kind", "explicit")
            keys = _TARGET_KEYS.get(kind) if isinstance(kind, str) else None
            if keys is None:
                raise ValueError(
                    f"campaign targets kind must be uniform, ramp or explicit, got {kind!r}"
                )
            if set(self.targets) - {"kind"} != set(keys):
                raise ValueError(
                    f"campaign targets of kind {kind} take key(s) {', '.join(keys)}, "
                    f"got {', '.join(sorted(map(str, self.targets)))}"
                )


def load_campaign(path) -> TuningCampaign:
    raw = read_yaml(path)
    return TuningCampaign(**known_keys(TuningCampaign, raw, "campaign"))


def campaign_targets(campaign: TuningCampaign, array: ArrayState) -> list:
    """The campaign's targets on ``array``; a bad target value is a ValueError naming it."""
    spec = campaign.targets or {"kind": "ramp", "lo": 1.0e-10, "hi": 1.0e-6}
    kind = spec.get("kind", "explicit")
    window = array.cfg.current_window
    if kind in ("uniform", "ramp"):
        for key in _TARGET_KEYS[kind]:
            require_in(f"campaign targets.{key}", spec[key], *window)
    if kind == "uniform":
        return uniform_targets(array, spec["current"], campaign.precision)
    if kind == "ramp":
        return ramp_targets(array, spec["lo"], spec["hi"], campaign.precision)
    cells = spec["cells"]
    if not isinstance(cells, (list, tuple)):
        raise ValueError(f"campaign targets.cells must be a list of [row, col, current], got {cells!r}")
    targets = []
    for k, entry in enumerate(cells):
        r, c, current = entry if isinstance(entry, (list, tuple)) and len(entry) == 3 else (None,) * 3
        if not all(type(i) is int and 0 <= i < n for i, n in ((r, array.rows), (c, array.cols))):
            raise ValueError(
                f"campaign targets.cells[{k}] must be [row, col, current] with the cell "
                f"inside the {array.rows}x{array.cols} array, got {entry!r}"
            )
        require_in(f"campaign targets.cells[{k}] current", current, *window)
        targets.append(TuneTarget(r, c, current, campaign.precision))
    return targets


def run_campaign(cfg: ModelConfig, campaign: TuningCampaign):
    """Build a fresh array and run the campaign; returns (array, results, summary)."""
    if campaign.seed is not None:
        cfg = dc_replace(cfg, seed=int(campaign.seed))
    array = ArrayState.fresh(
        cfg, rows=campaign.rows, cols=campaign.cols, initial=campaign.initial
    )
    targets = campaign_targets(campaign, array)
    results, summary = tune_array(array, targets, campaign.budget)
    return array, results, summary


def results_to_csv(results, path) -> None:
    columns = ("row", "col", "target", "final", "rel_error", "pulses", "converged")
    write_rows(path, columns, (
        (r.row, r.col, r.target_current, r.final_current, r.relative_error, r.pulses_total,
         r.converged)
        for r in results
    ))
