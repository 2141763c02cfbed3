"""Gate-coupled vector-by-matrix multiplication.

Each row's input current is converted to a coupling-gate voltage by the
row's peripheral cell; every array cell then mirrors that current scaled
by the exponential of its threshold-voltage offset, and columns sum by
current addition. Includes the differential weight construction
(w_b + w/2, w_b - w/2) with bias-weight optimization that minimizes the
worst-case output drift over a temperature interval.
"""

import math
from dataclasses import dataclass

import numpy as np

from .array import ArrayState
from .cell import CellState, check_temperature, gate_voltage, subthreshold_current
from .config import DEFAULT_CONFIG, ModelConfig, require_count, require_positive
from .constants import thermal_voltage
from .tuning import TuneTarget

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# least net weight of a differential pair: below it w_b +- w/2 (w_b about
# 0.34) holds w to worse than about 1e-7 and the optimized drift degrades
W_MIN = 1.0e-9


class PlanInfeasibleError(ValueError):
    """Raised when weight entries cannot be realized; carries (row, col) list."""

    def __init__(self, entries):
        self.entries = list(entries)
        super().__init__(f"infeasible weight entries at {self.entries}")


@dataclass(frozen=True)
class WeightMatrix:
    """Dimensionless weights; entry [j, i] couples input row j to column i."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ValueError("weights must be a 2-D matrix")
        if not np.all((vals > 0.0) & (vals <= 1.0)):
            raise ValueError("weights must lie in (0, 1]")

    @property
    def shape(self):
        return self.values.shape


def read_matrix_csv(path) -> np.ndarray:
    """Rows of comma-separated numbers; blank and ``#`` lines are skipped."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(x) for x in line.split(",")])
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: malformed row {line!r}") from None
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(
                    f"{path}, line {lineno}: {len(rows[-1])} entries, "
                    f"the first row has {len(rows[0])}"
                )
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows)


def load_weights_csv(path) -> WeightMatrix:
    return WeightMatrix(read_matrix_csv(path))


# ------------------------------------------------------- basic operations

def input_gate_voltage(
    peripheral: CellState,
    input_current: float,
    temperature: float,
    cfg: ModelConfig = DEFAULT_CONFIG,
) -> float:
    """Coupling-gate voltage at which the peripheral cell carries the input [V]."""
    check_temperature(temperature)
    lo, hi = cfg.current_window
    if not (lo <= input_current <= hi):
        raise ValueError(
            f"input current {input_current:.3e} A outside the validity window "
            f"[{lo:.0e}, {hi:.0e}] A"
        )
    return float(gate_voltage(input_current, peripheral.v_th, cfg.n, cfg.i0, temperature))


def weight_of(
    array_cell: CellState,
    peripheral: CellState,
    temperature: float,
    cfg: ModelConfig = DEFAULT_CONFIG,
) -> float:
    """Current-mirror ratio set by the threshold-voltage difference, at
    the slope factor of ``cfg``."""
    check_temperature(temperature)
    ut = cfg.n * thermal_voltage(temperature)
    return math.exp((peripheral.v_th - array_cell.v_th) / ut)


def _check_peripherals(array: ArrayState) -> np.ndarray:
    """v_th of each row's peripheral cell; raises if one sits at a window bound."""
    rows, per_cols, _ = array.io_layout
    cal = array.cfg.require_calibration()
    v = array.v_th[rows, per_cols]
    lo, hi = cal.v_th_min + 1e-9, cal.v_th_max - 1e-9
    if not (lo < v.min() and v.max() < hi):  # NaN fails too
        r = int(((lo < v) & (v < hi)).argmin())
        raise ValueError(
            f"peripheral cell ({r}, {per_cols[r]}) is untuned (v_th at a window bound)"
        )
    return v


def multiply(
    array: ArrayState,
    inputs,
    temperature: float = None,
    noisy: bool = False,
    samples: int = 1,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """Output current per array column [A].

    ``inputs`` holds one current per row. With ``noisy`` each cell current
    receives its relative noise draw (averaged over ``samples``); draws
    come from ``rng`` or, when omitted, the array's measurement stream.
    """
    cfg = array.cfg
    t = cfg.temperature_ref if temperature is None else temperature
    check_temperature(t)
    if noisy:
        require_count("samples", samples)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (array.rows,):
        raise ValueError(f"expected {array.rows} input currents, got {inputs.shape}")
    lo, hi = cfg.current_window
    if not (lo <= inputs.min() and inputs.max() <= hi):  # NaN fails too
        raise ValueError("input currents outside the validity window")
    v_gate = gate_voltage(inputs, _check_peripherals(array), cfg.n, cfg.i0, t)
    currents = subthreshold_current(
        v_gate[:, None], array.v_th[:, array.io_layout[2]], cfg.n, cfg.i0, t, cfg.i_sat
    )
    if noisy:
        if rng is None:
            rng = array.measure_rng
        sigma = cfg.noise.sigma_at(currents)
        # sum / samples: the same float operations as .mean(axis=0)
        eps_mean = rng.standard_normal((samples,) + currents.shape).sum(axis=0) / samples
        currents = np.maximum(currents * (1.0 + sigma * eps_mean), 0.0)
    return currents.sum(axis=0)


# ------------------------------------------------- temperature behavior

def weight_at_temperature(w_ref: float, t_ref: float, t: float) -> float:
    """Constant-slope-factor scaling law: ln w(t) = ln w(t_ref) * t_ref/t."""
    return math.exp(math.log(w_ref) * t_ref / t)


def _check_drift_scan(temp_range, reference, step: float = 1.0) -> None:
    """Raise a ValueError naming the field unless the temperatures and the
    step are finite and positive and the range is ordered."""
    t_lo, t_hi = temp_range
    require_positive("temp_range", t_lo)
    require_positive("temp_range", t_hi)
    if not t_lo < t_hi:
        raise ValueError("temperature range must be ordered")
    if reference is not None:
        require_positive("reference", reference)
    require_positive("step", step)


def _drift_temps(temp_range, step: float = 1.0) -> np.ndarray:
    return np.arange(temp_range[0], temp_range[1] + step / 2, step)


def _drift(w_plus, w_minus, temps, reference):
    """Worst-case relative drift over ``temps`` of one (w_plus, w_minus)
    pair of floats, or of each pair of two equal-length float sequences.

    The logarithms and the reference-point exponentials are libm's
    (``math``, mapped over floats): numpy's log and exp differ from them
    in the last bit on some inputs.
    """
    if isinstance(w_plus, float):
        a, b = math.log(w_plus), math.log(w_minus)
        out0 = math.exp(a) - math.exp(b)
    else:
        a = list(map(math.log, w_plus))
        b = list(map(math.log, w_minus))
        out0 = np.array([math.exp(x) - math.exp(y) for x, y in zip(a, b)])[:, None]
    out = np.divide.outer(np.array([a, b]) * reference, temps)  # (w+, w-) x [pairs] x temps
    np.exp(out, out=out)
    out = np.subtract(out[0], out[1], out=out[0])
    np.divide(out, out0, out=out)
    np.subtract(out, 1.0, out=out)
    np.abs(out, out=out)
    return out.max(axis=-1)


def differential_drift_grid(
    w_plus, w_minus, temp_range, reference: float, step: float = 1.0
) -> np.ndarray:
    """``differential_drift`` of each (w_plus, w_minus) pair, as one array."""
    if not (np.all(np.greater(w_plus, w_minus)) and np.all(np.greater(w_minus, 0.0))):
        raise ValueError("w_plus must exceed w_minus, and w_minus must be > 0")
    _check_drift_scan(temp_range, reference, step)
    return _drift(w_plus, w_minus, _drift_temps(temp_range, step), reference)


def differential_drift(
    w_plus: float, w_minus: float, temp_range, reference: float, step: float = 1.0
) -> float:
    """Worst-case relative drift of w+ - w- over the interval (analytic)."""
    return float(differential_drift_grid([w_plus], [w_minus], temp_range, reference, step)[0])


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-6):
    """Scalar golden-section minimizer; returns (argmin, min)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def optimize_bias_weight(
    w: float,
    temp_range,
    reference: float = None,
    w_floor: float = 0.01,
    cfg: ModelConfig = DEFAULT_CONFIG,
):
    """Bias weight minimizing worst-case differential drift; returns (w_b, drift).

    The objective is the maximum relative deviation of w+ - w- from its
    reference-temperature value on a 1 K grid, scanned on a coarse
    bias-weight grid and refined by golden section. The floor keeps
    w_minus realizable within the tunable window; a w in (0, ``W_MIN``)
    has no feasible bias weight.
    """
    if not (0.0 <= w < 1.0):
        raise ValueError("differential construction requires 0 <= w < 1")
    _check_drift_scan(temp_range, reference)
    require_positive("w_floor", w_floor)
    t0 = temp_range[0] if reference is None else reference
    if w == 0.0:
        return 0.5, 0.0

    if w < W_MIN:
        raise ValueError(f"no feasible bias weight for w={w} below {W_MIN}")
    lo = w / 2.0 + w_floor
    hi = 1.0 - w / 2.0
    if lo >= hi:
        raise ValueError(f"no feasible bias weight for w={w} with floor {w_floor}")

    temps = _drift_temps(temp_range)

    def objective(w_b):
        return float(_drift(w_b + w / 2.0, w_b - w / 2.0, temps, t0))

    grid = np.arange(lo, hi + 1e-12, 1e-3)
    w_plus, w_minus = grid + w / 2.0, grid - w / 2.0
    # The drift at the end temperatures bounds each point's drift from
    # below (same elements, max of a subset): a point whose bound exceeds
    # the drift at the bound's argmin cannot hold np.argmin's first
    # minimum. A NaN drift there keeps every point.
    bound = _drift(w_plus.tolist(), w_minus.tolist(), temps[[0, -1]], t0)
    keep = np.flatnonzero(~(bound > objective(grid[np.argmin(bound)])))
    k = int(keep[np.argmin(_drift(w_plus[keep].tolist(), w_minus[keep].tolist(), temps, t0))])
    bracket_lo = grid[max(k - 1, 0)]
    bracket_hi = grid[min(k + 1, len(grid) - 1)]
    w_b, drift = golden_section_min(objective, bracket_lo, bracket_hi, tol=1e-6)
    return float(w_b), float(drift)


# ---------------------------------------------------- differential plan

@dataclass
class DifferentialWeightPlan:
    """Per-logical-weight pair assignments and tuning targets."""

    weights: np.ndarray  # desired net weights, rows x logical columns
    w_b: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    predicted_drift: np.ndarray
    column_pairs: list  # logical column -> (physical plus col, physical minus col)
    target_plus: np.ndarray  # standard-bias cell currents [A]
    target_minus: np.ndarray
    peripheral_target: float  # reference current of peripheral cells [A]
    temp_range: tuple
    reference: float

    def tune_targets(self, array: ArrayState, precision: float) -> list:
        """Targets for every plan cell plus the used peripheral cells."""
        rows, logical = self.weights.shape
        if rows != array.rows:
            raise ValueError("plan rows do not match the array")
        targets = [
            TuneTarget(r, array.peripheral_col_for_row(r), self.peripheral_target, precision)
            for r in range(rows)
        ]
        for m, (cp, cm) in enumerate(self.column_pairs):
            for r in range(rows):
                targets.append(TuneTarget(r, cp, float(self.target_plus[r, m]), precision))
                targets.append(TuneTarget(r, cm, float(self.target_minus[r, m]), precision))
        return targets

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                "row,logical_col,w,w_b,w_plus,w_minus,predicted_drift,"
                "col_plus,col_minus,target_plus,target_minus\n"
            )
            rows, logical = self.weights.shape
            for m in range(logical):
                cp, cm = self.column_pairs[m]
                for r in range(rows):
                    fh.write(
                        f"{r},{m},{float(self.weights[r, m])!r},"
                        f"{float(self.w_b[r, m])!r},"
                        f"{float(self.w_plus[r, m])!r},{float(self.w_minus[r, m])!r},"
                        f"{float(self.predicted_drift[r, m])!r},{cp},{cm},"
                        f"{float(self.target_plus[r, m])!r},"
                        f"{float(self.target_minus[r, m])!r}\n"
                    )


def reference_current(cfg: ModelConfig) -> float:
    """Standard-bias current of a center-of-window cell [A]."""
    lo, hi = cfg.current_window
    return math.sqrt(lo * hi)


def plan_differential(
    weights,
    temp_range,
    array: ArrayState,
    reference: float = None,
    w_floor: float = None,
) -> DifferentialWeightPlan:
    """Assign column pairs and optimized (w+, w-) targets for net weights.

    Peripheral cells sit at the window center, so a weight w maps to a
    standard-bias cell current of w times the center current. Entries
    that cannot be realized (w = 1 leaves no room for the pair, or
    w_minus would fall below the window) are reported together.
    """
    if isinstance(weights, WeightMatrix):
        wvals = weights.values
    else:
        wvals = np.asarray(weights, dtype=float)
        if wvals.ndim != 2:
            raise ValueError("weights must be a 2-D matrix")
    cfg = array.cfg
    rows, logical = wvals.shape
    if rows != array.rows:
        raise ValueError(f"weight matrix has {rows} rows, array has {array.rows}")
    cols = array.array_cols
    if 2 * logical > len(cols):
        raise ValueError(
            f"{logical} logical columns need {2 * logical} array columns, "
            f"have {len(cols)}"
        )
    lo_cur, hi_cur = cfg.current_window
    i_ref = reference_current(cfg)
    if w_floor is None:
        w_floor = lo_cur / i_ref
    # bad arguments fail here, naming the field, not as infeasible entries
    _check_drift_scan(temp_range, reference)
    require_positive("w_floor", w_floor)

    t0 = temp_range[0] if reference is None else reference
    w_b = np.zeros_like(wvals)
    drift = np.zeros_like(wvals)
    bad = []
    for r in range(rows):
        for m in range(logical):
            w = wvals[r, m]
            if not (0.0 < w < 1.0):
                bad.append((r, m))
                continue
            try:
                w_b[r, m], drift[r, m] = optimize_bias_weight(
                    w, temp_range, reference=t0, w_floor=w_floor, cfg=cfg
                )
            except ValueError:
                bad.append((r, m))
    if bad:
        raise PlanInfeasibleError(bad)

    w_plus = w_b + wvals / 2.0
    w_minus = w_b - wvals / 2.0
    pairs = [(cols[2 * m], cols[2 * m + 1]) for m in range(logical)]
    return DifferentialWeightPlan(
        weights=wvals,
        w_b=w_b,
        w_plus=w_plus,
        w_minus=w_minus,
        predicted_drift=drift,
        column_pairs=pairs,
        target_plus=i_ref * w_plus,
        target_minus=i_ref * w_minus,
        peripheral_target=i_ref,
        temp_range=(float(temp_range[0]), float(temp_range[1])),
        reference=float(t0),
    )


def differential_multiply(
    array: ArrayState,
    plan: DifferentialWeightPlan,
    inputs,
    temperature: float = None,
    noisy: bool = False,
    samples: int = 1,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """Paired-column outputs: O_logical = O_plus - O_minus [A]."""
    rows, logical = plan.weights.shape
    if rows != array.rows:
        raise ValueError("plan rows do not match the array")
    cols = range(array.cols)[array.io_layout[2]]  # outputs[k] is column cols[k]
    for cp, cm in plan.column_pairs:
        if cp not in cols or cm not in cols:
            raise ValueError(f"plan pair ({cp}, {cm}) not among array columns")
    outputs = multiply(
        array, inputs, temperature=temperature, noisy=noisy, samples=samples, rng=rng
    )
    k = cols.start
    return np.array([outputs[cp - k] - outputs[cm - k] for cp, cm in plan.column_pairs])
