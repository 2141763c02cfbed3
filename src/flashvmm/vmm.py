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
from .cell import CellState, gate_voltage, subthreshold_current
from .config import (
    DEFAULT_CONFIG, ModelConfig, check_temperature, require_count, require_finite, require_flag,
    require_in, require_positive, write_rows,
)
from .constants import thermal_voltage
from .tuning import TuneTarget

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# least net weight of a differential pair: below it w_b +- w/2 (w_b about
# 0.34) holds w to worse than about 1e-7 and the optimized drift degrades
W_MIN = 1.0e-9
# times 1/w, the most the scan lets numpy's drift bound exceed libm's: 64
# eps, where the largest gap seen is about 1.3 eps/w
_BOUND_MARGIN = 2.0**-46


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

    def tune_targets(self, array: ArrayState, precision: float) -> list:
        """Single-ended targets: each row's peripheral cell at the reference
        current, then, row-major, array column k of row j at its current times
        weight [j, k]."""
        cols = array.array_cols
        if self.shape != (array.rows, len(cols)):
            raise ValueError(f"weights of shape {self.shape} do not fit {array.rows}x{len(cols)} cells")
        i_ref = reference_current(array.cfg)
        rows = range(array.rows)
        return [TuneTarget(r, array.peripheral_col_for_row(r), i_ref, precision) for r in rows] + [
            TuneTarget(r, c, float(i_ref * self.values[r, k]), precision)
            for r in rows
            for k, c in enumerate(cols)
        ]


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


# ------------------------------------------------------- basic operations

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


def _check_cells(array: ArrayState) -> np.ndarray:
    """v_th of each row's peripheral cell. A ValueError names the first cell
    outside the v_th window (NaN too), else the first untuned peripheral cell."""
    cal, grid = array.cfg.calibration, array.v_th
    lo, hi = cal.v_th_min, cal.v_th_max
    if not (lo <= grid.min() and grid.max() <= hi):  # NaN fails too
        r, c = np.argwhere(~((grid >= lo) & (grid <= hi)))[0].tolist()
        raise ValueError(f"cell ({r}, {c}): v_th {grid.item(r, c)!r} outside [{lo!r}, {hi!r}] V")
    cells, per_cols, _ = array.io_layout
    v = grid.take(cells)
    for r, x in enumerate(v.tolist()):
        if not lo + 1e-9 < x < hi - 1e-9:
            raise ValueError(f"peripheral cell ({r}, {per_cols[r]}) is untuned (v_th at a window bound)")
    return v


def check_read(cfg: ModelConfig, temperature=None, noisy: bool = False, samples: int = 1):
    """Read temperature [K] of ``multiply``'s read options: ``temperature``
    or by default ``cfg.temperature_ref``, a sequence (one temperature per
    read) as a float array. A ValueError names the first option out of
    range; ``samples`` counts only when ``noisy``."""
    t = cfg.temperature_ref if temperature is None else temperature
    if isinstance(t, (list, tuple, np.ndarray)):
        if getattr(t, "ndim", 1) != 1 or len(t) == 0:
            raise ValueError(f"temperature must be a number or a non-empty 1-D sequence, got {t!r}")
        for x in t:
            check_temperature(x)
        t = np.array(t, dtype=float)
    else:
        check_temperature(t)
    require_flag("noisy", noisy)
    if noisy:
        require_count("samples", samples)
    return t


_DRAW_CHUNK = 2**20  # most normals (or cell currents) a batch computes at once
_DRAW_BLOCK = 2**15  # most normals one noisy draw makes, one per cell at least


def multiply(
    array: ArrayState, inputs, temperature=None, noisy: bool = False, samples: int = 1
) -> np.ndarray:
    """Output current per array column [A].

    ``inputs`` holds one current per row, or is a (B, rows) batch of such
    vectors; ``temperature`` is a number or holds one per vector (a single
    vector is then read at each). A batch or a sequence of temperatures
    gives (B, cols) outputs, bit for bit those of B single calls in order.
    With ``noisy`` each cell current receives its relative noise draw
    (averaged over ``samples``) from the array's measurement stream.
    """
    cfg = array.cfg
    t = check_read(cfg, temperature, noisy, samples)
    x = np.asarray(inputs, dtype=float)
    if not (0 < x.ndim <= 2 and x.shape[-1] == array.rows and x.size):
        raise ValueError(f"inputs: expected {array.rows} input currents per vector, got shape {x.shape}")
    lo, hi = cfg.current_window
    for xi in x.ravel().tolist():
        if not lo <= xi <= hi:  # NaN fails too
            raise ValueError(f"inputs must lie in the window [{lo!r}, {hi!r}]")
    batched = isinstance(t, np.ndarray)
    if batched and x.ndim == 2 and len(x) != len(t):
        raise ValueError(f"temperature holds {len(t)} values for {len(x)} input vectors")
    t = t[:, None] if batched else t
    v_gate = gate_voltage(x, _check_cells(array), cfg.n, cfg.i0, t).reshape(-1, array.rows, 1)
    t = t[..., None] if batched else t  # (B, 1, 1)
    v_th, draw = array.v_th[:, array.io_layout[2]], array.measure_rng.standard_normal
    # vectors in chunks of about _DRAW_CHUNK normals, one vector at least:
    # B consecutive (samples, rows, cols) draws hold the same normals as one
    # (B, samples, rows, cols) draw; sum / samples is .mean(axis=1)
    step = max(1, _DRAW_CHUNK // (v_th.size * (samples if noisy else 1)))
    # a vector's samples in blocks of about _DRAW_BLOCK normals, each added in
    # order to the sum so far: .sum(axis=1) adds the samples one after
    # another too, except over one cell, which it sums pairwise
    block = samples if v_th.size == 1 else max(1, _DRAW_BLOCK // v_th.size)
    out = np.empty((len(v_gate), v_th.shape[1]))
    for i in range(0, len(out), step):
        currents = subthreshold_current(  # (chunk, rows, cols)
            v_gate[i:i + step], v_th, cfg.n, cfg.i0, t[i:i + step] if batched else t, cfg.i_sat
        )
        if noisy:
            if samples <= block:
                eps = np.add.reduce(draw((len(currents), samples) + v_th.shape), axis=1)
            else:
                eps, buf = np.empty(currents.shape), np.empty((block + 1,) + v_th.shape)
                for j in range(len(currents)):
                    for k in range(0, samples, block):
                        m = min(block, samples - k)
                        draw(out=buf[1:m + 1])
                        np.sum(buf[0 if k else 1:m + 1], axis=0, out=eps[j])  # row 0: the sum so far
                        buf[0] = eps[j]
            # currents * (1 + sigma * (eps / samples)), clipped at 0, in place
            eps /= samples
            eps *= cfg.noise._sigma_law(currents)  # finite and >= 0: one may underflow to 0
            eps += 1.0
            eps *= currents
            currents = np.maximum(eps, 0.0, out=eps)
        np.add.reduce(currents, axis=1, out=out[i:i + step])
    return out if batched or x.ndim == 2 else out[0]


# ------------------------------------------------- temperature behavior

def weight_at_temperature(w_ref: float, t_ref: float, t: float) -> float:
    """Constant-slope-factor scaling law: ln w(t) = ln w(t_ref) * t_ref/t."""
    for name, value in (("w_ref", w_ref), ("t_ref", t_ref), ("t", t)):
        require_positive(name, value)
    return math.exp(math.log(w_ref) * t_ref / t)


def _check_drift_scan(temp_range) -> float:
    """The drift's reference temperature, the range's low end; a
    ValueError names ``temp_range`` unless both ends are finite and
    positive and the range is ordered."""
    t_lo, t_hi = temp_range
    require_positive("temp_range", t_lo)
    require_positive("temp_range", t_hi)
    if not t_lo < t_hi:
        raise ValueError(f"temp_range must be ordered: low < high, got ({t_lo}, {t_hi})")
    return t_lo


def _drift_temps(temp_range) -> np.ndarray:
    """The 1 K grid from the range's low end to its high end."""
    return np.arange(temp_range[0], temp_range[1] + 0.5, 1.0)


def _drift(w_plus, w_minus, temps, reference, libm: bool = True):
    """Worst-case relative drift over ``temps`` of one (w_plus, w_minus)
    pair of floats, or of each pair of two equal-length float sequences.

    The logarithms and the reference-point exponentials are libm's
    (``math``, mapped over floats): numpy's log and exp differ from them
    in the last bit on some inputs. Without ``libm`` they are numpy's,
    over two arrays in one pass: close to libm's drift, not equal.
    """
    if isinstance(w_plus, float):
        a, b = math.log(w_plus), math.log(w_minus)
        out0 = math.exp(a) - math.exp(b)
    elif not libm:
        a, b = np.log(w_plus), np.log(w_minus)
        out0 = (np.exp(a) - np.exp(b))[:, None]
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


def differential_drift(w_plus: float, w_minus: float, temp_range) -> float:
    """Worst-case relative drift of w+ - w- over the interval, against its
    value at the range's low end, on a 1 K grid (analytic). A ValueError
    names ``w_plus`` or ``w_minus`` unless both are finite, positive and
    w_plus > w_minus."""
    require_positive("w_plus", w_plus)
    require_positive("w_minus", w_minus)
    if not w_plus > w_minus:
        raise ValueError(f"w_plus must exceed w_minus, got {w_plus} <= {w_minus}")
    t0 = _check_drift_scan(temp_range)
    return float(_drift(float(w_plus), float(w_minus), _drift_temps(temp_range), t0))


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-6):
    """Scalar golden-section minimizer on [lo, hi]; returns (argmin, min).
    A ValueError names ``tol`` unless it is finite and positive, and
    ``lo`` or ``hi`` unless both are finite and lo <= hi (a one-point
    bracket returns that point)."""
    require_positive("tol", tol)
    require_finite("lo", lo)
    require_finite("hi", hi)
    if lo > hi:
        raise ValueError(f"lo must not exceed hi, got lo={lo!r}, hi={hi!r}")
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


def optimize_bias_weight(w: float, temp_range, w_floor: float = 0.01):
    """Bias weight minimizing worst-case differential drift; returns (w_b, drift).

    The objective is the maximum relative deviation of w+ - w- from its
    value at the range's low end on a 1 K grid, scanned on a coarse
    bias-weight grid and refined by golden section. The floor keeps
    w_minus realizable within the tunable window; a w in (0, ``W_MIN``)
    has no feasible bias weight.
    """
    require_in("w", w, 0.0, 1.0)
    t0 = _check_drift_scan(temp_range)
    require_positive("w_floor", w_floor)
    if w == 0.0:
        return 0.5, 0.0

    if w < W_MIN:
        raise ValueError(f"no feasible bias weight for w={w} below {W_MIN}")
    lo = w / 2.0 + w_floor
    hi = 1.0 - w / 2.0
    if lo >= hi:
        raise ValueError(f"no feasible bias weight for w={w} with floor {w_floor}")
    if lo - w / 2.0 <= 0.0:  # the floor rounds away: w_minus would be 0
        raise ValueError(f"w_floor={w_floor!r} is lost to rounding against w/2 = {w / 2.0!r}")

    temps = _drift_temps(temp_range)

    def objective(w_b):
        return float(_drift(w_b + w / 2.0, w_b - w / 2.0, temps, t0))

    grid = np.arange(lo, hi + 1e-12, 1e-3)
    w_plus, w_minus = grid + w / 2.0, grid - w / 2.0
    # The drift at the high end bounds each point's drift from below (one
    # of its elements; at the low end, the reference, it is 0 up to
    # rounding). Taken with numpy's log and exp it may exceed libm's by a
    # rounding gap that grows as eps/w (w+ - w- cancels), so it bounds
    # drift + _BOUND_MARGIN / w. A point whose bound exceeds that much
    # more than the drift at the bound's argmin cannot hold np.argmin's
    # first minimum. A NaN drift keeps every point.
    bound = _drift(w_plus, w_minus, temps[-1:], t0, libm=False)
    keep = np.flatnonzero(~(bound > objective(grid[np.argmin(bound)]) + _BOUND_MARGIN / w))
    k = int(keep[np.argmin(_drift(w_plus[keep].tolist(), w_minus[keep].tolist(), temps, t0))])
    bracket_lo, bracket_hi = grid[[max(k - 1, 0), min(k + 1, len(grid) - 1)]].tolist()
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
    temp_range: tuple  # the drift is relative to its low end

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
        columns = ("row", "logical_col", "w", "w_b", "w_plus", "w_minus", "predicted_drift",
                   "col_plus", "col_minus", "target_plus", "target_minus")
        grids = (self.weights, self.w_b, self.w_plus, self.w_minus, self.predicted_drift)
        write_rows(path, columns, (
            (r, m, *(g[r, m] for g in grids), cp, cm, self.target_plus[r, m],
             self.target_minus[r, m])
            for m, (cp, cm) in enumerate(self.column_pairs)
            for r in range(self.weights.shape[0])
        ))


def reference_current(cfg: ModelConfig) -> float:
    """Standard-bias current of a center-of-window cell [A]."""
    lo, hi = cfg.current_window
    return math.sqrt(lo * hi)


def plan_differential(weights, temp_range, array: ArrayState) -> DifferentialWeightPlan:
    """Assign column pairs and optimized (w+, w-) targets for net weights.

    Peripheral cells sit at the window center, so a weight w maps to a
    standard-bias cell current of w times the center current. Entries
    that cannot be realized (w = 1 leaves no room for the pair, or
    w_minus would fall below the window) are reported together.
    """
    wvals = np.asarray(getattr(weights, "values", weights), dtype=float)
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
    i_ref = reference_current(cfg)
    w_floor = cfg.current_window[0] / i_ref
    # a bad range fails here, naming the field, not as infeasible entries
    _check_drift_scan(temp_range)

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
                w_b[r, m], drift[r, m] = optimize_bias_weight(w, temp_range, w_floor)
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
    )


def differential_multiply(
    array: ArrayState, plan: DifferentialWeightPlan, inputs, temperature=None,
    noisy: bool = False, samples: int = 1,
) -> np.ndarray:
    """Paired-column outputs: O_logical = O_plus - O_minus [A], on the last
    axis; ``inputs`` and ``temperature`` batch as in ``multiply``."""
    if plan.weights.shape[0] != array.rows:
        raise ValueError("plan rows do not match the array")
    cols = range(array.cols)[array.io_layout[2]]  # outputs[k] is column cols[k]
    for cp, cm in plan.column_pairs:
        if cp not in cols or cm not in cols:
            raise ValueError(f"plan pair ({cp}, {cm}) not among array columns")
    outputs = multiply(array, inputs, temperature=temperature, noisy=noisy, samples=samples).T
    k = cols.start
    return np.array([outputs[cp - k] - outputs[cm - k] for cp, cm in plan.column_pairs]).T
