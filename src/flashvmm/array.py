"""Cell array with the modified column-erase routing.

Rows carry source, coupling-gate and word lines; columns carry bit and
erase-gate lines. The two outer columns are peripheral (input) cells,
one half of each supercell row pair. A selective program or erase pulse
biases each cell by its role class (selected, row half-selected, column
half-selected or unselected), so one 2x2 table of biases and select
factors per pulse kind covers the whole array. Pulse application updates
every cell under its class's bias so half-select residue accumulates and
is tracked in a disturb log.
"""

import functools
import math
import re
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .cell import (
    READOUT_BIAS,
    SF_DRAW_MIN,
    BiasCondition,
    CellState,
    PulseKind,
    PulseSpec,
    pulse_law,
    pulse_shift,  # noqa: F401  module attribute that tracing tools wrap
    readout_law,
    select_factor,
    stream_normals,
    vth_for_standard_current,
)
from .config import (
    DEFAULT_CONFIG, InhibitionParams, ModelConfig, check_temperature, config_hash, require_count,
    require_finite, require_flag, write_rows,
)

# role classes in table order: index 2 * (row not selected) + (column not selected)
ROLES = ("selected", "row_half", "col_half", "unselected")

# the window bound an array's cells start at
INITIAL_STATES = ("programmed", "erased", "center")

_MEASURE_STREAM_TAG = 0xA77A

# lognormal variability factors kept ahead per drawn cell, as a ring that
# a refill tops up (see ArrayState._cover). Of the widths 24, 32, 48, 64
# and 96 in 30 s tune-ramp runs, 64 and 96 were the fastest, within
# run-to-run spread; 64 has the lower tail and peak RSS.
DRAW_AHEAD = 64
# rows of draws a kernel gathers from the rings at once (see _Kernel); of 4,
# 8, 12, 16, 24 and 64, 16 and 24 gave the fastest tune-ramp median op
_BLOCK_ROWS = 16

STATE_FORMAT_VERSION = 2
STATE_COLUMNS = "row,col,v_th,seed,draws"


@dataclass
class DisturbLog:
    """Cumulative half-select exposure: |dv_th| per cell plus pulse counts.

    A pulse with duration > 0 is counted on its target cell (T), row (R),
    column (C) and in the total (N); ``counts`` derives each role's count.
    """

    cumulative_dvth: np.ndarray
    targeted: np.ndarray  # T, per cell
    row_pulses: np.ndarray  # R, per row
    col_pulses: np.ndarray  # C, per column
    pulses: int = 0  # N

    @classmethod
    def empty(cls, rows: int, cols: int) -> "DisturbLog":
        return cls(
            np.zeros((rows, cols)),
            np.zeros((rows, cols), dtype=np.int64),
            np.zeros(rows, dtype=np.int64),
            np.zeros(cols, dtype=np.int64),
        )

    @property
    def counts(self) -> MappingProxyType:
        """Read-only (rows, cols) int64 pulse counts per role, in ``ROLES`` order."""
        t, r, c = self.targeted, self.row_pulses[:, None], self.col_pulses
        grids = (t.copy(), r - t, c - t, self.pulses - r - c + t)
        for grid in grids:
            grid.flags.writeable = False
        return MappingProxyType(dict(zip(ROLES, grids)))

    def to_csv(self, path) -> None:
        counts = self.counts
        write_rows(path, ("row", "col", "cumulative_dvth") + ROLES, (
            (r, c, dv, *(counts[k][r, c] for k in ROLES))
            for (r, c), dv in np.ndenumerate(self.cumulative_dvth)
        ))


def _class_bias(
    kind: PulseKind, inh: InhibitionParams, row_sel: bool, col_sel: bool
) -> BiasCondition:
    """Bias of a cell whose row / column is (not) the target's.

    Program: the selected row's source line is raised to 4.5 V (others
    0.5 V); the selected column is picked by a +4 V erase-gate-to-bit-line
    voltage (bit line 0.5 V, erase gate 4.5 V) while unselected columns
    keep that voltage negative with bit lines at 2.5 V.

    Erase: the selected column's erase-gate line gets the 11.5 V pulse,
    the selected row's coupling-gate line is grounded and unselected rows
    are held at +8 V to inhibit tunneling.
    """
    if kind is PulseKind.PROGRAM:
        return BiasCondition(
            v_wl=1.0 if row_sel else 0.0,
            v_cg=0.0,
            v_d=inh.program_bl_full if col_sel else 2.5,
            v_s=inh.program_sl_full if row_sel else inh.program_sl_off,
            v_eg=4.5 if col_sel else 0.0,
        )
    return BiasCondition(
        v_wl=0.0,
        v_cg=inh.erase_cg_full if row_sel else inh.erase_cg_inhibit,
        v_d=0.0,
        v_s=0.0,
        v_eg=inh.erase_eg_full if col_sel else inh.erase_eg_off,
    )


@functools.lru_cache(maxsize=None)
def bias_table(kind: PulseKind, inh: InhibitionParams) -> tuple:
    """(bias, select factor) of each role class, in ``ROLES`` order."""
    table = []
    for row_sel, col_sel in ((True, True), (True, False), (False, True), (False, False)):
        bias = _class_bias(kind, inh, row_sel, col_sel)
        table.append((bias, select_factor(kind, bias, inh)))
    return tuple(table)


@functools.lru_cache(maxsize=None)
def _pulse_table(kind, inh, draws, sign) -> tuple:
    """Each role class's select factor times ``sign``, in ``ROLES`` order
    (+-1 scales exactly, so times a step it is the signed product); the
    classes that draw (``draws`` is sigma > 0); whether each class draws."""
    factors = np.array([sign * sf for _, sf in bias_table(kind, inh)])
    drawing = draws & (np.abs(factors) >= SF_DRAW_MIN)
    factors.flags.writeable = drawing.flags.writeable = False
    return factors, tuple(np.flatnonzero(drawing).tolist()), drawing


class _Kernel:
    """One target's pulses and reads, checked once; valid while only it
    changes the array. ``tune_cell`` opens one per target as a context
    manager, ``pulse_cell`` and ``read_cell`` one per call.

    ``pulse(kind, duration, amplitude)`` returns the signed v_th change of
    every cell. The first pulse fills the target's grid of ``ROLES``
    indices; each kind's ``_pulse_table``, taken through it, gives every
    cell's signed select factor and the drawing cells. Kinds that draw
    the same classes share one ring check: ``_cover`` checks the drawing
    cells' rings at their first pulse and once the pulses since may have
    used the draws it found covered. Later pulses take their factors from
    a block of up to ``_BLOCK_ROWS`` draws; the draws reach ``rng_counts``
    before a check, before a pulse on another check's cells and at
    ``close``, which also counts the pulses in the disturb log.
    ``read(samples)`` is ``readout`` at the standard bias and
    ``temperature``, from the measurement stream if ``noisy``.
    """

    __slots__ = ("array", "row", "col", "t", "rng", "roles", "magnitude", "kinds", "rings", "drawn",
                 "pulses", "active", "counts", "synced", "block")

    def __init__(self, array, row: int, col: int, temperature: float = None, noisy: bool = True):
        array._check_target(row, col)
        require_flag("noisy", noisy)
        t = array.cfg.temperature_ref if temperature is None else temperature
        check_temperature(t)
        self.array, self.row, self.col, self.t = array, row, col, t
        self.rng = array.measure_rng if noisy else None
        # the role grid and a pulse's v_th change; per kind, program then
        # erase, its factors, ring check and pulse law; per tuple of drawing
        # classes a ring check, [drawing cells, the drawing pulse it covers
        # up to, the rings' first slots]; the drawing and uncounted pulses
        self.roles = self.magnitude = None
        self.kinds, self.rings = [None, None], {}
        self.drawn = self.pulses = 0
        # the ring check whose draws are not written back, its cells' counts
        # at drawing pulse ``synced``, and the rows left of its block
        self.active, self.counts, self.synced, self.block = None, None, 0, iter(())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Write the draws and disturb counts of the pulses so far to the array."""
        self._write_back()
        log, n = self.array.disturb, self.pulses
        log.targeted[self.row, self.col] += n
        log.row_pulses[self.row] += n
        log.col_pulses[self.col] += n
        log.pulses += n
        self.pulses = 0

    def _write_back(self) -> None:
        if self.drawn > self.synced:
            self.array.rng_counts.put(self.active[0], self.counts + (self.drawn - self.synced))
        self.active, self.synced, self.block = None, self.drawn, iter(())

    def _resolve(self, kind, k) -> tuple:
        array, cfg = self.array, self.array.cfg
        step, sign, limit = pulse_law(kind, cfg)
        sf, classes, drawing = _pulse_table(kind, cfg.inhibition, cfg.pulse.variability_sigma > 0.0, sign)
        if self.roles is None:
            roles = np.full((array.rows, array.cols), 3)  # 2 * (row not selected) + (column not)
            roles[self.row] = 1
            roles[:, self.col] = 2
            roles[self.row, self.col] = 0
            self.roles, self.magnitude = roles, np.empty(roles.shape)
        ring = self.rings.get(classes)
        if ring is None and classes:  # the target's factor, about 1, draws whenever any does
            ring = self.rings[classes] = [drawing.take(self.roles.ravel()).nonzero()[0], 0, None]
        sf = sf.take(self.roles)
        clamp = np.minimum if sign > 0 else np.maximum
        self.kinds[k] = (sf, None if ring is None else sf.take(ring[0]), ring, step, limit, clamp)
        return self.kinds[k]

    def _factors(self, ring) -> np.ndarray:
        """This pulse's factors when no block row is left: one row after the
        ring check reads its counts, else the first of a new block."""
        array, n = self.array, self.drawn
        cells, until, slots = ring
        if self.active is not ring or n >= until:
            if self.active is not None:  # rng_counts current for the check and the other cells
                self._write_back()
            if n >= until:
                until = n + array._cover(cells, array.cfg.pulse.variability_sigma)
                slots = cells * array._ahead.shape[1]
                ring[1:] = until, slots
            self.active, self.counts = ring, array.rng_counts.take(cells)
        width, draws = array._ahead.shape[1], n - self.synced
        if draws == 0:
            return array._ahead.take(slots + self.counts % width)
        index = self.counts + np.arange(draws, draws + min(until - n, _BLOCK_ROWS))[:, None]
        index %= width
        index += slots
        self.block = iter(array._ahead.take(index))
        return next(self.block)

    def pulse(self, kind, duration, amplitude) -> np.ndarray:
        array = self.array
        if duration == 0.0:  # neither state nor disturb accounting moves
            return np.zeros((array.rows, array.cols))
        k = kind is PulseKind.ERASE
        sf, sf_drawn, ring, step, limit, clamp = self.kinds[k] or self._resolve(kind, k)
        step = step(duration, amplitude)
        magnitude = self.magnitude
        np.multiply(sf, step, magnitude)
        if ring is not None:
            factors = next(self.block, None) if self.active is ring else None
            magnitude.put(ring[0], sf_drawn * step * (self._factors(ring) if factors is None else factors))
            self.drawn += 1
        v_th = array.v_th
        old = v_th.copy()
        v_th += magnitude
        clamp(v_th, limit, out=v_th)
        dvth = v_th - old
        exposure = np.abs(dvth)
        exposure[self.row, self.col] = 0.0  # the intended shift is not disturb
        array.disturb.cumulative_dvth += exposure
        self.pulses += 1
        return dvth

    def read(self, samples: int) -> float:
        cfg, v_th = self.array.cfg, self.array.v_th.item(self.row, self.col)
        require_finite("v_th", v_th)
        if READOUT_BIAS.v_wl < cfg.wl_on_threshold:
            return 0.0
        return readout_law(v_th, READOUT_BIAS.v_cg, self.t, cfg, samples, self.rng)


class ArrayState:
    """Grid of cell states plus measurement stream."""

    def __init__(self, cfg, v_th, seeds, counts):
        for name, grid, dtype in (("v_th", v_th, np.float64), ("seeds", seeds, np.int64),
                                  ("counts", counts, np.int64)):
            if not (isinstance(grid, np.ndarray) and grid.ndim == 2 and grid.dtype == dtype):
                got = f"{np.ndim(grid)}-D {getattr(grid, 'dtype', type(grid).__name__)}"
                raise ValueError(f"{name} must be a 2-D {np.dtype(dtype)} array, got {got}")
        cal = cfg.calibration
        if not np.all((v_th >= cal.v_th_min) & (v_th <= cal.v_th_max)):  # also rejects NaN
            raise ValueError(f"v_th must lie in [{cal.v_th_min!r}, {cal.v_th_max!r}] V")
        for name, grid in (("seeds", seeds), ("counts", counts)):
            if grid.shape != v_th.shape:
                raise ValueError(f"{name} shape {grid.shape} differs from v_th shape {v_th.shape}")
            if np.any(grid < 0):
                raise ValueError(f"{name} must be >= 0")
        self.cfg = cfg
        self.rows, self.cols = v_th.shape
        self.v_th = v_th
        self.rng_seeds = seeds
        self.rng_counts = counts
        self.disturb = DisturbLog.empty(self.rows, self.cols)
        self.measure_rng = np.random.default_rng((int(cfg.seed), _MEASURE_STREAM_TAG))
        self._ahead = None  # draw-ahead ring, made by the first drawing pulse
        self._ahead_sigma = None  # the variability sigma the ring's factors hold

    @classmethod
    def fresh(
        cls,
        cfg: ModelConfig = DEFAULT_CONFIG,
        rows: int = 10,
        cols: int = 12,
        initial: str = "programmed",
    ) -> "ArrayState":
        """New array with all cells at a window boundary.

        ``initial`` is 'programmed' (lowest current), 'erased' (highest)
        or 'center'.
        """
        require_count("rows", rows)
        require_count("cols", cols)
        if initial not in INITIAL_STATES:
            raise ValueError(f"initial must be one of {', '.join(INITIAL_STATES)}, got {initial!r}")
        cal = cfg.calibration
        start = dict(zip(INITIAL_STATES, (cal.v_th_max, cal.v_th_min, cal.v_th_center)))[initial]
        seed_gen = np.random.default_rng(int(cfg.seed))
        seeds = seed_gen.integers(0, 2**63 - 1, size=(rows, cols), dtype=np.int64)
        return cls(
            cfg=cfg,
            v_th=np.full((rows, cols), start, dtype=float),
            seeds=seeds,
            counts=np.zeros((rows, cols), dtype=np.int64),
        )

    # ------------------------------------------------------------ layout

    @property
    def peripheral_cols(self) -> tuple:
        """Outer column pair reserved for input cells (empty if too narrow)."""
        return (0, self.cols - 1) if self.cols >= 3 else ()

    @property
    def array_cols(self) -> list:
        per = set(self.peripheral_cols)
        return [c for c in range(self.cols) if c not in per]

    @functools.cached_property
    def io_layout(self) -> tuple:
        """(flat index of each row's peripheral cell, its column, array-column slice)."""
        per = [self.peripheral_col_for_row(r) for r in range(self.rows)]
        return np.arange(self.rows) * self.cols + per, np.array(per), slice(1, self.cols - 1)

    def peripheral_col_for_row(self, row: int) -> int:
        """Which outer column holds the usable peripheral half for a row."""
        if not self.peripheral_cols:
            raise ValueError("array has no peripheral columns")
        return self.peripheral_cols[0] if row % 2 == 0 else self.peripheral_cols[1]

    def _check_target(self, row: int, col: int) -> None:
        """A ValueError naming a non-integer row or col; an IndexError outside the array."""
        if type(row) is not int or type(col) is not int:
            require_count("row", row, -math.inf)
            require_count("col", col, -math.inf)
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"cell ({row}, {col}) outside {self.rows}x{self.cols}")

    # ------------------------------------------------------- cell access

    def cell_at(self, row: int, col: int) -> CellState:
        self._check_target(row, col)
        return CellState(
            v_th=float(self.v_th[row, col]),
            rng_seed=int(self.rng_seeds[row, col]),
            rng_count=int(self.rng_counts[row, col]),
        )

    def set_cell_current(self, row: int, col: int, current: float) -> None:
        """Place a cell's v_th to read ``current`` (in the current window) at standard bias."""
        self._check_target(row, col)
        cal = self.cfg.calibration
        v = vth_for_standard_current(current, self.cfg)
        self.v_th[row, col] = min(max(v, cal.v_th_min), cal.v_th_max)

    # ------------------------------------------------------------ pulses

    def _cover(self, cells: np.ndarray, sigma: float) -> int:
        """Make each cell's ring of lognormal variability factors,
        exp(sigma * z), cover its draw count; returns how many draws, from
        each count on, every ring then covers.

        ``cells`` are row-major flat indices. Each cell keeps a ring of
        ``width`` factors (``DRAW_AHEAD``) of the seed it was drawn from:
        slot ``count % width`` holds the factor of draw ``count`` while
        base <= count < base + width. When any cell of ``cells`` is stale,
        one ``stream_normals`` call tops each of them up to draws count ..
        count + width - 1. A cell whose ring covers its count draws only
        base + width .. count + width - 1, any other cell its whole ring;
        then base = count. So no normal is drawn twice unless
        ``rng_counts`` is edited. The factor is ``math.exp`` of the Python
        float, as in ``pulse_shift`` (``np.exp`` differs in the last bit).
        The rings are a pure function of (seed, count, sigma), are dropped
        when sigma changes (``cfg`` may be reassigned) and are not saved.
        """
        if sigma != self._ahead_sigma:
            self._ahead = np.empty((self.rows * self.cols, DRAW_AHEAD))
            self._ahead_base = np.zeros(self.rows * self.cols, dtype=np.int64)
            self._ahead_seed = np.full(self.rows * self.cols, -1, dtype=np.int64)
            self._ahead_sigma = sigma
        width = self._ahead.shape[1]
        seeds, counts = self.rng_seeds.take(cells), self.rng_counts.take(cells)
        offset = counts - self._ahead_base.take(cells)
        # a negative offset wraps past the width as uint64
        covered = (seeds == self._ahead_seed.take(cells)) & (offset.view(np.uint64) < width)
        if np.count_nonzero(covered) == covered.size:  # a third of .all()'s cost
            return width - int(offset.max())
        # each cell's n missing draws, count + width - n .. count + width - 1,
        # one run after another; in uint64, which a count near 2**63 fits
        n = np.where(covered, offset, width)
        ends = n.cumsum()
        runs = (counts + width - ends).view(np.uint64).repeat(n)
        draws = np.arange(ends[-1], dtype=np.uint64) + runs
        slots = (cells * width).view(np.uint64).repeat(n) + draws % width
        z = stream_normals(seeds.repeat(n), draws)
        self._ahead.reshape(-1)[slots] = np.fromiter(map(math.exp, (sigma * z).tolist()), float, z.size)
        self._ahead_base[cells] = counts
        self._ahead_seed[cells] = seeds
        return width

    def pulse_cell(self, row: int, col: int, pulse: PulseSpec) -> np.ndarray:
        """Apply one pulse to the target; every cell sees its class's bias.
        Returns the signed v_th change of every cell."""
        with _Kernel(self, row, col) as kernel:
            return kernel.pulse(pulse.kind, pulse.duration, pulse.amplitude)

    # ----------------------------------------------------------- readout

    def read_cell(self, row: int, col: int, temperature: float = None, noisy: bool = False,
                  samples: int = 1) -> float:
        """Standard-bias readout [A]; never mutates any cell state."""
        kernel = _Kernel(self, row, col, temperature, noisy)
        if noisy:
            require_count("samples", samples)
        return kernel.read(samples)

    # ------------------------------------------------------- persistence

    def save(self, path) -> None:
        """Plain-text state dump, one record per cell, versioned header."""
        header = (
            f"# flashvmm-array v{STATE_FORMAT_VERSION}\n"
            # the erase routing is always column-wise; the literal keeps the v2 format
            f"# rows={self.rows} cols={self.cols} topology=modified\n"
            f"# config_hash={config_hash(self.cfg)}"
        )
        write_rows(path, STATE_COLUMNS.split(","), (
            (r, c, v, self.rng_seeds[r, c], self.rng_counts[r, c])
            for (r, c), v in np.ndenumerate(self.v_th)
        ), header)

    @classmethod
    def load(cls, path, cfg: ModelConfig = DEFAULT_CONFIG) -> "ArrayState":
        """Read a file written by ``save``; it loads exactly or raises.

        The file must hold exactly one record per cell, in the row-major
        order ``save`` writes, each with a v_th inside the threshold
        window, a seed in [0, 2**63) and a draw count >= 0. Every failure
        is a ValueError naming the path and line.
        """
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()

        def error(lineno, message):
            return ValueError(f"{path}, line {lineno}: {message}")

        def header(k, pattern, message):
            match = re.fullmatch(pattern, lines[k]) if k < len(lines) else None
            if match is None:
                raise error(k + 1, message)
            return match

        version = header(0, r"# flashvmm-array v(\d+)", "not a flashvmm array state file")[1]
        if int(version) != STATE_FORMAT_VERSION:
            raise error(1, f"unsupported state version {version}")
        geometry = header(
            1,
            r"# rows=([1-9]\d*) cols=([1-9]\d*) topology=modified",
            "malformed geometry line",
        )
        saved_hash = header(2, r"# config_hash=(\S+)", "malformed config hash line")[1]
        if saved_hash != config_hash(cfg):
            raise error(
                3,
                f"state was written under config {saved_hash}, "
                f"current config is {config_hash(cfg)}",
            )
        header(3, re.escape(STATE_COLUMNS), f"expected the column line {STATE_COLUMNS}")

        rows, cols = int(geometry[1]), int(geometry[2])
        records = lines[4:]
        if len(records) != rows * cols:
            raise error(len(lines), f"{len(records)} cell records, expected {rows * cols}")
        cal = cfg.calibration
        v_th = np.empty((rows, cols))
        seeds = np.empty((rows, cols), dtype=np.int64)
        counts = np.empty((rows, cols), dtype=np.int64)
        for k, line in enumerate(records):
            lineno = k + 5
            try:
                r, c, v, seed, draws = line.split(",")
                r, c, v, seed, draws = int(r), int(c), float(v), int(seed), int(draws)
            except ValueError:
                raise error(lineno, f"malformed record {line!r}") from None
            if (r, c) != divmod(k, cols):
                raise error(lineno, f"record for cell ({r}, {c}), expected {divmod(k, cols)}")
            if not (cal.v_th_min <= v <= cal.v_th_max):  # also rejects NaN
                raise error(lineno, f"v_th {v!r} outside [{cal.v_th_min!r}, {cal.v_th_max!r}] V")
            for name, value in (("seed", seed), ("draws", draws)):
                if not 0 <= value < 2**63:
                    raise error(lineno, f"{name} {value} outside [0, 2**63)")
            v_th[r, c], seeds[r, c], counts[r, c] = v, seed, draws
        return cls(cfg, v_th, seeds, counts)
