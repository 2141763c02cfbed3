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
    check_n_slope,
    pulse_law,
    pulse_shift,  # noqa: F401  module attribute that tracing tools wrap
    readout,
    select_factor,
    stream_normals,
    vth_for_standard_current,
)
from .config import DEFAULT_CONFIG, InhibitionParams, ModelConfig, config_hash, require_count

# role classes in table order: index 2 * (row not selected) + (column not selected)
ROLES = ("selected", "row_half", "col_half", "unselected")

_MEASURE_STREAM_TAG = 0xA77A

# variability normals computed ahead per cell, so that successive pulses
# share one stream_normals call: enough that a refill of a pulse's rows +
# cols - 1 drawn cells makes about 256 pairs (a call's fixed cost dominates
# below that), and at least DRAW_AHEAD (1x4 arrays: 64; 32x34, 64x66: 8)
DRAW_AHEAD = 8

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

    def record(self, row: int, col: int, dvth: np.ndarray) -> None:
        """Count one pulse on (row, col) and add its off-target |dvth|."""
        exposure = np.abs(dvth)
        exposure[row, col] = 0.0  # the intended shift is not disturb
        self.cumulative_dvth += exposure
        self.targeted[row, col] += 1
        self.row_pulses[row] += 1
        self.col_pulses[col] += 1
        self.pulses += 1

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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("row,col,cumulative_dvth," + ",".join(ROLES) + "\n")
            rows, cols = self.cumulative_dvth.shape
            for r in range(rows):
                for c in range(cols):
                    line = ",".join(str(int(counts[k][r, c])) for k in ROLES)
                    fh.write(f"{r},{c},{float(self.cumulative_dvth[r, c])!r},{line}\n")


def _class_bias(
    kind: PulseKind, topology: str, inh: InhibitionParams, row_sel: bool, col_sel: bool
) -> BiasCondition:
    """Bias of a cell whose row / column is (not) the target's.

    Program: the selected row's source line is raised to 4.5 V (others
    0.5 V); the selected column is picked by a +4 V erase-gate-to-bit-line
    voltage (bit line 0.5 V, erase gate 4.5 V) while unselected columns
    keep that voltage negative with bit lines at 2.5 V.

    Erase, modified routing: the selected column's erase-gate line gets
    the 11.5 V pulse, the selected row's coupling-gate line is grounded
    and unselected rows are held at +8 V to inhibit tunneling. With the
    original row-routed erase gates the pulse necessarily hits the whole
    target row and no coupling-gate gating exists.
    """
    if kind is PulseKind.PROGRAM:
        return BiasCondition(
            v_wl=1.0 if row_sel else 0.0,
            v_cg=0.0,
            v_d=inh.program_bl_full if col_sel else 2.5,
            v_s=inh.program_sl_full if row_sel else inh.program_sl_off,
            v_eg=4.5 if col_sel and topology == "modified" else 0.0,
        )
    if topology == "modified":
        v_cg = inh.erase_cg_full if row_sel else inh.erase_cg_inhibit
        eg_sel = col_sel
    else:
        v_cg = 0.0
        eg_sel = row_sel
    v_eg = inh.erase_eg_full if eg_sel else inh.erase_eg_off
    return BiasCondition(v_wl=0.0, v_cg=v_cg, v_d=0.0, v_s=0.0, v_eg=v_eg)


@functools.lru_cache(maxsize=None)
def bias_table(kind: PulseKind, topology: str, inh: InhibitionParams) -> tuple:
    """(bias, select factor) of each role class, in ``ROLES`` order."""
    table = []
    for row_sel, col_sel in ((True, True), (True, False), (False, True), (False, False)):
        bias = _class_bias(kind, topology, inh, row_sel, col_sel)
        table.append((bias, select_factor(kind, bias, inh)))
    return tuple(table)


@functools.lru_cache(maxsize=16)
def _pulse_cells(rows, cols, row, col, kind, topology, inh, draws) -> tuple:
    """Row-major flat indices of the target's row and column (of every cell
    if the unselected class draws; ``draws`` is sigma > 0), drawing cells
    first; their select factors; how many draw; the unselected factor."""
    factors = [sf for _, sf in bias_table(kind, topology, inh)]
    drawn = np.array([draws and sf >= SF_DRAW_MIN for sf in factors])
    if drawn[3]:
        cells = np.arange(rows * cols)
    else:  # the target's column with its row spliced in
        column = np.arange(rows) * cols + col
        cells = np.concatenate((column[:row], row * cols + np.arange(cols), column[row + 1 :]))
    r, c = np.divmod(cells, cols)
    roles = 2 * (r != row) + (c != col)
    draw = drawn.take(roles)
    order = np.argsort(~draw, kind="stable")
    cells, sf = cells[order], np.array(factors).take(roles[order])
    cells.flags.writeable = sf.flags.writeable = False
    return cells, sf, int(draw.sum()), factors[3]


@dataclass
class DisturbDelta:
    """Per-pulse disturb record returned by ``pulse_cell``."""

    target: tuple
    kind: PulseKind
    dvth: np.ndarray  # signed v_th change of every cell

    @property
    def roles(self) -> np.ndarray:
        """Role index into ``ROLES`` of every cell."""
        row, col = self.target
        rows, cols = self.dvth.shape
        return 2 * (np.arange(rows)[:, None] != row) + (np.arange(cols) != col)


class ArrayState:
    """Grid of cell states plus line topology and measurement stream."""

    def __init__(self, cfg, topology, v_th, seeds, counts):
        if topology not in ("modified", "original"):
            raise ValueError("topology must be 'modified' or 'original'")
        cal = cfg.require_calibration()
        check_n_slope(cfg.n)  # the config is frozen, so reads need not repeat it
        if not np.all((v_th >= cal.v_th_min) & (v_th <= cal.v_th_max)):  # also rejects NaN
            raise ValueError(f"v_th must lie in [{cal.v_th_min!r}, {cal.v_th_max!r}] V")
        for name, grid in (("seeds", seeds), ("counts", counts)):
            if grid.shape != v_th.shape:
                raise ValueError(f"{name} shape {grid.shape} differs from v_th shape {v_th.shape}")
            if np.any(grid < 0):
                raise ValueError(f"{name} must be >= 0")
        self.cfg = cfg
        self.rows, self.cols = v_th.shape
        self.topology = topology
        self.v_th = v_th
        self.rng_seeds = seeds
        self.rng_counts = counts
        self.disturb = DisturbLog.empty(self.rows, self.cols)
        self.measure_rng = np.random.default_rng((int(cfg.seed), _MEASURE_STREAM_TAG))
        self._ahead = None  # draw-ahead block, made by the first drawing pulse

    @classmethod
    def fresh(
        cls,
        cfg: ModelConfig = DEFAULT_CONFIG,
        rows: int = 10,
        cols: int = 12,
        topology: str = "modified",
        initial: str = "programmed",
    ) -> "ArrayState":
        """New array with all cells at a window boundary.

        ``initial`` is 'programmed' (lowest current), 'erased' (highest)
        or 'center'.
        """
        require_count("rows", rows)
        require_count("cols", cols)
        cal = cfg.require_calibration()
        start = {
            "programmed": cal.v_th_max,
            "erased": cal.v_th_min,
            "center": cal.v_th_center,
        }[initial]
        seed_gen = np.random.default_rng(int(cfg.seed))
        seeds = seed_gen.integers(0, 2**63 - 1, size=(rows, cols), dtype=np.int64)
        return cls(
            cfg=cfg,
            topology=topology,
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
        """(row indices, peripheral column of each row, array-column slice)."""
        per = [self.peripheral_col_for_row(r) for r in range(self.rows)]
        return np.arange(self.rows), np.array(per), slice(1, self.cols - 1)

    def peripheral_col_for_row(self, row: int) -> int:
        """Which outer column holds the usable peripheral half for a row."""
        if not self.peripheral_cols:
            raise ValueError("array has no peripheral columns")
        return self.peripheral_cols[0] if row % 2 == 0 else self.peripheral_cols[1]

    def _check_target(self, row: int, col: int) -> None:
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
        """Place a cell's v_th to read ``current`` at standard bias (clamped)."""
        self._check_target(row, col)
        cal = self.cfg.require_calibration()
        v = vth_for_standard_current(current, self.cfg)
        self.v_th[row, col] = min(max(v, cal.v_th_min), cal.v_th_max)

    # ------------------------------------------------------------ pulses

    def _normals(self, cells: np.ndarray) -> tuple:
        """Next variability normal and draw count of each cell.

        ``cells`` are row-major flat indices. A cell's draw-ahead block
        holds the normals of draws base .. base + width - 1 of the seed it
        was made from (width: see ``DRAW_AHEAD``). If any cell's block does
        not cover its current seed and draw count, every cell of ``cells``
        is refilled from its current count in one ``stream_normals`` call,
        so the pulses that follow on the same target need no call. The
        block is a pure function of (seed, count) and is not saved.
        """
        if self._ahead is None:
            width = max(DRAW_AHEAD, math.ceil(256 / (self.rows + self.cols - 1)))
            self._ahead = np.empty((self.rows * self.cols, width))
            self._ahead_base = np.zeros(self.rows * self.cols, dtype=np.int64)
            self._ahead_seed = np.full(self.rows * self.cols, -1, dtype=np.int64)
        width = self._ahead.shape[1]
        seeds, counts = self.rng_seeds.take(cells), self.rng_counts.take(cells)
        offset = counts - self._ahead_base.take(cells)
        # a negative offset wraps past the width as uint64
        if ((seeds != self._ahead_seed.take(cells)) | (offset.view(np.uint64) >= width)).any():
            block = counts.astype(np.uint64)[:, None] + np.arange(width, dtype=np.uint64)
            normals = stream_normals(np.repeat(seeds, width), block)
            self._ahead[cells] = normals.reshape(-1, width)
            self._ahead_base[cells] = counts
            self._ahead_seed[cells] = seeds
            return self._ahead[cells, 0], counts
        return self._ahead[cells, offset], counts

    def pulse_cell(self, row: int, col: int, pulse: PulseSpec) -> DisturbDelta:
        """Apply one pulse to the target; every cell sees its class's bias.

        The unselected class takes one whole-array shift. The target's row
        and column, or every cell when the unselected class draws, are
        one flat index list: each of its cells in a class whose select
        factor reaches ``SF_DRAW_MIN`` takes its own variability draw, the
        one ``pulse_shift`` would take, and the rest their class's shift.
        """
        self._check_target(row, col)
        if pulse.duration == 0.0:
            # no-op pulse: neither state nor disturb accounting moves
            return DisturbDelta((row, col), pulse.kind, np.zeros((self.rows, self.cols)))

        sigma = self.cfg.pulse.variability_sigma
        step, sign, limit = pulse_law(pulse, self.cfg)
        clamp = np.minimum if sign > 0 else np.maximum
        cells, sf, drawn, sf_unselected = _pulse_cells(
            self.rows, self.cols, row, col, pulse.kind, self.topology, self.cfg.inhibition,
            sigma > 0.0,
        )
        magnitude = step * sf
        if drawn:
            z, counts = self._normals(cells[:drawn])
            magnitude[:drawn] *= [math.exp(x) for x in (sigma * z).tolist()]
            self.rng_counts.put(cells[:drawn], counts + 1)
        old = self.v_th.copy()
        line = old.take(cells) + sign * magnitude
        clamp(line, limit, out=line)
        self.v_th += sign * (step * sf_unselected)
        clamp(self.v_th, limit, out=self.v_th)
        self.v_th.put(cells, line)
        dvth = self.v_th - old
        self.disturb.record(row, col, dvth)
        return DisturbDelta((row, col), pulse.kind, dvth)

    # ----------------------------------------------------------- readout

    def read_cell(
        self,
        row: int,
        col: int,
        temperature: float = None,
        noisy: bool = False,
        samples: int = 1,
    ) -> float:
        """Standard-bias readout [A]; never mutates any cell state."""
        self._check_target(row, col)
        v_th = float(self.v_th[row, col])
        if not math.isfinite(v_th):
            raise ValueError("v_th must be finite")
        t = self.cfg.temperature_ref if temperature is None else temperature
        rng = self.measure_rng if noisy else None
        return readout(v_th, READOUT_BIAS, t, self.cfg, samples, rng)

    # ------------------------------------------------------- persistence

    def save(self, path) -> None:
        """Plain-text state dump, one record per cell, versioned header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# flashvmm-array v{STATE_FORMAT_VERSION}\n")
            fh.write(
                f"# rows={self.rows} cols={self.cols} topology={self.topology}\n"
            )
            fh.write(f"# config_hash={config_hash(self.cfg)}\n")
            fh.write(STATE_COLUMNS + "\n")
            for r in range(self.rows):
                for c in range(self.cols):
                    fh.write(
                        f"{r},{c},{float(self.v_th[r, c])!r},"
                        f"{int(self.rng_seeds[r, c])},{int(self.rng_counts[r, c])}\n"
                    )

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
            r"# rows=([1-9]\d*) cols=([1-9]\d*) topology=(modified|original)",
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
        cal = cfg.require_calibration()
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
        return cls(cfg, geometry[3], v_th, seeds, counts)
