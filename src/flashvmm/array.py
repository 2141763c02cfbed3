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

import numpy as np

from .cell import (
    READOUT_BIAS,
    SF_DRAW_MIN,
    BiasCondition,
    CellState,
    PulseKind,
    PulseSpec,
    drain_current,
    pulse_law,
    pulse_shift,  # noqa: F401  module attribute that tracing tools wrap
    readout_noisy,
    select_factor,
    stream_normals,
    vth_for_standard_current,
)
from .config import DEFAULT_CONFIG, InhibitionParams, ModelConfig, config_hash, require_count

# role classes in table order: index 2 * (row not selected) + (column not selected)
ROLES = ("selected", "row_half", "col_half", "unselected")

_MEASURE_STREAM_TAG = 0xA77A

# variability normals computed ahead per cell, so that successive pulses
# share one stream_normals call (8 and 16 measured alike on 32x34 and 1x4
# arrays; 8 keeps the block and each refill small)
DRAW_AHEAD = 8

STATE_FORMAT_VERSION = 2
STATE_COLUMNS = "row,col,v_th,seed,draws"


@dataclass
class DisturbLog:
    """Cumulative half-select exposure: |dv_th| per cell plus pulse counts."""

    cumulative_dvth: np.ndarray
    counts: dict

    @classmethod
    def empty(cls, rows: int, cols: int) -> "DisturbLog":
        return cls(
            cumulative_dvth=np.zeros((rows, cols)),
            counts={role: np.zeros((rows, cols), dtype=np.int64) for role in ROLES},
        )

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("row,col,cumulative_dvth," + ",".join(ROLES) + "\n")
            rows, cols = self.cumulative_dvth.shape
            for r in range(rows):
                for c in range(cols):
                    counts = ",".join(str(int(self.counts[k][r, c])) for k in ROLES)
                    fh.write(f"{r},{c},{float(self.cumulative_dvth[r, c])!r},{counts}\n")


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


def _role_index(row_sel: bool, col_sel: bool) -> int:
    return 2 * (not row_sel) + (not col_sel)


@dataclass
class DisturbDelta:
    """Per-pulse disturb record returned by ``pulse_cell``."""

    target: tuple
    kind: PulseKind
    dvth: np.ndarray  # signed v_th change of every cell
    roles: np.ndarray  # role index into ROLES per cell


class ArrayState:
    """Grid of cell states plus line topology and measurement stream."""

    def __init__(self, cfg, topology, v_th, seeds, counts):
        if topology not in ("modified", "original"):
            raise ValueError("topology must be 'modified' or 'original'")
        cfg.require_calibration()
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

    @property
    def supercell_row_pairs(self) -> list:
        """Metadata only: row pairs sharing source and erase gate."""
        return [(r, r + 1) for r in range(0, self.rows - 1, 2)]

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
            n_slope=self.cfg.n,
            i0=self.cfg.i0,
            noise=self.cfg.noise,
            rng_seed=int(self.rng_seeds[row, col]),
            rng_count=int(self.rng_counts[row, col]),
        )

    def set_cell_current(self, row: int, col: int, current: float) -> None:
        """Place a cell's v_th to read ``current`` at standard bias (clamped)."""
        self._check_target(row, col)
        cal = self.cfg.require_calibration()
        v = vth_for_standard_current(current, self.cfg)
        self.v_th[row, col] = min(max(v, cal.v_th_min), cal.v_th_max)

    # ------------------------------------------------------ bias schemes

    def role_of(self, row: int, col: int, target_row: int, target_col: int) -> str:
        return ROLES[_role_index(row == target_row, col == target_col)]

    def _role_grid(self, row: int, col: int) -> np.ndarray:
        """Role index into ``ROLES`` of every cell for a pulse on (row, col)."""
        self._check_target(row, col)
        roles = np.full((self.rows, self.cols), 3, dtype=np.int64)
        roles[row] = 1
        roles[:, col] = 2
        roles[row, col] = 0
        return roles

    def _scheme(self, kind: PulseKind, row: int, col: int) -> dict:
        self._check_target(row, col)
        table = bias_table(kind, self.topology, self.cfg.inhibition)
        return {
            (r, c): table[_role_index(r == row, c == col)][0]
            for r in range(self.rows)
            for c in range(self.cols)
        }

    def build_program_scheme(self, row: int, col: int) -> dict:
        """Per-cell bias map for a selective hot-electron program pulse."""
        return self._scheme(PulseKind.PROGRAM, row, col)

    def build_erase_scheme(self, row: int, col: int) -> dict:
        """Per-cell bias map for a selective tunneling-erase pulse."""
        return self._scheme(PulseKind.ERASE, row, col)

    # ------------------------------------------------------------ pulses

    def _normals(self, cells: np.ndarray) -> np.ndarray:
        """Next variability normal of each cell, from the draw-ahead block.

        ``cells`` are row-major flat indices. A cell's block holds the
        normals of draws base .. base + DRAW_AHEAD - 1 of the seed it was
        made from. If any cell's block does not cover its current seed and
        draw count, every cell of ``cells`` is refilled from its current
        count in one ``stream_normals`` call, so the pulses that follow on
        the same target need no call. The block is a pure function of
        (seed, count) and is not saved.
        """
        if self._ahead is None:
            self._ahead = np.empty((self.rows * self.cols, DRAW_AHEAD))
            self._ahead_base = np.zeros(self.rows * self.cols, dtype=np.int64)
            self._ahead_seed = np.full(self.rows * self.cols, -1, dtype=np.int64)
        seeds, counts = self.rng_seeds.take(cells), self.rng_counts.take(cells)
        offset = counts - self._ahead_base.take(cells)
        if ((seeds != self._ahead_seed.take(cells)) | (offset < 0) | (offset >= DRAW_AHEAD)).any():
            block = counts.astype(np.uint64)[:, None] + np.arange(DRAW_AHEAD, dtype=np.uint64)
            normals = stream_normals(np.repeat(seeds, DRAW_AHEAD), block)
            self._ahead[cells] = normals.reshape(-1, DRAW_AHEAD)
            self._ahead_base[cells] = counts
            self._ahead_seed[cells] = seeds
            return self._ahead[cells, 0]
        return self._ahead[cells, offset]

    def pulse_cell(self, row: int, col: int, pulse: PulseSpec) -> DisturbDelta:
        """Apply one pulse to the target; every cell sees its class's bias.

        Cells of a class whose select factor reaches ``SF_DRAW_MIN`` each
        take their own variability draw, the one ``pulse_shift`` would
        take; the other classes get their deterministic shift as one
        array update.
        """
        roles = self._role_grid(row, col)
        dvth = np.zeros((self.rows, self.cols))
        if pulse.duration == 0.0:
            # no-op pulse: neither state nor disturb accounting moves
            return DisturbDelta(
                target=(row, col), kind=pulse.kind, dvth=dvth, roles=roles
            )

        table = bias_table(pulse.kind, self.topology, self.cfg.inhibition)
        sizes = (1, self.cols - 1, self.rows - 1, (self.rows - 1) * (self.cols - 1))
        sigma = self.cfg.pulse.variability_sigma
        drawn = [k for k in range(4) if sizes[k] and sigma > 0.0 and table[k][1] >= SF_DRAW_MIN]
        step, sign, limit = pulse_law(pulse.kind, pulse, self.cfg)
        clamp = np.minimum if sign > 0 else np.maximum
        magnitude = np.array([step * sf for _, sf in table])

        new_vth = self.v_th
        if len(drawn) < sum(1 for n in sizes if n):
            new_vth = self.v_th + (sign * magnitude)[roles]
            clamp(new_vth, limit, out=new_vth)
            np.subtract(new_vth, self.v_th, out=dvth)
        if drawn:
            # drawn cells replace the bulk result; self.v_th still holds the old state
            is_drawn = np.zeros(4, dtype=bool)
            is_drawn[drawn] = True
            cells = np.flatnonzero(is_drawn[roles])
            scale = [math.exp(x) for x in (sigma * self._normals(cells)).tolist()]
            old = self.v_th.take(cells)
            new = old + sign * (magnitude.take(roles.take(cells)) * scale)
            clamp(new, limit, out=new)
            np.put(new_vth, cells, new)
            np.put(dvth, cells, new - old)
            np.put(self.rng_counts, cells, self.rng_counts.take(cells) + 1)
        if new_vth is not self.v_th:
            self.v_th[...] = new_vth

        for k, role in enumerate(ROLES):
            if sizes[k]:
                self.disturb.counts[role] += roles == k
        exposure = np.abs(dvth)
        exposure[row, col] = 0.0  # the intended shift is not disturb
        self.disturb.cumulative_dvth += exposure
        return DisturbDelta(target=(row, col), kind=pulse.kind, dvth=dvth, roles=roles)

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
        t = self.cfg.temperature_ref if temperature is None else temperature
        cell = self.cell_at(row, col)
        if noisy:
            return readout_noisy(
                cell, READOUT_BIAS, t, samples, rng=self.measure_rng, cfg=self.cfg
            )
        return drain_current(cell, READOUT_BIAS, t, self.cfg)

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
