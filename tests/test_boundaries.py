"""The input contract of every public entry point, pinned by one table.

Each row of ``TABLE`` is an entry point (a ``flashvmm`` export, a few
module-level public functions and classes, or a CLI subcommand): how to
call it, the state it acts on, and its checked parameters with their
windows. ``test_boundary_contract`` feeds each parameter NaN, +-inf, a
bool, a string, None, a float where an integer is needed and values just
outside the window (a flag: numbers, strings and None), and expects a
ValueError whose message names the parameter, with any array the call
acts on left untouched. The CLI's own parser rejects a non-number with
exit 2 before any of this, so a CLI row is fed the values that parse,
and expects exit 1 with the JSON error line. Draws inside the window,
numpy scalars included, must return finite results.
"""

import argparse
import contextlib
import io
import json
import math
import tempfile
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flashvmm
from flashvmm import cli, config, tuning, vmm
from flashvmm.array import INITIAL_STATES, ArrayState
from flashvmm.cell import READOUT_BIAS, CellState, PulseKind, PulseSpec
from flashvmm.constants import T_25C, T_85C, T_MAX, T_MIN

CFG = flashvmm.DEFAULT_CONFIG
WALK_CFG = flashvmm.ModelConfig(retention=config.RetentionParams(random_walk=True))
LO, HI = CFG.current_window
FILES = tempfile.TemporaryDirectory()  # removed when the module is collected
TMP = Path(FILES.name)


@dataclass(frozen=True)
class Param:
    """A checked parameter: its window, and where in-window draws come from.

    ``kind`` is real, count, temperature, choice, index (a cell row or
    column: an IndexError outside the array), pair (each element a real),
    flag (a bool, numpy's too) or batch (an array of values, one per read:
    ``draw`` lists in-window examples). ``draw`` narrows the draws to
    where the call can succeed (feasibility and cross-field checks are not
    this table's business).
    """

    name: str
    kind: str = "real"
    lo: float = -math.inf
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False
    draw: tuple = None
    choices: tuple = ()
    field: str = None  # the name the message carries, when not ``name``
    extra: tuple = ()  # further rejected values
    optional: bool = False  # None is accepted (a default)

    @property
    def named(self):
        return self.field or self.name

    def rejected(self):
        """(value, expected exception) for every value outside the contract."""
        bad = [math.nan, math.inf, -math.inf, True, "1"] + ([] if self.optional else [None])
        if self.kind in ("count", "index"):
            bad += [float(self.lo + 1), np.float64(self.lo + 1)]
        if self.kind == "choice":
            bad = ["bogus", None, 1]
        elif self.kind == "flag":
            bad = ["no", "", None, 0, 1, 1.0, math.nan, np.int64(1)]
        elif self.kind in ("count", "index"):
            bad += [self.lo - 1] + ([self.hi + 1] if self.hi < math.inf else [])
        else:
            if self.lo > -math.inf:
                bad += [self.lo if self.open_lo else math.nextafter(self.lo, -math.inf), self.lo - 1.0]
            if self.hi < math.inf:
                bad += [self.hi if self.open_hi else math.nextafter(self.hi, math.inf), self.hi + 1.0]
        if self.kind == "pair":
            bad = [(v, self.draw[1]) for v in bad] + [(self.draw[0], v) for v in bad]
        error = IndexError if self.kind == "index" else ValueError
        out = [(v, error if isinstance(v, int) and type(v) is not bool else ValueError) for v in bad]
        return out + [(v, ValueError) for v in self.extra]

    def inside(self):
        """In-window values, numpy scalars among them."""
        if self.kind == "choice":
            return st.sampled_from(self.choices)
        if self.kind == "flag":
            return st.sampled_from((True, False, np.True_, np.False_))
        if self.kind == "batch":
            return st.sampled_from(self.draw)
        lo, hi = self.draw or (self.lo, self.hi)
        if self.kind in ("count", "index"):
            ints = st.integers(int(lo), int(hi))
            return st.one_of(ints, ints.map(np.int64))
        floats = st.floats(
            lo, hi, exclude_min=self.open_lo and lo == self.lo,
            exclude_max=self.open_hi and hi == self.hi,
        )
        if self.kind == "pair":  # an ordered pair, a few percent apart
            return st.tuples(floats, floats).map(sorted).filter(lambda p: p[1] > 1.05 * p[0]).map(tuple)
        return st.one_of(floats, floats.map(np.float64))


def temperature(name="temperature", **kw):
    return Param(name, "temperature", T_MIN, T_MAX, **kw)


def positive(name, **kw):
    return Param(name, lo=0.0, open_lo=True, **kw)


def count(name, lo=0, hi=math.inf, **kw):
    """An integer in [lo, hi]; in-window draws stay near ``lo`` unless ``draw`` is given."""
    return Param(name, "count", lo, hi, draw=kw.pop("draw", (lo, min(hi, lo + 5))), **kw)


def index(name, size):
    return Param(name, "index", 0, size - 1)


@dataclass(frozen=True)
class Entry:
    """One entry point: ``call(state, **kwargs)`` with ``defaults`` under
    the drawn or rejected parameter; ``out`` picks the numbers of the
    result that must be finite; ``state`` builds the array it acts on."""

    export: str
    label: str
    call: object
    params: tuple
    defaults: dict = None
    out: object = None
    state: object = None
    examples: int = 4


def center_array(rows=2, cols=4):
    return ArrayState.fresh(CFG, rows=rows, cols=cols, initial="center")


_PLAN = []


def plan():
    if not _PLAN:
        _PLAN.append(vmm.plan_differential(np.array([[0.5]]), (T_25C, T_85C), center_array(1, 4)))
    return _PLAN[0]


def cell():
    return flashvmm.fresh_cell(CFG, seed=3, v_th=CFG.calibration.v_th_center)


def read_state(state):
    return (state.v_th.copy(), state.rng_counts.copy(), state.measure_rng.bit_generator.state)


# -------------------------------------------------------------- the CLI

def write(name, text):
    path = TMP / name
    path.write_text(text)
    return str(path)


def run_cli(argv):
    """(exit code, the JSON error record or None, output CSV rows or None)."""
    err, out = io.StringIO(), TMP / "out.csv"
    out.unlink(missing_ok=True)
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    record = json.loads(err.getvalue()) if code else None
    rows = None
    if out.exists() and out.suffix == ".csv" and code == 0:
        rows = [line.split(",") for line in out.read_text().splitlines() if line[:1].isdigit()]
    return code, record, rows


def options(**kw):
    return [f"--{key.replace('_', '-')}={value}" for key, value in kw.items()]


def cli_multiply(**kw):
    argv = ["multiply", "--weights", write("w.csv", "0.5\n"), "--inputs", write("in.csv", "5e-8\n")]
    argv += ["--out", TMP / "out.csv", "--noisy"]
    if "temp_range" in kw:
        argv += ["--mode", "differential", "--temp-range", *kw.pop("temp_range")]
    return run_cli(argv + options(**kw))


def cli_tune(**kw):
    campaign = write("c.yaml", "rows: 1\ncols: 3\nbudget: 50\ntargets: {cells: [[0, 1, 1e-8]]}\n")
    return run_cli(["tune", "--campaign", campaign, "--results", TMP / "out.csv"] + options(**kw))


def cli_state_info(**kw):
    state = TMP / "state.txt"
    run_cli(["state", "init", "--rows=1", "--cols=3", "--out", state] + options(**kw))
    return run_cli(["state", "info", state] + options(**kw))


def cli_out(result):
    """The numbers of the CSV a CLI run wrote, once it exited 0."""
    assert result[0] == 0, result[1]
    return [float(x) for row in result[2] or [] for x in row]


# ------------------------------------------------------------ the table

VOLTS = {name: Param(name, lo=-12.0, hi=12.0) for name in ("v_wl", "v_cg", "v_d", "v_s", "v_eg")}
# a reversed or an empty range is refused too
PAIR_T = dict(kind="pair", lo=0.0, open_lo=True, draw=(T_MIN, T_MAX),
              extra=((T_85C, T_25C), (T_25C, T_25C)))
READ_PARAMS = (
    temperature(optional=True), count("samples", 1, draw=(1, 16)), Param("noisy", "flag")
)
# a batch of two input vectors for a two-row array, and the batches and
# per-vector temperatures multiply takes or refuses with it
BATCH = np.array([[1e-8, 5e-8], [2e-8, 3e-8]])
INPUTS = Param(
    "inputs", "batch", draw=(BATCH, [[LO, HI]], [[1e-8, 5e-8]] * 3),
    extra=(np.empty((0, 2)), np.full((1, 2, 2), 1e-8), [[1e-8, math.nan]], [[1e-8, HI * 2]],
           [[1e-8, 5e-8, 1e-8]], [1e-8]),
)
TEMPERATURES = Param(
    "temperature", "batch", optional=True,
    draw=([T_MIN, T_MAX], (T_25C, T_85C), np.array([300.0, 310.0]), T_25C),
    extra=([], [T_25C] * 3, [T_25C], [T_25C, math.nan], [T_25C, T_MAX + 1.0],
           np.array([T_MIN - 1.0, T_25C]), [[T_25C, T_25C]], [T_25C, "300"], [T_25C, True]),
)
BATCH_READ = dict(inputs=BATCH, temperature=None, samples=8, noisy=True)

TABLE = [
    # cell
    Entry("BiasCondition", "BiasCondition", lambda s, **kw: flashvmm.BiasCondition(**kw),
          tuple(VOLTS.values()), dict(zip(VOLTS, astuple(READOUT_BIAS))), astuple),
    Entry("PulseSpec", "PulseSpec", lambda s, **kw: PulseSpec(**kw),
          (Param("kind", "choice", choices=tuple(PulseKind), extra=("program",)),
           Param("amplitude", lo=0.0, hi=12.0, open_lo=True),
           Param("duration", lo=0.0, draw=(0.0, 1e-3))),
          dict(kind=PulseKind.PROGRAM, amplitude=4.5, duration=1e-5),
          lambda p: (p.amplitude, p.duration)),
    Entry("CellState", "CellState", lambda s, **kw: CellState(**kw),
          (Param("v_th", draw=(-10.0, 10.0)), count("rng_seed"), count("rng_count")),
          dict(v_th=4.0, rng_seed=1, rng_count=0), lambda c: c.v_th),
    Entry("fresh_cell", "fresh_cell", lambda s, **kw: flashvmm.fresh_cell(CFG, **kw),
          (count("seed", draw=(0, 2**40)), Param("v_th", draw=(-10.0, 10.0), optional=True)),
          dict(seed=0, v_th=None), lambda c: c.v_th),
    Entry("drain_current", "drain_current",
          lambda s, **kw: flashvmm.drain_current(cell(), READOUT_BIAS, cfg=CFG, **kw),
          (temperature(),), dict(temperature=T_25C)),
    Entry("readout", "readout",
          lambda s, **kw: flashvmm.readout(bias=READOUT_BIAS, cfg=CFG, rng=np.random.default_rng(0), **kw),
          (Param("v_th", draw=(0.0, 10.0)), temperature(), count("samples", 1, draw=(1, 16))),
          dict(v_th=CFG.calibration.v_th_center, temperature=T_25C, samples=8)),
    Entry("retention_hold", "retention_hold",
          lambda s, **kw: flashvmm.retention_hold(cell(), cfg=WALK_CFG, **kw),
          (Param("duration", lo=0.0, draw=(0.0, 1e7)), temperature()),
          dict(duration=3600.0, temperature=T_85C), lambda c: c.v_th),
    Entry("standard_current", "standard_current",
          lambda s, **kw: flashvmm.standard_current(cfg=CFG, **kw),
          (Param("v_th", draw=(0.0, 10.0)),), dict(v_th=4.0)),
    Entry("vth_for_standard_current", "vth_for_standard_current",
          lambda s, **kw: flashvmm.vth_for_standard_current(cfg=CFG, **kw),
          (Param("current", lo=LO, hi=HI),), dict(current=1e-8)),
    # config
    Entry("ModelConfig", "ModelConfig", lambda s, **kw: flashvmm.ModelConfig(**kw),
          (count("seed", draw=(0, 2**40)),
           positive("i0", draw=(1e-3, 0.1)),
           Param("n_slope", lo=5.0, hi=5.1, extra=((5.1, 5.0), ("5.0", "5.1"))),
           positive("i_sat", draw=(1e-6, 1e-3)),
           Param("wl_on_threshold", draw=(-12.0, 12.0)),
           temperature("temperature_ref"),
           Param("current_window", kind="pair", lo=0.0, open_lo=True, draw=(1e-11, 1e-6),
                 extra=((1e-10, 1e-8, 1e-6), ("a", 1e-6))),
           count("traversal_pulses", 20, 60)),
          {}, lambda c: astuple(c.calibration)),
    Entry("NoiseParams", "NoiseParams", lambda s, **kw: flashvmm.NoiseParams(**kw),
          (Param("sigma_low", lo=0.0, hi=0.1, draw=(0.0095, 0.1)),
           Param("sigma_high", lo=0.0, hi=0.1, draw=(0.0, 0.04)),
           positive("i_low_anchor", draw=(1e-13, 1e-9)),
           positive("i_high_anchor", draw=(1e-9, 1.0))),
          {}, lambda n: n.sigma_at(1e-9)),
    Entry("config.PulseDefaults", "PulseDefaults", lambda s, **kw: config.PulseDefaults(**kw),
          tuple(positive(n, draw=(1e-7, 12.0)) for n in
                ("program_amplitude", "program_duration", "erase_amplitude", "erase_duration"))
          + (Param("variability_sigma", lo=0.0, draw=(0.0, 1.0)),),
          {}, astuple),
    Entry("config.InhibitionParams", "InhibitionParams", lambda s, **kw: config.InhibitionParams(**kw),
          (Param("floor", lo=0.0, hi=1.0, open_lo=True, open_hi=True),)
          + tuple(Param(f.name, draw=(-12.0, 12.0)) for f in fields(config.InhibitionParams)
                  if f.name != "floor"),
          {}, astuple),
    Entry("config.RetentionParams", "RetentionParams", lambda s, **kw: config.RetentionParams(**kw),
          (Param("sigma_scale", lo=0.0, draw=(0.0, 10.0)),), {}, lambda r: r.sigma_scale),
    Entry("load_config", "load_config",
          lambda s, **kw: flashvmm.load_config(write("cfg.yaml", ""), **kw),
          (count("seed", draw=(0, 2**40), optional=True),), {}, lambda c: c.n),
    # tuning
    Entry("TuneTarget", "TuneTarget", lambda s, **kw: flashvmm.TuneTarget(**kw),
          (count("row"), count("col"), positive("target_current", draw=(LO, HI)),
           Param("precision", lo=0.0, hi=0.5, open_lo=True)),
          dict(row=0, col=1, target_current=1e-8, precision=0.05), lambda t: t.target_current),
    Entry("tune_cell", "tune_cell",
          lambda s, budget, **kw: flashvmm.tune_cell(
              s, flashvmm.TuneTarget(0, 1, precision=0.05, **kw), budget),
          (count("budget", 1, draw=(1, 4)), Param("target_current", lo=LO, hi=HI)),
          dict(budget=4, target_current=1e-8), lambda r: r.final_current, center_array),
    Entry("tune_array", "tune_array",
          lambda s, **kw: flashvmm.tune_array(s, [flashvmm.TuneTarget(0, 1, 1e-8, 0.05)], **kw),
          (count("budget", 1, draw=(1, 4)),), dict(budget=4), lambda r: r[1]["rel_error_max"],
          center_array),
    Entry("tune_array", "tune_array with no targets", lambda s, **kw: flashvmm.tune_array(s, [], **kw),
          (count("budget", 1),), dict(budget=4), lambda r: r[1]["rel_error_max"], center_array),
    Entry("tuning.uniform_targets", "uniform_targets",
          lambda s, **kw: tuning.uniform_targets(s, precision=0.05, **kw),
          (Param("current", lo=LO, hi=HI),), dict(current=1e-8),
          lambda ts: [t.target_current for t in ts], center_array),
    Entry("tuning.ramp_targets", "ramp_targets",
          lambda s, **kw: tuning.ramp_targets(s, precision=0.05, **kw),
          (Param("lo", lo=LO, hi=HI), Param("hi", lo=LO, hi=HI)), dict(lo=1e-9, hi=1e-7),
          lambda ts: [t.target_current for t in ts], center_array),
    Entry("tuning.TuningCampaign", "TuningCampaign", lambda s, **kw: tuning.TuningCampaign(**kw),
          (count("rows", 1, field="campaign rows"), count("cols", 1, field="campaign cols"),
           count("budget", 1, field="campaign budget"),
           Param("precision", lo=0.0, hi=0.5, open_lo=True, field="campaign precision"),
           count("seed", field="campaign seed", optional=True),
           Param("initial", "choice", choices=INITIAL_STATES, field="campaign initial")),
          {}, lambda c: c.precision),
    # array
    Entry("ArrayState", "ArrayState.fresh", lambda s, **kw: ArrayState.fresh(CFG, **kw),
          (count("rows", 1), count("cols", 1), Param("initial", "choice", choices=INITIAL_STATES)),
          dict(rows=2, cols=3), lambda a: a.v_th),
    Entry("ArrayState", "ArrayState.read_cell", lambda s, **kw: s.read_cell(**kw),
          (index("row", 2), index("col", 4)) + READ_PARAMS,
          dict(row=0, col=1, temperature=None, samples=8, noisy=True), None, center_array),
    Entry("ArrayState", "ArrayState.pulse_cell",
          lambda s, **kw: s.pulse_cell(pulse=PulseSpec.program(CFG), **kw),
          (index("row", 2), index("col", 4)), dict(row=0, col=1), None, center_array),
    Entry("ArrayState", "ArrayState.cell_at", lambda s, **kw: s.cell_at(**kw),
          (index("row", 2), index("col", 4)), dict(row=0, col=1), lambda c: c.v_th, center_array),
    Entry("ArrayState", "ArrayState.set_cell_current",
          lambda s, **kw: s.set_cell_current(**kw) or s.v_th,
          (index("row", 2), index("col", 4), Param("current", lo=LO, hi=HI)),
          dict(row=0, col=1, current=1e-8), None, center_array),
    # vmm
    Entry("weight_of", "weight_of", lambda s, **kw: flashvmm.weight_of(cell(), cell(), cfg=CFG, **kw),
          (temperature(),), dict(temperature=T_25C)),
    Entry("multiply", "multiply", lambda s, **kw: flashvmm.multiply(s, [1e-8, 5e-8], **kw),
          READ_PARAMS, dict(temperature=None, samples=8, noisy=True), None, center_array),
    Entry("multiply", "multiply batch", lambda s, **kw: flashvmm.multiply(s, **kw),
          (INPUTS, TEMPERATURES), BATCH_READ, None, center_array),
    Entry("differential_multiply", "differential_multiply",
          lambda s, **kw: flashvmm.differential_multiply(s, plan(), [5e-8], **kw),
          READ_PARAMS, dict(temperature=None, samples=8, noisy=True), None,
          lambda: center_array(1, 4)),
    Entry("differential_multiply", "differential_multiply batch",
          lambda s, **kw: flashvmm.differential_multiply(s, plan(), **kw),
          (replace(INPUTS, draw=([[5e-8]] * 2, [[LO]]), extra=(np.empty((0, 1)), [[[5e-8]]])),
           replace(TEMPERATURES, extra=TEMPERATURES.extra[:3])),
          dict(BATCH_READ, inputs=[[5e-8], [6e-8]]), None, lambda: center_array(1, 4)),
    Entry("optimize_bias_weight", "optimize_bias_weight",
          lambda s, **kw: flashvmm.optimize_bias_weight(**kw),
          (Param("w", lo=0.0, hi=1.0, draw=(1e-3, 0.9)), Param("temp_range", **PAIR_T),
           # a floor lost to rounding against w/2 would leave w_minus = 0
           positive("w_floor", draw=(1e-3, 0.05), extra=(1e-300, 1e-17))),
          dict(w=0.5, temp_range=(T_25C, T_85C), w_floor=0.01)),
    Entry("optimize_bias_weight", "optimize_bias_weight at w = 0",
          lambda s, **kw: flashvmm.optimize_bias_weight(0.0, **kw),
          (Param("temp_range", **PAIR_T), positive("w_floor", draw=(1e-3, 0.05))),
          dict(temp_range=(T_25C, T_85C), w_floor=0.01)),
    Entry("plan_differential", "plan_differential",
          lambda s, **kw: flashvmm.plan_differential(np.array([[0.5]]), array=s, **kw),
          (Param("temp_range", **PAIR_T),), dict(temp_range=(T_25C, T_85C)), lambda p: p.w_b,
          lambda: center_array(1, 4)),
    Entry("vmm.differential_drift", "differential_drift",
          lambda s, **kw: vmm.differential_drift(**kw),
          (positive("w_plus", draw=(0.3, 1.0)), positive("w_minus", draw=(1e-3, 0.5)),
           Param("temp_range", **PAIR_T)),
          dict(w_plus=0.6, w_minus=0.2, temp_range=(T_25C, T_85C))),
    Entry("vmm.golden_section_min", "golden_section_min",
          lambda s, **kw: vmm.golden_section_min(lambda x: (x - 0.3) ** 2, **kw),
          (Param("lo", draw=(-1.0, 1.0), extra=(1.5, 2.0)),  # above hi: a reversed bracket
           Param("hi", draw=(0.0, 2.0), extra=(-0.5, math.nextafter(0.0, -1.0))),
           positive("tol", draw=(1e-9, 0.1))),
          dict(lo=0.0, hi=1.0, tol=1e-6)),
    # the CLI: every argument is a string; the field is the option's dest
    Entry("cli tune", "flashvmm tune", lambda s, **kw: cli_tune(**kw),
          (count("seed", draw=(0, 2**31)),), {}, cli_out, examples=2),
    Entry("cli multiply", "flashvmm multiply", lambda s, **kw: cli_multiply(**kw),
          (count("seed", draw=(0, 2**31)), temperature(), count("samples", 1, draw=(1, 16)),
           Param("precision", lo=0.0, hi=0.5, open_lo=True, draw=(0.01, 0.5)),
           count("budget", 1, draw=(200, 200)), Param("temp_range", **PAIR_T)),
          {}, cli_out, examples=2),
    Entry("cli experiment", "flashvmm experiment",
          lambda s, **kw: run_cli(["experiment", "fig3a", "--out", TMP] + options(**kw)),
          (count("seed", draw=(0, 2**31)),), {}, cli_out, examples=2),
    Entry("cli state init", "flashvmm state init",
          lambda s, **kw: run_cli(["state", "init", "--out", TMP / "init.txt"] + options(**kw)),
          (count("seed", draw=(0, 2**31)), count("rows", 1), count("cols", 1)), {}, cli_out, examples=2),
    Entry("cli state info", "flashvmm state info", lambda s, **kw: cli_state_info(**kw),
          (count("seed", draw=(0, 2**31)),), {}, cli_out, examples=2),
]

# exports and subcommands whose arguments are objects, arrays, paths or
# plain records: no scalar of theirs is checked at the boundary
NO_CHECKED_ARGUMENT = {
    "apply_pulse",  # a CellState, a PulseSpec and a BiasCondition, each checked when built
    "CalibrationError",
    "DisturbLog",
    "PulseKind",
    "TuneResult",
    "WeightMatrix",  # an array: its shape and (0, 1] values are checked
    "DifferentialWeightPlan",
    "PlanInfeasibleError",
    "config_hash",
    "save_config",
    "cli calibrate",  # paths only
}


def is_cli(entry):
    return entry.export.startswith("cli ")


def as_arg(value):
    """A number as the CLI takes it."""
    return str(int(value)) if isinstance(value, (int, np.integer)) else repr(float(value))


def parses(param, value):
    """Whether the CLI's parser takes ``value`` for ``param`` (else it exits 2)."""
    if param.kind == "pair":  # two separate words: no sign the parser reads as an option
        return all(type(v) is float and not as_arg(v).startswith("-") for v in value)
    if param.kind == "count":
        return type(value) is int
    return type(value) is float


def call(entry, state, param, value):
    if is_cli(entry):
        value = [as_arg(v) for v in value] if param.kind == "pair" else as_arg(value)
    return entry.call(state, **{**(entry.defaults or {}), param.name: value})


def finite(result):
    values = np.asarray(result, dtype=float)
    return values.size == 0 or bool(np.all(np.isfinite(values)))


CASES = [pytest.param(e, p, id=f"{e.label}-{p.name}") for e in TABLE for p in e.params]


@pytest.mark.parametrize("entry, param", CASES)
def test_boundary_contract(entry, param):
    for value, error in param.rejected():
        if is_cli(entry):
            if not parses(param, value):
                continue
            code, record, _ = call(entry, None, param, value)
            assert code == 1, (value, record)
            assert record["error"] == "ValueError" and param.named in record["message"], (value, record)
            continue
        state = entry.state() if entry.state else None
        before = read_state(state) if state is not None else None
        with pytest.raises(error) as err:
            call(entry, state, param, value)
        if error is ValueError:
            assert param.named in str(err.value), (value, str(err.value))
        if state is not None:
            after = read_state(state)
            assert np.array_equal(after[0], before[0]) and np.array_equal(after[1], before[1])
            assert after[2] == before[2]

    @settings(derandomize=True, max_examples=entry.examples, deadline=None)
    @given(value=param.inside())
    def inside(value):
        result = call(entry, entry.state() if entry.state else None, param, value)
        assert finite((entry.out or (lambda r: r))(result))

    inside()


def subcommands(parser, prefix="cli"):
    names = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                deeper = subcommands(sub, f"{prefix} {name}")
                names |= deeper or {f"{prefix} {name}"}
    return names


def test_every_entry_point_has_a_row():
    exports = {
        name
        for name in dir(flashvmm)
        if not name.startswith("_") and callable(getattr(flashvmm, name))
    }
    commands = subcommands(cli.build_parser())
    covered = {e.export for e in TABLE} | NO_CHECKED_ARGUMENT
    assert not (exports | commands) - covered, "entry points missing from the boundary table"
    assert NO_CHECKED_ARGUMENT <= exports | commands, "stale names in NO_CHECKED_ARGUMENT"


def test_sigma_at_rejects_negative_nan_and_infinite_current():
    # the read-noise envelope names a current it cannot place on its log
    # scale, scalar or array; 0.0 still reads the low-current anchor's
    # sigma, without a divide-by-zero warning
    noise = CFG.noise
    for bad in (-1e-9, -5e-324, math.nan, math.inf, -math.inf):
        for current in (bad, np.float64(bad), np.array(bad), np.array([1e-9, bad])):
            with pytest.raises(ValueError, match="current"):
                noise.sigma_at(current)
    assert noise.sigma_at(0.0) == noise.sigma_at(-0.0) == noise.sigma_low
    sigmas = noise.sigma_at(np.array([0.0, -0.0, 1e-9]))
    assert sigmas.tolist() == [noise.sigma_low, noise.sigma_low, noise.sigma_at(1e-9)]
    # a float32 zero, which no positive floor of float64 can lift, reads sigma_low too
    sigmas = noise.sigma_at(np.array([0.0, 1e-9], dtype=np.float32))
    assert sigmas.tolist() == [noise.sigma_low, noise.sigma_at(np.array([1e-9], dtype=np.float32))[0]]
    assert noise.sigma_at(np.float32(0.0)) == noise.sigma_low
