"""Fast kernels pinned bit for bit to their scalar oracles.

``ArrayState.pulse_cell`` applies a pulse per role class; the oracle runs
``pulse_shift`` on every cell under the ``bias_table`` entry of its
geometric role, and keeps its own per-role pulse tally.
``stream_normals`` draws many (seed, count) normals at once; the oracle
is one ``default_rng((seed, count))`` per pair.
``differential_drift_grid`` evaluates many bias weights at once; the
oracle is the scalar drift formula evaluated one weight at a time.
Noisy ``multiply`` is pinned to a per-row restatement of its formula.
The float branches of ``sigma_at`` and ``subthreshold_current`` are
pinned to ``np.interp`` and to the one-element array path.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flashvmm
import flashvmm.array as array_mod
import flashvmm.cell as cell_mod
import flashvmm.tuning as tuning_mod
import flashvmm.vmm as vmm_mod
from flashvmm.array import DRAW_AHEAD, ROLES, ArrayState, bias_table
from flashvmm.cell import (
    SF_DRAW_MIN,
    PulseKind,
    PulseSpec,
    pulse_shift,
    stream_normals,
    subthreshold_current,
)
from flashvmm.config import DEFAULT_CONFIG, InhibitionParams, ModelConfig, calibrate
from flashvmm.constants import K_B, Q_E, T_25C, T_85C, T_MAX, T_MIN, V_CG_READ, thermal_voltage
from flashvmm.vmm import (
    differential_drift,
    differential_drift_grid,
    golden_section_min,
    multiply,
    optimize_bias_weight,
    reference_current,
)

FLOORS = (1e-4, 1e-3, 1e-2)
SIGMAS = (0.3, 0.0)
CONFIGS = {
    (floor, sigma): calibrate(
        ModelConfig(
            inhibition=InhibitionParams(floor=floor),
            pulse=replace(ModelConfig().pulse, variability_sigma=sigma),
        )
    )
    for floor in FLOORS
    for sigma in SIGMAS
}
SHAPES = [(1, 1), (1, 5), (4, 1), (3, 4)]
TOPOLOGIES = ["modified", "original"]


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def geometric_role(r, c, row, col):
    if r == row:
        return "selected" if c == col else "row_half"
    return "col_half" if c == col else "unselected"


def new_tally(array):
    """Per-role pulse counts of every cell, as the oracle keeps them."""
    return {role: np.zeros((array.rows, array.cols), dtype=np.int64) for role in ROLES}


def oracle_pulse(array, row, col, pulse, tally=None):
    """Reference kernel: every cell through ``pulse_shift``, one by one."""
    array._check_target(row, col)
    table = bias_table(pulse.kind, array.topology, array.cfg.inhibition)
    dvth = np.zeros((array.rows, array.cols))
    roles = np.zeros((array.rows, array.cols), dtype=np.int64)
    for r in range(array.rows):
        for c in range(array.cols):
            role = geometric_role(r, c, row, col)
            roles[r, c] = ROLES.index(role)
            if pulse.duration == 0.0:
                continue
            new_vth, count, delta = pulse_shift(
                float(array.v_th[r, c]),
                int(array.rng_seeds[r, c]),
                int(array.rng_counts[r, c]),
                pulse,
                table[roles[r, c]][0],
                array.cfg,
            )
            array.v_th[r, c] = new_vth
            array.rng_counts[r, c] = count
            dvth[r, c] = delta
            if tally is not None:
                tally[role][r, c] += 1
            if role != "selected":
                array.disturb.cumulative_dvth[r, c] += abs(delta)
    return dvth, roles


def assert_same_state(fast, slow, tally):
    assert_bits_equal(fast.v_th, slow.v_th)
    assert_bits_equal(fast.rng_counts, slow.rng_counts)
    assert_bits_equal(fast.disturb.cumulative_dvth, slow.disturb.cumulative_dvth)
    assert sorted(fast.disturb.counts) == sorted(ROLES)
    for role in ROLES:
        assert_bits_equal(fast.disturb.counts[role], tally[role])


@st.composite
def pulse_runs(draw, rows, cols):
    """(config, initial v_th grid, list of pulses as (row, col, PulseSpec))."""
    cfg = CONFIGS[(draw(st.sampled_from(FLOORS)), draw(st.sampled_from(SIGMAS)))]
    cal = cfg.calibration
    v_th = draw(
        st.lists(
            st.floats(cal.v_th_min, cal.v_th_max),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    pulses = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(list(PulseKind)))
        scale = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(1.0 / 64.0, 2.0)))
        make = PulseSpec.program if kind is PulseKind.PROGRAM else PulseSpec.erase
        nominal = make(cfg)
        pulse = make(cfg, duration=nominal.duration * scale)
        pulses.append((draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)), pulse))
    return cfg, np.array(v_th).reshape(rows, cols), pulses


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_pulse_cell_matches_scalar_oracle(shape, topology, data):
    rows, cols = shape
    cfg, v_th, pulses = data.draw(pulse_runs(rows, cols))
    fast = ArrayState.fresh(cfg, rows=rows, cols=cols, topology=topology)
    slow = ArrayState.fresh(cfg, rows=rows, cols=cols, topology=topology)
    fast.v_th[...] = v_th
    slow.v_th[...] = v_th
    tally = new_tally(slow)
    for row, col, pulse in pulses:
        delta = fast.pulse_cell(row, col, pulse)
        dvth, roles = oracle_pulse(slow, row, col, pulse, tally)
        assert delta.target == (row, col) and delta.kind is pulse.kind
        assert_bits_equal(delta.dvth, dvth)
        assert_bits_equal(delta.roles, roles)
        assert_same_state(fast, slow, tally)
    # every applied pulse exposes every cell exactly once, under one role
    applied = sum(1 for _, _, p in pulses if p.duration > 0.0)
    exposures = sum(fast.disturb.counts[role] for role in ROLES)
    assert np.all(exposures == applied)


def test_draw_threshold_classes():
    # original routing: erase reaches doubly-unselected cells at the floor,
    # so they draw; modified routing at floor 1e-3 puts that class's erase
    # select factor at the draw threshold itself
    original = bias_table(PulseKind.ERASE, "original", DEFAULT_CONFIG.inhibition)
    assert original[ROLES.index("unselected")][1] >= SF_DRAW_MIN
    modified = bias_table(PulseKind.ERASE, "modified", CONFIGS[(1e-3, 0.3)].inhibition)
    assert modified[ROLES.index("unselected")][1] == pytest.approx(SF_DRAW_MIN, rel=1e-9)

    array = ArrayState.fresh(DEFAULT_CONFIG, rows=3, cols=4, topology="original")
    array.pulse_cell(1, 2, PulseSpec.erase(DEFAULT_CONFIG))
    assert np.all(array.rng_counts == 1)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_benchmark_contract(monkeypatch):
    # bench/run.py wraps array.pulse_shift in its tracer, and the tune-ramp
    # digest hashes v_th, rng_counts and every disturb-log array below
    assert array_mod.pulse_shift is pulse_shift
    array = ArrayState.fresh(DEFAULT_CONFIG, rows=3, cols=4, initial="center")
    array.pulse_cell(1, 2, PulseSpec.program(DEFAULT_CONFIG))
    counts = array.disturb.counts
    assert sorted(counts) == sorted(ROLES)
    for role in ROLES:
        assert isinstance(counts[role], np.ndarray)
        assert counts[role].dtype == np.int64 and counts[role].shape == (3, 4)
    cumulative = array.disturb.cumulative_dvth
    assert cumulative.dtype == np.float64 and cumulative.shape == (3, 4)

    # diff-program and the tracer: the traced entry points are reached
    # through their module attributes, array_cols is a list, and multiply
    # takes noisy= and samples= as keywords
    planned = count_calls(monkeypatch, vmm_mod, "optimize_bias_weight")
    tuned = count_calls(monkeypatch, tuning_mod, "tune_cell")
    multiplied = count_calls(monkeypatch, vmm_mod, "multiply")
    array = ArrayState.fresh(DEFAULT_CONFIG, rows=1, cols=4)
    assert isinstance(array.array_cols, list) and len(array.array_cols) == 2
    plan = vmm_mod.plan_differential(np.array([[0.4]]), (T_25C, T_85C), array)
    assert len(planned) == 1
    targets = plan.tune_targets(array, 0.05)
    tuning_mod.tune_array(array, targets, 200)
    assert len(tuned) == len(targets) == 3
    vmm_mod.differential_multiply(array, plan, [1e-7], noisy=True, samples=4)
    assert multiplied == [{"temperature": None, "noisy": True, "samples": 4, "rng": None}]

    # the workloads reach the modules as package attributes: fv.constants
    # for the diff-program temperatures, fv.cell, fv.array, fv.tuning, fv.vmm
    for name in ("array", "cell", "constants", "tuning", "vmm"):
        assert getattr(flashvmm, name) is sys.modules[f"flashvmm.{name}"]
    assert (flashvmm.constants.T_25C, flashvmm.constants.T_85C) == (T_25C, T_85C)

    # mvm-noisy's dense oracle: the three-argument weight_of on cells of a
    # config that differs from DEFAULT_CONFIG only in its seed
    cfg = replace(DEFAULT_CONFIG, seed=7)
    array = ArrayState.fresh(cfg, rows=2, cols=4)
    i_ref = vmm_mod.reference_current(cfg)
    for r in range(2):
        pc = array.peripheral_col_for_row(r)
        array.set_cell_current(r, pc, i_ref)
        for c in array.array_cols:
            array.set_cell_current(r, c, 0.3 * i_ref)
            w = vmm_mod.weight_of(array.cell_at(r, c), array.cell_at(r, pc), cfg.temperature_ref)
            ut = cfg.n * thermal_voltage(cfg.temperature_ref)
            assert w == math.exp((array.v_th[r, pc] - array.v_th[r, c]) / ut)
            assert w == pytest.approx(0.3, rel=1e-12)

    # tune-ramp's check: the noiseless standard-bias current of a v_th
    v = float(array.v_th[0, 1])
    current = cell_mod.standard_current(v, cfg)
    assert isinstance(current, float)
    t = cfg.temperature_ref
    assert current == subthreshold_current(V_CG_READ, v, cfg.n, cfg.i0, t, cfg.i_sat)


# ------------------------------------------------------ variability stream

STREAM_VALUES = st.one_of(
    st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1)
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(STREAM_VALUES, STREAM_VALUES), max_size=12))
def test_stream_normals_matches_default_rng(pairs):
    seeds = np.array([s for s, _ in pairs], dtype=np.int64)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    expected = np.array([np.random.default_rng((s, c)).standard_normal() for s, c in pairs])
    assert_bits_equal(stream_normals(seeds, counts), expected)


def test_stream_normals_layouts_and_ziggurat_fallback():
    # every entropy layout, and draws whose ziggurat rejects its first output
    def consumed(seed, count):
        bitgen = np.random.PCG64(np.random.SeedSequence((seed, count)))
        once = np.random.PCG64(np.random.SeedSequence((seed, count)))
        np.random.Generator(bitgen).standard_normal()
        once.random_raw()
        return bitgen.state != once.state

    fallback = [(12345, c) for c in range(1500) if consumed(12345, c)]
    assert fallback  # about 1 in 150 draws
    pairs = fallback + [
        (0, 0), (0, 1), (1, 0), (2**32 - 1, 2**32 - 1), (2**32, 0), (0, 2**32),
        (2**63 - 1, 2**63 - 1), (2**40 + 3, 7), (9, 2**40 + 3),
    ]
    seeds, counts = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    expected = np.array([np.random.default_rng(p).standard_normal() for p in pairs])
    assert_bits_equal(stream_normals(seeds, counts), expected)
    with pytest.raises(ValueError, match=">= 0"):
        stream_normals(np.array([1, -1]), np.array([0, 0]))
    with pytest.raises(ValueError, match="same length"):
        stream_normals(np.array([1, 2]), np.array([0]))
    with pytest.raises(ValueError, match="integer"):
        stream_normals(np.array([1.5]), np.array([0]))


WIDE_VALUES = st.one_of(STREAM_VALUES, st.integers(2**63, 2**64 - 1))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(WIDE_VALUES, WIDE_VALUES), min_size=1, max_size=40))
def test_stream_normals_matches_default_rng_up_to_2_64(pairs):
    # uint64 input, seeds and counts up to 2**64 - 1
    seeds = np.array([s for s, _ in pairs], dtype=np.uint64)
    counts = np.array([c for _, c in pairs], dtype=np.uint64)
    expected = np.array([np.random.default_rng((s, c)).standard_normal() for s, c in pairs])
    assert_bits_equal(stream_normals(seeds, counts), expected)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(pairs=st.lists(st.tuples(WIDE_VALUES, WIDE_VALUES), min_size=1, max_size=12))
def test_stream_normals_forced_fallback(pairs):
    # with every ki at 0 the fast path accepts nothing: each pair takes
    # the scalar fallback on the words the array hash computed
    seeds = np.array([s for s, _ in pairs], dtype=np.uint64)
    counts = np.array([c for _, c in pairs], dtype=np.uint64)
    expected = np.array([np.random.default_rng((s, c)).standard_normal() for s, c in pairs])
    _, wi = cell_mod._ziggurat()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cell_mod, "_ZIGGURAT", (np.zeros(256, dtype=np.uint64), wi))
        assert_bits_equal(stream_normals(seeds, counts), expected)


def test_ziggurat_tables_reproduce_every_index():
    # feed NumPy's ziggurat chosen first outputs: a PCG64 with increment 1
    # at state (r - 1) / M yields r, idx in the low byte, the sign in bit 8
    # and rabs from bit 9; the fast path leaves the state one step on.
    # The array fast path must accept and return what NumPy's does.
    ki, _ = cell_mod._ziggurat()
    inv = pow(cell_mod._PCG_MULT, -1, 1 << 128)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)

    def draw(idx, sign, rabs, top):
        r = top << 61 | rabs << 9 | sign << 8 | idx
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": (r - 1) * inv % (1 << 128), "inc": 1},
            "has_uint32": 0,
            "uinteger": 0,
        }
        x = gen.standard_normal()
        return bitgen.state["state"]["state"] == r, x

    assert ki[1] == 0  # NumPy's table: idx 1 never takes the fast path
    pick = np.random.default_rng(7)
    words, expected = [], []
    for idx in range(256):
        k = int(ki[idx])
        assert k < 2**52
        for rabs in {0, min(1, k), k // 2, int(pick.integers(0, k + 1)), k, 2**52 - 1}:
            for sign, top in ((0, 0), (1, 0), (0, 7), (1, 5)):  # bits 61-63 unused
                fast, x = draw(idx, sign, rabs, top)
                assert fast == (rabs < k)
                words.append(top << 61 | rabs << 9 | sign << 8 | idx)
                expected.append(x if fast else None)
    out, rejected = cell_mod._ziggurat_fast(np.array(words, dtype=np.uint64))
    assert rejected.tolist() == [i for i, x in enumerate(expected) if x is None]
    accepted = [i for i, x in enumerate(expected) if x is not None]
    assert_bits_equal(out[accepted], np.array([expected[i] for i in accepted]))


# ------------------------------------------------------------- draw-ahead

def block_width(rows, cols):
    """Normals drawn ahead per cell: about 256 pairs per refill of a
    pulse's rows + cols - 1 drawn cells, and at least DRAW_AHEAD."""
    return max(DRAW_AHEAD, math.ceil(256 / (rows + cols - 1)))


@pytest.mark.parametrize(
    "shape, width",
    [((1, 4), 64), ((5, 7), 24), ((32, 34), 8), ((64, 66), 8)],
    ids=["1x4", "5x7", "32x34", "64x66"],
)
def test_draw_ahead_width_follows_drawn_cells_per_pulse(shape, width):
    array = ArrayState.fresh(DEFAULT_CONFIG, rows=shape[0], cols=shape[1], initial="center")
    assert array._ahead is None  # made by the first drawing pulse
    array.pulse_cell(0, 1, PulseSpec.program(DEFAULT_CONFIG))
    assert array._ahead.shape[1] == block_width(*shape) == width


def pulse_sequence(cfg, targets):
    """Alternating program/erase pulses at half the nominal duration."""
    pulses = []
    for k, (row, col) in enumerate(targets):
        make = PulseSpec.program if k % 2 == 0 else PulseSpec.erase
        pulses.append((row, col, make(cfg, duration=make(cfg).duration / 2)))
    return pulses


def run_both(fast, slow, pulses, tally=None):
    for row, col, pulse in pulses:
        delta = fast.pulse_cell(row, col, pulse)
        dvth, _ = oracle_pulse(slow, row, col, pulse, tally)
        assert_bits_equal(delta.dvth, dvth)
        assert_bits_equal(fast.v_th, slow.v_th)
        assert_bits_equal(fast.rng_counts, slow.rng_counts)


def test_one_stream_call_per_pulse(monkeypatch):
    # with the default config the selected cell and both half-selected
    # lines draw, one normal each, refilled in at most one batched call
    calls = []

    def counting(seeds, counts):
        calls.append(len(seeds))
        return stream_normals(seeds, counts)

    monkeypatch.setattr(array_mod, "stream_normals", counting)
    array = ArrayState.fresh(DEFAULT_CONFIG, rows=5, cols=7, initial="center")
    width = block_width(5, 7)
    targets = [(2, 3)] * (width + 2) + [(0, 0), (4, 6), (2, 0)]
    per_pulse = []
    for row, col, pulse in pulse_sequence(DEFAULT_CONFIG, targets):
        before = array.rng_counts.copy()
        calls.clear()
        array.pulse_cell(row, col, pulse)
        per_pulse.append(len(calls))
        assert np.sum(array.rng_counts - before) == array.rows + array.cols - 1
    assert max(per_pulse) == 1
    # one block per drawn cell serves `width` pulses on one target
    assert array._ahead.shape[1] == width
    assert per_pulse[: width + 1] == [1] + [0] * (width - 1) + [1]


def test_new_target_refills_all_drawn_cells(monkeypatch):
    # after pulses on (2, 3) and (4, 5), column 5 and cell (1, 3) hold
    # partly used blocks and the rest of row 1 none; the first pulse on
    # (1, 5) refills its whole drawn set (row 1 and column 5), so the
    # next width - 1 pulses need no stream_normals call
    calls = []

    def counting(seeds, counts):
        calls.append(len(seeds))
        return stream_normals(seeds, counts)

    monkeypatch.setattr(array_mod, "stream_normals", counting)
    cfg = DEFAULT_CONFIG
    fast = ArrayState.fresh(cfg, rows=5, cols=7, initial="center")
    slow = ArrayState.fresh(cfg, rows=5, cols=7, initial="center")
    tally = new_tally(slow)
    run_both(fast, slow, pulse_sequence(cfg, [(2, 3)] * 3 + [(4, 5)] * 2), tally)
    assert len(calls) == 2
    per_pulse = []
    width = block_width(5, 7)
    for step in pulse_sequence(cfg, [(1, 5)] * (width + 1)):
        calls.clear()
        run_both(fast, slow, [step], tally)
        per_pulse.append(len(calls))
    assert per_pulse == [1] + [0] * (width - 1) + [1]
    assert_same_state(fast, slow, tally)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_draw_ahead_over_many_pulses_on_one_cell(topology):
    cfg = DEFAULT_CONFIG
    fast = ArrayState.fresh(cfg, rows=3, cols=4, topology=topology, initial="center")
    slow = ArrayState.fresh(cfg, rows=3, cols=4, topology=topology, initial="center")
    width = block_width(3, 4)
    targets = [(1, 2)] * (2 * width + 3) + [(0, 1), (2, 3), (1, 2)]
    tally = new_tally(slow)
    run_both(fast, slow, pulse_sequence(cfg, targets), tally)
    assert_same_state(fast, slow, tally)
    assert fast.rng_counts[1, 2] > 2 * width


def test_draw_ahead_follows_in_place_edits():
    cfg = DEFAULT_CONFIG
    fast = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
    slow = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
    pulses = pulse_sequence(cfg, [(1, 1)] * 5)

    def edit(array, step):
        if step == 0:
            array.rng_counts[1] -= 2  # back inside the current block
        elif step == 1:
            array.rng_counts[:, 1] += 1000  # past it
        elif step == 2:
            array.rng_counts[:, 1] -= 1000  # before the new block, same seeds
        elif step == 3:
            array.rng_seeds[1, 2] = 99  # a new stream for one cell
        elif step == 4:
            array.rng_seeds[1, 2], array.rng_counts[1, 2] = slow_seed, 0  # back again
        else:
            array.rng_seeds[...] = array.rng_seeds[::-1, ::-1].copy()  # cells swap streams

    slow_seed = int(slow.rng_seeds[1, 2])
    tally = new_tally(slow)
    run_both(fast, slow, pulses, tally)
    for step in range(6):
        edit(fast, step)
        edit(slow, step)
        run_both(fast, slow, pulses, tally)
    assert_same_state(fast, slow, tally)


def test_large_drawn_shifts_match_bit_for_bit():
    # from the window bottom a long program pulse shifts the target so far
    # that the last bit of its lognormal factor reaches v_th: a few draws
    # in a thousand differ if np.exp stands in for math.exp
    cfg = DEFAULT_CONFIG
    fast = ArrayState.fresh(cfg, rows=1, cols=1, initial="erased")
    slow = ArrayState.fresh(cfg, rows=1, cols=1, initial="erased")
    pulse = PulseSpec.program(cfg, duration=8 * cfg.pulse.program_duration)
    for _ in range(1500):
        fast.v_th[...] = slow.v_th[...] = cfg.calibration.v_th_min
        run_both(fast, slow, [(0, 0, pulse)])


def test_draw_ahead_is_not_saved(tmp_path):
    # a campaign saved and reloaded mid-way continues as if uninterrupted
    cfg = DEFAULT_CONFIG
    whole = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
    first = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
    slow = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
    targets = [(0, 1)] * 3 + [(2, 2)] * (block_width(3, 4) + 1) + [(0, 1)] * 2
    pulses = pulse_sequence(cfg, targets)
    cut = 5
    run_both(first, slow, pulses[:cut])
    first.save(tmp_path / "mid.txt")
    resumed = ArrayState.load(tmp_path / "mid.txt", cfg)
    run_both(resumed, slow, pulses[cut:])
    for row, col, pulse in pulses:
        whole.pulse_cell(row, col, pulse)
    assert_bits_equal(resumed.v_th, whole.v_th)
    assert_bits_equal(resumed.rng_counts, whole.rng_counts)


# ------------------------------------------------------------ drift scan

def scalar_drift(w_plus, w_minus, temp_range, reference, step=1.0):
    """The drift objective evaluated for one pair, scalar exponentials at T0."""
    a, b = math.log(w_plus), math.log(w_minus)
    temps = np.arange(temp_range[0], temp_range[1] + step / 2, step)
    out = np.exp(a * reference / temps) - np.exp(b * reference / temps)
    out0 = math.exp(a) - math.exp(b)
    return float(np.max(np.abs(out / out0 - 1.0)))


def scalar_optimize(w, temp_range, reference, w_floor=0.01):
    """Coarse scan then golden section, one objective call per grid point."""
    def objective(w_b):
        return scalar_drift(w_b + w / 2.0, w_b - w / 2.0, temp_range, reference)

    grid = np.arange(w / 2.0 + w_floor, 1.0 - w / 2.0 + 1e-12, 1e-3)
    k = int(np.argmin([objective(x) for x in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    w_b, drift = golden_section_min(objective, lo, hi, tol=1e-6)
    return float(w_b), float(drift)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    w=st.floats(1e-3, 0.985),
    reference=st.sampled_from([T_25C, 320.0, T_85C]),
)
def test_drift_grid_matches_scalar_objective(w, reference):
    temp_range = (T_25C, T_85C)
    grid = np.arange(w / 2.0 + 0.01, 1.0 - w / 2.0 + 1e-12, 1e-3)
    fast = differential_drift_grid(grid + w / 2.0, grid - w / 2.0, temp_range, reference)
    oracle = np.array([scalar_drift(x + w / 2.0, x - w / 2.0, temp_range, reference) for x in grid])
    assert_bits_equal(fast, oracle)
    scalar = np.array(
        [differential_drift(x + w / 2.0, x - w / 2.0, temp_range, reference) for x in grid]
    )
    assert_bits_equal(fast, scalar)
    fast_opt = optimize_bias_weight(w, temp_range, reference=reference)
    assert_bits_equal(np.array(fast_opt), np.array(scalar_optimize(w, temp_range, reference)))


def grid_size(w, w_floor):
    return len(np.arange(w / 2.0 + w_floor, 1.0 - w / 2.0 + 1e-12, 1e-3))


# (w, w_floor): a sweep over the range, tiny weights down to W_MIN, and
# the top end where the bias-weight grid has 3, 2 or 1 points
SWEEP = (
    [(float(w), 0.01) for w in np.linspace(0.002, 0.98, 90)]
    + [(1e-9, 0.01), (3e-9, 0.01), (1e-6, 0.01), (1e-4, 0.01)]
    + [(0.9875, 0.01), (0.9885, 0.01), (0.9895, 0.01), (0.98999, 0.01)]
    + [(float(w), 0.05) for w in np.linspace(0.01, 0.9, 12)]
    + [(0.9475, 0.05), (0.9485, 0.05), (0.9495, 0.05), (1e-3, 1e-4), (0.5, 1e-4)]
)


def test_pruned_scan_matches_full_grid_oracle():
    assert len(SWEEP) >= 100
    assert {grid_size(w, f) for w, f in SWEEP} >= {1, 2, 3}
    assert {grid_size(w, 0.05) for w, f in SWEEP if f == 0.05} >= {1, 2, 3}
    references = (T_25C, 320.0, T_85C)
    for k, (w, w_floor) in enumerate(SWEEP):
        reference = references[k % 3]
        got = optimize_bias_weight(w, (T_25C, T_85C), reference=reference, w_floor=w_floor)
        want = scalar_optimize(w, (T_25C, T_85C), reference, w_floor)
        assert_bits_equal(np.array(got), np.array(want))


# ----------------------------------------------------------- scalar reads

def interp_sigma(noise, currents):
    """The envelope as np.interp on the natural log of the currents."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log(np.asarray(currents, dtype=float))
    anchors = (math.log(noise.i_low_anchor), math.log(noise.i_high_anchor))
    return np.interp(x, anchors, (noise.sigma_low, noise.sigma_high))


def scalar_sigmas(noise, currents, kind):
    with np.errstate(divide="ignore", invalid="ignore"):
        got = [noise.sigma_at(kind(c)) for c in currents]
    assert all(type(g) is float for g in got)
    return np.array(got)


def test_scalar_sigma_matches_interp():
    noise = DEFAULT_CONFIG.noise
    currents = 10.0 ** np.random.default_rng(7).uniform(-13.0, -4.0, 100_000)
    want = interp_sigma(noise, currents)
    assert_bits_equal(scalar_sigmas(noise, currents.tolist(), float), want)
    assert_bits_equal(scalar_sigmas(noise, currents[:5000], np.float64), want[:5000])


def test_scalar_sigma_at_anchors_and_outside():
    noise = DEFAULT_CONFIG.noise
    currents = [0.0, 1e-300, 1e300, math.inf, math.nan, -1e-9]
    for anchor in (noise.i_low_anchor, noise.i_high_anchor):
        # 257 currents around the anchor, one float step apart
        near = (np.float64(anchor).view(np.int64) + np.arange(-128, 129)).view(np.float64)
        assert near[128] == anchor and near[127] == np.nextafter(anchor, 0.0)
        logs, x = np.log(near), math.log(anchor)
        # currents whose log lands on the anchor's log and one step either side
        for target in (x, np.nextafter(x, -math.inf), np.nextafter(x, math.inf)):
            assert (logs == target).any()
        currents += near.tolist()
    for kind in (float, np.float64):
        assert_bits_equal(scalar_sigmas(noise, currents, kind), interp_sigma(noise, currents))


def test_scalar_subthreshold_current_matches_array_path():
    cfg = DEFAULT_CONFIG
    rng = np.random.default_rng(8)
    v_th = rng.uniform(2.0, 6.0, 3000)
    v_cg = v_th + rng.uniform(-4.0, 1.0, 3000)  # from deep subthreshold past i_sat
    temps = rng.uniform(T_MIN, T_MAX, 3000)
    cases = list(zip(v_cg.tolist(), v_th.tolist(), temps.tolist()))
    cases += [(math.inf, 4.0, T_25C), (-math.inf, 4.0, T_25C), (math.nan, 4.0, T_25C)]
    clamped = 0
    for vc, vt, t in cases:
        got = subthreshold_current(vc, vt, cfg.n, cfg.i0, t, cfg.i_sat)
        want = subthreshold_current(np.array([vc]), vt, cfg.n, cfg.i0, t, cfg.i_sat)
        assert type(got) is float
        assert_bits_equal(np.array([got]), want)
        clamped += got == cfg.i_sat
    assert 100 < clamped < len(cases) - 100


# ------------------------------------------------------------- multiply

def oracle_multiply(array, inputs, temperature, samples, rng):
    """Noisy multiply as first written: a per-row peripheral loop, the
    readout law with its array wrappers, and ``.mean(axis=0)``."""
    cfg = array.cfg
    cal = cfg.require_calibration()
    v_per = []
    for r in range(array.rows):
        pc = array.peripheral_col_for_row(r)
        v = array.v_th[r, pc]
        if not (cal.v_th_min + 1e-9 < v < cal.v_th_max - 1e-9):
            raise ValueError(f"peripheral cell ({r}, {pc}) is untuned (v_th at a window bound)")
        v_per.append(v)
    ut = cfg.n * thermal_voltage(temperature)
    v_gate = np.array(v_per) + ut * np.log(np.asarray(inputs) / cfg.i0)
    x = Q_E * (np.asarray(v_gate[:, None]) - np.asarray(array.v_th[:, array.array_cols]))
    x = x / (cfg.n * K_B * temperature)
    currents = np.minimum(cfg.i0 * np.exp(x), cfg.i_sat)
    sigma = cfg.noise.sigma_at(currents)
    eps_mean = rng.standard_normal((samples,) + currents.shape).mean(axis=0)
    return np.maximum(currents * (1.0 + sigma * eps_mean), 0.0).sum(axis=0)


@pytest.mark.parametrize("shape", [(1, 4), (3, 5), (6, 8)], ids=lambda s: f"{s[0]}x{s[1]}")
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_noisy_multiply_matches_formula_oracle(shape, data):
    rows, cols = shape
    cfg = replace(DEFAULT_CONFIG, seed=data.draw(st.integers(0, 2**31)))
    lo, hi = cfg.current_window
    currents = st.floats(lo, hi)
    array = ArrayState.fresh(cfg, rows=rows, cols=cols)
    oracle = ArrayState.fresh(cfg, rows=rows, cols=cols)
    for r in range(rows):
        for c in range(cols):
            peripheral = c == array.peripheral_col_for_row(r)
            i = reference_current(cfg) if peripheral else data.draw(currents)
            array.set_cell_current(r, c, i)
            oracle.set_cell_current(r, c, i)
    inputs = data.draw(st.lists(currents, min_size=rows, max_size=rows))
    t = data.draw(st.floats(T_MIN, T_MAX))
    samples = data.draw(st.integers(1, 128))
    # the array's own measurement stream, then an explicit generator
    got = multiply(array, inputs, temperature=t, noisy=True, samples=samples)
    want = oracle_multiply(oracle, inputs, t, samples, oracle.measure_rng)
    assert_bits_equal(got, want)
    assert array.measure_rng.bit_generator.state == oracle.measure_rng.bit_generator.state
    seed = data.draw(st.integers(0, 2**31))
    got = multiply(array, inputs, temperature=t, noisy=True, samples=samples,
                   rng=np.random.default_rng(seed))
    assert_bits_equal(got, oracle_multiply(oracle, inputs, t, samples, np.random.default_rng(seed)))


def test_untuned_peripheral_names_the_first_one():
    # rows 0 and 2 use column 0, rows 1 and 3 column 4; rows 1 and 2 stay untuned
    cfg = DEFAULT_CONFIG
    array = ArrayState.fresh(cfg, rows=4, cols=5)
    for r in (0, 3):
        array.set_cell_current(r, array.peripheral_col_for_row(r), reference_current(cfg))
    message = "peripheral cell (1, 4) is untuned (v_th at a window bound)"
    for call in (lambda: multiply(array, [1e-8] * 4, noisy=True),
                 lambda: oracle_multiply(array, [1e-8] * 4, T_25C, 1, None)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    array.set_cell_current(1, 4, reference_current(cfg))
    with pytest.raises(ValueError, match=r"^peripheral cell \(2, 0\) is untuned"):
        multiply(array, [1e-8] * 4)
    narrow = ArrayState.fresh(cfg, rows=2, cols=2)
    with pytest.raises(ValueError, match="no peripheral columns"):
        multiply(narrow, [1e-8] * 2)
