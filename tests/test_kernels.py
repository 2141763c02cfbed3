"""Fast kernels pinned bit for bit to their scalar oracles.

``ArrayState.pulse_cell`` applies a pulse per role class; the oracle runs
``pulse_shift`` on every cell under the ``bias_table`` entry of its
geometric role, and keeps its own per-role pulse tally.
``stream_normals`` draws many (seed, count) normals at once; the oracle
is one ``default_rng((seed, count))`` per pair.
``vmm._drift`` evaluates many bias weights at once against the range's
low end; the oracle is the scalar drift formula one weight at a time.
Its numpy pass, the bias-weight scan's pruning bound, stays within the
scan's rounding margin of the libm drift.
Noisy ``multiply`` is pinned to a per-row restatement of its formula,
also when it draws a vector's samples in blocks, one call per vector at
fig11's temperatures and for one 64x66 vector, and a batched
``multiply`` or ``differential_multiply`` to the single calls it
replaces, made in order. ``tune_cell``, which pulses and reads through a
per-target kernel, is pinned to its loop over the public ``pulse_cell``
and ``read_cell``, and makes every pulse and read through the kernel's
two methods; a kernel left by an exception writes back its draws and
disturb counts. The kernel's signed factor grid and drawing cells, which
it takes through the target's role grid, are pinned to the target's row
and column built piece by piece, and two pulse kinds share a ring check
only when they draw the same classes.
The float branches of ``sigma_at`` and ``subthreshold_current`` are
pinned to ``np.interp`` and to the one-element array path, and
``sigma_at``'s anchor logs and interpolation points, taken once per
instance, to taking them on every call; its unchecked law is pinned to it.
"""

import itertools
import math
import sys
from dataclasses import asdict, replace

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
from flashvmm.config import DEFAULT_CONFIG, InhibitionParams, ModelConfig, NoiseParams, config_hash
from flashvmm.tuning import TuneResult
from flashvmm.constants import K_B, Q_E, T_25C, T_85C, T_MAX, T_MIN, V_CG_READ, thermal_voltage
from flashvmm.vmm import (
    differential_drift,
    golden_section_min,
    multiply,
    optimize_bias_weight,
    reference_current,
)

FLOORS = (1e-4, 1e-3, 1e-2)
SIGMAS = (0.3, 0.0)
CONFIGS = {
    (floor, sigma): ModelConfig(
        inhibition=InhibitionParams(floor=floor),
        pulse=replace(ModelConfig().pulse, variability_sigma=sigma),
    )
    for floor in FLOORS
    for sigma in SIGMAS
}
# program draws the target and its row, erase the target alone
PROGRAM_ROW_ONLY = ModelConfig(inhibition=InhibitionParams(floor=1e-7, program_bl_inhibit=3.0))
SHAPES = [(1, 1), (1, 5), (4, 1), (3, 4)]


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
    table = bias_table(pulse.kind, array.cfg.inhibition)
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
    cfg = draw(st.sampled_from([*CONFIGS.values(), PROGRAM_ROW_ONLY]))
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


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_pulse_cell_matches_scalar_oracle(shape, data):
    rows, cols = shape
    cfg, v_th, pulses = data.draw(pulse_runs(rows, cols))
    fast = ArrayState.fresh(cfg, rows=rows, cols=cols)
    slow = ArrayState.fresh(cfg, rows=rows, cols=cols)
    fast.v_th[...] = v_th
    slow.v_th[...] = v_th
    tally = new_tally(slow)
    for row, col, pulse in pulses:
        delta = fast.pulse_cell(row, col, pulse)
        dvth, _ = oracle_pulse(slow, row, col, pulse, tally)
        assert_bits_equal(delta, dvth)
        assert_same_state(fast, slow, tally)
    # every applied pulse exposes every cell exactly once, under one role
    applied = sum(1 for _, _, p in pulses if p.duration > 0.0)
    exposures = sum(fast.disturb.counts[role] for role in ROLES)
    assert np.all(exposures == applied)


def test_draw_threshold_classes():
    # at floor 1e-2 an erase reaches doubly-unselected cells above the draw
    # threshold, so they draw; floor 1e-3 puts that class's erase select
    # factor at the threshold itself
    cfg = CONFIGS[(1e-2, 0.3)]
    lifted = bias_table(PulseKind.ERASE, cfg.inhibition)
    assert lifted[ROLES.index("unselected")][1] >= SF_DRAW_MIN
    at_threshold = bias_table(PulseKind.ERASE, CONFIGS[(1e-3, 0.3)].inhibition)
    assert at_threshold[ROLES.index("unselected")][1] == pytest.approx(SF_DRAW_MIN, rel=1e-9)

    array = ArrayState.fresh(cfg, rows=3, cols=4)
    array.pulse_cell(1, 2, PulseSpec.erase(cfg))
    assert np.all(array.rng_counts == 1)


def reference_pulse_cells(rows, cols, row, col, kind, inh, draws):
    """A target's line built piece by piece: row-major flat indices of its
    row and column (of every cell if the unselected class draws), class by
    class in ``ROLES`` order with the drawing classes first; their select
    factors; how many draw; the unselected factor."""
    factors = [sf for _, sf in bias_table(kind, inh)]
    drawn = [draws and sf >= SF_DRAW_MIN for sf in factors]
    grid = np.arange(rows * cols).reshape(rows, cols)
    top, left, right, bottom = slice(row), slice(col), slice(col + 1, None), slice(row + 1, None)
    pieces = [(grid[row, col:col + 1], 0), (grid[row, left], 1), (grid[row, right], 1),
              (grid[top, col], 2), (grid[bottom, col], 2)]
    if drawn[3]:
        pieces += [(grid[r, c].ravel(), 3) for r in (top, bottom) for c in (left, right)]
    pieces.sort(key=lambda piece: not drawn[piece[1]])  # stable: drawing classes first
    cells = np.concatenate([piece for piece, _ in pieces])
    sf = np.repeat([factors[k] for _, k in pieces], [piece.size for piece, _ in pieces])
    return cells, sf, sum(piece.size for piece, k in pieces if drawn[k]), factors[3]


# at floors 1e-2 and 5e-2 the unselected class draws for both kinds
@pytest.mark.parametrize("floor", (1e-4, 1e-2, 5e-2))
def test_kernel_factors_and_drawing_cells_match_piecewise_construction(floor):
    # every target's signed factor grid and drawing cells, as its kernel
    # resolves them from the role grid, equal the line built piece by
    # piece, the factors signed by the kind's pulse law
    for sigma in (0.3, 0.0):
        cfg = ModelConfig(inhibition=InhibitionParams(floor=floor),
                          pulse=replace(ModelConfig().pulse, variability_sigma=sigma))
        for rows, cols in [(1, 1), (1, 4), (4, 1), (3, 5), (10, 12), (32, 34)]:
            array = ArrayState.fresh(cfg, rows=rows, cols=cols)
            for row, col in itertools.product(range(rows), range(cols)):
                kernel = array_mod._Kernel(array, row, col)
                for k, kind in enumerate(PulseKind):
                    sf, sf_drawn, ring, *_ = kernel._resolve(kind, k)
                    sign = cell_mod.pulse_law(kind, cfg)[1]
                    cells, ref_sf, drawn, unselected = reference_pulse_cells(
                        rows, cols, row, col, kind, cfg.inhibition, sigma > 0.0
                    )
                    want = np.full(rows * cols, sign * unselected)
                    want[cells] = sign * ref_sf
                    assert_bits_equal(sf, want.reshape(rows, cols))
                    if drawn:
                        assert_bits_equal(ring[0], np.sort(cells[:drawn]))
                        assert_bits_equal(sf_drawn, sign * ref_sf[np.argsort(cells[:drawn])])
                    else:
                        assert ring is None


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
    assert multiplied == [{"temperature": None, "noisy": True, "samples": 4}]

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
    assert fallback  # about 1 in 70 draws
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


def first_output_oracle(w0, w1, w2, w3):
    """pcg64_set_seed(w0:w1, w2:w3) then one step and XSL-RR, in Python ints."""
    mult, mask = cell_mod._PCG_MULT, (1 << 128) - 1
    inc = ((w2 << 64 | w3) << 1 | 1) & mask
    state = inc  # one step from state 0
    state = ((state + (w0 << 64 | w1)) * mult + inc) & mask  # add initstate, step
    state = (state * mult + inc) & mask  # the first output's step
    hi, lo = state >> 64, state & (1 << 64) - 1
    xsl, rot = hi ^ lo, hi >> 58
    return (xsl >> rot | xsl << (64 - rot)) & (1 << 64) - 1


def test_first_output_carries_against_oracle():
    # crafted words reach every carry of the 64-bit halves, which hashed
    # words rarely do: all-ones low words, products whose low halves
    # overflow when summed, and a sum that overflows only when K1 is added
    top = (1 << 64) - 1
    m2_lo, k1_lo = cell_mod._M2 & top, cell_mod._K1 & top

    def init_for(low):  # init low word whose product with M**2 has this low half
        return low * pow(m2_lo, -1, 1 << 64) & top

    def seq_for(low):  # seq low word whose product with 2 * K1 has this (even) low half
        return (low >> 1) * pow(k1_lo, -1, 1 << 64) & top

    words = [
        (0, 0, 0, 0), (top, top, top, top), (0, top, 0, top), (5, top, 7, top),
        (1, init_for(top), 2, seq_for(2)),  # the sum carries, K1 does not
        (3, init_for(top), 4, seq_for(top - 1)),  # both carry
        (6, init_for((1 << 64) - k1_lo), 8, 0),  # only K1 carries
        (9, init_for((1 << 64) - k1_lo - 1), 10, 0),  # neither, one below
        (top, init_for(top), top, seq_for(top - 1)),
    ]
    rng = np.random.default_rng(16)
    words += [tuple(int(x) for x in rng.integers(0, 1 << 64, 4, dtype=np.uint64)) for _ in range(50)]
    low = [(w1 * m2_lo & top, w3 * 2 * k1_lo & top) for _, w1, _, w3 in words]
    assert any(a + b > top and (a + b) % (1 << 64) + k1_lo <= top for a, b in low)
    assert any(a + b > top and (a + b) % (1 << 64) + k1_lo > top for a, b in low)
    assert any(a + b <= top and a + b + k1_lo > top for a, b in low)
    out = cell_mod._first_output(np.array(words, dtype=np.uint64).T)
    assert out.tolist() == [first_output_oracle(*w) for w in words]
    # the oracle is NumPy's PCG64 seeded with the same words
    bitgen = np.random.PCG64(0)
    for w0, w1, w2, w3 in words[:9]:
        inc = ((w2 << 64 | w3) << 1 | 1) & (1 << 128) - 1
        state = ((inc + (w0 << 64 | w1)) * cell_mod._PCG_MULT + inc) & (1 << 128) - 1
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        assert int(bitgen.random_raw()) == first_output_oracle(w0, w1, w2, w3)


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

@pytest.mark.parametrize(
    "shape, width",
    [((1, 4), 64), ((3, 5), 64), ((32, 34), 64), ((64, 66), 64)],
    ids=["1x4", "3x5", "32x34", "64x66"],
)
def test_draw_ahead_ring_has_one_width_for_every_array(shape, width):
    # one ring width for every array, however few cells a pulse draws
    array = ArrayState.fresh(DEFAULT_CONFIG, rows=shape[0], cols=shape[1], initial="center")
    assert array._ahead is None  # made by the first drawing pulse
    array.pulse_cell(0, 1, PulseSpec.program(DEFAULT_CONFIG))
    assert array._ahead.shape == (shape[0] * shape[1], width)


def test_draw_ahead_width_leaves_a_ramp_campaign_unchanged(monkeypatch):
    # the width only decides when blocks are refilled: a 32x34 ramp
    # campaign ends in the same state under two widths, bit for bit
    def campaign(width):
        monkeypatch.setattr(array_mod, "DRAW_AHEAD", width)
        array = ArrayState.fresh(DEFAULT_CONFIG, rows=32, cols=34)
        targets = tuning_mod.ramp_targets(array, 1.0e-10, 1.0e-6, 0.05)
        results, _ = tuning_mod.tune_array(array, targets[::4], 100)
        assert array._ahead.shape[1] == width
        return array, [(r.converged, r.final_current) for r in results]

    (a, results_a), (b, results_b) = campaign(8), campaign(24)
    assert results_a == results_b
    assert_bits_equal(a.v_th, b.v_th)
    assert_bits_equal(a.rng_counts, b.rng_counts)
    assert_bits_equal(a.disturb.cumulative_dvth, b.disturb.cumulative_dvth)
    for role in ROLES:
        assert_bits_equal(a.disturb.counts[role], b.disturb.counts[role])


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
        assert_bits_equal(delta, dvth)
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
    width = DRAW_AHEAD
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
    width = DRAW_AHEAD
    for step in pulse_sequence(cfg, [(1, 5)] * (width + 1)):
        calls.clear()
        run_both(fast, slow, [step], tally)
        per_pulse.append(len(calls))
    assert per_pulse == [1] + [0] * (width - 1) + [1]
    assert_same_state(fast, slow, tally)


# at floor 1e-2 every pulse draws for the whole array
@pytest.mark.parametrize("floor", (1e-4, 1e-2))
def test_draw_ahead_over_many_pulses_on_one_cell(floor):
    cfg = CONFIGS[(floor, 0.3)]
    fast = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
    slow = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
    width = DRAW_AHEAD
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


def with_sigma(sigma):
    return replace(DEFAULT_CONFIG, pulse=replace(DEFAULT_CONFIG.pulse, variability_sigma=sigma))


def test_ring_is_keyed_on_sigma():
    # cfg is a plain attribute: reassigning it mid-ring drops the factors
    # drawn under the old sigma; at sigma 0 nothing draws, and the return
    # to 0.3 finds a ring filled at 0.15
    fast = ArrayState.fresh(DEFAULT_CONFIG, rows=3, cols=4, initial="center")
    slow = ArrayState.fresh(DEFAULT_CONFIG, rows=3, cols=4, initial="center")
    tally = new_tally(slow)
    for sigma in (0.3, 0.15, 0.0, 0.3):
        fast.cfg = slow.cfg = with_sigma(sigma)
        run_both(fast, slow, pulse_sequence(fast.cfg, [(1, 2)] * 5), tally)
    assert_same_state(fast, slow, tally)


def test_ring_slots_hold_lognormal_factors():
    # after a fresh fill and a top-up that wraps past slot 0, each cell's
    # slot count % width holds exp(sigma * z) of its draw count, for every
    # count its ring covers
    cfg = with_sigma(0.25)
    array = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
    array.rng_counts[...] = DRAW_AHEAD - 3 + np.arange(12).reshape(3, 4)
    for row, col, pulse in pulse_sequence(cfg, [(1, 2)] * 4 + [(0, 2)] * 2):
        array.pulse_cell(row, col, pulse)
    width = array._ahead.shape[1]
    filled = np.flatnonzero(array._ahead_seed >= 0)
    assert filled.size == 9  # rows 0 and 1 and column 2
    for cell in filled:
        seed, base = int(array._ahead_seed[cell]), int(array._ahead_base[cell])
        draws = np.arange(base, base + width)
        expected = [
            math.exp(0.25 * np.random.default_rng((seed, int(count))).standard_normal())
            for count in draws
        ]
        assert_bits_equal(array._ahead[cell, draws % width], np.array(expected))


def test_draw_ahead_is_not_saved(tmp_path):
    # a campaign saved and reloaded mid-way continues as if uninterrupted
    cfg = DEFAULT_CONFIG
    whole = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
    first = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
    slow = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
    targets = [(0, 1)] * 3 + [(2, 2)] * (DRAW_AHEAD + 1) + [(0, 1)] * 2
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


def ring_steps():
    """Runs of pulses on a 5x7 array: (row, col, program or erase, length)."""
    return st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 6), st.booleans(), st.integers(1, 9)),
        min_size=1,
        max_size=6,
    )


@pytest.mark.parametrize("width", [5, DRAW_AHEAD])
def test_top_up_interleaving_matches_oracle(monkeypatch, width):
    # (2, 3) uses part of its ring; pulses on (2, 5) and (4, 3) use part of
    # it on row 2 and column 3 and top the rest up; the return to (2, 3)
    # finds its rings partly used; then drawn runs of targets and kinds.
    # Counts start a few ring turns in, so top-ups wrap past slot 0.
    monkeypatch.setattr(array_mod, "DRAW_AHEAD", width)
    cfg = DEFAULT_CONFIG
    prefix = [(2, 3, True, 4), (2, 5, False, 3), (4, 3, True, 2), (2, 3, False, 3)]

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(start=st.integers(0, 3 * width), steps=ring_steps())
    def run(start, steps):
        fast = ArrayState.fresh(cfg, rows=5, cols=7, initial="center")
        slow = ArrayState.fresh(cfg, rows=5, cols=7, initial="center")
        fast.rng_counts[...] = slow.rng_counts[...] = start + np.arange(35).reshape(5, 7) % 11
        tally = new_tally(slow)
        for row, col, program, n in prefix + steps:
            make = PulseSpec.program if program else PulseSpec.erase
            pulse = make(cfg, duration=make(cfg).duration / 2)
            run_both(fast, slow, [(row, col, pulse)] * n, tally)
        assert_same_state(fast, slow, tally)
        assert fast._ahead.shape[1] == width

    run()


def test_top_up_draws_each_normal_once(monkeypatch):
    # a cell's rings cover its draws 0 .. base + width - 1, each drawn once:
    # a 32x34 ramp campaign passes stream_normals the draws it consumes
    # plus the unused tail of each ring, at most width per cell touched
    pairs = []

    def counting(seeds, counts):
        pairs.append(len(seeds))
        return stream_normals(seeds, counts)

    monkeypatch.setattr(array_mod, "stream_normals", counting)
    array = ArrayState.fresh(DEFAULT_CONFIG, rows=32, cols=34)
    targets = tuning_mod.ramp_targets(array, 1.0e-10, 1.0e-6, 0.05)
    tuning_mod.tune_array(array, targets[::4], 100)
    width = array._ahead.shape[1]
    touched = array._ahead_seed >= 0
    consumed = int(array.rng_counts.sum())
    tails = array._ahead_base[touched] + width - array.rng_counts.ravel()[touched]
    assert sum(pairs) == consumed + int(tails.sum())
    assert sum(pairs) <= consumed + width * int(touched.sum())


# ------------------------------------------------------------ tune_cell

def oracle_tune_cell(array, target, budget, events):
    """``tune_cell`` as written over the public ``read_cell`` and
    ``pulse_cell``, each call checked in full; ``events`` collects the
    branches it takes."""
    cfg = array.cfg
    cal = cfg.calibration
    row, col, goal = target.row, target.col, target.target_current
    ut = cfg.n * thermal_voltage(cfg.temperature_ref)
    pulses = {"program": 0, "erase": 0}
    trajectory = []
    used, cap, last_sign, last_clamped = 0, 1.0, 0, False
    while True:
        current = array.read_cell(row, col, noisy=True, samples=tuning_mod.TRACK_SAMPLES)
        trajectory.append((used, current))
        err = current / goal - 1.0
        if abs(err) <= target.precision:
            final = array.read_cell(row, col, noisy=True, samples=tuning_mod.VERIFY_SAMPLES)
            final_err = final / goal - 1.0
            if abs(final_err) <= target.precision:
                return TuneResult(row, col, goal, True, pulses, final, abs(final_err), trajectory)
            events.add("verify disagrees")
            current, err = final, final_err
        if used >= budget:
            events.add("budget exhausted")
            final = array.read_cell(row, col, noisy=True, samples=tuning_mod.VERIFY_SAMPLES)
            return TuneResult(row, col, goal, False, pulses, final, abs(final / goal - 1.0), trajectory)
        sign = 1 if err > 0 else -1
        if last_sign != 0 and sign != last_sign:
            cap = tuning_mod.MIN_SCALE if last_clamped else max(cap / 2.0, tuning_mod.MIN_SCALE)
        nominal_dv = cal.dv_program_nominal if sign > 0 else cal.dv_erase_nominal
        needed = abs(math.log1p(err)) * ut / nominal_dv
        scale = min(cap, max(needed, tuning_mod.MIN_SCALE))
        if sign > 0:
            pulse = PulseSpec.program(cfg, duration=cfg.pulse.program_duration * scale)
            pulses["program"] += 1
        else:
            pulse = PulseSpec.erase(cfg, duration=cfg.pulse.erase_duration * scale)
            pulses["erase"] += 1
        last_clamped = array.pulse_cell(row, col, pulse)[row, col] == 0.0
        if last_clamped:
            events.add(f"{pulse.kind.value} clamped")
        last_sign = sign
        used += 1


def assert_same_tuning(fast, slow):
    assert_bits_equal(fast.v_th, slow.v_th)
    assert_bits_equal(fast.rng_counts, slow.rng_counts)
    assert_bits_equal(fast.disturb.cumulative_dvth, slow.disturb.cumulative_dvth)
    for role in ROLES:
        assert_bits_equal(fast.disturb.counts[role], slow.disturb.counts[role])
    assert fast.measure_rng.bit_generator.state == slow.measure_rng.bit_generator.state


def edit_streams(array, step):
    """Edit the seeds (odd steps: cells swap streams) or the draw counts
    (even steps: some rows back into their rings, or past them) in place."""
    if step % 2:
        array.rng_seeds[...] = np.roll(array.rng_seeds, step)
    else:
        array.rng_counts[: step % 3 + 1] += -3 if step % 4 else DRAW_AHEAD + 6
        np.maximum(array.rng_counts, 0, out=array.rng_counts)


def tune_both(fast, slow, targets, budget, events, edits=()):
    """Each target tuned on ``fast`` by ``tune_cell`` and on ``slow`` by the
    oracle, the streams edited first at the indices in ``edits``; returns
    the results."""
    results = []
    for k, (row, col, current, precision) in enumerate(targets):
        if k in edits:
            edit_streams(fast, k)
            edit_streams(slow, k)
        target = tuning_mod.TuneTarget(row, col, current, precision)
        got = tuning_mod.tune_cell(fast, target, budget)
        want = oracle_tune_cell(slow, target, budget, events)
        assert got == want
        assert_same_tuning(fast, slow)
        results.append(got)
    return results


TUNE_CONFIGS = {
    "default": DEFAULT_CONFIG,
    "sigma 0": CONFIGS[(1e-4, 0.0)],
    "floor 1e-2": CONFIGS[(1e-2, 0.3)],
    # erase draws the unselected class, program does not
    "floor 2e-3": ModelConfig(inhibition=InhibitionParams(floor=2e-3)),
    "program row only": PROGRAM_ROW_ONLY,
}


def test_ring_checks_are_shared_only_by_equal_drawing_classes(monkeypatch):
    # program then erase pulses within one span of the rings: a target's
    # kernel checks the rings once when both kinds draw the same classes
    # (none at sigma 0), once per kind otherwise; "floor 2e-3" draws the
    # row and column under program and every cell under erase, "program
    # row only" the target and its row, and the target alone
    covered, cover = [], ArrayState._cover
    monkeypatch.setattr(ArrayState, "_cover",
                        lambda self, cells, sigma: covered.append(cells.size) or cover(self, cells, sigma))
    make = {PulseKind.PROGRAM: PulseSpec.program, PulseKind.ERASE: PulseSpec.erase}
    row_and_col, every = 4 + 5 - 1, 4 * 5
    want = {"default": [row_and_col], "sigma 0": [], "floor 1e-2": [every],
            "floor 2e-3": [row_and_col, every], "program row only": [5, 1]}
    for name, cfg in TUNE_CONFIGS.items():
        array = ArrayState.fresh(cfg, rows=4, cols=5, initial="center")
        for row, col in [(1, 2), (3, 0)]:
            covered.clear()
            with array_mod._Kernel(array, row, col) as kernel:
                for kind in run_kinds(8):
                    kernel.pulse(kind, make[kind](cfg).duration / 16, make[kind](cfg).amplitude)
            assert covered == want[name], (name, row, col)
    # a check of program's cells leaves erase's span alone: under "floor
    # 2e-3" program checks again while erase's unselected cells, which only
    # erase draws, are about to run past their rings
    cfg = TUNE_CONFIGS["floor 2e-3"]
    fast, slow = (ArrayState.fresh(cfg, rows=4, cols=5, initial="center") for _ in range(2))
    kinds = [PulseKind.PROGRAM, *[PulseKind.ERASE] * (DRAW_AHEAD - 1), PulseKind.PROGRAM,
             *[PulseKind.ERASE] * 8]
    pulses = [make[kind](cfg, duration=make[kind](cfg).duration / 16) for kind in kinds]
    covered.clear()
    with array_mod._Kernel(fast, 1, 2) as kernel:
        for pulse in pulses:
            kernel.pulse(pulse.kind, pulse.duration, pulse.amplitude)
    assert covered == [row_and_col, every, row_and_col, every]
    for pulse in pulses:
        slow.pulse_cell(1, 2, pulse)
    assert_same_tuning(fast, slow)


@pytest.mark.parametrize("name", TUNE_CONFIGS)
def test_tune_cell_matches_public_loop(name):
    # from the programmed window top, a target at the window bottom pulses
    # program against the top, one at the window top erases down to the
    # bottom; precision 1e-3 is out of reach of the 8-sample reads' noise,
    # so a long run wraps and tops the target's drawing rings up, the
    # deciding reads disagree and the budget runs out; the streams are
    # edited in place between calls
    cfg = TUNE_CONFIGS[name]
    lo, hi = cfg.current_window
    fast = ArrayState.fresh(cfg, rows=4, cols=5)
    slow = ArrayState.fresh(cfg, rows=4, cols=5)
    events = set()
    targets = [(1, 2, lo, 1e-3), (1, 2, hi, 1e-3), (1, 2, 3e-8, 1e-3), (2, 2, lo, 0.2),
               (1, 3, 2e-9, 0.01), (0, 2, 5e-8, 0.05), (1, 2, 1e-9, 1e-3)]
    results = tune_both(fast, slow, targets, 150, events, edits=(3, 4, 5, 6))
    assert events == {"program clamped", "erase clamped", "verify disagrees", "budget exhausted"}
    assert max(r.pulses_total for r in results) > DRAW_AHEAD
    if cfg.pulse.variability_sigma > 0.0:
        assert fast.rng_counts.max() > 2 * DRAW_AHEAD


@pytest.mark.parametrize("name", TUNE_CONFIGS)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_tune_cell_matches_public_loop_property(name, data):
    cfg = TUNE_CONFIGS[name]
    lo, hi = cfg.current_window
    rows, cols = data.draw(st.sampled_from([(1, 4), (3, 4), (5, 6)]))
    initial = data.draw(st.sampled_from(array_mod.INITIAL_STATES))
    fast = ArrayState.fresh(cfg, rows=rows, cols=cols, initial=initial)
    slow = ArrayState.fresh(cfg, rows=rows, cols=cols, initial=initial)
    target = st.tuples(
        st.integers(0, rows - 1), st.integers(0, cols - 1),
        st.one_of(st.sampled_from([lo, hi]),
                  st.floats(math.log(lo), math.log(hi)).map(lambda x: min(max(math.exp(x), lo), hi))),
        st.sampled_from([1e-3, 0.01, 0.05, 0.3]),
    )
    targets = data.draw(st.lists(target, min_size=1, max_size=4))
    edits = data.draw(st.sets(st.integers(1, 4)))
    tune_both(fast, slow, targets, data.draw(st.integers(1, 100)), set(), edits)


class Interrupted(Exception):
    pass


def run_kinds(k):
    """k pulse kinds in runs of 1, 12, 2 and 3, program and erase in turn."""
    kinds = []
    for run in itertools.cycle((1, 12, 2, 3)):
        kind = PulseKind.ERASE if kinds and kinds[-1] is PulseKind.PROGRAM else PulseKind.PROGRAM
        kinds += [kind] * run
        if len(kinds) >= k:
            return kinds[:k]


@pytest.mark.parametrize("name", TUNE_CONFIGS)
@pytest.mark.parametrize("k", [0, 1, 2, 14, 2 * DRAW_AHEAD + 3])
def test_kernel_writes_back_when_interrupted(name, k):
    # k pulses through one kernel, then an exception inside its context:
    # the draws and disturb counts the kernel held are written back, as
    # after k public pulse_cell calls; the runs cross block rows and ring
    # checks and, where the kinds draw different classes, the other ring
    # check
    cfg = TUNE_CONFIGS[name]
    fast = ArrayState.fresh(cfg, rows=4, cols=5, initial="center")
    slow = ArrayState.fresh(cfg, rows=4, cols=5, initial="center")
    make = {PulseKind.PROGRAM: PulseSpec.program, PulseKind.ERASE: PulseSpec.erase}
    pulses = [make[kind](cfg, duration=make[kind](cfg).duration / 16) for kind in run_kinds(k)]
    with pytest.raises(Interrupted):
        with array_mod._Kernel(fast, 1, 2) as kernel:
            for pulse in pulses:
                kernel.pulse(pulse.kind, pulse.duration, pulse.amplitude)
            raise Interrupted
    for pulse in pulses:
        slow.pulse_cell(1, 2, pulse)
    assert_same_tuning(fast, slow)
    assert fast.disturb.pulses == k


def test_tune_cell_pulses_and_reads_only_through_the_kernel(monkeypatch):
    # wrapping the kernel's pulse and read sees every pulse and read of
    # tune_cell, the same calls the public loop makes, in order
    fast = ArrayState.fresh(DEFAULT_CONFIG, rows=4, cols=5)
    slow = ArrayState.fresh(DEFAULT_CONFIG, rows=4, cols=5)
    targets = tuning_mod.ramp_targets(fast, 1e-9, 1e-7, 0.01)[:6]
    seen, public = [], []

    def refuse(*args, **kwargs):
        raise AssertionError("tune_cell called a public pulse_cell or read_cell")

    with monkeypatch.context() as m:
        for name in ("pulse", "read"):
            def traced(kernel, *args, method=getattr(array_mod._Kernel, name), name=name):
                seen.append((name, args))
                return method(kernel, *args)

            m.setattr(array_mod._Kernel, name, traced)
        m.setattr(ArrayState, "pulse_cell", refuse)
        m.setattr(ArrayState, "read_cell", refuse)
        results = [tuning_mod.tune_cell(fast, target, 60) for target in targets]

    pulse_cell, read_cell = ArrayState.pulse_cell, ArrayState.read_cell

    def public_pulse(array, row, col, pulse):
        public.append(("pulse", (pulse.kind, pulse.duration, pulse.amplitude)))
        return pulse_cell(array, row, col, pulse)

    def public_read(array, row, col, noisy, samples):
        public.append(("read", (samples,)))
        return read_cell(array, row, col, noisy=noisy, samples=samples)

    monkeypatch.setattr(ArrayState, "pulse_cell", public_pulse)
    monkeypatch.setattr(ArrayState, "read_cell", public_read)
    assert results == [oracle_tune_cell(slow, target, 60, set()) for target in targets]
    assert seen == public
    assert sum(name == "pulse" for name, _ in seen) == sum(r.pulses_total for r in results)
    assert_same_tuning(fast, slow)


# ------------------------------------------------------------ drift scan

def scalar_drift(w_plus, w_minus, temp_range):
    """The drift objective evaluated for one pair on the 1 K grid, against
    the range's low end T0, scalar exponentials at T0."""
    a, b = math.log(w_plus), math.log(w_minus)
    temps = np.arange(temp_range[0], temp_range[1] + 0.5, 1.0)
    out = np.exp(a * temp_range[0] / temps) - np.exp(b * temp_range[0] / temps)
    out0 = math.exp(a) - math.exp(b)
    return float(np.max(np.abs(out / out0 - 1.0)))


def scalar_optimize(w, temp_range, w_floor=0.01):
    """Coarse scan then golden section, one objective call per grid point."""
    def objective(w_b):
        return scalar_drift(w_b + w / 2.0, w_b - w / 2.0, temp_range)

    grid = np.arange(w / 2.0 + w_floor, 1.0 - w / 2.0 + 1e-12, 1e-3)
    k = int(np.argmin([objective(x) for x in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    w_b, drift = golden_section_min(objective, lo, hi, tol=1e-6)
    return float(w_b), float(drift)


# drift intervals; the low end is the drift's reference temperature
RANGES = ((T_25C, T_85C), (273.15, 320.0), (320.0, T_85C))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(w=st.floats(1e-3, 0.985), temp_range=st.sampled_from(RANGES))
def test_drift_grid_matches_scalar_objective(w, temp_range):
    grid = np.arange(w / 2.0 + 0.01, 1.0 - w / 2.0 + 1e-12, 1e-3)
    temps = np.arange(temp_range[0], temp_range[1] + 0.5, 1.0)
    fast = vmm_mod._drift(grid + w / 2.0, grid - w / 2.0, temps, temp_range[0])
    oracle = np.array([scalar_drift(x + w / 2.0, x - w / 2.0, temp_range) for x in grid])
    assert_bits_equal(fast, oracle)
    scalar = np.array([differential_drift(x + w / 2.0, x - w / 2.0, temp_range) for x in grid])
    assert_bits_equal(fast, scalar)
    fast_opt = optimize_bias_weight(w, temp_range)
    assert_bits_equal(np.array(fast_opt), np.array(scalar_optimize(w, temp_range)))


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
    # the benchmark's differential weights: w uniform in [0.1, 0.9]
    + [(float(w), 0.01) for w in np.random.default_rng(2016).uniform(0.1, 0.9, 50)]
)


def test_pruned_scan_matches_full_grid_oracle():
    assert len(SWEEP) >= 100
    assert {grid_size(w, f) for w, f in SWEEP} >= {1, 2, 3}
    assert {grid_size(w, 0.05) for w, f in SWEEP if f == 0.05} >= {1, 2, 3}
    for k, (w, w_floor) in enumerate(SWEEP):
        temp_range = RANGES[k % 3]
        got = optimize_bias_weight(w, temp_range, w_floor)
        want = scalar_optimize(w, temp_range, w_floor)
        assert_bits_equal(np.array(got), np.array(want))


def test_numpy_bound_stays_within_rounding_margin():
    """numpy's drift at the high end, the scan's pruning bound, differs
    from libm's by at most an eighth of the margin the scan allows it,
    and the points it keeps hold the full scan's first argmin."""
    for temp_range, w, w_floor in itertools.product(
        RANGES, np.geomspace(vmm_mod.W_MIN, 0.98, 40), (1e-4, 0.01, 0.05)
    ):
        grid = np.arange(w / 2.0 + w_floor, 1.0 - w / 2.0 + 1e-12, 1e-3)
        if not len(grid):
            continue
        w_plus, w_minus = grid + w / 2.0, grid - w / 2.0
        temps = np.arange(temp_range[0], temp_range[1] + 0.5, 1.0)
        top, t0 = temps[-1:], temp_range[0]
        margin = vmm_mod._BOUND_MARGIN / w
        bound = vmm_mod._drift(w_plus, w_minus, top, t0, libm=False)
        gap = np.max(np.abs(bound - vmm_mod._drift(w_plus, w_minus, top, t0)))
        assert gap <= margin / 8, (temp_range, w, w_floor, gap * w / sys.float_info.epsilon)
        j = np.argmin(bound)
        threshold = differential_drift(w_plus[j], w_minus[j], temp_range)
        first = np.argmin(vmm_mod._drift(w_plus, w_minus, temps, t0))
        assert not bound[first] > threshold + margin, (temp_range, w, w_floor)


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


def test_sigma_at_keeps_the_per_call_anchor_logs():
    # the anchors' logs and np.interp's points are taken once per
    # instance, also by replace(), and give what taking them on every call
    # gives, on both paths
    sweep = 10.0 ** np.linspace(-13.0, -4.0, 2001)
    for noise in (DEFAULT_CONFIG.noise, replace(DEFAULT_CONFIG.noise, i_low_anchor=3e-11),
                  NoiseParams(sigma_low=0.05, sigma_high=0.002, i_low_anchor=2e-9, i_high_anchor=7e-7)):
        x0, x1 = math.log(noise.i_low_anchor), math.log(noise.i_high_anchor)
        x = np.log(sweep)
        want = np.interp(x, (x0, x1), (noise.sigma_low, noise.sigma_high))
        assert_bits_equal(noise.sigma_at(sweep), want)
        assert_bits_equal(np.array([noise.sigma_at(c) for c in sweep.tolist()]), want)
        # the unchecked law that multiply and readout_law call gives the same
        laws = [noise._sigma_law(c) for c in sweep.tolist()]
        assert all(type(g) is float for g in laws)
        assert_bits_equal(np.array(laws), want)
        assert_bits_equal(noise._sigma_law(sweep), want)
        assert noise.sigma_at(np.float64(sweep[700])) == want[700]
        assert noise == NoiseParams(**asdict(noise))
    assert config_hash(DEFAULT_CONFIG) == "5ab6d51e7a77"


def test_scalar_sigma_at_anchors_and_outside():
    noise = DEFAULT_CONFIG.noise
    currents = [0.0, 1e-300, 1e300]  # a negative, NaN or infinite current raises
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
    cal = cfg.calibration
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
    vector = st.lists(currents, min_size=rows, max_size=rows)
    samples = data.draw(st.integers(1, 128))
    # batch 0 is one vector at one temperature; a batch of B reads B
    # vectors, each at its own temperature or all at one
    batch = data.draw(st.integers(0, 3))
    inputs = data.draw(st.lists(vector, min_size=batch, max_size=batch) if batch else vector)
    temps = data.draw(st.lists(st.floats(T_MIN, T_MAX), min_size=max(batch, 1), max_size=max(batch, 1)))
    t = temps if batch and data.draw(st.booleans()) else temps[0]
    got = multiply(array, inputs, temperature=t, noisy=True, samples=samples)
    want = np.array([
        oracle_multiply(oracle, x, tx, samples, oracle.measure_rng)
        for x, tx in zip(inputs if batch else [inputs], np.broadcast_to(t, max(batch, 1)))
    ])
    assert got.shape == (want.shape if batch else want.shape[1:])
    assert_bits_equal(got, want if batch else want[0])
    assert array.measure_rng.bit_generator.state == oracle.measure_rng.bit_generator.state


def swept_array(rows, cols, seed=3, cfg=DEFAULT_CONFIG):
    """A tuned-peripheral array with seeded in-window weights."""
    array = ArrayState.fresh(replace(cfg, seed=seed), rows=rows, cols=cols, initial="center")
    rng = np.random.default_rng(seed)
    lo, hi = cfg.current_window
    for r in range(rows):
        for c in array.array_cols:
            array.set_cell_current(r, c, float(10 ** rng.uniform(np.log10(lo), np.log10(hi))))
    return array


@pytest.mark.parametrize(
    "rows, cols, batch, samples",
    [(4, 3, 360, 128), (64, 66, 2, 128), (4, 3, 360, 1), (4, 3, 360, 8), (5, 7, 9, None)],
    ids=["4x3-360-s128", "64x66-2-s128", "4x3-360-s1", "4x3-360-s8", "5x7-9-noiseless"],
)
@pytest.mark.parametrize("per_vector_t", [False, True], ids=["one-t", "t-per-vector"])
def test_batched_multiply_equals_single_calls(rows, cols, batch, samples, per_vector_t):
    single, batched = swept_array(rows, cols), swept_array(rows, cols)
    rng = np.random.default_rng(rows * cols + batch)
    lo, hi = DEFAULT_CONFIG.current_window
    inputs = 10 ** rng.uniform(np.log10(lo), np.log10(hi), size=(batch, rows))
    temps = rng.uniform(T_25C, T_85C, size=batch) if per_vector_t else np.full(batch, 320.0)
    read = dict(noisy=samples is not None, samples=samples or 1)
    want = np.array([multiply(single, x, temperature=float(t), **read) for x, t in zip(inputs, temps)])
    got = multiply(batched, inputs, temperature=temps if per_vector_t else 320.0, **read)
    assert np.array_equal(got, want)
    assert batched.measure_rng.bit_generator.state == single.measure_rng.bit_generator.state


def test_temperature_sweep_equals_single_calls():
    # fig11's shape: one vector through a differential pair at 25 temperatures
    arrays = [ArrayState.fresh(DEFAULT_CONFIG, rows=1, cols=4) for _ in range(2)]
    plans = [vmm_mod.plan_differential(np.array([[0.3]]), (T_25C, T_85C), a) for a in arrays]
    for array, plan in zip(arrays, plans):
        tuning_mod.tune_array(array, plan.tune_targets(array, 0.01), 200)
    temps = np.arange(T_25C, T_85C + 1e-9, 2.5)
    read = dict(noisy=True, samples=128)
    want = np.array([
        vmm_mod.differential_multiply(arrays[0], plans[0], [1e-7], temperature=float(t), **read)
        for t in temps
    ])
    got = vmm_mod.differential_multiply(arrays[1], plans[1], [1e-7], temperature=temps, **read)
    assert got.shape == (25, 1) and np.array_equal(got, want)
    assert arrays[1].measure_rng.bit_generator.state == arrays[0].measure_rng.bit_generator.state


@pytest.mark.parametrize(
    "rows, cols, chunk, samples",
    [(64, 66, None, 128), (4, 3, 64, 8), (4, 3, 8, None)],
    ids=["64x66-default", "4x3-64-normals", "4x3-8-currents-noiseless"],
)
def test_batched_multiply_crosses_chunk_boundaries(monkeypatch, rows, cols, chunk, samples):
    # each chunk holds two vectors: 64x66 at 128 samples draws 2**19
    # normals a vector; a 4x3 vector is 4 cell currents, 32 normals at 8
    if chunk is not None:
        monkeypatch.setattr(vmm_mod, "_DRAW_CHUNK", chunk)
    single, batched = swept_array(rows, cols), swept_array(rows, cols)
    inputs = np.full((5, rows), 1e-8) * np.arange(1, 6)[:, None]
    temps = np.linspace(T_25C, T_85C, 5)
    read = dict(noisy=samples is not None, samples=samples or 1)
    want = np.array([multiply(single, x, temperature=float(t), **read) for x, t in zip(inputs, temps)])
    chunks, law = [], vmm_mod.subthreshold_current
    monkeypatch.setattr(vmm_mod, "subthreshold_current", lambda v, *a: chunks.append(len(v)) or law(v, *a))
    got = multiply(batched, inputs, temperature=temps, **read)
    assert chunks == [2, 2, 1]
    assert 2 * len(batched.array_cols) * rows * (samples or 1) <= vmm_mod._DRAW_CHUNK
    assert np.array_equal(got, want)
    assert batched.measure_rng.bit_generator.state == single.measure_rng.bit_generator.state


class RecordingStream:
    """A measurement stream that records how many normals each draw makes."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def standard_normal(self, size=None, out=None):
        self.sizes.append(math.prod(size if out is None else out.shape))
        return self.rng.standard_normal(size, out=out)


@pytest.mark.parametrize(
    "rows, cols, chunk, block, samples",
    [(4, 3, 64, 16, 37), (3, 5, 2**20, 1, 9), (1, 4, 8, 2, 33), (1, 3, 8, 2, 40)],
    ids=["4x3-4-sample-blocks", "3x5-1-sample-blocks", "1x4-1-sample-blocks", "1x3-one-cell"],
)
def test_noisy_multiply_draws_samples_in_blocks(monkeypatch, rows, cols, chunk, block, samples):
    # samples that outgrow the chunk and the block are drawn a block at a
    # time and summed in order: the outputs and the stream's state are
    # those of one whole draw per vector. One cell per vector, which numpy
    # sums pairwise, still draws its samples at once.
    monkeypatch.setattr(vmm_mod, "_DRAW_CHUNK", chunk)
    monkeypatch.setattr(vmm_mod, "_DRAW_BLOCK", block)
    blocked, single = swept_array(rows, cols), swept_array(rows, cols)
    blocked.measure_rng = RecordingStream(blocked.measure_rng)
    inputs = np.full((3, rows), 1e-8) * np.arange(1, 4)[:, None]
    temps = np.linspace(T_25C, T_85C, 3)
    got = multiply(blocked, inputs, temperature=temps, noisy=True, samples=samples)
    want = [oracle_multiply(single, x, t, samples, single.measure_rng) for x, t in zip(inputs, temps)]
    assert_bits_equal(got, np.array(want))
    assert blocked.measure_rng.rng.bit_generator.state == single.measure_rng.bit_generator.state
    cells = rows * len(blocked.array_cols)
    assert sum(blocked.measure_rng.sizes) == 3 * samples * cells
    assert max(blocked.measure_rng.sizes) == (samples if cells == 1 else max(block, cells))


def test_one_vector_calls_match_formula_oracle():
    # diff-program's read: one 1x4 vector at each of fig11's 25
    # temperatures, one call each, 128 samples
    array, oracle = swept_array(1, 4), swept_array(1, 4)
    for t in np.arange(T_25C, T_85C + 1e-9, 2.5).tolist():
        got = multiply(array, [1e-7], temperature=t, noisy=True, samples=128)
        assert got.shape == (2,)
        assert_bits_equal(got, oracle_multiply(oracle, [1e-7], t, 128, oracle.measure_rng))
        assert array.measure_rng.bit_generator.state == oracle.measure_rng.bit_generator.state


@pytest.mark.parametrize("sigma, samples", [(None, 128), (0.1, 9)], ids=["default-s128", "loud-s9"])
def test_one_large_vector_through_the_blocked_draw_matches_formula_oracle(sigma, samples):
    # a 64x66 vector draws its 4096 cells 8 samples a block. At a loud
    # envelope and 9 samples a last-bit change in sigma * (eps / samples)
    # survives the 1 + ... in tens of cells, so the IEEE order is pinned.
    cfg = DEFAULT_CONFIG if sigma is None else replace(DEFAULT_CONFIG, noise=NoiseParams(sigma, sigma))
    array, oracle = swept_array(64, 66, cfg=cfg), swept_array(64, 66, cfg=cfg)
    array.measure_rng = RecordingStream(array.measure_rng)
    x = 10 ** np.random.default_rng(5).uniform(-9.0, -7.5, 64)
    got = multiply(array, x, temperature=320.0, noisy=True, samples=samples)
    assert_bits_equal(got, oracle_multiply(oracle, x, 320.0, samples, oracle.measure_rng))
    assert array.measure_rng.rng.bit_generator.state == oracle.measure_rng.bit_generator.state
    block = vmm_mod._DRAW_BLOCK // 4096
    assert array.measure_rng.sizes == [min(block, samples - k) * 4096 for k in range(0, samples, block)]


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
