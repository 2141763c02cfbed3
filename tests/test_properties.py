"""Property tests on random states: the multiply, the state file and the
derived disturb counts, each against an explicit reference."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashvmm.array import ROLES, ArrayState
from flashvmm.cell import PulseSpec
from flashvmm.config import DEFAULT_CONFIG
from flashvmm.vmm import multiply, reference_current, weight_of

CFG = DEFAULT_CONFIG
COUNT_SHAPES = [(1, 1), (1, 5), (4, 1), (5, 6)]


@st.composite
def pulse_runs(draw, rows, cols, max_pulses=30):
    """Pulses as (row, col, PulseSpec), zero-duration ones included."""
    pulses = []
    for _ in range(draw(st.integers(0, max_pulses))):
        make = draw(st.sampled_from([PulseSpec.program, PulseSpec.erase]))
        scale = draw(st.sampled_from([0.0, 1.0 / 64.0, 0.5, 1.0, 2.0]))
        pulse = make(CFG, duration=make(CFG).duration * scale)
        pulses.append((draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)), pulse))
    return pulses


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_noiseless_multiply_equals_dense_weight_product(data):
    rows = data.draw(st.integers(1, 5), label="rows")
    cols = data.draw(st.integers(3, 8), label="cols")
    array = ArrayState.fresh(CFG, rows=rows, cols=cols, initial="center")
    i_ref = reference_current(CFG)
    for r in range(rows):
        array.set_cell_current(r, array.peripheral_col_for_row(r), i_ref)
        for c in array.array_cols:
            array.set_cell_current(r, c, i_ref * data.draw(st.floats(0.02, 1.0)))
    lo, hi = CFG.current_window
    inputs = np.array([data.draw(st.floats(lo, hi)) for _ in range(rows)])
    dense = np.array(
        [
            [
                weight_of(
                    array.cell_at(r, c),
                    array.cell_at(r, array.peripheral_col_for_row(r)),
                    CFG.temperature_ref,
                )
                for c in array.array_cols
            ]
            for r in range(rows)
        ]
    )
    np.testing.assert_allclose(multiply(array, inputs), dense.T @ inputs, rtol=1e-9)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_save_load_round_trips_bit_for_bit(data):
    rows = data.draw(st.integers(1, 4), label="rows")
    cols = data.draw(st.integers(1, 5), label="cols")
    array = ArrayState.fresh(CFG, rows=rows, cols=cols, initial="center")
    for row, col, pulse in data.draw(pulse_runs(rows, cols, max_pulses=12)):
        array.pulse_cell(row, col, pulse)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "array.txt"
        array.save(path)
        loaded = ArrayState.load(path, CFG)
    for name in ("v_th", "rng_seeds", "rng_counts"):
        before, after = getattr(array, name), getattr(loaded, name)
        assert before.dtype == after.dtype and before.tobytes() == after.tobytes()


@pytest.mark.parametrize("shape", COUNT_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@settings(derandomize=True, max_examples=10, deadline=None)
@given(data=st.data())
def test_derived_counts_equal_an_explicit_tally(shape, data):
    rows, cols = shape
    array = ArrayState.fresh(CFG, rows=rows, cols=cols, initial="center")
    tally = {role: np.zeros((rows, cols), dtype=np.int64) for role in ROLES}
    pulses = data.draw(pulse_runs(rows, cols))
    for row, col, pulse in pulses:
        array.pulse_cell(row, col, pulse)
        if pulse.duration == 0.0:
            continue
        for r in range(rows):
            for c in range(cols):
                if r == row:
                    role = "selected" if c == col else "row_half"
                else:
                    role = "col_half" if c == col else "unselected"
                tally[role][r, c] += 1
    counts = array.disturb.counts
    assert sorted(counts) == sorted(ROLES)
    for role in ROLES:
        assert counts[role].dtype == np.int64
        assert np.array_equal(counts[role], tally[role])
    applied = sum(1 for _, _, p in pulses if p.duration > 0.0)
    assert np.all(sum(counts.values()) == applied)
    assert array.disturb.pulses == applied
