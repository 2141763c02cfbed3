import copy
from dataclasses import replace

import numpy as np
import pytest

from flashvmm.array import ROLES, ArrayState, bias_table
from flashvmm.cell import PulseKind, PulseSpec, drain_current, readout_noisy, READOUT_BIAS
from flashvmm.config import DEFAULT_CONFIG, ModelConfig, calibrate
from flashvmm.constants import V_MAX_ABS

CFG = DEFAULT_CONFIG


def bias_at(array, kind, r, c, row, col):
    """Bias of cell (r, c) during a ``kind`` pulse on (row, col)."""
    table = bias_table(kind, array.topology, array.cfg.inhibition)
    return table[2 * (r != row) + (c != col)][0]


def role_counts(array, row, col):
    counts = {role: 0 for role in ROLES}
    for r in range(array.rows):
        for c in range(array.cols):
            counts[ROLES[2 * (r != row) + (c != col)]] += 1
    return counts


class TestSchemes:
    def test_partition_counts_10x12(self):
        array = ArrayState.fresh(CFG)
        counts = role_counts(array, 3, 5)
        assert counts == {
            "selected": 1,
            "row_half": 11,
            "col_half": 9,
            "unselected": 99,
        }
        assert sum(counts.values()) == array.rows * array.cols

    def test_partition_is_exhaustive_for_any_target(self):
        array = ArrayState.fresh(CFG, rows=4, cols=5)
        for row in range(4):
            for col in range(5):
                counts = role_counts(array, row, col)
                assert counts["selected"] == 1
                assert sum(counts.values()) == 20

    def test_program_scheme_voltages(self):
        array = ArrayState.fresh(CFG)
        sel = bias_at(array, PulseKind.PROGRAM, 3, 5, 3, 5)
        assert sel.v_s == 4.5 and sel.v_d == 0.5
        assert sel.v_eg - sel.v_d == pytest.approx(4.0)  # selected column
        other_row = bias_at(array, PulseKind.PROGRAM, 0, 5, 3, 5)
        assert other_row.v_s == 0.5
        other_col = bias_at(array, PulseKind.PROGRAM, 3, 0, 3, 5)
        assert other_col.v_d >= 2.25
        assert other_col.v_eg - other_col.v_d < 0.0  # unselected column

    def test_erase_scheme_voltages(self):
        array = ArrayState.fresh(CFG)
        sel = bias_at(array, PulseKind.ERASE, 3, 5, 3, 5)
        assert sel.v_eg == 11.5 and sel.v_cg == 0.0
        # half-selected: same column, unselected row
        col_half = bias_at(array, PulseKind.ERASE, 0, 5, 3, 5)
        assert col_half.v_eg == 11.5 and col_half.v_cg == 8.0
        row_half = bias_at(array, PulseKind.ERASE, 3, 0, 3, 5)
        assert row_half.v_eg == 0.0 and row_half.v_cg == 0.0

    def test_one_by_one_array(self):
        array = ArrayState.fresh(CFG, rows=1, cols=1)
        delta = array.pulse_cell(0, 0, PulseSpec.program(CFG))
        assert delta.roles.tolist() == [[ROLES.index("selected")]]
        program = bias_at(array, PulseKind.PROGRAM, 0, 0, 0, 0)
        assert program.v_s == 4.5 and program.v_d == 0.5
        erase = bias_at(array, PulseKind.ERASE, 0, 0, 0, 0)
        assert erase.v_eg == 11.5 and erase.v_cg == 0.0

    def test_all_protocol_voltages_in_bounds(self):
        # BiasCondition construction enforces the 12 V bound; every role
        # class of both kinds and topologies is built here
        for kind in PulseKind:
            for topology in ("modified", "original"):
                for bias, _ in bias_table(kind, topology, CFG.inhibition):
                    for name in ("v_wl", "v_cg", "v_d", "v_s", "v_eg"):
                        assert abs(getattr(bias, name)) <= V_MAX_ABS

    def test_out_of_bounds_target(self):
        array = ArrayState.fresh(CFG, rows=3, cols=4, initial="center")
        vth, counts = array.v_th.copy(), array.rng_counts.copy()
        for row, col, pulse in ((3, 0, PulseSpec.program(CFG)), (0, 4, PulseSpec.erase(CFG))):
            with pytest.raises(IndexError):
                array.pulse_cell(row, col, pulse)
            with pytest.raises(IndexError):
                array.read_cell(row, col)
        with pytest.raises(IndexError):
            array.pulse_cell(-1, 0, PulseSpec.program(CFG, duration=0.0))
        # nothing moved
        assert np.array_equal(array.v_th, vth)
        assert np.array_equal(array.rng_counts, counts)
        assert array.disturb.pulses == 0 and not array.disturb.cumulative_dvth.any()

    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_nan_size_rejected_naming_field(self, field):
        with pytest.raises(ValueError, match=field):
            ArrayState.fresh(CFG, **{field: float("nan")})

    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_float_size_rejected_naming_field(self, field):
        with pytest.raises(ValueError, match=field):
            ArrayState.fresh(CFG, **{field: 3.0})

    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_bool_size_rejected_naming_field(self, field):
        with pytest.raises(ValueError, match=field):
            ArrayState.fresh(CFG, **{field: True})

    def test_numpy_integer_size_accepted(self):
        array = ArrayState.fresh(CFG, rows=np.int64(2), cols=np.int32(3))
        assert array.v_th.shape == (2, 3)

    @pytest.mark.parametrize(
        "field, edit",
        [
            pytest.param("v_th", lambda g: g["v_th"].__setitem__((0, 1), np.nan), id="nan_v_th"),
            pytest.param("v_th", lambda g: g["v_th"].__setitem__((1, 0), 9.5), id="v_th_above"),
            pytest.param("v_th", lambda g: g["v_th"].__setitem__((1, 1), -9.5), id="v_th_below"),
            pytest.param("seeds", lambda g: g.update(seeds=g["seeds"][:1]), id="seeds_shape"),
            pytest.param("counts", lambda g: g.update(counts=g["counts"].T), id="counts_shape"),
            pytest.param("seeds", lambda g: g["seeds"].__setitem__((0, 0), -3), id="negative_seed"),
            pytest.param("counts", lambda g: g["counts"].__setitem__((1, 2), -1), id="negative_count"),
        ],
    )
    def test_constructor_rejects_bad_grid_naming_field(self, field, edit):
        array = ArrayState.fresh(CFG, rows=2, cols=3, initial="center")
        grids = {"v_th": array.v_th, "seeds": array.rng_seeds, "counts": array.rng_counts}
        edit(grids)
        with pytest.raises(ValueError, match=field):
            ArrayState(CFG, "modified", **grids)

    def test_constructor_checks_slope_factor_once(self):
        cfg = replace(CFG, n_slope=5.2)
        with pytest.raises(ValueError, match="n_slope"):
            ArrayState.fresh(cfg, rows=2, cols=3)

    @pytest.mark.parametrize("current", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_set_cell_current_rejects_bad_current(self, current):
        array = ArrayState.fresh(CFG, rows=2, cols=3, initial="center")
        vth = array.v_th.copy()
        with pytest.raises(ValueError, match="current"):
            array.set_cell_current(1, 1, current)
        assert np.array_equal(array.v_th, vth)


class TestPulseCell:
    def test_zero_duration_changes_nothing(self):
        array = ArrayState.fresh(CFG, rows=3, cols=4)
        vth = array.v_th.copy()
        counts = array.rng_counts.copy()
        array.pulse_cell(1, 1, PulseSpec.program(CFG, duration=0.0))
        assert np.array_equal(array.v_th, vth)
        assert np.array_equal(array.rng_counts, counts)
        assert all(int(self_counts.sum()) == 0 for self_counts in array.disturb.counts.values())

    def test_selected_cell_current_monotone_under_program(self):
        array = ArrayState.fresh(CFG, rows=3, cols=4, initial="erased")
        last = array.read_cell(1, 2)
        for _ in range(100):
            array.pulse_cell(1, 2, PulseSpec.program(CFG))
            current = array.read_cell(1, 2)
            assert current <= last
            last = current

    def test_hundred_pulses_disturb_below_5pct(self):
        array = ArrayState.fresh(CFG, rows=3, cols=4, initial="center")
        before = {
            (r, c): array.read_cell(r, c)
            for r in range(3)
            for c in range(4)
            if (r, c) != (1, 2)
        }
        for _ in range(100):
            array.pulse_cell(1, 2, PulseSpec.program(CFG))
        for (r, c), i0 in before.items():
            assert abs(array.read_cell(r, c) / i0 - 1.0) < 0.05

    def test_disturb_log_monotone_and_counted(self):
        array = ArrayState.fresh(CFG, rows=3, cols=4, initial="center")
        prev = 0.0
        for k in range(10):
            array.pulse_cell(0, 0, PulseSpec.program(CFG))
            total = array.disturb.cumulative_dvth.sum()
            assert total >= prev
            prev = total
        assert array.disturb.counts["selected"][0, 0] == 10
        assert array.disturb.counts["row_half"][0, 1] == 10
        assert array.disturb.counts["col_half"][1, 0] == 10
        assert array.disturb.counts["unselected"][2, 3] == 10
        assert array.disturb.cumulative_dvth[0, 0] == 0.0  # intended shift, not disturb
        with pytest.raises(TypeError):
            array.disturb.counts["selected"] = np.zeros((3, 4), dtype=np.int64)
        with pytest.raises(ValueError):
            array.disturb.counts["selected"][0, 0] = 0  # derived on demand, read-only

    def test_disturb_csv_export(self, tmp_path):
        array = ArrayState.fresh(CFG, rows=2, cols=3)
        array.pulse_cell(0, 0, PulseSpec.program(CFG))
        path = tmp_path / "disturb.csv"
        array.disturb.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,cumulative_dvth,selected,row_half,col_half,unselected"
        assert len(lines) == 1 + 6


class TestReadout:
    def test_noiseless_read_delegates_to_cell_model(self):
        array = ArrayState.fresh(CFG, rows=3, cols=4, initial="center")
        cell = array.cell_at(2, 1)
        assert array.read_cell(2, 1) == drain_current(cell, READOUT_BIAS, CFG.temperature_ref, CFG)

    def test_noisy_read_matches_cell_model_bit_for_bit(self):
        array = ArrayState.fresh(CFG, rows=3, cols=4, initial="center")
        rng = copy.deepcopy(array.measure_rng)
        for samples in (1, 8, 128):
            expected = readout_noisy(
                array.cell_at(2, 1), READOUT_BIAS, CFG.temperature_ref, samples, rng=rng, cfg=CFG
            )
            assert array.read_cell(2, 1, noisy=True, samples=samples) == expected

    def test_read_keeps_the_cell_checks(self):
        array = ArrayState.fresh(CFG, rows=3, cols=4, initial="center")
        for t in (100.0, 1000.0, float("nan")):
            with pytest.raises(ValueError, match="temperature"):
                array.read_cell(0, 0, temperature=t)
        array.v_th[0, 0] = float("nan")
        with pytest.raises(ValueError, match="v_th must be finite"):
            array.read_cell(0, 0)

    @pytest.mark.parametrize("samples", [0, -2, 2.5, True, np.float64(8.0)])
    def test_bad_samples_rejected_naming_field(self, samples):
        array = ArrayState.fresh(CFG, rows=3, cols=4, initial="center")
        with pytest.raises(ValueError, match="samples"):
            array.read_cell(0, 0, noisy=True, samples=samples)
        with pytest.raises(ValueError, match="samples"):
            readout_noisy(array.cell_at(0, 0), READOUT_BIAS, CFG.temperature_ref, samples, cfg=CFG)

    def test_reads_are_pure(self):
        array = ArrayState.fresh(CFG, rows=3, cols=4, initial="center")
        assert array.read_cell(0, 0) == array.read_cell(0, 0)
        vth = array.v_th.copy()
        counts = array.rng_counts.copy()
        for _ in range(5):
            array.read_cell(0, 0, noisy=True, samples=4)
        assert np.array_equal(array.v_th, vth)
        assert np.array_equal(array.rng_counts, counts)

    def test_noisy_read_tracks_envelope(self):
        array = ArrayState.fresh(CFG, rows=1, cols=1)
        array.set_cell_current(0, 0, 1e-7)
        reads = np.array(
            [array.read_cell(0, 0, noisy=True, samples=1) for _ in range(4000)]
        )
        rel = reads / 1e-7 - 1.0
        assert abs(rel.mean()) < 5e-3
        assert rel.std() == pytest.approx(CFG.noise.sigma_at(1e-7), rel=0.1)


class TestTopologyRegression:
    def test_original_topology_erases_whole_row_only(self):
        cfg = CFG
        modified = ArrayState.fresh(cfg, rows=3, cols=4, initial="center")
        original = ArrayState.fresh(cfg, rows=3, cols=4, topology="original", initial="center")
        for array in (modified, original):
            array.pulse_cell(1, 2, PulseSpec.erase(cfg))

        full_shift = cfg.calibration.dv_erase_nominal
        # modified routing: only the target moved appreciably
        moved = np.abs(modified.v_th - cfg.calibration.v_th_center) > 0.2 * full_shift
        assert moved[1, 2] and moved.sum() == 1
        # original routing: the whole row moved, nothing else
        moved = np.abs(original.v_th - cfg.calibration.v_th_center) > 0.2 * full_shift
        assert moved[1].all() and moved.sum() == original.cols

    def test_original_topology_still_programs_individually(self):
        cfg = CFG
        array = ArrayState.fresh(cfg, rows=3, cols=4, topology="original", initial="center")
        array.pulse_cell(1, 2, PulseSpec.program(cfg))
        moved = np.abs(array.v_th - cfg.calibration.v_th_center) > 0.2 * cfg.calibration.dv_program_nominal
        assert moved[1, 2] and moved.sum() == 1


class TestLayout:
    def test_peripheral_columns(self):
        array = ArrayState.fresh(CFG)
        assert array.peripheral_cols == (0, 11)
        assert array.array_cols == list(range(1, 11))
        assert array.peripheral_col_for_row(0) == 0
        assert array.peripheral_col_for_row(1) == 11

    def test_narrow_array_has_no_peripherals(self):
        array = ArrayState.fresh(CFG, rows=2, cols=2)
        assert array.peripheral_cols == ()
        with pytest.raises(ValueError):
            array.peripheral_col_for_row(0)


class TestPersistence:
    def test_roundtrip_bit_identical(self, tmp_path):
        array = ArrayState.fresh(CFG, rows=3, cols=4, initial="center")
        for _ in range(7):
            array.pulse_cell(1, 1, PulseSpec.program(CFG))
        path = tmp_path / "array.txt"
        array.save(path)
        loaded = ArrayState.load(path, CFG)
        assert np.array_equal(loaded.v_th, array.v_th)
        assert np.array_equal(loaded.rng_seeds, array.rng_seeds)
        assert np.array_equal(loaded.rng_counts, array.rng_counts)
        assert loaded.topology == array.topology

    def test_header_versioned(self, tmp_path):
        array = ArrayState.fresh(CFG, rows=1, cols=1)
        path = tmp_path / "array.txt"
        array.save(path)
        assert path.read_text().startswith("# flashvmm-array v2\n")

    def test_config_mismatch_rejected(self, tmp_path):
        array = ArrayState.fresh(CFG, rows=1, cols=1)
        path = tmp_path / "array.txt"
        array.save(path)
        other = calibrate(ModelConfig(seed=4242))
        with pytest.raises(ValueError, match="config"):
            ArrayState.load(path, other)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a state file\n")
        with pytest.raises(ValueError, match="not a flashvmm"):
            ArrayState.load(path, CFG)

    def test_v1_file_refused(self, tmp_path):
        # v1 records also carried n_slope and i0; such a file is refused, not read
        def to_v1(lines):
            v1 = ["# flashvmm-array v1", *lines[1:3], "row,col,v_th,n_slope,i0,seed,draws"]
            for record in lines[4:]:
                parts = record.split(",")
                v1.append(",".join(parts[:3] + [repr(CFG.n), repr(CFG.i0)] + parts[3:]))
            return v1

        path = save_edited(tmp_path, to_v1)
        with pytest.raises(ValueError, match="line 1: unsupported state version 1"):
            ArrayState.load(path, CFG)

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            pytest.param(lambda ls: ls[:-1], 7, "3 cell records, expected 4", id="truncated"),
            pytest.param(lambda ls: ls + [""], 9, "5 cell records, expected 4", id="extra_line"),
            pytest.param(
                lambda ls: ls[:-1] + [ls[-2]], 8, r"record for cell \(1, 0\), expected \(1, 1\)",
                id="duplicate",
            ),
            pytest.param(
                lambda ls: ls[:-1] + [field(ls[-1], 0, "2")], 8,
                r"record for cell \(2, 1\), expected \(1, 1\)", id="out_of_range",
            ),
            pytest.param(
                lambda ls: [*ls[:4], ls[5], ls[4], *ls[6:]], 5,
                r"record for cell \(0, 1\), expected \(0, 0\)", id="reordered",
            ),
            pytest.param(
                lambda ls: ls[:-1] + [field(ls[-1], 2, "nan")], 8, "v_th nan outside", id="nan_v_th"
            ),
            pytest.param(
                lambda ls: ls[:-1] + [field(ls[-1], 2, "9.5")], 8, "v_th 9.5 outside",
                id="v_th_outside_window",
            ),
            pytest.param(
                lambda ls: ls[:-1] + [field(ls[-1], 4, "-1")], 8, "draws -1 outside",
                id="negative_draws",
            ),
            pytest.param(
                lambda ls: ls[:-1] + [field(ls[-1], 3, "-5")], 8, "seed -5 outside",
                id="negative_seed",
            ),
            pytest.param(
                lambda ls: ls[:-1] + [ls[-1] + ",0"], 8, "malformed record", id="extra_field"
            ),
            pytest.param(
                lambda ls: ls[:-1] + [field(ls[-1], 2, "4.0V")], 8, "malformed record",
                id="non_numeric",
            ),
            pytest.param(
                lambda ls: [ls[0], "# rows=2 cols=x topology=modified", *ls[2:]], 2,
                "malformed geometry line", id="malformed_geometry",
            ),
            pytest.param(
                lambda ls: [*ls[:3], "row,col,v_th,draws,seed", *ls[4:]], 4,
                "expected the column line", id="malformed_columns",
            ),
        ],
    )
    def test_malformed_file_rejected_naming_line(self, tmp_path, edit, line, message):
        path = save_edited(tmp_path, edit)
        with pytest.raises(ValueError, match=f"array.txt, line {line}: {message}"):
            ArrayState.load(path, CFG)


def field(record, k, value):
    """``record`` with its k-th comma-separated field replaced."""
    parts = record.split(",")
    parts[k] = value
    return ",".join(parts)


def save_edited(tmp_path, edit):
    """Save a 2x2 array (records on lines 5-8) and rewrite its lines with ``edit``."""
    path = tmp_path / "array.txt"
    ArrayState.fresh(CFG, rows=2, cols=2, initial="center").save(path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return path


def test_disturb_log_bounds_current_change():
    # the logged cumulative |dv_th| bounds every non-target cell's
    # relative current change through the exponential readout law
    import math
    from flashvmm.constants import thermal_voltage

    rng = np.random.default_rng(12)
    array = ArrayState.fresh(CFG, rows=4, cols=5, initial="center")
    before = {
        (r, c): array.read_cell(r, c) for r in range(4) for c in range(5)
    }
    touched = set()
    for _ in range(120):
        r, c = int(rng.integers(4)), int(rng.integers(5))
        touched.add((r, c))
        pulse = PulseSpec.program(CFG) if rng.random() < 0.5 else PulseSpec.erase(CFG)
        array.pulse_cell(r, c, pulse)
    ut = CFG.n * thermal_voltage(CFG.temperature_ref)
    for (r, c), i_start in before.items():
        if (r, c) in touched:
            continue
        bound = math.expm1(array.disturb.cumulative_dvth[r, c] / ut)
        assert abs(array.read_cell(r, c) / i_start - 1.0) <= bound + 1e-12
