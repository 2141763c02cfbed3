import math
import re
from dataclasses import replace

import numpy as np
import pytest

from flashvmm.array import ArrayState
from flashvmm.cell import (
    BiasCondition,
    CellState,
    drain_current,
    fresh_cell,
    gate_voltage,
    subthreshold_current,
)
from flashvmm.config import DEFAULT_CONFIG, ModelConfig, NoiseParams
from flashvmm.constants import T_25C, T_85C, thermal_voltage
from flashvmm.tuning import tune_array
from flashvmm.vmm import (
    W_MIN,
    DifferentialWeightPlan,
    PlanInfeasibleError,
    WeightMatrix,
    differential_drift,
    differential_multiply,
    golden_section_min,
    multiply,
    optimize_bias_weight,
    plan_differential,
    read_matrix_csv,
    reference_current,
    weight_at_temperature,
    weight_of,
)

CFG = DEFAULT_CONFIG
QUIET_CFG = ModelConfig(
    noise=NoiseParams(sigma_low=0.0, sigma_high=0.0),
    pulse=replace(ModelConfig().pulse, variability_sigma=0.0),
)
I_REF = reference_current(CFG)


def centered_array(cfg=CFG, rows=4, cols=4):
    """Array with tuned peripherals and center-state cells."""
    array = ArrayState.fresh(cfg, rows=rows, cols=cols, initial="center")
    return array


def set_weights(array, weights):
    """Place cell states so weight_of equals the given matrix exactly."""
    i_ref = reference_current(array.cfg)
    for r in range(array.rows):
        array.set_cell_current(r, array.peripheral_col_for_row(r), i_ref)
        for k, c in enumerate(array.array_cols):
            array.set_cell_current(r, c, i_ref * weights[r, k])


def input_array(cfg=CFG):
    """1x3 array: one centered peripheral cell and one array cell."""
    return ArrayState.fresh(cfg, rows=1, cols=3, initial="center")


class TestInputGateVoltage:
    """The row's input conversion: ``gate_voltage`` at the peripheral cell,
    as ``multiply`` applies it."""

    def test_identity_at_prefactor(self):
        v_th = CFG.calibration.v_th_center
        assert gate_voltage(1e-8, v_th, CFG.n, 1e-8, 298.15) == v_th

    def test_follows_config_n_and_i0(self):
        cfg = replace(CFG, n_slope=5.07, i0=2e-3)
        array = input_array(cfg)
        array.v_th[0, 1] += 0.05
        v_gate = gate_voltage(1e-8, array.v_th[0, 0], cfg.n, cfg.i0, 320.0)
        want = subthreshold_current(v_gate, array.v_th[0, 1], cfg.n, cfg.i0, 320.0, cfg.i_sat)
        assert multiply(array, [1e-8], temperature=320.0)[0] == want

    def test_roundtrip_through_forward_model(self):
        # oracle: feeding the voltage back into the readout law recovers
        # the requested current
        rng = np.random.default_rng(101)
        cal = CFG.calibration
        lo, hi = CFG.current_window
        for _ in range(100):
            vth = cal.v_th_min + rng.random() * cal.window_width
            cell = fresh_cell(CFG, seed=int(rng.integers(2**62)), v_th=vth)
            current = lo * (hi / lo) ** rng.random()
            v = float(gate_voltage(current, cell.v_th, CFG.n, CFG.i0, 298.15))
            bias = BiasCondition(2.5, v, 1.0, 0.0, 0.0)
            back = drain_current(cell, bias, 298.15, CFG)
            assert abs(back / current - 1.0) < 1e-12

    def test_decade_step_295_8_mv(self):
        v1 = gate_voltage(1e-9, 4.0, 5.0, CFG.i0, 298.15)
        v2 = gate_voltage(1e-8, 4.0, 5.0, CFG.i0, 298.15)
        assert v2 - v1 == pytest.approx(0.295797, abs=1e-5)

    def test_window_enforced(self):
        with pytest.raises(ValueError, match="window"):
            multiply(input_array(), [1e-5])
        with pytest.raises(ValueError, match="window"):
            multiply(input_array(), [1e-11])

    @pytest.mark.parametrize("t", [math.nan, math.inf, 200.0, 450.0])
    def test_temperature_outside_model_window_rejected(self, t):
        with pytest.raises(ValueError, match="temperature"):
            multiply(input_array(), [1e-8], temperature=t)


class TestWeightOf:
    def test_equal_thresholds_give_unity_any_temperature(self):
        a = CellState(4.1, 1)
        p = CellState(4.1, 2)
        for t in (260.0, 298.15, 358.15, 395.0):
            assert weight_of(a, p, t) == 1.0

    def test_half_weight_offset(self):
        # oracle: dv for w = 0.5 is -n kB T ln 2 / q, about -89.0 mV
        dv = -5.0 * thermal_voltage(298.15) * math.log(2.0)
        assert dv == pytest.approx(-0.08904, abs=2e-5)
        cfg = ModelConfig(n_slope=5.0)
        p = CellState(4.0, 1)
        a = CellState(4.0 - dv, 2)
        assert weight_of(a, p, 298.15, cfg) == pytest.approx(0.5, rel=1e-12)

    def test_temperature_scaling_law(self):
        p = CellState(4.0, 1)
        a = CellState(4.2, 2)
        w1 = weight_of(a, p, T_25C)
        w2 = weight_of(a, p, T_85C)
        assert math.log(w2) == pytest.approx(math.log(w1) * T_25C / T_85C, rel=1e-6)
        assert w2 == pytest.approx(weight_at_temperature(w1, T_25C, T_85C), rel=1e-12)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((math.nan, 300.0, 320.0), "w_ref"),
            ((0.0, 300.0, 320.0), "w_ref"),
            ((0.5, math.nan, 320.0), "t_ref"),
            ((0.5, 300.0, math.inf), "t"),
        ],
    )
    def test_weight_at_temperature_rejects_bad_input(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            weight_at_temperature(*args)

    @pytest.mark.parametrize("t", [math.nan, math.inf, 200.0, 450.0])
    def test_temperature_outside_model_window_rejected(self, t):
        with pytest.raises(ValueError, match="temperature"):
            weight_of(CellState(4.2, 1), CellState(4.0, 2), t)


class TestMultiply:
    def test_unity_mirror(self):
        array = centered_array(rows=1, cols=3)
        set_weights(array, np.array([[1.0]]))
        out = multiply(array, [3.3e-9])
        assert out[0] == pytest.approx(3.3e-9, rel=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        array = centered_array(rows=5, cols=7)
        weights = 10 ** rng.uniform(-1.5, 0, size=(5, 5))
        set_weights(array, weights)
        inputs = 10 ** rng.uniform(-9.5, -7, size=5)
        out = multiply(array, inputs)
        oracle = np.array(
            [
                [
                    weight_of(
                        array.cell_at(r, c),
                        array.cell_at(r, array.peripheral_col_for_row(r)),
                        CFG.temperature_ref,
                    )
                    for c in array.array_cols
                ]
                for r in range(5)
            ]
        ).T @ inputs
        np.testing.assert_allclose(out, oracle, rtol=1e-9)

    def test_superposition(self):
        array = centered_array(rows=3, cols=5)
        set_weights(array, np.array([[0.5, 0.2, 0.8], [1.0, 0.3, 0.1], [0.25, 0.6, 0.9]]))
        i1 = np.array([1e-9, 5e-9, 2e-9])
        i2 = np.array([4e-9, 1e-9, 8e-9])
        a, b = 0.25, 1.5
        lhs = multiply(array, a * i1 + b * i2)
        rhs = a * multiply(array, i1) + b * multiply(array, i2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_untuned_peripherals_rejected(self):
        array = ArrayState.fresh(CFG, rows=2, cols=4)  # at the programmed bound
        with pytest.raises(ValueError, match="untuned"):
            multiply(array, [1e-9, 1e-9])

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_v_th_outside_window_names_the_cell(self, noisy):
        # NaN, +-inf or a finite v_th past the window used to read NaN, an
        # off cell or a saturated one; the first such cell is named
        cal = CFG.calibration
        read = dict(noisy=noisy, samples=4)
        for bad in (math.nan, math.inf, -math.inf, cal.v_th_max + 0.1, cal.v_th_min - 0.1):
            array = centered_array(rows=2, cols=5)
            set_weights(array, np.full((2, 3), 0.5))
            array.v_th[0, 2] = array.v_th[1, 3] = bad
            state = array.measure_rng.bit_generator.state
            message = rf"^cell \(0, 2\): v_th {re.escape(repr(bad))} outside \[.*\] V$"
            with pytest.raises(ValueError, match=message):
                multiply(array, [1e-8, 2e-8], **read)
            with pytest.raises(ValueError, match=message):
                multiply(array, [[1e-8, 2e-8]] * 3, temperature=[T_25C, 320.0, T_85C], **read)
            assert array.measure_rng.bit_generator.state == state
        array = centered_array(rows=2, cols=5)
        set_weights(array, np.full((2, 3), 0.5))
        array.v_th[1, 3], array.v_th[0, 2] = cal.v_th_max, cal.v_th_min  # both bounds read
        assert np.isfinite(multiply(array, [1e-8, 2e-8], **read)).all()
        array.v_th[1, 4] = math.nan  # a peripheral cell is a cell too
        with pytest.raises(ValueError, match=r"^cell \(1, 4\): v_th nan outside"):
            multiply(array, [1e-8, 2e-8], **read)

    def test_input_validation(self):
        array = centered_array(rows=2, cols=4)
        set_weights(array, np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="expected 2"):
            multiply(array, [1e-9])
        with pytest.raises(ValueError, match="window"):
            multiply(array, [1e-9, 1e-5])

    def test_temperature_outside_model_window_rejected(self):
        array = centered_array(rows=2, cols=4)
        set_weights(array, np.full((2, 2), 0.5))
        for t in (1000.0, 100.0, float("nan")):
            with pytest.raises(ValueError, match="temperature"):
                multiply(array, [1e-9, 1e-9], temperature=t)

    def test_noisy_needs_a_sample(self):
        array = centered_array(rows=2, cols=4)
        set_weights(array, np.full((2, 2), 0.5))
        for samples in (0, 2.5, True, np.float64(4.0)):
            with pytest.raises(ValueError, match="samples"):
                multiply(array, [1e-9, 1e-9], noisy=True, samples=samples)

    def test_nan_input_rejected(self):
        array = centered_array(rows=2, cols=4)
        set_weights(array, np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="window"):
            multiply(array, [1e-9, float("nan")])

    def test_noisy_deterministic_under_seeded_rng(self):
        # two arrays built from the same config seed read the same noise
        arrays = [centered_array(rows=2, cols=4) for _ in range(2)]
        for array in arrays:
            set_weights(array, np.full((2, 2), 0.5))
        inputs = [1e-8, 2e-8]
        a, b = (multiply(array, inputs, noisy=True, samples=4) for array in arrays)
        np.testing.assert_array_equal(a, b)
        c = multiply(arrays[0], inputs)
        assert not np.array_equal(a, c)


class TestBiasWeightOptimization:
    def test_zero_weight_midrange(self):
        w_b, drift = optimize_bias_weight(0.0, (T_25C, T_85C))
        assert (w_b, drift) == (0.5, 0.0)

    def test_matches_bruteforce_scan(self):
        # the fine scan is the oracle for the scan+golden-section path
        w = 0.5
        grid = np.arange(0.26, 0.75, 1e-4)
        drifts = [differential_drift(x + w / 2, x - w / 2, (T_25C, T_85C)) for x in grid]
        brute_wb = grid[int(np.argmin(drifts))]
        brute_drift = min(drifts)
        w_b, drift = optimize_bias_weight(w, (T_25C, T_85C))
        assert w_b == pytest.approx(brute_wb, abs=2e-4)
        assert drift == pytest.approx(brute_drift, rel=1e-2)
        assert drift < 0.01

    def test_grid_beats_single_ended_below_1pct(self):
        for w in np.round(np.arange(0.1, 0.95, 0.1), 2):
            w_b, drift = optimize_bias_weight(float(w), (T_25C, T_85C))
            assert drift < 0.01, w
            # single-ended drift of the same weight is strictly larger
            single = max(
                abs(weight_at_temperature(float(w), T_25C, t) / w - 1.0)
                for t in np.arange(T_25C, T_85C + 0.5, 1.0)
            )
            assert single > drift

    def test_approximate_stationarity_at_reference(self):
        # the interval-minimax optimum nearly zeroes the reference-point
        # derivative, whose magnitude scales with the first-order residual
        # w+ ln w+ - w- ln w-
        def residual(w, w_b):
            wp, wm = w_b + w / 2, w_b - w / 2
            return wp * math.log(wp) - wm * math.log(wm)

        def slope_at(w, w_b):
            def out(t):
                return math.exp(math.log(w_b + w / 2) * T_25C / t) - math.exp(
                    math.log(w_b - w / 2) * T_25C / t
                )

            return abs((out(T_25C + 0.1) - out(T_25C - 0.1)) / 0.2)

        for w in np.round(np.arange(0.1, 0.95, 0.1), 2):
            w = float(w)
            w_b, _ = optimize_bias_weight(w, (T_25C, T_85C))
            lo, hi = w / 2 + 0.011, 1 - w / 2
            # residual at the optimum is a small fraction of its edge scale
            edge_scale = max(abs(residual(w, lo)), abs(residual(w, hi)))
            assert abs(residual(w, w_b)) <= 0.15 * edge_scale
            # and the reference-point slope beats the worse +-0.05 neighbor
            probes = [
                min(max(w_b + d, lo), hi)
                for d in (-0.05, 0.05)
                if abs(min(max(w_b + d, lo), hi) - w_b) > 1e-6
            ]
            assert slope_at(w, w_b) < max(slope_at(w, p) for p in probes)

    def test_infeasible_weight_rejected(self):
        with pytest.raises(ValueError):
            optimize_bias_weight(1.0, (T_25C, T_85C))
        with pytest.raises(ValueError, match="feasible"):
            optimize_bias_weight(0.999, (T_25C, T_85C))

    @pytest.mark.parametrize(
        "pair", [(0.5, 0.5), (0.4, 0.5), (0.5, 0.0), (0.5, -0.1), (math.nan, 0.2), (0.5, math.nan)]
    )
    def test_drift_needs_w_plus_above_positive_w_minus(self, pair):
        # w+ == w- used to return NaN with only a RuntimeWarning; a w- that
        # is not finite and positive is refused under its own name
        field = "w_plus" if pair[1] > 0 else "w_minus"
        with pytest.raises(ValueError, match=f"^{field} "):
            differential_drift(*pair, (T_25C, T_85C))

    @pytest.mark.parametrize("w", [W_MIN / 10, 1e-11, 1e-15, 1e-17])
    def test_weight_below_w_min_infeasible(self, w):
        # w_b +- w/2 no longer holds w: at 1e-15 the optimizer reported a
        # drift of 0.111, and at 1e-17 planned w+ == w- with drift 2.0
        with pytest.raises(ValueError, match="no feasible bias weight"):
            optimize_bias_weight(w, (T_25C, T_85C))
        array = centered_array(rows=1, cols=4)
        with pytest.raises(PlanInfeasibleError) as info:
            plan_differential([[w]], (T_25C, T_85C), array)
        assert info.value.entries == [(0, 0)]

    def test_small_weights_keep_the_optimum(self):
        # down to W_MIN the optimized drift stays at its small-w limit
        for w in [10.0**-k for k in range(3, 10)] + [W_MIN]:
            w_b, drift = optimize_bias_weight(w, (T_25C, T_85C))
            assert drift == pytest.approx(0.0028544, abs=1e-7), w
            assert w_b == pytest.approx(0.340474, abs=1e-6), w

    def test_golden_section_helper(self):
        x, fx = golden_section_min(lambda x: (x - 2.0) ** 2 + 1.0, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-5)
        assert fx == pytest.approx(1.0, abs=1e-9)


class TestSingleEndedTargets:
    def test_peripherals_first_then_weights_row_major(self):
        array = centered_array(rows=2, cols=4)
        i_ref = reference_current(CFG)
        targets = WeightMatrix([[0.5, 0.25], [1.0, 0.125]]).tune_targets(array, 0.01)
        assert [(t.row, t.col, t.target_current) for t in targets] == [
            (0, 0, i_ref), (1, 3, i_ref),
            (0, 1, i_ref * 0.5), (0, 2, i_ref * 0.25), (1, 1, i_ref), (1, 2, i_ref * 0.125),
        ]
        assert {t.precision for t in targets} == {0.01}

    def test_shape_must_fit_the_array(self):
        with pytest.raises(ValueError, match="do not fit"):
            WeightMatrix([[0.5, 0.25, 0.1]]).tune_targets(centered_array(rows=1, cols=4), 0.01)


class TestDifferentialPlan:
    def test_pair_split_exact(self):
        array = centered_array(rows=1, cols=4)
        plan = plan_differential(np.array([[0.5]]), (T_25C, T_85C), array)
        assert plan.w_plus[0, 0] - plan.w_minus[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert 0.0 < plan.w_minus[0, 0] <= plan.w_plus[0, 0] <= 1.0
        assert plan.column_pairs == [(1, 2)]

    def test_targets_inside_window(self):
        array = centered_array(rows=3, cols=8)
        weights = np.array([[0.1, 0.5, 0.9]] * 3)
        plan = plan_differential(weights, (T_25C, T_85C), array)
        lo, hi = CFG.current_window
        for arr in (plan.target_plus, plan.target_minus):
            assert np.all((arr >= lo) & (arr <= hi))
        targets = plan.tune_targets(array, 0.01)
        # peripherals once per row plus a pair per logical weight
        assert len(targets) == 3 + 2 * weights.size

    def test_infeasible_entries_listed(self):
        array = centered_array(rows=2, cols=6)
        weights = np.array([[0.5, 1.0], [0.999, 0.2]])
        with pytest.raises(PlanInfeasibleError) as err:
            plan_differential(weights, (T_25C, T_85C), array)
        assert set(err.value.entries) == {(0, 1), (1, 0)}

    def test_roundtrip_plan_tune_multiply(self):
        # end-to-end oracle: noiseless, deterministic pulses, tight precision
        cfg = QUIET_CFG
        array = ArrayState.fresh(cfg, rows=2, cols=6, initial="center")
        weights = np.array([[0.5, 0.3], [0.7, 0.2]])
        plan = plan_differential(weights, (T_25C, T_85C), array)
        results, summary = tune_array(array, plan.tune_targets(array, 0.002), budget=200)
        assert summary["converged"] == summary["targets"]
        inputs = np.array([5e-8, 1e-8])
        out = differential_multiply(array, plan, inputs)
        ideal = weights.T @ inputs
        np.testing.assert_allclose(out, ideal, rtol=5e-3)

    def test_zero_weight_pair_cancels_exactly(self):
        array = centered_array(rows=2, cols=4)
        set_weights(array, np.array([[0.4, 0.4], [0.6, 0.6]]))
        plan = DifferentialWeightPlan(
            weights=np.zeros((2, 1)),
            w_b=np.full((2, 1), 0.5),
            w_plus=np.array([[0.4], [0.6]]),
            w_minus=np.array([[0.4], [0.6]]),
            predicted_drift=np.zeros((2, 1)),
            column_pairs=[(1, 2)],
            target_plus=I_REF * np.array([[0.4], [0.6]]),
            target_minus=I_REF * np.array([[0.4], [0.6]]),
            peripheral_target=I_REF,
            temp_range=(T_25C, T_85C),
        )
        for t in (T_25C, 320.0, T_85C):
            out = differential_multiply(array, plan, [1e-8, 1e-8], temperature=t)
            assert out[0] == 0.0

    def test_plan_array_mismatch(self):
        array = centered_array(rows=2, cols=4)
        other = centered_array(rows=3, cols=4)
        plan = plan_differential(np.full((2, 1), 0.5), (T_25C, T_85C), array)
        with pytest.raises(ValueError, match="rows"):
            differential_multiply(other, plan, [1e-8, 1e-8, 1e-8])

    @pytest.mark.parametrize(
        "pair", [(0, 2), (1, 3), (1, 4), (7, 2), (-1, 2)],
        ids=["peripheral_left", "peripheral_right", "past_end", "far_past_end", "negative"],
    )
    def test_plan_pair_outside_array_columns(self, pair):
        # a 2x4 array has peripheral columns 0 and 3 and array columns 1 and 2
        array = centered_array(rows=2, cols=4)
        plan = plan_differential(np.full((2, 1), 0.5), (T_25C, T_85C), array)
        assert plan.column_pairs == [(1, 2)]
        plan = replace(plan, column_pairs=[(1, 2), pair])
        state = array.measure_rng.bit_generator.state
        message = rf"^plan pair \({pair[0]}, {pair[1]}\) not among array columns$"
        with pytest.raises(ValueError, match=message):
            differential_multiply(array, plan, [1e-8, 1e-8], noisy=True)
        assert array.measure_rng.bit_generator.state == state  # checked before any draw

    def test_weight_matrix_validation(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.array([[0.5, 0.0]]))  # zero not allowed
        with pytest.raises(ValueError):
            WeightMatrix(np.array([[0.5, 1.2]]))
        with pytest.raises(ValueError):
            WeightMatrix(np.array([0.5]))  # not 2-D

    def test_weights_csv_loader(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("# weights\n0.5,0.25\n0.8,0.4\n")
        wm = WeightMatrix(read_matrix_csv(path))
        np.testing.assert_array_equal(wm.values, [[0.5, 0.25], [0.8, 0.4]])


def test_weight_tuning_faithfulness():
    # tuned at precision p, realized mirror ratios sit within p plus the
    # averaged readout noise floor of the deciding read
    array = ArrayState.fresh(CFG, rows=2, cols=6, initial="center")
    weights = np.array([[0.5, 0.3], [0.7, 0.2]])
    plan = plan_differential(weights, (T_25C, T_85C), array)
    precision = 0.01
    results, summary = tune_array(array, plan.tune_targets(array, precision), budget=200)
    assert summary["converged"] == summary["targets"]
    for m, (cp, cm) in enumerate(plan.column_pairs):
        for r in range(2):
            per = array.cell_at(r, array.peripheral_col_for_row(r))
            for col, target in ((cp, plan.w_plus[r, m]), (cm, plan.w_minus[r, m])):
                realized = weight_of(array.cell_at(r, col), per, CFG.temperature_ref)
                sigma_floor = CFG.noise.sigma_at(
                    target * reference_current(CFG)
                ) / math.sqrt(128)
                # peripheral and cell errors compound: 2p plus read noise
                assert abs(realized / target - 1.0) <= 2 * precision + 4 * sigma_floor
