import math
from dataclasses import replace

import numpy as np
import pytest

from flashvmm.cell import (
    READOUT_BIAS,
    BiasCondition,
    CellState,
    PulseKind,
    PulseSpec,
    apply_pulse,
    drain_current,
    fresh_cell,
    readout,
    retention_hold,
    standard_current,
    subthreshold_current,
    vth_for_standard_current,
)
from flashvmm.config import DEFAULT_CONFIG, ModelConfig, NoiseParams
from flashvmm.constants import K_B, Q_E, thermal_voltage

CFG = DEFAULT_CONFIG
QUIET_CFG = ModelConfig(
    noise=NoiseParams(sigma_low=0.0, sigma_high=0.0),
    pulse=replace(ModelConfig().pulse, variability_sigma=0.0),
)


def small_current(v_cg, t, v_th=4.0, n=5.0, i0=1e-9):
    """Current of a cell with i0 below the saturation clamp, for identity checks."""
    return subthreshold_current(v_cg, v_th, n, i0, t, CFG.i_sat)


def mid_cell(cfg=CFG, seed=2):
    return fresh_cell(cfg, seed=seed, v_th=cfg.calibration.v_th_center)


def bias_with_vcg(v_cg):
    return BiasCondition(2.5, v_cg, 1.0, 0.0, 0.0)


class TestDrainCurrent:
    def test_identity_at_zero_overdrive(self):
        # v_cg = v_th makes the exponent zero at any temperature
        for t in (250.0, 298.15, 358.15, 400.0):
            assert small_current(4.0, t) == 1e-9

    def test_decade_per_295_8_mv(self):
        # independent oracle: dv for one decade is n kB T ln(10) / q
        t, n = 298.15, 5.0
        dv = n * K_B * t * math.log(10.0) / Q_E
        assert dv == pytest.approx(0.295797, abs=1e-5)
        i1 = small_current(3.0, t, n=n)
        i2 = small_current(3.0 + dv, t, n=n)
        assert i2 / i1 == pytest.approx(10.0, rel=1e-9)

    def test_semilog_slope_matches_configured_n(self):
        t = 298.15
        v = np.linspace(2.0, 3.0, 9)
        cur = [small_current(x, t, n=5.05) for x in v]
        slope = np.polyfit(v, np.log(cur), 1)[0]
        assert slope == pytest.approx(Q_E / (5.05 * K_B * t), rel=1e-9)

    def test_drain_current_follows_config_n_and_i0(self):
        # drain_current is the subthreshold law at the config's n and i0
        cell = fresh_cell(CFG, v_th=CFG.calibration.v_th_center)
        t = 298.15
        for v in np.linspace(2.0, 3.0, 9):
            want = subthreshold_current(float(v), cell.v_th, CFG.n, CFG.i0, t, CFG.i_sat)
            assert drain_current(cell, bias_with_vcg(float(v)), t, CFG) == want

    def test_temperature_scaling_identity(self):
        t1, t2 = 298.15, 358.15
        i1 = small_current(2.0, t1)
        i2 = small_current(2.0, t2)
        lhs = math.log(i2 / 1e-9)
        rhs = math.log(i1 / 1e-9) * (t1 / t2)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_monotone_in_gate_voltage_and_temperature(self):
        t = 300.0
        currents = [small_current(float(v), t) for v in np.linspace(1.5, 3.5, 21)]
        assert all(a < b for a, b in zip(currents, currents[1:]))
        # below threshold, warming raises the current
        by_t = [small_current(2.5, float(tt)) for tt in np.linspace(260.0, 390.0, 14)]
        assert all(a < b for a, b in zip(by_t, by_t[1:]))

    def test_saturation_clamp(self):
        cell = fresh_cell(CFG, v_th=CFG.calibration.v_th_min)
        hot = drain_current(cell, bias_with_vcg(4.5), 298.15, CFG)
        assert hot == CFG.i_sat

    def test_word_line_off_gives_zero(self):
        cell = mid_cell()
        off = BiasCondition(0.5, 2.5, 1.0, 0.0, 0.0)
        assert drain_current(cell, off, 298.15, CFG) == 0.0

    def test_temperature_bounds(self):
        cell = mid_cell()
        for t in (200.0, 450.0):
            with pytest.raises(ValueError, match="temperature"):
                drain_current(cell, READOUT_BIAS, t, CFG)

    def test_bias_validation(self):
        with pytest.raises(ValueError):
            BiasCondition(2.5, float("nan"), 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            BiasCondition(2.5, 2.5, 1.0, 0.0, 12.5)


class TestNoisyReadout:
    def test_zero_noise_equals_deterministic(self):
        # the noise envelope is the config's
        cell = CellState(4.0, rng_seed=3)
        ideal = drain_current(cell, READOUT_BIAS, 298.15, QUIET_CFG)
        rng = np.random.default_rng(3)
        assert readout(cell.v_th, READOUT_BIAS, 298.15, QUIET_CFG, 16, rng) == ideal
        assert readout(cell.v_th, READOUT_BIAS, 298.15, CFG, 16, rng) != ideal

    def test_averaging_tightens_spread_by_sqrt_samples(self):
        # i.i.d. averaging oracle: the 128-sample mean has ~sqrt(128)
        # less relative spread than single samples
        cell = fresh_cell(CFG, seed=5, v_th=vth_for_standard_current(1e-10, CFG))
        rng = np.random.default_rng(42)
        singles = np.array(
            [readout(cell.v_th, READOUT_BIAS, 298.15, CFG, 1, rng) for _ in range(3000)]
        )
        means = np.array(
            [readout(cell.v_th, READOUT_BIAS, 298.15, CFG, 128, rng) for _ in range(3000)]
        )
        ratio = singles.std() / means.std()
        assert ratio == pytest.approx(math.sqrt(128.0), rel=0.15)

    def test_requires_at_least_one_sample(self):
        with pytest.raises(ValueError):
            readout(mid_cell().v_th, READOUT_BIAS, 298.15, CFG, 0, np.random.default_rng(0))


def full_select_program():
    return BiasCondition(v_wl=1.0, v_cg=0.0, v_d=0.5, v_s=4.5, v_eg=4.5)


def full_select_erase():
    return BiasCondition(v_wl=0.0, v_cg=0.0, v_d=0.0, v_s=0.0, v_eg=11.5)


class TestPulses:
    def test_zero_duration_is_identity(self):
        cell = mid_cell()
        pulse = PulseSpec(PulseKind.PROGRAM, 4.5, 0.0)
        assert apply_pulse(cell, pulse, full_select_program(), CFG) is cell
        pulse = PulseSpec(PulseKind.ERASE, 11.5, 0.0)
        assert apply_pulse(cell, pulse, full_select_erase(), CFG) is cell

    def test_string_kind_is_rejected_not_applied_as_an_erase(self):
        # PulseSpec("program", ...) used to build and then erase the cell
        cell = mid_cell()
        with pytest.raises(ValueError, match="^kind must be a PulseKind, got 'program'"):
            apply_pulse(cell, PulseSpec("program", 4.5, 1e-5), full_select_program(), CFG)
        programmed = apply_pulse(
            cell, PulseSpec(PulseKind.PROGRAM, 4.5, 1e-5), full_select_program(), CFG
        )
        assert programmed.v_th > cell.v_th

    @pytest.mark.parametrize("field", ["duration", "amplitude"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_pulse_rejected(self, field, value):
        # a NaN duration used to pass and turn every v_th of an array to NaN
        args = {"amplitude": 4.5, "duration": 1e-5, field: value}
        with pytest.raises(ValueError, match=field):
            PulseSpec(PulseKind.PROGRAM, **args)

    def test_nominal_program_factor_matches_calibration(self):
        # with variability off, one nominal pulse scales the current by
        # exp(-q dv / (n kB T)) exactly
        cfg = QUIET_CFG
        cell = fresh_cell(cfg, v_th=cfg.calibration.v_th_center)
        before = standard_current(cell.v_th, cfg)
        after_cell = apply_pulse(cell, PulseSpec.program(cfg), full_select_program(), cfg)
        after = standard_current(after_cell.v_th, cfg)
        expected = math.exp(
            -cfg.calibration.dv_program_nominal / (cfg.n * thermal_voltage(cfg.temperature_ref))
        )
        assert after / before == pytest.approx(expected, rel=1e-9)
        # calibrated to traverse the window in traversal_pulses steps
        assert expected == pytest.approx(
            (cfg.current_window[0] / cfg.current_window[1]) ** (1.0 / cfg.traversal_pulses),
            rel=1e-9,
        )
        assert 0.5 <= expected <= 0.9

    def test_erase_mirrors_program(self):
        cfg = QUIET_CFG
        cell = fresh_cell(cfg, v_th=cfg.calibration.v_th_center)
        after = apply_pulse(cell, PulseSpec.erase(cfg), full_select_erase(), cfg)
        assert after.v_th == pytest.approx(
            cell.v_th - cfg.calibration.dv_erase_nominal, rel=1e-12
        )

    def test_program_never_raises_current(self):
        rng = np.random.default_rng(7)
        cal = CFG.calibration
        for _ in range(200):
            vth = cal.v_th_min + rng.random() * cal.window_width
            cell = fresh_cell(CFG, seed=int(rng.integers(2**62)), v_th=vth)
            v_d = 0.5 + 2.5 * rng.random()
            bias = BiasCondition(1.0, 0.0, v_d, 4.5, 4.5)
            after = apply_pulse(cell, PulseSpec.program(CFG), bias, CFG)
            assert after.v_th >= cell.v_th
            assert cal.v_th_min <= after.v_th <= cal.v_th_max

    def test_half_select_program_disturb_below_1pct(self):
        cell = mid_cell()
        # drain raised to the inhibit level, erase-gate-to-bit-line negative
        bias = BiasCondition(v_wl=1.0, v_cg=0.0, v_d=2.25, v_s=4.5, v_eg=0.0)
        before = standard_current(cell.v_th, CFG)
        after = apply_pulse(cell, PulseSpec.program(CFG), bias, CFG)
        assert abs(standard_current(after.v_th, CFG) / before - 1.0) < 0.01

    def test_half_select_erase_disturb_below_1pct(self):
        cell = mid_cell()
        bias = BiasCondition(v_wl=0.0, v_cg=8.0, v_d=0.0, v_s=0.0, v_eg=11.5)
        before = standard_current(cell.v_th, CFG)
        after = apply_pulse(cell, PulseSpec.erase(CFG), bias, CFG)
        assert abs(standard_current(after.v_th, CFG) / before - 1.0) < 0.01

    def test_clamped_at_window_edges(self):
        cfg = QUIET_CFG
        cell = fresh_cell(cfg)  # programmed bound
        after = apply_pulse(cell, PulseSpec.program(cfg), full_select_program(), cfg)
        assert after.v_th == cfg.calibration.v_th_max

    def test_trajectory_is_seed_deterministic(self):
        def run(seed):
            cell = mid_cell(seed=seed)
            for k in range(10):
                if k % 2:
                    cell = apply_pulse(cell, PulseSpec.erase(CFG), full_select_erase(), CFG)
                else:
                    cell = apply_pulse(cell, PulseSpec.program(CFG), full_select_program(), CFG)
            return cell

        assert run(33) == run(33)
        assert run(33) != run(34)


class TestRetention:
    def test_zero_duration_identity(self):
        cell = mid_cell()
        assert retention_hold(cell, 0.0, 358.15, CFG) is cell

    def test_default_model_is_drift_free(self):
        cell = mid_cell()
        assert retention_hold(cell, 86400.0, 358.15, CFG) is cell

    def test_random_walk_bounded_by_noise_envelope(self):
        cfg = ModelConfig(retention=replace(ModelConfig().retention, random_walk=True))
        worst = 0.0
        for seed in range(50):
            cell = fresh_cell(cfg, seed=seed, v_th=vth_for_standard_current(1e-8, cfg))
            before = standard_current(cell.v_th, cfg)
            held = retention_hold(cell, 86400.0, 358.15, cfg)
            assert held.rng_count == cell.rng_count + 1
            worst = max(worst, abs(standard_current(held.v_th, cfg) / before - 1.0))
        # walk scale is one envelope sigma per day; 50 draws stay within ~4 sigma
        assert 0.0 < worst < 4.0 * cfg.noise.sigma_at(1e-8)

    @pytest.mark.parametrize("walk", [False, True])
    @pytest.mark.parametrize("duration", [-1.0, math.nan, math.inf])
    def test_bad_duration_rejected_naming_it(self, walk, duration):
        cfg = ModelConfig(retention=replace(ModelConfig().retention, random_walk=walk))
        with pytest.raises(ValueError, match=r"^duration must be"):
            retention_hold(mid_cell(cfg), duration, 358.15, cfg)


class TestStateHelpers:
    def test_vth_current_roundtrip(self):
        for target in (1e-10, 1e-9, 3.3e-8, 1e-6):
            vth = vth_for_standard_current(target, CFG)
            assert standard_current(vth, CFG) == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("v_th, name", [(math.nan, "v_th"), (math.inf, "v_th")])
    def test_standard_current_rejects_non_finite_input(self, v_th, name):
        with pytest.raises(ValueError, match=f"^{name}"):
            standard_current(v_th, CFG)

    def test_standard_current_helpers_read_at_temperature_ref(self):
        hot = replace(CFG, temperature_ref=358.15)
        v_th = vth_for_standard_current(1e-8, hot)
        ut = hot.n * thermal_voltage(358.15)
        assert v_th == pytest.approx(READOUT_BIAS.v_cg - ut * math.log(1e-8 / hot.i0), rel=1e-15)
        assert v_th != vth_for_standard_current(1e-8, CFG)
        assert standard_current(v_th, hot) == pytest.approx(1e-8, rel=1e-12)

    def test_cell_state_invariants(self):
        with pytest.raises(ValueError):
            CellState(float("inf"), 1)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected_naming_it(self, seed):
        # -1 used to fail inside numpy at the first pulse, 1.5 to become seed 1
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            fresh_cell(CFG, seed=seed)
        with pytest.raises(ValueError, match="^rng_seed must be an integer >= 0"):
            CellState(4.0, seed)
        assert fresh_cell(CFG, seed=np.int64(7)).rng_seed == 7

    @pytest.mark.parametrize("current", [1e-11, 1e-5])
    def test_vth_for_standard_current_checks_the_current_window(self, current):
        with pytest.raises(ValueError, match=r"^current must lie in the window \[1e-10, 1e-06\]"):
            vth_for_standard_current(current, CFG)

    def test_fresh_cell_checks_slope_factor(self):
        with pytest.raises(ValueError, match="n_slope"):
            fresh_cell(replace(CFG, n_slope=4.9))
