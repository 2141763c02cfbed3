"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Each test also enforces its runtime budget.
"""

import math
import time

import numpy as np

from flashvmm.array import ArrayState
from flashvmm.cell import (
    READOUT_BIAS,
    BiasCondition,
    PulseSpec,
    apply_pulse,
    drain_current,
    fresh_cell,
    readout_noisy,
    standard_current,
    subthreshold_current,
    vth_for_standard_current,
)
from flashvmm.config import DEFAULT_CONFIG
from flashvmm.constants import K_B, Q_E, T_25C, T_85C
from flashvmm.experiments import ExperimentSpec, run_experiment
from flashvmm.tuning import ramp_targets, tune_array
from flashvmm.vmm import multiply, optimize_bias_weight, weight_of

CFG = DEFAULT_CONFIG


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s over the {self.budget}s budget"
            )


def test_criterion_1_slope_factor_fidelity():
    with Stopwatch(1.0) as sw:
        cal = CFG.calibration
        t = CFG.temperature_ref
        sweep = np.arange(1.2, 3.3, 0.02)
        extracted = []
        for vth in np.linspace(cal.v_th_min, cal.v_th_max, 15):
            cur = subthreshold_current(sweep, vth, CFG.n, CFG.i0, t, CFG.i_sat)
            band = (cur >= 1.0e-10) & (cur <= 3.0e-8)
            slope = np.polyfit(sweep[band], np.log(cur[band]), 1)[0]
            extracted.append(Q_E / (slope * K_B * t))
        extracted = np.array(extracted)
        assert np.all((extracted >= 5.0) & (extracted <= 5.1))
        dev = np.max(np.abs(extracted / CFG.n - 1.0))
        assert dev < 0.005
    report(
        1,
        f"15-state semi-log family: n in [{extracted.min():.4f}, "
        f"{extracted.max():.4f}], max deviation {dev:.1e}, {sw.elapsed:.2f}s",
    )


def test_criterion_2_inhibition_property():
    with Stopwatch(10.0) as sw:
        rng = np.random.default_rng(20260809)
        cal = CFG.calibration
        margin = 0.05 * cal.window_width
        worst = 0.0
        for _ in range(1000):
            vth = cal.v_th_min + margin + rng.random() * (cal.window_width - 2 * margin)
            cell = fresh_cell(CFG, seed=int(rng.integers(2**62)), v_th=vth)
            before = standard_current(vth, CFG)

            # program half-select: raised bit line, negative EG-to-BL
            v_d = 2.25 + 0.75 * rng.random()
            bias = BiasCondition(v_wl=1.0, v_cg=0.0, v_d=v_d, v_s=4.5, v_eg=0.0)
            after = apply_pulse(cell, PulseSpec.program(CFG), bias, CFG)
            worst = max(worst, abs(standard_current(after.v_th, CFG) / before - 1.0))

            # erase half-select: +8 V coupling gate during the 11.5 V pulse
            bias = BiasCondition(v_wl=0.0, v_cg=8.0, v_d=0.0, v_s=0.0, v_eg=11.5)
            after = apply_pulse(cell, PulseSpec.erase(CFG), bias, CFG)
            worst = max(worst, abs(standard_current(after.v_th, CFG) / before - 1.0))
        assert worst < 0.01
    report(
        2,
        f"1000 random states, program+erase half-select: worst per-pulse "
        f"|dI/I| = {worst:.2e} (< 1%), {sw.elapsed:.2f}s",
    )


def test_criterion_3_noise_envelope():
    with Stopwatch(5.0) as sw:
        rng = np.random.default_rng(31416)
        results = {}
        for level in (1.0e-10, 1.0e-8, 1.0e-7):
            cell = fresh_cell(CFG, seed=99, v_th=vth_for_standard_current(level, CFG))
            reads = np.array(
                [
                    readout_noisy(cell, READOUT_BIAS, T_25C, 1, rng=rng, cfg=CFG)
                    for _ in range(10_000)
                ]
            )
            results[level] = (reads / level - 1.0).std()
        assert abs(results[1.0e-10] - 0.04) <= 0.005
        assert results[1.0e-8] <= 0.01
        assert results[1.0e-7] <= 0.01
    report(
        3,
        f"single-sample r.m.s.: {results[1e-10]*100:.2f}% @100 pA (4+-0.5%), "
        f"{results[1e-8]*100:.2f}% @10 nA, {results[1e-7]*100:.2f}% @100 nA "
        f"(<=1%), {sw.elapsed:.2f}s",
    )


def test_criterion_4_temperature_law():
    cell = fresh_cell(CFG, seed=0, v_th=vth_for_standard_current(1.0e-9, CFG))
    i25 = drain_current(cell, READOUT_BIAS, T_25C, CFG)
    i85 = drain_current(cell, READOUT_BIAS, T_85C, CFG)
    ratio = i85 / i25
    assert ratio > 10.0
    lhs = math.log(i85 / CFG.i0)
    rhs = math.log(i25 / CFG.i0) * (T_25C / T_85C)
    assert abs(lhs / rhs - 1.0) < 1e-9
    report(
        4,
        f"I(85C)/I(25C) = {ratio:.3f} at 1 nA (>10); scaling identity to "
        f"{abs(lhs / rhs - 1.0):.1e}",
    )


def test_criterion_5_tuning_campaign():
    with Stopwatch(60.0) as sw:
        array = ArrayState.fresh(CFG)  # pinned seed from the default config
        targets = ramp_targets(array, 1.0e-10, 1.0e-6, 0.05)
        results, summary = tune_array(array, targets, budget=100)
        assert summary["converged"] == 100
        errs = np.array([r.relative_error for r in results])
        tgts = np.array([r.target_current for r in results])
        assert errs[tgts >= 1.0e-9].max() <= 0.05
        assert errs[tgts < 1.0e-9].max() <= 0.12
    report(
        5,
        f"100-cell geometric ramp: {summary['converged']}/100 converged, "
        f"errors {errs[tgts >= 1e-9].max()*100:.2f}% (>=1 nA) / "
        f"{errs[tgts < 1e-9].max()*100:.2f}% (sub-nA), "
        f"{summary['pulses_total']} pulses, {sw.elapsed:.1f}s",
    )


def test_criterion_6_multiply_demo(tmp_path):
    with Stopwatch(30.0) as sw:
        summary = run_experiment(
            ExperimentSpec("fig10", cfg=CFG, output_dir=tmp_path)
        )
        assert summary["max_rel_error"] <= 0.02
    report(
        6,
        f"4-weight sine-input multiply: max relative error "
        f"{summary['max_rel_error']*100:.2f}% (<= 2%), {sw.elapsed:.1f}s",
    )


def test_criterion_7_differential_drift(tmp_path):
    with Stopwatch(30.0) as sw:
        analytic = []
        for w in np.round(np.arange(0.1, 0.95, 0.1), 2):
            _, drift = optimize_bias_weight(float(w), (T_25C, T_85C))
            analytic.append(drift)
        assert max(analytic) < 0.01
        summary = run_experiment(
            ExperimentSpec("fig11", cfg=CFG, output_dir=tmp_path)
        )
        assert summary["max_measured_drift"] <= 0.027
    report(
        7,
        f"optimized bias weights: analytic drift <= {max(analytic)*100:.2f}% "
        f"(< 1%), noisy 100 nA reproduction within "
        f"{summary['max_measured_drift']*100:.2f}% (<= 2.7%), {sw.elapsed:.1f}s",
    )


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(1, 11))
        cols = int(rng.integers(1, 11))
        array = ArrayState.fresh(CFG, rows=rows, cols=cols + 2, initial="center")
        i_ref = math.sqrt(CFG.current_window[0] * CFG.current_window[1])
        weights = 10 ** rng.uniform(-1.5, 0.0, size=(rows, cols))
        for r in range(rows):
            array.set_cell_current(r, array.peripheral_col_for_row(r), i_ref)
            for k, c in enumerate(array.array_cols):
                array.set_cell_current(r, c, i_ref * weights[r, k])
        inputs = 10 ** rng.uniform(-9.5, -7.0, size=rows)
        out = multiply(array, inputs)
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
        worst = max(worst, float(np.max(np.abs(out / (dense.T @ inputs) - 1.0))))
    assert worst < 1e-9
    report(8, f"50 random instances up to 10x10: worst deviation {worst:.1e} (< 1e-9)")


def test_criterion_9_desk_scale_exclusions():
    # real-time retention bakes, silicon measurements and bandwidth/energy
    # figures are out of scope by design; their stand-ins are the retention
    # envelope (criterion 3 / fig5), the noise and disturb property suites
    # (criteria 2-3) and the analytic temperature laws (criteria 4 and 7)
    report(
        9,
        "excluded-by-design items documented; property suites substitute for "
        "wall-clock retention and hardware measurements",
    )
