import math
from dataclasses import replace

import numpy as np
import pytest
import yaml

from flashvmm.array import ArrayState, _Kernel
from flashvmm.cell import PulseKind
from flashvmm.config import DEFAULT_CONFIG, ModelConfig, NoiseParams
from flashvmm.constants import thermal_voltage
from flashvmm.tuning import (
    TuneTarget,
    TuningCampaign,
    campaign_targets,
    load_campaign,
    ramp_targets,
    results_to_csv,
    run_campaign,
    tune_array,
    tune_cell,
    uniform_targets,
)

CFG = DEFAULT_CONFIG
QUIET_CFG = ModelConfig(
    noise=NoiseParams(sigma_low=0.0, sigma_high=0.0),
    pulse=replace(ModelConfig().pulse, variability_sigma=0.0),
)


class TestTuneCell:
    def test_already_within_precision_needs_no_pulses(self):
        array = ArrayState.fresh(CFG, rows=2, cols=3)
        array.set_cell_current(0, 1, 1e-8)
        res = tune_cell(array, TuneTarget(0, 1, 1e-8, 0.05), budget=10)
        assert res.converged
        assert res.pulses_total == 0
        assert res.relative_error <= 0.05

    def test_golden_erased_to_100na(self):
        # pinned on the default seed: 4 program pulses, 0.75% final error
        array = ArrayState.fresh(CFG, rows=4, cols=4, initial="erased")
        res = tune_cell(array, TuneTarget(1, 2, 1e-7, 0.05), budget=100)
        assert res.converged
        assert res.pulses_used == {"program": 4, "erase": 0}
        assert res.final_current == pytest.approx(1.0075130533528402e-07, rel=1e-12)

    def test_programmed_to_low_target_mostly_erases(self):
        array = ArrayState.fresh(CFG, rows=2, cols=3, initial="programmed")
        res = tune_cell(array, TuneTarget(1, 1, 1e-9, 0.05), budget=100)
        assert res.converged
        # overshoot corrections may program, but erase dominates
        assert res.pulses_used["erase"] > res.pulses_used["program"]

    def test_window_edge_targets_converge(self):
        for target in (1e-10, 1e-6):
            array = ArrayState.fresh(CFG, rows=2, cols=3, initial="center")
            res = tune_cell(array, TuneTarget(0, 0, target, 0.05), budget=100)
            assert res.converged, target

    def test_budget_exhaustion_returns_unconverged(self):
        array = ArrayState.fresh(CFG, rows=2, cols=3, initial="programmed")
        res = tune_cell(array, TuneTarget(0, 1, 1e-6, 0.05), budget=1)
        assert not res.converged
        assert res.pulses_total == 1
        assert res.relative_error > 0.05

    def test_direction_correctness(self, monkeypatch):
        array = ArrayState.fresh(CFG, rows=2, cols=3, initial="center")
        goal = 3.0e-9
        reads = []
        decisions = []
        # tune_cell pulses and reads through the kernel it opens per target
        pulse, read = _Kernel.pulse, _Kernel.read

        def spy_read(kernel, samples):
            value = read(kernel, samples)
            reads.append(value)
            return value

        def spy_pulse(kernel, kind, duration, amplitude):
            decisions.append((kind, reads[-1]))
            return pulse(kernel, kind, duration, amplitude)

        monkeypatch.setattr(_Kernel, "read", spy_read)
        monkeypatch.setattr(_Kernel, "pulse", spy_pulse)
        res = tune_cell(array, TuneTarget(0, 1, goal, 0.02), budget=100)
        assert res.converged and decisions
        for kind, last_read in decisions:
            if kind is PulseKind.PROGRAM:
                assert last_read > goal
            else:
                assert last_read < goal

    def test_monotone_progress_without_noise(self):
        array = ArrayState.fresh(QUIET_CFG, rows=2, cols=3, initial="erased")
        res = tune_cell(array, TuneTarget(0, 1, 1e-8, 0.01), budget=100)
        assert res.converged
        errors = [abs(math.log(i / 1e-8)) for _, i in res.trajectory]
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_tuned_cell_reads_within_noise_envelope(self):
        array = ArrayState.fresh(CFG, rows=2, cols=3)
        res = tune_cell(array, TuneTarget(0, 1, 1e-7, 0.05), budget=100)
        sigma = CFG.noise.sigma_at(1e-7)
        reads = np.array(
            [array.read_cell(0, 1, noisy=True, samples=1) for _ in range(500)]
        )
        assert abs(reads.mean() / res.final_current - 1.0) < 4 * sigma / math.sqrt(500)

    def test_validation(self):
        array = ArrayState.fresh(CFG, rows=2, cols=3)
        with pytest.raises(ValueError):
            tune_cell(array, TuneTarget(0, 0, 1e-8, 0.05), budget=0)
        with pytest.raises(ValueError, match="window"):
            tune_cell(array, TuneTarget(0, 0, 1e-5, 0.05), budget=10)
        with pytest.raises(ValueError):
            TuneTarget(0, 0, 1e-8, 0.6)
        with pytest.raises(ValueError):
            TuneTarget(0, 0, -1e-8, 0.05)

    @pytest.mark.parametrize("current", [math.nan, math.inf])
    def test_non_finite_target_current_rejected(self, current):
        with pytest.raises(ValueError, match="target_current"):
            TuneTarget(0, 0, current, 0.05)


class TestTuneArray:
    def test_empty_targets(self):
        array = ArrayState.fresh(CFG, rows=2, cols=3)
        results, summary = tune_array(array, [], budget=10)
        assert results == []
        assert summary["targets"] == 0 and summary["rel_error_max"] == 0.0

    def test_conflicting_targets_rejected(self):
        array = ArrayState.fresh(CFG, rows=2, cols=3)
        targets = [TuneTarget(0, 1, 1e-8, 0.05), TuneTarget(0, 1, 1e-9, 0.05)]
        with pytest.raises(ValueError, match="conflicting"):
            tune_array(array, targets, budget=10)

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (TuneTarget(5, 1, 1e-8, 0.05), IndexError, r"cell \(5, 1\) outside 3x4"),
            (TuneTarget(1, 4, 1e-8, 0.05), IndexError, r"cell \(1, 4\) outside 3x4"),
            (TuneTarget(1, 1, 1e-3, 0.05), ValueError, "^target_current must lie in the window"),
        ],
        ids=["row", "col", "current"],
    )
    def test_every_target_checked_before_the_first_pulse(self, bad, error, message):
        # a bad second target used to fail only after the first cell was
        # tuned (66 draws consumed on a 3x4 array)
        array = ArrayState.fresh(CFG, rows=3, cols=4)
        before = (array.v_th.copy(), array.rng_counts.copy(), array.measure_rng.bit_generator.state)
        with pytest.raises(error, match=message):
            tune_array(array, [TuneTarget(0, 1, 1e-8, 0.05), bad], budget=100)
        assert np.array_equal(array.v_th, before[0])
        assert np.array_equal(array.rng_counts, before[1])
        assert array.measure_rng.bit_generator.state == before[2]
        assert array.disturb.pulses == 0

    def test_campaign_is_replayable_from_seed(self):
        def run():
            array = ArrayState.fresh(CFG, rows=3, cols=4)
            targets = uniform_targets(array, 5e-9, 0.05)
            return tune_array(array, targets, budget=100)

        first, s1 = run()
        second, s2 = run()
        assert s1 == s2
        assert [r.final_current for r in first] == [r.final_current for r in second]
        # convergence soundness on replay: reported errors match the readouts
        for res in first:
            assert res.converged
            assert abs(res.final_current / res.target_current - 1.0) == res.relative_error
            assert res.relative_error <= 0.05

    def test_retune_costs_under_10pct_of_first_pass(self):
        array = ArrayState.fresh(CFG)
        targets = ramp_targets(array, 1e-10, 1e-6, 0.05)
        _, first = tune_array(array, targets, budget=100)
        _, again = tune_array(array, targets, budget=100)
        assert again["converged"] == 100
        assert again["pulses_total"] <= 0.10 * first["pulses_total"]

    def test_disturb_safety_global_reread(self):
        # every tuned cell still meets its tolerance at a final re-read,
        # within the averaged noise floor plus its logged disturb bound
        array = ArrayState.fresh(CFG)
        targets = ramp_targets(array, 1e-10, 1e-6, 0.05)
        results, summary = tune_array(array, targets, budget=100)
        assert summary["converged"] == 100
        ut = CFG.n * thermal_voltage(CFG.temperature_ref)
        for res in results:
            final = array.read_cell(res.row, res.col, noisy=True, samples=128)
            sigma_mean = CFG.noise.sigma_at(res.target_current) / math.sqrt(128)
            disturb_bound = math.expm1(
                array.disturb.cumulative_dvth[res.row, res.col] / ut
            )
            allowance = 0.05 + 4 * sigma_mean + disturb_bound
            assert abs(final / res.target_current - 1.0) <= allowance


class TestCampaignFiles:
    def test_roundtrip_and_run(self, tmp_path):
        spec = {
            "rows": 2,
            "cols": 3,
            "precision": 0.05,
            "budget": 50,
            "seed": 77,
            "targets": {"kind": "explicit", "cells": [[0, 1, 1e-8], [1, 2, 5e-9]]},
        }
        path = tmp_path / "campaign.yaml"
        path.write_text(yaml.safe_dump(spec))
        campaign = load_campaign(path)
        assert campaign == TuningCampaign(**spec)
        array, results, summary = run_campaign(CFG, campaign)
        assert summary["converged"] == 2
        assert int(array.rng_seeds[0, 0]) == int(
            np.random.default_rng(77).integers(0, 2**63 - 1, size=(2, 3), dtype=np.int64)[0, 0]
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("rows: 2\npulses: 10\n", "campaign key.*pulses"),
            ("- 1\n- 2\n", "campaign must be a mapping"),
            ("targets: {kind: uniform}\n", "targets of kind uniform take key.*current"),
            ("targets: {kind: ramp, lo: 1.0e-10}\n", "targets of kind ramp take key.*hi"),
            ("targets: {kind: explicit}\n", "targets of kind explicit take key.*cells"),
            ("targets: {cells: [[0, 1, 1.0e-9]], current: 1.0e-9}\n", "explicit take key"),
            ("targets: {kind: bogus, current: 1.0e-9}\n", "targets kind.*bogus"),
            ("targets: {kind: [1]}\n", "targets kind"),
            ("targets: [1, 2]\n", "targets must be a mapping"),
        ],
    )
    def test_bad_campaign_rejected_naming_field(self, tmp_path, text, message):
        path = tmp_path / "campaign.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_campaign(path)

    def test_exponent_only_currents_are_floats(self, tmp_path):
        # YAML 1.1 reads 1e-10 (no dot) as a string; the float() that used to
        # accept it also accepted quoted strings
        path = tmp_path / "campaign.yaml"
        path.write_text("rows: 2\ncols: 3\ntargets: {kind: ramp, lo: 1e-10, hi: 1E-6}\n")
        campaign = load_campaign(path)
        assert campaign.targets == {"kind": "ramp", "lo": 1e-10, "hi": 1e-6}
        targets = campaign_targets(campaign, ArrayState.fresh(CFG, rows=2, cols=3))
        assert [t.target_current for t in targets] == [1e-10, 1e-6]
        path.write_text("rows: 2\ncols: 3\ntargets: {kind: uniform, current: '1e-9'}\n")
        with pytest.raises(ValueError, match=r"^campaign targets\.current must lie in the window"):
            run_campaign(CFG, load_campaign(path))

    @pytest.mark.parametrize("seed", ["x", 1.5, -1])
    def test_bad_campaign_seed_rejected_naming_it(self, tmp_path, seed):
        # 'x' used to fail inside int(), 1.5 to run as seed 1
        path = tmp_path / "campaign.yaml"
        path.write_text(yaml.safe_dump({"rows": 2, "cols": 3, "seed": seed}))
        with pytest.raises(ValueError, match="^campaign seed must be an integer >= 0"):
            load_campaign(path)

    def test_uniform_and_ramp_builders(self):
        array = ArrayState.fresh(CFG)
        uni = uniform_targets(array, 1e-9, 0.05)
        assert len(uni) == 100
        assert {(t.row, t.col) for t in uni} == {
            (r, c) for r in range(10) for c in range(1, 11)
        }
        ramp = ramp_targets(array, 1e-10, 1e-6, 0.05)
        assert ramp[0].target_current == pytest.approx(1e-10)
        assert ramp[-1].target_current == pytest.approx(1e-6)
        currents = [t.target_current for t in ramp]
        ratios = [b / a for a, b in zip(currents, currents[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    @pytest.mark.parametrize("lo", [0.0, 1e-12])
    def test_builders_check_currents_against_the_window(self, lo):
        # lo = 0 used to raise ZeroDivisionError, and lo = 1e-12 to build
        # targets below the window
        array = ArrayState.fresh(CFG, rows=2, cols=4)
        with pytest.raises(ValueError, match=r"^lo must lie in the window \[1e-10, 1e-06\]"):
            ramp_targets(array, lo, 1e-7, 0.05)
        with pytest.raises(ValueError, match=r"^hi must lie in the window"):
            ramp_targets(array, 1e-9, lo, 0.05)
        with pytest.raises(ValueError, match=r"^current must lie in the window"):
            uniform_targets(array, lo, 0.05)

    def test_results_csv(self, tmp_path):
        array = ArrayState.fresh(CFG, rows=2, cols=3)
        results, _ = tune_array(array, [TuneTarget(0, 1, 1e-8, 0.05)], budget=50)
        path = tmp_path / "results.csv"
        results_to_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,target,final,rel_error,pulses,converged"
        assert len(lines) == 2
