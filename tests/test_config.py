import math
from dataclasses import replace

import numpy as np
import pytest
import yaml

from flashvmm.config import (
    DEFAULT_CONFIG,
    CalibrationError,
    ModelConfig,
    NoiseParams,
    config_from_dict,
    config_hash,
    load_config,
    save_config,
)
from flashvmm.constants import V_CG_READ, thermal_voltage
from flashvmm.experiments import ExperimentSpec


def test_noise_invariants():
    with pytest.raises(ValueError):
        NoiseParams(sigma_low=0.01, sigma_high=0.04)  # ordered wrong
    with pytest.raises(ValueError):
        NoiseParams(sigma_low=0.2)  # above the 10% cap
    with pytest.raises(ValueError):
        NoiseParams(i_low_anchor=1e-8, i_high_anchor=1e-10)


def test_noise_interpolation_anchors_and_midpoint():
    noise = NoiseParams()
    assert noise.sigma_at(1e-10) == pytest.approx(0.04)
    assert noise.sigma_at(1e-8) == pytest.approx(0.0095)
    # constant outside the anchors
    assert noise.sigma_at(1e-12) == pytest.approx(0.04)
    assert noise.sigma_at(1e-6) == pytest.approx(0.0095)
    # log midpoint of (1e-10, 1e-8) is 1e-9: linear midpoint of the sigmas
    assert noise.sigma_at(1e-9) == pytest.approx(0.02475, rel=1e-12)


def test_calibration_window_maps_current_range():
    cfg = DEFAULT_CONFIG
    cal = cfg.calibration
    ut = cfg.n * thermal_voltage(cfg.temperature_ref)
    lo = cfg.i0 * math.exp((V_CG_READ - cal.v_th_max) / ut)
    hi = cfg.i0 * math.exp((V_CG_READ - cal.v_th_min) / ut)
    assert lo == pytest.approx(cfg.current_window[0], rel=1e-2)
    assert hi == pytest.approx(cfg.current_window[1], rel=1e-2)
    assert cal.dv_program_nominal == pytest.approx(
        cal.window_width / cfg.traversal_pulses, rel=1e-12
    )


def test_calibration_resolves_slope_factor_in_range():
    assert 5.0 <= DEFAULT_CONFIG.n <= 5.1


def test_calibration_idempotent():
    once = ModelConfig()
    twice = replace(once)  # rebuilt from the resolved slope factor
    assert once == twice
    assert config_hash(once) == config_hash(twice)


def test_default_config_is_a_built_config():
    assert ModelConfig() == DEFAULT_CONFIG
    assert config_hash(DEFAULT_CONFIG) == "5ab6d51e7a77"


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1, 2**63 - 1])
def test_seed_replace_keeps_slope_factor_and_calibration(seed):
    cfg = replace(DEFAULT_CONFIG, seed=seed)
    assert cfg.n == DEFAULT_CONFIG.n
    assert cfg.calibration == DEFAULT_CONFIG.calibration


def test_replace_rederives_calibration():
    slow = replace(DEFAULT_CONFIG, traversal_pulses=30)
    assert slow.calibration.dv_program_nominal == pytest.approx(0.03989, abs=1e-5)
    assert slow.calibration.dv_program_nominal == slow.calibration.window_width / 30
    narrow = replace(DEFAULT_CONFIG, current_window=(1e-9, 1e-6))
    assert narrow.calibration.v_th_max == pytest.approx(4.295, abs=1e-3)
    assert narrow.calibration.v_th_min == DEFAULT_CONFIG.calibration.v_th_min


def test_calibration_rejects_infeasible_prefactor():
    # i0 = 0.1 mA keeps the window valid but the 1 nA warm-up ratio at ~6.9x
    with pytest.raises(CalibrationError, match="temperature-ratio"):
        ModelConfig(i0=1e-4)
    with pytest.raises(CalibrationError, match="prefactor regime"):
        ModelConfig(i0=1e-8, current_window=(1e-12, 1e-8), i_sat=1e-8)


def test_calibration_rejects_traversal_outside_design_range():
    with pytest.raises(CalibrationError, match="traversal"):
        ModelConfig(traversal_pulses=5)


def test_yaml_roundtrip(tmp_path):
    cfg = ModelConfig(seed=777, traversal_pulses=30)
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert config_hash(loaded) == config_hash(cfg)
    text = path.read_text()
    assert "derived from the keys above" in text  # provenance comment survives


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda cal: cal.update(v_th_max=cal["v_th_max"] + 1e-12), id="value"),
        pytest.param(lambda cal: cal.pop("dv_erase_nominal"), id="missing_key"),
        pytest.param(lambda cal: cal.update(dv_program_nominal=math.nan), id="nan"),
    ],
)
def test_edited_calibration_block_rejected(tmp_path, edit):
    path = tmp_path / "cfg.yaml"
    save_config(DEFAULT_CONFIG, path)
    raw = yaml.safe_load(path.read_text())
    edit(raw["calibration"])
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ValueError, match="calibration"):
        load_config(path)


def test_stale_calibration_block_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    save_config(DEFAULT_CONFIG, path)
    text = path.read_text().replace("traversal_pulses: 20", "traversal_pulses: 30")
    path.write_text(text)
    with pytest.raises(ValueError, match="calibration"):
        load_config(path)
    path.write_text(text.split("calibration:")[0])  # without the block it loads
    assert load_config(path) == replace(DEFAULT_CONFIG, traversal_pulses=30)


def test_config_hash_tracks_parameters():
    base = ModelConfig()
    other = ModelConfig(seed=999)
    assert config_hash(base) != config_hash(other)


def test_current_window_validation():
    with pytest.raises(ValueError):
        ModelConfig(current_window=(1e-6, 1e-10))
    with pytest.raises(ValueError):
        ModelConfig(i_sat=1e-8)  # below window top
    # ordered, but too narrow to map onto two distinct threshold voltages
    with pytest.raises(CalibrationError, match="current_window"):
        ModelConfig(current_window=(1e-10, math.nextafter(1e-10, 1.0)))


@pytest.mark.parametrize("value", [25.5, 25.0, "25", True, None], ids=repr)
def test_traversal_pulses_must_be_an_integer(value, tmp_path):
    with pytest.raises(ValueError, match=r"^traversal_pulses must be an integer"):
        ModelConfig(traversal_pulses=value)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"traversal_pulses": value}))
    with pytest.raises(ValueError, match="traversal_pulses"):
        load_config(path)


@pytest.mark.parametrize("value", [2.5, 249.9, 400.1])
def test_temperature_ref_outside_the_model_window_rejected(value):
    with pytest.raises(ValueError, match=r"^temperature_ref .* outside the model window"):
        ModelConfig(temperature_ref=value)
    assert ModelConfig(temperature_ref=400.0).temperature_ref == 400.0


@pytest.mark.parametrize(
    "seed", [-1, math.nan, 1.5, 2.0, True, "3", None, np.int64(-2)], ids=repr
)
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0"):
        ModelConfig(seed=seed)
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0"):
        ExperimentSpec("fig3a", seed=seed if seed is not None else -1)


@pytest.mark.parametrize("seed", [0, 7, 2**70, np.int64(5), np.uint32(9)], ids=repr)
def test_integer_seeds_accepted(seed):
    assert ModelConfig(seed=seed).seed == seed
    assert ExperimentSpec("fig3a", seed=seed).seed == seed


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"seed": 1, "bogus": 2}, "config key.*bogus"),
        ({"pulse": {"program_amplitude": 4.5, "width": 1e-6}}, "pulse key.*width"),
        ({"noise": {"sigma": 0.01}}, "noise key.*sigma"),
        ({"inhibition": [1, 2]}, "inhibition must be a mapping"),
    ],
)
def test_unknown_config_keys_rejected_naming_key(raw, key):
    with pytest.raises(ValueError, match=key):
        config_from_dict(raw)


def test_exponent_only_yaml_numbers_are_floats(tmp_path):
    # YAML 1.1 reads 1e-3 (no dot) as a string
    path = tmp_path / "cfg.yaml"
    path.write_text("i0: 1e-3\ncurrent_window: [1e-10, 1e-6]\nnoise: {i_high_anchor: 1E-8}\n")
    assert load_config(path) == DEFAULT_CONFIG


@pytest.mark.parametrize("anchor", ["i_low_anchor", "i_high_anchor"])
def test_non_finite_noise_anchor_rejected(tmp_path, anchor):
    # an infinite anchor used to load and flatten sigma_at to one value
    path = tmp_path / "cfg.yaml"
    path.write_text(f"noise: {{{anchor}: .inf}}\n")
    with pytest.raises(ValueError, match=f"^{anchor} must be finite and positive"):
        load_config(path)


def test_unknown_yaml_key_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("seed: 3\nretention:\n  random_walk: true\n  drift: 0.1\n")
    with pytest.raises(ValueError, match="retention key.*drift"):
        load_config(path)


@pytest.mark.parametrize("block", ["pulse", "noise", "inhibition", "retention"])
def test_empty_yaml_block_rejected_naming_block(tmp_path, block):
    # a block whose keys are all commented out reads as None; it used to
    # build a config that failed later with an AttributeError
    path = tmp_path / "cfg.yaml"
    path.write_text(f"seed: 3\n{block}:\n  # sigma_scale: 1.0\n")
    with pytest.raises(ValueError, match=f"^{block} must be a mapping, got NoneType"):
        load_config(path)


def test_config_block_must_be_its_dataclass():
    with pytest.raises(ValueError, match="^noise must be a NoiseParams, got NoneType"):
        ModelConfig(noise=None)
    with pytest.raises(ValueError, match="^pulse must be a PulseDefaults, got dict"):
        ModelConfig(pulse={"program_amplitude": 4.5})
