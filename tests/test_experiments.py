import numpy as np
import pytest
import yaml

from flashvmm.config import DEFAULT_CONFIG, config_hash
from flashvmm.experiments import (
    EXPERIMENT_IDS,
    ExperimentSpec,
    extract_slope_factor,
    run_experiment,
)

CFG = DEFAULT_CONFIG


def run(eid, tmp_path, **kw):
    return run_experiment(ExperimentSpec(eid, cfg=CFG, output_dir=tmp_path, **kw))


def test_unknown_id_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentSpec("fig99", cfg=CFG, output_dir=tmp_path)


@pytest.mark.parametrize(
    "eid, params, key",
    [("fig3a", {"foo": "1"}, "foo"), ("fig11", {"campaign": "c.yaml"}, "campaign"),
     ("custom", {"campaign": "c.yaml", "seed": "2"}, "seed")],
)
def test_unread_parameter_rejected_naming_key(tmp_path, eid, params, key):
    with pytest.raises(ValueError, match=f"{eid} reads no parameter '{key}'"):
        ExperimentSpec(eid, cfg=CFG, output_dir=tmp_path, params=params)


def test_csv_provenance_header(tmp_path):
    summary = run("fig4", tmp_path)
    with open(summary["csv"][0]) as fh:
        first = fh.readline()
    assert first.startswith("# flashvmm-csv v1 ")
    assert f"config_hash={config_hash(CFG)}" in first
    assert f"seed={CFG.seed}" in first


def test_byte_identical_reruns(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run("fig3a", a)
    run("fig3a", b)
    assert (a / "fig3a.csv").read_bytes() == (b / "fig3a.csv").read_bytes()


def test_seed_changes_stochastic_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run("fig3a", a, seed=1)
    run("fig3a", b, seed=2)
    assert (a / "fig3a.csv").read_bytes() != (b / "fig3a.csv").read_bytes()


def test_fig3_disturb_below_1pct(tmp_path):
    a = run("fig3a", tmp_path)
    assert a["max_disturb_at_inhibit"] < 0.01
    b = run("fig3b", tmp_path)
    assert b["max_disturb_at_inhibit"] < 0.01


def test_fig4_slope_factors(tmp_path):
    summary = run("fig4", tmp_path)
    assert 5.0 <= summary["n_min"] <= summary["n_max"] <= 5.1
    assert summary["max_rel_dev"] < 0.005


def test_fig5_retention_within_envelope(tmp_path):
    summary = run("fig5", tmp_path)
    assert summary["within_envelope"]
    rows = np.genfromtxt(
        tmp_path / "fig5.csv", delimiter=",", names=True, skip_header=1
    )
    assert set(rows["state"]) == set(range(7))
    assert rows["time_s"].max() == 86400.0


def test_fig6_order_of_magnitude_warmup(tmp_path):
    summary = run("fig6", tmp_path)
    assert summary["ratio_1na"] > 10.0
    # warming helps less as the state conducts more
    assert summary["ratio_1na"] > summary["ratio_10na"] > summary["ratio_100na"] > 1.0


def test_extract_slope_factor_roundtrip():
    v = np.linspace(1.5, 2.5, 20)
    t = 298.15
    from flashvmm.cell import subthreshold_current

    cur = subthreshold_current(v, 4.0, 5.08, 1e-3, t, 1.0)
    assert extract_slope_factor(v, cur, t) == pytest.approx(5.08, rel=1e-9)


def test_custom_campaign(tmp_path):
    campaign = {
        "rows": 2,
        "cols": 3,
        "precision": 0.05,
        "budget": 50,
        "targets": {"kind": "explicit", "cells": [[0, 1, 1e-8]]},
    }
    path = tmp_path / "campaign.yaml"
    path.write_text(yaml.safe_dump(campaign))
    summary = run("custom", tmp_path, params={"campaign": str(path)})
    assert summary["summary"]["converged"] == 1
    assert (tmp_path / "custom_results.csv").exists()


def test_custom_requires_campaign(tmp_path):
    with pytest.raises(ValueError, match="campaign"):
        run("custom", tmp_path)


def test_experiment_id_list_is_complete():
    assert set(EXPERIMENT_IDS) == {
        "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11", "custom",
    }


def test_fig9_three_campaigns(tmp_path):
    summary = run("fig9", tmp_path)
    camps = summary["campaigns"]
    assert set(camps) == {"uniform_1na", "uniform_100na", "ramp"}
    for name, m in camps.items():
        assert m["converged"] == 100, name
    assert camps["uniform_1na"]["max_err"] <= 0.05
    assert camps["uniform_100na"]["max_err"] <= 0.05
    assert camps["ramp"]["max_err_above_1na"] <= 0.05
    assert camps["ramp"]["max_err_sub_na"] <= 0.12
    rows = np.genfromtxt(
        tmp_path / "fig9.csv",
        delimiter=",",
        names=True,
        skip_header=1,
        dtype=None,
        encoding="utf-8",
    )
    ramp = rows[rows["campaign"] == "ramp"]
    assert len(ramp) == 100
    finals = ramp["final"]
    # measured-vs-target curve is monotone to within the tuning precision
    step = (1e-6 / 1e-10) ** (1 / 99)
    assert np.all(finals[1:] / finals[:-1] >= step * 0.95 / 1.05)
    assert np.all(finals[5:] > finals[:-5])
