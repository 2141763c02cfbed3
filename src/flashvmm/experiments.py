"""Deterministic experiment campaigns emitting plot-ready CSV.

Each experiment id regenerates one dataset from the config and seed:

- ``fig3a``/``fig3b``: per-pulse disturbance of half-selected cells vs
  the inhibiting terminal voltage (program / erase)
- ``fig4``: readout current vs coupling-gate voltage for 15 equidistant
  states, with extracted slope factors
- ``fig5``: one simulated day at 85 C for 7 states, 128-sample reads
- ``fig6``: 8 cells equalized to 1/10/100 nA at 25 C, then ramped to 85 C
- ``fig9``: three 100-cell tuning campaigns (1 nA, 100 nA, geometric ramp)
- ``fig10``: 4-weight multiply with sine-sampled inputs, noisy reads
- ``fig11``: differential drift sweep with optimized bias weights
- ``custom``: a tuning campaign file supplied via ``params``

Identical spec and seed give byte-identical CSV output.
"""

import math
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

import numpy as np

from .array import ArrayState
from .cell import (
    READOUT_BIAS,
    BiasCondition,
    PulseSpec,
    apply_pulse,
    drain_current,
    fresh_cell,
    gate_voltage,
    readout_noisy,
    retention_hold,
    subthreshold_current,
    vth_for_standard_current,
)
from .config import DEFAULT_CONFIG, ModelConfig, config_hash, require_count
from .constants import K_B, Q_E, T_25C, T_85C
from .tuning import (
    TuneTarget,
    load_campaign,
    ramp_targets,
    results_to_csv,
    run_campaign,
    tune_array,
    uniform_targets,
)
from .vmm import differential_multiply, multiply, plan_differential, reference_current

CSV_FORMAT_VERSION = 1

EXPERIMENT_IDS = (
    "fig3a",
    "fig3b",
    "fig4",
    "fig5",
    "fig6",
    "fig9",
    "fig10",
    "fig11",
    "custom",
)


@dataclass(frozen=True)
class ExperimentSpec:
    experiment_id: str
    cfg: ModelConfig = DEFAULT_CONFIG
    seed: int = None  # overrides cfg.seed when given
    output_dir: str = "."
    params: dict = None

    def __post_init__(self):
        if self.seed is not None:
            require_count("seed", self.seed, 0)
        if self.experiment_id not in EXPERIMENT_IDS:
            raise ValueError(
                f"unknown experiment {self.experiment_id!r}; "
                f"expected one of {', '.join(EXPERIMENT_IDS)}"
            )
        reads = {"campaign"} if self.experiment_id == "custom" else set()
        unknown = sorted(map(str, set(self.params or {}) - reads))
        if unknown:
            raise ValueError(f"experiment {self.experiment_id} reads no parameter {unknown[0]!r}")


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return repr(float(x))


def write_csv(path, cfg: ModelConfig, seed: int, columns, rows) -> None:
    """CSV with the provenance header every artifact carries."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# flashvmm-csv v{CSV_FORMAT_VERSION} "
            f"config_hash={config_hash(cfg)} seed={seed}\n"
        )
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def extract_slope_factor(v_cg, current, temperature: float) -> float:
    """Least-squares slope factor from a semi-log I-V segment."""
    slope = np.polyfit(np.asarray(v_cg), np.log(np.asarray(current)), 1)[0]
    return Q_E / (slope * K_B * temperature)


# ------------------------------------------------------------ inhibition

def _disturb_sweep(cfg, seed, kind: str):
    """Per-pulse half-select disturbance vs the inhibiting voltage."""
    cal = cfg.require_calibration()
    inh = cfg.inhibition
    rng = np.random.default_rng((seed, 0x316A if kind == "program" else 0x316B))
    margin = 0.1 * cal.window_width
    vth_lo, vth_hi = cal.v_th_min + margin, cal.v_th_max - margin

    # (v_wl, v_cg, v_d, v_s, v_eg) with the inhibiting line at each voltage
    if kind == "program":
        pulse = PulseSpec.program(cfg)
        votes = np.arange(inh.program_bl_full, 3.0 + 1e-9, 0.125)
        biases = [BiasCondition(1.0, 0.0, float(v), inh.program_sl_full, 4.5) for v in votes]
    else:
        pulse = PulseSpec.erase(cfg)
        votes = np.arange(inh.erase_cg_full, inh.erase_cg_inhibit + 1e-9, 0.25)
        biases = [BiasCondition(0.0, float(v), 0.0, 0.0, inh.erase_eg_full) for v in votes]

    rows = []
    trials = 25
    for v, bias in zip(votes, biases):
        rels = []
        for _ in range(trials):
            vth = vth_lo + rng.random() * (vth_hi - vth_lo)
            cell = fresh_cell(cfg, seed=int(rng.integers(2**62)), v_th=vth)
            after = apply_pulse(cell, pulse, bias, cfg)
            before_i = drain_current(cell, READOUT_BIAS, cfg.temperature_ref, cfg)
            after_i = drain_current(after, READOUT_BIAS, cfg.temperature_ref, cfg)
            rels.append(abs(after_i / before_i - 1.0))
        rows.append((float(v), float(np.mean(rels)), float(np.max(rels))))
    return rows


def _run_fig3(spec, seed, out_dir, kind: str):
    cfg = spec.cfg
    rows = _disturb_sweep(cfg, seed, kind)
    name = "fig3a" if kind == "program" else "fig3b"
    volt_col = "bit_line_voltage" if kind == "program" else "coupling_gate_voltage"
    path = out_dir / f"{name}.csv"
    write_csv(
        path, cfg, seed, (volt_col, "mean_abs_rel_di", "max_abs_rel_di"), rows
    )
    inhibit_v = (
        cfg.inhibition.program_bl_inhibit
        if kind == "program"
        else cfg.inhibition.erase_cg_inhibit
    )
    worst = max(r[2] for r in rows if r[0] >= inhibit_v)
    return {
        "csv": [str(path)],
        "max_disturb_at_inhibit": worst,
        "headline": f"{name}: max per-pulse |dI/I| past inhibit bias = "
        f"{worst:.2e} (< 1%: {worst < 0.01})",
    }


# ------------------------------------------------------------ iv curves

def _run_fig4(spec, seed, out_dir):
    cfg = spec.cfg
    cal = cfg.require_calibration()
    t = cfg.temperature_ref
    n_states = 15
    vths = np.linspace(cal.v_th_min, cal.v_th_max, n_states)
    v_lo = gate_voltage(1.0e-10, cal.v_th_min, cfg.n, cfg.i0, t) - 0.05
    v_hi = gate_voltage(3.0e-8, cal.v_th_max, cfg.n, cfg.i0, t) + 0.05
    sweep = np.arange(v_lo, v_hi + 1e-9, 0.02)

    rows = []
    extracted = []
    for k, vth in enumerate(vths):
        currents = subthreshold_current(sweep, vth, cfg.n, cfg.i0, t, cfg.i_sat)
        for v, i in zip(sweep, currents):
            rows.append((k, float(vth), float(v), float(i)))
        band = (currents >= 1.0e-10) & (currents <= 3.0e-8)
        extracted.append(extract_slope_factor(sweep[band], currents[band], t))
    extracted = np.array(extracted)
    dev = float(np.max(np.abs(extracted / cfg.n - 1.0)))
    path = out_dir / "fig4.csv"
    write_csv(path, cfg, seed, ("state", "v_th", "v_cg", "current"), rows)
    return {
        "csv": [str(path)],
        "n_min": float(extracted.min()),
        "n_max": float(extracted.max()),
        "max_rel_dev": dev,
        "headline": f"fig4: extracted n in [{extracted.min():.4f}, "
        f"{extracted.max():.4f}], max deviation {dev:.2e}",
    }


def _run_fig5(spec, seed, out_dir):
    # states span the subthreshold window at the standard readout; the
    # bake runs at 85 C with periodic reference-temperature verify reads
    # (the calibrated v_th window cannot carry a 100 pA readout at 85 C)
    cfg = spec.cfg
    levels = np.geomspace(1.0e-10, 1.0e-7, 7)
    cell_seeds = np.random.default_rng((seed, 0xF5)).integers(2**62, size=len(levels))
    cells = [
        fresh_cell(cfg, seed=cell_seeds[k], v_th=vth_for_standard_current(lv, cfg))
        for k, lv in enumerate(levels)
    ]
    rng = np.random.default_rng((seed, 0xF5AA))
    step, day = 2700.0, 86400.0
    times = np.arange(0.0, day + 1.0, step)

    rows = []
    first = {}
    worst = {}
    for ti, t_now in enumerate(times):
        for k, cell in enumerate(cells):
            if ti > 0:
                cell = retention_hold(cell, step, T_85C, cfg)
                cells[k] = cell
            mean = readout_noisy(
                cell, READOUT_BIAS, cfg.temperature_ref, 128, rng=rng, cfg=cfg
            )
            rows.append((float(t_now), k, float(mean)))
            if ti == 0:
                first[k] = mean
            else:
                change = abs(mean / first[k] - 1.0)
                worst[k] = max(worst.get(k, 0.0), change)

    path = out_dir / "fig5.csv"
    write_csv(path, cfg, seed, ("time_s", "state", "current_mean128"), rows)
    envelopes = {k: cfg.noise.sigma_at(first[k]) for k in first}
    within = all(worst[k] <= envelopes[k] for k in worst)
    worst_frac = max(worst[k] / envelopes[k] for k in worst)
    return {
        "csv": [str(path)],
        "within_envelope": within,
        "worst_envelope_fraction": float(worst_frac),
        "headline": f"fig5: day-long change within the noise envelope for all "
        f"states: {within} (worst fraction {worst_frac:.2f})",
    }


def _run_fig6(spec, seed, out_dir):
    cfg = spec.cfg
    cal = cfg.require_calibration()
    vths = np.linspace(cal.v_th_min, cal.v_th_max, 8)
    temps = np.arange(T_25C, T_85C + 1e-9, 2.5)

    rows = []
    ratios = {}
    for level in (1.0e-9, 1.0e-8, 1.0e-7):
        for k, vth in enumerate(vths):
            v_cg = gate_voltage(level, vth, cfg.n, cfg.i0, T_25C)  # equalize at 25 C
            currents = subthreshold_current(v_cg, vth, cfg.n, cfg.i0, temps, cfg.i_sat)
            for tt, ii in zip(temps, currents):
                rows.append((float(level), k, float(tt), float(ii)))
            ratios[level] = currents[-1] / currents[0]

    path = out_dir / "fig6.csv"
    write_csv(path, cfg, seed, ("level", "cell", "temperature_k", "current"), rows)
    r1na = float(ratios[1.0e-9])
    return {
        "csv": [str(path)],
        "ratio_1na": r1na,
        "ratio_10na": float(ratios[1.0e-8]),
        "ratio_100na": float(ratios[1.0e-7]),
        "headline": f"fig6: I(85C)/I(25C) at 1 nA = {r1na:.2f} (>10: {r1na > 10})",
    }


# --------------------------------------------------------------- tuning

def _run_fig9(spec, seed, out_dir):
    cfg = dc_replace(spec.cfg, seed=seed)
    precision, budget = 0.05, 100

    campaigns = (
        ("uniform_1na", lambda a: uniform_targets(a, 1.0e-9, precision)),
        ("uniform_100na", lambda a: uniform_targets(a, 1.0e-7, precision)),
        ("ramp", lambda a: ramp_targets(a, 1.0e-10, 1.0e-6, precision)),
    )
    rows = []
    metrics = {}
    for name, build in campaigns:
        array = ArrayState.fresh(cfg, rows=10, cols=12)
        targets = build(array)
        results, summary = tune_array(array, targets, budget)
        for k, res in enumerate(results):
            rows.append(
                (
                    name,
                    k,
                    res.row,
                    res.col,
                    res.target_current,
                    res.final_current,
                    res.relative_error,
                    res.pulses_total,
                    res.converged,
                )
            )
        errs = np.array([r.relative_error for r in results])
        tgts = np.array([r.target_current for r in results])
        metrics[name] = {
            "converged": summary["converged"],
            "max_err": float(errs.max()),
            "max_err_above_1na": float(errs[tgts >= 1.0e-9].max()),
            "max_err_sub_na": float(errs[tgts < 1.0e-9].max()) if (tgts < 1e-9).any() else 0.0,
            "pulses_total": summary["pulses_total"],
        }

    path = out_dir / "fig9.csv"
    write_csv(
        path,
        cfg,
        seed,
        (
            "campaign",
            "cell_number",
            "row",
            "col",
            "target",
            "final",
            "rel_error",
            "pulses",
            "converged",
        ),
        rows,
    )
    ramp = metrics["ramp"]
    return {
        "csv": [str(path)],
        "campaigns": metrics,
        "headline": "fig9: ramp errors max "
        f"{ramp['max_err_above_1na']:.3f} (>=1 nA) / {ramp['max_err_sub_na']:.3f} "
        f"(sub-nA), {ramp['converged']}/100 converged",
    }


def _run_fig10(spec, seed, out_dir):
    cfg = dc_replace(spec.cfg, seed=seed)
    weights = np.array([0.25, 1.0, 0.5, 0.125])
    freqs = np.array([1.0 / 8.0, 1.0 / 36.0, 1.0 / 180.0, 1.0 / 360.0])
    array = ArrayState.fresh(cfg, rows=4, cols=3)
    i_ref = reference_current(cfg)
    col = array.array_cols[0]

    targets = [
        TuneTarget(r, array.peripheral_col_for_row(r), i_ref, 0.01) for r in range(4)
    ] + [TuneTarget(r, col, float(i_ref * weights[r]), 0.01) for r in range(4)]
    results, summary = tune_array(array, targets, 200)

    lo, hi = cfg.current_window
    rows = []
    max_err = 0.0
    for k in range(360):
        inputs = 50e-9 * (1.0 + np.sin(2.0 * math.pi * k * freqs))
        inputs = np.clip(inputs, lo, hi)
        ideal = float(weights @ inputs)
        measured = float(
            multiply(array, inputs, noisy=True, samples=128)[0]
        )
        err = measured / ideal - 1.0
        max_err = max(max_err, abs(err))
        rows.append((k, *inputs, ideal, measured, err))

    path = out_dir / "fig10.csv"
    write_csv(
        path,
        cfg,
        seed,
        ("index", "i1", "i2", "i3", "i4", "ideal", "measured", "rel_error"),
        rows,
    )
    return {
        "csv": [str(path)],
        "max_rel_error": max_err,
        "tuning_converged": summary["converged"],
        "headline": f"fig10: max relative output error = {max_err:.4f} "
        f"(<= 2%: {max_err <= 0.02})",
    }


def _run_fig11(spec, seed, out_dir):
    base_cfg = spec.cfg
    temps = np.arange(T_25C, T_85C + 1e-9, 2.5)
    w_values = np.round(np.arange(0.1, 0.95, 0.1), 2)
    rows = []
    max_drift = 0.0
    max_predicted = 0.0
    for wi, w in enumerate(w_values):
        cfg = dc_replace(base_cfg, seed=seed + wi)
        array = ArrayState.fresh(cfg, rows=1, cols=4)
        plan = plan_differential(np.array([[w]]), (T_25C, T_85C), array)
        results, summary = tune_array(array, plan.tune_targets(array, 0.01), 200)
        baseline = None
        for t in temps:
            out = float(
                differential_multiply(
                    array, plan, [100e-9], temperature=float(t), noisy=True, samples=128
                )[0]
            )
            if baseline is None:
                baseline = out
            change = out / baseline - 1.0
            max_drift = max(max_drift, abs(change))
            rows.append(
                (float(w), float(t), out, change, float(plan.predicted_drift[0, 0]))
            )
        max_predicted = max(max_predicted, float(plan.predicted_drift[0, 0]))

    path = out_dir / "fig11.csv"
    write_csv(
        path,
        base_cfg,
        seed,
        ("w", "temperature_k", "output", "rel_change_vs_25c", "predicted_drift"),
        rows,
    )
    return {
        "csv": [str(path)],
        "max_measured_drift": max_drift,
        "max_predicted_drift": max_predicted,
        "headline": f"fig11: measured drift <= {max_drift:.4f} (2.7% bound: "
        f"{max_drift <= 0.027}), analytic optimum <= {max_predicted:.4f}",
    }


def _run_custom(spec, seed, out_dir):
    params = spec.params or {}
    if "campaign" not in params:
        raise ValueError("custom experiment needs params={'campaign': <yaml path>}")
    campaign = load_campaign(params["campaign"])
    if campaign.seed is None:
        campaign = dc_replace(campaign, seed=seed)
    array, results, summary = run_campaign(spec.cfg, campaign)
    path = out_dir / "custom_results.csv"
    results_to_csv(results, path)
    return {
        "csv": [str(path)],
        "summary": summary,
        "headline": f"custom: {summary['converged']}/{summary['targets']} converged, "
        f"max error {summary['rel_error_max']:.4f}",
    }


_RUNNERS = {
    "fig3a": lambda s, seed, d: _run_fig3(s, seed, d, "program"),
    "fig3b": lambda s, seed, d: _run_fig3(s, seed, d, "erase"),
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "custom": _run_custom,
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Regenerate the named dataset; returns csv paths and headline metrics."""
    spec.cfg.require_calibration()
    seed = spec.cfg.seed if spec.seed is None else int(spec.seed)
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = _RUNNERS[spec.experiment_id](spec, seed, out_dir)
    summary["experiment"] = spec.experiment_id
    summary["seed"] = seed
    return summary
