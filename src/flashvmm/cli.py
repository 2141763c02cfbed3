"""Command-line harness.

Subcommands: ``calibrate``, ``tune``, ``multiply``, ``experiment <id>``,
``state init|info``. Exits 0 on success; on failure prints one
machine-readable JSON error line to stderr and exits 1.
"""

import argparse
import json
import sys
from dataclasses import replace as dc_replace

from .array import INITIAL_STATES, ArrayState
from .config import DEFAULT_CONFIG, config_hash, load_config, save_config
from .experiments import EXPERIMENT_IDS, ExperimentSpec, run_experiment, write_csv
from .tuning import load_campaign, results_to_csv, run_campaign, tune_array
from .vmm import (
    WeightMatrix, check_read, differential_multiply, multiply, plan_differential, read_matrix_csv,
)


def _load_cfg(args):
    seed = getattr(args, "seed", None)
    if args.config:
        # the override must precede the n_slope resolution that it seeds
        return load_config(args.config, seed=seed)
    return DEFAULT_CONFIG if seed is None else dc_replace(DEFAULT_CONFIG, seed=int(seed))


def _cmd_calibrate(args):
    cfg = _load_cfg(args)
    save_config(cfg, args.out)
    print(f"calibrated config written to {args.out} (hash {config_hash(cfg)})")


def _cmd_tune(args):
    cfg = _load_cfg(args)
    campaign = load_campaign(args.campaign)
    if args.seed is not None:
        campaign = dc_replace(campaign, seed=int(args.seed))
    array, results, summary = run_campaign(cfg, campaign)
    results_to_csv(results, args.results)
    if args.state_out:
        array.save(args.state_out)
    if args.disturb_out:
        array.disturb.to_csv(args.disturb_out)
    print(
        f"tuned {summary['converged']}/{summary['targets']} cells, "
        f"{summary['pulses_total']} pulses, max error {summary['rel_error_max']:.4f}"
    )


def _cmd_multiply(args):
    cfg = _load_cfg(args)
    read = dict(temperature=args.temperature, noisy=args.noisy, samples=args.samples)
    check_read(cfg, **read)  # refused before any tuning
    weights = WeightMatrix(read_matrix_csv(args.weights))
    inputs = read_matrix_csv(args.inputs)
    rows, logical = weights.shape
    if inputs.shape[1] != rows:
        raise ValueError(
            f"input vectors have {inputs.shape[1]} entries, weights have {rows} rows"
        )

    n_array_cols = logical if args.mode == "single" else 2 * logical
    array = ArrayState.fresh(cfg, rows=rows, cols=n_array_cols + 2)

    if args.mode == "single":
        plan = None
        targets = weights.tune_targets(array, args.precision)
    else:
        plan = plan_differential(weights, tuple(args.temp_range), array)
        if args.plan_out:
            plan.to_csv(args.plan_out)
        targets = plan.tune_targets(array, args.precision)

    results, summary = tune_array(array, targets, args.budget)
    if summary["converged"] < summary["targets"]:
        raise RuntimeError(
            f"tuning incomplete: {summary['converged']}/{summary['targets']} converged"
        )
    if args.state_out:
        array.save(args.state_out)

    if plan is None:
        out = multiply(array, inputs, **read)
    else:
        out = differential_multiply(array, plan, inputs, **read)
    out_rows = [(k, *vec) for k, vec in enumerate(out)]
    columns = ("input_index",) + tuple(f"out_{i}" for i in range(logical))
    write_csv(args.out, cfg, columns, out_rows)
    print(
        f"{len(out_rows)} product vectors written to {args.out} "
        f"(mode {args.mode}, tuning max error {summary['rel_error_max']:.4f})"
    )


def _cmd_experiment(args):
    summary = run_experiment(ExperimentSpec(args.id, cfg=_load_cfg(args), output_dir=args.out))
    print(summary["headline"])
    for path in summary["csv"]:
        print(f"wrote {path}")


def _cmd_state(args):
    cfg = _load_cfg(args)
    if args.action == "init":
        array = ArrayState.fresh(cfg, rows=args.rows, cols=args.cols, initial=args.initial)
        array.save(args.out)
        print(f"{args.rows}x{args.cols} array saved to {args.out}")
    else:  # info
        array = ArrayState.load(args.file, cfg)
        currents = [
            array.read_cell(r, c)
            for r in range(array.rows)
            for c in range(array.cols)
        ]
        print(
            f"{array.rows}x{array.cols} array, "
            f"currents {min(currents):.3e}..{max(currents):.3e} A, "
            f"config hash {config_hash(cfg)}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flashvmm",
        description="Analog floating-gate vector-by-matrix multiplier simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="derive window and pulse nominals")
    p.add_argument("--config", help="base config YAML (default: built-in)")
    p.add_argument("--out", required=True, help="calibrated config YAML")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("tune", help="run a tuning campaign file")
    p.add_argument("--campaign", required=True, help="campaign YAML")
    p.add_argument("--config", help="config YAML")
    p.add_argument("--seed", type=int, help="override campaign/config seed")
    p.add_argument("--results", required=True, help="per-cell results CSV")
    p.add_argument("--state-out", help="save the tuned array state")
    p.add_argument("--disturb-out", help="export the disturb log CSV")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("multiply", help="tune weights and multiply input vectors")
    p.add_argument("--weights", required=True, help="weight matrix CSV")
    p.add_argument("--inputs", required=True, help="input vectors CSV, one per line")
    p.add_argument("--out", required=True, help="output currents CSV")
    p.add_argument("--config", help="config YAML")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=("single", "differential"), default="single")
    p.add_argument("--temperature", type=float, default=None, help="readout T [K]")
    p.add_argument("--noisy", action="store_true")
    p.add_argument("--samples", type=int, default=128, help="noisy read averaging")
    p.add_argument("--precision", type=float, default=0.01, help="tuning precision")
    p.add_argument("--budget", type=int, default=200, help="pulse budget per cell")
    p.add_argument("--plan-out", help="differential plan CSV")
    p.add_argument("--state-out", help="save the tuned array state")
    p.add_argument(
        "--temp-range",
        type=float,
        nargs=2,
        default=(298.15, 358.15),
        metavar=("T_LO", "T_HI"),
        help="drift-optimization interval [K] (differential mode)",
    )
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("experiment", help="regenerate a named dataset")
    p.add_argument("id", choices=EXPERIMENT_IDS)
    p.add_argument("--config", help="config YAML")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("state", help="create or inspect array state files")
    state_sub = p.add_subparsers(dest="action", required=True)
    pi = state_sub.add_parser("init", help="create and save a fresh array")
    pi.add_argument("--config", help="config YAML")
    pi.add_argument("--seed", type=int)
    pi.add_argument("--rows", type=int, default=10)
    pi.add_argument("--cols", type=int, default=12)
    pi.add_argument("--initial", choices=INITIAL_STATES, default="programmed")
    pi.add_argument("--out", required=True)
    pi.set_defaults(func=_cmd_state, action="init")
    pn = state_sub.add_parser("info", help="summarize a saved array")
    pn.add_argument("file")
    pn.add_argument("--config", help="config YAML")
    pn.add_argument("--seed", type=int)
    pn.set_defaults(func=_cmd_state, action="info")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
        print(line, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
