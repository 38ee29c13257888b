"""Command-line entry points for the experiment pipeline.

Subcommands: train, eval, sweep, class-split, pseudo-cycle.
Configs are JSON files mirroring the world / optimizer / experiment fields;
--seed overrides the training seed (for sweep, the first of its seeds),
--out-dir picks the output directory.
Any aborted run exits nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .checkpoint import json_text, load_checkpoint, write_outputs
from .evaluation import CSV_HEADER, evaluate, prepare_eval_set, report_csv_row, report_to_dict
from .experiment import (
    AGGREGATE_HEADER,
    ExperimentConfig,
    load_config,
    prepare_world,
    run_class_split,
    run_experiment,
    run_ratio_sweep,
)
from .pseudo_label import CycleReport, iterate_cycles


def parse_ratio(text: str) -> tuple[float, float, float]:
    """Parse "70/30" or "30/40/30" into WS/FS/US fractions.

    Two-part ratios that do not use the full data (e.g. "70/0") leave the
    remainder untagged as US.
    """
    try:
        parts = [float(p) for p in text.split("/")]
    except ValueError:
        raise ValueError(f"cannot parse ratio {text!r}") from None
    if len(parts) == 2:
        ws, fs = parts[0] / 100.0, parts[1] / 100.0
        us = 1.0 - ws - fs
        if us < -1e-9:
            raise ValueError(f"ratio {text!r} exceeds 100%")
        return ws, fs, max(us, 0.0)
    if len(parts) == 3:
        ws, fs, us = (p / 100.0 for p in parts)
        if abs(ws + fs + us - 1.0) > 1e-9:
            raise ValueError(f"ratio {text!r} does not sum to 100%")
        return ws, fs, us
    raise ValueError(f"cannot parse ratio {text!r}")


def _load_cfg(args, default_ratio=None) -> ExperimentConfig:
    """The config file's, or the default, config with --seed and --ratio
    applied; default_ratio stands in for --ratio when no config file is given."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, train_seed=args.seed)
    ratio = getattr(args, "ratio", None) or (None if args.config else default_ratio)
    if ratio:
        ws, fs, us = parse_ratio(ratio)
        cfg = dataclasses.replace(cfg, ws_fraction=ws, fs_fraction=fs, us_fraction=us)
    return cfg


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the training seed")
    parser.add_argument("--out-dir", type=str, default="out", help="output directory")


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    run = run_experiment(cfg, run_id=args.run_id, out_dir=args.out_dir, periodic_eval=True)
    print(CSV_HEADER)
    print(run.csv_row)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    params, _, _ = load_checkpoint(args.checkpoint)
    dims = (params.feature_dim, params.n_classes)
    expected = (cfg.world.feature_dim, cfg.world.n_hoi_classes)
    if dims != expected:
        raise ValueError(
            f"checkpoint {args.checkpoint} has (feature_dim, n_classes) = {dims}; "
            f"the config has {expected}"
        )
    write_outputs(args.out_dir, {})  # an out dir that cannot be made fails before the world is built
    _, test_images, rare_ids = prepare_world(cfg)
    test_set = prepare_eval_set(test_images, rare_ids, feature_dim=cfg.world.feature_dim, top_k=cfg.top_k)
    report = evaluate(params, test_set)
    write_outputs(args.out_dir, {"eval.json": [json_text(report_to_dict(report))]})
    print(
        report_csv_row(
            report,
            args.run_id,
            cfg.ratio_string(),
            cfg.optimizer.policy.value,
            cfg.element_swap,
            cfg.train_seed,
        )
    )
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    ratios = [parse_ratio(r) for r in args.ratios.split(",")]
    first = args.seed if args.seed is not None else 0
    seeds = list(range(first, first + args.n_seeds))
    rows, aggregates = run_ratio_sweep(cfg, ratios, seeds, out_dir=args.out_dir)
    print(AGGREGATE_HEADER)
    for line in aggregates:
        print(line)
    return 0


def cmd_class_split(args) -> int:
    cfg = _load_cfg(args)
    write_outputs(args.out_dir, {})  # an out dir that cannot be made fails before training
    result = run_class_split(cfg)
    write_outputs(args.out_dir, {"class_split.json": [json_text(result)]})
    print(json.dumps(result["separate"], sort_keys=True))
    print(json.dumps(result["joint"], sort_keys=True))
    return 0


def _print_cycles(reports: list[CycleReport]) -> None:
    for r in reports:
        print(
            f"cycle={r.cycle} map_full={r.map_full:.4f} map_rare={r.map_rare:.4f} "
            f"map_nonrare={r.map_nonrare:.4f} n_pseudo={r.n_pseudo} converged={r.converged}"
        )


def cmd_pseudo_cycle(args) -> int:
    cfg = _load_cfg(args, default_ratio="30/40/30")
    tagged, test_images, rare_ids = prepare_world(cfg)
    _, reports, base_report = iterate_cycles(
        tagged,
        cfg,
        args.cycles if args.cycles else cfg.pseudo_cycles,
        mode=args.mode,
        test_images=test_images,
        rare_ids=rare_ids,
        dump_dir=args.out_dir,
    )
    print(f"base map_full={base_report.map_full:.4f}")
    _print_cycles(reports)
    summary = {"base_map_full": base_report.map_full, "cycles": [dataclasses.asdict(r) for r in reports]}
    write_outputs(args.out_dir, {"pseudo_cycles.json": [json_text(summary)]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hoimix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one configuration and evaluate it")
    _add_common(p)
    p.add_argument("--ratio", type=str, default=None, help='WS/FS split, e.g. "70/30"')
    p.add_argument("--run-id", type=str, default="run")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the config's test world")
    _add_common(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--run-id", type=str, default="eval")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("sweep", help="train over a grid of WS/FS ratios and seeds")
    _add_common(p)
    p.add_argument(
        "--ratios", type=str, default="100/0,70/30,30/70,0/100", help="comma-separated ratios"
    )
    p.add_argument("--n-seeds", type=int, default=3)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("class-split", help="50/50 class split: separate vs joint training")
    _add_common(p)
    p.set_defaults(handler=cmd_class_split)

    p = sub.add_parser("pseudo-cycle", help="pseudo-label training cycles")
    _add_common(p)
    p.add_argument("--ratio", type=str, default=None, help="WS/FS/US split; 30/40/30 without --config")
    p.add_argument("--mode", type=str, choices=("unlabeled", "multistage"), default="unlabeled")
    p.add_argument("--cycles", type=int, default=0, help="0 uses the config value")
    p.set_defaults(handler=cmd_pseudo_cycle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # aborted runs must exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
