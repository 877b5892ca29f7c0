"""Operator command line: generation, training, evaluation, prediction,
attention export.

Exit codes: 0 success, 1 validation failure (bad flags, bad config, bad
data, bad checkpoint), 2 runtime failure, internal faults included.  Primary
outputs go to files or stdout as strict JSON or CSV, each file replaced
whole; logs go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import ABLATION_CHOICES, ConfigError, POOLING_CHOICES, RunConfig
from .data import DatasetError, _fmt, atomic_write, load_dataset, split_dataset, write_dataset
from .graphs import GraphValidationError
from .model import (
    CheckpointError,
    EmissionModel,
    ForwardRecord,
    fit_normalization,
    load_checkpoint,
    prepare_dataset,
    refresh_region_cache,
    save_checkpoint,
)
from .synth import SynthParams, generate_synthetic
from .tensor import no_grad
from .train import evaluate, predict_split, train

logger = logging.getLogger("roadcarbon")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

VALIDATION_ERRORS = (
    ConfigError,
    DatasetError,
    GraphValidationError,
    CheckpointError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage by default; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="roadcarbon",
        description="Regional on-road carbon emission regression over "
        "hierarchical road/OD graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="generate a synthetic dataset directory")
    g.add_argument("--out", required=True, help="output dataset directory")
    g.add_argument("--regions", type=int, dest="n_regions", default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--grid-side", type=int, dest="grid_side", default=4)
    g.add_argument("--communities", type=int, default=8)
    g.add_argument("--noise-std", type=float, dest="noise_std", default=0.1)
    g.add_argument("--gravity-gamma", type=float, dest="gravity_gamma", default=2.0)
    g.add_argument("--k-nearest", type=int, dest="k_nearest_regions", default=4)
    g.add_argument("--extent-km", type=float, dest="region_extent_km", default=20.0)
    g.add_argument("--deletion-frac", type=float, dest="edge_deletion_frac", default=0.2)

    t = sub.add_parser("train", help="train a model from a config file")
    t.add_argument("--config", required=True, help="flat key=value config file")
    t.add_argument("--ablation", choices=ABLATION_CHOICES)
    t.add_argument("--data", dest="data_dir", help="override data_dir")
    t.add_argument("--out", dest="out_dir", help="override out_dir")
    t.add_argument("--seed", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--patience", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--hidden", type=int)
    t.add_argument("--layers", type=int)
    t.add_argument("--layers-road", type=int, dest="layers_road")
    t.add_argument("--pooling", choices=POOLING_CHOICES)

    e = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", choices=("train", "val", "test"), required=True)

    p = sub.add_parser("predict", help="write per-region predictions as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    d = sub.add_parser(
        "dump-attention", help="export per-region fusion weights as CSV"
    )
    d.add_argument("--checkpoint", required=True)
    d.add_argument("--data", required=True)
    d.add_argument("--out", required=True)
    return parser


def _json(record: dict) -> str:
    """Strict JSON of a flat record; a non-finite float (an undefined R^2) is null."""

    def strict(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v

    return json.dumps({k: strict(v) for k, v in record.items()}, allow_nan=False)


def cmd_gen_synth(args) -> int:
    # every gen-synth flag other than --out names a SynthParams field
    params = SynthParams(**{k: v for k, v in vars(args).items() if k not in ("command", "out")})
    params.validate()
    dataset = generate_synthetic(params)
    out = Path(args.out)
    write_dataset(dataset, out)
    lines = []
    for f in fields(SynthParams):
        value = getattr(params, f.name)
        if isinstance(value, dict):
            continue
        lines.append(f"{f.name}={_fmt(value) if isinstance(value, float) else value}")
    with atomic_write(out / "synth_params.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    logger.info("wrote %d regions to %s", params.n_regions, out)
    return EXIT_OK


def cmd_train(args) -> int:
    # every train flag other than --config names a RunConfig field
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    config = RunConfig.from_file(args.config).with_overrides(**overrides).validate()
    if not config.data_dir:
        raise ConfigError("data_dir must be set (config file or --data)")

    dataset = load_dataset(config.data_dir)
    splits = split_dataset(dataset, config.fractions, config.seed)
    stats = fit_normalization(dataset, splits[0])
    model = EmissionModel(config, stats)
    prepared = prepare_dataset(dataset, stats, config.min_flow, hops=config.layers)
    result = train(model, prepared, splits, config)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # first: a checkpoint that cannot be written leaves no new output at all
    save_checkpoint(model, out_dir / "checkpoint.json")
    config.to_file(out_dir / "config.txt")
    with atomic_write(out_dir / "metrics.jsonl") as fh:
        fh.writelines(_json(entry) + "\n" for entry in result.epoch_log)
    summary = _json(
        {
            "best_epoch": result.best_epoch,
            "best_val_r2": result.best_val_r2,
            "epochs_run": len(result.epoch_log),
            "steps": result.steps,
            "cache_refreshes": result.cache_refreshes,
        }
    )
    with atomic_write(out_dir / "train_summary.json") as fh:
        fh.write(summary)
    print(summary)
    return EXIT_OK


def _check_out(out: str) -> None:
    """Reject an output path that cannot be written, before any work is done."""
    path = Path(out)
    if path.is_dir():
        raise ConfigError(f"--out {out} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"--out {out}: directory {path.parent} does not exist")


def _load_for_inference(checkpoint_path: str, data_dir: str):
    model = load_checkpoint(checkpoint_path)
    if model.stats is None:
        raise CheckpointError("checkpoint carries no normalization statistics")
    dataset = load_dataset(data_dir)
    prepared = prepare_dataset(dataset, model.stats, model.config.min_flow, hops=model.config.layers)
    cache = refresh_region_cache(model, prepared, epoch=0) if model.use_region else None
    return model, dataset, prepared, cache


def cmd_eval(args) -> int:
    model, dataset, prepared, cache = _load_for_inference(args.checkpoint, args.data)
    splits = split_dataset(dataset, model.config.fractions, model.config.seed)
    region_ids = dict(zip(("train", "val", "test"), splits))[args.split]
    norm, raw = evaluate(model, prepared, region_ids, cache)
    payload = {
        "split": args.split,
        "n_regions": len(region_ids),
        "r2": norm.r2,
        "mae": norm.mae,
        "rmse": norm.rmse,
        "raw_r2": raw.r2,
        "raw_mae": raw.mae,
        "raw_rmse": raw.rmse,
    }
    print(_json(payload))
    return EXIT_OK


def cmd_predict(args) -> int:
    _check_out(args.out)
    model, dataset, prepared, cache = _load_for_inference(args.checkpoint, args.data)
    preds = predict_split(model, prepared, prepared.region_ids, cache)
    with atomic_write(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["region_id", "prediction_raw", "prediction_normalized"])
        for region_id, z in preds.items():
            writer.writerow([region_id, _fmt(prepared.stats.denormalize_label(z)), _fmt(z)])
    logger.info("wrote predictions for %d regions to %s", len(preds), args.out)
    return EXIT_OK


def _mean_beta(records, rows) -> dict[str, float]:
    """Fusion weight per tag of one site, averaged over ``rows`` of each
    layer's nodes, then over layers."""
    if not records:
        return {}
    means = np.mean([rec.fusion.beta[rows].mean(axis=0) for rec in records], axis=0)
    return dict(zip(records[0].fusion.tags, means))


def cmd_dump_attention(args) -> int:
    _check_out(args.out)
    model, dataset, prepared, cache = _load_for_inference(args.checkpoint, args.data)
    header = [
        "region_id",
        "beta_rn_community",
        "beta_od_community",
        "beta_rn_region",
        "beta_od_region",
        "beta_intra",
        "beta_inter",
    ]
    with atomic_write(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        with no_grad():
            for region_id in prepared.region_ids:
                record = ForwardRecord()
                model.predict_region(prepared, region_id, cache, record)
                row = {key: "" for key in header}
                row["region_id"] = region_id
                for site, rows in (
                    ("community", slice(None)), ("region", record.region_target_rows)
                ):
                    for tag, value in _mean_beta(getattr(record, site), rows).items():
                        row[f"beta_{tag}_{site}"] = _fmt(value)
                if record.final is not None:
                    row["beta_intra"], row["beta_inter"] = map(_fmt, record.final.beta[0])
                elif not model.use_region:
                    row["beta_intra"], row["beta_inter"] = _fmt(1.0), _fmt(0.0)
                writer.writerow([row[key] for key in header])
    logger.info("wrote attention weights to %s", args.out)
    return EXIT_OK


COMMANDS = {
    "gen-synth": cmd_gen_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "dump-attention": cmd_dump_attention,
}


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        return COMMANDS[args.command](args)
    except VALIDATION_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except Exception as exc:  # anything unexpected is a runtime failure
        logger.exception("runtime failure: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
