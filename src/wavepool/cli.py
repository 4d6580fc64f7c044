"""Command-line entry point: generate, train, evaluate, ablate, sweep,
stability, stats.

Configuration comes from an optional JSON file (``--config``, with a
``schema_version`` field) overridden by flags. Exit codes: 0 success,
1 runtime/numeric failure, 2 usage or configuration error. All CSV and JSON
outputs are deterministic given (inputs, seed); measured wall-clock appears
only in the JSON summaries.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .errors import ConfigError
from .graphs import SplitSpec, dataset_statistics, load_tu_dataset
from .harness import (
    ExperimentPlan,
    ablation_text_table,
    aggregate_csv,
    majority_baseline,
    model_config_for,
    per_seed_csv,
    run_ablation,
    run_experiment,
    run_sensitivity,
    sweep_csv,
    sweep_svg,
    train_seed,
)
from .model import VARIANTS, config_to_dict, save_checkpoint
from .stability import run_stability_suite, suite_to_json
from .svgplot import bar_chart
from .synth import ClassSpec, MsgConfig, build_msg, export_tu, size_histogram, three_class_config
from .training import TrainConfig

SCHEMA_VERSION = 1
TOP_LEVEL_KEYS = {"schema_version", "msg", "train", "model", "split", "seeds"}
# the model settings an ExperimentPlan carries; the config's "model" object takes only these
MODEL_KEYS = ("variant", "m_out", "order", "basis_mode", "n_max", "scales")


# -- config file ----------------------------------------------------------


def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config file {path} needs schema_version = {SCHEMA_VERSION}, "
            f"got {data.get('schema_version')!r}"
        )
    unknown = set(data) - TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {sorted(unknown)}")
    return data


def _build(cls, section: dict, overrides: dict, label: str):
    merged = dict(section)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**merged)
    except TypeError as exc:
        raise ConfigError(f"bad {label} settings: {exc}") from exc


def train_config_from(cfg: dict, args, seed: int) -> TrainConfig:
    overrides = {
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "learning_rate": args.lr,
        "beta": args.beta,
        "optimizer": args.optimizer,
        "grad_clip_norm": args.grad_clip,
        "seed": seed,
    }
    return _build(TrainConfig, cfg.get("train", {}), overrides, "train")


def split_spec_from(cfg: dict, args, seed: int) -> SplitSpec:
    overrides: dict = {"seed": seed}
    if getattr(args, "no_stratify", False):
        overrides["stratified"] = False
    return _build(SplitSpec, cfg.get("split", {}), overrides, "split")


def _model_section(cfg: dict, args) -> dict:
    section = cfg.get("model", {})
    if not isinstance(section, dict):
        raise ConfigError("config 'model' must be an object")
    unknown = sorted(set(section) - set(MODEL_KEYS))
    if unknown:
        raise ConfigError(f"config model section has unknown keys {unknown}; "
                          f"accepted: {list(MODEL_KEYS)}")
    section = dict(section)
    if "scales" in section:
        try:
            section["scales"] = tuple(float(s) for s in section["scales"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config model scales must be a list of numbers: {exc}") from exc
    overrides = {
        "variant": args.variant,
        "m_out": args.m_out,
        "order": args.order,
        "basis_mode": args.basis_mode,
        "n_max": args.n_max,
        "scales": _parse_floats(args.scales) if args.scales else None,
    }
    section.update({k: v for k, v in overrides.items() if v is not None})
    return section


def plan_from(cfg: dict, args, seeds: tuple[int, ...]) -> ExperimentPlan:
    section = _model_section(cfg, args)
    fields = {
        "seeds": seeds,
        "train": train_config_from(cfg, args, seeds[0]),
        "split": split_spec_from(cfg, args, seeds[0]),
    }
    fields.update(section)
    try:
        return ExperimentPlan(**fields)
    except TypeError as exc:
        raise ConfigError(f"bad model settings: {exc}") from exc


def seeds_from(cfg: dict, args) -> tuple[int, ...]:
    if getattr(args, "seeds", None):
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError as exc:
            raise ConfigError(f"cannot parse seed list {args.seeds!r}") from exc
    elif getattr(args, "num_seeds", None) is not None:
        if args.num_seeds < 1:
            raise ConfigError(f"--num-seeds must be at least 1, got {args.num_seeds}")
        seeds = tuple(range(args.num_seeds))
    elif "seeds" in cfg:
        seeds = cfg["seeds"]
        if (not isinstance(seeds, list) or not seeds
                or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)):
            raise ConfigError("config 'seeds' must be a nonempty list of integers")
        seeds = tuple(seeds)
    else:
        seeds = tuple(range(10))
    if any(s < 0 for s in seeds):
        raise ConfigError(f"seeds must be non-negative, got {list(seeds)}")
    return seeds


# -- small parsers --------------------------------------------------------


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}") from exc
    if not values:
        raise ConfigError(f"empty number list {text!r}")
    return values


def _parse_span(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse range {text!r}; expected LO:HI") from exc
    return lo, hi


def _dataset(args):
    path = Path(args.data)
    if not path.is_dir():
        raise ConfigError(f"dataset path {path} does not exist or is not a directory")
    return load_tu_dataset(path)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# -- subcommands ----------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = load_config_file(args.config)
    msg_cfg = _msg_config(cfg, args)
    dataset = build_msg(msg_cfg)
    out = _outdir(args)
    export_tu(dataset, out, dataset.name)
    stats = dataset_statistics(dataset)
    _write_json(out / "stats.json", stats.to_json())
    counts, edges = size_histogram(dataset, bins=args.bins)
    lines = ["bin_lo,bin_hi,count"]
    for i, count in enumerate(counts):
        lines.append(f"{edges[i]:.10g},{edges[i + 1]:.10g},{int(count)}")
    _write_text(out / "size_hist.csv", "\n".join(lines) + "\n")
    _write_text(out / "size_hist.svg", bar_chart(
        edges, counts, title=f"graph sizes: {dataset.name}",
        xlabel="nodes", ylabel="graphs"))
    print(f"wrote {len(dataset.graphs)} graphs ({dataset.class_count} classes) to {out}")
    return 0


def _msg_config(cfg: dict, args) -> MsgConfig:
    section = dict(cfg.get("msg", {}))
    preset = args.preset or section.get("preset", "default")
    per_class = args.per_class or section.get("per_class")
    span = _parse_span(args.size_range) if args.size_range else (
        tuple(section["size_range"]) if "size_range" in section else None)
    if "classes" in section:
        try:
            classes = tuple(
                ClassSpec(**{**d, "size_range": tuple(d.get("size_range", (4, 1000)))})
                for d in section["classes"]
            )
        except TypeError as exc:
            raise ConfigError(f"bad msg class spec: {exc}") from exc
        return MsgConfig(classes=classes, seed=args.seed, name=section.get("name", "msg"))
    if preset in ("three_class", "three-class"):
        return three_class_config(
            per_class=per_class or 60,
            size_range=span or (20, 200),
            seed=args.seed,
        )
    if preset != "default":
        raise ConfigError(f"unknown msg preset {preset!r}")
    base = MsgConfig(seed=args.seed)
    if per_class or span:
        classes = tuple(
            replace(spec, count=per_class or spec.count,
                    size_range=span or spec.size_range)
            for spec in base.classes
        )
        base = MsgConfig(classes=classes, seed=args.seed)
    return base


def cmd_train(args) -> int:
    cfg = load_config_file(args.config)
    plan = plan_from(cfg, args, (args.seed,))
    dataset = _dataset(args)
    model, outcome, (train_ds, _, test_ds), test_acc = train_seed(
        dataset, plan, model_config_for(dataset, plan), args.seed)
    out = _outdir(args)
    save_checkpoint(
        out / "checkpoint.bin", model.config, model.state(),
        extra={"seed": args.seed, "best_val_acc": outcome.report.best_val_acc,
               "best_epoch": outcome.report.best_epoch},
    )
    _write_text(out / "report.csv", outcome.report.to_csv())
    summary = outcome.report.summary()
    summary.update({
        "test_acc": test_acc,
        "model": config_to_dict(model.config),
        "train": asdict(plan.train),
        "majority_baseline": majority_baseline(train_ds, test_ds),
    })
    _write_json(out / "summary.json", summary)
    print(f"test accuracy {test_acc:.4f} (best val {outcome.report.best_val_acc:.4f}); "
          f"outputs in {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config_file(args.config)
    seeds = seeds_from(cfg, args)
    dataset = _dataset(args)
    plan = plan_from(cfg, args, seeds)
    result = run_experiment(dataset, plan)
    out = _outdir(args)
    _write_text(out / "per_seed.csv", per_seed_csv(result.results, timing=args.timing))
    _write_text(out / "aggregate.csv", aggregate_csv([result]))
    _write_json(out / "summary.json", {
        "variant": result.variant,
        "mean": result.mean,
        "std": result.std,
        "n": result.n,
        "seeds": list(seeds),
        "per_seed": [
            {"seed": r.seed, "test_acc": r.test_acc, "epochs": r.epochs_run,
             "seconds": r.seconds, "error": r.error}
            for r in result.results
        ],
        "train": asdict(plan.train),
    })
    print(f"{result.variant}: {result.mean:.4f} +/- {result.std:.4f} over {result.n} seeds")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config_file(args.config)
    seeds = seeds_from(cfg, args)
    dataset = _dataset(args)
    plan = plan_from(cfg, args, seeds)
    result = run_ablation(dataset, plan)
    out = _outdir(args)
    all_rows = [r for cell in result.rows for r in cell.results]
    _write_text(out / "ablation_per_seed.csv", per_seed_csv(all_rows, timing=args.timing))
    _write_text(out / "ablation.csv", aggregate_csv(result.rows))
    table = ablation_text_table(result)
    _write_text(out / "ablation.txt", table)
    _write_json(out / "summary.json", {
        "rows": [{"variant": r.variant, "mean": r.mean, "std": r.std, "n": r.n}
                 for r in result.rows],
        "seeds": list(seeds),
    })
    print(table, end="")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config_file(args.config)
    seeds = seeds_from(cfg, args)
    dataset = _dataset(args)
    plan = plan_from(cfg, args, seeds)
    values = list(_parse_floats(args.values))
    result = run_sensitivity(dataset, plan, args.axis, values)
    out = _outdir(args)
    _write_text(out / f"sweep_{args.axis}.csv", sweep_csv(result))
    _write_text(out / f"sweep_{args.axis}.svg", sweep_svg(result))
    _write_json(out / "summary.json", {
        "axis": result.axis,
        "cells": [{"value": v, "mean": c.mean, "std": c.std, "n": c.n}
                  for v, c in zip(result.values, result.cells)],
        "seeds": list(seeds),
    })
    for v, c in zip(result.values, result.cells):
        print(f"{result.axis}={v:g}: {c.mean:.4f} +/- {c.std:.4f}")
    return 0


def cmd_stability(args) -> int:
    span = _parse_span(args.size_range) if args.size_range else (8, 32)
    report, checks, notes = run_stability_suite(
        seed=args.seed, graph_count=args.graphs, size_range=span,
        trials=args.trials,
    )
    for c in checks:
        verdict = "PASS" if c.outcome.violations == 0 else "FAIL"
        print(f"{c.layer:9s} graph={c.graph_index} n={c.size} bound={c.bound:.5g} "
              f"max_ratio={c.outcome.max_ratio:.8f} {verdict}")
    print(f"total: {report.trials} trials, {report.violations} violations, "
          f"max ratio {report.max_ratio:.8f}")
    if args.out:
        out = _outdir(args)
        _write_json(out / "stability.json", suite_to_json(report, checks, notes))
    return 0 if report.passing else 1


def cmd_stats(args) -> int:
    dataset = _dataset(args)
    stats = dataset_statistics(dataset)
    text = json.dumps(stats.to_json(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        _write_json(_outdir(args) / "stats.json", stats.to_json())
    return 0


# -- parser ---------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, out_required: bool = True) -> None:
    p.add_argument("--config", help="JSON config file (schema_version %d)" % SCHEMA_VERSION)
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.add_argument("--out", required=out_required, help="output directory")
    p.add_argument("-v", "--verbose", action="count", default=0)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--scales", help="comma-separated wavelet scales, e.g. 1,2,3")
    p.add_argument("--order", type=int, help="polynomial approximation order")
    p.add_argument("--m-out", type=int, help="final pooled size")
    p.add_argument("--n-max", type=int, help="largest supported graph size")
    p.add_argument("--basis-mode", choices=("closed_form", "fitted_kernel"))


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument("--beta", type=float, help="structure-loss mixing weight")
    p.add_argument("--optimizer", choices=("adam", "momentum"))
    p.add_argument("--grad-clip", type=float, help="global gradient-norm cap")
    p.add_argument("--no-stratify", action="store_true",
                   help="split without per-class stratification")


def _add_seed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", help="comma-separated explicit seed list")
    p.add_argument("--num-seeds", type=int, help="use seeds 0..N-1")
    p.add_argument("--timing", action="store_true",
                   help="write wall-clock into per-seed CSV (breaks byte-reproducibility)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavepool",
        description="cross-scale graph classification: data, training, analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build the synthetic benchmark")
    _add_common(p)
    p.add_argument("--preset", choices=("default", "three-class", "three_class"))
    p.add_argument("--per-class", type=int)
    p.add_argument("--size-range", help="node-count range LO:HI")
    p.add_argument("--bins", type=int, default=20, help="histogram bins")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model on a TU-format dataset")
    _add_common(p)
    p.add_argument("--data", required=True, help="TU-format dataset directory")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="multi-seed accuracy for one variant")
    _add_common(p)
    p.add_argument("--data", required=True)
    _add_model_flags(p)
    _add_train_flags(p)
    _add_seed_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run all four variants")
    _add_common(p)
    p.add_argument("--data", required=True)
    _add_model_flags(p)
    _add_train_flags(p)
    _add_seed_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sensitivity sweep along one axis")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--axis", choices=("F", "M", "beta"), required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    _add_model_flags(p)
    _add_train_flags(p)
    _add_seed_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stability", help="perturbation-bound checks")
    _add_common(p, out_required=False)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--graphs", type=int, default=5)
    p.add_argument("--size-range", help="graph size range LO:HI (default 8:32)")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("stats", help="dataset statistics report")
    _add_common(p, out_required=False)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
