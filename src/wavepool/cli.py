"""Command-line entry point: generate, train, evaluate, ablate, sweep,
stability, stats.

Each section of the optional JSON config (``--config``, with a
``schema_version`` field) is decoded into its settings dataclass by
``settings.decode``; a flag whose argparse ``dest`` names a field wins. Each
subcommand takes only the flags it reads, from shared argparse parent
parsers, and matches them by full name only. Exit
codes: 0 success, 1 a package, OS or linear-algebra failure, 2 usage or
configuration error; any other exception is a bug and escapes. All CSV and
JSON outputs are deterministic given (inputs, seed); wall-clock appears only
in the JSON summaries.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, WavepoolError
from .graphs import SplitSpec, dataset_statistics, load_tu_dataset, split_dataset
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
from .settings import decode, typed
from .stability import run_stability_suite, suite_to_json
from .svgplot import bar_chart
from .synth import (
    SIZE_MAX,
    ClassSpec,
    MsgConfig,
    build_msg,
    export_tu,
    size_histogram,
    three_class_config,
)
from .training import TrainConfig

SCHEMA_VERSION = 1
TOP_LEVEL_KEYS = {"schema_version", "msg", "train", "model", "split", "seeds"}


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


def plan_from(cfg: dict, args, seeds: tuple[int, ...]) -> ExperimentPlan:
    train = decode(TrainConfig, cfg.get("train", {}), "train", args, {"seed": seeds[0]})
    split = decode(SplitSpec, cfg.get("split", {}), "split", args, {"seed": seeds[0]})
    return decode(ExperimentPlan, cfg.get("model", {}), "model", args,
                  {"seeds": seeds, "train": train, "split": split})


def seeds_from(cfg: dict, args) -> tuple[int, ...]:
    if getattr(args, "seeds", None) is not None:
        seeds = args.seeds
    elif getattr(args, "num_seeds", None) is not None:
        seeds = tuple(range(args.num_seeds))
    elif "seeds" in cfg:
        seeds = typed(tuple[int, ...], cfg["seeds"], "seeds", ConfigError)
        if not seeds:
            raise ConfigError("config 'seeds' must be a nonempty list of integers")
    else:
        seeds = tuple(range(10))
    if any(s < 0 for s in seeds):
        raise ConfigError(f"seeds must be non-negative, got {list(seeds)}")
    return seeds


# -- small parsers --------------------------------------------------------


def _number_list(kind):
    """An argparse ``type`` for a nonempty comma-separated list of ``kind``."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(kind(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse number list {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty number list {text!r}")
        return values

    return parse


def parse_span(text: str) -> tuple[int, int]:
    """An argparse ``type`` for a range ``LO:HI`` with LO at most HI."""
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse range {text!r}; expected LO:HI") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range {text!r} has LO above HI")
    return lo, hi


def _parse_at_least(lowest: int, highest: float = float("inf")):
    """An argparse ``type`` for an integer of at least ``lowest``, at most ``highest``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        if value > highest:
            raise argparse.ArgumentTypeError(f"must be at most {highest}, got {value}")
        return value

    return parse


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


@dataclass(frozen=True)
class MsgSection:
    """The config's ``msg`` object; ``classes`` (with ``name``) replaces the preset."""

    preset: str = "default"
    per_class: int | None = None
    size_range: tuple[int, int] | None = None
    classes: tuple[ClassSpec, ...] | None = None
    name: str = "msg"


def _msg_config(cfg: dict, args) -> MsgConfig:
    msg = decode(MsgSection, cfg.get("msg", {}), "msg", args)
    if msg.classes is not None:
        return MsgConfig(classes=msg.classes, seed=args.seed, name=msg.name)
    presets = {"default": MsgConfig, "three_class": three_class_config,
               "three-class": three_class_config}
    if msg.preset not in presets:
        raise ConfigError(f"unknown msg preset {msg.preset!r}")
    base = presets[msg.preset](seed=args.seed)
    changes = {k: v for k, v in dict(count=msg.per_class, size_range=msg.size_range).items()
               if v is not None}
    return replace(base, classes=tuple(replace(spec, **changes) for spec in base.classes))


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


def _grid(args):
    """The dataset and plan of a multi-seed command (evaluate, ablate, sweep)."""
    cfg = load_config_file(args.config)
    seeds = seeds_from(cfg, args)
    dataset = _dataset(args)
    return dataset, plan_from(cfg, args, seeds)


def cmd_evaluate(args) -> int:
    dataset, plan = _grid(args)
    result = run_experiment(dataset, plan)
    out = _outdir(args)
    _write_text(out / "per_seed.csv", per_seed_csv(result.results, timing=args.timing))
    _write_text(out / "aggregate.csv", aggregate_csv([result]))
    _write_json(out / "summary.json", {
        "variant": result.variant,
        "mean": result.mean,
        "std": result.std,
        "n": result.n,
        "seeds": list(plan.seeds),
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
    dataset, plan = _grid(args)
    result = run_ablation(dataset, plan)
    baselines = []  # one per seed, from the seed's own split
    for seed in plan.seeds:
        train_ds, _, test_ds = split_dataset(dataset, replace(plan.split, seed=seed))
        baselines.append(majority_baseline(train_ds, test_ds))
    out = _outdir(args)
    all_rows = [r for cell in result.rows for r in cell.results]
    _write_text(out / "ablation_per_seed.csv", per_seed_csv(all_rows, timing=args.timing))
    _write_text(out / "ablation.csv", aggregate_csv(result.rows))
    table = ablation_text_table(result)
    _write_text(out / "ablation.txt", table)
    _write_json(out / "summary.json", {
        "rows": [{"variant": r.variant, "mean": r.mean, "std": r.std, "n": r.n}
                 for r in result.rows],
        "seeds": list(plan.seeds),
        "majority_baseline": baselines,
    })
    print(table, end="")
    return 0


def cmd_sweep(args) -> int:
    dataset, plan = _grid(args)
    result = run_sensitivity(dataset, plan, args.axis, list(args.values))
    out = _outdir(args)
    _write_text(out / f"sweep_{args.axis}.csv", sweep_csv(result))
    _write_text(out / f"sweep_{args.axis}.svg", sweep_svg(result))
    _write_json(out / "summary.json", {
        "axis": result.axis,
        "cells": [{"value": v, "mean": c.mean, "std": c.std, "n": c.n}
                  for v, c in zip(result.values, result.cells)],
        "seeds": list(plan.seeds),
    })
    for v, c in zip(result.values, result.cells):
        print(f"{result.axis}={v:g}: {c.mean:.4f} +/- {c.std:.4f}")
    return 0


def cmd_stability(args) -> int:
    report, checks, notes = run_stability_suite(
        seed=args.seed, graph_count=args.graphs, size_range=args.size_range or (8, 32),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavepool",
        description="cross-scale graph classification: data, training, analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared between subcommands; each flag's dest is the settings
    # field it sets, which settings.decode reads by name
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file (schema_version %d)" % SCHEMA_VERSION)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_parse_at_least(0), default=0, help="base random seed")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="TU-format dataset directory")

    training = argparse.ArgumentParser(add_help=False, parents=[config, data])
    training.add_argument("--variant", choices=VARIANTS)
    training.add_argument("--scales", type=_number_list(float),
                          help="comma-separated wavelet scales, e.g. 1,2,3")
    training.add_argument("--order", type=int, help="polynomial approximation order")
    training.add_argument("--m-out", type=int, help="final pooled size")
    training.add_argument("--epochs", type=int)
    training.add_argument("--batch-size", type=int)
    training.add_argument("--lr", dest="learning_rate", type=float, help="learning rate")
    training.add_argument("--beta", type=float, help="structure-loss mixing weight")
    training.add_argument("--grad-clip", dest="grad_clip_norm", type=float,
                          help="global gradient-norm cap")
    training.add_argument("--no-stratify", dest="stratified", action="store_const", const=False,
                          help="split without per-class stratification")

    grid = argparse.ArgumentParser(add_help=False, parents=[training])
    seed_list = grid.add_mutually_exclusive_group()
    seed_list.add_argument("--seeds", type=_number_list(int),
                           help="comma-separated explicit seed list")
    seed_list.add_argument("--num-seeds", type=_parse_at_least(1), help="use seeds 0..N-1")
    grid.add_argument("--timing", action="store_true",
                      help="write wall-clock into per-seed CSV (breaks byte-reproducibility)")

    def command(name, func, help, parents, out_required=True):
        # no prefix matching: evaluate's --seeds would otherwise take --seed
        p = sub.add_parser(name, help=help, parents=parents, allow_abbrev=False)
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("-v", "--verbose", action="count", default=0)
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, "build the synthetic benchmark", [config, seed])
    p.add_argument("--preset", choices=("default", "three-class", "three_class"))
    p.add_argument("--per-class", type=int)
    p.add_argument("--size-range", type=parse_span, help="node-count range LO:HI")
    p.add_argument("--bins", type=_parse_at_least(1, SIZE_MAX), default=20, help="histogram bins")

    command("train", cmd_train, "train one model on a TU-format dataset", [training, seed])
    command("evaluate", cmd_evaluate, "multi-seed accuracy for one variant", [grid])
    command("ablate", cmd_ablate, "run all four variants", [grid])
    p = command("sweep", cmd_sweep, "sensitivity sweep along one axis", [grid])
    p.add_argument("--axis", choices=("F", "M", "beta"), required=True)
    p.add_argument("--values", type=_number_list(float), required=True,
                   help="comma-separated axis values (integers for F and M)")

    p = command("stability", cmd_stability, "perturbation-bound checks", [seed],
                out_required=False)
    p.add_argument("--trials", type=_parse_at_least(1, 100_000), default=10_000)
    p.add_argument("--graphs", type=_parse_at_least(1), default=5)
    p.add_argument("--size-range", type=parse_span, help="graph size range LO:HI (default 8:32)")

    command("stats", cmd_stats, "dataset statistics report", [data], out_required=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=(logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)],
        format="%(levelname)s %(name)s: %(message)s",
    )
    return exit_code(lambda: args.func(args))


def exit_code(run) -> int:
    """``run()``'s exit code, with an expected failure reported on standard
    error: 2 for a configuration error, 1 for another package, OS or
    linear-algebra failure. Any other exception is a bug and escapes."""
    try:
        return run()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (WavepoolError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
