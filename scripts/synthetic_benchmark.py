#!/usr/bin/env python3
"""Reproduce the headline synthetic experiment: build the three-class
cross-scale benchmark and compare all four model variants over several seeds.

    python3 scripts/synthetic_benchmark.py --out runs/bench
    python3 scripts/synthetic_benchmark.py --per-class 30 --seeds 3 --epochs 50

Outputs: the generated dataset (TU text format), per-seed and aggregate CSVs,
a plain-text comparison table, and the majority baseline for context.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from wavepool.cli import _parse_at_least, exit_code, parse_span
from wavepool.graphs import SplitSpec, split_dataset
from wavepool.harness import (
    ExperimentPlan,
    ablation_text_table,
    aggregate_csv,
    majority_baseline,
    per_seed_csv,
    run_ablation,
)
from wavepool.synth import build_msg, export_tu, three_class_config
from wavepool.training import TrainConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/synthetic", help="output directory")
    parser.add_argument("--per-class", type=_parse_at_least(1), default=60)
    parser.add_argument("--size-range", type=parse_span, default="20:200",
                        help="node range LO:HI")
    parser.add_argument("--seeds", type=_parse_at_least(0), default=5,
                        help="use seeds 0..N-1")
    parser.add_argument("--epochs", type=_parse_at_least(0), default=200)
    parser.add_argument("--data-seed", type=_parse_at_least(0), default=0)
    args = parser.parse_args(argv)
    return exit_code(lambda: run(args))


def run(args) -> int:
    plan = ExperimentPlan(
        seeds=tuple(range(args.seeds)),
        train=TrainConfig(epochs=args.epochs),
    )
    dataset = build_msg(three_class_config(
        per_class=args.per_class, size_range=args.size_range, seed=args.data_seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_tu(dataset, out / "dataset", dataset.name)
    print(f"built {len(dataset.graphs)} graphs, "
          f"{dataset.sizes.min()}-{dataset.sizes.max()} nodes")

    started = time.monotonic()
    result = run_ablation(dataset, plan)
    elapsed = time.monotonic() - started

    all_rows = [r for cell in result.rows for r in cell.results]
    (out / "per_seed.csv").write_text(per_seed_csv(all_rows))
    (out / "ablation.csv").write_text(aggregate_csv(result.rows))
    table = ablation_text_table(result)
    (out / "ablation.txt").write_text(table)

    train_ds, _, test_ds = split_dataset(dataset, SplitSpec(seed=plan.seeds[0]))
    print(table)
    print(f"majority baseline: {majority_baseline(train_ds, test_ds):.4f}")
    print(f"total wall time: {elapsed:.0f}s; outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
