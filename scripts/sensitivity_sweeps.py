#!/usr/bin/env python3
"""Run the three sensitivity sweeps (scale count F, polynomial order M,
loss-mix weight beta) on the synthetic benchmark and plot each curve.

    python3 scripts/sensitivity_sweeps.py --out runs/sweeps
    python3 scripts/sensitivity_sweeps.py --axes beta --seeds 3

Each axis produces sweep_<axis>.csv and sweep_<axis>.svg. Accuracy trends are
recorded for inspection, not asserted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from wavepool.cli import _parse_at_least, exit_code, parse_span
from wavepool.harness import (
    ExperimentPlan,
    run_sensitivity,
    sweep_csv,
    sweep_svg,
)
from wavepool.synth import build_msg, three_class_config
from wavepool.training import TrainConfig

GRIDS: dict[str, list[float]] = {
    "F": [1, 2, 3, 4],
    "M": [2, 4, 8, 16],
    "beta": [round(0.1 * i, 1) for i in range(10)],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/sweeps", help="output directory")
    parser.add_argument("--axes", nargs="+", choices=sorted(GRIDS),
                        default=["F", "M", "beta"])
    parser.add_argument("--per-class", type=_parse_at_least(1), default=60)
    parser.add_argument("--size-range", type=parse_span, default="20:200",
                        help="node range LO:HI")
    parser.add_argument("--seeds", type=_parse_at_least(0), default=5,
                        help="use seeds 0..N-1")
    parser.add_argument("--epochs", type=_parse_at_least(0), default=200)
    args = parser.parse_args(argv)
    return exit_code(lambda: run(args))


def run(args) -> int:
    plan = ExperimentPlan(
        seeds=tuple(range(args.seeds)),
        train=TrainConfig(epochs=args.epochs),
    )
    dataset = build_msg(three_class_config(
        per_class=args.per_class, size_range=args.size_range, seed=0))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for axis in args.axes:
        values = GRIDS[axis]
        print(f"sweeping {axis} over {values} ...")
        sweep = run_sensitivity(dataset, plan, axis, values)
        (out / f"sweep_{axis}.csv").write_text(sweep_csv(sweep))
        (out / f"sweep_{axis}.svg").write_text(sweep_svg(sweep))
        for value, cell in zip(sweep.values, sweep.cells):
            print(f"  {axis}={value:g}: {cell.mean:.4f} +/- {cell.std:.4f}")
    print(f"outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
