"""Multi-seed experiment runner, ablation grid, and hyperparameter sweeps.

Each seed gets its own split, model initialization, and shuffling stream, all
derived from that seed alone, so sweep cells that share a seed share the same
split and only the swept hyperparameter varies. Test accuracy is taken at
the best-validation checkpoint. ``run_grid`` is the one seed loop behind
``run_experiment``, ``run_ablation`` and ``run_sensitivity``. It builds every
cell's model settings before any seed runs, so a bad one raises
``ConfigError`` up front instead of failing each seed; it runs each seed
through ``run_seed``, which records a failure and the wall time and emits
nothing; and it alone warns about failed seeds. ``train_seed`` is the seed
run inside ``run_seed``, shared by the ``train`` command. A ``ConfigError``
inside a seed (an empty split depends only on class counts) fails the run too.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractViolationError, WavepoolError
from .graphs import GraphDataset, SplitSpec, split_dataset
from .model import VARIANTS, CrossScaleModel, ModelConfig
from .svgplot import line_plot
from .training import RunReport, TrainConfig, TrainOutcome, evaluate_accuracy, train

SWEEP_AXES = ("F", "M", "beta")

PER_SEED_HEADER = "variant,seed,test_acc,epochs,seconds"
AGGREGATE_HEADER = "variant,mean,std,n"
SWEEP_HEADER = "axis,value,mean,std"


@dataclass(frozen=True)
class ExperimentPlan:
    variant: str = "wavelet_spectral"
    seeds: tuple[int, ...] = tuple(range(10))
    train: TrainConfig = TrainConfig()
    split: SplitSpec = SplitSpec()
    m_out: int = 4
    scales: tuple[float, ...] = (1.0, 2.0, 3.0)
    order: int = 16

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"seeds must be distinct, got {repeated} more than once")


@dataclass
class SeedResult:
    variant: str
    seed: int
    test_acc: float
    epochs_run: int
    seconds: float
    error: str | None = None
    report: RunReport | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ExperimentResult:
    variant: str
    results: list[SeedResult]
    mean: float
    std: float
    n: int


def aggregate(values: list[float]) -> tuple[float, float, int]:
    """Mean and sample (n-1) standard deviation; a single value has std 0."""
    n = len(values)
    if n == 0:
        return float("nan"), float("nan"), 0
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if n > 1 else 0.0
    return mean, std, n


def model_config_for(dataset: GraphDataset, plan: ExperimentPlan) -> ModelConfig:
    """The plan's model settings for this dataset, allocated for its largest
    graph; invalid settings raise ``ConfigError``."""
    try:
        return ModelConfig(
            feature_dim=dataset.feature_dim,
            class_count=dataset.class_count,
            variant=plan.variant,
            n_max=int(dataset.sizes.max()),
            m_out=plan.m_out,
            scales=plan.scales,
            order=plan.order,
        )
    except ValueError as exc:  # ContractViolationError names the field
        raise ConfigError(f"bad model settings: {exc}") from exc


class SeedRun(NamedTuple):
    model: CrossScaleModel  # holding its best-validation parameters
    outcome: TrainOutcome
    splits: tuple[GraphDataset, GraphDataset, GraphDataset]  # train, val, test
    test_acc: float


def train_seed(dataset: GraphDataset, plan: ExperimentPlan, config: ModelConfig,
               seed: int) -> SeedRun:
    """One seed's split, model, training and test accuracy."""
    splits = split_dataset(dataset, replace(plan.split, seed=seed))
    model = CrossScaleModel(config, seed=seed)
    outcome = train(model, splits[0], splits[1], replace(plan.train, seed=seed))
    return SeedRun(model, outcome, splits, evaluate_accuracy(model, splits[2]))


def run_seed(dataset: GraphDataset, plan: ExperimentPlan, config: ModelConfig,
             seed: int) -> SeedResult:
    """One seed's result and wall time; emits nothing. A package or linear-algebra
    failure is recorded in ``error``. A ``ConfigError`` (an empty split fails every
    seed alike) and any other exception (a bug) propagate."""
    start = time.perf_counter()
    try:
        run = train_seed(dataset, plan, config, seed)
    except ConfigError:
        raise
    except (WavepoolError, np.linalg.LinAlgError) as exc:
        return SeedResult(
            variant=plan.variant,
            seed=seed,
            test_acc=float("nan"),
            epochs_run=0,
            seconds=time.perf_counter() - start,
            error=str(exc),
        )
    return SeedResult(
        variant=plan.variant,
        seed=seed,
        test_acc=run.test_acc,
        epochs_run=len(run.outcome.report.epochs),
        seconds=time.perf_counter() - start,
        report=run.outcome.report,
    )


def run_grid(dataset: GraphDataset, plans: list[ExperimentPlan]) -> list[ExperimentResult]:
    """One aggregate per plan, in order: the one seed loop. Every plan's model
    settings are built before any seed runs. Failed seeds are warned about here
    and nowhere else: each in seed order, then the plan's partial-failure summary."""
    configs = [model_config_for(dataset, plan) for plan in plans]
    cells = []
    for plan, config in zip(plans, configs):
        results = [run_seed(dataset, plan, config, seed) for seed in plan.seeds]
        failed = [r for r in results if not r.ok]
        for r in failed:
            warnings.warn(f"seed {r.seed} failed: {r.error}")
        if failed:
            warnings.warn(f"{len(failed)} of {len(results)} seeds failed; "
                          "aggregate covers the successes only")
        mean, std, n = aggregate([r.test_acc for r in results if r.ok])
        cells.append(ExperimentResult(plan.variant, results, mean, std, n))
    return cells


def run_experiment(dataset: GraphDataset, plan: ExperimentPlan) -> ExperimentResult:
    return run_grid(dataset, [plan])[0]


def majority_baseline(train_ds: GraphDataset, test_ds: GraphDataset) -> float:
    """Accuracy of always predicting the training majority class."""
    labels = [g.label for g in train_ds.graphs]
    majority = max(sorted(set(labels)), key=labels.count)
    return sum(1 for g in test_ds.graphs if g.label == majority) / len(test_ds.graphs)


# -- ablation grid --------------------------------------------------------


@dataclass
class AblationResult:
    rows: list[ExperimentResult] = field(default_factory=list)


def run_ablation(dataset: GraphDataset, plan: ExperimentPlan) -> AblationResult:
    """One aggregate row per variant, in the fixed enum order."""
    return AblationResult(rows=run_grid(dataset, [replace(plan, variant=v) for v in VARIANTS]))


def ablation_text_table(result: AblationResult) -> str:
    width = max(len(r.variant) for r in result.rows)
    lines = [f"{'variant'.ljust(width)}  accuracy"]
    lines.append("-" * (width + 18))
    for r in result.rows:
        lines.append(f"{r.variant.ljust(width)}  {100 * r.mean:.2f} +/- {100 * r.std:.2f}")
    return "\n".join(lines) + "\n"


# -- sensitivity sweeps ---------------------------------------------------


def scales_for_count(count: int) -> tuple[float, ...]:
    """F scales at unit spacing: 1, 2, ..., F."""
    if count < 1:
        raise ConfigError(f"need at least one scale, got {count}")
    return tuple(float(i) for i in range(1, count + 1))


def plan_for_axis_value(plan: ExperimentPlan, axis: str, value: float) -> ExperimentPlan:
    """``plan`` with ``axis`` set to ``value``; a count axis (F, M) takes integers only."""
    if axis in ("F", "M") and not float(value).is_integer():
        raise ConfigError(f"sweep axis {axis} takes integer values, got {value:g}")
    if axis == "F":
        return replace(plan, scales=scales_for_count(int(value)))
    if axis == "M":
        return replace(plan, order=int(value))
    if axis == "beta":
        return replace(plan, train=replace(plan.train, beta=float(value)))
    raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


@dataclass
class SweepResult:
    axis: str
    values: list[float]
    cells: list[ExperimentResult]


def run_sensitivity(dataset: GraphDataset, plan: ExperimentPlan, axis: str,
                    values: list[float]) -> SweepResult:
    if not values:
        raise ContractViolationError("sweep needs at least one axis value")
    plans = [plan_for_axis_value(plan, axis, v) for v in values]
    return SweepResult(axis=axis, values=[float(v) for v in values],
                       cells=run_grid(dataset, plans))


# -- CSV emit / reload ----------------------------------------------------


def per_seed_csv(results: list[SeedResult], timing: bool = False) -> str:
    """Per-seed rows; the seconds cell is empty unless ``timing`` is set.

    Wall-clock is not reproducible, so writing it would break byte-identical
    re-runs; the measured values always appear in the JSON summary instead.
    """
    lines = [PER_SEED_HEADER]
    for r in results:
        seconds = f"{r.seconds:.3f}" if timing else ""
        lines.append(
            f"{r.variant},{r.seed},{r.test_acc:.10g},{r.epochs_run},{seconds}"
        )
    return "\n".join(lines) + "\n"


def aggregate_csv(rows: list[ExperimentResult]) -> str:
    lines = [AGGREGATE_HEADER]
    for r in rows:
        lines.append(f"{r.variant},{r.mean:.10g},{r.std:.10g},{r.n}")
    return "\n".join(lines) + "\n"


def sweep_csv(result: SweepResult) -> str:
    lines = [SWEEP_HEADER]
    for value, cell in zip(result.values, result.cells):
        lines.append(f"{result.axis},{value:.10g},{cell.mean:.10g},{cell.std:.10g}")
    return "\n".join(lines) + "\n"


def sweep_svg(result: SweepResult) -> str:
    means = [cell.mean for cell in result.cells]
    stds = [cell.std for cell in result.cells]
    return line_plot(
        result.values, means, yerr=stds,
        title=f"sensitivity along {result.axis}",
        xlabel=result.axis, ylabel="test accuracy",
    )

