import math
import warnings

import numpy as np
import pytest

from wavepool import harness
from wavepool.errors import ConfigError, ContractViolationError, NumericError
from wavepool.graphs import SplitSpec, split_dataset
from wavepool.harness import (
    SWEEP_AXES,
    ExperimentPlan,
    ExperimentResult,
    SeedResult,
    ablation_text_table,
    aggregate,
    aggregate_csv,
    majority_baseline,
    model_config_for,
    per_seed_csv,
    plan_for_axis_value,
    run_ablation,
    run_experiment,
    run_grid,
    run_seed,
    run_sensitivity,
    scales_for_count,
    sweep_csv,
    sweep_svg,
    train_seed,
)
from wavepool.model import VARIANTS
from wavepool.training import TrainConfig

from .conftest import toy_dataset


def quick_plan(**overrides):
    base = dict(
        variant="wavelet_spectral",
        seeds=(0, 1),
        train=TrainConfig(epochs=2, batch_size=8),
        split=SplitSpec(),
        m_out=2,
        scales=(1.0,),
        order=6,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


# -- aggregation ----------------------------------------------------------


def test_aggregate_three_value_fixture():
    mean, std, n = aggregate([0.5, 0.7, 0.9])
    assert mean == pytest.approx(0.7, abs=1e-15)
    assert std == pytest.approx(0.2, abs=1e-12)  # sample std, ddof = 1
    assert n == 3


def test_aggregate_single_value_has_zero_std():
    assert aggregate([0.8]) == (0.8, 0.0, 1)


def test_aggregate_empty_is_nan():
    mean, std, n = aggregate([])
    assert math.isnan(mean) and math.isnan(std) and n == 0


# -- plan and config ------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ConfigError, match="variant"):
        quick_plan(variant="mystery")
    with pytest.raises(ConfigError, match="seed"):
        quick_plan(seeds=())
    with pytest.raises(ConfigError, match=r"seeds must be distinct, got \[0, 2\]"):
        quick_plan(seeds=(2, 0, 1, 2, 0))


def test_model_config_infers_n_max_from_data():
    ds = toy_dataset(per_class=5)
    cfg = model_config_for(ds, quick_plan())
    assert cfg.n_max == int(ds.sizes.max())
    assert cfg.feature_dim == ds.feature_dim
    assert cfg.class_count == 2


@pytest.mark.parametrize("settings", [{"order": 0}, {"m_out": "2"}, {"scales": (-1.0,)}])
def test_bad_model_settings_fail_the_run_not_each_seed(settings):
    ds = toy_dataset(per_class=10)
    plan = quick_plan(**settings)
    with pytest.raises(ConfigError, match="model settings"):
        model_config_for(ds, plan)
    with pytest.raises(ConfigError, match="model settings"):
        run_experiment(ds, plan)


# -- seed runs ------------------------------------------------------------


def test_train_seed_is_the_seed_run_of_the_experiment():
    ds = toy_dataset(per_class=10)
    plan = quick_plan()
    run = train_seed(ds, plan, model_config_for(ds, plan), 1)
    result = run_seed(ds, plan, model_config_for(ds, plan), seed=1)
    assert run.test_acc == result.test_acc
    assert run.outcome.report.to_csv() == result.report.to_csv()
    assert sum(len(split.graphs) for split in run.splits) == len(ds.graphs)
    assert run.model.config == model_config_for(ds, plan)
    assert run_experiment(ds, plan).results[1].test_acc == result.test_acc


def test_run_seed_success():
    ds = toy_dataset(per_class=10)
    plan = quick_plan()
    result = run_seed(ds, plan, model_config_for(ds, plan), seed=0)
    assert result.ok
    assert result.variant == "wavelet_spectral"
    assert 0.0 <= result.test_acc <= 1.0
    assert result.epochs_run == 2
    assert result.seconds > 0
    assert result.report is not None


def failing_train(exc, seeds=None):
    """A stand-in for ``harness.train`` that raises ``exc`` on ``seeds`` (all
    seeds when None) and trains normally otherwise."""
    real = harness.train

    def train(model, train_ds, val_ds, config):
        if seeds is None or config.seed in seeds:
            raise exc
        return real(model, train_ds, val_ds, config)
    return train


def test_run_seed_records_failure_and_emits_nothing(monkeypatch):
    ds = toy_dataset(per_class=10)
    plan = quick_plan()
    monkeypatch.setattr(harness, "train", failing_train(NumericError("loss is not finite")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_seed(ds, plan, model_config_for(ds, plan), seed=0)
    assert not result.ok
    assert math.isnan(result.test_acc)
    assert result.error == "loss is not finite"
    assert result.epochs_run == 0 and result.seconds >= 0 and result.report is None
    with pytest.warns(UserWarning) as caught:
        assert run_experiment(ds, quick_plan(seeds=(0,))).n == 0
    assert [str(w.message) for w in caught] == [
        "seed 0 failed: loss is not finite",
        "1 of 1 seeds failed; aggregate covers the successes only"]


def test_empty_split_fails_the_run_not_each_seed():
    ds = toy_dataset(per_class=4)  # too small: the test split comes out empty
    plan = quick_plan()
    with pytest.raises(ConfigError, match="split is empty"):
        run_seed(ds, plan, model_config_for(ds, plan), seed=0)
    with pytest.raises(ConfigError, match="split is empty"):
        run_experiment(ds, plan)


def test_run_seed_lets_programming_errors_through(monkeypatch):
    ds = toy_dataset(per_class=10)
    plan = quick_plan()
    config = model_config_for(ds, plan)
    monkeypatch.setattr(harness, "train", failing_train(np.linalg.LinAlgError("no convergence")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_seed(ds, plan, config, seed=0).error == "no convergence"
    with pytest.warns(UserWarning) as caught:
        assert run_experiment(ds, quick_plan(seeds=(0,))).results[0].error == "no convergence"
    assert str(caught[0].message) == "seed 0 failed: no convergence"
    monkeypatch.setattr(harness, "train", failing_train(TypeError("bad vjp shape")))
    with pytest.raises(TypeError, match="bad vjp shape"):
        run_seed(ds, plan, config, seed=0)
    with pytest.raises(TypeError, match="bad vjp shape"):
        run_experiment(ds, plan)


def test_run_grid_warns_per_failed_seed_then_summarises_each_cell(monkeypatch):
    ds = toy_dataset(per_class=10)
    monkeypatch.setattr(harness, "train", failing_train(NumericError("diverged"), {1, 2}))
    quick = TrainConfig(epochs=1, batch_size=8)
    plans = [quick_plan(seeds=(2, 0, 1), train=quick), quick_plan(seeds=(0, 1), train=quick)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cells = run_grid(ds, plans)
    assert [str(w.message) for w in caught] == [
        "seed 2 failed: diverged",
        "seed 1 failed: diverged",
        "2 of 3 seeds failed; aggregate covers the successes only",
        "seed 1 failed: diverged",
        "1 of 2 seeds failed; aggregate covers the successes only",
    ]
    assert [[r.seed for r in cell.results] for cell in cells] == [[2, 0, 1], [0, 1]]
    assert [cell.n for cell in cells] == [1, 1]
    assert cells[0].mean == cells[0].results[1].test_acc


def test_run_grid_builds_each_cells_settings_once_before_any_seed(monkeypatch):
    ds = toy_dataset(per_class=10)
    built, trained = [], []
    real_config, real_train = harness.model_config_for, harness.train

    def model_config_for(dataset, plan):
        built.append(plan.order)
        return real_config(dataset, plan)

    def train(model, train_ds, val_ds, config):
        trained.append(config.seed)
        return real_train(model, train_ds, val_ds, config)

    monkeypatch.setattr(harness, "model_config_for", model_config_for)
    monkeypatch.setattr(harness, "train", train)
    quick = TrainConfig(epochs=1, batch_size=8)
    run_grid(ds, [quick_plan(order=4, train=quick), quick_plan(order=6, train=quick)])
    assert (built, trained) == ([4, 6], [0, 1, 0, 1])
    built.clear()
    trained.clear()
    with pytest.raises(ConfigError, match="model settings"):
        run_grid(ds, [quick_plan(order=4), quick_plan(order=0)])
    assert (built, trained) == ([4, 0], [])


def test_run_experiment_aggregates_and_flags_partial_failures():
    ds = toy_dataset(per_class=10)
    outcome = run_experiment(ds, quick_plan())
    assert outcome.n == 2
    assert len(outcome.results) == 2
    values = [r.test_acc for r in outcome.results]
    assert outcome.mean == pytest.approx(np.mean(values))


def test_run_experiment_is_deterministic():
    ds = toy_dataset(per_class=10)
    a = run_experiment(ds, quick_plan())
    b = run_experiment(ds, quick_plan())
    assert [r.test_acc for r in a.results] == [r.test_acc for r in b.results]
    assert a.mean == b.mean and a.std == b.std


def test_majority_baseline_hand_case():
    ds = toy_dataset(per_class=10)
    train_ds, _, test_ds = split_dataset(ds, SplitSpec(seed=0))
    labels = [g.label for g in train_ds.graphs]
    majority = max(sorted(set(labels)), key=labels.count)
    expected = sum(1 for g in test_ds.graphs if g.label == majority) / len(test_ds.graphs)
    assert majority_baseline(train_ds, test_ds) == expected
    assert majority_baseline(train_ds, train_ds) == pytest.approx(0.5)  # balanced


# -- ablation -------------------------------------------------------------


def test_ablation_covers_variants_in_enum_order():
    ds = toy_dataset(per_class=10)
    plan = quick_plan(seeds=(0,), train=TrainConfig(epochs=1, batch_size=8))
    outcome = run_ablation(ds, plan)
    assert [row.variant for row in outcome.rows] == list(VARIANTS)
    table = ablation_text_table(outcome)
    lines = table.strip().splitlines()
    assert lines[0].startswith("variant")
    assert len(lines) == 2 + len(VARIANTS)
    for variant, line in zip(VARIANTS, lines[2:]):
        assert line.startswith(variant)
        assert "+/-" in line


def test_zero_learning_rate_reports_initialization_accuracy():
    # with lr = 0 every epoch evaluates the untouched initialization, so the
    # reported accuracy equals the accuracy of the initial parameters
    ds = toy_dataset(per_class=10)
    frozen = TrainConfig(epochs=2, batch_size=8, learning_rate=0.0)
    plan = quick_plan(train=frozen)
    result = run_seed(ds, plan, model_config_for(ds, plan), seed=0)
    assert result.ok
    records = result.report.epochs
    assert records[0].val_acc == records[1].val_acc
    assert records[0].train_acc == records[1].train_acc


# -- sweeps ---------------------------------------------------------------


def test_scales_for_count():
    assert scales_for_count(1) == (1.0,)
    assert scales_for_count(4) == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ConfigError):
        scales_for_count(0)


def test_plan_for_axis_value():
    plan = quick_plan()
    assert plan_for_axis_value(plan, "F", 3).scales == (1.0, 2.0, 3.0)
    assert plan_for_axis_value(plan, "M", 8).order == 8
    assert plan_for_axis_value(plan, "beta", 0.3).train.beta == 0.3
    assert plan_for_axis_value(plan, "M", 8.0).order == 8
    with pytest.raises(ConfigError, match="axis"):
        plan_for_axis_value(plan, "gamma", 1.0)
    assert SWEEP_AXES == ("F", "M", "beta")


@pytest.mark.parametrize("axis, values, shown", [
    ("M", [6, 6.5], "M takes integer values, got 6.5"),
    ("M", [2.9], "M takes integer values, got 2.9"),
    ("F", [2, 1.5], "F takes integer values, got 1.5"),
    ("F", [math.inf], "F takes integer values, got inf"),
    ("M", [math.nan], "M takes integer values, got nan"),
])
def test_count_axes_reject_fractional_values_before_any_cell(monkeypatch, axis, values,
                                                              shown):
    ds = toy_dataset(per_class=10)
    monkeypatch.setattr(harness, "train", failing_train(AssertionError("a cell ran")))
    with pytest.raises(ConfigError, match=shown):
        run_sensitivity(ds, quick_plan(seeds=(0,)), axis, values)


def test_run_sensitivity_cells_follow_values():
    ds = toy_dataset(per_class=10)
    plan = quick_plan(seeds=(0,), train=TrainConfig(epochs=1, batch_size=8))
    sweep = run_sensitivity(ds, plan, "beta", [0.0, 0.5])
    assert sweep.axis == "beta"
    assert sweep.values == [0.0, 0.5]
    assert len(sweep.cells) == 2
    with pytest.raises(ContractViolationError):
        run_sensitivity(ds, plan, "beta", [])


# -- CSV round trips ------------------------------------------------------


def fixture_results():
    return [
        SeedResult("wavelet_spectral", 0, 0.875, 2, 1.234),
        SeedResult("wavelet_spectral", 1, 0.75, 2, 2.5),
    ]


def test_per_seed_csv_default_empty_seconds():
    text = per_seed_csv(fixture_results())
    assert text == (
        "variant,seed,test_acc,epochs,seconds\n"
        "wavelet_spectral,0,0.875,2,\n"
        "wavelet_spectral,1,0.75,2,\n"
    )


def test_per_seed_csv_with_timing():
    text = per_seed_csv(fixture_results(), timing=True)
    assert "wavelet_spectral,0,0.875,2,1.234" in text


def test_aggregate_csv_format():
    rows = [ExperimentResult("wavelet_spectral", [], 0.875, 0.0625, 10)]
    assert aggregate_csv(rows) == (
        "variant,mean,std,n\nwavelet_spectral,0.875,0.0625,10\n"
    )


def test_sweep_csv_and_svg():
    from wavepool.harness import SweepResult

    cells = [ExperimentResult("wavelet_spectral", [], 0.8, 0.1, 2),
             ExperimentResult("wavelet_spectral", [], 0.9, 0.05, 2)]
    sweep = SweepResult(axis="M", values=[2.0, 4.0], cells=cells)
    assert sweep_csv(sweep) == (
        "axis,value,mean,std\nM,2,0.8,0.1\nM,4,0.9,0.05\n"
    )
    svg = sweep_svg(sweep)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "sensitivity along M" in svg
