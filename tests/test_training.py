import math
import warnings

import numpy as np
import pytest

from wavepool import autodiff as ad
from wavepool.errors import ConfigError, ContractViolationError, NumericError
from wavepool.graphs import SplitSpec, split_dataset
from wavepool.model import CrossScaleModel, ForwardResult, ModelConfig, PoolStage, init_parameters
from wavepool.training import (
    PROB_FLOOR,
    EpochRecord,
    Optimizer,
    RunReport,
    TrainConfig,
    evaluate_accuracy,
    graph_loss,
    train,
)

from . import per_op as ops
from .conftest import toy_dataset
from .fdcheck import REL_TOL, central_difference, max_rel_error


def toy_model_config(**overrides):
    base = dict(feature_dim=66, class_count=2, variant="wavelet_spectral",
                n_max=12, m_out=2, scales=(1.0,), order=6)
    base.update(overrides)
    return ModelConfig(**base)


def toy_splits(per_class=10, seed=0):
    return split_dataset(toy_dataset(per_class=per_class), SplitSpec(seed=seed))


def fabricated_result(probs, stages=()):
    p = ad.as_var(probs)
    return ForwardResult(logits=ad.constant(np.log(np.maximum(p.value, 1e-9))),
                         probs=p, stages=list(stages))


def cross_entropy(label, probs, class_count):
    """graph_loss at beta = 0 without stages: the scaled cross-entropy alone."""
    return graph_loss(fabricated_result(probs), label, class_count, beta=0.0)[0]


def structure(stage):
    """graph_loss at beta = 1 with one stage: its structure term alone."""
    return graph_loss(fabricated_result([0.5, 0.5], [stage]), 0, 2, beta=1.0)[0]


# -- cross-entropy --------------------------------------------------------


def test_cross_entropy_hand_value():
    loss = cross_entropy(0, ad.constant([0.75, 0.25]), 2)
    assert loss.value == pytest.approx(-0.5 * math.log(0.75), abs=1e-15)


def test_cross_entropy_clamps_zero_probability():
    loss = cross_entropy(1, ad.constant([1.0, 0.0]), 2)
    assert loss.value == pytest.approx(-0.5 * math.log(PROB_FLOOR), rel=1e-12)
    assert math.isfinite(float(loss.value))


def test_cross_entropy_validation():
    with pytest.raises(ContractViolationError, match="label"):
        cross_entropy(2, ad.constant([0.5, 0.5]), 2)
    with pytest.raises(ContractViolationError, match="shape"):
        cross_entropy(0, ad.constant([0.5, 0.3, 0.2]), 2)
    with pytest.raises(ContractViolationError, match="distribution"):
        cross_entropy(0, ad.constant([0.9, 0.4]), 2)
    with pytest.raises(ContractViolationError, match="distribution"):
        cross_entropy(0, ad.constant([1.2, -0.2]), 2)


def test_cross_entropy_gradient_through_softmax(rng):
    logits0 = rng.standard_normal(4)

    def build(v):
        probs = ops.reshape(ops.row_softmax(ops.reshape(v, (1, 4))), (4,))
        return cross_entropy(1, probs, 4)

    leaf = ad.parameter(logits0)
    ad.backward(build(leaf))
    numeric = central_difference(lambda x: build(ad.constant(x)).value, logits0)
    assert max_rel_error(leaf.grad, numeric) < REL_TOL


# -- structure loss -------------------------------------------------------


def test_link_prediction_hand_value_one_member():
    stage = PoolStage(
        adjacency=ad.constant(np.eye(2)),
        assignment=ad.constant(np.array([[1.0, 0.0]])),  # (m=1, n=2)
    )
    # S^T S = [[1,0],[0,0]]; residual = diag(0, 1)
    assert structure(stage).value == pytest.approx(1.0, abs=1e-15)


def test_link_prediction_hand_value_two_members():
    stage = PoolStage(
        adjacency=ad.constant(np.zeros((2, 2))),
        assignment=ad.constant(np.array([[1.0, 1.0]])),  # (m=1, n=2)
    )
    # S^T S = ones(2); residual norm = 2
    assert structure(stage).value == pytest.approx(2.0, abs=1e-14)


def test_graph_loss_blend_hand_value():
    stage = PoolStage(
        adjacency=ad.constant(np.eye(2)),
        assignment=ad.constant(np.array([[1.0, 0.0]])),
    )
    result = fabricated_result([0.75, 0.25], [stage])
    total, parts = graph_loss(result, 0, 2, beta=0.4)
    ce = -0.5 * math.log(0.75)
    assert parts.l_epsilon == pytest.approx(ce, abs=1e-12)
    assert parts.l_p == pytest.approx(1.0, abs=1e-12)
    assert parts.total == pytest.approx(0.6 * ce + 0.4 * 1.0, abs=1e-12)
    assert float(total.value) == pytest.approx(parts.total, abs=1e-15)


def test_graph_loss_beta_zero_skips_structure_term():
    boobytrapped = PoolStage(adjacency=ad.constant(np.eye(3)),
                             assignment=ad.constant(np.zeros((2, 4))))  # wrong n
    result = fabricated_result([0.5, 0.5], [boobytrapped])
    total, parts = graph_loss(result, 0, 2, beta=0.0)
    # the malformed stage would raise if touched; beta = 0 must never build it
    assert parts.l_p == 0.0
    assert float(total.value) == pytest.approx(-0.5 * math.log(0.5), abs=1e-12)


def test_graph_loss_without_stages_scales_ce():
    result = fabricated_result([0.75, 0.25])
    total, parts = graph_loss(result, 0, 2, beta=0.4)
    assert float(total.value) == pytest.approx(0.6 * parts.l_epsilon, abs=1e-15)
    assert parts.l_p == 0.0


def test_graph_loss_averages_stages():
    stage1 = PoolStage(ad.constant(np.eye(2)), ad.constant(np.array([[1.0, 0.0]])))
    stage2 = PoolStage(ad.constant(np.zeros((2, 2))),
                       ad.constant(np.array([[1.0, 1.0]])))
    result = fabricated_result([0.5, 0.5], [stage1, stage2])
    _, parts = graph_loss(result, 0, 2, beta=1.0)
    assert parts.l_p == pytest.approx((1.0 + 2.0) / 2.0, abs=1e-12)


def test_graph_loss_stage_modes():
    def result():
        stage1 = PoolStage(ad.constant(np.eye(2)), ad.constant(np.array([[1.0, 0.0]])))
        stage2 = PoolStage(ad.constant(np.zeros((2, 2))),
                           ad.constant(np.array([[1.0, 1.0]])))
        return fabricated_result([0.5, 0.5], [stage1, stage2])

    _, summed = graph_loss(result(), 0, 2, beta=1.0, stage_mode="sum")
    assert summed.l_p == pytest.approx(3.0, abs=1e-12)
    _, first = graph_loss(result(), 0, 2, beta=1.0, stage_mode="first")
    assert first.l_p == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ContractViolationError, match="stage_mode"):
        graph_loss(result(), 0, 2, beta=1.0, stage_mode="last")


def random_stage(rng, n, m):
    adj = rng.random((n, n))
    return adj + adj.T, rng.random((m, n))


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("stage_mode", ["mean", "sum", "first"])
def test_fused_loss_matches_per_op_composition(beta, stage_mode, rng):
    stages = [random_stage(rng, 6, 3), random_stage(rng, 3, 2)]
    logits = rng.standard_normal(3)
    probs0 = np.exp(logits) / np.exp(logits).sum()
    runs = []
    for loss in (graph_loss, ops.graph_loss):
        probs = ad.parameter(probs0)
        vars_ = [(ad.parameter(a), ad.parameter(s)) for a, s in stages]
        result = ForwardResult(ad.constant(logits), probs,
                               [PoolStage(a, s) for a, s in vars_])
        total = loss(result, 1, 3, beta, stage_mode)
        total = total[0] if isinstance(total, tuple) else total
        ad.backward(total)
        runs.append((total, [probs] + [v for pair in vars_ for v in pair]))
    (fused, fused_vars), (ref, ref_vars) = runs
    assert float(fused.value) == float(ref.value)
    for var, expected in zip(fused_vars, ref_vars):
        if expected.grad is None:
            assert var.grad is None
        else:
            assert np.allclose(var.grad, expected.grad, rtol=1e-12, atol=1e-15)


def test_loss_gradients_vanish_below_clip_floor_and_at_zero_residual():
    probs = ad.parameter([1.0, 0.0])
    ad.backward(cross_entropy(1, probs, 2))
    assert np.array_equal(probs.grad, [0.0, 0.0])
    s = ad.parameter(np.eye(2))
    adjacency = ad.parameter(np.eye(2))
    ad.backward(structure(PoolStage(adjacency, s)))
    assert np.array_equal(s.grad, np.zeros((2, 2)))
    assert np.array_equal(adjacency.grad, np.zeros((2, 2)))


# -- configuration --------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(beta=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(beta=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="sgd")
    with pytest.raises(ConfigError):
        TrainConfig(grad_clip_norm=0.0)
    assert TrainConfig(grad_clip_norm=None).grad_clip_norm is None
    with pytest.raises(ConfigError):
        TrainConfig(lp_stage_mode="last")
    assert TrainConfig(lp_stage_mode="sum").lp_stage_mode == "sum"


# -- optimizer ------------------------------------------------------------


def one_param(value):
    return {"w": ad.parameter(np.array(value, dtype=float))}


def test_optimizer_zero_gradients_warn_once_and_noop():
    params = one_param([1.0, 2.0])
    opt = Optimizer(TrainConfig(optimizer="momentum", learning_rate=1.0))
    with pytest.warns(UserWarning, match="received no gradient"):
        norm = opt.step(params, batch_size=1)
    assert norm == 0.0
    assert np.array_equal(params["w"].value, [1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        opt.step(params, batch_size=1)  # second call must stay silent


def test_adam_single_step_hand_check():
    params = one_param([1.0])
    opt = Optimizer(TrainConfig(optimizer="adam", learning_rate=0.1))
    params["w"].grad = np.array([2.0])
    opt.step(params, batch_size=1)
    expected = 1.0 - 0.1 * 2.0 / (math.sqrt(4.0) + 1e-8)
    assert params["w"].value[0] == pytest.approx(expected, abs=1e-12)
    assert params["w"].grad is None  # consumed


def test_momentum_two_steps_hand_check():
    params = one_param([0.0])
    opt = Optimizer(TrainConfig(optimizer="momentum", learning_rate=0.5,
                                momentum=0.9, grad_clip_norm=None))
    params["w"].grad = np.array([1.0])
    opt.step(params, batch_size=1)
    assert params["w"].value[0] == pytest.approx(-0.5, abs=1e-15)
    params["w"].grad = np.array([1.0])
    opt.step(params, batch_size=1)
    assert params["w"].value[0] == pytest.approx(-0.5 - 0.5 * 1.9, abs=1e-15)


def test_gradient_clipping_rescales_global_norm():
    params = one_param([0.0, 0.0])
    opt = Optimizer(TrainConfig(optimizer="momentum", learning_rate=1.0,
                                momentum=0.0, grad_clip_norm=5.0))
    params["w"].grad = np.array([6.0, 8.0])
    norm = opt.step(params, batch_size=1)
    assert norm == pytest.approx(10.0)  # reported norm is pre-clip
    assert np.allclose(params["w"].value, [-3.0, -4.0], atol=1e-12)


def test_batch_size_divides_gradients():
    params = one_param([0.0])
    opt = Optimizer(TrainConfig(optimizer="momentum", learning_rate=1.0,
                                momentum=0.0, grad_clip_norm=None))
    params["w"].grad = np.array([4.0])
    opt.step(params, batch_size=2)
    assert params["w"].value[0] == pytest.approx(-2.0, abs=1e-15)


def test_optimizer_rejects_nonfinite_gradient():
    params = one_param([0.0])
    opt = Optimizer(TrainConfig())
    params["w"].grad = np.array([np.inf])
    with pytest.raises(NumericError, match="parameter w"):
        opt.step(params, batch_size=1)


# -- reporting ------------------------------------------------------------


def test_run_report_csv_format():
    report = RunReport(seed=0, epochs=[
        EpochRecord(epoch=0, l_epsilon=0.5, l_p=0.25, l_total=0.75,
                    train_acc=0.875, val_acc=1.0),
    ])
    assert report.to_csv() == (
        "epoch,l_epsilon,l_p,l_total,train_acc,val_acc\n0,0.5,0.25,0.75,0.875,1\n"
    )


def test_run_report_summary_keys():
    report = RunReport(seed=3, best_epoch=1, best_val_acc=0.5, seconds=1.5)
    summary = report.summary()
    assert summary["seed"] == 3
    assert summary["epochs_run"] == 0
    assert summary["diverged"] is False


# -- training loop --------------------------------------------------------


def test_train_runs_and_leaves_best_state():
    train_set, val_set, _ = toy_splits()
    model = CrossScaleModel(toy_model_config(), seed=1)
    config = TrainConfig(epochs=3, batch_size=8, seed=2)
    outcome = train(model, train_set, val_set, config)
    assert len(outcome.report.epochs) == 3
    assert 0 <= outcome.report.best_epoch < 3
    for record in outcome.report.epochs:
        assert 0.0 <= record.train_acc <= 1.0
        assert 0.0 <= record.val_acc <= 1.0
        assert math.isfinite(record.l_total)
    # the returned model must hold the best-validation parameters
    assert evaluate_accuracy(model, val_set) == outcome.report.best_val_acc
    for name, value in outcome.best_state.items():
        assert np.array_equal(model.params[name].value, value)


def test_train_is_deterministic():
    train_set, val_set, _ = toy_splits()
    reports = []
    for _ in range(2):
        model = CrossScaleModel(toy_model_config(), seed=4)
        outcome = train(model, train_set, val_set,
                        TrainConfig(epochs=2, batch_size=8, seed=9))
        reports.append(outcome.report.to_csv())
    assert reports[0] == reports[1]


def test_train_zero_learning_rate_freezes_parameters():
    train_set, val_set, _ = toy_splits()
    cfg = toy_model_config()
    model = CrossScaleModel(cfg, seed=5)
    initial = init_parameters(cfg, 5)
    outcome = train(model, train_set, val_set,
                    TrainConfig(epochs=2, batch_size=8, learning_rate=0.0, seed=0))
    for name, value in initial.items():
        assert np.array_equal(model.params[name].value, value)
    accs = [r.val_acc for r in outcome.report.epochs]
    assert accs[0] == accs[1]  # nothing moved, accuracy cannot change


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_is_reported_not_raised():
    train_set, val_set, _ = toy_splits()
    model = CrossScaleModel(toy_model_config(), seed=0)
    config = TrainConfig(epochs=3, batch_size=16, optimizer="momentum",
                         learning_rate=1e200, grad_clip_norm=None, seed=0)
    outcome = train(model, train_set, val_set, config)
    assert outcome.report.diverged is True
    assert len(outcome.report.epochs) < 3


def test_train_rejects_class_count_mismatch():
    train_set, val_set, _ = toy_splits()
    model = CrossScaleModel(toy_model_config(class_count=3), seed=0)
    with pytest.raises(ContractViolationError, match="classes"):
        train(model, train_set, val_set, TrainConfig(epochs=1))
