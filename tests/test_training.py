import math
import warnings

import numpy as np
import pytest

from wavepool import autodiff as ad
from wavepool import lanes, training
from wavepool.errors import ConfigError, ContractViolationError, NumericError
from wavepool.graphs import Graph, SplitSpec, degree_onehot_features, split_dataset
from wavepool.model import CrossScaleModel, ForwardResult, ModelConfig, PoolStage, init_parameters
from wavepool.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
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


def fabricated_result(logits, stages=()):
    return ForwardResult(logits=ad.as_var(logits), stages=list(stages))


def cross_entropy(label, logits, class_count):
    """graph_loss at beta = 0 without stages: the scaled cross-entropy alone."""
    return graph_loss(fabricated_result(logits), label, class_count, beta=0.0)[0]


def structure(stage):
    """graph_loss at beta = 1 with one stage: its structure term alone."""
    return graph_loss(fabricated_result([0.0, 0.0], [stage]), 0, 2, beta=1.0)[0]


# -- cross-entropy --------------------------------------------------------


def test_cross_entropy_hand_value():
    loss = cross_entropy(0, ad.constant(np.log([0.75, 0.25])), 2)
    assert loss.value == pytest.approx(-0.5 * math.log(0.75), abs=1e-15)


def test_cross_entropy_validation():
    with pytest.raises(ContractViolationError, match="label"):
        cross_entropy(2, ad.constant([0.0, 0.0]), 2)
    with pytest.raises(ContractViolationError, match="shape"):
        cross_entropy(0, ad.constant(np.log([0.5, 0.3, 0.2])), 2)


def test_cross_entropy_gradient_through_softmax(rng):
    logits0 = rng.standard_normal(4)

    def build(v):
        return cross_entropy(1, v, 4)

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
    result = fabricated_result(np.log([0.75, 0.25]), [stage])
    total, parts = graph_loss(result, 0, 2, beta=0.4)
    ce = -0.5 * math.log(0.75)
    assert parts.l_epsilon == pytest.approx(ce, abs=1e-12)
    assert parts.l_p == pytest.approx(1.0, abs=1e-12)
    assert parts.total == pytest.approx(0.6 * ce + 0.4 * 1.0, abs=1e-12)
    assert float(total.value) == pytest.approx(parts.total, abs=1e-15)


def test_graph_loss_beta_zero_skips_structure_term():
    boobytrapped = PoolStage(adjacency=ad.constant(np.eye(3)),
                             assignment=ad.constant(np.zeros((2, 4))))  # wrong n
    result = fabricated_result([0.0, 0.0], [boobytrapped])
    total, parts = graph_loss(result, 0, 2, beta=0.0)
    # the malformed stage would raise if touched; beta = 0 must never build it
    assert parts.l_p == 0.0
    assert float(total.value) == pytest.approx(-0.5 * math.log(0.5), abs=1e-12)


def test_graph_loss_without_stages_scales_ce():
    result = fabricated_result(np.log([0.75, 0.25]))
    total, parts = graph_loss(result, 0, 2, beta=0.4)
    assert float(total.value) == pytest.approx(0.6 * parts.l_epsilon, abs=1e-15)
    assert parts.l_p == 0.0


def test_graph_loss_averages_stages():
    stage1 = PoolStage(ad.constant(np.eye(2)), ad.constant(np.array([[1.0, 0.0]])))
    stage2 = PoolStage(ad.constant(np.zeros((2, 2))),
                       ad.constant(np.array([[1.0, 1.0]])))
    result = fabricated_result([0.0, 0.0], [stage1, stage2])
    _, parts = graph_loss(result, 0, 2, beta=1.0)
    assert parts.l_p == pytest.approx((1.0 + 2.0) / 2.0, abs=1e-12)


def random_stage(rng, n, m):
    adj = rng.random((n, n))
    return adj + adj.T, rng.random((m, n))


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
def test_fused_loss_matches_per_op_composition(beta, rng):
    stages = [random_stage(rng, 6, 3), random_stage(rng, 3, 2)]
    logits0 = rng.standard_normal(3)
    runs = []
    for loss in (graph_loss, ops.graph_loss):
        logits = ad.parameter(logits0)
        vars_ = [(ad.parameter(a), ad.parameter(s)) for a, s in stages]
        result = ForwardResult(logits, [PoolStage(a, s) for a, s in vars_])
        total = loss(result, 1, 3, beta)
        total = total[0] if isinstance(total, tuple) else total
        ad.backward(total)
        runs.append((total, [logits] + [v for pair in vars_ for v in pair]))
    (fused, fused_vars), (ref, ref_vars) = runs
    assert float(fused.value) == float(ref.value)
    for var, expected in zip(fused_vars, ref_vars):
        if expected.grad is None:
            assert var.grad is None
        else:
            assert np.allclose(var.grad, expected.grad, rtol=1e-12, atol=1e-15)


def test_loss_gradients_vanish_at_zero_residual():
    s = ad.parameter(np.eye(2))
    adjacency = ad.parameter(np.eye(2))
    ad.backward(structure(PoolStage(adjacency, s)))
    assert np.array_equal(s.grad, np.zeros((2, 2)))
    assert np.array_equal(adjacency.grad, np.zeros((2, 2)))


@pytest.mark.parametrize("beta", [0.0, 0.1, 0.5, 1.0])
def test_graph_loss_gradient_at_the_logits(beta, rng):
    """The gradient at the logits is (1 - beta)(softmax(z) - e_label)/c,
    however small softmax(z)[label] is."""
    c = 3
    for z, label in [(rng.standard_normal(c), 0), (3.0 * rng.standard_normal(c), 2),
                     (np.array([0.0, -20.0, 1.0]), 1), (np.array([0.0, -40.0, 1.0]), 1)]:
        logits = ad.parameter(z)
        ad.backward(graph_loss(fabricated_result(logits), label, c, beta)[0])
        q = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        expected = (1.0 - beta) * (q - np.eye(c)[label]) / c
        assert np.allclose(logits.grad, expected, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("beta", [0.0, 0.1, 0.5, 1.0])
def test_cross_entropy_of_a_large_readout(beta):
    """A true-class logit 800 below the other, as a large graph's summed
    DiffPool readout gives, keeps a finite loss and the full gradient."""
    logits = ad.parameter([0.0, -800.0])
    total, parts = graph_loss(fabricated_result(logits), 1, 2, beta)
    ad.backward(total)
    assert parts.l_epsilon == 400.0
    assert float(total.value) == 400.0 * (1.0 - beta)
    assert np.allclose(logits.grad, (1.0 - beta) * np.array([0.5, -0.5]), rtol=0.0, atol=1e-15)


def stage_one_pair(a, s):
    """The same stage twice: as the model records its first stage, with S A,
    and without, which forms the residual; each assignment is a parameter."""
    return (PoolStage(ad.constant(a), ad.parameter(s), s @ a),
            PoolStage(ad.constant(a), ad.parameter(s)))


def first_stage(variant, graph):
    """The graph's adjacency and the first-stage assignment of a model."""
    cfg = toy_model_config(variant=variant, feature_dim=graph.feature_dim, n_max=16,
                           scales=(1.0, 2.0))
    result = CrossScaleModel(cfg, seed=2).forward(graph)
    stage = result.stages[0]
    assert np.array_equal(stage.product, stage.assignment.value @ graph.adjacency)
    assert not stage.adjacency.requires_grad
    return stage.adjacency.value, stage.assignment.value


@pytest.mark.parametrize("variant", ["gcn_diffpool", "wavelet_spectral"])
@pytest.mark.parametrize("features", ["onehot", "dense"])
def test_first_stage_structure_term_matches_residual_formula(variant, features, rng):
    """The first stage's term, taken from S A and S S^T, agrees with
    ||A - S^T S||_F: value within 1e-12 relative, assignment gradient within
    1e-10 of its largest entry."""
    for n in (7, 15):
        upper = np.triu(rng.random((n, n)) < 0.4, 1).astype(float)
        adj = upper + upper.T
        x = degree_onehot_features(adj) if features == "onehot" else rng.standard_normal((n, 66))
        a, s = first_stage(variant, Graph(adj, x, 0))
        (gram, residual) = stage_one_pair(a, s)
        values = []
        for stage in (gram, residual):
            term = structure(stage)
            ad.backward(term)
            values.append(float(term.value))
        assert values[0] == pytest.approx(values[1], rel=1e-12, abs=0.0)
        scale = np.max(np.abs(residual.assignment.grad))
        assert np.max(np.abs(gram.assignment.grad - residual.assignment.grad)) <= 1e-10 * scale


def test_first_stage_structure_term_at_zero_residual():
    """A = S^T S exactly: the term is 0 and its subgradient 0, not NaN."""
    s = np.zeros((2, 5))
    s[[0, 1, 0, 1, 1], range(5)] = 1.0
    stage, _ = stage_one_pair(s.T @ s, s)
    term = structure(stage)
    ad.backward(term)
    assert float(term.value) == 0.0
    assert np.array_equal(stage.assignment.grad, np.zeros((2, 5)))


def test_first_stage_structure_term_clamps_a_square_rounded_below_zero():
    rng = np.random.default_rng(2)
    s = rng.random((3, 8))
    a = s.T @ s
    gram = s @ s.T
    assert np.vdot(a, a) - 2.0 * np.vdot(s @ a, s) + np.vdot(gram, gram) < 0.0
    stage, _ = stage_one_pair(a, s)
    term = structure(stage)
    ad.backward(term)
    assert float(term.value) == 0.0
    assert np.array_equal(stage.assignment.grad, np.zeros((3, 8)))


def test_first_stage_structure_term_needs_a_constant_adjacency():
    a, s = np.eye(3), np.ones((1, 3)) / 3.0
    stage = PoolStage(ad.parameter(a), ad.parameter(s), s @ a)
    with pytest.raises(ContractViolationError, match="constant adjacency"):
        structure(stage)


def test_structure_term_gradients_match_finite_differences(rng):
    """The first stage's assignment gradient, and the pooled stage's
    adjacency and assignment gradients, against central differences."""
    n, m = 6, 3
    adj0, s0 = random_stage(rng, n, m)

    s_var = ad.parameter(s0)
    ad.backward(structure(PoolStage(ad.constant(adj0), s_var, s0 @ adj0)))
    numeric = central_difference(
        lambda s: structure(PoolStage(ad.constant(adj0), ad.constant(s), s @ adj0)).value, s0)
    assert max_rel_error(s_var.grad, numeric) < REL_TOL

    a_var, s_var = ad.parameter(adj0), ad.parameter(s0)
    ad.backward(structure(PoolStage(a_var, s_var)))
    for var, x0, run in (
        (a_var, adj0, lambda a: structure(PoolStage(ad.constant(a), ad.constant(s0)))),
        (s_var, s0, lambda s: structure(PoolStage(ad.constant(adj0), ad.constant(s)))),
    ):
        numeric = central_difference(lambda x: run(x).value, x0)
        assert max_rel_error(var.grad, numeric) < REL_TOL


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
        TrainConfig(grad_clip_norm=0.0)
    assert TrainConfig(grad_clip_norm=None).grad_clip_norm is None


# -- optimizer ------------------------------------------------------------


def one_param(value):
    return {"w": ad.parameter(np.array(value, dtype=float))}


def test_optimizer_zero_gradients_warn_once_and_noop():
    params = one_param([1.0, 2.0])
    opt = Optimizer(TrainConfig(learning_rate=1.0))
    with pytest.warns(UserWarning, match="received no gradient"):
        norm = opt.step(params, batch_size=1)
    assert norm == 0.0
    assert np.array_equal(params["w"].value, [1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        opt.step(params, batch_size=1)  # second call must stay silent


def test_adam_single_step_hand_check():
    params = one_param([1.0])
    opt = Optimizer(TrainConfig(learning_rate=0.1))
    params["w"].grad = np.array([2.0])
    opt.step(params, batch_size=1)
    expected = 1.0 - 0.1 * 2.0 / (math.sqrt(4.0) + 1e-8)
    assert params["w"].value[0] == pytest.approx(expected, abs=1e-12)
    assert params["w"].grad is None  # consumed


def test_adam_two_steps_hand_check():
    """A constant gradient moves the parameter by lr / (1 + eps) per step, up
    to rounding: the bias corrections make m_hat = g and v_hat = g^2."""
    params = one_param([0.0])
    opt = Optimizer(TrainConfig(learning_rate=0.5, grad_clip_norm=None))
    params["w"].grad = np.array([1.0])
    opt.step(params, batch_size=1)
    assert params["w"].value[0] == pytest.approx(-0.5 / (1.0 + ADAM_EPS), abs=1e-14)
    params["w"].grad = np.array([1.0])
    opt.step(params, batch_size=1)
    assert params["w"].value[0] == pytest.approx(-1.0 / (1.0 + ADAM_EPS), abs=1e-14)


def test_gradient_clipping_rescales_global_norm():
    """The norm returned is taken before clipping; the first moment after
    one step is (1 - beta1) times the clipped gradient."""
    params = one_param([0.0, 0.0])
    opt = Optimizer(TrainConfig(learning_rate=1.0, grad_clip_norm=5.0))
    params["w"].grad = np.array([6.0, 8.0])
    norm = opt.step(params, batch_size=1)
    assert norm == 10.0
    assert np.array_equal(opt._m["w"], np.array([3.0, 4.0]) * (1.0 - ADAM_BETA1))


def test_batch_size_divides_gradients():
    """The step takes the batch mean: the first moment after one step is
    (1 - beta1) times the summed gradient over the batch size, whose norm
    is returned."""
    params = one_param([0.0])
    opt = Optimizer(TrainConfig(learning_rate=1.0, grad_clip_norm=None))
    params["w"].grad = np.array([4.0])
    assert opt.step(params, batch_size=2) == 2.0
    assert np.array_equal(opt._m["w"], np.array([2.0]) * (1.0 - ADAM_BETA1))


def test_optimizer_rejects_nonfinite_gradient():
    params = one_param([0.0])
    opt = Optimizer(TrainConfig())
    params["w"].grad = np.array([np.inf])
    with pytest.raises(NumericError, match="parameter w"):
        opt.step(params, batch_size=1)


def reference_updates(config, values, grad_steps, batch_size):
    """The update arithmetic written out with fresh arrays at every step."""
    values = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    s = [np.zeros_like(v) for v in values]
    for step, raw in enumerate(grad_steps, start=1):
        grads = [g / batch_size for g in raw]
        norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
        if config.grad_clip_norm is not None and norm > config.grad_clip_norm:
            grads = [g * (config.grad_clip_norm / norm) for g in grads]
        for i, g in enumerate(grads):
            m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
            s[i] = ADAM_BETA2 * s[i] + (1.0 - ADAM_BETA2) * g * g
            m_hat = m[i] / (1.0 - ADAM_BETA1 ** step)
            v_hat = s[i] / (1.0 - ADAM_BETA2 ** step)
            values[i] = values[i] - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return values


@pytest.mark.parametrize("config", [
    TrainConfig(learning_rate=0.01, grad_clip_norm=3.0),
    TrainConfig(learning_rate=0.3, grad_clip_norm=None),
])
def test_in_place_updates_match_the_allocating_formula_bit_for_bit(config, rng):
    values = [rng.standard_normal((5, 4)), rng.standard_normal(3)]
    grad_steps = [[3.0 * rng.standard_normal(v.shape) for v in values] for _ in range(4)]
    params = {f"p{i}": ad.parameter(v) for i, v in enumerate(values)}
    opt = Optimizer(config)
    for raw in grad_steps:
        for var, g in zip(params.values(), raw):
            var.grad = g.copy()
        opt.step(params, batch_size=3)
    expected = reference_updates(config, values, grad_steps, batch_size=3)
    for var, want in zip(params.values(), expected):
        assert np.array_equal(var.value, want)


def test_step_leaves_an_earlier_state_snapshot_unchanged(rng):
    model = CrossScaleModel(toy_model_config(), seed=0)
    before = model.state()
    copies = {name: value.copy() for name, value in before.items()}
    opt = Optimizer(TrainConfig(learning_rate=0.1))
    for name, var in model.params.items():
        var.grad = rng.standard_normal(var.value.shape)
    opt.step(model.params, batch_size=1)
    assert any(not np.array_equal(var.value, copies[name])
               for name, var in model.params.items())
    for name, value in before.items():
        assert np.array_equal(value, copies[name])
        assert not np.shares_memory(value, model.params[name].value)


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
    config = TrainConfig(epochs=3, batch_size=16, learning_rate=1e200, grad_clip_norm=None,
                         seed=0)
    outcome = train(model, train_set, val_set, config)
    assert outcome.report.diverged is True
    assert len(outcome.report.epochs) < 3


def test_a_diverged_run_leaves_no_gradient_for_the_next(monkeypatch):
    """A NaN loss on the last graph of the first batch's lane 0 diverges the
    run after the lane's other graphs added their gradients. After
    ``load_state``, the next run equals a fresh model's bit for bit."""
    train_set, val_set, _ = toy_splits()
    config = TrainConfig(epochs=2, batch_size=8, seed=0, shuffle=False)
    fresh = train(CrossScaleModel(toy_model_config(), seed=0), train_set, val_set, config)
    batch = train_set.graphs[:config.batch_size]
    poisoned = batch[lanes.lanes([g.node_count for g in batch])[0][-1]]
    model = CrossScaleModel(toy_model_config(), seed=0)
    initial = model.state()
    forward, graph_loss, current = model.forward, training.graph_loss, {}

    def tracking(graph):
        current["graph"] = graph
        return forward(graph)

    def nan_loss(result, *args):
        loss, parts = graph_loss(result, *args)
        if current["graph"] is poisoned:
            parts = training.LossParts(parts.l_epsilon, parts.l_p, float("nan"))
        return loss, parts

    monkeypatch.setattr(model, "forward", tracking)
    monkeypatch.setattr(training, "graph_loss", nan_loss)
    assert train(model, train_set, val_set, config).report.diverged is True
    monkeypatch.undo()
    model.load_state(initial)
    again = train(model, train_set, val_set, config)
    assert again.report.to_csv() == fresh.report.to_csv()
    for name, value in fresh.best_state.items():
        assert again.best_state[name].tobytes() == value.tobytes()


def test_train_rejects_class_count_mismatch():
    train_set, val_set, _ = toy_splits()
    model = CrossScaleModel(toy_model_config(class_count=3), seed=0)
    with pytest.raises(ContractViolationError, match="classes"):
        train(model, train_set, val_set, TrainConfig(epochs=1))


def test_validation_through_the_training_lanes_equals_evaluate_accuracy(monkeypatch):
    train_set, val_set, _ = toy_splits()
    model = CrossScaleModel(toy_model_config(), seed=3)
    monkeypatch.setattr(lanes, "worker_plan", lambda count: (False, "in-process here"))
    outcome = train(model, train_set, val_set, TrainConfig(epochs=1, batch_size=8))
    # after one epoch the model holds the parameters its one validation pass read
    assert outcome.report.epochs[0].val_acc == evaluate_accuracy(model, val_set)
