"""Losses, optimizers, and the training loop.

The objective blends a scaled cross-entropy with a structure-recovery term:

    total = (1 - beta) * classification + beta * structure

where the structure term is the Frobenius distance between each pre-pool
adjacency and S^T S for that stage's m x n assignment S, reduced over
stages by ``lp_stage_mode`` ("mean" by default, or "sum" / "first"). At
beta = 0 the structure term is skipped outright (no residual graph is
built). The first stage pools the graph's constant adjacency and records
S A, so its term is taken from S A and S S^T without the n x n residual;
only the pooled second stage, whose adjacency takes a gradient, forms it.
``graph_loss`` is the only loss: one tape node over the class
probabilities and each counted stage's (adjacency, assignment), with a
hand-written vjp. Validation goes through ``CrossScaleModel.predict`` and
records no tape.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, ContractViolationError, NumericError
from .graphs import GraphDataset
from .model import CrossScaleModel, ForwardResult, PoolStage
from .settings import check_fields

OPTIMIZERS = ("adam", "momentum")

STAGE_MODES = ("mean", "sum", "first")

PROB_FLOOR = 1e-12  # clamp before log so empty support cannot produce -inf

_SHUFFLE_STREAM = 0x53485546


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 16
    learning_rate: float = 1e-3
    beta: float = 0.1
    optimizer: str = "adam"
    momentum: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip_norm: float | None = 5.0
    lp_stage_mode: str = "mean"
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        check_fields(self, ConfigError)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ConfigError(f"grad_clip_norm must be positive or None, got {self.grad_clip_norm}")
        if self.lp_stage_mode not in STAGE_MODES:
            raise ConfigError(
                f"lp_stage_mode must be one of {STAGE_MODES}, got {self.lp_stage_mode!r}")


# -- losses ---------------------------------------------------------------


def _cross_entropy(label: int, probs: Var, class_count: int):
    """The scaled cross-entropy's value and a vjp adding g * dCE/dq into a
    buffer; the gradient is zero where the clip floor is active."""
    if not 0 <= label < class_count:
        raise ContractViolationError(f"label {label} outside [0, {class_count})")
    q = probs.value
    if q.shape != (class_count,):
        raise ContractViolationError(f"probability vector has shape {q.shape}, expected ({class_count},)")
    if abs(float(q.sum()) - 1.0) > 1e-6 or np.any(q < 0):
        raise ContractViolationError("probabilities must form a distribution over classes")
    clipped = np.maximum(q, PROB_FLOOR)
    factor = -1.0 / class_count

    def vjp(g, acc):
        if q[label] > PROB_FLOOR:
            acc[label] += g * factor / clipped[label]

    return np.log(clipped)[label] * factor, vjp


def _structure(stage: PoolStage):
    """||A - S^T S||_F for the m x n assignment S, and a vjp adding g times
    its gradient into the (adjacency, assignment) buffers; subgradient 0
    at a zero residual.

    A stage that records S A pools the graph's own adjacency, a constant, so
    the n x n residual R is not formed: ||R||^2 = ||A||^2 - 2 <S A, S> +
    ||S S^T||^2, clamped at 0 against rounding, and the gradient at S is
    -(2 / ||R||)(S A - S S^T S). A pooled adjacency takes the gradient
    R / ||R||, so its stage forms R.
    """
    s, a = stage.assignment.value, stage.adjacency.value
    if stage.product is not None:
        if stage.adjacency.requires_grad:
            raise ContractViolationError("a stage that records S A needs a constant adjacency")
        product = stage.product
        gram = s @ s.T
        squared = np.vdot(a, a) - 2.0 * np.vdot(product, s) + np.vdot(gram, gram)
        norm = float(np.sqrt(max(squared, 0.0)))

        def gram_vjp(g, acc_adjacency, acc_assignment):
            if norm != 0.0 and acc_assignment is not None:
                acc_assignment -= (2.0 * g / norm) * (product - gram @ s)

        return norm, gram_vjp
    s_nm = s.T
    residual = a - s_nm @ s_nm.T
    norm = float(np.sqrt((residual * residual).sum()))

    def vjp(g, acc_adjacency, acc_assignment):
        if norm == 0.0:
            return
        g_residual = (g / norm) * residual
        if acc_adjacency is not None:
            acc_adjacency += g_residual
        if acc_assignment is not None:
            acc_assignment -= ((g_residual + g_residual.T) @ s_nm).T

    return norm, vjp


@dataclass(frozen=True)
class LossParts:
    l_epsilon: float
    l_p: float
    total: float


def graph_loss(result: ForwardResult, label: int, class_count: int,
               beta: float, stage_mode: str = "mean") -> tuple[Var, LossParts]:
    """Blended objective for one graph as one node over the probabilities
    and every counted stage's (adjacency, assignment); beta = 0 never
    touches the stages.

    ``stage_mode`` picks how multi-stage structure terms combine: "mean"
    (default), "sum", or "first" (only the initial pooling step).
    """
    if stage_mode not in STAGE_MODES:
        raise ContractViolationError(
            f"stage_mode must be one of {STAGE_MODES}, got {stage_mode!r}")
    ce, ce_vjp = _cross_entropy(label, result.probs, class_count)
    stages = []
    if beta != 0.0:
        stages = result.stages[:1] if stage_mode == "first" else result.stages
    terms = [_structure(stage) for stage in stages]
    share = 1.0 / len(terms) if terms and stage_mode == "mean" else 1.0
    total, lp = ce * (1.0 - beta), 0.0
    if terms:
        lp = sum(value for value, _ in terms) * share
        total = total + lp * beta

    def vjp(g, grads):
        acc_probs, *acc_stages = grads
        if acc_probs is not None:
            ce_vjp(g * (1.0 - beta), acc_probs)
        for k, (_, term_vjp) in enumerate(terms):
            term_vjp(g * beta * share, *acc_stages[2 * k:2 * k + 2])

    inputs = (result.probs,) + tuple(
        var for stage in stages for var in (stage.adjacency, stage.assignment))
    return ad.node(total, inputs, vjp), LossParts(float(ce), float(lp), float(total))


# -- optimizers -----------------------------------------------------------


class Optimizer:
    """Adam or heavy-ball SGD with global-norm gradient clipping.

    ``step`` consumes the gradients accumulated on the parameter Vars
    (dividing by the batch size to form the batch mean) and clears them.
    """

    def __init__(self, config: TrainConfig):
        self.config = config
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._warned: set[str] = set()

    def step(self, params: dict[str, Var], batch_size: int) -> float:
        """Apply one update in place and return the gradient norm before
        clipping. Each parameter's gradient buffer, consumed here, doubles
        as scratch space, so an update allocates one temporary per tensor."""
        cfg = self.config
        grads: dict[str, np.ndarray] = {}
        for name in sorted(params):
            var = params[name]
            if var.grad is None:
                if name not in self._warned:
                    warnings.warn(f"parameter {name} received no gradient; treated as zero")
                    self._warned.add(name)
                grads[name] = np.zeros_like(var.value)
            else:
                if not np.all(np.isfinite(var.grad)):
                    raise NumericError(f"non-finite gradient for parameter {name}")
                var.grad /= batch_size
                grads[name] = var.grad
        norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        if cfg.grad_clip_norm is not None and norm > cfg.grad_clip_norm:
            factor = cfg.grad_clip_norm / norm
            for g in grads.values():
                g *= factor
        self.step_count += 1
        for name, g in grads.items():
            var = params[name]
            if cfg.optimizer == "adam":
                m = self._m.setdefault(name, np.zeros_like(var.value))
                v = self._v.setdefault(name, np.zeros_like(var.value))
                t = g * (1.0 - cfg.adam_beta1)
                m *= cfg.adam_beta1
                m += t
                np.multiply(g, 1.0 - cfg.adam_beta2, out=t)
                t *= g
                v *= cfg.adam_beta2
                v += t
                # lr m_hat / (sqrt(v_hat) + eps), with g as the denominator
                np.divide(m, 1.0 - cfg.adam_beta1 ** self.step_count, out=t)
                t *= cfg.learning_rate
                d = np.divide(v, 1.0 - cfg.adam_beta2 ** self.step_count, out=g)
                np.sqrt(d, out=d)
                d += cfg.adam_eps
                t /= d
                var.value -= t
            else:
                buf = self._m.setdefault(name, np.zeros_like(var.value))
                buf *= cfg.momentum
                buf += g
                var.value -= np.multiply(buf, cfg.learning_rate, out=g)
            var.grad = None
        return norm


# -- training loop --------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    l_epsilon: float
    l_p: float
    l_total: float
    train_acc: float
    val_acc: float


@dataclass
class RunReport:
    seed: int
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_val_acc: float = 0.0
    seconds: float = 0.0
    diverged: bool = False

    def to_csv(self) -> str:
        lines = ["epoch,l_epsilon,l_p,l_total,train_acc,val_acc"]
        for r in self.epochs:
            lines.append(
                f"{r.epoch},{r.l_epsilon:.10g},{r.l_p:.10g},{r.l_total:.10g},"
                f"{r.train_acc:.10g},{r.val_acc:.10g}"
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "epochs_run": len(self.epochs),
            "best_epoch": self.best_epoch,
            "best_val_acc": self.best_val_acc,
            "seconds": self.seconds,
            "diverged": self.diverged,
        }


@dataclass
class TrainOutcome:
    report: RunReport
    best_state: dict[str, np.ndarray]


def evaluate_accuracy(model: CrossScaleModel, dataset: GraphDataset) -> float:
    """Share of graphs whose ``predict`` (no tape) matches the label."""
    correct = sum(1 for g in dataset.graphs if model.predict(g) == g.label)
    return correct / len(dataset.graphs)


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start:start + size]


def train(model: CrossScaleModel, train_set: GraphDataset, val_set: GraphDataset,
          config: TrainConfig) -> TrainOutcome:
    """Mini-batch training with best-validation parameter selection.

    The model is left holding the best-validation parameters on return. A
    non-finite loss or gradient marks the run diverged and stops training
    with a partial report instead of raising.
    """
    if train_set.class_count != model.config.class_count:
        raise ContractViolationError(
            f"dataset has {train_set.class_count} classes, model expects "
            f"{model.config.class_count}"
        )
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([config.seed, _SHUFFLE_STREAM])))
    optimizer = Optimizer(config)
    report = RunReport(seed=config.seed)
    best_state = model.state()
    best_val = -1.0
    start = time.perf_counter()
    count = len(train_set.graphs)
    for epoch in range(config.epochs):
        order = rng.permutation(count) if config.shuffle else np.arange(count)
        sums = np.zeros(3)
        correct = 0
        diverged = False
        for batch in _batches(order, config.batch_size):
            for idx in batch:
                graph = train_set.graphs[int(idx)]
                result = model.forward(graph)
                loss, parts = graph_loss(result, graph.label, train_set.class_count,
                                         config.beta, config.lp_stage_mode)
                if not np.isfinite(parts.total):
                    diverged = True
                    break
                sums += (parts.l_epsilon, parts.l_p, parts.total)
                correct += result.prediction == graph.label
                ad.backward(loss)
            if diverged:
                break
            try:
                optimizer.step(model.params, len(batch))
            except NumericError:
                diverged = True
                break
        if diverged:
            report.diverged = True
            break
        val_acc = evaluate_accuracy(model, val_set)
        report.epochs.append(EpochRecord(
            epoch=epoch,
            l_epsilon=float(sums[0] / count),
            l_p=float(sums[1] / count),
            l_total=float(sums[2] / count),
            train_acc=correct / count,
            val_acc=val_acc,
        ))
        if val_acc > best_val:
            best_val = val_acc
            best_state = model.state()
            report.best_epoch = epoch
            report.best_val_acc = val_acc
    report.seconds = time.perf_counter() - start
    model.load_state(best_state)
    return TrainOutcome(report=report, best_state=best_state)
