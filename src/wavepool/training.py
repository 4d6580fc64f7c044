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
``graph_loss`` is the only loss: one tape node over the logits and each
counted stage's (adjacency, assignment), with a hand-written vjp. Its
cross-entropy is log-softmax of the logits, finite for any finite logits.
Validation goes through ``CrossScaleModel.predict`` and records no tape.

Training batches, validation passes, ``evaluate_accuracy`` passes and the
operand build before a fork (``_build_operands``) each run in two lanes
through ``wavepool.lanes.Lanes``: ``train`` forks one worker for its
batches and validation, any other evaluation pass one of its own, and a
build a builder. A batch's gradient is lane 0's sum plus lane 1's, and a
pass adds the lanes' hit counts. Each ``train`` call logs one INFO line on the
``wavepool.training`` logger saying where lane 1 runs and why, and at DEBUG
one record per epoch (losses, gradient norms, clipped steps, seconds in
the lanes and in validation), one line per evaluation pass and one per
build of any wavelet operand.
"""

from __future__ import annotations

import logging
import mmap
import time
import warnings
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, ContractViolationError, NumericError
from .graphs import GraphDataset
from .lanes import Lanes, _one_blas_thread, _shared_arrays
from .model import CrossScaleModel, ForwardResult, PoolStage, mid_pool_size
from .settings import check_fields
from .spectral import cosine_transform

OPTIMIZERS = ("adam", "momentum")

STAGE_MODES = ("mean", "sum", "first")

_SHUFFLE_STREAM = 0x53485546

log = logging.getLogger(__name__)


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


def _cross_entropy(label: int, logits: Var, class_count: int):
    """The scaled cross-entropy (logsumexp(z) - z[label]) / c of the logits z,
    with the max shifted out, and a vjp adding g (softmax(z) - e_label) / c
    into the logits' buffer."""
    if not 0 <= label < class_count:
        raise ContractViolationError(f"label {label} outside [0, {class_count})")
    z = logits.value
    if z.shape != (class_count,):
        raise ContractViolationError(f"logit vector has shape {z.shape}, expected ({class_count},)")
    shifted = z - z.max()
    e = np.exp(shifted)
    total = e.sum()
    factor = 1.0 / class_count

    def vjp(g, acc):
        grad = e / total
        grad[label] -= 1.0
        grad *= g * factor
        acc += grad

    return (np.log(total) - shifted[label]) * factor, vjp


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
        a_squared = np.vdot(a, a) if stage.squared_norm is None else stage.squared_norm
        squared = a_squared - 2.0 * np.vdot(product, s) + np.vdot(gram, gram)
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
    """Blended objective for one graph as one node over the logits and
    every counted stage's (adjacency, assignment); beta = 0 never touches
    the stages.

    ``stage_mode`` picks how multi-stage structure terms combine: "mean"
    (default), "sum", or "first" (only the initial pooling step).
    """
    if stage_mode not in STAGE_MODES:
        raise ContractViolationError(
            f"stage_mode must be one of {STAGE_MODES}, got {stage_mode!r}")
    ce, ce_vjp = _cross_entropy(label, result.logits, class_count)
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
        acc_logits, *acc_stages = grads
        if acc_logits is not None:
            ce_vjp(g * (1.0 - beta), acc_logits)
        for k, (_, term_vjp) in enumerate(terms):
            term_vjp(g * beta * share, *acc_stages[2 * k:2 * k + 2])

    inputs = (result.logits,) + tuple(
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


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start:start + size]


# -- the lanes' jobs -------------------------------------------------------


class _NonFinite(Exception):
    """A lane met a non-finite loss; ``_TrainingLanes.run`` turns it into None."""


def _run_lane(model: CrossScaleModel, graphs, config: TrainConfig, indices):
    """Forward, loss and backward for each graph at ``indices`` in turn.
    Returns the per-graph (l_epsilon, l_p, total, correct) and the
    gradients added, by parameter name, taken off the parameters; raises
    ``_NonFinite`` at the first non-finite loss, before its backward."""
    parts = []
    for graph in (graphs[i] for i in indices):
        result = model.forward(graph)
        loss, p = graph_loss(result, graph.label, model.config.class_count,
                             config.beta, config.lp_stage_mode)
        if not np.isfinite(p.total):
            raise _NonFinite
        parts.append((p.l_epsilon, p.l_p, p.total, result.prediction == graph.label))
        ad.backward(loss)
    params = model.params
    grads = {name: var.grad for name, var in params.items() if var.grad is not None}
    for var in params.values():
        var.grad = None
    return parts, grads


def _hits(model: CrossScaleModel, graphs, indices) -> int:
    """How many of the graphs at ``indices`` ``predict`` labels right."""
    return sum(1 for i in indices if model.predict(graphs[i]) == graphs[i].label)


@_one_blas_thread()
def _build_operands(model: CrossScaleModel, graphs) -> None:
    """Everything a forward pass reads of each graph alone, so that a
    process forked afterwards finds it built; a graph the forward pass
    rejects is left for it to reject. The graphs whose wavelet operand is
    not yet memoised go through ``Lanes``: lane 0 builds every DCT matrix
    spectral pooling will ask for, then its graphs' operands, and lane 1's
    go into each graph's memo here, read-only. Then every graph's GCN and
    renormalized operands are built here."""
    cfg = model.config
    start = time.perf_counter()
    graphs = [g for g in graphs if g.node_count <= cfg.n_max and g.feature_dim == cfg.feature_dim]
    unbuilt = [graph for graph in graphs
               if cfg.uses_wavelets and not graph.holds("wavelets", cfg.wavelet_key)]
    sizes = {size for graph in graphs if cfg.uses_spectral_pool and graph.node_count > cfg.m_out
             for size in (graph.node_count, mid_pool_size(graph.node_count, cfg.m_out), cfg.m_out)}

    def build_here(indices):
        for size in sizes:
            cosine_transform(size)
        return [model.inputs_for(unbuilt[i]).wavelets for i in indices]

    build = {"build": lambda indices: [model.wavelet_operand(unbuilt[i]) for i in indices]}
    with closing(Lanes(len(unbuilt), build)) as builder:
        builder.fork()
        (_, second), (_, operands) = builder.run(unbuilt, range(len(unbuilt)), "build", build_here)
    for i, operand in zip(second, operands):
        for array in operand:
            array.setflags(write=False)
        unbuilt[i].memoised("wavelets", cfg.wavelet_key, lambda operand=operand: operand)
    for graph in graphs:
        model.inputs_for(graph)
    if unbuilt:
        log.debug("built %d wavelet operands in %.3f s: %d in lane 0 here, %d in lane 1 %s: %s",
                  len(unbuilt), time.perf_counter() - start, len(unbuilt) - len(second),
                  len(second), "in a forked builder" if builder.forked else "here",
                  builder.reason)


class _TrainingLanes:
    """``train``'s ``Lanes``: ``run`` takes one mini-batch, and ``accuracy``
    one validation pass. Where lane 1 forks, one worker serves both for the
    ``train`` call; it reads the parameters from, and writes lane 1's
    gradients to, one anonymous shared mapping."""

    def __init__(self, model: CrossScaleModel, train_set: GraphDataset,
                 val_set: GraphDataset, config: TrainConfig):
        self.model = model
        self.graphs = train_set.graphs
        self.val_graphs = val_set.graphs
        self.lane = partial(_run_lane, model, self.graphs, config)
        self.lanes = Lanes(config.batch_size, {
            "train": self._serve_lane, "predict": partial(_hits, model, self.val_graphs)})
        log.info("lane 1 runs %s: %s", "in a forked worker, for batches and validation"
                 if self.lanes.forked else "in-process", self.lanes.reason)
        self.lanes.fork(self._share)

    def _share(self) -> None:
        """Build every graph's operands, then move the parameters into one
        shared mapping next to lane 1's gradient buffers."""
        _build_operands(self.model, self.graphs + self.val_graphs)
        params = self.model.params
        shapes = [var.value.shape for var in params.values()]
        self.mapping, arrays, spans = _shared_arrays(shapes + shapes)
        for var, value in zip(params.values(), arrays):
            value[...] = var.value
            var.value = value
        self.shared_grads = dict(zip(params, arrays[len(shapes):]))
        self.grad_spans = dict(zip(params, spans[len(shapes):]))

    def _serve_lane(self, indices: list[int]):
        """Lane 1 of a batch, in the worker: its per-graph parts and the
        names of the parameters it reached, whose gradients it leaves in the
        shared buffers."""
        parts, grads = self.lane(indices)
        for name, grad in grads.items():
            self.shared_grads[name][...] = grad
        return parts, list(grads)

    def run(self, batch: np.ndarray):
        """The parts of every graph in batch order, leaving lane 0's gradient
        sum plus lane 1's on the parameters, or None when a lane met a
        non-finite loss; the first error in lane order is raised."""
        try:
            positions, results = self.lanes.run(self.graphs, [int(i) for i in batch], "train",
                                                self.lane)
        except _NonFinite:
            return None
        (_, grads), (_, more) = results
        if self.lanes.forked:
            more = {name: self.shared_grads[name] for name in more}
        params = self.model.params
        for name, grad in grads.items():
            params[name].grad = grad
        for name, grad in more.items():  # lane 0's sum plus lane 1's
            var = params[name]
            if var.grad is None:
                var.grad = grad.copy()
            else:
                var.grad += grad
            if self.lanes.forked:
                # drop the pages just read from this process's memory (the
                # worker keeps them), so that lane 1's buffers cost the
                # parent one tensor at a time
                self.mapping.madvise(mmap.MADV_DONTNEED, *self.grad_spans[name])
        ordered = [None] * len(batch)
        for lane, (parts, _) in zip(positions, results):
            for pos, part in zip(lane, parts):
                ordered[pos] = part
        return ordered

    def accuracy(self) -> float:
        """The validation set's accuracy, equal to ``evaluate_accuracy``'s."""
        return _accuracy(self.val_graphs, self.lanes, "in the training worker")

    def close(self) -> None:
        """End the worker, if any. The parameters stay in the shared mapping
        until ``load_state`` replaces them, as ``train`` does on return."""
        self.lanes.close()


def _accuracy(graphs, pass_lanes: Lanes, where: str) -> float:
    """The share of ``graphs`` that the lanes' "predict" handler counts
    right; logs lane 1 as running ``where`` when it forks, else in-process."""
    log.debug("evaluating %d graphs: lane 1 runs %s: %s", len(graphs),
              where if pass_lanes.forked else "in-process", pass_lanes.reason)
    _, counts = pass_lanes.run(graphs, range(len(graphs)), "predict")
    return sum(counts) / len(graphs)


@_one_blas_thread()
def evaluate_accuracy(model: CrossScaleModel, dataset: GraphDataset) -> float:
    """Share of graphs whose ``predict`` (no tape) matches the label, the
    same wherever each lane runs. Where lane 1 forks, every graph's operands
    are first built and kept here (``_build_operands``), so that the process
    forked for it builds none."""
    graphs = dataset.graphs
    with closing(Lanes(len(graphs), {"predict": partial(_hits, model, graphs)})) as pass_lanes:
        pass_lanes.fork(partial(_build_operands, model, graphs))
        return _accuracy(graphs, pass_lanes, "in a process forked for this pass")


def _log_epoch(record: EpochRecord, norms: list[float], clip: float | None,
               lane_s: float, val_s: float) -> None:
    clipped = 0 if clip is None else sum(norm > clip for norm in norms)
    log.debug("epoch %d: l_epsilon %.6g, l_p %.6g, l_total %.6g; pre-clip gradient norm "
              "max %.4g, median %.4g; %d of %d steps clipped; lanes %.3f s, validation %.3f s",
              record.epoch, record.l_epsilon, record.l_p, record.l_total, max(norms),
              float(np.median(norms)), clipped, len(norms), lane_s, val_s)


@_one_blas_thread()
def train(model: CrossScaleModel, train_set: GraphDataset, val_set: GraphDataset,
          config: TrainConfig) -> TrainOutcome:
    """Mini-batch training with best-validation parameter selection.

    The model is left holding the best-validation parameters on return. A
    non-finite loss or gradient marks the run diverged and stops training
    with a partial report instead of raising. Whether the run ends, diverges
    or raises, no parameter is left holding a gradient. Before a lane worker
    forks, every training and validation graph's operands are built
    (``_build_operands``).
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
    watch = log.isEnabledFor(logging.DEBUG)
    runner = _TrainingLanes(model, train_set, val_set, config)
    try:
        for epoch in range(config.epochs):
            order = rng.permutation(count) if config.shuffle else np.arange(count)
            sums = np.zeros(3)
            correct = 0
            diverged = False
            norms = []
            lane_s = 0.0
            for batch in _batches(order, config.batch_size):
                tick = time.perf_counter()
                parts = runner.run(batch)
                lane_s += time.perf_counter() - tick
                if parts is None:
                    diverged = True
                    break
                for l_epsilon, l_p, total, hit in parts:
                    sums += (l_epsilon, l_p, total)
                    correct += hit
                try:
                    norms.append(optimizer.step(model.params, len(batch)))
                except NumericError:
                    diverged = True
                    break
            if diverged:
                report.diverged = True
                break
            tick = time.perf_counter()
            val_acc = runner.accuracy()
            val_s = time.perf_counter() - tick
            report.epochs.append(EpochRecord(
                epoch=epoch,
                l_epsilon=float(sums[0] / count),
                l_p=float(sums[1] / count),
                l_total=float(sums[2] / count),
                train_acc=correct / count,
                val_acc=val_acc,
            ))
            if watch:
                _log_epoch(report.epochs[-1], norms, config.grad_clip_norm, lane_s, val_s)
            if val_acc > best_val:
                best_val = val_acc
                best_state = model.state()
                report.best_epoch = epoch
                report.best_val_acc = val_acc
    finally:
        runner.close()
        for var in model.params.values():  # a batch that diverged or raised leaves some
            var.grad = None
    report.seconds = time.perf_counter() - start
    model.load_state(best_state)
    return TrainOutcome(report=report, best_state=best_state)
