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
through ``wavepool.lanes.Lanes``, whose lane 1 is the same handler
(``_serve_batch``, ``_hits``, the build's ``"build"``) in a forked process
or here. A batch's gradient is lane 0's sum plus lane 1's, and a pass adds
the lanes' hit counts. Where lane 1 forks, each model keeps one lane worker
(``_LaneWorker``), forked the first time a ``train`` or
``evaluate_accuracy`` call needs it, over that call's graphs; later calls
reuse it while it holds every graph they name. It is retired (its pipes
closed, its process reaped) when the model is collected or the interpreter
exits, when a call needs graphs it does not hold (a new one is then forked
over those), and when a request raises, in either lane. An operand build
forks a builder of its own.

Each ``train`` call logs one INFO line on the ``wavepool.training`` logger
saying where lane 1 runs, whether it reuses the model's worker, and why.
At DEBUG it logs one record per epoch (losses, gradient norms, clipped
steps, seconds in the lanes and in validation), one line per evaluation
pass, one per build of any wavelet operand and one per worker forked or
retired, with the graphs it holds and the reason.
"""

from __future__ import annotations

import logging
import mmap
import time
import warnings
import weakref
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from . import lanes
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
    """A lane met a non-finite loss; ``_batch`` turns it into None."""


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
            raise _NonFinite("a non-finite loss")
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
    spectral pooling will ask for, then its graphs' operands, and the
    operands lane 1 returns go into each graph's memo here, read-only. Then
    every graph's GCN and renormalized operands are built here."""
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


def _serve_batch(model: CrossScaleModel, graphs, lane_grads: dict, config: TrainConfig,
                 indices):
    """Lane 1 of a batch: its per-graph parts and the names of the
    parameters it reached, whose gradients it leaves in ``lane_grads``."""
    parts, grads = _run_lane(model, graphs, config, indices)
    for name, grad in grads.items():
        lane_grads[name][...] = grad
    return parts, list(grads)


# every model's latest lane worker; a retired one stays until replaced
_WORKERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _LaneWorker:
    """Lane 1 of a model's jobs over ``graphs``, each job naming its graphs
    by their indices there: in one worker forked over them where
    ``Lanes(count)`` forks, else here after lane 0.

    Lane 1 leaves a batch's gradients in buffers of one anonymous shared
    mapping. Before a fork, every graph's operands are built
    (``_build_operands``) and the parameters move into the same mapping,
    where the optimizer updates them in place for both processes. A forked
    worker holds no reference to the model, so that ``weakref.finalize``
    retires it when the model goes, or at exit.
    """

    def __init__(self, model: CrossScaleModel, graphs, count: int):
        self.graphs = tuple(graphs)
        self.index = {}
        for i, graph in enumerate(self.graphs):
            self.index.setdefault(id(graph), i)
        names = list(model.params)
        shapes = [model.params[name].value.shape for name in names]
        self.mapping, arrays, spans = _shared_arrays(shapes + shapes)
        self.params = dict(zip(names, arrays))
        self.grads = dict(zip(names, arrays[len(names):]))
        self.grad_spans = dict(zip(names, spans[len(names):]))
        self.lanes = Lanes(count, {"train": partial(_serve_batch, model, self.graphs, self.grads),
                                   "predict": partial(_hits, model, self.graphs)})
        if self.lanes.forked:
            _build_operands(model, self.graphs)
            self.rebind(model)
            self.lanes.fork()
            self.finalizer = weakref.finalize(model, self.retire, "its model was dropped")

    def rebind(self, model: CrossScaleModel) -> None:
        """Copy every parameter array replaced since the fork (``load_state``
        replaces them all) into the shared mapping, and rebind it there."""
        for name, var in model.params.items():
            shared = self.params[name]
            if var.value is not shared:
                shared[...] = var.value
                var.value = shared

    @property
    def live(self) -> bool:
        return self.lanes.pipes is not None

    def holds(self, graphs) -> bool:
        return all(id(graph) in self.index for graph in graphs)

    def places(self, graphs) -> list[int]:
        """Each graph's index among the graphs this worker holds."""
        return [self.index[id(graph)] for graph in graphs]

    def run(self, model: CrossScaleModel, indices, kind: str, here, *args):
        """``Lanes.run`` of the graphs at ``indices``; a live worker first
        takes any replaced parameter (``rebind``), and is retired when the
        job raises."""
        if self.live:
            self.rebind(model)
        try:
            return self.lanes.run(self.graphs, indices, kind, here, args)
        except BaseException as exc:
            self.retire(str(exc) or type(exc).__name__)
            raise

    def retire(self, why: str) -> None:
        """Close the worker's pipes and reap it, and log why."""
        if not self.live:
            return
        log.debug("retired the lane worker %d over %d graphs: %s", self.lanes.pid,
                  len(self.graphs), why)
        self.finalizer.detach()
        self.lanes.close()


def _lane_worker(model: CrossScaleModel, graphs, count: int,
                 announce: bool = False) -> tuple[_LaneWorker, str]:
    """Lane 1 of a job of ``count`` graphs out of ``graphs``, and why it
    runs where it does, for the log. Where lane 1 forks, that is the model's
    worker: reused if it holds every graph, else forked now over ``graphs``
    once the old one is retired. Elsewhere lane 1 runs here after lane 0,
    and the model's worker, if any, waits for a later call. ``announce``
    logs ``train``'s INFO line, before any fork."""
    forked, reason = lanes.worker_plan(count)
    old = _WORKERS.get(model)
    reuse = forked and old is not None and old.live and old.holds(graphs)
    if announce:
        log.info("lane 1 runs %s, for batches and validation: %s",
                 "in-process" if not forked else "in the model's lane worker, "
                 + ("reused" if reuse else "forked for this call"), reason)
    if reuse:
        return old, reason
    if forked and old is not None and old.live:
        old.retire("a call needs graphs it does not hold")
    worker = _LaneWorker(model, graphs, count)
    if worker.lanes.forked:
        _WORKERS[model] = worker
        log.debug("forked a lane worker %d over %d graphs: %s", worker.lanes.pid,
                  len(worker.graphs), "the model had none" if old is None
                  else "its last one was retired")
    return worker, worker.lanes.reason


def _batch(model: CrossScaleModel, worker: _LaneWorker, indices, config: TrainConfig):
    """The parts of every graph of a batch, at ``indices`` in the worker's
    graphs, in batch order, leaving lane 0's gradient sum plus lane 1's on
    the parameters, or None when a lane met a non-finite loss; the first
    error in lane order is raised."""
    try:
        positions, results = worker.run(model, indices, "train",
                                        partial(_run_lane, model, worker.graphs, config), config)
    except _NonFinite:
        return None
    (_, grads), (_, reached) = results
    params = model.params
    for name, grad in grads.items():
        params[name].grad = grad
    for name in reached:  # lane 0's sum plus lane 1's
        var, grad = params[name], worker.grads[name]
        if var.grad is None:
            var.grad = grad.copy()
        else:
            var.grad += grad
        # drop the pages just read from this process's memory (the shared
        # mapping keeps them), so that lane 1's buffers cost this process
        # one tensor at a time
        worker.mapping.madvise(mmap.MADV_DONTNEED, *worker.grad_spans[name])
    ordered = [None] * len(indices)
    for lane, (parts, _) in zip(positions, results):
        for pos, part in zip(lane, parts):
            ordered[pos] = part
    return ordered


def _accuracy(model: CrossScaleModel, worker: _LaneWorker, graphs, reason: str) -> float:
    """The share of ``graphs``, all held by ``worker``, that ``predict``
    labels right; logs where lane 1 runs and why."""
    log.debug("evaluating %d graphs: lane 1 runs %s: %s", len(graphs),
              "in the model's lane worker" if worker.lanes.forked else "in-process", reason)
    _, counts = worker.run(model, worker.places(graphs), "predict",
                           partial(_hits, model, worker.graphs))
    return sum(counts) / len(graphs)


@_one_blas_thread()
def evaluate_accuracy(model: CrossScaleModel, dataset: GraphDataset) -> float:
    """Share of graphs whose ``predict`` (no tape) matches the label, the
    same wherever each lane runs. Lane 1 runs in the model's lane worker
    where it forks (``_lane_worker``)."""
    worker, reason = _lane_worker(model, dataset.graphs, len(dataset.graphs))
    return _accuracy(model, worker, dataset.graphs, reason)


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
    worker, reason = _lane_worker(model, train_set.graphs + val_set.graphs, config.batch_size,
                                  announce=True)
    places = worker.places(train_set.graphs)
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
                parts = _batch(model, worker, [places[i] for i in batch], config)
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
            val_acc = _accuracy(model, worker, val_set.graphs, reason)
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
        for var in model.params.values():  # a batch that diverged or raised leaves some
            var.grad = None
    report.seconds = time.perf_counter() - start
    model.load_state(best_state)
    return TrainOutcome(report=report, best_state=best_state)
