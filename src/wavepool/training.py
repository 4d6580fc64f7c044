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

``train`` splits every mini-batch into two lanes (``lanes``) and takes the
batch gradient as lane 0's sum plus lane 1's sum, in that order, whichever
process computes each lane. Validation and ``evaluate_accuracy`` split their
graphs the same way and add the two lanes' hit counts. All three go through
one dispatch, ``_in_lanes``: lane 0 runs here, and lane 1 in a forked worker
when ``os.fork`` exists, at least two CPUs are available, OpenBLAS reads a
thread count of 1 from the environment, no other Python thread runs and the
batch or pass holds at least two graphs (``worker_plan``); otherwise lane 1
runs here after lane 0, with the same numbers. ``train`` forks one worker
per call for its batches and validation passes; any other evaluation pass
forks one of its own. Before either fork, every graph's operands are built
here (``_build_operands``), also in two lanes: lane 1's missing wavelet
operands come from a builder forked for that build under the same
conditions, and are kept in the graphs' memo here. Each ``train`` call logs
one INFO line on the ``wavepool.training`` logger saying where lane 1 runs
and why, and at DEBUG one record per epoch (losses, gradient norms, clipped
steps, seconds in the lanes and in validation), one line per evaluation pass
and one per operand build that builds anything.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
import pickle
import signal
import threading
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, ContractViolationError, NumericError
from .graphs import GraphDataset
from .model import CrossScaleModel, ForwardResult, PoolStage, mid_pool_size
from .settings import check_fields
from .spectral import cosine_transform

OPTIMIZERS = ("adam", "momentum")

STAGE_MODES = ("mean", "sum", "first")

PROB_FLOOR = 1e-12  # clamp before log so empty support cannot produce -inf

_SHUFFLE_STREAM = 0x53485546

# OpenBLAS takes its thread count from the first of these that holds a
# positive integer.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

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


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start:start + size]


# -- lanes ----------------------------------------------------------------


def lanes(sizes) -> tuple[list[int], list[int]]:
    """Split a batch of graphs with the given node counts into two lanes of
    batch positions, each in batch order. Largest graph first (ties in batch
    order), each goes to the lane whose running sum of n^2 is lower, ties to
    lane 0."""
    load, members = [0, 0], ([], [])
    for pos in sorted(range(len(sizes)), key=lambda p: -sizes[p]):
        lane = 0 if load[0] <= load[1] else 1
        load[lane] += sizes[pos] ** 2
        members[lane].append(pos)
    return sorted(members[0]), sorted(members[1])


@cache
def _blas_name() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):  # NumPy before 1.26 has no dict mode
        return "unknown"


def _blas_threads() -> tuple[bool, str]:
    """Whether BLAS runs one thread, and the setting that says so or the
    reason it cannot be told. Only OpenBLAS is identified; it reads the
    first of ``BLAS_THREAD_VARS`` that holds a positive integer."""
    name = _blas_name()
    if "openblas" not in name.lower():
        return False, f"BLAS {name!r} is not OpenBLAS, so its thread count is unknown"
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1, f"{var}={value}"
    return False, f"none of {', '.join(BLAS_THREAD_VARS)} holds a positive integer"


def worker_plan(count: int) -> tuple[bool, str]:
    """Whether lane 1 of a batch or an evaluation pass of ``count`` graphs
    runs in a forked process, and why or why not."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False, "this platform has no os.fork or os.sched_getaffinity"
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        return False, f"only {cpus} CPU is available"
    pinned, setting = _blas_threads()
    if not pinned:
        return False, f"BLAS is not pinned to one thread ({setting})"
    if threading.active_count() > 1:  # a fork copies no thread but may copy a held lock
        return False, f"{threading.active_count()} Python threads are running"
    if count < 2:
        return False, f"{count} graph{'' if count == 1 else 's'} cannot fill two lanes"
    return True, f"{cpus} CPUs, {setting}, {count} graphs at a time"


class _NonFinite(Exception):
    """A lane met a non-finite loss; ``_Lanes.run`` turns it into None."""


def _run_lane(model: CrossScaleModel, graphs, class_count: int, config: TrainConfig):
    """Forward, loss and backward for each graph in turn, adding into the
    parameters' ``.grad``. Returns the per-graph (l_epsilon, l_p, total,
    correct); raises ``_NonFinite`` at the first non-finite loss, before its
    backward."""
    parts = []
    for graph in graphs:
        result = model.forward(graph)
        loss, p = graph_loss(result, graph.label, class_count,
                             config.beta, config.lp_stage_mode)
        if not np.isfinite(p.total):
            raise _NonFinite
        parts.append((p.l_epsilon, p.l_p, p.total, result.prediction == graph.label))
        ad.backward(loss)
    return parts


def _take_grads(params: dict[str, Var]) -> dict[str, np.ndarray]:
    """The gradient buffers the parameters hold, by name, leaving them None."""
    grads = {name: var.grad for name, var in params.items() if var.grad is not None}
    for var in params.values():
        var.grad = None
    return grads


def _hits(model: CrossScaleModel, graphs, indices) -> int:
    """How many of the graphs at ``indices`` ``predict`` labels right."""
    return sum(1 for i in indices if model.predict(graphs[i]) == graphs[i].label)


def _shared_arrays(shapes):
    """Zeroed float64 arrays of the given shapes in one anonymous shared
    mapping, which a process forked afterwards shares, each on pages of its
    own. Returns the mapping, the arrays and each array's (offset, length)
    in bytes."""
    sizes = [-(-math.prod(shape) * 8 // mmap.PAGESIZE) * mmap.PAGESIZE for shape in shapes]
    mapping = mmap.mmap(-1, sum(sizes))
    spans = list(zip(accumulate(sizes[:-1], initial=0), sizes))
    arrays = [np.frombuffer(mapping, np.float64, math.prod(shape), offset).reshape(shape)
              for shape, (offset, _) in zip(shapes, spans)]
    return mapping, arrays, spans


def _fits(cfg, graph) -> bool:
    return graph.node_count <= cfg.n_max and graph.feature_dim == cfg.feature_dim


def _build_operands(model: CrossScaleModel, graphs) -> None:
    """Everything a forward pass reads of each graph alone, so that a
    process forked afterwards finds it built. A graph the forward pass
    rejects is left for it to reject.

    The graphs whose wavelet operand is not yet memoised split into two
    ``lanes``. When ``worker_plan`` allows it, a builder forked for this
    call builds lane 1's operands while this process builds lane 0's and
    every DCT matrix; lane 1's come back in one reply and go into each
    graph's memo here, read-only. The first error in lane order is raised,
    the builder's with its traceback as a note, and the builder is reaped
    before this returns or raises. GCN operands are built here, and when
    every graph already holds its wavelet operand nothing forks.
    """
    cfg = model.config
    start = time.perf_counter()
    watch = log.isEnabledFor(logging.DEBUG)
    slot, key = ("wavelets", cfg.wavelet_key) if cfg.uses_wavelets else ("gcn", None)
    # a GCN operand is cheap, and shipping it would copy the graph, so it is
    # always built here; what is missing then matters to the log alone
    unbuilt = ([g for g in graphs if _fits(cfg, g) and not g.holds(slot, key)]
               if cfg.uses_wavelets or watch else [])
    forked, reason = (worker_plan(len(unbuilt)) if cfg.uses_wavelets
                      else (False, "GCN operands are built here"))
    remote = [unbuilt[i] for i in lanes([g.node_count for g in unbuilt])[1]] if forked else []
    with (_Worker({"wavelets": lambda _: [model.wavelet_operand(g) for g in remote]})
          if forked else nullcontext()) as builder:
        if forked:
            builder.send("wavelets", None)
        skip = set(remote)
        for graph in graphs:
            if not _fits(cfg, graph):
                continue
            if graph not in skip:
                model.inputs_for(graph)
            n = graph.node_count
            if cfg.uses_spectral_pool and n > cfg.m_out:
                for size in (n, mid_pool_size(n, cfg.m_out), cfg.m_out):
                    cosine_transform(size)
        if forked:
            operands, error = builder.receive()
            if error is not None:
                raise error
            for graph, operand in zip(remote, operands):
                for array in operand:
                    array.setflags(write=False)
                graph.memoised(slot, key, lambda operand=operand: operand)
                model.inputs_for(graph)
    if watch and unbuilt:
        where = (f"{len(unbuilt) - len(remote)} in lane 0 here, {len(remote)} in lane 1 in a "
                 "forked builder" if forked else "both lanes in-process")
        log.debug("built %d %s operands in %.3f s: %s: %s", len(unbuilt),
                  "wavelet" if cfg.uses_wavelets else "GCN", time.perf_counter() - start,
                  where, reason)


def _send(pipe, message) -> None:
    pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
    pipe.flush()


def _shipped(error: Exception) -> tuple[Exception, str]:
    """An error as it crosses a pipe: itself, or a RuntimeError naming it if
    it cannot be pickled, and its traceback text."""
    text = "".join(traceback.format_exception(error))
    try:
        pickle.dumps(error)
    except Exception:  # an error that cannot cross the pipe as itself
        error = RuntimeError(f"{type(error).__name__}: {error}")
    return error, text


def _serve(inbox, outbox, handlers: dict) -> None:
    """A worker's loop: answer each ``(kind, payload)`` request read from
    ``inbox`` with ``(handlers[kind](payload), None)``, or ``(None, shipped
    error)`` when the handler raises. Returns at EOF."""
    while True:
        try:
            kind, payload = pickle.load(inbox)
        except EOFError:
            return
        try:
            reply = handlers[kind](payload), None
        except Exception as exc:
            reply = None, _shipped(exc)
        _send(outbox, reply)


class _Worker:
    """A forked process that serves ``handlers`` (see ``_serve``) over two
    pipes. It sees the parent's memory as it was at the fork, copy-on-write,
    apart from shared mappings. It ignores SIGINT (the parent handles
    Ctrl-C) and warnings, never logs, and leaves with ``os._exit`` at EOF or
    on a broken pipe, so it also ends when its parent is killed. ``close``,
    or leaving a ``with`` block, reaps it."""

    def __init__(self, handlers: dict):
        from_parent, to_worker = os.pipe()
        from_worker, to_parent = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the worker: serve until EOF, never return
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                warnings.simplefilter("ignore")
                os.close(to_worker)
                os.close(from_worker)
                with os.fdopen(from_parent, "rb") as inbox, os.fdopen(to_parent, "wb") as outbox:
                    _serve(inbox, outbox, handlers)
                status = 0
            finally:
                os._exit(status)
        os.close(from_parent)
        os.close(to_parent)
        self.pipes = (os.fdopen(to_worker, "wb"), os.fdopen(from_worker, "rb"))

    def send(self, kind: str, payload) -> None:
        _send(self.pipes[0], (kind, payload))

    def receive(self):
        """The answer to the oldest unanswered request as (value, error);
        an error carries the worker's traceback as a note."""
        try:
            value, error = pickle.load(self.pipes[1])
        except EOFError:
            raise ChildProcessError("the lane worker exited unexpectedly") from None
        if error is not None:
            error, text = error
            if hasattr(error, "add_note"):  # Python 3.11 on
                error.add_note(f"raised in the lane worker:\n{text}")
        return value, error

    def close(self) -> None:
        """Close the pipes, so that the worker leaves, and reap it."""
        if self.pipes is None:
            return
        for pipe in self.pipes:
            pipe.close()
        self.pipes = None
        os.waitpid(self.pid, 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _in_lanes(graphs, indices, run, worker: _Worker | None, kind: str):
    """Split the graphs at ``indices`` into two ``lanes`` and return each
    lane's positions in ``indices`` and its result. Lane 0 is ``run(its
    indices)`` here. Lane 1 goes to ``worker``'s ``kind`` handler, sent
    before lane 0 starts and received after it ends, even when lane 0 raises;
    with no worker it is ``run`` here after lane 0. The first error in lane
    order is raised."""
    positions = lanes([graphs[i].node_count for i in indices])
    first, second = ([indices[p] for p in lane] for lane in positions)
    if worker is None:
        return positions, [run(first), run(second)]
    worker.send(kind, second)
    try:
        here = run(first)
    finally:
        there, error = worker.receive()
    if error is not None:
        raise error
    return positions, [here, there]


class _Lanes:
    """``train``'s two lanes, both through ``_in_lanes``: ``run`` takes one
    mini-batch, and ``accuracy`` one validation pass. When ``worker_plan``
    allows it, lane 1 of both runs in one worker forked for the ``train``
    call, which reads the parameters from, and writes lane 1's gradients to,
    one anonymous shared mapping."""

    def __init__(self, model: CrossScaleModel, train_set: GraphDataset,
                 val_set: GraphDataset, config: TrainConfig):
        self.model, self.config = model, config
        self.graphs = train_set.graphs
        self.val_graphs = val_set.graphs
        self.val_hits = partial(_hits, model, self.val_graphs)
        self.class_count = train_set.class_count
        self.worker = None
        forked, self.reason = worker_plan(config.batch_size)
        log.info("lane 1 runs %s: %s", "in a forked worker, for batches and validation"
                 if forked else "in-process", self.reason)
        if forked:
            self._fork()

    def _fork(self) -> None:
        _build_operands(self.model, self.graphs + self.val_graphs)
        params = self.model.params
        shapes = [var.value.shape for var in params.values()]
        self.mapping, arrays, spans = _shared_arrays(shapes + shapes)
        for var, value in zip(params.values(), arrays):
            value[...] = var.value
            var.value = value
        self.shared_grads = dict(zip(params, arrays[len(shapes):]))
        self.grad_spans = dict(zip(params, spans[len(shapes):]))
        self.worker = _Worker({"train": self._serve_lane, "predict": self.val_hits})

    def _lane(self, indices: list[int]):
        """One lane of a batch: its per-graph parts and the gradients it
        added, by parameter name, taken off the parameters."""
        parts = _run_lane(self.model, [self.graphs[i] for i in indices],
                          self.class_count, self.config)
        return parts, _take_grads(self.model.params)

    def _serve_lane(self, indices: list[int]):
        """Lane 1 of a batch, in the worker: its per-graph parts and the
        names of the parameters it reached, whose gradients it leaves in the
        shared buffers."""
        parts, grads = self._lane(indices)
        for name, grad in grads.items():
            self.shared_grads[name][...] = grad
        return parts, list(grads)

    def run(self, batch: np.ndarray):
        """The parts of every graph in batch order, leaving lane 0's gradient
        sum plus lane 1's on the parameters, or None when a lane met a
        non-finite loss; the first error in lane order is raised."""
        try:
            positions, results = _in_lanes(self.graphs, [int(i) for i in batch],
                                           self._lane, self.worker, "train")
        except _NonFinite:
            return None
        (_, grads), (_, more) = results
        if self.worker is not None:
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
            if self.worker is not None:
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
        graphs = self.val_graphs
        log.debug("evaluating %d graphs: lane 1 runs %s: %s", len(graphs),
                  "in-process" if self.worker is None else "in the training worker",
                  self.reason)
        _, hits = _in_lanes(graphs, range(len(graphs)), self.val_hits, self.worker, "predict")
        return sum(hits) / len(graphs)

    def close(self) -> None:
        """End the worker, if any. The parameters stay in the shared mapping
        until ``load_state`` replaces them, as ``train`` does on return."""
        if self.worker is not None:
            self.worker.close()
            self.worker = None


def evaluate_accuracy(model: CrossScaleModel, dataset: GraphDataset) -> float:
    """Share of graphs whose ``predict`` (no tape) matches the label.

    The graphs split into two lanes through ``_in_lanes`` and the lanes'
    integer hit counts add, so the share is the same wherever each lane
    runs. Lane 1 runs in a process forked for this call when ``worker_plan``
    allows it, after every graph's operands are built and kept here
    (``_build_operands``), so that process builds none.
    """
    graphs = dataset.graphs
    forked, reason = worker_plan(len(graphs))
    log.debug("evaluating %d graphs: lane 1 runs %s: %s", len(graphs),
              "in a process forked for this pass" if forked else "in-process", reason)
    if forked:
        _build_operands(model, graphs)
    count = partial(_hits, model, graphs)
    with _Worker({"predict": count}) if forked else nullcontext() as worker:
        _, hits = _in_lanes(graphs, range(len(graphs)), count, worker, "predict")
    return sum(hits) / len(graphs)


def _log_epoch(record: EpochRecord, norms: list[float], clip: float | None,
               lane_s: float, val_s: float) -> None:
    clipped = 0 if clip is None else sum(norm > clip for norm in norms)
    log.debug("epoch %d: l_epsilon %.6g, l_p %.6g, l_total %.6g; pre-clip gradient norm "
              "max %.4g, median %.4g; %d of %d steps clipped; lanes %.3f s, validation %.3f s",
              record.epoch, record.l_epsilon, record.l_p, record.l_total, max(norms),
              float(np.median(norms)), clipped, len(norms), lane_s, val_s)


def train(model: CrossScaleModel, train_set: GraphDataset, val_set: GraphDataset,
          config: TrainConfig) -> TrainOutcome:
    """Mini-batch training with best-validation parameter selection.

    The model is left holding the best-validation parameters on return. A
    non-finite loss or gradient marks the run diverged and stops training
    with a partial report instead of raising. Whether the run ends, diverges
    or raises, no parameter is left holding a gradient. Before a lane worker
    forks, the operands of every training and validation graph are built
    here (``_build_operands``, lane 1's missing wavelet operands in a builder
    forked for that).
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
    runner = _Lanes(model, train_set, val_set, config)
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
