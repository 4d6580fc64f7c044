"""One training or evaluation scenario in a fresh process, for the lane tests.

    python -m tests.lane_runs SCENARIO [ARGS]

The caller removes the BLAS thread variables from the environment, so the
process starts with OpenBLAS's default thread count and the lanes set one
thread themselves, or sets them to start pinned. The last line of standard
output is one JSON object. Scenarios:

* ``train CPUS``: train two variants; with CPUS 1 the process first pins
  itself to one CPU, so lane 1 runs in-process. Reports each run's CSV,
  best epoch, the digests of its best state and final parameters, the
  gradient norms ``Optimizer.step`` returned and where each validation
  pass ran lane 1 (from the DEBUG log).
* ``agree CPUS``: as ``train``, on a corpus of 20 to 200 nodes, where one
  BLAS thread and two give different last bits; also reports the largest
  training graph's node count.
* ``late-pin CPUS``: sets ``OPENBLAS_NUM_THREADS=1`` after NumPy has
  loaded, then trains; reports the largest OpenBLAS thread count that the
  forward passes read through the library, in this process (lane 0) and in
  the processes it forked (lane 1), and the count before and after
  ``train``.
* ``error LANES [NAN_LANES] CPUS``: a forward pass raises
  ``NumericError("boom in lane K")`` on one graph of the first batch in
  each lane K of LANES ("0", "1" or "01"), and one graph of the first batch
  in each lane of NAN_LANES gets a NaN loss. Reports the error that reached
  the caller.
* ``diverge LANE [ERROR_LANES] CPUS``: one graph of the first batch in lane
  LANE gets a NaN loss, and a forward pass raises on one in each lane of
  ERROR_LANES. Reports whether the run diverged and how many steps it took.
* ``die CPUS``: every forward pass in a forked process ends that process
  with ``os._exit``; trains, then evaluates the 1-to-30-node corpus, and
  reports the error that reached each caller.
* ``cut CPUS``: lane 1 of an operand build, a training batch and an
  evaluation pass replies with an array larger than a pipe holds, and
  SIGALRM ends its process while it waits to write the rest; lane 0 waits
  for that, so the reply arrives cut short. Reports the error that reached
  each caller.
* ``collect CPUS``: trains with the garbage collector off, and reports
  whether the model's lane worker, and where lane 1 forks its shared
  mapping, are still alive once ``train`` returns, and once the model is
  dropped.
* ``evaluate CPUS``: ``evaluate_accuracy`` of all four variants on a corpus
  of 1 to 30 nodes, next to the hits ``predict`` counts one graph at a time,
  in total and over lane 1 alone.
* ``evaluate-error LANES CPUS``: as ``error``, for one evaluation pass over
  that corpus. Also reports whether the error carries the worker's
  traceback as a note.
* ``rebuild CPUS``: two evaluation passes of a wavelet model; reports how
  many wavelet bases each pass built in this process and in the processes
  it forked, and how many processes each operand build forked, one entry
  per build.
* ``build CPUS``: builds the operands of the 1-to-30-node corpus for all
  four variants, and reports per variant whether every wavelet operand and
  every logit equals an in-process build bit for bit, whether the operands
  are read-only, how many bases forked processes built, how many DCT
  matrices the build made here and in forked processes, and how many the
  forward passes after it made. Then, for each
  of "1", "0" and "01", a wavelet build that raises ``NumericError("boom in
  lane K")`` on one graph of each lane K reports the error that arrived.
* ``kill CPUS``: trains twice, and SIGKILLs the idle training worker once
  after the first batch and once before the first validation pass; reports
  the error that reached each caller.
* ``drop CPUS``: with the garbage collector off, two models evaluate the
  1-to-30-node corpus, each forking a worker; drops the first and reports
  whether its worker was reaped at once, which workers are left, and
  whether the other model's next pass gives the same accuracy without a
  fork.
* ``idle-kill CPUS``: trains, SIGKILLs the idle worker, evaluates (and
  reports the error that arrived), then trains again; reports whether that
  last run's CSV, states and accuracy equal a run without the kill, and how
  many processes each last run forked.
* ``bench-loop CPUS``: sets up two models as the benchmark does (one warm
  pass over the corpus each), then twice trains each on its training and
  validation splits and evaluates its test split, and evaluates the corpus
  with both; reports the numbers and how many processes the loop forked.
* ``handlers CPUS``: builds the operands of the training and validation
  graphs, then trains one epoch; reports how many times each kind of lane-1
  handler ran, in this process and in the processes it forked.
* ``retire CPUS``: evaluates the 1-to-30-node corpus, then evaluates it
  again with a forward pass that raises ``NumericError("boom in lane 0")``
  on a graph of lane 0, then once more as at first; reports the error that
  arrived, whether the first worker was reaped, how many processes the last
  pass forked and whether it gave the first pass's accuracy.
* ``orphan``: builds the operands, then trains; prints the lane worker's
  pid, then hangs in lane 0 until killed.

Every scenario but ``orphan`` also reports whether a child process is left.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import logging
import mmap
import os
import signal
import sys
import time
import weakref

import numpy as np

from wavepool import model as model_module
from wavepool import lanes, training
from wavepool.errors import NumericError
from wavepool.graphs import Graph, GraphDataset, SplitSpec, degree_onehot_features, split_dataset
from wavepool.model import VARIANTS, CrossScaleModel, ModelConfig
from wavepool.spectral import cosine_transform
from wavepool.synth import build_msg, three_class_config

BATCH = 8


def digest(tensors: dict) -> str:
    return hashlib.sha256(b"".join(tensors[name].tobytes() for name in sorted(tensors))).hexdigest()


def children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def corpus():
    return build_msg(three_class_config(per_class=8, size_range=(8, 30), seed=0))


def large_corpus():
    return build_msg(three_class_config(per_class=8, size_range=(20, 200), seed=0))


def model_for(variant: str, feature_dim: int, n_max: int = 30) -> CrossScaleModel:
    config = ModelConfig(feature_dim=feature_dim, class_count=3, variant=variant,
                         n_max=n_max, m_out=2, scales=(1.0, 2.0), order=6)
    return CrossScaleModel(config, seed=0)


def setup(variant: str = "wavelet_spectral", dataset=None, n_max: int = 30):
    dataset = corpus() if dataset is None else dataset
    train_set, val_set, _ = split_dataset(dataset, SplitSpec(seed=0))
    return model_for(variant, dataset.feature_dim, n_max), train_set, val_set


def mixed_corpus() -> GraphDataset:
    """The corpus plus a path of 3 nodes, an edge and an isolated node, which
    take the model's small-graph branches (m_out is 2)."""
    dataset = corpus()
    small = []
    for n in (3, 2, 1):
        adjacency = np.eye(n, k=1) + np.eye(n, k=-1)
        small.append(Graph(adjacency, degree_onehot_features(adjacency), n % 3))
    return GraphDataset(dataset.graphs + tuple(small), 3, dataset.feature_dim)


def pass_lanes(dataset) -> tuple[list[int], list[int]]:
    return lanes.lanes([g.node_count for g in dataset.graphs])


class Where(logging.Handler):
    """Collects where each evaluation pass ran lane 1, from the DEBUG log."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.places: list[str] = []
        log = logging.getLogger("wavepool.training")
        log.setLevel(logging.DEBUG)
        log.addHandler(self)

    def emit(self, record):
        if record.msg.startswith("evaluating"):
            self.places.append(record.args[1])


def first_batch_targets(train_set, lanes_wanted: str) -> dict[int, int]:
    """id of one graph of the unshuffled first batch per wanted lane -> lane."""
    batch = train_set.graphs[:BATCH]
    positions = lanes.lanes([g.node_count for g in batch])
    return {id(batch[positions[int(k)][-1]]): int(k) for k in lanes_wanted}


def count_steps() -> list[float]:
    norms: list[float] = []
    step = training.Optimizer.step

    def counted(self, params, batch_size):
        norms.append(step(self, params, batch_size))
        return norms[-1]

    training.Optimizer.step = counted
    return norms


def run_train(dataset=None, n_max: int = 30) -> dict:
    norms = count_steps()
    where = Where()
    runs = {}
    for variant in ("gcn_diffpool", "wavelet_spectral"):
        model, train_set, val_set = setup(variant, dataset, n_max)
        start = len(norms)
        outcome = training.train(model, train_set, val_set,
                                 training.TrainConfig(epochs=3, batch_size=BATCH, seed=1))
        runs[variant] = {
            "csv": outcome.report.to_csv(),
            "best_epoch": outcome.report.best_epoch,
            "best_state": digest(outcome.best_state),
            "params": digest(model.state()),
            "norms": [float(n).hex() for n in norms[start:]],
        }
    return {"runs": runs, "validation": where.places,
            "largest": max(g.node_count for g in train_set.graphs)}


def run_late_pin() -> dict:
    get_count = lanes._blas_control()[0][0]
    seen = np.frombuffer(mmap.mmap(-1, 16), np.int64)  # shared with the forked lanes
    parent = os.getpid()
    forward = CrossScaleModel.forward

    def reading(self, graph):
        lane = int(os.getpid() != parent)
        seen[lane] = max(seen[lane], get_count())
        return forward(self, graph)

    CrossScaleModel.forward = reading
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    model, train_set, val_set = setup()
    before = get_count()
    training.train(model, train_set, val_set, training.TrainConfig(epochs=1, batch_size=BATCH))
    return {"lanes": seen.tolist(), "before": before, "after": get_count()}


def run_evaluate() -> dict:
    dataset = mixed_corpus()
    second = pass_lanes(dataset)[1]
    where = Where()
    runs = {}
    for variant in VARIANTS:
        model = model_for(variant, dataset.feature_dim)
        runs[variant] = {
            "accuracy": training.evaluate_accuracy(model, dataset),
            "hits": sum(model.predict(g) == g.label for g in dataset.graphs),
            "lane_1_hits": sum(model.predict(dataset.graphs[i]) == dataset.graphs[i].label
                               for i in second),
        }
    return {"runs": runs, "graphs": len(dataset), "where": where.places}


def run_evaluate_error(lanes_wanted: str) -> dict:
    dataset = mixed_corpus()
    # the first graph of lane 0 precedes the last of lane 1 in the corpus,
    # so one graph at a time meets lane 0's target first as well
    first, second = pass_lanes(dataset)
    chosen = {0: dataset.graphs[first[0]], 1: dataset.graphs[second[-1]]}
    targets = {id(chosen[int(k)]): int(k) for k in lanes_wanted}
    forward = CrossScaleModel.forward

    def failing(self, graph):
        if id(graph) in targets:
            raise NumericError(f"boom in lane {targets[id(graph)]}")
        return forward(self, graph)

    CrossScaleModel.forward = failing
    try:
        training.evaluate_accuracy(model_for("wavelet_spectral", dataset.feature_dim), dataset)
    except Exception as exc:  # noqa: BLE001 - the scenario reports what arrived
        notes = getattr(exc, "__notes__", [])
        return {"error": type(exc).__name__, "message": str(exc),
                "worker_note": any("raised in the lane worker" in n for n in notes)}
    return {"error": None}


def counting(build):
    """``build`` wrapped to count its calls, at [0] in this process and at
    [1] in the processes it forks, in a mapping they share; returns the
    counter and the wrapper."""
    counter = np.frombuffer(mmap.mmap(-1, 16), np.int64)
    parent = os.getpid()

    def counted(*args, **kwargs):
        counter[int(os.getpid() != parent)] += 1
        return build(*args, **kwargs)

    return counter, counted


def count_builds() -> np.ndarray:
    """Counts wavelet bases built, as ``counting`` does."""
    counter, model_module.wavelet_bases = counting(model_module.wavelet_bases)
    return counter


def count_dcts():
    """Counts DCT matrices built, as ``counting`` does, behind a cache of
    their own for the model and the operand build; returns the counter and
    the function that empties that cache."""
    counter, counted = counting(cosine_transform.__wrapped__)
    cached = functools.cache(counted)
    model_module.cosine_transform = training.cosine_transform = cached
    return counter, cached.cache_clear


def count_forks() -> list[int]:
    """How many processes this process forks from now on, at [0]."""
    forks, fork = [0], os.fork

    def counting_fork():
        pid = fork()
        forks[0] += pid != 0
        return pid

    os.fork = counting_fork
    return forks


def count_build_forks() -> list[int]:
    """How many processes each later operand build forks, one entry per
    ``_build_operands`` call."""
    forks, calls = count_forks(), []
    build = training._build_operands

    def counting_build(*args):
        before = forks[0]
        try:
            build(*args)
        finally:
            calls.append(forks[0] - before)

    training._build_operands = counting_build
    return calls


def count_handlers() -> dict:
    """Counts each kind's lane-1 handler calls from now on, as ``counting``
    does, one counter per kind."""
    counters = {kind: np.frombuffer(mmap.mmap(-1, 16), np.int64)
                for kind in ("build", "train", "predict")}
    parent, init = os.getpid(), lanes.Lanes.__init__

    def counted(kind, handler, *args):
        counters[kind][int(os.getpid() != parent)] += 1
        return handler(*args)

    def recording(self, count, handlers):
        init(self, count, {kind: functools.partial(counted, kind, handler)
                           for kind, handler in handlers.items()})

    lanes.Lanes.__init__ = recording
    return counters


def run_handlers() -> dict:
    counters = count_handlers()
    model, train_set, val_set = setup()
    training._build_operands(model, train_set.graphs + val_set.graphs)
    training.train(model, train_set, val_set, training.TrainConfig(epochs=1, batch_size=BATCH))
    return {kind: counter.tolist() for kind, counter in counters.items()}


def run_retire() -> dict:
    dataset = mixed_corpus()
    model = model_for("wavelet_spectral", dataset.feature_dim)
    first = training.evaluate_accuracy(model, dataset)
    pid = training._WORKERS[model].lanes.pid
    target = dataset.graphs[pass_lanes(dataset)[0][0]]
    forward = CrossScaleModel.forward

    def failing(self, graph):
        if graph is target:
            raise NumericError("boom in lane 0")
        return forward(self, graph)

    CrossScaleModel.forward = failing
    error = arrivals({"evaluate": lambda: training.evaluate_accuracy(model, dataset)})
    CrossScaleModel.forward = forward
    forks = count_forks()
    last = training.evaluate_accuracy(model, dataset)
    return {"error": error["errors"]["evaluate"], "reaped": reaped(pid), "forks": forks[0],
            "same": last == first}


def run_rebuild() -> dict:
    dataset = mixed_corpus()
    model = model_for("wavelet_spectral", dataset.feature_dim)
    counter = count_builds()
    build_forks = count_build_forks()
    builds = []
    for _ in range(2):
        before = counter.copy()
        training.evaluate_accuracy(model, dataset)
        builds.append((counter - before).tolist())
    return {"builds": builds, "build_forks": build_forks, "graphs": len(dataset),
            "lane_1": len(pass_lanes(dataset)[1])}


def operand_arrays(model: CrossScaleModel, graph: Graph) -> list[np.ndarray]:
    wavelets = model.inputs_for(graph).wavelets
    return [] if wavelets is None else list(wavelets)


def run_build() -> dict:
    counter = count_builds()
    dcts, clear_dcts = count_dcts()
    variants = {}
    for variant in VARIANTS:
        dataset, twins = mixed_corpus(), mixed_corpus()
        model = model_for(variant, dataset.feature_dim)
        before = counter.copy()
        clear_dcts()
        dcts_before = dcts.copy()
        training._build_operands(model, dataset.graphs)
        built_dcts = dcts - dcts_before
        equal = read_only = True
        for graph, twin in zip(dataset.graphs, twins.graphs):  # twins build here, lazily
            ours, theirs = operand_arrays(model, graph), operand_arrays(model, twin)
            equal &= len(ours) == len(theirs) and all(
                np.array_equal(a, b) for a, b in zip(ours, theirs))
            read_only &= not any(a.flags.writeable for a in ours)
            equal &= (model.forward(graph).logits.value.tobytes()
                      == model.forward(twin).logits.value.tobytes())
        variants[variant] = {"equal": equal, "read_only": read_only,
                             "forked_builds": int(counter[1] - before[1]),
                             "dcts": built_dcts.tolist(),
                             "forward_dcts": int(dcts[0] - dcts_before[0] - built_dcts[0])}
    errors = {}
    operand = CrossScaleModel.wavelet_operand
    for lanes_wanted in ("1", "0", "01"):
        dataset = mixed_corpus()
        first, second = pass_lanes(dataset)  # lane 0's graph comes first, as in evaluate-error
        chosen = {0: dataset.graphs[first[0]], 1: dataset.graphs[second[-1]]}
        targets = {id(chosen[int(k)]): int(k) for k in lanes_wanted}

        def failing(self, graph, targets=targets):
            if id(graph) in targets:
                raise NumericError(f"boom in lane {targets[id(graph)]}")
            return operand(self, graph)

        CrossScaleModel.wavelet_operand = failing
        try:
            training._build_operands(model_for("wavelet_spectral", dataset.feature_dim),
                                     dataset.graphs)
            errors[lanes_wanted] = {"error": None}
        except Exception as exc:  # noqa: BLE001 - the scenario reports what arrived
            notes = getattr(exc, "__notes__", [])
            errors[lanes_wanted] = {
                "error": type(exc).__name__, "message": str(exc),
                "worker_note": any("raised in the lane worker" in n for n in notes)}
        finally:
            CrossScaleModel.wavelet_operand = operand
    return {"variants": variants, "errors": errors, "lane_1": len(pass_lanes(mixed_corpus())[1])}


def poison(train_set, error_lanes: str, nan_lanes: str) -> None:
    """A forward pass raises ``NumericError("boom in lane K")`` on one graph
    of the unshuffled first batch in each lane K of ``error_lanes``, and one
    graph in each lane of ``nan_lanes`` gets a NaN loss."""
    failing = first_batch_targets(train_set, error_lanes)
    nan = first_batch_targets(train_set, nan_lanes)
    current = {}
    forward, graph_loss = CrossScaleModel.forward, training.graph_loss

    def tracking(self, graph):
        if id(graph) in failing:
            raise NumericError(f"boom in lane {failing[id(graph)]}")
        current["graph"] = graph
        return forward(self, graph)

    def poisoned(result, *args, **kwargs):
        loss, parts = graph_loss(result, *args, **kwargs)
        if id(current["graph"]) in nan:
            parts = dataclasses.replace(parts, total=float("nan"))
        return loss, parts

    CrossScaleModel.forward = tracking
    training.graph_loss = poisoned


def run_error(lanes_wanted: str, nan_lanes: str = "") -> dict:
    model, train_set, val_set = setup()
    poison(train_set, lanes_wanted, nan_lanes)
    try:
        training.train(model, train_set, val_set,
                       training.TrainConfig(epochs=1, batch_size=BATCH, shuffle=False))
    except Exception as exc:  # noqa: BLE001 - the scenario reports what arrived
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"error": None}


def run_diverge(lane: str, error_lanes: str = "") -> dict:
    model, train_set, val_set = setup()
    initial = digest(model.state())
    poison(train_set, error_lanes, lane)
    norms = count_steps()
    outcome = training.train(model, train_set, val_set,
                             training.TrainConfig(epochs=2, batch_size=BATCH, shuffle=False))
    return {"diverged": outcome.report.diverged, "epochs": len(outcome.report.epochs),
            "steps": len(norms), "unchanged": digest(model.state()) == initial}


def run_die() -> dict:
    parent = os.getpid()
    forward = CrossScaleModel.forward

    def dying(self, graph):
        if os.getpid() != parent:
            os._exit(3)
        return forward(self, graph)

    CrossScaleModel.forward = dying
    model, train_set, val_set = setup()
    dataset = mixed_corpus()
    return arrivals({
        "train": lambda: training.train(model, train_set, val_set,
                                        training.TrainConfig(epochs=1, batch_size=BATCH)),
        "evaluate": lambda: training.evaluate_accuracy(
            model_for("wavelet_spectral", dataset.feature_dim), dataset),
    })


def arrivals(calls: dict) -> dict:
    """The error, as [type, message], that each call raised, or None."""
    errors = {}
    for name, call in calls.items():
        try:
            call()
            errors[name] = None
        except Exception as exc:  # noqa: BLE001 - the scenario reports what arrived
            errors[name] = [type(exc).__name__, str(exc)]
    return {"errors": errors}


def cut_in_child(function):
    """``function``, but in a forked process it returns a value shaped as
    ``_run_lane``'s that holds 1 MB, and SIGALRM ends the process 0.1 s
    later; here it first waits until a child process has exited."""
    parent = os.getpid()

    def cutting(*args, **kwargs):
        if os.getpid() != parent:
            signal.setitimer(signal.ITIMER_REAL, 0.1)
            return [np.zeros(1 << 17)], {}
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        return function(*args, **kwargs)

    return cutting


def run_cut() -> dict:
    training._hits = cut_in_child(training._hits)
    training._run_lane = cut_in_child(training._run_lane)
    CrossScaleModel.wavelet_operand = cut_in_child(CrossScaleModel.wavelet_operand)
    # a GCN model forks no builder, so its batches and passes reach their own worker
    model, train_set, val_set = setup("gcn_diffpool")
    dataset = mixed_corpus()
    return arrivals({
        "build": lambda: training._build_operands(
            model_for("wavelet_spectral", dataset.feature_dim), dataset.graphs),
        "train": lambda: training.train(model, train_set, val_set,
                                        training.TrainConfig(epochs=1, batch_size=BATCH)),
        "evaluate": lambda: training.evaluate_accuracy(
            model_for("gcn_diffpool", dataset.feature_dim), dataset),
    })


def run_collect() -> dict:
    gc.disable()
    refs = []
    init = training._LaneWorker.__init__

    def recording(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))
        if self.lanes.forked:
            refs.append(weakref.ref(self.mapping))

    training._LaneWorker.__init__ = recording
    model, train_set, val_set = setup()
    training.train(model, train_set, val_set, training.TrainConfig(epochs=1, batch_size=BATCH))
    held = [ref() is not None for ref in refs]
    del model
    return {"held": held, "alive": [ref() is not None for ref in refs]}


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def run_drop() -> dict:
    gc.disable()
    signal.alarm(60)  # a drop that waits on a worker that never sees EOF ends the run
    dataset = mixed_corpus()
    models = [model_for(variant, dataset.feature_dim) for variant in ("wavelet_spectral",
                                                                      "gcn_diffpool")]
    first = [training.evaluate_accuracy(model, dataset) for model in models]
    pids = [training._WORKERS[model].lanes.pid for model in models]
    live = len(lanes._LIVE)
    del models[0]
    result = {"workers": live, "reaped": [reaped(pid) for pid in pids],
              "left": sorted(worker.pid for worker in lanes._LIVE) == pids[1:]}
    forks = count_forks()
    result["same"] = training.evaluate_accuracy(models[0], dataset) == first[1]
    result["forks"] = forks[0]
    signal.alarm(0)
    return result


def run_idle_kill() -> dict:
    config = training.TrainConfig(epochs=2, batch_size=BATCH, seed=1)
    forks = count_forks()
    runs, errors, forked = [], [], []
    for kill in (True, False):
        model, train_set, val_set = setup()
        training.train(model, train_set, val_set, config)
        if kill:
            kill_idle(training._WORKERS[model].lanes.pid)
            errors.append(arrivals({"evaluate": lambda: training.evaluate_accuracy(
                model, train_set)})["errors"]["evaluate"])
        before = forks[0]
        outcome = training.train(model, train_set, val_set, config)
        forked.append(forks[0] - before)
        runs.append({"csv": outcome.report.to_csv(), "best_state": digest(outcome.best_state),
                     "params": digest(model.state()),
                     "accuracy": training.evaluate_accuracy(model, val_set)})
    return {"errors": errors, "same": runs[0] == runs[1], "forks": forked}


def run_bench_loop() -> dict:
    dataset = corpus()
    runs = []
    for seed, variant in enumerate(("wavelet_spectral", "gcn_diffpool")):
        splits = split_dataset(dataset, SplitSpec(seed=seed))
        model = model_for(variant, dataset.feature_dim)
        training.evaluate_accuracy(model, dataset)  # the set-up's warm pass
        runs.append((seed, model, splits, model.state()))
    forks = count_forks()
    results = []
    for _ in range(2):
        for seed, model, (train_set, val_set, test_set), initial in runs:
            model.load_state(initial)
            outcome = training.train(model, train_set, val_set, training.TrainConfig(
                epochs=2, batch_size=BATCH, seed=seed))
            results.append([outcome.report.to_csv(), digest(model.state()),
                            training.evaluate_accuracy(model, test_set)])
        results.append([training.evaluate_accuracy(model, dataset) for _, model, _, _ in runs])
    return {"forks": forks[0], "results": results}


def kill_idle(pid: int) -> None:
    """SIGKILL a worker that waits on its pipe, and wait until it is dead,
    leaving it for its owner to reap."""
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


def run_kill() -> dict:
    workers = []
    fork, step = lanes.Lanes.fork, training.Optimizer.step

    def recording(self, *args):
        fork(self, *args)
        workers.append(self.pid)  # the last one forked is the training worker

    lanes.Lanes.fork = recording
    errors = {}
    # the 19 training graphs make three batches an epoch, so the request after
    # step 3 is the first validation pass
    for name, steps in (("batch", 1), ("validation", 3)):
        def killing(self, params, batch_size, steps=steps):
            norm = step(self, params, batch_size)
            if self.step_count == steps:
                kill_idle(workers[-1])
            return norm

        training.Optimizer.step = killing
        model, train_set, val_set = setup()
        try:
            training.train(model, train_set, val_set,
                           training.TrainConfig(epochs=2, batch_size=BATCH))
            errors[name] = None
        except Exception as exc:  # noqa: BLE001 - the scenario reports what arrived
            errors[name] = [type(exc).__name__, str(exc)]
    return {"errors": errors}


def run_orphan() -> None:
    model, train_set, val_set = setup()
    # with every operand built, the first process ``train`` forks is the worker
    training._build_operands(model, train_set.graphs + val_set.graphs)
    parent = os.getpid()
    fork, forward = os.fork, CrossScaleModel.forward

    def reporting_fork():
        pid = fork()
        if pid:
            print(pid, flush=True)
        return pid

    def hanging(self, graph):
        if os.getpid() == parent:
            time.sleep(600)
        return forward(self, graph)

    os.fork = reporting_fork
    CrossScaleModel.forward = hanging
    training.train(model, train_set, val_set, training.TrainConfig(epochs=1, batch_size=BATCH))


def main(argv: list[str]) -> None:
    scenario, *args = argv
    if args and args[-1] == "1":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if scenario == "orphan":
        run_orphan()
        return
    result = {"train": run_train, "agree": lambda: run_train(large_corpus(), 200),
              "late-pin": run_late_pin, "error": run_error, "diverge": run_diverge,
              "evaluate": run_evaluate, "evaluate-error": run_evaluate_error,
              "rebuild": run_rebuild, "build": run_build, "die": run_die,
              "cut": run_cut, "collect": run_collect, "kill": run_kill, "drop": run_drop,
              "idle-kill": run_idle_kill, "bench-loop": run_bench_loop,
              "handlers": run_handlers, "retire": run_retire}[scenario](*args[:-1])
    result["plan"] = lanes.worker_plan(BATCH)
    result["children_left"] = children_left()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
