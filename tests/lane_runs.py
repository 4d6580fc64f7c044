"""One training or evaluation scenario in a fresh process, for the lane tests.

    python -m tests.lane_runs SCENARIO [ARGS]

The caller sets the BLAS thread variables in the environment, so that the
process starts with the threads they ask for. The last line of standard
output is one JSON object. Scenarios:

* ``train CPUS``: train two variants; with CPUS 1 the process first pins
  itself to one CPU, so lane 1 runs in-process. Reports each run's CSV,
  best epoch, the digests of its best state and final parameters, the
  gradient norms ``Optimizer.step`` returned and where each validation
  pass ran lane 1 (from the DEBUG log).
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
* ``evaluate CPUS``: ``evaluate_accuracy`` of all four variants on a corpus
  of 1 to 30 nodes, next to the hits ``predict`` counts one graph at a time,
  in total and over lane 1 alone.
* ``evaluate-error LANES CPUS``: as ``error``, for one evaluation pass over
  that corpus. Also reports whether the error carries the worker's
  traceback as a note.
* ``rebuild CPUS``: two evaluation passes of a wavelet model; reports how
  many wavelet bases each pass built in this process and in the processes
  it forked, and how many processes each operand build forked.
* ``build CPUS``: builds the operands of the 1-to-30-node corpus for all
  four variants, and reports per variant whether every wavelet operand and
  every logit equals an in-process build bit for bit, whether the operands
  are read-only, and how many bases forked processes built. Then, for each
  of "1", "0" and "01", a wavelet build that raises ``NumericError("boom in
  lane K")`` on one graph of each lane K reports the error that arrived.
* ``orphan``: builds the operands, then trains; prints the lane worker's
  pid, then hangs in lane 0 until killed.

Every scenario but ``orphan`` also reports whether a child process is left.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import mmap
import os
import sys
import time

import numpy as np

from wavepool import model as model_module
from wavepool import training
from wavepool.errors import NumericError
from wavepool.graphs import Graph, GraphDataset, SplitSpec, degree_onehot_features, split_dataset
from wavepool.model import VARIANTS, CrossScaleModel, ModelConfig
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


def model_for(variant: str, feature_dim: int) -> CrossScaleModel:
    config = ModelConfig(feature_dim=feature_dim, class_count=3, variant=variant,
                         n_max=30, m_out=2, scales=(1.0, 2.0), order=6)
    return CrossScaleModel(config, seed=0)


def setup(variant: str = "wavelet_spectral"):
    dataset = corpus()
    train_set, val_set, _ = split_dataset(dataset, SplitSpec(seed=0))
    return model_for(variant, dataset.feature_dim), train_set, val_set


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
    return training.lanes([g.node_count for g in dataset.graphs])


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
    positions = training.lanes([g.node_count for g in batch])
    return {id(batch[positions[int(k)][-1]]): int(k) for k in lanes_wanted}


def count_steps() -> list[float]:
    norms: list[float] = []
    step = training.Optimizer.step

    def counted(self, params, batch_size):
        norms.append(step(self, params, batch_size))
        return norms[-1]

    training.Optimizer.step = counted
    return norms


def run_train() -> dict:
    norms = count_steps()
    where = Where()
    runs = {}
    for variant in ("gcn_diffpool", "wavelet_spectral"):
        model, train_set, val_set = setup(variant)
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
    return {"runs": runs, "validation": where.places}


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


def count_builds() -> np.ndarray:
    """Counts wavelet bases built, at [0] in this process and at [1] in the
    processes it forks, in a mapping they share."""
    counter = np.frombuffer(mmap.mmap(-1, 16), np.int64)
    parent, build = os.getpid(), model_module.wavelet_bases

    def counted(*args, **kwargs):
        counter[int(os.getpid() != parent)] += 1
        return build(*args, **kwargs)

    model_module.wavelet_bases = counted
    return counter


def count_build_forks() -> list[int]:
    """How many processes each later operand build forks, one entry per
    ``_build_operands`` call."""
    forks, calls = [0], []
    fork, build = os.fork, training._build_operands

    def counting_fork():
        pid = fork()
        forks[0] += pid != 0
        return pid

    def counting_build(*args):
        before = forks[0]
        try:
            build(*args)
        finally:
            calls.append(forks[0] - before)

    os.fork, training._build_operands = counting_fork, counting_build
    return calls


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
    variants = {}
    for variant in VARIANTS:
        dataset, twins = mixed_corpus(), mixed_corpus()
        model = model_for(variant, dataset.feature_dim)
        before = counter.copy()
        training._build_operands(model, dataset.graphs)
        equal = read_only = True
        for graph, twin in zip(dataset.graphs, twins.graphs):  # twins build here, lazily
            ours, theirs = operand_arrays(model, graph), operand_arrays(model, twin)
            equal &= len(ours) == len(theirs) and all(
                np.array_equal(a, b) for a, b in zip(ours, theirs))
            read_only &= not any(a.flags.writeable for a in ours)
            equal &= (model.forward(graph).logits.value.tobytes()
                      == model.forward(twin).logits.value.tobytes())
        variants[variant] = {"equal": equal, "read_only": read_only,
                             "forked_builds": int(counter[1] - before[1])}
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
    calls = {
        "train": lambda: training.train(model, train_set, val_set,
                                        training.TrainConfig(epochs=1, batch_size=BATCH)),
        "evaluate": lambda: training.evaluate_accuracy(
            model_for("wavelet_spectral", dataset.feature_dim), dataset),
    }
    errors = {}
    for name, call in calls.items():
        try:
            call()
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
    result = {"train": run_train, "error": run_error, "diverge": run_diverge,
              "evaluate": run_evaluate, "evaluate-error": run_evaluate_error,
              "rebuild": run_rebuild, "build": run_build, "die": run_die}[scenario](*args[:-1])
    result["plan"] = training.worker_plan(BATCH)
    result["children_left"] = children_left()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
