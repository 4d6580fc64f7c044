"""One training scenario in a fresh process, for the lane tests.

    python -m tests.lane_runs SCENARIO [ARGS]

The caller sets the BLAS thread variables in the environment, so that the
process starts with the threads they ask for. The last line of standard
output is one JSON object. Scenarios:

* ``train CPUS``: train two variants; with CPUS 1 the process first pins
  itself to one CPU, so lane 1 runs in-process. Reports each run's CSV, the
  digests of its best state and final parameters, and the gradient norms
  ``Optimizer.step`` returned.
* ``error LANES CPUS``: a forward pass raises ``NumericError("boom in lane
  K")`` on one graph of the first batch in each lane K of LANES ("0", "1"
  or "01"). Reports the error that reached the caller.
* ``diverge LANE CPUS``: one graph of the first batch in lane LANE gets a
  NaN loss. Reports whether the run diverged and how many steps it took.
* ``orphan``: prints the worker's pid, then hangs in lane 0 until killed.

Every scenario but ``orphan`` also reports whether a child process is left.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time

from wavepool import training
from wavepool.errors import NumericError
from wavepool.graphs import SplitSpec, split_dataset
from wavepool.model import CrossScaleModel, ModelConfig
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


def setup(variant: str = "wavelet_spectral"):
    dataset = build_msg(three_class_config(per_class=8, size_range=(8, 30), seed=0))
    train_set, val_set, _ = split_dataset(dataset, SplitSpec(seed=0))
    config = ModelConfig(feature_dim=dataset.feature_dim, class_count=3, variant=variant,
                         n_max=30, m_out=2, scales=(1.0, 2.0), order=6)
    return CrossScaleModel(config, seed=0), train_set, val_set


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
    runs = {}
    for variant in ("gcn_diffpool", "wavelet_spectral"):
        model, train_set, val_set = setup(variant)
        start = len(norms)
        outcome = training.train(model, train_set, val_set,
                                 training.TrainConfig(epochs=3, batch_size=BATCH, seed=1))
        runs[variant] = {
            "csv": outcome.report.to_csv(),
            "best_state": digest(outcome.best_state),
            "params": digest(model.state()),
            "norms": [float(n).hex() for n in norms[start:]],
        }
    return {"runs": runs}


def run_error(lanes_wanted: str) -> dict:
    model, train_set, val_set = setup()
    targets = first_batch_targets(train_set, lanes_wanted)
    forward = CrossScaleModel.forward

    def failing(self, graph):
        if id(graph) in targets:
            raise NumericError(f"boom in lane {targets[id(graph)]}")
        return forward(self, graph)

    CrossScaleModel.forward = failing
    try:
        training.train(model, train_set, val_set,
                       training.TrainConfig(epochs=1, batch_size=BATCH, shuffle=False))
    except Exception as exc:  # noqa: BLE001 - the scenario reports what arrived
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"error": None}


def run_diverge(lane: str) -> dict:
    model, train_set, val_set = setup()
    initial = digest(model.state())
    targets = first_batch_targets(train_set, lane)
    current = {}
    forward, graph_loss = CrossScaleModel.forward, training.graph_loss

    def tracking(self, graph):
        current["graph"] = graph
        return forward(self, graph)

    def poisoned(result, *args, **kwargs):
        loss, parts = graph_loss(result, *args, **kwargs)
        if id(current["graph"]) in targets:
            parts = dataclasses.replace(parts, total=float("nan"))
        return loss, parts

    CrossScaleModel.forward = tracking
    training.graph_loss = poisoned
    norms = count_steps()
    outcome = training.train(model, train_set, val_set,
                             training.TrainConfig(epochs=2, batch_size=BATCH, shuffle=False))
    return {"diverged": outcome.report.diverged, "epochs": len(outcome.report.epochs),
            "steps": len(norms), "unchanged": digest(model.state()) == initial}


def run_orphan() -> None:
    model, train_set, val_set = setup()
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
    result = {"train": run_train, "error": run_error, "diverge": run_diverge}[scenario](*args[:-1])
    result["plan"] = training.worker_plan(BATCH)
    result["children_left"] = children_left()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
