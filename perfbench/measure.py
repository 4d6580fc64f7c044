"""One benchmark run of one workload: set-up, training, inference, checks.

A run generates the workload's corpus from the seed, exports it in the TU
text layout and hands the program only those files. It then measures:

* set-up: ``load_tu_dataset`` once, then per model ``split_dataset``,
  ``CrossScaleModel(...)`` and one warm ``evaluate_accuracy`` pass over the
  whole corpus, which fills the program's lazy caches;
* training rounds: per model, reset to the initial parameters and
  ``train`` for a fixed number of epochs;
* inference rounds: per model, ``evaluate_accuracy`` over the whole corpus.

Training rounds alternate with inference rounds until the measuring window
closes. Each throughput is the graphs of all its rounds over their summed
wall time, which is steadier than a median over a handful of rounds when
the host's speed drifts within a run. A run of fixed work
(``rounds=k``: one set-up, then k training rounds each followed by one
inference round) serves the traced run and reference recording.

Every training run's per-epoch ``l_total``, every accuracy and the final
per-graph predictions are checked, against references recorded for the
seed when there are any, else against the run's own first observation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import tracer as tracing
import workloads
from wavepool import graphs, model, training
from wavepool.graphs import SplitSpec

INFER_PER_TRAIN = 1.0  # inference time per training round, as a share of it
L_TOTAL_RTOL = 1e-6  # admits float reassociation, not a changed computation
REFERENCES = Path(__file__).resolve().parent / "references.json"

# (metric, unit), reported by an untraced run in this order.
END_TO_END = (
    ("setup_s", "s"),
    ("train_graphs_per_s", "graphs/s"),
    ("infer_graphs_per_s", "graphs/s"),
    ("peak_rss_mb", "MB"),
)

# Every error type the package raises derives from one of these.
PROGRAM_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError)


def definition_digest(workload: workloads.Workload) -> str:
    """Fingerprint of everything that shapes a workload's outputs."""
    text = repr((workload.variant, workload.sizes, workload.model_seeds,
                 workload.stratified, workload.epochs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_references(workload: workloads.Workload, seed: int) -> dict | None:
    """Recorded outputs per model seed for this workload and seed, if any."""
    if not REFERENCES.is_file():
        return None
    data = json.loads(REFERENCES.read_text())
    entry = data.get("workloads", {}).get(workload.name)
    if entry is None:
        return None
    if entry["definition"] != definition_digest(workload):
        raise RuntimeError(f"{REFERENCES.name}: references for {workload.name} were "
                           "recorded for another workload definition; record them again")
    return entry["seeds"].get(str(seed))


@dataclass
class Accounting:
    """Operations attempted and failed: training steps, predictions, checks."""

    attempted: int = 0
    failed: int = 0
    checks: int = 0
    problems: list[str] = field(default_factory=list)

    def ops(self, count: int, failed: int = 0, problem: str = "") -> None:
        self.attempted += count
        self.failed += failed
        if failed and problem:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        self.checks += 1
        self.ops(1, 0 if ok else 1, problem)


class Expected:
    """Expected outputs of one model: recorded references, or else the first
    value observed in this run."""

    def __init__(self, label: str, recorded: dict | None):
        self.label = label
        self.recorded = dict(recorded or {})
        self.observed: dict = {}

    def check(self, acct: Accounting, key: str, value) -> None:
        if key in self.recorded:
            expected = self.recorded[key]
            if key == "l_total":
                ok = len(value) == len(expected) and bool(np.allclose(
                    value, expected, rtol=L_TOTAL_RTOL, atol=0.0))
            else:
                ok = value == expected
        elif key in self.observed:
            expected = self.observed[key]
            ok = value == expected  # same process, same inputs: bit-identical
        else:
            self.observed[key] = value
            return
        acct.check(ok, f"{self.label}: {key} {value!r} != expected {expected!r}")
        self.observed.setdefault(key, value)


@dataclass
class ModelRun:
    seed: int
    net: model.CrossScaleModel
    train_set: graphs.GraphDataset
    val_set: graphs.GraphDataset
    test_set: graphs.GraphDataset
    initial: dict
    expected: Expected


def set_up(workload: workloads.Workload, corpus_dir: Path):
    """Load the corpus and build and warm every model; returns (seconds,
    dataset, [(seed, model, splits, warm accuracy)])."""
    start = time.perf_counter()
    dataset = graphs.load_tu_dataset(corpus_dir)
    built = []
    for seed in workload.model_seeds:
        splits = graphs.split_dataset(
            dataset, SplitSpec(seed=seed, stratified=workload.stratified))
        config = model.ModelConfig(
            feature_dim=dataset.feature_dim, class_count=dataset.class_count,
            variant=workload.variant, n_max=int(dataset.sizes.max()))
        net = model.CrossScaleModel(config, seed=seed)
        warm_acc = training.evaluate_accuracy(net, dataset)
        built.append((seed, net, splits, warm_acc))
    return time.perf_counter() - start, dataset, built


def train_round(runs: list[ModelRun], epochs: int, acct: Accounting) -> tuple[int, float]:
    """Train every model once from its initial parameters; (graphs, seconds)."""
    done, seconds = 0, 0.0
    for run in runs:
        config = training.TrainConfig(epochs=epochs, seed=run.seed)
        steps = epochs * math.ceil(len(run.train_set) / config.batch_size)
        run.net.load_state(run.initial)
        start = time.perf_counter()
        try:
            outcome = training.train(run.net, run.train_set, run.val_set, config)
        except PROGRAM_ERRORS as exc:
            acct.ops(steps, steps, f"{run.expected.label}: train raised {exc!r}")
            continue
        elapsed = time.perf_counter() - start
        if outcome.report.diverged:
            acct.ops(steps, steps, f"{run.expected.label}: training diverged")
            continue
        acct.ops(steps)
        done += len(run.train_set) * epochs
        seconds += elapsed
        run.expected.check(acct, "l_total", [e.l_total for e in outcome.report.epochs])
        test_acc = predict_pass(run, run.test_set, acct)
        if test_acc is not None:
            run.expected.check(acct, "test_acc", test_acc)
    return done, seconds


def predict_pass(run: ModelRun, dataset, acct: Accounting) -> float | None:
    try:
        acc = training.evaluate_accuracy(run.net, dataset)
    except PROGRAM_ERRORS as exc:
        acct.ops(len(dataset), len(dataset), f"{run.expected.label}: forward raised {exc!r}")
        return None
    acct.ops(len(dataset))
    return acc


def infer_round(runs: list[ModelRun], dataset, acct: Accounting) -> tuple[int, float]:
    done, seconds = 0, 0.0
    for run in runs:
        start = time.perf_counter()
        acc = predict_pass(run, dataset, acct)
        elapsed = time.perf_counter() - start
        if acc is None:
            continue
        done += len(dataset)
        seconds += elapsed
        run.expected.check(acct, "corpus_acc", acc)
    return done, seconds


def check_predictions(runs: list[ModelRun], dataset, acct: Accounting) -> None:
    """Per-graph predictions of the trained models, and their accuracy."""
    labels = [g.label for g in dataset.graphs]
    for run in runs:
        try:
            preds = [run.net.predict(g) for g in dataset.graphs]
        except PROGRAM_ERRORS as exc:
            acct.ops(len(labels), len(labels), f"{run.expected.label}: forward raised {exc!r}")
            continue
        acct.ops(len(labels))
        run.expected.check(acct, "predictions", "".join(map(str, preds)))
        acc = sum(p == y for p, y in zip(preds, labels)) / len(labels)
        run.expected.check(acct, "corpus_acc", acc)


def _rate(rounds: list[tuple[int, float]]) -> float:
    """Graphs over seconds, summed over all rounds of the window."""
    seconds = sum(s for _, s in rounds)
    return sum(d for d, _ in rounds) / seconds if seconds > 0 else float("nan")


@dataclass
class RunResult:
    workload: str
    seed: int
    facts: dict
    setup_samples: list[float]
    train_rounds: list[tuple[int, float]]
    infer_rounds: list[tuple[int, float]]
    peak_rss_mb: float
    acct: Accounting
    reference: str
    observed: dict  # first value seen per check, by model seed
    tracer: tracing.Tracer | None = None
    trace_wall_s: float | None = None
    layer: dict | None = None

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_samples),
            "train_graphs_per_s": _rate(self.train_rounds),
            "infer_graphs_per_s": _rate(self.infer_rounds),
            "peak_rss_mb": self.peak_rss_mb,
        }


def run(workload: workloads.Workload, seed: int, seconds: float, corpus_dir: Path,
        rounds: int | None = None, trace: bool = False, extra_setups=None,
        references: dict | None = None) -> RunResult:
    """Measure ``workload`` on the corpus for ``seed``, exported to
    ``corpus_dir`` while the run lasts.

    ``extra_setups(corpus_dir)`` returns further cold set-up times measured
    elsewhere (in fresh processes). With ``trace``, the package's functions
    are wrapped from set-up to the end of inference; the final prediction
    check runs untraced.
    """
    dataset = workloads.generate(workload, seed)
    facts = workloads.corpus_facts(dataset, workload)
    workloads.export(dataset, corpus_dir)
    del dataset  # the program sees only the exported files

    tracer = tracing.Tracer() if trace else None
    try:
        setup_samples = list(extra_setups(corpus_dir)) if extra_setups else []
        if tracer is not None:
            tracer.start()
            trace_start = tracer.clock()
        try:
            with _phase(tracer, "bench.setup"):
                setup_s, dataset, built = set_up(workload, corpus_dir)
            setup_samples.append(setup_s)
            runs, acct = _model_runs(workload, seed, dataset, built, references)
            dct_before = tracing.dct_cache_counts()
            train_rounds, infer_rounds = _measure(workload, seconds, rounds, tracer,
                                                  runs, dataset, acct)
            dct_after = tracing.dct_cache_counts()
        finally:
            if tracer is not None:
                tracer.stop()
                trace_wall_s = tracer.clock() - trace_start
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)

    layer = None
    if tracer is not None:
        delta = None
        if dct_before is not None and dct_after is not None:
            delta = (dct_after[0] - dct_before[0], dct_after[1] - dct_before[1])
        layer = tracing.layer_metrics(tracer, delta)

    check_predictions(runs, dataset, acct)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return RunResult(
        workload=workload.name, seed=seed, facts=facts,
        setup_samples=setup_samples, train_rounds=train_rounds, infer_rounds=infer_rounds,
        peak_rss_mb=peak_rss_mb, acct=acct,
        reference="recorded" if references else "none recorded for this seed",
        observed={str(r.seed): dict(r.expected.observed) for r in runs},
        tracer=tracer, trace_wall_s=trace_wall_s if tracer is not None else None,
        layer=layer,
    )


def _phase(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _model_runs(workload, seed, dataset, built, references):
    acct = Accounting()
    runs = []
    for model_seed, net, (train_set, val_set, test_set), warm_acc in built:
        label = f"{workload.name}/seed{seed}/model{model_seed}"
        recorded = (references or {}).get(str(model_seed))
        run_ = ModelRun(model_seed, net, train_set, val_set, test_set, net.state(),
                        Expected(label, recorded))
        acct.ops(len(dataset))
        run_.expected.check(acct, "warm_acc", warm_acc)
        runs.append(run_)
    return runs, acct


def _measure(workload, seconds, rounds, tracer, runs, dataset, acct):
    """Alternate one training round with inference rounds of about the same
    length until the window closes, so that both metrics sample all of it;
    or, with ``rounds``, do exactly that many training rounds."""
    window_start = time.perf_counter()
    train_rounds: list[tuple[int, float]] = []
    infer_rounds: list[tuple[int, float]] = []
    while True:
        with _phase(tracer, "bench.train"):
            train_rounds.append(train_round(runs, workload.epochs, acct))
        infer_s = 0.0
        with _phase(tracer, "bench.infer"):
            while True:
                infer_rounds.append(infer_round(runs, dataset, acct))
                infer_s += infer_rounds[-1][1]
                if rounds is not None or infer_s >= INFER_PER_TRAIN * train_rounds[-1][1]:
                    break
        if rounds is not None:
            if len(train_rounds) >= rounds:
                return train_rounds, infer_rounds
        elif time.perf_counter() - window_start >= seconds:
            return train_rounds, infer_rounds
