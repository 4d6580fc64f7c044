"""Span tracing of the package from outside it.

``Tracer`` replaces public functions of the package with wrappers that
record a span (name, start, end, parent) around each call, keeps the spans
in memory, and puts the originals back when stopped. A function imported
with ``from .x import y`` is looked up in the importing module, so it is
wrapped there (``wavepool.model.gwc_forward``, not
``wavepool.layers.gwc_forward``). Wrappers call straight through, so
cached functions keep their caches. A name that no longer exists is
recorded as absent instead of raising.

``layer_metrics`` turns the spans into the benchmark's per-layer metrics.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name), in the order the pipeline reaches them.
WRAPS = (
    ("wavepool.graphs", "load_tu_dataset", "graphs.load"),
    ("wavepool.graphs", "split_dataset", "graphs.split"),
    ("wavepool.model", "CrossScaleModel.forward", "model.forward"),
    ("wavepool.model", "normalized_laplacian", "spectral.laplacian"),
    ("wavepool.model", "wavelet_bases", "spectral.bases"),
    ("wavepool.spectral", "chebyshev_apply", "spectral.chebyshev"),
    ("wavepool.spectral", "pseudoinverse", "spectral.pinv"),
    ("wavepool.model", "cosine_transform", "spectral.dct"),
    ("wavepool.model", "gwc_forward", "layers.gwc"),
    ("wavepool.model", "gcn_forward", "layers.gcn"),
    ("wavepool.layers", "gcn_forward", "layers.gcn"),  # inside diffpool_assign
    ("wavepool.model", "spectral_pool_assign", "layers.pool_assign"),
    ("wavepool.model", "diffpool_assign", "layers.pool_assign"),
    ("wavepool.model", "pool_apply", "layers.pool_apply"),
    ("wavepool.autodiff", "backward", "autodiff.backward"),
    ("wavepool.training", "graph_loss", "training.loss"),
    ("wavepool.training", "Optimizer.step", "training.step"),
    ("wavepool.training", "evaluate_accuracy", "training.evaluate"),
    ("wavepool.training", "train", "training.train"),
)
VAR_CLASS = ("wavepool.autodiff", "Var")

# Benchmark phases whose spans the DCT metrics are restricted to: the cache
# has been filled by the set-up's warm pass before these start.
MEASURED_PHASES = ("bench.train", "bench.infer")

# (metric, unit), reported by a traced run in this order.
PER_LAYER = (
    ("graphs.load_s", "s"),
    ("spectral.bases_s", "s"),
    ("spectral.bases_calls", "count"),
    ("spectral.chebyshev_s", "s"),
    ("spectral.pinv_s", "s"),
    ("spectral.pinv_calls", "count"),
    ("spectral.laplacian_s", "s"),
    ("spectral.dct_s", "s"),
    ("spectral.dct_calls", "count"),
    ("spectral.dct_hit_ratio", "ratio"),
    ("model.forward_s", "s"),
    ("model.forward_calls", "count"),
    ("model.basis_hit_ratio", "ratio"),
    ("layers.gwc_s", "s"),
    ("layers.gcn_s", "s"),
    ("layers.pool_assign_s", "s"),
    ("layers.pool_apply_s", "s"),
    ("autodiff.backward_s", "s"),
    ("autodiff.vars_per_graph", "count"),
    ("training.loss_s", "s"),
    ("training.step_s", "s"),
    ("training.steps", "count"),
    ("training.val_s", "s"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute) for ``module.path``, or None if any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """In-memory span recorder; ``start`` installs the wrappers, ``stop``
    removes them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.vars_at_start: list[int] = []
        self.vars_at_end: list[int] = []
        self.var_count = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.vars_at_start.append(self.var_count)
        self.vars_at_end.append(self.var_count)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.vars_at_end[idx] = self.var_count
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield idx
        finally:
            self.exit(idx)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit(idx)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count_instances(self, cls) -> None:
        """Count objects of ``cls`` made while tracing, in ``var_count``."""
        original = cls.__init__
        tracer = self

        @functools.wraps(original)
        def counted(obj, *args, **kwargs):
            tracer.var_count += 1
            original(obj, *args, **kwargs)

        cls.__init__ = counted
        self._patches.append((cls, "__init__", original))

    def start(self, wraps=WRAPS) -> None:
        for module_name, path, name in wraps:
            target = _resolve(module_name, path)
            if target is None:
                self.absent.append(f"{module_name}.{path}")
            else:
                self.wrap(*target, name)
        target = _resolve(*VAR_CLASS)
        if target is None:
            self.absent.append(".".join(VAR_CLASS))
        else:
            self.count_instances(getattr(*target))

    def stop(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        durations = self.durations()
        own = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[idx]
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and summed self time."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, own in zip(self.names, self.self_times()):
            out[name]["calls"] += 1
            out[name]["self_s"] += own
        return dict(out)

    def ancestors(self, idx: int):
        parent = self.parents[idx]
        while parent >= 0:
            yield parent
            parent = self.parents[parent]

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


def layer_metrics(tracer: Tracer, dct_cache_delta: tuple[int, int] | None) -> dict[str, float]:
    """The PER_LAYER metrics from a finished trace.

    Times are self times summed over the whole traced run, except
    ``training.val_s`` (whole validation passes inside ``train``) and the
    ``spectral.dct_*`` metrics, which cover only the training and inference
    phases. ``dct_cache_delta`` is (hits, misses) of the DCT cache over
    those phases, or None when the program has no such cache. A layer that
    did not run reports 0.
    """
    totals = tracer.totals()

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return int(totals.get(name, {}).get("calls", 0))

    names = tracer.names
    in_phase = [False] * len(names)
    for idx in range(len(names)):
        in_phase[idx] = any(names[a] in MEASURED_PHASES for a in tracer.ancestors(idx))
    own = tracer.self_times()
    dct = [i for i, n in enumerate(names) if n == "spectral.dct" and in_phase[i]]

    val_s = 0.0
    train_forwards = 0
    train_vars = 0
    durations = tracer.durations()
    for idx, name in enumerate(names):
        if name == "training.evaluate" and tracer.parents[idx] >= 0 \
                and names[tracer.parents[idx]] == "training.train":
            val_s += durations[idx]
        if name not in ("model.forward", "training.loss"):
            continue
        up = [names[a] for a in tracer.ancestors(idx)]
        if "training.train" in up and "training.evaluate" not in up:
            train_vars += tracer.vars_at_end[idx] - tracer.vars_at_start[idx]
            train_forwards += name == "model.forward"

    forward_calls = calls("model.forward")
    bases_calls = calls("spectral.bases")
    if dct_cache_delta is not None and sum(dct_cache_delta) > 0:
        dct_hit_ratio = dct_cache_delta[0] / sum(dct_cache_delta)
    else:
        dct_hit_ratio = 0.0
    return {
        "graphs.load_s": self_s("graphs.load"),
        "spectral.bases_s": self_s("spectral.bases"),
        "spectral.bases_calls": bases_calls,
        "spectral.chebyshev_s": self_s("spectral.chebyshev"),
        "spectral.pinv_s": self_s("spectral.pinv"),
        "spectral.pinv_calls": calls("spectral.pinv"),
        "spectral.laplacian_s": self_s("spectral.laplacian"),
        "spectral.dct_s": sum(own[i] for i in dct),
        "spectral.dct_calls": len(dct),
        "spectral.dct_hit_ratio": dct_hit_ratio,
        "model.forward_s": self_s("model.forward"),
        "model.forward_calls": forward_calls,
        "model.basis_hit_ratio": (1.0 - bases_calls / forward_calls
                                  if bases_calls and forward_calls else 0.0),
        "layers.gwc_s": self_s("layers.gwc"),
        "layers.gcn_s": self_s("layers.gcn"),
        "layers.pool_assign_s": self_s("layers.pool_assign"),
        "layers.pool_apply_s": self_s("layers.pool_apply"),
        "autodiff.backward_s": self_s("autodiff.backward"),
        "autodiff.vars_per_graph": train_vars / train_forwards if train_forwards else 0.0,
        "training.loss_s": self_s("training.loss"),
        "training.step_s": self_s("training.step"),
        "training.steps": calls("training.step"),
        "training.val_s": val_s,
    }


def dct_cache_counts() -> tuple[int, int] | None:
    """(hits, misses) of the program's DCT cache, or None if it has none."""
    target = _resolve("wavepool.spectral", "cosine_transform")
    if target is None:
        return None
    info = getattr(getattr(*target), "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses
