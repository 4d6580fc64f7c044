"""Synthetic cross-scale benchmark: random-graph families and assembly.

Three model families (uniform random, ring-rewire small-world, preferential
attachment) plus optional empirical classes subsampled from TU-format
directories. Every graph gets its own derived seed, so builds are
deterministic regardless of generation order, and the assembled dataset
round-trips through the TU text export bit-for-bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolationError, FormatError, IngestionError
from .graphs import Graph, GraphDataset, degree_onehot_features, load_tu_dataset
from .settings import check_fields

FAMILIES = ("er", "ws", "ba", "empirical")
SIZE_MAX = 1000  # the largest graph a class generates


def _graph_from_adjacency(adj: np.ndarray, label: int, graph_id: str) -> Graph:
    return Graph(
        adjacency=adj,
        features=degree_onehot_features(adj),
        label=label,
        id=graph_id,
    )


def gen_er(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Each unordered pair is an edge independently with probability p."""
    if n < 1:
        raise ContractViolationError(f"need n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ContractViolationError(f"edge probability must lie in [0, 1], got {p}")
    adj = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    draws = rng.random(len(iu[0])) < p
    adj[iu] = draws.astype(float)
    return adj + adj.T


def gen_ws(n: int, k: int, p_rewire: float, rng: np.random.Generator) -> np.ndarray:
    """Ring lattice with k nearest neighbors, each edge rewired with p_rewire.

    Rewiring moves one endpoint to a uniformly chosen non-neighbor, so the
    edge count stays exactly n*k/2.
    """
    if k % 2 != 0 or k >= n:
        raise ContractViolationError(f"need even k < n, got k={k}, n={n}")
    if not 0.0 <= p_rewire <= 1.0:
        raise ContractViolationError(f"rewire probability must lie in [0, 1], got {p_rewire}")
    adj = np.zeros((n, n))
    for offset in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + offset) % n
            adj[i, j] = adj[j, i] = 1.0
    # Rewire lattice edges in a fixed scan order for determinism.
    for offset in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + offset) % n
            if rng.random() >= p_rewire:
                continue
            candidates = np.flatnonzero(adj[i] == 0)
            candidates = candidates[candidates != i]
            if len(candidates) == 0:
                continue  # node already adjacent to everything else
            new_j = int(rng.choice(candidates))
            adj[i, j] = adj[j, i] = 0.0
            adj[i, new_j] = adj[new_j, i] = 1.0
    return adj


def gen_ba(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Preferential attachment from a complete seed on m+1 nodes.

    Each arriving node attaches m edges to distinct existing nodes sampled
    proportionally to degree, giving exactly m(m+1)/2 + (n-m-1)m edges.
    """
    if not n > m >= 1:
        raise ContractViolationError(f"need n > m >= 1, got n={n}, m={m}")
    adj = np.zeros((n, n))
    adj[:m + 1, :m + 1] = 1.0 - np.eye(m + 1)
    degrees = adj.sum(axis=1)
    for new in range(m + 1, n):
        weights = degrees[:new]
        targets = rng.choice(new, size=m, replace=False, p=weights / weights.sum())
        for t in targets:
            adj[new, t] = adj[t, new] = 1.0
        degrees[targets] += 1
        degrees[new] = m
    return adj


@dataclass(frozen=True)
class ClassSpec:
    """One benchmark class: a model family or an empirical TU source."""

    family: str
    count: int = 35
    size_range: tuple[int, int] = (4, SIZE_MAX)
    p: float = 0.35          # er edge probability
    k: int = 4               # ws ring degree
    p_rewire: float = 0.1    # ws rewire probability
    m: int = 1               # ba attachment count
    source: str | None = None  # empirical: TU directory

    def __post_init__(self):
        check_fields(self, ConfigError)
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.count < 1:
            raise ConfigError(f"class count must be >= 1, got {self.count}")
        lo, hi = self.size_range
        if not (4 <= lo <= hi <= SIZE_MAX):
            raise ConfigError(f"size range must satisfy 4 <= lo <= hi <= {SIZE_MAX}, got {self.size_range}")
        # the generators' own rules, for the parameters this family reads; a graph
        # has at least k + 1 (ws) or m + 2 (ba) nodes, so these stay within 1000
        if self.family == "er" and not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"er edge probability p must lie in [0, 1], got {self.p}")
        if self.family == "ws" and not (0 <= self.k <= 998 and self.k % 2 == 0):
            raise ConfigError(f"ws ring degree k must be even and in [0, 998], got {self.k}")
        if self.family == "ws" and not 0.0 <= self.p_rewire <= 1.0:
            raise ConfigError(f"ws p_rewire must lie in [0, 1], got {self.p_rewire}")
        if self.family == "ba" and not 1 <= self.m <= 998:
            raise ConfigError(f"ba attachment count m must lie in [1, 998], got {self.m}")


def default_msg_classes() -> tuple[ClassSpec, ...]:
    """Six classes: three empirical placeholders, three model families."""
    return (
        ClassSpec(family="empirical"),                          # protein-like source
        ClassSpec(family="empirical"),                          # molecule-like source
        ClassSpec(family="er", p=0.35),
        ClassSpec(family="ws", k=4, p_rewire=0.1),
        ClassSpec(family="empirical"),                          # social-like source
        ClassSpec(family="ba", m=1),
    )


@dataclass(frozen=True)
class MsgConfig:
    classes: tuple[ClassSpec, ...] = ()
    seed: int = 0
    name: str = "msg"

    def __post_init__(self):
        if not self.classes:
            object.__setattr__(self, "classes", default_msg_classes())


def three_class_config(per_class: int = 60, size_range: tuple[int, int] = (20, 200),
                       seed: int = 0) -> MsgConfig:
    """Model-families-only benchmark used by the classification target."""
    return MsgConfig(
        classes=(
            ClassSpec(family="er", count=per_class, size_range=size_range, p=0.35),
            ClassSpec(family="ws", count=per_class, size_range=size_range, k=4, p_rewire=0.1),
            ClassSpec(family="ba", count=per_class, size_range=size_range, m=1),
        ),
        seed=seed,
        name="model3",
    )


def _generate_one(spec: ClassSpec, class_idx: int, sample_idx: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, class_idx, sample_idx])))
    lo, hi = spec.size_range
    n = int(rng.integers(lo, hi + 1))
    if spec.family == "er":
        return gen_er(n, spec.p, rng)
    if spec.family == "ws":
        n = max(n, spec.k + 1)  # ring construction needs k < n
        return gen_ws(n, spec.k, spec.p_rewire, rng)
    if spec.family == "ba":
        n = max(n, spec.m + 2)
        return gen_ba(n, spec.m, rng)
    raise ContractViolationError(f"family {spec.family!r} is not generative")


def _empirical_graphs(spec: ClassSpec, class_idx: int, label: int,
                      seed: int, name: str) -> list[Graph]:
    if spec.source is None:
        raise IngestionError(
            f"class {class_idx}: empirical family requires a TU source directory"
        )
    try:
        source = load_tu_dataset(spec.source)
    except (OSError, FormatError) as exc:
        raise IngestionError(f"class {class_idx}: cannot load {spec.source}: {exc}") from exc
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, class_idx])))
    available = len(source.graphs)
    count = spec.count
    if count > available:
        warnings.warn(
            f"class {class_idx}: requested {count} graphs, source has {available}; using all"
        )
        count = available
    chosen = sorted(rng.choice(available, size=count, replace=False).tolist())
    out = []
    for rank, idx in enumerate(chosen):
        g = source.graphs[idx]
        # Re-derive degree features so all classes share one feature space.
        out.append(Graph(
            adjacency=g.adjacency,
            features=degree_onehot_features(g.adjacency),
            label=label,
            id=f"{name}-c{class_idx}-{rank}",
        ))
    return out


def build_msg(config: MsgConfig) -> GraphDataset:
    """Assemble the benchmark; empirical classes without a source are dropped.

    A build with any class dropped is labeled "<name>-lite". A class that
    names a source which cannot be read raises with the class index.
    """
    included: list[tuple[int, ClassSpec]] = []
    dropped = 0
    for class_idx, spec in enumerate(config.classes):
        if spec.family == "empirical" and spec.source is None:
            dropped += 1
            continue
        included.append((class_idx, spec))
    if not included:
        raise ConfigError("no classes left to build: every class was an unsourced empirical one")
    if dropped:
        warnings.warn(
            f"{dropped} empirical class(es) had no source and were excluded; "
            "the build is labeled -lite"
        )
    name = config.name if not dropped else f"{config.name}-lite"
    graphs: list[Graph] = []
    for label, (class_idx, spec) in enumerate(included):
        if spec.family == "empirical":
            graphs.extend(_empirical_graphs(spec, class_idx, label, config.seed, name))
        else:
            for i in range(spec.count):
                adj = _generate_one(spec, class_idx, i, config.seed)
                graphs.append(_graph_from_adjacency(adj, label, f"{name}-c{class_idx}-{i}"))
    return GraphDataset(
        graphs=tuple(graphs),
        class_count=len(included),
        feature_dim=graphs[0].feature_dim,
        name=name,
    )


# -- TU-format text export ------------------------------------------------


_EXPORT_ROWS = 4096  # rows formatted per write


def _write_rows(fh, row_format: str, table: np.ndarray) -> None:
    """Write each row of ``table`` with ``row_format``, a block at a time."""
    for start in range(0, len(table), _EXPORT_ROWS):
        block = table[start:start + _EXPORT_ROWS]
        fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def export_tu(dataset: GraphDataset, directory, prefix: str) -> None:
    """Write the four-file TU text layout the loader reads back.

    Node features go to _node_attributes.txt with %.17g formatting so
    float64 values survive the round trip exactly. Each graph is written
    as it is reached; its edges are listed in both directions, in row-major
    order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (open(directory / f"{prefix}_A.txt", "w") as edge_fh,
          open(directory / f"{prefix}_graph_indicator.txt", "w") as indicator_fh,
          open(directory / f"{prefix}_graph_labels.txt", "w") as label_fh,
          open(directory / f"{prefix}_node_attributes.txt", "w") as attr_fh):
        base = 0
        for gid, graph in enumerate(dataset.graphs, start=1):
            n = graph.node_count
            _write_rows(edge_fh, "%d, %d\n", np.argwhere(graph.adjacency) + (base + 1))
            indicator_fh.write(f"{gid}\n" * n)
            label_fh.write(f"{graph.label}\n")
            _write_rows(attr_fh, ", ".join(["%.17g"] * graph.feature_dim) + "\n",
                        graph.features)
            base += n
        if not edge_fh.tell():  # no edges at all: one blank line
            edge_fh.write("\n")


def size_histogram(dataset: GraphDataset, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Node-count histogram (counts, bin edges) over the whole dataset."""
    sizes = np.asarray(dataset.sizes, dtype=float)
    counts, edges = np.histogram(sizes, bins=bins)
    return counts, edges
