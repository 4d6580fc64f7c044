"""Graph data model, TU-format ingestion and stratified splitting.

A dataset is an ordered list of small dense graphs sharing one feature
dimension. Everything here is immutable after construction; loading and
statistics are pure functions.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, IngestionError

DEGREE_CAP = 64  # degrees above this share one overflow bucket
DEGREE_FEATURE_DIM = DEGREE_CAP + 2


def degree_onehot_features(adjacency: np.ndarray, cap: int = DEGREE_CAP) -> np.ndarray:
    """One-hot degree encoding with an overflow bucket for degrees > cap."""
    degrees = adjacency.sum(axis=1).astype(int)
    feats = np.zeros((adjacency.shape[0], cap + 2))
    idx = np.minimum(degrees, cap + 1)
    feats[np.arange(adjacency.shape[0]), idx] = 1.0
    return feats


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with dense adjacency and node features."""

    adjacency: np.ndarray  # (n, n), entries in {0, 1}, zero diagonal
    features: np.ndarray   # (n, l)
    label: int
    id: str = ""
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        adj = np.ascontiguousarray(np.asarray(self.adjacency, dtype=float))
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=float))
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise FormatError(f"adjacency must be square, got {adj.shape}")
        if adj.shape[0] < 1:
            raise FormatError("graph must have at least one node")
        if not np.array_equal(adj, adj.T):
            raise FormatError(f"adjacency of graph {self.id!r} is not symmetric")
        if np.any(np.diag(adj) != 0):
            raise FormatError(f"adjacency of graph {self.id!r} has nonzero diagonal")
        if not np.all((adj == 0) | (adj == 1)):
            raise FormatError(f"adjacency of graph {self.id!r} has entries outside {{0,1}}")
        if feats.ndim != 2 or feats.shape[0] != adj.shape[0]:
            raise FormatError(
                f"features of graph {self.id!r} must have {adj.shape[0]} rows, got {feats.shape}"
            )
        if feats.shape[1] < 1:
            raise FormatError("feature dimension must be >= 1")
        adj.setflags(write=False)
        feats.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "label", int(self.label))

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def memoised(self, key, build):
        """``build()``, computed once per ``key`` and kept on this graph.

        The graph is immutable, so a value derived from it stays valid. One
        key is held at a time: a different key replaces the entry.
        """
        if self._memo is None or self._memo[0] != key:
            object.__setattr__(self, "_memo", (key, build()))
        return self._memo[1]


@dataclass(frozen=True)
class GraphDataset:
    graphs: tuple[Graph, ...]
    class_count: int
    feature_dim: int
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        if not self.graphs:
            raise FormatError(f"dataset {self.name!r} is empty")
        if self.class_count < 1:
            raise FormatError("class_count must be positive")
        labels = {g.label for g in self.graphs}
        for lab in labels:
            if not 0 <= lab < self.class_count:
                raise FormatError(f"label {lab} outside [0, {self.class_count})")
        for g in self.graphs:
            if g.feature_dim != self.feature_dim:
                raise FormatError(
                    f"graph {g.id!r} has feature dim {g.feature_dim}, dataset expects {self.feature_dim}"
                )

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([g.node_count for g in self.graphs])

    @property
    def cross_scale_ratio(self) -> float:
        sizes = self.sizes
        return float(sizes.max() / sizes.min())

    def subset(self, indices, name: str = "") -> "GraphDataset":
        graphs = tuple(self.graphs[i] for i in indices)
        return GraphDataset(graphs, self.class_count, self.feature_dim, name or self.name)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(f <= 0 for f in fracs):
            raise ConfigError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fracs)}")


# ---------------------------------------------------------------------------
# TU benchmark format

def _read_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _parse_int(token: str, path: Path, line_no: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise FormatError(f"{path.name}:{line_no}: expected integer, got {token.strip()!r}") from None


def load_tu_dataset(directory_path: str | Path, degree_cap: int = DEGREE_CAP) -> GraphDataset:
    """Load a dataset in the TU benchmark text format.

    The directory must contain ``<DS>_A.txt`` (1-indexed "row, col" edge
    pairs), ``<DS>_graph_indicator.txt`` and ``<DS>_graph_labels.txt``;
    ``<DS>_node_labels.txt`` and ``<DS>_node_attributes.txt`` are optional.
    Node labels are one-hot encoded; when neither labels nor attributes
    exist, features fall back to one-hot degree encodings capped at
    ``degree_cap`` with an overflow bucket.
    """
    directory = Path(directory_path)
    if not directory.is_dir():
        raise IngestionError(f"dataset directory not found: {directory}")
    a_files = sorted(directory.glob("*_A.txt"))
    if not a_files:
        raise IngestionError(f"missing mandatory file *_A.txt in {directory}")
    a_path = a_files[0]
    prefix = a_path.name[: -len("_A.txt")]

    def mandatory(suffix: str) -> Path:
        p = directory / f"{prefix}{suffix}"
        if not p.is_file():
            raise IngestionError(f"missing mandatory file {p.name} in {directory}")
        return p

    indicator_path = mandatory("_graph_indicator.txt")
    labels_path = mandatory("_graph_labels.txt")
    node_labels_path = directory / f"{prefix}_node_labels.txt"
    node_attrs_path = directory / f"{prefix}_node_attributes.txt"

    graph_of_node: list[int] = []
    for line_no, line in enumerate(_read_lines(indicator_path), start=1):
        if line.strip():
            graph_of_node.append(_parse_int(line, indicator_path, line_no))
    n_nodes = len(graph_of_node)
    if n_nodes == 0:
        raise FormatError(f"{indicator_path.name}: no nodes listed")
    graph_ids = sorted(set(graph_of_node))
    graph_index = {gid: k for k, gid in enumerate(graph_ids)}

    raw_labels: list[int] = []
    for line_no, line in enumerate(_read_lines(labels_path), start=1):
        if line.strip():
            raw_labels.append(_parse_int(line, labels_path, line_no))
    if len(raw_labels) != len(graph_ids):
        raise FormatError(
            f"{labels_path.name}: {len(raw_labels)} labels for {len(graph_ids)} graphs"
        )
    label_values = sorted(set(raw_labels))
    label_map = {v: k for k, v in enumerate(label_values)}

    # each graph's nodes, and every node's index within its graph, in file order
    local_index = np.empty(n_nodes, dtype=int)
    node_rows: dict[int, list[int]] = {gid: [] for gid in graph_ids}
    for node, gid in enumerate(graph_of_node):
        local_index[node] = len(node_rows[gid])
        node_rows[gid].append(node)

    adjacencies = [np.zeros((len(node_rows[gid]),) * 2) for gid in graph_ids]
    dropped_self_loops = 0
    for line_no, line in enumerate(_read_lines(a_path), start=1):
        if not line.strip():
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise FormatError(f"{a_path.name}:{line_no}: expected 'row, col', got {line.strip()!r}")
        u = _parse_int(parts[0], a_path, line_no)
        v = _parse_int(parts[1], a_path, line_no)
        if not (1 <= u <= n_nodes) or not (1 <= v <= n_nodes):
            raise FormatError(
                f"{a_path.name}:{line_no}: node id outside [1, {n_nodes}]"
            )
        gu, gv = graph_of_node[u - 1], graph_of_node[v - 1]
        if gu != gv:
            raise FormatError(
                f"{a_path.name}:{line_no}: edge joins nodes of different graphs {gu} and {gv}"
            )
        if u == v:
            dropped_self_loops += 1
            continue
        adj = adjacencies[graph_index[gu]]
        adj[local_index[u - 1], local_index[v - 1]] = 1.0
        adj[local_index[v - 1], local_index[u - 1]] = 1.0
    if dropped_self_loops:
        warnings.warn(f"{a_path.name}: dropped {dropped_self_loops} self-loop(s)")

    node_label_feats = None
    if node_labels_path.is_file():
        raw = []
        for line_no, line in enumerate(_read_lines(node_labels_path), start=1):
            if line.strip():
                raw.append(_parse_int(line, node_labels_path, line_no))
        if len(raw) != n_nodes:
            raise FormatError(
                f"{node_labels_path.name}: {len(raw)} labels for {n_nodes} nodes"
            )
        values = sorted(set(raw))
        vmap = {v: k for k, v in enumerate(values)}
        node_label_feats = np.zeros((n_nodes, len(values)))
        node_label_feats[np.arange(n_nodes), [vmap[v] for v in raw]] = 1.0

    node_attr_feats = None
    if node_attrs_path.is_file():
        rows = []
        for line_no, line in enumerate(_read_lines(node_attrs_path), start=1):
            if not line.strip():
                continue
            try:
                rows.append([float(tok) for tok in line.replace(",", " ").split()])
            except ValueError:
                raise FormatError(
                    f"{node_attrs_path.name}:{line_no}: malformed attribute row"
                ) from None
        if len(rows) != n_nodes:
            raise FormatError(
                f"{node_attrs_path.name}: {len(rows)} rows for {n_nodes} nodes"
            )
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise FormatError(f"{node_attrs_path.name}: inconsistent attribute widths {sorted(widths)}")
        node_attr_feats = np.array(rows)

    if node_attr_feats is not None and node_label_feats is not None:
        all_feats = np.hstack([node_attr_feats, node_label_feats])
    elif node_attr_feats is not None:
        all_feats = node_attr_feats
    elif node_label_feats is not None:
        all_feats = node_label_feats
    else:
        all_feats = None  # degree fallback, computed per graph below

    graphs = []
    for gid in graph_ids:
        k = graph_index[gid]
        adj = adjacencies[k]
        if all_feats is not None:
            feats = all_feats[node_rows[gid]]
        else:
            feats = degree_onehot_features(adj, cap=degree_cap)
        graphs.append(Graph(adj, feats, label_map[raw_labels[k]], id=f"{prefix}-{gid}"))

    return GraphDataset(tuple(graphs), len(label_values), graphs[0].feature_dim, name=prefix)


# ---------------------------------------------------------------------------
# Splitting

def _largest_remainder(count: int, fractions: tuple[float, float, float]) -> list[int]:
    exact = [count * f for f in fractions]
    base = [int(np.floor(e)) for e in exact]
    leftover = count - sum(base)
    remainders = sorted(range(3), key=lambda i: exact[i] - base[i], reverse=True)
    for i in range(leftover):
        base[remainders[i]] += 1
    return base


def split_dataset(
    dataset: GraphDataset, spec: SplitSpec
) -> tuple[GraphDataset, GraphDataset, GraphDataset]:
    """Deterministic train/val/test split; stratified by class by default."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    fractions = (spec.train_fraction, spec.val_fraction, spec.test_fraction)
    buckets: tuple[list[int], list[int], list[int]] = ([], [], [])

    if spec.stratified:
        by_class: dict[int, list[int]] = {}
        for i, g in enumerate(dataset.graphs):
            by_class.setdefault(g.label, []).append(i)
        for label in sorted(by_class):
            members = np.array(by_class[label])
            if len(members) < 3:
                raise ConfigError(
                    f"class {label} has only {len(members)} graph(s); "
                    "use stratified=False for datasets this small"
                )
            rng.shuffle(members)
            n_train, n_val, _ = _largest_remainder(len(members), fractions)
            buckets[0].extend(members[:n_train])
            buckets[1].extend(members[n_train : n_train + n_val])
            buckets[2].extend(members[n_train + n_val :])
    else:
        order = rng.permutation(len(dataset))
        n_train, n_val, _ = _largest_remainder(len(dataset), fractions)
        buckets[0].extend(order[:n_train])
        buckets[1].extend(order[n_train : n_train + n_val])
        buckets[2].extend(order[n_train + n_val :])

    for name, bucket in zip(("train", "val", "test"), buckets):
        if not bucket:
            raise ConfigError(f"{name} split is empty for dataset of size {len(dataset)}")
    splits = tuple(
        dataset.subset(sorted(b), name=f"{dataset.name}/{part}")
        for b, part in zip(buckets, ("train", "val", "test"))
    )
    return splits


# ---------------------------------------------------------------------------
# Statistics

@dataclass(frozen=True)
class StatsRow:
    label: str
    graph_count: int
    avg_graph_size: float
    avg_degree: float
    avg_edge_count: float
    min_size: int
    max_size: int
    node_std: float
    avg_diameter: float


@dataclass(frozen=True)
class StatsRecord:
    name: str
    overall: StatsRow
    per_class: tuple[StatsRow, ...]
    cross_scale_ratio: float

    def to_json(self) -> dict:
        def row(r: StatsRow) -> dict:
            return {
                "label": r.label,
                "graph_count": r.graph_count,
                "avg_graph_size": r.avg_graph_size,
                "avg_degree": r.avg_degree,
                "avg_edge_count": r.avg_edge_count,
                "min_max_size": [r.min_size, r.max_size],
                "sd_node_distribution": r.node_std,
                "avg_diameter": r.avg_diameter,
            }

        return {
            "name": self.name,
            "cross_scale_ratio": self.cross_scale_ratio,
            "overall": row(self.overall),
            "per_class": [row(r) for r in self.per_class],
        }


def graph_diameter(adjacency: np.ndarray) -> int:
    """Diameter by per-node BFS; for disconnected graphs, the max over components."""
    n = adjacency.shape[0]
    neighbors = [np.flatnonzero(adjacency[i]) for i in range(n)]
    best = 0
    for source in range(n):
        dist = np.full(n, -1, dtype=int)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        reached = dist[dist >= 0]
        best = max(best, int(reached.max()))
    return best


def _stats_row(label: str, graphs: list[Graph]) -> StatsRow:
    sizes = np.array([g.node_count for g in graphs], dtype=float)
    edges = np.array([g.edge_count for g in graphs], dtype=float)
    mean_degrees = 2.0 * edges / sizes
    diameters = np.array([graph_diameter(g.adjacency) for g in graphs], dtype=float)
    return StatsRow(
        label=label,
        graph_count=len(graphs),
        avg_graph_size=float(sizes.mean()),
        avg_degree=float(mean_degrees.mean()),
        avg_edge_count=float(edges.mean()),
        min_size=int(sizes.min()),
        max_size=int(sizes.max()),
        node_std=float(sizes.std()),
        avg_diameter=float(diameters.mean()),
    )


def dataset_statistics(dataset: GraphDataset) -> StatsRecord:
    """Per-class and overall size/degree/edge/diameter statistics."""
    per_class = []
    for label in range(dataset.class_count):
        members = [g for g in dataset.graphs if g.label == label]
        if members:  # split subsets may lack some classes entirely
            per_class.append(_stats_row(f"class-{label}", members))
    overall = _stats_row("overall", list(dataset.graphs))
    return StatsRecord(
        name=dataset.name,
        overall=overall,
        per_class=tuple(per_class),
        cross_scale_ratio=dataset.cross_scale_ratio,
    )
