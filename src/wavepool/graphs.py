"""Graph data model, TU-format ingestion and stratified splitting.

A dataset is an ordered list of small dense graphs sharing one feature
dimension. Everything here is immutable after construction; loading and
statistics are pure functions.
"""

from __future__ import annotations

import itertools
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, IngestionError
from .settings import check_fields

DEGREE_CAP = 64  # degrees above this share one overflow bucket
DEGREE_FEATURE_DIM = DEGREE_CAP + 2


def degree_onehot_features(adjacency: np.ndarray, cap: int = DEGREE_CAP) -> np.ndarray:
    """One-hot degree encoding with an overflow bucket for degrees > cap."""
    degrees = adjacency.sum(axis=1).astype(int)
    feats = np.zeros((adjacency.shape[0], cap + 2))
    idx = np.minimum(degrees, cap + 1)
    feats[np.arange(adjacency.shape[0]), idx] = 1.0
    return feats


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with dense adjacency and node features.

    Graphs compare and hash by identity: two graphs built from the same
    arrays are distinct, as their memoised operands are.
    """

    adjacency: np.ndarray  # (n, n), entries in {0, 1}, zero diagonal
    features: np.ndarray   # (n, l)
    label: int
    id: str = ""
    _memo: dict = field(default_factory=dict, init=False, repr=False)

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
        if not np.isfinite(feats).all():
            raise FormatError(f"features of graph {self.id!r} contain non-finite values")
        adj.setflags(write=False)
        feats.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "label", int(self.label))

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def memoised(self, slot: str, key, build):
        """``build()``, computed once per ``key`` and kept on this graph in ``slot``.

        The graph is immutable, so a value derived from it stays valid. Each
        slot holds one key at a time: a different key replaces that slot's
        entry and leaves the other slots alone.
        """
        entry = self._memo.get(slot)
        if entry is None or entry[0] != key:
            entry = self._memo[slot] = (key, build())
        return entry[1]

    def holds(self, slot: str, key) -> bool:
        """Whether ``slot`` holds the value ``memoised`` built for ``key``."""
        entry = self._memo.get(slot)
        return entry is not None and entry[0] == key


@dataclass(frozen=True, eq=False)
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
        check_fields(self, ConfigError)
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(f <= 0 for f in fracs):
            raise ConfigError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fracs)}")


# ---------------------------------------------------------------------------
# TU benchmark format

_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)
_CHUNK = 1 << 16  # bytes read at a time


def _decode(data: bytes, offset: int, path: Path, commas: bool) -> list[str]:
    """The lines of ``data``, which starts at byte ``offset`` of ``path``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path.name}: not UTF-8 text (byte {offset + exc.start})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return (text.replace(",", " ") if commas else text).split("\n")


def _pieces(path: Path, commas: bool = False) -> Iterator[list[str]]:
    """The file's lines, a list per piece of about ``_CHUNK`` bytes that
    ends at a line break, decoded as UTF-8 with universal newlines as
    ``Path.read_text`` would; with ``commas`` every comma reads as a space.
    A byte that is not UTF-8 raises, naming its offset in the file."""
    with path.open("rb") as fh:
        offset, pending = 0, []
        for block in iter(lambda: fh.read(_CHUNK), b""):
            # the last break, but not a closing \r that may begin a \r\n
            cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
            if not cut:
                pending.append(block)
                continue
            data, pending = b"".join([*pending, block[:cut]]), [block[cut:]]
            yield _decode(data, offset, path, commas)[:-1]  # drop the "" after the break
            offset += len(data)
        yield _decode(b"".join(pending), offset, path, commas)


def _rows(path: Path) -> list[tuple[int, str]]:
    """(line number, line) of each non-blank line: the rescan behind error messages."""
    lines = itertools.chain.from_iterable(_pieces(path))
    return [(no, line) for no, line in enumerate(lines, start=1) if line.strip()]


def _load_table(path: Path, dtype, commas: bool) -> np.ndarray | None:
    """Every non-blank row of the whitespace-separated file in one C-level
    parse that reads it a piece at a time.

    None when a token does not parse as ``dtype`` or the rows differ in width.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            return np.loadtxt(itertools.chain.from_iterable(_pieces(path, commas)),
                              dtype=dtype, comments=None, ndmin=2)
    except FormatError:
        raise
    except ValueError:
        return None


def _integer_table(path: Path, columns: int) -> np.ndarray:
    """The file's non-blank rows as an int64 array of shape (rows, columns).

    A row of several columns may separate its integers by commas or
    whitespace; a one-column row is a single integer.
    """
    table = _load_table(path, np.int64, commas=columns > 1)
    if table is not None and (table.size == 0 or table.shape[1] == columns):
        return table.reshape(-1, columns)
    for line_no, line in _rows(path):
        parts = line.replace(",", " ").split() if columns > 1 else [line.strip()]
        if len(parts) != columns:
            raise FormatError(f"{path.name}:{line_no}: expected 'row, col', got {line.strip()!r}")
        for token in parts:
            if not _INTEGER.fullmatch(token):
                raise FormatError(f"{path.name}:{line_no}: expected integer, got {token!r}")
            if not _INT64.min <= int(token) <= _INT64.max:
                raise FormatError(f"{path.name}:{line_no}: integer {token} outside int64")
    raise FormatError(f"{path.name}: cannot parse as a table of integers")


def _attribute_fault(line: str) -> str | None:
    tokens = line.replace(",", " ").split()
    # float() also takes digit separators and non-ASCII digits; the table parse does not
    if not all(tok.isascii() and "_" not in tok for tok in tokens):
        return "malformed attribute row"
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        return "malformed attribute row"
    if not np.isfinite(values).all():
        return "non-finite attribute"
    return None


def _attribute_table(path: Path, n_nodes: int) -> np.ndarray:
    """The (n_nodes, width) float attribute rows, every value finite."""
    table = _load_table(path, float, commas=True)
    if table is not None and np.isfinite(table).all():
        if len(table) != n_nodes:
            raise FormatError(f"{path.name}: {len(table)} rows for {n_nodes} nodes")
        return table
    rows = _rows(path)
    for line_no, line in rows:
        fault = _attribute_fault(line)
        if fault:
            raise FormatError(f"{path.name}:{line_no}: {fault}")
    if len(rows) != n_nodes:
        raise FormatError(f"{path.name}: {len(rows)} rows for {n_nodes} nodes")
    widths = sorted({len(line.replace(",", " ").split()) for _, line in rows})
    if len(widths) > 1:
        raise FormatError(f"{path.name}: inconsistent attribute widths {widths}")
    raise FormatError(f"{path.name}: cannot parse as a table of numbers")


def load_tu_dataset(directory_path: str | Path) -> GraphDataset:
    """Load a dataset in the TU benchmark text format.

    The directory must contain ``<DS>_A.txt`` (1-indexed "row, col" edge
    pairs), ``<DS>_graph_indicator.txt`` and ``<DS>_graph_labels.txt``;
    ``<DS>_node_labels.txt`` and ``<DS>_node_attributes.txt`` are optional.
    Node labels are one-hot encoded; when neither labels nor attributes
    exist, features fall back to one-hot degree encodings capped at
    ``DEGREE_CAP`` with an overflow bucket.

    Files are UTF-8 text, one row per line. Integers are base-10 ASCII
    digits with an optional sign, within int64; attributes are finite
    decimal floats. The values of an edge or attribute row are separated
    by commas or whitespace. Blank lines are skipped; there are no
    comments. A malformed row raises ``FormatError`` naming
    ``file:line``, and a byte that is not UTF-8 one naming its offset.

    Each file is parsed as it is read, a piece at a time, and a graph whose
    rows are contiguous in the files gets a view of the parsed feature table.
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

    graph_of_node = _integer_table(indicator_path, 1)[:, 0]
    n_nodes = len(graph_of_node)
    if n_nodes == 0:
        raise FormatError(f"{indicator_path.name}: no nodes listed")
    graph_ids, node_graph = np.unique(graph_of_node, return_inverse=True)

    raw_labels = _integer_table(labels_path, 1)[:, 0]
    if len(raw_labels) != len(graph_ids):
        raise FormatError(
            f"{labels_path.name}: {len(raw_labels)} labels for {len(graph_ids)} graphs"
        )
    label_values, labels = np.unique(raw_labels, return_inverse=True)

    # each graph's nodes, and every node's index within its graph, in file order
    sizes = np.bincount(node_graph)
    node_order = np.argsort(node_graph, kind="stable")
    local_index = np.empty(n_nodes, dtype=np.int64)
    local_index[node_order] = np.arange(n_nodes) - np.repeat(np.cumsum(sizes) - sizes, sizes)

    edges = _integer_table(a_path, 2)
    edges -= 1  # 0-based node indices, in place
    outside = ((edges < 0) | (edges >= n_nodes)).any(axis=1)
    ends = np.clip(edges, 0, n_nodes - 1) if outside.any() else edges
    faulty = outside | (node_graph[ends[:, 0]] != node_graph[ends[:, 1]])
    if faulty.any():
        row = int(np.argmax(faulty))
        line_no = _rows(a_path)[row][0]
        if outside[row]:
            raise FormatError(f"{a_path.name}:{line_no}: node id outside [1, {n_nodes}]")
        gu, gv = graph_ids[node_graph[ends[row]]]
        raise FormatError(
            f"{a_path.name}:{line_no}: edge joins nodes of different graphs {gu} and {gv}"
        )
    self_loops = edges[:, 0] == edges[:, 1]
    if self_loops.any():
        warnings.warn(f"{a_path.name}: dropped {int(self_loops.sum())} self-loop(s)")
        edges = edges[~self_loops]
    edge_graph = node_graph[edges[:, 0]]
    if np.any(edge_graph[1:] < edge_graph[:-1]):  # group the edges by graph
        order = np.argsort(edge_graph, kind="stable")
        edges, edge_graph = edges[order], edge_graph[order]
    graph_edges = np.split(edges,
                           np.cumsum(np.bincount(edge_graph, minlength=len(graph_ids)))[:-1])
    del outside, ends, faulty, self_loops, edge_graph  # before the adjacencies are allocated

    feature_blocks = []
    if node_labels_path.is_file():
        raw = _integer_table(node_labels_path, 1)[:, 0]
        if len(raw) != n_nodes:
            raise FormatError(
                f"{node_labels_path.name}: {len(raw)} labels for {n_nodes} nodes"
            )
        values, codes = np.unique(raw, return_inverse=True)
        onehot = np.zeros((n_nodes, len(values)))
        onehot[np.arange(n_nodes), codes] = 1.0
        feature_blocks.append(onehot)
    if node_attrs_path.is_file():  # attribute columns come first
        feature_blocks.insert(0, _attribute_table(node_attrs_path, n_nodes))
    if len(feature_blocks) > 1:
        feature_blocks = [np.hstack(feature_blocks)]
    all_feats = feature_blocks[0] if feature_blocks else None  # None: degree fallback

    graphs = []
    node_rows = np.split(node_order, np.cumsum(sizes)[:-1])
    for gid, label, rows, graph_ends in zip(graph_ids, labels, node_rows, graph_edges):
        n = len(rows)
        ends = local_index[graph_ends]
        adj = np.zeros((n, n))
        adj[ends[:, 0], ends[:, 1]] = 1.0
        adj[ends[:, 1], ends[:, 0]] = 1.0
        if all_feats is not None:
            # rows in file order: a view of the table where they are contiguous
            first = rows[0]
            feats = all_feats[first:first + n] if rows[-1] == first + n - 1 else all_feats[rows]
        else:
            feats = degree_onehot_features(adj)
        graphs.append(Graph(adj, feats, label, id=f"{prefix}-{gid}"))

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
    """Diameter, the largest finite shortest-path length: for a disconnected
    graph, the max over components. Breadth-first search runs from every node
    at once: row v of ``reach`` is a bit set of the nodes within k hops of v,
    and one NumPy step ORs into it the rows of v's neighbours."""
    n = adjacency.shape[0]
    rows, cols = np.nonzero(adjacency)  # row-major, so each row's neighbours are contiguous
    if rows.size == 0:
        return 0
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    nodes = np.arange(n)
    reach = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    reach[nodes, nodes // 64] = np.left_shift(np.uint64(1), (nodes % 64).astype(np.uint64))
    hops = 0
    while True:
        grown = reach.copy()
        grown[rows[starts]] |= np.bitwise_or.reduceat(reach[cols], starts, axis=0)
        if np.array_equal(grown, reach):
            return hops
        reach, hops = grown, hops + 1


def _stats_row(label: str, graphs: list[Graph], diameters: np.ndarray) -> StatsRow:
    sizes = np.array([g.node_count for g in graphs], dtype=float)
    edges = np.array([g.edge_count for g in graphs], dtype=float)
    mean_degrees = 2.0 * edges / sizes
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
    diameters = np.array([graph_diameter(g.adjacency) for g in dataset.graphs], dtype=float)
    labels = np.array([g.label for g in dataset.graphs])
    per_class = []
    for label in range(dataset.class_count):
        members = np.flatnonzero(labels == label)
        if members.size:  # split subsets may lack some classes entirely
            per_class.append(_stats_row(f"class-{label}", [dataset.graphs[i] for i in members],
                                        diameters[members]))
    overall = _stats_row("overall", list(dataset.graphs), diameters)
    return StatsRecord(
        name=dataset.name,
        overall=overall,
        per_class=tuple(per_class),
        cross_scale_ratio=dataset.cross_scale_ratio,
    )
