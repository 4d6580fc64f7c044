import tempfile
import warnings
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepool import graphs as graphs_module
from wavepool.errors import ConfigError, FormatError, IngestionError
from wavepool.graphs import (
    DEGREE_CAP,
    Graph,
    GraphDataset,
    SplitSpec,
    dataset_statistics,
    degree_onehot_features,
    graph_diameter,
    load_tu_dataset,
    split_dataset,
)

from .conftest import cycle_adjacency, make_graph, path_adjacency, toy_dataset


# -- Graph validation -----------------------------------------------------


def test_graph_rejects_asymmetric():
    adj = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(FormatError, match="symmetric"):
        Graph(adj, np.ones((2, 1)), 0)


def test_graph_rejects_self_loop():
    adj = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(FormatError, match="diagonal"):
        Graph(adj, np.ones((2, 1)), 0)


def test_graph_rejects_weighted_entries():
    adj = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(FormatError, match="outside"):
        Graph(adj, np.ones((2, 1)), 0)


def test_graph_rejects_feature_row_mismatch():
    with pytest.raises(FormatError, match="rows"):
        Graph(path_adjacency(3), np.ones((2, 1)), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_graph_rejects_non_finite_features(bad):
    with pytest.raises(FormatError, match="features of graph 'g7' contain non-finite"):
        Graph(path_adjacency(2), [[bad], [1.0]], 0, id="g7")


def test_graph_arrays_frozen():
    g = make_graph(path_adjacency(3))
    assert not g.adjacency.flags.writeable
    assert not g.features.flags.writeable
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 5.0


def test_graph_counts():
    g = make_graph(cycle_adjacency(5))
    assert g.node_count == 5
    assert g.edge_count == 5


def test_graphs_and_datasets_compare_by_identity():
    """Graphs and datasets hold arrays, so they compare and hash as objects:
    two graphs built from the same arrays are distinct, and a subset of
    every graph is a new dataset."""
    adj = cycle_adjacency(5)
    g, h = make_graph(adj), make_graph(adj)
    assert g in [h, g] and h in [g, h]
    assert g != h and g == g
    assert hash(g) == object.__hash__(g) and hash(h) == object.__hash__(h)
    assert len({g, h, g}) == 2
    ds = GraphDataset((g, h), class_count=1, feature_dim=g.feature_dim)
    assert ds == ds and ds.subset([0, 1]) != ds
    assert hash(ds) == object.__hash__(ds)


# -- degree features ------------------------------------------------------


def test_degree_onehot_path():
    feats = degree_onehot_features(path_adjacency(3))
    assert feats.shape == (3, DEGREE_CAP + 2)
    assert feats[0, 1] == 1.0 and feats[1, 2] == 1.0 and feats[2, 1] == 1.0
    assert feats.sum() == 3.0


def test_degree_onehot_overflow_bucket():
    n = DEGREE_CAP + 10
    star = np.zeros((n, n))
    star[0, 1:] = star[1:, 0] = 1.0
    feats = degree_onehot_features(star)
    assert feats[0, DEGREE_CAP + 1] == 1.0  # hub degree exceeds the cap
    assert feats[1, 1] == 1.0


def test_degree_onehot_isolated():
    feats = degree_onehot_features(np.zeros((2, 2)))
    assert np.all(feats[:, 0] == 1.0)


# -- TU format loader -----------------------------------------------------


def write_tu(tmp_path, prefix="demo", edges=(), indicator=(), labels=(),
             node_labels=None, node_attributes=None):
    (tmp_path / f"{prefix}_A.txt").write_text(
        "\n".join(f"{u}, {v}" for u, v in edges) + "\n")
    (tmp_path / f"{prefix}_graph_indicator.txt").write_text(
        "\n".join(str(g) for g in indicator) + "\n")
    (tmp_path / f"{prefix}_graph_labels.txt").write_text(
        "\n".join(str(l) for l in labels) + "\n")
    if node_labels is not None:
        (tmp_path / f"{prefix}_node_labels.txt").write_text(
            "\n".join(str(l) for l in node_labels) + "\n")
    if node_attributes is not None:
        (tmp_path / f"{prefix}_node_attributes.txt").write_text(
            "\n".join(", ".join(str(x) for x in row) for row in node_attributes) + "\n")
    return tmp_path


def two_triangles(tmp_path, **kwargs):
    """Two 3-cycles, labels 7 and 9 (to exercise remapping)."""
    edges = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1),
             (4, 5), (5, 4), (5, 6), (6, 5), (4, 6), (6, 4)]
    return write_tu(tmp_path, edges=edges, indicator=[1, 1, 1, 2, 2, 2],
                    labels=[7, 9], **kwargs)


def test_load_basic(tmp_path):
    ds = load_tu_dataset(two_triangles(tmp_path))
    assert len(ds.graphs) == 2
    assert ds.class_count == 2
    assert [g.label for g in ds.graphs] == [0, 1]  # 7 -> 0, 9 -> 1
    assert ds.graphs[0].edge_count == 3
    assert np.array_equal(ds.graphs[0].adjacency, cycle_adjacency(3))
    # no node files: degree fallback
    assert ds.feature_dim == DEGREE_CAP + 2


def test_load_missing_directory(tmp_path):
    with pytest.raises(IngestionError, match="not found"):
        load_tu_dataset(tmp_path / "nope")


def test_load_missing_mandatory_file(tmp_path):
    two_triangles(tmp_path)
    (tmp_path / "demo_graph_labels.txt").unlink()
    with pytest.raises(IngestionError, match="demo_graph_labels.txt"):
        load_tu_dataset(tmp_path)


def test_load_bad_integer_reports_line(tmp_path):
    two_triangles(tmp_path)
    (tmp_path / "demo_graph_indicator.txt").write_text("1\nx\n1\n2\n2\n2\n")
    with pytest.raises(FormatError, match=r"demo_graph_indicator.txt:2"):
        load_tu_dataset(tmp_path)


def test_load_cross_graph_edge(tmp_path):
    write_tu(tmp_path, edges=[(1, 2), (2, 1), (2, 3)], indicator=[1, 1, 2],
             labels=[0, 1])
    with pytest.raises(FormatError, match="different graphs"):
        load_tu_dataset(tmp_path)


def test_load_node_id_out_of_range(tmp_path):
    write_tu(tmp_path, edges=[(1, 9)], indicator=[1, 1], labels=[0])
    with pytest.raises(FormatError, match="outside"):
        load_tu_dataset(tmp_path)


def test_load_drops_self_loops_with_warning(tmp_path):
    edges = [(1, 2), (2, 1), (1, 1), (2, 3), (3, 2), (1, 3), (3, 1),
             (4, 5), (5, 4)]
    write_tu(tmp_path, edges=edges, indicator=[1, 1, 1, 2, 2], labels=[0, 1])
    with pytest.warns(UserWarning, match="1 self-loop"):
        ds = load_tu_dataset(tmp_path)
    assert ds.graphs[0].adjacency[0, 0] == 0.0
    assert ds.graphs[0].edge_count == 3


def test_load_node_labels_onehot(tmp_path):
    two_triangles(tmp_path, node_labels=[5, 5, 8, 8, 5, 8])
    ds = load_tu_dataset(tmp_path)
    assert ds.feature_dim == 2
    assert np.array_equal(ds.graphs[0].features, [[1, 0], [1, 0], [0, 1]])


def test_load_interleaved_indicator_keeps_rows_in_file_order(tmp_path):
    # nodes 1, 3, 5 form graph 1 and nodes 2, 4 form graph 2
    write_tu(tmp_path, edges=[(1, 3), (3, 1), (2, 4), (4, 2)],
             indicator=[1, 2, 1, 2, 1], labels=[0, 1], node_labels=[0, 1, 2, 3, 4])
    ds = load_tu_dataset(tmp_path)
    assert np.array_equal(ds.graphs[0].features, np.eye(5)[[0, 2, 4]])
    assert np.array_equal(ds.graphs[1].features, np.eye(5)[[1, 3]])
    assert ds.graphs[0].adjacency[0, 1] == 1.0 and ds.graphs[1].adjacency[0, 1] == 1.0


def test_load_attributes_and_labels_stack(tmp_path):
    attrs = [[0.5, 1.5]] * 6
    two_triangles(tmp_path, node_labels=[0, 0, 0, 1, 1, 1], node_attributes=attrs)
    ds = load_tu_dataset(tmp_path)
    assert ds.feature_dim == 4  # 2 attributes + 2 one-hot label columns
    assert np.allclose(ds.graphs[0].features[:, :2], [[0.5, 1.5]] * 3)
    assert np.array_equal(ds.graphs[0].features[:, 2:], [[1, 0]] * 3)


def test_load_attribute_width_mismatch(tmp_path):
    two_triangles(tmp_path)
    (tmp_path / "demo_node_attributes.txt").write_text(
        "1.0\n1.0, 2.0\n1.0\n1.0\n1.0\n1.0\n")
    with pytest.raises(FormatError, match="widths"):
        load_tu_dataset(tmp_path)


def test_load_label_count_mismatch(tmp_path):
    two_triangles(tmp_path)
    (tmp_path / "demo_graph_labels.txt").write_text("1\n")
    with pytest.raises(FormatError, match="1 labels for 2 graphs"):
        load_tu_dataset(tmp_path)


@pytest.mark.parametrize("suffix, text, message", [
    ("_A.txt", "1, 2\n\n2, 1, 3\n", r"demo_A.txt:3: expected 'row, col', got '2, 1, 3'"),
    ("_A.txt", "1, 2\n\n2, x\n", r"demo_A.txt:3: expected integer, got 'x'"),
    ("_A.txt", "1, 2\n\n1, 9\n", r"demo_A.txt:3: node id outside \[1, 6\]"),
    ("_A.txt", "1, 2\n\n3, 4\n", r"demo_A.txt:3: edge joins nodes of different graphs 1 and 2"),
    ("_A.txt", "1, 2\n\n# edges\n", r"demo_A.txt:3: expected integer, got '#'"),
    ("_node_labels.txt", "5\n\n5.0\n8\n8\n5\n8\n", r"demo_node_labels.txt:3: expected integer, got '5.0'"),
    ("_graph_indicator.txt", "1\n\n99999999999999999999\n", r"demo_graph_indicator.txt:3: integer \d+ outside int64"),
    ("_node_attributes.txt", "0.5, 1\n\n0.5, abc\n", r"demo_node_attributes.txt:3: malformed attribute row"),
    ("_node_attributes.txt", "0.5, 1\n\n0.5, nan\n", r"demo_node_attributes.txt:3: non-finite attribute"),
    ("_node_attributes.txt", "0.5, 1\n\n-inf, 1\n", r"demo_node_attributes.txt:3: non-finite attribute"),
])
def test_load_error_names_file_and_line(tmp_path, suffix, text, message):
    two_triangles(tmp_path, node_labels=[5, 5, 8, 8, 5, 8], node_attributes=[[0.5, 1.5]] * 6)
    (tmp_path / f"demo{suffix}").write_text(text)
    with pytest.raises(FormatError, match=message):
        load_tu_dataset(tmp_path)


def test_load_undecodable_file(tmp_path):
    two_triangles(tmp_path)
    (tmp_path / "demo_graph_indicator.txt").write_bytes(b"1\n1\n\xff\n")
    with pytest.raises(FormatError, match=r"demo_graph_indicator.txt: not UTF-8 text \(byte 4\)"):
        load_tu_dataset(tmp_path)
    # past the first pieces a streaming read takes, the offset is still the file's
    (tmp_path / "demo_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n2\n")
    rows = b"1, 2\n2, 1\n" * 20000  # 200 KB of valid rows
    (tmp_path / "demo_A.txt").write_bytes(rows + b"3, \xe9\n")
    with pytest.raises(FormatError, match=rf"demo_A.txt: not UTF-8 text \(byte {len(rows) + 3}\)"):
        load_tu_dataset(tmp_path)
    # a malformed row before the bad byte still reports the bad byte, as a whole-text read did
    (tmp_path / "demo_A.txt").write_bytes(b"1, x\n" + rows + b"\xe9\n")
    with pytest.raises(FormatError, match=rf"not UTF-8 text \(byte {len(rows) + 5}\)"):
        load_tu_dataset(tmp_path)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64, 1 << 16])
def test_load_reads_line_breaks_across_pieces(tmp_path, monkeypatch, chunk):
    """Pieces of any size give the dataset and line numbers of a whole-text
    read: \\r\\n and a lone \\r are line breaks, even where a piece ends
    between the \\r and the \\n."""
    breaks = ["\r\n", "\r", "\n", "\r\n\r\n"]
    edges = ["1, 2", "2, 1", "2,3", "3 ,2", "4\t5", "5, 4"]
    text = "".join(edge + breaks[i % len(breaks)] for i, edge in enumerate(edges))
    write_tu(tmp_path, indicator=[1, 1, 1, 2, 2], labels=[0, 1])
    (tmp_path / "demo_A.txt").write_bytes(text.encode())
    (tmp_path / "demo_graph_indicator.txt").write_bytes(b"1\r1\r\n1\r\r2\n2")
    monkeypatch.setattr(graphs_module, "_CHUNK", chunk)
    ds = load_tu_dataset(tmp_path)
    assert np.array_equal(ds.graphs[0].adjacency, path_adjacency(3))
    assert np.array_equal(ds.graphs[1].adjacency, path_adjacency(2))
    bad = text + "\r\n6, x\r"
    (tmp_path / "demo_A.txt").write_bytes(bad.encode())
    line = (tmp_path / "demo_A.txt").read_text().split("\n").index("6, x") + 1
    with pytest.raises(FormatError, match=rf"demo_A.txt:{line}: expected integer, got 'x'"):
        load_tu_dataset(tmp_path)


# The per-line loader the vectorised one replaced, kept as its reference.

def per_line_load_tu(directory, degree_cap=DEGREE_CAP):
    def read_lines(path):
        return path.read_text().splitlines()

    def parse_int(token, path, line_no):
        try:
            return int(token.strip())
        except ValueError:
            raise FormatError(f"{path.name}:{line_no}: expected integer, got {token.strip()!r}") from None

    a_path = sorted(directory.glob("*_A.txt"))[0]
    prefix = a_path.name[: -len("_A.txt")]
    indicator_path = directory / f"{prefix}_graph_indicator.txt"
    labels_path = directory / f"{prefix}_graph_labels.txt"
    node_labels_path = directory / f"{prefix}_node_labels.txt"
    node_attrs_path = directory / f"{prefix}_node_attributes.txt"

    graph_of_node = [parse_int(line, indicator_path, no)
                     for no, line in enumerate(read_lines(indicator_path), 1) if line.strip()]
    n_nodes = len(graph_of_node)
    graph_ids = sorted(set(graph_of_node))
    graph_index = {gid: k for k, gid in enumerate(graph_ids)}
    raw_labels = [parse_int(line, labels_path, no)
                  for no, line in enumerate(read_lines(labels_path), 1) if line.strip()]
    label_values = sorted(set(raw_labels))
    label_map = {v: k for k, v in enumerate(label_values)}

    local_index = np.empty(n_nodes, dtype=int)
    node_rows = {gid: [] for gid in graph_ids}
    for node, gid in enumerate(graph_of_node):
        local_index[node] = len(node_rows[gid])
        node_rows[gid].append(node)

    adjacencies = [np.zeros((len(node_rows[gid]),) * 2) for gid in graph_ids]
    dropped_self_loops = 0
    for line_no, line in enumerate(read_lines(a_path), start=1):
        if not line.strip():
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise FormatError(f"{a_path.name}:{line_no}: expected 'row, col', got {line.strip()!r}")
        u = parse_int(parts[0], a_path, line_no)
        v = parse_int(parts[1], a_path, line_no)
        if not (1 <= u <= n_nodes) or not (1 <= v <= n_nodes):
            raise FormatError(f"{a_path.name}:{line_no}: node id outside [1, {n_nodes}]")
        gu, gv = graph_of_node[u - 1], graph_of_node[v - 1]
        if gu != gv:
            raise FormatError(
                f"{a_path.name}:{line_no}: edge joins nodes of different graphs {gu} and {gv}")
        if u == v:
            dropped_self_loops += 1
            continue
        adj = adjacencies[graph_index[gu]]
        adj[local_index[u - 1], local_index[v - 1]] = 1.0
        adj[local_index[v - 1], local_index[u - 1]] = 1.0
    if dropped_self_loops:
        warnings.warn(f"{a_path.name}: dropped {dropped_self_loops} self-loop(s)")

    blocks = []
    if node_attrs_path.is_file():
        blocks.append(np.array([[float(tok) for tok in line.replace(",", " ").split()]
                                for line in read_lines(node_attrs_path) if line.strip()]))
    if node_labels_path.is_file():
        raw = [parse_int(line, node_labels_path, no)
               for no, line in enumerate(read_lines(node_labels_path), 1) if line.strip()]
        vmap = {v: k for k, v in enumerate(sorted(set(raw)))}
        onehot = np.zeros((n_nodes, len(vmap)))
        onehot[np.arange(n_nodes), [vmap[v] for v in raw]] = 1.0
        blocks.append(onehot)
    all_feats = np.hstack(blocks) if blocks else None

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


@st.composite
def tu_directories(draw):
    """Files of a small valid TU directory, as {suffix: text}."""
    graph_ids = draw(st.lists(st.integers(-3, 40), min_size=1, max_size=4, unique=True))
    sizes = draw(st.lists(st.integers(1, 5), min_size=len(graph_ids), max_size=len(graph_ids)))
    owners = draw(st.permutations([g for g, size in zip(graph_ids, sizes) for _ in range(size)]))
    members = {g: [node for node, o in enumerate(owners, 1) if o == g] for g in graph_ids}
    edges = draw(st.lists(
        st.sampled_from(graph_ids).flatmap(
            lambda g: st.tuples(st.sampled_from(members[g]), st.sampled_from(members[g]))),
        max_size=12))
    blank = st.sampled_from(["", "  ", "\t"])

    def lines(rows):
        out = []
        for row in rows:
            out.extend(draw(st.lists(blank, max_size=1)))
            out.append(row)
        return "\n".join(out) + draw(st.sampled_from(["", "\n", "\n\n"]))

    separator = st.sampled_from([", ", " ", ",", "\t", " ,  "])
    files = {
        "_graph_indicator.txt": lines(str(g) for g in owners),
        "_graph_labels.txt": lines(str(draw(st.integers(-2, 3))) for _ in graph_ids),
        "_A.txt": lines(f"{u}{draw(separator)}{v}" for u, v in edges),
    }
    if draw(st.booleans()):
        files["_node_labels.txt"] = lines(str(draw(st.integers(-1, 4))) for _ in owners)
    if draw(st.booleans()):
        width = draw(st.integers(1, 3))
        # %.3e of a float near the largest one may round to inf
        value = st.floats(-1e300, 1e300).flatmap(
            lambda x: st.sampled_from([repr(x), f"{x:.17g}", f"{x:.3e}"]))
        files["_node_attributes.txt"] = lines(
            draw(separator).join(draw(value) for _ in range(width)) for _ in owners)
    return files


def load_recording_warnings(loader, directory):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = loader(directory)
    return ds, [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None)
@given(files=tu_directories())
def test_load_matches_per_line_reference(files):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for suffix, text in files.items():
            (directory / f"ds{suffix}").write_text(text)
        got, got_warnings = load_recording_warnings(load_tu_dataset, directory)
        want, want_warnings = load_recording_warnings(per_line_load_tu, directory)
    assert got_warnings == want_warnings
    assert (got.name, got.class_count, got.feature_dim) == (want.name, want.class_count,
                                                            want.feature_dim)
    assert len(got.graphs) == len(want.graphs)
    for g, w in zip(got.graphs, want.graphs):
        assert (g.id, g.label) == (w.id, w.label)
        assert g.adjacency.shape == w.adjacency.shape and g.features.shape == w.features.shape
        assert g.adjacency.tobytes() == w.adjacency.tobytes()
        assert g.features.tobytes() == w.features.tobytes()


# -- splitting ------------------------------------------------------------


def test_split_fractions_validation():
    with pytest.raises(ConfigError, match="sum to 1"):
        SplitSpec(train_fraction=0.5, val_fraction=0.1, test_fraction=0.1)
    with pytest.raises(ConfigError, match="positive"):
        SplitSpec(train_fraction=1.2, val_fraction=-0.1, test_fraction=-0.1)


def test_split_stratified_counts():
    ds = toy_dataset(per_class=10)
    tr, va, te = split_dataset(ds, SplitSpec(seed=3))
    assert (len(tr), len(va), len(te)) == (16, 2, 2)
    for part in (tr, va, te):
        labels = [g.label for g in part.graphs]
        assert labels.count(0) == labels.count(1)  # stratification balances


def test_split_partition_exact():
    ds = toy_dataset(per_class=10)
    tr, va, te = split_dataset(ds, SplitSpec(seed=1))
    ids = sorted(g.id for part in (tr, va, te) for g in part.graphs)
    assert ids == sorted(g.id for g in ds.graphs)


def test_split_deterministic():
    ds = toy_dataset(per_class=10)
    a = split_dataset(ds, SplitSpec(seed=5))
    b = split_dataset(ds, SplitSpec(seed=5))
    for x, y in zip(a, b):
        assert [g.id for g in x.graphs] == [g.id for g in y.graphs]


def test_split_seed_changes_assignment():
    ds = toy_dataset(per_class=10)
    a = split_dataset(ds, SplitSpec(seed=0))
    b = split_dataset(ds, SplitSpec(seed=1))
    assert [g.id for g in a[0].graphs] != [g.id for g in b[0].graphs]


def test_split_small_class_error():
    graphs = tuple(
        make_graph(path_adjacency(5), label, f"g{label}-{i}")
        for label in (0, 1) for i in range(2)
    )
    ds = GraphDataset(graphs, 2, graphs[0].feature_dim, "tiny")
    with pytest.raises(ConfigError, match="stratified=False"):
        split_dataset(ds, SplitSpec())


def test_split_unstratified_small():
    graphs = tuple(
        make_graph(path_adjacency(5), label % 2, f"g{i}") for i, label in enumerate(range(10))
    )
    ds = GraphDataset(graphs, 2, graphs[0].feature_dim, "tiny")
    tr, va, te = split_dataset(ds, SplitSpec(stratified=False, seed=0))
    assert len(tr) + len(va) + len(te) == 10


@settings(max_examples=25, deadline=None)
@given(per_class=st.integers(min_value=7, max_value=30), seed=st.integers(0, 1000))
def test_split_property_partition(per_class, seed):
    ds = toy_dataset(per_class=per_class, seed=0)
    tr, va, te = split_dataset(ds, SplitSpec(seed=seed))
    ids = sorted(g.id for part in (tr, va, te) for g in part.graphs)
    assert ids == sorted(g.id for g in ds.graphs)
    assert all(part.class_count == 2 for part in (tr, va, te))


# -- statistics -----------------------------------------------------------


def test_graph_diameter_path():
    assert graph_diameter(path_adjacency(4)) == 3


def test_graph_diameter_single_node():
    assert graph_diameter(np.zeros((1, 1))) == 0


def test_graph_diameter_disconnected_components():
    adj = np.zeros((5, 5))
    adj[:2, :2] = path_adjacency(2)
    adj[2:, 2:] = path_adjacency(3)
    assert graph_diameter(adj) == 2  # max over components


def networkx_diameter(graph) -> int:
    return max(max(lengths.values()) for _, lengths in nx.all_pairs_shortest_path_length(graph))


@pytest.mark.parametrize("graph", [
    *(nx.erdos_renyi_graph(n, p, seed=n) for n, p in [(30, 0.08), (60, 0.05), (40, 0.35)]),
    *(nx.watts_strogatz_graph(n, 4, p, seed=n) for n, p in [(25, 0.0), (80, 0.1), (70, 0.5)]),
    *(nx.barabasi_albert_graph(n, m, seed=n) for n, m in [(50, 1), (90, 2), (130, 1)]),
    nx.disjoint_union_all([nx.path_graph(7), nx.cycle_graph(5), nx.empty_graph(3),
                           nx.star_graph(4)]),
    nx.watts_strogatz_graph(1000, 4, 0.0),  # diameter 250: many frontier steps
], ids=lambda g: f"n{g.number_of_nodes()}-e{g.number_of_edges()}")
def test_graph_diameter_matches_networkx(graph):
    assert graph_diameter(nx.to_numpy_array(graph)) == networkx_diameter(graph)


def test_dataset_statistics_hand_case():
    graphs = (
        make_graph(path_adjacency(2), 0, "a"),  # 1 edge, degrees (1,1)
        make_graph(path_adjacency(4), 1, "b"),  # 3 edges, mean degree 1.5
    )
    ds = GraphDataset(graphs, 2, graphs[0].feature_dim, "hand")
    rec = dataset_statistics(ds)
    assert rec.overall.graph_count == 2
    assert rec.overall.avg_graph_size == 3.0
    assert rec.overall.avg_degree == pytest.approx((1.0 + 1.5) / 2)
    assert rec.overall.avg_edge_count == 2.0
    assert rec.overall.min_size == 2 and rec.overall.max_size == 4
    assert rec.overall.node_std == pytest.approx(1.0)  # population std of {2, 4}
    assert rec.overall.avg_diameter == pytest.approx((1 + 3) / 2)
    assert rec.cross_scale_ratio == pytest.approx(2.0)
    assert [r.label for r in rec.per_class] == ["class-0", "class-1"]
    payload = rec.to_json()
    assert payload["overall"]["min_max_size"] == [2, 4]
