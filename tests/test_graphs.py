import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
