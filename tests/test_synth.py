import hashlib
import tracemalloc

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepool.errors import ConfigError, ContractViolationError, IngestionError
from wavepool.graphs import GraphDataset, load_tu_dataset
from wavepool.synth import (
    FAMILIES,
    ClassSpec,
    MsgConfig,
    build_msg,
    default_msg_classes,
    export_tu,
    gen_ba,
    gen_er,
    gen_ws,
    size_histogram,
    three_class_config,
)

from .conftest import make_graph, path_adjacency


def assert_simple(adj):
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)
    assert np.all((adj == 0) | (adj == 1))


# -- uniform random family ------------------------------------------------


def test_er_extreme_probabilities(rng):
    assert np.array_equal(gen_er(5, 0.0, rng), np.zeros((5, 5)))
    complete = gen_er(5, 1.0, rng)
    assert np.array_equal(complete, 1.0 - np.eye(5))


def test_er_validation(rng):
    with pytest.raises(ContractViolationError):
        gen_er(0, 0.5, rng)
    with pytest.raises(ContractViolationError):
        gen_er(5, 1.5, rng)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 30), p=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_er_always_simple(n, p, seed):
    assert_simple(gen_er(n, p, np.random.default_rng(seed)))


def test_er_edge_count_within_three_sigma():
    # 100 nodes, p = 0.2: 4950 pairs, mean 990, per-graph sigma ~ 28.1
    rng = np.random.default_rng(20240817)
    trials = 100
    counts = [gen_er(100, 0.2, rng).sum() / 2 for _ in range(trials)]
    sigma = np.sqrt(4950 * 0.2 * 0.8)
    assert abs(np.mean(counts) - 990.0) < 3.0 * sigma / np.sqrt(trials)


# -- ring-rewire family ---------------------------------------------------


def test_ws_zero_rewire_is_ring_lattice(rng):
    adj = gen_ws(8, 4, 0.0, rng)
    expected = np.zeros((8, 8))
    for offset in (1, 2):
        for i in range(8):
            expected[i, (i + offset) % 8] = expected[(i + offset) % 8, i] = 1.0
    assert np.array_equal(adj, expected)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(6, 40), p=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_ws_preserves_edge_count_exactly(n, p, seed):
    adj = gen_ws(n, 4, p, np.random.default_rng(seed))
    assert_simple(adj)
    assert adj.sum() / 2 == n * 4 // 2
    assert adj.sum(axis=1).mean() == 4.0  # mean degree exactly k


def test_ws_validation(rng):
    with pytest.raises(ContractViolationError):
        gen_ws(9, 3, 0.1, rng)  # odd k
    with pytest.raises(ContractViolationError):
        gen_ws(4, 4, 0.1, rng)  # k must stay below n


# -- preferential-attachment family ---------------------------------------


def test_ba_single_attachment_is_spanning_tree(rng):
    adj = gen_ba(10, 1, rng)
    assert_simple(adj)
    assert adj.sum() / 2 == 9
    assert nx.is_connected(nx.from_numpy_array(adj))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 30), m=st.integers(1, 3), seed=st.integers(0, 10_000))
def test_ba_edge_count_formula_and_connectivity(n, m, seed):
    if n <= m + 1:
        n = m + 2
    adj = gen_ba(n, m, np.random.default_rng(seed))
    assert_simple(adj)
    assert adj.sum() / 2 == m * (m + 1) // 2 + (n - m - 1) * m
    assert nx.is_connected(nx.from_numpy_array(adj))


def test_ba_mean_degree_range_for_benchmark_sizes(rng):
    # 2(n-1)/n lands in [1.9, 2.0) for every n >= 20
    for n in (20, 50, 200):
        adj = gen_ba(n, 1, rng)
        assert 1.9 <= adj.sum(axis=1).mean() < 2.0


def test_ba_validation(rng):
    with pytest.raises(ContractViolationError):
        gen_ba(3, 3, rng)
    with pytest.raises(ContractViolationError):
        gen_ba(5, 0, rng)


# -- class specifications -------------------------------------------------


def test_class_spec_validation():
    with pytest.raises(ConfigError, match="family"):
        ClassSpec(family="grid")
    with pytest.raises(ConfigError, match="count"):
        ClassSpec(family="er", count=0)
    with pytest.raises(ConfigError, match="size range"):
        ClassSpec(family="er", size_range=(2, 10))
    with pytest.raises(ConfigError, match="size range"):
        ClassSpec(family="er", size_range=(10, 2000))
    with pytest.raises(ConfigError, match="size range"):
        ClassSpec(family="er", size_range=(30, 20))
    assert FAMILIES == ("er", "ws", "ba", "empirical")


def test_default_benchmark_layout():
    classes = default_msg_classes()
    assert len(classes) == 6
    assert all(spec.count == 35 for spec in classes)
    assert sum(spec.count for spec in classes) == 210
    assert [spec.family for spec in classes] == ["empirical", "empirical", "er",
                                                 "ws", "empirical", "ba"]
    assert MsgConfig().classes == classes


def test_three_class_config_layout():
    cfg = three_class_config(per_class=60, size_range=(20, 200), seed=3)
    assert [spec.family for spec in cfg.classes] == ["er", "ws", "ba"]
    assert all(spec.count == 60 for spec in cfg.classes)
    assert all(spec.size_range == (20, 200) for spec in cfg.classes)
    assert cfg.name == "model3"
    assert cfg.seed == 3


# -- benchmark assembly ---------------------------------------------------


def small_build(per_class=4, seed=0):
    return build_msg(three_class_config(per_class=per_class,
                                        size_range=(6, 12), seed=seed))


def test_build_is_deterministic():
    a, b = small_build(), small_build()
    assert [g.id for g in a.graphs] == [g.id for g in b.graphs]
    for ga, gb in zip(a.graphs, b.graphs):
        assert np.array_equal(ga.adjacency, gb.adjacency)
        assert np.array_equal(ga.features, gb.features)


def test_build_per_graph_seeding_is_order_independent():
    # growing a class must not disturb the graphs already generated
    small, big = small_build(per_class=3), small_build(per_class=5)
    by_id = {g.id: g for g in big.graphs}
    for g in small.graphs:
        assert np.array_equal(by_id[g.id].adjacency, g.adjacency)


def test_build_seed_changes_graphs():
    a, b = small_build(seed=0), small_build(seed=1)
    assert any(
        ga.node_count != gb.node_count or not np.array_equal(ga.adjacency, gb.adjacency)
        for ga, gb in zip(a.graphs, b.graphs)
    )


def test_build_respects_size_range_with_family_minimums():
    ws_only = MsgConfig(classes=(
        ClassSpec(family="ws", count=3, size_range=(4, 4), k=4),
    ), seed=0, name="tiny")
    ds = build_msg(ws_only)
    assert all(g.node_count == 5 for g in ds.graphs)  # bumped to k + 1
    ba_only = MsgConfig(classes=(
        ClassSpec(family="ba", count=3, size_range=(4, 4), m=1),
    ), seed=0, name="tiny")
    assert all(g.node_count == 4 for g in build_msg(ba_only).graphs)


@pytest.mark.parametrize("spec", [dict(family="ws", k=1200), dict(family="ws", k=100_000),
                                  dict(family="ba", m=1000)],
                         ids=lambda spec: "-".join(map(str, spec.values())))
def test_family_minimum_past_the_size_ceiling_fails_at_construction(monkeypatch, spec):
    """The generator raises n to k + 1 (ws) or m + 2 (ba); past 1000 nodes
    the spec is rejected before any graph is drawn."""
    def unreachable(*args):
        raise AssertionError("a generator ran")

    monkeypatch.setattr("wavepool.synth.gen_ws", unreachable)
    monkeypatch.setattr("wavepool.synth.gen_ba", unreachable)
    with pytest.raises(ConfigError, match=", 998\\]"):
        build_msg(MsgConfig(classes=(ClassSpec(count=1, size_range=(8, 12), **spec),)))


def test_build_drops_unsourced_empirical_with_lite_label():
    with pytest.warns(UserWarning, match="-lite"):
        ds = build_msg(MsgConfig(seed=0))
    assert ds.name == "msg-lite"
    assert ds.class_count == 3
    assert len(ds.graphs) == 105  # three surviving classes, 35 each
    assert sorted({g.label for g in ds.graphs}) == [0, 1, 2]


def test_build_rejects_all_unsourced():
    cfg = MsgConfig(classes=(ClassSpec(family="empirical"),), seed=0)
    with pytest.raises(ConfigError, match="no classes left"):
        build_msg(cfg)


def test_build_empirical_class_from_exported_directory(tmp_path):
    export_tu(small_build(per_class=3), tmp_path / "src", "src")
    cfg = MsgConfig(classes=(
        ClassSpec(family="empirical", count=4, source=str(tmp_path / "src")),
        ClassSpec(family="er", count=2, size_range=(5, 8)),
    ), seed=0, name="mix")
    ds = build_msg(cfg)
    assert ds.class_count == 2
    labels = [g.label for g in ds.graphs]
    assert labels.count(0) == 4 and labels.count(1) == 2
    assert ds.name == "mix"


def test_build_empirical_count_capped_with_warning(tmp_path):
    export_tu(small_build(per_class=2), tmp_path / "src", "src")
    cfg = MsgConfig(classes=(
        ClassSpec(family="empirical", count=50, source=str(tmp_path / "src")),
        ClassSpec(family="er", count=2, size_range=(5, 8)),
    ), seed=0, name="mix")
    with pytest.warns(UserWarning, match="using all"):
        ds = build_msg(cfg)
    assert [g.label for g in ds.graphs].count(0) == 6


def test_build_empirical_missing_source_raises(tmp_path):
    cfg = MsgConfig(classes=(
        ClassSpec(family="empirical", count=2, source=str(tmp_path / "nope")),
    ), seed=0)
    with pytest.raises(IngestionError, match="class 0: cannot load"):
        build_msg(cfg)


def test_build_empirical_undecodable_source_raises(tmp_path):
    export_tu(small_build(per_class=2), tmp_path / "src", "src")
    (tmp_path / "src" / "src_graph_labels.txt").write_bytes(b"0\n\xff\n")
    cfg = MsgConfig(classes=(
        ClassSpec(family="empirical", count=2, source=str(tmp_path / "src")),
    ), seed=0)
    with pytest.raises(IngestionError, match="class 0: cannot load.*src_graph_labels.txt"):
        build_msg(cfg)


# -- text export ----------------------------------------------------------


def test_export_roundtrip_exact(tmp_path):
    ds = small_build(per_class=3)
    export_tu(ds, tmp_path / "out", "bench")
    loaded = load_tu_dataset(tmp_path / "out")
    assert len(loaded.graphs) == len(ds.graphs)
    assert loaded.class_count == ds.class_count
    for original, restored in zip(ds.graphs, loaded.graphs):
        assert np.array_equal(original.adjacency, restored.adjacency)
        assert np.array_equal(original.features, restored.features)
        assert original.label == restored.label


def test_export_is_byte_deterministic(tmp_path):
    ds = small_build(per_class=3)
    export_tu(ds, tmp_path / "a", "bench")
    export_tu(ds, tmp_path / "b", "bench")
    for suffix in ("_A.txt", "_graph_indicator.txt", "_graph_labels.txt",
                   "_node_attributes.txt"):
        a = (tmp_path / "a" / f"bench{suffix}").read_bytes()
        b = (tmp_path / "b" / f"bench{suffix}").read_bytes()
        assert a == b


def test_export_lists_both_edge_directions(tmp_path):
    ds = GraphDataset((make_graph(path_adjacency(2), 0, "g1"),
                       make_graph(path_adjacency(2), 1, "g2")), 2,
                      make_graph(path_adjacency(2)).feature_dim, "two")
    export_tu(ds, tmp_path, "two")
    lines = (tmp_path / "two_A.txt").read_text().splitlines()
    assert lines == ["1, 2", "2, 1", "3, 4", "4, 3"]


def test_export_of_graphs_without_edges_writes_one_blank_line(tmp_path):
    single = make_graph(np.zeros((1, 1)))
    ds = GraphDataset((single, make_graph(np.zeros((1, 1)), 1)), 2, single.feature_dim, "bare")
    export_tu(ds, tmp_path, "bare")
    assert (tmp_path / "bare_A.txt").read_bytes() == b"\n"
    assert (tmp_path / "bare_graph_indicator.txt").read_bytes() == b"1\n2\n"
    loaded = load_tu_dataset(tmp_path)
    assert [g.edge_count for g in loaded.graphs] == [0, 0]


# SHA-256 of each file export_tu writes for small_build(per_class=3), recorded
# before the exporter streamed; the text format is pinned byte for byte
EXPORT_DIGESTS = {
    "bench_A.txt": "f88affff5dbe70a061e222b59747aad29070a3df8d58eabd523d8f3f0e313110",
    "bench_graph_indicator.txt": "cadc2a0f238e9518c7f40f6ddd7fb95b07f8e7d0759c1186b5b1df0fa4f623b7",
    "bench_graph_labels.txt": "9a2e23c652fbe65406186c344a048f37edab3b8f8cc54beb587d241fae8ec58f",
    "bench_node_attributes.txt":
        "0bda152f642acfc8ca386eca676c977cf36dff327f5482d8dee20a9cdd28a5ef",
}


def test_export_bytes_are_pinned(tmp_path):
    export_tu(small_build(per_class=3), tmp_path, "bench")
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == EXPORT_DIGESTS


@pytest.fixture(scope="module")
def corpus_60():
    """60 graphs of the criterion-06 families, 20 to 200 nodes."""
    return build_msg(three_class_config(per_class=20, size_range=(20, 200), seed=0))


def traced_peak(run):
    """run()'s result and the peak of the bytes tracemalloc saw allocated
    while it ran, above what was allocated when it began."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_export_peak_memory_stays_below_the_bytes_it_writes(corpus_60, tmp_path):
    """Memory guard: the exporter writes each graph as it reaches it."""
    _, peak = traced_peak(lambda: export_tu(corpus_60, tmp_path, "m"))
    written = sum(path.stat().st_size for path in tmp_path.iterdir())
    assert peak < written


def test_load_peak_memory_stays_near_the_graphs_it_returns(corpus_60, tmp_path):
    """Memory guard: loading an exported corpus of 60 graphs peaks at no
    more than 1.5 times the bytes of the graphs it returns."""
    export_tu(corpus_60, tmp_path, "m")
    loaded, peak = traced_peak(lambda: load_tu_dataset(tmp_path))
    assert len(loaded.graphs) == len(corpus_60.graphs)
    returned = sum(g.adjacency.nbytes + g.features.nbytes for g in loaded.graphs)
    assert peak <= 1.5 * returned


# -- histogram ------------------------------------------------------------


def test_size_histogram_hand_case():
    graphs = (make_graph(path_adjacency(2), 0, "a"),
              make_graph(path_adjacency(4), 1, "b"))
    ds = GraphDataset(graphs, 2, graphs[0].feature_dim, "hand")
    counts, edges = size_histogram(ds, bins=2)
    assert counts.tolist() == [1, 1]
    assert edges.tolist() == [2.0, 3.0, 4.0]
