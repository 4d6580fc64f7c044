import gc

import numpy as np
import pytest

from wavepool import lanes
from wavepool.graphs import Graph, GraphDataset, degree_onehot_features


@pytest.fixture(autouse=True, scope="module")
def no_lane_worker_outlives_its_module(request):
    """Every lane worker a test module forks is reaped by the time the
    module's objects are collected: a model's worker goes with the model."""
    yield
    gc.collect()
    left = sorted(worker.pid for worker in lanes._LIVE)
    assert not left, f"{request.module.__name__} left lane workers alive: pids {left}"


def path_adjacency(n: int) -> np.ndarray:
    adj = np.zeros((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    return adj


def cycle_adjacency(n: int) -> np.ndarray:
    adj = path_adjacency(n)
    adj[0, n - 1] = adj[n - 1, 0] = 1.0
    return adj


def make_graph(adj: np.ndarray, label: int = 0, graph_id: str = "") -> Graph:
    return Graph(
        adjacency=adj,
        features=degree_onehot_features(adj),
        label=label,
        id=graph_id,
    )


def toy_dataset(per_class: int = 10, seed: int = 0) -> GraphDataset:
    """Small 2-class set: paths vs cycles of varying size."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(per_class):
        n = int(rng.integers(5, 12))
        graphs.append(make_graph(path_adjacency(n), 0, f"path-{i}"))
        m = int(rng.integers(5, 12))
        graphs.append(make_graph(cycle_adjacency(m), 1, f"cycle-{i}"))
    return GraphDataset(
        graphs=tuple(graphs),
        class_count=2,
        feature_dim=graphs[0].feature_dim,
        name="toy",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
