import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepool import autodiff as ad
from wavepool import model as model_module
from wavepool.errors import ContractViolationError, FormatError
from wavepool.graphs import Graph, GraphDataset, degree_onehot_features
from wavepool.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    VARIANTS,
    CrossScaleModel,
    ModelConfig,
    config_from_dict,
    config_to_dict,
    init_parameters,
    load_checkpoint,
    mid_pool_size,
    model_from_checkpoint,
    parameter_shapes,
    save_checkpoint,
)
from wavepool.spectral import ORDER_MAX, normalized_laplacian, wavelet_bases
from wavepool.training import evaluate_accuracy, graph_loss

from . import per_op as ops
from .conftest import cycle_adjacency, make_graph, path_adjacency
from .fdcheck import central_difference, max_rel_error


def small_config(variant="wavelet_spectral", **overrides):
    base = dict(
        feature_dim=2, class_count=2, variant=variant, n_max=12, m_out=2,
        scales=(1.0,), order=6, activation="identity",
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_graph(n, width, rng, label=0, graph_id=""):
    upper = np.triu(rng.random((n, n)) < 0.4, 1).astype(float)
    adj = upper + upper.T
    return Graph(adj, rng.standard_normal((n, width)), label, id=graph_id)


# -- configuration --------------------------------------------------------


def test_variant_tuple_reporting_order():
    assert VARIANTS == ("gcn_diffpool", "gcn_spectral", "wavelet_diffpool",
                        "wavelet_spectral")


def test_config_validation():
    with pytest.raises(ContractViolationError, match="variant"):
        small_config(variant="mystery_net")
    with pytest.raises(ContractViolationError):
        small_config(feature_dim=0)
    with pytest.raises(ContractViolationError):
        small_config(class_count=1)
    with pytest.raises(ContractViolationError):
        small_config(n_max=3, m_out=4)
    with pytest.raises(ContractViolationError):
        small_config(scales=())
    with pytest.raises(ContractViolationError):
        small_config(scales=(1.0, -2.0))
    with pytest.raises(ContractViolationError):
        small_config(order=0)
    with pytest.raises(ContractViolationError):
        small_config(activation="tanh")


def test_order_above_the_cap_fails_at_construction():
    """Orders up to ``ORDER_MAX`` build a basis in both coefficient modes;
    one past it, or 100000 (whose quadrature table alone would take
    298 GiB), is refused before anything is allocated."""
    config = small_config(order=ORDER_MAX)
    for mode in ("fitted_kernel", "closed_form"):
        basis = wavelet_bases(normalized_laplacian(np.eye(4, k=1) + np.eye(4, k=-1)),
                              config.scales, config.order, mode)
        assert np.all(np.isfinite(basis.values))
    for order in (ORDER_MAX + 1, 100000):
        with pytest.raises(ContractViolationError, match=f"order must lie in .*got {order}"):
            small_config(order=order)


def test_mid_pool_size_values():
    assert mid_pool_size(16, 4) == 4
    assert mid_pool_size(100, 4) == 25
    assert mid_pool_size(5, 4) == 4  # floor at the output size
    assert mid_pool_size(1000, 4) == 250
    assert small_config(n_max=1000, m_out=4).mid_size_max == 250


def test_parameter_names_by_variant():
    spectral = tuple(sorted(parameter_shapes(small_config(scales=(1.0, 2.0)))))
    assert spectral == tuple(sorted([
        "gwc.theta.0", "gwc.theta.1", "gwc.bias", "pool1.theta", "pool2.theta",
        "gcn.weight", "classifier.weight", "classifier.bias",
    ]))
    diff = parameter_shapes(small_config(variant="gcn_diffpool"))
    assert "conv1.weight" in diff and "pool1.assign" in diff
    assert not any(name.startswith("gwc") for name in diff)


def test_init_parameters_shapes_and_determinism():
    cfg = small_config(scales=(1.0, 2.0), n_max=20, m_out=3)
    a = init_parameters(cfg, seed=7)
    b = init_parameters(cfg, seed=7)
    c = init_parameters(cfg, seed=8)
    assert set(a) == set(parameter_shapes(cfg))
    for name in a:
        assert np.array_equal(a[name], b[name])
    assert any(not np.array_equal(a[n], c[n]) for n in a)
    assert a["gwc.theta.0"].shape == (20, 20)
    assert a["pool1.theta"].shape == (cfg.mid_size_max, 20)
    assert a["pool2.theta"].shape == (3, cfg.mid_size_max)
    assert np.all(a["gwc.bias"] == 0.0)
    assert np.all(a["classifier.bias"] == 0.0)
    # node filters start near the identity
    limit = np.sqrt(6.0 / 40.0)
    assert np.max(np.abs(a["gwc.theta.0"] - np.eye(20))) <= limit


# SHA-256 over (name, float64 bytes) of every initial tensor in name order,
# for small_config(variant, scales=(1.0, 2.0), n_max=20, m_out=3)
INIT_DIGESTS = {
    ("gcn_diffpool", 0): "6ce69e014676495ff1f4ca6ba9ac975727de01b578672b5bc143ea9c2569705b",
    ("gcn_diffpool", 7): "8b08bf0d8b67eba9d5b810a58918187c32afe25fbc5d1e9ab5b5430911e0e10c",
    ("gcn_spectral", 0): "006995ec318effbac97a0a6f2bf969af50402cc8c077a585b7506d82691e54e8",
    ("gcn_spectral", 7): "1f43d86d5e2344291865ef325cd5729c5d2209553322e92f6e4f31a2287aa0c1",
    ("wavelet_diffpool", 0): "22d3a98892e2a8bde2afb2f33ae132089f2c1236c27d8f0218a1527359862719",
    ("wavelet_diffpool", 7): "6272081db6e92eb119c9699d671015c7c3c849a6893be5a27dc378f828487120",
    ("wavelet_spectral", 0): "5d44f4ab6d379faffb77c1d96b27717bbbedd2f085b4f8702a3d70ee973821c7",
    ("wavelet_spectral", 7): "2ccc2c1e062157490330ebf88c053180badc5a44973a5b2acb611faa348e56d0",
}


@pytest.mark.parametrize("variant, seed", sorted(INIT_DIGESTS))
def test_init_parameters_draw_recorded_tensors(variant, seed):
    cfg = small_config(variant=variant, scales=(1.0, 2.0), n_max=20, m_out=3)
    digest = hashlib.sha256()
    for name, tensor in sorted(init_parameters(cfg, seed).items()):
        digest.update(name.encode())
        digest.update(tensor.tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[variant, seed]


@pytest.mark.parametrize("variant", VARIANTS)
def test_parameter_shapes_match_initial_tensors(variant):
    cfg = small_config(variant=variant, scales=(1.0, 2.0), n_max=20, m_out=3)
    tensors = init_parameters(cfg, seed=0)
    assert {name: t.shape for name, t in tensors.items()} == parameter_shapes(cfg)


# -- forward pass ---------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_all_variants(variant, rng):
    cfg = small_config(variant=variant)
    model = CrossScaleModel(cfg, seed=0)
    graph = random_graph(12, 2, rng)
    result = model.forward(graph)
    assert result.logits.value.shape == (2,)
    assert np.all(np.isfinite(result.logits.value))
    # 12 nodes pool to ceil(12/4) = 3, then to m_out = 2: two stages
    assert len(result.stages) == 2
    assert len(result.pooled_adjacencies) == 2
    assert result.pooled_adjacencies[0].value.shape == (3, 3)
    assert result.pooled_adjacencies[1].value.shape == (2, 2)
    # every assignment is m x n, one row per pooled node
    assert [st.assignment.value.shape for st in result.stages] == [(3, 12), (2, 3)]
    assert result.prediction in (0, 1)


def test_forward_single_stage_when_quarter_hits_m_out(rng):
    model = CrossScaleModel(small_config(n_max=8, m_out=2), seed=1)
    graph = random_graph(8, 2, rng)  # ceil(8/4) = 2 = m_out: one pooling stage
    result = model.forward(graph)
    assert len(result.stages) == 1
    assert result.pooled_adjacencies[0].value.shape == (2, 2)


def test_forward_small_graph_pads_features(rng):
    model = CrossScaleModel(small_config(m_out=4), seed=0)
    graph = make_graph(path_adjacency(2))
    graph = Graph(graph.adjacency, np.ones((2, 2)), 0)
    result = model.forward(graph)
    assert result.stages == []
    assert result.logits.value.shape == (2,)


def test_forward_exact_m_out_skips_pooling(rng):
    model = CrossScaleModel(small_config(m_out=4), seed=0)
    graph = random_graph(4, 2, rng)
    result = model.forward(graph)
    assert result.stages == []
    assert result.logits.value.shape == (2,)


def test_forward_size_and_width_gates(rng):
    model = CrossScaleModel(small_config(), seed=0)
    with pytest.raises(ContractViolationError, match="nodes"):
        model.forward(random_graph(13, 2, rng))
    with pytest.raises(ContractViolationError, match="width"):
        model.forward(random_graph(6, 3, rng))


def test_forward_deterministic_across_instances(rng):
    graph = random_graph(10, 2, rng)
    a = CrossScaleModel(small_config(), seed=3).forward(graph)
    b = CrossScaleModel(small_config(), seed=3).forward(graph)
    assert np.array_equal(a.logits.value, b.logits.value)


# -- parameter management -------------------------------------------------


def test_constructor_rejects_wrong_tensor_names():
    cfg = small_config()
    tensors = init_parameters(cfg, 0)
    tensors["rogue"] = np.zeros(3)
    with pytest.raises(ContractViolationError, match="rogue"):
        CrossScaleModel(cfg, tensors=tensors)
    tensors = init_parameters(cfg, 0)
    del tensors["gcn.weight"]
    with pytest.raises(ContractViolationError, match="gcn.weight"):
        CrossScaleModel(cfg, tensors=tensors)


def test_constructor_rejects_wrong_tensor_shape():
    cfg = small_config(n_max=10)
    tensors = init_parameters(cfg, 0)
    tensors["gwc.theta.0"] = np.eye(4)
    with pytest.raises(ContractViolationError, match=r"gwc\.theta\.0"):
        CrossScaleModel(cfg, tensors=tensors)


def test_state_roundtrip_and_isolation(rng):
    model = CrossScaleModel(small_config(), seed=0)
    graph = random_graph(10, 2, rng)
    before = model.forward(graph).logits.value
    snapshot = model.state()
    snapshot["gcn.weight"][0, 0] += 99.0  # mutating the copy must not leak
    assert np.array_equal(model.forward(graph).logits.value, before)
    model.load_state(snapshot)
    assert not np.array_equal(model.forward(graph).logits.value, before)


def test_load_state_validation():
    model = CrossScaleModel(small_config(), seed=0)
    state = model.state()
    state["gcn.weight"] = np.zeros((3, 3))
    with pytest.raises(ContractViolationError, match="gcn.weight"):
        model.load_state(state)
    with pytest.raises(ContractViolationError, match="names"):
        model.load_state({"gcn.weight": np.zeros((2, 2))})


@pytest.mark.parametrize("variant, names", [
    ("wavelet_spectral", ["gwc.theta.0", "pool2.theta"]),
    ("gcn_diffpool", ["classifier.bias", "pool1.assign"]),
])
def test_constructor_and_load_state_reject_non_finite_tensors(variant, names):
    cfg = small_config(variant=variant)
    tensors = init_parameters(cfg, 0)
    for name, bad in zip(names, (np.nan, np.inf)):
        tensors[name].flat[-1] = bad
    pattern = r"\[" + ", ".join(f"'{name}'" for name in sorted(names)) + r"\] .*non-finite"
    with pytest.raises(ContractViolationError, match=pattern):
        CrossScaleModel(cfg, tensors=tensors)
    model = CrossScaleModel(cfg, seed=0)
    before = model.state()
    with pytest.raises(ContractViolationError, match=pattern):
        model.load_state(tensors)
    for name, value in model.state().items():  # a rejected state changes nothing
        assert np.array_equal(value, before[name])


def test_basis_memo_on_graph(rng):
    first = CrossScaleModel(small_config(), seed=0)
    second = CrossScaleModel(small_config(), seed=1)
    named = random_graph(6, 2, rng, graph_id="g1")
    inputs = first.inputs_for(named)
    assert second.inputs_for(named).wavelets is inputs.wavelets
    # the entry holds U, p_f(lambda) and psi_f^+ X on X's non-zero columns;
    # n > m_out, so no raw-graph GCN
    basis = wavelet_bases(normalized_laplacian(named.adjacency), (1.0,), 6)
    assert inputs.renormalized is None
    wavelets = inputs.wavelets
    assert np.array_equal(wavelets.eigvecs, basis.eigvecs)
    assert np.array_equal(wavelets.kernel, basis.values)
    assert np.array_equal(wavelets.columns, named.features.any(axis=0))
    dense = basis.psi_pinv(0) @ named.features[:, wavelets.columns]
    assert np.max(np.abs(wavelets.projected[:, 0] - dense)) <= 1e-13 * np.max(np.abs(dense))
    # same id, different adjacency: the memo lives on the graph, not the id
    twin = Graph(cycle_adjacency(6), named.features, 0, id="g1")
    assert not np.array_equal(first.inputs_for(twin).wavelets.kernel, wavelets.kernel)
    anonymous = random_graph(6, 2, rng, graph_id="")
    assert first.inputs_for(anonymous).wavelets is first.inputs_for(anonymous).wavelets
    seventh = wavelet_bases(normalized_laplacian(named.adjacency), (1.0,), 7)
    fresh = CrossScaleModel(small_config(order=7)).inputs_for(named)
    assert np.array_equal(fresh.wavelets.kernel, seventh.values)


def test_memo_keeps_one_projected_column_for_a_regular_graph():
    """Every node of a 4-regular ring has degree 4, so its one-hot degree
    features use one column and each scale projects that column alone."""
    n = 10
    ring = sum(np.roll(np.eye(n), shift, axis=1) for shift in (1, 2, -1, -2))
    graph = make_graph(ring)
    model = CrossScaleModel(small_config(feature_dim=graph.feature_dim,
                                         scales=(1.0, 2.0, 3.0)), seed=0)
    wavelets = model.inputs_for(graph).wavelets
    assert np.flatnonzero(wavelets.columns).tolist() == [4]
    assert wavelets.kernel.shape == (n, 3)
    assert wavelets.projected.shape == (n, 3, 1)


@pytest.mark.parametrize("variant", VARIANTS)
def test_memoised_inputs_are_read_only(variant, rng):
    model = CrossScaleModel(small_config(variant, scales=(1.0, 2.0)), seed=0)
    for n in (2, 7):  # the n <= m_out branch and the pooled one
        inputs = model.inputs_for(random_graph(n, 2, rng))
        arrays = [*(inputs.wavelets or ()), *(inputs.gcn or ()), *(inputs.renormalized or ())]
        assert arrays
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 1.0


@pytest.mark.parametrize("variant", ["wavelet_diffpool", "wavelet_spectral"])
def test_wavelet_memo_holds_one_square_array(variant, rng):
    """The wavelet operand keeps U as its one n x n array, plus n floats per
    scale for p_f(lambda) and n per scale and kept column for psi_f^+ X: no
    dense psi_f or psi_f^+ is stored. Only wavelet_diffpool adds the
    renormalized adjacency, in its own entry: the graph's own A and n floats,
    no n x n array of its own. Every memoised array is read-only."""
    model = CrossScaleModel(small_config(variant, scales=(1.0, 2.0, 3.0)), seed=0)
    n = 9
    graph = random_graph(n, 2, rng)
    inputs = model.inputs_for(graph)
    k = int(np.count_nonzero(graph.features.any(axis=0)))
    assert sum(a.size for a in inputs.wavelets) == n * n + 3 * n + graph.feature_dim + 3 * n * k
    stored = [array for _, value in graph._memo.values() for array in value
              if array is not graph.adjacency]
    square = [a for a in stored if a.shape == (n, n)]
    assert len(square) == 1 and square[0] is inputs.wavelets.eigvecs
    if variant == "wavelet_diffpool":
        assert inputs.renormalized.adjacency is graph.adjacency
        assert inputs.renormalized.scale.shape == (n, 1)
    assert not any(a.flags.writeable for a in stored)


def test_wavelet_diffpool_builds_each_graph_entry_once(rng, monkeypatch):
    """Each operand is built once per graph, and the wavelet operand is
    shared by both wavelet variants when their settings agree."""
    calls = {"bases": 0, "renormalize": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(model_module, "wavelet_bases",
                        counted("bases", model_module.wavelet_bases))
    monkeypatch.setattr(model_module, "renormalize",
                        counted("renormalize", model_module.renormalize))
    model = CrossScaleModel(small_config("wavelet_diffpool"), seed=0)
    graphs = [random_graph(n, 2, rng) for n in (2, 5, 9)]
    for _ in range(2):
        for graph in graphs:
            model.forward(graph)
    assert calls == {"bases": 3, "renormalize": 3}
    spectral = CrossScaleModel(small_config("wavelet_spectral"), seed=0)
    for graph in graphs:
        spectral.forward(graph)
        model.forward(graph)
    assert calls == {"bases": 3, "renormalize": 3}


def test_gcn_operand_is_a_propagated_on_the_non_zero_columns(rng):
    """The GCN operand holds Â X[:, columns] for X's non-zero columns
    (within 1e-13 of the product with the renormalized adjacency), read-only."""
    n = 11
    adjacency = random_graph(n, 1, rng).adjacency
    for x in (degree_onehot_features(adjacency, cap=6), rng.standard_normal((n, 7))):
        graph = Graph(adjacency, x, 0)
        model = CrossScaleModel(small_config("gcn_spectral", feature_dim=x.shape[1]), seed=0)
        operand = model.inputs_for(graph).gcn
        assert np.array_equal(operand.columns, x.any(axis=0))
        dense = ops.renormalized(ad.constant(adjacency)).value @ x[:, operand.columns]
        assert operand.propagated.shape == dense.shape
        assert np.max(np.abs(operand.propagated - dense)) <= 1e-13 * np.max(np.abs(dense))
        for array in operand:
            assert not array.flags.writeable


def test_gcn_variants_build_each_graph_entry_once(rng, monkeypatch):
    """The GCN operand is built once per graph and shared by both GCN
    variants; the renormalized adjacency is built only where a variant reads
    it: always for gcn_diffpool, for n <= m_out alone for gcn_spectral."""
    calls = {"gcn_input": 0, "renormalize": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(model_module, name, counted(name, getattr(model_module, name)))
    diffpool = CrossScaleModel(small_config("gcn_diffpool"), seed=0)
    spectral = CrossScaleModel(small_config("gcn_spectral"), seed=0)
    graphs = [random_graph(n, 2, rng) for n in (2, 5, 9)]
    for _ in range(2):
        for graph in graphs:
            spectral.forward(graph)
    assert calls == {"gcn_input": 3, "renormalize": 1}
    for graph in graphs:
        diffpool.forward(graph)
        spectral.forward(graph)
    assert calls == {"gcn_input": 3, "renormalize": 3}


@pytest.mark.parametrize("variant, renormalized", [("gcn_diffpool", 1), ("gcn_spectral", 0)])
def test_gcn_memo_keeps_only_what_the_variant_reads(variant, renormalized, rng):
    """On a pooled graph the GCN operand is n k + l floats, and DiffPool's
    first assignment adds the renormalized adjacency: the graph's own A and
    the n floats of d. Neither variant keeps an n x n array of its own, and
    every memoised array is read-only."""
    model = CrossScaleModel(small_config(variant, feature_dim=8), seed=0)
    n = 9
    adjacency = random_graph(n, 1, rng).adjacency
    graph = Graph(adjacency, degree_onehot_features(adjacency, cap=7), 0)
    inputs = model.inputs_for(graph)
    k = int(np.count_nonzero(graph.features.any(axis=0)))
    assert k < graph.feature_dim
    assert sum(a.size for a in inputs.gcn) == n * k + graph.feature_dim
    assert (inputs.renormalized is not None) == renormalized
    if renormalized:
        assert inputs.renormalized.adjacency is graph.adjacency
        assert inputs.renormalized.scale.shape == (n, 1)
    stored = [array for _, value in graph._memo.values() for array in value
              if array is not graph.adjacency]
    assert not any(n * n <= a.size for a in stored)
    assert sum(a.size for a in stored) == n * k + graph.feature_dim + renormalized * n
    assert not any(a.flags.writeable for a in stored)


# -- checkpoints ----------------------------------------------------------


def test_config_dict_roundtrip():
    cfg = small_config(scales=(0.5, 1.5))
    assert config_from_dict(config_to_dict(cfg)) == cfg


@pytest.mark.parametrize("field, value", [("n_max", True), ("scales", "12"),
                                          ("softmax_rows", 1), ("scales", [1.0, float("nan")])])
def test_config_dict_type_faults_are_format_errors_naming_the_field(field, value):
    d = dict(config_to_dict(small_config()), **{field: value})
    with pytest.raises(FormatError, match=f"config.{field}"):
        config_from_dict(d)


def test_checkpoint_roundtrip(tmp_path, rng):
    cfg = small_config(scales=(1.0, 2.0))
    model = CrossScaleModel(cfg, seed=5)
    path = tmp_path / "model.bin"
    save_checkpoint(path, cfg, model.state(), extra={"note": "fit", "epoch": 3})
    loaded_cfg, tensors, extra = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert extra == {"note": "fit", "epoch": 3}
    for name, value in model.state().items():
        assert np.array_equal(tensors[name], value)
    graph = random_graph(9, 2, rng)
    restored = model_from_checkpoint(path)
    assert np.array_equal(restored.forward(graph).logits.value,
                          model.forward(graph).logits.value)


def save_with_removed_settings(monkeypatch, path, model, **removed):
    """``save_checkpoint`` as it wrote while ``ModelConfig`` still had
    ``basis_mode`` and ``softmax_rows``: their values sit in its config."""
    to_dict = model_module.config_to_dict
    monkeypatch.setattr(model_module, "config_to_dict", lambda cfg: dict(to_dict(cfg), **removed))
    save_checkpoint(path, model.config, model.state())


@pytest.mark.parametrize("basis_mode", ["fitted_kernel", "closed_form"])
def test_a_checkpoint_with_the_removed_settings_loads(tmp_path, monkeypatch, rng, basis_mode):
    """Either coefficient mode and the row softmax on load as today's model,
    which fits the coefficients by quadrature."""
    cfg = small_config(scales=(1.0, 2.0))
    model = CrossScaleModel(cfg, seed=5)
    path = tmp_path / "model.bin"
    save_with_removed_settings(monkeypatch, path, model, basis_mode=basis_mode,
                               softmax_rows=True)
    assert b'"softmax_rows": true' in path.read_bytes()
    assert load_checkpoint(path)[0] == cfg
    graph = random_graph(9, 2, rng)
    assert np.array_equal(model_from_checkpoint(path).forward(graph).logits.value,
                          model.forward(graph).logits.value)


@pytest.mark.parametrize("key, value", [("softmax_rows", False), ("softmax_rows", 1),
                                        ("basis_mode", "magic")])
def test_a_removed_setting_the_model_cannot_honour_is_a_format_error(tmp_path, monkeypatch,
                                                                    key, value):
    path = tmp_path / "model.bin"
    removed = dict({"basis_mode": "fitted_kernel", "softmax_rows": True}, **{key: value})
    save_with_removed_settings(monkeypatch, path, CrossScaleModel(small_config()), **removed)
    with pytest.raises(FormatError, match=f"config.{key}"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"JUNKxxxxxxxxxxxx")
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    cfg = small_config()
    path = tmp_path / "model.bin"
    save_checkpoint(path, cfg, CrossScaleModel(cfg).state())
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation_and_trailing(tmp_path):
    cfg = small_config()
    path = tmp_path / "model.bin"
    save_checkpoint(path, cfg, CrossScaleModel(cfg).state())
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)
    path.write_bytes(data + b"\x00" * 8)
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)
    path.write_bytes(data[:10])
    with pytest.raises(FormatError, match="header"):
        load_checkpoint(path)


@pytest.mark.parametrize("manifest", [
    {"config": {"feature_dim": 2, "class_count": 2}},                  # no tensors
    {"tensors": {}},                                                   # no config
    {"tensors": {}, "config": {"feature_dim": 2, "class_count": 2, "colour": 1}},
    {"tensors": {}, "config": {"feature_dim": 2}},                     # missing field
    {"tensors": {"w": "ab"}, "config": {"feature_dim": 2, "class_count": 2}},
    {"tensors": {"w": [-1]}, "config": {"feature_dim": 2, "class_count": 2}},
    {"tensors": [], "config": {"feature_dim": 2, "class_count": 2}},
    {"tensors": {}, "config": 5},
    [],
])
def test_checkpoint_rejects_malformed_manifest(tmp_path, manifest):
    blob = json.dumps(manifest).encode("utf-8")
    path = tmp_path / "model.bin"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob)
    with pytest.raises(FormatError):
        load_checkpoint(path)


# -- end-to-end gradients -------------------------------------------------


def test_model_gradients_match_finite_differences(rng):
    cfg = small_config()  # identity activation keeps the loss smooth
    model = CrossScaleModel(cfg, seed=2)
    graph = random_graph(12, 2, rng, graph_id="fd")

    def loss_value() -> float:
        return float(ops.frobenius_norm(model.forward(graph).logits).value)

    for var in model.params.values():
        var.grad = None
    ad.backward(ops.frobenius_norm(model.forward(graph).logits))

    for name, var in model.params.items():
        x0 = var.value.copy()

        def probe(x, var=var):
            var.value = np.asarray(x, dtype=float)
            out = loss_value()
            return out

        numeric = central_difference(lambda x: probe(x), x0)
        var.value = x0
        err = max_rel_error(var.grad if var.grad is not None else np.zeros_like(x0),
                            numeric)
        assert err < 1e-4, f"{name}: gradient error {err}"


def test_checkpoint_rejects_tensors_that_do_not_fit_the_config(tmp_path):
    cfg = small_config()
    state = CrossScaleModel(cfg).state()
    path = tmp_path / "model.bin"
    transposed = dict(state, **{"gcn.weight": np.zeros((2, 3))})
    save_checkpoint(path, cfg, transposed)
    with pytest.raises(FormatError, match="gcn.weight"):
        load_checkpoint(path)
    renamed = {("pool9.theta" if name == "pool2.theta" else name): value
               for name, value in state.items()}
    save_checkpoint(path, cfg, renamed)
    with pytest.raises(FormatError, match="pool2.theta"):
        load_checkpoint(path)
    save_checkpoint(path, small_config(variant="gcn_spectral"), state)
    with pytest.raises(FormatError, match="gcn_spectral"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    cfg = small_config(scales=(1.0, 2.0))
    path = tmp_path_factory.mktemp("checkpoint") / "model.bin"
    save_checkpoint(path, cfg, CrossScaleModel(cfg, seed=5).state(), extra={"epoch": 3})
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_checkpoint_is_format_error_or_loads(checkpoint_file, data):
    """Truncation at any length, or one flipped bit in the header or the
    manifest, either raises FormatError or yields a model that loads."""
    original = checkpoint_file.read_bytes()
    (blob_len,) = struct.unpack_from("<I", original, 8)
    if data.draw(st.booleans(), label="truncate"):
        corrupted = original[:data.draw(st.integers(0, len(original) - 1), label="length")]
    else:
        position = data.draw(st.integers(0, 12 + blob_len - 1), label="byte")
        corrupted = bytearray(original)
        corrupted[position] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    path = checkpoint_file.with_name("corrupted.bin")
    path.write_bytes(bytes(corrupted))
    try:
        model = model_from_checkpoint(path)
    except FormatError:
        return
    assert set(model.params) == set(parameter_shapes(model.config))


# -- fused stages and tape-free inference ---------------------------------

# node counts on each side of m_out = 3: two pooling stages, one, none
# (n = m_out) and zero-padded (n < m_out)
SIZES = (17, 9, 3, 2)


def close_relative(a, b, tol=1e-10):
    return np.max(np.abs(a - b)) <= tol * max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("variant", VARIANTS)
def test_fused_pipeline_matches_per_op_composition(variant, rng):
    """Forward values are bit-identical to the per-op pipeline; the loss and
    every parameter gradient agree within 1e-10 relative."""
    cfg = small_config(variant=variant, n_max=20, m_out=3, scales=(1.0, 2.0),
                       activation="relu")
    for n in SIZES:
        graph = random_graph(n, 2, rng, label=n % 2)
        runs = []
        for forward, loss in ((model_module.CrossScaleModel.forward, graph_loss),
                              (ops.forward, ops.graph_loss)):
            model = CrossScaleModel(cfg, seed=3)
            result = forward(model, graph)
            total = loss(result, graph.label, 2, 0.3)
            total = total[0] if isinstance(total, tuple) else total
            ad.backward(total)
            runs.append((result, total, model))
        (fused, fused_total, fused_model), (ref, ref_total, ref_model) = runs
        assert np.array_equal(fused.logits.value, ref.logits.value)
        for a, b in zip(fused.stages, ref.stages):
            assert np.array_equal(a.assignment.value, b.assignment.value)
            assert np.array_equal(a.adjacency.value, b.adjacency.value)
        assert float(fused_total.value) == pytest.approx(float(ref_total.value), rel=1e-12)
        for name, param in fused_model.params.items():
            expected = ref_model.params[name].grad
            if expected is None:
                assert param.grad is None, (n, name)
            else:
                assert close_relative(param.grad, expected), (n, name)


@pytest.mark.parametrize("variant", ["wavelet_diffpool", "wavelet_spectral"])
@pytest.mark.parametrize("features", ["degrees", "dense", "zero"])
def test_wavelet_pipeline_matches_dense_formula(variant, features, rng, monkeypatch):
    """The pipeline agrees with one whose convolution forms
    act(psi_f theta_f psi_f^+ X + bias) from the dense psi_f and psi_f^+:
    logits and loss within 1e-12 relative, every parameter gradient within
    1e-10 of its largest entry. Applying psi_f through U and p_f(lambda)
    changes only rounding. All-zero features (k = 0) agree exactly."""
    cfg = small_config(variant=variant, feature_dim=8, n_max=20, m_out=3,
                       scales=(1.0, 2.0, 3.0), order=16, activation="relu")
    for n in SIZES:
        adj = random_graph(n, 1, rng).adjacency
        x = {"degrees": degree_onehot_features(adj, cap=6),
             "dense": rng.standard_normal((n, 8)), "zero": np.zeros((n, 8))}[features]
        graph = Graph(adj, x, label=n % 2)
        bases = wavelet_bases(normalized_laplacian(adj), cfg.scales, cfg.order)
        runs = []
        for dense in (False, True):
            if dense:
                monkeypatch.setattr(model_module, "gwc_forward", ops.dense_gwc_forward(bases, x))
            model = CrossScaleModel(cfg, seed=3)
            result = model.forward(graph)
            total, _ = graph_loss(result, graph.label, 2, 0.3)
            ad.backward(total)
            runs.append((result.logits.value, float(total.value), model.params))
        (logits, loss, params), (ref_logits, ref_loss, ref_params) = runs
        assert close_relative(logits, ref_logits, 1e-12), n
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        for name, param in params.items():
            expected = ref_params[name].grad
            if expected is None:
                assert param.grad is None, (n, name)
            elif features == "zero" or not expected.any():
                assert np.array_equal(param.grad, expected), (n, name)
            else:
                assert close_relative(param.grad, expected), (n, name)
        monkeypatch.undo()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("features", ["degrees", "dense", "zero"])
def test_gcn_pipeline_matches_dense_formula(variant, features, rng, monkeypatch):
    """The pipeline agrees with one whose graph convolutions and DiffPool
    assignments form (Â X) W from the whole of X, and whose structure term
    forms ||A - S^T S||_F at every stage: logits and loss within 1e-12
    relative, every parameter gradient within 1e-10 of its largest entry.
    Taking Â X on X's non-zero columns, multiplying X W before Â and the
    first stage's term from S A change only rounding."""
    cfg = small_config(variant=variant, feature_dim=8, n_max=20, m_out=3,
                       scales=(1.0, 2.0), activation="relu")
    for n in SIZES:
        adj = random_graph(n, 1, rng).adjacency
        x = {"degrees": degree_onehot_features(adj, cap=6),
             "dense": rng.standard_normal((n, 8)), "zero": np.zeros((n, 8))}[features]
        graph = Graph(adj, x, label=n % 2)
        runs = []
        for dense in (False, True):
            loss = graph_loss
            if dense:
                forward, assign = ops.dense_gcn(adj, x)
                monkeypatch.setattr(model_module, "gcn_forward", forward)
                monkeypatch.setattr(model_module, "diffpool_assign", assign)
                loss = ops.graph_loss
            model = CrossScaleModel(cfg, seed=3)
            result = model.forward(graph)
            total = loss(result, graph.label, 2, 0.3)
            total = total[0] if isinstance(total, tuple) else total
            ad.backward(total)
            runs.append((result.logits.value, float(total.value), model.params))
        (logits, loss, params), (ref_logits, ref_loss, ref_params) = runs
        assert close_relative(logits, ref_logits, 1e-12), n
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        for name, param in params.items():
            expected = ref_params[name].grad
            if expected is None:
                assert param.grad is None, (n, name)
            elif not expected.any():
                assert np.array_equal(param.grad, expected), (n, name)
            else:
                assert close_relative(param.grad, expected), (n, name)
        monkeypatch.undo()


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_records_no_tape(variant, rng, monkeypatch):
    cfg = small_config(variant=variant, m_out=3, activation="relu")
    model = CrossScaleModel(cfg, seed=4)
    graphs = [random_graph(n, 2, rng, label=n % 2) for n in (9, 3, 2)]
    expected = [model.forward(g).prediction for g in graphs]
    recorded = []
    original = ad.Var.__init__

    def recording(var, value, inputs=(), vjp=None, requires_grad=False):
        if inputs:
            recorded.append(var)
        original(var, value, inputs, vjp, requires_grad)

    monkeypatch.setattr(ad.Var, "__init__", recording)
    assert [model.predict(g) for g in graphs] == expected
    dataset = GraphDataset(graphs=tuple(graphs), class_count=2, feature_dim=2)
    correct = sum(p == g.label for p, g in zip(expected, graphs))
    assert evaluate_accuracy(model, dataset) == correct / len(graphs)
    assert recorded == []
    model.forward(graphs[0])  # the same pass outside no_grad records its stages
    assert recorded


# SHA-256 over the logits, the loss and every parameter gradient of one
# forward and backward pass per size in SIZES, plus one graph with one-hot
# degree features, some of whose columns are all zero; any change to the
# pipeline's arithmetic, or to which parameters a stage reads, changes these
PIPELINE_DIGESTS = {
    "gcn_diffpool": "2cd5dcfc8ef31476cec1fddc66f79767407359db26c0755f0d9d688d149e14ca",
    "gcn_spectral": "794395810a7768361fc1e2854814eb8447b6a885fe4c4e719a7527f67dfb38fd",
    "wavelet_diffpool": "938123cab4ed0b530b99198f5938c34ea478133f691d7cce08e24e35e7559ea7",
    "wavelet_spectral": "478d1d712987a018c242b2befcf404ce1109e36e2f30da85d0a1af4f003ec98a",
}


def pipeline_digest(variant):
    rng = np.random.default_rng(21)
    cfg = small_config(variant=variant, n_max=20, m_out=3, scales=(1.0, 2.0),
                       activation="relu")
    runs = [(cfg, random_graph(n, 2, rng, label=n % 2)) for n in SIZES]
    adjacency = random_graph(13, 1, rng).adjacency
    onehot = Graph(adjacency, degree_onehot_features(adjacency, cap=6), label=1)
    assert not onehot.features.any(axis=0).all()
    runs.append((replace(cfg, feature_dim=onehot.feature_dim), onehot))
    digest = hashlib.sha256()
    for config, graph in runs:
        model = CrossScaleModel(config, seed=5)
        result = model.forward(graph)
        loss, _ = graph_loss(result, graph.label, 2, 0.3)
        ad.backward(loss)
        digest.update(result.logits.value.tobytes())
        digest.update(np.float64(loss.value).tobytes())
        for name, var in sorted(model.params.items()):
            digest.update(name.encode())
            digest.update(b"none" if var.grad is None else var.grad.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("variant", VARIANTS)
def test_pipeline_outputs_and_gradients_match_recorded_digests(variant):
    assert pipeline_digest(variant) == PIPELINE_DIGESTS[variant]


# -- node relabelling -------------------------------------------------------


def relabelling_cases():
    """(config, graph, relabelled graph, permutation) for graphs on each side
    of m_out = 3, with dense features and with one-hot degrees; new node i
    of the relabelled graph is node perm[i] of the original."""
    rng = np.random.default_rng(33)
    cfg = small_config(variant="gcn_diffpool", n_max=20, m_out=3, scales=(1.0, 2.0),
                       activation="relu")
    graphs = [random_graph(n, 2, rng, label=n % 2) for n in SIZES]
    adjacency = random_graph(13, 1, rng).adjacency
    graphs.append(Graph(adjacency, degree_onehot_features(adjacency, cap=6), label=1))
    cases = []
    for graph in graphs:
        perm = rng.permutation(graph.node_count)
        moved = Graph(graph.adjacency[np.ix_(perm, perm)], graph.features[perm], graph.label)
        cases.append((replace(cfg, feature_dim=graph.feature_dim), graph, moved, perm))
    return cases


def test_gcn_diffpool_logits_do_not_depend_on_node_order():
    """gcn_diffpool reads the graph, not its node numbering: under a seeded
    relabelling its logits agree within 1e-12 relative."""
    for cfg, graph, moved, _ in relabelling_cases():
        model = CrossScaleModel(cfg, seed=5)
        assert close_relative(model.forward(moved).logits.value,
                              model.forward(graph).logits.value, 1e-12), graph.node_count


def test_gcn_operand_and_first_assignment_permute_with_the_nodes():
    """Under a relabelling P the GCN operand's Â X becomes P Â X on the same
    columns, and the first DiffPool assignment's columns move with the nodes
    (S becomes S P^T), within 1e-12 relative."""
    for cfg, graph, moved, perm in relabelling_cases():
        model = CrossScaleModel(cfg, seed=5)
        operand, moved_operand = model.inputs_for(graph).gcn, model.inputs_for(moved).gcn
        assert np.array_equal(moved_operand.columns, operand.columns)
        assert close_relative(moved_operand.propagated, operand.propagated[perm], 1e-12)
        stages, moved_stages = model.forward(graph).stages, model.forward(moved).stages
        assert bool(stages) == bool(moved_stages) == (graph.node_count > cfg.m_out)
        if stages:
            assert close_relative(moved_stages[0].assignment.value,
                                  stages[0].assignment.value[:, perm], 1e-12)


def test_wavelets_permute_with_the_nodes():
    """Every scale's psi_f of a relabelled graph is P psi_f P^T within 1e-12
    relative."""
    for _, graph, moved, perm in relabelling_cases():
        if graph.node_count < 3:
            continue
        bases, moved_bases = (wavelet_bases(normalized_laplacian(g.adjacency), (1.0, 2.0), 6)
                              for g in (graph, moved))
        for f in range(2):
            assert close_relative(moved_bases.psi(f), bases.psi(f)[np.ix_(perm, perm)], 1e-12)
