import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepool import autodiff as ad
from wavepool import model as model_module
from wavepool.errors import ContractViolationError, FormatError, NumericError
from wavepool.graphs import Graph, GraphDataset
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
from wavepool.spectral import normalized_laplacian, wavelet_bases
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
        small_config(basis_mode="magic")
    with pytest.raises(ContractViolationError):
        small_config(activation="tanh")


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
    assert result.probs.value.sum() == pytest.approx(1.0, abs=1e-12)
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


def test_forward_without_row_softmax(rng):
    # raw assignments carry signs: normalization can legitimately fail when a
    # pooled A + I row sums nonpositive (seed 0), and succeeds otherwise (2)
    graph = random_graph(9, 2, rng)
    with pytest.raises(NumericError, match="nonpositive"):
        CrossScaleModel(small_config(softmax_rows=False), seed=0).forward(graph)
    result = CrossScaleModel(small_config(softmax_rows=False), seed=2).forward(graph)
    assert np.all(np.isfinite(result.logits.value))


def test_closed_form_basis_mode_runs(rng):
    model = CrossScaleModel(small_config(basis_mode="closed_form"), seed=0)
    assert model.forward(random_graph(7, 2, rng)).probs.value.shape == (2,)


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


def test_basis_memo_on_graph(rng):
    first = CrossScaleModel(small_config(), seed=0)
    second = CrossScaleModel(small_config(), seed=1)
    named = random_graph(6, 2, rng, graph_id="g1")
    inputs = first.inputs_for(named)
    assert second.inputs_for(named) is inputs
    # the entry holds (psi, psi^+ X) per scale; n > m_out, so no raw-graph GCN
    basis, = wavelet_bases(normalized_laplacian(named.adjacency), (1.0,), 6)
    assert len(inputs.scales) == 1 and inputs.renormalized is None
    assert np.array_equal(inputs.scales[0].psi, basis.psi)
    assert np.array_equal(inputs.scales[0].projected, basis.psi_pinv @ named.features)
    # same id, different adjacency: the memo lives on the graph, not the id
    twin = Graph(cycle_adjacency(6), named.features, 0, id="g1")
    assert not np.array_equal(first.inputs_for(twin).scales[0].psi, inputs.scales[0].psi)
    anonymous = random_graph(6, 2, rng, graph_id="")
    assert first.inputs_for(anonymous) is first.inputs_for(anonymous)
    seventh, = wavelet_bases(normalized_laplacian(named.adjacency), (1.0,), 7)
    fresh = CrossScaleModel(small_config(order=7)).inputs_for(named)
    assert np.array_equal(fresh.scales[0].psi, seventh.psi)


@pytest.mark.parametrize("variant", VARIANTS)
def test_memoised_inputs_are_read_only(variant, rng):
    model = CrossScaleModel(small_config(variant, scales=(1.0, 2.0)), seed=0)
    for n in (2, 7):  # the n <= m_out branch and the pooled one
        inputs = model.inputs_for(random_graph(n, 2, rng))
        arrays = [a for scale in inputs.scales for a in scale]
        if inputs.renormalized is not None:
            arrays.append(inputs.renormalized.matrix)
        assert arrays
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0


def test_wavelet_diffpool_builds_each_graph_entry_once(rng, monkeypatch):
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


# -- checkpoints ----------------------------------------------------------


def test_config_dict_roundtrip():
    cfg = small_config(scales=(0.5, 1.5), basis_mode="closed_form")
    assert config_from_dict(config_to_dict(cfg)) == cfg


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
@pytest.mark.parametrize("stage_mode", ["mean", "sum", "first"])
def test_fused_pipeline_matches_per_op_composition(variant, stage_mode, rng):
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
            total = loss(result, graph.label, 2, 0.3, stage_mode)
            total = total[0] if isinstance(total, tuple) else total
            ad.backward(total)
            runs.append((result, total, model))
        (fused, fused_total, fused_model), (ref, ref_total, ref_model) = runs
        assert np.array_equal(fused.logits.value, ref.logits.value)
        assert np.array_equal(fused.probs.value, ref.probs.value)
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
