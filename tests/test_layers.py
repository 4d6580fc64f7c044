import numpy as np
import pytest

from wavepool import autodiff as ad
from wavepool import layers
from wavepool.errors import (
    ContractViolationError,
    NumericError,
    PoolingDegenerateError,
)
from wavepool.layers import (
    ACTIVATIONS,
    ClassifierParams,
    GcnLayerParams,
    GwcLayerParams,
    ScaleInput,
    SpectralPoolParams,
    activate,
    activation_lipschitz,
    classify,
    diffpool_assign,
    gcn_forward,
    gwc_forward,
    pool_apply,
    renormalize,
    spectral_pool_assign,
)
from wavepool.spectral import cosine_transform, normalized_laplacian, wavelet_bases

from . import per_op as ops
from .conftest import cycle_adjacency, path_adjacency
from .fdcheck import REL_TOL, central_difference, max_rel_error


def make_bases(adj, scales=(1.0,), order=12):
    return wavelet_bases(normalized_laplacian(adj), scales, order)


def project(bases, h):
    """The wavelet convolution's operands for the input features ``h``."""
    return [ScaleInput(b.psi, b.psi_pinv @ h) for b in bases]


def gwc_params(n_max, width, scales=(1.0,), activation="identity", rng=None):
    thetas = []
    for _ in scales:
        theta = np.eye(n_max)
        if rng is not None:
            theta = theta + 0.1 * rng.standard_normal((n_max, n_max))
        thetas.append(ad.parameter(theta))
    bias = ad.parameter(np.zeros((n_max, width)))
    return GwcLayerParams(scales=tuple(scales), thetas=thetas, bias=bias,
                          activation=activation)


# -- activations ----------------------------------------------------------


def test_activate_identity_and_relu():
    x = np.array([[-1.0, 2.0]])
    assert np.array_equal(activate(x, "identity"), [[-1.0, 2.0]])
    assert np.array_equal(activate(x, "relu"), [[0.0, 2.0]])
    with pytest.raises(ContractViolationError):
        activate(x, "gelu")


def test_layer_params_reject_unknown_activation():
    with pytest.raises(ContractViolationError, match="activation"):
        GwcLayerParams(scales=(1.0,), thetas=[ad.parameter(np.eye(2))],
                       bias=ad.parameter(np.zeros((2, 1))), activation="tanh")
    with pytest.raises(ContractViolationError, match="activation"):
        GcnLayerParams(weight=ad.parameter(np.eye(2)), activation="tanh")


def test_activation_lipschitz_constant():
    assert activation_lipschitz("relu") == 1.0
    assert activation_lipschitz("identity") == 1.0
    with pytest.raises(ContractViolationError):
        activation_lipschitz("tanh")


# -- wavelet convolution --------------------------------------------------


def test_gwc_identity_filter_is_passthrough(rng):
    adj = cycle_adjacency(6)
    h = rng.standard_normal((6, 3))
    params = gwc_params(6, 3)
    out = gwc_forward(params, project(make_bases(adj), h))
    # theta = I and invertible psi collapse psi theta psi^+ to the identity
    assert np.allclose(out.value, h, atol=1e-8)


def test_gwc_scale_average(rng):
    adj = cycle_adjacency(5)
    h = rng.standard_normal((5, 2))
    single = gwc_forward(gwc_params(5, 2, scales=(1.0,)), project(make_bases(adj), h))
    doubled = gwc_forward(
        gwc_params(5, 2, scales=(1.0, 1.0)), project(make_bases(adj, (1.0, 1.0)), h)
    )
    assert np.allclose(single.value, doubled.value, atol=1e-12)


def test_gwc_slices_oversized_parameters(rng):
    adj = path_adjacency(4)
    h = rng.standard_normal((4, 2))
    params = gwc_params(10, 2, rng=rng)
    out = gwc_forward(params, project(make_bases(adj), h))
    assert out.value.shape == (4, 2)
    ad.backward(ops.sum_all(out))
    theta_grad = params.thetas[0].grad
    assert np.any(theta_grad[:4, :4] != 0.0)
    assert np.all(theta_grad[4:, :] == 0.0) and np.all(theta_grad[:, 4:] == 0.0)
    assert np.all(params.bias.grad[4:, :] == 0.0)


def test_gwc_validation_errors(rng):
    adj = path_adjacency(4)
    operands = project(make_bases(adj), rng.standard_normal((4, 2)))
    with pytest.raises(ContractViolationError, match="scale inputs for"):
        gwc_forward(gwc_params(4, 2, scales=(1.0, 2.0)), operands)
    with pytest.raises(ContractViolationError, match="exceeds theta allocation"):
        gwc_forward(gwc_params(3, 2), operands)
    with pytest.raises(ContractViolationError, match="bias width"):
        gwc_forward(gwc_params(4, 3), operands)


def test_gwc_params_validation():
    with pytest.raises(ContractViolationError):
        GwcLayerParams(scales=(1.0, 2.0), thetas=[ad.parameter(np.eye(2))],
                       bias=ad.parameter(np.zeros((2, 1))))
    with pytest.raises(ContractViolationError, match="non-finite"):
        GwcLayerParams(scales=(1.0,), thetas=[ad.parameter(np.full((2, 2), np.nan))],
                       bias=ad.parameter(np.zeros((2, 1))))


def test_gwc_gradients_match_finite_differences(rng):
    adj = cycle_adjacency(4)
    bases = make_bases(adj, order=8)
    h0 = rng.standard_normal((4, 2))
    theta0 = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
    bias0 = 0.1 * rng.standard_normal((4, 2))

    operands = project(bases, h0)

    def run(theta, bias):
        params = GwcLayerParams(
            scales=(1.0,), thetas=[ad.as_var(theta)], bias=ad.as_var(bias),
            activation="identity",
        )
        return ops.frobenius_norm(gwc_forward(params, operands))

    t_var, b_var = ad.parameter(theta0), ad.parameter(bias0)
    ad.backward(run(t_var, b_var))
    for var, x0, pick in (
        (t_var, theta0, lambda x: run(x, bias0)),
        (b_var, bias0, lambda x: run(theta0, x)),
    ):
        numeric = central_difference(lambda x: pick(x).value, x0)
        assert max_rel_error(var.grad, numeric) < REL_TOL


def close_relative(a, b, tol=1e-12):
    return np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("scales", [(1.0,), (1.0, 2.0), (0.5, 1.5, 3.0)])
@pytest.mark.parametrize("n", [1, 6])
def test_fused_gwc_matches_per_op_composition(activation, scales, n, rng):
    n_max, width = 8, 3
    upper = np.triu(rng.random((n, n)) < 0.5, 1).astype(float)
    bases = make_bases(upper + upper.T, scales, order=10)
    h0 = rng.standard_normal((n, width))
    weights = ad.constant(rng.standard_normal((n, width)))
    thetas0 = [np.eye(n_max) + 0.3 * rng.standard_normal((n_max, n_max)) for _ in scales]
    bias0 = 0.5 * rng.standard_normal((n_max, width))

    def run(forward):
        params = GwcLayerParams(scales=scales, thetas=[ad.parameter(t) for t in thetas0],
                                bias=ad.parameter(bias0), activation=activation)
        out = forward(params)
        ad.backward(ops.sum_all(ops.mul(out, weights)))
        return out, params

    reference, ref_params = run(lambda params: ops.gwc_forward(params, project(bases, h0)))
    out, params = run(lambda params: gwc_forward(params, project(bases, h0)))
    assert np.array_equal(out.value, reference.value)
    for theta, ref in zip(params.thetas, ref_params.thetas):
        assert close_relative(theta.grad, ref.grad)
        assert np.all(theta.grad[n:, :] == 0.0) and np.all(theta.grad[:, n:] == 0.0)
    assert close_relative(params.bias.grad, ref_params.bias.grad)


def test_gwc_rejects_mismatched_scale_inputs(rng):
    h = rng.standard_normal((4, 2))
    (four,) = project(make_bases(path_adjacency(4)), h)
    (five,) = project(make_bases(path_adjacency(5)), rng.standard_normal((5, 2)))
    params = gwc_params(5, 2, scales=(1.0, 2.0))
    with pytest.raises(ContractViolationError, match="projected input"):
        gwc_forward(params, [four, five])
    with pytest.raises(ContractViolationError, match="projected input"):
        gwc_forward(params, [four, ScaleInput(four.psi, h[:, :1])])


# -- pooling --------------------------------------------------------------


def pool_params(m_max, n_max, rng, softmax=True):
    theta = ad.parameter(rng.standard_normal((m_max, n_max)))
    return SpectralPoolParams(target_size=m_max, theta=theta, softmax_rows=softmax)


def test_spectral_pool_rows_stochastic(rng):
    n, m = 7, 3
    s = spectral_pool_assign(n, pool_params(m, n, rng),
                             cosine_transform(n), cosine_transform(m))
    assert s.value.shape == (m, n)
    assert np.allclose(s.value.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(s.value > 0)


def test_spectral_pool_raw_matches_numpy(rng):
    n, m = 6, 2
    params = pool_params(m, n, rng, softmax=False)
    s = spectral_pool_assign(n, params, cosine_transform(n), cosine_transform(m))
    expected = cosine_transform(m).matrix @ params.theta.value @ cosine_transform(n).matrix.T
    assert np.allclose(s.value, expected, atol=1e-12)


def test_spectral_pool_degenerate_sizes(rng):
    with pytest.raises(PoolingDegenerateError):
        spectral_pool_assign(3, pool_params(3, 3, rng),
                             cosine_transform(3), cosine_transform(3))
    with pytest.raises(PoolingDegenerateError):
        spectral_pool_assign(2, pool_params(4, 4, rng),
                             cosine_transform(2), cosine_transform(4))


def test_spectral_pool_validation(rng):
    with pytest.raises(ContractViolationError, match="xi_n"):
        spectral_pool_assign(5, pool_params(2, 5, rng),
                             cosine_transform(4), cosine_transform(2))
    with pytest.raises(ContractViolationError, match="allocation"):
        spectral_pool_assign(8, pool_params(2, 5, rng),
                             cosine_transform(8), cosine_transform(2))
    with pytest.raises(ContractViolationError):
        SpectralPoolParams(target_size=0, theta=ad.parameter(np.zeros((1, 4))))


def test_pool_apply_shapes_and_symmetry(rng):
    n, m, width = 6, 2, 3
    s = spectral_pool_assign(n, pool_params(m, n, rng),
                             cosine_transform(n), cosine_transform(m))
    adj = ad.constant(cycle_adjacency(n))
    feats = ad.constant(rng.standard_normal((n, width)))
    pooled_adj, pooled_feats = pool_apply(s, adj, feats)
    assert pooled_adj.value.shape == (m, m)
    assert pooled_feats.value.shape == (m, width)
    assert np.allclose(pooled_adj.value, pooled_adj.value.T, atol=1e-12)
    assert np.allclose(pooled_feats.value, s.value @ feats.value, atol=1e-12)


def test_pool_apply_validation(rng):
    s = ad.constant(rng.standard_normal((2, 5)))
    with pytest.raises(ContractViolationError, match="adjacency"):
        pool_apply(s, ad.constant(np.zeros((4, 4))), ad.constant(np.zeros((5, 1))))
    with pytest.raises(ContractViolationError, match="features"):
        pool_apply(s, ad.constant(np.zeros((5, 5))), ad.constant(np.zeros((4, 1))))


def test_pool_gradients_match_finite_differences(rng):
    n, m = 5, 2
    adj = cycle_adjacency(n)
    feats = rng.standard_normal((n, 2))
    theta0 = rng.standard_normal((m, n))

    def run(theta):
        params = SpectralPoolParams(target_size=m, theta=ad.as_var(theta))
        s = spectral_pool_assign(n, params, cosine_transform(n), cosine_transform(m))
        pooled_adj, pooled_feats = pool_apply(s, ad.constant(adj), ad.constant(feats))
        return ops.add(ops.frobenius_norm(pooled_adj), ops.frobenius_norm(pooled_feats))

    var = ad.parameter(theta0)
    ad.backward(run(var))
    numeric = central_difference(lambda x: run(x).value, theta0)
    assert max_rel_error(var.grad, numeric) < REL_TOL


# -- graph convolution ----------------------------------------------------


def test_gcn_two_node_oracle():
    params = GcnLayerParams(weight=ad.parameter(np.eye(2)), activation="identity")
    out = gcn_forward(ad.constant(path_adjacency(2)), ad.constant(np.eye(2)), params)
    assert np.allclose(out.value, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_gcn_nonpositive_row_raises():
    adj = ad.constant(np.array([[0.0, -2.0], [-2.0, 0.0]]))
    params = GcnLayerParams(weight=ad.parameter(np.eye(2)))
    with pytest.raises(NumericError, match="row 0"):
        gcn_forward(adj, ad.constant(np.eye(2)), params)


def test_gcn_gradients_through_pooled_adjacency(rng):
    n = 4
    feats = rng.standard_normal((n, 2))
    weight0 = rng.standard_normal((2, 3))
    adj0 = cycle_adjacency(n) + 0.1 * np.abs(rng.standard_normal((n, n)))
    adj0 = 0.5 * (adj0 + adj0.T)
    np.fill_diagonal(adj0, 0.0)

    def run(adj, weight):
        params = GcnLayerParams(weight=ad.as_var(weight), activation="identity")
        return ops.frobenius_norm(gcn_forward(ad.as_var(adj), ad.constant(feats), params))

    a_var, w_var = ad.parameter(adj0), ad.parameter(weight0)
    ad.backward(run(a_var, w_var))
    for var, x0, pick in (
        (a_var, adj0, lambda x: run(x, weight0)),
        (w_var, weight0, lambda x: run(adj0, x)),
    ):
        numeric = central_difference(lambda x: pick(x).value, x0)
        assert max_rel_error(var.grad, numeric) < REL_TOL


def test_folded_renormalization_matches_tape(rng):
    for adj in (cycle_adjacency(7), path_adjacency(5), np.zeros((1, 1))):
        n = adj.shape[0]
        feats = ad.constant(rng.standard_normal((n, 3)))
        for activation in ACTIVATIONS:
            params = GcnLayerParams(weight=ad.parameter(rng.standard_normal((3, 2))),
                                    activation=activation)
            folded = renormalize(adj)
            assert not folded.matrix.flags.writeable
            assert np.array_equal(gcn_forward(folded, feats, params).value,
                                  gcn_forward(ad.constant(adj), feats, params).value)


def test_diffpool_assignment_is_row_stochastic(rng):
    n, m = 6, 3
    weight = ad.parameter(rng.standard_normal((2, m)))
    feats = ad.constant(rng.standard_normal((n, 2)))
    s = diffpool_assign(ad.constant(cycle_adjacency(n)), feats, weight, m)
    assert s.value.shape == (n, m)
    assert np.allclose(s.value.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ContractViolationError, match="width"):
        diffpool_assign(ad.constant(cycle_adjacency(n)), feats, weight, m + 1)


# -- classifier -----------------------------------------------------------


def test_classify_shapes_and_softmax(rng):
    m_out, width, classes = 4, 3, 5
    params = ClassifierParams(
        weight=ad.parameter(rng.standard_normal((m_out * width, classes))),
        bias=ad.parameter(rng.standard_normal(classes)),
    )
    logits, probs = classify(ad.constant(rng.standard_normal((m_out, width))), params)
    assert logits.value.shape == (classes,)
    assert probs.value.shape == (classes,)
    assert probs.value.sum() == pytest.approx(1.0, abs=1e-12)
    shifted = np.exp(logits.value - logits.value.max())
    assert np.allclose(probs.value, shifted / shifted.sum(), atol=1e-12)


def test_classify_size_mismatch(rng):
    params = ClassifierParams(
        weight=ad.parameter(rng.standard_normal((8, 2))),
        bias=ad.parameter(np.zeros(2)),
    )
    with pytest.raises(ContractViolationError, match="pooled size"):
        classify(ad.constant(np.zeros((3, 3))), params)


# -- fused stages against their per-op composition -------------------------


def stage_cases(rng):
    """(name, fused, per-op, parameter arrays): each builder maps parameter
    Vars to a tuple of output Vars."""
    n, m, width = 7, 3, 2
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    adj = upper + upper.T + 0.1 * np.abs(rng.standard_normal((n, n)))
    adj = 0.5 * (adj + adj.T)
    xi_n, xi_m = cosine_transform(n), cosine_transform(m)

    def spectral(softmax):
        def build(layer):
            return lambda theta: (layer.spectral_pool_assign(
                n, SpectralPoolParams(m, theta, softmax), xi_n, xi_m),)
        return build

    def apply(clusters):
        def build(layer):
            return lambda s, a, x: layer.pool_apply(s, a, x, clusters)
        return build

    def gcn(activation):
        def build(layer):
            return lambda a, x, w: (layer.gcn_forward(a, x, GcnLayerParams(w, activation)),)
        return build

    def diffpool(layer):
        return lambda a, x, w: (layer.diffpool_assign(a, x, w, m),)

    def diffpool_renormalized(layer):
        return lambda x, w: (layer.diffpool_assign(renormalize(adj), x, w, m),)

    def classify(layer):
        return lambda x, w, b: layer.classify(x, ClassifierParams(w, b))

    s_mn = rng.random((m, n))
    return [
        ("spectral softmax", spectral(True), [rng.standard_normal((m + 1, n + 2))]),
        ("spectral raw", spectral(False), [rng.standard_normal((m, n))]),
        ("apply rows", apply("rows"), [s_mn, adj, rng.standard_normal((n, width))]),
        ("apply cols", apply("cols"), [s_mn.T.copy(), adj, rng.standard_normal((n, width))]),
        ("gcn relu", gcn("relu"), [adj, rng.standard_normal((n, width)),
                                   rng.standard_normal((width, 3))]),
        ("gcn identity", gcn("identity"), [adj, rng.standard_normal((n, width)),
                                           rng.standard_normal((width, 3))]),
        ("diffpool", diffpool, [adj, rng.standard_normal((n, width)),
                                rng.standard_normal((width, m + 2))]),
        ("diffpool renormalized", diffpool_renormalized,
         [rng.standard_normal((n, width)), rng.standard_normal((width, m))]),
        ("classify", classify, [rng.standard_normal((m, width)),
                                rng.standard_normal((m * width, 4)), rng.standard_normal(4)]),
    ]


@pytest.mark.parametrize("case", range(9))
def test_fused_stage_matches_per_op_composition(case):
    rng = np.random.default_rng(case)
    name, build, arrays = stage_cases(rng)[case]
    runs = []
    for layer in (layers, ops):
        params = [ad.parameter(a) for a in arrays]
        outputs = build(layer)(*params)
        loss = None
        for k, out in enumerate(outputs):
            weights = np.random.default_rng(100 + k).standard_normal(out.value.shape)
            term = ops.sum_all(ops.mul(out, weights))
            loss = term if loss is None else ops.add(loss, term)
        ad.backward(loss)
        runs.append((outputs, params))
    (fused, fused_params), (ref, ref_params) = runs
    for a, b in zip(fused, ref):
        assert np.array_equal(a.value, b.value), name
    for p, r in zip(fused_params, ref_params):
        assert close_relative(p.grad, r.grad), name
