import numpy as np
import pytest

from wavepool import autodiff as ad
from wavepool import layers
from wavepool.errors import (
    ContractViolationError,
    NumericError,
    PoolingDegenerateError,
)
from wavepool.graphs import degree_onehot_features
from wavepool.layers import (
    ACTIVATIONS,
    WaveletInput,
    activate,
    activation_lipschitz,
    classify,
    diffpool_assign,
    gcn_forward,
    gcn_input,
    gwc_forward,
    pool_apply,
    renormalize,
    spectral_pool_assign,
    wavelet_input,
)
from wavepool.spectral import cosine_transform, normalized_laplacian, wavelet_bases

from . import per_op as ops
from .conftest import cycle_adjacency, path_adjacency
from .fdcheck import REL_TOL, central_difference, max_rel_error


def make_bases(adj, scales=(1.0,), order=12):
    return wavelet_bases(normalized_laplacian(adj), scales, order)


def gwc_params(n_max, width, count=1, rng=None):
    """(thetas, bias): ``count`` filters near the identity and a zero bias."""
    thetas = []
    for _ in range(count):
        theta = np.eye(n_max)
        if rng is not None:
            theta = theta + 0.1 * rng.standard_normal((n_max, n_max))
        thetas.append(ad.parameter(theta))
    return thetas, ad.parameter(np.zeros((n_max, width)))


# -- activations ----------------------------------------------------------


def test_activate_identity_and_relu():
    x = np.array([[-1.0, 2.0]])
    assert np.array_equal(activate(x, "identity"), [[-1.0, 2.0]])
    assert np.array_equal(activate(x, "relu"), [[0.0, 2.0]])
    with pytest.raises(ContractViolationError):
        activate(x, "gelu")


def test_layer_params_reject_unknown_activation(rng):
    adj = path_adjacency(2)
    operands = wavelet_input(make_bases(adj), rng.standard_normal((2, 1)))
    with pytest.raises(ContractViolationError, match="activation"):
        gwc_forward(*gwc_params(2, 1), operands, "tanh")
    with pytest.raises(ContractViolationError, match="activation"):
        gcn_forward(ad.constant(adj), ad.constant(np.eye(2)), ad.parameter(np.eye(2)), "tanh")


def test_activation_lipschitz_constant():
    assert activation_lipschitz("relu") == 1.0
    assert activation_lipschitz("identity") == 1.0
    with pytest.raises(ContractViolationError):
        activation_lipschitz("tanh")


# -- wavelet convolution --------------------------------------------------


def test_gwc_identity_filter_is_passthrough(rng):
    adj = cycle_adjacency(6)
    h = rng.standard_normal((6, 3))
    out = gwc_forward(*gwc_params(6, 3), wavelet_input(make_bases(adj), h), "identity")
    # theta = I and invertible psi collapse psi theta psi^+ to the identity
    assert np.allclose(out.value, h, atol=1e-8)


def test_gwc_scale_average(rng):
    adj = cycle_adjacency(5)
    h = rng.standard_normal((5, 2))
    single = gwc_forward(*gwc_params(5, 2), wavelet_input(make_bases(adj), h), "identity")
    doubled = gwc_forward(*gwc_params(5, 2, count=2),
                          wavelet_input(make_bases(adj, (1.0, 1.0)), h), "identity")
    assert np.allclose(single.value, doubled.value, atol=1e-12)


def test_gwc_slices_oversized_parameters(rng):
    adj = path_adjacency(4)
    h = rng.standard_normal((4, 2))
    thetas, bias = gwc_params(10, 2, rng=rng)
    out = gwc_forward(thetas, bias, wavelet_input(make_bases(adj), h), "identity")
    assert out.value.shape == (4, 2)
    ad.backward(ops.sum_all(out))
    theta_grad = thetas[0].grad
    assert np.any(theta_grad[:4, :4] != 0.0)
    assert np.all(theta_grad[4:, :] == 0.0) and np.all(theta_grad[:, 4:] == 0.0)
    assert np.all(bias.grad[4:, :] == 0.0)


def test_gwc_validation_errors(rng):
    adj = path_adjacency(4)
    operands = wavelet_input(make_bases(adj), rng.standard_normal((4, 2)))
    with pytest.raises(ContractViolationError, match="exceeds theta allocation"):
        gwc_forward(*gwc_params(3, 2), operands, "identity")
    with pytest.raises(ContractViolationError, match="bias width"):
        gwc_forward(*gwc_params(4, 3), operands, "identity")


def test_gwc_params_validation(rng):
    """One filter per scale, and at least one."""
    operand = wavelet_input(make_bases(path_adjacency(4)), rng.standard_normal((4, 2)))
    with pytest.raises(ContractViolationError, match="1 scales for 2 filters"):
        gwc_forward(*gwc_params(4, 2, count=2), operand, "identity")
    no_scales = operand._replace(kernel=np.zeros((4, 0)), projected=np.zeros((4, 0, 2)))
    with pytest.raises(ContractViolationError, match="0 scales for 0 filters"):
        gwc_forward([], ad.parameter(np.zeros((4, 2))), no_scales, "identity")


def test_gwc_gradients_match_finite_differences(rng):
    adj = cycle_adjacency(4)
    bases = make_bases(adj, order=8)
    h0 = rng.standard_normal((4, 2))
    theta0 = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
    bias0 = 0.1 * rng.standard_normal((4, 2))

    operands = wavelet_input(bases, h0)

    def run(theta, bias):
        return ops.frobenius_norm(
            gwc_forward([ad.as_var(theta)], ad.as_var(bias), operands, "identity"))

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
        thetas, bias = [ad.parameter(t) for t in thetas0], ad.parameter(bias0)
        out = forward(thetas, bias, wavelet_input(bases, h0), activation)
        ad.backward(ops.sum_all(ops.mul(out, weights)))
        return out, thetas, bias

    reference, ref_thetas, ref_bias = run(ops.gwc_forward)
    out, thetas, bias = run(gwc_forward)
    assert np.array_equal(out.value, reference.value)
    for theta, ref in zip(thetas, ref_thetas):
        assert close_relative(theta.grad, ref.grad)
        assert np.all(theta.grad[n:, :] == 0.0) and np.all(theta.grad[:, n:] == 0.0)
    assert close_relative(bias.grad, ref_bias.grad)


def test_gwc_rejects_mismatched_scale_inputs(rng):
    """The operand's parts must agree in node count, scale count and the
    number of kept columns."""
    h = rng.standard_normal((4, 2))
    four = wavelet_input(make_bases(path_adjacency(4), (1.0, 2.0)), h)
    five = wavelet_input(make_bases(path_adjacency(5), (1.0, 2.0)), rng.standard_normal((5, 2)))
    thetas, bias = gwc_params(5, 2, count=2)
    for operand in (four._replace(eigvecs=five.eigvecs),
                    four._replace(kernel=five.kernel),
                    four._replace(projected=four.projected[:, :, :1]),
                    four._replace(columns=np.ones(3, dtype=bool))):
        with pytest.raises(ContractViolationError, match="wavelet operand"):
            gwc_forward(thetas, bias, operand, "identity")


def test_wavelet_input_holds_one_eigenbasis(rng):
    """The bank's own U and p_f(lambda), not copies, and psi_f^+ X on X's
    non-zero columns, all read-only."""
    adj = cycle_adjacency(7)
    x = rng.standard_normal((7, 4))
    x[:, 2] = 0.0
    bases = make_bases(adj, (0.5, 1.0, 3.0))
    operand = wavelet_input(bases, x)
    assert isinstance(operand, WaveletInput)
    assert operand.eigvecs is bases.eigvecs and operand.kernel is bases.values
    assert operand.kernel.shape == (7, 3) and operand.projected.shape == (7, 3, 3)
    assert operand.columns.tolist() == [True, True, False, True]
    for f in range(3):
        dense = bases.psi_pinv(f) @ x[:, operand.columns]
        assert np.max(np.abs(operand.projected[:, f] - dense)) <= 1e-13 * np.max(np.abs(dense))
    for array in operand:
        assert not array.flags.writeable


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("case", ["degrees", "single", "empty", "dense"])
def test_gwc_on_zero_feature_columns_matches_dense_formula(activation, case, rng):
    """Values and gradients agree with act(psi_f theta_f psi_f^+ X + bias)
    formed from the dense matrices, within 1e-12 of the largest entry. One-hot
    degrees use three columns of six, ``single`` one random column of five,
    ``empty`` none (k = 0) and ``dense`` all five."""
    adj = path_adjacency(6)
    adj[1, 5] = adj[5, 1] = 1.0  # degrees 1, 3, 2, 2, 2, 2
    x = degree_onehot_features(adj, cap=4) if case == "degrees" else np.zeros((6, 5))
    if case == "single":
        x[:, 3] = rng.standard_normal(6)
    if case == "dense":
        x = rng.standard_normal((6, 5))
    n, width = x.shape
    bases = make_bases(adj, (1.0, 2.0), order=10)
    thetas0 = [np.eye(8) + 0.3 * rng.standard_normal((8, 8)) for _ in range(2)]
    bias0 = 0.5 * rng.standard_normal((8, width))
    weights = ad.constant(rng.standard_normal((n, width)))
    operand = wavelet_input(bases, x)
    assert operand.projected.shape == (n, 2, int(np.count_nonzero(x.any(axis=0))))
    assert operand.projected.flags.c_contiguous

    def run(forward):
        thetas, bias = [ad.parameter(t) for t in thetas0], ad.parameter(bias0)
        out = forward(thetas, bias, operand, activation)
        ad.backward(ops.sum_all(ops.mul(out, weights)))
        return out, thetas, bias

    out, thetas, bias = run(gwc_forward)
    reference, ref_thetas, ref_bias = run(ops.dense_gwc_forward(bases, x))
    # U (p * U^T y) rounds differently from the dense psi y
    assert close_relative(out.value, reference.value)
    inactive = ~x.any(axis=0)
    assert np.array_equal(out.value[:, inactive], activate(bias0[:n, inactive], activation))
    for theta, ref in zip(thetas, ref_thetas):
        assert close_relative(theta.grad, ref.grad)
    assert close_relative(bias.grad, ref_bias.grad)


# -- pooling --------------------------------------------------------------


def pool_theta(m_max, n_max, rng):
    return ad.parameter(rng.standard_normal((m_max, n_max)))


def test_spectral_pool_rows_stochastic(rng):
    n, m = 7, 3
    s = spectral_pool_assign(pool_theta(m, n, rng), cosine_transform(n), cosine_transform(m))
    assert s.value.shape == (m, n)
    assert np.allclose(s.value.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(s.value > 0)


def test_spectral_pool_matches_numpy(rng):
    """S is the row softmax of xi_m theta xi_n^T."""
    n, m = 6, 2
    theta = pool_theta(m, n, rng)
    s = spectral_pool_assign(theta, cosine_transform(n), cosine_transform(m))
    raw = np.exp(cosine_transform(m) @ theta.value @ cosine_transform(n).T)
    assert np.allclose(s.value, raw / raw.sum(axis=1, keepdims=True), atol=1e-12)


def test_spectral_pool_degenerate_sizes(rng):
    with pytest.raises(PoolingDegenerateError):
        spectral_pool_assign(pool_theta(3, 3, rng), cosine_transform(3), cosine_transform(3))
    with pytest.raises(PoolingDegenerateError):
        spectral_pool_assign(pool_theta(4, 4, rng), cosine_transform(2), cosine_transform(4))


def test_spectral_pool_validation(rng):
    with pytest.raises(ContractViolationError, match="allocation"):
        spectral_pool_assign(pool_theta(2, 5, rng), cosine_transform(8), cosine_transform(2))


def test_pool_apply_shapes_and_symmetry(rng):
    n, m, width = 6, 2, 3
    s = spectral_pool_assign(pool_theta(m, n, rng), cosine_transform(n), cosine_transform(m))
    adj = ad.constant(cycle_adjacency(n))
    feats = ad.constant(rng.standard_normal((n, width)))
    pooled_adj, pooled_feats, product = pool_apply(s, adj, feats)
    assert pooled_adj.value.shape == (m, m)
    assert pooled_feats.value.shape == (m, width)
    assert np.allclose(pooled_adj.value, pooled_adj.value.T, atol=1e-12)
    assert np.allclose(pooled_feats.value, s.value @ feats.value, atol=1e-12)
    # S A, which the structure term of the first stage reuses, is read-only
    assert np.array_equal(product, s.value @ adj.value)
    assert not product.flags.writeable


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
        s = spectral_pool_assign(ad.as_var(theta), cosine_transform(n), cosine_transform(m))
        pooled_adj, pooled_feats, _ = pool_apply(s, ad.constant(adj), ad.constant(feats))
        return ops.add(ops.frobenius_norm(pooled_adj), ops.frobenius_norm(pooled_feats))

    var = ad.parameter(theta0)
    ad.backward(run(var))
    numeric = central_difference(lambda x: run(x).value, theta0)
    assert max_rel_error(var.grad, numeric) < REL_TOL


@pytest.mark.parametrize("symmetric", [True, False])
def test_pool_apply_gradient_for_a_constant_adjacency(symmetric, rng):
    """With a constant adjacency dL/dS is taken from the S A the node holds:
    (G + G^T)(S A) where the caller vouches that A is symmetric, the general
    form where it does not. Both match finite differences for a weighted A
    and a G that is not symmetric."""
    n, m = 6, 3
    adj = np.abs(rng.standard_normal((n, n)))
    if symmetric:
        adj = adj + adj.T
    feats = rng.standard_normal((n, 2))
    weights = rng.standard_normal((m, m))
    s0 = rng.random((m, n))

    def run(s):
        pooled, _, _ = pool_apply(ad.as_var(s), ad.constant(adj), ad.constant(feats),
                                  symmetric=symmetric)
        return ops.sum_all(ops.mul(pooled, weights))

    var = ad.parameter(s0)
    ad.backward(run(var))
    numeric = central_difference(lambda x: run(x).value, s0)
    assert max_rel_error(var.grad, numeric) < REL_TOL


# -- graph convolution ----------------------------------------------------


def test_gcn_two_node_oracle():
    out = gcn_forward(ad.constant(path_adjacency(2)), ad.constant(np.eye(2)),
                      ad.parameter(np.eye(2)), "identity")
    assert np.allclose(out.value, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_gcn_nonpositive_row_raises():
    adj = ad.constant(np.array([[0.0, -2.0], [-2.0, 0.0]]))
    with pytest.raises(NumericError, match="row 0"):
        gcn_forward(adj, ad.constant(np.eye(2)), ad.parameter(np.eye(2)), "relu")


def test_gcn_gradients_through_pooled_adjacency(rng):
    """The pooled adjacency's gradient matches finite differences for a
    symmetric A, and for an asymmetric weighted A (with a diagonal, as S A S^T
    has) at two sizes, where X takes a gradient too."""
    n = 4
    feats = rng.standard_normal((n, 2))
    weight0 = rng.standard_normal((2, 3))
    adj0 = cycle_adjacency(n) + 0.1 * np.abs(rng.standard_normal((n, n)))
    adj0 = 0.5 * (adj0 + adj0.T)
    np.fill_diagonal(adj0, 0.0)

    def run(adj, weight):
        return ops.frobenius_norm(gcn_forward(ad.as_var(adj), ad.constant(feats),
                                              ad.as_var(weight), "identity"))

    a_var, w_var = ad.parameter(adj0), ad.parameter(weight0)
    ad.backward(run(a_var, w_var))
    for var, x0, pick in (
        (a_var, adj0, lambda x: run(x, weight0)),
        (w_var, weight0, lambda x: run(adj0, x)),
    ):
        numeric = central_difference(lambda x: pick(x).value, x0)
        assert max_rel_error(var.grad, numeric) < REL_TOL

    for n in (4, 9):
        arrays = [np.abs(rng.standard_normal((n, n))), rng.standard_normal((n, 2)),
                  rng.standard_normal((2, 3))]
        assert not np.allclose(arrays[0], arrays[0].T)
        outputs = np.random.default_rng(n).standard_normal((n, 3))

        def run_all(*values):
            out = gcn_forward(*(ad.as_var(v) for v in values), "identity")
            return ops.sum_all(ops.mul(out, outputs))

        params = [ad.parameter(a) for a in arrays]
        ad.backward(run_all(*params))
        for k, (var, x0) in enumerate(zip(params, arrays)):
            def pick(x, k=k):
                return run_all(*arrays[:k], x, *arrays[k + 1:]).value
            assert max_rel_error(var.grad, central_difference(pick, x0)) < REL_TOL, (n, k)


def test_folded_renormalization_matches_tape(rng):
    """A constant adjacency renormalized beforehand is A itself and the n
    floats of d = (rowsum(A) + 1)^{-1/2}, read-only; a read-only A is held,
    not copied. Its convolution agrees with the one that renormalizes a Var
    within 1e-14 relative."""
    for adj in (cycle_adjacency(7), path_adjacency(5), np.zeros((1, 1))):
        n = adj.shape[0]
        feats = ad.constant(rng.standard_normal((n, 3)))
        folded = renormalize(adj)
        assert np.array_equal(folded.adjacency, adj)
        assert np.array_equal(folded.scale, (adj.sum(axis=1, keepdims=True) + 1.0) ** -0.5)
        assert not any(array.flags.writeable for array in folded)
        assert renormalize(folded.adjacency).adjacency is folded.adjacency
        for activation in ACTIVATIONS:
            weight = ad.parameter(rng.standard_normal((3, 2)))
            assert close_relative(gcn_forward(folded, feats, weight, activation).value,
                                  gcn_forward(ad.constant(adj), feats, weight, activation).value,
                                  1e-14)


def test_gcn_operand_takes_no_features_and_one_weight_row_per_column(rng):
    operand = gcn_input(cycle_adjacency(5), rng.standard_normal((5, 3)))
    feats = ad.constant(rng.standard_normal((5, 3)))
    with pytest.raises(ContractViolationError, match="GcnInput"):
        gcn_forward(operand, feats, ad.parameter(np.eye(3)), "relu")
    with pytest.raises(ContractViolationError, match="GcnInput"):
        gcn_forward(operand, None, ad.parameter(np.eye(4)), "relu")
    # the operand's rows of W receive the gradient, the others none
    x = np.zeros((5, 3))
    x[:, 1] = 1.0
    weight = ad.parameter(rng.standard_normal((3, 2)))
    ad.backward(ops.sum_all(gcn_forward(gcn_input(cycle_adjacency(5), x), None, weight,
                                        "identity")))
    assert np.array_equal(weight.grad[[0, 2]], np.zeros((2, 2)))
    assert np.allclose(weight.grad[1], 5.0, atol=1e-12)  # Â 1 = 1 on a regular graph


def test_diffpool_assignment_is_row_stochastic(rng):
    n, m = 6, 3
    weight = ad.parameter(rng.standard_normal((2, m)))
    feats = ad.constant(rng.standard_normal((n, 2)))
    s = diffpool_assign(ad.constant(cycle_adjacency(n)), feats, weight, m)
    # one row per pooled node; softmax(Â X W), its transpose, is row-stochastic
    assert s.value.shape == (m, n)
    assert np.allclose(s.value.T.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ContractViolationError, match="width"):
        diffpool_assign(ad.constant(cycle_adjacency(n)), feats, weight, m + 1)


# -- classifier -----------------------------------------------------------


def test_classify_shapes_and_values(rng):
    m_out, width, classes = 4, 3, 5
    weight = ad.parameter(rng.standard_normal((m_out * width, classes)))
    bias = ad.parameter(rng.standard_normal(classes))
    x = rng.standard_normal((m_out, width))
    logits = classify(ad.constant(x), weight, bias)
    assert logits.value.shape == (classes,)
    assert np.allclose(logits.value, x.reshape(-1) @ weight.value + bias.value, atol=1e-12)


def test_classify_size_mismatch(rng):
    weight, bias = ad.parameter(rng.standard_normal((8, 2))), ad.parameter(np.zeros(2))
    with pytest.raises(ContractViolationError, match="pooled size"):
        classify(ad.constant(np.zeros((3, 3))), weight, bias)


# -- fused stages against their per-op composition -------------------------


def stage_cases(rng):
    """(name, fused, per-op, parameter arrays): each builder maps parameter
    Vars to a tuple of output Vars."""
    n, m, width = 7, 3, 2
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    adj = upper + upper.T + 0.1 * np.abs(rng.standard_normal((n, n)))
    adj = 0.5 * (adj + adj.T)
    xi_n, xi_m = cosine_transform(n), cosine_transform(m)

    def spectral(layer):
        return lambda theta: (layer.spectral_pool_assign(theta, xi_n, xi_m),)

    def apply(layer):
        return lambda s, a, x: layer.pool_apply(s, a, x)[:2]

    def apply_constant(layer):  # the graph's own adjacency takes no gradient
        return lambda s, x: layer.pool_apply(s, ad.constant(adj), x)[:2]

    def gcn(activation):
        def build(layer):
            return lambda a, x, w: (layer.gcn_forward(a, x, w, activation),)
        return build

    def diffpool(layer):
        return lambda a, x, w: (layer.diffpool_assign(a, x, w, m),)

    def diffpool_renormalized(layer):
        return lambda x, w: (layer.diffpool_assign(renormalize(adj), x, w, m),)

    x = np.zeros((n, 4))  # two all-zero columns, drawn apart from the other cases
    x[:, [0, 2]] = np.random.default_rng(7).standard_normal((n, 2))
    operand = gcn_input(adj, x)

    def gcn_operand(layer):
        return lambda w: (layer.gcn_forward(operand, None, w, "relu"),)

    def classify(layer):
        return lambda x, w, b: (layer.classify(x, w, b),)

    s_mn = rng.random((m, n))
    return [
        ("spectral", spectral, [rng.standard_normal((m + 1, n + 2))]),
        # a filter of exactly m x n: the vjp fills the whole buffer
        ("spectral exact allocation", spectral, [rng.standard_normal((m, n))]),
        ("apply", apply, [s_mn, adj, rng.standard_normal((n, width))]),
        # DiffPool's assignment is the transpose of a C-ordered n x m array
        ("apply column-major", apply,
         [np.asfortranarray(s_mn), adj, rng.standard_normal((n, width))]),
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
        ("gcn operand", gcn_operand, [rng.standard_normal((4, 3))]),
        ("apply constant", apply_constant, [s_mn, rng.standard_normal((n, width))]),
    ]


@pytest.mark.parametrize("case", range(11))
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
