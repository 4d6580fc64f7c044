"""Reference operations with one tape node each, and the pipeline stages
composed from them.

The package builds every pipeline stage as a single node with a
hand-written vjp. This module keeps the per-operation form those stages
replaced, built on the same ``autodiff.node`` so it runs on the same tape:
each op is checked against finite differences in ``test_autodiff``, and
each stage composed from them is the reference its fused counterpart is
compared with.
"""

from __future__ import annotations

import numpy as np

from wavepool import autodiff as ad
from wavepool.errors import NumericError
from wavepool.layers import GcnInput
from wavepool.model import ForwardResult, PoolStage, mid_pool_size
from wavepool.spectral import cosine_transform

# -- operations -----------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b):
    a, b = ad.as_var(a), ad.as_var(b)

    def vjp(g, grads):
        for acc in grads:
            if acc is not None:
                acc += _unbroadcast(g, acc.shape)

    return ad.node(a.value + b.value, (a, b), vjp)


def sub(a, b):
    a, b = ad.as_var(a), ad.as_var(b)

    def vjp(g, grads):
        acc_a, acc_b = grads
        if acc_a is not None:
            acc_a += _unbroadcast(g, acc_a.shape)
        if acc_b is not None:
            acc_b -= _unbroadcast(g, acc_b.shape)

    return ad.node(a.value - b.value, (a, b), vjp)


def mul(a, b):
    a, b = ad.as_var(a), ad.as_var(b)

    def vjp(g, grads):
        acc_a, acc_b = grads
        if acc_a is not None:
            acc_a += _unbroadcast(g * b.value, acc_a.shape)
        if acc_b is not None:
            acc_b += _unbroadcast(g * a.value, acc_b.shape)

    return ad.node(a.value * b.value, (a, b), vjp)


def scale(a, s: float):
    a = ad.as_var(a)
    return ad.node(a.value * s, (a,), lambda g, grads: grads[0].__iadd__(g * s))


def neg(a):
    return scale(a, -1.0)


def matmul(a, b):
    a, b = ad.as_var(a), ad.as_var(b)

    def vjp(g, grads):
        acc_a, acc_b = grads
        if acc_a is not None:
            acc_a += g @ b.value.T
        if acc_b is not None:
            acc_b += a.value.T @ g

    return ad.node(a.value @ b.value, (a, b), vjp)


def transpose(a):
    a = ad.as_var(a)
    return ad.node(a.value.T, (a,), lambda g, grads: grads[0].__iadd__(g.T))


def relu(a):
    a = ad.as_var(a)
    return ad.node(np.maximum(a.value, 0.0), (a,),
                   lambda g, grads: grads[0].__iadd__(g * (a.value > 0)))


def log(a):
    a = ad.as_var(a)
    return ad.node(np.log(a.value), (a,), lambda g, grads: grads[0].__iadd__(g / a.value))


def exp(a):
    a = ad.as_var(a)
    e = np.exp(a.value)
    return ad.node(e, (a,), lambda g, grads: grads[0].__iadd__(g * e))


def rsqrt(a):
    a = ad.as_var(a)
    return ad.node(a.value**-0.5, (a,),
                   lambda g, grads: grads[0].__iadd__(g * (-0.5 * a.value**-1.5)))


def row_sum(a):
    """Sum along the last axis, keeping it as a length-1 dimension."""
    a = ad.as_var(a)
    return ad.node(a.value.sum(axis=-1, keepdims=True), (a,),
                   lambda g, grads: grads[0].__iadd__(g))


def sum_all(a):
    a = ad.as_var(a)
    return ad.node(a.value.sum(), (a,), lambda g, grads: grads[0].__iadd__(g))


def row_softmax(a):
    """Softmax along the last axis."""
    a = ad.as_var(a)
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    sm = e / e.sum(axis=-1, keepdims=True)

    def vjp(g, grads):
        inner = (g * sm).sum(axis=-1, keepdims=True)
        grads[0] += sm * (g - inner)

    return ad.node(sm, (a,), vjp)


def getitem(a, idx):
    a = ad.as_var(a)

    def vjp(g, grads):
        grads[0][idx] += g

    return ad.node(a.value[idx], (a,), vjp)


def concat_columns(parts):
    """The inputs side by side along their last axis."""
    parts = [ad.as_var(p) for p in parts]
    bounds = np.cumsum([0] + [p.value.shape[-1] for p in parts])

    def vjp(g, grads):
        for acc, lo, hi in zip(grads, bounds[:-1], bounds[1:]):
            if acc is not None:
                acc += g[..., lo:hi]

    return ad.node(np.concatenate([p.value for p in parts], axis=-1), tuple(parts), vjp)


def reshape(a, shape):
    a = ad.as_var(a)
    return ad.node(a.value.reshape(shape), (a,),
                   lambda g, grads: grads[0].__iadd__(g.reshape(a.value.shape)))


def frobenius_norm(a):
    """sqrt(sum of squares); subgradient 0 at the origin."""
    a = ad.as_var(a)
    norm = float(np.sqrt((a.value * a.value).sum()))

    def vjp(g, grads):
        if norm > 0.0:
            grads[0] += (float(g) / norm) * a.value

    return ad.node(norm, (a,), vjp)


# -- pipeline stages composed per operation --------------------------------


def activate(x, activation: str):
    return relu(x) if activation == "relu" else x


def gwc_forward(thetas, bias, wavelets, activation):
    """Wavelet convolution from the (U, p_f, psi_f^+ X) operand, with
    psi_f^+ X widened back to all of X's columns. As in the fused layer, the
    scales' filtered inputs go through U^T and U side by side."""
    u, kernel, columns, projected = wavelets
    n, count, _ = projected.shape
    width = columns.size
    bias = getitem(bias, np.s_[:n, :])
    filtered = []
    for f, theta_full in enumerate(thetas):
        dense = np.zeros((n, width))
        dense[:, columns] = projected[:, f]
        filtered.append(matmul(getitem(theta_full, np.s_[:n, :n]), ad.constant(dense)))
    spectral = matmul(ad.constant(u.T), concat_columns(filtered))
    mixed = matmul(ad.constant(u), mul(ad.constant(np.repeat(kernel, width, axis=1)), spectral))
    total = None
    for f in range(count):
        pre = add(getitem(mixed, np.s_[:, f * width:(f + 1) * width]), bias)
        scaled = activate(pre, activation)
        total = scaled if total is None else add(total, scaled)
    return scale(total, 1.0 / count)


def dense_gwc_forward(bases, x):
    """A stand-in for ``gwc_forward`` that ignores its operand and composes
    act(psi_f theta_f psi_f^+ x + bias) from the dense psi_f and psi_f^+ of
    ``bases``, the wavelet bank of the graph whose features are ``x``."""
    def forward(thetas, bias, _, activation):
        n = x.shape[0]
        rows = getitem(bias, np.s_[:n, :])
        total = None
        for f, theta in enumerate(thetas):
            filtered = matmul(ad.constant(bases.psi(f)), matmul(
                getitem(theta, np.s_[:n, :n]), ad.constant(bases.psi_pinv(f) @ x)))
            scaled = activate(add(filtered, rows), activation)
            total = scaled if total is None else add(total, scaled)
        return scale(total, 1.0 / len(thetas))

    return forward


def spectral_pool_assign(theta, xi_n, xi_m):
    m, n = xi_m.shape[0], xi_n.shape[0]
    raw = matmul(matmul(ad.constant(xi_m), getitem(theta, np.s_[:m, :n])), ad.constant(xi_n.T))
    return row_softmax(raw)


def pool_apply(s, adjacency, features):
    return (matmul(matmul(s, adjacency), transpose(s)), matmul(s, features))


def renormalized(adjacency):
    """D^{-1/2} (A + I) D^{-1/2} of a Var adjacency, on the tape."""
    a_hat = add(adjacency, ad.constant(np.eye(adjacency.value.shape[0])))
    sums = row_sum(a_hat)
    if np.any(sums.value <= 0):
        raise NumericError("A + I has a nonpositive row sum")
    inv_sqrt = rsqrt(sums)
    return mul(mul(inv_sqrt, a_hat), transpose(inv_sqrt))


def gcn_forward(adjacency, features, weight, activation):
    """Graph convolution, Â (X W), with Â applied as d * (A (d * Y) + d * Y)
    from A and d = (rowsum(A) + 1)^{-1/2}; ``adjacency`` is a Var, whose d is
    formed on the tape, a ``Renormalized``, which holds A and d, or a
    ``GcnInput``, which holds Â X on X's non-zero columns and takes no
    features."""
    if isinstance(adjacency, GcnInput):
        rows = getitem(weight, np.s_[adjacency.columns, :])
        return activate(matmul(ad.constant(adjacency.propagated), rows), activation)
    transformed = matmul(features, weight)
    if isinstance(adjacency, ad.Var):
        sums = add(row_sum(adjacency), 1.0)
        if np.any(sums.value <= 0):
            raise NumericError("A + I has a nonpositive row sum")
        scale = rsqrt(sums)
    else:
        scale, adjacency = ad.constant(adjacency.scale), ad.constant(adjacency.adjacency)
    scaled = mul(scale, transformed)
    propagated = add(matmul(adjacency, scaled), scaled)
    return activate(mul(scale, propagated), activation)


def dense_gcn(adjacency, x):
    """Stand-ins for ``gcn_forward`` and ``diffpool_assign`` that form
    (Â X) W, the dense Â times the whole of X first, as the formula reads.
    A ``GcnInput`` stands for Â of ``adjacency``, the graph whose features
    are ``x``, and all of ``x``."""
    def forward(operand, features, weight, activation):
        if isinstance(operand, GcnInput):
            operand, features = ad.constant(adjacency), ad.constant(x)
        elif not isinstance(operand, ad.Var):  # a Renormalized holds A
            operand = ad.constant(operand.adjacency)
        normalized = renormalized(operand)
        return activate(matmul(matmul(normalized, features), weight), activation)

    def assign(operand, features, weight, width):
        z = forward(operand, features, getitem(weight, np.s_[:, :width]), "identity")
        return transpose(row_softmax(z))

    return forward, assign


def diffpool_assign(adjacency, features, weight, width):
    z = gcn_forward(adjacency, features, getitem(weight, np.s_[:, :width]), "identity")
    return transpose(row_softmax(z))


def classify(x_final, weight, bias):
    q, c = weight.value.shape
    return reshape(add(matmul(reshape(x_final, (1, q)), weight), bias), (c,))


def cross_entropy_loss(label, logits, class_count):
    """(logsumexp(z) - z[label]) / c, with the max of z shifted out as a
    constant; the shift leaves the gradient unchanged."""
    shifted = sub(logits, ad.constant(logits.value.max()))
    lse = log(sum_all(exp(shifted)))
    return scale(sub(lse, getitem(shifted, label)), 1.0 / class_count)


def link_prediction_loss(stage):
    s_nm = transpose(stage.assignment)
    return frobenius_norm(sub(stage.adjacency, matmul(s_nm, transpose(s_nm))))


def graph_loss(result, label, class_count, beta):
    ce = cross_entropy_loss(label, result.logits, class_count)
    if beta == 0.0 or not result.stages:
        return ce if beta == 0.0 else scale(ce, 1.0 - beta)
    lp = link_prediction_loss(result.stages[0])
    for stage in result.stages[1:]:
        lp = add(lp, link_prediction_loss(stage))
    lp = scale(lp, 1.0 / len(result.stages))
    return add(scale(ce, 1.0 - beta), scale(lp, beta))


def forward(model, graph):
    """``CrossScaleModel.forward`` composed from the stages above."""
    cfg, p = model.config, model.params
    n = graph.node_count
    inputs = model.inputs_for(graph)

    def assign(stage, adjacency, gcn_adjacency, features, n, m):
        if cfg.uses_spectral_pool:
            s = spectral_pool_assign(p[f"pool{stage}.theta"], cosine_transform(n),
                                     cosine_transform(m))
        else:
            s = diffpool_assign(gcn_adjacency, features, p[f"pool{stage}.assign"], m)
        return PoolStage(adjacency, s)

    adjacency = ad.constant(graph.adjacency)
    if cfg.uses_wavelets:
        thetas = [p[f"gwc.theta.{k}"] for k in range(len(cfg.scales))]
        h = gwc_forward(thetas, p["gwc.bias"], inputs.wavelets, cfg.activation)
    else:
        h = gcn_forward(inputs.gcn, None, p["conv1.weight"], cfg.activation)
    stages = []
    if n > cfg.m_out:
        m1 = mid_pool_size(n, cfg.m_out)
        stages.append(assign(1, adjacency, inputs.renormalized, h, n, m1))
        adjacency, h = pool_apply(stages[-1].assignment, adjacency, h)
        h = gcn_forward(adjacency, h, p["gcn.weight"], cfg.activation)
        if m1 > cfg.m_out:
            stages.append(assign(2, adjacency, adjacency, h, m1, cfg.m_out))
            adjacency, h = pool_apply(stages[-1].assignment, adjacency, h)
    else:
        h = gcn_forward(inputs.renormalized, h, p["gcn.weight"], cfg.activation)
        if n < cfg.m_out:
            h = ad.pad_rows(h, cfg.m_out)
    return ForwardResult(classify(h, p["classifier.weight"], p["classifier.bias"]), stages)
