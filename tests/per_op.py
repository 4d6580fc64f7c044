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
from wavepool.errors import ContractViolationError, NumericError
from wavepool.layers import GcnLayerParams
from wavepool.model import ForwardResult, PoolStage, mid_pool_size
from wavepool.spectral import cosine_transform
from wavepool.training import PROB_FLOOR, STAGE_MODES

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


def clip_min(a, lo: float):
    a = ad.as_var(a)
    return ad.node(np.maximum(a.value, lo), (a,),
                   lambda g, grads: grads[0].__iadd__(g * (a.value > lo)))


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


def gwc_forward(params, scales):
    """Wavelet convolution from per-scale (psi, psi^+ X) operands."""
    n = scales[0].psi.shape[0]
    bias = getitem(params.bias, np.s_[:n, :])
    total = None
    for theta_full, (psi, projected) in zip(params.thetas, scales):
        theta = getitem(theta_full, np.s_[:n, :n])
        filtered = matmul(ad.constant(psi), matmul(theta, ad.constant(projected)))
        scaled = activate(add(filtered, bias), params.activation)
        total = scaled if total is None else add(total, scaled)
    return scale(total, 1.0 / len(params.scales))


def spectral_pool_assign(n, params, xi_n, xi_m):
    m = xi_m.size
    theta = getitem(params.theta, np.s_[:m, :n])
    raw = matmul(matmul(ad.constant(xi_m.matrix), theta), ad.constant(xi_n.matrix.T))
    return row_softmax(raw) if params.softmax_rows else raw


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


def gcn_forward(adjacency, features, params):
    """Graph convolution; ``adjacency`` is a Var or a ``Renormalized``."""
    if isinstance(adjacency, ad.Var):
        normalized = renormalized(adjacency)
    else:
        normalized = ad.constant(adjacency.matrix)
    return activate(matmul(matmul(normalized, features), params.weight), params.activation)


def diffpool_assign(adjacency, features, weight, width):
    params = GcnLayerParams(getitem(weight, np.s_[:, :width]), "identity")
    return transpose(row_softmax(gcn_forward(adjacency, features, params)))


def classify(x_final, params):
    q, c = params.weight.value.shape
    logits = add(matmul(reshape(x_final, (1, q)), params.weight), params.bias)
    return reshape(logits, (c,)), reshape(row_softmax(logits), (c,))


def cross_entropy_loss(label, probs, class_count):
    onehot = np.zeros(class_count)
    onehot[label] = 1.0
    picked = sum_all(mul(ad.constant(onehot), log(clip_min(probs, PROB_FLOOR))))
    return scale(picked, -1.0 / class_count)


def link_prediction_loss(stage):
    s_nm = transpose(stage.assignment)
    return frobenius_norm(sub(stage.adjacency, matmul(s_nm, transpose(s_nm))))


def graph_loss(result, label, class_count, beta, stage_mode="mean"):
    if stage_mode not in STAGE_MODES:
        raise ContractViolationError(f"unknown stage mode {stage_mode!r}")
    ce = cross_entropy_loss(label, result.probs, class_count)
    if beta == 0.0 or not result.stages:
        return ce if beta == 0.0 else scale(ce, 1.0 - beta)
    stages = result.stages[:1] if stage_mode == "first" else result.stages
    lp = link_prediction_loss(stages[0])
    for stage in stages[1:]:
        lp = add(lp, link_prediction_loss(stage))
    if stage_mode == "mean":
        lp = scale(lp, 1.0 / len(stages))
    return add(scale(ce, 1.0 - beta), scale(lp, beta))


def forward(model, graph):
    """``CrossScaleModel.forward`` composed from the stages above."""
    cfg = model.config
    n = graph.node_count
    inputs = model.inputs_for(graph)

    def assign(stage, adjacency, gcn_adjacency, features, n, m):
        params = model.pool1 if stage == 1 else model.pool2
        if cfg.uses_spectral_pool:
            s = spectral_pool_assign(n, params, cosine_transform(n), cosine_transform(m))
        else:
            s = diffpool_assign(gcn_adjacency, features, params, m)
        return PoolStage(adjacency, s)

    adjacency = ad.constant(graph.adjacency)
    if cfg.uses_wavelets:
        h = gwc_forward(model.gwc, inputs.scales)
    else:
        h = gcn_forward(inputs.renormalized, ad.constant(graph.features), model.conv1)
    stages = []
    if n > cfg.m_out:
        m1 = mid_pool_size(n, cfg.m_out)
        stages.append(assign(1, adjacency, inputs.renormalized, h, n, m1))
        adjacency, h = pool_apply(stages[-1].assignment, adjacency, h)
        h = gcn_forward(adjacency, h, model.gcn)
        if m1 > cfg.m_out:
            stages.append(assign(2, adjacency, adjacency, h, m1, cfg.m_out))
            adjacency, h = pool_apply(stages[-1].assignment, adjacency, h)
    else:
        h = gcn_forward(inputs.renormalized, h, model.gcn)
        if n < cfg.m_out:
            h = ad.pad_rows(h, cfg.m_out)
    logits, probs = classify(h, model.classifier)
    return ForwardResult(logits, probs, stages)
