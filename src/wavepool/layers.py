"""Forward computations for the pipeline layers.

Every stage is one autodiff node with a hand-written vjp: the wavelet
convolution over all scales, the spectral and DiffPool assignments, the
pooled adjacency and pooled features, the graph convolution and the
classifier's logits and probabilities. Each takes ``Var`` operands (or
read-only arrays for what the graph alone determines) and returns ``Var``
nodes; inside ``autodiff.no_grad()`` those are constants, so the same code
serves inference. Learnable tensors are allocated at a configured maximum
size and sliced to each graph's node count, and each vjp adds straight into
the slice of the full-size gradient buffer; the leading rows/columns of the
pooling filter correspond to the lowest frequencies of the cosine
transform.

Both assignments, spectral and DiffPool, are m x n: one row per pooled
node, one column per input node. ``pool_apply`` takes either.

The wavelet convolution reads the graph only through its precomputed
operands, psi_f and psi_f^+ X per scale (``ScaleInput``), and the graph
convolution accepts a ``Renormalized`` constant adjacency instead of
renormalizing a ``Var`` one; the model memoises both per graph.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ContractViolationError, NumericError, PoolingDegenerateError
from .spectral import SpectralTransform

ACTIVATIONS = ("relu", "identity")


def activate(x: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(x, 0.0)
    if activation == "identity":
        return x
    raise ContractViolationError(f"unknown activation {activation!r}")


def activation_lipschitz(activation: str) -> float:
    _check_activation(activation)
    return 1.0  # both relu and identity are 1-Lipschitz


def _check_finite(name: str, var: Var) -> None:
    if not np.all(np.isfinite(var.value)):
        raise ContractViolationError(f"parameter {name} contains non-finite entries")


def _check_activation(activation: str) -> None:
    if activation not in ACTIVATIONS:
        raise ContractViolationError(f"unknown activation {activation!r}")


@dataclass
class GwcLayerParams:
    """Multi-scale wavelet convolution: per-scale node filters plus a bias."""

    scales: tuple[float, ...]
    thetas: list[Var]  # one (n_max, n_max) filter per scale
    bias: Var          # (n_max, feature_dim)
    activation: str = "relu"

    def __post_init__(self):
        if len(self.scales) < 1 or len(self.thetas) != len(self.scales):
            raise ContractViolationError("need one theta per scale and at least one scale")
        for k, theta in enumerate(self.thetas):
            _check_finite(f"gwc.theta.{k}", theta)
        _check_finite("gwc.bias", self.bias)
        _check_activation(self.activation)


@dataclass
class SpectralPoolParams:
    """Frequency-domain assignment filter; rows map to pooled nodes."""

    target_size: int
    theta: Var  # (m_max, n_max)
    softmax_rows: bool = True

    def __post_init__(self):
        if self.target_size < 1:
            raise ContractViolationError("target_size must be positive")
        _check_finite("pool.theta", self.theta)


@dataclass
class GcnLayerParams:
    weight: Var  # (l_in, l_out)
    activation: str = "relu"

    def __post_init__(self):
        _check_finite("gcn.weight", self.weight)
        _check_activation(self.activation)


@dataclass
class ClassifierParams:
    weight: Var  # (m_out * l, c)
    bias: Var    # (c,)

    def __post_init__(self):
        _check_finite("classifier.weight", self.weight)
        _check_finite("classifier.bias", self.bias)


class ScaleInput(NamedTuple):
    """One scale of the wavelet convolution for a constant input X."""

    psi: np.ndarray        # (n, n)
    projected: np.ndarray  # psi^+ X, (n, l)


def gwc_forward(params: GwcLayerParams, scales: Sequence[ScaleInput]) -> Var:
    """Wavelet convolution: average over scales of act(psi theta psi^+ X + bias).

    Each scale brings psi and the projected input psi^+ X, so the graph and
    its features come in through ``scales`` alone. Products run right to
    left, so a scale costs n^2 l per matmul. The result is a single tape
    node over the filters and the bias.
    """
    if len(scales) != len(params.scales):
        raise ContractViolationError(
            f"got {len(scales)} scale inputs for {len(params.scales)} scales"
        )
    n, width = scales[0].projected.shape
    n_max = params.thetas[0].value.shape[0]
    if n > n_max:
        raise ContractViolationError(f"graph size {n} exceeds theta allocation {n_max}")
    if params.bias.value.shape[1] != width:
        raise ContractViolationError(
            f"bias width {params.bias.value.shape[1]} != feature width {width}"
        )
    for scale, (psi, projected) in zip(params.scales, scales):
        if psi.shape != (n, n) or projected.shape != (n, width):
            raise ContractViolationError(
                f"scale {scale} has psi {psi.shape} and projected input {projected.shape}, "
                f"expected {(n, n)} and {(n, width)}"
            )

    relu = params.activation == "relu"
    bias = params.bias.value[:n, :]
    total, masks = None, []
    for (psi, projected), theta in zip(scales, params.thetas):
        pre = psi @ (theta.value[:n, :n] @ projected) + bias
        if relu:
            masks.append(pre > 0)
        pre = activate(pre, params.activation)
        if total is None:
            total = pre
        else:
            total += pre
    inv_count = 1.0 / len(params.scales)

    def vjp(g, grads):
        *theta_grads, bias_grad = grads
        g = g * inv_count
        for k, (psi, projected) in enumerate(scales):
            g_k = g * masks[k] if relu else g
            if bias_grad is not None:
                bias_grad[:n, :] += g_k
            if theta_grads[k] is not None:
                theta_grads[k][:n, :n] += (psi.T @ g_k) @ projected.T

    return ad.node(total * inv_count, (*params.thetas, params.bias), vjp)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(g: np.ndarray, sm: np.ndarray) -> np.ndarray:
    """The gradient at the softmax's input, given ``g`` at its output ``sm``."""
    return sm * (g - (g * sm).sum(axis=-1, keepdims=True))


def spectral_pool_assign(
    n: int,
    params: SpectralPoolParams,
    xi_n: SpectralTransform,
    xi_m: SpectralTransform,
) -> Var:
    """Assignment matrix S = xi_m theta[:m, :n] xi_n^T, optionally row-softmaxed.

    The pooled size is xi_m.size; it must be strictly smaller than n. The
    vjp adds xi_m^T G xi_n into the filter's leading m x n block, G being
    the gradient at the raw (pre-softmax) assignment.
    """
    m = xi_m.size
    if m >= n:
        raise PoolingDegenerateError(f"pooled size {m} must be < graph size {n}")
    if xi_n.size != n:
        raise ContractViolationError(f"xi_n has size {xi_n.size}, graph has {n}")
    mm, nm = params.theta.value.shape
    if m > mm or n > nm:
        raise ContractViolationError(
            f"pool filter allocation {params.theta.value.shape} too small for ({m}, {n})"
        )
    softmax_rows = params.softmax_rows
    s = xi_m.matrix @ params.theta.value[:m, :n] @ xi_n.matrix.T
    if softmax_rows:
        s = _softmax(s)

    def vjp(g, grads):
        if softmax_rows:
            g = _softmax_vjp(g, s)
        grads[0][:m, :n] += xi_m.matrix.T @ (g @ xi_n.matrix)

    return ad.node(s, (params.theta,), vjp)


def pool_apply(s: Var, adjacency: Var, features: Var) -> tuple[Var, Var]:
    """Pool structure and features with an m x n assignment: A' = S A S^T,
    X' = S X, one node each."""
    s_mn = s.value
    n = s_mn.shape[1]
    a, x = adjacency.value, features.value
    if a.shape != (n, n):
        raise ContractViolationError(
            f"adjacency shape {a.shape} incompatible with S {s_mn.shape}"
        )
    if x.shape[0] != n:
        raise ContractViolationError(
            f"features rows {x.shape[0]} incompatible with S columns {n}"
        )
    left = s_mn @ a

    def adjacency_vjp(g, grads):
        acc_s, acc_a = grads
        g_left = g @ s_mn
        if acc_s is not None:
            acc_s += g_left @ a.T + g.T @ left
        if acc_a is not None:
            acc_a += s_mn.T @ g_left

    def features_vjp(g, grads):
        acc_s, acc_x = grads
        if acc_s is not None:
            acc_s += g @ x.T
        if acc_x is not None:
            acc_x += s_mn.T @ g

    return (ad.node(left @ s_mn.T, (s, adjacency), adjacency_vjp),
            ad.node(s_mn @ x, (s, features), features_vjp))


@dataclass(frozen=True)
class Renormalized:
    """D^{-1/2} (A + I) D^{-1/2} of a constant adjacency, formed once."""

    matrix: np.ndarray


def _renormalized(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D^{-1/2} (A + I) D^{-1/2} and the column of D^{-1/2}'s diagonal."""
    a_hat = adjacency + np.eye(adjacency.shape[0])
    sums = a_hat.sum(axis=-1, keepdims=True)
    if np.any(sums <= 0):
        bad = int(np.argmax(sums.ravel() <= 0))
        raise NumericError(f"row {bad} of A + I has nonpositive sum; cannot normalize")
    inv_sqrt = sums**-0.5
    return inv_sqrt * a_hat * inv_sqrt.T, inv_sqrt


def renormalize(adjacency: np.ndarray) -> Renormalized:
    """The renormalized adjacency, computed as ``gcn_forward`` does for a Var."""
    matrix, _ = _renormalized(adjacency)
    matrix.setflags(write=False)
    return Renormalized(matrix)


def _propagate(adjacency: Var | Renormalized, features: Var, weight: Var, width: int):
    """Z = Â X W[:, :width], the node inputs, and a vjp adding dL/dZ into them.

    The inputs are (adjacency, features, weight) for a ``Var`` adjacency,
    whose gradient goes back through the renormalization, and (features,
    weight) for a ``Renormalized`` one.
    """
    if isinstance(adjacency, Renormalized):
        normalized, inv_sqrt = adjacency.matrix, None
        inputs = (features, weight)
    else:
        normalized, inv_sqrt = _renormalized(adjacency.value)
        inputs = (adjacency, features, weight)
    x, w = features.value, weight.value[:, :width]
    propagated = normalized @ x

    def vjp(g, grads):
        *acc_a, acc_x, acc_w = grads
        acc_a = acc_a[0] if acc_a else None
        if acc_w is not None:
            acc_w[:, :width] += propagated.T @ g
        if acc_x is None and acc_a is None:
            return
        g_propagated = g @ w.T
        if acc_x is not None:
            acc_x += normalized.T @ g_propagated
        if acc_a is not None:
            g_normalized = g_propagated @ x.T
            # each row sum of A + I scales its row and its column of Â
            through = g_normalized * normalized
            g_sums = -0.5 * (through.sum(axis=0)[:, None]
                             + through.sum(axis=1, keepdims=True)) * inv_sqrt**2
            acc_a += inv_sqrt * g_normalized * inv_sqrt.T + g_sums

    return propagated @ w, inputs, vjp


def gcn_forward(adjacency: Var | Renormalized, features: Var, params: GcnLayerParams) -> Var:
    """Renormalized graph convolution act(D^{-1/2} (A + I) D^{-1/2} X W).

    A ``Var`` adjacency is renormalized inside the node, so a pooled
    adjacency takes gradients; it may carry real weights, and a row of A + I
    whose sum is not positive cannot be normalized and raises. A constant
    adjacency can be renormalized once beforehand with ``renormalize``.
    """
    z, inputs, propagate_vjp = _propagate(adjacency, features, params.weight,
                                          params.weight.value.shape[1])
    relu = params.activation == "relu"

    def vjp(g, grads):
        propagate_vjp(g * (z > 0) if relu else g, grads)

    return ad.node(activate(z, params.activation), inputs, vjp)


def diffpool_assign(adjacency: Var | Renormalized, features: Var, weight: Var,
                    width: int) -> Var:
    """Assignment S = softmax(Â X W[:, :width])^T, one row per pooled node
    (width x n); each node's memberships sum to one."""
    cols = weight.value.shape[1]
    if not 1 <= width <= cols:
        raise ContractViolationError(f"assignment width {width} outside [1, {cols}]")
    z, inputs, propagate_vjp = _propagate(adjacency, features, weight, width)
    s = _softmax(z)
    return ad.node(s.T, inputs, lambda g, grads: propagate_vjp(_softmax_vjp(g.T, s), grads))


def classify(x_final: Var, params: ClassifierParams) -> tuple[Var, Var]:
    """Flatten the fixed-size pooled features and apply the linear head.

    Returns (logits, probabilities), both length-c vectors, one node each.
    """
    q, c = params.weight.value.shape
    rows, width = x_final.value.shape
    if rows * width != q:
        raise ContractViolationError(
            f"classifier expects {q} inputs, pipeline produced {rows}x{width}; "
            "the pooled size is wrong"
        )
    flat = x_final.value.reshape(1, q)
    weight = params.weight.value

    def logits_vjp(g, grads):
        acc_x, acc_w, acc_b = grads
        g = g.reshape(1, c)
        if acc_x is not None:
            acc_x += (g @ weight.T).reshape(rows, width)
        if acc_w is not None:
            acc_w += flat.T @ g
        if acc_b is not None:
            acc_b += g[0]

    logit_values = (flat @ weight + params.bias.value).reshape(c)
    logits = ad.node(logit_values, (x_final, params.weight, params.bias), logits_vjp)
    probs = _softmax(logit_values)

    def probs_vjp(g, grads):
        grads[0] += _softmax_vjp(g, probs)

    return logits, ad.node(probs, (logits,), probs_vjp)
