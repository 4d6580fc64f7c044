"""Forward computations for the pipeline layers.

All operations consume and produce autodiff ``Var`` nodes so the training
module can backpropagate through them. Learnable tensors are allocated at a
configured maximum size and sliced to each graph's node count; the leading
rows/columns of the pooling filter correspond to the lowest frequencies of
the cosine transform.

The wavelet convolution is one tape node over every scale, with a
hand-written vjp that writes straight into the full-size filter and bias
gradients. It reads the graph only through its precomputed operands, psi_f
and psi_f^+ X per scale (``ScaleInput``), and the graph convolution accepts
a ``Renormalized`` constant adjacency instead of renormalizing on the tape;
the model memoises both per graph.
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


def activate(x: Var, activation: str) -> Var:
    if activation == "relu":
        return ad.relu(x)
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
            pre = np.maximum(pre, 0.0)
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


def spectral_pool_assign(
    n: int,
    params: SpectralPoolParams,
    xi_n: SpectralTransform,
    xi_m: SpectralTransform,
) -> Var:
    """Assignment matrix S = xi_m theta_slice xi_n^T, optionally row-softmaxed.

    The pooled size is xi_m.size; it must be strictly smaller than n.
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
    theta = params.theta[:m, :n]
    raw = ad.constant(xi_m.matrix) @ theta @ ad.constant(xi_n.matrix.T)
    if params.softmax_rows:
        return ad.row_softmax(raw)
    return raw


def pool_apply(s: Var, adjacency: Var, features: Var) -> tuple[Var, Var]:
    """Pool structure and features: A' = S A S^T, X' = S X."""
    m, n = s.value.shape
    if adjacency.value.shape != (n, n):
        raise ContractViolationError(
            f"adjacency shape {adjacency.value.shape} incompatible with S {s.value.shape}"
        )
    if features.value.shape[0] != n:
        raise ContractViolationError(
            f"features rows {features.value.shape[0]} incompatible with S columns {n}"
        )
    pooled_adj = s @ adjacency @ ad.transpose(s)
    pooled_feats = s @ features
    return pooled_adj, pooled_feats


@dataclass(frozen=True)
class Renormalized:
    """D^{-1/2} (A + I) D^{-1/2} of a constant adjacency, formed once."""

    matrix: np.ndarray


def renormalize(adjacency: np.ndarray) -> Renormalized:
    """The renormalized adjacency, computed as ``gcn_forward``'s tape does."""
    a_hat = adjacency + np.eye(adjacency.shape[0])
    sums = a_hat.sum(axis=-1, keepdims=True)
    _check_row_sums(sums)
    inv_sqrt = sums**-0.5
    matrix = inv_sqrt * a_hat * inv_sqrt.T
    matrix.setflags(write=False)
    return Renormalized(matrix)


def _check_row_sums(sums: np.ndarray) -> None:
    if np.any(sums <= 0):
        bad = int(np.argmax(sums.ravel() <= 0))
        raise NumericError(f"row {bad} of A + I has nonpositive sum; cannot normalize")


def gcn_forward(adjacency: Var | Renormalized, features: Var, params: GcnLayerParams) -> Var:
    """Renormalized graph convolution act(D^{-1/2} (A + I) D^{-1/2} X W).

    A ``Var`` adjacency is renormalized on the tape, so a pooled adjacency
    takes gradients; it may carry real weights, and a row of A + I whose sum
    is not positive cannot be normalized and raises. A constant adjacency
    can be renormalized once beforehand with ``renormalize``.
    """
    if isinstance(adjacency, Renormalized):
        normalized = ad.constant(adjacency.matrix)
    else:
        n = adjacency.value.shape[0]
        a_hat = adjacency + ad.constant(np.eye(n))
        sums = ad.row_sum(a_hat)
        _check_row_sums(sums.value)
        inv_sqrt = ad.rsqrt(sums)
        normalized = inv_sqrt * a_hat * ad.transpose(inv_sqrt)
    return activate(normalized @ features @ params.weight, params.activation)


def diffpool_assign(adjacency: Var | Renormalized, features: Var, weight: Var) -> Var:
    """Assignment S = softmax(GCN(A, X)) with clusters along columns (n x m)."""
    gcn = GcnLayerParams(weight=weight, activation="identity")
    return ad.row_softmax(gcn_forward(adjacency, features, gcn))


def classify(x_final: Var, params: ClassifierParams) -> tuple[Var, Var]:
    """Flatten the fixed-size pooled features and apply the linear head.

    Returns (logits, probabilities), both length-c vectors.
    """
    q, c = params.weight.value.shape
    rows, width = x_final.value.shape
    if rows * width != q:
        raise ContractViolationError(
            f"classifier expects {q} inputs, pipeline produced {rows}x{width}; "
            "the pooled size is wrong"
        )
    flat = ad.reshape(x_final, (1, q))
    logits = flat @ params.weight + params.bias
    probs = ad.row_softmax(logits)
    return ad.reshape(logits, (c,)), ad.reshape(probs, (c,))
