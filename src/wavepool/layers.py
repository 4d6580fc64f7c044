"""Forward computations for the pipeline layers.

All operations consume and produce autodiff ``Var`` nodes so the training
module can backpropagate through them. Learnable tensors are allocated at a
configured maximum size and sliced to each graph's node count; the leading
rows/columns of the pooling filter correspond to the lowest frequencies of
the cosine transform.

The wavelet convolution is one tape node over every scale, with a
hand-written vjp that writes straight into the full-size filter and bias
gradients. Its graph-only operands, psi_f and psi_f^+ X, can be passed in
precomputed as ``ScaleInput``s, and the graph convolution accepts a
``Renormalized`` constant adjacency instead of renormalizing on the tape;
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
from .spectral import SpectralTransform, WaveletBasis

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


def gwc_forward(h: Var, params: GwcLayerParams,
                bases: Sequence[WaveletBasis | ScaleInput]) -> Var:
    """Wavelet convolution: average over scales of act(psi theta psi^+ h + bias).

    Each scale comes as its ``WaveletBasis``, and psi^+ h is formed here,
    or as a ``ScaleInput`` that already holds psi^+ h. Only a basis carries
    psi^+, so ``h`` can take a gradient only when every scale is a basis.
    Products run right to left, so a scale costs n^2 l per matmul. The
    result is a single tape node.
    """
    n, width = h.value.shape
    if len(bases) != len(params.scales):
        raise ContractViolationError(
            f"got {len(bases)} bases for {len(params.scales)} scales"
        )
    n_max = params.thetas[0].value.shape[0]
    if n > n_max:
        raise ContractViolationError(f"graph size {n} exceeds theta allocation {n_max}")
    if params.bias.value.shape[1] != width:
        raise ContractViolationError(
            f"bias width {params.bias.value.shape[1]} != feature width {width}"
        )
    operands = []  # (psi, psi^+ h, psi^+ or None) per scale
    for scale, basis in zip(params.scales, bases):
        if basis.psi.shape != (n, n):
            raise ContractViolationError(
                f"basis for scale {scale} has size {basis.psi.shape[0]}, graph has {n}"
            )
        if isinstance(basis, WaveletBasis):
            operands.append((basis.psi, basis.psi_pinv @ h.value, basis.psi_pinv))
            continue
        if basis.projected.shape != (n, width):
            raise ContractViolationError(
                f"projected input for scale {scale} has shape {basis.projected.shape}, "
                f"features have {(n, width)}"
            )
        if h.requires_grad:
            raise ContractViolationError(
                "a projected scale input holds no psi^+, so h cannot take a gradient"
            )
        operands.append((basis.psi, basis.projected, None))

    relu = params.activation == "relu"
    thetas = [theta.value[:n, :n] for theta in params.thetas]
    bias = params.bias.value[:n, :]
    total, masks = None, []
    for (psi, projected, _), theta in zip(operands, thetas):
        pre = psi @ (theta @ projected) + bias
        if relu:
            masks.append(pre > 0)
            pre = np.maximum(pre, 0.0)
        if total is None:
            total = pre
        else:
            total += pre
    inv_count = 1.0 / len(params.scales)

    def vjp(g, grads):
        *theta_grads, bias_grad, h_grad = grads
        g = g * inv_count
        for k, ((psi, projected, pinv), theta) in enumerate(zip(operands, thetas)):
            g_k = g * masks[k] if relu else g
            if bias_grad is not None:
                bias_grad[:n, :] += g_k
            inner = psi.T @ g_k
            if theta_grads[k] is not None:
                theta_grads[k][:n, :n] += inner @ projected.T
            if h_grad is not None:
                h_grad += pinv.T @ (theta.T @ inner)

    return ad.fused(total * inv_count, (*params.thetas, params.bias, h), vjp)


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
