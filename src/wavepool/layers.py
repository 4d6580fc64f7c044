"""Forward computations for the pipeline layers.

Every stage is one autodiff node with a hand-written vjp: the wavelet
convolution over all scales, the spectral and DiffPool assignments, the
pooled adjacency and pooled features, the graph convolution and the
classifier's logits. Each takes the model's parameter
``Var``s themselves (``model.parameter_shapes`` names them), activations and
other settings as plain values, and read-only arrays for what the graph
alone determines; it returns ``Var`` nodes. Inside ``autodiff.no_grad()``
those are constants, so the same code serves inference. Layers check
shapes only; the model checks that its tensors are finite. Learnable
tensors are allocated at a configured maximum size and sliced to each
graph's node count, and each vjp adds straight into the slice of the
full-size gradient buffer; the leading rows/columns of the pooling filter
correspond to the lowest frequencies of the cosine transform.

Both assignments, spectral and DiffPool, are m x n: one row per pooled
node, one column per input node. ``pool_apply`` takes either.

The wavelet convolution reads the graph only through one precomputed
operand (``WaveletInput``). Every graph convolution, DiffPool's included,
applies Â from A and D^{-1/2} (``Renormalized``), a pooled adjacency as
well as the graph's own, and forms X W[:, :width] before multiplying by Â,
so its n x n product runs at the width it keeps: m columns for an m-node
assignment. On the graph's own features the first convolution reads a
``GcnInput``, Â X on X's non-zero columns, so it is one n x k by k x l
product; the model memoises it and the graph's ``Renormalized``.

Every scale's wavelet is a function of one Laplacian spectrum,
psi_f = U diag(p_f) U^T, so the operand takes U and the (n, F) p_f(lambda)
from the graph's wavelet bank as they are and applies psi_f as
U (p_f * U^T y); no dense psi_f or psi_f^+ is formed. A column of
psi_f^+ X is zero wherever X's column is, so ``wavelet_input`` keeps
psi_f^+ X on X's non-zero columns only and the convolution multiplies only
those: one-hot features (degrees, node labels) use a few of their columns
per graph, while dense features keep them all.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ContractViolationError, NumericError, PoolingDegenerateError

ACTIVATIONS = ("relu", "identity")


def activate(x: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(x, 0.0)
    if activation == "identity":
        return x
    raise ContractViolationError(f"unknown activation {activation!r}")


def activation_lipschitz(activation: str) -> float:
    if activation not in ACTIVATIONS:
        raise ContractViolationError(f"unknown activation {activation!r}")
    return 1.0  # both relu and identity are 1-Lipschitz


class WaveletInput(NamedTuple):
    """The wavelet convolution's operands for one graph with F scales and a
    constant input X (n x l), restricted to the k columns of X that are not
    all zero."""

    eigvecs: np.ndarray    # (n, n) U, shared by every scale
    kernel: np.ndarray     # (n, F) p_f(lambda), one column per scale
    columns: np.ndarray    # (l,) bool, X's non-zero columns
    projected: np.ndarray  # (n, F, k), psi_f^+ X[:, columns] at [:, f, :]


def wavelet_input(bases, x: np.ndarray) -> WaveletInput:
    """The operand of the features ``x`` for ``bases``, the wavelet bank of
    one graph that ``spectral.wavelet_bases`` built; it shares the bank's U
    and p_f(lambda), and every array is read-only.

    U^T X is formed once for all scales, and psi_f^+ X = U (p_f^+ * U^T X).
    """
    eigvecs, inverse = bases.eigvecs, bases.inverse
    columns = x.any(axis=0)
    spectral = eigvecs.T @ np.compress(columns, x, axis=1)
    n, k = spectral.shape
    projected = eigvecs @ (inverse[:, :, None] * spectral[:, None, :]).reshape(n, -1)
    for array in (columns, projected):
        array.setflags(write=False)
    return WaveletInput(eigvecs, bases.values, columns, projected.reshape(n, inverse.shape[1], k))


def _apply_wavelets(eigvecs: np.ndarray, kernel: np.ndarray, y: np.ndarray) -> np.ndarray:
    """psi_f y[:, f] = U (p_f * U^T y[:, f]) for every scale f of an (n, F, k)
    ``y``, with one product by U^T and one by U for all scales."""
    n, count, k = y.shape
    spectral = (eigvecs.T @ y.reshape(n, count * k)).reshape(n, count, k)
    spectral *= kernel[:, :, None]
    return (eigvecs @ spectral.reshape(n, count * k)).reshape(n, count, k)


def gwc_forward(thetas: Sequence[Var], bias: Var, wavelets: WaveletInput,
                activation: str) -> Var:
    """Wavelet convolution: average over scales of act(psi_f theta_f psi_f^+ X + bias).

    ``thetas`` holds one (n_max, n_max) filter per scale and ``bias`` is
    (n_max, l). The graph and its features come in through ``wavelets``
    alone, and every column of the output outside X's k non-zero columns is
    act(bias). The filtered inputs theta_f psi_f^+ X of all scales sit side
    by side in one n x F k array, so a single product with U^T and one with
    U apply every psi_f; a scale costs 3 n^2 k. The result is a single tape
    node over the filters and the bias.
    """
    eigvecs, kernel, columns, projected = wavelets
    n, count, k = projected.shape
    if not thetas or len(thetas) != count:
        raise ContractViolationError(
            f"got {count} scales for {len(thetas)} filters; need one per filter and at least one"
        )
    if (eigvecs.shape != (n, n) or kernel.shape != (n, count)
            or k != np.count_nonzero(columns)):
        raise ContractViolationError(
            f"wavelet operand has U {eigvecs.shape}, kernel {kernel.shape} and projected "
            f"input {projected.shape} for {np.count_nonzero(columns)} columns"
        )
    n_max = thetas[0].value.shape[0]
    if n > n_max:
        raise ContractViolationError(f"graph size {n} exceeds theta allocation {n_max}")
    width = columns.size
    if bias.value.shape[1] != width:
        raise ContractViolationError(
            f"bias width {bias.value.shape[1]} != feature width {width}"
        )

    relu = activation == "relu"
    bias_rows = bias.value[:n, :]
    filtered = np.empty((n, count, k))
    for f, theta in enumerate(thetas):
        np.matmul(theta.value[:n, :n], projected[:, f], out=filtered[:, f])
    pre = _apply_wavelets(eigvecs, kernel, filtered)
    pre += np.compress(columns, bias_rows, axis=1)[:, None, :]
    inv_count = 1.0 / count
    out = activate(bias_rows, activation)
    if out is bias_rows:  # identity returns the parameter's own rows
        out = out.copy()
    out[:, columns] = activate(pre, activation).sum(axis=1) * inv_count

    def vjp(g, grads):
        *theta_grads, bias_grad = grads
        g_active = np.compress(columns, g, axis=1) * inv_count
        if relu:
            g_scales = g_active[:, None, :] * (pre > 0)
        else:
            g_scales = np.broadcast_to(g_active[:, None, :], (n, count, k))
        if bias_grad is not None and relu:
            g_bias = g * (out > 0)  # act(bias) outside X's non-zero columns
            g_bias[:, columns] = g_scales.sum(axis=1)
            bias_grad[:n, :] += g_bias
        elif bias_grad is not None:
            bias_grad[:n, :] += g
        if all(acc is None for acc in theta_grads):
            return
        back = _apply_wavelets(eigvecs, kernel, g_scales)  # psi_f is symmetric
        for f, acc in enumerate(theta_grads):
            if acc is not None:
                acc[:n, :n] += back[:, f] @ projected[:, f].T

    return ad.node(out, (*thetas, bias), vjp)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(g: np.ndarray, sm: np.ndarray) -> np.ndarray:
    """The gradient at the softmax's input, given ``g`` at its output ``sm``."""
    return sm * (g - (g * sm).sum(axis=-1, keepdims=True))


def spectral_pool_assign(theta: Var, xi_n: np.ndarray, xi_m: np.ndarray) -> Var:
    """Assignment matrix S = softmax(xi_m theta[:m, :n] xi_n^T), the softmax
    taken along each row, so every pooled node's row is a distribution
    over the graph's nodes.

    ``xi_n`` and ``xi_m`` are the n- and m-point cosine transforms; the
    pooled size m must be strictly smaller than n. The vjp adds
    xi_m^T G xi_n into the filter's leading m x n block, G being the
    gradient at the pre-softmax assignment.
    """
    m, n = xi_m.shape[0], xi_n.shape[0]
    if m >= n:
        raise PoolingDegenerateError(f"pooled size {m} must be < graph size {n}")
    mm, nm = theta.value.shape
    if m > mm or n > nm:
        raise ContractViolationError(
            f"pool filter allocation {theta.value.shape} too small for ({m}, {n})"
        )
    s = _softmax(xi_m @ theta.value[:m, :n] @ xi_n.T)

    def vjp(g, grads):
        grads[0][:m, :n] += xi_m.T @ (_softmax_vjp(g, s) @ xi_n)

    return ad.node(s, (theta,), vjp)


def pool_apply(s: Var, adjacency: Var, features: Var,
               symmetric: bool = False) -> tuple[Var, Var, np.ndarray]:
    """Pool structure and features with an m x n assignment: A' = S A S^T
    and X' = S X, one node each, and the m x n product S A as a plain array,
    which the structure term of a constant A reuses.

    dL/dS of A' is G S A^T + G^T S A. With ``symmetric`` the caller vouches
    that a constant A is symmetric, as a ``Graph``'s own adjacency is, and
    dL/dS is (G + G^T)(S A) from the S A already held, m^2 n work instead of
    m n^2; any other adjacency keeps the general form.
    """
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
    left.setflags(write=False)

    def adjacency_vjp(g, grads):
        acc_s, acc_a = grads
        if acc_a is None and symmetric:
            acc_s += (g + g.T) @ left
            return
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
            ad.node(s_mn @ x, (s, features), features_vjp), left)


class Renormalized(NamedTuple):
    """Kipf and Welling's renormalized adjacency
    Â = D^{-1/2} (A + I) D^{-1/2}, held as A itself and the column d of
    D^{-1/2}'s diagonal, d = (rowsum(A) + 1)^{-1/2}, and applied without
    forming Â: Â Y = d * (A (d * Y) + d * Y). Every graph convolution
    applies Â this way, the graph's own (``renormalize``) and a pooled one
    alike."""

    adjacency: np.ndarray  # (n, n) A
    scale: np.ndarray      # (n, 1) d

    def apply(self, y: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Â y, or Â^T y with ``transpose``."""
        scaled = self.scale * y
        out = (self.adjacency.T if transpose else self.adjacency) @ scaled
        out += scaled
        out *= self.scale
        return out


class GcnInput(NamedTuple):
    """The first graph convolution's operand for one graph with a constant
    input X (n x l): Â X on the k columns of X that are not all zero."""

    columns: np.ndarray     # (l,) bool, X's non-zero columns
    propagated: np.ndarray  # (n, k), Â X[:, columns]


def _scale(adjacency: np.ndarray) -> np.ndarray:
    """d = (rowsum(A) + 1)^{-1/2}; every row sum of A + I must be positive."""
    sums = adjacency.sum(axis=-1, keepdims=True) + 1.0
    if np.any(sums <= 0):
        bad = int(np.argmax(sums.ravel() <= 0))
        raise NumericError(f"row {bad} of A + I has nonpositive sum; cannot normalize")
    return sums**-0.5


def renormalize(adjacency: np.ndarray) -> Renormalized:
    """The renormalized adjacency of a constant A, with A and d read-only (a
    writeable A is copied first)."""
    if adjacency.flags.writeable:
        adjacency = adjacency.copy()
        adjacency.setflags(write=False)
    scale = _scale(adjacency)
    scale.setflags(write=False)
    return Renormalized(adjacency, scale)


def gcn_input(adjacency: np.ndarray, x: np.ndarray) -> GcnInput:
    """The operand of the constant features ``x`` on the graph ``adjacency``;
    both arrays are read-only."""
    columns = x.any(axis=0)
    propagated = renormalize(adjacency).apply(np.compress(columns, x, axis=1))
    for array in (columns, propagated):
        array.setflags(write=False)
    return GcnInput(columns, propagated)


def _propagate(adjacency: Var | Renormalized | GcnInput, features: Var | None,
               weight: Var, width: int):
    """Z = Â X W[:, :width], the node inputs, and a vjp adding dL/dZ into them.

    X W[:, :width] is formed first and Â multiplies that, so the n x n
    product runs at ``width`` columns, and the vjp takes Â^T dL/dZ once for
    both X and W. A ``Var`` adjacency is renormalized inside the node and
    is an input besides X and W. With T = X W and G = dL/dZ, its gradient
    is (d * G)(d * T)^T, and each row i adds
    -d_i^2 / 2 (rowsum(G * Z)_i + rowsum(T * Â^T G)_i), where A's row sums
    move d. A ``GcnInput`` holds Â X already, takes ``features`` None and
    multiplies only the rows of W for X's non-zero columns.
    """
    if isinstance(adjacency, GcnInput):
        columns, propagated = adjacency
        if features is not None or columns.size != weight.value.shape[0]:
            raise ContractViolationError(
                f"a GcnInput of {columns.size} feature columns takes no features and a "
                f"weight with as many rows, got {weight.value.shape[0]}")

        def operand_vjp(g, grads):
            grads[0][columns, :width] += propagated.T @ g

        return propagated @ weight.value[columns, :width], (weight,), operand_vjp
    x, w = features.value, weight.value[:, :width]
    transformed = x @ w
    if isinstance(adjacency, Renormalized):
        normalized, inputs = adjacency, (features, weight)
    else:
        a = adjacency.value
        normalized, inputs = Renormalized(a, _scale(a)), (adjacency, features, weight)
    z = normalized.apply(transformed)

    def vjp(g, grads):
        *acc_a, acc_x, acc_w = grads
        g_transformed = normalized.apply(g, transpose=True)
        if acc_w is not None:
            acc_w[:, :width] += x.T @ g_transformed
        if acc_x is not None:
            acc_x += g_transformed @ w.T
        if acc_a and acc_a[0] is not None:
            scale = normalized.scale
            sums = (g * z + transformed * g_transformed).sum(axis=1, keepdims=True)
            acc_a[0] += (scale * g) @ (scale * transformed).T
            acc_a[0] -= 0.5 * scale**2 * sums

    return z, inputs, vjp


def gcn_forward(adjacency: Var | Renormalized | GcnInput, features: Var | None,
                weight: Var, activation: str) -> Var:
    """Renormalized graph convolution act(Â X W), Â applied as
    ``Renormalized`` states. A ``Var`` adjacency, a pooled one, takes
    gradients; it may carry real weights, and a row of A + I whose sum is
    not positive raises. A constant adjacency is renormalized once
    beforehand with ``renormalize``. For a constant X, ``gcn_input`` forms
    Â X once, on X's non-zero columns; it replaces the adjacency,
    ``features`` is None, and a pass costs n k l.
    """
    z, inputs, propagate_vjp = _propagate(adjacency, features, weight, weight.value.shape[1])
    relu = activation == "relu"

    def vjp(g, grads):
        propagate_vjp(g * (z > 0) if relu else g, grads)

    return ad.node(activate(z, activation), inputs, vjp)


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


def classify(x_final: Var, weight: Var, bias: Var) -> Var:
    """Flatten the fixed-size pooled features and apply the linear head,
    ``weight`` (m_out * l, c) and ``bias`` (c,): the length-c logits, one
    node."""
    q, c = weight.value.shape
    rows, width = x_final.value.shape
    if rows * width != q:
        raise ContractViolationError(
            f"classifier expects {q} inputs, pipeline produced {rows}x{width}; "
            "the pooled size is wrong"
        )
    flat = x_final.value.reshape(1, q)
    w = weight.value

    def vjp(g, grads):
        acc_x, acc_w, acc_b = grads
        g = g.reshape(1, c)
        if acc_x is not None:
            acc_x += (g @ w.T).reshape(rows, width)
        if acc_w is not None:
            acc_w += flat.T @ g
        if acc_b is not None:
            acc_b += g[0]

    return ad.node((flat @ w + bias.value).reshape(c), (x_final, weight, bias), vjp)
