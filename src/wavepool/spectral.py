"""Spectral operators: normalized Laplacian, Chebyshev-approximated wavelet
bases in spectral form, and the orthogonal cosine transform used by the
pooling layer.

The wavelet at scale ``f`` is a degree-``M`` Chebyshev polynomial ``p_f``
in the shifted Laplacian ``L - I`` (spectrum mapped from [0, 2] to [-1, 1]).
``wavelet_bases`` builds a graph's whole bank from one eigendecomposition
``L = U diag(lambda) U^T``: ``psi_f = U p_f(lambda) U^T`` and ``psi_f^+ = U
p_f(lambda)^+ U^T`` with ``p_f`` evaluated elementwise on the eigenvalues.
The bank is one read-only ``WaveletBasis``: U, and p_f(lambda) and its
cutoff reciprocals as (n, F) arrays with one column per scale. The dense
n x n ``psi(f)`` and ``psi_pinv(f)`` are formed only when asked for; the
model applies psi_f y as U (p_f * U^T y) and never forms them
(``layers.wavelet_input``).
Two coefficient modes exist:

* ``fitted_kernel`` - Chebyshev-Gauss quadrature fit of the low-pass kernel
  ``g(x) = exp(-f (x + 1))``, i.e. ``exp(-f lambda)`` on the Laplacian
  spectrum. This is the default, the one the model uses, and converges to
  the dense eigendecomposition reference as M grows.
* ``closed_form`` - the exact Chebyshev series of the same kernel,
  ``c_i = 2 exp(-f) I_i(-f)`` with the modified Bessel function ``I``
  (Abramowitz & Stegun 9.6.34: e^{z cos t} = I_0(z) + 2 sum_k I_k(z) cos kt).
  It needs no quadrature and agrees with ``fitted_kernel`` to rounding; it
  is the reference the fit is checked against.

``cosine_transform`` returns the read-only n x n DCT-II matrix itself and
caches it per size for the life of the process; the entries are bounded by
the distinct graph and pooled sizes in the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ContractViolationError, DomainError, NumericError

MODE_CLOSED_FORM = "closed_form"
MODE_FITTED_KERNEL = "fitted_kernel"
_MODES = (MODE_CLOSED_FORM, MODE_FITTED_KERNEL)

BESSEL_MAX_ARG = 50.0
BESSEL_TERM_TOL = 1e-16
# the highest Chebyshev order a model may ask for: the quadrature fit's
# (order + 1) x 4 (order + 1) cosine table would take 298 GiB at order
# 100000, and ``bessel_i`` starts its series at (x/2)^i / i!, and 171! is
# past the float range
ORDER_MAX = 170


@dataclass(frozen=True)
class WaveletBasis:
    """The wavelet bank of one graph: psi_f = U diag(values[:, f]) U^T for
    each of its F scales, every array read-only.

    ``inverse`` holds 1 / values where |values| exceeds the scale's rank
    cutoff and 0 elsewhere, so psi_f^+ = U diag(inverse[:, f]) U^T.
    """

    coefficients: np.ndarray  # (F, order + 1), one row per scale
    eigvecs: np.ndarray       # (n, n) U, orthonormal eigenvectors of L
    values: np.ndarray        # (n, F) p_f(lambda)
    inverse: np.ndarray       # (n, F) p_f(lambda)^+

    def psi(self, f: int) -> np.ndarray:
        """The dense wavelet matrix of scale ``f`` (n x n), exactly symmetric."""
        psi = (self.eigvecs * self.values[:, f]) @ self.eigvecs.T
        return 0.5 * (psi + psi.T)  # kill rounding skew

    def psi_pinv(self, f: int) -> np.ndarray:
        """The dense Moore-Penrose pseudoinverse of ``psi(f)`` (n x n)."""
        return (self.eigvecs * self.inverse[:, f]) @ self.eigvecs.T


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Rows and columns of isolated nodes are all zero, which makes them
    eigenvectors with eigenvalue 0 and therefore fixed points of any wavelet
    whose kernel satisfies g(0) = 1.
    """
    adj = np.asarray(adjacency, dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ContractViolationError(f"adjacency must be square, got {adj.shape}")
    if not np.allclose(adj, adj.T):
        raise ContractViolationError("adjacency must be symmetric")
    if np.any(np.diag(adj) != 0):
        raise ContractViolationError("adjacency must have a zero diagonal")
    degrees = adj.sum(axis=1)
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-300)), 0.0)
    lap = -inv_sqrt[:, None] * adj * inv_sqrt[None, :]
    lap[np.diag_indices_from(lap)] = (degrees > 0).astype(float)
    return lap


def chebyshev_apply(x, order: int) -> list:
    """Chebyshev terms T_0 .. T_order, evaluated elementwise at ``x``.

    Uses the three-term recurrence T_i = 2 x T_{i-1} - T_{i-2}. ``x`` is a
    scalar or an array with values in [-1, 1]; ``wavelet_bases`` passes the
    Laplacian eigenvalues shifted by -1.
    """
    if order < 0:
        raise ContractViolationError(f"Chebyshev order must be >= 0, got {order}")
    x = np.asarray(x, dtype=float)
    terms = [np.ones_like(x)]
    if order >= 1:
        terms.append(x)
    for _ in range(2, order + 1):
        terms.append(2.0 * x * terms[-1] - terms[-2])
    return terms


def bessel_i(order: int, x: float) -> float:
    """Modified Bessel function of the first kind I_i(x) by its power series.

    Terms are generated by the ratio recurrence; every term has the sign of
    the first, so nothing cancels, and summation stops once the next term
    falls below 1e-16 of the sum. Arguments are limited to |x| <= 50.
    """
    if order < 0:
        raise ContractViolationError(f"Bessel order must be >= 0, got {order}")
    if abs(x) > BESSEL_MAX_ARG:
        raise DomainError(f"|x| = {abs(x)} outside series validity window [0, {BESSEL_MAX_ARG}]")
    half = x / 2.0
    term = half**order / math.factorial(order)
    total = term
    k = 1
    ratio = half * half
    while True:
        term = term * ratio / (k * (k + order))
        if abs(term) <= BESSEL_TERM_TOL * abs(total):
            break
        total += term
        k += 1
        if k > 400:  # unreachable within the validity window
            raise NumericError("Bessel series failed to converge")
    return total


def wavelet_coefficients(scale: float, order: int, mode: str = MODE_FITTED_KERNEL) -> np.ndarray:
    """Chebyshev expansion coefficients c_0 .. c_order for scale ``scale``.

    closed_form: c_i = 2 exp(-f) I_i(-f), the exact series of exp(-f (x + 1)).
    fitted_kernel: Chebyshev-Gauss quadrature of exp(-f (x + 1)) on [-1, 1]
    with 4 (order + 1) nodes.
    """
    if scale < 0:
        raise ContractViolationError(f"scale must be >= 0, got {scale}")
    if order < 1:
        raise ContractViolationError(f"order must be >= 1, got {order}")
    if mode not in _MODES:
        raise ContractViolationError(f"unknown mode {mode!r}")
    if mode == MODE_CLOSED_FORM:
        return np.array([2.0 * math.exp(-scale) * bessel_i(i, -scale) for i in range(order + 1)])
    nodes = 4 * (order + 1)
    theta = math.pi * (np.arange(nodes) + 0.5) / nodes
    values = np.exp(-scale * (np.cos(theta) + 1.0))
    i = np.arange(order + 1)
    return (2.0 / nodes) * (np.cos(np.outer(i, theta)) @ values)


def pseudoinverse(matrix: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below n * machine_epsilon * sigma_max are treated as zero
    (standard rank-revealing cutoff).
    """
    mat = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ContractViolationError("pseudoinverse requires finite entries")
    try:
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    cutoff = max(mat.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    s_inv = np.where(s > cutoff, 1.0 / np.maximum(s, 1e-300), 0.0)
    return (vt.T * s_inv) @ u.T


def wavelet_bases(
    l_tilde: np.ndarray, scales, order: int, mode: str = MODE_FITTED_KERNEL
) -> WaveletBasis:
    """The bank of every scale from one eigendecomposition L = U diag(lambda) U^T.

    Column f of the values is p_f(lambda), p_f being scale f's Chebyshev
    polynomial in lambda - 1 (psi = c_0/2 I + sum_i c_i T_i(L - I)). Values
    with |p_f(lambda)| <= n * machine_epsilon * max |p_f| count as zero in
    the inverse: for a symmetric psi_f these magnitudes are its singular
    values, so this is the cutoff ``pseudoinverse`` applies.
    """
    lap = np.asarray(l_tilde, dtype=float)
    try:
        eigvals, eigvecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    terms = chebyshev_apply(eigvals - 1.0, order)
    coefficients = np.array([wavelet_coefficients(scale, order, mode) for scale in scales])
    values = np.empty((lap.shape[0], len(coefficients)))
    inverse = np.zeros_like(values)
    for f, coeffs in enumerate(coefficients):
        column = 0.5 * coeffs[0] * terms[0]
        for i in range(1, order + 1):
            column += coeffs[i] * terms[i]
        magnitude = np.abs(column)
        keep = magnitude > lap.shape[0] * np.finfo(float).eps * magnitude.max()
        values[:, f] = column
        inverse[keep, f] = 1.0 / column[keep]
    for array in (coefficients, eigvecs, values, inverse):
        array.setflags(write=False)
    return WaveletBasis(coefficients, eigvecs, values, inverse)


def exact_wavelet_oracle(l_tilde: np.ndarray, scale: float, kernel) -> np.ndarray:
    """Dense eigendecomposition reference: U diag(kernel(scale * lambda)) U^T.

    Cubic in n; intended for tests and small graphs only (n <= 500).
    """
    lap = np.asarray(l_tilde, dtype=float)
    if lap.shape[0] > 500:
        raise ContractViolationError("oracle limited to n <= 500")
    try:
        eigvals, eigvecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    filtered = np.array([kernel(scale * lam) for lam in eigvals])
    return (eigvecs * filtered) @ eigvecs.T


@cache
def cosine_transform(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, read-only; row k holds frequency k, and
    xi @ xi.T = I."""
    if n < 1:
        raise ContractViolationError(f"transform size must be >= 1, got {n}")
    j = np.arange(n)
    k = np.arange(n)[:, None]
    xi = np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    xi[0] *= np.sqrt(1.0 / n)
    xi[1:] *= np.sqrt(2.0 / n)
    xi.setflags(write=False)
    return xi
