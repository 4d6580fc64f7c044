"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Var`` wraps an ndarray. A node made by ``node`` also keeps its inputs
and one ``vjp(g, grads)`` callback that accumulates the output gradient
``g`` into every input's buffer at once: ``grads[i]`` is the gradient
buffer of ``inputs[i]``, or None when that input needs no gradient. Writing
into the buffers lets gradients of sliced parameters land in the shared
full-size buffer without materialising intermediate copies, and lets a
layer whose inputs share most of their backward work do it once. Only the
operations the forward pipeline needs are implemented; everything is 2-D
(or 0-d for losses) and float64.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError


class Var:
    __slots__ = ("value", "inputs", "vjp", "requires_grad", "grad")

    # make ndarray <op> Var defer to our reflected operators instead of
    # broadcasting over the Var as a python object
    __array_ufunc__ = None

    def __init__(self, value, inputs=(), vjp=None, requires_grad=False):
        self.value = np.asarray(value, dtype=float)
        self.inputs = inputs
        self.vjp = vjp
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def constant(x) -> Var:
    return Var(x)


def parameter(x) -> Var:
    return Var(np.array(x, dtype=float), requires_grad=True)


def node(value, inputs: tuple[Var, ...], vjp) -> Var:
    """A tape node over ``inputs`` with a single ``vjp(g, grads)``, or a
    constant when no input needs a gradient."""
    for x in inputs:
        if x.requires_grad:
            return Var(value, inputs, vjp, requires_grad=True)
    return Var(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def vjp(g, grads):
        for acc in grads:
            if acc is not None:
                acc += _unbroadcast(g, acc.shape)

    return node(a.value + b.value, (a, b), vjp)


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def vjp(g, grads):
        acc_a, acc_b = grads
        if acc_a is not None:
            acc_a += _unbroadcast(g, acc_a.shape)
        if acc_b is not None:
            acc_b -= _unbroadcast(g, acc_b.shape)

    return node(a.value - b.value, (a, b), vjp)


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def vjp(g, grads):
        acc_a, acc_b = grads
        if acc_a is not None:
            acc_a += _unbroadcast(g * b.value, acc_a.shape)
        if acc_b is not None:
            acc_b += _unbroadcast(g * a.value, acc_b.shape)

    return node(a.value * b.value, (a, b), vjp)


def scale(a, s: float) -> Var:
    a = as_var(a)
    return node(a.value * s, (a,), lambda g, grads: grads[0].__iadd__(g * s))


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def vjp(g, grads):
        acc_a, acc_b = grads
        if acc_a is not None:
            acc_a += g @ b.value.T
        if acc_b is not None:
            acc_b += a.value.T @ g

    return node(a.value @ b.value, (a, b), vjp)


def transpose(a) -> Var:
    a = as_var(a)
    return node(a.value.T, (a,), lambda g, grads: grads[0].__iadd__(g.T))


def relu(a) -> Var:
    a = as_var(a)
    return node(np.maximum(a.value, 0.0), (a,),
                lambda g, grads: grads[0].__iadd__(g * (a.value > 0)))


def log(a) -> Var:
    a = as_var(a)
    return node(np.log(a.value), (a,), lambda g, grads: grads[0].__iadd__(g / a.value))


def clip_min(a, lo: float) -> Var:
    a = as_var(a)
    return node(np.maximum(a.value, lo), (a,),
                lambda g, grads: grads[0].__iadd__(g * (a.value > lo)))


def rsqrt(a) -> Var:
    a = as_var(a)
    return node(a.value**-0.5, (a,),
                lambda g, grads: grads[0].__iadd__(g * (-0.5 * a.value**-1.5)))


def row_sum(a) -> Var:
    """Sum along the last axis, keeping it as a length-1 dimension."""
    a = as_var(a)
    return node(a.value.sum(axis=-1, keepdims=True), (a,),
                lambda g, grads: grads[0].__iadd__(g))


def sum_all(a) -> Var:
    a = as_var(a)
    return node(a.value.sum(), (a,), lambda g, grads: grads[0].__iadd__(g))


def row_softmax(a) -> Var:
    """Softmax along the last axis."""
    a = as_var(a)
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    sm = e / e.sum(axis=-1, keepdims=True)

    def vjp(g, grads):
        inner = (g * sm).sum(axis=-1, keepdims=True)
        grads[0] += sm * (g - inner)

    return node(sm, (a,), vjp)


def getitem(a, idx) -> Var:
    a = as_var(a)

    def vjp(g, grads):
        grads[0][idx] += g

    return node(a.value[idx], (a,), vjp)


def pad_rows(a, total_rows: int) -> Var:
    """Append zero rows until the matrix has ``total_rows`` rows."""
    a = as_var(a)
    n, width = a.value.shape
    if total_rows < n:
        raise ContractViolationError(f"cannot pad {n} rows down to {total_rows}")
    padded = np.zeros((total_rows, width))
    padded[:n] = a.value
    return node(padded, (a,), lambda g, grads: grads[0].__iadd__(g[:n]))


def reshape(a, shape) -> Var:
    a = as_var(a)
    return node(a.value.reshape(shape), (a,),
                lambda g, grads: grads[0].__iadd__(g.reshape(a.value.shape)))


def frobenius_norm(a) -> Var:
    """sqrt(sum of squares); subgradient 0 at the origin."""
    a = as_var(a)
    norm = float(np.sqrt((a.value * a.value).sum()))

    def vjp(g, grads):
        if norm > 0.0:
            grads[0] += (float(g) / norm) * a.value

    return node(norm, (a,), vjp)


def backward(root: Var) -> None:
    """Accumulate d(root)/d(leaf) into ``.grad`` of every reachable Var
    with ``requires_grad``. Gradients add up across repeated calls until
    cleared, which is how mini-batch accumulation works.
    """
    if root.value.ndim != 0:
        raise ContractViolationError("backward expects a scalar root")
    if not root.requires_grad:
        return
    topo: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        var, processed = stack.pop()
        if processed:
            topo.append(var)
            continue
        if id(var) in seen:
            continue
        seen.add(id(var))
        stack.append((var, True))
        for x in var.inputs:
            if x.requires_grad and id(x) not in seen:
                stack.append((x, False))

    if root.grad is None:
        root.grad = np.zeros_like(root.value)
    root.grad += 1.0
    for var in reversed(topo):
        if var.vjp is None:
            continue  # a parameter
        grads = []
        for x in var.inputs:
            if x.requires_grad and x.grad is None:
                x.grad = np.zeros_like(x.value)
            grads.append(x.grad if x.requires_grad else None)
        var.vjp(var.grad, grads)
