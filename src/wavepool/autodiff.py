"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Var`` wraps an ndarray plus the tape entries needed to backpropagate.
Each parent entry carries a vjp callback that accumulates directly into the
parent's gradient buffer, so gradients of sliced parameters land in the
shared full-size buffer without materialising intermediate copies. A node
made by ``fused`` instead has one vjp for all its parents, for layers whose
parents share most of their backward work. Only the operations the forward
pipeline needs are implemented; everything is 2-D (or 0-d for losses) and
float64.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError


class Var:
    __slots__ = ("value", "parents", "requires_grad", "grad", "vjp")

    # make ndarray <op> Var defer to our reflected operators instead of
    # broadcasting over the Var as a python object
    __array_ufunc__ = None

    def __init__(self, value, parents=(), requires_grad=None):
        self.value = np.asarray(value, dtype=float)
        self.parents = parents
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p, _ in parents)
        self.requires_grad = requires_grad
        self.grad = None
        self.vjp = None  # set by ``fused``: one callback for every parent

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
    return x if isinstance(x, Var) else Var(x, requires_grad=False)


def constant(x) -> Var:
    return Var(x, requires_grad=False)


def parameter(x) -> Var:
    return Var(np.array(x, dtype=float), requires_grad=True)


def fused(value, inputs, vjp) -> Var:
    """One tape node over ``inputs`` with a single ``vjp(g, grads)``.

    ``grads[i]`` is the gradient buffer of ``inputs[i]``, or None when that
    input needs no gradient; the callback accumulates into every buffer in
    one call, so work the inputs share runs once per backward pass.
    """
    out = Var(value, parents=tuple((x, None) for x in inputs))
    out.vjp = vjp
    return out


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
    out = Var(a.value + b.value)
    parents = []
    if a.requires_grad:
        parents.append((a, lambda g, acc: acc.__iadd__(_unbroadcast(g, acc.shape))))
    if b.requires_grad:
        parents.append((b, lambda g, acc: acc.__iadd__(_unbroadcast(g, acc.shape))))
    out.parents = tuple(parents)
    out.requires_grad = bool(parents)
    return out


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value - b.value)
    parents = []
    if a.requires_grad:
        parents.append((a, lambda g, acc: acc.__iadd__(_unbroadcast(g, acc.shape))))
    if b.requires_grad:
        parents.append((b, lambda g, acc: acc.__isub__(_unbroadcast(g, acc.shape))))
    out.parents = tuple(parents)
    out.requires_grad = bool(parents)
    return out


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value * b.value)
    parents = []
    if a.requires_grad:
        parents.append((a, lambda g, acc: acc.__iadd__(_unbroadcast(g * b.value, acc.shape))))
    if b.requires_grad:
        parents.append((b, lambda g, acc: acc.__iadd__(_unbroadcast(g * a.value, acc.shape))))
    out.parents = tuple(parents)
    out.requires_grad = bool(parents)
    return out


def scale(a, s: float) -> Var:
    a = as_var(a)
    out = Var(a.value * s)
    if a.requires_grad:
        out.parents = ((a, lambda g, acc: acc.__iadd__(_unbroadcast(g * s, acc.shape))),)
        out.requires_grad = True
    return out


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value @ b.value)
    parents = []
    if a.requires_grad:
        parents.append((a, lambda g, acc: acc.__iadd__(g @ b.value.T)))
    if b.requires_grad:
        parents.append((b, lambda g, acc: acc.__iadd__(a.value.T @ g)))
    out.parents = tuple(parents)
    out.requires_grad = bool(parents)
    return out


def transpose(a) -> Var:
    a = as_var(a)
    out = Var(a.value.T)
    if a.requires_grad:
        out.parents = ((a, lambda g, acc: acc.__iadd__(g.T)),)
        out.requires_grad = True
    return out


def relu(a) -> Var:
    a = as_var(a)
    out = Var(np.maximum(a.value, 0.0))
    if a.requires_grad:
        mask = a.value > 0
        out.parents = ((a, lambda g, acc: acc.__iadd__(g * mask)),)
        out.requires_grad = True
    return out


def log(a) -> Var:
    a = as_var(a)
    out = Var(np.log(a.value))
    if a.requires_grad:
        out.parents = ((a, lambda g, acc: acc.__iadd__(g / a.value)),)
        out.requires_grad = True
    return out


def clip_min(a, lo: float) -> Var:
    a = as_var(a)
    out = Var(np.maximum(a.value, lo))
    if a.requires_grad:
        mask = a.value > lo
        out.parents = ((a, lambda g, acc: acc.__iadd__(g * mask)),)
        out.requires_grad = True
    return out


def sqrt(a) -> Var:
    a = as_var(a)
    root = np.sqrt(a.value)
    out = Var(root)
    if a.requires_grad:
        out.parents = ((a, lambda g, acc: acc.__iadd__(g * (0.5 / root))),)
        out.requires_grad = True
    return out


def rsqrt(a) -> Var:
    a = as_var(a)
    val = a.value**-0.5
    out = Var(val)
    if a.requires_grad:
        deriv = -0.5 * a.value**-1.5
        out.parents = ((a, lambda g, acc: acc.__iadd__(g * deriv)),)
        out.requires_grad = True
    return out


def row_sum(a) -> Var:
    """Sum along the last axis, keeping it as a length-1 dimension."""
    a = as_var(a)
    out = Var(a.value.sum(axis=-1, keepdims=True))
    if a.requires_grad:
        out.parents = ((a, lambda g, acc: acc.__iadd__(g)),)
        out.requires_grad = True
    return out


def sum_all(a) -> Var:
    a = as_var(a)
    out = Var(a.value.sum())
    if a.requires_grad:
        out.parents = ((a, lambda g, acc: acc.__iadd__(g)),)
        out.requires_grad = True
    return out


def row_softmax(a) -> Var:
    """Softmax along the last axis."""
    a = as_var(a)
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    sm = e / e.sum(axis=-1, keepdims=True)
    out = Var(sm)
    if a.requires_grad:
        def vjp(g, acc):
            inner = (g * sm).sum(axis=-1, keepdims=True)
            acc += sm * (g - inner)

        out.parents = ((a, vjp),)
        out.requires_grad = True
    return out


def getitem(a, idx) -> Var:
    a = as_var(a)
    out = Var(a.value[idx])
    if a.requires_grad:
        def vjp(g, acc):
            acc[idx] += g

        out.parents = ((a, vjp),)
        out.requires_grad = True
    return out


def pad_rows(a, total_rows: int) -> Var:
    """Append zero rows until the matrix has ``total_rows`` rows."""
    a = as_var(a)
    n, width = a.value.shape
    if total_rows < n:
        raise ContractViolationError(f"cannot pad {n} rows down to {total_rows}")
    padded = np.zeros((total_rows, width))
    padded[:n] = a.value
    out = Var(padded)
    if a.requires_grad:
        out.parents = ((a, lambda g, acc: acc.__iadd__(g[:n])),)
        out.requires_grad = True
    return out


def reshape(a, shape) -> Var:
    a = as_var(a)
    out = Var(a.value.reshape(shape))
    if a.requires_grad:
        out.parents = ((a, lambda g, acc: acc.__iadd__(g.reshape(acc.shape))),)
        out.requires_grad = True
    return out


def frobenius_norm(a) -> Var:
    """sqrt(sum of squares); subgradient 0 at the origin."""
    a = as_var(a)
    norm = float(np.sqrt((a.value * a.value).sum()))
    out = Var(norm)
    if a.requires_grad:
        def vjp(g, acc):
            if norm > 0.0:
                acc += (float(g) / norm) * a.value

        out.parents = ((a, vjp),)
        out.requires_grad = True
    return out


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
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    if root.grad is None:
        root.grad = np.zeros_like(root.value)
    root.grad += 1.0
    for node in reversed(topo):
        g = node.grad
        if g is None:
            continue
        for parent, _ in node.parents:
            if parent.requires_grad and parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
        if node.vjp is not None:
            node.vjp(g, [p.grad if p.requires_grad else None for p, _ in node.parents])
            continue
        for parent, vjp in node.parents:
            if parent.requires_grad:
                vjp(g, parent.grad)
