"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Var`` wraps an ndarray. A node made by ``node`` also keeps its inputs
and one ``vjp(g, grads)`` callback that accumulates the output gradient
``g`` into every input's buffer at once: ``grads[i]`` is the gradient
buffer of ``inputs[i]``, or None when that input needs no gradient. Writing
into the buffers lets gradients of sliced parameters land in the shared
full-size buffer without materialising intermediate copies, and lets a
layer whose inputs share most of their backward work do it once.

Besides zero-row padding there are no per-operation nodes: each stage of
the pipeline (wavelet convolution, pooling assignment, pool application,
graph convolution, classifier head, loss) is one node with a hand-written
vjp, built in ``layers`` and ``training``. Inside ``no_grad()``, ``node``
returns constants, so a forward pass computes values only and records no
tape.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ContractViolationError

_recording = True


class Var:
    __slots__ = ("value", "inputs", "vjp", "requires_grad", "grad")

    def __init__(self, value, inputs=(), vjp=None, requires_grad=False):
        self.value = np.asarray(value, dtype=float)
        self.inputs = inputs
        self.vjp = vjp
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.value.shape


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def constant(x) -> Var:
    return Var(x)


def parameter(x) -> Var:
    return Var(np.array(x, dtype=float), requires_grad=True)


def node(value, inputs: tuple[Var, ...], vjp) -> Var:
    """A tape node over ``inputs`` with a single ``vjp(g, grads)``, or a
    constant when no input needs a gradient or inside ``no_grad()``."""
    if _recording:
        for x in inputs:
            if x.requires_grad:
                return Var(value, inputs, vjp, requires_grad=True)
    return Var(value)


@contextmanager
def no_grad():
    """Compute values only: every node made inside is a constant."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def pad_rows(a, total_rows: int) -> Var:
    """Append zero rows until the matrix has ``total_rows`` rows."""
    a = as_var(a)
    n, width = a.value.shape
    if total_rows < n:
        raise ContractViolationError(f"cannot pad {n} rows down to {total_rows}")
    padded = np.zeros((total_rows, width))
    padded[:n] = a.value
    return node(padded, (a,), lambda g, grads: grads[0].__iadd__(g[:n]))


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
