import numpy as np
import pytest

from wavepool import autodiff as ad
from wavepool.errors import ContractViolationError

from . import per_op as ops
from .fdcheck import REL_TOL, central_difference, max_rel_error


def check_gradient(build, x0, tol=REL_TOL):
    """Compare reverse-mode gradient of scalar build(Var) against FD."""
    leaf = ad.parameter(x0)
    out = build(leaf)
    ad.backward(out)
    numeric = central_difference(lambda x: build(ad.constant(x)).value, x0)
    err = max_rel_error(leaf.grad, numeric)
    assert err < tol, f"gradient mismatch: {err}"


# -- individual operations ------------------------------------------------


def test_grad_add_sub_mul(rng):
    x0 = rng.standard_normal((3, 4))
    other = rng.standard_normal((3, 4))
    check_gradient(lambda v: ops.sum_all(ops.add(v, other)), x0)
    check_gradient(lambda v: ops.sum_all(ops.sub(other, v)), x0)
    check_gradient(lambda v: ops.sum_all(ops.mul(v, other)), x0)
    check_gradient(lambda v: ops.sum_all(ops.mul(v, v)), x0)


def test_grad_scale_neg(rng):
    x0 = rng.standard_normal((2, 3))
    check_gradient(lambda v: ops.sum_all(ops.scale(v, -2.5)), x0)
    check_gradient(lambda v: ops.sum_all(ops.neg(v)), x0)


def test_grad_matmul_both_sides(rng):
    left = rng.standard_normal((4, 3))
    right = rng.standard_normal((3, 2))
    check_gradient(lambda v: ops.sum_all(ops.matmul(v, ad.constant(right))), left)
    check_gradient(lambda v: ops.sum_all(ops.matmul(ad.constant(left), v)), right)


def test_grad_transpose(rng):
    x0 = rng.standard_normal((2, 5))
    w = rng.standard_normal((2, 5))
    check_gradient(lambda v: ops.sum_all(ops.mul(ops.transpose(v), w.T)), x0)


def test_grad_relu_away_from_kink(rng):
    x0 = rng.standard_normal((4, 4))
    x0[np.abs(x0) < 1e-2] = 0.5  # keep FD probes off the kink
    check_gradient(lambda v: ops.sum_all(ops.relu(v)), x0)


def test_relu_zero_subgradient():
    leaf = ad.parameter(np.array([[0.0, -1.0, 2.0]]))
    ad.backward(ops.sum_all(ops.relu(leaf)))
    assert np.array_equal(leaf.grad, [[0.0, 0.0, 1.0]])


def test_grad_log(rng):
    x0 = rng.uniform(0.5, 2.0, size=(3, 3))
    check_gradient(lambda v: ops.sum_all(ops.log(v)), x0)


def test_grad_exp(rng):
    x0 = rng.standard_normal((3, 3))
    check_gradient(lambda v: ops.sum_all(ops.exp(v)), x0)


def test_grad_rsqrt(rng):
    x0 = rng.uniform(0.5, 3.0, size=(2, 4))
    check_gradient(lambda v: ops.sum_all(ops.mul(ops.rsqrt(v), x0)), x0)


def test_grad_row_sum_shapes(rng):
    x0 = rng.standard_normal((3, 5))
    w = rng.standard_normal((3, 1))
    check_gradient(lambda v: ops.sum_all(ops.mul(ops.row_sum(v), w)), x0)


def test_grad_row_softmax(rng):
    x0 = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))
    check_gradient(lambda v: ops.sum_all(ops.mul(ops.row_softmax(v), w)), x0)


def test_row_softmax_rows_sum_to_one(rng):
    out = ops.row_softmax(ad.constant(rng.standard_normal((5, 7)) * 10))
    assert np.allclose(out.value.sum(axis=-1), 1.0, atol=1e-12)


def test_grad_getitem_slice(rng):
    x0 = rng.standard_normal((5, 5))
    w = rng.standard_normal((3, 2))
    check_gradient(lambda v: ops.sum_all(ops.mul(ops.getitem(v, np.s_[:3, 1:3]), w)), x0)


def test_getitem_gradient_lands_in_full_buffer():
    leaf = ad.parameter(np.zeros((4, 4)))
    ad.backward(ops.sum_all(ops.getitem(leaf, np.s_[:2, :2])))
    expected = np.zeros((4, 4))
    expected[:2, :2] = 1.0
    assert np.array_equal(leaf.grad, expected)


def test_grad_pad_rows(rng):
    x0 = rng.standard_normal((2, 3))
    w = rng.standard_normal((5, 3))
    check_gradient(lambda v: ops.sum_all(ops.mul(ad.pad_rows(v, 5), w)), x0)
    with pytest.raises(ContractViolationError):
        ad.pad_rows(ad.constant(np.zeros((3, 2))), 2)


def test_grad_concat_columns(rng):
    x0 = rng.standard_normal((3, 2))
    other = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 8))
    check_gradient(lambda v: ops.sum_all(ops.mul(ops.concat_columns([v, other, v]), w)), x0)


def test_grad_reshape(rng):
    x0 = rng.standard_normal((2, 6))
    w = rng.standard_normal((12,))
    check_gradient(lambda v: ops.sum_all(ops.mul(ops.reshape(v, (12,)), w)), x0)


def test_grad_frobenius_norm(rng):
    x0 = rng.standard_normal((3, 3)) + 0.5
    check_gradient(ops.frobenius_norm, x0)


def test_frobenius_norm_zero_subgradient():
    leaf = ad.parameter(np.zeros((2, 2)))
    ad.backward(ops.frobenius_norm(leaf))
    assert np.array_equal(leaf.grad, np.zeros((2, 2)))


def test_grad_broadcast_bias(rng):
    x = rng.standard_normal((4, 3))
    b0 = rng.standard_normal((1, 3))
    check_gradient(lambda v: ops.sum_all(ops.add(ad.constant(x), v)), b0)
    check_gradient(lambda v: ops.sum_all(ops.mul(ad.constant(x), v)), b0)


# -- graph mechanics ------------------------------------------------------


def test_diamond_reuse_accumulates(rng):
    x0 = rng.standard_normal((3, 3))
    check_gradient(lambda v: ops.sum_all(ops.add(ops.matmul(v, v), ops.mul(v, v))), x0)


def test_deep_chain(rng):
    x0 = rng.uniform(0.5, 1.5, size=(2, 2))

    def build(v):
        h = v
        for _ in range(6):
            h = ops.row_softmax(ops.matmul(h, ad.constant(np.eye(2) * 1.3)))
        return ops.frobenius_norm(h)

    check_gradient(build, x0)


def test_repeated_backward_accumulates_like_a_batch():
    leaf = ad.parameter(np.array([[1.0, 2.0]]))
    for _ in range(3):
        ad.backward(ops.sum_all(ops.mul(leaf, leaf)))
    assert np.allclose(leaf.grad, 3 * 2 * leaf.value)


def test_backward_requires_scalar_root():
    leaf = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ContractViolationError, match="scalar"):
        ad.backward(ops.mul(leaf, leaf))


def test_backward_on_constant_is_noop():
    c = ad.constant(np.array(3.0))
    ad.backward(c)  # must not raise
    assert c.grad is None


def test_requires_grad_propagation():
    p = ad.parameter(np.ones((2, 2)))
    c = ad.constant(np.ones((2, 2)))
    assert ops.matmul(p, c).requires_grad
    assert not ops.matmul(c, c).requires_grad
    assert not ops.sum_all(ops.mul(c, 2.0)).requires_grad


def test_constants_collect_no_gradient():
    p = ad.parameter(np.ones((2, 2)))
    c = ad.constant(np.full((2, 2), 2.0))
    out = ops.sum_all(ops.mul(p, c))
    ad.backward(out)
    assert c.grad is None
    assert np.array_equal(p.grad, c.value)


# -- tape contract ---------------------------------------------------------

OPS = {
    "add": lambda x: ops.add(x, x),
    "sub": lambda x: ops.sub(x, 1.0),
    "mul": lambda x: ops.mul(x, x),
    "neg": ops.neg,
    "scale": lambda x: ops.scale(x, 2.0),
    "matmul": lambda x: ops.matmul(x, x),
    "transpose": ops.transpose,
    "relu": ops.relu,
    "log": ops.log,
    "exp": ops.exp,
    "rsqrt": ops.rsqrt,
    "row_sum": ops.row_sum,
    "sum_all": ops.sum_all,
    "row_softmax": ops.row_softmax,
    "getitem": lambda x: ops.getitem(x, np.s_[:1, 1:]),
    "pad_rows": lambda x: ad.pad_rows(x, 4),
    "reshape": lambda x: ops.reshape(x, (4,)),
    "concat_columns": lambda x: ops.concat_columns([x, x]),
    "frobenius_norm": ops.frobenius_norm,
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_ops_on_constants_record_nothing(op):
    out = OPS[op](ad.constant(np.array([[1.0, 2.0], [3.0, 4.0]])))
    assert not out.requires_grad
    assert out.inputs == () and out.vjp is None


def test_shared_node_vjp_runs_once_per_backward():
    p = ad.parameter(np.array([[1.0, 2.0]]))
    calls = []

    def vjp(g, grads):
        calls.append(g.copy())
        grads[0] += 3.0 * g

    shared = ad.node(3.0 * p.value, (p,), vjp)
    ad.backward(ops.add(ops.sum_all(ops.mul(shared, 2.0)), ops.sum_all(ops.relu(shared))))
    assert len(calls) == 1
    assert np.array_equal(calls[0], [[3.0, 3.0]])  # both consumers' gradients summed
    assert np.array_equal(p.grad, [[9.0, 9.0]])
    ad.backward(ops.sum_all(shared))
    assert len(calls) == 2


def test_vjp_gets_none_for_constants_and_buffers_for_parameters():
    c = ad.constant(np.ones((2, 2)))
    p = ad.parameter(np.ones((2, 2)))
    seen = []

    def vjp(g, grads):
        seen.append(list(grads))
        grads[1] += g

    ad.backward(ops.sum_all(ad.node(c.value + p.value, (c, p), vjp)))
    ((c_slot, p_slot),) = seen
    assert c_slot is None and c.grad is None
    assert p_slot is p.grad
    assert np.array_equal(p.grad, np.ones((2, 2)))


def test_values_are_float64():
    v = ad.as_var(np.array([[1, 2]], dtype=np.int64))
    assert v.value.dtype == np.float64


def test_no_grad_makes_constants_and_restores_recording():
    p = ad.parameter(np.array([[1.0, 2.0]]))
    with ad.no_grad():
        out = ops.sum_all(ops.mul(p, p))
        with ad.no_grad():
            pass
        assert not ops.relu(p).requires_grad  # still off after the inner block
    assert out.value == 5.0
    assert not out.requires_grad and out.inputs == () and out.vjp is None
    with pytest.raises(RuntimeError), ad.no_grad():
        raise RuntimeError
    assert ops.sum_all(p).requires_grad
