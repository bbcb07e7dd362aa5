import numpy as np
import pytest

from skipdiff import autodiff as ad
from skipdiff.autodiff import Tape, Tensor, backward
from skipdiff.errors import ContractError, ShapeError


def test_matmul_identity():
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(ad.matmul(eye, b).data, b.data)


def test_matmul_hand_product():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert np.allclose(ad.matmul(a, b).data, [[11.0]])


def test_matmul_zero_annihilates():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    z = Tensor(np.zeros((3, 4)))
    assert np.array_equal(ad.matmul(a, z).data, np.zeros((2, 4)))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0]), axis=0)
    assert out.data == pytest.approx([0.5, 0.5])


def test_softmax_closed_form():
    out = ad.softmax(Tensor([np.log(1.0), np.log(3.0)]), axis=0)
    assert out.data == pytest.approx([0.25, 0.75])


def test_softmax_shift_stability():
    out = ad.softmax(Tensor([1000.0, 0.0]), axis=0)
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_empty_axis():
    with pytest.raises(ShapeError):
        ad.softmax(Tensor(np.zeros((2, 0))), axis=1)


def test_backward_identity():
    tape = Tape()
    x = tape.leaf(3.0)
    grads = backward(tape, x)
    assert grads[x.node_id] == pytest.approx(1.0)


def test_backward_product_rule():
    tape = Tape()
    x = tape.leaf(2.0)
    y = tape.leaf(3.0)
    grads = backward(tape, x * y)
    assert grads[x.node_id] == pytest.approx(3.0)
    assert grads[y.node_id] == pytest.approx(2.0)


def test_backward_softmax_sum_is_constant():
    tape = Tape()
    v = tape.leaf([0.3, -1.2, 2.0])
    loss = ad.sum_(ad.softmax(v, axis=0))
    grads = backward(tape, loss)
    assert np.max(np.abs(grads[v.node_id])) < 1e-12


def test_backward_requires_scalar_loss():
    tape = Tape()
    v = tape.leaf([1.0, 2.0])
    with pytest.raises(ContractError):
        backward(tape, v + 1.0)


def test_backward_unreachable_leaf_gets_zero():
    tape = Tape()
    x = tape.leaf(2.0)
    unused = tape.leaf([1.0, 1.0])
    grads = backward(tape, x * x)
    assert np.array_equal(grads[unused.node_id], np.zeros(2))


def test_backward_hands_one_gradient_to_both_leaves_of_a_sum():
    tape = Tape()
    a = tape.leaf([1.0, 2.0])
    b = tape.leaf([3.0, 4.0])
    grads = backward(tape, ad.sum_(a + b))
    assert np.shares_memory(grads[a.node_id], grads[b.node_id])
    assert np.array_equal(grads[a.node_id], np.ones(2))
    assert np.array_equal(grads[b.node_id], np.ones(2))


def test_mixed_tapes_rejected():
    t1, t2 = Tape(), Tape()
    with pytest.raises(ContractError):
        t1.leaf(1.0) + t2.leaf(2.0)


def test_accumulation_order_independent():
    # The same fan-out graph built with sibling ops in permuted creation
    # order must produce gradients equal to 1e-12.
    def build(order):
        tape = Tape()
        x = tape.leaf([0.7, -0.3, 1.1])
        terms = {}
        builders = {
            "a": lambda: ad.sum_(x * x),
            "b": lambda: ad.sum_(ad.exp(x * 0.5)),
            "c": lambda: ad.sum_(ad.tanh(x) * 2.0),
        }
        for name in order:
            terms[name] = builders[name]()
        loss = terms["a"] + terms["b"] + terms["c"]
        return backward(tape, loss)[x.node_id]

    base = build("abc")
    for order in ("acb", "bac", "bca", "cab", "cba"):
        assert np.max(np.abs(build(order) - base)) < 1e-12


def test_operations_do_not_mutate_inputs():
    data = np.array([1.0, 2.0, 3.0])
    t = Tensor(data.copy())
    ad.exp(t)
    ad.softmax(t, axis=0)
    _ = t * 2.0 + 1.0
    assert np.array_equal(t.data, data)


def test_where_mask_exact_on_both_branches():
    mask = np.array([True, False, True])
    a = Tensor([1.0, 2.0, 3.0])
    b = Tensor([9.0, 8.0, 7.0])
    out = ad.where_mask(mask, a, b)
    assert np.array_equal(out.data, [1.0, 8.0, 3.0])


def test_gather_and_select_roundtrip():
    tape = Tape()
    table = tape.leaf(np.arange(12.0).reshape(4, 3))
    ids = np.array([2, 0, 2])
    out = ad.gather_rows(table, ids)
    assert np.array_equal(out.data, table.data[ids])
    grads = backward(tape, ad.sum_(out))
    expected = np.zeros((4, 3))
    expected[2] = 2.0
    expected[0] = 1.0
    assert np.array_equal(grads[table.node_id], expected)


def test_concat_and_slice_inverse():
    tape = Tape()
    a = tape.leaf([[1.0, 2.0]])
    b = tape.leaf([[3.0, 4.0]])
    joined = ad.concat([a, b], axis=0)
    grads = backward(tape, ad.sum_(joined[0:1, :] * 5.0))
    assert np.array_equal(grads[a.node_id], [[5.0, 5.0]])
    assert np.array_equal(grads[b.node_id], [[0.0, 0.0]])


def test_div_by_zero_raises():
    with pytest.raises(ValueError):
        Tensor([1.0]) / Tensor([0.0])


def test_log_domain_checked():
    with pytest.raises(ValueError):
        ad.log(Tensor([-1.0]))


def test_op_on_a_tensor_whose_tape_is_gone_raises():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    del tape
    with pytest.raises(ContractError):
        x * 2.0
    with pytest.raises(ContractError):
        ad.exp(x)
    with pytest.raises(ContractError):
        x.tape


def test_backward_walks_one_tape_twice_and_returns_leaves_only():
    tape = Tape()
    w = tape.leaf(np.arange(6.0).reshape(3, 2) / 7.0)
    x = tape.leaf(np.linspace(-1.0, 1.0, 12).reshape(2, 2, 3))
    h = ad.gelu(ad.matmul(x, w))
    loss = ad.sum_(ad.softmax(h, axis=-1) * h) + ad.sum_(ad.layer_norm_op(
        x, Tensor(np.ones(3)), Tensor(np.zeros(3))) * x)
    first = backward(tape, loss)
    second = backward(tape, loss)
    assert set(first) == set(second) == {w.node_id, x.node_id}
    for node_id in first:
        assert np.array_equal(first[node_id], second[node_id])
