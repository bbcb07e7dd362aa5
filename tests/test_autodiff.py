import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import attention_composed, linear_composed, masked_mse_composed
from skipdiff import autodiff as ad
from skipdiff.autodiff import Tape, Tensor, backward
from skipdiff.errors import ContractError, ShapeError
from skipdiff.rng import RngStream


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


def _spent_tape_loss(tape):
    w = tape.leaf(np.arange(6.0).reshape(3, 2) / 7.0)
    x = tape.leaf(np.linspace(-1.0, 1.0, 12).reshape(2, 2, 3))
    h = ad.gelu(ad.matmul(x, w))
    loss = ad.sum_(ad.softmax(h, axis=-1) * h) + ad.sum_(ad.layer_norm_op(
        x, Tensor(np.ones(3)), Tensor(np.zeros(3))) * x)
    return w, x, loss


def test_backward_spends_its_tape_and_returns_leaves_only():
    tape, again = Tape(), Tape()
    w, x, loss = _spent_tape_loss(tape)
    first = backward(tape, loss)
    assert set(first) == {w.node_id, x.node_id}
    assert tape.nodes == [w, x]
    second = backward(again, _spent_tape_loss(again)[2])
    for node_id in first:
        assert np.array_equal(first[node_id], second[node_id])
    with pytest.raises(ContractError, match="spent"):
        backward(tape, loss)
    with pytest.raises(ContractError, match="spent"):
        x * 2.0


# The fused nodes against the compositions they replace: the same output
# and the same gradient for every input, bit for bit.

def _bits_of(build, arrays, const_names=()):
    """Output and leaf gradients of ``build`` over ``arrays``, with a
    weighted sum as the loss so each node gets a non-trivial gradient."""
    tape = Tape()
    leaves = {name: Tensor(value) if name in const_names else tape.leaf(value)
              for name, value in arrays.items()}
    out = build(leaves)
    probe = RngStream(5).normal(out.shape)
    grads = backward(tape, ad.sum_(out * probe))
    return out.data, {name: grads[leaf.node_id] for name, leaf in leaves.items()
                      if leaf.node_id >= 0}


def _assert_same_bits(fused, composed):
    assert fused[0].shape == composed[0].shape
    assert fused[0].tobytes() == composed[0].tobytes()
    assert fused[1].keys() == composed[1].keys()
    for name in fused[1]:
        assert fused[1][name].shape == composed[1][name].shape
        assert np.asarray(fused[1][name]).tobytes() == \
            np.asarray(composed[1][name]).tobytes(), name


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), lead=st.sampled_from([(), (1,), (3,), (2, 1)]),
       rows=st.integers(1, 20), d_in=st.integers(1, 40), d_out=st.integers(1, 40),
       bias=st.booleans())
def test_linear_equals_matmul_then_add_bit_for_bit(seed, lead, rows, d_in, d_out, bias):
    rng = RngStream(seed)
    arrays = {"x": rng.normal(lead + (rows, d_in)), "w": rng.normal((d_in, d_out))}
    if bias:
        arrays["b"] = rng.normal((d_out,))
    _assert_same_bits(_bits_of(lambda p: ad.linear(p["x"], p["w"], p.get("b")), arrays),
                      _bits_of(lambda p: linear_composed(p["x"], p["w"], p.get("b")),
                               arrays))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), batch=st.integers(1, 5), keys=st.integers(1, 24),
       heads=st.sampled_from([1, 2, 4]), dh=st.integers(1, 12), data=st.data())
def test_attention_equals_its_composition_bit_for_bit(seed, batch, keys, heads, dh,
                                                      data):
    start = data.draw(st.integers(0, keys - 1))
    rng = RngStream(seed)
    d = heads * dh
    arrays = {"q": rng.normal((batch, keys - start, d)),
              "k": rng.normal((batch, keys, d)), "v": rng.normal((batch, keys, d))}
    _assert_same_bits(
        _bits_of(lambda p: ad.attention(p["q"], p["k"], p["v"], heads), arrays),
        _bits_of(lambda p: attention_composed(p["q"], p["k"], p["v"], heads), arrays))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), shape=st.sampled_from([(4,), (3, 5), (2, 7, 6)]),
       target=st.sampled_from(["leaf", "const", "zero"]), per_element=st.booleans(),
       data=st.data())
def test_masked_mse_equals_its_composition_bit_for_bit(seed, shape, target,
                                                       per_element, data):
    rng = RngStream(seed)
    mask_shape = shape if per_element else shape[:-1] + (1,)
    size = int(np.prod(mask_shape))
    weights = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                       dtype=np.float64).reshape(mask_shape)
    arrays = {"pred": rng.normal(shape)}
    if target != "zero":
        arrays["target"] = rng.normal(shape)
    const_names = ("target",) if target == "const" else ()

    def loss(mse):
        # a scale above the node, as diffusion_loss's regularizer has
        return lambda p: mse(p["pred"], p.get("target", ad.const(0.0)), weights) * 0.3

    _assert_same_bits(_bits_of(loss(ad.masked_mse), arrays, const_names),
                      _bits_of(loss(masked_mse_composed), arrays, const_names))
