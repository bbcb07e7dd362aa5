"""Dense float64 arrays with tape-based reverse-mode differentiation.

The primitive set is fixed and closed; every layer elsewhere in the package
is composed from these primitives so a single finite-difference checker
covers the whole model zoo. Three of them (``linear``, ``attention`` and
``masked_mse``) fuse a composition into one node that keeps only what its
backward reads, running the composition's numpy calls in its order so that
no bit changes. Values are immutable once published: no operation writes
into its inputs.

A ``Tape`` owns its graph: it holds the recorded nodes in creation order,
which is a topological order (inputs exist before outputs). A ``Tensor``
reaches its tape only through a weak reference, so the graph holds no
reference cycle and is freed by reference counting as soon as its tape is
dropped; an operation on a tensor whose tape is gone raises
``ContractError`` rather than treating it as a constant. Each node's
backward closure computes gradients for its recorded inputs only.
``backward`` walks the record in reverse and returns the leaves'
gradients only. It spends the tape: each walked node's closure is cleared
and every node but the leaves leaves the record, so activations are freed
while the gradients are built; a spent tape records and walks no more.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError


class Tape:
    """Owner of one graph: its nodes in creation order.

    Nodes refer back to the tape through ``_ref``, a weak reference, so the
    whole graph is freed when the last outside reference to the tape goes.
    Once ``backward`` has walked it, the tape is ``spent`` and holds its
    leaves only.
    """

    __slots__ = ("nodes", "spent", "_ref", "__weakref__")

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.spent = False
        self._ref = weakref.ref(self)

    def leaf(self, data) -> "Tensor":
        """Register a trainable leaf; gradients flow back to it."""
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf values must be finite")
        return Tensor(arr, tape=self, is_leaf=True)

    def _register(self, tensor: "Tensor") -> int:
        if self.spent:
            raise ContractError("tape is spent: backward has walked it")
        self.nodes.append(tensor)
        return len(self.nodes) - 1


class Tensor:
    """Immutable float64 array, optionally recorded on a tape."""

    __slots__ = ("data", "_tape", "node_id", "is_leaf", "_backward")

    def __init__(self, data, tape: Tape | None = None,
                 backward: Callable | None = None, is_leaf: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.is_leaf = is_leaf
        self._backward = backward
        if tape is None:
            self._tape = None
            self.node_id = -1
        else:
            self._tape = tape._ref
            self.node_id = tape._register(self)

    @property
    def tape(self) -> Tape | None:
        """The recording tape; None for a constant. Raises ``ContractError``
        once the tape is gone."""
        return None if self._tape is None else _deref(self._tape)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = "leaf" if self.is_leaf else ("const" if self._tape is None else "node")
        return f"Tensor({tag}, shape={self.shape})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, const(other))

    def __radd__(self, other):
        return add(const(other), self)

    def __sub__(self, other):
        return sub(self, const(other))

    def __rsub__(self, other):
        return sub(const(other), self)

    def __mul__(self, other):
        return mul(self, const(other))

    def __rmul__(self, other):
        return mul(const(other), self)

    def __truediv__(self, other):
        return div(self, const(other))

    def __rtruediv__(self, other):
        return div(const(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, const(other))

    def __pow__(self, exponent):
        return pow_const(self, exponent)

    def __getitem__(self, key):
        return slice_(self, key)


def const(value) -> Tensor:
    """A tensor as it is; anything else as a constant (never on a tape)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def lift(params: dict[str, np.ndarray], tape: Tape | None) -> dict[str, Tensor]:
    """Named arrays as trainable leaves of ``tape``, or as constants without one."""
    if tape is None:
        return {k: Tensor(v) for k, v in params.items()}
    return {k: tape.leaf(v) for k, v in params.items()}


def _result_tape(*tensors: Tensor) -> Tape | None:
    ref = None
    for t in tensors:
        if t._tape is None:
            continue
        if ref is None:
            ref = t._tape
        elif ref is not t._tape:
            raise ContractError("operands recorded on different tapes")
    return None if ref is None else _deref(ref)


def _deref(ref: weakref.ref) -> Tape:
    tape = ref()
    if tape is None:
        raise ContractError("operand recorded on a tape that is gone")
    return tape


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _flow(*terms) -> tuple:
    """``(input, gradient thunk)`` pairs as ``(input, gradient)`` pairs, for
    the recorded inputs only: no gradient is computed for a constant."""
    return tuple((t, grad()) for t, grad in terms if t.node_id >= 0)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    tape = _result_tape(*parents)
    if tape is None:
        return Tensor(data)
    return Tensor(data, tape=tape, backward=backward)


# -- elementwise primitives ---------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bw(g):
        return _flow((a, lambda: _unbroadcast(g, a.shape)),
                     (b, lambda: _unbroadcast(g, b.shape)))

    return _make(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bw(g):
        # negating after the reduction is exact and saves a full-size copy
        return _flow((a, lambda: _unbroadcast(g, a.shape)),
                     (b, lambda: -_unbroadcast(g, b.shape)))

    return _make(out, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: ((a, -g),))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bw(g):
        return _flow((a, lambda: _unbroadcast(g * b.data, a.shape)),
                     (b, lambda: _unbroadcast(g * a.data, b.shape)))

    return _make(out, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    if np.any(b.data == 0.0):
        raise ValueError("division by zero")
    out = a.data / b.data

    def bw(g):
        return _flow((a, lambda: _unbroadcast(g / b.data, a.shape)),
                     (b, lambda: _unbroadcast(-g * a.data / (b.data * b.data),
                                              b.shape)))

    return _make(out, (a, b), bw)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: ((a, g * out),))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log requires strictly positive inputs")
    out = np.log(a.data)
    return _make(out, (a,), lambda g: ((a, g / a.data),))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise ValueError("sqrt requires nonnegative inputs")
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: ((a, g * 0.5 / out),))


def _fast_pow(x: np.ndarray, c: float) -> np.ndarray:
    # np.power is an order of magnitude slower than repeated multiplies
    # for the small integer exponents the layers actually use
    if c == 1.0:
        return x
    if c == 2.0:
        return x * x
    if c == 3.0:
        return x * x * x
    return x ** c


def pow_const(a: Tensor, exponent: float) -> Tensor:
    c = float(exponent)
    out = _fast_pow(a.data, c)

    def bw(g):
        return ((a, g * c * _fast_pow(a.data, c - 1.0)),)

    return _make(out, (a,), bw)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(0.7978845608028654 * (x + 0.044715 * (x * x * x))), each step in
    that order but in place, in one fresh buffer."""
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= 0.7978845608028654
    return np.tanh(inner, out=inner)


def gelu(a: Tensor) -> Tensor:
    """Smooth gelu (tanh form), fused as one node for speed. It keeps only
    its input: backward recomputes the tanh."""
    x = a.data
    # 0.5 * x * (1.0 + tanh), in place in two fresh buffers
    out = x * 0.5
    th = _gelu_tanh(x)
    th += 1.0
    out *= th

    def bw(g):
        th = _gelu_tanh(x)
        # g * (0.5 * (1 + th) + 0.5 * x * sech2 * d_inner), each step in
        # the same order but in place, in two fresh buffers: 165 us against
        # 214 us for the plain form at [32, 20, 64] (one core, 2-core VM)
        grad = th * th
        np.subtract(1.0, grad, out=grad)                 # sech2
        term = x * 0.5
        term *= grad
        d_inner = np.multiply(x, x, out=grad)
        d_inner *= 3.0 * 0.044715
        d_inner += 1.0
        d_inner *= 0.7978845608028654
        term *= d_inner
        np.add(th, 1.0, out=grad)
        grad *= 0.5
        grad += term
        grad *= g
        return ((a, grad),)

    return _make(out, (a,), bw)


def layer_norm_op(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learnable gain and bias."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    out = xc * xc
    var = out.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    # xhat and xhat * gain + bias, in place in the two fresh buffers
    xhat = np.multiply(xc, inv, out=xc)
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def bw(g):
        # inv * (gy - mean(gy) - xhat * mean(gy * xhat)), in place in gy:
        # 170 us against 185 us for the plain form at [32, 20, 32]
        gy = g * gain.data
        gy_mean = gy.mean(axis=-1, keepdims=True)
        buf = gy * xhat
        proj = buf.mean(axis=-1, keepdims=True)
        np.multiply(xhat, proj, out=buf)
        gy -= gy_mean
        gy -= buf
        gy *= inv
        red = tuple(range(g.ndim - 1))
        return _flow((x, lambda: gy),
                     (gain, lambda: np.multiply(g, xhat, out=buf).sum(axis=red)),
                     (bias, lambda: g.sum(axis=red)))

    return _make(out, (x, gain, bias), bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: ((a, g * (1.0 - out * out)),))


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) of an array, computed without overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = logistic(a.data)
    return _make(out, (a,), lambda g: ((a, g * out * (1.0 - out)),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)) computed without overflow."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    return _make(out, (a,), lambda g: ((a, g * logistic(x)),))


# -- linear algebra -------------------------------------------------------

def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")


def _matmul_terms(a: Tensor, b: Tensor, g: np.ndarray) -> tuple:
    # contiguous transposes; matmul on strided views is several times slower
    return ((a, lambda: _unbroadcast(np.matmul(g, _transposed(b.data)), a.shape)),
            (b, lambda: _unbroadcast(np.matmul(_transposed(a.data), g), b.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_matmul(a, b)
    out = np.matmul(a.data, b.data)
    return _make(out, (a, b), lambda g: _flow(*_matmul_terms(a, b, g)))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` as one node: the product, then the bias added into it.
    Without ``b`` it is ``matmul``."""
    if b is None:
        return matmul(x, w)
    _check_matmul(x, w)
    out = np.matmul(x.data, w.data)
    out += b.data

    def bw(g):
        return _flow(*_matmul_terms(x, w, g), (b, lambda: _unbroadcast(g, b.shape)))

    return _make(out, (x, w, b), bw)


def _transposed(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.swapaxes(x, -1, -2))


# -- reductions -----------------------------------------------------------

def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        # read-only broadcast views are safe: backward never writes into a
        # gradient it was handed, it only combines them into fresh arrays
        if axis is None:
            return ((a, np.broadcast_to(g, a.shape)),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return ((a, np.broadcast_to(gg, a.shape)),)

    return _make(out, (a,), bw)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return ((a, np.broadcast_to(g / count, a.shape)),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return ((a, np.broadcast_to(gg / count, a.shape)),)

    return _make(out, (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along one axis; rows sum to one."""
    if a.data.size == 0 or a.data.shape[axis] == 0:
        raise ShapeError("softmax over an empty axis")
    # exp(a - max) / sum, in place in one fresh buffer
    out = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return _make(out, (a,), lambda g: ((a, _softmax_grad(g, out, axis)),))


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    inner = (g * out).sum(axis=axis, keepdims=True)
    return (g - inner) * out


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of ``q`` [B, Lq, d] over
    ``k`` and ``v`` [B, L, d], as one node that keeps only the softmax
    weights: heads split from the last axis, softmax over the keys, the
    context merged back to [B, Lq, d]."""
    b_, lq, d = q.shape
    l = k.shape[1]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(x: np.ndarray, rows: int) -> np.ndarray:
        return x.reshape(b_, rows, heads, dh).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray, rows: int) -> np.ndarray:
        return x.transpose(0, 2, 1, 3).reshape(b_, rows, d)

    qh, kh, vh = split(q.data, lq), split(k.data, l), split(v.data, l)
    kt = kh.transpose(0, 1, 3, 2)
    scores = np.matmul(qh, kt)
    scores *= scale
    weights = softmax(Tensor(scores)).data
    del scores
    out = merge(np.matmul(weights, vh), lq)

    def bw(g):
        # the composition's backward in its order: merge, context product,
        # softmax, scale, score product, split; each product as matmul's
        dctx = g.reshape(b_, lq, heads, dh).transpose(0, 2, 1, 3)
        ds = _softmax_grad(np.matmul(dctx, _transposed(vh)), weights, -1) * scale
        return _flow((q, lambda: merge(np.matmul(ds, _transposed(kt)), lq)),
                     (k, lambda: merge(np.matmul(_transposed(qh), ds)
                                       .transpose(0, 1, 3, 2), l)),
                     (v, lambda: merge(np.matmul(_transposed(weights), dctx), l)))

    return _make(out, (q, k, v), bw)


def masked_mse(pred: Tensor, target: Tensor, weights: np.ndarray) -> Tensor:
    """Mean squared error over coordinates selected by a 0/1 weight array,
    as one node that keeps only ``pred - target``.

    ``weights`` broadcasts against pred; normalization is by the number of
    selected coordinates.
    """
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), pred.shape)
    diff = pred.data - target.data
    scale = 1.0 / max(float(w.sum()), 1.0)
    out = (diff * diff * w).sum() * scale

    def bw(g):
        grad = np.broadcast_to(g * scale, diff.shape) * w
        grad *= diff
        grad += grad        # diff * diff hands diff two equal contributions
        return _flow((pred, lambda: _unbroadcast(grad, pred.shape)),
                     (target, lambda: -_unbroadcast(grad, target.shape)))

    return _make(out, (pred, target), bw)


# -- structural primitives ------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: ((a, g.reshape(a.shape)),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = a.data.transpose(axes)
    return _make(out, (a,), lambda g: ((a, g.transpose(inverse)),))


def slice_(a: Tensor, key) -> Tensor:
    out = a.data[key]

    def bw(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return ((a, full),)

    return _make(np.ascontiguousarray(out), (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [const(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        pieces = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(int(lo), int(hi))
            pieces.append((t, g[tuple(idx)]))
        return tuple(pieces)

    return _make(out, tuple(tensors), bw)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: table[V, d] indexed by integer ids[...] -> [..., d]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError("gather index out of range")
    out = table.data[ids]

    def bw(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return ((table, full),)

    return _make(out, (table,), bw)


def select_last(a: Tensor, ids: np.ndarray) -> Tensor:
    """Pick one entry along the last axis per leading position."""
    ids = np.asarray(ids)
    out = np.take_along_axis(a.data, ids[..., None], axis=-1)[..., 0]

    def bw(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, ids[..., None], g[..., None], axis=-1)
        return ((a, full),)

    return _make(out, (a,), bw)


def where_mask(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """mask ? a : b with a constant boolean mask; exact on both branches.

    Computed as a*m + b*(1-m) with a 0/1 float mask, which selects each
    branch value exactly for finite inputs (x*1 + 0 == x, 0 + x*1 == x).
    """
    mask_f = np.asarray(mask, dtype=np.float64)
    inv_f = 1.0 - mask_f
    out = a.data * mask_f + b.data * inv_f

    def bw(g):
        return _flow((a, lambda: _unbroadcast(g * mask_f, a.shape)),
                     (b, lambda: _unbroadcast(g * inv_f, b.shape)))

    return _make(out, (a, b), bw)


# -- backward pass --------------------------------------------------------

def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss for every leaf on the tape.

    Returns a map leaf node_id -> gradient array; leaves the loss does not
    reach get zeros. An inner node's gradient is dropped as soon as it has
    been passed to the node's inputs, and none is returned.

    The walk spends the tape: once a node is walked its closure is cleared
    and, unless it is a leaf, it leaves ``tape.nodes``, so the activations
    it held are freed while the gradients are built. Afterwards the tape
    holds its leaves only; walking it again, or recording on it, raises
    ``ContractError``.

    A returned gradient may be a read-only view, or one array shared by two
    leaves (``a + b`` hands both the same gradient): read it, never write
    into it.
    """
    if loss.tape is not tape or loss.node_id < 0:
        raise ContractError("loss is not recorded on this tape")
    if tape.spent:
        raise ContractError("tape is spent: backward has walked it")
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    tape.spent = True
    nodes = tape.nodes
    later = [node for node in nodes[loss.node_id + 1:] if node.is_leaf]
    del nodes[loss.node_id + 1:]
    leaves = []
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    while nodes:
        node = nodes.pop()
        if node.is_leaf:
            leaves.append(node)
            continue
        step, node._backward = node._backward, None
        g = grads.pop(node.node_id, None)
        if g is None:
            continue
        for parent, contribution in step(g):
            pid = parent.node_id
            if pid < 0:
                continue
            if pid in grads:
                # never +=: contributions may alias forward buffers or views
                grads[pid] = grads[pid] + contribution
            else:
                grads[pid] = contribution
    tape.nodes = leaves[::-1] + later
    return {node.node_id: grads[node.node_id] if node.node_id in grads
            else np.zeros(node.shape) for node in tape.nodes}
