"""Dense float64 arrays with tape-based reverse-mode differentiation.

The primitive set is fixed and closed; every layer elsewhere in the package
is composed from these primitives so a single finite-difference checker
covers the whole model zoo. Values are immutable once published: no
operation writes into its inputs.

A ``Tape`` records operations in creation order, which is automatically a
topological order (inputs exist before outputs). ``backward`` walks the
record once in reverse, accumulating gradients additively per node.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError


class Tape:
    """Ordered operation record plus per-node gradient accumulators."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def leaf(self, data) -> "Tensor":
        """Register a trainable leaf; gradients flow back to it."""
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf values must be finite")
        return Tensor(arr, tape=self, parents=(), backward=None, is_leaf=True)

    def _register(self, tensor: "Tensor") -> int:
        self.nodes.append(tensor)
        return len(self.nodes) - 1


class Tensor:
    """Immutable float64 array, optionally recorded on a tape."""

    __slots__ = ("data", "tape", "node_id", "is_leaf", "_parents", "_backward")

    def __init__(self, data, tape: Tape | None = None, parents=(),
                 backward: Callable | None = None, is_leaf: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.is_leaf = is_leaf
        self._parents = tuple(parents)
        self._backward = backward
        self.node_id = tape._register(self) if tape is not None else -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = "leaf" if self.is_leaf else ("const" if self.tape is None else "node")
        return f"Tensor({tag}, shape={self.shape})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Constant copy; gradients do not flow through it."""
        return Tensor(self.data)

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _coerce(other))

    def __pow__(self, exponent):
        return pow_const(self, exponent)

    def __getitem__(self, key):
        return slice_(self, key)


def _coerce(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def const(value) -> Tensor:
    """Constant tensor (never on a tape)."""
    return _coerce(value)


def lift(params: dict[str, np.ndarray], tape: Tape | None) -> dict[str, Tensor]:
    """Named arrays as trainable leaves of ``tape``, or as constants without one."""
    if tape is None:
        return {k: Tensor(v) for k, v in params.items()}
    return {k: tape.leaf(v) for k, v in params.items()}


def _result_tape(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("operands recorded on different tapes")
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


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    tape = _result_tape(*parents)
    if tape is None:
        return Tensor(data)
    return Tensor(data, tape=tape, parents=parents, backward=backward)


# -- elementwise primitives ---------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bw(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return _make(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bw(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))

    return _make(out, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: ((a, -g),))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bw(g):
        return ((a, _unbroadcast(g * b.data, a.shape)),
                (b, _unbroadcast(g * a.data, b.shape)))

    return _make(out, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    if np.any(b.data == 0.0):
        raise ValueError("division by zero")
    out = a.data / b.data

    def bw(g):
        return ((a, _unbroadcast(g / b.data, a.shape)),
                (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))

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


def gelu(a: Tensor) -> Tensor:
    """Smooth gelu (tanh form), fused as one node for speed."""
    x = a.data
    inner = 0.7978845608028654 * (x + 0.044715 * (x * x * x))
    th = np.tanh(inner)
    out = 0.5 * x * (1.0 + th)

    def bw(g):
        sech2 = 1.0 - th * th
        d_inner = 0.7978845608028654 * (1.0 + 3.0 * 0.044715 * (x * x))
        return ((a, g * (0.5 * (1.0 + th) + 0.5 * x * sech2 * d_inner)),)

    return _make(out, (a,), bw)


def layer_norm_op(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learnable gain and bias."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bw(g):
        gy = g * gain.data
        gx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                    - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
        red = tuple(range(g.ndim - 1))
        return ((x, gx), (gain, (g * xhat).sum(axis=red)), (bias, g.sum(axis=red)))

    return _make(out, (x, gain, bias), bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: ((a, g * (1.0 - out * out)),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _make(out, (a,), lambda g: ((a, g * out * (1.0 - out)),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)) computed without overflow."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def bw(g):
        s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                     np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        return ((a, g * s),)

    return _make(out, (a,), bw)


# -- linear algebra -------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)

    def bw(g):
        # contiguous transposes; matmul on strided views is several times slower
        bt = np.ascontiguousarray(np.swapaxes(b.data, -1, -2))
        at = np.ascontiguousarray(np.swapaxes(a.data, -1, -2))
        ga = np.matmul(g, bt)
        gb = np.matmul(at, g)
        return ((a, _unbroadcast(ga, a.shape)), (b, _unbroadcast(gb, b.shape)))

    return _make(out, (a, b), bw)


# -- reductions -----------------------------------------------------------

def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        # read-only broadcast views are safe: gradient buffers are never
        # mutated in place, only combined into fresh arrays
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
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((a, out * (g - inner)),)

    return _make(out, (a,), bw)


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
    tensors = [(_coerce(t)) for t in tensors]
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
        return ((a, _unbroadcast(g * mask_f, a.shape)),
                (b, _unbroadcast(g * inv_f, b.shape)))

    return _make(out, (a, b), bw)


# -- backward pass --------------------------------------------------------

def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss for every node on the tape.

    Returns a map node_id -> gradient array. Leaves the loss does not
    reach get explicit zero gradients.
    """
    if loss.tape is not tape or loss.node_id < 0:
        raise ContractError("loss is not recorded on this tape")
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for node in reversed(tape.nodes[: loss.node_id + 1]):
        g = grads.get(node.node_id)
        if g is None or node._backward is None:
            continue
        for parent, contribution in node._backward(g):
            pid = parent.node_id
            if pid < 0:
                continue
            if pid in grads:
                # never +=: contributions may alias forward buffers or views
                grads[pid] = grads[pid] + contribution
            else:
                grads[pid] = contribution
    for node in tape.nodes:
        if node.is_leaf and node.node_id not in grads:
            grads[node.node_id] = np.zeros_like(node.data)
    return grads
