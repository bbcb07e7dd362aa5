"""Network layers composed from the closed primitive set.

Everything here is a composition of autodiff primitives, so the
finite-difference checker exercises these layers with no extra machinery.
Parameters are plain name->array dicts; callers wrap them in tape leaves.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .autodiff import (Tensor, concat, const, exp, gather_rows, gelu,
                       layer_norm_op, log, matmul, mul, reshape,
                       select_last, sigmoid, softmax, sub, sum_,
                       tanh, transpose, where_mask)
from .rng import RngStream


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    out = matmul(x, w)
    return out if b is None else out + b


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention over the last two axes."""
    nd = k.data.ndim
    k_t = transpose(k, tuple(range(nd - 2)) + (nd - 1, nd - 2))
    scores = matmul(q, k_t) * (1.0 / math.sqrt(q.shape[-1]))
    return matmul(softmax(scores, axis=-1), v)


def multi_head_attention(x: Tensor, p: Mapping[str, Tensor], prefix: str,
                         heads: int) -> Tensor:
    b_, l_, d = x.shape
    dh = d // heads

    def split(t: Tensor) -> Tensor:
        return transpose(reshape(t, (b_, l_, heads, dh)), (0, 2, 1, 3))

    q = split(linear(x, p[f"{prefix}.wq"], p[f"{prefix}.bq"]))
    k = split(linear(x, p[f"{prefix}.wk"]))
    v = split(linear(x, p[f"{prefix}.wv"], p[f"{prefix}.bv"]))
    ctx = attention(q, k, v)
    merged = reshape(transpose(ctx, (0, 2, 1, 3)), (b_, l_, d))
    return linear(merged, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def feed_forward(x: Tensor, p: Mapping[str, Tensor], prefix: str) -> Tensor:
    h = gelu(linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    return linear(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def transformer_block(x: Tensor, p: Mapping[str, Tensor], prefix: str,
                      heads: int) -> Tensor:
    h = x + multi_head_attention(
        layer_norm_op(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"]), p,
        f"{prefix}.attn", heads)
    return h + feed_forward(
        layer_norm_op(h, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"]), p,
        f"{prefix}.ffn")


def masked_mse(pred: Tensor, target: Tensor, weights: np.ndarray) -> Tensor:
    """Mean squared error over coordinates selected by a 0/1 weight array.

    ``weights`` broadcasts against pred; normalization is by the number of
    selected coordinates.
    """
    w = const(np.broadcast_to(np.asarray(weights, dtype=np.float64), pred.shape))
    diff = sub(pred, target)
    total = sum_(mul(diff * diff, w))
    count = float(w.data.sum())
    return total * (1.0 / max(count, 1.0))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = const(x.data.max(axis=axis, keepdims=True))
    centered = sub(x, shift)
    return sub(centered, log(sum_(exp(centered), axis=axis, keepdims=True)))


def masked_cross_entropy(logits: Tensor, ids: np.ndarray,
                         weights: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over positions selected by weights."""
    picked = select_last(log_softmax(logits, axis=-1), np.asarray(ids))
    w = const(np.asarray(weights, dtype=np.float64))
    total = sum_(mul(picked, w))
    count = float(np.asarray(weights, dtype=np.float64).sum())
    return -total * (1.0 / max(count, 1.0))


def lstm_step(x: Tensor, h: Tensor, c: Tensor, wx: Tensor, wh: Tensor,
              b: Tensor, hidden: int) -> tuple[Tensor, Tensor]:
    """One LSTM cell update; gate order i, f, g, o along the last axis."""
    gates = matmul(x, wx) + matmul(h, wh) + b
    i = sigmoid(gates[:, 0 * hidden:1 * hidden])
    f = sigmoid(gates[:, 1 * hidden:2 * hidden])
    g = tanh(gates[:, 2 * hidden:3 * hidden])
    o = sigmoid(gates[:, 3 * hidden:4 * hidden])
    c_next = f * c + i * g
    return o * tanh(c_next), c_next


def init_matrix(rng: RngStream, fan_in: int, fan_out: int,
                scale: float | None = None) -> np.ndarray:
    sigma = scale if scale is not None else 1.0 / math.sqrt(fan_in)
    return rng.normal((fan_in, fan_out)) * sigma


__all__ = [
    "linear", "gelu", "layer_norm_op", "attention", "multi_head_attention",
    "feed_forward", "transformer_block", "masked_mse", "log_softmax",
    "masked_cross_entropy", "lstm_step", "init_matrix",
    "gather_rows", "where_mask", "concat",
]
