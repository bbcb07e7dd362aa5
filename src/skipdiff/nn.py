"""Network layers composed from the closed primitive set.

Everything here is a composition of autodiff primitives, so the
finite-difference checker exercises these layers with no extra machinery.
Parameters are plain name->array dicts; callers wrap them in tape leaves.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .autodiff import (Tensor, attention, const, exp, gelu, layer_norm_op,
                       linear, log, matmul, mul, select_last, sigmoid, sub, sum_,
                       tanh)
from .rng import RngStream


def multi_head_attention(x: Tensor, p: Mapping[str, Tensor], prefix: str,
                         heads: int, start: int = 0) -> Tensor:
    """Self-attention of the positions from ``start`` on over every position:
    keys and values cover all of ``x``, queries and the output only
    ``x[:, start:]``."""
    xq = x[:, start:] if start else x
    q = linear(xq, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    k = linear(x, p[f"{prefix}.wk"])
    v = linear(x, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
    return linear(attention(q, k, v, heads), p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def feed_forward(x: Tensor, p: Mapping[str, Tensor], prefix: str) -> Tensor:
    h = gelu(linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    return linear(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def transformer_block(x: Tensor, p: Mapping[str, Tensor], prefix: str,
                      heads: int, start: int = 0) -> Tensor:
    """Pre-norm block; its output covers the positions from ``start`` on,
    each computed as in the full block (attention reads every position)."""
    h = (x[:, start:] if start else x) + multi_head_attention(
        layer_norm_op(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"]), p,
        f"{prefix}.attn", heads, start)
    return h + feed_forward(
        layer_norm_op(h, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"]), p,
        f"{prefix}.ffn")


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

