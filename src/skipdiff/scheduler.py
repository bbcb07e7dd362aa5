"""Recurrent policy that reads a source sentence and emits one boolean
noise instruction per diffusion step.

A one-layer LSTM encoder consumes the source; a one-layer LSTM decoder
rolls out one step per diffusion step, feeding back the embedding of the
previous instruction (a learned start symbol at step one) and squashing a
scalar head through a sigmoid into the per-step True probability.

Stochastic sampling records the instruction log-probabilities on a tape so
the score-function gradient is one backward pass away; greedy decoding is
deterministic and touches no random stream.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .autodiff import (Tape, Tensor, backward, const, gather_rows, lift, neg,
                       reshape, softplus, sum_, where_mask)
from .data import Vocab
from .errors import ContractError, ParameterError, TruncationError
from .rng import RngStream
from .schedule import MetaInstructions


@dataclass(frozen=True)
class SchedulerConfig:
    embed_dim: int = 64        # kept equal to the exploiter width
    hidden_dim: int = 32
    encoder_max_len: int = 128
    decoder_len: int = 64      # = diffusion step count
    # Positive head bias starts the policy near the plain base schedule
    # (mostly-True instructions), so early training matches the known-good
    # fixed noise and exploration perturbs it gradually.
    head_bias_init: float = 3.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SchedulerConfig":
        return cls(**d)


def init_scheduler_params(cfg: SchedulerConfig, vocab_size: int,
                          rng: RngStream) -> dict[str, np.ndarray]:
    e, h = cfg.embed_dim, cfg.hidden_dim
    return {
        "tok_emb": rng.normal((vocab_size, e)) * 0.1,
        "enc.wx": nn.init_matrix(rng, e, 4 * h),
        "enc.wh": nn.init_matrix(rng, h, 4 * h),
        "enc.b": np.zeros(4 * h),
        "dec.wx": nn.init_matrix(rng, e, 4 * h),
        "dec.wh": nn.init_matrix(rng, h, 4 * h),
        "dec.b": np.zeros(4 * h),
        "inst_emb": rng.normal((2, e)) * 0.1,
        "start_emb": rng.normal((e,)) * 0.1,
        "head.w": rng.normal((h, 1)) * (1.0 / np.sqrt(h)),
        "head.b": np.full(1, cfg.head_bias_init),
    }


@dataclass
class InstructionBatch:
    """One policy rollout over a minibatch of sources."""

    instructions: MetaInstructions   # [B, T] sampled bits
    probs: np.ndarray                # [B, T] per-step True probabilities
    row_log_prob: Tensor             # [B] log-probability of each row's bits
    tape: Tape | None                # recording tape; None when unrecorded
    leaves: dict[str, Tensor] | None  # the policy weights as leaves of ``tape``

    def score_gradients(self) -> dict[str, np.ndarray]:
        """Gradients of the summed log-probability w.r.t. the policy weights."""
        if self.tape is None:
            raise ContractError("batch was sampled without tape recording")
        grads = backward(self.tape, sum_(self.row_log_prob))
        return {name: grads[leaf.node_id] for name, leaf in self.leaves.items()}


def _ids_for(srcs: list[list[str]], vocab: Vocab, cfg: SchedulerConfig):
    lengths = np.array([len(s) for s in srcs], dtype=np.int64)
    if len(srcs) == 0 or np.any(lengths == 0):
        raise ContractError("cannot schedule noise for an empty source")
    if lengths.max() > cfg.encoder_max_len:
        raise TruncationError(
            f"source length {int(lengths.max())} exceeds encoder max "
            f"{cfg.encoder_max_len}")
    ids = np.zeros((len(srcs), int(lengths.max())), dtype=np.int64)
    for i, src in enumerate(srcs):
        ids[i, :len(src)] = vocab.encode(list(src))
    return ids, lengths


def _encode(pt, ids: np.ndarray, lengths: np.ndarray, hidden: int):
    b, m = ids.shape
    h = const(np.zeros((b, hidden)))
    c = const(np.zeros((b, hidden)))
    for s in range(m):
        x = gather_rows(pt["tok_emb"], ids[:, s])
        h_new, c_new = nn.lstm_step(x, h, c, pt["enc.wx"], pt["enc.wh"],
                                    pt["enc.b"], hidden)
        alive = (s < lengths)[:, None]
        h = where_mask(alive, h_new, h)
        c = where_mask(alive, c_new, c)
    return h, c


def sample_instructions_batch(params, srcs: list[list[str]], vocab: Vocab,
                              cfg: SchedulerConfig, rng: RngStream | None,
                              mode: str = "stochastic",
                              record: bool | None = None) -> InstructionBatch:
    """Roll the decoder once for a whole minibatch of sources.

    Stochastic mode draws each bit from its Bernoulli; greedy mode
    thresholds the probability at one half and never touches ``rng``.
    ``record`` (default: only in stochastic mode) keeps the log-probability
    graph alive for ``score_gradients()``.
    """
    if mode not in ("stochastic", "greedy"):
        raise ParameterError(f"unknown sampling mode {mode!r}")
    if mode == "stochastic" and rng is None:
        raise ContractError("stochastic sampling needs an rng stream")
    if record is None:
        record = mode == "stochastic"
    steps = cfg.decoder_len
    hidden = cfg.hidden_dim
    ids, lengths = _ids_for(srcs, vocab, cfg)
    b = len(srcs)
    tape = Tape() if record else None
    pt = lift(params, tape)
    h, c = _encode(pt, ids, lengths, hidden)

    # start symbol replicated across the batch; gather keeps it trainable
    x = gather_rows(_as_table(pt["start_emb"]), np.zeros(b, dtype=np.int64))
    bits_all = np.zeros((b, steps), dtype=bool)
    probs_all = np.zeros((b, steps), dtype=np.float64)
    log_prob_rows = const(np.zeros(b))
    for t in range(steps):
        h, c = nn.lstm_step(x, h, c, pt["dec.wx"], pt["dec.wh"], pt["dec.b"], hidden)
        logit = (h @ pt["head.w"])[:, 0] + pt["head.b"]
        p = _stable_sigmoid(logit.data)
        if mode == "stochastic":
            bits = rng.bernoulli(p)
        else:
            bits = p >= 0.5
        bits_all[:, t] = bits
        probs_all[:, t] = p
        # log p(bit): -softplus(-x) when True, -softplus(x) when False
        term = where_mask(bits, neg(softplus(neg(logit))), neg(softplus(logit)))
        log_prob_rows = log_prob_rows + term
        x = gather_rows(pt["inst_emb"], bits.astype(np.int64))
    return InstructionBatch(instructions=MetaInstructions(bits_all),
                            probs=probs_all, row_log_prob=log_prob_rows,
                            tape=tape, leaves=pt if record else None)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _as_table(vector: Tensor) -> Tensor:
    """View a vector as a one-row table for gather-based broadcast."""
    return reshape(vector, (1, vector.shape[0]))


def apply_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                 lr: float) -> dict[str, np.ndarray]:
    """Gradient ascent: a fresh parameter snapshot moved toward the reward."""
    out = {}
    for name, value in params.items():
        g = grads[name]
        if np.shape(g) != value.shape:
            raise ContractError(
                f"gradient shape {np.shape(g)} != param {value.shape} for {name}")
        out[name] = value + lr * g
    return out


def zero_like_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(value) for name, value in params.items()}


def add_grads(a: dict[str, np.ndarray], b: dict[str, np.ndarray],
              scale: float = 1.0) -> dict[str, np.ndarray]:
    return {name: a[name] + scale * b[name] for name in a}
