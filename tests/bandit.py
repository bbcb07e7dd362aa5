"""A one-source bandit for the noise policy: REINFORCE with a per-row reward.

Each update samples one batch of instruction rows for the same source,
scores every row with ``reward_fn(bits)`` and takes one ascent step along
the batch-mean score-function estimate, formed with a single backward pass
through the batch's own tape.
"""

import numpy as np

from skipdiff.autodiff import backward, const, sum_
from skipdiff.data import synthetic_vocab
from skipdiff.rng import RngStream
from skipdiff.scheduler import (InstructionBatch, SchedulerConfig, apply_update,
                                init_scheduler_params, sample_instructions_batch)


def reinforce_gradients(batch: InstructionBatch, rewards) -> dict[str, np.ndarray]:
    """Mean over rows of reward times the row's log-probability gradient."""
    weights = np.asarray(rewards, dtype=np.float64) / len(rewards)
    grads = backward(batch.tape, sum_(batch.row_log_prob * const(weights)))
    return {name: grads[leaf.node_id] for name, leaf in batch.leaves.items()}


def bandit_run(reward_fn, seed, updates=50, lr=0.1, steps=8, batch=16):
    """Mean True probability of the first and of a final batch."""
    cfg = SchedulerConfig(embed_dim=4, hidden_dim=6, encoder_max_len=8,
                          decoder_len=steps, head_bias_init=0.0)
    vocab = synthetic_vocab(8)
    params = init_scheduler_params(cfg, len(vocab), RngStream(1234))
    rng = RngStream(seed)
    src = ["w00", "w01"]
    first = None
    for step in range(updates):
        b = sample_instructions_batch(params, [src] * batch, vocab, cfg,
                                      rng.fork("u", step), "stochastic")
        if first is None:
            first = float(b.probs.mean())
        rewards = [reward_fn(bits) for bits in b.instructions.bits]
        params = apply_update(params, reinforce_gradients(b, rewards), lr)
    final = sample_instructions_batch(params, [src] * batch, vocab, cfg,
                                      rng.fork("final"), "stochastic")
    return first, float(final.probs.mean())
