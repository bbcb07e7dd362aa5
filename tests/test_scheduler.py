import numpy as np
import pytest

from oracles import recompute_log_prob
from skipdiff.data import synthetic_vocab
from skipdiff.errors import ContractError, TruncationError
from skipdiff.rng import RngStream
from skipdiff.scheduler import (SchedulerConfig, add_grads, apply_update,
                                init_scheduler_params, policy_gradient,
                                sample_instructions_batch, zero_like_grads)

VOCAB = synthetic_vocab(8)


def make(T=4, hidden=6, embed=4, bias=0.0, seed=1):
    cfg = SchedulerConfig(embed_dim=embed, hidden_dim=hidden,
                          encoder_max_len=16, decoder_len=T,
                          head_bias_init=bias)
    params = init_scheduler_params(cfg, len(VOCAB), RngStream(seed))
    return cfg, params


def sample_instructions(params, src, vocab, cfg, rng=None, mode="stochastic"):
    """The sample of a one-source batch."""
    return sample_instructions_batch(params, [src], vocab, cfg, rng, mode).samples[0]


def test_encode_condition_empty_rejected():
    cfg, params = make()
    with pytest.raises(ContractError):
        sample_instructions(params, [], VOCAB, cfg, mode="greedy")


def test_encode_condition_overflow():
    cfg, params = make()
    with pytest.raises(TruncationError):
        sample_instructions(params, ["w00"] * 17, VOCAB, cfg, mode="greedy")


def test_saturated_policy_all_true_zero_logprob():
    cfg, params = make(T=6)
    params["head.w"] = np.zeros_like(params["head.w"])
    params["head.b"] = np.full(1, 1000.0)
    sample = sample_instructions(params, ["w00"], VOCAB, cfg,
                                 RngStream(3), mode="stochastic")
    assert sample.instructions.bits.all()
    assert sample.log_prob == 0.0


def test_uniform_policy_logprob_closed_form():
    cfg, params = make(T=4)
    params["head.w"] = np.zeros_like(params["head.w"])
    params["head.b"] = np.zeros(1)
    sample = sample_instructions(params, ["w01"], VOCAB, cfg,
                                 RngStream(5), mode="stochastic")
    assert np.allclose(sample.per_step_probs, 0.5)
    assert sample.log_prob == pytest.approx(4 * np.log(0.5), abs=1e-12)


def test_greedy_mode_needs_no_rng():
    cfg, params = make(T=8)
    a = sample_instructions(params, ["w02", "w03"], VOCAB, cfg,
                            rng=None, mode="greedy")
    b = sample_instructions(params, ["w02", "w03"], VOCAB, cfg,
                            rng=None, mode="greedy")
    assert np.array_equal(a.instructions.bits, b.instructions.bits)
    assert np.array_equal(a.instructions.bits, a.per_step_probs >= 0.5)


def test_logprob_consistency_invariant():
    cfg, params = make(T=12, bias=0.7)
    for seed in range(5):
        sample = sample_instructions(params, ["w04", "w00"], VOCAB, cfg,
                                     RngStream(seed), mode="stochastic")
        assert sample.log_prob == pytest.approx(recompute_log_prob(sample), abs=1e-9)


def test_stochastic_determinism_given_stream():
    cfg, params = make(T=10)
    a = sample_instructions(params, ["w05"], VOCAB, cfg, RngStream(9))
    b = sample_instructions(params, ["w05"], VOCAB, cfg, RngStream(9))
    assert np.array_equal(a.instructions.bits, b.instructions.bits)
    assert a.log_prob == b.log_prob


def test_policy_gradient_zero_reward():
    cfg, params = make()
    sample = sample_instructions(params, ["w00"], VOCAB, cfg, RngStream(1))
    grads = policy_gradient(params, sample, 0.0)
    assert all(np.all(g == 0) for g in grads.values())


def test_policy_gradient_linear_in_reward():
    cfg, params = make()
    sample = sample_instructions(params, ["w00"], VOCAB, cfg, RngStream(2))
    g1 = policy_gradient(params, sample, 0.5)
    g2 = policy_gradient(params, sample, 1.0)
    for name in g1:
        assert np.array_equal(g2[name], 2.0 * g1[name])


def test_policy_gradient_stale_params_rejected():
    cfg, params = make()
    sample = sample_instructions(params, ["w00"], VOCAB, cfg, RngStream(2))
    other = {k: v.copy() for k, v in params.items()}
    with pytest.raises(ContractError):
        policy_gradient(other, sample, 1.0)


def test_policy_gradient_requires_tape():
    cfg, params = make()
    sample = sample_instructions(params, ["w00"], VOCAB, cfg, rng=None,
                                 mode="greedy")
    with pytest.raises(ContractError):
        policy_gradient(params, sample, 1.0)


def test_score_function_matches_analytic_bernoulli():
    # With zero decoder input weights the logit is b + w.h(const), so
    # d log p / d b = sum_t (bit_t - p_t): the classic score function.
    cfg, params = make(T=6)
    params["dec.wx"] = np.zeros_like(params["dec.wx"])  # freeze input feedback
    sample = sample_instructions(params, ["w01", "w02"], VOCAB, cfg, RngStream(7))
    reward = 0.83
    grads = policy_gradient(params, sample, reward)
    expected = reward * np.sum(sample.instructions.bits.astype(float)
                               - sample.per_step_probs)
    assert grads["head.b"][0] == pytest.approx(expected, abs=1e-8)


def test_apply_update_identities():
    cfg, params = make()
    zero = zero_like_grads(params)
    updated = apply_update(params, zero, lr=0.5)
    for name in params:
        assert np.array_equal(updated[name], params[name])
    sample = sample_instructions(params, ["w00"], VOCAB, cfg, RngStream(4))
    grads = policy_gradient(params, sample, 1.0)
    frozen = apply_update(params, grads, lr=0.0)
    for name in params:
        assert np.array_equal(frozen[name], params[name])


def test_apply_update_moves_up_reward_gradient():
    cfg, params = make()
    sample = sample_instructions(params, ["w00"], VOCAB, cfg, RngStream(4))
    grads = policy_gradient(params, sample, 1.0)
    updated = apply_update(params, grads, lr=0.1)
    assert any(not np.array_equal(updated[n], params[n]) for n in params)


def bandit_run(reward_fn, updates=50, lr=0.1, T=8, seed=0, batch=16):
    cfg = SchedulerConfig(embed_dim=4, hidden_dim=6, encoder_max_len=8,
                          decoder_len=T, head_bias_init=0.0)
    params = init_scheduler_params(cfg, len(VOCAB), RngStream(1234))
    rng = RngStream(seed)
    src = ["w00", "w01"]
    first_mean = None
    for step in range(updates):
        b = sample_instructions_batch(params, [src] * batch, VOCAB, cfg,
                                      rng.fork("u", step), "stochastic")
        if first_mean is None:
            first_mean = float(np.mean([s.per_step_probs.mean() for s in b.samples]))
        total = zero_like_grads(params)
        for s in b.samples:
            r = reward_fn(s.instructions.bits)
            total = add_grads(total, policy_gradient(params, s, r), 1.0 / batch)
        params = apply_update(params, total, lr)
    final = sample_instructions_batch(params, [src] * batch, VOCAB, cfg,
                                      rng.fork("final"), "stochastic")
    final_mean = float(np.mean([s.per_step_probs.mean() for s in final.samples]))
    return first_mean, final_mean


def test_bandit_smoke_single_seed():
    # Full five-seed version runs in the acceptance suite.
    first, final = bandit_run(lambda bits: bits.mean(), seed=0)
    assert final > first + 0.2
    first_n, final_n = bandit_run(lambda bits: 1.0 - bits.mean(), seed=0)
    assert final_n < first_n - 0.2
