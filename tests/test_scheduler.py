import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandit import bandit_run, reinforce_gradients
from oracles import recompute_log_prob
from skipdiff.data import synthetic_vocab
from skipdiff.errors import ContractError, TruncationError
from skipdiff.rng import RngStream
from skipdiff.scheduler import (SchedulerConfig, apply_update,
                                init_scheduler_params,
                                sample_instructions_batch, zero_like_grads)

VOCAB = synthetic_vocab(8)


def make(T=4, hidden=6, embed=4, bias=0.0, seed=1):
    cfg = SchedulerConfig(embed_dim=embed, hidden_dim=hidden,
                          encoder_max_len=16, decoder_len=T,
                          head_bias_init=bias)
    params = init_scheduler_params(cfg, len(VOCAB), RngStream(seed))
    return cfg, params


def sample_instructions(params, src, vocab, cfg, rng=None, mode="stochastic"):
    """The rollout of a one-source batch."""
    return sample_instructions_batch(params, [src], vocab, cfg, rng, mode)


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
    batch = sample_instructions(params, ["w00"], VOCAB, cfg,
                                RngStream(3), mode="stochastic")
    assert batch.instructions.bits.all()
    assert batch.row_log_prob.data[0] == 0.0


def test_uniform_policy_logprob_closed_form():
    cfg, params = make(T=4)
    params["head.w"] = np.zeros_like(params["head.w"])
    params["head.b"] = np.zeros(1)
    batch = sample_instructions(params, ["w01"], VOCAB, cfg,
                                RngStream(5), mode="stochastic")
    assert np.allclose(batch.probs, 0.5)
    assert batch.row_log_prob.data[0] == pytest.approx(4 * np.log(0.5), abs=1e-12)


def test_greedy_mode_needs_no_rng():
    cfg, params = make(T=8)
    a = sample_instructions(params, ["w02", "w03"], VOCAB, cfg,
                            rng=None, mode="greedy")
    b = sample_instructions(params, ["w02", "w03"], VOCAB, cfg,
                            rng=None, mode="greedy")
    assert np.array_equal(a.instructions.bits, b.instructions.bits)
    assert np.array_equal(a.instructions.bits, a.probs >= 0.5)


def test_logprob_consistency_invariant():
    cfg, params = make(T=12, bias=0.7)
    srcs = [["w04", "w00"], ["w01"], ["w02", "w03", "w05"]]
    for seed in range(5):
        batch = sample_instructions_batch(params, srcs, VOCAB, cfg,
                                          RngStream(seed), "stochastic")
        for row in range(len(srcs)):
            assert batch.row_log_prob.data[row] == pytest.approx(
                recompute_log_prob(batch.instructions.bits[row], batch.probs[row]),
                abs=1e-9)


def test_stochastic_determinism_given_stream():
    cfg, params = make(T=10)
    a = sample_instructions(params, ["w05"], VOCAB, cfg, RngStream(9))
    b = sample_instructions(params, ["w05"], VOCAB, cfg, RngStream(9))
    assert np.array_equal(a.instructions.bits, b.instructions.bits)
    assert np.array_equal(a.row_log_prob.data, b.row_log_prob.data)


def test_score_gradients_require_tape():
    cfg, params = make()
    batch = sample_instructions(params, ["w00"], VOCAB, cfg, rng=None,
                                mode="greedy")
    with pytest.raises(ContractError):
        batch.score_gradients()


def test_score_function_matches_analytic_bernoulli():
    # With zero decoder input weights the logit is b + w.h(const), so
    # d log p / d b = sum_t (bit_t - p_t): the classic score function,
    # summed over the rows of the batch.
    cfg, params = make(T=6)
    params["dec.wx"] = np.zeros_like(params["dec.wx"])  # freeze input feedback
    batch = sample_instructions_batch(params, [["w01", "w02"], ["w03"]], VOCAB,
                                      cfg, RngStream(7), "stochastic")
    grads = batch.score_gradients()
    expected = np.sum(batch.instructions.bits.astype(float) - batch.probs)
    assert grads["head.b"][0] == pytest.approx(expected, abs=1e-8)


def test_policy_gradient_zero_reward():
    cfg, params = make()
    batch = sample_instructions_batch(params, [["w00"]] * 4, VOCAB, cfg,
                                      RngStream(1), "stochastic")
    grads = reinforce_gradients(batch, [0.0] * 4)
    assert all(np.all(g == 0) for g in grads.values())


def test_policy_gradient_linear_in_reward():
    # Four rows: weighting each by reward / 4 scales by powers of two only,
    # so the estimates are exact multiples of the score gradient.
    # Backward spends a tape, so each estimator walks its own batch, drawn
    # from the same stream.
    cfg, params = make()

    def batch():
        return sample_instructions_batch(params, [["w00"]] * 4, VOCAB, cfg,
                                         RngStream(2), "stochastic")

    score = batch().score_gradients()
    half = reinforce_gradients(batch(), [0.5] * 4)
    one = reinforce_gradients(batch(), [1.0] * 4)
    for name in score:
        assert np.array_equal(one[name], score[name] / 4)
        assert np.array_equal(one[name], 2.0 * half[name])


def test_apply_update_identities():
    cfg, params = make()
    zero = zero_like_grads(params)
    updated = apply_update(params, zero, lr=0.5)
    for name in params:
        assert np.array_equal(updated[name], params[name])
    grads = sample_instructions(params, ["w00"], VOCAB, cfg,
                                RngStream(4)).score_gradients()
    frozen = apply_update(params, grads, lr=0.0)
    for name in params:
        assert np.array_equal(frozen[name], params[name])


def test_apply_update_moves_up_reward_gradient():
    cfg, params = make()
    grads = sample_instructions(params, ["w00"], VOCAB, cfg,
                                RngStream(4)).score_gradients()
    updated = apply_update(params, grads, lr=0.1)
    assert any(not np.array_equal(updated[n], params[n]) for n in params)


def test_bandit_smoke_single_seed():
    # Full five-seed version runs in the acceptance suite.
    first, final = bandit_run(lambda bits: float(bits.mean()), seed=0)
    assert final > first + 0.2
    first_n, final_n = bandit_run(lambda bits: float(1.0 - bits.mean()), seed=0)
    assert final_n < first_n - 0.2


@settings(max_examples=60, deadline=None)
@given(block_rows=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       data=st.data())
def test_blocked_rollout_equals_per_block_rollouts(block_rows, data):
    # mixed source lengths, and the last block may be the shortest
    cfg, params = make(T=6, hidden=5, embed=4, bias=1.0, seed=3)
    srcs = [[f"w{i:02d}" for i in data.draw(st.lists(st.integers(0, 7),
                                                       min_size=1, max_size=7))]
            for _ in range(sum(block_rows))]
    seeds = [data.draw(st.integers(0, 2**32)) for _ in block_rows]
    streams = [RngStream(seed, 5) for seed in seeds]
    record = data.draw(st.booleans())
    whole = sample_instructions_batch(params, srcs, VOCAB, cfg,
                                      list(zip(block_rows, streams)),
                                      "stochastic", record)
    start = 0
    for rows, seed, stream in zip(block_rows, seeds, streams):
        alone_rng = RngStream(seed, 5)
        alone = sample_instructions_batch(params, srcs[start:start + rows], VOCAB,
                                          cfg, alone_rng, "stochastic", record)
        block = slice(start, start + rows)
        assert np.array_equal(whole.instructions.bits[block], alone.instructions.bits)
        # BLAS may round a row of a 2-D product by its place in the batch,
        # so probabilities agree to float64 rounding, not bit for bit
        np.testing.assert_allclose(whole.probs[block], alone.probs, rtol=1e-12)
        if record:
            np.testing.assert_allclose(whole.row_log_prob.data[block],
                                       alone.row_log_prob.data, rtol=1e-12)
        else:
            assert whole.row_log_prob is None and alone.row_log_prob is None
        assert stream.position == alone_rng.position == 5 + cfg.decoder_len * rows
        start += rows


def test_rng_blocks_must_cover_the_batch():
    cfg, params = make()
    with pytest.raises(ContractError, match="cover 3 rows, batch has 4"):
        sample_instructions_batch(params, [["w00"]] * 4, VOCAB, cfg,
                                  [(2, RngStream(1)), (1, RngStream(2))])


def test_dropped_instruction_batch_frees_its_tape():
    cfg, params = make()
    gc.disable()
    try:
        batch = sample_instructions_batch(params, [["w00"], ["w01", "w02"]], VOCAB,
                                          cfg, RngStream(5), "stochastic")
        tape = weakref.ref(batch.tape)
        batch.score_gradients()
        del batch
        assert tape() is None
    finally:
        gc.enable()
