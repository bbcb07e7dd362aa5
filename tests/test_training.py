import json
import os

import numpy as np
import pytest

from skipdiff import training
from skipdiff.checkpoint import load_checkpoint
from skipdiff.cli import main as cli_main
from skipdiff.data import SentencePair, generate_synthetic, synthetic_vocab
from skipdiff.errors import ConfigError, ContractError, TruncationError
from skipdiff.exploiter import ExploiterConfig, init_exploiter_params, params_checksum
from skipdiff.optim import AdaptiveSGD, sgd_step
from skipdiff.rng import RngStream
from skipdiff.schedule import build_sqrt_schedule
from skipdiff.scheduler import (SchedulerConfig, add_grads, apply_update,
                                init_scheduler_params)
from skipdiff.training import (MetaRewardRecord, TrainConfig,
                               exploration_epoch, meta_train,
                               plug_and_play_generate, scheduler_round)

E_CFG = ExploiterConfig(layers=1, heads=2, model_dim=16, steps=16, max_len=14,
                        ffn_mult=2)
S_CFG = SchedulerConfig(embed_dim=16, hidden_dim=8, decoder_len=16)
VOCAB = synthetic_vocab(8)
BASE = build_sqrt_schedule(16)


def t_cfg(**kw):
    defaults = dict(exploration_epochs=2, total_batch=8, max_epochs=2,
                    scheduler_update_period=1, eval_every=0, seed=5,
                    gen_steps=4)
    defaults.update(kw)
    return TrainConfig(**defaults)


def pairs(n, seed=3):
    return generate_synthetic("copy", n, 8, (2, 4), RngStream(seed))


def fresh_models(seed=1):
    theta = init_exploiter_params(E_CFG, len(VOCAB), RngStream(seed))
    psi = init_scheduler_params(S_CFG, len(VOCAB), RngStream(seed + 1))
    return theta, psi


def test_meta_reward_record_arithmetic():
    rec = MetaRewardRecord.from_scores(0.3, 0.5)
    assert rec.r_meta == pytest.approx(0.2)
    with pytest.raises(ContractError):
        MetaRewardRecord.from_scores(-0.1, 0.5)


def test_exploration_zero_probe_lr_gives_zero_gradient():
    theta, psi = fresh_models()
    result = exploration_epoch(theta, psi, pairs(4), VOCAB, BASE,
                               RngStream(7), E_CFG, S_CFG,
                               t_cfg(probe_lr=0.0))
    assert result.record.r_meta == 0.0
    assert all(np.all(result.record.r_meta * g == 0)
               for g in result.score_grad.values())


def test_exploration_deterministic():
    theta, psi = fresh_models()
    a = exploration_epoch(theta, psi, pairs(4), VOCAB, BASE, RngStream(7),
                          E_CFG, S_CFG, t_cfg())
    b = exploration_epoch(theta, psi, pairs(4), VOCAB, BASE, RngStream(7),
                          E_CFG, S_CFG, t_cfg())
    assert a.record == b.record
    assert a.score_grad.keys() == b.score_grad.keys()
    for name in a.score_grad:
        assert np.array_equal(a.score_grad[name], b.score_grad[name])


def test_scheduler_round_freezes_exploiter():
    theta, psi = fresh_models()
    before = params_checksum(theta)
    batches = [pairs(4, seed=10), pairs(4, seed=11)]
    rngs = [RngStream(1), RngStream(2)]
    psi2, records = scheduler_round(theta, psi, batches, VOCAB, BASE, rngs,
                                    E_CFG, S_CFG, t_cfg())
    assert params_checksum(theta) == before
    assert len(records) == 2


def test_scheduler_round_sequential_equals_concurrent():
    theta, psi = fresh_models()
    batches = [pairs(4, seed=10), pairs(4, seed=11), pairs(4, seed=12),
               pairs(4, seed=13)]
    rngs = lambda: [RngStream(100 + i) for i in range(4)]
    cfg4 = t_cfg(exploration_epochs=4, total_batch=8)
    seq, _ = scheduler_round(theta, psi, batches, VOCAB, BASE, rngs(),
                             E_CFG, S_CFG, cfg4)
    conc, _ = scheduler_round(theta, psi, batches, VOCAB, BASE, rngs(),
                              E_CFG, S_CFG,
                              t_cfg(exploration_epochs=4, total_batch=8,
                                    threads=4))
    for name in seq:
        assert np.max(np.abs(seq[name] - conc[name])) < 1e-12


def test_scheduler_round_zero_rewards_keep_psi():
    theta, psi = fresh_models()
    batches = [pairs(4, seed=10), pairs(4, seed=11)]
    rngs = [RngStream(1), RngStream(2)]
    psi2, _ = scheduler_round(theta, psi, batches, VOCAB, BASE, rngs,
                              E_CFG, S_CFG, t_cfg(probe_lr=0.0))
    for name in psi:
        assert np.array_equal(psi2[name], psi[name])


def test_scheduler_round_ascends_by_lr_scheduler_times_the_baselined_score_sum():
    theta, psi = fresh_models()
    batches = [pairs(4, seed=10), pairs(4, seed=20)]
    cfg = t_cfg(probe_lr=0.05, lr_scheduler=0.375)
    results = [exploration_epoch(theta, psi, batch, VOCAB, BASE, RngStream(e + 1),
                                 E_CFG, S_CFG, cfg) for e, batch in enumerate(batches)]
    rewards = [result.record.r_meta for result in results]
    assert rewards[0] != rewards[1]
    baseline = np.mean(rewards)
    psi2, _ = scheduler_round(theta, psi, batches, VOCAB, BASE,
                              [RngStream(1), RngStream(2)], E_CFG, S_CFG, cfg)
    for name in psi:
        ascent = sum((r - baseline) * result.score_grad[name]
                     for r, result in zip(rewards, results))
        assert np.array_equal(psi2[name], psi[name] + 0.375 * ascent)
    assert any(not np.array_equal(psi2[name], psi[name]) for name in psi)


def test_gradient_consumers_accept_read_only_gradients():
    # backward may return read-only views, or one array for two leaves
    params = {"w": np.arange(4.0).reshape(2, 2), "b": np.array([1.0, -1.0])}
    grads = {"w": np.full((2, 2), 0.5), "b": np.array([2.0, -3.0])}
    for g in grads.values():
        g.setflags(write=False)
    opt = AdaptiveSGD(lr=0.1)
    for _ in range(2):      # the second step updates the moments it holds
        opt.step(params, grads)
    sgd_step(params, grads, 0.1)
    apply_update(params, grads, 0.1)
    add_grads(grads, grads, 2.0)


def test_meta_train_zero_epochs_writes_init_checkpoints(tmp_path):
    run = str(tmp_path / "run")
    result = meta_train(pairs(8), [], VOCAB, run, E_CFG, S_CFG,
                        t_cfg(max_epochs=0))
    assert os.path.exists(os.path.join(run, "checkpoints", "exploiter-0.bin"))
    assert os.path.exists(os.path.join(run, "checkpoints", "scheduler-0.bin"))
    assert os.path.exists(result.exploiter_ckpt)
    assert os.path.exists(os.path.join(run, "log.jsonl"))


def test_meta_train_logs_one_record_per_exploration(tmp_path):
    result = meta_train(pairs(8), [], VOCAB, str(tmp_path / "run"),
                        E_CFG, S_CFG,
                        t_cfg(max_epochs=2, scheduler_update_period=1,
                              exploration_epochs=2))
    explorations = [e for e in result.events if e["event"] == "exploration"]
    rounds = [e for e in result.events if e["event"] == "scheduler_update"]
    assert len(rounds) == 2
    assert len(explorations) == 2 * 2
    for event in explorations:
        assert event["r_meta"] == pytest.approx(event["r_after"] - event["r_before"])


def test_meta_train_closes_log_when_a_step_raises(tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    def failing_step(self, *args, **kwargs):
        raise RuntimeError("step failed")

    monkeypatch.setattr(training, "open", recording_open, raising=False)
    monkeypatch.setattr(AdaptiveSGD, "step", failing_step)
    run = tmp_path / "run"
    with pytest.raises(RuntimeError, match="step failed"):
        meta_train(pairs(8), [], VOCAB, str(run), E_CFG, S_CFG, t_cfg())
    lines = (run / "log.jsonl").read_text().splitlines()
    assert [json.loads(line)["event"] for line in lines] == [
        "init", "exploration", "exploration", "scheduler_update"]
    assert len(opened) == 1 and opened[0].closed


def test_meta_train_stops_at_first_non_finite_loss(tmp_path, monkeypatch, capsys):
    losses = []
    real_loss = training.diffusion_loss

    def nan_on_third_call(*args, **kwargs):
        loss, grads = real_loss(*args, **kwargs)
        losses.append(float("nan") if len(losses) == 2 else loss)
        return losses[-1], grads

    steps = []
    real_step = AdaptiveSGD.step

    def counting_step(self, params, grads):
        steps.append(grads)
        return real_step(self, params, grads)

    monkeypatch.setattr(training, "diffusion_loss", nan_on_third_call)
    monkeypatch.setattr(AdaptiveSGD, "step", counting_step)
    run = tmp_path / "run"
    code = cli_main(["train", "--task", "copy", "--out", str(run), "--seed", "1",
                     "--epochs", "3", "--T", "8", "--fixed-sqrt",
                     "--set", "model_dim=16", "--set", "heads=2", "--set", "layers=1",
                     "--set", "max_len=10", "--set", "vocab_size=6",
                     "--set", "len_min=1", "--set", "len_max=3",
                     "--set", "train_size=16", "--set", "heldout_size=4",
                     "--set", "total_batch=8", "--set", "eval_every=0",
                     "--set", "ffn_mult=2", "--set", "sched_hidden=8"])
    assert code == 2
    assert capsys.readouterr().err == "error: non-finite loss nan at epoch 1, step 3\n"
    assert len(losses) == 3 and len(steps) == 2
    events = [json.loads(line) for line in (run / "log.jsonl").read_text().splitlines()]
    assert [e["event"] for e in events] == ["init", "epoch", "error"]
    assert events[-1]["epoch"] == 1 and events[-1]["step"] == 3
    assert sorted(os.listdir(run / "checkpoints")) == ["exploiter-0.bin",
                                                       "scheduler-0.bin"]


def _nan_on_first_loss(monkeypatch):
    """Make training.diffusion_loss return a NaN loss and NaN gradients on
    its first call; returns the list of losses returned and of probe steps."""
    losses, probe_steps = [], []
    real_loss, real_sgd_step = training.diffusion_loss, training.sgd_step

    def nan_on_first_call(*args, **kwargs):
        loss, grads = real_loss(*args, **kwargs)
        if not losses:
            loss, grads = float("nan"), {k: np.full_like(g, np.nan)
                                         for k, g in grads.items()}
        losses.append(loss)
        return loss, grads

    def counting_sgd_step(*args):
        probe_steps.append(args)
        return real_sgd_step(*args)

    monkeypatch.setattr(training, "diffusion_loss", nan_on_first_call)
    monkeypatch.setattr(training, "sgd_step", counting_sgd_step)
    return losses, probe_steps


def test_meta_train_stops_at_non_finite_probe_loss(tmp_path, monkeypatch):
    losses, probe_steps = _nan_on_first_loss(monkeypatch)
    run = tmp_path / "run"
    message = "non-finite probe loss nan at epoch 0, round 0, probe 0"
    with pytest.raises(ContractError, match=f"^{message}$"):
        meta_train(pairs(8), [], VOCAB, str(run), E_CFG, S_CFG, t_cfg())
    assert len(losses) == 1 and not probe_steps
    events = [json.loads(line) for line in (run / "log.jsonl").read_text().splitlines()]
    assert events == [events[0], {"event": "error", "epoch": 0, "round": 0, "e": 0,
                                  "message": message}]
    assert events[0]["event"] == "init"


def test_cli_exits_2_on_non_finite_probe_loss(tmp_path, monkeypatch, capsys):
    losses, probe_steps = _nan_on_first_loss(monkeypatch)
    run = tmp_path / "run"
    code = cli_main(["train", "--task", "copy", "--out", str(run), "--seed", "1",
                     "--epochs", "2", "--T", "8",
                     "--set", "model_dim=16", "--set", "heads=2", "--set", "layers=1",
                     "--set", "max_len=10", "--set", "vocab_size=6",
                     "--set", "len_min=1", "--set", "len_max=3",
                     "--set", "train_size=16", "--set", "heldout_size=4",
                     "--set", "total_batch=8", "--set", "eval_every=0",
                     "--set", "ffn_mult=2", "--set", "sched_hidden=8"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: non-finite probe loss nan at epoch 0, round 0, probe 0\n")
    assert len(losses) == 1 and not probe_steps
    assert sorted(os.listdir(run / "checkpoints")) == ["exploiter-0.bin",
                                                       "scheduler-0.bin"]


def test_meta_train_empty_dataset_rejected(tmp_path):
    with pytest.raises(ConfigError):
        meta_train([], [], VOCAB, str(tmp_path / "run"), E_CFG, S_CFG, t_cfg())


def test_meta_train_with_a_pair_too_long_raises_before_writing(tmp_path):
    # under max_len 14 a pair of 6 and 7 tokens needs 15 positions
    run = tmp_path / "run"
    with pytest.raises(TruncationError) as err:
        meta_train([*pairs(2), SentencePair(["w01"] * 6, ["w02"] * 7)], [], VOCAB,
                   str(run), E_CFG, S_CFG, t_cfg())
    assert str(err.value) == "train_pairs: pair 3 needs 15 positions but max_len is 14"
    assert not run.exists()


def test_meta_train_step_cap(tmp_path):
    result = meta_train(pairs(16), [], VOCAB, str(tmp_path / "run"),
                        E_CFG, S_CFG,
                        t_cfg(max_epochs=100, max_steps=3,
                              scheduler_update_period=0))
    steps = [e["steps_done"] for e in result.events if e["event"] == "epoch"]
    assert steps[-1] == 3


def test_all_true_policy_matches_fixed_sqrt_exploiter_path(tmp_path):
    # With a saturated always-advance policy, the denoiser path is
    # bit-identical to the fixed-schedule arm: rng forks are keyed by
    # purpose, so policy sampling does not perturb the diffusion draws.
    saturated = SchedulerConfig(embed_dim=16, hidden_dim=8, decoder_len=16,
                                head_bias_init=1000.0)
    cfg = t_cfg(max_epochs=2, scheduler_update_period=0, eval_every=0)
    res_policy = meta_train(pairs(8), [], VOCAB, str(tmp_path / "a"),
                            E_CFG, saturated, cfg)
    res_fixed = meta_train(pairs(8), [], VOCAB, str(tmp_path / "b"),
                           E_CFG, saturated,
                           t_cfg(max_epochs=2, scheduler_update_period=0,
                                 eval_every=0, fixed_sqrt=True))
    loss_a = [e["loss"] for e in res_policy.events if e["event"] == "epoch"]
    loss_b = [e["loss"] for e in res_fixed.events if e["event"] == "epoch"]
    assert loss_a == loss_b
    for name in res_policy.exploiter:
        assert np.array_equal(res_policy.exploiter[name], res_fixed.exploiter[name])


def test_plug_and_play_own_scheduler_matches_generate(tmp_path):
    result = meta_train(pairs(8), [], VOCAB, str(tmp_path / "run"),
                        E_CFG, S_CFG, t_cfg(max_epochs=1))
    srcs = [list(p.src) for p in pairs(3, seed=50)]
    [(a, _)] = plug_and_play_generate(result.scheduler_ckpt, result.exploiter_ckpt,
                                      srcs, [(False, RngStream(9))], mbr_size=2,
                                      gen_steps=4)
    [(b, _)] = plug_and_play_generate(result.scheduler_ckpt, result.exploiter_ckpt,
                                      srcs, [(False, RngStream(9))], mbr_size=2,
                                      gen_steps=4)
    assert a == b


def test_plug_and_play_all_true_equals_fixed_sqrt(tmp_path):
    result = meta_train(pairs(8), [], VOCAB, str(tmp_path / "run"),
                        E_CFG,
                        SchedulerConfig(embed_dim=16, hidden_dim=8,
                                        decoder_len=16, head_bias_init=1000.0),
                        t_cfg(max_epochs=0))
    srcs = [list(p.src) for p in pairs(3, seed=51)]
    [(via_policy, _)] = plug_and_play_generate(result.scheduler_ckpt,
                                               result.exploiter_ckpt, srcs,
                                               [(False, RngStream(4))], gen_steps=4)
    [(via_fixed, _)] = plug_and_play_generate(result.scheduler_ckpt,
                                              result.exploiter_ckpt, srcs,
                                              [(True, RngStream(4))], gen_steps=4)
    assert via_policy == via_fixed


def test_plug_and_play_t_mismatch_rejected(tmp_path):
    result16 = meta_train(pairs(8), [], VOCAB, str(tmp_path / "a"),
                          E_CFG, S_CFG, t_cfg(max_epochs=0))
    other = meta_train(pairs(8), [], VOCAB, str(tmp_path / "b"),
                       ExploiterConfig(layers=1, heads=2, model_dim=16,
                                       steps=8, max_len=14, ffn_mult=2),
                       SchedulerConfig(embed_dim=16, hidden_dim=8,
                                       decoder_len=8),
                       t_cfg(max_epochs=0))
    with pytest.raises(ConfigError):
        plug_and_play_generate(result16.scheduler_ckpt, other.exploiter_ckpt,
                               [["w00"]], [(False, RngStream(1))])


def test_plug_and_play_cross_task_runs(tmp_path):
    # scheduler trained on reverse, denoiser on copy: completes, no mutation
    copy_run = meta_train(pairs(8), [], VOCAB, str(tmp_path / "copy"),
                          E_CFG, S_CFG, t_cfg(max_epochs=1))
    rev_pairs = generate_synthetic("reverse", 8, 8, (2, 4), RngStream(9))
    rev_run = meta_train(rev_pairs, [], VOCAB, str(tmp_path / "rev"),
                         E_CFG, S_CFG, t_cfg(max_epochs=1))
    srcs = [list(p.src) for p in pairs(4, seed=52)]
    [(picks, cands)] = plug_and_play_generate(rev_run.scheduler_ckpt,
                                              copy_run.exploiter_ckpt, srcs,
                                              [(False, RngStream(2))], mbr_size=2,
                                              gen_steps=4)
    assert len(picks) == 4
    assert all(len(c) == 2 for c in cands)
    ck = load_checkpoint(rev_run.scheduler_ckpt)
    assert ck.kind == "scheduler"


COPY_E_CFG = ExploiterConfig(layers=2, heads=4, model_dim=32, steps=32,
                             max_len=12, ffn_mult=2)
COPY_S_CFG = SchedulerConfig(embed_dim=32, hidden_dim=16, decoder_len=32)


@pytest.fixture(scope="module")
def trained_copy_run(tmp_path_factory):
    train = generate_synthetic("copy", 224, 8, (2, 4), RngStream(60))
    heldout = generate_synthetic("copy", 32, 8, (2, 4), RngStream(61))
    cfg = t_cfg(max_epochs=250, scheduler_update_period=50, eval_every=250,
                lr_exploiter=2e-3, total_batch=32, exploration_epochs=2,
                seed=8, gen_steps=16)
    run_dir = str(tmp_path_factory.mktemp("copyrun"))
    result = meta_train(train, heldout, VOCAB, run_dir, COPY_E_CFG,
                        COPY_S_CFG, cfg)
    return result, heldout


def test_toy_training_improves_over_init(trained_copy_run):
    result, _ = trained_copy_run
    init = [e for e in result.events if e["event"] == "init_eval"][0]
    final = [e for e in result.events if e["event"] == "final_eval"][0]
    assert final["BLEU"] > init["BLEU"]


def test_trained_copy_model_regenerates_sources(trained_copy_run):
    from skipdiff.exploiter import generate_batch
    from skipdiff.schedule import fixed_schedule

    result, heldout = trained_copy_run
    sched = fixed_schedule(build_sqrt_schedule(32))
    srcs = [list(p.src) for p in heldout]
    outs = generate_batch(result.exploiter, srcs, sched, RngStream(42),
                          COPY_E_CFG, VOCAB, num_steps=16)
    rate = np.mean([out == src for out, src in zip(outs, srcs)])
    assert rate >= 0.8


def test_copy_loss_halves_within_200_steps(tmp_path):
    vocab16 = synthetic_vocab(16)
    train = generate_synthetic("copy", 224, 16, (3, 5), RngStream(70))
    cfg = t_cfg(max_epochs=40, max_steps=200, scheduler_update_period=0,
                eval_every=0, lr_exploiter=2e-3, total_batch=32, seed=4,
                fixed_sqrt=True)
    result = meta_train(train, [], vocab16, str(tmp_path / "run"),
                        COPY_E_CFG, COPY_S_CFG, cfg)
    losses = [e["loss"] for e in result.events if e["event"] == "epoch"]
    assert losses[-1] <= 0.5 * losses[0]


def test_early_stop_after_patience_evaluations_without_gain(tmp_path, monkeypatch):
    # init_eval, then epochs 0..: a gain at epochs 0 and 2, none at 1, 3 and 4
    bleus = iter([0.2, 0.3, 0.3, 0.5, 0.5, 0.4, 0.9, 0.9, 0.9])
    monkeypatch.setattr(training, "evaluate_corpus",
                        lambda picks, refs: {"BLEU": next(bleus)})
    result = meta_train(pairs(8), pairs(2, seed=4), VOCAB, str(tmp_path / "run"),
                        E_CFG, S_CFG, t_cfg(max_epochs=10, eval_every=1,
                                            early_stop_patience=2, fixed_sqrt=True))
    events = [(e["event"], e["epoch"]) for e in result.events]
    assert [e for e in events if e[0] == "eval"] == [("eval", k) for k in range(5)]
    assert [e for e in events if e[0] == "epoch"] == [("epoch", k) for k in range(5)]
    assert events[-2:] == [("early_stop", 4), ("final_eval", 4)]
    assert next(bleus) == 0.9   # init, five evaluations and the final one


def test_checkpoint_every_writes_a_pair_every_k_epochs(tmp_path):
    run = tmp_path / "run"
    meta_train(pairs(8), [], VOCAB, str(run), E_CFG, S_CFG,
               t_cfg(max_epochs=5, checkpoint_every=2))
    assert sorted(os.listdir(run / "checkpoints")) == sorted(
        f"{kind}-{tag}.bin" for kind in ("exploiter", "scheduler")
        for tag in ("0", "2", "4", "final"))
    # the pair after epoch 2 holds the weights that a 2-epoch run ends with
    short = meta_train(pairs(8), [], VOCAB, str(tmp_path / "short"), E_CFG, S_CFG,
                       t_cfg(max_epochs=2))
    for kind, final in (("exploiter", short.exploiter_ckpt),
                        ("scheduler", short.scheduler_ckpt)):
        at_2 = load_checkpoint(run / "checkpoints" / f"{kind}-2.bin").params
        assert params_checksum(at_2) == params_checksum(load_checkpoint(final).params)


def test_one_training_rollout_per_epoch_of_the_chunks_it_trains(tmp_path, monkeypatch):
    blocks = []
    real = training.policy.sample_instructions_batch

    def spy(params, srcs, vocab, cfg, rng, mode="stochastic", record=None):
        if record is False:
            blocks.append([rows for rows, _ in rng])
        return real(params, srcs, vocab, cfg, rng, mode, record)

    monkeypatch.setattr(training.policy, "sample_instructions_batch", spy)
    # 20 pairs in batches of 8 are 3 steps an epoch; 7 steps end in epoch 2
    result = meta_train(pairs(20), [], VOCAB, str(tmp_path / "run"), E_CFG, S_CFG,
                        t_cfg(max_epochs=5, max_steps=7, scheduler_update_period=2))
    assert blocks == [[8, 8, 4], [8, 8, 4], [8]]
    assert result.events[-1] == {"event": "epoch", "epoch": 2,
                                 "loss": result.events[-1]["loss"], "steps_done": 7}
