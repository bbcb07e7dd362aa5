"""Acceptance suite: every release criterion, one test each, with a
printed PASS/FAIL line per criterion at its stated tolerance."""

import json
import time

import numpy as np
import pytest

from bandit import bandit_run
from conftest import (EVAL_MBR, GEN_STEPS, SORT_E_CFG, SORT_S_CFG, SORT_SEEDS)
from oracles import forward_diffuse_stepwise
from tabledata import QQP_BLOCK, QQP_MEAN_RANK

from skipdiff.checkpoint import save_checkpoint
from skipdiff.cli import main as cli_main
from skipdiff.data import SentencePair, encode_batch, generate_synthetic, synthetic_vocab
from skipdiff.exploiter import (ExploiterConfig, embed_and_sample_z0,
                                forward_diffuse, generate_batch,
                                init_exploiter_params, mbr_select,
                                params_checksum)
from skipdiff.gradcheck import finite_diff_check
from skipdiff.metrics import (bleu, corpus_bleu, dist_1, mean_rank, rouge_l,
                              self_bleu)
from skipdiff.rng import RngStream
from skipdiff.schedule import (BaseSchedule, MetaInstructions, apply_skipping,
                               build_sqrt_schedule, fixed_schedule)
from skipdiff.scheduler import SchedulerConfig, init_scheduler_params
from skipdiff.training import (TrainConfig, generate_with_mbr, meta_train,
                               plug_and_play_generate, scheduler_round)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# 1 ------------------------------------------------------------------------

def test_skipping_exactness():
    betas = np.array([1.0, 2.0, 3.0])
    alpha_bar = np.array([1.0, 0.9, 0.8, 0.7])  # synthetic levels; beta view under test
    base3 = BaseSchedule(steps=3, alpha_bar=alpha_bar,
                         beta=np.concatenate([[np.nan], betas]))
    apply_skipping(MetaInstructions([True, False, True]), base3)  # warm up
    t0 = time.perf_counter()
    worked = apply_skipping(MetaInstructions([True, False, True]), base3)
    elapsed = time.perf_counter() - t0
    ok_worked = worked.beta_pointer[1:].tolist() == [1.0, 1.0, 2.0]

    base = build_sqrt_schedule(16)
    all_true = apply_skipping(MetaInstructions.all_true(16), base)
    ok_true = (np.array_equal(all_true.beta_pointer[1:], base.beta[1:])
               and np.array_equal(all_true.beta_eff[1:], base.beta[1:]))
    all_false = apply_skipping(MetaInstructions(np.zeros(16, bool)), base)
    ok_false = (np.all(all_false.beta_pointer[1:] == base.beta[1])
                and all_false.beta_eff[1] == base.beta[1]
                and np.all(all_false.beta_eff[2:] == 0.0))
    ok = ok_worked and ok_true and ok_false and elapsed < 1e-3
    report("skipping exactness", ok,
           f"worked example {worked.beta_pointer[1:].tolist()}, "
           f"all-true identity {ok_true}, all-false {ok_false}, "
           f"{elapsed * 1e6:.0f} us")
    assert ok


# 2 ------------------------------------------------------------------------

def test_mean_rank_reproduction():
    t0 = time.perf_counter()
    ranks = mean_rank(QQP_BLOCK)
    elapsed = time.perf_counter() - t0
    worst = max(abs(ranks[m] - QQP_MEAN_RANK[m]) for m in QQP_MEAN_RANK)
    ok = worst <= 0.005 and elapsed < 1.0
    report("mean-rank reproduction", ok,
           f"max deviation {worst:.4f} (tol 0.005), {elapsed * 1e3:.1f} ms")
    assert ok
    for method, expected in QQP_MEAN_RANK.items():
        assert ranks[method] == pytest.approx(expected, abs=0.005)


# 3 ------------------------------------------------------------------------

def test_gradient_correctness_full_loss():
    cfg = ExploiterConfig(layers=2, heads=2, model_dim=8, steps=8, max_len=12,
                          ffn_mult=2, lambda_reg=1.0, rounding_loss=True)
    vocab = synthetic_vocab(8)  # 8 + 4 reserved = 12 rows
    pairs = [SentencePair(["w00", "w01"], ["w02", "w03", "w04"]),
             SentencePair(["w05"], ["w06", "w07"])]
    batch = encode_batch(pairs, vocab, cfg.max_len)
    base = build_sqrt_schedule(cfg.steps)
    schedule = apply_skipping(
        MetaInstructions([1, 0, 1, 1, 0, 1, 1, 1]), base)
    params = init_exploiter_params(cfg, len(vocab), RngStream(17))
    assert params["emb"].shape[0] == 12

    from skipdiff.exploiter import diffusion_loss_graph

    def f(leaves):
        # the production loss graph, evaluated on oracle-provided leaves
        # with randomness re-seeded per call
        return diffusion_loss_graph(leaves, batch, schedule, RngStream(4242), cfg)

    t0 = time.perf_counter()
    err = finite_diff_check(f, params, eps=1e-5)
    elapsed = time.perf_counter() - t0
    ok = err < 1e-4 and elapsed < 60.0
    report("gradient correctness", ok,
           f"max relative error {err:.2e} (tol 1e-4), {elapsed:.1f} s")
    assert ok


# 4 ------------------------------------------------------------------------

def test_diffusion_marginal_consistency():
    cfg = ExploiterConfig(layers=1, heads=2, model_dim=2, steps=12, max_len=6,
                          ffn_mult=2, rounding_loss=False)
    vocab = synthetic_vocab(4)
    n = 10_000
    pairs = [SentencePair(["w00"], ["w01", "w02"])] * n
    batch = encode_batch(pairs, vocab, cfg.max_len)
    params = init_exploiter_params(cfg, len(vocab), RngStream(3))
    base = build_sqrt_schedule(cfg.steps)
    schedule = apply_skipping(
        MetaInstructions([1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 1]), base)
    z0 = embed_and_sample_z0(batch, params, schedule, RngStream(5), cfg)
    t0 = time.perf_counter()
    worst_sigma = 0.0
    for idx, t in enumerate((1, 3, 6, 9, 12)):
        closed = forward_diffuse(z0, t, schedule, RngStream(100 + idx), cfg)
        stepped = forward_diffuse_stepwise(z0, t, schedule,
                                           RngStream(200 + idx), cfg)
        mask = batch.canvas_mask
        a = closed.z.data[mask].reshape(n, -1)
        b = stepped.z.data[mask].reshape(n, -1)
        se_mean = np.sqrt(a.var(0) / n + b.var(0) / n)
        sig_mean = np.abs(a.mean(0) - b.mean(0)) / se_mean
        # Var(s^2) ~ 2 sigma^4 / (n-1) per side
        se_var = np.sqrt((2.0 / (n - 1)) * (a.var(0) ** 2 + b.var(0) ** 2))
        sig_var = np.abs(a.var(0) - b.var(0)) / se_var
        worst_sigma = max(worst_sigma, float(sig_mean.max()), float(sig_var.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_sigma < 3.0 and elapsed < 60.0
    report("diffusion marginal consistency", ok,
           f"worst deviation {worst_sigma:.2f} standard errors (tol 3), "
           f"{elapsed:.1f} s")
    assert ok


# 5 ------------------------------------------------------------------------

def test_partial_noise_invariant(tmp_path):
    # The latent constructors assert anchoring inline and raise on drift;
    # a training epoch plus a full-depth generation exercises every path,
    # and explicit spot checks confirm the equality they enforce.
    cfg = ExploiterConfig(layers=1, heads=2, model_dim=16, steps=16,
                          max_len=12, ffn_mult=2)
    s_cfg = SchedulerConfig(embed_dim=16, hidden_dim=8, decoder_len=16)
    vocab = synthetic_vocab(8)
    train = generate_synthetic("copy", 32, 8, (2, 4), RngStream(1))
    t_cfg = TrainConfig(max_epochs=1, total_batch=8, exploration_epochs=2,
                        scheduler_update_period=1, eval_every=0, seed=2,
                        gen_steps=16)
    result = meta_train(train, [], vocab, str(tmp_path / "run"), cfg, s_cfg,
                        t_cfg)
    base = build_sqrt_schedule(cfg.steps)
    schedule = fixed_schedule(base)
    batch = encode_batch(train[:4], vocab, cfg.max_len)
    rng = RngStream(9)
    z0 = embed_and_sample_z0(batch, result.exploiter, schedule, rng, cfg)
    checks = [np.array_equal(z0.z.data[batch.condition_mask],
                             z0.anchor.data[batch.condition_mask])]
    for t in (1, 8, 16):
        zt = forward_diffuse(z0, t, schedule, rng, cfg)
        checks.append(np.array_equal(zt.z.data[batch.condition_mask],
                                     zt.anchor.data[batch.condition_mask]))
    outs = generate_batch(result.exploiter, [list(p.src) for p in train[:4]],
                          schedule, rng, cfg, vocab)  # full-depth generation
    ok = all(checks) and len(outs) == 4
    report("partial-noise invariant", ok,
           f"condition positions bit-equal at t=0,1,8,16 and across a "
           f"training epoch + full generation (inline asserts active)")
    assert ok


# 6 ------------------------------------------------------------------------

def test_reinforce_sign_check():
    t0 = time.perf_counter()
    rises, falls = [], []
    for seed in range(5):
        f_up, l_up = bandit_run(lambda bits: float(bits.mean()), seed)
        rises.append(l_up - f_up)
        f_dn, l_dn = bandit_run(lambda bits: float(1.0 - bits.mean()), seed)
        falls.append(l_dn - f_dn)
    elapsed = time.perf_counter() - t0
    ok = all(r >= 0.2 for r in rises) and all(f <= -0.2 for f in falls) \
        and elapsed < 30.0
    report("REINFORCE sign check", ok,
           f"rise {min(rises):+.3f}..{max(rises):+.3f}, "
           f"fall {max(falls):+.3f}..{min(falls):+.3f} (tol +/-0.2, 5 seeds), "
           f"{elapsed:.1f} s")
    assert ok


# 7 ------------------------------------------------------------------------

def test_frozen_exploiter_and_concurrency():
    cfg = ExploiterConfig(layers=1, heads=2, model_dim=16, steps=16,
                          max_len=14, ffn_mult=2)
    s_cfg = SchedulerConfig(embed_dim=16, hidden_dim=8, decoder_len=16)
    vocab = synthetic_vocab(8)
    theta = init_exploiter_params(cfg, len(vocab), RngStream(1))
    psi = init_scheduler_params(s_cfg, len(vocab), RngStream(2))
    base = build_sqrt_schedule(16)
    batches = [generate_synthetic("copy", 4, 8, (2, 4), RngStream(10 + e))
               for e in range(4)]
    make_rngs = lambda: [RngStream(100 + e) for e in range(4)]
    t0 = time.perf_counter()
    before = params_checksum(theta)
    seq_cfg = TrainConfig(exploration_epochs=4, total_batch=8, max_epochs=1,
                          gen_steps=4, seed=0)
    psi_seq, _ = scheduler_round(theta, psi, batches, vocab, base, make_rngs(),
                                 cfg, s_cfg, seq_cfg)
    conc_cfg = TrainConfig(exploration_epochs=4, total_batch=8, max_epochs=1,
                           gen_steps=4, seed=0, threads=4)
    psi_conc, _ = scheduler_round(theta, psi, batches, vocab, base, make_rngs(),
                                  cfg, s_cfg, conc_cfg)
    after = params_checksum(theta)
    elapsed = time.perf_counter() - t0
    worst = max(float(np.max(np.abs(psi_seq[n] - psi_conc[n]))) for n in psi_seq)
    ok = before == after and worst < 1e-12 and elapsed < 30.0
    report("frozen exploiter + concurrency", ok,
           f"checksum unchanged {before == after}, sequential-vs-concurrent "
           f"max delta {worst:.2e} (tol 1e-12), {elapsed:.1f} s")
    assert ok


# 8 ------------------------------------------------------------------------

def test_end_to_end_directional_improvement(sort_study):
    base_bleu = [sort_study.baseline[s].bleu for s in SORT_SEEDS]
    meta_bleu = [sort_study.meta[s].bleu for s in SORT_SEEDS]
    base_sb = [sort_study.baseline[s].self_bleu for s in SORT_SEEDS]
    meta_sb = [sort_study.meta[s].self_bleu for s in SORT_SEEDS]
    med_base = float(np.median(base_bleu))
    med_meta = float(np.median(meta_bleu))
    diversity_wins = sum(1 for m, b in zip(meta_sb, base_sb) if m <= b)
    ok = med_meta >= med_base and diversity_wins >= 3
    report("end-to-end directional improvement", ok,
           f"median BLEU meta {med_meta:.4f} vs baseline {med_base:.4f}; "
           f"Self-BLEU wins {diversity_wins}/5 (need >=3); per-seed meta "
           f"{[round(b, 3) for b in meta_bleu]} baseline "
           f"{[round(b, 3) for b in base_bleu]}")
    assert ok


# 9 ------------------------------------------------------------------------

def test_mbr_monotone_trend(sort_study):
    arm = sort_study.meta[SORT_SEEDS[0]]
    t0 = time.perf_counter()
    good = 0
    rows = []
    for gen_seed in range(5):
        _, cands = generate_with_mbr(arm.exploiter, sort_study.vocab,
                                     SORT_E_CFG, sort_study.srcs,
                                     arm.schedules, RngStream(5000 + gen_seed),
                                     mbr_size=5, gen_steps=GEN_STEPS)
        scores = []
        for size in (1, 3, 5):
            picks = [mbr_select(c[:size]) for c in cands]
            scores.append(corpus_bleu(picks, sort_study.refs))
        rows.append([round(s, 4) for s in scores])
        if scores[0] <= scores[1] + 1e-12 and scores[1] <= scores[2] + 1e-12:
            good += 1
    elapsed = time.perf_counter() - t0
    ok = good >= 4 and elapsed < 600.0
    report("MBR monotone trend", ok,
           f"nondecreasing across |S|=1,3,5 in {good}/5 generation seeds "
           f"(need >=4): {rows}, {elapsed:.0f} s")
    assert ok


# 10 -----------------------------------------------------------------------

def test_reduction_equivalence_cli(tmp_path):
    cfg = ExploiterConfig(layers=1, heads=2, model_dim=16, steps=8,
                          max_len=10, ffn_mult=2)
    s_cfg = SchedulerConfig(embed_dim=16, hidden_dim=8, decoder_len=8,
                            head_bias_init=1000.0)  # greedy = always advance
    vocab = synthetic_vocab(6)
    theta = init_exploiter_params(cfg, len(vocab), RngStream(1))
    psi = init_scheduler_params(s_cfg, len(vocab), RngStream(2))
    expl = str(tmp_path / "exploiter.bin")
    sched = str(tmp_path / "scheduler.bin")
    save_checkpoint(expl, "exploiter", cfg.to_dict(), theta, vocab.tokens, "toy")
    save_checkpoint(sched, "scheduler", s_cfg.to_dict(), psi, vocab.tokens, "toy")
    src = tmp_path / "src.jsonl"
    src.write_text('{"src": "w00 w01"}\n{"src": "w02"}\n{"src": "w03 w04"}\n')
    out_a = str(tmp_path / "via-policy.jsonl")
    out_b = str(tmp_path / "via-fixed.jsonl")
    t0 = time.perf_counter()
    assert cli_main(["generate", "--exploiter", expl, "--scheduler", sched,
                     "--src", str(src), "--out", out_a, "--mbr", "3",
                     "--seed", "9"]) == 0
    assert cli_main(["generate", "--exploiter", expl, "--fixed-sqrt",
                     "--src", str(src), "--out", out_b, "--mbr", "3",
                     "--seed", "9"]) == 0
    elapsed = time.perf_counter() - t0
    same = open(out_a, "rb").read() == open(out_b, "rb").read()
    ok = same and elapsed < 60.0
    report("reduction equivalence", ok,
           f"all-True scheduler output byte-identical to --fixed-sqrt: {same}, "
           f"{elapsed:.1f} s")
    assert ok


# 11 -----------------------------------------------------------------------

def test_metric_unit_oracles():
    t0 = time.perf_counter()
    cases = {
        "bleu 0.658": (bleu(list("abcd"), [list("abce")]), 0.658),
        "rouge 0.857": (rouge_l(["a", "c", "d"], ["a", "b", "c", "d"]), 0.857),
        "dist1 0.5": (dist_1(["a", "a", "b", "b"]), 0.5),
        "selfbleu 0.667": (self_bleu([list("abcd"), list("abcd"), list("wxyz")]),
                           2 / 3),
    }
    elapsed = time.perf_counter() - t0
    worst = max(abs(got - want) for got, want in cases.values())
    ok = worst <= 1e-3 and elapsed < 1.0
    report("metric unit oracles", ok,
           f"max deviation {worst:.2e} (tol 1e-3), {elapsed * 1e3:.1f} ms")
    assert ok
    for name, (got, want) in cases.items():
        assert got == pytest.approx(want, abs=1e-3), name


# 12 -----------------------------------------------------------------------

def test_plug_and_play_protocol(sort_study, tmp_path):
    # scheduler trained on a different task steers the sort-task denoiser
    vocab = sort_study.vocab
    s_cfg = SORT_S_CFG
    rev = generate_synthetic("reverse", 64, 16, (8, 8), RngStream(400))
    t_cfg = TrainConfig(max_epochs=3, total_batch=16, exploration_epochs=4,
                        scheduler_update_period=1, eval_every=0, seed=21,
                        gen_steps=8, lr_exploiter=2e-3)
    rev_run = meta_train(rev, [], vocab, str(tmp_path / "rev"), SORT_E_CFG,
                         s_cfg, t_cfg, dataset_tag="synthetic-reverse")
    expl_ckpt = sort_study.meta[SORT_SEEDS[0]].exploiter_ckpt
    srcs = sort_study.srcs[:32]
    refs = sort_study.refs[:32]
    cross, _ = plug_and_play_generate(rev_run.scheduler_ckpt, expl_ckpt, srcs,
                                      RngStream(3), mbr_size=EVAL_MBR,
                                      gen_steps=GEN_STEPS)
    own, _ = plug_and_play_generate(None, expl_ckpt, srcs, RngStream(3),
                                    mbr_size=EVAL_MBR, gen_steps=GEN_STEPS,
                                    fixed_sqrt=True)
    rows = {
        "cross-task scheduler": corpus_bleu(cross, refs),
        "own-noise baseline": corpus_bleu(own, refs),
    }
    # no-mutation is checksum-asserted inside plug_and_play_generate;
    # the directional comparison is reported, not required
    ok = len(cross) == len(srcs)
    report("plug-and-play protocol", ok,
           f"completed with frozen weights; report {json.dumps({k: round(v, 4) for k, v in rows.items()})}")
    assert ok
