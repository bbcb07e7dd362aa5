"""Shared fixtures for the acceptance suite.

The sort-task study (five paired seeds, two arms, 2000 denoiser steps
each) is the expensive piece; it trains once per session and several
criteria read from it. Its ten arms are independent and deterministic,
so they train in parallel worker processes, one per CPU core up to two.
"""

import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from skipdiff.data import generate_synthetic, synthetic_vocab
from skipdiff.exploiter import ExploiterConfig
from skipdiff.metrics import corpus_bleu, self_bleu
from skipdiff.rng import RngStream
from skipdiff.schedule import build_sqrt_schedule, fixed_schedule
from skipdiff.scheduler import SchedulerConfig, greedy_schedules
from skipdiff.training import TrainConfig, generate_with_mbr, meta_train

SORT_SEEDS = (11, 12, 13, 14, 15)
SORT_E_CFG = ExploiterConfig(layers=2, heads=4, model_dim=32, steps=64,
                             max_len=20, ffn_mult=2)
SORT_S_CFG = SchedulerConfig(embed_dim=32, hidden_dim=16, decoder_len=64,
                             head_bias_init=3.0)
GEN_STEPS = 16
EVAL_MBR = 5
EVAL_REPLICAS = 3


@dataclass
class ArmResult:
    seed: int
    fixed_sqrt: bool
    run_dir: str
    exploiter: dict
    scheduler: dict
    schedules: object           # greedy (or fixed) schedules for the held-out set
    bleu: float                 # replica-averaged corpus BLEU, MBR |S|=5
    self_bleu: float
    exploiter_ckpt: str
    scheduler_ckpt: str


@dataclass
class SortStudy:
    vocab: object
    heldout: list
    srcs: list
    refs: list
    base: object
    baseline: dict              # seed -> ArmResult
    meta: dict                  # seed -> ArmResult


def _train_arm(seed: int, fixed: bool, run_dir: str, train, heldout, vocab,
               srcs, refs, base) -> ArmResult:
    t_cfg = TrainConfig(max_epochs=10_000, max_steps=2000, total_batch=32,
                        fixed_sqrt=fixed, eval_every=0, seed=seed,
                        lr_exploiter=2e-3, scheduler_update_period=10,
                        exploration_epochs=4, gen_steps=GEN_STEPS)
    result = meta_train(train, heldout, vocab, run_dir, SORT_E_CFG,
                        SORT_S_CFG, t_cfg, dataset_tag="synthetic-sort")
    if fixed:
        schedules = fixed_schedule(base)
    else:
        schedules = greedy_schedules(result.scheduler, srcs, vocab, SORT_S_CFG)
    bleus, sbleus = [], []
    for rep in range(EVAL_REPLICAS):
        picks, _ = generate_with_mbr(result.exploiter, vocab, SORT_E_CFG, srcs,
                                     schedules, RngStream(1000 + rep),
                                     EVAL_MBR, GEN_STEPS)
        bleus.append(corpus_bleu(picks, refs))
        sbleus.append(self_bleu(picks))
    return ArmResult(seed=seed, fixed_sqrt=fixed, run_dir=run_dir,
                     exploiter=result.exploiter, scheduler=result.scheduler,
                     schedules=schedules, bleu=float(np.mean(bleus)),
                     self_bleu=float(np.mean(sbleus)),
                     exploiter_ckpt=result.exploiter_ckpt,
                     scheduler_ckpt=result.scheduler_ckpt)


@pytest.fixture(scope="session")
def sort_study(tmp_path_factory) -> SortStudy:
    warnings.filterwarnings("ignore")
    vocab = synthetic_vocab(16)
    pairs = generate_synthetic("sort", 384, 16, (8, 8), RngStream(99).fork("data"))
    train, heldout = pairs[:256], pairs[256:]
    base = build_sqrt_schedule(SORT_E_CFG.steps)
    srcs = [list(p.src) for p in heldout]
    refs = [[list(p.tgt)] for p in heldout]
    root = tmp_path_factory.mktemp("sort-study")
    arms = [(seed, fixed) for seed in SORT_SEEDS for fixed in (True, False)]
    workers = min(2, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn"),
                             initializer=warnings.filterwarnings,
                             initargs=("ignore",)) as pool:
        futures = [pool.submit(_train_arm, seed, fixed,
                               str(root / f"{'base' if fixed else 'meta'}-{seed}"),
                               train, heldout, vocab, srcs, refs, base)
                   for seed, fixed in arms]
        results = [f.result() for f in futures]
    baseline = {r.seed: r for r in results if r.fixed_sqrt}
    meta = {r.seed: r for r in results if not r.fixed_sqrt}
    return SortStudy(vocab=vocab, heldout=heldout, srcs=srcs, refs=refs,
                     base=base, baseline=baseline, meta=meta)
