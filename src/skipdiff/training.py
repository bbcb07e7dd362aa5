"""Meta-training orchestration: frozen-weight exploration rounds that score
candidate noise schedules, policy updates from those scores, and the
interleaved denoiser training they steer.

One round runs E exploration epochs against one frozen denoiser snapshot.
Each epoch samples per-sentence instructions, takes a single probe update
on a clone of the denoiser, generates with both snapshots under the same
noise, and scores the BLEU difference as the policy reward. The E score
gradients are summed into one ascent update; the denoiser itself is never
touched inside a round.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import scheduler as policy
from .checkpoint import load_checkpoint, save_checkpoint
from .data import SentencePair, Vocab, encode_batch
from .errors import ConfigError, ContractError, check_minimums
from .exploiter import (ExploiterConfig, diffusion_loss, generate_batch,
                        init_exploiter_params, mbr_select, params_checksum)
from .exploiter import param_shapes as exploiter_shapes
from .metrics import corpus_bleu, evaluate_corpus
from .optim import AdaptiveSGD, sgd_step
from .rng import RngStream
from .schedule import (BaseSchedule, MetaInstructions, ScheduledNoise,
                       apply_skipping, build_sqrt_schedule, fixed_schedule)
from .scheduler import SchedulerConfig, init_scheduler_params
from .scheduler import param_shapes as scheduler_shapes


@dataclass(frozen=True)
class TrainConfig:
    exploration_epochs: int = 4          # parallel probes per scheduler round
    total_batch: int = 32
    scheduler_update_period: int = 10    # denoiser epochs between rounds
    lr_exploiter: float = 1e-3
    lr_scheduler: float = 0.1
    probe_lr: float = 1e-3
    max_epochs: int = 50
    max_steps: int = 0                   # 0 = no step cap
    seed: int = 0
    gen_steps: int = 16                  # shortened reward/eval generation
    reward_baseline: bool = True         # subtract the round-mean reward
    eval_every: int = 10
    eval_mbr: int = 1
    checkpoint_every: int = 0            # 0 = init and final only
    early_stop_patience: int = 0         # evals without BLEU gain; 0 = off
    threads: int = 1
    fixed_sqrt: bool = False             # baseline arm: no policy, base noise

    def __post_init__(self):
        # sizes >= 1; counts where 0 means "off" or "none" >= 0
        check_minimums(self, {"exploration_epochs": 1, "total_batch": 1, "gen_steps": 1,
                              "eval_mbr": 1, "threads": 1, "scheduler_update_period": 0,
                              "max_epochs": 0, "max_steps": 0, "eval_every": 0,
                              "checkpoint_every": 0, "early_stop_patience": 0})
        if self.total_batch % self.exploration_epochs != 0:
            raise ConfigError(
                f"exploration_epochs {self.exploration_epochs} must divide "
                f"total_batch {self.total_batch}")

    @property
    def exploration_batch(self) -> int:
        return self.total_batch // self.exploration_epochs


@dataclass(frozen=True)
class MetaRewardRecord:
    """Probe scores before/after one exploration update."""

    r_before: float
    r_after: float
    r_meta: float

    @classmethod
    def from_scores(cls, r_before: float, r_after: float) -> "MetaRewardRecord":
        for value in (r_before, r_after):
            if not 0.0 <= value <= 1.0:
                raise ContractError(f"reward {value} outside [0, 1]")
        return cls(r_before=r_before, r_after=r_after, r_meta=r_after - r_before)


@dataclass
class ExplorationResult:
    score_grad: dict[str, np.ndarray]  # gradient of the summed log-prob
    record: MetaRewardRecord


class NonFiniteProbeLoss(ContractError):
    """A probe's diffusion loss is NaN or infinite; ``e`` is its probe index."""

    def __init__(self, loss: float):
        super().__init__(f"non-finite probe loss {loss}")
        self.loss = loss
        self.e: int | None = None


def exploration_epoch(theta: dict[str, np.ndarray], psi: dict[str, np.ndarray],
                      minibatch: list[SentencePair], vocab: Vocab,
                      base: BaseSchedule, rng_e: RngStream,
                      e_cfg: ExploiterConfig, s_cfg: SchedulerConfig,
                      t_cfg: TrainConfig) -> ExplorationResult:
    """One frozen-weight probe of the current policy."""
    srcs = [list(p.src) for p in minibatch]
    refs = [[list(p.tgt)] for p in minibatch]
    inst_batch = policy.sample_instructions_batch(
        psi, srcs, vocab, s_cfg, rng_e.fork("instructions"), "stochastic", True)
    schedules = apply_skipping(inst_batch.instructions, base)
    encoded = encode_batch(minibatch, vocab, e_cfg.max_len)
    loss, grads = diffusion_loss(theta, encoded, schedules,
                                 rng_e.fork("probe-loss"), e_cfg)
    if not np.isfinite(loss):
        raise NonFiniteProbeLoss(loss)
    theta_probe = sgd_step(theta, grads, t_cfg.probe_lr)
    # identical noise for both generations so only the weights differ
    gen_before = generate_batch(theta, srcs, schedules, rng_e.fork("probe-gen"),
                                e_cfg, vocab, num_steps=t_cfg.gen_steps)
    gen_after = generate_batch(theta_probe, srcs, schedules,
                               rng_e.fork("probe-gen"), e_cfg, vocab,
                               num_steps=t_cfg.gen_steps)
    record = MetaRewardRecord.from_scores(corpus_bleu(gen_before, refs),
                                          corpus_bleu(gen_after, refs))
    return ExplorationResult(score_grad=inst_batch.score_gradients(), record=record)


def scheduler_round(theta: dict[str, np.ndarray], psi: dict[str, np.ndarray],
                    minibatches: list[list[SentencePair]], vocab: Vocab,
                    base: BaseSchedule, rngs: list[RngStream],
                    e_cfg: ExploiterConfig, s_cfg: SchedulerConfig,
                    t_cfg: TrainConfig
                    ) -> tuple[dict[str, np.ndarray], list[MetaRewardRecord]]:
    """Run E exploration epochs, sum their gradients, ascend once."""
    if len(minibatches) != len(rngs):
        raise ContractError("one rng stream per exploration epoch required")
    checksum = params_checksum(theta)

    def run(args):
        e, (batch, rng_e) = args
        try:
            return exploration_epoch(theta, psi, batch, vocab, base, rng_e,
                                     e_cfg, s_cfg, t_cfg)
        except NonFiniteProbeLoss as exc:
            exc.e = e
            raise

    jobs = list(enumerate(zip(minibatches, rngs)))
    if t_cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=t_cfg.threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]

    rewards = np.array([r.record.r_meta for r in results])
    baseline = rewards.mean() if (t_cfg.reward_baseline and len(results) > 1) else 0.0
    total = policy.zero_like_grads(psi)
    for result, reward in zip(results, rewards):
        total = policy.add_grads(total, result.score_grad, float(reward - baseline))
    psi_next = policy.apply_update(psi, total, t_cfg.lr_scheduler)
    if params_checksum(theta) != checksum:
        raise ContractError("exploiter weights changed during a scheduler round")
    return psi_next, [r.record for r in results]


def generate_with_mbr(theta, vocab: Vocab, e_cfg: ExploiterConfig,
                      srcs: list[list[str]], schedules: ScheduledNoise,
                      rng: RngStream, mbr_size: int, gen_steps: int | None
                      ) -> tuple[list[list[str]], list[list[list[str]]]]:
    """Per source: mbr_size candidates from distinct noise seeds, then the
    consensus pick. Returns (selections, all candidates)."""
    candidate_sets: list[list[list[str]]] = [[] for _ in srcs]
    for k in range(mbr_size):
        outs = generate_batch(theta, srcs, schedules, rng.fork("candidate", k),
                              e_cfg, vocab, num_steps=gen_steps)
        for i, out in enumerate(outs):
            candidate_sets[i].append(out)
    return [mbr_select(cands) for cands in candidate_sets], candidate_sets


@dataclass
class TrainResult:
    run_dir: str
    exploiter: dict[str, np.ndarray]
    scheduler: dict[str, np.ndarray]
    vocab: Vocab
    exploiter_config: ExploiterConfig
    scheduler_config: SchedulerConfig
    train_config: TrainConfig
    events: list[dict] = field(default_factory=list)

    @property
    def exploiter_ckpt(self) -> str:
        return os.path.join(self.run_dir, "checkpoints", "exploiter-final.bin")

    @property
    def scheduler_ckpt(self) -> str:
        return os.path.join(self.run_dir, "checkpoints", "scheduler-final.bin")


def _save_pair(run_dir, tag, theta, psi, e_cfg, s_cfg, vocab, dataset_tag):
    ckpt_dir = os.path.join(run_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    save_checkpoint(os.path.join(ckpt_dir, f"exploiter-{tag}.bin"), "exploiter",
                    e_cfg.to_dict(), theta, vocab.tokens, dataset_tag)
    save_checkpoint(os.path.join(ckpt_dir, f"scheduler-{tag}.bin"), "scheduler",
                    s_cfg.to_dict(), psi, vocab.tokens, dataset_tag)


def meta_train(train_pairs: list[SentencePair], heldout_pairs: list[SentencePair],
               vocab: Vocab, run_dir: str, e_cfg: ExploiterConfig,
               s_cfg: SchedulerConfig, t_cfg: TrainConfig,
               dataset_tag: str = "") -> TrainResult:
    """Alternate exploration rounds with denoiser epochs until the budget ends."""
    if not train_pairs:
        raise ConfigError("training set is empty")
    if s_cfg.decoder_len != e_cfg.steps:
        raise ConfigError(f"scheduler decoder length {s_cfg.decoder_len} != "
                          f"diffusion steps {e_cfg.steps}")
    os.makedirs(run_dir, exist_ok=True)
    rng = RngStream(t_cfg.seed)
    theta = init_exploiter_params(e_cfg, len(vocab), rng.fork("exploiter-init"))
    psi = init_scheduler_params(s_cfg, len(vocab), rng.fork("scheduler-init"))
    base = build_sqrt_schedule(e_cfg.steps)
    flat = fixed_schedule(base)
    opt = AdaptiveSGD(lr=t_cfg.lr_exploiter)
    events: list[dict] = []
    log_path = os.path.join(run_dir, "log.jsonl")
    with open(log_path, "w", encoding="utf-8") as log_fh:

        def log(event: dict):
            events.append(event)
            log_fh.write(json.dumps(event, sort_keys=True) + "\n")
            log_fh.flush()

        def evaluate(theta_now, psi_now, epoch):
            srcs = [list(p.src) for p in heldout_pairs]
            refs = [list(p.tgt) for p in heldout_pairs]
            schedules = (flat if t_cfg.fixed_sqrt
                         else policy.greedy_schedules(psi_now, srcs, vocab, s_cfg))
            picks, _ = generate_with_mbr(theta_now, vocab, e_cfg, srcs, schedules,
                                         rng.fork("eval", epoch), t_cfg.eval_mbr,
                                         t_cfg.gen_steps)
            return evaluate_corpus(picks, refs)

        _save_pair(run_dir, "0", theta, psi, e_cfg, s_cfg, vocab, dataset_tag)
        log({"event": "init", "epoch": 0, "train_size": len(train_pairs),
             "heldout_size": len(heldout_pairs)})
        if heldout_pairs and t_cfg.eval_every and t_cfg.max_epochs > 0:
            log({"event": "init_eval", "epoch": -1, **evaluate(theta, psi, -1)})

        n = len(train_pairs)
        steps_done = 0
        round_idx = 0
        best_bleu = -1.0
        stale_evals = 0
        epoch = 0
        period = t_cfg.scheduler_update_period
        for epoch in range(t_cfg.max_epochs):
            if t_cfg.max_steps and steps_done >= t_cfg.max_steps:
                break
            if not t_cfg.fixed_sqrt and period > 0 and epoch % period == 0:
                order = rng.fork("explore-data", epoch).shuffle_index(n)
                need = t_cfg.exploration_epochs * t_cfg.exploration_batch
                picks = [int(order[i % n]) for i in range(need)]
                minibatches = [
                    [train_pairs[j] for j in picks[e * t_cfg.exploration_batch:
                                                   (e + 1) * t_cfg.exploration_batch]]
                    for e in range(t_cfg.exploration_epochs)]
                rngs = [rng.fork("exploration", epoch, e)
                        for e in range(t_cfg.exploration_epochs)]
                try:
                    psi, records = scheduler_round(theta, psi, minibatches, vocab,
                                                   base, rngs, e_cfg, s_cfg, t_cfg)
                except NonFiniteProbeLoss as exc:
                    message = (f"non-finite probe loss {exc.loss} at epoch {epoch}, "
                               f"round {round_idx}, probe {exc.e}")
                    log({"event": "error", "epoch": epoch, "round": round_idx,
                         "e": exc.e, "message": message})
                    raise ContractError(message) from exc
                for e, record in enumerate(records):
                    log({"event": "exploration", "epoch": epoch, "round": round_idx,
                         "e": e, "r_before": record.r_before,
                         "r_after": record.r_after, "r_meta": record.r_meta})
                log({"event": "scheduler_update", "epoch": epoch, "round": round_idx,
                     "mean_r_meta": float(np.mean([r.r_meta for r in records]))})
                round_idx += 1

            order = rng.fork("shuffle", epoch).shuffle_index(n)
            starts = list(range(0, n, t_cfg.total_batch))
            if t_cfg.max_steps:
                starts = starts[:t_cfg.max_steps - steps_done]
            chunks = [[train_pairs[int(i)]
                       for i in order[start:start + t_cfg.total_batch]]
                      for start in starts]
            if not t_cfg.fixed_sqrt and chunks:
                # psi is fixed for the epoch, so one rollout over every
                # step's chunk, each from its own stream, gives the bits
                # that per-step rollouts would
                bits = policy.sample_instructions_batch(
                    psi, [list(p.src) for chunk in chunks for p in chunk],
                    vocab, s_cfg,
                    [(len(chunk), rng.fork("train-sched", epoch, start))
                     for chunk, start in zip(chunks, starts)],
                    "stochastic", False).instructions.bits
            losses = []
            for start, chunk in zip(starts, chunks):
                encoded = encode_batch(chunk, vocab, e_cfg.max_len)
                if t_cfg.fixed_sqrt:
                    schedules = flat
                else:
                    # chunks are consecutive, so a chunk's rows start at `start`
                    schedules = apply_skipping(
                        MetaInstructions(bits[start:start + len(chunk)]), base)
                loss, grads = diffusion_loss(theta, encoded, schedules,
                                             rng.fork("train-diff", epoch, start),
                                             e_cfg)
                if not np.isfinite(loss):
                    message = (f"non-finite loss {loss} at epoch {epoch}, "
                               f"step {steps_done + 1}")
                    log({"event": "error", "epoch": epoch, "step": steps_done + 1,
                         "message": message})
                    raise ContractError(message)
                theta = opt.step(theta, grads)
                losses.append(loss)
                steps_done += 1
            log({"event": "epoch", "epoch": epoch,
                 "loss": float(np.mean(losses)) if losses else None,
                 "steps_done": steps_done})

            if heldout_pairs and t_cfg.eval_every and (epoch + 1) % t_cfg.eval_every == 0:
                scores = evaluate(theta, psi, epoch)
                log({"event": "eval", "epoch": epoch, **scores})
                if t_cfg.early_stop_patience:
                    if scores["BLEU"] > best_bleu + 1e-9:
                        best_bleu = scores["BLEU"]
                        stale_evals = 0
                    else:
                        stale_evals += 1
                        if stale_evals >= t_cfg.early_stop_patience:
                            log({"event": "early_stop", "epoch": epoch})
                            break
            if t_cfg.checkpoint_every and (epoch + 1) % t_cfg.checkpoint_every == 0:
                _save_pair(run_dir, str(epoch + 1), theta, psi, e_cfg, s_cfg,
                           vocab, dataset_tag)

        _save_pair(run_dir, "final", theta, psi, e_cfg, s_cfg, vocab, dataset_tag)
        if heldout_pairs:
            scores = evaluate(theta, psi, t_cfg.max_epochs)
            log({"event": "final_eval", "epoch": epoch, **scores})
    return TrainResult(run_dir=run_dir, exploiter=theta, scheduler=psi,
                       vocab=vocab, exploiter_config=e_cfg,
                       scheduler_config=s_cfg, train_config=t_cfg,
                       events=events)


def load_model(path, kind: str):
    """A ``kind`` checkpoint and its config object. The config must build,
    and the weights must have exactly the shapes it and the vocabulary give;
    every failure is a ``ConfigError`` that names the path."""
    ckpt = load_checkpoint(path)
    if ckpt.kind != kind:
        raise ConfigError(f"{path}: a {ckpt.kind!r} checkpoint, expected {kind!r}")
    cfg_cls, shapes_of = {"exploiter": (ExploiterConfig, exploiter_shapes),
                          "scheduler": (SchedulerConfig, scheduler_shapes)}[kind]
    try:
        cfg = cfg_cls.from_dict(ckpt.config)
        want = shapes_of(cfg, len(Vocab(ckpt.vocab_tokens)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad {kind} checkpoint config: {exc}") from exc
    got = {name: arr.shape for name, arr in ckpt.params.items()}
    for name in sorted(got.keys() | want.keys()):
        if got.get(name) != want.get(name):
            raise ConfigError(f"{path}: weight {name!r} has shape {got.get(name)}, "
                              f"its config gives {want.get(name)}")
    return ckpt, cfg


def plug_and_play_generate(scheduler_ckpt, exploiter_ckpt, srcs: list[list[str]],
                           arms: list[tuple[bool, RngStream]], mbr_size: int = 1,
                           gen_steps: int | None = None
                           ) -> list[tuple[list[list[str]], list[list[list[str]]]]]:
    """Schedule with one checkpoint, generate with another, update nothing.

    One ``(picks, candidates)`` per ``(fixed_sqrt, rng)`` arm: a fixed-sqrt
    arm uses the base schedule, any other the policy's greedy schedules.
    Each checkpoint is loaded once, and the scheduler's only when an arm
    uses the policy. The scheduler may come from a different dataset; its
    own vocabulary maps unseen tokens to UNK. Weights are checksummed
    before and after to prove no fine-tuning happened.
    """
    expl_ck, e_cfg = load_model(exploiter_ckpt, "exploiter")
    checked = [expl_ck.params]
    sums = [params_checksum(expl_ck.params)]
    schedules = {True: fixed_schedule(build_sqrt_schedule(e_cfg.steps))}
    if not all(fixed for fixed, _ in arms):
        sched_ck, s_cfg = load_model(scheduler_ckpt, "scheduler")
        if s_cfg.decoder_len != e_cfg.steps:
            raise ConfigError(
                f"scheduler decoder length {s_cfg.decoder_len} incompatible "
                f"with exploiter diffusion steps {e_cfg.steps}")
        checked.append(sched_ck.params)
        sums.append(params_checksum(sched_ck.params))
        schedules[False] = policy.greedy_schedules(
            sched_ck.params, srcs, Vocab(sched_ck.vocab_tokens), s_cfg)
    expl_vocab = Vocab(expl_ck.vocab_tokens)
    out = [generate_with_mbr(expl_ck.params, expl_vocab, e_cfg, srcs,
                             schedules[fixed], rng, mbr_size, gen_steps)
           for fixed, rng in arms]
    if [params_checksum(params) for params in checked] != sums:
        raise ContractError("weights mutated during plug-and-play generation")
    return out
