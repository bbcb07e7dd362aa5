"""Reference computations that tests compare the program against.

Each one recomputes a quantity the slow, obvious way, independently of the
production path it checks.
"""

import math

import numpy as np

from skipdiff.autodiff import (Tensor, const, lift, matmul, mul, reshape, softmax,
                               sub, sum_, transpose)
from skipdiff.data import EOS, PAD, SEP, EncodedBatch, Vocab
from skipdiff.metrics import MAX_ORDER, _bleu_from_stats
from skipdiff.exploiter import (ExploiterConfig, LatentState, _anchored, _predict,
                                _step_levels, prepare_generation_batch)
from skipdiff.rng import RngStream
from skipdiff.schedule import ScheduledNoise


def decode_row(batch: EncodedBatch, row: int, vocab: Vocab) -> tuple[list[str], list[str]]:
    """Recover (src, tgt) token lists from one encoded row via its masks:
    the condition block without SEP, then the target block up to EOS."""
    ids = batch.ids[row]
    src_ids = ids[batch.condition_mask[row]]
    tgt_ids = ids[~batch.condition_mask[row] & ~batch.pad_mask[row]]
    src = [vocab.token_of(i) for i in src_ids if i != SEP]
    tgt = [vocab.token_of(i) for i in tgt_ids if i != EOS]
    return src, tgt


def linear_composed(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``autodiff.linear`` as the two nodes it fuses: matmul, then add."""
    out = matmul(x, w)
    return out if b is None else out + b


def attention_composed(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """``autodiff.attention`` as the nodes it fuses: split heads, scaled
    scores, softmax, context, merged heads."""
    b_, lq, d = q.shape
    dh = d // heads

    def split(t: Tensor) -> Tensor:
        return transpose(reshape(t, (b_, t.shape[1], heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = matmul(qh, transpose(kh, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    ctx = matmul(softmax(scores, axis=-1), vh)
    return reshape(transpose(ctx, (0, 2, 1, 3)), (b_, lq, d))


def masked_mse_composed(pred: Tensor, target: Tensor, weights: np.ndarray) -> Tensor:
    """``autodiff.masked_mse`` as the nodes it fuses: difference, square,
    weights, sum, normalization."""
    w = const(np.broadcast_to(np.asarray(weights, dtype=np.float64), pred.shape))
    diff = sub(pred, target)
    total = sum_(mul(diff * diff, w))
    count = float(w.data.sum())
    return total * (1.0 / max(count, 1.0))


def forward_diffuse_stepwise(state: LatentState, t: int, schedule: ScheduledNoise,
                             rng: RngStream, cfg: ExploiterConfig) -> LatentState:
    """Compose t effective per-step transitions instead of the closed form.

    The chain is seeded with the level-0 marginal sqrt(a_0) z_0 +
    sqrt(1 - a_0) eps, the state the per-step transitions evolve; composing
    them then lands exactly on the closed-form marginal at level t.
    """
    b = state.z.shape[0]
    if not 1 <= t <= cfg.steps:
        raise IndexError(f"diffusion step outside 1..{cfg.steps}")
    alpha = np.broadcast_to(schedule.alpha_bar_x, (b, cfg.steps + 1))
    a0 = alpha[:, 0][:, None, None]
    x = np.sqrt(a0) * state.z.data + np.sqrt(1.0 - a0) * rng.normal(state.z.shape)
    for s in range(1, t + 1):
        beta = 1.0 - alpha[:, s] / alpha[:, s - 1]
        beta = beta[:, None, None]
        x = np.sqrt(1.0 - beta) * x + np.sqrt(beta) * rng.normal(x.shape)
    return _anchored(const(x), state.condition_mask, state.anchor)


def sample_step_full_width(params, state: LatentState, t: int,
                           schedule: ScheduledNoise, rng: RngStream,
                           cfg: ExploiterConfig, t_prev: int) -> LatentState:
    """One reverse step computed at every position of the whole batch: noise
    drawn everywhere, the denoiser's full prediction and the posterior
    update on every column, then re-anchored."""
    b = state.z.shape[0]
    alpha = np.broadcast_to(schedule.alpha_bar_x, (b, cfg.steps + 1))
    pointer = np.broadcast_to(schedule.pointer, (b, cfg.steps + 1))
    z = state.z.data
    z0_hat = _predict(lift(params, None), state.z, pointer[:, t], cfg, 0).data
    a_hi = alpha[:, t][:, None, None]
    a_lo = alpha[:, t_prev][:, None, None]
    beta = 1.0 - a_hi / a_lo
    mu = (np.sqrt(a_lo) * beta / (1.0 - a_hi)) * z0_hat \
        + (np.sqrt(1.0 - beta) * (1.0 - a_lo) / (1.0 - a_hi)) * z
    if t_prev >= 1:
        var = beta * (1.0 - a_lo) / (1.0 - a_hi)
        mu = mu + np.sqrt(var) * rng.normal(z.shape)
    return _anchored(const(np.where(a_hi == a_lo, z, mu)), state.condition_mask,
                     state.anchor)


def generate_batch_whole(params, srcs: list[list[str]], schedule: ScheduledNoise,
                         rng: RngStream, cfg: ExploiterConfig, vocab: Vocab,
                         num_steps: int | None = None
                         ) -> tuple[list[list[str]], list[np.ndarray]]:
    """Generation with the whole batch's state kept through every step: one
    draw of pure noise over the batch, ``sample_step_full_width`` at each
    level, then each canvas position rounded to its nearest embedding row
    (the lowest id on a tie) up to the first EOS or PAD. Returns the
    outputs and, per row, the rounded latents: the final canvas less the
    position embeddings."""
    batch = prepare_generation_batch(srcs, vocab, cfg)
    b, l = batch.ids.shape
    anchor = const(params["emb"][batch.ids] + params["pos"][0:l])
    state = _anchored(const(rng.normal((b, l, cfg.model_dim))), batch.condition_mask,
                      anchor)
    levels = _step_levels(cfg.steps, num_steps)
    for hi, lo in zip(levels[:-1], levels[1:]):
        state = sample_step_full_width(params, state, hi, schedule, rng, cfg, lo)
    emb = params["emb"]
    outputs, latents = [], []
    for i in range(b):
        canvas = ~batch.condition_mask[i]
        latents.append(state.z.data[i][canvas] - params["pos"][0:l][canvas])
        tokens = []
        for latent in latents[-1]:
            idx = int(np.argmin(((latent - emb) ** 2).sum(axis=1)))
            if idx in (EOS, PAD):
                break
            tokens.append(vocab.token_of(idx))
        outputs.append(tokens)
    return outputs, latents


def recompute_log_prob(bits: np.ndarray, probs: np.ndarray) -> float:
    """Direct re-evaluation of one row's log-probability from its probabilities."""
    total = 0.0
    for bit, p in zip(bits, probs):
        total += np.log(p) if bit else np.log1p(-p)
    return float(total)


def bleu_by_definition(hyp: list[str], refs: list[list[str]]) -> float:
    """Sentence BLEU of a nonempty hypothesis, its statistics counted from
    the definition: per order, each distinct n-gram's count in the
    hypothesis, clipped by its largest count in any one reference. The
    smoothed combination of those integers is the program's own."""
    matches, totals = [], []
    for n in range(1, MAX_ORDER + 1):
        grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
        clipped = 0
        for gram in set(grams):
            in_refs = [[tuple(r[i:i + n]) for i in range(len(r) - n + 1)].count(gram)
                       for r in refs]
            clipped += min(grams.count(gram), max(in_refs))
        matches.append(clipped)
        totals.append(len(grams))
    ref_len = min(refs, key=lambda r: (abs(len(r) - len(hyp)), len(r)))
    return _bleu_from_stats(matches, totals, len(hyp), len(ref_len))


def self_bleu_by_definition(hyps: list[list[str]]) -> float:
    """Each sentence's BLEU against all other nonempty sentences, averaged;
    an empty sentence, or one with no nonempty other, scores 0."""
    scores = []
    for i, hyp in enumerate(hyps):
        others = [h for j, h in enumerate(hyps) if j != i and h]
        scores.append(bleu_by_definition(hyp, others) if hyp and others else 0.0)
    return sum(scores) / len(scores)


def mbr_scores_by_definition(candidates: list[list[str]]) -> list[float]:
    """Each candidate's BLEU against each other candidate, summed in
    candidate order and averaged. Two empty sentences score 1 against each
    other, an empty and a nonempty 0."""
    scores = []
    for i, cand in enumerate(candidates):
        vals = []
        for j, other in enumerate(candidates):
            if j == i:
                continue
            if cand and other:
                vals.append(bleu_by_definition(cand, [other]))
            else:
                vals.append(1.0 if not cand and not other else 0.0)
        scores.append(sum(vals) / len(vals))
    return scores


def mbr_select_by_definition(candidates: list[list[str]]) -> list[str]:
    """The candidate with the largest ``mbr_scores_by_definition``; the
    first such wins."""
    if len(candidates) == 1:
        return candidates[0]
    return candidates[int(np.argmax(mbr_scores_by_definition(candidates)))]
