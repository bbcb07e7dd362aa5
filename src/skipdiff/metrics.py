"""Text generation metrics: smoothed BLEU, Self-BLEU, ROUGE-L, Dist-1, and
Mean-Rank aggregation across systems.

BLEU smoothing is pinned: modified precisions are clipped against the
best-matching reference, add-one smoothing applies to numerator and
denominator for n >= 2, unigram precision stays unsmoothed, and the
brevity penalty uses the closest reference length.
"""

from __future__ import annotations

import io
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

MAX_ORDER = 4

HIGHER_BETTER = {
    "BLEU": True,
    "ROUGE-L": True,
    "BERTScore": True,
    "Dist-1": True,
    "Self-BLEU": False,
    "Mean-Rank": False,
}


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(hyp, refs, n: int) -> tuple[int, int]:
    hyp_counts = _ngrams(hyp, n)
    total = max(len(hyp) - n + 1, 0)
    if not hyp_counts:
        return 0, total
    best: Counter = Counter()
    for ref in refs:
        for gram, count in _ngrams(ref, n).items():
            if count > best[gram]:
                best[gram] = count
    matches = sum(min(count, best[gram]) for gram, count in hyp_counts.items())
    return matches, total


def _closest_ref_length(hyp_len: int, refs) -> int:
    return min((abs(len(r) - hyp_len), len(r)) for r in refs)[1]


def _bleu_from_stats(matches, totals, hyp_len: int, ref_len: int) -> float:
    log_sum = 0.0
    for n in range(1, MAX_ORDER + 1):
        m, t = matches[n - 1], totals[n - 1]
        if n == 1:
            if m == 0:
                return 0.0
            p = m / t
        else:
            p = (m + 1.0) / (t + 1.0)
        log_sum += math.log(p)
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len)) if hyp_len > 0 else 0.0
    return math.exp(log_sum / MAX_ORDER) * bp


def bleu(hyp: list[str], refs: list[list[str]]) -> float:
    """Smoothed sentence BLEU of one hypothesis against one or more references."""
    if not refs or any(len(r) == 0 for r in refs):
        raise ValueError("references must be nonempty")
    if len(hyp) == 0:
        warnings.warn("empty hypothesis scores 0", stacklevel=2)
        return 0.0
    matches, totals = [], []
    for n in range(1, MAX_ORDER + 1):
        m, t = _clipped_matches(hyp, refs, n)
        matches.append(m)
        totals.append(t)
    return _bleu_from_stats(matches, totals, len(hyp), _closest_ref_length(len(hyp), refs))


def corpus_bleu(hyps: list[list[str]], refs: list[list[list[str]]]) -> float:
    """Corpus-level BLEU: n-gram statistics pooled over all sentences."""
    if len(hyps) != len(refs):
        raise ValueError(f"{len(hyps)} hypotheses vs {len(refs)} reference sets")
    if not hyps:
        raise ValueError("empty corpus")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref_set in zip(hyps, refs):
        if not ref_set or any(len(r) == 0 for r in ref_set):
            raise ValueError("references must be nonempty")
        if len(hyp) == 0:
            continue
        hyp_len += len(hyp)
        ref_len += _closest_ref_length(len(hyp), ref_set)
        for n in range(1, MAX_ORDER + 1):
            m, t = _clipped_matches(hyp, ref_set, n)
            matches[n - 1] += m
            totals[n - 1] += t
    if hyp_len == 0:
        return 0.0
    return _bleu_from_stats(matches, totals, hyp_len, ref_len)


def self_bleu(hyps: list[list[str]]) -> float:
    """Leave-one-out BLEU averaged over the set; lower means more diverse."""
    if len(hyps) < 2:
        raise ValueError("self-BLEU needs at least 2 hypotheses")
    scores = []
    for i, hyp in enumerate(hyps):
        others = [h for j, h in enumerate(hyps) if j != i and len(h) > 0]
        if not others or len(hyp) == 0:
            scores.append(0.0)
            continue
        scores.append(bleu(hyp, others))
    return sum(scores) / len(scores)


def rouge_l(hyp: list[str], ref: list[str]) -> float:
    """F1 over the longest common subsequence."""
    if not hyp or not ref:
        raise ValueError("inputs must be nonempty")
    prev = [0] * (len(ref) + 1)
    for h in hyp:
        cur = [0] * (len(ref) + 1)
        for j, r in enumerate(ref, start=1):
            cur[j] = prev[j - 1] + 1 if h == r else max(prev[j], cur[j - 1])
        prev = cur
    lcs = prev[-1]
    if lcs == 0:
        return 0.0
    precision = lcs / len(hyp)
    recall = lcs / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def dist_1(hyp: list[str]) -> float:
    """Distinct unigrams over total unigrams of one sentence."""
    if not hyp:
        raise ValueError("empty sentence")
    return len(set(hyp)) / len(hyp)


def corpus_dist_1(hyps: list[list[str]]) -> float:
    vals = [dist_1(h) for h in hyps if h]
    if not vals:
        raise ValueError("no nonempty sentences")
    return sum(vals) / len(vals)


@dataclass
class MetricReport:
    """Metric name -> value, with the better-direction map alongside."""

    values: dict[str, float]
    directions: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        for name in self.values:
            self.directions.setdefault(name, HIGHER_BETTER.get(name, True))
        for name, value in self.values.items():
            if not math.isfinite(value):
                raise ValueError(f"metric {name} is not finite")

    def to_dict(self) -> dict[str, float]:
        return dict(self.values)


def evaluate_corpus(hyps: list[list[str]], refs: list[list[str]]) -> MetricReport:
    """Standard report for aligned generated/reference corpora."""
    if len(hyps) != len(refs):
        raise ValueError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    values = {
        "BLEU": corpus_bleu(hyps, [[r] for r in refs]),
        "ROUGE-L": sum(rouge_l(h, r) if h else 0.0 for h, r in zip(hyps, refs)) / len(hyps),
        "Dist-1": corpus_dist_1(hyps),
    }
    if len(hyps) >= 2:
        values["Self-BLEU"] = self_bleu(hyps)
    return MetricReport(values)


def _metric_ranks(table: dict[str, dict[str, float | None]],
                  directions: dict[str, bool] | None) -> dict[str, dict[str, int]]:
    """Each metric's rank per method that reports it (1 = best), metrics in
    order of first appearance. Ties share the minimum rank of the group."""
    directions = directions or {}
    metrics: list[str] = []
    for row in table.values():
        for metric in row:
            if metric not in metrics:
                metrics.append(metric)
    out: dict[str, dict[str, int]] = {}
    for metric in metrics:
        higher = directions.get(metric, HIGHER_BETTER.get(metric, True))
        present = [(name, row[metric]) for name, row in table.items()
                   if row.get(metric) is not None]
        ordered = sorted(present, key=lambda kv: -kv[1] if higher else kv[1])
        value_rank: dict[float, int] = {}
        for pos, (_, value) in enumerate(ordered, start=1):
            value_rank.setdefault(value, pos)  # ties take the minimum rank
        out[metric] = {name: value_rank[value] for name, value in present}
    return out


def mean_rank(table: dict[str, dict[str, float | None]],
              directions: dict[str, bool] | None = None) -> dict[str, float]:
    """Average rank of each method across metrics (1 = best).

    Ties share the minimum rank of the tied group. A method missing a
    metric is skipped for that metric and averages over what remains.
    """
    if len(table) < 2:
        if len(table) == 1:
            name = next(iter(table))
            if not any(v is not None for v in table[name].values()):
                raise ValueError(f"method {name!r} has no metric values")
            return {name: 1.0}
        raise ValueError("mean rank needs at least one method")
    ranks: dict[str, list[float]] = {m: [] for m in table}
    for by_name in _metric_ranks(table, directions).values():
        for name, rank in by_name.items():
            ranks[name].append(float(rank))
    out = {}
    for name, rs in ranks.items():
        if not rs:
            raise ValueError(f"method {name!r} has no metric values")
        out[name] = sum(rs) / len(rs)
    return out


def rank_table_csv(table: dict[str, dict[str, float | None]],
                   directions: dict[str, bool] | None = None) -> str:
    """CSV export: method,metric,value,rank rows plus the Mean-Rank rows."""
    ranks = _metric_ranks(table, directions)
    buf = io.StringIO()
    buf.write("method,metric,value,rank\n")
    for name, row in table.items():
        for metric, by_name in ranks.items():
            if name in by_name:
                buf.write(f"{name},{metric},{float(row[metric])!r},{by_name[name]}\n")
    for name, mr in mean_rank(table, directions).items():
        buf.write(f"{name},Mean-Rank,{mr!r},\n")
    return buf.getvalue()
