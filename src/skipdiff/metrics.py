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

MAX_ORDER = 4

HIGHER_BETTER = {
    "BLEU": True,
    "ROUGE-L": True,
    "BERTScore": True,
    "Dist-1": True,
    "Self-BLEU": False,
    "Mean-Rank": False,
}


def ngram_counts(tokens) -> list[Counter]:
    """The n-gram counts of one sentence, one Counter per order 1..MAX_ORDER."""
    return [Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
            for n in range(1, MAX_ORDER + 1)]


def _best_counts(refs) -> list[Counter]:
    """Per order, each n-gram's largest count over the references."""
    best = [Counter() for _ in range(MAX_ORDER)]
    for ref in refs:
        for table, counts in zip(best, ngram_counts(ref)):
            for gram, count in counts.items():
                if count > table[gram]:
                    table[gram] = count
    return best


def _clipped_stats(hyp_counts, hyp_len: int, ref_counts) -> tuple[list[int], list[int]]:
    """Clipped n-gram matches and n-gram totals per order. ``ref_counts``
    maps each of the hypothesis's n-grams to its reference count."""
    matches = [sum(min(count, ref.get(gram, 0)) for gram, count in hyp.items())
               for hyp, ref in zip(hyp_counts, ref_counts)]
    return matches, _ngram_totals(hyp_len)


def _ngram_totals(length: int) -> list[int]:
    """A sentence's number of n-grams per order."""
    return [max(length - n, 0) for n in range(MAX_ORDER)]


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


def bleu_from_counts(hyp_counts, hyp_len: int, ref_counts, ref_len: int) -> float:
    """Sentence BLEU from ``ngram_counts`` of a nonempty hypothesis and the
    reference n-gram counts and length it is scored against."""
    matches, totals = _clipped_stats(hyp_counts, hyp_len, ref_counts)
    return _bleu_from_stats(matches, totals, hyp_len, ref_len)


def bleu_both_ways(a_counts, a_len: int, b_counts, b_len: int) -> tuple[float, float]:
    """Sentence BLEU of nonempty ``a`` against ``b`` and of ``b`` against
    ``a``, from their ``ngram_counts``: each as ``bleu_from_counts`` gives
    it. The clipped matches, min(count in a, count in b) per n-gram, are
    the same both ways, so they are counted once."""
    matches, a_totals = _clipped_stats(a_counts, a_len, b_counts)
    return (_bleu_from_stats(matches, a_totals, a_len, b_len),
            _bleu_from_stats(matches, _ngram_totals(b_len), b_len, a_len))


def bleu(hyp: list[str], refs: list[list[str]]) -> float:
    """Smoothed sentence BLEU of one hypothesis against one or more references."""
    if not refs or any(len(r) == 0 for r in refs):
        raise ValueError("references must be nonempty")
    if len(hyp) == 0:
        warnings.warn("empty hypothesis scores 0", stacklevel=2)
        return 0.0
    return bleu_from_counts(ngram_counts(hyp), len(hyp), _best_counts(refs),
                            _closest_ref_length(len(hyp), refs))


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
        m, t = _clipped_stats(ngram_counts(hyp), len(hyp), _best_counts(ref_set))
        matches = [a + b for a, b in zip(matches, m)]
        totals = [a + b for a, b in zip(totals, t)]
    if hyp_len == 0:
        return 0.0
    return _bleu_from_stats(matches, totals, hyp_len, ref_len)


def self_bleu(hyps: list[list[str]]) -> float:
    """Leave-one-out BLEU averaged over the set; lower means more diverse.

    Each nonempty sentence is scored against every other nonempty one; an
    empty sentence, or one with no nonempty other, scores 0. The n-grams
    are counted once: per n-gram, the largest count, the sentence that
    holds it and the second-largest count give its best count among the
    others of any sentence, and a histogram of lengths gives the closest
    other length.
    """
    if len(hyps) < 2:
        raise ValueError("self-BLEU needs at least 2 hypotheses")
    counts = [ngram_counts(h) for h in hyps]
    top: list[dict] = [{} for _ in range(MAX_ORDER)]  # gram -> [max, holder, second]
    lengths: Counter = Counter()
    for j, hyp in enumerate(hyps):
        if not hyp:
            continue
        lengths[len(hyp)] += 1
        for table, grams in zip(top, counts[j]):
            for gram, count in grams.items():
                entry = table.get(gram)
                if entry is None:
                    table[gram] = [count, j, 0]
                elif count > entry[0]:
                    entry[:] = [count, j, entry[0]]
                elif count > entry[2]:
                    entry[2] = count
    nonempty = sum(lengths.values())
    scores = []
    for i, hyp in enumerate(hyps):
        if not hyp or nonempty < 2:
            scores.append(0.0)
            continue
        n = len(hyp)
        others = [(abs(length - n), length) for length, k in lengths.items()
                  if k > (length == n)]
        ref_counts = []
        for table, grams in zip(top, counts[i]):
            ref = {}
            for gram in grams:
                count, holder, second = table[gram]
                ref[gram] = second if holder == i else count
            ref_counts.append(ref)
        scores.append(bleu_from_counts(counts[i], n, ref_counts, min(others)[1]))
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


def evaluate_corpus(hyps: list[list[str]], refs: list[list[str]]) -> dict[str, float]:
    """Metric name -> value for aligned generated/reference corpora; every
    value must be finite."""
    if len(hyps) != len(refs):
        raise ValueError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    values = {
        "BLEU": corpus_bleu(hyps, [[r] for r in refs]),
        "ROUGE-L": sum(rouge_l(h, r) if h else 0.0 for h, r in zip(hyps, refs)) / len(hyps),
        "Dist-1": corpus_dist_1(hyps),
    }
    if len(hyps) >= 2:
        values["Self-BLEU"] = self_bleu(hyps)
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite")
    return values


def _metric_ranks(table: dict[str, dict[str, float | None]]
                  ) -> dict[str, dict[str, int]]:
    """Each metric's rank per method that reports it (1 = best), metrics in
    order of first appearance. Ties share the minimum rank of the group."""
    metrics: list[str] = []
    for row in table.values():
        for metric in row:
            if metric not in metrics:
                metrics.append(metric)
    out: dict[str, dict[str, int]] = {}
    for metric in metrics:
        higher = HIGHER_BETTER.get(metric, True)
        present = [(name, row[metric]) for name, row in table.items()
                   if row.get(metric) is not None]
        ordered = sorted(present, key=lambda kv: -kv[1] if higher else kv[1])
        value_rank: dict[float, int] = {}
        for pos, (_, value) in enumerate(ordered, start=1):
            value_rank.setdefault(value, pos)  # ties take the minimum rank
        out[metric] = {name: value_rank[value] for name, value in present}
    return out


def mean_rank(table: dict[str, dict[str, float | None]]) -> dict[str, float]:
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
    for by_name in _metric_ranks(table).values():
        for name, rank in by_name.items():
            ranks[name].append(float(rank))
    out = {}
    for name, rs in ranks.items():
        if not rs:
            raise ValueError(f"method {name!r} has no metric values")
        out[name] = sum(rs) / len(rs)
    return out


def rank_table_csv(table: dict[str, dict[str, float | None]]) -> str:
    """CSV export: method,metric,value,rank rows plus the Mean-Rank rows."""
    ranks = _metric_ranks(table)
    buf = io.StringIO()
    buf.write("method,metric,value,rank\n")
    for name, row in table.items():
        for metric, by_name in ranks.items():
            if name in by_name:
                buf.write(f"{name},{metric},{float(row[metric])!r},{by_name[name]}\n")
    for name, mr in mean_rank(table).items():
        buf.write(f"{name},Mean-Rank,{mr!r},\n")
    return buf.getvalue()
