"""Reference BLEU and ROUGE-L for checking the program's outputs, written
from their definitions and deliberately not importing ``skipdiff.metrics``.

BLEU follows the definition pinned in the ``skipdiff.metrics`` docstring:

- modified n-gram precisions for n = 1..4, each hypothesis n-gram count
  clipped by its largest count in any one reference;
- add-one smoothing of numerator and denominator for n >= 2, none for n = 1
  (no unigram match means BLEU 0);
- the geometric mean of the four precisions with equal weights;
- a brevity penalty exp(min(0, 1 - r/c)) where r is the reference length
  closest to the hypothesis length c (the shorter one on a tie).

Corpus BLEU pools matches, totals and both lengths over the sentences before
applying the same formula. A sentence with an empty hypothesis adds nothing
to the pool, neither n-grams nor lengths.

ROUGE-L is the F1 of the longest common subsequence's precision and recall,
0 for an empty hypothesis, averaged over the sentences of a corpus.
"""

from __future__ import annotations

import math
from collections import Counter

ORDERS = (1, 2, 3, 4)


def ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def sentence_stats(hyp, refs):
    """(matches per order, totals per order, hyp length, closest ref length)."""
    matches, totals = [], []
    for n in ORDERS:
        hyp_counts = ngram_counts(hyp, n)
        ceiling = Counter()
        for ref in refs:
            ceiling |= ngram_counts(ref, n)     # element-wise max
        matches.append(sum(min(c, ceiling[g]) for g, c in hyp_counts.items()))
        totals.append(max(len(hyp) - n + 1, 0))
    closest = min(refs, key=lambda r: (abs(len(r) - len(hyp)), len(r)))
    return matches, totals, len(hyp), len(closest)


def score(matches, totals, hyp_len, ref_len):
    if hyp_len == 0 or matches[0] == 0:
        return 0.0
    logs = [math.log(matches[0] / totals[0])]
    logs += [math.log((m + 1.0) / (t + 1.0)) for m, t in zip(matches[1:], totals[1:])]
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return math.exp(sum(logs) / len(ORDERS)) * brevity


def sentence_bleu(hyp, refs):
    return score(*sentence_stats(hyp, refs))


def corpus_bleu(hyps, refs):
    """BLEU of aligned hypotheses against one reference list per sentence."""
    pooled = [[0] * len(ORDERS), [0] * len(ORDERS), 0, 0]
    for hyp, ref_set in zip(hyps, refs, strict=True):
        if not hyp:
            continue
        matches, totals, hyp_len, ref_len = sentence_stats(hyp, ref_set)
        pooled[0] = [a + b for a, b in zip(pooled[0], matches)]
        pooled[1] = [a + b for a, b in zip(pooled[1], totals)]
        pooled[2] += hyp_len
        pooled[3] += ref_len
    return score(*pooled)


def pair_bleu(cand, other):
    """BLEU of one MBR candidate against another; an empty side scores 0,
    except that two empty candidates agree fully."""
    if not cand or not other:
        return 1.0 if not cand and not other else 0.0
    return sentence_bleu(cand, [other])


def mbr_scores(candidates):
    """Mean BLEU of each candidate against every other candidate."""
    return [sum(pair_bleu(c, o) for j, o in enumerate(candidates) if j != i)
            / (len(candidates) - 1) for i, c in enumerate(candidates)]


def mbr_pick(candidates):
    """Index of the consensus candidate; the lowest index wins ties.

    Scores are compared exactly, as float64: two mathematically equal means
    can differ in the last bit through summation order, and then the larger
    float wins.
    """
    if len(candidates) == 1:
        return 0
    scores = mbr_scores(candidates)
    return scores.index(max(scores))


def lcs_length(a, b):
    row = [0] * (len(b) + 1)
    for x in a:
        diag, row[0] = 0, 0
        for j, y in enumerate(b, start=1):
            diag, row[j] = row[j], diag + 1 if x == y else max(row[j], row[j - 1])
    return row[-1]


def rouge_l(hyp, ref):
    lcs = lcs_length(hyp, ref)
    if lcs == 0:
        return 0.0
    precision, recall = lcs / len(hyp), lcs / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def corpus_rouge_l(hyps, refs):
    return sum(rouge_l(h, r) for h, r in zip(hyps, refs, strict=True)) / len(hyps)


def self_test():
    """Hand-computed cases; raises ValueError naming the first that fails."""
    a = "a b c d".split()

    def expect(case, got, want):
        if abs(got - want) > 1e-12:
            raise ValueError(f"reference metric case {case!r}: got {got!r}, want {want!r}")

    # identical sentences: every precision is 1 and there is no penalty
    expect("identical", sentence_bleu(a, [a]), 1.0)
    # no shared unigram scores 0, however the higher orders are smoothed
    expect("disjoint", sentence_bleu("x y".split(), [a]), 0.0)
    # hyp "a b c e" vs "a b c d": p1 = 3/4, p2 = (2+1)/(3+1), p3 = (1+1)/(2+1),
    # p4 = (0+1)/(1+1), same length
    expect("smoothing", sentence_bleu("a b c e".split(), [a]),
           (0.75 * 0.75 * (2 / 3) * 0.5) ** 0.25)
    # hyp "a b" vs "a b c d": p1 = 2/2, p2 = (1+1)/(1+1), p3 = p4 = (0+1)/(0+1),
    # brevity exp(1 - 4/2)
    expect("brevity", sentence_bleu("a b".split(), [a]), math.exp(-1.0))
    # clipping: "a a a a" against "a b c d" matches one unigram of four;
    # p2 = 1/4, p3 = 1/3, p4 = 1/2
    expect("clipping", sentence_bleu("a a a a".split(), [a]),
           (0.25 * 0.25 * (1 / 3) * 0.5) ** 0.25)
    # closest reference length, the shorter one on a tie: refs of length 2
    # and 4 around a 3-token hyp pick 2, so no penalty; p1 = 3/3 from the
    # long ref, p2 = (2+1)/(2+1), p3 = (1+1)/(1+1), p4 = 1/1
    expect("closest length", sentence_bleu("a b c".split(), ["x y".split(), a]), 1.0)
    # corpus pooling: "a b c e" (stats above) plus an identical "p q r s"
    # pool to p1 = 7/8, p2 = (5+1)/(6+1), p3 = (3+1)/(4+1), p4 = (1+1)/(2+1)
    expect("pooling", corpus_bleu(["a b c e".split(), "p q r s".split()],
                                  [[a], ["p q r s".split()]]),
           ((7 / 8) * (6 / 7) * (4 / 5) * (2 / 3)) ** 0.25)
    # an empty hypothesis adds nothing to the pool
    expect("empty hypothesis", corpus_bleu([a, []], [[a], [a]]), 1.0)
    # MBR: the two agreeing candidates tie and the lower index wins
    expect("mbr tie", mbr_pick([["z"], a, a, "a b c e".split()]), 1)
    # two empty candidates agree fully, so they outvote a lone sentence
    expect("mbr empty", mbr_pick([a, [], []]), 1)
    # ROUGE-L: "a c b" vs "a b c d" share "a b" (or "a c"): P = 2/3, R = 2/4
    expect("rouge-l", rouge_l("a c b".split(), a), 2 * (2 / 3) * 0.5 / (2 / 3 + 0.5))
    expect("rouge-l empty", rouge_l([], a), 0.0)
    expect("rouge-l disjoint", rouge_l(["x"], a), 0.0)
    expect("rouge-l corpus", corpus_rouge_l([a, []], [a, a]), 0.5)


if __name__ == "__main__":
    self_test()
    print("refmetrics: all hand-computed cases pass")
