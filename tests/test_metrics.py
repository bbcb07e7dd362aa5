import itertools

import pytest
from hypothesis import given, settings, strategies as st

from skipdiff import metrics
from skipdiff.metrics import (bleu, corpus_bleu, corpus_dist_1,
                              dist_1, evaluate_corpus, mean_rank,
                              rank_table_csv, rouge_l, self_bleu)
from skipdiff.rng import RngStream
from oracles import bleu_by_definition, self_bleu_by_definition
from tabledata import QQP_BLOCK, QQP_MEAN_RANK

# Short sentences over a three-token alphabet, so n-grams repeat within and
# across sentences; empty ones included.
SENTENCES = st.lists(st.sampled_from("abc"), max_size=9)


def test_bleu_identity():
    assert bleu(list("abcd"), [list("abcd")]) == pytest.approx(1.0)


def test_bleu_disjoint_is_zero():
    assert bleu(["a", "b"], [["x", "y"]]) == 0.0


def test_bleu_hand_computed_case():
    # p = (3/4, 3/4, 2/3, 1/2) under add-one smoothing for n >= 2, BP = 1
    value = bleu(["a", "b", "c", "d"], [["a", "b", "c", "e"]])
    expected = (0.75 * 0.75 * (2 / 3) * 0.5) ** 0.25
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(0.658, abs=1e-3)


def test_bleu_empty_hyp_warns_zero():
    with pytest.warns(UserWarning):
        assert bleu([], [["a"]]) == 0.0


def test_bleu_ref_permutation_invariant():
    hyp = ["a", "b", "c"]
    refs = [["a", "x"], ["b", "c", "d"], ["c"]]
    base = bleu(hyp, refs)
    for perm in itertools.permutations(refs):
        assert bleu(hyp, list(perm)) == pytest.approx(base)


def test_bleu_self_is_one_property():
    rng = RngStream(8)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        sent = [f"t{int(i)}" for i in rng.integers(0, 5, (n,))]
        assert bleu(sent, [sent]) == pytest.approx(1.0)


def test_bleu_brevity_penalty():
    # shorter hypothesis with perfect precisions is penalized
    short = bleu(["a", "b"], [["a", "b", "c", "d"]])
    full = bleu(["a", "b", "c", "d"], [["a", "b", "c", "d"]])
    assert short < full


def test_corpus_bleu_pools_counts():
    hyps = [["a", "b"], ["c", "d"]]
    refs = [[["a", "b"]], [["c", "d"]]]
    assert corpus_bleu(hyps, refs) == pytest.approx(1.0)
    assert corpus_bleu([["a", "b"], ["x", "y"]], refs) < 1.0


def test_self_bleu_identical():
    assert self_bleu([["a", "b"], ["a", "b"], ["a", "b"]]) == pytest.approx(1.0)


def test_self_bleu_disjoint():
    assert self_bleu([["a"], ["b"], ["c"]]) == 0.0


def test_self_bleu_hand_case():
    hyps = [list("abcd"), list("abcd"), list("wxyz")]
    assert self_bleu(hyps) == pytest.approx(2 / 3, abs=1e-3)


@settings(max_examples=300, deadline=None)
@given(hyps=st.lists(SENTENCES, min_size=2, max_size=14))
def test_self_bleu_equals_its_definition(hyps):
    assert self_bleu(hyps) == self_bleu_by_definition(hyps)


@settings(max_examples=200, deadline=None)
@given(hyp=SENTENCES.filter(len),
       refs=st.lists(SENTENCES.filter(len), min_size=1, max_size=4))
def test_bleu_and_corpus_bleu_equal_the_definition(hyp, refs):
    assert bleu(hyp, refs) == bleu_by_definition(hyp, refs)
    assert corpus_bleu([hyp], [refs]) == bleu_by_definition(hyp, refs)


def test_self_bleu_needs_two():
    with pytest.raises(ValueError):
        self_bleu([["a"]])


def test_rouge_identity():
    assert rouge_l(["a", "b"], ["a", "b"]) == pytest.approx(1.0)


def test_rouge_disjoint():
    assert rouge_l(["a"], ["b"]) == 0.0


def test_rouge_hand_case():
    # LCS = 3, P = 1, R = 3/4, F1 = 6/7
    assert rouge_l(["a", "c", "d"], ["a", "b", "c", "d"]) == pytest.approx(6 / 7, abs=1e-3)


def _brute_force_lcs(hyp, ref):
    best = 0
    for r in range(len(hyp) + 1):
        for combo in itertools.combinations(range(len(hyp)), r):
            sub = [hyp[i] for i in combo]
            it = iter(ref)
            if all(tok in it for tok in sub):
                best = max(best, len(sub))
    return best


def test_rouge_matches_brute_force():
    rng = RngStream(31)
    for _ in range(25):
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        hyp = [f"t{int(i)}" for i in rng.integers(0, 4, (n1,))]
        ref = [f"t{int(i)}" for i in rng.integers(0, 4, (n2,))]
        lcs = _brute_force_lcs(hyp, ref)
        expected = 0.0
        if lcs:
            p, r = lcs / len(hyp), lcs / len(ref)
            expected = 2 * p * r / (p + r)
        assert rouge_l(hyp, ref) == pytest.approx(expected)


def test_dist1_values():
    assert dist_1(["a", "b", "c"]) == pytest.approx(1.0)
    assert dist_1(["a", "a", "b", "b"]) == pytest.approx(0.5)
    assert dist_1(["a", "a", "a"]) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        dist_1([])


def test_dist1_unity_iff_all_distinct():
    rng = RngStream(13)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        sent = [f"t{int(i)}" for i in rng.integers(0, 6, (n,))]
        v = dist_1(sent)
        assert 0 < v <= 1.0
        assert (v == 1.0) == (len(set(sent)) == len(sent))


def test_corpus_dist1_mean_over_sentences():
    assert corpus_dist_1([["a", "a"], ["a", "b"]]) == pytest.approx(0.75)


def test_mean_rank_reproduces_published_block():
    out = mean_rank(QQP_BLOCK)
    for name, expected in QQP_MEAN_RANK.items():
        assert out[name] == pytest.approx(expected, abs=0.005), name


def test_mean_rank_partial_row():
    # three present metrics ranked 2nd, 2nd, tied 3rd -> 7/3
    assert mean_rank(QQP_BLOCK)["system-e"] == pytest.approx(7 / 3)


def test_mean_rank_single_method():
    assert mean_rank({"only": {"BLEU": 0.5}}) == {"only": 1.0}


def test_mean_rank_dominant_pair():
    table = {
        "good": {"BLEU": 0.9, "Self-BLEU": 0.1},
        "bad": {"BLEU": 0.2, "Self-BLEU": 0.8},
    }
    out = mean_rank(table)
    assert out["good"] == pytest.approx(1.0)
    assert out["bad"] == pytest.approx(2.0)


def test_mean_rank_no_metrics_rejected():
    with pytest.raises(ValueError):
        mean_rank({"a": {"BLEU": None}, "b": {"BLEU": 0.3}})


def test_rank_table_csv():
    text = rank_table_csv(QQP_BLOCK)
    lines = text.strip().splitlines()
    assert lines[0] == "method,metric,value,rank"
    assert any(line.startswith("system-g,Mean-Rank,1.0") for line in lines)
    assert "system-e,ROUGE-L" not in text


def test_evaluate_corpus_rejects_non_finite_metric(monkeypatch):
    monkeypatch.setattr(metrics, "corpus_dist_1", lambda hyps: float("nan"))
    hyps = [["a", "b", "c"], ["d", "e", "f"]]
    with pytest.raises(ValueError, match="metric Dist-1 is not finite"):
        evaluate_corpus(hyps, hyps)


def test_evaluate_corpus_identity():
    hyps = [["a", "b", "c"], ["d", "e", "f"]]
    report = evaluate_corpus(hyps, hyps)
    assert report["BLEU"] == pytest.approx(1.0)
    assert report["ROUGE-L"] == pytest.approx(1.0)
