import itertools

import numpy as np
import pytest

from octopus.metrics import (
    EditSet,
    MetricReport,
    bleu,
    cer,
    cer_corpus,
    diacritization_fidelity,
    extract_edits,
    m2_f05,
    m2_f05_corpus,
    macro_scores,
    rouge_l,
    score_task,
    token_f1,
)

from helpers import lcs_by_enumeration, recursive_edit_distance


def test_cer_identical():
    assert cer("same", "same") == 0.0


def test_cer_hand_case():
    assert cer("kitob", "kitab") == pytest.approx(0.2)


def test_cer_full_deletion():
    assert cer("", "ab") == 1.0


def test_cer_empty_reference_errors():
    with pytest.raises(ValueError):
        cer("x", "")


def test_cer_against_recursive_oracle_small():
    strings = [""]
    for n in range(1, 5):
        strings += ["".join(p) for p in itertools.product("abc", repeat=n)]
    memo = {}
    for a in strings:
        for b in strings:
            if not b:
                continue
            assert cer(a, b) == recursive_edit_distance(a, b, memo) / len(b)


def test_cer_corpus_pools_edits():
    # total edits / total reference characters, not a mean of rates
    assert cer_corpus(["a", "xyz"], ["ab", "xyz"]) == pytest.approx(1 / 5)


def test_bleu_perfect():
    refs = ["the cat sat on the mat", "a b c d"]
    assert bleu(refs, refs) == pytest.approx(100.0)


def test_bleu_hand_vector():
    score = bleu(["a b c d e"], ["a b c d"])
    assert score == pytest.approx(66.87, abs=0.01)


def test_bleu_zero_precision_clips():
    assert bleu(["w x y z"], ["a b c d"]) == 0.0
    # 4-gram overlap missing entirely
    assert bleu(["a b x c d"], ["a b c d e f"]) == 0.0


def test_bleu_brevity_penalty():
    import math

    # hyp 4 tokens vs ref 5: every modified precision is 1, so only the
    # brevity penalty exp(1 - 5/4) remains
    score = bleu(["a b c d"], ["a b c d e"])
    assert score == pytest.approx(100.0 * math.exp(1 - 5 / 4))


def test_bleu_empty_corpus_errors():
    with pytest.raises(ValueError):
        bleu([], [])


def test_rouge_l_identical():
    assert rouge_l("x y z", "x y z") == pytest.approx(100.0)


def test_rouge_l_hand_case():
    assert rouge_l("a b c", "a c") == pytest.approx(80.0)


def test_rouge_l_disjoint():
    assert rouge_l("a b", "c d") == 0.0


def test_rouge_l_empty_reference_errors():
    with pytest.raises(ValueError):
        rouge_l("a", "")


def test_rouge_lcs_against_enumeration_oracle():
    rng = np.random.default_rng(0)
    alphabet = list("pqrs")
    from octopus.metrics import _lcs_len

    for _ in range(200):
        a = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 9))]
        b = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 9))]
        assert _lcs_len(a, b) == lcs_by_enumeration(a, b)


def test_token_f1_exact():
    assert token_f1("the cat", "the cat") == pytest.approx(100.0)


def test_token_f1_hand_case():
    assert token_f1("the cat", "cat") == pytest.approx(66.67, abs=0.01)


def test_token_f1_both_empty():
    assert token_f1("", "") == 100.0


def test_metamorphic_identities():
    rng = np.random.default_rng(1)
    words = ["alpha", "beta", "gamma", "delta"]
    for _ in range(30):
        text = " ".join(words[i] for i in rng.integers(0, 4, size=rng.integers(1, 8)))
        assert bleu([text], [text]) == pytest.approx(100.0)
        assert token_f1(text, text) == pytest.approx(100.0)
        assert cer(text, text) == 0.0
        assert rouge_l(text, text) == pytest.approx(100.0)


def test_extract_edits_substitution_and_merge():
    assert extract_edits("a b c", "a x c") == [(1, 2, ("x",))]
    assert extract_edits("a b c d", "a x y d") == [(1, 3, ("x", "y"))]


def test_extract_edits_insertion_and_deletion():
    assert extract_edits("a c", "a b c") == [(1, 1, ("b",))]
    assert extract_edits("a b c", "a c") == [(1, 2, ())]


def test_extract_edits_no_difference():
    assert extract_edits("a b", "a b") == []


def test_edit_set_validation():
    with pytest.raises(ValueError):
        EditSet([(2, 1, ())])
    with pytest.raises(ValueError):
        EditSet([(0, 2, ("x",)), (1, 3, ("y",))])
    es = EditSet([(3, 4, ("z",)), (0, 1, ())])
    assert es.edits[0][0] == 0  # sorted


def test_edit_set_apply():
    es = EditSet([(1, 2, ("x",)), (3, 3, ("q",))])
    assert es.apply("a b c d".split()) == ["a", "x", "c", "q", "d"]


def test_m2_all_gold_applied():
    source = "a b c d"
    gold = EditSet([(1, 2, ("x",)), (3, 4, ())])
    hyp = " ".join(gold.apply(source.split()))
    assert m2_f05(source, hyp, gold) == pytest.approx(100.0)


def test_m2_half_recall():
    # apply 1 of 2 gold edits: P=1, R=0.5 -> F0.5 = 83.33
    source = "a b c d e"
    gold = EditSet([(1, 2, ("x",)), (3, 4, ("y",))])
    hyp = " ".join(EditSet([(1, 2, ("x",))]).apply(source.split()))
    assert m2_f05(source, hyp, gold) == pytest.approx(83.33, abs=0.01)


def test_m2_unchanged_hypothesis_scores_zero():
    source = "a b c"
    gold = EditSet([(0, 1, ("x",))])
    assert m2_f05(source, source, gold) == 0.0


def test_m2_no_edits_either_side():
    assert m2_f05("a b", "a b", EditSet([])) == 100.0
    assert m2_f05("a b", "a x", EditSet([])) == 0.0


def test_m2_invariant_to_untouched_tokens():
    # changing nothing outside the edited span keeps the score
    source = "p q r s t"
    gold = EditSet([(2, 3, ("x",))])
    hyp = " ".join(gold.apply(source.split()))
    assert m2_f05(source, hyp, gold) == 100.0


def test_m2_corpus_pools_counts():
    sources = ["a b", "c d"]
    golds = [EditSet([(0, 1, ("x",))]), EditSet([(1, 2, ("y",))])]
    hyps = ["x b", "c d"]  # first fixed, second untouched
    # pooled: tp=1, sys=1, gold=2 -> P=1, R=0.5
    assert m2_f05_corpus(sources, hyps, golds) == pytest.approx(83.33, abs=0.01)


def test_macro_scores_hand_example():
    reports = [
        MetricReport("d1", "bleu", "higher", 50.0),
        MetricReport("d2", "rouge_l", "higher", 70.0),
        MetricReport("d3", "cer", "lower", 2.0),
        MetricReport("d4", "cer", "lower", 4.0),
    ]
    assert macro_scores(reports) == (60.0, 3.0)


def test_macro_scores_single_sided():
    reports = [MetricReport("d", "bleu", "higher", 42.0)]
    h, l = macro_scores(reports)
    assert h == 42.0 and l is None


def test_macro_scores_empty_errors():
    with pytest.raises(ValueError):
        macro_scores([])


def test_diacritization_fidelity_perfect():
    assert diacritization_fidelity("bnr tkl", "banara takeli", set("aeiou")) == 1.0


def test_diacritization_fidelity_one_of_four_altered():
    src = "bnr tkl pgs mdf"
    hyp = "banara takeli XXX madafo"
    assert diacritization_fidelity(src, hyp, set("aeiou")) == pytest.approx(0.75)


def test_diacritization_fidelity_empty_hypothesis():
    assert diacritization_fidelity("bnr", "", set("aeiou")) == 0.0


def test_score_task_rejects_an_unknown_metric_and_f05_without_gold_edits():
    with pytest.raises(ValueError, match="unknown metric 'meteor'"):
        score_task("meteor", ["a"], ["a"])
    with pytest.raises(ValueError, match="f05_m2 scoring needs sources and gold edit sets"):
        score_task("f05_m2", ["a b"], ["a b"], sources=["b a"])
