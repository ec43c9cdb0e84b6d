import json
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from octopus.metrics import EditSet, m2_f05
from octopus.tasks import (
    PREFIXES,
    REGISTRY,
    Example,
    apply_cipher,
    format_input,
    invert_cipher,
    load_jsonl,
    make_vowel_lexicon,
    normalize_prefix,
    strip_vowels,
    synth_cipher,
    synth_devowel,
    synth_gec,
    synth_structured_text,
    task_for_prefix,
)


def test_registry_has_eight_tasks_nine_prefixes():
    assert len(PREFIXES) == 9
    assert len({s.name for s in REGISTRY.values()}) == 8
    assert set(PREFIXES) == {
        "diacritize", "correct_grammar", "paraphrase", "answer_question",
        "generate_question", "summarize", "generate_title",
        "translitrate_ar2en", "translitrate_en2ar",
    }


def test_registry_metric_assignment():
    expect = {
        "diacritize": ("cer", "lower"),
        "correct_grammar": ("f05_m2", "higher"),
        "paraphrase": ("bleu", "higher"),
        "answer_question": ("token_f1", "higher"),
        "generate_question": ("bleu", "higher"),
        "summarize": ("rouge_l", "higher"),
        "generate_title": ("bleu", "higher"),
        "translitrate_ar2en": ("cer", "lower"),
        "translitrate_en2ar": ("cer", "lower"),
    }
    for prefix, (metric, direction) in expect.items():
        spec = REGISTRY[prefix]
        assert (spec.metric, spec.direction) == (metric, direction)


def test_normalize_prefix_aliases():
    assert normalize_prefix("transliterate_ar2en") == "translitrate_ar2en"
    assert normalize_prefix("correct-grammar") == "correct_grammar"
    assert normalize_prefix(" diacritize ") == "diacritize"
    with pytest.raises(ValueError):
        normalize_prefix("translate")


def test_format_input_plain():
    spec = task_for_prefix("paraphrase")
    assert format_input(spec, {"text": "T"}) == "paraphrase: T"


def test_format_input_qa_template():
    spec = task_for_prefix("answer_question")
    out = format_input(spec, {"question": "Q", "context": "C"})
    assert out == "answer_question: question: Q context: C"


def test_format_input_qg_template():
    spec = task_for_prefix("generate_question")
    out = format_input(spec, {"answer": "A", "context": "C"})
    assert out == "generate_question: answer: A context: C"


def test_format_input_missing_field_names_it():
    spec = task_for_prefix("diacritize")
    with pytest.raises(ValueError, match="text"):
        format_input(spec, {"text": ""})
    with pytest.raises(ValueError, match="question"):
        format_input(task_for_prefix("answer_question"), {"context": "C"})


def test_format_input_injective_per_task():
    spec = task_for_prefix("summarize")
    payloads = ["a", "b", "ab", "a b"]
    outs = {format_input(spec, {"text": p}) for p in payloads}
    assert len(outs) == len(payloads)


def test_load_jsonl_happy_path(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"task": "paraphrase", "source": "x", "target": "y"}\n'
        '{"task": "answer_question", "question": "q", "context": "c", "target": "a"}\n'
        '{"task": "translitrate_ar2en", "source": "ab", "target": "αβ"}\n',
        encoding="utf-8",
    )
    examples = load_jsonl(path)
    assert len(examples) == 3
    assert examples[0].model_source == "paraphrase: x"
    assert examples[1].model_source == "answer_question: question: q context: c"


def test_load_jsonl_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"task": "paraphrase", "source": "x", "target": "y"}\n'
        '{"task": "paraphrase", "source": "x"}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=":2"):
        load_jsonl(path)


def test_load_jsonl_malformed_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"task": broken\n', encoding="utf-8")
    with pytest.raises(ValueError, match=":1"):
        load_jsonl(path)


def test_load_jsonl_unknown_task(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"task": "translate", "source": "x", "target": "y"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="unknown task"):
        load_jsonl(path)


def test_load_jsonl_accepts_corrected_spelling(tmp_path):
    path = tmp_path / "alias.jsonl"
    path.write_text(
        '{"task": "transliterate_ar2en", "source": "ab", "target": "αβ"}\n',
        encoding="utf-8",
    )
    (ex,) = load_jsonl(path)
    assert ex.task == "translitrate_ar2en"


def test_jsonl_round_trip(tmp_path):
    examples = synth_cipher(5, seed=0) + synth_devowel(5, seed=1) + synth_gec(5, seed=2)
    path = tmp_path / "round.jsonl"
    keys = ("task", "target", "source", "question", "context", "answer", "gold_edits")
    path.write_text("".join(
        json.dumps({k: getattr(ex, k) for k in keys if getattr(ex, k) is not None},
                   ensure_ascii=False) + "\n" for ex in examples), encoding="utf-8")
    loaded = load_jsonl(path)
    assert loaded == examples


def test_cipher_is_fixed_bijection():
    assert apply_cipher("ab") == "αβ"
    assert invert_cipher("αβ") == "ab"


def test_synth_cipher_round_trip_property():
    for ex in synth_cipher(100, seed=3, direction="ar2en"):
        payload = ex.source
        assert apply_cipher(payload) == ex.target
        assert invert_cipher(ex.target) == payload


def test_synth_cipher_both_directions():
    out = synth_cipher(10, seed=4, direction="both")
    assert len(out) == 20
    tasks = {ex.task for ex in out}
    assert tasks == {"translitrate_ar2en", "translitrate_en2ar"}


def test_synth_cipher_deterministic():
    a = synth_cipher(20, seed=5)
    b = synth_cipher(20, seed=5)
    assert a == b


def test_synth_devowel_generator_invariant():
    for ex in synth_devowel(50, seed=6):
        assert strip_vowels(ex.target) == ex.source
        assert ex.task == "diacritize"


def test_synth_devowel_collision_errors():
    with pytest.raises(ValueError, match="collision"):
        synth_devowel(5, seed=0, lexicon=["banana", "bonono"])


def test_make_vowel_lexicon_unique_skeletons():
    lex = make_vowel_lexicon(40, seed=7)
    assert len(lex) == 40
    skeletons = [strip_vowels(w) for w in lex]
    assert len(set(skeletons)) == 40


def test_synth_gec_gold_edits_reach_target():
    for ex in synth_gec(100, seed=8):
        es = EditSet(ex.gold_edits)
        assert " ".join(es.apply(ex.source.split())) == ex.target


def test_synth_gec_perfect_hypothesis_scores_100():
    # construction matches the edit extractor's conventions exactly
    for ex in synth_gec(100, seed=9):
        assert m2_f05(ex.source, ex.target, EditSet(ex.gold_edits)) == 100.0


def test_structured_text_deterministic():
    assert synth_structured_text(5, seed=1) == synth_structured_text(5, seed=1)
    for line in synth_structured_text(10, seed=2):
        assert line.startswith("the ")


def test_finalize_rejects_empty_target():
    with pytest.raises(ValueError, match="target must be non-empty"):
        Example(task="paraphrase", source="x", target="")


def test_example_is_finalized_on_construction():
    ex = Example(task="transliterate-ar2en", source="ab", target="αβ")
    assert ex.task == "translitrate_ar2en"
    assert ex.model_source == "translitrate_ar2en: ab"
    assert replace(ex, source="cd").model_source == "translitrate_ar2en: cd"
    gec = Example(task="correct_grammar", source="a b c", target="x b",
                  gold_edits=[[2, 3, []], [0, 1, ["x"]]])
    assert gec.gold_edits == [(0, 1, ("x",)), (2, 3, ())]


def test_example_is_frozen():
    ex = Example(task="paraphrase", source="x", target="y")
    with pytest.raises(FrozenInstanceError):
        ex.source = "zzz"
    assert ex.source == "x" and ex.model_source == "paraphrase: x"


@pytest.mark.parametrize("fields, message", [
    (dict(task="translate", source="x", target="y"), "unknown task 'translate'"),
    (dict(task="answer_question", question="q", target="a"), "requires field 'context'"),
], ids=["unknown_task", "missing_qa_field"])
def test_bad_example_raises_on_construction(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Example(**fields)


@pytest.mark.parametrize("fields, message", [
    ({"task": 5, "source": "x", "target": "y"}, "'task' must be a string"),
    ({"task": "paraphrase", "source": ["a"], "target": "y"}, "'source' must be a string"),
    ({"task": "paraphrase", "source": "x", "target": 5}, "'target' must be a string"),
    ({"task": "answer_question", "question": 1, "context": "c", "target": "a"},
     "'question' must be a string"),
    ({"task": "generate_question", "answer": "a", "context": {}, "target": "q"},
     "'context' must be a string"),
    ({"task": "generate_question", "answer": True, "context": "c", "target": "q"},
     "'answer' must be a string"),
    ({"task": "correct_grammar", "source": "x", "target": "y", "gold_edits": 5}, "gold_edits"),
    ({"task": "correct_grammar", "source": "x", "target": "y", "gold_edits": [[0, 1, 5]]},
     "gold_edits"),
    ({"task": "correct_grammar", "source": "x", "target": "y", "gold_edits": [[0, 1]]},
     "gold_edits"),
    ({"task": "correct_grammar", "source": "x", "target": "y", "gold_edits": [[0, 1.5, []]]},
     "gold_edits"),
    ({"task": "correct_grammar", "source": "x", "target": "y", "gold_edits": [[0, 1, [2]]]},
     "gold_edits"),
    ({"task": "correct_grammar", "source": "a b c", "target": "y", "gold_edits": [[2, 1, ["x"]]]},
     "end < start"),
    ({"task": "correct_grammar", "source": "a b c", "target": "y",
      "gold_edits": [[0, 2, []], [1, 3, ["x"]]]}, "overlap"),
    ({"task": "correct_grammar", "source": "a b c", "target": "y", "gold_edits": [[3, 4, []]]},
     "past the source's 3 words"),
])
def test_load_jsonl_checks_field_types(tmp_path, fields, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"task": "paraphrase", "source": "x", "target": "y"}\n'
                    + json.dumps(fields) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: ") + ".*" + re.escape(message)):
        load_jsonl(path)


def test_load_jsonl_null_fields_are_absent(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"task": "paraphrase", "source": "x", "target": "y", "question": null, '
                    '"gold_edits": null}\n'
                    '{"task": "correct_grammar", "source": "a b", "target": "a c", '
                    '"gold_edits": [[1, 2, ["c"]]]}\n', encoding="utf-8")
    first, second = load_jsonl(path)
    assert first.question is None and first.gold_edits is None
    assert second.gold_edits == [(1, 2, ("c",))]
