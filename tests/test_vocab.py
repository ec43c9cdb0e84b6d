import re

import numpy as np
import pytest

from octopus.vocab import Vocabulary, build_vocab, PAD_ID, EOS_ID, UNK_ID, UNK_GLYPH


def test_frequency_order():
    vocab = build_vocab(["aab"], max_size=200)
    assert vocab.content_tokens == ["a", "b"]
    assert vocab.encode("ab") == [3, 4]


def test_singleton_corpus():
    vocab = build_vocab(["x"], max_size=200)
    assert vocab.content_tokens == ["x"]


def test_tie_break_lexicographic():
    vocab = build_vocab(["ab"], max_size=200)
    assert vocab.content_tokens == ["a", "b"]


def test_empty_corpus_errors():
    with pytest.raises(ValueError):
        build_vocab([], max_size=200)


def test_max_size_must_cover_reserved():
    with pytest.raises(ValueError):
        build_vocab(["abc"], max_size=103, sentinels=100)


def test_max_size_caps_content():
    vocab = build_vocab(["abcdef"], max_size=106, sentinels=100)
    assert vocab.content_tokens == ["a", "b", "c"]


def test_special_ids():
    vocab = build_vocab(["ab"], max_size=200)
    assert (vocab.pad_id, vocab.eos_id, vocab.unk_id) == (PAD_ID, EOS_ID, UNK_ID)


def test_sentinel_formula():
    vocab = Vocabulary(list("abc"), sentinels=100)
    size = vocab.vocab_size
    assert vocab.sentinel(0) == size - 1
    assert vocab.sentinel(1) == size - 2
    assert vocab.sentinel(99) == size - 100
    with pytest.raises(ValueError):
        vocab.sentinel(100)


def test_sentinels_strictly_decreasing_and_disjoint():
    vocab = build_vocab(["hello world"], max_size=200, sentinels=10)
    ids = [vocab.sentinel(i) for i in range(10)]
    assert ids == sorted(ids, reverse=True)
    content_ids = set(vocab.encode("".join(vocab.content_tokens)))
    assert content_ids.isdisjoint(ids)
    assert {0, 1, 2}.isdisjoint(ids)


def test_encode_empty():
    vocab = build_vocab(["ab"], max_size=200)
    assert vocab.encode("") == []


def test_round_trip():
    rng = np.random.default_rng(0)
    vocab = build_vocab(["the quick brown fox"], max_size=200)
    alphabet = vocab.content_tokens
    for _ in range(50):
        text = "".join(rng.choice(alphabet, size=rng.integers(0, 30)))
        assert vocab.decode(vocab.encode(text)) == text


def test_unknown_maps_to_unk():
    vocab = build_vocab(["ab"], max_size=200)
    ids = vocab.encode("aZb")
    assert ids[1] == UNK_ID


def test_decode_strips_pad_eos():
    vocab = build_vocab(["ab"], max_size=200)
    assert vocab.decode([PAD_ID, PAD_ID]) == ""
    assert vocab.decode([3, EOS_ID, PAD_ID]) == "a"


def test_decode_sentinel_rendering():
    vocab = build_vocab(["ab"], max_size=200)
    assert vocab.decode([vocab.sentinel(0)]) == "<extra_id_0>"
    assert vocab.decode([vocab.sentinel(7)]) == "<extra_id_7>"


def test_decode_out_of_range_errors():
    vocab = build_vocab(["ab"], max_size=200, sentinels=10)
    with pytest.raises(ValueError):
        vocab.decode([vocab.vocab_size])
    with pytest.raises(ValueError):
        vocab.decode([-1])


def test_encode_decode_encode_idempotent():
    vocab = build_vocab(["abc"], max_size=200)
    for text in ["abc", "azc", "zzz", ""]:
        ids = vocab.encode(text)
        assert vocab.encode(vocab.decode(ids)) == ids
    assert vocab.decode(vocab.encode("aZ")) == "a" + UNK_GLYPH


def test_serialization_round_trip(tmp_path):
    vocab = build_vocab(["hello world\twith tabs\nand newlines\\ok"], max_size=200, sentinels=7)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.vocab_size == vocab.vocab_size
    assert loaded.num_sentinels == vocab.num_sentinels
    assert loaded.content_tokens == vocab.content_tokens
    # bit-exact file round trip
    vocab.save(tmp_path / "again.txt")
    assert (tmp_path / "vocab.txt").read_bytes() == (tmp_path / "again.txt").read_bytes()


def test_load_rejects_a_unit_other_than_char(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("vocab_size=7\tsentinels=2\tunit=word\nab\nq\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported unit 'word'"):
        Vocabulary.load(path)


@pytest.mark.parametrize("header", ["", "vocab_size 7", "vocab_size=7\tsentinels=x\tunit=char",
                                    "vocab_size=7.0\tsentinels=2\tunit=char"],
                         ids=["empty", "no_equals", "sentinels_x", "size_float"])
def test_load_names_a_corrupt_header(tmp_path, header):
    path = tmp_path / "vocab.txt"
    path.write_text(f"{header}\nab\nq\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"corrupt vocabulary file {path}: header ")):
        Vocabulary.load(path)


def test_negative_sentinel_count_is_rejected():
    with pytest.raises(ValueError, match="sentinels must be >= 0"):
        Vocabulary(list("abc"), sentinels=-2)


@pytest.mark.parametrize("text, error", [
    ("vocab_size=7\tsentinels=2\tunit=char\nab\nab\n", "duplicate content tokens"),
    ("vocab_size=4\tsentinels=-1\tunit=char\nab\n", "the number of sentinels must be >= 0"),
], ids=["duplicate_token", "negative_sentinels"])
def test_load_names_the_file_of_a_rejected_vocabulary(tmp_path, text, error):
    path = tmp_path / "vocab.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"corrupt vocabulary file {path}: {error}")):
        Vocabulary.load(path)


def test_load_reads_hand_edited_escapes(tmp_path):
    # a lone trailing backslash stays, and an unknown escape reads as its letter
    path = tmp_path / "vocab.txt"
    path.write_text("vocab_size=7\tsentinels=2\tunit=char\nab\\\n\\q\n", encoding="utf-8")
    assert Vocabulary.load(path).content_tokens == ["ab\\", "q"]
