import hashlib

import numpy as np
import pytest

from octopus import corrupt_spans, make_batch, splice
from octopus.objectives import batch_from_ids
from octopus.vocab import build_vocab


@pytest.fixture()
def vocab():
    return build_vocab(["abcdefghijklmnopqrstuvwxyz "], max_size=200, sentinels=20)


def _tokens(vocab, n, rng):
    lo, hi = 3, 3 + len(vocab.content_tokens)
    return [int(t) for t in rng.integers(lo, hi, size=n)]


# sha256 of repr((input ids, target ids)), frozen from the implementation
# before the 15%/3 setting was fixed, when it was the default of several
PINNED = {
    (1, 0): (1, 3, "5f1a428ec3d33370"), (1, 1): (1, 3, "5f1a428ec3d33370"),
    (1, 2): (1, 3, "5f1a428ec3d33370"), (7, 0): (7, 3, "9cc8d8aa960914e2"),
    (7, 1): (7, 3, "8f8123ca7150b365"), (7, 2): (7, 3, "9cc8d8aa960914e2"),
    (40, 0): (36, 9, "ce90f8ad6b8a4ca1"), (40, 1): (36, 9, "e6ceddc94d3f155f"),
    (40, 2): (36, 9, "581d319d27584395"), (127, 0): (114, 26, "baa57c656d8a49ae"),
    (127, 1): (114, 26, "ea2f2ba8fd8c2baf"), (127, 2): (114, 26, "cbc5188d4595c27a"),
    (512, 0): (455, 98, "a508fc716ad9f54e"), (512, 1): (455, 98, "8e7a3aceaf12d1c4"),
    (512, 2): (455, 98, "55545cc586d91b7e"),
}


@pytest.mark.parametrize("n, seed", sorted(PINNED))
def test_pinned_outputs(vocab, n, seed):
    tokens = _tokens(vocab, n, np.random.default_rng(1000 + n))
    inp, tgt = corrupt_spans(tokens, vocab, np.random.default_rng(seed))
    digest = hashlib.sha256(repr((inp, tgt)).encode()).hexdigest()[:16]
    assert (len(inp), len(tgt), digest) == PINNED[n, seed]
    assert splice(inp, tgt, vocab) == tokens


@pytest.mark.parametrize("sentinels", [1, 2, 100])
def test_every_length_corrupts_and_splices_back(sentinels):
    # at the fixed rate every length fits as non-adjacent spans
    vocab = build_vocab(["abcdefghijklmnopqrstuvwxyz "], max_size=200, sentinels=sentinels)
    rng = np.random.default_rng(sentinels)
    for n in range(1, 513):
        tokens = _tokens(vocab, n, rng)
        inp, tgt = corrupt_spans(tokens, vocab, rng)
        n_spans = sum(vocab.is_sentinel(t) for t in inp)
        assert 1 <= n_spans <= sentinels
        assert splice(inp, tgt, vocab) == tokens


def test_no_sentinels_errors():
    vocab = build_vocab(["abcdefghijklmnopqrstuvwxyz "], max_size=200, sentinels=0)
    for n in (2, 40):  # a short text used to come back with nothing masked
        with pytest.raises(ValueError, match="no sentinel"):
            corrupt_spans(list(range(3, 3 + n)), vocab, np.random.default_rng(0))


def test_empty_sequence_errors(vocab):
    with pytest.raises(ValueError):
        corrupt_spans([], vocab, np.random.default_rng(0))


def test_sentinel_in_input_errors(vocab):
    with pytest.raises(ValueError):
        corrupt_spans([3, vocab.sentinel(0)], vocab, np.random.default_rng(0))


def test_sentinels_ordered_and_unique(vocab):
    rng = np.random.default_rng(4)
    for _ in range(200):
        tokens = _tokens(vocab, int(rng.integers(8, 60)), rng)
        inp, tgt = corrupt_spans(tokens, vocab, rng)
        in_sent = [vocab.sentinel_index(t) for t in inp if vocab.is_sentinel(t)]
        assert in_sent == sorted(in_sent)
        assert in_sent == list(range(len(in_sent)))
        tgt_sent = [vocab.sentinel_index(t) for t in tgt if vocab.is_sentinel(t)]
        assert tgt_sent == in_sent


def test_splice_inverts_corrupt_many(vocab):
    rng = np.random.default_rng(5)
    for _ in range(2000):
        tokens = _tokens(vocab, int(rng.integers(2, 80)), rng)
        inp, tgt = corrupt_spans(tokens, vocab, rng)
        assert splice(inp, tgt, vocab) == tokens


def test_splice_single_span(vocab):
    inp = [vocab.sentinel(0)]
    tgt = [vocab.sentinel(0), 3, 4, vocab.eos_id]
    assert splice(inp, tgt, vocab) == [3, 4]


def test_splice_tampered_target_errors(vocab):
    rng = np.random.default_rng(6)
    tokens = _tokens(vocab, 30, rng)
    inp, tgt = corrupt_spans(tokens, vocab, rng)
    broken = [t for t in tgt if t != vocab.sentinel(0)]
    with pytest.raises(ValueError):
        splice(inp, broken, vocab)


def test_masked_fraction_concentration(vocab):
    # length 512, r=0.15: average realized fraction within r +/- 0.1 r
    rng = np.random.default_rng(7)
    tokens = _tokens(vocab, 512, rng)
    fractions = []
    for seed in range(1000):
        inp, _ = corrupt_spans(tokens, vocab, np.random.default_rng(seed))
        n_sent = sum(vocab.is_sentinel(t) for t in inp)
        masked = len(tokens) - (len(inp) - n_sent)
        fractions.append(masked / len(tokens))
    mean = sum(fractions) / len(fractions)
    assert 0.15 * 0.9 <= mean <= 0.15 * 1.1


def test_make_batch_shift_right(vocab):
    batch = make_batch([("ab", "cd")], vocab, max_len=16)
    c, d = vocab.encode("cd")
    assert batch.target_ids.tolist() == [[c, d, vocab.eos_id]]
    assert batch.dec_ids.tolist() == [[vocab.pad_id, c, d]]
    assert batch.enc_ids.tolist() == [vocab.encode("ab")]
    assert batch.enc_mask.all()


def test_make_batch_padding_contract(vocab):
    batch = make_batch([("ab", "cd"), ("abcd", "efgh")], vocab, max_len=16)
    assert batch.enc_ids.shape == (2, 4)
    assert batch.enc_mask[0].tolist() == [True, True, False, False]
    # shorter target row padded with pad id, which the loss ignores
    assert batch.target_ids[0, 3:].tolist() == [vocab.pad_id, vocab.pad_id]
    # shift-right invariant everywhere
    for i in range(2):
        row_t = batch.target_ids[i]
        row_d = batch.dec_ids[i]
        assert row_d[0] == vocab.pad_id
        assert row_d[1:].tolist() == row_t[:-1].tolist()


def test_make_batch_truncates_to_max_len(vocab):
    batch = make_batch([("abcdefgh", "abcdefgh")], vocab, max_len=4)
    assert batch.enc_ids.shape[1] == 4
    assert batch.target_ids.shape[1] == 4
    assert batch.target_ids[0, -1] == vocab.eos_id


def test_batch_from_ids_ends_every_target_in_one_eos(vocab):
    a, b, c, d, e = vocab.encode("abcde")
    eos = vocab.eos_id
    batch = batch_from_ids([([a], [b, c, eos]), ([a], [b, c]), ([a], [])], vocab, max_len=8)
    assert batch.target_ids.tolist() == [[b, c, eos], [b, c, eos], [eos, 0, 0]]
    # an over-long target, with or without its eos, is cut to max_len with eos last
    for tgt in ([a, b, c, d, e], [a, b, c, d, e, eos]):
        batch = batch_from_ids([([a], tgt)], vocab, max_len=4)
        assert batch.target_ids.tolist() == [[a, b, c, eos]]


def test_make_batch_rejects_empty(vocab):
    with pytest.raises(ValueError):
        make_batch([], vocab, max_len=8)
    with pytest.raises(ValueError):
        make_batch([("", "ab")], vocab, max_len=8)


def test_batch_loss_matches_manual_cross_entropy(vocab):
    # pipeline loss equals cross_entropy computed by hand on the same logits
    import math

    from octopus import ModelConfig, Seq2SeqTransformer
    from octopus.tensor import no_grad

    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, dropout_rate=0.0, max_seq_len=16)
    model = Seq2SeqTransformer(cfg, seed=0, dtype=np.float64)
    batch = make_batch([("ab", "cd"), ("abcd", "ef")], vocab, max_len=8)
    with no_grad():
        enc = model.encode(batch.enc_ids, batch.enc_mask)
        logits = model.decode_logits(enc, batch.enc_mask, batch.dec_ids).data
        loss = float(model.batch_loss(batch).data)
    total, count = 0.0, 0
    for i in range(batch.target_ids.shape[0]):
        for t in range(batch.target_ids.shape[1]):
            tgt = batch.target_ids[i, t]
            if tgt == vocab.pad_id:
                continue
            row = logits[i, t]
            m = row.max()
            total += -(row[tgt] - m - math.log(np.exp(row - m).sum()))
            count += 1
    assert np.isclose(loss, total / count, rtol=1e-10)
