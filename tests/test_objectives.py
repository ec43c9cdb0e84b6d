import numpy as np
import pytest

from octopus import DenoisingConfig, corrupt_spans, make_batch, splice
from octopus.objectives import OverCorruptionError, batch_from_ids
from octopus.vocab import build_vocab


@pytest.fixture()
def vocab():
    return build_vocab(["abcdefghijklmnopqrstuvwxyz "], max_size=200, sentinels=20)


def _tokens(vocab, n, rng):
    lo, hi = 3, 3 + len(vocab.content_tokens)
    return [int(t) for t in rng.integers(lo, hi, size=n)]


def test_pinned_seed_regression(vocab):
    # frozen from the first run with this seed; one 3-token span at r=0.3
    cfg = DenoisingConfig(corruption_rate=0.3, mean_span_length=3.0,
                          rng=np.random.default_rng(42))
    tokens = list(range(3, 13))
    inp, tgt = corrupt_spans(tokens, vocab, cfg)
    assert len(inp) == 8
    assert sum(vocab.is_sentinel(t) for t in inp) == 1
    assert tgt[0] == vocab.sentinel(0)
    assert tgt[-1] == vocab.eos_id
    assert len(tgt) == 5
    assert splice(inp, tgt, vocab) == tokens


def test_full_mask_degenerate(vocab):
    cfg = DenoisingConfig(corruption_rate=1.0, mean_span_length=6.0,
                          rng=np.random.default_rng(0))
    tokens = _tokens(vocab, 6, np.random.default_rng(2))
    inp, tgt = corrupt_spans(tokens, vocab, cfg)
    assert inp == [vocab.sentinel(0)]
    assert tgt == [vocab.sentinel(0)] + tokens + [vocab.eos_id]


def test_over_corruption_errors(vocab):
    cfg = DenoisingConfig(corruption_rate=1.0, mean_span_length=1.0,
                          rng=np.random.default_rng(0))
    with pytest.raises(OverCorruptionError):
        corrupt_spans(_tokens(vocab, 8, np.random.default_rng(3)), vocab, cfg)


@pytest.mark.parametrize("field", [dict(corruption_rate=0.0), dict(corruption_rate=1.5),
                                   dict(mean_span_length=0.5)])
def test_config_rejects_bad_values(field):
    with pytest.raises(ValueError):
        DenoisingConfig(**field)


def test_empty_sequence_errors(vocab):
    with pytest.raises(ValueError):
        corrupt_spans([], vocab, DenoisingConfig(rng=np.random.default_rng(0)))


def test_sentinel_in_input_errors(vocab):
    with pytest.raises(ValueError):
        corrupt_spans([3, vocab.sentinel(0)], vocab, DenoisingConfig(rng=np.random.default_rng(0)))


def test_sentinels_ordered_and_unique(vocab):
    rng = np.random.default_rng(4)
    cfg = DenoisingConfig(corruption_rate=0.4, mean_span_length=2.0, rng=rng)
    for _ in range(200):
        tokens = _tokens(vocab, int(rng.integers(8, 60)), rng)
        inp, tgt = corrupt_spans(tokens, vocab, cfg)
        in_sent = [vocab.sentinel_index(t) for t in inp if vocab.is_sentinel(t)]
        assert in_sent == sorted(in_sent)
        assert in_sent == list(range(len(in_sent)))
        tgt_sent = [vocab.sentinel_index(t) for t in tgt if vocab.is_sentinel(t)]
        assert tgt_sent == in_sent


def test_splice_inverts_corrupt_many(vocab):
    rng = np.random.default_rng(5)
    cfg = DenoisingConfig(rng=rng)
    for _ in range(2000):
        tokens = _tokens(vocab, int(rng.integers(2, 80)), rng)
        inp, tgt = corrupt_spans(tokens, vocab, cfg)
        assert splice(inp, tgt, vocab) == tokens


def test_splice_single_span(vocab):
    inp = [vocab.sentinel(0)]
    tgt = [vocab.sentinel(0), 3, 4, vocab.eos_id]
    assert splice(inp, tgt, vocab) == [3, 4]


def test_splice_tampered_target_errors(vocab):
    rng = np.random.default_rng(6)
    cfg = DenoisingConfig(corruption_rate=0.4, mean_span_length=2.0, rng=rng)
    tokens = _tokens(vocab, 30, rng)
    inp, tgt = corrupt_spans(tokens, vocab, cfg)
    broken = [t for t in tgt if t != vocab.sentinel(0)]
    with pytest.raises(ValueError):
        splice(inp, broken, vocab)


def test_masked_fraction_concentration(vocab):
    # length 512, r=0.15: average realized fraction within r +/- 0.1 r
    rng = np.random.default_rng(7)
    tokens = _tokens(vocab, 512, rng)
    fractions = []
    for seed in range(1000):
        cfg = DenoisingConfig(rng=np.random.default_rng(seed))
        inp, _ = corrupt_spans(tokens, vocab, cfg)
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
