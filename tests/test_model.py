import re
import tracemalloc

import numpy as np
import pytest

from octopus import ModelConfig, Seq2SeqTransformer
from octopus.model import (
    DecoderCache,
    init_params,
    load_checkpoint,
    relative_position_bucket,
    save_checkpoint,
    _bucket_matrix,
)
from octopus.objectives import Seq2SeqBatch
from octopus.tensor import no_grad, rms_norm, take

from helpers import tiny_batch, tiny_model


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, d_model=10, n_heads=3)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, dropout_rate=1.0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0)
    # relative_position_bucket divides by zero or rejects these bucket settings
    for buckets, distance in ((7, 128), (2, 128), (32, 16)):
        with pytest.raises(ValueError, match="relpos_num_buckets"):
            ModelConfig(vocab_size=10, relpos_num_buckets=buckets, relpos_max_distance=distance)


@pytest.mark.parametrize("field, value, message", [
    ("n_heads", True, "^n_heads must be an integer$"),
    ("d_ff", 16.0, "^d_ff must be an integer$"),
    ("n_enc_layers", -1, "^n_enc_layers must be >= 0$"),
    ("max_seq_len", 0, "^max_seq_len must be >= 1$"),
    ("dropout_rate", False, r"^dropout_rate must be in \[0, 1\)$"),
    ("dropout_rate", "0.1", r"^dropout_rate must be in \[0, 1\)$"),
])
def test_config_rejects_bad_numbers(field, value, message):
    with pytest.raises(ValueError, match=message):
        ModelConfig(**{"vocab_size": 10, "d_model": 4, field: value})


def test_init_params_layout_is_pinned():
    # names in checkpoint order and values at fixed positions, so a change to
    # the block layout code cannot reorder rng draws or checkpoint entries unseen
    cfg = ModelConfig(vocab_size=12, d_model=8, n_heads=2, d_ff=16, n_enc_layers=1,
                      n_dec_layers=1, relpos_num_buckets=8, relpos_max_distance=16,
                      max_seq_len=16)
    params = init_params(cfg, seed=0)
    blocks = {"encoder": ("attn", "ff"), "decoder": ("attn", "cross", "ff")}
    weights = {"attn": ("wq", "wk", "wv", "wo"), "cross": ("wq", "wk", "wv", "wo"),
               "ff": ("wi", "wo")}
    names = ["shared.embedding"]
    for stack, sublayers in blocks.items():
        names.append(f"{stack}.relpos")
        for sub in sublayers:
            names += [f"{stack}.block0.{sub}.{w}" for w in ("norm", *weights[sub])]
        names.append(f"{stack}.final_norm")
    assert list(params) == names
    expected = {
        ("shared.embedding", (11, 7)): 1.0314531326293945,
        ("encoder.block0.attn.wq", (0, 0)): 0.05692548304796219,
        ("encoder.block0.ff.wi", (2, 9)): -0.20542603731155396,
        ("decoder.block0.attn.wo", (7, 7)): 0.03179450333118439,
        ("decoder.block0.cross.wv", (3, 1)): 0.1322861760854721,
        ("decoder.block0.ff.wo", (15, 7)): 0.06391464918851852,
    }
    for (name, idx), value in expected.items():
        assert float(params[name].data[idx]) == value, name


def test_config_json_round_trip():
    cfg = ModelConfig(vocab_size=32, d_model=16, n_heads=2)
    assert ModelConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("text", ["", "{", "vocab_size=32"])
def test_config_from_json_names_text_that_is_not_json(text):
    with pytest.raises(ValueError, match="malformed model config"):
        ModelConfig.from_json(text)


def test_encode_output_shape():
    model = tiny_model(dtype=np.float32)
    ids = np.array([[3, 4, 5, 6, 7], [3, 3, 3, 0, 0]])
    out = model.encode(ids, ids != 0)
    assert out.shape == (2, 5, 8)


def test_encode_rejects_bad_ids():
    model = tiny_model()
    with pytest.raises(ValueError):
        model.encode(np.array([[99]]), np.array([[True]]))


def test_encode_rejects_overlong():
    model = tiny_model()
    ids = np.zeros((1, 17), dtype=np.int64)
    with pytest.raises(ValueError):
        model.encode(ids, ids == 0)


def test_pad_columns_do_not_change_real_positions():
    model = tiny_model(dtype=np.float64)
    ids = np.array([[3, 4, 5]])
    mask = np.array([[True, True, True]])
    base = model.encode(ids, mask).data
    padded_ids = np.array([[3, 4, 5, 0, 0]])
    padded_mask = np.array([[True, True, True, False, False]])
    padded = model.encode(padded_ids, padded_mask).data
    assert np.allclose(base[0, :3], padded[0, :3], atol=1e-12)


def test_zero_layer_encoder_is_normed_embedding():
    cfg = ModelConfig(vocab_size=16, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=0, n_dec_layers=0, dropout_rate=0.0, max_seq_len=16)
    model = Seq2SeqTransformer(cfg, seed=4, dtype=np.float64)
    ids = np.array([[3, 5, 7]])
    out = model.encode(ids, np.ones_like(ids, dtype=bool))
    emb = take(model.params["shared.embedding"], ids)
    expect = rms_norm(emb, model.params["encoder.final_norm"])
    assert np.allclose(out.data, expect.data, atol=1e-12)


def test_decode_logits_shape():
    model = tiny_model()
    ids = np.array([[3, 4], [5, 6]])
    mask = np.ones_like(ids, dtype=bool)
    enc = model.encode(ids, mask)
    logits = model.decode_logits(enc, mask, np.array([[0, 8, 9], [0, 10, 11]]))
    assert logits.shape == (2, 3, 16)


def test_decoder_causality_brute_force():
    # perturbing the decoder input at position t changes logits only at >= t
    model = tiny_model(dtype=np.float64)
    ids = np.array([[3, 4, 5]])
    mask = np.ones_like(ids, dtype=bool)
    with no_grad():
        enc = model.encode(ids, mask)
        dec = np.array([[0, 8, 9, 10]])
        base = model.decode_logits(enc, mask, dec).data
        for t in range(1, 4):
            changed = dec.copy()
            changed[0, t] = 12
            out = model.decode_logits(enc, mask, changed).data
            assert np.allclose(out[0, :t], base[0, :t], atol=1e-12)
            assert not np.allclose(out[0, t:], base[0, t:], atol=1e-9)


def test_zeroed_cross_attention_ignores_encoder():
    model = tiny_model(dtype=np.float64)
    for name, p in model.params.items():
        if ".cross.wo" in name:
            p.data = np.zeros_like(p.data)
    mask = np.array([[True, True]])
    with no_grad():
        enc_a = model.encode(np.array([[3, 4]]), mask)
        enc_b = model.encode(np.array([[9, 10]]), mask)
        dec = np.array([[0, 5, 6]])
        la = model.decode_logits(enc_a, mask, dec).data
        lb = model.decode_logits(enc_b, mask, dec).data
    assert np.allclose(la, lb, atol=1e-12)


def test_relative_position_buckets_reference_points():
    assert relative_position_bucket(0, bidirectional=True) == 0
    assert relative_position_bucket(1, bidirectional=True) == 17
    assert relative_position_bucket(-1, bidirectional=True) == 1
    assert relative_position_bucket(0, bidirectional=False) == 0


def test_relative_position_bucket_regions():
    # exact region, then log region, then clamp
    assert relative_position_bucket(-7, False, 32, 128) == 7
    assert relative_position_bucket(-16, False, 32, 128) == 16  # start of log region
    assert relative_position_bucket(-1000, False, 32, 128) == 31
    assert relative_position_bucket(1000, True, 32, 128) == 31
    assert relative_position_bucket(-1000, True, 32, 128) == 15


def test_bucket_matrix_matches_scalar():
    mat = _bucket_matrix(6, 6, True, 8, 16)
    for q in range(6):
        for k in range(6):
            assert mat[q, k] == relative_position_bucket(k - q, True, 8, 16)
    mat = _bucket_matrix(5, 5, False, 8, 16)
    for q in range(5):
        for k in range(5):
            assert mat[q, k] == relative_position_bucket(k - q, False, 8, 16)


def test_bidirectional_needs_even_buckets():
    with pytest.raises(ValueError):
        relative_position_bucket(1, True, num_buckets=7)


def test_eval_forward_deterministic():
    model = tiny_model(dtype=np.float32)
    ids = np.array([[3, 4, 5]])
    mask = np.ones_like(ids, dtype=bool)
    a = model.encode(ids, mask).data
    b = model.encode(ids, mask).data
    assert np.array_equal(a, b)


def test_dropout_only_in_training_mode():
    model = tiny_model(dtype=np.float32, dropout=0.5)
    ids = np.array([[3, 4, 5]])
    mask = np.ones_like(ids, dtype=bool)
    a = model.encode(ids, mask, rng=np.random.default_rng(0)).data
    b = model.encode(ids, mask, rng=np.random.default_rng(1)).data
    assert not np.array_equal(a, b)
    c = model.encode(ids, mask).data
    d = model.encode(ids, mask).data
    assert np.array_equal(c, d)


# one training forward+backward of the default model on a 32 x 43 source,
# 32 x 56 target batch peaks at about 71 MB of traced allocations; a backward
# that keeps every forward intermediate until it returns, with six
# score-sized arrays per attention call, peaks at 119 MB
TRAIN_STEP_PEAK_MB = 90


def test_training_step_peak_memory():
    rng = np.random.default_rng(0)
    model = Seq2SeqTransformer(ModelConfig(vocab_size=132), seed=0)
    dec = rng.integers(3, 132, (32, 56))
    mask = np.ones((32, 43), dtype=bool)
    mask[::2, 30:] = False
    batch = Seq2SeqBatch(enc_ids=rng.integers(3, 132, (32, 43)), enc_mask=mask,
                         dec_ids=dec, target_ids=np.roll(dec, -1, axis=1))
    tracemalloc.start()
    try:
        model.batch_loss(batch, rng=np.random.default_rng(1)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in model.parameters().values())
    assert peak / 2**20 < TRAIN_STEP_PEAK_MB


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a.weight": rng.standard_normal((3, 4)).astype(np.float32),
        "b.gain": rng.standard_normal(5).astype(np.float32),
    }
    path = tmp_path / "test.octo"
    save_checkpoint(path, arrays)
    assert path.read_bytes()[:5] == b"OCTO1"
    loaded = load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.octo"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    path = tmp_path / "m.octo"
    save_checkpoint(path, {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                           "b": np.ones(4, dtype=np.float32)})
    return path


def test_checkpoint_truncated_header(tmp_path):
    path = _saved_checkpoint(tmp_path)
    saved = path.read_bytes()
    for cut, message in ((7, "no manifest length"), (12, "manifest cut short")):
        path.write_bytes(saved[:cut])  # inside the manifest length, inside the manifest
        with pytest.raises(ValueError, match=f"truncated: {message}"):
            load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:-4])  # the last float of "b"
    with pytest.raises(ValueError, match="'b'"):
        load_checkpoint(path)


def test_checkpoint_manifest_outside_payload(tmp_path):
    import json
    import struct

    data = np.zeros(4, dtype="<f4").tobytes()
    x = {"name": "x", "shape": [2], "offset": 0}
    for manifest in ([{"name": "x", "shape": [2], "offset": 12}],
                     [{"name": "x", "shape": [-1], "offset": 0}],
                     [{"name": "x", "shape": [2]}],
                     [{"name": ["x"], "shape": [2], "offset": 0}],
                     [{"name": "x", "shape": [True, 4], "offset": 0}],  # a bool is no size
                     [{"name": "x", "shape": [3], "offset": 4}],  # starts a float late
                     [x, {"name": "x", "shape": [2], "offset": 8}],  # one name twice
                     [x, {"name": "y", "shape": [1], "offset": 8}],  # 4 bytes after the last
                     [{"name": "x", "shape": [4], "offset": False}]):
        blob = json.dumps(manifest).encode()
        path = tmp_path / "bad.octo"
        path.write_bytes(b"OCTO1" + struct.pack("<I", len(blob)) + blob + data)
        with pytest.raises(ValueError):
            load_checkpoint(path)


@pytest.mark.parametrize("blob", [b"\xff\xfe[]", b"not json"], ids=["not-utf8", "not-json"])
def test_checkpoint_malformed_manifest_names_the_file(tmp_path, blob):
    import struct

    path = tmp_path / "bad.octo"
    path.write_bytes(b"OCTO1" + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} has a malformed manifest"):
        load_checkpoint(path)


@pytest.mark.parametrize("blob, length, message", [
    (b"[]", 6, "is truncated: manifest cut short"),
    (b'{"name": "x"}', 13, "has a malformed manifest"),
    (b"3", 1, "has a malformed manifest"),
], ids=["cut-short", "object", "number"])
def test_checkpoint_manifest_checks_name_the_file(tmp_path, blob, length, message):
    import struct

    path = tmp_path / "bad.octo"
    path.write_bytes(b"OCTO1" + struct.pack("<I", length) + blob)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} {message}$"):
        load_checkpoint(path)


def _biased_model():
    """float64 tiny model whose relative-position tables are not zero."""
    model = tiny_model(dtype=np.float64)
    rng = np.random.default_rng(8)
    for stack in ("encoder", "decoder"):
        table = model.params[f"{stack}.relpos"]
        table.data = rng.standard_normal(table.shape)
    return model


def _unpadded_groups(batch):
    """Each source of a padded batch alone, unpadded: one group per source,
    so the sources keep their batch row numbers."""
    return [ids[keep][None] for ids, keep in zip(batch.enc_ids, batch.enc_mask)]


def _cached_logits(model, groups, dec, rows, chunks):
    """Feed dec to a DecoderCache in column chunks; concatenated logits."""
    cache = DecoderCache(groups, rows)
    out, pos = [], 0
    for n in chunks:
        out.append(model.decode_logits(None, None, dec[:, pos:pos + n], cache=cache))
        pos += n
    assert cache.length == pos
    return np.concatenate(out, axis=1)


def test_cached_decode_matches_uncached():
    model = _biased_model()
    batch = tiny_batch()  # the second source row is padded
    rng = np.random.default_rng(4)
    dec = np.concatenate([np.zeros((2, 1), dtype=np.int64),
                          rng.integers(2, 16, size=(2, 14))], axis=1)
    with no_grad():
        enc = model.encode(batch.enc_ids, batch.enc_mask)
        full = model.decode_logits(enc, batch.enc_mask, dec).data
        groups = _unpadded_groups(batch)
        for chunks in ([1] * 15, [4, 1, 7, 3]):
            cached = _cached_logits(model, groups, dec, [0, 1], chunks)
            assert np.abs(cached - full).max() < 1e-6


def test_cache_rows_select_sources():
    # decoder rows 0 and 2 read source 1, row 1 reads source 0
    model = _biased_model()
    batch = tiny_batch()
    dec = np.array([[0, 5, 6], [0, 7, 8], [0, 9, 9]])
    with no_grad():
        cached = _cached_logits(model, _unpadded_groups(batch), dec, [1, 0, 1], [1, 1, 1])
        for row, src in enumerate([1, 0, 1]):
            mask = batch.enc_mask[src:src + 1]
            one = model.encode(batch.enc_ids[src:src + 1], mask)
            want = model.decode_logits(one, mask, dec[row:row + 1]).data[0]
            assert np.abs(cached[row] - want).max() < 1e-6


def test_cache_reorder_matches_uncached_prefixes():
    model = _biased_model()
    batch = tiny_batch()
    dec = np.array([[0, 5, 6], [0, 7, 8]])
    parents = [1, 1, 0]  # row 1 duplicated, row 0 moved last
    nxt = np.array([[9], [10], [11]])
    with no_grad():
        cache = DecoderCache(_unpadded_groups(batch), [0, 1])
        model.decode_logits(None, None, dec, cache=cache)
        cache.reorder(parents)
        assert list(cache.rows) == [1, 1, 0]
        step = model.decode_logits(None, None, nxt, cache=cache)[:, -1]
        src = np.asarray(parents)
        ref_enc = model.encode(batch.enc_ids[src], batch.enc_mask[src])
        ref = model.decode_logits(ref_enc, batch.enc_mask[src],
                                  np.concatenate([dec[src], nxt], axis=1)).data[:, -1]
    assert np.abs(step - ref).max() < 1e-6


def test_cache_over_source_groups_matches_each_group_alone():
    """Rows reading sources of different lengths share one cached step; each
    row attends to its own unpadded group and gets the exact logits of a
    decode of that group alone, also after rows are dropped and reordered."""
    model = _biased_model()
    rng = np.random.default_rng(5)
    groups = [rng.integers(2, 16, size=(n, length)) for n, length in ((2, 3), (1, 7), (2, 5))]
    rows = [4, 0, 2, 3, 1, 2]  # sources numbered across the groups: 0-1, 2, 3-4
    dec = rng.integers(2, 16, size=(len(rows), 3))
    parents = [5, 0, 0, 3]  # keep four rows, one duplicated
    cache = DecoderCache(groups, rows)
    got = [model.decode_logits(None, None, dec[:, i:i + 1], cache=cache) for i in range(2)]
    cache.reorder(parents)
    got.append(model.decode_logits(None, None, dec[parents, 2:3], cache=cache))
    for group in range(3):
        first = sum(len(g) for g in groups[:group])
        mine = [r for r, src in enumerate(rows) if first <= src < first + len(groups[group])]
        alone = DecoderCache([groups[group]], [rows[r] - first for r in mine])
        for i in range(2):
            want = model.decode_logits(None, None, dec[mine, i:i + 1], cache=alone)
            assert np.array_equal(got[i][mine], want)
        kept = [k for k, r in enumerate(parents) if r in mine]
        alone.reorder([mine.index(parents[k]) for k in kept])
        want = model.decode_logits(None, None,
                                   dec[[parents[k] for k in kept], 2:3], cache=alone)
        assert np.array_equal(got[2][kept], want)


def test_cache_holds_max_seq_len_positions_through_reorders():
    """One token at a time up to max_seq_len, with a beam-style reorder
    before every step: after each reorder a row's keys and values are its
    parent's, positions past `length` are never read (they are set to NaN),
    and every step's logits match an uncached decode of the same prefixes."""
    model = _biased_model()  # max_seq_len 16
    batch = tiny_batch()
    rng = np.random.default_rng(6)
    with no_grad():
        cache = DecoderCache(_unpadded_groups(batch), [0, 1, 1])
        prefixes = np.zeros((3, 0), dtype=np.int64)
        for t in range(model.config.max_seq_len):
            parents = rng.integers(0, 3, size=3)
            # buffers are (position, row, d_model)
            before = {name: [a[:t, :3].copy() for a in kv] for name, kv in cache.kv.items()}
            cache.reorder(parents)
            for name, kv in cache.kv.items():
                for a, old in zip(kv, before[name]):
                    assert np.array_equal(a[:t, :3], old[:, parents])
                    a[t:] = np.nan
            new = rng.integers(2, 16, size=(3, 1))
            prefixes = np.concatenate([prefixes[parents], new], axis=1)
            step = model.decode_logits(None, None, new, cache=cache)[:, -1]
            src = cache.rows
            enc = model.encode(batch.enc_ids[src], batch.enc_mask[src])
            full = model.decode_logits(enc, batch.enc_mask[src], prefixes).data[:, -1]
            assert np.abs(step - full).max() < 1e-6
    assert cache.length == model.config.max_seq_len


def test_cached_decode_calls_no_tensor_op(monkeypatch):
    """The cached branch, its encoder included, runs on plain arrays: with
    every tensor op the model uses made to raise, a cached decode gives the
    same logits."""
    from octopus import tensor

    model = _biased_model()
    groups = _unpadded_groups(tiny_batch())
    dec = np.array([[0, 5], [0, 7]])

    def run():
        cache = DecoderCache(groups, [1, 0])
        return [model.decode_logits(None, None, dec[:, i:i + 1], cache=cache)
                for i in range(dec.shape[1])]

    want = run()

    def raises(*args, **kwargs):
        raise AssertionError("a cached decode called a tensor op")

    for op in ("matmul", "rms_norm", "attention", "add", "mul", "take", "relu", "reshape",
               "transpose", "_make", "no_grad"):
        monkeypatch.setattr(tensor, op, raises)
    for got, logits in zip(run(), want):
        assert np.array_equal(got, logits)


def test_cached_decode_rejects_a_mask():
    model = _biased_model()
    batch = tiny_batch()
    with pytest.raises(ValueError, match="enc_mask"):
        model.decode_logits(None, batch.enc_mask, np.zeros((2, 1), dtype=np.int64),
                            cache=DecoderCache(_unpadded_groups(batch), [0, 1]))


def test_cache_beyond_max_seq_len_errors():
    model = _biased_model()  # max_seq_len 16
    cache = DecoderCache(_unpadded_groups(tiny_batch()), [0, 1])
    model.decode_logits(None, None, np.zeros((2, 16), dtype=np.int64), cache=cache)
    with pytest.raises(ValueError, match="max_seq_len"):
        model.decode_logits(None, None, np.zeros((2, 1), dtype=np.int64), cache=cache)


def test_model_save_load_identical_logits(tmp_path):
    model = tiny_model(dtype=np.float32)
    ids = np.array([[3, 4, 5]])
    mask = np.ones_like(ids, dtype=bool)
    with no_grad():
        enc = model.encode(ids, mask)
        before = model.decode_logits(enc, mask, np.array([[0, 8]])).data.copy()
    model.save(tmp_path / "m.octo")
    other = tiny_model(dtype=np.float32, seed=999)
    other.load(tmp_path / "m.octo")
    with no_grad():
        enc = other.encode(ids, mask)
        after = other.decode_logits(enc, mask, np.array([[0, 8]])).data
    assert np.array_equal(before, after)


def test_model_load_rejects_tensors_the_model_lacks(tmp_path):
    def model(layers):
        cfg = ModelConfig(vocab_size=16, d_model=8, n_heads=2, d_ff=16, n_enc_layers=layers,
                          n_dec_layers=layers, relpos_num_buckets=8, max_seq_len=16)
        return Seq2SeqTransformer(cfg, seed=0)

    model(2).save(tmp_path / "m.octo")
    small = model(1)
    before = {name: p.data.copy() for name, p in small.params.items()}
    with pytest.raises(ValueError, match="'decoder.block1.attn.norm'"):
        small.load(tmp_path / "m.octo")
    assert all(np.array_equal(p.data, before[name]) for name, p in small.params.items())


def test_model_load_rejects_a_checkpoint_missing_a_parameter(tmp_path):
    model = tiny_model(dtype=np.float32)
    arrays = {name: p.data for name, p in model.params.items()}
    del arrays["decoder.final_norm"]
    save_checkpoint(tmp_path / "m.octo", arrays)
    before = {name: p.data.copy() for name, p in model.params.items()}
    with pytest.raises(ValueError, match="^checkpoint missing parameter 'decoder.final_norm'$"):
        model.load(tmp_path / "m.octo")
    assert all(np.array_equal(p.data, before[name]) for name, p in model.params.items())


def test_model_load_of_a_mis_shaped_checkpoint_replaces_no_parameter(tmp_path):
    # the embedding and the first attention weights come before the first
    # feed-forward weight, whose shape differs
    def model(d_ff):
        cfg = ModelConfig(vocab_size=16, d_model=8, n_heads=2, d_ff=d_ff, relpos_num_buckets=8,
                          max_seq_len=16)
        return Seq2SeqTransformer(cfg, seed=d_ff)

    model(16).save(tmp_path / "m.octo")
    wide = model(32)
    before = {name: p.data.copy() for name, p in wide.params.items()}
    assert len(before) == 47
    with pytest.raises(ValueError, match="'encoder.block0.ff.wi'"):
        wide.load(tmp_path / "m.octo")
    assert all(np.array_equal(p.data, before[name]) for name, p in wide.params.items())


def test_batch_loss_reshapes_and_transposes_once_per_stack_not_per_layer(monkeypatch):
    """Attention splits and merges its heads inside one op, so the number
    of reshape and transpose calls of a training forward does not grow with
    the number of layers."""
    from octopus import tensor

    calls = {}
    for op in ("reshape", "transpose"):
        def counted(*args, _op=op, _fn=getattr(tensor, op)):
            calls[_op] = calls.get(_op, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(tensor, op, counted)

    def counts(layers):
        cfg = ModelConfig(vocab_size=16, d_model=8, n_heads=2, d_ff=16, n_enc_layers=layers,
                          n_dec_layers=layers, relpos_num_buckets=8, max_seq_len=16)
        calls.clear()
        Seq2SeqTransformer(cfg, seed=0).batch_loss(tiny_batch(), rng=np.random.default_rng(0))
        return dict(calls)

    assert counts(1) == counts(3)


def test_param_count_is_function_of_config():
    cfg = ModelConfig(vocab_size=16, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, relpos_num_buckets=8, max_seq_len=16)
    a = Seq2SeqTransformer(cfg, seed=0)
    b = Seq2SeqTransformer(cfg, seed=123)
    count = [sum(p.data.size for p in m.parameters().values()) for m in (a, b)]
    assert count[0] == count[1]
    # embedding + relpos tables + per-layer blocks + final norms
    emb = 16 * 8
    relpos = 2 * 2 * 8
    enc_layer = 8 + 4 * 64 + 8 + 8 * 16 + 16 * 8
    dec_layer = enc_layer + 8 + 4 * 64
    assert count[0] == emb + relpos + enc_layer + dec_layer + 2 * 8
