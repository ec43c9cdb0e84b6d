from dataclasses import replace

import numpy as np
import pytest

from octopus import DecodeConfig, beam_search, block_repeat_ngrams, generate, sample_step
from octopus.decoding import (_sample_choose, _sample_rows, generate_batch, greedy_decode_batch,
                              greedy_search, sampling_search)
from octopus.model import DecoderCache
from octopus.tensor import no_grad
from octopus.vocab import build_vocab
from octopus import ModelConfig, Seq2SeqTransformer

from helpers import brute_force_best, toy_step_fn


def test_config_validation():
    cfg = DecodeConfig(method="beam", nbeam=5, max_outputs=3)
    with pytest.raises(ValueError, match="unknown decoding method"):
        DecodeConfig(method="magic")
    with pytest.raises(ValueError, match="nbeam must be >= max_outputs"):
        DecodeConfig(method="beam", nbeam=2, max_outputs=3)
    with pytest.raises(ValueError, match="top_p"):
        DecodeConfig(top_p=0.0)
    with pytest.raises(ValueError, match="seq_length"):
        DecodeConfig(seq_length=0)
    with pytest.raises(ValueError, match="nbeam must be >= max_outputs"):
        replace(cfg, max_outputs=6)
    # numpy would reject a negative seed only at the first draw, naming no field
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        DecodeConfig("sampling", seed=-1)


@pytest.mark.parametrize("method", ["greedy", "beam", "sampling"])
@pytest.mark.parametrize("nbeam", [0, -3])
def test_config_rejects_nbeam_below_one_for_every_method(method, nbeam):
    # greedy and sampling never read nbeam, but a width below one is still a bad value
    with pytest.raises(ValueError, match="^nbeam must be >= 1$"):
        DecodeConfig(method, nbeam=nbeam, max_outputs=1)


@pytest.mark.parametrize("value", [5.0, 2.5, "5", True])
@pytest.mark.parametrize("field", ["nbeam", "max_outputs", "seq_length", "no_repeat_ngram_size",
                                   "top_k", "seed"])
def test_config_rejects_non_integer_counts(field, value):
    # each value passes the range checks, or failed them with a bare TypeError
    with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
        DecodeConfig(**{field: value})


@pytest.mark.parametrize("value", ["0.9", True])
def test_config_rejects_a_non_number_top_p(value):
    with pytest.raises(ValueError, match=r"^top_p must be in \(0, 1\]$"):
        DecodeConfig("sampling", top_p=value)


def test_sampling_config_rejects_top_p_zero():
    # sampling_search does not re-check its config; with top_p 0 it would sample greedily
    with pytest.raises(ValueError, match="top_p"):
        DecodeConfig(method="sampling", top_p=0.0)


def _two_step_table():
    """The worked toy example: A=1, B=2, eos=0.

    step 1: p = (A: 0.6, B: 0.4); after A: p(eos) = 0.5, rest split;
    after B: p(eos) = 0.9, rest split.
    """

    def step(prefix):
        if prefix == ():
            p = np.array([1e-9, 0.6, 0.4])
        elif prefix[-1] == 1:
            p = np.array([0.5, 0.3, 0.2])
        else:
            p = np.array([0.9, 0.05, 0.05])
        return np.log(p / p.sum())

    return step


def test_beam_toy_example():
    # best finished hypothesis is [B, eos] with prob 0.36 over [A, eos] 0.30
    hyps = beam_search(_two_step_table(), nbeam=2, max_len=2, eos_id=0)
    assert hyps[0].ids == [2, 0]
    assert np.isclose(np.exp(hyps[0].logprob), 0.36, atol=1e-6)
    assert hyps[1].ids == [1, 0]
    assert np.isclose(np.exp(hyps[1].logprob), 0.30, atol=1e-6)


def test_beam_deterministic_chain():
    # one certain token per step: a single path regardless of beam width
    def step(prefix):
        p = np.full(3, 1e-12)
        p[1 if len(prefix) < 2 else 0] = 1.0
        return np.log(p / p.sum())

    for nbeam in (1, 3, 8):
        hyps = beam_search(step, nbeam=nbeam, max_len=5, eos_id=0)
        assert hyps[0].ids == [1, 1, 0]


def test_beam_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(60):
        v = int(rng.integers(3, 6))
        max_len = int(rng.integers(2, 5))
        step = toy_step_fn(int(rng.integers(1 << 30)), v)
        best_ids, best_lp = brute_force_best(step, v, max_len)
        hyps = beam_search(step, nbeam=v**max_len, max_len=max_len, eos_id=0)
        assert hyps[0].ids == best_ids
        assert np.isclose(hyps[0].logprob, best_lp, atol=1e-9)


def test_beam_width_one_equals_greedy():
    rng = np.random.default_rng(1)
    for trial in range(40):
        v = int(rng.integers(3, 6))
        step = toy_step_fn(int(rng.integers(1 << 30)), v)
        greedy = greedy_search(step, max_len=6, eos_id=0)
        beam = beam_search(step, nbeam=1, max_len=6, eos_id=0)
        assert beam[0].ids == greedy.ids


def test_beam_invariant_under_probability_rescaling():
    step = toy_step_fn(123, 4)

    def rescaled(prefix):
        return step(prefix) + np.log(3.7)  # scale all probabilities by 3.7

    a = beam_search(step, nbeam=6, max_len=4, eos_id=0)
    b = beam_search(rescaled, nbeam=6, max_len=4, eos_id=0)
    assert [h.ids for h in a] == [h.ids for h in b]


def test_hypothesis_logprob_nonpositive():
    hyps = beam_search(toy_step_fn(5, 4), nbeam=4, max_len=4, eos_id=0)
    assert all(h.logprob <= 0 for h in hyps)
    assert all(len(h.ids) <= 4 for h in hyps)


def test_block_repeat_ngrams_definition():
    lp = np.zeros(4)
    out = block_repeat_ngrams(lp, [1, 2, 1], 2)
    assert np.isneginf(out[2])  # bigram (1, 2) already seen, suffix is 1
    assert np.isfinite(out[1]) and np.isfinite(out[3])


def test_block_repeat_ngrams_disabled_and_short():
    lp = np.zeros(4)
    assert np.array_equal(block_repeat_ngrams(lp, [1, 2, 1], 0), lp)
    assert np.array_equal(block_repeat_ngrams(lp, [], 2), lp)
    assert np.array_equal(block_repeat_ngrams(lp, [1], 3), lp)


def test_block_repeat_unigrams():
    out = block_repeat_ngrams(np.zeros(4), [2, 3], 1)
    assert np.isneginf(out[2]) and np.isneginf(out[3])
    assert np.isfinite(out[0]) and np.isfinite(out[1])


def test_sample_step_top_k_one_is_argmax():
    rng = np.random.default_rng(0)
    lp = np.log(np.array([0.1, 0.5, 0.4]))
    for _ in range(20):
        assert sample_step(lp, top_k=1, top_p=1.0, rng=rng) == 1


def test_sample_step_full_distribution_frequencies():
    rng = np.random.default_rng(1)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    counts = np.zeros(4)
    n = 100_000
    for _ in range(n):
        counts[sample_step(np.log(p), 0, 1.0, rng)] += 1
    assert np.abs(counts / n - p).max() < 0.01


def test_sample_step_nucleus_support():
    # p = (0.5, 0.3, 0.2), top_p = 0.7: mass crosses 0.7 at the second token
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(300):
        seen.add(sample_step(np.log([0.5, 0.3, 0.2]), 0, 0.7, rng))
    assert seen == {0, 1}


def test_sample_step_k_then_p_composition():
    # without k, top_p=0.9 needs all three tokens; k=2 first drops token 2,
    # and the remaining mass (0.8) never reaches 0.9, so both survivors stay
    rng = np.random.default_rng(3)
    lp = np.log([0.5, 0.3, 0.2])
    no_k = {sample_step(lp, 0, 0.9, rng) for _ in range(400)}
    assert no_k == {0, 1, 2}
    with_k = {sample_step(lp, 2, 0.9, rng) for _ in range(400)}
    assert with_k == {0, 1}
    # exact-boundary case: mass 0.5 >= 0.5 at the first token alone
    only_first = {sample_step(lp, 2, 0.5, rng) for _ in range(100)}
    assert only_first == {0}


def test_sampling_reproducible():
    step = toy_step_fn(9, 4)
    cfg = DecodeConfig(method="sampling", seq_length=6, seed=77)
    a = sampling_search(step, cfg, eos_id=0, draw_index=2)
    b = sampling_search(step, cfg, eos_id=0, draw_index=2)
    assert a.ids == b.ids and a.logprob == b.logprob
    c = sampling_search(step, cfg, eos_id=0, draw_index=3)
    assert c.ids != a.ids or c.logprob != a.logprob


@pytest.fixture(scope="module")
def tiny_setup():
    vocab = build_vocab(["abcdef"], max_size=40, sentinels=4)
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=1, dropout_rate=0.0, max_seq_len=24)
    model = Seq2SeqTransformer(cfg, seed=5)
    return model, vocab


def test_generate_greedy_single_hypothesis(tiny_setup):
    model, vocab = tiny_setup
    out = generate(model, vocab, vocab.encode("abc"), DecodeConfig(method="greedy", max_outputs=3, seq_length=8))
    assert len(out) == 1


def test_generate_beam_one_matches_greedy(tiny_setup):
    model, vocab = tiny_setup
    src = vocab.encode("abc")
    greedy = generate(model, vocab, src, DecodeConfig(method="greedy", seq_length=8))
    beam = generate(model, vocab, src, DecodeConfig(method="beam", nbeam=1, max_outputs=1, seq_length=8))
    assert beam[0].ids == greedy[0].ids


def test_generate_respects_seq_length(tiny_setup):
    model, vocab = tiny_setup
    for method in ("greedy", "beam", "sampling"):
        cfg = DecodeConfig(method=method, nbeam=3, max_outputs=2, seq_length=3)
        if method == "greedy":
            cfg = DecodeConfig(method=method, seq_length=3)
        for h in generate(model, vocab, vocab.encode("ab"), cfg):
            assert len(h.ids) <= 3


def test_generate_no_repeat_ngram_holds_on_outputs(tiny_setup):
    model, vocab = tiny_setup
    cfg = DecodeConfig(method="sampling", max_outputs=4, seq_length=12,
                       no_repeat_ngram_size=2, seed=3)
    for h in generate(model, vocab, vocab.encode("abcd"), cfg):
        grams = [tuple(h.ids[i:i + 2]) for i in range(len(h.ids) - 1)]
        assert len(grams) == len(set(grams))


def test_generate_sampling_count_and_reproducible(tiny_setup):
    model, vocab = tiny_setup
    cfg = DecodeConfig(method="sampling", max_outputs=3, seq_length=6, seed=11)
    a = generate(model, vocab, vocab.encode("ab"), cfg)
    b = generate(model, vocab, vocab.encode("ab"), cfg)
    assert len(a) == 3
    assert [h.ids for h in a] == [h.ids for h in b]


@pytest.fixture(scope="module")
def f64_setup():
    vocab = build_vocab(["abcdef"], max_size=40, sentinels=4)
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=2, dropout_rate=0.0, max_seq_len=24)
    models = [Seq2SeqTransformer(cfg, seed=seed, dtype=np.float64) for seed in range(4)]
    return models, vocab, [vocab.encode(t) for t in ("abc", "f", "edcba", "bb")]


def _full_prefix_step(model, vocab, source):
    """prefix -> next-token log-probs, re-running the whole prefix uncached."""
    src = np.asarray([source])
    mask = np.ones_like(src, dtype=bool)
    with no_grad():
        enc = model.encode(src, mask)

    def step(prefix):
        with no_grad():
            logits = model.decode_logits(enc, mask, np.asarray([[vocab.pad_id, *prefix]]))
        row = logits.data[0, -1]
        return row - row.max() - np.log(np.exp(row - row.max()).sum())

    return step


def _reference_beam(step, nbeam, max_len, eos_id, ngram):
    """Per-beam beam search: one model call per live beam per step."""
    live, pool = [(0.0, ())], []
    for _ in range(max_len):
        cands = []
        for logprob, ids in live:
            lp = block_repeat_ngrams(step(ids), ids, ngram)
            cands += [(logprob + lp[t], ids + (t,)) for t in range(len(lp)) if lp[t] > -np.inf]
        cands.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for logprob, ids in cands[:nbeam]:
            (pool if ids[-1] == eos_id else live).append((logprob, ids))
        if len(pool) >= nbeam or not live:
            break
    hyps = [(lp, ids, True) for lp, ids in pool] + [(lp, ids, False) for lp, ids in live]
    hyps.sort(key=lambda h: (-h[0] / len(h[1]), h[1]))
    return hyps


def test_batched_beam_matches_per_beam_reference(f64_setup):
    models, vocab, sources = f64_setup
    finished = capped = 0
    for model in models:
        for src in sources:
            for nbeam, ngram in ((5, 0), (3, 2)):
                cfg = DecodeConfig(method="beam", nbeam=nbeam, max_outputs=nbeam,
                                   seq_length=12, no_repeat_ngram_size=ngram)
                got = generate(model, vocab, src, cfg)
                want = _reference_beam(_full_prefix_step(model, vocab, src), nbeam, 12,
                                       vocab.eos_id, ngram)[:nbeam]
                assert [h.ids for h in got] == [list(ids) for _, ids, _ in want]
                assert [h.finished for h in got] == [f for _, _, f in want]
                assert np.allclose([h.logprob for h in got], [lp for lp, _, _ in want],
                                   rtol=0, atol=1e-9)
                finished += sum(h.finished for h in got)
                capped += sum(not h.finished for h in got)
    assert finished and capped  # both ways a hypothesis can end are covered


def test_greedy_decode_batch_matches_one_source_greedy(f64_setup):
    models, vocab, sources = f64_setup  # sources differ in length: padded rows
    for model in models:
        for ngram in (0, 2):
            cfg = DecodeConfig(method="greedy", seq_length=12, no_repeat_ngram_size=ngram)
            if ngram:
                batch = [h.ids[:-1] if h.finished else h.ids
                         for (h,) in generate_batch(model, vocab, sources, cfg, len(sources))]
            else:
                batch = greedy_decode_batch(model, vocab, sources, 12)
            for src, ids in zip(sources, batch):
                (hyp,) = generate(model, vocab, src, cfg)
                assert ids == (hyp.ids[:-1] if hyp.finished else hyp.ids)


def test_batched_sampling_matches_per_draw_sampling(f64_setup):
    models, vocab, sources = f64_setup
    for model in models[:2]:
        for src in sources:
            cfg = DecodeConfig(method="sampling", max_outputs=3, seq_length=10, top_k=6, seed=5)
            got = generate(model, vocab, src, cfg)
            step = _full_prefix_step(model, vocab, src)
            for draw, hyp in enumerate(got):
                want = sampling_search(step, cfg, vocab.eos_id, draw)
                assert hyp.ids == want.ids and hyp.finished == want.finished
                assert abs(hyp.logprob - want.logprob) < 1e-9


BATCH_CONFIGS = (
    DecodeConfig(method="beam", seq_length=10),
    DecodeConfig(method="beam", nbeam=3, max_outputs=2, seq_length=10, no_repeat_ngram_size=2),
    DecodeConfig(method="greedy", seq_length=10),
    DecodeConfig(method="sampling", max_outputs=3, seq_length=10, top_k=6, seed=5),
)


@pytest.mark.parametrize("cfg", BATCH_CONFIGS, ids=["beam5", "beam3-ng2", "greedy", "sampling"])
def test_generate_batch_equals_per_source_generate(tiny_setup, f64_setup, cfg):
    """Same-length sources share a search, never padded: every source gets
    exactly the hypotheses of a one-source decode, in input order."""
    texts = ("abc", "f", "edcba", "bb", "cab", "a", "fe", "dd", "bcd", "eabcd")
    for model, vocab in (tiny_setup, (f64_setup[0][1], f64_setup[1])):
        sources = [vocab.encode(t) for t in texts]
        want = [[(h.ids, h.logprob, h.finished) for h in generate(model, vocab, src, cfg)]
                for src in sources]
        for batch_size in (1, 3, 8):
            got = generate_batch(model, vocab, sources, cfg, batch_size)
            assert [[(h.ids, h.logprob, h.finished) for h in hyps] for hyps in got] == want


def test_generate_batch_shares_steps_across_lengths(tiny_setup, monkeypatch):
    """Sources of different lengths in one chunk advance together: a greedy
    chunk costs one model call per token, not one per distinct length."""
    model, vocab = tiny_setup
    sources = [vocab.encode(t) for t in ("a", "bc", "def", "abcd", "bcdef", "f")]
    calls = []
    decode = model.decode_logits
    monkeypatch.setattr(model, "decode_logits",
                        lambda *a, **k: calls.append(1) or decode(*a, **k))
    generate_batch(model, vocab, sources, DecodeConfig(method="greedy", seq_length=5), 8)
    assert 1 <= len(calls) <= 5
    calls.clear()
    generate_batch(model, vocab, sources, DecodeConfig(method="greedy", seq_length=5), 1)
    assert len(calls) > 5


def test_generate_batch_rejects_batch_size_below_one(tiny_setup):
    model, vocab = tiny_setup
    with pytest.raises(ValueError, match="batch_size"):
        generate_batch(model, vocab, [[3, 4]], DecodeConfig(method="greedy"), 0)


def test_generate_batch_no_sources(tiny_setup):
    model, vocab = tiny_setup
    assert generate_batch(model, vocab, [], DecodeConfig()) == []


def test_empty_source_is_named_before_encoding(tiny_setup, monkeypatch):
    model, vocab = tiny_setup
    monkeypatch.setattr(model, "encode", lambda *a: pytest.fail("encoded an empty source"))
    with pytest.raises(ValueError, match="source 2 is empty"):
        generate_batch(model, vocab, [[3, 4], [5], [], [6]], DecodeConfig(method="greedy"))
    with pytest.raises(ValueError, match="source 0 is empty"):
        generate(model, vocab, [], DecodeConfig())


# ---- the row-batched draw against one Generator.choice per row ----

def _choice_draw(lp, top_k, top_p, rng):
    """One row's draw written out directly: filter, renormalise, Generator.choice."""
    probs = np.exp(lp - lp.max())
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    if top_k > 0:
        order = order[:top_k]
    if top_p < 1.0:
        order = order[:int(np.searchsorted(np.cumsum(probs[order]), top_p)) + 1]
    kept = probs[order]
    return int(order[rng.choice(len(order), p=kept / kept.sum())])


def _random_logprobs(g, rows, v, blocked=0.0):
    lp = g.standard_normal((rows, v)) * g.choice([0.3, 1.0, 4.0])
    lp[g.random((rows, v)) < blocked] = -np.inf  # as the n-gram blocker leaves them
    lp[np.arange(rows), g.integers(v, size=rows)] = 0.0  # at least one token per row
    return lp - np.log(np.exp(lp).sum(axis=1, keepdims=True))


@pytest.mark.parametrize("top_k, top_p", [(0, 1.0), (4, 1.0), (0, 0.9), (4, 0.9)],
                         ids=["neither", "top_k", "top_p", "both"])
def test_batched_draw_equals_per_row_choice(top_k, top_p):
    g = np.random.default_rng(top_k + int(top_p * 10))
    for trial in range(150):
        rows, v = int(g.integers(1, 7)), int(g.choice([2, 5, 40, 139]))
        lp = _random_logprobs(g, rows, v, blocked=g.choice([0.0, 0.5]))
        seeds = g.integers(1 << 30, size=rows)
        batched = [np.random.default_rng(s) for s in seeds]
        per_row = [np.random.default_rng(s) for s in seeds]
        for step in range(4):
            got = _sample_rows(lp, top_k, top_p, batched)
            assert got.tolist() == [_choice_draw(row, top_k, top_p, rng)
                                    for row, rng in zip(lp, per_row)]
            assert all(np.isfinite(lp[r, tok]) for r, tok in enumerate(got))
        # each row drew exactly one uniform per step from its own generator
        assert [a.random() for a in batched] == [b.random() for b in per_row]


@pytest.mark.parametrize("top_k, top_p", [(0, 1.0), (3, 1.0), (0, 0.6), (3, 0.6)])
def test_batched_draw_breaks_ties_like_choice(top_k, top_p):
    # equal probabilities sort to the lower token id, then the cdf picks among them
    with np.errstate(divide="ignore"):  # log(0) = -inf: a blocked token
        lp = np.log([[0.1, 0.2, 0.2, 0.2, 0.2, 0.1],
                     [0.25, 0.25, 0.25, 0.25, 0.0, 0.0],
                     [0.5, 0.0, 0.0, 0.0, 0.0, 0.5]])
    batched = [np.random.default_rng(s) for s in range(3)]
    per_row = [np.random.default_rng(s) for s in range(3)]
    seen = set()
    for _ in range(300):
        got = _sample_rows(lp, top_k, top_p, batched).tolist()
        assert got == [_choice_draw(row, top_k, top_p, rng) for row, rng in zip(lp, per_row)]
        seen.update(enumerate(got))
    if (top_k, top_p) == (3, 1.0):
        assert {tok for r, tok in seen if r == 0} == {1, 2, 3}  # the tied 0.2s, lowest ids first


def test_batched_draw_serves_several_searches_per_step():
    # live rows of four searches, one generator each: every row draws from its search's
    g = np.random.default_rng(21)
    lp = _random_logprobs(g, 4, 30, blocked=0.3)
    live = [(search, -float(search), (5, search), search) for search in (2, 0, 3, 1)]
    cfg = DecodeConfig("sampling", top_k=8, top_p=0.95)
    rngs = [np.random.default_rng((4, d)) for d in range(4)]
    want_rngs = [np.random.default_rng((4, d)) for d in range(4)]
    for _ in range(3):
        picked = _sample_choose(lp, live, cfg, rngs)
        assert list(picked) == [2, 0, 3, 1]
        for r, (search, logprob, ids, _) in enumerate(live):
            tok = _choice_draw(lp[r], 8, 0.95, want_rngs[search])
            assert picked[search] == [(search, logprob + float(lp[r, tok]), ids + (tok,), r)]


def test_batched_draw_with_no_token_left_raises():
    lp = np.zeros((3, 4))
    lp[1] = -np.inf
    with pytest.raises(ValueError, match="no tokens available to sample"):
        _sample_rows(lp, 0, 1.0, [np.random.default_rng(s) for s in range(3)])
    with pytest.raises(ValueError, match="no tokens available to sample"):
        sample_step(np.full(4, -np.inf), 2, 0.9, np.random.default_rng(0))
    for bad in (np.nan, np.inf):  # no distribution to draw from, not a silent token
        with pytest.raises(ValueError, match="no tokens available to sample"):
            sample_step(np.array([0.0, bad, -1.0]), 0, 1.0, np.random.default_rng(0))


# ---- cross-attention reads of the decoder cache ----

def test_decoder_cache_rows_of_one_source_read_a_one_row_slice(tiny_setup):
    model, vocab = tiny_setup
    groups = [[vocab.encode("abc")], [vocab.encode("fe"), vocab.encode("dd")]]
    # rows 0-2 are three beams of the first group's one source; rows 3-5 mix two sources
    cache = DecoderCache(groups, [0, 0, 0, 1, 2, 2])
    (g0, sel0, loc0), (g1, sel1, loc1) = cache.row_groups()
    assert (g0, sel0, loc0) == (0, slice(0, 3), slice(0, 1))
    assert g1 == 1 and sel1 == slice(3, 6) and loc1.tolist() == [0, 1, 1]
    # two groups whose rows each read one source, the second not the group's first
    one_each = DecoderCache(groups, [0, 0, 2, 2])
    assert [loc for _, _, loc in one_each.row_groups()] == [slice(0, 1), slice(1, 2)]

    def gathered(cache):
        """row_groups with every one-row slice written out as the index array it stands for."""
        out = []
        for g, sel, loc in DecoderCache.row_groups(cache):
            n = len(cache.rows[sel])
            out.append((g, sel, np.full(n, loc.start) if isinstance(loc, slice) else loc))
        return out

    for rows in ([0, 0, 0, 1, 2, 2], [0, 0, 2, 2]):
        sliced, gather = DecoderCache(groups, rows), DecoderCache(groups, rows)
        gather.row_groups = lambda cache=gather: gathered(cache)
        assert any(isinstance(loc, np.ndarray) and len(set(loc.tolist())) == 1
                   for _, _, loc in gather.row_groups())
        tokens = np.full((len(rows), 1), vocab.pad_id)
        for step in range(4):
            a, b = (model.decode_logits(None, None, tokens, cache=c) for c in (sliced, gather))
            assert np.array_equal(a, b)
            tokens = a[:, -1:].argmax(axis=-1)
