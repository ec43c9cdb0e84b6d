"""Inference-time search: greedy, beam, and top-k / nucleus sampling,
with n-best output and n-gram repetition blocking.

One loop (`_search`) runs them all, one batched model step per token over
every live row: the beams or sampled draws of one or many sources.
Each step decodes only the newest tokens against a `DecoderCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .model import DecoderCache, check_counts, is_number

StepFn = Callable[[tuple[int, ...]], np.ndarray]  # prefix -> log-prob vector
# (parent row of each live row, each live row's prefix) -> (rows, V) log-probs
BatchStep = Callable[[np.ndarray, list[tuple[int, ...]]], np.ndarray]
# a live row: (search, cumulative log-prob, prefix, its parent's row last step)
Row = tuple[int, float, tuple[int, ...], int]


@dataclass
class DecodeConfig:
    """Decoding method plus its knobs.

    seq_length bounds the number of generated tokens (eos included). The
    batch CLI defaults it to 2048 and the interactive preset to 300; the
    library default stays at the desk scale. A bad value raises
    ValueError at construction (and at `dataclasses.replace`).
    """

    method: str = "beam"
    nbeam: int = 5
    max_outputs: int = 3
    seq_length: int = 128
    no_repeat_ngram_size: int = 0
    top_k: int = 0
    top_p: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("greedy", "beam", "sampling"):
            raise ValueError(f"unknown decoding method {self.method!r}")
        check_counts(self, {"nbeam": 1, "max_outputs": 1, "seq_length": 1,
                            "no_repeat_ngram_size": 0, "top_k": 0, "seed": 0})
        if self.method == "beam" and self.nbeam < self.max_outputs:
            raise ValueError("nbeam must be >= max_outputs for beam search")
        if not (is_number(self.top_p) and 0.0 < self.top_p <= 1.0):
            raise ValueError("top_p must be in (0, 1]")


@dataclass
class Hypothesis:
    """One decoded candidate; finished hypotheses are never extended."""

    ids: list[int]
    logprob: float
    finished: bool

    @property
    def score(self) -> float:
        """Length-normalized log-probability used for final ranking."""
        return self.logprob / max(len(self.ids), 1)


def block_repeat_ngrams(logprobs: np.ndarray, history: Sequence[int], n: int) -> np.ndarray:
    """Mask (-inf) tokens that would repeat an n-gram already in history."""
    if n <= 0 or len(history) < n - 1:
        return logprobs
    history = tuple(history)
    suffix = history[len(history) - n + 1:]
    banned = {history[i + n - 1] for i in range(len(history) - n + 1)
              if history[i:i + n - 1] == suffix}
    if not banned:
        return logprobs
    out = logprobs.copy()
    out[list(banned)] = -np.inf
    return out


def _sample_rows(lp: np.ndarray, top_k: int, top_p: float,
                 rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One token per row of (rows, V) float64 log-probs after top-k then
    nucleus restriction (top_k=0, top_p=1.0: off), row i drawn as
    `rngs[i].choice` over its kept tokens would: one uniform against their cdf."""
    m = lp.max(axis=1, keepdims=True)
    if not np.isfinite(m).all():  # a row of -inf, or one holding a NaN or +inf
        raise ValueError("no tokens available to sample")
    probs = np.exp(lp - m)
    probs /= probs.sum(axis=1, keepdims=True)
    order = np.argsort(-probs, axis=1, kind="stable")  # ties to the lower token id
    rows = np.arange(len(lp))[:, None]
    kept = probs[rows, order[:, :top_k if top_k > 0 else None]]
    if top_p < 1.0:
        n = np.minimum((np.cumsum(kept, axis=1) < top_p).sum(axis=1) + 1, kept.shape[1])
        kept = kept[:, :n.max()] * (np.arange(n.max()) < n[:, None])  # zero past each row's cut
        # each row sums its own kept tokens: a zero-padded sum can differ in the last bit
        total = np.array([[row[:k].sum()] for row, k in zip(kept, n)])
    else:
        total = kept.sum(axis=1, keepdims=True)
    cdf = np.cumsum(kept / total, axis=1)
    cdf /= cdf[:, -1:]
    return order[rows[:, 0], (cdf <= [[rng.random()] for rng in rngs]).sum(axis=1)]


def sample_step(logprobs, top_k: int, top_p: float, rng: np.random.Generator) -> int:
    """One token of one log-prob vector: the one-row case of `_sample_rows`."""
    return int(_sample_rows(np.asarray(logprobs, dtype=np.float64)[None], top_k, top_p, [rng])[0])


def _blocker(n: int):
    return (lambda lp, history: block_repeat_ngrams(lp, history, n)) if n > 0 else None


def _beam_choose(lp: np.ndarray, live: list[Row], width: int) -> dict[int, list[Row]]:
    """Per search, the `width` best extensions of its live rows by
    cumulative log-probability, ties to the lexicographically smaller
    sequence. Only tokens at or above their row's width-th best score can
    qualify, so the exact sort runs on that small set."""
    scores = np.array([row[1] for row in live])[:, None] + lp
    k = min(width, scores.shape[1])
    kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1:k]
    picked: dict[int, list[Row]] = {}
    for r, tok in zip(*np.nonzero((scores >= kth) & (scores > -np.inf))):
        search, _, ids, _ = live[r]
        picked.setdefault(search, []).append(
            (search, float(scores[r, tok]), ids + (int(tok),), int(r)))
    for rows in picked.values():
        rows.sort(key=lambda row: (-row[1], row[2]))
        del rows[width:]
    return picked


def _sample_choose(lp: np.ndarray, live: list[Row], cfg: DecodeConfig,
                   rngs: list[np.random.Generator]) -> dict[int, list[Row]]:
    """One token per live row, drawn with its search's own generator."""
    toks = _sample_rows(lp, cfg.top_k, cfg.top_p, [rngs[row[0]] for row in live])
    return {search: [(search, logprob + float(lp[r, tok]), ids + (int(tok),), r)]
            for r, ((search, logprob, ids, _), tok) in enumerate(zip(live, toks))}


def _search(step: BatchStep, n_searches: int, width: int, max_len: int, eos_id: int,
            blocker=None, choose=None) -> list[list[Hypothesis]]:
    """The one search loop: n_searches independent searches of up to
    `width` live rows each, advanced by one `step` call over all live rows
    per token. `choose` picks each search's next rows (default: beam).

    A row that emits eos retires into its search's pool. A search stops
    once its pool holds `width` hypotheses, no candidate is left, or the
    length limit is hit; its live rows then join the pool unfinished. Each
    pool is ranked by log-probability over token count.
    """
    choose = choose or partial(_beam_choose, width=width)
    pools: list[list[Hypothesis]] = [[] for _ in range(n_searches)]

    def retire(rows, finished=False):
        for search, logprob, ids, _ in rows:
            pools[search].append(Hypothesis(list(ids), logprob, finished))

    live: list[Row] = [(search, 0.0, (), search) for search in range(n_searches)]
    for _ in range(max_len):
        lp = step(np.array([row[3] for row in live]), [row[2] for row in live])
        if blocker is not None:
            for r, row in enumerate(live):
                lp[r] = blocker(lp[r], row[2])
        picked = choose(lp, live)
        retire(row for row in live if row[0] not in picked)
        live = []
        for search, rows in picked.items():
            retire((row for row in rows if row[2][-1] == eos_id), finished=True)
            rows = [row for row in rows if row[2][-1] != eos_id]
            if len(pools[search]) >= width:
                retire(rows)
            else:
                live += rows
        if not live:
            break
    retire(live)
    for pool in pools:
        pool.sort(key=lambda h: (-h.score, tuple(h.ids)))
    return pools


def _per_prefix(step_fn: StepFn) -> BatchStep:
    """The `BatchStep` that calls step_fn on each live row's prefix."""
    return lambda parents, prefixes: np.stack([step_fn(p) for p in prefixes], dtype=np.float64)


def beam_search(step_fn: StepFn, nbeam: int, max_len: int, eos_id: int,
                blocker=None) -> list[Hypothesis]:
    """Breadth-limited best-first search over a prefix -> log-probs
    function: each step keeps the nbeam best extensions of the live beams
    (`_beam_choose`); the search ends as `_search` describes."""
    if nbeam < 1:
        raise ValueError("nbeam must be >= 1")
    return _search(_per_prefix(step_fn), 1, nbeam, max_len, eos_id, blocker)[0]


def greedy_search(step_fn: StepFn, max_len: int, eos_id: int, blocker=None) -> Hypothesis:
    """Single-path argmax decoding: beam search with one beam."""
    return beam_search(step_fn, 1, max_len, eos_id, blocker)[0]


def sampling_search(step_fn: StepFn, cfg: DecodeConfig, eos_id: int,
                    draw_index: int) -> Hypothesis:
    """One independent sampled sequence, reproducible per (seed, draw)."""
    choose = partial(_sample_choose, cfg=cfg, rngs=[np.random.default_rng((cfg.seed, draw_index))])
    blocker = _blocker(cfg.no_repeat_ngram_size)
    return _search(_per_prefix(step_fn), 1, 1, cfg.seq_length, eos_id, blocker, choose)[0][0]


def _cached_step(model, pad_id: int, cache: DecoderCache, parents: np.ndarray,
                 prefixes: list[tuple[int, ...]]) -> np.ndarray:
    """The `BatchStep` of a cached decode: keep the parents' cache rows and
    decode only the newest token of each prefix (pad, the start token, on
    the first step)."""
    cache.reorder(parents)
    dec = np.asarray([[p[-1] if p else pad_id] for p in prefixes], dtype=np.int64)
    lp = model.decode_logits(None, None, dec, cache=cache)[:, -1].astype(np.float64)
    lp -= lp.max(axis=-1, keepdims=True)
    return lp - np.log(np.exp(lp).sum(axis=-1, keepdims=True))


def max_output_len(model) -> int:
    """The most tokens a decode of model generates: its context also holds the start token."""
    return model.config.max_seq_len - 1


def generate_batch(model, vocab, sources: list[list[int]], cfg: DecodeConfig,
                   batch_size: int = 8) -> list[list[Hypothesis]]:
    """Decode many sources with the configured method, in input order.

    Greedy returns exactly one hypothesis per source; beam returns the
    max_outputs best finished-or-limit hypotheses; sampling draws
    max_outputs independent sequences in emission order, draw i from
    `default_rng((seed, i))`. Sources are decoded shortest first, in
    chunks of at most batch_size with one search each. Within a chunk,
    sources of equal length are encoded together and every decoder row
    attends to its own length group only, so no source is padded and
    none depends on the others.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    for i, source in enumerate(sources):
        if len(source) == 0:
            raise ValueError(f"source {i} is empty; a source needs at least one token")
    max_len = min(cfg.seq_length, max_output_len(model))
    blocker = _blocker(cfg.no_repeat_ngram_size)
    # searches per source, the width of each, and the hypotheses kept per search
    draws = cfg.max_outputs if cfg.method == "sampling" else 1
    width = cfg.nbeam if cfg.method == "beam" else 1
    keep = cfg.max_outputs if cfg.method == "beam" else 1
    order = sorted(range(len(sources)), key=lambda i: len(sources[i]))
    out: list[list[Hypothesis]] = [[] for _ in sources]
    for chunk in (order[lo:lo + batch_size] for lo in range(0, len(order), batch_size)):
        groups = [[sources[i] for i in group]
                  for _, group in groupby(chunk, key=lambda i: len(sources[i]))]
        # decoder row r starts on source r // draws of the chunk
        cache = DecoderCache(groups, np.repeat(np.arange(len(chunk)), draws))
        step = partial(_cached_step, model, vocab.pad_id, cache)
        choose = None
        if cfg.method == "sampling":
            rngs = [np.random.default_rng((cfg.seed, d)) for _ in chunk for d in range(draws)]
            choose = partial(_sample_choose, cfg=cfg, rngs=rngs)
        pools = _search(step, len(chunk) * draws, width, max_len, vocab.eos_id, blocker, choose)
        for k, i in enumerate(chunk):
            out[i] = [h for pool in pools[k * draws:(k + 1) * draws] for h in pool[:keep]]
    return out


def generate(model, vocab, source_ids: list[int], cfg: DecodeConfig) -> list[Hypothesis]:
    """Decode one source with the configured method (see `generate_batch`)."""
    return generate_batch(model, vocab, [source_ids], cfg, 1)[0]


def greedy_decode_batch(model, vocab, sources: list[list[int]], max_len: int) -> list[list[int]]:
    """Greedy `generate_batch` over all sources in one chunk; one id list
    per source, eos stripped."""
    cfg = DecodeConfig("greedy", seq_length=max_len)
    hyps = generate_batch(model, vocab, sources, cfg, max(len(sources), 1))
    return [h.ids[:-1] if h.finished else h.ids for (h,) in hyps]
