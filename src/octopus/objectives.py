"""Training example construction: span-corruption denoising and
teacher-forced sequence-to-sequence batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vocab import Vocabulary


# T5's span corruption (Raffel et al. 2020): mask 15% of the tokens in
# spans of mean length 3. At this rate every length fits as non-adjacent spans.
CORRUPTION_RATE = 0.15
MEAN_SPAN_LENGTH = 3.0


def check_sentinels(vocab: Vocabulary):
    if vocab.num_sentinels == 0:
        raise ValueError("the vocabulary has no sentinel tokens, which span corruption needs")


def corrupt_spans(
    tokens: list[int], vocab: Vocabulary, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Replace random non-adjacent token spans with sentinel ids.

    Masks CORRUPTION_RATE of the tokens in at least one span and at most
    one span per sentinel. Returns (input ids, target ids) where the input
    has span i collapsed to SENTINEL_i (left to right) and the target lists
    each sentinel followed by the tokens it hides, ending with eos.
    """
    if not tokens:
        raise ValueError("cannot corrupt an empty sequence")
    if any(vocab.is_sentinel(t) for t in tokens):
        raise ValueError("input tokens may not contain sentinel ids")
    check_sentinels(vocab)

    n = len(tokens)
    n_spans = min(max(1, round(CORRUPTION_RATE * n / MEAN_SPAN_LENGTH)), vocab.num_sentinels)
    budget = max(n_spans, round(CORRUPTION_RATE * n))

    # split the budget into n_spans positive lengths
    lengths = [1] * n_spans
    for _ in range(budget - n_spans):
        lengths[int(rng.integers(n_spans))] += 1

    starts = _place_spans(n, lengths, rng)

    input_ids: list[int] = []
    target_ids: list[int] = []
    cursor = 0
    for i, (start, length) in enumerate(zip(starts, lengths)):
        input_ids.extend(tokens[cursor:start])
        input_ids.append(vocab.sentinel(i))
        target_ids.append(vocab.sentinel(i))
        target_ids.extend(tokens[start:start + length])
        cursor = start + length
    input_ids.extend(tokens[cursor:])
    target_ids.append(vocab.eos_id)
    return input_ids, target_ids


def _place_spans(n: int, lengths: list[int], rng: np.random.Generator) -> list[int]:
    """Sample non-adjacent span starts, uniform over valid arrangements.

    Stars-and-bars over the leftover gap budget: interior gaps get their
    mandatory one-token separation, the slack is split uniformly across
    all k+1 gaps via a random k-subset of slack+k positions.
    """
    k = len(lengths)
    slack = n - sum(lengths) - (k - 1)
    if slack == 0:
        cuts = np.arange(k)
    else:
        cuts = np.sort(rng.choice(slack + k, size=k, replace=False))
    extras = np.diff(np.concatenate(([-1], cuts))) - 1  # k leading-gap extras
    starts = []
    pos = 0
    for i in range(k):
        pos += int(extras[i]) + (1 if i > 0 else 0)
        starts.append(pos)
        pos += lengths[i]
    return starts


def splice(input_ids: list[int], target_ids: list[int], vocab: Vocabulary) -> list[int]:
    """Inverse of corrupt_spans: re-insert each masked span into the input.

    Raises on sentinel mismatches between input and target, which catches
    tampered or misaligned pairs.
    """
    # target segments keyed by sentinel index
    segments: dict[int, list[int]] = {}
    current: int | None = None
    seen_order: list[int] = []
    for tid in target_ids:
        if tid == vocab.eos_id:
            break
        if vocab.is_sentinel(tid):
            current = vocab.sentinel_index(tid)
            if current in segments:
                raise ValueError(f"sentinel {current} appears twice in target")
            segments[current] = []
            seen_order.append(current)
        else:
            if current is None:
                raise ValueError("target does not start with a sentinel")
            segments[current].append(tid)
    if seen_order != sorted(seen_order):
        raise ValueError("target sentinels out of order")

    out: list[int] = []
    used: list[int] = []
    for tid in input_ids:
        if vocab.is_sentinel(tid):
            idx = vocab.sentinel_index(tid)
            if idx not in segments:
                raise ValueError(f"input sentinel {idx} missing from target")
            out.extend(segments[idx])
            used.append(idx)
        else:
            out.append(tid)
    if used != seen_order:
        raise ValueError("input and target sentinels disagree")
    return out


@dataclass
class Seq2SeqBatch:
    """Padded id matrices for one teacher-forced training step.

    dec_ids is target_ids shifted right behind the start token (pad), so
    dec_ids[:, t] == target_ids[:, t-1] for t >= 1; every target row ends
    with eos before the padding. Loss masking is by pad id.
    """

    enc_ids: np.ndarray
    enc_mask: np.ndarray
    dec_ids: np.ndarray
    target_ids: np.ndarray
    pad_id: int = 0

    def __len__(self) -> int:
        return self.enc_ids.shape[0]


def batch_from_ids(
    pairs: list[tuple[list[int], list[int]]], vocab: Vocabulary, max_len: int
) -> Seq2SeqBatch:
    """Pad encoded (source ids, target ids) pairs into a Seq2SeqBatch.

    Sources truncate to max_len. Targets drop a trailing eos, truncate to
    max_len - 1 and get eos appended, so each ends in exactly one.
    """
    if not pairs:
        raise ValueError("cannot build a batch from no examples")
    srcs, tgts = [], []
    for src, tgt in pairs:
        if not src:
            raise ValueError("empty source after encoding")
        tgt = list(tgt)
        if tgt and tgt[-1] == vocab.eos_id:
            tgt.pop()
        srcs.append(list(src)[:max_len])
        tgts.append(tgt[: max_len - 1] + [vocab.eos_id])

    b = len(pairs)
    pad = vocab.pad_id
    src_len = max(len(s) for s in srcs)
    tgt_len = max(len(t) for t in tgts)
    enc_ids = np.full((b, src_len), pad, dtype=np.int64)
    enc_mask = np.zeros((b, src_len), dtype=bool)
    target_ids = np.full((b, tgt_len), pad, dtype=np.int64)
    for i, (s, t) in enumerate(zip(srcs, tgts)):
        enc_ids[i, : len(s)] = s
        enc_mask[i, : len(s)] = True
        target_ids[i, : len(t)] = t
    # shift right behind the start token (pad), across the padded row
    dec_ids = np.concatenate(
        [np.full((b, 1), pad, dtype=np.int64), target_ids[:, :-1]], axis=1
    )
    return Seq2SeqBatch(enc_ids, enc_mask, dec_ids, target_ids, pad_id=pad)


def make_batch(
    pairs: list[tuple[str, str]], vocab: Vocabulary, max_len: int
) -> Seq2SeqBatch:
    """Encode (source text, target text) pairs and pad into a batch."""
    encoded = [(vocab.encode(s), vocab.encode(t)) for s, t in pairs]
    return batch_from_ids(encoded, vocab, max_len)
