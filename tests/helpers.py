"""Shared test utilities: independent oracles and small factories.

Oracles here are deliberately naive (recursive definitions, enumeration)
so they stay independent of the library implementations they check.
"""

from __future__ import annotations

import contextlib
import gc

import numpy as np

from octopus import ModelConfig, Seq2SeqTransformer
from octopus.model import init_params
from octopus.objectives import Seq2SeqBatch


def finite_difference_grads(loss_fn, array: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of loss_fn() w.r.t. every element of `array`.

    loss_fn must read `array` by reference (mutating it here changes the
    loss). 64-bit arrays only.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def tiny_model(vocab_size: int = 16, dtype=np.float64, seed: int = 11,
               dropout: float = 0.0) -> Seq2SeqTransformer:
    """d_model=8, 1+1 layers; the gradient-check configuration."""
    cfg = ModelConfig(
        vocab_size=vocab_size, d_model=8, n_heads=2, d_ff=16,
        n_enc_layers=1, n_dec_layers=1, relpos_num_buckets=8,
        relpos_max_distance=16, dropout_rate=dropout, max_seq_len=16,
    )
    return Seq2SeqTransformer(cfg, params=init_params(cfg, seed=seed, dtype=dtype), dtype=dtype)


@contextlib.contextmanager
def refcount_only():
    """Switch the cyclic garbage collector off inside the block, so that
    only reference counting frees objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def tiny_batch() -> Seq2SeqBatch:
    enc_ids = np.array([[3, 4, 5, 0], [6, 7, 0, 0]])
    return Seq2SeqBatch(
        enc_ids=enc_ids,
        enc_mask=enc_ids != 0,
        dec_ids=np.array([[0, 8, 9], [0, 10, 11]]),
        target_ids=np.array([[8, 9, 1], [10, 11, 1]]),
    )


def recursive_edit_distance(a: str, b: str, memo=None) -> int:
    """Textbook recursive Levenshtein definition with memoization."""
    if memo is None:
        memo = {}
    key = (a, b)
    if key in memo:
        return memo[key]
    if not a:
        result = len(b)
    elif not b:
        result = len(a)
    else:
        result = min(
            recursive_edit_distance(a[:-1], b[:-1], memo) + (a[-1] != b[-1]),
            recursive_edit_distance(a[:-1], b, memo) + 1,
            recursive_edit_distance(a, b[:-1], memo) + 1,
        )
    memo[key] = result
    return result


def lcs_by_enumeration(a: list, b: list) -> int:
    """Longest common subsequence via subsequence enumeration of `a`."""
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        it = iter(b)
        if all(x in it for x in sub):
            best = max(best, len(sub))
    return best


def toy_step_fn(table_seed: int, vocab_size: int, eos_id: int = 0):
    """Deterministic random step function: each prefix maps to a fixed
    categorical distribution derived from (seed, prefix)."""

    def step(prefix: tuple[int, ...]) -> np.ndarray:
        rng = np.random.default_rng((table_seed, 977, *prefix))
        p = rng.dirichlet(np.ones(vocab_size))
        return np.log(p)

    return step


def brute_force_best(step_fn, vocab_size: int, max_len: int, eos_id: int = 0):
    """Enumerate every sequence (ending at eos or max_len); return the one
    with the best length-normalized log-probability, ties lexicographic."""
    best = None

    def walk(prefix: tuple[int, ...], logprob: float):
        nonlocal best
        if prefix and (prefix[-1] == eos_id or len(prefix) == max_len):
            score = logprob / len(prefix)
            key = (-score, prefix)
            if best is None or key < best[0]:
                best = (key, prefix, logprob)
            return
        lp = step_fn(prefix)
        for tok in range(vocab_size):
            walk(prefix + (tok,), logprob + float(lp[tok]))

    walk((), 0.0)
    return list(best[1]), best[2]
