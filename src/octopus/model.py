"""Encoder-decoder transformer: shared embeddings, multi-head attention with
bucketed relative-position bias, pre-norm residual blocks with RMS
normalization and no biases, tied output projection.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

CHECKPOINT_MAGIC = b"OCTO1"


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    relpos_num_buckets: int = 32
    relpos_max_distance: int = 128
    dropout_rate: float = 0.1
    max_seq_len: int = 128

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_heads", "d_ff", "n_enc_layers", "n_dec_layers",
                     "relpos_num_buckets", "relpos_max_distance", "max_seq_len"):
            value, least = getattr(self, name), 0 if name.endswith("layers") else 1
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not (isinstance(self.dropout_rate, numbers.Real) and 0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        """Parse to_json output; ValueError when it is malformed."""
        try:
            return cls(**json.loads(text))
        except TypeError as e:  # not a JSON object, or unknown or missing fields
            raise ValueError(f"malformed model config: {e}") from e


def relative_position_bucket(
    rel: int, bidirectional: bool, num_buckets: int = 32, max_distance: int = 128
) -> int:
    """Bucket a relative position (key index minus query index).

    Small offsets get exact buckets, larger ones share logarithmically
    spaced buckets up to max_distance, everything further clamps to the
    last bucket. Bidirectional mode spends half the buckets on the
    positive side via an offset.
    """
    if bidirectional and num_buckets % 2 != 0:
        raise ValueError("num_buckets must be even when bidirectional")
    bucket = 0
    n = num_buckets
    if bidirectional:
        n //= 2
        if rel > 0:
            bucket += n
        rel = abs(rel)
    else:
        rel = -min(rel, 0)
    max_exact = n // 2
    if rel < max_exact:
        return bucket + rel
    large = max_exact + int(
        math.log(rel / max_exact) / math.log(max_distance / max_exact) * (n - max_exact)
    )
    return bucket + min(large, n - 1)


def _bucket_matrix(
    q_len: int, k_len: int, bidirectional: bool, num_buckets: int, max_distance: int
) -> np.ndarray:
    """Vectorized relative_position_bucket over a (q_len, k_len) grid."""
    ctx = np.arange(q_len)[:, None]
    mem = np.arange(k_len)[None, :]
    rel = mem - ctx
    bucket = np.zeros_like(rel)
    n = num_buckets
    if bidirectional:
        n //= 2
        bucket += (rel > 0).astype(np.int64) * n
        rel = np.abs(rel)
    else:
        rel = -np.minimum(rel, 0)
    max_exact = n // 2
    is_small = rel < max_exact
    with np.errstate(divide="ignore"):
        large = max_exact + (
            np.log(np.maximum(rel, 1) / max_exact)
            / math.log(max_distance / max_exact)
            * (n - max_exact)
        ).astype(np.int64)
    large = np.minimum(large, n - 1)
    bucket += np.where(is_small, rel, large)
    return bucket


def init_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> dict[str, Tensor]:
    """Seeded parameter init.

    Shared embedding ~ N(0, 1) (the tied readout rescales by 1/sqrt(d));
    projections ~ N(0, 1/sqrt(d_model)); norm gains start at 1; the
    relative-position bias tables start neutral at 0.
    """
    rng = np.random.default_rng(seed)
    d, h, dff = config.d_model, config.n_heads, config.d_ff
    std = 1.0 / math.sqrt(d)
    params: dict[str, Tensor] = {}

    def param(name, array):
        params[name] = Tensor(array.astype(dtype), requires_grad=True, dtype=dtype)

    param("shared.embedding", rng.standard_normal((config.vocab_size, d)))
    for stack, n_layers in (("encoder", config.n_enc_layers), ("decoder", config.n_dec_layers)):
        param(f"{stack}.relpos", np.zeros((h, config.relpos_num_buckets)))
        for i in range(n_layers):
            base = f"{stack}.block{i}"
            param(f"{base}.attn.norm", np.ones(d))
            for w in ("wq", "wk", "wv", "wo"):
                param(f"{base}.attn.{w}", rng.standard_normal((d, d)) * std)
            if stack == "decoder":
                param(f"{base}.cross.norm", np.ones(d))
                for w in ("wq", "wk", "wv", "wo"):
                    param(f"{base}.cross.{w}", rng.standard_normal((d, d)) * std)
            param(f"{base}.ff.norm", np.ones(d))
            param(f"{base}.ff.wi", rng.standard_normal((d, dff)) * std)
            param(f"{base}.ff.wo", rng.standard_normal((dff, d)) * std)
        param(f"{stack}.final_norm", np.ones(d))
    return params


def save_checkpoint(path, arrays: dict[str, np.ndarray]):
    """Write tensors as magic + length-prefixed JSON manifest + raw <f4 data."""
    manifest = []
    offset = 0
    payload = []
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        manifest.append({"name": name, "shape": list(data.shape), "offset": offset})
        payload.append(data.tobytes())
        offset += data.nbytes
    blob = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for chunk in payload:
            f.write(chunk)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a save_checkpoint file; a truncated or malformed file raises
    ValueError naming what is wrong."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint file (bad magic {magic!r})")
        header = f.read(4)
        if len(header) != 4:
            raise ValueError(f"{path} is truncated: no manifest length")
        (blob_len,) = struct.unpack("<I", header)
        blob = f.read(blob_len)
        if len(blob) != blob_len:
            raise ValueError(f"{path} is truncated: manifest cut short")
        manifest = json.loads(blob.decode("utf-8"))
        data = f.read()
    if not isinstance(manifest, list):
        raise ValueError(f"{path} has a malformed manifest")
    arrays = {}
    for entry in manifest:
        try:
            name, start = entry["name"], entry["offset"]
            shape = tuple(entry["shape"])
            count = math.prod(shape)
            if not isinstance(name, str):
                raise TypeError("the tensor name is not a string")
        except (KeyError, TypeError) as e:
            raise ValueError(f"{path} has a malformed manifest entry {entry!r}") from e
        if (not isinstance(start, int) or start < 0
                or not all(isinstance(n, int) and n >= 0 for n in shape)
                or start + 4 * count > len(data)):
            raise ValueError(f"{path} is truncated or corrupt at tensor {name!r}")
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=start)
        arrays[name] = arr.reshape(shape).copy()
    return arrays


class DecoderCache:
    """Keys and values of the decoder positions seen so far, for
    incremental decoding with `Seq2SeqTransformer.decode_logits`.

    Decoder row i reads source `rows[i]`, counted across the unpadded source
    groups in order, so one encoded source can feed several rows (beams,
    sampled draws). Self-attention keys and values gain a position per
    decoded token; cross-attention keys and values are projected once per
    group on the first call and then read by row.
    Inference only: cached arrays carry no gradient.
    """

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.int64)
        self.length = 0  # decoder positions held
        self.kv: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # self-attention -> (B, H, L, dh)
        # cross-attention -> one (k, v) pair per source group, (n, H, S, dh) each
        self.cross: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._groups: list[tuple[int, slice | np.ndarray, slice | np.ndarray]] | None = None

    def append(self, name: str, k: np.ndarray, v: np.ndarray):
        """Add new self-attention positions after the cached ones; return
        all the keys and values the attention now holds."""
        if name in self.kv:
            k, v = (np.concatenate([old, new], axis=2) for old, new in zip(self.kv[name], (k, v)))
        self.kv[name] = (k, v)
        return k, v

    def reorder(self, parents):
        """Make old row parents[i] the new row i; rows may repeat or drop."""
        parents = np.asarray(parents, dtype=np.int64)
        if len(parents) == len(self.rows) and (parents == np.arange(len(parents))).all():
            return
        self.rows = self.rows[parents]
        self.kv = {name: (k[parents], v[parents]) for name, (k, v) in self.kv.items()}
        self._groups = None

    def row_groups(self, sizes: list[int]):
        """For each source group (of the given sizes) that some row reads:
        (group, the positions of its rows, their sources within the group).
        Kept until `reorder` changes the rows; a contiguous run of indices
        is a slice, so reading it copies nothing."""
        if self._groups is None:
            self._groups, first = [], 0
            for g, n in enumerate(sizes):
                sel = np.flatnonzero((self.rows >= first) & (self.rows < first + n))
                if len(sel):
                    self._groups.append((g, _as_slice(sel), _as_slice(self.rows[sel] - first)))
                first += n
        return self._groups


def _as_slice(idx: np.ndarray) -> slice | np.ndarray:
    """A slice equal to the index array idx when it counts up by one."""
    return slice(idx[0], idx[-1] + 1) if (np.diff(idx) == 1).all() else idx


class Seq2SeqTransformer:
    """Trainable encoder-decoder over token-id matrices.

    Read-only during inference; training mutates parameters and needs
    exclusive access. A forward applies dropout only when it is given an
    rng, and draws every mask from it.
    """

    def __init__(self, config: ModelConfig, params: dict[str, Tensor] | None = None,
                 seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.params = params if params is not None else init_params(config, seed, dtype)
        self._buckets: dict[str, np.ndarray] = {}  # stack -> (max_seq_len, max_seq_len)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    def num_params(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def save(self, path):
        save_checkpoint(path, {k: p.data for k, p in self.params.items()})

    def load(self, path):
        arrays = load_checkpoint(path)
        for name, p in self.params.items():
            if name not in arrays:
                raise ValueError(f"checkpoint missing parameter {name!r}")
            if tuple(arrays[name].shape) != p.data.shape:
                raise ValueError(f"checkpoint shape mismatch for {name!r}")
            p.data = arrays[name].astype(self.dtype)

    # ---- forward pieces ----

    def _dropout(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        if rng is None or self.config.dropout_rate == 0.0:
            return x
        return T.dropout(x, self.config.dropout_rate, rng)

    def _check_ids(self, ids: np.ndarray, name: str):
        if ids.size and (ids.min() < 0 or ids.max() >= self.config.vocab_size):
            raise ValueError(f"{name} contains ids outside [0, {self.config.vocab_size})")
        if ids.shape[1] > self.config.max_seq_len:
            raise ValueError(
                f"{name} length {ids.shape[1]} exceeds max_seq_len {self.config.max_seq_len}"
            )

    def _relpos_bias(self, stack: str, q_start: int, q_len: int, k_len: int) -> Tensor:
        """Bias for query positions q_start..q_start+q_len over keys 0..k_len,
        sliced from one bucket matrix per stack."""
        if stack not in self._buckets:
            n = self.config.max_seq_len
            self._buckets[stack] = _bucket_matrix(
                n, n, stack == "encoder",
                self.config.relpos_num_buckets, self.config.relpos_max_distance,
            )
        buckets = self._buckets[stack][q_start:q_start + q_len, :k_len]
        table = self.params[f"{stack}.relpos"]  # (H, num_buckets)
        by_bucket = T.transpose(table, (1, 0))  # (num_buckets, H)
        bias = T.take(by_bucket, buckets)  # (q, k, H)
        bias = T.transpose(bias, (2, 0, 1))
        return T.reshape(bias, (1, self.config.n_heads) + buckets.shape)

    def _heads(self, x: Tensor, weight: str) -> Tensor:
        """Project (B, L, d_model) and split heads: (B, H, L, d_head)."""
        cfg = self.config
        y = T.matmul(x, self.params[weight])
        y = T.reshape(y, (x.shape[0], x.shape[1], cfg.n_heads, cfg.d_model // cfg.n_heads))
        return T.transpose(y, (0, 2, 1, 3))

    def _attention(self, x_q: Tensor, x_kv: Tensor, base: str,
                   mask_add: np.ndarray | None, bias: Tensor | None,
                   rng: np.random.Generator | None, cache: DecoderCache | None = None) -> Tensor:
        """Multi-head attention of x_q over x_kv, dropout on the weights
        when given an rng; with a cache (self-attention only) the new keys
        and values are appended to the cached ones."""
        q = self._heads(x_q, f"{base}.wq")
        k = self._heads(x_kv, f"{base}.wk")
        v = self._heads(x_kv, f"{base}.wv")
        if cache is not None:
            k, v = (Tensor(a, dtype=a.dtype) for a in cache.append(base, k.data, v.data))
        # scaled dot-product keeps init-time logits near unit variance,
        # which matters for trainability at desk scale
        rate = self.config.dropout_rate if rng is not None else 0.0
        out = T.attention(q, k, v, 1.0 / math.sqrt(q.shape[-1]), bias, mask_add, rate, rng)
        return self._merge_heads(out, base)

    def _merge_heads(self, out: Tensor, base: str) -> Tensor:
        b, _, lq, _ = out.shape
        out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, lq, self.config.d_model))
        return T.matmul(out, self.params[f"{base}.wo"])

    def _cached_cross(self, x_q: Tensor, enc_hidden: list[Tensor], base: str,
                      cache: DecoderCache) -> Tensor:
        """Cross-attention of cached rows, each over its own source group.

        Each group's keys and values are projected once and read by row
        every step; rows of different groups meet only in the projections,
        so every row sees the operands of a decode of its group alone. The
        float ops are those of `tensor.attention`, on plain arrays; its
        fully-masked-row check is left out, as no key is masked here.
        """
        q = self._heads(x_q, f"{base}.wq").data
        if base not in cache.cross:
            cache.cross[base] = [(self._heads(enc, f"{base}.wk").data,
                                  self._heads(enc, f"{base}.wv").data) for enc in enc_hidden]
        out = np.empty_like(q)
        q = q * q.dtype.type(1.0 / math.sqrt(q.shape[-1]))
        for g, sel, loc in cache.row_groups([enc.shape[0] for enc in enc_hidden]):
            k, v = cache.cross[base][g]
            scores = np.matmul(q[sel], np.swapaxes(k[loc], -1, -2))
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            out[sel] = np.matmul(e / e.sum(axis=-1, keepdims=True), v[loc])
        return self._merge_heads(Tensor(out, dtype=out.dtype), base)

    def _ff(self, x: Tensor, base: str, rng: np.random.Generator | None) -> Tensor:
        inner = T.relu(T.matmul(x, self.params[f"{base}.wi"]))
        inner = self._dropout(inner, rng)
        return T.matmul(inner, self.params[f"{base}.wo"])

    @staticmethod
    def _key_mask_add(attn_mask: np.ndarray, dtype) -> np.ndarray:
        """(B, L) boolean key mask -> additive (B, 1, 1, L) with -inf at pads."""
        neg = np.array(-np.inf, dtype=dtype)
        return np.where(attn_mask[:, None, None, :], dtype.type(0.0), neg)

    def encode(self, ids, attn_mask, rng: np.random.Generator | None = None) -> Tensor:
        """Contextual hidden states, shape (B, L, d_model).

        attn_mask marks real tokens; pad key positions are masked with
        -inf attention logits so they cannot influence real positions.
        """
        ids = np.asarray(ids, dtype=np.int64)
        mask = np.asarray(attn_mask, dtype=bool)
        self._check_ids(ids, "encoder ids")
        cfg = self.config
        x = T.take(self.params["shared.embedding"], ids)
        x = self._dropout(x, rng)
        mask_add = self._key_mask_add(mask, x.data.dtype)
        length = ids.shape[1]
        bias = self._relpos_bias("encoder", 0, length, length) if cfg.n_enc_layers else None
        for i in range(cfg.n_enc_layers):
            base = f"encoder.block{i}"
            h = T.rms_norm(x, self.params[f"{base}.attn.norm"])
            x = T.add(x, self._dropout(
                self._attention(h, h, f"{base}.attn", mask_add, bias, rng), rng))
            h = T.rms_norm(x, self.params[f"{base}.ff.norm"])
            x = T.add(x, self._dropout(self._ff(h, f"{base}.ff", rng), rng))
        x = T.rms_norm(x, self.params["encoder.final_norm"])
        return self._dropout(x, rng)

    def decode_logits(self, enc_hidden, enc_mask, dec_ids, cache: DecoderCache | None = None,
                      rng: np.random.Generator | None = None) -> Tensor:
        """Decoder logits, shape (B, T, vocab_size).

        Causal self-attention (position t attends <= t) plus cross
        attention into the encoder states; the readout is tied to the
        shared embedding and rescaled by 1/sqrt(d_model).

        Without a cache, dec_ids is the whole decoder input (teacher
        forcing). With a DecoderCache, dec_ids holds only the next T
        positions of each cached row; their keys and values are appended
        to the cache. enc_hidden is then a list of unpadded encoded source
        groups, whose sources are numbered across the groups in order
        (`cache.rows` indexes that numbering), and enc_mask must be None.
        """
        if cache is not None and enc_mask is not None:
            raise ValueError("cached decoding reads unpadded source groups; pass enc_mask=None")
        dec_ids = np.asarray(dec_ids, dtype=np.int64)
        self._check_ids(dec_ids, "decoder ids")
        cfg = self.config
        start = cache.length if cache is not None else 0
        t_len = dec_ids.shape[1]
        end = start + t_len
        if end > cfg.max_seq_len:
            raise ValueError(f"decoder length {end} exceeds max_seq_len {cfg.max_seq_len}")
        emb = self.params["shared.embedding"]
        x = T.take(emb, dec_ids)
        x = self._dropout(x, rng)
        dt = x.data.dtype
        # a single query row may see every key, so it needs no causal mask
        causal = (np.triu(np.full((1, 1, t_len, end), -np.inf, dtype=dt), k=1 + start)
                  if t_len > 1 else None)
        if cache is None:
            cross_mask = self._key_mask_add(np.asarray(enc_mask, dtype=bool), dt)
        bias = self._relpos_bias("decoder", start, t_len, end) if cfg.n_dec_layers else None
        for i in range(cfg.n_dec_layers):
            base = f"decoder.block{i}"
            h = T.rms_norm(x, self.params[f"{base}.attn.norm"])
            x = T.add(x, self._dropout(
                self._attention(h, h, f"{base}.attn", causal, bias, rng, cache), rng))
            h = T.rms_norm(x, self.params[f"{base}.cross.norm"])
            cross = (self._attention(h, enc_hidden, f"{base}.cross", cross_mask, None, rng)
                     if cache is None else
                     self._cached_cross(h, enc_hidden, f"{base}.cross", cache))
            x = T.add(x, self._dropout(cross, rng))
            h = T.rms_norm(x, self.params[f"{base}.ff.norm"])
            x = T.add(x, self._dropout(self._ff(h, f"{base}.ff", rng), rng))
        if cache is not None:
            cache.length = end
        x = T.rms_norm(x, self.params["decoder.final_norm"])
        x = self._dropout(x, rng)
        x = T.mul(x, 1.0 / math.sqrt(cfg.d_model))
        return T.matmul(x, T.transpose(emb, (1, 0)))

    def batch_loss(self, batch, rng: np.random.Generator | None = None) -> Tensor:
        """Mean token cross-entropy over the target positions that are not
        `batch.pad_id`; with an rng, the forward applies dropout drawn from it."""
        enc = self.encode(batch.enc_ids, batch.enc_mask, rng)
        logits = self.decode_logits(enc, batch.enc_mask, batch.dec_ids, rng=rng)
        b, t, v = logits.shape
        flat = T.reshape(logits, (b * t, v))
        return T.cross_entropy(flat, batch.target_ids.reshape(-1), ignore_id=batch.pad_id)
