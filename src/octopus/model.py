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
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .tensor import Tensor
from .vocab import Vocabulary

CHECKPOINT_MAGIC = b"OCTO1"
MODEL_FILE, VOCAB_FILE, CONFIG_FILE = "model.octo", "vocab.txt", "config.json"  # toolkit files


def is_number(value, kind=numbers.Real) -> bool:
    """isinstance(value, kind), except that a bool is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_counts(config, least: dict[str, int]):
    """ValueError naming the first integer field of config that is not an
    integer, or is below its least value."""
    for name, bound in least.items():
        value = getattr(config, name)
        if not is_number(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer")
        if value < bound:
            raise ValueError(f"{name} must be >= {bound}")


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
        check_counts(self, {name: 0 if name.endswith("layers") else 1 for name in (
            "vocab_size", "d_model", "n_heads", "d_ff", "n_enc_layers", "n_dec_layers",
            "relpos_num_buckets", "relpos_max_distance", "max_seq_len")})
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not (is_number(self.dropout_rate) and 0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        # relative_position_bucket needs an exact region and a log region in each direction
        if self.relpos_num_buckets % 2 or self.relpos_num_buckets < 4 \
                or self.relpos_max_distance <= self.relpos_num_buckets // 2:
            raise ValueError("relpos_num_buckets must be even and >= 4, "
                             "and relpos_max_distance above half of it")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        """Parse to_json output; ValueError when it is malformed."""
        try:
            return cls(**json.loads(text))
        except (TypeError, json.JSONDecodeError) as e:  # not JSON, not an object, or bad fields
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


def _bucket_matrix(n: int, bidirectional: bool, num_buckets: int, max_distance: int) -> np.ndarray:
    """relative_position_bucket over an (n, n) grid of query and key positions:
    a read-only view whose entry [q, k] reads offset k - q of one table by
    offset, edge-padded past max_distance, beyond which the bucket is constant."""
    m = min(max_distance, n - 1)
    table = np.array([relative_position_bucket(rel, bidirectional, num_buckets, max_distance)
                      for rel in range(-m, m + 1)], dtype=np.int64)
    return sliding_window_view(np.pad(table, n - 1 - m, mode="edge"), n)[::-1]


# each stack's block layout: the sublayers every block runs, in order, each
# as x + dropout(sublayer(rms_norm(x)))
BLOCKS = {"encoder": ("attn", "ff"), "decoder": ("attn", "cross", "ff")}


def _layers(config: ModelConfig, stack: str) -> int:
    return config.n_enc_layers if stack == "encoder" else config.n_dec_layers


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in `BLOCKS` order (checkpoint order)."""
    d, dff = config.d_model, config.d_ff
    shapes = {"shared.embedding": (config.vocab_size, d)}
    for stack, sublayers in BLOCKS.items():
        shapes[f"{stack}.relpos"] = (config.n_heads, config.relpos_num_buckets)
        for i in range(_layers(config, stack)):
            for sub in sublayers:
                base = f"{stack}.block{i}.{sub}"
                weights = {"wi": (d, dff), "wo": (dff, d)} if sub == "ff" else dict.fromkeys(
                    ("wq", "wk", "wv", "wo"), (d, d))
                shapes[f"{base}.norm"] = (d,)
                shapes.update({f"{base}.{w}": shape for w, shape in weights.items()})
        shapes[f"{stack}.final_norm"] = (d,)
    return shapes


def init_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> dict[str, Tensor]:
    """Seeded parameter init, drawn in `param_shapes` order.

    Shared embedding ~ N(0, 1) (the tied readout rescales by 1/sqrt(d));
    projections ~ N(0, 1/sqrt(d_model)); norm gains start at 1; the
    relative-position bias tables start neutral at 0.
    """
    rng = np.random.default_rng(seed)
    std = 1.0 / math.sqrt(config.d_model)

    def init(name, shape):
        kind = name.rsplit(".", 1)[1]
        if kind == "relpos":
            return np.zeros(shape)
        if kind.endswith("norm"):
            return np.ones(shape)
        return rng.standard_normal(shape) * (1.0 if kind == "embedding" else std)

    return {name: Tensor(init(name, shape), requires_grad=True, dtype=dtype)
            for name, shape in param_shapes(config).items()}


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
    """Read a save_checkpoint file; a truncated or malformed file, or tensors
    that do not tile its payload, raise ValueError naming what is wrong."""
    with open(path, "rb") as f:  # one read: on the toy, a read of the rest after the header took 15x longer
        raw = f.read()
    at = len(CHECKPOINT_MAGIC)
    if raw[:at] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint file (bad magic {raw[:at]!r})")
    header = raw[at:at + 4]
    if len(header) != 4:
        raise ValueError(f"{path} is truncated: no manifest length")
    (blob_len,) = struct.unpack("<I", header)
    blob = raw[at + 4:at + 4 + blob_len]
    if len(blob) != blob_len:
        raise ValueError(f"{path} is truncated: manifest cut short")
    data = memoryview(raw)[at + 4 + blob_len:]
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        manifest = json.loads(blob.decode("utf-8"))
    except ValueError as e:
        raise ValueError(f"{path} has a malformed manifest") from e
    if not isinstance(manifest, list):
        raise ValueError(f"{path} has a malformed manifest")
    arrays = {}
    end = 0  # the tensors tile the payload: each starts where the one before it ends
    for entry in manifest:
        try:
            name, start = entry["name"], entry["offset"]
            shape = tuple(entry["shape"])
            count = math.prod(shape)
            if not isinstance(name, str):
                raise TypeError("the tensor name is not a string")
        except (KeyError, TypeError) as e:
            raise ValueError(f"{path} has a malformed manifest entry {entry!r}") from e
        if (name in arrays or not is_number(start, numbers.Integral) or start != end
                or not all(is_number(n, numbers.Integral) and n >= 0 for n in shape)
                or start + 4 * count > len(data)):
            raise ValueError(f"{path} is truncated or corrupt at tensor {name!r}")
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=start)
        arrays[name] = arr.reshape(shape).copy()
        end = start + 4 * count
    if end != len(data):
        raise ValueError(f"{path} is corrupt: {len(data) - end} bytes follow the last tensor")
    return arrays


def load_tensors(path, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """The tensors of a save_checkpoint file, in shapes order, when it holds
    exactly those names, each of its shape and finite; else ValueError naming
    path and the first tensor that is extra, missing, mis-shaped or not finite."""
    arrays = load_checkpoint(path)
    if extra := sorted(arrays.keys() - shapes.keys()):
        raise ValueError(f"{path} holds tensor {extra[0]!r}, which the model lacks")
    for name, shape in shapes.items():
        if name not in arrays:
            raise ValueError(f"{path}: checkpoint missing parameter {name!r}")
        if arrays[name].shape != shape:
            raise ValueError(f"{path}: checkpoint shape mismatch for {name!r}")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{path}: checkpoint parameter {name!r} holds a non-finite value")
    return {name: arrays[name] for name in shapes}


def checked_ids(config: ModelConfig, ids, name: str, start: int = 0) -> np.ndarray:
    """ids, a (rows, length) matrix at positions start.., as int64; ValueError
    naming it when an id is outside the vocabulary or a position passes max_seq_len."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise ValueError(f"{name} contains ids outside [0, {config.vocab_size})")
    if start + ids.shape[1] > config.max_seq_len:
        raise ValueError(f"{name} length {start + ids.shape[1]} exceeds "
                         f"max_seq_len {config.max_seq_len}")
    return ids


class DecoderCache:
    """The inference state of incremental decoding with
    `Seq2SeqTransformer.decode_logits`: unpadded groups of equal-length
    source ids, encoded once each on the first call, and the keys and values
    of the decoder positions seen so far.

    Decoder row i reads source `rows[i]`, counted across the groups in
    order, so one encoded source can feed several rows (beams, sampled
    draws). Self-attention keys and values fill the first `length`
    positions of buffers of the model's max_seq_len positions, kept while
    the rows fit; cross-attention keys and values are projected once per
    group on the first call and then read by row.
    Inference only: cached arrays carry no gradient.
    """

    def __init__(self, groups, rows):
        self.groups = groups
        self.rows = np.asarray(rows, dtype=np.int64)
        self.enc: list[np.ndarray] | None = None  # each group's encoder output, (n, S, d_model)
        self.length = 0  # decoder positions held
        # self-attention -> [k, v] of (max_seq_len, rows or more, d_model): position-major,
        # so the filled part is contiguous and a new buffer touches only the pages it fills
        self.kv: dict[str, list[np.ndarray]] = {}
        # cross-attention -> one (k, v) pair per source group, (n, S, d_model) each
        self.cross: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._row_groups: list[tuple[int, slice | np.ndarray, slice | np.ndarray]] | None = None

    def append(self, name: str, k: np.ndarray, v: np.ndarray, max_len: int):
        """Write new self-attention positions, (B, T, d_model) each, after
        the `length` cached ones; return all filled positions as (B, L, d_model)."""
        end, n = self.length + k.shape[1], len(self.rows)
        if name not in self.kv:
            self.kv[name] = [np.empty((max_len, *a.shape[::2]), a.dtype) for a in (k, v)]
        for buf, new in zip(self.kv[name], (k, v)):
            buf[self.length:end, :n] = new.transpose(1, 0, 2)
        return tuple(buf[:end, :n].transpose(1, 0, 2) for buf in self.kv[name])

    def reorder(self, parents):
        """Make old row parents[i] the new row i; rows may repeat or drop.
        Only the filled positions are copied, in place while the rows fit."""
        parents = np.asarray(parents, dtype=np.int64)
        if len(parents) == len(self.rows) and (parents == np.arange(len(parents))).all():
            return
        self.rows = self.rows[parents]
        for bufs in self.kv.values():
            for i, buf in enumerate(bufs):
                if len(parents) > buf.shape[1]:
                    bufs[i] = np.empty((len(buf), len(parents), *buf.shape[2:]), buf.dtype)
                bufs[i][:self.length, :len(parents)] = buf[:self.length, parents]
        self._row_groups = None

    def row_groups(self):
        """For each source group that some row reads:
        (group, the positions of its rows, their sources within the group).
        Kept until `reorder` changes the rows; a contiguous run of indices
        is a slice, so reading it copies nothing, and rows that all read one
        source get it as a one-row slice, which attention broadcasts."""
        if self._row_groups is None:
            self._row_groups, first = [], 0
            for g, n in enumerate(len(ids) for ids in self.groups):
                sel = np.flatnonzero((self.rows >= first) & (self.rows < first + n))
                if len(sel):
                    loc = self.rows[sel] - first
                    loc = slice(loc[0], loc[0] + 1) if (loc == loc[0]).all() else _as_slice(loc)
                    self._row_groups.append((g, _as_slice(sel), loc))
                first += n
        return self._row_groups


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
        self.params = params if params is not None else init_params(config, seed, dtype)
        n = config.max_seq_len
        # stack -> the relative-position bucket of each (query, key) pair of positions
        self._buckets = {stack: _bucket_matrix(n, stack == "encoder", config.relpos_num_buckets,
                                               config.relpos_max_distance) for stack in BLOCKS}

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype (the constructor's `dtype` is only a random
        init's); while there are none, float32, a checkpoint's."""
        return next(iter(self.params.values())).dtype if self.params else np.dtype(np.float32)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    def save(self, path):
        save_checkpoint(path, {k: p.data for k, p in self.params.items()})

    def load(self, path):
        """Replace every parameter from a save() file, or none (`load_tensors`)."""
        self.params = {name: Tensor(arr, requires_grad=True, dtype=self.dtype) for name, arr
                       in load_tensors(path, param_shapes(self.config)).items()}

    # ---- forward pieces ----

    def _dropout(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return x if rng is None else T.dropout(x, self.config.dropout_rate, rng)

    def _param(self, ops, name: str):
        """A parameter as the op set takes it: a Tensor for `tensor`, else its array."""
        p = self.params[name]
        return p if ops is T else p.data

    def _relpos_bias(self, ops, stack: str, start: int, end: int):
        """(H, q, k) bias for query positions start..end over keys 0..end:
        the stack's (H, num_buckets) table gathered at a slice of its bucket grid."""
        buckets = self._buckets[stack][start:end, :end]
        return ops.take(self._param(ops, f"{stack}.relpos"), buckets, 1)

    def _attention(self, ops, x_q, x_kv, base: str, mask_add: np.ndarray | None, bias,
                   rng: np.random.Generator | None, cache: DecoderCache | None = None):
        """Multi-head attention of x_q over x_kv, dropout on the weights
        when given an rng. With a cache, self-attention (x_kv is x_q) adds
        its new keys and values after the cached ones, and cross-attention
        reads the cache's encoded source groups, projected once each; each
        row attends to its own group, with the operands of a decode of it alone."""
        def kv(x):
            return tuple(ops.matmul(x, self._param(ops, f"{base}.{w}")) for w in ("wk", "wv"))

        cfg = self.config
        q = ops.matmul(x_q, self._param(ops, f"{base}.wq"))
        # scaled dot-product keeps init-time logits near unit variance,
        # which matters for trainability at desk scale
        args = (cfg.n_heads, 1.0 / math.sqrt(cfg.d_model // cfg.n_heads), bias, mask_add,
                cfg.dropout_rate if rng is not None else 0.0, rng)
        if cache is None:
            out = ops.attention(q, *kv(x_kv), *args)
        elif x_kv is x_q:
            out = ops.attention(q, *cache.append(base, *kv(x_kv), cfg.max_seq_len), *args)
        else:
            if base not in cache.cross:
                cache.cross[base] = [kv(enc) for enc in cache.enc]
            out = np.empty_like(q)
            for g, sel, loc in cache.row_groups():
                k, v = cache.cross[base][g]
                out[sel] = ops.attention(q[sel], k[loc], v[loc], *args)
        return ops.matmul(out, self._param(ops, f"{base}.wo"))

    def _ff(self, ops, x, base: str, rng: np.random.Generator | None):
        inner = ops.relu(ops.matmul(x, self._param(ops, f"{base}.wi")))
        inner = self._dropout(inner, rng)
        return ops.matmul(inner, self._param(ops, f"{base}.wo"))

    @staticmethod
    def _key_mask_add(attn_mask: np.ndarray, dtype) -> np.ndarray:
        """(B, L) boolean key mask -> additive (B, 1, 1, L) with -inf at pads."""
        neg = np.array(-np.inf, dtype=dtype)
        return np.where(attn_mask[:, None, None, :], dtype.type(0.0), neg)

    def _stack(self, ops, stack: str, ids: np.ndarray, self_mask: np.ndarray | None,
               start: int = 0, enc_hidden=None, cross_mask: np.ndarray | None = None,
               rng: np.random.Generator | None = None, cache: DecoderCache | None = None):
        """Embed ids, the stack's positions start.., and run its blocks as
        `BLOCKS` lays them out: self-attention under self_mask, cross-attention
        into enc_hidden under cross_mask (with a cache, into its encoded
        groups), and the feed-forward. Then the final norm; dropout follows
        the embedding, each sublayer and the final norm."""
        x = self._dropout(ops.take(self._param(ops, "shared.embedding"), ids), rng)
        n_layers, end = _layers(self.config, stack), start + ids.shape[1]
        bias = self._relpos_bias(ops, stack, start, end) if n_layers else None
        for i in range(n_layers):
            for sub in BLOCKS[stack]:
                base = f"{stack}.block{i}.{sub}"
                h = ops.rms_norm(x, self._param(ops, f"{base}.norm"))
                if sub == "ff":
                    y = self._ff(ops, h, base, rng)
                elif sub == "attn":
                    y = self._attention(ops, h, h, base, self_mask, bias, rng, cache)
                else:
                    y = self._attention(ops, h, enc_hidden, base, cross_mask, None, rng, cache)
                x = ops.add(x, self._dropout(y, rng))
        x = ops.rms_norm(x, self._param(ops, f"{stack}.final_norm"))
        return self._dropout(x, rng)

    def encode(self, ids, attn_mask, rng: np.random.Generator | None = None) -> Tensor:
        """Contextual hidden states, shape (B, L, d_model).

        attn_mask marks real tokens; pad key positions are masked with
        -inf attention logits so they cannot influence real positions.
        """
        ids = checked_ids(self.config, ids, "encoder ids")
        mask_add = self._key_mask_add(np.asarray(attn_mask, dtype=bool), self.dtype)
        return self._stack(T, "encoder", ids, mask_add, rng=rng)

    def decode_logits(self, enc_hidden, enc_mask, dec_ids, cache: DecoderCache | None = None,
                      rng: np.random.Generator | None = None):
        """Decoder logits, shape (B, T, vocab_size).

        Causal self-attention (position t attends <= t) plus cross
        attention into the encoder states; the readout is tied to the
        shared embedding and rescaled by 1/sqrt(d_model).

        Without a cache, dec_ids is the whole decoder input (teacher
        forcing) over enc_hidden, the padded encoder output that enc_mask
        marks, and the result is a Tensor. With a DecoderCache, enc_hidden,
        enc_mask and rng are None and dec_ids holds the next T positions of
        each cached row: the first call encodes the cache's source groups,
        each call appends its keys and values to the cache, and the forward
        runs on plain arrays (`tensor.array_ops`) and returns an ndarray.
        """
        if cache is not None and any(a is not None for a in (enc_hidden, enc_mask, rng)):
            raise ValueError("cached decoding is inference on the cache's source groups; "
                             "pass enc_hidden=None, enc_mask=None and rng=None")
        cfg = self.config
        ops = T if cache is None else T.array_ops
        start = cache.length if cache is not None else 0
        dec_ids = checked_ids(cfg, dec_ids, "decoder ids", start)
        t_len = dec_ids.shape[1]
        end = start + t_len
        if cache is not None and cache.enc is None:
            cache.enc = [self._stack(ops, "encoder", checked_ids(cfg, ids, "encoder ids"), None)
                         for ids in cache.groups]
        # a single query row may see every key, so it needs no causal mask
        causal = (np.triu(np.full((1, 1, t_len, end), -np.inf, dtype=self.dtype), k=1 + start)
                  if t_len > 1 else None)
        cross_mask = (self._key_mask_add(np.asarray(enc_mask, dtype=bool), self.dtype)
                      if cache is None else None)
        x = self._stack(ops, "decoder", dec_ids, causal, start, enc_hidden, cross_mask, rng, cache)
        if cache is not None:
            cache.length = end
        x = ops.mul(x, 1.0 / math.sqrt(cfg.d_model))
        return ops.matmul(x, ops.transpose(self._param(ops, "shared.embedding"), (1, 0)))

    def batch_loss(self, batch, rng: np.random.Generator | None = None) -> Tensor:
        """Mean token cross-entropy over the target positions that are not
        `batch.pad_id`; with an rng, the forward applies dropout drawn from it."""
        enc = self.encode(batch.enc_ids, batch.enc_mask, rng)
        logits = self.decode_logits(enc, batch.enc_mask, batch.dec_ids, rng=rng)
        b, t, v = logits.shape
        flat = T.reshape(logits, (b * t, v))
        return T.cross_entropy(flat, batch.target_ids.reshape(-1), ignore_id=batch.pad_id)


def save_toolkit(path, model: Seq2SeqTransformer, vocab: Vocabulary):
    """Write the model, its vocabulary and its config into the directory path."""
    root = Path(path)
    model.save(root / MODEL_FILE)
    vocab.save(root / VOCAB_FILE)
    (root / CONFIG_FILE).write_text(model.config.to_json(), encoding="utf-8")


def load_toolkit(path) -> tuple[Seq2SeqTransformer, Vocabulary]:
    """The model and vocabulary of a `save_toolkit` directory, such as a checkpoint."""
    root = Path(path)
    try:  # malformed JSON or text, and invalid fields
        config = ModelConfig.from_json((root / CONFIG_FILE).read_text(encoding="utf-8"))
    except ValueError as e:
        raise ValueError(f"{root / CONFIG_FILE}: {e}") from e
    vocab = Vocabulary.load(root / VOCAB_FILE)
    if vocab.vocab_size != config.vocab_size:
        raise ValueError(f"{root / VOCAB_FILE}: the vocabulary has {vocab.vocab_size} ids "
                         f"but the model has {config.vocab_size}")
    model = Seq2SeqTransformer(config, params={})  # load() fills every parameter: no random init
    model.load(root / MODEL_FILE)
    return model, vocab
