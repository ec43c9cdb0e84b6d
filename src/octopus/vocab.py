"""Vocabulary construction and reversible text<->id coding.

Ids are laid out as: pad=0, eos=1, unk=2, content tokens from 3 upward in
descending frequency, and a block of S sentinel ids at the very top of the
id space (sentinel i = vocab_size - 1 - i). Sentinels mark masked spans
during denoising and render as "<extra_id_i>".
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Iterator

PAD_ID = 0
EOS_ID = 1
UNK_ID = 2
_NUM_RESERVED = 3

# unk renders as a single char so decode stays idempotent under re-encode
UNK_GLYPH = "⁇"  # ⁇


def _escape(token: str) -> str:
    return (
        token.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


_UNESCAPES = {"\\": "\\", "n": "\n", "r": "\r", "t": "\t"}


def _unescape(line: str) -> str:
    return re.sub(r"\\(.)", lambda m: _UNESCAPES.get(m[1], m[1]), line, flags=re.S)


class Vocabulary:
    """Bijective character<->id map with reserved specials and sentinels."""

    def __init__(self, content_tokens: list[str], sentinels: int = 100):
        if len(set(content_tokens)) != len(content_tokens):
            raise ValueError("duplicate content tokens")
        if sentinels < 0:
            raise ValueError(f"the number of sentinels must be >= 0, not {sentinels}")
        self.num_sentinels = sentinels
        self._tokens = list(content_tokens)
        self._token_to_id = {
            tok: i + _NUM_RESERVED for i, tok in enumerate(self._tokens)
        }
        self.vocab_size = _NUM_RESERVED + len(self._tokens) + sentinels

    @property
    def pad_id(self) -> int:
        return PAD_ID

    @property
    def eos_id(self) -> int:
        return EOS_ID

    @property
    def unk_id(self) -> int:
        return UNK_ID

    @property
    def content_tokens(self) -> list[str]:
        return list(self._tokens)

    def sentinel(self, i: int) -> int:
        """Id of the i-th sentinel; sentinel ids decrease as i grows."""
        if not 0 <= i < self.num_sentinels:
            raise ValueError(f"sentinel index {i} outside [0, {self.num_sentinels})")
        return self.vocab_size - 1 - i

    def is_sentinel(self, token_id: int) -> bool:
        return self.vocab_size - self.num_sentinels <= token_id < self.vocab_size

    def sentinel_index(self, token_id: int) -> int:
        if not self.is_sentinel(token_id):
            raise ValueError(f"id {token_id} is not a sentinel")
        return self.vocab_size - 1 - token_id

    def encode(self, text: str) -> list[int]:
        """Token ids for `text`, one per character; unknown ones map to unk. No eos."""
        return [self._token_to_id.get(tok, UNK_ID) for tok in text]

    def decode(self, ids: Iterable[int]) -> str:
        """Inverse of encode; pad/eos dropped, sentinels render as <extra_id_i>."""
        pieces = []
        for i in ids:
            i = int(i)
            if i in (PAD_ID, EOS_ID):
                continue
            if i == UNK_ID:
                pieces.append(UNK_GLYPH)
            elif self.is_sentinel(i):
                pieces.append(f"<extra_id_{self.sentinel_index(i)}>")
            elif _NUM_RESERVED <= i < _NUM_RESERVED + len(self._tokens):
                pieces.append(self._tokens[i - _NUM_RESERVED])
            else:
                raise ValueError(f"id {i} out of range for vocab of size {self.vocab_size}")
        return "".join(pieces)

    def save(self, path):
        """One content token per line; header records size, sentinels, unit."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"vocab_size={self.vocab_size}\tsentinels={self.num_sentinels}\tunit=char\n")
            for tok in self._tokens:
                f.write(_escape(tok) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
            parts = [part.split("=", 1) for part in header.split("\t")]
            tokens = [_unescape(line.rstrip("\n")) for line in f]
        if any(len(p) != 2 for p in parts):
            raise ValueError(f"corrupt vocabulary file {path}: header {header!r} "
                             "is not tab-separated key=value fields")
        fields = dict(parts)
        for key in ("sentinels", "unit", "vocab_size"):
            if key not in fields:
                raise ValueError(f"corrupt vocabulary file {path}: header has no {key!r} field")
        if fields["unit"] != "char":
            raise ValueError(f"vocabulary file {path}: unsupported unit {fields['unit']!r}")
        try:
            sentinels, size = int(fields["sentinels"]), int(fields["vocab_size"])
        except ValueError:
            raise ValueError(f"corrupt vocabulary file {path}: header {header!r} "
                             "has a count that is not an integer") from None
        vocab = cls(tokens, sentinels=sentinels)
        if vocab.vocab_size != size:
            raise ValueError(f"corrupt vocabulary file {path}: size mismatch")
        return vocab


def build_vocab(
    corpus: Iterable[str] | Iterator[str],
    max_size: int = 4096,
    sentinels: int = 100,
) -> Vocabulary:
    """Build a vocabulary from the most frequent characters in `corpus`.

    Ties break lexicographically. max_size caps the total id space
    including specials and the sentinel block.
    """
    if max_size <= _NUM_RESERVED + sentinels:
        raise ValueError(
            f"max_size must exceed {_NUM_RESERVED + sentinels} (specials + sentinels)"
        )
    counts: Counter[str] = Counter()
    n_texts = 0
    for text in corpus:
        n_texts += 1
        counts.update(text)
    if n_texts == 0 or not counts:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    budget = max_size - _NUM_RESERVED - sentinels
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    content = [tok for tok, _ in ordered[:budget]]
    return Vocabulary(content, sentinels=sentinels)
