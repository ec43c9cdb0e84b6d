"""Evaluation suite: BLEU, ROUGE-L, CER, token F1, edit-based F0.5 for
grammatical error correction, macro H/L aggregation, and a
diacritization-fidelity diagnostic.

All functions are pure. Percent-scaled metrics return values in [0, 100];
CER and fidelity are fractions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

HIGHER = "higher"
LOWER = "lower"


@dataclass
class MetricReport:
    """Per-dataset score with its direction flag."""

    dataset: str
    metric: str
    direction: str
    score: float

    def __post_init__(self):
        if self.direction not in (HIGHER, LOWER):
            raise ValueError(f"direction must be '{HIGHER}' or '{LOWER}'")


def _levenshtein_rows(a, b):
    """Rows of the unit-cost Levenshtein table: row i holds the distances
    from a[:i] to every prefix of b."""
    prev = list(range(len(b) + 1))
    yield prev
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] if x == y else 1 + min(prev[j - 1], prev[j], cur[j - 1]))
        yield cur
        prev = cur


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance between character sequences."""
    if a == b:
        return 0
    for row in _levenshtein_rows(a, b):
        pass
    return row[-1]


def cer(hypothesis: str, reference: str) -> float:
    """Character error rate: edit distance over reference length."""
    if not reference:
        raise ValueError("cer needs a non-empty reference")
    return edit_distance(hypothesis, reference) / len(reference)


def cer_corpus(hypotheses: list[str], references: list[str]) -> float:
    """Corpus-level CER: total edits over total reference characters."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference count mismatch")
    if not references or any(not r for r in references):
        raise ValueError("cer needs non-empty references")
    edits = sum(edit_distance(h, r) for h, r in zip(hypotheses, references))
    return edits / sum(len(r) for r in references)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses: list[str], references: list[str]) -> float:
    """Corpus BLEU over whitespace tokens, n-grams 1..4, single reference.

    Unsmoothed: any zero modified precision clips the score to 0. Orders
    where the corpus has no n-grams at all are skipped, so short perfect
    matches still score 100. Brevity penalty exp(1 - ref_len/hyp_len)
    applies when the hypothesis side is shorter.
    """
    if not hypotheses or len(hypotheses) != len(references):
        raise ValueError("bleu needs equal, non-empty hypothesis/reference lists")
    hyp_tokens = [h.split() for h in hypotheses]
    ref_tokens = [r.split() for r in references]
    hyp_len = sum(len(t) for t in hyp_tokens)
    ref_len = sum(len(t) for t in ref_tokens)
    if hyp_len == 0:
        return 0.0
    log_prec = 0.0
    orders = 0
    for n in range(1, 5):
        matched = 0
        total = 0
        for h, r in zip(hyp_tokens, ref_tokens):
            h_counts = _ngrams(h, n)
            r_counts = _ngrams(r, n)
            total += sum(h_counts.values())
            matched += sum(min(c, r_counts[g]) for g, c in h_counts.items())
        if total == 0:
            continue
        if matched == 0:
            return 0.0
        orders += 1
        log_prec += math.log(matched / total)
    if orders == 0:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_prec / orders)


def _lcs_len(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(hypothesis: str, reference: str) -> float:
    """LCS F1 over whitespace tokens, percent-scaled."""
    ref = reference.split()
    if not ref:
        raise ValueError("rouge_l needs a non-empty reference")
    hyp = hypothesis.split()
    lcs = _lcs_len(hyp, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return 100.0 * 2 * p * r / (p + r)


def rouge_l_corpus(hypotheses: list[str], references: list[str]) -> float:
    if len(hypotheses) != len(references) or not references:
        raise ValueError("rouge_l needs equal, non-empty lists")
    return sum(rouge_l(h, r) for h, r in zip(hypotheses, references)) / len(references)


def token_f1(prediction: str, gold: str) -> float:
    """Bag-of-tokens F1 (reading-comprehension convention), percent-scaled.

    Two empty strings count as a perfect match.
    """
    pred = prediction.split()
    ref = gold.split()
    if not pred and not ref:
        return 100.0
    if not pred or not ref:
        return 0.0
    overlap = sum((Counter(pred) & Counter(ref)).values())
    if overlap == 0:
        return 0.0
    p = overlap / len(pred)
    r = overlap / len(ref)
    return 100.0 * 2 * p * r / (p + r)


def token_f1_corpus(hypotheses: list[str], references: list[str]) -> float:
    if len(hypotheses) != len(references) or not references:
        raise ValueError("token_f1 needs equal, non-empty lists")
    return sum(token_f1(h, r) for h, r in zip(hypotheses, references)) / len(references)


# ---- edit-based GEC scoring ----

Edit = tuple[int, int, tuple[str, ...]]  # (start word, end word, replacement words)


@dataclass
class EditSet:
    """Gold edits against a tokenized source sentence.

    Edits are half-open word spans, non-overlapping and sorted;
    end == start denotes an insertion before `start`.
    """

    edits: list[Edit] = field(default_factory=list)

    def __post_init__(self):
        normed = []
        for start, end, repl in self.edits:
            if end < start:
                raise ValueError(f"edit span ({start}, {end}) has end < start")
            normed.append((int(start), int(end), tuple(repl)))
        normed.sort(key=lambda e: (e[0], e[1]))
        prev_end = None
        for start, end, _ in normed:
            if prev_end is not None and start < prev_end:
                raise ValueError("gold edits overlap")
            prev_end = max(end, start)
        self.edits = normed

    def apply(self, source_tokens: list[str]) -> list[str]:
        out: list[str] = []
        cursor = 0
        for start, end, repl in self.edits:
            if end > len(source_tokens):
                raise ValueError("edit span outside source")
            out.extend(source_tokens[cursor:start])
            out.extend(repl)
            cursor = end
        out.extend(source_tokens[cursor:])
        return out


def extract_edits(source: str, hypothesis: str) -> list[Edit]:
    """System edits from a word-level shortest edit script.

    DP ties prefer substitution, then deletion, then insertion; adjacent
    non-matching operations merge into span edits.
    """
    src = source.split()
    hyp = hypothesis.split()
    dist = list(_levenshtein_rows(src, hyp))

    # backtrace from the end, preferring match > substitution > deletion > insertion
    ops: list[tuple[str, int, int]] = []  # (op, src index, hyp index)
    i, j = len(src), len(hyp)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and src[i - 1] == hyp[j - 1] and dist[i][j] == dist[i - 1][j - 1]:
            ops.append(("eq", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            ops.append(("sub", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(("del", i - 1, j))
            i, j = i - 1, j
        else:
            ops.append(("ins", i, j - 1))
            j = j - 1
    ops.reverse()

    edits: list[Edit] = []
    k = 0
    while k < len(ops):
        if ops[k][0] == "eq":
            k += 1
            continue
        start = ops[k][1]
        end = start
        repl: list[str] = []
        while k < len(ops) and ops[k][0] != "eq":
            op, si, hj = ops[k]
            if op in ("sub", "del"):
                end = si + 1
            if op in ("sub", "ins"):
                repl.append(hyp[hj])
            k += 1
        edits.append((start, end, tuple(repl)))
    return edits


def _f_beta(tp: int, n_sys: int, n_gold: int, beta: float = 0.5) -> float:
    if n_sys == 0 and n_gold == 0:
        return 100.0
    if n_sys == 0 or n_gold == 0:
        return 0.0
    p = tp / n_sys
    r = tp / n_gold
    if p == 0.0 or r == 0.0:
        return 0.0
    b2 = beta * beta
    return 100.0 * (1 + b2) * p * r / (b2 * p + r)


def m2_f05(source: str, hypothesis: str, gold: EditSet) -> float:
    """Edit-level F0.5 of the hypothesis against gold edits.

    True positives are system edits matching a gold edit exactly (span
    and replacement). No edits on either side scores 100; edits on only
    one side score 0.
    """
    return m2_f05_corpus([source], [hypothesis], [gold])


def m2_f05_corpus(sources: list[str], hypotheses: list[str], golds: list[EditSet]) -> float:
    """Corpus F0.5: edit counts pooled over sentences before the F-score."""
    if not sources or len({len(sources), len(hypotheses), len(golds)}) != 1:
        raise ValueError("m2_f05 needs equal, non-empty lists")
    tp = n_sys = n_gold = 0
    for src, hyp, gold in zip(sources, hypotheses, golds):
        sys_edits = extract_edits(src, hyp)
        gold_set = set(gold.edits)
        tp += sum(1 for e in sys_edits if e in gold_set)
        n_sys += len(sys_edits)
        n_gold += len(gold.edits)
    return _f_beta(tp, n_sys, n_gold)


def macro_scores(reports: list[MetricReport]) -> tuple[float | None, float | None]:
    """Unweighted means over higher-better and lower-better reports.

    A side with no reports is undefined and comes back as None.
    """
    if not reports:
        raise ValueError("macro_scores needs at least one report")
    ups = [r.score for r in reports if r.direction == HIGHER]
    downs = [r.score for r in reports if r.direction == LOWER]
    h = sum(ups) / len(ups) if ups else None
    l = sum(downs) / len(downs) if downs else None
    return h, l


def diacritization_fidelity(source: str, hypothesis: str, diacritics: set[str]) -> float:
    """How well the hypothesis preserves the source words once its
    diacritic characters are stripped: word-LCS over source word count."""
    src_words = source.split()
    if not src_words:
        return 0.0
    stripped = "".join(c for c in hypothesis if c not in diacritics)
    hyp_words = stripped.split()
    return _lcs_len(src_words, hyp_words) / len(src_words)


# ---- dispatch used by dev evaluation and reporting ----

CORPUS_METRICS = {
    "bleu": bleu,
    "rouge_l": rouge_l_corpus,
    "cer": cer_corpus,
    "token_f1": token_f1_corpus,
}


def score_task(metric: str, hypotheses: list[str], references: list[str],
               sources: list[str] | None = None,
               gold_edits: list[EditSet] | None = None) -> float:
    """Corpus score for a named metric; GEC needs sources and gold edits."""
    if metric == "f05_m2":
        if sources is None or gold_edits is None:
            raise ValueError("f05_m2 scoring needs sources and gold edit sets")
        return m2_f05_corpus(sources, hypotheses, gold_edits)
    if metric not in CORPUS_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    return CORPUS_METRICS[metric](hypotheses, references)
