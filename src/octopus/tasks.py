"""Task registry (prefixes, templates, metrics), JSONL dataset ingestion,
and seedable synthetic generators that stand in for the real corpora at
desk scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .metrics import HIGHER, LOWER, Edit, EditSet


@dataclass(frozen=True)
class TaskSpec:
    """One task prefix: how to build inputs and how to score outputs."""

    name: str          # canonical task name (8 unique)
    prefix: str        # exact CLI token (9, transliteration is directional)
    template: str      # "text" | "qa" | "qg"
    metric: str
    direction: str


# The historical prefix spelling "translitrate" is kept verbatim for CLI
# compatibility; the corrected spelling is accepted as an alias below.
REGISTRY: dict[str, TaskSpec] = {
    spec.prefix: spec
    for spec in [
        TaskSpec("diacritization", "diacritize", "text", "cer", LOWER),
        TaskSpec("grammatical_error_correction", "correct_grammar", "text", "f05_m2", HIGHER),
        TaskSpec("paraphrasing", "paraphrase", "text", "bleu", HIGHER),
        TaskSpec("question_answering", "answer_question", "qa", "token_f1", HIGHER),
        TaskSpec("question_generation", "generate_question", "qg", "bleu", HIGHER),
        TaskSpec("summarization", "summarize", "text", "rouge_l", HIGHER),
        TaskSpec("title_generation", "generate_title", "text", "bleu", HIGHER),
        TaskSpec("transliteration", "translitrate_ar2en", "text", "cer", LOWER),
        TaskSpec("transliteration", "translitrate_en2ar", "text", "cer", LOWER),
    ]
}

PREFIXES = tuple(REGISTRY)

_ALIASES = {
    "transliterate_ar2en": "translitrate_ar2en",
    "transliterate_en2ar": "translitrate_en2ar",
}


def normalize_prefix(name: str) -> str:
    """Canonical prefix for `name`; hyphens and the corrected
    transliteration spelling are accepted. Raises on unknown tasks."""
    key = name.strip().replace("-", "_")
    key = _ALIASES.get(key, key)
    if key not in REGISTRY:
        raise ValueError(
            f"unknown task {name!r}; expected one of {', '.join(PREFIXES)}"
        )
    return key


def task_for_prefix(name: str) -> TaskSpec:
    return REGISTRY[normalize_prefix(name)]


def canonical_tasks() -> list[str]:
    seen: list[str] = []
    for spec in REGISTRY.values():
        if spec.name not in seen:
            seen.append(spec.name)
    return seen


def registry_json() -> str:
    """Stable serialization of the registry (order and content)."""
    return json.dumps([asdict(REGISTRY[p]) for p in PREFIXES], sort_keys=True)


@dataclass
class Example:
    """One supervised example, checked on construction; `source` is the raw
    payload, aux fields feed the QA/QG templates. `model_source` is the
    prefixed model input, out of equality so JSONL round-trips compare on content."""

    task: str
    target: str
    source: str | None = None
    question: str | None = None
    context: str | None = None
    answer: str | None = None
    gold_edits: list[Edit] | None = None
    model_source: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        spec = task_for_prefix(self.task)
        self.task = spec.prefix
        self.model_source = format_input(spec, {"text": self.source, "question": self.question,
                                                "context": self.context, "answer": self.answer})
        if not self.target:
            raise ValueError("example target must be non-empty")
        if self.gold_edits is not None:
            self.gold_edits = EditSet(self.gold_edits).edits
            n_words = len((self.source or "").split())
            if any(end > n_words for _, end, _ in self.gold_edits):
                raise ValueError(f"a gold edit ends past the source's {n_words} words")


def format_input(spec: TaskSpec, fields: dict) -> str:
    """"<prefix>: <payload>" with the task's template applied.

    QA payload is "question: {q} context: {c}", QG is
    "answer: {a} context: {c}", everything else passes the text through.
    Missing or empty required fields raise, naming the field.
    """

    def need(key: str) -> str:
        value = fields.get(key)
        if value is None or value == "":
            raise ValueError(f"task {spec.prefix!r} requires field {key!r}")
        return value

    if spec.template == "qa":
        payload = f"question: {need('question')} context: {need('context')}"
    elif spec.template == "qg":
        payload = f"answer: {need('answer')} context: {need('context')}"
    else:
        payload = need("text")
    return f"{spec.prefix}: {payload}"


def load_jsonl(path) -> list[Example]:
    """Parse a dataset file: one JSON object per line.

    Each object needs "task", "target", and either "source" or the aux
    fields its template requires. Text fields are strings, a null one is
    absent, and "gold_edits" is a list of [start, end, [word, ...]] with
    integer offsets. Errors carry the line number.
    """
    examples: list[Example] = []
    with open(path, encoding="utf-8") as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                examples.append(_example_from_json(json.loads(line)))
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{line_no}: malformed JSON ({e.msg})") from None
            except ValueError as e:
                raise ValueError(f"{path}:{line_no}: {e}") from None
    return examples


_TEXT_FIELDS = ("task", "target", "source", "question", "context", "answer")


def _example_from_json(obj) -> Example:
    """The Example one parsed JSONL line holds; ValueError names a field
    that is missing or of the wrong type."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for key in ("task", "target"):
        if obj.get(key) is None:
            raise ValueError(f"missing key {key!r}")
    fields = {key: obj.get(key) for key in _TEXT_FIELDS}
    for key, value in fields.items():
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{key!r} must be a string, not {type(value).__name__}")
    edits = obj.get("gold_edits")
    if edits is not None:
        if not (isinstance(edits, list) and all(map(_is_edit, edits))):
            raise ValueError("'gold_edits' must be a list of [start, end, [word, ...]] "
                             "with integer start and end")
    return Example(**fields, gold_edits=edits)


def _is_edit(e) -> bool:
    return (isinstance(e, list) and len(e) == 3 and all(type(n) is int for n in e[:2])
            and isinstance(e[2], list) and all(isinstance(w, str) for w in e[2]))


def write_jsonl(path, examples: list[Example]):
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            obj = {"task": ex.task, "target": ex.target}
            for key in ("source", "question", "context", "answer"):
                value = getattr(ex, key)
                if value is not None:
                    obj[key] = value
            if ex.gold_edits is not None:
                obj["gold_edits"] = [[s, e, list(r)] for s, e, r in ex.gold_edits]
            f.write(json.dumps(obj, ensure_ascii=False) + "\n")


# ---- synthetic desk-scale datasets ----

CIPHER_PLAIN = "abcdefghij"
CIPHER_CODED = "αβγδεζηθικ"
_TO_CODED = str.maketrans(CIPHER_PLAIN, CIPHER_CODED)
_TO_PLAIN = str.maketrans(CIPHER_CODED, CIPHER_PLAIN)


def apply_cipher(text: str) -> str:
    return text.translate(_TO_CODED)


def invert_cipher(text: str) -> str:
    return text.translate(_TO_PLAIN)


def synth_cipher(n: int, seed: int = 0, direction: str = "both",
                 min_len: int = 4, max_len: int = 10) -> list[Example]:
    """Random strings mapped by a fixed character bijection.

    "translitrate_ar2en" maps the plain alphabet to the coded one,
    "translitrate_en2ar" inverts it; direction="both" emits each string in
    both directions (2n examples).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if direction not in ("both", "ar2en", "en2ar"):
        raise ValueError(f"unknown direction {direction!r}")
    rng = np.random.default_rng(seed)
    out: list[Example] = []
    for _ in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        plain = "".join(CIPHER_PLAIN[i] for i in rng.integers(0, len(CIPHER_PLAIN), length))
        coded = apply_cipher(plain)
        if direction in ("both", "ar2en"):
            out.append(Example(task="translitrate_ar2en", source=plain, target=coded))
        if direction in ("both", "en2ar"):
            out.append(Example(task="translitrate_en2ar", source=coded, target=plain))
    return out


VOWELS = "aeiou"
_CONSONANTS = "bdfgklmnprst"


def strip_vowels(text: str, vowels: str = VOWELS) -> str:
    return "".join(c for c in text if c not in vowels)


def make_vowel_lexicon(n_words: int = 40, seed: int = 0) -> list[str]:
    """Fully-voweled CVCVCV words whose consonant skeletons are unique, so
    devoweling is invertible over the lexicon."""
    rng = np.random.default_rng(seed)
    skeletons: list[str] = []
    seen = set()
    while len(skeletons) < n_words:
        skel = "".join(_CONSONANTS[i] for i in rng.integers(0, len(_CONSONANTS), 3))
        if skel not in seen:
            seen.add(skel)
            skeletons.append(skel)
    words = []
    for skel in skeletons:
        vs = [VOWELS[i] for i in rng.integers(0, len(VOWELS), 3)]
        words.append(skel[0] + vs[0] + skel[1] + vs[1] + skel[2] + vs[2])
    return words


def synth_devowel(n: int, seed: int = 0, lexicon: list[str] | None = None,
                  min_words: int = 3, max_words: int = 8) -> list[Example]:
    """Vowel-restoration sentences: source is the target with its vowels
    removed. The lexicon must devowel injectively, else restoring is
    ill-posed; collisions raise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if lexicon is None:
        lexicon = make_vowel_lexicon(seed=seed)
    stripped = [strip_vowels(w) for w in lexicon]
    if len(set(stripped)) != len(lexicon):
        dupes = sorted({s for s in stripped if stripped.count(s) > 1})
        raise ValueError(f"lexicon collision: devoweled forms {dupes} are ambiguous")
    rng = np.random.default_rng(seed + 1)
    out = []
    for _ in range(n):
        k = int(rng.integers(min_words, max_words + 1))
        words = [lexicon[i] for i in rng.integers(0, len(lexicon), k)]
        target = " ".join(words)
        out.append(Example(task="diacritize", source=strip_vowels(target), target=target))
    return out


_GEC_POOL = (
    "the a cat dog bird tree house road river stone cloud light "
    "runs sees finds holds keeps small big old new red blue green"
).split()


def synth_gec(n: int, seed: int = 0, min_words: int = 5, max_words: int = 9) -> list[Example]:
    """Grammar-repair stand-in: corrupt clean sentences with word-level
    swaps, drops, and duplications at well-separated positions, recording
    gold edits against the corrupted source by construction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(min_words, max_words + 1))
        idx = rng.choice(len(_GEC_POOL), size=k, replace=False)
        clean = [_GEC_POOL[i] for i in idx]
        n_ops = int(rng.integers(1, 3))
        # two clean words must separate edit groups, otherwise equal-cost
        # alternative alignments make the shortest edit script ambiguous
        sites = [int(rng.integers(0, k - 1))]
        if n_ops == 2 and sites[0] + 4 <= k - 2:
            sites.append(int(rng.integers(sites[0] + 4, k - 1)))

        corrupted: list[str] = []
        gold: list[Edit] = []
        delta = 0
        cursor = 0
        for site in sites:
            corrupted.extend(clean[cursor:site])
            op = ("swap", "drop", "dup")[int(rng.integers(3))]
            if op == "swap" and site + 1 < k:
                corrupted.extend([clean[site + 1], clean[site]])
                gold.append((site + delta, site + delta + 2, (clean[site], clean[site + 1])))
                cursor = site + 2
            elif op == "drop":
                gold.append((site + delta, site + delta, (clean[site],)))
                delta -= 1
                cursor = site + 1
            else:  # dup; shortest-script deletion anchors at the run's left edge
                corrupted.extend([clean[site], clean[site]])
                gold.append((site + delta, site + delta + 1, ()))
                delta += 1
                cursor = site + 1
        corrupted.extend(clean[cursor:])
        out.append(Example(
            task="correct_grammar",
            source=" ".join(corrupted),
            target=" ".join(clean),
            gold_edits=gold,
        ))
    return out


_TEXT_NOUNS = ["cat", "dog", "bird", "fish", "mouse", "horse"]
_TEXT_VERBS = ["sees", "likes", "finds", "chases"]


def synth_structured_text(n: int, seed: int = 0) -> list[str]:
    """Low-entropy patterned sentences for denoising experiments."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        parts = []
        for _ in range(int(rng.integers(1, 3))):
            noun_a = _TEXT_NOUNS[int(rng.integers(len(_TEXT_NOUNS)))]
            verb = _TEXT_VERBS[int(rng.integers(len(_TEXT_VERBS)))]
            noun_b = _TEXT_NOUNS[int(rng.integers(len(_TEXT_NOUNS)))]
            parts.append(f"the {noun_a} {verb} the {noun_b} .")
        out.append(" ".join(parts))
    return out
