"""Training for the four regimes (pretrain, single task, multitask, joint)
by two batch rules, plus dev-set checkpoint selection.

Determinism contract: every random draw comes from a Generator seeded by
(config seed, step, stream tag), so two runs with the same config are
bit-identical and a resumed run continues exactly where the saved one
would have gone.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .decoding import DecodeConfig, generate_batch
from .metrics import EditSet, score_task
from .model import (CONFIG_FILE, VOCAB_FILE, Seq2SeqTransformer, check_counts, is_number,
                    load_checkpoint, load_toolkit, save_checkpoint, save_toolkit)
from .objectives import Seq2SeqBatch, batch_from_ids, check_sentinels, corrupt_spans, make_batch
from .optim import AdamState, adam_step
from .tasks import REGISTRY, Example, TaskSpec, normalize_prefix
from .vocab import Vocabulary

STRATEGIES = ("pretrain", "single_task", "multitask", "joint")

# rng stream tags
_DATA, _DROPOUT, _EPOCH, _BRANCH = 0, 1, 2, 3


@dataclass
class TrainConfig:
    strategy: str
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_steps: int | None = None  # required
    eval_every: int = 0  # 0: checkpoint only at the end
    seed: int = 0
    task_weights: dict[str, float] | None = None  # None: proportional to pool size; keys canonical
    labeled_fraction: float = 0.5  # joint only: share of labeled steps
    out_dir: str | Path | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        check_counts(self, {"batch_size": 1, "max_steps": 1, "eval_every": 0, "seed": 0})
        if not (is_number(self.learning_rate) and 0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be positive and finite")
        if not (is_number(self.labeled_fraction) and 0.0 <= self.labeled_fraction <= 1.0):
            raise ValueError("labeled_fraction must be in [0, 1]")
        if self.task_weights is not None:
            weights = {normalize_prefix(name): w for name, w in self.task_weights.items()}
            if len(weights) != len(self.task_weights):
                raise ValueError(f"two mixing weights name one task: {sorted(self.task_weights)}")
            for name, w in weights.items():
                if not (is_number(w) and w > 0 and math.isfinite(w)):
                    raise ValueError(f"mixing weight for {name!r} must be positive and finite")
            self.task_weights = weights


@dataclass
class CheckpointMeta:
    """One saved checkpoint and its dev score."""

    step: int
    score: float
    metric: str
    direction: str
    path: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "CheckpointMeta":
        meta = cls(**json.loads(line))
        if not (type(meta.step) is int and isinstance(meta.score, (int, float))
                and all(isinstance(v, str) for v in (meta.metric, meta.direction, meta.path))):
            raise ValueError("a field has the wrong type")
        return meta


@dataclass(frozen=True)
class TaskData:
    """A frozen labeled pool plus an optional dev set. `task` becomes its
    canonical prefix on construction, every example must be of that task,
    and the splits are tuples, so no unchecked example can join them."""

    task: str
    train: tuple[Example, ...]
    dev: tuple[Example, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "task", normalize_prefix(self.task))
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "dev", None if self.dev is None else tuple(self.dev))
        for split, examples in (("train", self.train), ("dev", self.dev or [])):
            for i, ex in enumerate(examples):
                if ex.task != self.task:
                    raise ValueError(f"{split} example {i} of the {self.task!r} set "
                                     f"is of task {ex.task!r}")
        _gold_edit_sets(REGISTRY[self.task], self.dev or ())


@dataclass
class Datasets:
    texts: list[str] = field(default_factory=list)
    tasks: list[TaskData] = field(default_factory=list)


@dataclass
class TrainResult:
    losses: list[float]
    metas: list[CheckpointMeta]
    best_index: int | None
    out_dir: str | None


def select_best_checkpoint(metas: list[CheckpointMeta]) -> int:
    """Index of the best checkpoint; ties go to the earliest step."""
    if not metas:
        raise ValueError("no checkpoints to select from")
    if len({(m.metric, m.direction) for m in metas}) != 1:
        raise ValueError("checkpoints mix metrics or directions")
    sign = 1.0 if metas[0].direction == "higher" else -1.0
    return max(range(len(metas)), key=lambda i: sign * metas[i].score)


class TaskMixer:
    """Draws task names with probability proportional to mixing weight."""

    def __init__(self, pools: dict[str, list[Example]],
                 weights: dict[str, float] | None = None, batch_size: int = 8):
        if not pools:
            raise ValueError("mixer needs at least one task pool")
        for name, pool in pools.items():
            if not pool:
                raise ValueError(f"task {name!r} has an empty pool")
        self.pools = pools
        self.names = sorted(pools)
        self.batch_size = batch_size
        if weights is None:
            raw = [float(len(pools[n])) for n in self.names]
        else:
            missing, extra = set(self.names) - set(weights), set(weights) - set(self.names)
            if missing:
                raise ValueError(f"missing mixing weights for {sorted(missing)}")
            if extra:
                raise ValueError(f"mixing weights for tasks with no labeled set: {sorted(extra)}")
            raw = [float(weights[n]) for n in self.names]
        total = sum(raw)
        self.weights = [w / total for w in raw]

    def sample(self, rng: np.random.Generator) -> str:
        return self.names[int(rng.choice(len(self.names), p=self.weights))]


def sample_task_batch(mixer: TaskMixer, rng: np.random.Generator) -> tuple[str, list[Example]]:
    """(task name, batch of examples drawn uniformly from that task's pool)."""
    name = mixer.sample(rng)
    pool = mixer.pools[name]
    idx = rng.integers(0, len(pool), size=mixer.batch_size)
    return name, [pool[i] for i in idx]


def evaluate_dev(model: Seq2SeqTransformer, vocab: Vocabulary, dev: list[Example],
                 task: TaskSpec) -> float:
    """Decode the dev set greedily, capped at 8 tokens past the longest
    reference, and score the outputs with the task's metric."""
    if not dev:
        raise ValueError("dev set is empty")
    golds = _gold_edit_sets(task, dev)
    # cut like training sources (`batch_from_ids`), so a long one cannot crash a checkpoint
    sources = [vocab.encode(ex.model_source)[:model.config.max_seq_len] for ex in dev]
    cfg = DecodeConfig("greedy", seq_length=max(len(vocab.encode(ex.target)) for ex in dev) + 8)
    hyps = [vocab.decode(h[0].ids) for h in generate_batch(model, vocab, sources, cfg, 64)]
    return score_task(task.metric, hyps, [ex.target for ex in dev],
                      sources=[ex.source for ex in dev], gold_edits=golds)


def _gold_edit_sets(task: TaskSpec, dev) -> list[EditSet] | None:
    """The dev examples' gold edits when the task's metric scores edits. One
    without any is an error: an empty set would make the source the answer."""
    if task.metric != "f05_m2":
        return None
    for i, ex in enumerate(dev):
        if ex.gold_edits is None:
            raise ValueError(f"dev example {i} of the {task.prefix!r} set has no gold edits")
    return [EditSet(ex.gold_edits) for ex in dev]


# ---- batch builders ----

def _denoise_batch(stream: list[int], vocab: Vocabulary, rng: np.random.Generator,
                   batch_size: int, width: int, max_len: int) -> Seq2SeqBatch:
    """Span-corrupt batch_size windows of `width` stream tokens at drawn
    starts; every row has one input and one target length, so none is padded."""
    starts = rng.integers(0, len(stream) - width + 1, size=batch_size)
    return batch_from_ids([corrupt_spans(stream[s:s + width], vocab, rng) for s in starts],
                          vocab, max_len)


def _batch_rule(vocab: Vocabulary, cfg: TrainConfig, data: Datasets, max_len: int):
    """Check the run's data before step 0 and return its step -> batch
    function. single_task walks epochs in order; every other strategy mixes
    labeled and denoising steps. The branch draw uses its own stream, so
    the data draws of a labeled share of 0 match pretraining, and of 1
    multitask, bit for bit."""
    names = [td.task for td in data.tasks]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"two labeled sets for task {name!r}; merge them into one")

    def labeled_batch(examples: list[Example]) -> Seq2SeqBatch:
        return make_batch([(ex.model_source, ex.target) for ex in examples], vocab, max_len)

    if cfg.strategy == "single_task":
        if len(data.tasks) != 1 or not data.tasks[0].train:
            raise ValueError("single_task training needs exactly one labeled set")
        pool, size = data.tasks[0].train, cfg.batch_size

        def epoch_batch(step: int) -> Seq2SeqBatch:
            epoch, pos = divmod(step, math.ceil(len(pool) / size))
            perm = np.random.default_rng((cfg.seed, _EPOCH, epoch)).permutation(len(pool))
            return labeled_batch([pool[i] for i in perm[pos * size:(pos + 1) * size]])

        return epoch_batch

    # share of labeled steps: pretrain and multitask are the joint mix at 0 and 1
    labeled = {"pretrain": 0.0, "multitask": 1.0}.get(cfg.strategy, cfg.labeled_fraction)
    stream: list[int] = []  # the unlabeled texts, each encoded once, end to end
    width = 0
    if labeled < 1:
        if not data.texts:
            raise ValueError(f"{cfg.strategy} training with unlabeled steps "
                             "needs unlabeled texts")
        check_sentinels(vocab)
        for i, text in enumerate(data.texts):
            ids = vocab.encode(text)
            if not ids:
                raise ValueError(f"unlabeled text {i} encodes to no tokens")
            stream.extend(ids)
        # T5's pipeline: fixed-length windows of the joined texts, one text long on average
        width = min(max_len, round(len(stream) / len(data.texts)))
    mixer = None
    if labeled > 0:
        if not data.tasks or any(not td.train for td in data.tasks):
            raise ValueError(f"{cfg.strategy} training with labeled steps "
                             "needs non-empty labeled sets")
        mixer = TaskMixer({td.task: td.train for td in data.tasks},
                          weights=cfg.task_weights, batch_size=cfg.batch_size)

    def mixed_batch(step: int) -> Seq2SeqBatch:
        rng = np.random.default_rng((cfg.seed, step, _DATA))
        if np.random.default_rng((cfg.seed, step, _BRANCH)).random() < labeled:
            return labeled_batch(sample_task_batch(mixer, rng)[1])
        return _denoise_batch(stream, vocab, rng, cfg.batch_size, width, max_len)

    return mixed_batch


def train(model: Seq2SeqTransformer, vocab: Vocabulary, cfg: TrainConfig,
          data: Datasets, resume_from: str | Path | None = None) -> TrainResult:
    """Run one training regime; returns losses and checkpoint metadata.

    With out_dir set, writes a loss log (step<TAB>loss<TAB>wallclock_ms),
    per-checkpoint directories, a checkpoints.jsonl meta file, and a
    final "best" copy chosen by select_best_checkpoint. Both logs are first
    cut back to the run's start step, 0 unless resumed.
    """
    build_batch = _batch_rule(vocab, cfg, data, model.config.max_seq_len)
    opt = AdamState.init(model.parameters(), cfg.learning_rate)
    start_step = 0
    if resume_from is not None:
        start_step = _load_train_state(Path(resume_from), model, vocab, opt)

    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    metas: list[CheckpointMeta] = []
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        metas = _cut_back(out_dir, start_step)

    total = cfg.max_steps
    losses: list[float] = []
    window: list[float] = []
    for step in range(start_step, total):
        t0 = time.perf_counter()
        batch = build_batch(step)
        model.zero_grads()
        loss = model.batch_loss(batch, rng=np.random.default_rng((cfg.seed, step, _DROPOUT)))
        loss_value = float(loss.data)
        if not math.isfinite(loss_value):
            raise RuntimeError(
                f"non-finite loss {loss_value} at step {step}; aborting "
                f"(strategy={cfg.strategy}, lr={cfg.learning_rate})"
            )
        loss.backward()
        grads = {k: p.grad for k, p in model.parameters().items() if p.grad is not None}
        adam_step(model.parameters(), grads, opt)
        losses.append(loss_value)
        window.append(loss_value)
        if out_dir is not None:
            ms = int((time.perf_counter() - t0) * 1000)
            _append_line(out_dir / "loss_log.tsv", f"{step}\t{loss_value:.6f}\t{ms}")
        done = step + 1
        if (cfg.eval_every and done % cfg.eval_every == 0) or done == total:
            metas.append(_eval_and_checkpoint(model, vocab, data, opt, done, window, out_dir))
            window = []

    best = None
    if metas:
        best = select_best_checkpoint(metas)
        if out_dir is not None:
            _write_dir(out_dir / "best", partial(shutil.copytree, metas[best].path,
                                                 dirs_exist_ok=True))
    return TrainResult(losses, metas, best, str(out_dir) if out_dir else None)


def _eval_and_checkpoint(model: Seq2SeqTransformer, vocab: Vocabulary, data: Datasets,
                         opt: AdamState, step: int, window: list[float],
                         out_dir: Path | None) -> CheckpointMeta:
    dev_td = next((td for td in data.tasks if td.dev), None)
    if dev_td is not None:
        spec = REGISTRY[dev_td.task]
        score = evaluate_dev(model, vocab, dev_td.dev, spec)
        metric, direction = spec.metric, spec.direction
    else:
        score = sum(window) / len(window) if window else float("nan")
        metric, direction = "train_loss", "lower"

    if out_dir is None:
        return CheckpointMeta(step, score, metric, direction, "")

    def fill(ckpt_dir: Path):
        save_toolkit(ckpt_dir, model, vocab)
        _save_train_state(ckpt_dir, opt, step)

    ckpt_dir = out_dir / f"step_{step:06d}"
    _write_dir(ckpt_dir, fill)
    meta = CheckpointMeta(step, score, metric, direction, str(ckpt_dir))
    _append_line(out_dir / "checkpoints.jsonl", meta.to_json())
    return meta


def _cut_back(out_dir: Path, step: int) -> list[CheckpointMeta]:
    """Cut a run's logs back to `step`, where this run starts writing (0 for
    a fresh run): loss_log.tsv keeps the steps before it, and
    checkpoints.jsonl the checkpoints at or before it, which are returned."""
    log, ckpts = out_dir / "loss_log.tsv", out_dir / "checkpoints.jsonl"
    steps = _read_lines(log, lambda line: (int(line.split("\t", 1)[0]), line))
    metas = [m for m in _read_lines(ckpts, CheckpointMeta.from_json) if m.step <= step]
    _replace_text(log, "".join(f"{line}\n" for s, line in steps if s < step))
    _replace_text(ckpts, "".join(f"{m.to_json()}\n" for m in metas))
    return metas


def _read_lines(path: Path, parse) -> list:
    """parse() of each line of path that ends in a newline: a line cut short
    by a crash is dropped, and one that does not parse is a ValueError
    naming the file and line."""
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    out = []
    for n, line in enumerate(text.split("\n")[:-1], start=1):
        try:
            out.append(parse(line))
        except (ValueError, TypeError) as e:
            raise ValueError(f"{path}:{n}: malformed line ({e})") from None
    return out


def _append_line(path: Path, line: str):
    """Append one whole line and close the file again, so no handle outlives a step."""
    with open(path, "a", encoding="utf-8") as f:
        f.write(line + "\n")


def _replace_text(path: Path, text: str):
    """Write text to path through a temporary file and a rename, so a crash
    leaves either the old file or the new one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_dir(path: Path, fill):
    """Fill a directory under a temporary name, then swap it in by renames
    and remove the copy it replaces last, so a crash leaves the old
    directory or the new one, never a part of either."""
    tmp, old = path.with_name(path.name + ".tmp"), path.with_name(path.name + ".old")
    for stale in (tmp, old):  # left by an interrupted run
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir()
    try:
        fill(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if path.exists():
        path.rename(old)
    tmp.rename(path)
    shutil.rmtree(old, ignore_errors=True)


def train_over_seeds(make_model, vocab: Vocabulary, cfg: TrainConfig, data: Datasets,
                     seeds: list[int]) -> dict:
    """Repeat a run under several seeds and average the best dev scores.

    make_model(seed) must return a fresh model. No quality target is
    attached to the averages; this is reporting plumbing.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    results = []
    for seed in seeds:
        out_dir = None if cfg.out_dir is None else str(Path(cfg.out_dir) / f"seed_{seed}")
        results.append(train(make_model(seed), vocab, replace(cfg, seed=seed, out_dir=out_dir),
                             data))
    scores = [r.metas[r.best_index].score for r in results if r.best_index is not None]
    return {
        "seeds": list(seeds),
        "mean_best_score": float(np.mean(scores)) if scores else None,
        "std_best_score": float(np.std(scores)) if scores else None,
        "results": results,
    }


def _save_train_state(ckpt_dir: Path, opt: AdamState, step: int):
    arrays = {f"adam.{kind}.{name}": moment for kind, moments in (("m", opt.m), ("v", opt.v))
              for name, moment in moments.items()}
    save_checkpoint(ckpt_dir / "train_state.octo", arrays)
    meta = {"step": step, "adam_step": opt.step, "learning_rate": opt.learning_rate}
    (ckpt_dir / "train_state.json").write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")


def _load_train_state(ckpt_dir: Path, model: Seq2SeqTransformer, vocab: Vocabulary,
                      opt: AdamState) -> int:
    """Load the model and Adam state of a checkpoint written with this
    model config and vocabulary, all or nothing; ValueError naming the
    checkpoint and the first config field that differs, the vocabulary, or
    the train state entry that is missing or mis-shaped."""
    saved_model, saved_vocab = load_toolkit(ckpt_dir)
    saved = asdict(saved_model.config)
    for name, value in asdict(model.config).items():
        if saved[name] != value:
            raise ValueError(f"{ckpt_dir}: {CONFIG_FILE} has {name}={saved[name]!r}, "
                             f"but the model has {value!r}")
    if vars(saved_vocab) != vars(vocab):  # tokens, ids, sentinels
        raise ValueError(f"{ckpt_dir}: {VOCAB_FILE} is not the run's vocabulary")
    meta = json.loads((ckpt_dir / "train_state.json").read_text(encoding="utf-8"))
    for key in ("step", "adam_step"):
        if not (isinstance(meta, dict) and type(meta.get(key)) is int and meta[key] >= 0):
            raise ValueError(f"{ckpt_dir}: train_state.json needs a non-negative integer {key!r}")
    arrays = load_checkpoint(ckpt_dir / "train_state.octo")
    entries = [(moments, name, f"adam.{kind}.{name}")
               for moments, kind in ((opt.m, "m"), (opt.v, "v")) for name in moments]
    for _, name, entry in entries:
        if entry not in arrays or arrays[entry].shape != model.params[name].shape:
            raise ValueError(f"{ckpt_dir}: train state entry {entry!r} is missing "
                             f"or not of shape {model.params[name].shape}")
    for name, p in model.params.items():
        p.data = saved_model.params[name].data.astype(model.dtype)
    for moments, name, entry in entries:
        moments[name] = arrays[entry].astype(model.dtype)
    opt.step = meta["adam_step"]
    return meta["step"]
