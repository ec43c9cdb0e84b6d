"""Training loops for the four regimes (pretrain, single task, multitask,
joint) plus dev-set checkpoint selection.

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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .decoding import DecodeConfig, generate_batch
from .metrics import EditSet, score_task
from .model import Seq2SeqTransformer, load_checkpoint, save_checkpoint
from .objectives import DenoisingConfig, Seq2SeqBatch, batch_from_ids, corrupt_spans, make_batch
from .optim import AdamState, adam_step
from .tasks import Example, TaskSpec, task_for_prefix
from .vocab import Vocabulary

STRATEGIES = ("pretrain", "single_task", "multitask", "joint")

# rng stream tags
_DATA, _DROPOUT, _EPOCH, _BRANCH = 0, 1, 2, 3


@dataclass
class TrainConfig:
    strategy: str
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_steps: int | None = None
    max_epochs: int | None = None
    eval_every: int = 0  # 0: checkpoint only at the end
    seed: int = 0
    task_weights: dict[str, float] | None = None  # None: proportional to pool size
    labeled_fraction: float = 0.5  # joint only: share of labeled steps
    corruption_rate: float = 0.15
    mean_span_length: float = 3.0
    max_seq_len: int | None = None  # None: model config value
    out_dir: str | Path | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if (self.max_steps is None) == (self.max_epochs is None):
            raise ValueError("set exactly one of max_steps / max_epochs")
        if self.max_epochs is not None and self.strategy != "single_task":
            raise ValueError("epoch-based training is only for single_task finetuning")
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("learning_rate and batch_size must be positive")
        if not 0.0 <= self.labeled_fraction <= 1.0:
            raise ValueError("labeled_fraction must be in [0, 1]")
        if self.task_weights is not None:
            for name, w in self.task_weights.items():
                if not (w > 0 and math.isfinite(w)):
                    raise ValueError(f"mixing weight for {name!r} must be positive and finite")


@dataclass
class CheckpointMeta:
    """One saved checkpoint and its dev score."""

    step: int
    score: float
    metric: str
    direction: str
    path: str

    def to_json(self) -> str:
        return json.dumps(
            {"step": self.step, "score": self.score, "metric": self.metric,
             "direction": self.direction, "path": self.path},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "CheckpointMeta":
        return cls(**json.loads(line))


@dataclass
class TaskData:
    """A labeled pool (already finalized Examples) plus an optional dev set."""

    task: str
    train: list[Example]
    dev: list[Example] | None = None


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
    best = 0
    for i, m in enumerate(metas[1:], start=1):
        if m.direction == "higher":
            if m.score > metas[best].score:
                best = i
        else:
            if m.score < metas[best].score:
                best = i
    return best


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
            missing = set(self.names) - set(weights)
            if missing:
                raise ValueError(f"missing mixing weights for {sorted(missing)}")
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
                 task: TaskSpec, decode_cfg: DecodeConfig | None = None) -> float:
    """Decode the dev set and score each source's top hypothesis with the
    task's metric.

    Greedy decoding by default, capped at 8 tokens past the longest
    reference; a non-greedy DecodeConfig keeps its own seq_length.
    """
    if not dev:
        raise ValueError("dev set is empty")
    sources = [vocab.encode(ex.model_source) for ex in dev]
    cfg = decode_cfg or DecodeConfig(method="greedy")
    if cfg.method == "greedy":
        max_ref = max(len(vocab.encode(ex.target)) for ex in dev)
        cfg = replace(cfg, seq_length=min(model.config.max_seq_len - 1, max_ref + 8))
    hyps = [vocab.decode(h[0].ids) for h in generate_batch(model, vocab, sources, cfg, 64)]
    refs = [ex.target for ex in dev]
    if task.metric == "f05_m2":
        golds = [EditSet(ex.gold_edits or []) for ex in dev]
        return score_task("f05_m2", hyps, refs, sources=[ex.source for ex in dev],
                          gold_edits=golds)
    return score_task(task.metric, hyps, refs)


# ---- batch builders ----

def _denoise_batch(texts: list[str], vocab: Vocabulary, rng: np.random.Generator,
                   cfg: TrainConfig, max_len: int) -> Seq2SeqBatch:
    idx = rng.integers(0, len(texts), size=cfg.batch_size)
    dn = DenoisingConfig(cfg.corruption_rate, cfg.mean_span_length, rng=rng)
    pairs = [corrupt_spans(vocab.encode(texts[i])[:max_len], vocab, dn) for i in idx]
    return batch_from_ids(pairs, vocab, max_len, targets_have_eos=True)


def _labeled_pairs(examples: list[Example]) -> list[tuple[str, str]]:
    return [(ex.model_source, ex.target) for ex in examples]


def _task_max_len(task_name: str, default: int) -> int:
    override = task_for_prefix(task_name).max_len
    return min(default, override) if override else default


class _Trainer:
    def __init__(self, model: Seq2SeqTransformer, vocab: Vocabulary,
                 cfg: TrainConfig, data: Datasets):
        self.model = model
        self.vocab = vocab
        self.cfg = cfg
        self.data = data
        self.max_len = cfg.max_seq_len or model.config.max_seq_len
        self._epoch_perm: tuple[int, np.ndarray] | None = None
        self._validate_data()
        if cfg.strategy in ("multitask", "joint") and data.tasks:
            self.mixer = TaskMixer(
                {td.task: td.train for td in data.tasks},
                weights=cfg.task_weights, batch_size=cfg.batch_size,
            )
        else:
            self.mixer = None

    def _validate_data(self):
        cfg, data = self.cfg, self.data
        if cfg.strategy == "pretrain":
            if not data.texts:
                raise ValueError("pretraining needs unlabeled texts")
        elif cfg.strategy == "single_task":
            if len(data.tasks) != 1 or not data.tasks[0].train:
                raise ValueError("single_task training needs exactly one labeled set")
        elif cfg.strategy == "multitask":
            if not data.tasks or any(not td.train for td in data.tasks):
                raise ValueError("multitask training needs labeled sets")
        else:  # joint
            if not data.texts:
                raise ValueError("joint training needs unlabeled texts")
            if cfg.labeled_fraction > 0 and not data.tasks:
                raise ValueError("joint training with labeled_fraction > 0 needs labeled sets")

    # step counts -----------------------------------------------------

    def steps_per_epoch(self) -> int:
        n = len(self.data.tasks[0].train)
        return max(1, math.ceil(n / self.cfg.batch_size))

    def total_steps(self) -> int:
        if self.cfg.max_steps is not None:
            return self.cfg.max_steps
        return self.cfg.max_epochs * self.steps_per_epoch()

    # per-strategy batches --------------------------------------------

    def build_batch(self, step: int) -> Seq2SeqBatch:
        cfg = self.cfg
        rng = np.random.default_rng((cfg.seed, step, _DATA))
        if cfg.strategy == "pretrain":
            return _denoise_batch(self.data.texts, self.vocab, rng, cfg, self.max_len)
        if cfg.strategy == "single_task":
            return self._single_task_batch(step)
        if cfg.strategy == "multitask":
            name, examples = sample_task_batch(self.mixer, rng)
            return make_batch(_labeled_pairs(examples), self.vocab,
                              _task_max_len(name, self.max_len))
        # joint: the branch draw uses its own stream so labeled_fraction=0
        # replays the pretraining trajectory bit for bit
        branch = np.random.default_rng((cfg.seed, step, _BRANCH))
        if cfg.labeled_fraction > 0 and branch.random() < cfg.labeled_fraction:
            name, examples = sample_task_batch(self.mixer, rng)
            return make_batch(_labeled_pairs(examples), self.vocab,
                              _task_max_len(name, self.max_len))
        return _denoise_batch(self.data.texts, self.vocab, rng, cfg, self.max_len)

    def _single_task_batch(self, step: int) -> Seq2SeqBatch:
        td = self.data.tasks[0]
        spe = self.steps_per_epoch()
        epoch, pos = divmod(step, spe)
        if self._epoch_perm is None or self._epoch_perm[0] != epoch:
            rng = np.random.default_rng((self.cfg.seed, _EPOCH, epoch))
            self._epoch_perm = (epoch, rng.permutation(len(td.train)))
        perm = self._epoch_perm[1]
        idx = perm[pos * self.cfg.batch_size:(pos + 1) * self.cfg.batch_size]
        examples = [td.train[i] for i in idx]
        return make_batch(_labeled_pairs(examples), self.vocab,
                          _task_max_len(td.task, self.max_len))


def train(model: Seq2SeqTransformer, vocab: Vocabulary, cfg: TrainConfig,
          data: Datasets, resume_from: str | Path | None = None) -> TrainResult:
    """Run one training regime; returns losses and checkpoint metadata.

    With out_dir set, writes a loss log (step<TAB>loss<TAB>wallclock_ms),
    per-checkpoint directories, a checkpoints.jsonl meta file, and a
    final "best" copy chosen by select_best_checkpoint.
    """
    runner = _Trainer(model, vocab, cfg, data)
    opt = AdamState.init(model.parameters(), cfg.learning_rate)
    start_step = 0
    if resume_from is not None:
        start_step = _load_train_state(Path(resume_from), model, opt)

    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    log_file = None
    metas: list[CheckpointMeta] = []
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if resume_from is not None:
            metas = _cut_back(out_dir, start_step)
        log_file = open(out_dir / "loss_log.tsv", "a", encoding="utf-8")

    total = runner.total_steps()
    losses: list[float] = []
    window: list[float] = []
    try:
        for step in range(start_step, total):
            t0 = time.perf_counter()
            batch = runner.build_batch(step)
            model.set_train(True, rng=np.random.default_rng((cfg.seed, step, _DROPOUT)))
            model.zero_grads()
            loss = model.batch_loss(batch, pad_id=vocab.pad_id)
            loss_value = float(loss.data)
            if not math.isfinite(loss_value):
                raise RuntimeError(
                    f"non-finite loss {loss_value} at step {step}; aborting "
                    f"(strategy={cfg.strategy}, lr={cfg.learning_rate})"
                )
            loss.backward()
            grads = {k: p.grad for k, p in model.parameters().items() if p.grad is not None}
            adam_step(model.parameters(), grads, opt)
            model.set_train(False)
            losses.append(loss_value)
            window.append(loss_value)
            if log_file is not None:
                ms = int((time.perf_counter() - t0) * 1000)
                log_file.write(f"{step}\t{loss_value:.6f}\t{ms}\n")
            done = step + 1
            if (cfg.eval_every and done % cfg.eval_every == 0) or done == total:
                meta = _eval_and_checkpoint(runner, opt, done, window, out_dir)
                if meta is not None:
                    metas.append(meta)
                window = []
    finally:
        if log_file is not None:
            log_file.close()

    best = None
    if metas:
        best = select_best_checkpoint(metas)
        if out_dir is not None:
            best_dir = out_dir / "best"
            if best_dir.exists():
                shutil.rmtree(best_dir)
            shutil.copytree(metas[best].path, best_dir)
    return TrainResult(losses, metas, best, str(out_dir) if out_dir else None)


def _eval_and_checkpoint(runner: _Trainer, opt: AdamState, step: int,
                         window: list[float], out_dir: Path | None) -> CheckpointMeta | None:
    model, vocab, cfg = runner.model, runner.vocab, runner.cfg
    dev_td = next((td for td in runner.data.tasks if td.dev), None)
    if dev_td is not None:
        spec = task_for_prefix(dev_td.task)
        score = evaluate_dev(model, vocab, dev_td.dev, spec)
        metric, direction = spec.metric, spec.direction
    else:
        score = sum(window) / len(window) if window else float("nan")
        metric, direction = "train_loss", "lower"

    if out_dir is None:
        return CheckpointMeta(step, score, metric, direction, "")
    ckpt_dir = out_dir / f"step_{step:06d}"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    model.save(ckpt_dir / "model.octo")
    vocab.save(ckpt_dir / "vocab.txt")
    (ckpt_dir / "config.json").write_text(model.config.to_json(), encoding="utf-8")
    _save_train_state(ckpt_dir, opt, step)
    meta = CheckpointMeta(step, score, metric, direction, str(ckpt_dir))
    with open(out_dir / "checkpoints.jsonl", "a", encoding="utf-8") as f:
        f.write(meta.to_json() + "\n")
    return meta


def _cut_back(out_dir: Path, step: int) -> list[CheckpointMeta]:
    """Cut a run's logs back to `step`, since a resumed run writes the
    later entries again: loss_log.tsv keeps the steps before it, and
    checkpoints.jsonl the checkpoints at or before it, one per step, which
    are returned."""
    log = out_dir / "loss_log.tsv"
    if log.exists():
        lines = filter(None, log.read_text(encoding="utf-8").splitlines())
        _replace_text(log, "".join(f"{line}\n" for line in lines
                                   if int(line.split("\t", 1)[0]) < step))
    path = out_dir / "checkpoints.jsonl"
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    by_step = {m.step: m for m in map(CheckpointMeta.from_json, filter(None, lines))
               if m.step <= step}
    metas = [by_step[k] for k in sorted(by_step)]
    _replace_text(path, "".join(m.to_json() + "\n" for m in metas))
    return metas


def _replace_text(path: Path, text: str):
    """Write text to path through a temporary file and a rename, so a crash
    leaves either the old file or the new one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def train_over_seeds(make_model, vocab: Vocabulary, cfg: TrainConfig, data: Datasets,
                     seeds: list[int]) -> dict:
    """Repeat a run under several seeds and average the best dev scores.

    make_model(seed) must return a fresh model. No quality target is
    attached to the averages; this is reporting plumbing.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    results = []
    scores = []
    for seed in seeds:
        run_cfg = TrainConfig(**{**cfg.__dict__, "seed": seed,
                                 "out_dir": None if cfg.out_dir is None
                                 else str(Path(cfg.out_dir) / f"seed_{seed}")})
        result = train(make_model(seed), vocab, run_cfg, data)
        results.append(result)
        if result.best_index is not None:
            scores.append(result.metas[result.best_index].score)
    summary = {
        "seeds": list(seeds),
        "mean_best_score": float(np.mean(scores)) if scores else None,
        "std_best_score": float(np.std(scores)) if scores else None,
        "results": results,
    }
    return summary


def _save_train_state(ckpt_dir: Path, opt: AdamState, step: int):
    arrays = {}
    for name, m in opt.m.items():
        arrays[f"adam.m.{name}"] = m
    for name, v in opt.v.items():
        arrays[f"adam.v.{name}"] = v
    save_checkpoint(ckpt_dir / "train_state.octo", arrays)
    meta = {"step": step, "adam_step": opt.step, "learning_rate": opt.learning_rate,
            "beta1": opt.beta1, "beta2": opt.beta2, "epsilon": opt.epsilon}
    (ckpt_dir / "train_state.json").write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")


def _load_train_state(ckpt_dir: Path, model: Seq2SeqTransformer, opt: AdamState) -> int:
    model.load(ckpt_dir / "model.octo")
    meta = json.loads((ckpt_dir / "train_state.json").read_text(encoding="utf-8"))
    arrays = load_checkpoint(ckpt_dir / "train_state.octo")
    for name in opt.m:
        opt.m[name] = arrays[f"adam.m.{name}"].astype(model.dtype)
        opt.v[name] = arrays[f"adam.v.{name}"].astype(model.dtype)
    opt.step = meta["adam_step"]
    return meta["step"]
