"""The three activities of the benchmark.

Every workload runs all three, because every run reports every end-to-end
metric; the workload sets the output length of the in-process decodes
(bench/run.py). An activity builds its inputs from the seed in __init__
(the set-up) and offers a short list of `items`, each a fixed piece of
work that `run` times and then checks, untraced. The run repeats the items
round-robin, so every item is timed several times per run.

Library calls go through the module attribute (`decoding.generate`, not a
name imported here), so the layer wrappers of a traced item see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from octopus import decoding, tensor, trainer
from octopus.decoding import DecodeConfig
from octopus.model import ModelConfig, Seq2SeqTransformer
from octopus.tasks import apply_cipher, synth_cipher, synth_devowel, synth_structured_text
from octopus.trainer import Datasets, TaskData, TrainConfig
from octopus.vocab import build_vocab

from tracing import Patches, StepClock, Tracer, install_layers, perf

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


class Fastest:
    """Seconds per repeated item of fixed work, read as the fastest repeat.

    On a shared 2-vCPU VM (Xeon, 2.0 GHz), a fixed numpy loop ran at one
    of two speeds about 1.5x apart, switching every few seconds to every 50
    seconds, so a single sample reads whichever level it met. The items of all three
    activities are interleaved over the run and each is repeated; its
    fastest repeat reads the fast level whenever the run met it at all.
    """

    def __init__(self):
        self.seconds: dict[object, list[float]] = {}

    def add(self, key, seconds: float):
        self.seconds.setdefault(key, []).append(seconds)

    def best(self) -> dict:
        return {key: min(values) for key, values in self.seconds.items()}


# ---- training ----------------------------------------------------------

TRAIN_STEPS = 20  # the item is one train() call of this many steps
EVAL_EVERY = 10  # dev evaluation plus checkpoint write every 10 steps
LOSS_TAIL = 10  # train_loss_final averages the last 10 step losses
# TrainConfig.seed picks each step's branch and task; it is fixed so that
# every run trains on the same mix of denoising, cipher and devowel steps,
# whose step times differ by up to 3x. The run seed sets the data and the
# initial weights.
SCHEDULE_SEED = 0


class Train:
    """train() with strategy="joint" on the default ModelConfig, batch 32,
    half the steps labeled (cipher ar2en with a dev set, plus devoweling),
    half span-corruption denoising of structured text."""

    items = ("train",)

    def __init__(self, seed: int, work: Path):
        texts = synth_structured_text(400, seed=seed)
        cipher = synth_cipher(224, seed=seed, direction="ar2en")
        devowel = synth_devowel(200, seed=seed)
        corpus = texts + [ex.model_source + " " + ex.target for ex in cipher + devowel]
        self.vocab = build_vocab(corpus)
        self.data = Datasets(texts=texts, tasks=[
            TaskData("translitrate_ar2en", cipher[:192], dev=cipher[192:]),
            TaskData("diacritize", devowel),
        ])
        self.config = ModelConfig(vocab_size=self.vocab.vocab_size)
        self.seed = seed
        self.work = work
        self.steps = Fastest()  # keyed by step index
        self.runs = Fastest()  # whole train() calls
        self.tokens = 0  # non-pad source and target tokens of one train() call
        self.first_losses: list[float] | None = None

    def run(self, item: str, tracer: Tracer | None) -> float:
        model = Seq2SeqTransformer(self.config, seed=self.seed)
        out_dir = tempfile.mkdtemp(dir=self.work)
        cfg = TrainConfig(strategy="joint", batch_size=32, labeled_fraction=0.5,
                          max_steps=TRAIN_STEPS, eval_every=EVAL_EVERY, seed=SCHEDULE_SEED,
                          out_dir=out_dir)
        clock = StepClock()
        patches = install_layers(tracer) if tracer else clock.install()
        t0 = perf()
        try:
            result = trainer.train(model, self.vocab, cfg, self.data)
        finally:
            wall = perf() - t0
            patches.restore()
        try:
            losses = result.losses
            check(len(losses) == TRAIN_STEPS and all(np.isfinite(losses)),
                  "train: missing or non-finite step losses")
            check(float(np.mean(losses[-LOSS_TAIL:])) < losses[0],
                  "train: final loss is not below the first-step loss")
            check(len(result.metas) == TRAIN_STEPS // EVAL_EVERY
                  and (Path(out_dir) / "best" / "model.octo").is_file(),
                  "train: checkpoints missing")
            if self.first_losses is None:
                self.first_losses = losses
            check(losses == self.first_losses, "train: a repeated run changed its losses")
        finally:
            shutil.rmtree(out_dir)
        if tracer is None:
            for step, seconds in clock.steps().items():
                self.steps.add(step, seconds)
            self.runs.add(item, wall)
            self.tokens = clock.tokens
        return wall

    def metrics(self) -> dict:
        steps_ms = np.asarray(list(self.steps.best().values())) * 1e3
        return {
            "train_step_ms_p50": float(np.percentile(steps_ms, 50)),
            "train_step_ms_p90": float(np.percentile(steps_ms, 90)),
            "train_tokens_per_s": self.tokens / self.runs.best()["train"],
            "train_loss_final": float(np.mean(self.first_losses[-LOSS_TAIL:])),
        }


# ---- decoding ----------------------------------------------------------

# a hypothesis's reported log-prob and its teacher-forced re-score (both
# summed in float64 over float32 logits) may differ by this much per token
LOGPROB_TOL_PER_TOKEN = 1e-4

METHODS = {
    "greedy": dict(method="greedy"),
    "beam5": dict(method="beam", nbeam=5, max_outputs=3),
    "sampling": dict(method="sampling", top_k=10, max_outputs=3),
}


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


class Decode:
    """In-process decoding with a randomly initialised model of the default
    shape. Each `generate` item decodes the first `sources` prefixed cipher
    and devowel inputs with one method: greedy, beam-5 (-o 3) or top-k
    sampling (three draws). The greedy_batch item decodes the first `batch`
    inputs with greedy_decode_batch. Every call passes `cap` explicitly.

    The model's eos embedding row is zeroed. The readout is tied, so the
    eos logit is then 0 while the other logits of a fresh model spread about
    N(0, 1) over ~140 tokens: eos never reaches the top 5 or the top-k, and
    every hypothesis runs to the cap, which the checks enforce. Without
    this, a seed whose model happened to rank eos high ended its beam after
    a few tokens and read 3x faster."""

    items = (*METHODS, "greedy_batch")

    def __init__(self, seed: int, cap: int, sources: int, batch: int):
        n = max(sources, batch)
        texts = [ex.model_source for pair in zip(
            synth_cipher((n + 1) // 2, seed=seed + 1, direction="ar2en"),
            synth_devowel((n + 1) // 2, seed=seed + 1)) for ex in pair][:n]
        self.vocab = build_vocab(texts)
        self.model = Seq2SeqTransformer(ModelConfig(vocab_size=self.vocab.vocab_size),
                                        seed=seed)
        self.model.params["shared.embedding"].data[self.vocab.eos_id] = 0.0
        encoded = [self.vocab.encode(t) for t in texts]
        self.cap = cap
        self.sources = {"generate": encoded[:sources], "greedy_batch": encoded[:batch]}
        self.configs = {name: DecodeConfig(**kw, seq_length=cap, seed=seed)
                        for name, kw in METHODS.items()}
        self.seconds = Fastest()  # keyed by item
        self.tokens: dict[str, int] = {}  # output tokens per item
        self.matched: dict[str, tuple[int, int]] = {}  # tokens equal to the reference

    def run(self, item: str, tracer: Tracer | None) -> float:
        batched = item == "greedy_batch"
        sources = self.sources[item if batched else "generate"]
        patches = install_layers(tracer) if tracer else Patches()
        t0 = perf()
        try:
            if batched:
                out = [decoding.greedy_decode_batch(self.model, self.vocab, sources, self.cap)]
            else:
                out = [decoding.generate(self.model, self.vocab, src, self.configs[item])
                       for src in sources]
        finally:
            wall = perf() - t0
            patches.restore()

        tokens = matched = 0
        if batched:
            for src, ids in zip(sources, out[0]):
                self._check_ids(ids, item)
                _, argmax = self._rescore(src, ids)
                matched += int((argmax == ids).sum())
                tokens += len(ids)
            self.matched[item] = (matched, tokens)
        else:
            for src, hyps in zip(sources, out):
                for h in hyps:
                    self._check_ids(h.ids, item)
                    check(h.finished == (h.ids[-1] == self.vocab.eos_id),
                          f"{item}: finished flag disagrees with the last token")
                    logprob, argmax = self._rescore(src, h.ids)
                    check(abs(logprob - h.logprob) <= LOGPROB_TOL_PER_TOKEN * len(h.ids),
                          f"{item}: log-prob {h.logprob:.6f} but re-score gives {logprob:.6f}")
                    matched += int((argmax == h.ids).sum())
                # three independent sampled sequences are all outputs; a
                # beam's hypotheses share its steps, so only the top one counts
                tokens += sum(len(h.ids) for h in hyps) if item == "sampling" else len(hyps[0].ids)
            if item == "greedy":
                self.matched[item] = (matched, tokens)
        if tracer is None:
            self.tokens[item] = tokens
            self.seconds.add(item, wall)
        return wall

    def _check_ids(self, ids: list[int], item: str):
        # every hypothesis must run to the cap (see the class docstring):
        # a shorter one would change the work, not the speed
        check(len(ids) == self.cap, f"{item}: hypothesis of {len(ids)} tokens, not {self.cap}")
        check(all(0 <= t < self.vocab.vocab_size for t in ids), f"{item}: id out of range")

    def _rescore(self, src: list[int], ids: list[int]) -> tuple[float, np.ndarray]:
        """Teacher-forced log-prob of ids and the argmax at every position,
        from one decode_logits call over the full prefix: the reference a
        greedy decode must reproduce token for token."""
        s = np.asarray([src], dtype=np.int64)
        mask = np.ones_like(s, dtype=bool)
        dec = np.asarray([[self.vocab.pad_id, *ids[:-1]]], dtype=np.int64)
        with tensor.no_grad():
            enc = self.model.encode(s, mask)
            logits = self.model.decode_logits(enc, mask, dec).data[0].astype(np.float64)
        lp = _log_softmax(logits)
        return float(lp[np.arange(len(ids)), ids].sum()), lp.argmax(axis=-1)

    def metrics(self) -> dict:
        best = self.seconds.best()
        rate = {item: self.tokens[item] / best[item] for item in self.items}
        matched, compared = (sum(x) for x in zip(*self.matched.values()))
        return {
            "decode_greedy_tok_s": rate["greedy"],
            "decode_greedy_batch_tok_s": rate["greedy_batch"],
            "decode_beam5_tok_s": rate["beam5"],
            "decode_sampling_tok_s": rate["sampling"],
            "decode_token_match": matched / compared,
        }


# ---- the CLI -----------------------------------------------------------

TOY = HERE / "toy_cipher"
# written by bench/make_toy_checkpoint.py; checked in set-up so that a run
# always loads the same model and never trains one
TOY_SHA256 = {
    "model.octo": "6b4c9c839a14c3122f3f680454cdd804267cc4c3a1b2a85751c4c40d023e7e57",
    "vocab.txt": "37b033185437756158ef17d3ebf50069540b711a9e78483055f74e0ec786755c",
    "config.json": "29fedb2860009c282371bff4e0147f4e6848d9622494e09fc105ae989eaa2e1b",
}
GOLDENS = {"ab": "αβ", "fg": "ζη"}
CLI_LINES = {"beam": 48, "greedy": 512}  # lines per input file, the goldens included
CLI_ONE_LINERS = 3  # one-line -t invocations, one item each
CLI_BASE = ["-p", "translitrate_ar2en", "-s", "7", "--model-path", str(TOY)]
CLI_TIMEOUT_S = 60
# the toy trained on synth_cipher(seed=21); the offset keeps CLI inputs of
# any seed >= 0 out of its training strings
CLI_SEED_OFFSET = 1_000_003
FILE_ARGS = {"beam": [], "greedy": ["-m", "greedy", "-bs", "16"]}


class Cli:
    """The octopus batch command in fresh `python -m octopus.cli`
    processes on the toy cipher checkpoint: three one-line -t calls, a
    48-line file with the default beam-5 -o 3, and a 512-line file (the
    same 48 lines first) with -m greedy -bs 16. Inputs are random plain
    strings of 2 to 6 letters, so outputs are at most 7 tokens (-s 7 states
    that cap)."""

    items = (*(f"one{i}" for i in range(CLI_ONE_LINERS)), *FILE_ARGS)

    def __init__(self, seed: int, work: Path):
        for name, digest in TOY_SHA256.items():
            got = hashlib.sha256((TOY / name).read_bytes()).hexdigest()
            if got != digest:
                raise CheckFailed(f"cli: {TOY / name} does not match its sha256")
        plain = [ex.source for ex in synth_cipher(
            max(CLI_LINES.values()) - len(GOLDENS) + CLI_ONE_LINERS,
            seed=CLI_SEED_OFFSET + seed, direction="ar2en", min_len=2, max_len=6)]
        self.one_liners = plain[:CLI_ONE_LINERS]
        self.files = {}
        for method, n in CLI_LINES.items():
            lines = [*GOLDENS, *plain[CLI_ONE_LINERS:CLI_ONE_LINERS + n - len(GOLDENS)]]
            path = work / f"cli_{method}.txt"
            path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
            self.files[method] = (path, lines)
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.seconds = Fastest()  # keyed by item
        self.matched: dict[str, tuple[int, int]] = {}  # exact top-1 outputs per item

    def _invoke(self, args: list[str], tracer: Tracer | None) -> tuple[str, float]:
        if tracer is None:
            cmd = [sys.executable, "-m", "octopus.cli", *args]
        else:
            trace_out = self.work / "cli_trace.json"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(trace_out),
                   repr(time.time()), *args]
        t0 = perf()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)
        wall = perf() - t0
        check(proc.returncode == 0,
              f"cli: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if tracer is not None:
            tracer.merge(json.loads(trace_out.read_text(encoding="utf-8")))
            trace_out.unlink()
        return proc.stdout, wall

    def run(self, item: str, tracer: Tracer | None) -> float:
        if item in FILE_ARGS:
            path, lines = self.files[item]
            args = ["-f", str(path), *FILE_ARGS[item]]
        else:
            text = self.one_liners[int(item[3:])]
            args, lines = ["-t", text], [text]
        n_best = 1 if item == "greedy" else 3
        stdout, wall = self._invoke([*CLI_BASE, *args], tracer)

        blocks = stdout.strip("\n").split("\n\n")
        check(len(blocks) == len(lines), f"cli: {len(blocks)} blocks for {len(lines)} inputs")
        labels = [f"target{j}" for j in range(1, n_best + 1)]
        tops = []
        for block in blocks:
            rows = block.split("\n")
            check([r.split(": ", 1)[0] for r in rows] == labels, f"cli: malformed block {block!r}")
            tops.append(rows[0].split(": ", 1)[1] if ": " in rows[0] else "")
        if item == "beam":
            for src, want in GOLDENS.items():
                got = tops[lines.index(src)]
                check(got == want, f"cli: golden {src}->{want} decoded as {got!r}")
        self.matched[item] = (sum(top == apply_cipher(line) for line, top in zip(lines, tops)),
                              len(lines))
        if tracer is None:
            self.seconds.add(item, wall)
        return wall

    def metrics(self) -> dict:
        best = self.seconds.best()
        matched, decoded = (sum(x) for x in zip(*self.matched.values()))
        return {
            "cli_cold_start_s": min(best[i] for i in self.items if i not in FILE_ARGS),
            "cli_beam_sources_per_s": CLI_LINES["beam"] / best["beam"],
            "cli_greedy_batch_sources_per_s": CLI_LINES["greedy"] / best["greedy"],
            "cli_exact_match": matched / decoded,
        }
