"""Layer spans and counters recorded from outside octopus.

Nothing under src/ is edited: `install_layers` swaps octopus's public
functions and methods for timed wrappers and `Patches.restore` puts the
originals back. A function that another octopus module imported by name
(`from .decoding import generate`) is rebound there too, so every caller
goes through the wrapper.

Spans are aggregated as they close (total time, self time, calls) instead
of being kept one by one: a training step opens about 400 of them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

perf = time.perf_counter

# the tensor ops the model uses; each result's vjp is wrapped as well, so
# backward time is attributed to the op that recorded it
OPS = ("matmul", "softmax", "rms_norm", "dropout", "add", "mul", "take", "relu",
       "reshape", "transpose", "cross_entropy")

# decode steps are binned by decoder input length (start token + prefix)
STEP_BINS = ((1, 32), (33, 64), (65, 96), (97, 127))


def real_tokens(batch) -> int:
    """Non-pad source plus target tokens of a Seq2SeqBatch."""
    return int(batch.enc_mask.sum()) + int((batch.target_ids != batch.pad_id).sum())


def bin_name(length: int) -> str:
    for lo, hi in STEP_BINS:
        if lo <= length <= hi:
            return f"decoding.step.p{lo:03d}_{hi:03d}"
    return "decoding.step.over"


class Patches:
    """Attribute swaps on octopus modules and classes, undone by restore()."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper):
        if attr not in vars(owner):
            return  # a layer the program no longer has: its metrics read 0
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        sites = [(owner, attr)]
        if not isinstance(owner, type):
            for mod in list(sys.modules.values()):
                if mod is owner or not getattr(mod, "__name__", "").startswith("octopus"):
                    continue
                sites += [(mod, k) for k, v in vars(mod).items() if v is original]
        for obj, name in sites:
            self._saved.append((obj, name, original))
            setattr(obj, name, wrapper)

    def restore(self):
        for obj, name, original in reversed(self._saved):
            setattr(obj, name, original)
        self._saved.clear()


class Tracer:
    """Aggregated spans: seconds inside, seconds minus direct children, calls.

    `covered` sums the spans that had no open parent, i.e. the wall time the
    layer spans account for. `depth` counts open spans per flag ("step" for a
    training forward, "search" for a per-source decode).
    """

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.covered = 0.0
        self._open: list[float] = []  # child seconds of each open span

    def span(self, name: str, fn, after=None, flag: str | None = None):
        """Wrap fn in a span; after(args, result, seconds) runs once it closes."""
        open_spans, depth = self._open, self.depth

        def wrapper(*args, **kwargs):
            if flag:
                depth[flag] += 1
            open_spans.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = open_spans.pop()
                self.total[name] += dt
                self.self_time[name] += dt - child
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += dt
                else:
                    self.covered += dt
                if flag:
                    depth[flag] -= 1
            if after is not None:
                after(args, out, dt)
            return out

        return wrapper

    def op(self, name: str, fn):
        """Tensor op wrapper: times the forward and wraps the result's vjp,
        but only inside a training forward (`step` flag); elsewhere it is a
        plain call."""
        fwd = self.span(f"tensor.{name}.fwd", fn)
        bwd_name = f"tensor.{name}.bwd"
        depth, counts = self.depth, self.counts

        def wrapper(*args, **kwargs):
            if not depth["step"]:
                return fn(*args, **kwargs)
            out = fwd(*args, **kwargs)
            vjp = out._vjp
            if vjp is not None and not any(out is a for a in args):
                counts["tensor.graph_nodes"] += 1
                out._vjp = self.span(bwd_name, vjp)
            return out

        return wrapper

    def merge(self, other: dict):
        """Add a dump() taken in another process."""
        for key in ("total", "self_time", "calls", "counts"):
            mine = getattr(self, key)
            for name, value in other[key].items():
                mine[name] += value
        self.covered += other["covered"]

    def dump(self) -> dict:
        return {"total": dict(self.total), "self_time": dict(self.self_time),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "covered": self.covered}


def install_layers(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the per-layer metrics read."""
    import numpy as np

    from octopus import cli, decoding, metrics, model, objectives, optim, tensor, trainer, vocab

    counts = tracer.counts
    p = Patches()
    span = tracer.span

    def layer(owner, attr, name, after=None, flag=None):
        p.wrap(owner, attr, lambda fn: span(name, fn, after, flag))

    for op in OPS:
        p.wrap(tensor, op, lambda fn, op=op: tracer.op(op, fn))
    layer(tensor, "backward", "tensor.backward")

    def batch_fill(args, batch, dt):
        counts["objectives.real_tokens"] += real_tokens(batch)
        counts["objectives.slots"] += batch.enc_ids.size + batch.target_ids.size

    def decode_step(args, logits, dt):
        if tracer.depth["search"]:
            counts["decoding.model_calls"] += 1
        rows, length = np.shape(args[3])
        if rows == 1:
            name = bin_name(length)
            tracer.total[name] += dt
            tracer.calls[name] += 1

    Seq = model.Seq2SeqTransformer
    layer(Seq, "batch_loss", "model.batch_loss", flag="step")
    layer(Seq, "encode", "model.encode")
    layer(Seq, "decode_logits", "model.decode_logits", after=decode_step)
    layer(Seq, "save", "model.save")
    layer(Seq, "load", "model.load")

    def hyps(args, out, dt):
        counts["decoding.top_tokens"] += len(out[0].ids)
        for h in out:
            counts["decoding.hyps_finished" if h.finished else "decoding.hyps_capped"] += 1

    layer(decoding, "generate", "decoding.generate", after=hyps, flag="search")
    layer(decoding, "greedy_decode_batch", "decoding.greedy_decode_batch")
    layer(optim, "adam_step", "optim.adam_step")
    layer(objectives, "corrupt_spans", "objectives.corrupt_spans")
    layer(objectives, "make_batch", "objectives.batch", after=batch_fill)
    layer(trainer, "_denoise_batch", "objectives.batch", after=batch_fill)

    def draw(args, out, dt):
        counts[f"trainer.task_draws.{out[0]}"] += 1

    layer(trainer, "sample_task_batch", "trainer.sample_task_batch", after=draw)  # counts draws
    layer(trainer, "evaluate_dev", "trainer.evaluate_dev")
    # the whole evaluate-and-checkpoint step, so its other file writes
    # (vocabulary, optimizer state, checkpoints.jsonl) count toward coverage
    layer(trainer, "_eval_and_checkpoint", "trainer.checkpoint")
    layer(metrics, "score_task", "metrics.score_task")
    layer(vocab.Vocabulary, "encode", "vocab.encode")
    layer(vocab.Vocabulary, "decode", "vocab.decode")
    layer(cli, "load_toolkit", "cli.load_toolkit")
    layer(cli, "_generate_all", "cli.generate")
    return p


class StepClock:
    """Untraced training probe: one clock read per optimizer step, an
    evaluation counter, and the token count of every training batch.

    Step time is the interval between consecutive `adam_step` returns; an
    interval that holds an evaluation is not a training step and is dropped.
    """

    def __init__(self):
        self.marks: list[tuple[float, int]] = []
        self.evals = 0
        self.tokens = 0

    def install(self) -> Patches:
        from octopus import model, trainer

        p = Patches()

        def adam(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.marks.append((perf(), self.evals))
                return out
            return wrapper

        def evaluate(fn):
            def wrapper(*args, **kwargs):
                self.evals += 1
                return fn(*args, **kwargs)
            return wrapper

        def batch_loss(fn):
            def wrapper(model_self, batch, *args, **kwargs):
                self.tokens += real_tokens(batch)
                return fn(model_self, batch, *args, **kwargs)
            return wrapper

        p.wrap(trainer, "adam_step", adam)
        p.wrap(trainer, "evaluate_dev", evaluate)
        p.wrap(model.Seq2SeqTransformer, "batch_loss", batch_loss)
        return p

    def steps(self) -> dict[int, float]:
        """Seconds of each timed step, keyed by its index in the run."""
        return {k: b - a for k, ((a, ea), (b, eb)) in enumerate(zip(self.marks, self.marks[1:]), 1)
                if ea == eb}
