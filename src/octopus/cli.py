"""Command-line surface: the main batch command, the interactive REPL, and
one thin command per task prefix.

Exit codes: 0 success, 1 I/O failure (unreadable input, missing model),
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .decoding import DecodeConfig, generate, greedy_decode_batch
from .model import ModelConfig, Seq2SeqTransformer
from .tasks import PREFIXES, normalize_prefix
from .vocab import Vocabulary

DEFAULT_MODEL_PATH = "./checkpoints/best"
INTERACTIVE_SEQ_LENGTH = 300  # interactive preset; batch default stays 2048


@dataclass
class CliArgs:
    cache_dir: str | None
    logging_file: str | None
    prefix: str | None
    text: str | None
    input_file: str | None
    max_outputs: int
    batch_size: int
    seq_length: int
    search_method: str
    nbeam: int
    no_repeat_ngram_size: int
    top_k: int
    top_p: float
    model_path: str


def _build_parser(prog: str, mode: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=prog, description="Multitask text-to-text generation")
    p.add_argument("-c", "--cache-dir", default=None,
                   help="Specify the path to the cache directory.")
    p.add_argument("-l", "--logging-file", default=None,
                   help="Define the file path for logging.")
    if mode == "batch":
        # the short -p goes to --prefix; --top-p is long-form only
        p.add_argument("-p", "--prefix", required=True,
                       help=f"Task prefix, one of: {', '.join(PREFIXES)}")
    if mode in ("batch", "task"):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("-t", "--text", default=None,
                           help="Provide the input text for generative tasks.")
        group.add_argument("-f", "--input-file", default=None,
                           help="Specify the path of the input file.")
    p.add_argument("-o", "--max-outputs", type=int, default=3,
                   help="Define the number of hypotheses to generate as output.")
    p.add_argument("-bs", "--batch-size", type=int, default=8,
                   help="Set the number of input sentences processed in a single iteration.")
    p.add_argument("-s", "--seq-length", type=int,
                   default=INTERACTIVE_SEQ_LENGTH if mode == "interactive" else 2048,
                   help="Specify the maximum sequence length for the generative text.")
    p.add_argument("-m", "--search-method", choices=["greedy", "beam", "sampling"],
                   default="beam", help="Choose the decoding method.")
    p.add_argument("-nb", "--nbeam", type=int, default=5,
                   help="If using beam search, specify the beam search size.")
    p.add_argument("-ng", "--no-repeat-ngram-size", type=int, default=0,
                   help="Avoid repeating the same n-gram size in the generated text.")
    p.add_argument("-k", "--top-k", type=int, default=0,
                   help="Utilize sampling with a top-k strategy.")
    p.add_argument("--top-p", type=float, default=1.0,
                   help="Implement sampling with a top-p strategy.")
    p.add_argument("--model-path", default=DEFAULT_MODEL_PATH,
                   help="Checkpoint directory (model, vocabulary, config).")
    return p


def parse_args(argv: list[str], mode: str = "batch", prog: str = "octopus") -> CliArgs:
    """Validated CliArgs; argparse handles usage errors with exit code 2."""
    parser = _build_parser(prog, mode)
    ns = parser.parse_args(argv)
    prefix = getattr(ns, "prefix", None)
    if prefix is not None:
        try:
            prefix = normalize_prefix(prefix)
        except ValueError as e:
            parser.error(str(e))
    return CliArgs(
        cache_dir=ns.cache_dir,
        logging_file=ns.logging_file,
        prefix=prefix,
        text=getattr(ns, "text", None),
        input_file=getattr(ns, "input_file", None),
        max_outputs=ns.max_outputs,
        batch_size=ns.batch_size,
        seq_length=ns.seq_length,
        search_method=ns.search_method,
        nbeam=ns.nbeam,
        no_repeat_ngram_size=ns.no_repeat_ngram_size,
        top_k=ns.top_k,
        top_p=ns.top_p,
        model_path=ns.model_path,
    )


def load_toolkit(model_path: str) -> tuple[Seq2SeqTransformer, Vocabulary]:
    """Load a checkpoint directory written by the trainer."""
    root = Path(model_path)
    config = ModelConfig.from_json((root / "config.json").read_text(encoding="utf-8"))
    vocab = Vocabulary.load(root / "vocab.txt")
    model = Seq2SeqTransformer(config)
    model.load(root / "model.octo")
    model.set_train(False)
    return model, vocab


def _decode_config(args: CliArgs) -> DecodeConfig:
    cfg = DecodeConfig(
        method=args.search_method,
        nbeam=args.nbeam,
        max_outputs=args.max_outputs,
        seq_length=args.seq_length,
        no_repeat_ngram_size=args.no_repeat_ngram_size,
        top_k=args.top_k,
        top_p=args.top_p,
    )
    cfg.validate()
    return cfg


def _generate_all(model, vocab, texts: list[str], prefix: str,
                  cfg: DecodeConfig, batch_size: int) -> list[list[str]]:
    """Hypothesis texts per input; greedy runs batched, the rest per input."""
    sources = [vocab.encode(f"{prefix}: {text}") for text in texts]
    if cfg.method == "greedy":
        chunk = max(batch_size, 1)
        out: list[list[str]] = []
        for lo in range(0, len(sources), chunk):
            ids = greedy_decode_batch(model, vocab, sources[lo:lo + chunk],
                                      cfg.seq_length, cfg.no_repeat_ngram_size)
            out.extend([vocab.decode(row)] for row in ids)
        return out
    return [[vocab.decode(h.ids) for h in generate(model, vocab, src, cfg)]
            for src in sources]


def run_batch(args: CliArgs, stdout=None, stderr=None) -> int:
    """Decode --text or every line of --input-file and print hypotheses as
    "target{i}: <text>" blocks separated by blank lines."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        cfg = _decode_config(args)
    except ValueError as e:
        print(f"error: {e}", file=stderr)
        return 2
    if args.text is not None:
        texts = [args.text]
    else:
        try:
            with open(args.input_file, encoding="utf-8") as f:
                texts = [line.rstrip("\n") for line in f if line.strip()]
        except OSError as e:
            print(f"error: cannot read input file: {e}", file=stderr)
            return 1
    try:
        model, vocab = load_toolkit(args.model_path)
    except (OSError, ValueError) as e:
        print(f"error: cannot load model from {args.model_path}: {e}", file=stderr)
        return 1

    log = None
    if args.logging_file:
        try:
            log = open(args.logging_file, "a", encoding="utf-8")
        except OSError as e:
            print(f"error: cannot open logging file: {e}", file=stderr)
            return 1
        log.write(f"config\tprefix={args.prefix}\tmethod={cfg.method}\tnbeam={cfg.nbeam}\t"
                  f"max_outputs={cfg.max_outputs}\tseq_length={cfg.seq_length}\n")
    try:
        t0 = time.perf_counter()
        blocks = _generate_all(model, vocab, texts, args.prefix, cfg, args.batch_size)
        for i, hyps in enumerate(blocks):
            if i:
                stdout.write("\n")
            for j, text in enumerate(hyps, start=1):
                stdout.write(f"target{j}: {text}\n")
        if log is not None:
            ms = int((time.perf_counter() - t0) * 1000)
            log.write(f"done\tinputs={len(texts)}\twallclock_ms={ms}\n")
    finally:
        if log is not None:
            log.close()
    return 0


def repl_loop(args: CliArgs, stdin=None, stdout=None, stderr=None) -> int:
    """Interactive session: ask for task(s) once, then decode sources until
    "q". A comma-separated task list pipelines left to right, each stage
    consuming the previous stage's top hypothesis."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        cfg = _decode_config(args)
    except ValueError as e:
        print(f"error: {e}", file=stderr)
        return 2
    try:
        model, vocab = load_toolkit(args.model_path)
    except (OSError, ValueError) as e:
        print(f"error: cannot load model from {args.model_path}: {e}", file=stderr)
        return 1

    stdout.write("Octopus Interactive CLI\n")
    stdout.write(f"Loading model from {args.model_path}\n")

    tasks: list[str] | None = None
    while tasks is None:
        stdout.write("Type your task(s):\n")
        stdout.flush()
        line = stdin.readline()
        if not line:
            return 0
        names = [part for part in (s.strip() for s in line.split(",")) if part]
        try:
            tasks = [normalize_prefix(name) for name in names]
        except ValueError:
            stdout.write(f"Unknown task. Valid tasks: {', '.join(PREFIXES)}\n")
            tasks = None
        if tasks == []:
            tasks = None

    while True:
        stdout.write("Type your source text or (q) to STOP:\n")
        stdout.flush()
        line = stdin.readline()
        if not line:
            return 0
        text = line.strip()
        if not text:
            continue
        if text == "q":
            return 0
        current = text
        hyps: list[str] = [current]
        for task in tasks:
            source = vocab.encode(f"{task}: {current}")
            results = generate(model, vocab, source, cfg)
            hyps = [vocab.decode(h.ids) for h in results]
            current = hyps[0]
        for j, hyp in enumerate(hyps, start=1):
            stdout.write(f"target{j}: {hyp}\n")


def main(argv: list[str] | None = None) -> int:
    """The `octopus` batch command."""
    args = parse_args(sys.argv[1:] if argv is None else argv, mode="batch")
    return run_batch(args)


def interactive_main(argv: list[str] | None = None) -> int:
    """The `octopus_interactive` command."""
    args = parse_args(sys.argv[1:] if argv is None else argv,
                      mode="interactive", prog="octopus_interactive")
    return repl_loop(args)


def _task_main(prefix: str, argv: list[str] | None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv,
                      mode="task", prog=f"octopus-{prefix}")
    args.prefix = prefix
    return run_batch(args)


def main_diacritize(argv=None):
    return _task_main("diacritize", argv)


def main_correct_grammar(argv=None):
    return _task_main("correct_grammar", argv)


def main_paraphrase(argv=None):
    return _task_main("paraphrase", argv)


def main_answer_question(argv=None):
    return _task_main("answer_question", argv)


def main_generate_question(argv=None):
    return _task_main("generate_question", argv)


def main_summarize(argv=None):
    return _task_main("summarize", argv)


def main_generate_title(argv=None):
    return _task_main("generate_title", argv)


def main_translitrate_ar2en(argv=None):
    return _task_main("translitrate_ar2en", argv)


def main_translitrate_en2ar(argv=None):
    return _task_main("translitrate_en2ar", argv)


if __name__ == "__main__":
    sys.exit(main())
