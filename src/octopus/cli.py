"""Command-line surface: the main batch command, the interactive REPL, and
one thin command per task prefix.

Exit codes: 0 success, 1 input or I/O failure (unreadable input, an input
longer than the model accepts, missing or corrupt model), 2 usage error
(any bad flag or flag value, reported by `parse_args` in argparse's format
before any file or model is read).
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial

from .decoding import DecodeConfig, generate_batch, max_output_len
from .model import load_toolkit
from .tasks import PREFIXES, normalize_prefix

DEFAULT_MODEL_PATH = "./checkpoints/best"
INTERACTIVE_SEQ_LENGTH = 300  # interactive preset; batch default stays 2048


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


def parse_args(argv: list[str], mode: str = "batch", prog: str = "octopus") -> argparse.Namespace:
    """Parsed flags plus `decode`, the DecodeConfig they ask for. Every usage
    error, argparse's own or a bad value, exits 2 here, before any file is read."""
    parser = _build_parser(prog, mode)
    ns = parser.parse_args(argv)
    try:
        if getattr(ns, "prefix", None) is not None:
            ns.prefix = normalize_prefix(ns.prefix)
        if ns.batch_size < 1:
            raise ValueError(f"argument -bs/--batch-size: must be >= 1, got {ns.batch_size}")
        ns.decode = DecodeConfig(ns.search_method, ns.nbeam, ns.max_outputs, ns.seq_length,
                                 ns.no_repeat_ngram_size, ns.top_k, ns.top_p)
    except ValueError as e:
        parser.error(str(e))
    return ns


def _encode(model, vocab, prefix: str, text: str, what: str = "input") -> list[int]:
    """Source ids of one input; ValueError if the model cannot take them."""
    ids, limit = vocab.encode(f"{prefix}: {text}"), model.config.max_seq_len
    if len(ids) > limit:
        raise ValueError(f"{what} is {len(ids)} tokens, the model accepts at most {limit}")
    return ids


def _setup(args: argparse.Namespace, stderr):
    """(model, vocabulary) of a command, or exit code 1 once the failure is
    printed. Warns once when -s asks for more tokens than the model can
    generate."""
    try:
        model, vocab = load_toolkit(args.model_path)
    except (OSError, ValueError) as e:
        print(f"error: cannot load model from {args.model_path}: {e}", file=stderr)
        return 1
    limit = max_output_len(model)
    if args.seq_length > limit:
        print(f"warning: -s {args.seq_length} exceeds this model's limit; "
              f"outputs stop at {limit} tokens", file=stderr)
    return model, vocab


def _generate_all(model, vocab, sources: list[list[int]],
                  cfg: DecodeConfig, batch_size: int) -> list[list[str]]:
    """Hypothesis texts per source (ids from `_encode`), batch_size at a time."""
    return [[vocab.decode(h.ids) for h in hyps]
            for hyps in generate_batch(model, vocab, sources, cfg, batch_size)]


def _log(args: argparse.Namespace, stderr, line: str) -> bool:
    """Append one whole line to the -l file, if one is given; False once a
    failure to write it is printed."""
    if args.logging_file:
        try:
            with open(args.logging_file, "a", encoding="utf-8") as f:
                f.write(line + "\n")
        except OSError as e:
            print(f"error: cannot open logging file: {e}", file=stderr)
            return False
    return True


def _config_line(prefix: str, cfg: DecodeConfig) -> str:
    return (f"config\tprefix={prefix}\tmethod={cfg.method}\tnbeam={cfg.nbeam}\t"
            f"max_outputs={cfg.max_outputs}\tseq_length={cfg.seq_length}")


def _done_line(inputs: int, t0: float) -> str:
    return f"done\tinputs={inputs}\twallclock_ms={int((time.perf_counter() - t0) * 1000)}"


def run_batch(args: argparse.Namespace, stdout=None, stderr=None) -> int:
    """Decode --text or every line of --input-file and print hypotheses as
    "target{i}: <text>" blocks separated by blank lines."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    setup = _setup(args, stderr)
    if isinstance(setup, int):
        return setup
    model, vocab = setup
    cfg = args.decode
    if args.text is not None:
        lines = [(1, args.text)]
    else:
        try:
            with open(args.input_file, encoding="utf-8") as f:
                lines = [(n, line.rstrip("\n")) for n, line in enumerate(f, 1) if line.strip()]
        except (OSError, UnicodeDecodeError) as e:
            print(f"error: cannot read input file: {e}", file=stderr)
            return 1
    sources = []
    for n, text in lines:
        try:
            sources.append(_encode(model, vocab, args.prefix, text))
        except ValueError as e:
            print(f"error: line {n}: {e}", file=stderr)
            return 1

    if not _log(args, stderr, _config_line(args.prefix, cfg)):
        return 1
    t0 = time.perf_counter()
    blocks = _generate_all(model, vocab, sources, cfg, args.batch_size)
    for i, hyps in enumerate(blocks):
        if i:
            stdout.write("\n")
        for j, text in enumerate(hyps, start=1):
            stdout.write(f"target{j}: {text}\n")
    return 0 if _log(args, stderr, _done_line(len(sources), t0)) else 1


def repl_loop(args: argparse.Namespace, stdin=None, stdout=None, stderr=None) -> int:
    """Interactive session: ask for task(s) once, then decode sources until
    "q". A comma-separated task list pipelines left to right, each stage
    consuming the previous stage's top hypothesis."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    setup = _setup(args, stderr)
    if isinstance(setup, int):
        return setup
    model, vocab = setup
    cfg = args.decode

    stdout.write("Octopus Interactive CLI\n")
    stdout.write(f"Loading model from {args.model_path}\n")

    n = 0  # stdin lines read so far
    tasks: list[str] | None = None
    while tasks is None:
        stdout.write("Type your task(s):\n")
        stdout.flush()
        line = stdin.readline()
        n += 1
        if not line:
            return 0
        names = [part for part in (s.strip() for s in line.split(",")) if part]
        try:
            tasks = [normalize_prefix(name) for name in names] or None
        except ValueError:
            stdout.write(f"Unknown task. Valid tasks: {', '.join(PREFIXES)}\n")
    if not _log(args, stderr, _config_line(",".join(tasks), cfg)):
        return 1

    while True:
        stdout.write("Type your source text or (q) to STOP:\n")
        stdout.flush()
        line = stdin.readline()
        n += 1
        if not line:
            return 0
        current = line.strip()
        if not current:
            continue
        if current == "q":
            return 0
        t0 = time.perf_counter()
        for k, task in enumerate(tasks):
            # a later stage reads the previous stage's output, not the line
            what = f"input to {task} (output of {tasks[k - 1]})" if k else "input"
            try:
                source = _encode(model, vocab, task, current, what)
            except ValueError as e:
                print(f"error: line {n}: {e}", file=stderr)
                break
            hyps = _generate_all(model, vocab, [source], cfg, 1)[0]
            current = hyps[0]
        else:  # every stage decoded
            for j, hyp in enumerate(hyps, start=1):
                stdout.write(f"target{j}: {hyp}\n")
            if not _log(args, stderr, _done_line(1, t0)):
                return 1


def main(argv: list[str] | None = None) -> int:
    """The `octopus` batch command."""
    args = parse_args(sys.argv[1:] if argv is None else argv, mode="batch")
    return run_batch(args)


def interactive_main(argv: list[str] | None = None) -> int:
    """The `octopus_interactive` command."""
    args = parse_args(sys.argv[1:] if argv is None else argv,
                      mode="interactive", prog="octopus_interactive")
    return repl_loop(args)


def _task_main(prefix: str, argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv,
                      mode="task", prog=f"octopus-{prefix}")
    args.prefix = prefix
    return run_batch(args)


# the per-task console scripts
main_diacritize = partial(_task_main, "diacritize")
main_correct_grammar = partial(_task_main, "correct_grammar")
main_paraphrase = partial(_task_main, "paraphrase")
main_answer_question = partial(_task_main, "answer_question")
main_generate_question = partial(_task_main, "generate_question")
main_summarize = partial(_task_main, "summarize")
main_generate_title = partial(_task_main, "generate_title")
main_translitrate_ar2en = partial(_task_main, "translitrate_ar2en")
main_translitrate_en2ar = partial(_task_main, "translitrate_en2ar")


if __name__ == "__main__":
    sys.exit(main())
