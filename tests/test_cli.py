import io
import json
import struct

import numpy as np
import pytest

from octopus import ModelConfig, Seq2SeqTransformer
from octopus.cli import main, parse_args, repl_loop, run_batch
from octopus.vocab import build_vocab


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt") / "best"
    root.mkdir()
    vocab = build_vocab(["abcdefghij klmnopqrstuvwxyz: _2"], max_size=120, sentinels=8)
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=1, dropout_rate=0.0, max_seq_len=96)
    model = Seq2SeqTransformer(cfg, seed=7)
    model.save(root / "model.octo")
    vocab.save(root / "vocab.txt")
    (root / "config.json").write_text(cfg.to_json(), encoding="utf-8")
    return root


def test_parse_args_defaults(checkpoint):
    args = parse_args(["-p", "diacritize", "-t", "x"])
    assert args.search_method == "beam"
    assert args.nbeam == 5
    assert args.max_outputs == 3
    assert args.seq_length == 2048
    assert args.top_k == 0 and args.top_p == 1.0
    assert args.no_repeat_ngram_size == 0
    assert args.model_path == "./checkpoints/best"


def test_parse_args_paper_table_spellings():
    argv = ["--prefix", "diacritize", "--text", "x", "--cache-dir", "c",
            "--logging-file", "l", "--max-outputs", "2", "--batch-size", "4",
            "--seq-length", "64", "--search-method", "beam", "--nbeam", "7",
            "--no-repeat-ngram-size", "3", "--top-k", "5", "--top-p", "0.9"]
    args = parse_args(argv)
    assert (args.nbeam, args.top_k, args.top_p) == (7, 5, 0.9)
    short = parse_args(["-p", "diacritize", "-t", "x", "-c", "c", "-l", "l",
                        "-o", "2", "-bs", "4", "-s", "64", "-m", "beam",
                        "-nb", "7", "-ng", "3", "-k", "5"])
    assert (short.nbeam, short.no_repeat_ngram_size, short.top_k) == (7, 3, 5)


def test_parse_args_short_p_binds_prefix():
    args = parse_args(["-p", "summarize", "-t", "x"])
    assert args.prefix == "summarize"


def test_parse_args_method_and_beam(checkpoint):
    args = parse_args(["-p", "paraphrase", "-t", "y", "-m", "beam", "-nb", "5"])
    assert args.search_method == "beam" and args.nbeam == 5


def test_parse_args_text_and_file_conflict():
    with pytest.raises(SystemExit) as exc:
        parse_args(["-p", "diacritize", "--text", "x", "--input-file", "f"])
    assert exc.value.code == 2


def test_parse_args_requires_prefix_and_input():
    with pytest.raises(SystemExit) as exc:
        parse_args(["--text", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        parse_args(["-p", "diacritize"])
    assert exc.value.code == 2


def test_parse_args_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args(["-p", "diacritize", "-t", "x", "--wat"])
    assert exc.value.code == 2


def test_parse_args_unknown_prefix_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args(["-p", "translate", "-t", "x"])
    assert exc.value.code == 2


def test_parse_args_bad_enum_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args(["-p", "diacritize", "-t", "x", "-m", "magic"])
    assert exc.value.code == 2


@pytest.mark.parametrize("mode", ["batch", "interactive"])
@pytest.mark.parametrize("size", ["0", "-5"])
def test_parse_args_batch_size_below_one_exits_2(mode, size, capsys):
    argv = ["-p", "diacritize", "-t", "x"] if mode == "batch" else []
    with pytest.raises(SystemExit) as exc:
        parse_args(argv + ["-bs", size], mode=mode)
    assert exc.value.code == 2
    assert "--batch-size: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["batch", "task", "interactive"])
@pytest.mark.parametrize("flags,message", [
    (["-o", "9"], "nbeam must be >= max_outputs for beam search"),
    (["-o", "0"], "max_outputs must be >= 1"),
    (["--top-p", "0"], "top_p must be in (0, 1]"),
    (["--top-p", "1.5"], "top_p must be in (0, 1]"),
    (["-s", "0"], "seq_length must be >= 1"),
    (["-k", "-1"], "top_k must be >= 0"),
    (["-ng", "-1"], "no_repeat_ngram_size must be >= 0"),
    (["-m", "greedy", "-nb", "-3"], "nbeam must be >= 1"),
    (["-m", "sampling", "-nb", "0", "-o", "1"], "nbeam must be >= 1"),
], ids=["o9", "o0", "top_p0", "top_p1.5", "s0", "k-1", "ng-1", "greedy_nb-3", "sampling_nb0"])
def test_parse_args_bad_decode_value_exits_2(mode, flags, message, tmp_path, capsys):
    # the model path does not exist: the flag is rejected before anything is read
    argv = {"batch": ["-p", "diacritize", "-t", "x"], "task": ["-t", "x"], "interactive": []}[mode]
    with pytest.raises(SystemExit) as exc:
        parse_args([*argv, *flags, "--model-path", str(tmp_path / "nope")],
                   mode=mode, prog="prog")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: prog")
    assert captured.err.endswith(f"prog: error: {message}\n")
    assert captured.out == ""


def test_parse_args_alias_canonicalized():
    args = parse_args(["-p", "transliterate_ar2en", "-t", "x"])
    assert args.prefix == "translitrate_ar2en"


def test_parse_args_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        parse_args(["--help"])
    assert exc.value.code == 0


def test_run_batch_two_line_file_three_outputs(checkpoint, tmp_path):
    inputs = tmp_path / "in.txt"
    inputs.write_text("ab\ncd\n", encoding="utf-8")
    args = parse_args(["-p", "diacritize", "-f", str(inputs),
                       "-s", "6", "-o", "3", "--model-path", str(checkpoint)])
    out = io.StringIO()
    assert run_batch(args, stdout=out) == 0
    text = out.getvalue()
    blocks = text.strip("\n").split("\n\n")
    assert len(blocks) == 2
    for block in blocks:
        lines = block.splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines, start=1):
            assert line.startswith(f"target{i}: ")


def test_run_batch_greedy_single_hypothesis(checkpoint):
    args = parse_args(["-p", "diacritize", "-t", "ab", "-m", "greedy",
                       "-s", "6", "-o", "3", "--model-path", str(checkpoint)])
    out = io.StringIO()
    assert run_batch(args, stdout=out) == 0
    lines = out.getvalue().strip("\n").splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("target1: ")


def test_run_batch_unreadable_file_exits_1(checkpoint, tmp_path):
    args = parse_args(["-p", "diacritize", "-f", str(tmp_path / "missing.txt"),
                       "--model-path", str(checkpoint)])
    err = io.StringIO()
    assert run_batch(args, stdout=io.StringIO(), stderr=err) == 1
    assert "cannot read input file" in err.getvalue()


def test_run_batch_missing_model_exits_1(tmp_path):
    args = parse_args(["-p", "diacritize", "-t", "x",
                       "--model-path", str(tmp_path / "nope")])
    err = io.StringIO()
    assert run_batch(args, stdout=io.StringIO(), stderr=err) == 1
    assert "cannot load model" in err.getvalue()


def test_run_batch_truncated_model_exits_1(checkpoint, tmp_path):
    import shutil

    root = tmp_path / "best"
    shutil.copytree(checkpoint, root)
    model = root / "model.octo"
    model.write_bytes(model.read_bytes()[:7])
    args = parse_args(["-p", "diacritize", "-t", "x", "--model-path", str(root)])
    err = io.StringIO()
    assert run_batch(args, stdout=io.StringIO(), stderr=err) == 1
    assert "cannot load model" in err.getvalue() and "truncated" in err.getvalue()


def test_run_batch_writes_logging_file(checkpoint, tmp_path):
    log = tmp_path / "run.log"
    args = parse_args(["-p", "diacritize", "-t", "ab", "-s", "6",
                       "-l", str(log), "--model-path", str(checkpoint)])
    assert run_batch(args, stdout=io.StringIO()) == 0
    content = log.read_text(encoding="utf-8")
    assert "prefix=diacritize" in content
    assert "wallclock_ms=" in content


def test_run_batch_unwritable_logging_file_exits_1(checkpoint, tmp_path):
    args = parse_args(["-p", "diacritize", "-t", "ab", "-s", "6",
                       "-l", str(tmp_path / "no" / "such" / "dir" / "log.txt"),
                       "--model-path", str(checkpoint)])
    out, err = io.StringIO(), io.StringIO()
    assert run_batch(args, stdout=out, stderr=err) == 1
    assert "cannot open logging file" in err.getvalue()
    assert out.getvalue() == ""


def test_repl_writes_logging_file(checkpoint, tmp_path):
    # one config line once the tasks are read, one done line per decoded source
    log = tmp_path / "repl.log"
    args = parse_args(["--model-path", str(checkpoint), "-s", "6", "-m", "greedy",
                       "-l", str(log)], mode="interactive")
    stdin = io.StringIO("diacritize, paraphrase\nab\n" + "a" * 200 + "\ncd\nq\n")
    assert repl_loop(args, stdin=stdin, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    lines = log.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("config\tprefix=diacritize,paraphrase\tmethod=greedy\tnbeam=5\t"
                        "max_outputs=3\tseq_length=6")
    assert len(lines) == 3  # the over-long source decodes nothing
    for line in lines[1:]:
        kind, inputs, ms = line.split("\t")
        assert (kind, inputs) == ("done", "inputs=1") and int(ms.split("=")[1]) >= 0


def test_repl_unwritable_logging_file_exits_1(checkpoint, tmp_path):
    args = parse_args(["--model-path", str(checkpoint), "-s", "6",
                       "-l", str(tmp_path / "no" / "such" / "dir" / "log.txt")], mode="interactive")
    out, err = io.StringIO(), io.StringIO()
    assert repl_loop(args, stdin=io.StringIO("diacritize\nab\nq\n"), stdout=out, stderr=err) == 1
    assert "error: cannot open logging file" in err.getvalue()
    assert "target" not in out.getvalue()


MIXED_LINES = ["abc", "f", "edcba", "ab", "ghi", "j", "fedcb", "hh", "cab", "xyz", "a"]


@pytest.mark.parametrize("method", ["-m beam -nb 3", "-m sampling -k 5"])
def test_run_batch_output_independent_of_batch_size(checkpoint, tmp_path, method):
    """-bs batches beam and sampling too, without padding: stdout is the
    same for any batch size, and block i is what line i alone decodes to."""
    inputs = tmp_path / "in.txt"
    inputs.write_text("".join(f"{line}\n" for line in MIXED_LINES), encoding="utf-8")
    base = ["-p", "diacritize", "-s", "6", "-o", "2", *method.split(),
            "--model-path", str(checkpoint)]
    outs = []
    for bs in ("1", "8"):
        out = io.StringIO()
        assert run_batch(parse_args([*base, "-f", str(inputs), "-bs", bs]), stdout=out) == 0
        outs.append(out.getvalue())
    assert outs[0] == outs[1]
    blocks = outs[1].strip("\n").split("\n\n")
    for line, block in zip(MIXED_LINES, blocks, strict=True):
        alone = io.StringIO()
        assert run_batch(parse_args([*base, "-t", line]), stdout=alone) == 0
        assert alone.getvalue() == block + "\n"


def test_run_batch_overlong_line_exits_1(checkpoint, tmp_path):
    inputs = tmp_path / "in.txt"
    inputs.write_text("ab\n\n" + "a" * 200 + "\ncd\n", encoding="utf-8")
    args = parse_args(["-p", "diacritize", "-f", str(inputs), "-s", "6",
                       "--model-path", str(checkpoint)])
    out, err = io.StringIO(), io.StringIO()
    assert run_batch(args, stdout=out, stderr=err) == 1
    # "diacritize: " adds 12 tokens; the checkpoint's max_seq_len is 96
    assert err.getvalue() == "error: line 3: input is 212 tokens, the model accepts at most 96\n"
    assert out.getvalue() == ""


def test_run_batch_vocab_header_missing_field_exits_1(checkpoint, tmp_path):
    import shutil

    root = tmp_path / "best"
    shutil.copytree(checkpoint, root)
    vocab = root / "vocab.txt"
    header, rest = vocab.read_text(encoding="utf-8").split("\n", 1)
    header = "\t".join(f for f in header.split("\t") if not f.startswith("unit="))
    vocab.write_text(f"{header}\n{rest}", encoding="utf-8")
    args = parse_args(["-p", "diacritize", "-t", "x", "--model-path", str(root)])
    err = io.StringIO()
    assert run_batch(args, stdout=io.StringIO(), stderr=err) == 1
    assert "cannot load model" in err.getvalue() and "'unit'" in err.getvalue()


def test_run_batch_word_unit_vocab_exits_1(checkpoint, tmp_path):
    import shutil

    root = tmp_path / "best"
    shutil.copytree(checkpoint, root)
    vocab = root / "vocab.txt"
    vocab.write_text(vocab.read_text(encoding="utf-8").replace("unit=char", "unit=word", 1),
                     encoding="utf-8")
    args = parse_args(["-p", "diacritize", "-t", "x", "--model-path", str(root)])
    err = io.StringIO()
    assert run_batch(args, stdout=io.StringIO(), stderr=err) == 1
    assert "cannot load model" in err.getvalue() and "'word'" in err.getvalue()


def test_repl_overlong_line_reports_and_reprompts(checkpoint):
    args = parse_args(["--model-path", str(checkpoint), "-s", "6"], mode="interactive")
    stdin = io.StringIO("diacritize\n" + "a" * 200 + "\nab\nq\n")
    out, err = io.StringIO(), io.StringIO()
    assert repl_loop(args, stdin=stdin, stdout=out, stderr=err) == 0
    assert err.getvalue() == "error: line 2: input is 212 tokens, the model accepts at most 96\n"
    assert out.getvalue().count("Type your source text or (q) to STOP:") == 3
    targets = [l for l in out.getvalue().splitlines() if l.startswith("target")]
    assert len(targets) == 3  # the line after the over-long one still decodes


# the REPL's -s 300 is above what the checkpoint (max_seq_len 96) can generate
REPL_WARNING = "warning: -s 300 exceeds this model's limit; outputs stop at 95 tokens\n"


def test_repl_overlong_stage_output_names_the_stage(checkpoint):
    # beam output of diacritize runs to the cap of 95 tokens; with the
    # "paraphrase: " prefix the second stage's source is 107 tokens
    args = parse_args(["--model-path", str(checkpoint), "-o", "1"], mode="interactive")
    stdin = io.StringIO("diacritize, paraphrase\nab\nq\n")
    out, err = io.StringIO(), io.StringIO()
    assert repl_loop(args, stdin=stdin, stdout=out, stderr=err) == 0
    assert err.getvalue() == (REPL_WARNING +
                              "error: line 2: input to paraphrase (output of diacritize) "
                              "is 107 tokens, the model accepts at most 96\n")
    assert "target" not in out.getvalue()
    assert out.getvalue().count("Type your source text or (q) to STOP:") == 2


def test_cli_import_skips_training_modules():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import octopus

    code = ("import sys, octopus.cli; "
            "print(sorted(m for m in ('octopus.trainer', 'octopus.objectives', 'octopus.optim') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(octopus.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"
    # a submodule is an attribute of the package without importing it first
    code = "import octopus; print(octopus.trainer.train is octopus.train, octopus.metrics.bleu)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.startswith("True <function bleu")


def test_package_exports_resolve():
    import octopus

    names = """DecodeConfig Hypothesis beam_search block_repeat_ngrams generate sample_step
        EditSet MetricReport bleu cer diacritization_fidelity m2_f05 macro_scores rouge_l
        token_f1 ModelConfig Seq2SeqTransformer relative_position_bucket
        Seq2SeqBatch corrupt_spans make_batch splice AdamState adam_step Example TaskSpec
        format_input load_jsonl synth_cipher synth_devowel Tensor backward cross_entropy
        matmul no_grad rms_norm softmax CheckpointMeta Datasets TaskData TaskMixer
        TrainConfig evaluate_dev sample_task_batch select_best_checkpoint train Vocabulary
        build_vocab""".split()
    assert set(names) <= set(dir(octopus))
    for name in names:
        getattr(octopus, name)
    from octopus import trainer

    assert trainer.train is octopus.train
    with pytest.raises(AttributeError):
        octopus.no_such_name  # noqa: B018


def test_repl_bad_decode_config_exits_2(tmp_path, capsys):
    # -o 9 with the default beam of 5 is a usage error, caught before loading
    with pytest.raises(SystemExit) as exc:
        parse_args(["-o", "9", "--model-path", str(tmp_path / "nope")], mode="interactive")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error: nbeam must be >= max_outputs" in captured.err
    assert captured.out == ""


def test_repl_scripted_session(checkpoint):
    args = parse_args(["--model-path", str(checkpoint), "-s", "6"], mode="interactive")
    stdin = io.StringIO("diacritize\nab\nq\n")
    out = io.StringIO()
    assert repl_loop(args, stdin=stdin, stdout=out) == 0
    text = out.getvalue()
    assert text.startswith("Octopus Interactive CLI\n")
    assert f"Loading model from {checkpoint}" in text
    assert "Type your task(s):" in text
    assert text.count("Type your source text or (q) to STOP:") == 2
    targets = [l for l in text.splitlines() if l.startswith("target")]
    assert [l.split(":")[0] for l in targets] == ["target1", "target2", "target3"]


def test_repl_immediate_quit(checkpoint):
    args = parse_args(["--model-path", str(checkpoint)], mode="interactive")
    out = io.StringIO()
    assert repl_loop(args, stdin=io.StringIO("diacritize\nq\n"), stdout=out) == 0
    assert not [l for l in out.getvalue().splitlines() if l.startswith("target")]


def test_repl_unknown_task_reprompts(checkpoint):
    args = parse_args(["--model-path", str(checkpoint), "-s", "6"], mode="interactive")
    stdin = io.StringIO("translate\ndiacritize\nq\n")
    out = io.StringIO()
    assert repl_loop(args, stdin=stdin, stdout=out) == 0
    text = out.getvalue()
    assert "Unknown task" in text
    assert "translitrate_ar2en" in text  # the valid list
    assert text.count("Type your task(s):") == 2


def test_repl_interactive_preset_seq_length():
    args = parse_args([], mode="interactive")
    assert args.seq_length == 300
    assert args.max_outputs == 3


def test_repl_pipeline_consumes_top_hypothesis(checkpoint):
    args = parse_args(["--model-path", str(checkpoint), "-s", "6"], mode="interactive")
    stdin = io.StringIO("correct_grammar, diacritize\nab\nq\n")
    out = io.StringIO()
    assert repl_loop(args, stdin=stdin, stdout=out) == 0
    targets = [l for l in out.getvalue().splitlines() if l.startswith("target")]
    assert len(targets) == 3


def test_batch_and_repl_agree_modulo_prompts(checkpoint):
    batch_args = parse_args(["-p", "diacritize", "-t", "ab", "-s", "6",
                             "--model-path", str(checkpoint)])
    out_b = io.StringIO()
    assert run_batch(batch_args, stdout=out_b) == 0
    repl_args = parse_args(["--model-path", str(checkpoint), "-s", "6"], mode="interactive")
    out_r = io.StringIO()
    assert repl_loop(repl_args, stdin=io.StringIO("diacritize\nab\nq\n"), stdout=out_r) == 0
    batch_targets = [l for l in out_b.getvalue().splitlines() if l.startswith("target")]
    repl_targets = [l for l in out_r.getvalue().splitlines() if l.startswith("target")]
    assert batch_targets == repl_targets


def test_task_command_equals_main_with_prefix(checkpoint):
    out_main = io.StringIO()
    rc1 = run_batch(parse_args(["-p", "diacritize", "-t", "ab", "-s", "6",
                                "--model-path", str(checkpoint)]), stdout=out_main)
    out_task = io.StringIO()
    args = parse_args(["-t", "ab", "-s", "6", "--model-path", str(checkpoint)], mode="task")
    args.prefix = "diacritize"
    rc2 = run_batch(args, stdout=out_task)
    assert rc1 == rc2 == 0
    assert out_main.getvalue() == out_task.getvalue()


def test_main_entrypoint_smoke(checkpoint, capsys):
    rc = main(["-p", "diacritize", "-t", "ab", "-s", "6", "--model-path", str(checkpoint)])
    assert rc == 0
    assert "target1: " in capsys.readouterr().out


def test_task_entry_function_matches_main(checkpoint, capsys):
    from octopus.cli import main_diacritize

    rc = main(["-p", "diacritize", "-t", "ab", "-s", "6", "--model-path", str(checkpoint)])
    via_main = capsys.readouterr().out
    rc2 = main_diacritize(["-t", "ab", "-s", "6", "--model-path", str(checkpoint)])
    via_task = capsys.readouterr().out
    assert rc == rc2 == 0
    assert via_main == via_task


def test_every_console_script_entry_point_exists():
    import importlib
    import re
    from pathlib import Path

    # a plain-text read of the table: tomllib is not in Python 3.10
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(re.findall(r'^(\S+) = "([^"]+)"$', table, re.M))
    assert len(scripts) == 11
    for target in scripts.values():
        module, func = target.split(":")
        assert callable(getattr(importlib.import_module(module), func)), target


def test_installed_console_script_smoke():
    import shutil
    import subprocess

    exe = shutil.which("octopus")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--prefix" in proc.stdout


def test_run_batch_warns_once_when_s_exceeds_the_model(checkpoint, tmp_path):
    # the checkpoint's max_seq_len is 96: at most 95 generated tokens
    inputs = tmp_path / "in.txt"
    inputs.write_text("ab\ncd\n", encoding="utf-8")
    base = ["-p", "diacritize", "-f", str(inputs), "-m", "greedy", "--model-path", str(checkpoint)]
    outs = []
    for s, warning in (("2048", "warning: -s 2048 exceeds this model's limit; "
                                "outputs stop at 95 tokens\n"), ("95", "")):
        out, err = io.StringIO(), io.StringIO()
        assert run_batch(parse_args([*base, "-s", s]), stdout=out, stderr=err) == 0
        assert err.getvalue() == warning
        outs.append(out.getvalue())
    assert outs[0] == outs[1]


def test_repl_warns_once_per_session_when_s_exceeds_the_model(checkpoint):
    args = parse_args(["--model-path", str(checkpoint), "-m", "greedy"], mode="interactive")
    out, err = io.StringIO(), io.StringIO()
    assert repl_loop(args, stdin=io.StringIO("diacritize\nab\ncd\nq\n"), stdout=out,
                     stderr=err) == 0
    assert err.getvalue() == REPL_WARNING
    assert len([l for l in out.getvalue().splitlines() if l.startswith("target")]) == 2


# ---- fuzzing: every argv and input ends in exit code 0, 1 or 2 ----

FUZZ_CASES = 400
FUZZ_TEXTS = ["ab", "", " ", "a" * 200, "\x00\x01", "ا ب", "\udcff", "x\ny", "q", "-t"]
FUZZ_FLAGS = {  # flag -> (good values, bad values)
    "-o": (["1", "2", "3"], ["0", "-1", "x"]),
    "-bs": (["1", "3", "16"], ["0", "-2", "1.5"]),
    "-s": (["1", "4", "95", "96", "2048"], ["0", "-3", "abc"]),
    "-m": (["greedy", "beam", "sampling"], ["magic", ""]),
    "-nb": (["1", "3", "5"], ["0", "-1"]),
    "-ng": (["0", "1", "2"], ["-1", "z"]),
    "-k": (["0", "3", "1000"], ["-2", "1e3"]),
    "--top-p": (["1.0", "0.5", "1e-9"], ["0", "1.5", "nan", "-inf", "p"]),
    "-c": (["cache"], []),
    "-l": (["LOG"], ["DIR", "MISSING/log.txt"]),
}
FUZZ_STDIN = ["diacritize", "paraphrase, diacritize", "nope", ",", "ab", "a" * 200, "", "q"]


def _fuzz_inputs(root):
    """Input files (and paths that are not readable files) by name."""
    rng = np.random.default_rng(0)
    contents = {
        "empty": b"",
        "blank": b"\n\n  \n\t\n",
        "binary": rng.integers(0, 256, size=300, dtype=np.uint8).tobytes(),
        "bad_utf8": b"ab\n\xff\xfe cd\n",
        "overlong": b"ab\n" + b"a" * 500 + b"\n",
        "crlf": b"ab\r\ncd\r\n",
        "lines": b"ab\ncd\nefg\n",
    }
    files = {}
    for name, data in contents.items():
        files[name] = root / name
        files[name].write_bytes(data)
    files["dir"] = root
    files["missing"] = root / "missing.txt"
    return [str(path) for path in files.values()]


def _broken_checkpoints(checkpoint, root):
    """Model directories that are missing, corrupt or disagree with themselves."""
    import shutil

    def variant(name, file, content):
        path = root / name
        shutil.copytree(checkpoint, path)
        (path / file).write_bytes(content.encode() if isinstance(content, str) else content)
        return str(path)

    octo = (checkpoint / "model.octo").read_bytes()
    (blob_len,) = struct.unpack("<I", octo[5:9])

    def manifest_variant(name, edit):
        entries = json.loads(octo[9:9 + blob_len])
        edit(entries)
        blob = json.dumps(entries).encode()
        return variant(name, "model.octo",
                       octo[:5] + struct.pack("<I", len(blob)) + blob + octo[9 + blob_len:])

    config = json.loads((checkpoint / "config.json").read_text(encoding="utf-8"))
    small = root / "small_model"  # consistent itself, but smaller than the vocabulary
    shutil.copytree(checkpoint, small)
    small_cfg = ModelConfig(**{**config, "vocab_size": 20})
    Seq2SeqTransformer(small_cfg).save(small / "model.octo")
    (small / "config.json").write_text(small_cfg.to_json(), encoding="utf-8")
    return [
        str(small),
        str(root / "no_such_model"),
        variant("bad_json", "config.json", "{"),
        variant("list_config", "config.json", "[1, 2]"),
        variant("unknown_key", "config.json", json.dumps({**config, "wat": 1})),
        variant("string_field", "config.json", json.dumps({**config, "d_model": "16"})),
        variant("float_field", "config.json", json.dumps({**config, "d_model": 16.0})),
        variant("empty_vocab", "vocab.txt", ""),
        variant("bad_vocab_header", "vocab.txt", "vocab_size=x\tsentinels=y\tunit=char\n"),
        # a bool is an int to isinstance, but no tensor size
        manifest_variant("bool_shape", lambda m: m[0].update(shape=[True, m[0]["shape"][1]])),
        manifest_variant("shifted_offset", lambda m: m[0].update(offset=2)),
        manifest_variant("duplicate_name", lambda m: m[1].update(name=m[0]["name"])),
    ]


def test_every_broken_checkpoint_exits_1(checkpoint, tmp_path):
    for path in _broken_checkpoints(checkpoint, tmp_path / "models"):
        args = parse_args(["-p", "diacritize", "-t", "abc", "--model-path", path])
        err = io.StringIO()
        assert run_batch(args, stdout=io.StringIO(), stderr=err) == 1, path
        assert err.getvalue().startswith(f"error: cannot load model from {path}: "), path


def _fuzz_case(rng, checkpoint, broken, files, tmp_path):
    """(entry point, argv, stdin text) for one random invocation."""
    pick = lambda values: values[int(rng.integers(len(values)))]  # noqa: E731
    entry = pick(["batch", "task", "interactive"])
    argv = []
    if entry == "batch" and rng.random() < 0.9:
        argv += ["-p", pick(["diacritize", "translitrate_ar2en", "paraphrase", "nope"])]
    if entry != "interactive":
        inputs = pick([["-t"], ["-f"]] * 9 + [["-t", "-f"], []])
        for flag in inputs:
            argv += [flag, pick(FUZZ_TEXTS if flag == "-t" else files)]
    for flag, (good, bad) in FUZZ_FLAGS.items():
        if rng.random() < 0.3:
            value = pick(bad if bad and rng.random() < 0.15 else good)
            value = {"LOG": str(tmp_path / "log.txt"), "DIR": str(tmp_path)}.get(
                value, str(tmp_path / value) if "/" in value else value)
            argv += [flag, value]
    if rng.random() < 0.05:
        argv.insert(int(rng.integers(len(argv) + 1)), pick(["--wat", "-", "--", "-x"]))
    argv += ["--model-path", str(checkpoint) if rng.random() < 0.8 else pick(broken)]
    stdin = "".join(pick(FUZZ_STDIN) + "\n" for _ in range(int(rng.integers(0, 5))))
    return entry, argv, stdin


def test_cli_fuzz_exits_0_1_or_2(checkpoint, tmp_path, monkeypatch):
    """Seeded random argv lists and input files: every call ends with exit
    code 0, 1 or 2 and raises nothing else (a traceback in a real shell)."""
    import contextlib

    from octopus.cli import interactive_main, main_diacritize

    files = _fuzz_inputs(tmp_path)
    broken = _broken_checkpoints(checkpoint, tmp_path / "models")
    entries = {"batch": main, "task": main_diacritize, "interactive": interactive_main}
    rng = np.random.default_rng(1234)
    codes = []
    for _ in range(FUZZ_CASES):
        entry, argv, stdin = _fuzz_case(rng, checkpoint, broken, files, tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = entries[entry](argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # noqa: BLE001 - the failure names the call
                pytest.fail(f"{entry} {argv!r} stdin={stdin!r} raised {e!r}")
        assert code in (0, 1, 2), (entry, argv, code)
        assert "Traceback" not in err.getvalue()
        assert code == 0 or "error" in err.getvalue(), (entry, argv, code)
        codes.append(code)
    assert {0, 1, 2} <= set(codes)


def test_run_batch_non_utf8_file_exits_1(checkpoint, tmp_path):
    inputs = tmp_path / "in.txt"
    inputs.write_bytes(b"ab\n\xff\xfe cd\n")
    args = parse_args(["-p", "diacritize", "-f", str(inputs), "-s", "6",
                       "--model-path", str(checkpoint)])
    out, err = io.StringIO(), io.StringIO()
    assert run_batch(args, stdout=out, stderr=err) == 1
    assert err.getvalue().startswith("error: cannot read input file: 'utf-8' codec")
    assert out.getvalue() == ""


@pytest.mark.parametrize("config", ['[1, 2]', '{"vocab_size": 41, "wat": 1}',
                                    '{"vocab_size": "41"}', '{"vocab_size": 41, "d_model": 16.0}'])
def test_run_batch_malformed_model_config_exits_1(checkpoint, tmp_path, config):
    import shutil

    root = tmp_path / "best"
    shutil.copytree(checkpoint, root)
    (root / "config.json").write_text(config, encoding="utf-8")
    args = parse_args(["-p", "diacritize", "-t", "x", "--model-path", str(root)])
    err = io.StringIO()
    assert run_batch(args, stdout=io.StringIO(), stderr=err) == 1
    assert err.getvalue().startswith(f"error: cannot load model from {root}: ")


def test_run_batch_vocab_larger_than_model_exits_1(checkpoint, tmp_path):
    # a model that cannot read every id of its vocabulary is rejected at load
    import shutil

    root = tmp_path / "best"
    shutil.copytree(checkpoint, root)
    cfg = ModelConfig.from_json((root / "config.json").read_text(encoding="utf-8"))
    cfg.vocab_size = 20
    Seq2SeqTransformer(cfg).save(root / "model.octo")
    (root / "config.json").write_text(cfg.to_json(), encoding="utf-8")
    args = parse_args(["-p", "diacritize", "-t", "xyz", "--model-path", str(root)])
    err = io.StringIO()
    assert run_batch(args, stdout=io.StringIO(), stderr=err) == 1
    assert "the vocabulary has 41 ids but the model has 20" in err.getvalue()
