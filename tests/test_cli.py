import io

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


def test_repl_overlong_line_reports_and_reprompts(checkpoint):
    args = parse_args(["--model-path", str(checkpoint), "-s", "6"], mode="interactive")
    stdin = io.StringIO("diacritize\n" + "a" * 200 + "\nab\nq\n")
    out, err = io.StringIO(), io.StringIO()
    assert repl_loop(args, stdin=stdin, stdout=out, stderr=err) == 0
    assert err.getvalue() == "error: line 2: input is 212 tokens, the model accepts at most 96\n"
    assert out.getvalue().count("Type your source text or (q) to STOP:") == 3
    targets = [l for l in out.getvalue().splitlines() if l.startswith("target")]
    assert len(targets) == 3  # the line after the over-long one still decodes


def test_repl_overlong_stage_output_names_the_stage(checkpoint):
    # beam output of diacritize runs to the cap of 95 tokens; with the
    # "paraphrase: " prefix the second stage's source is 107 tokens
    args = parse_args(["--model-path", str(checkpoint), "-o", "1"], mode="interactive")
    stdin = io.StringIO("diacritize, paraphrase\nab\nq\n")
    out, err = io.StringIO(), io.StringIO()
    assert repl_loop(args, stdin=stdin, stdout=out, stderr=err) == 0
    assert err.getvalue() == ("error: line 2: input to paraphrase (output of diacritize) "
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
        token_f1 ModelConfig Seq2SeqTransformer relative_position_bucket DenoisingConfig
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


def test_repl_bad_decode_config_exits_2(tmp_path):
    # -o 9 with the default beam of 5 is a usage error, caught before loading
    args = parse_args(["-o", "9", "--model-path", str(tmp_path / "nope")],
                      mode="interactive")
    out, err = io.StringIO(), io.StringIO()
    assert repl_loop(args, stdin=io.StringIO("diacritize\nab\nq\n"),
                     stdout=out, stderr=err) == 2
    assert err.getvalue().startswith("error: nbeam must be >= max_outputs")
    assert out.getvalue() == ""


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
    import tomllib
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
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
