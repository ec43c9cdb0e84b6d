import math
import os
import signal
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from octopus import (
    Datasets,
    ModelConfig,
    Seq2SeqTransformer,
    TaskData,
    TaskMixer,
    TrainConfig,
    evaluate_dev,
    sample_task_batch,
    select_best_checkpoint,
    train,
)
from octopus.metrics import EditSet, bleu, cer_corpus, m2_f05_corpus, rouge_l_corpus, token_f1_corpus
from octopus.trainer import CheckpointMeta
from octopus.tasks import synth_cipher, synth_devowel, synth_gec, task_for_prefix, Example
from octopus.vocab import build_vocab


def _mini_setup(n_examples=60, seed=0):
    examples = synth_cipher(n_examples, seed=seed, direction="ar2en", min_len=3, max_len=6)
    corpus = [ex.model_source + " " + ex.target for ex in examples]
    vocab = build_vocab(corpus, max_size=200, sentinels=16)
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=1, dropout_rate=0.1, max_seq_len=64)
    model = Seq2SeqTransformer(cfg, seed=1)
    return examples, vocab, cfg, model


def test_config_requires_exactly_one_budget():
    with pytest.raises(ValueError):
        TrainConfig(strategy="pretrain")


def test_config_rejects_an_unknown_strategy():
    with pytest.raises(ValueError, match="^unknown strategy 'nope'$"):
        TrainConfig(strategy="nope", max_steps=1)


@pytest.mark.parametrize("field", [
    dict(max_steps=0),
    dict(eval_every=-2),
    dict(seed=-1),
    dict(learning_rate=math.nan),
    dict(learning_rate=math.inf),
], ids=["max_steps", "eval_every", "seed", "lr_nan", "lr_inf"])
def test_config_rejects_bad_values(field):
    with pytest.raises(ValueError):
        TrainConfig(**{"strategy": "single_task", "max_steps": 5, **field})


@pytest.mark.parametrize("value", [3.0, 3.5, "3", True])
@pytest.mark.parametrize("field", ["batch_size", "max_steps", "eval_every", "seed"])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        TrainConfig(**{"strategy": "single_task", "max_steps": 5, field: value})


@pytest.mark.parametrize("field, message", [
    (dict(learning_rate="1e-3"), "^learning_rate must be positive and finite$"),
    (dict(learning_rate=True), "^learning_rate must be positive and finite$"),
    (dict(labeled_fraction="0.5"), r"^labeled_fraction must be in \[0, 1\]$"),
    (dict(labeled_fraction=True), r"^labeled_fraction must be in \[0, 1\]$"),
    (dict(task_weights={"paraphrase": "1"}), "^mixing weight for 'paraphrase' must be positive"),
    (dict(task_weights={"paraphrase": True}), "^mixing weight for 'paraphrase' must be positive"),
], ids=["lr_str", "lr_bool", "fraction_str", "fraction_bool", "weight_str", "weight_bool"])
def test_config_rejects_non_number_reals(field, message):
    # a string would otherwise fail its range comparison with a bare TypeError
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{"strategy": "joint", "max_steps": 2, **field})


def test_config_rejects_bad_weights():
    # keys name real tasks, so each case reaches the weight check
    with pytest.raises(ValueError, match="positive and finite"):
        TrainConfig(strategy="multitask", max_steps=1, task_weights={"paraphrase": 0.0})
    with pytest.raises(ValueError, match="positive and finite"):
        TrainConfig(strategy="multitask", max_steps=1, task_weights={"paraphrase": math.inf})


@pytest.mark.parametrize("weights, message", [
    ({"translate": 1.0}, "unknown task 'translate'"),
    ({"translitrate_ar2en": 1.0, "transliterate-ar2en": 2.0}, "two mixing weights name one task"),
], ids=["unknown", "alias_twice"])
def test_config_weight_keys_are_canonical_tasks(weights, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(strategy="multitask", max_steps=1, task_weights=weights)


@pytest.mark.parametrize("set_name, weight_key", [
    ("transliterate-ar2en", "translitrate_ar2en"),
    ("translitrate_ar2en", "transliterate_ar2en"),
], ids=["alias_set", "alias_weights"])
def test_alias_spelled_sets_and_weights_train(set_name, weight_key):
    examples, vocab, cfg, _ = _mini_setup()

    def run(name, key):
        data = Datasets(tasks=[TaskData(name, examples)])
        tc = TrainConfig(strategy="multitask", batch_size=4, max_steps=3, seed=2,
                         task_weights={key: 1.0})
        return train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data).losses

    assert run(set_name, weight_key) == run("translitrate_ar2en", "translitrate_ar2en")


def test_example_built_directly_trains():
    examples, vocab, cfg, model = _mini_setup()
    ex = Example(task="translitrate_ar2en", source="ab", target="αβ")
    assert ex.model_source == "translitrate_ar2en: ab"
    tc = TrainConfig(strategy="single_task", batch_size=2, max_steps=2, seed=0)
    result = train(model, vocab, tc, Datasets(tasks=[TaskData("translitrate_ar2en", [ex])]))
    assert len(result.losses) == 2 and all(map(math.isfinite, result.losses))


def test_task_data_splits_take_no_unchecked_example():
    ex = Example(task="paraphrase", source="x", target="y")
    td = TaskData("paraphrase", [ex], dev=[ex])
    assert td.train == (ex,) and td.dev == (ex,)
    other = Example(task="summarize", source="x", target="y")
    with pytest.raises(AttributeError):
        td.train.append(other)
    with pytest.raises(FrozenInstanceError):
        td.train = [other]


@pytest.mark.parametrize("train_tasks, dev_tasks, message", [
    (["translitrate_ar2en", "diacritize"], None,
     "train example 1 of the 'translitrate_ar2en' set is of task 'diacritize'"),
    (["translitrate_ar2en"], ["translitrate_ar2en", "translitrate_en2ar"],
     "dev example 1 of the 'translitrate_ar2en' set is of task 'translitrate_en2ar'"),
], ids=["train", "dev"])
def test_task_data_holds_only_its_own_task(train_tasks, dev_tasks, message):
    def examples(tasks):
        return [Example(task=t, source="ab", target="cd") for t in tasks]

    with pytest.raises(ValueError, match=message):
        TaskData("transliterate_ar2en", examples(train_tasks),
                 dev=examples(dev_tasks) if dev_tasks else None)


def test_strategy_dataset_validation():
    examples, vocab, cfg, model = _mini_setup()
    labeled = [TaskData("translitrate_ar2en", examples)]
    with pytest.raises(ValueError):
        train(model, vocab, TrainConfig(strategy="pretrain", max_steps=1), Datasets())
    with pytest.raises(ValueError, match="unlabeled texts"):
        train(model, vocab, TrainConfig(strategy="pretrain", max_steps=1),
              Datasets(tasks=labeled))
    with pytest.raises(ValueError):
        train(model, vocab, TrainConfig(strategy="single_task", max_steps=1), Datasets(tasks=[]))
    with pytest.raises(ValueError, match="non-empty labeled sets"):
        train(model, vocab, TrainConfig(strategy="multitask", max_steps=1),
              Datasets(tasks=labeled + [TaskData("diacritize", [])]))
    with pytest.raises(ValueError, match="unlabeled texts"):
        train(model, vocab, TrainConfig(strategy="joint", max_steps=1, labeled_fraction=0.5),
              Datasets(tasks=labeled))


def test_joint_needs_only_the_data_its_share_draws():
    # all-labeled joint needs no texts; all-denoising joint ignores an empty pool
    examples, vocab, cfg, model = _mini_setup()
    texts = [ex.target for ex in examples]
    result = train(model, vocab, TrainConfig(strategy="joint", batch_size=4, max_steps=2,
                                             labeled_fraction=1.0),
                   Datasets(tasks=[TaskData("translitrate_ar2en", examples)]))
    assert len(result.losses) == 2
    result = train(model, vocab, TrainConfig(strategy="joint", batch_size=4, max_steps=2,
                                             labeled_fraction=0.0),
                   Datasets(texts=texts, tasks=[TaskData("translitrate_ar2en", [])]))
    assert len(result.losses) == 2


def test_single_task_runs_and_logs(tmp_path):
    examples, vocab, cfg, model = _mini_setup()
    tc = TrainConfig(strategy="single_task", learning_rate=1e-3, batch_size=8,
                     max_steps=6, seed=3, out_dir=tmp_path / "run")
    result = train(model, vocab, tc, Datasets(tasks=[TaskData("translitrate_ar2en", examples)]))
    assert len(result.losses) == 6
    assert all(math.isfinite(l) for l in result.losses)
    log = (tmp_path / "run" / "loss_log.tsv").read_text().strip().splitlines()
    assert len(log) == 6
    step, loss, ms = log[0].split("\t")
    assert step == "0" and float(loss) > 0 and int(ms) >= 0


def test_single_task_walks_epochs_by_step(monkeypatch):
    # 20 examples in batches of 8: steps 0-2 are one epoch, 3-5 the next,
    # and each epoch trains on every example once
    from octopus import trainer

    examples, vocab, cfg, model = _mini_setup(n_examples=20)
    batches, make_batch = [], trainer.make_batch

    def recorded(pairs, *args):
        batches.append([src for src, _ in pairs])
        return make_batch(pairs, *args)

    monkeypatch.setattr(trainer, "make_batch", recorded)
    tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=6, seed=3)
    train(model, vocab, tc, Datasets(tasks=[TaskData("translitrate_ar2en", examples)]))
    assert [len(b) for b in batches] == [8, 8, 4] * 2
    everything = sorted(ex.model_source for ex in examples)
    for epoch in (batches[:3], batches[3:]):
        assert sorted(src for b in epoch for src in b) == everything
    assert batches[:3] != batches[3:]


def test_identical_seeds_identical_runs(tmp_path):
    examples, vocab, cfg, _ = _mini_setup()
    runs = []
    for name in ("a", "b"):
        model = Seq2SeqTransformer(cfg, seed=1)
        tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=8, seed=3,
                         out_dir=tmp_path / name)
        result = train(model, vocab, tc, Datasets(tasks=[TaskData("translitrate_ar2en", examples)]))
        runs.append((result, model))
    assert runs[0][0].losses == runs[1][0].losses
    a = (tmp_path / "a" / "step_000008" / "model.octo").read_bytes()
    b = (tmp_path / "b" / "step_000008" / "model.octo").read_bytes()
    assert a == b
    # loss logs agree on step and loss columns
    for la, lb in zip((tmp_path / "a" / "loss_log.tsv").read_text().splitlines(),
                      (tmp_path / "b" / "loss_log.tsv").read_text().splitlines()):
        assert la.split("\t")[:2] == lb.split("\t")[:2]


def test_resume_matches_uninterrupted(tmp_path, monkeypatch):
    from octopus import trainer

    examples, vocab, cfg, _ = _mini_setup()
    denoised, denoise = [], trainer._denoise_batch

    def counted(*args):
        denoised.append(args)
        return denoise(*args)

    monkeypatch.setattr(trainer, "_denoise_batch", counted)
    for strategy in ("single_task", "joint"):
        data = Datasets(texts=[ex.target for ex in examples] if strategy == "joint" else [],
                        tasks=[TaskData("translitrate_ar2en", examples)])
        straight = Seq2SeqTransformer(cfg, seed=1)
        tc_full = TrainConfig(strategy=strategy, batch_size=8, max_steps=10, seed=3,
                              eval_every=5, out_dir=tmp_path / strategy / "full")
        train(straight, vocab, tc_full, data)

        part = Seq2SeqTransformer(cfg, seed=1)
        train(part, vocab, replace(tc_full, max_steps=5, out_dir=tmp_path / strategy / "half"),
              data)
        resumed = Seq2SeqTransformer(cfg, seed=999)  # params come from the checkpoint
        denoised.clear()
        train(resumed, vocab, replace(tc_full, out_dir=tmp_path / strategy / "resumed"), data,
              resume_from=tmp_path / strategy / "half" / "step_000005")
        assert bool(denoised) == (strategy == "joint")  # joint resumes into denoising steps

        for name, p in straight.parameters().items():
            assert np.array_equal(p.data, resumed.parameters()[name].data), (strategy, name)


def test_resume_reads_train_state_with_adam_constants(tmp_path):
    # Adam's betas and epsilon are constants: a train_state.json no longer
    # records them, and one written when it did still resumes exactly
    import json

    examples, vocab, cfg, _ = _mini_setup()
    data = Datasets(tasks=[TaskData("translitrate_ar2en", examples)])
    tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=4, seed=3,
                     eval_every=2, out_dir=tmp_path / "run")
    full = train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data)
    state = tmp_path / "run" / "step_000002" / "train_state.json"
    meta = json.loads(state.read_text())
    assert sorted(meta) == ["adam_step", "learning_rate", "step"]
    state.write_text(json.dumps({**meta, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}))
    resumed = train(Seq2SeqTransformer(cfg, seed=999), vocab, replace(tc, out_dir=tmp_path / "b"),
                    data, resume_from=state.parent)
    assert resumed.losses == full.losses[2:]


def test_resume_into_same_dir_keeps_earlier_best(tmp_path):
    # at this learning rate the dev score is best at step 5, before the resume point
    examples, vocab, cfg, _ = _mini_setup()
    data = Datasets(tasks=[TaskData("translitrate_ar2en", examples[:48], examples[48:])])

    def run(out_dir, max_steps, resume_from=None):
        tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=max_steps, seed=3,
                         eval_every=5, learning_rate=3e-2, out_dir=out_dir)
        return train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data, resume_from=resume_from)

    straight = run(tmp_path / "full", 15)
    best_step = straight.metas[straight.best_index].step
    assert best_step == 5

    run(tmp_path / "run", 10)  # interrupted after writing steps 5 and 10
    resumed = run(tmp_path / "run", 15, resume_from=tmp_path / "run" / "step_000005")
    assert [m.step for m in resumed.metas] == [5, 10, 15]
    assert resumed.metas[resumed.best_index].step == best_step
    assert ((tmp_path / "run" / "best" / "model.octo").read_bytes()
            == (tmp_path / "full" / "best" / "model.octo").read_bytes())
    lines = (tmp_path / "run" / "checkpoints.jsonl").read_text().splitlines()
    assert [(m.step, m.score) for m in map(CheckpointMeta.from_json, lines)] == \
        [(m.step, m.score) for m in straight.metas]


def test_resume_into_same_dir_logs_each_step_once(tmp_path):
    examples, vocab, cfg, _ = _mini_setup()
    data = Datasets(tasks=[TaskData("translitrate_ar2en", examples)])

    def run(out_dir, resume_from=None):
        tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=10, seed=3,
                         eval_every=5, out_dir=out_dir)
        train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data, resume_from=resume_from)
        return (out_dir / "loss_log.tsv").read_text().splitlines()

    straight = run(tmp_path / "full")
    run(tmp_path / "run")  # finished, then resumed from its step-5 checkpoint
    lines = run(tmp_path / "run", resume_from=tmp_path / "run" / "step_000005")
    assert [line.split("\t")[0] for line in lines] == [str(step) for step in range(10)]
    assert [line.split("\t")[:2] for line in lines] == \
        [line.split("\t")[:2] for line in straight]


def _logged_steps(out_dir):
    return [int(line.split("\t")[0]) for line in
            (out_dir / "loss_log.tsv").read_text().splitlines()]


def test_fresh_run_into_used_dir_starts_over(tmp_path):
    examples, vocab, cfg, _ = _mini_setup()
    data = Datasets(tasks=[TaskData("translitrate_ar2en", examples)])
    for seed in (0, 1):
        tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=4, seed=seed,
                         eval_every=2, out_dir=tmp_path)
        result = train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data)
    assert _logged_steps(tmp_path) == [0, 1, 2, 3]
    lines = (tmp_path / "checkpoints.jsonl").read_text().splitlines()
    assert list(map(CheckpointMeta.from_json, lines)) == result.metas


def _run_and_resume(tmp_path, max_steps=4, eval_every=2):
    examples, vocab, cfg, _ = _mini_setup()
    data = Datasets(tasks=[TaskData("translitrate_ar2en", examples)])
    tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=max_steps, seed=3,
                     eval_every=eval_every, out_dir=tmp_path)
    straight = train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data)

    def resume(step):
        return train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data,
                     resume_from=tmp_path / f"step_{step:06d}")
    return straight, resume


def test_resume_drops_torn_checkpoint_line(tmp_path):
    straight, resume = _run_and_resume(tmp_path)
    path = tmp_path / "checkpoints.jsonl"
    path.write_bytes(path.read_bytes()[:-10])  # a crash inside the step-4 append
    resumed = resume(2)
    assert [(m.step, m.score) for m in resumed.metas] == \
        [(m.step, m.score) for m in straight.metas]
    lines = path.read_text().splitlines()
    assert [CheckpointMeta.from_json(line).step for line in lines] == [2, 4]


def test_resume_drops_torn_log_line(tmp_path):
    _, resume = _run_and_resume(tmp_path, max_steps=20, eval_every=10)
    with open(tmp_path / "loss_log.tsv", "a") as f:
        f.write("1")  # what a crash leaves while writing step 15's line
    resume(10)
    assert _logged_steps(tmp_path) == list(range(20))


@pytest.mark.parametrize("name, line_no, bad", [
    ("loss_log.tsv", 2, "x\t1.0\t3"),
    ("checkpoints.jsonl", 1, '{"step": 2'),
    ("checkpoints.jsonl", 1, '{"step": 2, "rank": 1}'),
    ("checkpoints.jsonl", 1, "[2]"),
    ("checkpoints.jsonl", 2, '{"step": "4", "score": 1.0, "metric": "train_loss", '
                             '"direction": "lower", "path": "step_000004"}'),
], ids=["log_step", "ckpt_json", "ckpt_keys", "ckpt_list", "ckpt_types"])
def test_resume_names_malformed_log_line(tmp_path, name, line_no, bad):
    import re

    _, resume = _run_and_resume(tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines[line_no - 1] = bad
    path.write_text("".join(f"{line}\n" for line in lines))
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line_no}: ")):
        resume(2)


_KILLED_RUN = """
import os, signal, sys
from octopus import Datasets, ModelConfig, Seq2SeqTransformer, TaskData, TrainConfig, train
from octopus import trainer
from octopus.tasks import synth_cipher
from octopus.vocab import build_vocab

examples = synth_cipher(60, seed=0, direction="ar2en", min_len=3, max_len=6)
vocab = build_vocab([ex.model_source + " " + ex.target for ex in examples],
                    max_size=200, sentinels=16)
cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, n_heads=2, d_ff=32,
                  n_enc_layers=1, n_dec_layers=1, dropout_rate=0.1, max_seq_len=64)
kill_at, real_adam_step = int(sys.argv[2]), trainer.adam_step
calls = 0

def adam_step(*args):
    global calls
    if calls == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)
    calls += 1
    return real_adam_step(*args)

trainer.adam_step = adam_step
tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=8, seed=3, eval_every=2,
                 out_dir=sys.argv[1])
train(Seq2SeqTransformer(cfg, seed=1), vocab, tc,
      Datasets(tasks=[TaskData("translitrate_ar2en", examples)]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_hard_kill_keeps_logged_steps(tmp_path):
    import octopus

    src = str(Path(octopus.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-c", _KILLED_RUN, str(tmp_path), "5"], env=env)
    assert child.returncode == -signal.SIGKILL
    assert _logged_steps(tmp_path) == [0, 1, 2, 3, 4]  # killed inside step 5

    examples, vocab, cfg, _ = _mini_setup()
    tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=8, seed=3, eval_every=2,
                     out_dir=tmp_path)
    train(Seq2SeqTransformer(cfg, seed=1), vocab, tc,
          Datasets(tasks=[TaskData("translitrate_ar2en", examples)]),
          resume_from=tmp_path / "step_000002")
    assert _logged_steps(tmp_path) == list(range(8))


def test_joint_zero_labeled_equals_pretrain():
    texts = [f"the cat sees the dog {i}" for i in range(20)]
    vocab = build_vocab(texts, max_size=120, sentinels=8)
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=1, dropout_rate=0.1, max_seq_len=48)
    runs = []
    for strategy in ("pretrain", "joint"):
        model = Seq2SeqTransformer(cfg, seed=2)
        tc = TrainConfig(strategy=strategy, batch_size=4, max_steps=6, seed=9,
                         labeled_fraction=0.0)
        result = train(model, vocab, tc, Datasets(texts=texts))
        runs.append(result.losses)
    assert runs[0] == runs[1]


def test_joint_all_labeled_equals_multitask():
    cipher = synth_cipher(40, seed=4, direction="ar2en", min_len=3, max_len=6)
    devowel = synth_devowel(40, seed=4)
    corpus = [ex.model_source + " " + ex.target for ex in cipher + devowel]
    vocab = build_vocab(corpus, max_size=200, sentinels=8)
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=1, dropout_rate=0.1, max_seq_len=64)
    data = Datasets(texts=[ex.target for ex in devowel],
                    tasks=[TaskData("translitrate_ar2en", cipher, dev=cipher[:6]),
                           TaskData("diacritize", devowel)])
    runs = []
    for strategy in ("multitask", "joint"):
        tc = TrainConfig(strategy=strategy, batch_size=4, max_steps=6, eval_every=3, seed=9,
                         labeled_fraction=1.0)
        result = train(Seq2SeqTransformer(cfg, seed=2), vocab, tc, data)
        runs.append((result.losses, [m.score for m in result.metas], result.best_index))
    assert runs[0] == runs[1]


def test_non_finite_loss_aborts_with_diagnostic():
    examples, vocab, cfg, model = _mini_setup()
    model.params["shared.embedding"].data[0, 0] = np.nan
    tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=2, seed=3)
    with pytest.raises(RuntimeError, match="non-finite loss"):
        train(model, vocab, tc, Datasets(tasks=[TaskData("translitrate_ar2en", examples)]))


def test_random_token_pretraining_stays_near_uniform_entropy():
    # random characters carry no structure, so the loss should hover near
    # ln(vocab) over a short horizon (the format tokens pull it down only
    # slowly); frozen tolerance is the spec's 10%
    rng = np.random.default_rng(0)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    texts = ["".join(rng.choice(list(alphabet), size=48)) for _ in range(200)]
    vocab = build_vocab(texts, max_size=200, sentinels=8)
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=32, n_heads=4, d_ff=64,
                      n_enc_layers=1, n_dec_layers=1, dropout_rate=0.0, max_seq_len=64)
    model = Seq2SeqTransformer(cfg, seed=5)
    tc = TrainConfig(strategy="pretrain", batch_size=8, max_steps=40, seed=7)
    result = train(model, vocab, tc, Datasets(texts=texts))
    mean_loss = sum(result.losses) / len(result.losses)
    target = math.log(vocab.vocab_size)
    assert abs(mean_loss - target) / target < 0.10


def test_mixer_singleton_always_sampled():
    ex = Example(task="paraphrase", source="x", target="y")
    mixer = TaskMixer({"paraphrase": [ex]}, batch_size=2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        name, batch = sample_task_batch(mixer, rng)
        assert name == "paraphrase"
        assert len(batch) == 2


@pytest.mark.parametrize("sizes, weights, message", [
    ({}, None, "^mixer needs at least one task pool$"),
    ({"paraphrase": 1, "summarize": 0}, None, "^task 'summarize' has an empty pool$"),
    ({"paraphrase": 1, "summarize": 1}, {"paraphrase": 1.0},
     r"^missing mixing weights for \['summarize'\]$"),
], ids=["no_pools", "empty_pool", "missing_weight"])
def test_mixer_rejects_bad_pools_and_weights(sizes, weights, message):
    ex = Example(task="paraphrase", source="x", target="y")
    with pytest.raises(ValueError, match=message):
        TaskMixer({name: [ex] * n for name, n in sizes.items()}, weights=weights)


def test_mixer_rejects_a_weight_for_a_task_without_a_set():
    examples, vocab, cfg, model = _mini_setup()
    ex = Example(task="paraphrase", source="x", target="y")
    with pytest.raises(ValueError, match=r"no labeled set: \['summarize'\]"):
        TaskMixer({"paraphrase": [ex]}, weights={"paraphrase": 1.0, "summarize": 5.0})
    tc = TrainConfig(strategy="joint", batch_size=4, max_steps=1,
                     task_weights={"translitrate_ar2en": 1.0, "diacritize": 2.0})
    data = Datasets(texts=[e.target for e in examples],
                    tasks=[TaskData("translitrate_ar2en", examples)])
    with pytest.raises(ValueError, match=r"no labeled set: \['diacritize'\]"):
        train(model, vocab, tc, data)


def test_mixer_weighted_frequencies():
    ex_a = Example(task="paraphrase", source="x", target="y")
    ex_b = Example(task="summarize", source="x", target="y")
    mixer = TaskMixer({"paraphrase": [ex_a], "summarize": [ex_b]},
                      weights={"paraphrase": 3.0, "summarize": 1.0}, batch_size=1)
    rng = np.random.default_rng(1)
    draws = sum(sample_task_batch(mixer, rng)[0] == "paraphrase" for _ in range(10_000))
    assert abs(draws / 10_000 - 0.75) < 0.02


def test_mixer_default_weights_proportional_to_size():
    ex_a = Example(task="paraphrase", source="x", target="y")
    ex_b = Example(task="summarize", source="x", target="y")
    mixer = TaskMixer({"paraphrase": [ex_a] * 800, "summarize": [ex_b] * 200})
    weights = dict(zip(mixer.names, mixer.weights))
    assert weights["paraphrase"] == pytest.approx(0.8)
    assert weights["summarize"] == pytest.approx(0.2)


def test_select_best_checkpoint_rules():
    def meta(step, score, direction="lower"):
        return CheckpointMeta(step, score, "m", direction, "")

    assert select_best_checkpoint([meta(0, 1.0), meta(1, 0.5), meta(2, 0.7)]) == 1
    ups = [meta(0, 65.8, "higher"), meta(1, 70.5, "higher"), meta(2, 70.5, "higher")]
    assert select_best_checkpoint(ups) == 1  # earliest tie
    assert select_best_checkpoint([meta(0, 3.0)]) == 0
    with pytest.raises(ValueError):
        select_best_checkpoint([])
    mixed = [meta(0, 1.0), meta(1, 2.0, "higher")]
    with pytest.raises(ValueError):
        select_best_checkpoint(mixed)


def test_train_over_seeds_reports_mean_and_std(tmp_path):
    from octopus.trainer import train_over_seeds

    examples, vocab, cfg, _ = _mini_setup(n_examples=24)
    dev = examples[:6]
    tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=4, seed=0,
                     eval_every=4, out_dir=tmp_path)
    summary = train_over_seeds(lambda seed: Seq2SeqTransformer(cfg, seed=seed),
                               vocab, tc, Datasets(tasks=[TaskData("translitrate_ar2en",
                                                                   examples, dev=dev)]),
                               seeds=[1, 2, 3])
    assert len(summary["results"]) == 3
    assert summary["mean_best_score"] is not None
    assert summary["std_best_score"] >= 0.0


class _ScriptedModel:
    """Stub whose greedy decode always emits a scripted target per source."""

    def __init__(self, vocab, mapping, d_model=4):
        self.config = ModelConfig(vocab_size=vocab.vocab_size, d_model=8, n_heads=2,
                                  d_ff=8, n_enc_layers=0, n_dec_layers=0, max_seq_len=512)
        self.vocab = vocab
        self.mapping = {tuple(k): list(v) for k, v in mapping.items()}

    def decode_logits(self, enc_hidden, enc_mask, dec_ids, cache):
        # dec_ids holds the next positions of each cached row, and row i
        # decodes source cache.rows[i], counted across cache.groups in order
        scripts = [self.mapping[tuple(int(t) for t in ids)] + [self.vocab.eos_id]
                   for group in cache.groups for ids in group]
        dec = np.asarray(dec_ids)
        b, t = dec.shape
        start = cache.length
        logits = np.full((b, t, self.config.vocab_size), -10.0, dtype=np.float32)
        for i, src in enumerate(cache.rows):
            script = scripts[src]
            for pos in range(start, start + t):
                want = script[pos] if pos < len(script) else self.vocab.eos_id
                logits[i, pos - start, want] = 10.0
        cache.length = start + t
        return logits


def test_evaluate_dev_oracle_model_scores_perfectly():
    vocab = build_vocab(["abcdefgh "], max_size=64, sentinels=4)
    dev = [Example(task="translitrate_ar2en", source="ab", target="cd"),
           Example(task="translitrate_ar2en", source="ef", target="gh")]
    mapping = {tuple(vocab.encode(ex.model_source)): vocab.encode(ex.target) for ex in dev}
    model = _ScriptedModel(vocab, mapping)
    spec = task_for_prefix("translitrate_ar2en")
    assert evaluate_dev(model, vocab, dev, spec) == 0.0  # CER of a perfect model

    bleu_spec = task_for_prefix("paraphrase")
    dev_b = [Example(task="paraphrase", source="ab", target="c d"),
             Example(task="paraphrase", source="ef", target="g h")]
    mapping = {tuple(vocab.encode(ex.model_source)): vocab.encode(ex.target) for ex in dev_b}
    model = _ScriptedModel(vocab, mapping)
    assert evaluate_dev(model, vocab, dev_b, bleu_spec) == pytest.approx(100.0)


def test_evaluate_dev_equals_direct_metric_on_dumped_pairs():
    from octopus.decoding import greedy_decode_batch
    from octopus.metrics import score_task

    examples, vocab, cfg, model = _mini_setup(n_examples=12)
    spec = task_for_prefix("translitrate_ar2en")
    score = evaluate_dev(model, vocab, examples, spec)
    sources = [vocab.encode(ex.model_source) for ex in examples]
    max_ref = max(len(vocab.encode(ex.target)) for ex in examples)
    hyp = [vocab.decode(o) for o in greedy_decode_batch(model, vocab, sources, max_ref + 8)]
    assert score == score_task("cer", hyp, [ex.target for ex in examples])


_SENTENCES = ["the cat sees a dog", "a bird likes the fish", "the horse finds a mouse",
              "a dog chases the cat"]


def _dev_set(prefix):
    if prefix == "correct_grammar":
        return synth_gec(4, seed=0)
    if prefix == "answer_question":
        return [Example(task=prefix, target=" ".join(t.split()[:2]), question="who", context=t)
                for t in _SENTENCES]
    return [Example(task=prefix, source=t[::-1], target=t) for t in _SENTENCES]


@pytest.mark.parametrize("metric, prefix", [
    ("cer", "diacritize"), ("bleu", "paraphrase"), ("rouge_l", "summarize"),
    ("token_f1", "answer_question"), ("f05_m2", "correct_grammar")])
def test_evaluate_dev_scores_each_metric_with_its_corpus_function(metric, prefix):
    dev = _dev_set(prefix)
    assert task_for_prefix(prefix).metric == metric
    # every other output drops its last word, so no score is perfect
    hyps = [ex.target if i % 2 else ex.target.rsplit(" ", 1)[0] for i, ex in enumerate(dev)]
    vocab = build_vocab([ex.model_source + " " + ex.target for ex in dev], max_size=200,
                        sentinels=4)
    model = _ScriptedModel(vocab, {tuple(vocab.encode(ex.model_source)): vocab.encode(hyp)
                                   for ex, hyp in zip(dev, hyps)})
    if metric == "f05_m2":
        want = m2_f05_corpus([ex.source for ex in dev], hyps, [EditSet(ex.gold_edits) for ex in dev])
    else:
        corpus_metric = {"cer": cer_corpus, "bleu": bleu, "rouge_l": rouge_l_corpus,
                         "token_f1": token_f1_corpus}[metric]
        want = corpus_metric(hyps, [ex.target for ex in dev])
    assert want not in (0.0, 100.0)
    assert evaluate_dev(model, vocab, dev, task_for_prefix(prefix)) == want


def test_decoding_builds_no_graph(monkeypatch):
    """Inference runs on plain arrays: with graph recording and `no_grad`
    made to raise, batched decoding and dev evaluation give the same outputs."""
    from octopus import tensor
    from octopus.decoding import DecodeConfig, generate_batch

    examples, vocab, _, model = _mini_setup(n_examples=12)
    sources = [vocab.encode(ex.model_source) for ex in examples]  # of several lengths
    spec = task_for_prefix("translitrate_ar2en")
    configs = [DecodeConfig("greedy", seq_length=8),
               DecodeConfig("beam", nbeam=3, max_outputs=2, seq_length=8),
               DecodeConfig("sampling", max_outputs=2, top_k=5, seq_length=8, seed=3)]

    def run():
        return ([[[(h.ids, h.logprob, h.finished) for h in hyps]
                  for hyps in generate_batch(model, vocab, sources, cfg, 4)] for cfg in configs],
                evaluate_dev(model, vocab, examples, spec))

    want = run()

    def raises(*args, **kwargs):
        raise AssertionError("inference built a graph")

    monkeypatch.setattr(tensor, "_make", raises)
    monkeypatch.setattr(tensor, "no_grad", raises)
    assert run() == want


def test_evaluate_dev_empty_errors():
    examples, vocab, cfg, model = _mini_setup()
    with pytest.raises(ValueError):
        evaluate_dev(model, vocab, [], task_for_prefix("paraphrase"))


def test_checkpoint_meta_written_with_dev_score(tmp_path):
    examples, vocab, cfg, model = _mini_setup(n_examples=24)
    dev = examples[:6]
    tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=4, seed=3,
                     eval_every=2, out_dir=tmp_path / "run")
    result = train(model, vocab, tc,
                   Datasets(tasks=[TaskData("translitrate_ar2en", examples, dev=dev)]))
    assert [m.step for m in result.metas] == [2, 4]
    assert all(m.metric == "cer" and m.direction == "lower" for m in result.metas)
    lines = (tmp_path / "run" / "checkpoints.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    assert (tmp_path / "run" / "best").is_dir()
    assert result.best_index in (0, 1)


def test_failed_checkpoint_write_leaves_no_partial_step_dir(tmp_path, monkeypatch):
    from octopus import trainer

    examples, vocab, cfg, _ = _mini_setup()
    data = Datasets(tasks=[TaskData("translitrate_ar2en", examples)])
    save_state = trainer._save_train_state

    def fail_at_step_4(ckpt_dir, opt, step):
        if step == 4:
            raise OSError("disk full")
        save_state(ckpt_dir, opt, step)

    monkeypatch.setattr(trainer, "_save_train_state", fail_at_step_4)
    tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=4, seed=3,
                     eval_every=2, out_dir=tmp_path)
    with pytest.raises(OSError, match="disk full"):
        train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data)
    files = {"model.octo", "vocab.txt", "config.json", "train_state.octo", "train_state.json"}
    assert [p.name for p in sorted(tmp_path.glob("step_*"))] == ["step_000002"]
    assert {p.name for p in (tmp_path / "step_000002").iterdir()} == files

    monkeypatch.setattr(trainer, "_save_train_state", save_state)
    train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data,
          resume_from=tmp_path / "step_000002")
    assert {p.name for p in (tmp_path / "step_000004").iterdir()} == files


def test_failed_best_copy_keeps_previous_best(tmp_path, monkeypatch):
    import shutil

    examples, vocab, cfg, _ = _mini_setup()
    data = Datasets(tasks=[TaskData("translitrate_ar2en", examples)])
    tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=2, seed=3,
                     out_dir=tmp_path)
    train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data)
    before = {p.name: p.read_bytes() for p in (tmp_path / "best").iterdir()}

    def boom(*args, **kwargs):
        raise OSError("copy failed")

    monkeypatch.setattr(shutil, "copytree", boom)
    with pytest.raises(OSError, match="copy failed"):
        train(Seq2SeqTransformer(cfg, seed=5), vocab, tc, data)
    assert {p.name: p.read_bytes() for p in (tmp_path / "best").iterdir()} == before


def test_failed_step_leaves_no_dropout_behind(monkeypatch):
    # a step that raises after the forward must not leave the model drawing dropout
    from octopus import trainer

    examples, vocab, _, _ = _mini_setup()
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=1, dropout_rate=0.5, max_seq_len=64)
    model = Seq2SeqTransformer(cfg, seed=1)

    def fail(*args, **kwargs):
        raise ValueError("non-finite gradient")

    monkeypatch.setattr(trainer, "adam_step", fail)
    tc = TrainConfig(strategy="single_task", batch_size=4, max_steps=2, seed=3)
    with pytest.raises(ValueError, match="non-finite gradient"):
        train(model, vocab, tc, Datasets(tasks=[TaskData("translitrate_ar2en", examples)]))
    ids = np.array([vocab.encode(examples[0].model_source)])
    mask = np.ones_like(ids, dtype=bool)
    assert np.array_equal(model.encode(ids, mask).data, model.encode(ids, mask).data)


@pytest.mark.parametrize("corrupt, entry", [
    ("drop_moment", "adam.m.shared.embedding"),
    ("shape_moment", "adam.v.shared.embedding"),
    ("nan_moment", "adam.m.decoder.final_norm"),
    ("inf_moment", "adam.v.encoder.relpos"),
    ("extra_moment", "adam.m.wat"),
    ("drop_adam_step", "adam_step"),
    ("bad_json", "train_state.json"),
    ("bad_config", "config.json"),
    ("nan_model_param", "encoder.block0.attn.wq"),
    ("dup_vocab", "vocab.txt"),
])
def test_resume_checks_train_state(tmp_path, monkeypatch, corrupt, entry):
    import json
    import re

    from octopus import trainer
    from octopus.model import load_checkpoint, save_checkpoint

    examples, vocab, cfg, _ = _mini_setup()
    data = Datasets(tasks=[TaskData("translitrate_ar2en", examples)])
    tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=2, seed=3,
                     out_dir=tmp_path / "run")
    train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data)
    ckpt = tmp_path / "run" / "step_000002"
    if corrupt == "drop_adam_step":
        meta = json.loads((ckpt / "train_state.json").read_text())
        del meta[entry]
        (ckpt / "train_state.json").write_text(json.dumps(meta))
    elif corrupt == "bad_json":
        (ckpt / "train_state.json").write_text('{"step": 2, adam_step: 2}')
    elif corrupt == "bad_config":
        (ckpt / "config.json").write_text("{")
    elif corrupt == "dup_vocab":  # the last token line twice
        lines = (ckpt / entry).read_text(encoding="utf-8").splitlines(keepends=True)
        (ckpt / entry).write_text("".join(lines + lines[-1:]), encoding="utf-8")
    else:
        file = ckpt / ("model.octo" if corrupt == "nan_model_param" else "train_state.octo")
        arrays = load_checkpoint(file)
        if corrupt == "drop_moment":
            del arrays[entry]
        elif corrupt in ("shape_moment", "extra_moment"):
            arrays[entry] = np.zeros(2, dtype=np.float32)
        else:
            arrays[entry].flat[1] = np.inf if corrupt == "inf_moment" else np.nan
        save_checkpoint(file, arrays)

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran on an unchecked train state")

    monkeypatch.setattr(trainer, "adam_step", no_step)
    tc = replace(tc, max_steps=4, out_dir=tmp_path / "resumed")
    model = Seq2SeqTransformer(cfg, seed=1)
    before = {name: p.data.copy() for name, p in model.parameters().items()}
    named = entry if corrupt in ("bad_json", "bad_config", "dup_vocab") else repr(entry)
    with pytest.raises(ValueError, match=re.escape(str(ckpt)) + ".*" + re.escape(named)):
        train(model, vocab, tc, data, resume_from=ckpt)
    assert all(np.array_equal(p.data, before[name]) for name, p in model.parameters().items())


def test_long_dev_source_is_cut_like_training_sources(tmp_path):
    # a dev source past max_seq_len must not crash the run's only checkpoint
    examples, vocab, _, _ = _mini_setup()
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=1, dropout_rate=0.1, max_seq_len=32)
    dev = synth_cipher(1, seed=5, direction="ar2en", min_len=30, max_len=30)
    assert len(vocab.encode(dev[0].model_source)) == 50
    tc = TrainConfig(strategy="joint", batch_size=4, max_steps=6, seed=0,
                     out_dir=tmp_path / "run")
    data = Datasets(texts=[ex.target for ex in examples],
                    tasks=[TaskData("translitrate_ar2en", examples, dev)])
    result = train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data)
    assert [m.step for m in result.metas] == [6]
    assert math.isfinite(result.metas[0].score)
    assert (tmp_path / "run" / "best" / "model.octo").exists()


def _no_step(*args, **kwargs):
    raise AssertionError("a training step ran on data that should be rejected")


@pytest.mark.parametrize("names, message", [
    (["translitrate_ar2en", "translitrate_ar2en"], "two labeled sets for task 'translitrate_ar2en'"),
    (["translitrate_ar2en", "transliterate-ar2en"], "two labeled sets for task 'translitrate_ar2en'"),
    (["translitrate_ar2en", "translate"], "unknown task 'translate'"),
], ids=["same", "alias", "unknown"])
def test_labeled_sets_need_distinct_known_tasks(monkeypatch, names, message):
    # the mixer keys pools by task, so a second set of one task would replace the first
    from octopus import trainer

    monkeypatch.setattr(trainer, "adam_step", _no_step)
    examples, vocab, cfg, model = _mini_setup(n_examples=40)
    with pytest.raises(ValueError, match=message):
        data = Datasets(tasks=[TaskData(name, examples[20 * i:20 * (i + 1)])
                               for i, name in enumerate(names)])
        train(model, vocab, TrainConfig(strategy="multitask", batch_size=8, max_steps=30), data)


@pytest.mark.parametrize("strategy", ["pretrain", "joint"])
def test_unlabeled_text_without_tokens_is_named_before_step_0(monkeypatch, strategy):
    # otherwise corrupt_spans raises at a random denoising step, naming no text
    from octopus import trainer

    monkeypatch.setattr(trainer, "adam_step", _no_step)
    examples, vocab, cfg, model = _mini_setup()
    texts = [ex.target for ex in examples]
    texts[3] = ""
    data = Datasets(texts=texts, tasks=[TaskData("translitrate_ar2en", examples)])
    with pytest.raises(ValueError, match="unlabeled text 3 encodes to no tokens"):
        train(model, vocab, TrainConfig(strategy=strategy, batch_size=4, max_steps=20), data)


def test_pretraining_encodes_each_text_once(monkeypatch):
    from octopus.vocab import Vocabulary

    examples, vocab, cfg, model = _mini_setup()
    texts = [ex.target for ex in examples[:10]]
    seen = []
    encode = Vocabulary.encode

    def counted(self, text):
        seen.append(text)
        return encode(self, text)

    monkeypatch.setattr(Vocabulary, "encode", counted)
    train(model, vocab, TrainConfig(strategy="pretrain", batch_size=8, max_steps=6),
          Datasets(texts=texts))
    assert sorted(seen) == sorted(texts)


def _denoising_batches(max_len: int, steps: int = 6):
    """(vocabulary, the texts' ids end to end, window width, the first
    batches of a pretraining run) on texts of 22 to 57 tokens."""
    from octopus import trainer
    from octopus.tasks import synth_structured_text

    texts = synth_structured_text(40, seed=3)
    vocab = build_vocab(texts, max_size=200, sentinels=16)
    stream = [t for text in texts for t in vocab.encode(text)]
    width = min(max_len, round(len(stream) / len(texts)))
    cfg = TrainConfig(strategy="pretrain", batch_size=8, max_steps=steps, seed=4)
    build = trainer._batch_rule(vocab, cfg, Datasets(texts=texts), max_len)
    return vocab, stream, width, [build(step) for step in range(steps)]


@pytest.mark.parametrize("max_len", [64, 16], ids=["mean-text-wide", "max_len-wide"])
def test_denoising_rows_have_one_length_and_no_pad(max_len):
    vocab, _, _, batches = _denoising_batches(max_len)
    for batch in batches:
        assert batch.enc_mask.all()
        assert (batch.target_ids != vocab.pad_id).all()


@pytest.mark.parametrize("max_len", [64, 16], ids=["mean-text-wide", "max_len-wide"])
def test_denoising_rows_splice_to_stream_windows(max_len):
    from octopus import splice

    vocab, stream, width, batches = _denoising_batches(max_len)
    starts = range(len(stream) - width + 1)
    for batch in batches:
        for inp, tgt in zip(batch.enc_ids.tolist(), batch.target_ids.tolist()):
            window = splice(inp, tgt, vocab)
            assert len(window) == width
            assert any(stream[s:s + width] == window for s in starts)


@pytest.mark.parametrize("strategy", ["pretrain", "joint"])
def test_denoising_without_sentinels_is_rejected_before_step_0(monkeypatch, strategy):
    # otherwise numpy fails at the first denoising step, and a text of 3
    # tokens or fewer gets a target with nothing masked
    from octopus import trainer

    monkeypatch.setattr(trainer, "adam_step", _no_step)
    examples, _, _, _ = _mini_setup()
    vocab = build_vocab([ex.model_source + " " + ex.target for ex in examples], sentinels=0)
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=1, max_seq_len=64)
    data = Datasets(texts=[ex.target for ex in examples],
                    tasks=[TaskData("translitrate_ar2en", examples)])
    with pytest.raises(ValueError, match="the vocabulary has no sentinel tokens"):
        train(Seq2SeqTransformer(cfg, seed=1), vocab,
              TrainConfig(strategy=strategy, batch_size=4, max_steps=20), data)
    # a run that draws no denoising step needs no sentinels
    monkeypatch.undo()
    train(Seq2SeqTransformer(cfg, seed=1), vocab,
          TrainConfig(strategy="multitask", batch_size=4, max_steps=1), data)


def test_grammar_dev_example_without_gold_edits_is_an_error():
    # scored against an empty edit set, a copy of the source beats the correction
    from octopus.metrics import EditSet, m2_f05
    from octopus.tasks import REGISTRY

    source, target = "the cat cat runs", "the cat runs"
    assert (m2_f05(source, target, EditSet([])), m2_f05(source, source, EditSet([]))) == \
        (0.0, 100.0)
    gold = Example(task="correct_grammar", source=source, target=target, gold_edits=[[2, 3, []]])
    no_gold = Example(task="correct_grammar", source=source, target=target)
    message = "dev example 1 of the 'correct_grammar' set has no gold edits"
    with pytest.raises(ValueError, match=message):
        TaskData("correct_grammar", [gold], dev=[gold, no_gold])
    vocab = build_vocab([gold.model_source], max_size=100, sentinels=4)
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=1, max_seq_len=64)
    with pytest.raises(ValueError, match=message):
        evaluate_dev(Seq2SeqTransformer(cfg, seed=1), vocab, [gold, no_gold],
                     REGISTRY["correct_grammar"])
    # an explicit empty list says that no edit is needed, and stays valid
    no_edit = Example(task="correct_grammar", source=target, target=target, gold_edits=[])
    assert TaskData("correct_grammar", [gold], dev=[no_edit]).dev[0].gold_edits == []


@pytest.mark.parametrize("field, value, message", [
    ("vocab", None, "vocab.txt is not the run's vocabulary"),
    ("dropout_rate", 0.5, "config.json has dropout_rate=0.1, but the model has 0.5"),
    ("max_seq_len", 100, "config.json has max_seq_len=64, but the model has 100"),
], ids=["vocab", "dropout_rate", "max_seq_len"])
def test_resume_checks_config_and_vocabulary(tmp_path, monkeypatch, field, value, message):
    import re

    from octopus import trainer
    from octopus.vocab import Vocabulary

    examples, vocab, cfg, _ = _mini_setup()
    data = Datasets(tasks=[TaskData("translitrate_ar2en", examples)])
    tc = TrainConfig(strategy="single_task", batch_size=8, max_steps=2, seed=3,
                     out_dir=tmp_path / "run")
    train(Seq2SeqTransformer(cfg, seed=1), vocab, tc, data)
    if field == "vocab":  # same size, another order
        vocab = Vocabulary(vocab.content_tokens[::-1], sentinels=vocab.num_sentinels)
    else:
        cfg = replace(cfg, **{field: value})
    model = Seq2SeqTransformer(cfg, seed=7)
    before = {name: p.data.copy() for name, p in model.parameters().items()}
    monkeypatch.setattr(trainer, "adam_step", _no_step)
    ckpt = tmp_path / "run" / "step_000002"
    with pytest.raises(ValueError, match=re.escape(f"{ckpt}: {message}")):
        train(model, vocab, replace(tc, max_steps=4, out_dir=tmp_path / "resumed"), data,
              resume_from=ckpt)
    assert all(np.array_equal(p.data, before[name]) for name, p in model.parameters().items())
