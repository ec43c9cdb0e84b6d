"""The benchmark times octopus from outside by swapping named module and
class attributes for wrappers, and skips a name that is gone without a
word. These tests fail instead when a refactor drops or bypasses one."""

import inspect

import pytest

from octopus import cli, decoding, metrics, model, objectives, optim, tensor, trainer, vocab
from octopus.trainer import Datasets, TaskData, TrainConfig, train

HOOKS = [
    *((tensor, op) for op in ("matmul", "softmax", "rms_norm", "dropout", "add", "mul", "take",
                              "relu", "reshape", "transpose", "cross_entropy", "backward")),
    *((model.Seq2SeqTransformer, name)
      for name in ("batch_loss", "encode", "decode_logits", "save", "load")),
    (decoding, "generate"), (decoding, "greedy_decode_batch"),
    (optim, "adam_step"), (objectives, "corrupt_spans"), (objectives, "make_batch"),
    (trainer, "adam_step"), (trainer, "_denoise_batch"), (trainer, "sample_task_batch"),
    (trainer, "evaluate_dev"), (trainer, "_eval_and_checkpoint"),
    (metrics, "score_task"), (vocab.Vocabulary, "encode"), (vocab.Vocabulary, "decode"),
    (cli, "load_toolkit"), (cli, "_generate_all"),
]


@pytest.mark.parametrize("owner, attr", HOOKS,
                         ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in HOOKS])
def test_benchmark_hook_exists(owner, attr):
    assert attr in vars(owner)


def test_benchmark_call_shapes():
    # the trace reads decode_logits' fourth positional argument as dec_ids, and
    # the step clock wraps batch_loss(model_self, batch, *args, **kwargs)
    def params(fn, n):
        return list(inspect.signature(fn).parameters)[:n]

    assert params(model.Seq2SeqTransformer.decode_logits, 4) == \
        ["self", "enc_hidden", "enc_mask", "dec_ids"]
    assert params(model.Seq2SeqTransformer.batch_loss, 2) == ["self", "batch"]


def test_op_result_vjp_can_be_read_and_replaced():
    # the trace times each backward op by replacing an op result's `_vjp`
    # with a timed wrapper; backward must then call the wrapper
    x = tensor.Tensor([1.0, -2.0], requires_grad=True)
    out = tensor.mul(x, 3.0)
    vjp, calls = out._vjp, []
    assert callable(vjp) and x._vjp is None

    def timed(g):
        calls.append(g)
        return vjp(g)

    out._vjp = timed
    assert out._vjp is timed
    tensor.tensor_sum(out).backward()
    assert len(calls) == 1 and list(x.grad) == [3.0, 3.0]


def test_training_calls_its_hooks_through_module_globals(monkeypatch):
    # the step clock reads `trainer.adam_step`; a call bound any other way
    # would leave every training step untimed
    from octopus import ModelConfig, Seq2SeqTransformer
    from octopus.tasks import synth_cipher
    from octopus.vocab import build_vocab

    examples = synth_cipher(40, seed=0, direction="ar2en", min_len=3, max_len=6)
    voc = build_vocab([ex.model_source + " " + ex.target for ex in examples],
                      max_size=200, sentinels=8)
    cfg = ModelConfig(vocab_size=voc.vocab_size, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=1, max_seq_len=64)
    calls = {}
    for name in ("adam_step", "evaluate_dev", "_denoise_batch", "sample_task_batch",
                 "_eval_and_checkpoint", "make_batch"):
        def counted(*args, _fn=getattr(trainer, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(trainer, name, counted)
    data = Datasets(texts=[ex.target for ex in examples],
                    tasks=[TaskData("translitrate_ar2en", examples, dev=examples[:4])])
    tc = TrainConfig(strategy="joint", batch_size=4, max_steps=6, seed=0)
    train(Seq2SeqTransformer(cfg, seed=0), voc, tc, data)
    assert calls["adam_step"] == 6
    assert calls["evaluate_dev"] == calls["_eval_and_checkpoint"] == 1
    assert calls["_denoise_batch"] + calls["make_batch"] == 6
    assert calls["sample_task_batch"] == calls["make_batch"] > 0
