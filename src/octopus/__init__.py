"""Desk-scale multitask text-to-text transformer toolkit.

The names below load on first use (PEP 562), so `import octopus.cli` pulls
in only the modules the command line needs, not the training stack.
"""

from importlib import import_module

_EXPORTS = {
    "decoding": ("DecodeConfig", "Hypothesis", "beam_search", "block_repeat_ngrams",
                 "generate", "sample_step"),
    "metrics": ("EditSet", "MetricReport", "bleu", "cer", "diacritization_fidelity",
                "m2_f05", "macro_scores", "rouge_l", "token_f1"),
    "model": ("ModelConfig", "Seq2SeqTransformer", "relative_position_bucket"),
    "objectives": ("DenoisingConfig", "Seq2SeqBatch", "corrupt_spans", "make_batch", "splice"),
    "optim": ("AdamState", "adam_step"),
    "tasks": ("Example", "TaskSpec", "format_input", "load_jsonl", "synth_cipher",
              "synth_devowel"),
    "tensor": ("Tensor", "backward", "cross_entropy", "matmul", "no_grad", "rms_norm",
               "softmax"),
    "trainer": ("CheckpointMeta", "Datasets", "TaskData", "TaskMixer", "TrainConfig",
                "evaluate_dev", "sample_task_batch", "select_best_checkpoint", "train"),
    "vocab": ("Vocabulary", "build_vocab"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # `octopus.trainer` without importing it first
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
