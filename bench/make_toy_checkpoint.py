"""Train the toy cipher checkpoint that the cli_short workload decodes with.

Follows the README quickstart recipe with its pinned seeds, so the model
maps "ab" to "αβ" and "fg" to "ζη" (the CLI goldens). Run from the
repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_toy_checkpoint.py

It writes bench/toy_cipher/{model.octo,vocab.txt,config.json} and prints
their sha256 digests; copy those into TOY_SHA256 in bench/activities.py.
"""

import hashlib
import sys
from pathlib import Path

from octopus import (Datasets, ModelConfig, Seq2SeqTransformer, TaskData,
                     TrainConfig, build_vocab, train)
from octopus.tasks import synth_cipher

OUT = Path(__file__).resolve().parent / "toy_cipher"


def main() -> int:
    examples = synth_cipher(800, seed=21, direction="both", min_len=2, max_len=6)
    vocab = build_vocab([ex.model_source + " " + ex.target for ex in examples],
                        max_size=300)
    model = Seq2SeqTransformer(
        ModelConfig(vocab_size=vocab.vocab_size, d_model=48, n_heads=4, d_ff=192,
                    dropout_rate=0.0), seed=9)
    cfg = TrainConfig(strategy="multitask", learning_rate=1.5e-3, batch_size=32,
                      max_steps=900, seed=11)
    train(model, vocab, cfg, Datasets(tasks=[
        TaskData(task, [e for e in examples if e.task == task])
        for task in ("translitrate_ar2en", "translitrate_en2ar")
    ]))
    OUT.mkdir(parents=True, exist_ok=True)
    model.save(OUT / "model.octo")
    vocab.save(OUT / "vocab.txt")
    (OUT / "config.json").write_text(model.config.to_json(), encoding="utf-8")
    for name in ("model.octo", "vocab.txt", "config.json"):
        digest = hashlib.sha256((OUT / name).read_bytes()).hexdigest()
        print(f'    "{name}": "{digest}",')
    return 0


if __name__ == "__main__":
    sys.exit(main())
