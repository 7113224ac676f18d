"""Heap memory freed by one forward or train step is reused by the next, not
faulted in afresh (the allocator thresholds cogbert sets at import)."""

import ctypes
import platform
import resource
import sys

import pytest

import cogbert
from cogbert import features, model, training
from cogbert.tokenizer import build_vocab

GLIBC_LINUX = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


def corpus_examples(synth_cfg, seed, mode):
    _, db, _ = features.synth_generate(synth_cfg, seed)
    records = [db.get(sid) for sid in db.ids()]
    vocab = build_vocab([r.tokens for r in records])
    cfg = model.ModelConfig(vocab_size=vocab.size, n_classes=max(r.label for r in records) + 1,
                            eeg_channels=len(records[0].sentence_eeg), mode=mode)
    return cfg, training.make_examples(db, vocab, cfg.max_len), db


@pytest.mark.skipif(not GLIBC_LINUX, reason="minor-fault counts and mallopt are Linux + glibc")
def test_repeated_forwards_and_training_fault_in_no_fresh_pages():
    eval_cfg, eval_batch, eval_db = corpus_examples(
        features.SynthConfig(n_sentences=32, min_words=48, max_words=62), 1, "eeg_embed")
    params = model.random_params(eval_cfg, 1)
    train_cfg, train_examples, train_db = corpus_examples(features.SynthConfig(n_sentences=64), 2,
                                                          "eeg_embed")
    one_epoch = training.TrainConfig(epochs=1, batch_size=8, lr=5e-5, seed=3, repeats=1)

    def work():
        for _ in range(10):
            training.evaluate(params, eval_batch, eval_db, batch_size=32)
        training.train(one_epoch, train_cfg, train_examples, train_db)

    work()  # warm-up: the heap grows to what the work needs
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    work()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 50, f"{faults} minor page faults after warm-up"


def test_memory_setup_is_quiet_without_mallopt(monkeypatch):
    def no_library(name):
        raise OSError("no C library")

    # No C library handle at all, or one without mallopt (as on musl or macOS).
    for cdll in (no_library, lambda name: object()):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        cogbert._keep_freed_memory()  # returns without raising
