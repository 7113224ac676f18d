"""The three benchmark workloads: inputs made from a seed, one timed unit, output checks.

Every workload builds its inputs from the benchmark seed alone (the program
only ever sees the generated corpus), writes them into a private work
directory, and exposes:

  run_unit(k)   the timed call into the program for unit k;
  check(k, out) the untimed output check, returning the unit's sha256 digest
                or raising UnitFailure.

Unit k is a pure function of (seed, k), so re-running a unit index must
reproduce its digest; the harness relies on that for its determinism and
trace-transparency checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from cogbert import cli, features, model, training
from cogbert.tokenizer import build_vocab

TRAIN_EPOCHS = 1          # epochs per train_desk unit, cut from 15 so a unit fits a run
EVAL_BATCH = 32
EVAL_SENTENCES = 128      # four 32-sentence batches
EVAL_WORDS = (48, 62)     # with CLS/SEP, ~89% of the 64 positions are real tokens
DESK_MODE = "eeg_embed"   # the paper's default desk configuration


class UnitFailure(Exception):
    """A unit raised, returned a non-zero exit code or gave a non-finite or wrong output."""


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one purpose, independent of the program's own RNG."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _require_finite(what: str, values) -> None:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise UnitFailure(f"non-finite {what}")


class _Corpus:
    """Synthetic corpus -> features.jsonl on disk -> feature db, vocab and examples."""

    def __init__(self, workdir: Path, seed: int, synth_cfg: features.SynthConfig):
        _, db, _ = features.synth_generate(synth_cfg, derive_seed(seed, "corpus"))
        self.features_path = workdir / "features.jsonl"
        db.save_jsonl(self.features_path)
        self.inputs_digest = sha256(self.features_path.read_bytes())
        self.db = features.FeatureDb.load_jsonl(self.features_path)
        records = [self.db.get(sid) for sid in self.db.ids()]
        self.vocab = build_vocab([r.tokens for r in records])
        self.n_classes = max(r.label for r in records) + 1
        self.eeg_channels = len(records[0].sentence_eeg)

    def model_config(self, mode: str) -> model.ModelConfig:
        return model.ModelConfig(vocab_size=self.vocab.size, n_classes=self.n_classes,
                                 eeg_channels=self.eeg_channels, mode=mode)


class TrainDesk:
    """One unit = one train-and-evaluate cycle of training.repeat_runs (1 repeat)."""

    name = "train_desk"
    tail_pct = None       # ~33 units in a 30 s run: no tail percentile leaves 10 beyond it
    warmup_units = 1
    digest_units = 2

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        corpus = _Corpus(workdir, seed, features.SynthConfig())
        self.inputs_digest = corpus.inputs_digest
        self.db = corpus.db
        self.cfg = corpus.model_config(DESK_MODE)
        examples = training.make_examples(corpus.db, corpus.vocab, self.cfg.max_len)
        self.train_ex, self.test_ex = training.split(examples, 0.8, derive_seed(seed, "split"))
        self.sentences_per_unit = TRAIN_EPOCHS * len(self.train_ex)

    def run_unit(self, k: int):
        train_cfg = training.TrainConfig(epochs=TRAIN_EPOCHS, batch_size=8, lr=5e-5,
                                         seed=derive_seed(self.seed, f"unit{k}"), repeats=1)
        report, _ = training.repeat_runs(1, train_cfg, self.cfg, self.train_ex, self.test_ex, self.db)
        return report

    def check(self, k: int, report) -> str:
        obj = report.to_dict()
        for run in obj["runs"]:
            _require_finite("loss", run["loss_history"])
            m = run["metrics"]
            _require_finite("metric", [m["precision"], m["recall"], m["f1"], m["accuracy"]])
            if not all(0.0 <= m[key] <= 1.0 for key in ("precision", "recall", "f1", "accuracy")):
                raise UnitFailure("macro metric outside [0, 1]")
            if sum(m["tp"]) + sum(m["fn"]) != len(self.test_ex):
                raise UnitFailure("confusion counts do not partition the test set")
        return sha256(json.dumps(obj, sort_keys=True).encode())


@contextlib.contextmanager
def _captured_logits():
    """Keep the logits of every forward training.evaluate makes inside the block.

    It wraps whatever training.encoder_forward is at entry (a tracer's wrapper
    included) and puts it back on exit.
    """
    forward = training.encoder_forward
    logits: list[np.ndarray] = []

    def capture(*args, **kwargs):
        result = forward(*args, **kwargs)
        logits.append(result.logits.value)
        return result

    training.encoder_forward = capture
    try:
        yield logits
    finally:
        training.encoder_forward = forward


class EvalDenseAllModes:
    """One unit = one training.evaluate call on a 32-sentence batch; units cycle all 9 modes."""

    name = "eval_dense_allmodes"
    tail_pct = 95.0       # 550-900 units in a 30 s run
    warmup_units = len(model.MODES)
    digest_units = len(model.MODES)

    def __init__(self, workdir: Path, seed: int):
        lo, hi = EVAL_WORDS
        corpus = _Corpus(workdir, seed, features.SynthConfig(
            n_sentences=EVAL_SENTENCES, min_words=lo, max_words=hi))
        self.inputs_digest = corpus.inputs_digest
        self.db = corpus.db
        self.params = {}
        for mode in model.MODES:
            cfg = corpus.model_config(mode)
            path = workdir / f"{mode}.ckpt"
            model.save_checkpoint(model.random_params(cfg, derive_seed(seed, mode)), path)
            self.params[mode] = model.load_checkpoint(path)
        examples = training.make_examples(corpus.db, corpus.vocab, cfg.max_len)
        self.batches = [examples[i:i + EVAL_BATCH] for i in range(0, len(examples), EVAL_BATCH)]
        self.sentences_per_unit = EVAL_BATCH

    def _unit_inputs(self, k: int):
        mode = model.MODES[k % len(model.MODES)]
        return self.params[mode], self.batches[(k // len(model.MODES)) % len(self.batches)]

    def run_unit(self, k: int):
        params, batch = self._unit_inputs(k)
        with _captured_logits() as logits:
            metrics = training.evaluate(params, batch, self.db, batch_size=EVAL_BATCH)
        return metrics, logits

    def check(self, k: int, out) -> str:
        metrics, logits = out
        params, batch = self._unit_inputs(k)
        if len(logits) != 1 or logits[0].shape != (len(batch), params.cfg.n_classes):
            raise UnitFailure(f"expected one ({len(batch)}, {params.cfg.n_classes}) logits block")
        _require_finite("logit", logits[0])
        if int(metrics.tp.sum() + metrics.fn.sum()) != len(batch):
            raise UnitFailure("confusion counts do not partition the batch")
        return sha256(np.ascontiguousarray(logits[0]).tobytes())


class ExplainLime:
    """One unit = one in-process `cogbert explain --ids <one id>` call, 200 LIME samples."""

    name = "explain_lime"
    tail_pct = 75.0       # 85-145 units in a 30 s run
    warmup_units = 1
    digest_units = 3
    sentences_per_unit = 1

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        corpus = _Corpus(workdir, seed, features.SynthConfig())
        self.inputs_digest = corpus.inputs_digest
        self.db = corpus.db
        cfg = corpus.model_config(DESK_MODE)
        self.layers, self.heads = cfg.layers, cfg.heads
        examples = training.make_examples(corpus.db, corpus.vocab, cfg.max_len)
        train_ex, _ = training.split(examples, 0.8, derive_seed(seed, "split"))
        params, _ = training.train(training.TrainConfig(epochs=1, seed=derive_seed(seed, "ckpt")),
                                   cfg, train_ex, corpus.db)
        self.vocab_path = workdir / "vocab.tsv"
        self.ckpt_path = workdir / "model.ckpt"
        self.out_dir = workdir / "explained"
        corpus.vocab.save(self.vocab_path)
        model.save_checkpoint(params, self.ckpt_path)
        ids = corpus.db.ids()
        order = np.random.default_rng(derive_seed(seed, "ids")).permutation(len(ids))
        self.ids = [ids[i] for i in order]
        self.features_path = corpus.features_path

    def run_unit(self, k: int):
        sid = self.ids[k % len(self.ids)]
        argv = ["explain", "--features", str(self.features_path), "--checkpoint", str(self.ckpt_path),
                "--vocab", str(self.vocab_path), "--ids", sid, "--out", str(self.out_dir),
                "--seed", str(derive_seed(self.seed, "lime"))]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return sid, code

    def check(self, k: int, out) -> str:
        sid, code = out
        if code != 0:
            raise UnitFailure(f"explain exited with code {code}")
        data = (self.out_dir / f"explain_{sid}.json").read_bytes()
        report = json.loads(data)
        _require_finite("LIME score", [s["score"] for s in report["lime_scores"]])
        attention = [s["score"] for s in report["attention_scores"]]
        _require_finite("attention score", attention)
        # Every real query row spreads exactly one unit of attention over the
        # real keys in every layer and head; PAD keys get exactly zero in float64.
        expected = self.layers * self.heads * len(attention)
        if not math.isclose(sum(attention), expected, rel_tol=1e-9):
            raise UnitFailure(f"attention mass {sum(attention)!r} != {expected}")
        if len(report["lime_scores"]) != len(attention) - 2 or not 0.0 <= report["overlap"] <= 1.0:
            raise UnitFailure("explanation layout does not match the sentence")
        return sha256(data)


WORKLOADS = {w.name: w for w in (TrainDesk, EvalDenseAllModes, ExplainLime)}
