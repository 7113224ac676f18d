"""Command-line entry point.

Commands: synth, train, eval, lexicon build|apply, explain, gradcheck, report.
Exit codes: 0 success, 1 verification failure, 2 config error, 3 data error,
4 empty result. Every command is deterministic given --seed; wall-clock
timings go to stdout only, never into report files, so reruns with the same
seed produce byte-identical outputs. The library logs its warnings under
the `cogbert` logger, and they reach stderr as `warning: <message>` lines;
errors are `error: <message>` lines on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import features as feat
from . import training
from .checks import check_memory
from .errors import CogbertError, ConfigError, DataError, EmptyResultError, ValidationError
from .explain import DEFAULT_KERNEL_WIDTH, DEFAULT_RIDGE_LAMBDA, DEFAULT_SAMPLES, explain_sentence
from .files import atomic_open, write_json
from .model import (MODES, EncoderParams, ModelConfig, gradcheck_mode, init_params, load_checkpoint,
                    save_checkpoint)
from .tokenizer import Vocab, build_vocab, check_vocab_words

GRADCHECK_TOLERANCE = 1e-4


def _write_csv(path: Path, rows) -> None:
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _build_config(cls, what: str, path: str | None, flags: dict,
                  flag_names: list[str] | None = None, **derived):
    """A cls config from the JSON object in the `what` config file at path (all
    defaults without one), then the flags that were given (not None), then the
    derived values, which the file may not set.

    An invalid value's error names the file, and the flags applied over it:
    flag_names, by default `--<key>` for each flag given.
    """
    obj = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"{what} config file {path} does not exist")
        if not p.is_file():
            raise ConfigError(f"{what} config {path} is not a regular file")
        try:
            obj = json.loads(p.read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8 or not JSON
            raise ConfigError(f"{what} config {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"{what} config {path} must hold a JSON object")
    for key in obj:
        if key not in cls.__dataclass_fields__:
            raise ConfigError(f"{what} config {path} has unknown key {key!r}")
        if key in derived:
            raise ConfigError(f"{what} config {path} sets {key!r}, which is derived from "
                              f"the data and flags")
    given = {key: value for key, value in flags.items() if value is not None}
    obj.update(given, **derived)
    try:
        cfg = cls(**obj)
        if hasattr(cfg, "memory_terms"):  # a generator or model config of a new run
            check_memory(cfg.memory_terms())
        return cfg
    except ConfigError as exc:
        if path is None:
            raise
        if flag_names is None:
            flag_names = ["--" + key.replace("_", "-") for key in given]
        with_flags = f" with {', '.join(flag_names)}" if flag_names else ""
        raise ConfigError(f"{what} config {path}{with_flags}: {exc}") from None


def _check_makeable(path: str, directory: Path) -> None:
    """A ConfigError naming --out `path` unless `directory` is a directory or
    mkdir can make it: its nearest existing ancestor must be a directory."""
    existing = next(p for p in (directory, *directory.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {path}: {existing} is not a directory")


def _out_dir(path: str) -> Path:
    """--out as an output directory, checked before the command's work without
    creating anything; `_made` makes it when the command writes."""
    out = Path(path)
    _check_makeable(path, out)
    return out


def _out_file(path: str) -> Path:
    """--out as an output file, checked before the command's work without
    creating anything; `_made(out.parent)` makes its directory."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"--out {path} is a directory; it must name a file")
    _check_makeable(path, out.parent)
    return out


def _made(directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise DataError(f"{what} file {path} does not exist")
    if not p.is_file():
        raise DataError(f"{what} {path} is not a regular file")
    return p


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = _build_config(feat.SynthConfig, "generator", args.config,
                        {"n_sentences": args.n_sentences, "distractors": args.distractors})

    if args.print_config:
        print(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))
        return 0

    out = _out_dir(args.out)
    measurements, db, labels = feat.synth_generate(cfg, args.seed)
    _made(out)
    feat.save_measurements(measurements, out / "corpus.jsonl")
    db.save_jsonl(out / "features.jsonl")
    print(f"wrote {len(measurements)} sentences over {cfg.n_classes} classes to {out}")
    print(f"labels: {sorted(set(labels))}")
    return 0


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

def _eeg_channels(db: feat.FeatureDb) -> int:
    """The sentence-EEG channel count of a non-empty db (load_jsonl checks that
    every record has the first record's)."""
    return len(db.get(db.ids()[0]).sentence_eeg)


def _build_model_config(args, vocab: Vocab, db: feat.FeatureDb, n_classes: int) -> ModelConfig:
    return _build_config(ModelConfig, "model", args.config, {}, vocab_size=vocab.size,
                         n_classes=n_classes, eeg_channels=_eeg_channels(db), mode=args.mode)


def _build_train_config(args) -> training.TrainConfig:
    flags = {"repeats": args.repeats, "epochs": args.epochs, "seed": args.seed}
    flag_names = None
    if args.robustness:  # the preset, with the flags that were given over it
        given = {key: value for key, value in flags.items() if value is not None}
        flag_names = ["--robustness", *("--" + key for key in given)]
        flags = {"repeats": training.ROBUSTNESS_REPEATS, "epochs": training.ROBUSTNESS_EPOCHS,
                 "init_source": "random", **given}
    return _build_config(training.TrainConfig, "train", args.train_config, flags, flag_names)


def _score_cells(scores, report: dict | None = None) -> list[str]:
    """A report-CSV row's precision, recall, f1, f1_std and accuracy cells, read
    in that order: scores maps training.SCORES, the report dict gives f1_std
    (blank in a single run's row)."""
    cells = [f"{scores[name]:.4f}" for name in training.SCORES[:3]]
    cells.append("" if report is None else f"{report['f1_std']:.4f}")
    cells.append(f"{scores['accuracy']:.4f}")
    return cells


def cmd_train(args) -> int:
    db = feat.FeatureDb.load_jsonl(_require_file(args.features, "feature db"))
    if len(db) < 2:
        raise DataError(f"feature db {args.features} holds {len(db)} "
                        f"sentence{'' if len(db) == 1 else 's'}; training needs at least 2")
    n_classes = 1 + max(db.get(sid).label for sid in db.ids())
    if n_classes < 2:
        raise DataError(f"feature db {args.features}: every sentence has label 0; "
                        f"training needs at least 2 classes")
    sentences = {sid: db.get(sid).tokens for sid in db.ids()}
    check_vocab_words(sentences, f"feature db {args.features}")
    vocab = build_vocab(list(sentences.values()))
    model_cfg = _build_model_config(args, vocab, db, n_classes)
    train_cfg = _build_train_config(args)

    if args.print_config:
        print(json.dumps({"model": model_cfg.to_dict(), "train": train_cfg.to_dict()},
                         sort_keys=True, indent=2))
        return 0

    out = _out_dir(args.out)
    # The split, the init checkpoint and the training share fail before anything is written.
    examples = training.make_examples(db, vocab, model_cfg.max_len)
    train_ex, test_ex = training.split(examples, args.split_ratio, train_cfg.seed)
    if not train_ex:
        raise ValidationError(f"--split-ratio {args.split_ratio} leaves none of the "
                              f"{len(examples)} sentences to train on")
    if train_cfg.init_source != "random":
        init_params(model_cfg, train_cfg.init_source)
    _made(out)
    print(f"training mode={model_cfg.mode} on {len(train_ex)} sentences, "
          f"testing on {len(test_ex)}, repeats={train_cfg.repeats}")

    started = time.perf_counter()
    report, best_params = training.repeat_runs(
        train_cfg.repeats, train_cfg, model_cfg, train_ex, test_ex, db)
    elapsed = time.perf_counter() - started

    summary = report.to_dict()
    write_json(out / "report.json", summary)
    _write_csv(out / "report.csv", [
        ["mode", "run", "seed", "precision", "recall", "f1", "f1_std", "accuracy"],
        *([model_cfg.mode, i, run["seed"], *_score_cells(run["metrics"])]
          for i, run in enumerate(summary["runs"])),
        [model_cfg.mode, "mean", train_cfg.seed, *_score_cells(summary["mean"], summary)],
    ])
    vocab.save(out / "vocab.tsv")
    save_checkpoint(best_params, out / "model.ckpt")

    mean = report.mean
    print(f"mean precision={mean['precision']:.4f} recall={mean['recall']:.4f} "
          f"f1={mean['f1']:.4f} (std {report.f1_std:.4f}) accuracy={mean['accuracy']:.4f}")
    print(f"best run: {report.best} "
          f"(accuracy {report.runs[report.best].metrics.accuracy:.4f})")
    print(f"wall clock: {elapsed:.1f}s")
    return 0


def _load_model_inputs(args) -> tuple[feat.FeatureDb, EncoderParams, Vocab]:
    """Feature db, checkpoint and vocab of eval/explain: a db with no sentences is
    an empty result (exit 4), and the vocab and, for a mode that reads sentence
    EEG, the db's channel count are checked against the model."""
    db = feat.FeatureDb.load_jsonl(_require_file(args.features, "feature db"))
    if len(db) == 0:
        raise EmptyResultError(f"feature db {args.features} holds no sentences")
    params = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    vocab = Vocab.load(_require_file(args.vocab, "vocab"))
    cfg = params.cfg
    if vocab.size > cfg.vocab_size:
        raise DataError(
            f"vocab {args.vocab} assigns ids up to {vocab.size - 1}, but checkpoint "
            f"{args.checkpoint} has only {cfg.vocab_size} word embeddings"
        )
    if cfg.uses_sentence_eeg and _eeg_channels(db) != cfg.eeg_channels:
        raise DataError(
            f"feature db {args.features} holds {_eeg_channels(db)}-channel sentence EEG, but "
            f"checkpoint {args.checkpoint} (mode {cfg.mode}) reads {cfg.eeg_channels} channels"
        )
    return db, params, vocab


def cmd_eval(args) -> int:
    out = _out_dir(args.out)
    db, params, vocab = _load_model_inputs(args)
    cfg = params.cfg
    for sid in db.ids():
        label = db.get(sid).label
        if label >= cfg.n_classes:
            raise DataError(
                f"feature db {args.features} labels sentence {sid} as class {label}, but "
                f"checkpoint {args.checkpoint} has only {cfg.n_classes} classes")

    examples = training.make_examples(db, vocab, cfg.max_len)
    if args.split_ratio is not None:
        _, examples = training.split(examples, args.split_ratio, args.seed)
    scores = training.evaluate(params, examples, db).to_dict()
    write_json(_made(out) / "eval.json", {
        "model_config": cfg.to_dict(),
        "n_sentences": len(examples),
        "metrics": scores,
    })
    print(f"evaluated {len(examples)} sentences: "
          + " ".join(f"{name}={scores[name]:.4f}" for name in training.SCORES))
    return 0


# ---------------------------------------------------------------------------
# lexicon
# ---------------------------------------------------------------------------

def cmd_lexicon(args) -> int:
    if args.action == "build":
        if not args.corpus:
            raise ConfigError("lexicon build requires --corpus")
        out = _out_file(args.out)
        measurements = feat.load_measurements(_require_file(args.corpus, "corpus"))
        lexicon = feat.build_lexicon(measurements)
        if len(lexicon) == 0:
            raise EmptyResultError("no fixated word occurrences; lexicon is empty")
        _made(out.parent)
        lexicon.save_jsonl(out)
        print(f"lexicon contains {len(lexicon)} words -> {out}")
        return 0

    if not (args.lexicon and args.features):
        raise ConfigError("lexicon apply requires --lexicon and --features")
    out, coverage = _out_file(args.out), _out_file(args.out + ".coverage.json")
    lexicon = feat.EEGLexicon.load_jsonl(_require_file(args.lexicon, "lexicon"))
    if len(lexicon) == 0:
        raise EmptyResultError(f"lexicon file {args.lexicon} holds no entries")
    db = feat.FeatureDb.load_jsonl(_require_file(args.features, "feature db"))
    if len(db) == 0:
        raise EmptyResultError(f"feature db {args.features} holds no sentences")
    applied, coverages = feat.apply_lexicon(db, lexicon)
    _made(out.parent)
    applied.save_jsonl(out)
    mean_coverage = float(np.mean(list(coverages.values())))
    write_json(coverage, {"mean_coverage": mean_coverage, "per_sentence": coverages})
    print(f"applied lexicon to {len(applied)} sentences "
          f"(mean coverage {mean_coverage:.3f}) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

def cmd_explain(args) -> int:
    out = _out_dir(args.out)
    db, params, vocab = _load_model_inputs(args)
    # A repeated id is explained once, at its first place.
    sentence_ids = list(dict.fromkeys(sid.strip() for sid in args.ids.split(",") if sid.strip()))
    if not sentence_ids:
        raise ConfigError("--ids must name at least one sentence")
    # Every sentence is explained before anything is written, so a bad id,
    # record or option leaves no output.
    reports = [explain_sentence(params, db, vocab, sid, k=args.k, n_samples=args.n_samples,
                                kernel_width=args.kernel_width,
                                ridge_lambda=args.ridge_lambda, seed=args.seed)
               for sid in sentence_ids]
    _made(out)

    for sid, report in zip(sentence_ids, reports):
        write_json(out / f"explain_{sid}.json", report.to_dict())
        _write_csv(out / f"heatmap_{sid}.csv", [
            ["word", "attention_score", "lime_weight"],
            *([word, repr(attn), repr(lime)] for word, attn, lime in report.heatmap_rows()),
        ])
        print(f"{sid}: predicted class {report.predicted_class}, "
              f"overlap@{args.k} = {report.overlap:.2f}")

    overlaps = [report.overlap for report in reports]
    write_json(out / "explain_summary.json", {
        "k": args.k,
        "sentences": sentence_ids,
        "overlaps": overlaps,
        "mean_overlap": float(np.mean(overlaps)),
    })
    print(f"mean overlap@{args.k} over {len(overlaps)} sentences: {np.mean(overlaps):.3f}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    if args.layers > 2 or args.d_model > 32:
        raise ConfigError("gradcheck enforces a tiny config: layers <= 2, d_model <= 32")
    out = _out_dir(args.out) if args.out else None
    modes = MODES if args.mode == "all" else (args.mode,)
    failures = []
    results = {}
    for mode in modes:
        report = gradcheck_mode(mode, seed=args.seed, layers=args.layers,
                                d_model=args.d_model)
        worst = max(report.values())
        results[mode] = worst
        bad = sorted(n for n, e in report.items() if e >= GRADCHECK_TOLERANCE)
        status = "ok" if not bad else "FAIL"
        print(f"{mode:16s} worst relative error {worst:.3e}  {status}")
        if bad:
            failures.append((mode, bad))
    if out is not None:
        write_json(_made(out) / "gradcheck.json", {
            "tolerance": GRADCHECK_TOLERANCE,
            "worst_error_per_mode": results,
        })
    if failures:
        for mode, bad in failures:
            print(f"{mode}: tensors above tolerance: {', '.join(bad)}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# report aggregation
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    out = _out_file(args.out)
    rows = []
    for path in args.inputs:
        report = _require_file(path, "report")
        try:
            obj = json.loads(report.read_text(encoding="utf-8"))
            rows.append([
                obj["model_config"]["mode"],
                obj["train_config"]["repeats"],
                obj["train_config"]["epochs"],
                obj["train_config"]["seed"],
                *_score_cells(obj["mean"], obj),
            ])
        except KeyError as exc:
            raise DataError(f"{path} is not a run report (missing {exc})") from exc
        except (TypeError, ValueError) as exc:  # not UTF-8, not JSON, or not an object
            raise DataError(f"{path} is not a run report: {exc}") from exc
    if not rows:
        raise EmptyResultError("no reports to aggregate")
    _made(out.parent)
    _write_csv(out, [["mode", "repeats", "epochs", "seed",
                      "precision", "recall", "f1", "f1_std", "accuracy"], *rows])
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogbert",
        description="Cognitively-augmented encoder experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-keyword corpus + feature db")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="generator config JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-sentences", type=int, default=None)
    p.add_argument("--distractors", type=int, default=None)
    p.add_argument("--print-config", action="store_true")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="run the repeated fine-tuning protocol")
    p.add_argument("--features", required=True, help="feature db JSONL")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="model config JSON")
    p.add_argument("--train-config", help="train config JSON")
    p.add_argument("--mode", choices=MODES, default="none")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the train config's seed (default 0)")
    p.add_argument("--split-ratio", type=float, default=0.8)
    p.add_argument("--robustness", action="store_true",
                   help="random init, 5 repeats, 10 epochs")
    p.add_argument("--print-config", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--features", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-ratio", type=float, default=None,
                   help="evaluate only the held-out share of this split")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("lexicon", help="build or apply a word-EEG lexicon")
    p.add_argument("action", choices=("build", "apply"))
    p.add_argument("--corpus", help="raw corpus JSONL (build)")
    p.add_argument("--lexicon", help="lexicon JSONL (apply)")
    p.add_argument("--features", help="feature db JSONL (apply)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_lexicon)

    p = sub.add_parser("explain", help="attention + LIME explanations")
    p.add_argument("--features", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--ids", required=True, help="comma-separated sentence ids")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--n-samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--kernel-width", type=float, default=DEFAULT_KERNEL_WIDTH)
    p.add_argument("--ridge-lambda", type=float, default=DEFAULT_RIDGE_LAMBDA)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("gradcheck", help="finite-difference check of every mode")
    p.add_argument("--mode", choices=MODES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--d-model", type=int, default=16)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("report", help="aggregate run reports into one CSV")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


class _StderrWarnings(logging.Handler):
    """Writes each warning as `warning: <message>` to sys.stderr as it is when
    the record arrives, so a stderr redirected after setup still gets it."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.setFormatter(logging.Formatter("warning: %(message)s"))

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:  # as logging.StreamHandler does
            self.handleError(record)


def _attach_warning_handler() -> None:
    """Route the `cogbert` logger's warnings to stderr, once per process."""
    logger = logging.getLogger("cogbert")
    if not any(isinstance(h, _StderrWarnings) for h in logger.handlers):
        logger.addHandler(_StderrWarnings())


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    _attach_warning_handler()
    try:
        return args.fn(args)
    except CogbertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
