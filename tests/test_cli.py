"""Command surface: file outputs, determinism via checksums, exit codes."""

import csv
import hashlib
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cogbert
from cogbert import cli, training
from cogbert.cli import main as cli_main
from cogbert.errors import (
    CheckpointError,
    CogbertError,
    ConfigError,
    DataError,
    EmptyResultError,
    FeatureLookupError,
    NumericError,
    ShapeError,
    ValidationError,
)
from cogbert.features import (
    EEGLexicon,
    FeatureDb,
    SentenceMeasurement,
    N_EEG_VECTORS,
    SynthConfig,
    lexicon_sentence_eeg,
    save_measurements,
)
from cogbert.model import ModelConfig, load_checkpoint, save_checkpoint
from cogbert.tokenizer import Vocab
from cogbert.training import TrainConfig


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSynth:
    def test_writes_corpus_and_features(self, synth_dir):
        assert (synth_dir / "corpus.jsonl").exists()
        assert (synth_dir / "features.jsonl").exists()
        db = FeatureDb.load_jsonl(synth_dir / "features.jsonl")
        assert len(db) == 48

    def test_rerun_is_byte_identical(self, tmp_path, synth_dir):
        out = tmp_path / "again"
        rc = cli_main(["synth", "--out", str(out), "--seed", "5", "--n-sentences", "48"])
        assert rc == 0
        assert sha256(out / "corpus.jsonl") == sha256(synth_dir / "corpus.jsonl")
        assert sha256(out / "features.jsonl") == sha256(synth_dir / "features.jsonl")

    def test_missing_out_dir_created(self, tmp_path):
        out = tmp_path / "deeply" / "nested" / "dir"
        rc = cli_main(["synth", "--out", str(out), "--seed", "1", "--n-sentences", "16"])
        assert rc == 0
        assert (out / "features.jsonl").exists()

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_classes": 1}))
        rc = cli_main(["synth", "--out", str(tmp_path / "o"), "--config", str(bad)])
        assert rc == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"banana": 3}))
        rc = cli_main(["synth", "--out", str(tmp_path / "o"), "--config", str(bad)])
        assert rc == 2

    def test_unreadable_config_exits_2(self, synth_dir, tmp_path, capsys):
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"n_sentences": 16, "note": "caf\xe9"}')
        folder = tmp_path / "cfg_dir"
        folder.mkdir()
        features = str(synth_dir / "features.jsonl")
        for path, detail in ((not_utf8, "is not valid JSON"), (folder, "is not a regular file")):
            for argv in (["synth", "--out", str(tmp_path / "o"), "--config", str(path)],
                         ["train", "--features", features, "--out", str(tmp_path / "t"),
                          "--train-config", str(path), "--print-config"]):
                rc = cli_main(argv)
                err = capsys.readouterr().err
                assert rc == 2, f"{argv[0]} {path.name}: exit {rc}"
                assert f"config {path} {detail}" in err, err

    def test_print_config(self, tmp_path, capsys):
        rc = cli_main(["synth", "--out", str(tmp_path / "o"), "--print-config"])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["n_classes"] == 8


class TestTrain:
    def test_outputs_exist(self, trained_dir):
        for name in ("report.json", "report.csv", "model.ckpt",
                     "model.ckpt.config.json", "vocab.tsv"):
            assert (trained_dir / name).exists()

    def test_report_contains_config_snapshot(self, trained_dir):
        report = json.loads((trained_dir / "report.json").read_text())
        assert report["model_config"]["mode"] == "none"
        assert report["train_config"]["epochs"] == 4
        assert len(report["runs"]) == 1
        assert report["f1_std"] == 0.0

    def test_csv_single_run_std_zero(self, trained_dir):
        with open(trained_dir / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        mean_row = [r for r in rows if r["run"] == "mean"][0]
        assert mean_row["f1_std"] == "0.0000"

    def test_rerun_byte_identical_reports(self, tmp_path, synth_dir,
                                          model_config_path, train_config_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = cli_main([
                "train", "--features", str(synth_dir / "features.jsonl"),
                "--out", str(out), "--config", str(model_config_path),
                "--train-config", str(train_config_path),
                "--mode", "eeg_embed", "--repeats", "1", "--epochs", "1", "--seed", "9",
            ])
            assert rc == 0
            outs.append(out)
        for name in ("report.json", "report.csv", "model.ckpt", "vocab.tsv"):
            assert sha256(outs[0] / name) == sha256(outs[1] / name)

    def test_non_finite_loss_exits_1_naming_the_batch(self, tmp_path, synth_dir, model_config_path,
                                                      monkeypatch, capsys):
        init_params = training.init_params

        def planted(*args, **kwargs):
            params = init_params(*args, **kwargs)
            params["classifier.b"].value[0, 0] = np.inf
            return params

        monkeypatch.setattr(training, "init_params", planted)
        with np.errstate(invalid="ignore"):
            rc = cli_main(["train", "--features", str(synth_dir / "features.jsonl"),
                           "--out", str(tmp_path / "o"), "--config", str(model_config_path),
                           "--mode", "none", "--repeats", "1", "--epochs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        prefix = ("error: training diverged: non-finite loss at epoch 0, step 0, "
                  "on the batch of sentences ")
        assert err.startswith(prefix), err
        ids = err[len(prefix):].strip().split(", ")
        assert len(ids) == TrainConfig().batch_size and all(i.startswith("s") for i in ids), err

    def test_words_with_line_separators_reach_eval_and_explain(self, synth_dir,
                                                                model_config_path, tmp_path):
        """A word may hold any character str.splitlines splits at but a line feed: train
        stores it in vocab.tsv, and eval and explain read it back."""
        objs = [json.loads(line) for line in (synth_dir / "features.jsonl").read_text().splitlines()]
        for obj, char in zip(objs, "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"):
            obj["tokens"][0] += char
        features, out = tmp_path / "features.jsonl", tmp_path / "o"
        features.write_text("".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs),
                            encoding="utf-8")
        assert cli_main(["train", "--features", str(features), "--out", str(out),
                         "--config", str(model_config_path), "--mode", "none",
                         "--repeats", "1", "--epochs", "1"]) == 0
        words = Vocab.load(out / "vocab.tsv").word_to_id
        assert all(obj["tokens"][0] in words for obj in objs)
        model = ["--features", str(features), "--checkpoint", str(out / "model.ckpt"),
                 "--vocab", str(out / "vocab.tsv")]
        assert cli_main(["eval", *model, "--out", str(tmp_path / "eval")]) == 0
        assert cli_main(["explain", *model, "--ids", objs[7]["id"], "--n-samples", "20",
                         "--out", str(tmp_path / "explain")]) == 0

    def test_missing_features_exits_3(self, tmp_path):
        rc = cli_main(["train", "--features", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_robustness_preset(self, synth_dir, model_config_path, tmp_path, capsys):
        rc = cli_main([
            "train", "--features", str(synth_dir / "features.jsonl"),
            "--out", str(tmp_path / "o"), "--config", str(model_config_path),
            "--robustness", "--print-config",
        ])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["train"]["repeats"] == 5
        assert printed["train"]["epochs"] == 10
        assert printed["train"]["init_source"] == "random"

    def test_seed_flag_overrides_train_config_only_when_given(self, synth_dir, tmp_path, capsys):
        with_seed, without = tmp_path / "seed7.json", tmp_path / "noseed.json"
        with_seed.write_text(json.dumps({"seed": 7}))
        without.write_text(json.dumps({}))
        for train_cfg, flags, want in ((with_seed, [], 7), (with_seed, ["--seed", "3"], 3),
                                       (without, [], 0)):
            rc = cli_main(["train", "--features", str(synth_dir / "features.jsonl"),
                           "--out", str(tmp_path / "o"), "--train-config", str(train_cfg),
                           "--print-config", *flags])
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["train"]["seed"] == want, flags


class TestEval:
    def test_eval_checkpoint(self, trained_dir, synth_dir, tmp_path):
        out = tmp_path / "eval"
        rc = cli_main([
            "eval", "--features", str(synth_dir / "features.jsonl"),
            "--checkpoint", str(trained_dir / "model.ckpt"),
            "--vocab", str(trained_dir / "vocab.tsv"),
            "--out", str(out), "--seed", "3", "--split-ratio", "0.8",
        ])
        assert rc == 0
        result = json.loads((out / "eval.json").read_text())
        assert result["n_sentences"] == 10  # 48 - floor(0.8*48)
        assert 0.0 <= result["metrics"]["accuracy"] <= 1.0


class TestLexicon:
    def test_build_then_apply_matches_direct_oracle(self, synth_dir, tmp_path, capsys):
        lex_path = tmp_path / "lexicon.jsonl"
        rc = cli_main(["lexicon", "build", "--corpus", str(synth_dir / "corpus.jsonl"),
                       "--out", str(lex_path)])
        assert rc == 0
        assert "lexicon contains" in capsys.readouterr().out

        applied = tmp_path / "applied.jsonl"
        rc = cli_main(["lexicon", "apply", "--lexicon", str(lex_path),
                       "--features", str(synth_dir / "features.jsonl"),
                       "--out", str(applied)])
        assert rc == 0

        lexicon = EEGLexicon.load_jsonl(lex_path)
        db = FeatureDb.load_jsonl(synth_dir / "features.jsonl")
        out_db = FeatureDb.load_jsonl(applied)
        n_channels = len(next(iter(lexicon.vectors.values())))
        for sid in db.ids():
            expected, _ = lexicon_sentence_eeg(db.get(sid).tokens, lexicon, n_channels)
            np.testing.assert_allclose(out_db.get(sid).sentence_eeg, expected, atol=1e-12)

        coverage = json.loads((tmp_path / "applied.jsonl.coverage.json").read_text())
        assert set(coverage["per_sentence"]) == set(db.ids())
        # Words never fixated anywhere are absent from the lexicon, so even
        # same-corpus coverage sits below 1.0 but well above zero.
        assert 0.5 < coverage["mean_coverage"] <= 1.0

    def test_fully_unfixated_corpus_exits_4(self, tmp_path):
        m = SentenceMeasurement(
            sentence_id="s0", words=["a", "b"], label=0,
            n_fixations=[0, 0], durations=np.zeros((2, 5)),
            word_eeg=np.zeros((0, N_EEG_VECTORS, 4)),
            sentence_bands=np.zeros((8, 4)),
        )
        corpus = tmp_path / "corpus.jsonl"
        save_measurements([m], corpus)
        rc = cli_main(["lexicon", "build", "--corpus", str(corpus),
                       "--out", str(tmp_path / "lex.jsonl")])
        assert rc == 4

    def test_empty_feature_db_exits_4_writing_nothing(self, synth_dir, tmp_path, capsys):
        lex_path = tmp_path / "lexicon.jsonl"
        assert cli_main(["lexicon", "build", "--corpus", str(synth_dir / "corpus.jsonl"),
                         "--out", str(lex_path)]) == 0
        empty, out = tmp_path / "empty.jsonl", tmp_path / "applied.jsonl"
        empty.write_text("")
        capsys.readouterr()
        rc = cli_main(["lexicon", "apply", "--lexicon", str(lex_path),
                       "--features", str(empty), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err == f"error: feature db {empty} holds no sentences\n", captured.err
        assert not out.exists() and not (tmp_path / "applied.jsonl.coverage.json").exists()

    def test_empty_lexicon_exits_4_writing_nothing(self, synth_dir, tmp_path, capsys):
        empty, out = tmp_path / "empty.jsonl", tmp_path / "applied.jsonl"
        empty.write_text("")
        rc = cli_main(["lexicon", "apply", "--lexicon", str(empty),
                       "--features", str(synth_dir / "features.jsonl"), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err == f"error: lexicon file {empty} holds no entries\n", captured.err
        assert not out.exists() and not (tmp_path / "applied.jsonl.coverage.json").exists()

    def test_oov_corpus_gets_zero_vectors(self, synth_dir, tmp_path, capsys):
        lex_path = tmp_path / "lexicon.jsonl"
        assert cli_main(["lexicon", "build", "--corpus", str(synth_dir / "corpus.jsonl"),
                        "--out", str(lex_path)]) == 0
        foreign = FeatureDb.load_jsonl(synth_dir / "features.jsonl")
        records = []
        for sid in foreign.ids()[:4]:
            rec = foreign.get(sid)
            rec.tokens = [f"alien{i}" for i in range(len(rec.tokens))]
            records.append(rec)
        foreign_path = tmp_path / "foreign.jsonl"
        FeatureDb(records).save_jsonl(foreign_path)
        out = tmp_path / "applied.jsonl"
        rc = cli_main(["lexicon", "apply", "--lexicon", str(lex_path),
                       "--features", str(foreign_path), "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "no lexicon coverage" not in captured.out
        assert captured.err == "".join(f"warning: no lexicon coverage for {sid}; zero vector "
                                       f"substituted\n" for sid in foreign.ids()[:4])
        out_db = FeatureDb.load_jsonl(out)
        for sid in out_db.ids():
            assert not out_db.get(sid).sentence_eeg.any()

    def test_build_without_corpus_exits_2(self, tmp_path, capsys):
        assert cli_main(["lexicon", "build", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "error: lexicon build requires --corpus\n"

    def test_apply_without_lexicon_or_features_exits_2(self, tmp_path, capsys):
        for given in (["--lexicon", "lexicon.jsonl"], ["--features", "features.jsonl"], []):
            assert cli_main(["lexicon", "apply", *given, "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert err == "error: lexicon apply requires --lexicon and --features\n", given
        assert not (tmp_path / "x").exists()


def test_warnings_reach_current_stderr_once_with_prefix(tmp_path, capsys):
    """main attaches one handler however often it runs, and it writes to the
    stderr of the moment, so a library warning logged later lands in capsys."""
    for _ in range(3):
        assert cli_main(["lexicon", "build", "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    logging.getLogger("cogbert.training").warning("s1: truncating %d word(s)", 2)
    assert capsys.readouterr() == ("", "warning: s1: truncating 2 word(s)\n")
    handlers = logging.getLogger("cogbert").handlers
    assert sum(isinstance(h, cli._StderrWarnings) for h in handlers) == 1


def test_exit_code_lives_on_the_error_type(monkeypatch, capsys):
    """main returns the raised error's exit_code after one `error:` line;
    FileNotFoundError exits 3."""
    codes = {CogbertError: 1, ShapeError: 1, NumericError: 1, ValidationError: 2,
             ConfigError: 2, DataError: 3, FeatureLookupError: 3, CheckpointError: 3,
             EmptyResultError: 4, FileNotFoundError: 3}
    for error, code in codes.items():
        def fail(*args, **kwargs):
            raise error(f"boom {error.__name__}")
        monkeypatch.setattr(cli, "gradcheck_mode", fail)
        assert cli_main(["gradcheck", "--mode", "none"]) == code, error
        assert capsys.readouterr() == ("", f"error: boom {error.__name__}\n"), error


# The work each command does after checking --out; none of it may run when --out is unusable.
OUT_WORK = ((cogbert.features, "synth_generate"), (training, "repeat_runs"),
            (training, "evaluate"), (cli, "explain_sentence"), (cli, "gradcheck_mode"),
            (cogbert.features, "build_lexicon"), (cogbert.features, "apply_lexicon"),
            (cli, "_score_cells"))
DIR_OUT = ("synth", "train", "eval", "explain", "gradcheck")
FILE_OUT = ("lexicon build", "lexicon apply", "report")


class TestUnusableOut:
    """An --out that cannot be written exits 2 with one `error:` line naming it,
    before the command's work and creating or overwriting nothing."""

    @staticmethod
    def argv(command, out, synth_dir, trained_dir, model_config_path, lexicon):
        features = str(synth_dir / "features.jsonl")
        model = ["--checkpoint", str(trained_dir / "model.ckpt"),
                 "--vocab", str(trained_dir / "vocab.tsv")]
        return {
            "synth": ["synth", "--seed", "1", "--n-sentences", "16"],
            "train": ["train", "--features", features, "--config", str(model_config_path),
                      "--repeats", "1", "--epochs", "1"],
            "eval": ["eval", "--features", features, *model],
            "explain": ["explain", "--features", features, *model,
                        "--ids", FeatureDb.load_jsonl(features).ids()[0], "--n-samples", "10"],
            "gradcheck": ["gradcheck", "--mode", "none"],
            "lexicon build": ["lexicon", "build", "--corpus", str(synth_dir / "corpus.jsonl")],
            "lexicon apply": ["lexicon", "apply", "--lexicon", str(lexicon),
                              "--features", features],
            "report": ["report", "--inputs", str(trained_dir / "report.json")],
        }[command] + ["--out", str(out)]

    @pytest.mark.parametrize("command, kind", [
        *((command, kind) for command in DIR_OUT for kind in ("existing file", "under a file")),
        *((command, kind) for command in FILE_OUT
          for kind in ("existing directory", "under a file")),
    ])
    def test_exits_2_before_any_work(self, command, kind, synth_dir, trained_dir,
                                     model_config_path, tmp_path, monkeypatch, capsys):
        lexicon = tmp_path / "lexicon.jsonl"
        assert cli_main(["lexicon", "build", "--corpus", str(synth_dir / "corpus.jsonl"),
                         "--out", str(lexicon)]) == 0
        blocker = tmp_path / "blocker"
        if kind == "existing directory":
            blocker.mkdir()
            (blocker / "kept.txt").write_text("kept")
        else:
            blocker.write_text("kept")
        out = blocker if kind.startswith("existing") else blocker / "x"
        for owner, name in OUT_WORK:
            monkeypatch.setattr(owner, name, lambda *a, **k: pytest.fail("the work ran"))
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        rc = cli_main(self.argv(command, out, synth_dir, trained_dir, model_config_path, lexicon))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: --out {out}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert sorted(tmp_path.rglob("*")) == before
        kept = blocker / "kept.txt" if blocker.is_dir() else blocker
        assert kept.read_text() == "kept"

    def test_print_config_reads_no_out(self, synth_dir, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        for argv in (["synth"], ["train", "--features", str(synth_dir / "features.jsonl")]):
            assert cli_main([*argv, "--out", str(blocker), "--print-config"]) == 0
            assert json.loads(capsys.readouterr().out)
        assert blocker.read_text() == "kept"


class TestExplain:
    def explain_args(self, trained_dir, synth_dir, out, ids, seed="7"):
        return [
            "explain",
            "--features", str(synth_dir / "features.jsonl"),
            "--checkpoint", str(trained_dir / "model.ckpt"),
            "--vocab", str(trained_dir / "vocab.tsv"),
            "--ids", ids, "--out", str(out),
            "--n-samples", "60", "--seed", seed,
        ]

    def test_outputs_and_determinism(self, trained_dir, synth_dir, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            rc = cli_main(self.explain_args(trained_dir, synth_dir, out, "s0000,s0001"))
            assert rc == 0
            outs.append(out)
        for name in ("explain_s0000.json", "heatmap_s0000.csv", "explain_summary.json"):
            assert sha256(outs[0] / name) == sha256(outs[1] / name)

    def test_csv_has_one_row_per_content_word(self, trained_dir, synth_dir, tmp_path):
        out = tmp_path / "e"
        rc = cli_main(self.explain_args(trained_dir, synth_dir, out, "s0002"))
        assert rc == 0
        db = FeatureDb.load_jsonl(synth_dir / "features.jsonl")
        n_words = min(len(db.get("s0002").tokens), 16 - 2)
        with open(out / "heatmap_s0002.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n_words

    def test_repeated_id_is_explained_once(self, trained_dir, synth_dir, tmp_path, capsys):
        out = tmp_path / "e"
        rc = cli_main(self.explain_args(trained_dir, synth_dir, out, "s0001,s0000,s0001,s0000"))
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed[:-1]] == ["s0001", "s0000"]
        assert printed[-1].startswith("mean overlap@5 over 2 sentences")
        summary = json.loads((out / "explain_summary.json").read_text())
        assert summary["sentences"] == ["s0001", "s0000"]
        assert len(summary["overlaps"]) == 2

    def test_unknown_sentence_exits_3(self, trained_dir, synth_dir, tmp_path):
        rc = cli_main(self.explain_args(trained_dir, synth_dir, tmp_path / "e", "sXXXX"))
        assert rc == 3

    def test_unknown_sentence_message_is_unquoted(self, trained_dir, synth_dir, tmp_path, capsys):
        rc = cli_main(self.explain_args(trained_dir, synth_dir, tmp_path / "e", "ghost"))
        assert rc == 3
        assert capsys.readouterr().err == "error: no cognitive record for sentence id 'ghost'\n"

    def test_bad_options_exit_2_before_any_output(self, trained_dir, synth_dir, tmp_path, capsys):
        out = tmp_path / "e"
        for extra, message in (
            (["--kernel-width", "0"], "kernel width must be a finite number > 0, got 0.0"),
            (["--kernel-width", "nan"], "kernel width must be a finite number > 0, got nan"),
            (["--ridge-lambda", "-1"], "ridge lambda must be a finite number >= 0, got -1.0"),
            (["--k", "0"], "k must be >= 1"),
            (["--n-samples", "5"], "need at least 10 perturbation samples"),
        ):
            rc = cli_main(self.explain_args(trained_dir, synth_dir, out, "s0000,s0001") + extra)
            captured = capsys.readouterr()
            assert rc == 2, f"{extra}: exit {rc}"
            assert captured.err == f"error: {message}\n", captured.err
            assert captured.out == "" and not out.exists(), extra

    def test_kernel_too_narrow_for_every_sample_exits_1_writing_nothing(self, trained_dir,
                                                                         synth_dir, tmp_path,
                                                                         capsys):
        """s0005 keeps 13 words and none of its 60 samples at seed 7 keeps 12 or 13 of
        them, so every sample weight underflows to 0 at width 0.25 (no NaN scores)."""
        out = tmp_path / "e"
        argv = self.explain_args(trained_dir, synth_dir, out, "s0000,s0005")
        rc = cli_main(argv + ["--kernel-width", "0.25"])
        captured = capsys.readouterr()
        assert rc == 1, f"exit {rc}: {captured.err}"
        assert captured.err == ("error: sentence s0005: kernel width 0.25 leaves none of the "
                                "60 perturbations a positive weight; use a wider kernel\n")
        assert captured.out == "" and not out.exists()

    def test_empty_record_after_a_valid_id_exits_3_writing_nothing(self, trained_dir, synth_dir,
                                                                    tmp_path, capsys):
        objs = [json.loads(line) for line in (synth_dir / "features.jsonl").read_text().splitlines()]
        objs[1].update(tokens=[], n_fixations=[], eye_tokens=[], eeg_tokens=[])
        path, out = tmp_path / "features.jsonl", tmp_path / "e"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        argv = self.explain_args(trained_dir, synth_dir, out, f"{objs[0]['id']},{objs[1]['id']}")
        argv[argv.index("--features") + 1] = str(path)
        rc = cli_main(argv)
        captured = capsys.readouterr()
        assert rc == 3, f"exit {rc}: {captured.err}"
        assert captured.err == f"error: feature record {objs[1]['id']} has no words to explain\n"
        assert captured.out == "" and not out.exists()


class TestMalformedInputs:
    """Corrupt checkpoints and data files exit 3 with a message naming the file."""

    @staticmethod
    def eval_args(synth_dir, trained_dir, out, features=None, checkpoint=None, vocab=None):
        return [
            "eval", "--features", str(features or synth_dir / "features.jsonl"),
            "--checkpoint", str(checkpoint or trained_dir / "model.ckpt"),
            "--vocab", str(vocab or trained_dir / "vocab.tsv"),
            "--out", str(out),
        ]

    @staticmethod
    def copy_checkpoint(trained_dir, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes((trained_dir / "model.ckpt").read_bytes())
        sidecar = tmp_path / "model.ckpt.config.json"
        sidecar.write_text((trained_dir / "model.ckpt.config.json").read_text())
        return ckpt, sidecar

    def test_truncated_checkpoint_exits_3(self, trained_dir, synth_dir, tmp_path, capsys):
        ckpt, _ = self.copy_checkpoint(trained_dir, tmp_path)
        blob = ckpt.read_bytes()
        n_tensors = int(blob[:blob.index(b"\n")].split()[-1])
        header_len = sum(len(line) + 1 for line in blob.split(b"\n", n_tensors + 1)[:n_tensors + 1])
        cuts = [0, 10, header_len // 2, header_len - 1, header_len, header_len + 100,
                len(blob) - 8, len(blob) - 1]
        for cut in cuts:
            ckpt.write_bytes(blob[:cut])
            rc = cli_main(self.eval_args(synth_dir, trained_dir, tmp_path / "o", checkpoint=ckpt))
            err = capsys.readouterr().err
            assert rc == 3, f"cut at {cut}: exit {rc}"
            assert str(ckpt) in err, f"cut at {cut}: {err}"
            if cut >= header_len:
                assert "tensor" in err, f"cut at {cut}: {err}"

    def test_malformed_sidecar_exits_3(self, trained_dir, synth_dir, tmp_path, capsys):
        ckpt, sidecar = self.copy_checkpoint(trained_dir, tmp_path)
        cfg = json.loads(sidecar.read_text())
        dropped = {k: v for k, v in cfg.items() if k != "dropout"}
        variants = {  # sidecar text -> what the message must say
            json.dumps({**cfg, "colour": "blue"}): "unexpected: colour",
            json.dumps(dropped): "missing: dropout",
            json.dumps([cfg]): "JSON object",
            "{": "not valid JSON",
            json.dumps({**cfg, "layers": "two"}): "invalid model config",
        }
        for text, detail in variants.items():
            sidecar.write_text(text)
            rc = cli_main(self.eval_args(synth_dir, trained_dir, tmp_path / "o", checkpoint=ckpt))
            err = capsys.readouterr().err
            assert rc == 3, f"{detail}: exit {rc}"
            assert str(sidecar) in err and detail in err, err

    def test_truncated_features_exits_3(self, trained_dir, synth_dir, tmp_path, capsys):
        text = (synth_dir / "features.jsonl").read_text()
        lines = text.splitlines()
        cut = len(lines[0]) + 1 + len(lines[1]) + 1 + len(lines[2]) // 2  # inside line 3
        broken = tmp_path / "features.jsonl"
        broken.write_text(text[:cut])
        rc = cli_main(self.eval_args(synth_dir, trained_dir, tmp_path / "o", features=broken))
        assert rc == 3
        assert f"{broken}:3" in capsys.readouterr().err

    def test_feature_db_as_vocab_exits_3(self, trained_dir, synth_dir, tmp_path, capsys):
        features = synth_dir / "features.jsonl"
        rc = cli_main(self.eval_args(synth_dir, trained_dir, tmp_path / "o", vocab=features))
        assert rc == 3
        assert f"{features}:1" in capsys.readouterr().err

    def test_vocab_larger_than_checkpoint_exits_3(self, trained_dir, synth_dir, tmp_path, capsys):
        vocab = tmp_path / "vocab.tsv"
        vocab.write_text((trained_dir / "vocab.tsv").read_text() + "stranger\t4000\n")
        explain = ["explain", "--features", str(synth_dir / "features.jsonl"),
                   "--checkpoint", str(trained_dir / "model.ckpt"), "--vocab", str(vocab),
                   "--ids", "s0000", "--out", str(tmp_path / "e")]
        for argv in (self.eval_args(synth_dir, trained_dir, tmp_path / "o", vocab=vocab), explain):
            rc = cli_main(argv)
            err = capsys.readouterr().err
            assert rc == 3, f"{argv[0]}: exit {rc}"
            assert str(vocab) in err and str(trained_dir / "model.ckpt") in err, err
            assert "4000" in err, err

    def test_sentence_eeg_channels_unlike_checkpoint_exits_3(self, trained_dir, synth_dir,
                                                              model_config_path, tmp_path, capsys):
        """A db with fewer sentence-EEG channels than a pool-mode checkpoint reads exits 3
        naming both files before --out; a mode that reads no sentence EEG evaluates it."""
        pooled = tmp_path / "pooled"
        assert cli_main(["train", "--features", str(synth_dir / "features.jsonl"),
                         "--config", str(model_config_path), "--mode", "pool_concat",
                         "--repeats", "1", "--epochs", "1", "--out", str(pooled)]) == 0
        objs = [json.loads(line) for line in (synth_dir / "features.jsonl").read_text().splitlines()]
        assert len(objs[0]["sentence_eeg"]) == 8
        path, out = tmp_path / "features4.jsonl", tmp_path / "o"
        path.write_text("".join(json.dumps({**obj, "sentence_eeg": obj["sentence_eeg"][:4]}) + "\n"
                                for obj in objs))
        ckpt = pooled / "model.ckpt"
        explain = ["explain", "--features", str(path), "--checkpoint", str(ckpt),
                   "--vocab", str(pooled / "vocab.tsv"), "--ids", "s0000", "--out", str(out)]
        for argv in (self.eval_args(synth_dir, pooled, out, features=path), explain):
            rc = cli_main(argv)
            err = capsys.readouterr().err
            assert rc == 3, f"{argv[0]}: exit {rc}: {err}"
            assert err == (f"error: feature db {path} holds 4-channel sentence EEG, but checkpoint "
                           f"{ckpt} (mode pool_concat) reads 8 channels\n"), err
            assert not out.exists(), argv[0]
        assert cli_main(self.eval_args(synth_dir, trained_dir, out, features=path)) == 0

    def test_labels_that_fit_no_model_exit_before_output(self, synth_dir, tmp_path, capsys):
        """A db whose labels are all 0 exits 3 naming the db; one whose largest label puts
        the classifier over the memory budget exits 2 naming n_classes. Both before --out,
        with or without --print-config."""
        objs = [json.loads(line) for line in (synth_dir / "features.jsonl").read_text().splitlines()]
        path, out = tmp_path / "features.jsonl", tmp_path / "o"
        huge = [{**obj, "label": 10**12} if i == 3 else obj for i, obj in enumerate(objs)]
        for labelled, rc_want, detail in (
                ([{**obj, "label": 0} for obj in objs], 3,
                 f"error: feature db {path}: every sentence has label 0; "
                 f"training needs at least 2 classes\n"),
                (huge, 2, "exceeds the 4 GiB budget; it grows with n_classes, d_model\n")):
            path.write_text("".join(json.dumps(obj) + "\n" for obj in labelled))
            for flags in ([], ["--print-config"]):
                rc = cli_main(["train", "--features", str(path), "--out", str(out), *flags])
                captured = capsys.readouterr()
                assert rc == rc_want, f"{flags}: exit {rc}: {captured.err}"
                assert captured.err.endswith(detail), captured.err
                assert captured.out == "" and not out.exists(), flags

    def test_word_with_line_feed_exits_3_before_output(self, synth_dir, tmp_path, capsys):
        """vocab.tsv holds one word per line, so train rejects a word with a line feed,
        naming the db and the sentence, before --out, with or without --print-config."""
        objs = [json.loads(line) for line in (synth_dir / "features.jsonl").read_text().splitlines()]
        objs[5]["tokens"][2] = "two\nlines"
        path, out = tmp_path / "features.jsonl", tmp_path / "o"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        for flags in ([], ["--print-config"]):
            rc = cli_main(["train", "--features", str(path), "--out", str(out), *flags])
            captured = capsys.readouterr()
            assert rc == 3, f"{flags}: exit {rc}: {captured.err}"
            assert captured.err == (f"error: feature db {path}: sentence {objs[5]['id']!r}: "
                                    f"word 'two\\nlines' holds a line feed, which a vocab "
                                    f"file cannot store\n"), captured.err
            assert captured.out == "" and not out.exists(), flags

    def test_fewer_than_two_sentences_exits_3_naming_db_and_count(self, synth_dir, tmp_path,
                                                                   capsys):
        """train needs 2 sentences to split: a db with 1 or 0 exits 3 before --out."""
        first = (synth_dir / "features.jsonl").read_text().splitlines(keepends=True)[0]
        path, out = tmp_path / "features.jsonl", tmp_path / "o"
        for text, count in ((first, "1 sentence"), ("", "0 sentences")):
            path.write_text(text)
            for flags in ([], ["--print-config"]):
                rc = cli_main(["train", "--features", str(path), "--out", str(out), *flags])
                captured = capsys.readouterr()
                assert rc == 3, f"{count} {flags}: exit {rc}: {captured.err}"
                assert captured.err == (f"error: feature db {path} holds {count}; "
                                        f"training needs at least 2\n"), captured.err
                assert captured.out == "" and not out.exists(), flags

    def test_empty_feature_db_exits_4_before_output(self, trained_dir, synth_dir, tmp_path,
                                                    capsys):
        """eval and explain on a db with no sentences exit 4 naming it, as lexicon apply does."""
        empty, out = tmp_path / "empty.jsonl", tmp_path / "o"
        empty.write_text("")
        explain = ["explain", "--features", str(empty), "--checkpoint",
                   str(trained_dir / "model.ckpt"), "--vocab", str(trained_dir / "vocab.tsv"),
                   "--ids", "s0000", "--out", str(out)]
        for argv in (self.eval_args(synth_dir, trained_dir, out, features=empty), explain):
            rc = cli_main(argv)
            captured = capsys.readouterr()
            assert rc == 4, f"{argv[0]}: exit {rc}: {captured.err}"
            assert captured.err == f"error: feature db {empty} holds no sentences\n", captured.err
            assert captured.out == "" and not out.exists(), argv[0]

    def test_repeated_vocab_word_or_id_exits_3(self, trained_dir, synth_dir, tmp_path, capsys):
        lines = (trained_dir / "vocab.tsv").read_text().splitlines()
        word, ident = lines[4].split("\t")
        vocab = tmp_path / "vocab.tsv"
        explain = ["explain", "--features", str(synth_dir / "features.jsonl"),
                   "--checkpoint", str(trained_dir / "model.ckpt"), "--vocab", str(vocab),
                   "--ids", "s0000", "--out", str(tmp_path / "e")]
        for extra, what in ((f"{word}\t4000", f"word {word!r}"),
                            (f"stranger\t{ident}", f"id {ident}")):
            vocab.write_text("\n".join([*lines, extra]) + "\n")
            for argv in (self.eval_args(synth_dir, trained_dir, tmp_path / "o", vocab=vocab),
                         explain):
                rc = cli_main(argv)
                err = capsys.readouterr().err
                assert rc == 3, f"{argv[0]} {extra!r}: exit {rc}"
                assert f"{vocab}:{len(lines) + 1}: {what} is already assigned on line 5" in err, err
        assert not (tmp_path / "o").exists() and not (tmp_path / "e").exists()

    def test_label_beyond_checkpoint_classes_exits_3(self, trained_dir, synth_dir, tmp_path,
                                                      capsys):
        sidecar = json.loads((trained_dir / "model.ckpt.config.json").read_text())
        objs = [json.loads(line) for line in (synth_dir / "features.jsonl").read_text().splitlines()]
        for obj in objs[5::2]:
            obj["label"] = sidecar["n_classes"] + 1
        path, out = tmp_path / "features.jsonl", tmp_path / "o"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        rc = cli_main(self.eval_args(synth_dir, trained_dir, out, features=path))
        err = capsys.readouterr().err
        assert rc == 3, f"exit {rc}: {err}"
        assert err == (f"error: feature db {path} labels sentence {objs[5]['id']} as class "
                       f"{sidecar['n_classes'] + 1}, but checkpoint {trained_dir / 'model.ckpt'} "
                       f"has only {sidecar['n_classes']} classes\n"), err
        assert not out.exists()

    def test_reordered_checkpoint_exits_3(self, trained_dir, synth_dir, tmp_path, capsys):
        """Two header entries swapped along with their data: not the header save_checkpoint
        writes for the sidecar's config, so it is refused naming the first line that differs."""
        ckpt, sidecar = self.copy_checkpoint(trained_dir, tmp_path)
        blob = ckpt.read_bytes()
        n_tensors = int(blob[:blob.index(b"\n")].split()[-1])
        *header, data = blob.split(b"\n", n_tensors + 1)
        starts = np.cumsum([0, *(8 * int(rows) * int(cols)
                                 for _, rows, cols in map(bytes.split, header[1:]))])
        chunks = [data[a:b] for a, b in zip(starts, starts[1:])]
        names = [line.split()[0].decode() for line in header[1:]]
        i, j = names.index("layer0.attn.bq"), names.index("layer0.attn.bk")
        header[i + 1], header[j + 1] = header[j + 1], header[i + 1]
        chunks[i], chunks[j] = chunks[j], chunks[i]
        ckpt.write_bytes(b"\n".join(header) + b"\n" + b"".join(chunks))
        rc = cli_main(self.eval_args(synth_dir, trained_dir, tmp_path / "o", checkpoint=ckpt))
        err = capsys.readouterr().err
        assert rc == 3, f"exit {rc}: {err}"
        have, need = (header[k].decode() + "\n" for k in (i + 1, j + 1))
        assert err == (f"error: {ckpt}: header line {i + 2} is {have!r}, "
                       f"the config in {sidecar} needs {need!r}\n"), err
        assert not (tmp_path / "o").exists()

    def test_directory_inputs_exit_3(self, trained_dir, synth_dir, model_config_path,
                                     tmp_path, capsys):
        folder = tmp_path / "a_directory"
        folder.mkdir()
        # a checkpoint reached through the train config, with a valid sidecar beside it
        (tmp_path / "a_directory.config.json").write_text(
            (trained_dir / "model.ckpt.config.json").read_text())
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"init_source": str(folder)}))
        commands = {
            "report": ["report", "--inputs", str(folder), "--out", str(tmp_path / "c.csv")],
            "train": ["train", "--features", str(folder), "--out", str(tmp_path / "t")],
            "eval": self.eval_args(synth_dir, trained_dir, tmp_path / "o", vocab=folder),
            "init_source": ["train", "--features", str(synth_dir / "features.jsonl"),
                            "--config", str(model_config_path), "--train-config", str(train_cfg),
                            "--repeats", "1", "--epochs", "1", "--out", str(tmp_path / "t")],
        }
        for name, argv in commands.items():
            rc = cli_main(argv)
            err = capsys.readouterr().err
            assert rc == 3, f"{name}: exit {rc}"
            assert f"{folder} is not a regular file" in err, f"{name}: {err}"

        ckpt, sidecar = self.copy_checkpoint(trained_dir, tmp_path)
        sidecar.unlink()
        sidecar.mkdir()
        rc = cli_main(self.eval_args(synth_dir, trained_dir, tmp_path / "o", checkpoint=ckpt))
        err = capsys.readouterr().err
        assert rc == 3, f"sidecar: exit {rc}"
        assert f"missing config sidecar {sidecar}" in err, err

    def test_bad_init_source_fails_before_any_output(self, trained_dir, synth_dir,
                                                     model_config_path, tmp_path, capsys):
        sources = {  # init_source -> (mode, what the message must say)
            tmp_path / "absent.ckpt": ("none", "missing config sidecar"),
            trained_dir / "model.ckpt": ("eeg_embed", "does not match requested"),
        }
        for source, (mode, detail) in sources.items():
            train_cfg = tmp_path / "train.json"
            train_cfg.write_text(json.dumps({"init_source": str(source)}))
            out = tmp_path / "t"
            rc = cli_main(["train", "--features", str(synth_dir / "features.jsonl"),
                           "--config", str(model_config_path), "--train-config", str(train_cfg),
                           "--mode", mode, "--repeats", "1", "--epochs", "1", "--out", str(out)])
            captured = capsys.readouterr()
            assert rc == 3, f"{source.name}: exit {rc}"
            assert str(source) in captured.err and detail in captured.err, captured.err
            assert "training mode" not in captured.out, captured.out
            assert not out.exists()

    def test_unknown_explain_id_fails_before_any_output(self, trained_dir, synth_dir, tmp_path,
                                                       capsys):
        out = tmp_path / "e"
        rc = cli_main(TestExplain().explain_args(trained_dir, synth_dir, out, "s0000,ghost"))
        captured = capsys.readouterr()
        assert rc == 3
        assert "sentence id 'ghost'" in captured.err, captured.err
        assert captured.out == "" and not out.exists()

    def test_non_finite_checkpoint_exits_3(self, trained_dir, synth_dir, tmp_path, capsys):
        ckpt, _ = self.copy_checkpoint(trained_dir, tmp_path)
        params = load_checkpoint(ckpt)
        explain = ["explain", "--features", str(synth_dir / "features.jsonl"),
                   "--checkpoint", str(ckpt), "--vocab", str(trained_dir / "vocab.tsv"),
                   "--ids", "s0000", "--out", str(tmp_path / "e")]
        for bad in (np.nan, np.inf):
            params["classifier.w"].value[0, 0] = bad
            save_checkpoint(params, ckpt)
            for argv in (self.eval_args(synth_dir, trained_dir, tmp_path / "o", checkpoint=ckpt),
                         explain):
                rc = cli_main(argv)
                err = capsys.readouterr().err
                assert rc == 3, f"{argv[0]} {bad}: exit {rc}"
                assert f"{ckpt}: tensor classifier.w holds non-finite values" in err, err
        assert not (tmp_path / "o").exists() and not (tmp_path / "e").exists()

    def test_checkpoint_as_text_input_exits_3(self, trained_dir, synth_dir, tmp_path, capsys):
        ckpt = trained_dir / "model.ckpt"
        for flag in ("features", "vocab"):
            rc = cli_main(self.eval_args(synth_dir, trained_dir, tmp_path / "o", **{flag: ckpt}))
            assert rc == 3, flag
            assert f"{ckpt}: not a UTF-8" in capsys.readouterr().err

    def test_bad_feature_values_exit_3(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "features.jsonl").read_text().splitlines()
        for field, value in (("sentence_eeg", float("nan")), ("eeg_tokens", 101),
                             ("eye_tokens", -1)):
            bad = json.loads(lines[4])
            bad[field][0] = value
            path = tmp_path / f"bad_{field}.jsonl"
            path.write_text("\n".join(lines[:4] + [json.dumps(bad)] + lines[5:]) + "\n")
            rc = cli_main(["train", "--features", str(path), "--out", str(tmp_path / "o"),
                           "--mode", "pool_concat", "--print-config"])
            err = capsys.readouterr().err
            assert rc == 3, f"{field}: exit {rc}"
            assert f"{path}:5 (id {bad['id']!r})" in err and field in err, err

    def test_features_without_sentence_eeg_exit_3(self, trained_dir, synth_dir, tmp_path, capsys):
        objs = [json.loads(line) for line in (synth_dir / "features.jsonl").read_text().splitlines()]
        path, out = tmp_path / "features.jsonl", tmp_path / "o"
        path.write_text("".join(json.dumps({**obj, "sentence_eeg": []}) + "\n" for obj in objs))
        first = objs[0]["id"]
        for argv in (["train", "--features", str(path), "--mode", "none", "--print-config",
                      "--out", str(out)],
                     self.eval_args(synth_dir, trained_dir, out, features=path)):
            rc = cli_main(argv)
            err = capsys.readouterr().err
            assert rc == 3, f"{argv[0]}: exit {rc}"
            assert err == f"error: {path}:1 (id {first!r}): {first}: sentence_eeg is empty\n", err
            assert not out.exists()

    def test_malformed_corpus_and_lexicon_exit_3(self, synth_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text((synth_dir / "corpus.jsonl").read_text()[:200])
        assert cli_main(["lexicon", "build", "--corpus", str(corpus),
                         "--out", str(tmp_path / "x")]) == 3
        assert f"{corpus}:1" in capsys.readouterr().err

        lex = tmp_path / "lexicon.jsonl"
        assert cli_main(["lexicon", "build", "--corpus", str(synth_dir / "corpus.jsonl"),
                         "--out", str(lex)]) == 0
        entries = [json.loads(line) for line in lex.read_text().splitlines()]
        entries[2]["vector"][0] = float("nan")
        bad_lex = tmp_path / "bad_lexicon.jsonl"
        for text, where in ((lex.read_text()[:40], ":1"),
                            ("".join(json.dumps(e) + "\n" for e in entries),
                             f":3 (word {entries[2]['word']!r})")):
            bad_lex.write_text(text)
            assert cli_main(["lexicon", "apply", "--lexicon", str(bad_lex),
                             "--features", str(synth_dir / "features.jsonl"),
                             "--out", str(tmp_path / "y")]) == 3
            assert f"{bad_lex}{where}" in capsys.readouterr().err

    def test_lexicon_with_short_vector_exits_3(self, synth_dir, tmp_path, capsys):
        lex = tmp_path / "lexicon.jsonl"
        assert cli_main(["lexicon", "build", "--corpus", str(synth_dir / "corpus.jsonl"),
                         "--out", str(lex)]) == 0
        entries = [json.loads(line) for line in lex.read_text().splitlines()]
        n_channels = len(entries[0]["vector"])
        entries[3]["vector"] = entries[3]["vector"][:5]
        lex.write_text("".join(json.dumps(e) + "\n" for e in entries))
        rc = cli_main(["lexicon", "apply", "--lexicon", str(lex),
                       "--features", str(synth_dir / "features.jsonl"),
                       "--out", str(tmp_path / "y")])
        err = capsys.readouterr().err
        assert rc == 3
        assert (f"{lex}:4 (word {entries[3]['word']!r}): vector has 5 channels, "
                f"the first entry has {n_channels}") in err, err


FEATURE_FIELDS = ("eeg_tokens", "eye_tokens", "id", "label", "n_fixations", "sentence_eeg", "tokens")
RETYPES = (None, True, "x", 2.5, -1, [], {}, 10**30, float("nan"))
TOKEN_FIELDS = ("n_fixations", "eye_tokens", "eeg_tokens")


JSON_NAMES = {list: "an array", str: "a string", int: "a number", float: "a number",
              bool: "a boolean", type(None): "null"}
INT64_MAX = 2**63 - 1
FLOAT64_ROUNDS_TO_INF = 2**1024 - 2**970  # halfway from the largest double to 2**1024


def json_type_message(obj):
    """Reference: what the loader says of a feature-file object's first missing
    key or value of a wrong JSON type, in its order; None if all are well typed."""
    for name in ("tokens", "label", *TOKEN_FIELDS, "sentence_eeg"):
        if name not in obj:
            return f"missing key {name!r}"
    if not (type(obj["tokens"]) is list and all(type(w) is str for w in obj["tokens"])):
        return "tokens must be a list of strings"
    label = obj["label"]
    if not (type(label) is int and 0 <= label <= INT64_MAX):
        return f"label must be an integer in 0..{INT64_MAX}, got {label!r}"
    for name in (*TOKEN_FIELDS, "sentence_eeg"):
        values = obj[name]
        if type(values) is not list:
            return f"{name} must be a list, got {values!r}"
        for v in values:
            if name == "sentence_eeg":
                if not (type(v) is float or type(v) is int and abs(v) < FLOAT64_ROUNDS_TO_INF):
                    return f"{name} must hold float64 numbers, got {v!r}"
            elif not (type(v) is int and -INT64_MAX - 1 <= v <= INT64_MAX):
                return f"{name} must hold int64 integers, got {v!r}"
    return None


def record_by_record_message(path):
    """Reference: the DataError message of a loader that reads, types, builds and
    checks one record per line, first failure wins; None if it accepts the file."""
    channels = None
    first_line = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        obj = None
        try:
            obj = json.loads(line)
            if type(obj) is not dict:
                raise ValueError(f"expected a JSON object, got {JSON_NAMES[type(obj)]}")
            sid = obj["id"]
            if type(sid) is not str:
                raise ValueError(f"id must be a string, got {sid!r}")
            if sid in first_line:
                raise ValueError(f"duplicate id, first on line {first_line[sid]}")
            first_line[sid] = lineno
            type_message = json_type_message(obj)
            if type_message is not None:
                raise ValueError(type_message)
            tokens = obj["tokens"]
            raw = [obj[name] for name in (*TOKEN_FIELDS, "sentence_eeg")]
            arrays = [np.asarray(values, dtype=np.int64) for values in raw[:3]]
            sent = np.asarray(raw[3], dtype=np.float64)
            for name, arr in zip(TOKEN_FIELDS, arrays):
                if len(arr) != len(tokens):
                    raise ValueError(f"{sid}: {name} not aligned with tokens")
            for name, arr in zip(TOKEN_FIELDS[1:], arrays[1:]):
                if arr.min(initial=0) < 0 or arr.max(initial=0) > 100:
                    raise ValueError(f"{sid}: {name} outside 0..100: [{arr.min()}, {arr.max()}]")
            if not np.isfinite(sent).all():
                raise ValueError(f"{sid}: sentence_eeg holds non-finite values")
            if channels is None:
                channels = sent.shape[0]
            elif sent.shape[0] != channels:
                raise ValueError(f"sentence_eeg has {sent.shape[0]} channels, "
                                 f"the first record has {channels}")
            if arrays[0].min(initial=0) < 0:
                raise ValueError(f"{sid}: n_fixations below 0: {arrays[0].min()}")
        except (ValueError, KeyError) as exc:
            where = f"{path}:{lineno}"
            if isinstance(obj, dict) and "id" in obj:
                where += f" (id {obj['id']!r})"
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            return f"{where}: {detail}"
    return None


class TestFeatureFileCorruption:
    """Plain loops over corruptions of one record of a feature file: each exits 3
    with the message of the record-by-record reference, byte for byte, which
    names path:line (and the id when the line parses), and leaves no output
    directory."""

    @staticmethod
    def cases(lines, index):
        """(label, corrupted line) pairs for lines[index]."""
        line = lines[index]
        cuts = [i for i in range(len(line)) if line.startswith(', "', i)]
        for cut in [*cuts, len(line) - 1]:
            yield f"cut at {cut}", line[:cut]
        for cut in cuts:
            yield f"cut at {cut}, closed", line[:cut] + "}"
        obj = json.loads(line)
        for field in FEATURE_FIELDS:
            for value in RETYPES:
                if (field, value) != ("id", "x"):
                    yield f"{field} = {value!r}", json.dumps({**obj, field: value})
        valid = {"tokens": ["x"], "n_fixations": [101], "sentence_eeg": [2.5, -1, 10**30, 101]}
        for field in (*TOKEN_FIELDS, "sentence_eeg", "tokens"):
            for pos in (0, -1):
                for value in (*RETYPES, float("inf"), float("-inf"), 101):
                    if type(value) in (int, float, str) and value in valid.get(field, ()):
                        continue
                    values = list(obj[field])
                    values[pos] = value
                    yield f"{field}[{pos}] = {value!r}", json.dumps({**obj, field: values})
        yield "repeated id", json.dumps({**obj, "id": json.loads(lines[1])["id"]})

    def test_every_corruption_exits_3_naming_the_record(self, trained_dir, synth_dir, tmp_path,
                                                        capsys):
        lines = (synth_dir / "features.jsonl").read_text().splitlines()
        path, out = tmp_path / "features.jsonl", tmp_path / "o"
        n_cases = 0
        for index in (4, len(lines) - 1):
            for label, bad in self.cases(lines, index):
                path.write_text("\n".join([*lines[:index], bad, *lines[index + 1:]]) + "\n")
                n_cases += 1
                rc = cli_main(TestMalformedInputs.eval_args(synth_dir, trained_dir, out,
                                                            features=path))
                err = capsys.readouterr().err
                assert rc == 3, f"line {index + 1}, {label}: exit {rc}"
                where = f"{path}:{index + 1}"
                try:
                    obj = json.loads(bad)
                except ValueError:
                    obj = None
                if isinstance(obj, dict) and "id" in obj:
                    where += f" (id {obj['id']!r})"
                assert err.startswith(f"error: {where}: "), f"{label}: {err}"
                want = record_by_record_message(path)
                assert want is not None and err == f"error: {want}\n", f"{label}: {err}"
                assert not out.exists(), label
        assert n_cases > 300


class TestLexiconAndCorpusCorruption:
    """Plain loops over corruptions of one line of a lexicon and of a raw corpus:
    each exits 3 naming path:line and the line's key (word or id), with no
    traceback and no output directory."""

    @staticmethod
    def cases(lines, index, key, fields, valid):
        """(label, corrupted line, expected message or None) for lines[index]:
        each field retyped (values in valid[field] skipped) and the key repeated."""
        obj = json.loads(lines[index])
        for field in fields:
            for value in RETYPES:
                if type(value) in (int, str) and value in valid.get(field, ()):
                    continue
                yield f"{field} = {value!r}", json.dumps({**obj, field: value}), None
        first = json.loads(lines[0])[key]
        yield f"repeated {key}", json.dumps({**obj, key: first}), f"duplicate {key}, first on line 1"

    @staticmethod
    def check_all(capsys, tmp_path, lines, key, cases, argv):
        path, out = tmp_path / "input.jsonl", tmp_path / "o"
        n_cases = 0
        for index in (3, len(lines) - 1):
            for label, bad, detail in cases(lines, index):
                path.write_text("\n".join([*lines[:index], bad, *lines[index + 1:]]) + "\n")
                n_cases += 1
                rc = cli_main(argv(path, out / "result.jsonl"))
                err = capsys.readouterr().err
                assert rc == 3, f"line {index + 1}, {label}: exit {rc}"
                where = f"{path}:{index + 1} ({key} {json.loads(bad)[key]!r}): "
                assert err.startswith(f"error: {where}"), f"{label}: {err}"
                assert detail is None or err == f"error: {where}{detail}\n", f"{label}: {err}"
                assert not out.exists(), label
        return n_cases

    def test_every_lexicon_corruption_exits_3(self, synth_dir, tmp_path, capsys):
        lex = tmp_path / "lexicon.jsonl"
        assert cli_main(["lexicon", "build", "--corpus", str(synth_dir / "corpus.jsonl"),
                         "--out", str(lex)]) == 0
        capsys.readouterr()
        lines = lex.read_text().splitlines()

        def cases(lines, index):
            yield from self.cases(lines, index, "word", ("word", "count", "vector"),
                                  {"word": ("x",), "count": (10**30,)})
            obj = json.loads(lines[index])
            for value in (True, 2.5, -1):
                yield (f"count = {value!r}", json.dumps({**obj, "count": value}),
                       f"count must be an integer >= 0, got {value!r}")
            for value, detail in (("x", "vector must be a list, got 'x'"),
                                  (["x"], "vector must hold float64 numbers, got 'x'"),
                                  ([[1.0]], "vector must hold float64 numbers, got [1.0]"),
                                  ([], "vector must be a non-empty flat list of finite numbers")):
                yield f"vector = {value!r}", json.dumps({**obj, "vector": value}), detail

        n_cases = self.check_all(capsys, tmp_path, lines, "word", cases, lambda path, out: [
            "lexicon", "apply", "--lexicon", str(path),
            "--features", str(synth_dir / "features.jsonl"), "--out", str(out)])
        assert n_cases > 50

    def test_every_corpus_corruption_exits_3(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "corpus.jsonl").read_text().splitlines()

        def cases(lines, index):
            yield from self.cases(lines, index, "id", ("id", "label", "words"), {"id": ("x",)})
            obj = json.loads(lines[index])
            for value in (True, 2.5, -1):
                yield (f"label = {value!r}", json.dumps({**obj, "label": value}),
                       f"label must be an integer in 0..{2**63 - 1}, got {value!r}")
            for value in RETYPES:
                if value != "x":
                    words = [value, *obj["words"][1:]]
                    yield (f"words[0] = {value!r}", json.dumps({**obj, "words": words}),
                           "words must be a list of strings")
            if index == 3:  # a line's nested values are checked wherever the line is
                yield from self.nested_corpus_cases(obj, json.loads(lines[0]))
            n_channels = len(obj["sentence_bands"][0])
            cut = {**obj, "sentence_bands": [row[:5] for row in obj["sentence_bands"]],
                   "word_eeg": [None if e is None else [row[:5] for row in e]
                                for e in obj["word_eeg"]]}
            yield ("every EEG list cut to 5 channels", json.dumps(cut),
                   f"sentence_bands has 5 channels, the first line has {n_channels}")

        n_cases = self.check_all(capsys, tmp_path, lines, "id", cases, lambda path, out: [
            "lexicon", "build", "--corpus", str(path), "--out", str(out)])
        assert n_cases > 50

    @staticmethod
    def nested_corpus_cases(obj, first):
        """(label, corrupted line, expected message) for the fixations, word EEG and
        sentence bands of a raw-corpus line; first is the corpus's first line."""
        fixated = next(i for i, f in enumerate(obj["fixations"]) if f["n"] > 0)
        unfixated = next(i for i, f in enumerate(obj["fixations"]) if f["n"] == 0)

        def with_fixation(key, value, word=fixated):
            fixations = [dict(f) for f in obj["fixations"]]
            fixations[word][key] = value
            return json.dumps({**obj, "fixations": fixations})

        def with_word_eeg(word, entry):
            word_eeg = list(obj["word_eeg"])
            word_eeg[word] = entry
            return json.dumps({**obj, "word_eeg": word_eeg})

        for value in (2.5, True, None, 10**30):
            yield (f"fixation n = {value!r}", with_fixation("n", value),
                   f"fixation n must be an int64 integer, got {value!r}")
        for key in ("ffd", "sfd"):
            for value in (float("nan"), float("inf"), True, "x", None, 10**400):
                where = f"word {fixated}: " if type(value) is float else ""  # a value, not a type
                yield (f"fixation {key} = {value!r}", with_fixation(key, value),
                       f"{where}fixation {key} must be a finite number, got {value!r}")
        fixations = [dict(f) for f in obj["fixations"]]
        fixations[fixated].update(n=10**18, ffd=1e300)
        yield ("eye value overflow", json.dumps({**obj, "fixations": fixations}),
               f"word {fixated}: eye value n * (ffd + trt + gd + gpt) overflows float64")
        word_eeg = [None if e is None else [[1e308] * len(row) for row in e] for e in obj["word_eeg"]]
        yield ("word_eeg mean overflow", json.dumps({**obj, "word_eeg": word_eeg}),
               f"word {fixated}: word_eeg mean overflows float64")
        word_eeg = [None if e is None else [list(row) for row in e] for e in obj["word_eeg"]]
        word_eeg[fixated][3][1] = float("nan")
        yield ("word_eeg NaN", json.dumps({**obj, "word_eeg": word_eeg}),
               f"word {fixated}: word_eeg entry holds non-finite values")
        word_eeg[fixated][3] = word_eeg[fixated][3][1:]
        yield ("word_eeg short row", json.dumps({**obj, "word_eeg": word_eeg}),
               "word_eeg entry rows must be non-empty and of equal length")
        word_eeg[fixated] = "x"
        yield ("word_eeg entry 'x'", json.dumps({**obj, "word_eeg": word_eeg}),
               "word_eeg entry must be a list of lists, got 'x'")
        bands = [list(row) for row in obj["sentence_bands"]]
        bands[7][0] = float("inf")
        yield ("sentence_bands inf", json.dumps({**obj, "sentence_bands": bands}),
               "sentence_bands holds non-finite values")
        bands[7] = [True]
        yield ("sentence_bands row [True]", json.dumps({**obj, "sentence_bands": bands}),
               "sentence_bands row must hold float64 numbers, got True")
        for field in ("fixations", "word_eeg"):
            for value in (None, "x", {}):
                yield (f"{field} = {value!r}", json.dumps({**obj, field: value}),
                       f"{field} must be a list, got {value!r}")
        for value in (None, 2.5):
            yield (f"sentence_bands = {value!r}", json.dumps({**obj, "sentence_bands": value}),
                   f"sentence_bands must be a list of lists, got {value!r}")
            yield (f"fixations[0] = {value!r}",
                   json.dumps({**obj, "fixations": [value, *obj["fixations"][1:]]}),
                   f"fixations must hold objects, got {value!r}")
        # The value rules of check_measurements, each message naming the word and the field.
        yield ("fixation n = -1", with_fixation("n", -1),
               f"word {fixated}: fixation n must be >= 0, got -1")
        yield ("fixation ffd = -5", with_fixation("ffd", -5),
               f"word {fixated}: fixation ffd must be >= 0, got -5")
        yield ("unfixated word with trt = 10", with_fixation("trt", 10, unfixated),
               f"word {unfixated}: fixation trt must be 0 on an unfixated word, got 10")
        yield ("word_eeg on an unfixated word", with_word_eeg(unfixated, obj["word_eeg"][fixated]),
               f"word {unfixated}: word_eeg entry on an unfixated word")
        fixations = [dict(f) for f in obj["fixations"]]
        del fixations[fixated]["sfd"]
        yield ("fixation without sfd", json.dumps({**obj, "fixations": fixations}), "missing key 'sfd'")
        yield ("no word_eeg on a fixated word", with_word_eeg(fixated, None),
               f"word {fixated}: no word_eeg entry on a fixated word")
        n_words = len(obj["words"])
        yield ("words one shorter than fixations", json.dumps({**obj, "words": obj["words"][1:]}),
               f"fixations has {n_words} entries for {n_words - 1} words")
        yield ("word_eeg one entry short", json.dumps({**obj, "word_eeg": obj["word_eeg"][:-1]}),
               f"word_eeg has {n_words - 1} entries for {n_words} words")
        yield ("31-row word_eeg", with_word_eeg(fixated, obj["word_eeg"][fixated][:31]),
               f"word {fixated}: word_eeg entry has 31 rows, not 32")
        yield ("empty word_eeg entry", with_word_eeg(fixated, []),
               f"word {fixated}: word_eeg entry has 0 rows, not 32")
        yield ("7-row sentence_bands",
               json.dumps({**obj, "sentence_bands": obj["sentence_bands"][:7]}),
               "sentence_bands has 7 rows, not 8")
        # One fixated word's EEG cut to 5 channels, the word renamed to one that the
        # first line fixates too, then to one that no other line holds.
        word_eeg = [None if e is None else [list(row) for row in e] for e in obj["word_eeg"]]
        word_eeg[fixated] = [row[:5] for row in word_eeg[fixated]]
        words = list(obj["words"])
        n_channels = len(obj["sentence_bands"][0])
        elsewhere = next(w for w, e in zip(first["words"], first["word_eeg"]) if e is not None)
        for label, word in (("elsewhere", elsewhere), ("only here", "fixated_once")):
            words[fixated] = word
            yield (f"word_eeg with 5 channels, word fixated {label}",
                   json.dumps({**obj, "words": words, "word_eeg": word_eeg}),
                   f"{obj['id']}: word {fixated} ({word!r}) EEG has 5 channels, "
                   f"sentence_bands has {n_channels}")


class TestCheckpointCorruption:
    """Plain loops over corruptions of a checkpoint and of its sidecar: each exits 3
    naming the checkpoint or the sidecar, with no traceback and no output directory."""

    @staticmethod
    def check_all(capsys, argv, out, cases, write, named, valid=()):
        for label, data in cases:
            write(data)
            rc = cli_main(argv)
            err = capsys.readouterr().err
            if label in valid:  # a corruption that leaves a valid checkpoint
                assert rc == 0, f"{label}: exit {rc}: {err}"
                shutil.rmtree(out)
                continue
            assert rc == 3, f"{label}: exit {rc}"
            assert any(str(path) in err for path in named), f"{label}: {err}"
            assert not out.exists(), label

    def test_every_header_flip_and_truncation_exits_3(self, trained_dir, synth_dir, tmp_path,
                                                      capsys):
        ckpt, sidecar = TestMalformedInputs.copy_checkpoint(trained_dir, tmp_path)
        blob = ckpt.read_bytes()
        n_tensors = int(blob[:blob.index(b"\n")].split()[-1])
        header_len = sum(len(line) + 1 for line in blob.split(b"\n", n_tensors + 1)[:n_tensors + 1])
        flips = [(i, (0x01, 0x10, 0x80)[i % 3]) for i in range(header_len)]  # digit, space, UTF-8
        cases = [(f"byte {i} ^ {bit:#x}", blob[:i] + bytes([blob[i] ^ bit]) + blob[i + 1:])
                 for i, bit in flips]
        cuts = {*np.linspace(0, header_len, 25).astype(int),
                *np.linspace(header_len, len(blob) - 1, 25).astype(int)}
        cases += [(f"cut at {cut}", blob[:cut]) for cut in sorted(cuts)]
        features, out = tmp_path / "features.jsonl", tmp_path / "o"
        features.write_text("".join((synth_dir / "features.jsonl").read_text()
                                    .splitlines(keepends=True)[:2]))
        self.check_all(capsys, TestMalformedInputs.eval_args(synth_dir, trained_dir, out,
                                                             features=features, checkpoint=ckpt),
                       out, cases, ckpt.write_bytes, (ckpt, sidecar))
        assert len(cases) > 400

    def test_cut_at_every_header_line_end_exits_3(self, trained_dir, synth_dir, tmp_path,
                                                  capsys):
        """A file cut where a header line ends holds a prefix of the header's lines:
        it exits 3 naming the first missing line, or the missing data after the last."""
        ckpt, sidecar = TestMalformedInputs.copy_checkpoint(trained_dir, tmp_path)
        blob = ckpt.read_bytes()
        n_tensors = int(blob[:blob.index(b"\n")].split()[-1])
        lines = blob.split(b"\n", n_tensors + 1)[:n_tensors + 1]
        ends = np.cumsum([len(line) + 1 for line in lines])
        out = tmp_path / "o"
        argv = TestMalformedInputs.eval_args(synth_dir, trained_dir, out, checkpoint=ckpt)
        self.check_all(capsys, argv, out, [(f"cut at {end}", blob[:end]) for end in ends],
                       ckpt.write_bytes, (ckpt, sidecar))
        checked = 0
        for k, end in enumerate(ends[:-1]):
            if n_tensors * len("n 1 1\n") > end:
                continue  # too short for its count: refused before the header is compared
            ckpt.write_bytes(blob[:end])
            assert cli_main(argv) == 3
            need = lines[k + 1].decode() + "\n"
            assert capsys.readouterr().err == (f"error: {ckpt}: header line {k + 2} is '', "
                                               f"the config in {sidecar} needs {need!r}\n")
            checked += 1
        assert checked > 0

    def test_every_sidecar_corruption_exits_3(self, trained_dir, synth_dir, tmp_path, capsys):
        ckpt, sidecar = TestMalformedInputs.copy_checkpoint(trained_dir, tmp_path)
        cfg = json.loads(sidecar.read_text())
        cases = [("unknown key", {**cfg, "colour": "blue"})]
        for key in cfg:
            cases.append((f"no {key}", {k: v for k, v in cfg.items() if k != key}))
            for value in (*RETYPES, 0, 10**6):
                if key == "layers" and value in (10**6, 10**30):
                    continue  # test_huge_layer_count_exits_3_in_bounded_memory, in a child process
                if not (type(value) is type(cfg[key]) and value == cfg[key]):
                    cases.append((f"{key} = {value!r}", {**cfg, key: value}))
        out = tmp_path / "o"
        # dropout 0 is valid, and the mode "none" model reads no EEG, whatever its channel count
        valid = {"dropout = 0", "eeg_channels = 1000000", f"eeg_channels = {10**30!r}"}
        self.check_all(capsys, TestMalformedInputs.eval_args(synth_dir, trained_dir, out,
                                                             checkpoint=ckpt),
                       out, [(label, json.dumps(obj)) for label, obj in cases],
                       sidecar.write_text, (ckpt, sidecar), valid)
        assert len(cases) > 100

    def test_huge_layer_count_exits_3_in_bounded_memory(self, trained_dir, synth_dir, tmp_path):
        """A sidecar naming 10**6 or 10**30 layers fails on the tensor count before
        any per-layer work; the child's address space is capped, so a regression
        ends in a MemoryError instead of exhausting the machine."""
        ckpt, sidecar = TestMalformedInputs.copy_checkpoint(trained_dir, tmp_path)
        cfg = json.loads(sidecar.read_text())
        blob = ckpt.read_bytes()
        n_tensors = int(blob[:blob.index(b"\n")].split()[-1])
        child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                 "from cogbert.cli import main; sys.exit(main(sys.argv[1:]))")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(Path(cogbert.__file__).parents[1]),
                                              os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / "o"
        for layers in (10**6, 10**30):
            sidecar.write_text(json.dumps({**cfg, "layers": layers}))
            proc = subprocess.run(
                [sys.executable, "-c", child,
                 *TestMalformedInputs.eval_args(synth_dir, trained_dir, out, checkpoint=ckpt)],
                capture_output=True, text=True, env=env, timeout=120)
            needs = n_tensors + (layers - cfg["layers"]) * 16  # 16 tensors per encoder layer
            assert proc.returncode == 3, f"layers {layers}: exit {proc.returncode}: {proc.stderr}"
            assert proc.stderr == (f"error: {ckpt}: header lists {n_tensors} tensors, "
                                   f"the config in {sidecar} needs {needs}\n"), proc.stderr
            assert not out.exists()

    def test_huge_layer_count_in_both_files_exits_3_in_bounded_memory(self, trained_dir,
                                                                       synth_dir, tmp_path):
        """A header count edited to match a sidecar's 10**6 or 10**30 layers fails on
        the file's length before the header is built, in a child capped as above."""
        ckpt, sidecar = TestMalformedInputs.copy_checkpoint(trained_dir, tmp_path)
        cfg = json.loads(sidecar.read_text())
        first, rest = ckpt.read_bytes().split(b"\n", 1)
        n_tensors = int(first.split()[-1])
        child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                 "from cogbert.cli import main; sys.exit(main(sys.argv[1:]))")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(Path(cogbert.__file__).parents[1]),
                                              os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / "o"
        for layers in (10**6, 10**30):
            needs = n_tensors + (layers - cfg["layers"]) * 16  # 16 tensors per encoder layer
            sidecar.write_text(json.dumps({**cfg, "layers": layers}))
            edited = b"cogbert-checkpoint v1 %d\n" % needs + rest
            ckpt.write_bytes(edited)
            proc = subprocess.run(
                [sys.executable, "-c", child,
                 *TestMalformedInputs.eval_args(synth_dir, trained_dir, out, checkpoint=ckpt)],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 3, f"layers {layers}: exit {proc.returncode}: {proc.stderr}"
            assert proc.stderr == (f"error: {ckpt}: header lists {needs} tensors, "
                                   f"more than its {len(edited)} bytes can hold\n"), proc.stderr
            assert not out.exists()


class TestBadConfigValues:
    """Out-of-range or mistyped config values exit 2 naming the field, before any output."""

    @staticmethod
    def train(synth_dir, out, model_cfg, train_cfg):
        return cli_main(["train", "--features", str(synth_dir / "features.jsonl"),
                         "--config", str(model_cfg), "--train-config", str(train_cfg),
                         "--mode", "none", "--out", str(out)])

    def test_bad_train_config_exits_2(self, synth_dir, model_config_path, tmp_path, capsys):
        for field, value in (("lr", float("nan")), ("weight_decay", -5), ("epochs", 2.5),
                             ("batch_size", True), ("repeats", 1.0), ("seed", 2.5)):
            train_cfg = tmp_path / "train.json"
            train_cfg.write_text(json.dumps({"epochs": 1, "repeats": 1, field: value}))
            out = tmp_path / "t"
            rc = self.train(synth_dir, out, model_config_path, train_cfg)
            captured = capsys.readouterr()
            assert rc == 2, f"{field}={value!r}: exit {rc}"
            assert f"{field} must be" in captured.err, captured.err
            assert "training mode" not in captured.out and not out.exists(), field

    def test_bad_split_ratio_exits_2_before_output(self, trained_dir, synth_dir,
                                                   model_config_path, tmp_path, capsys):
        out = tmp_path / "o"
        train = ["train", "--features", str(synth_dir / "features.jsonl"),
                 "--config", str(model_config_path), "--mode", "none",
                 "--repeats", "1", "--epochs", "1", "--out", str(out)]
        evaluate = TestMalformedInputs.eval_args(synth_dir, trained_dir, out)
        n_sentences = len((synth_dir / "features.jsonl").read_text().splitlines())
        outside = "split ratio must lie strictly in (0, 1)"
        for argv, message in (
            (train + ["--split-ratio", "1.5"], outside),
            (train + ["--split-ratio", "0.01"],
             f"--split-ratio 0.01 leaves none of the {n_sentences} sentences to train on"),
            (evaluate + ["--split-ratio", "1.5"], outside),
        ):
            rc = cli_main(argv)
            captured = capsys.readouterr()
            assert rc == 2, f"{argv[0]} {argv[-1]}: exit {rc}"
            assert captured.err == f"error: {message}\n", captured.err
            assert captured.out == "" and not out.exists(), f"{argv[0]} {argv[-1]}"

    def test_bad_synth_config_exits_2(self, tmp_path, capsys):
        for field, value in (("eeg_channels", 2.0), ("distractors", -1), ("n_sentences", 2.5)):
            cfg = tmp_path / "synth.json"
            cfg.write_text(json.dumps({field: value}))
            out = tmp_path / "s"
            rc = cli_main(["synth", "--out", str(out), "--config", str(cfg)])
            err = capsys.readouterr().err
            assert rc == 2, f"{field}={value!r}: exit {rc}"
            assert f"{field} must be an integer" in err and "Traceback" not in err, err
            assert not out.exists(), field

    def test_eeg_beyond_float64_exits_2_before_output(self, tmp_path, capsys):
        cfg, out = tmp_path / "synth.json", tmp_path / "s"
        cfg.write_text(json.dumps({"keyword_eeg_mean": 1e308, "class_tilt": 1e308, "n_sentences": 16}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main(["synth", "--out", str(out), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(
            "error: generator fields keyword_eeg_mean, filler_eeg_mean, class_tilt, eeg_noise give "
            "EEG values beyond float64"), err
        assert not out.exists()

    def test_size_over_memory_budget_exits_2_before_output(self, synth_dir, model_config_path,
                                                           train_config_path, tmp_path, capsys):
        """Real runs, not --print-config: a right-typed huge size ends in exit 2 naming
        the fields its memory estimate grows with, never a traceback or an --out."""
        base = json.loads(model_config_path.read_text())
        cases = [("synth", {"eeg_channels": 10**30}, "n_sentences, max_words, eeg_channels"),
                 ("synth", {"n_sentences": 10**7}, "n_sentences, max_words, eeg_channels"),
                 ("train", {**base, "d_model": 10**30}, "layers, d_model, d_ff"),
                 ("train", {**base, "max_len": 10**6}, "layers, heads, max_len")]
        for command, obj, fields in cases:
            cfg, out = tmp_path / "config.json", tmp_path / "o"
            cfg.write_text(json.dumps(obj))
            if command == "synth":
                rc = cli_main(["synth", "--out", str(out), "--config", str(cfg)])
            else:
                rc = self.train(synth_dir, out, cfg, train_config_path)
            err = capsys.readouterr().err
            assert rc == 2, f"{obj}: exit {rc}: {err}"
            assert "exceeds the 4 GiB budget; it grows with " + fields + "\n" in err, err
            assert "Traceback" not in err and not out.exists(), obj

    def test_non_integer_model_size_exits_2(self, synth_dir, model_config_path,
                                            train_config_path, tmp_path, capsys):
        base = json.loads(model_config_path.read_text())
        for field, value in (("d_model", 32.0), ("max_len", 10.5)):
            model_cfg = tmp_path / "model.json"
            model_cfg.write_text(json.dumps({**base, field: value}))
            out = tmp_path / "t"
            rc = self.train(synth_dir, out, model_cfg, train_config_path)
            err = capsys.readouterr().err
            assert rc == 2, f"{field}: exit {rc}"
            assert f"{field} must be an integer" in err and "Traceback" not in err, err
            assert not out.exists()

    def test_zero_width_model_exits_2_before_output(self, synth_dir, model_config_path,
                                                    train_config_path, tmp_path, capsys):
        model_cfg = tmp_path / "model.json"
        model_cfg.write_text(json.dumps({**json.loads(model_config_path.read_text()),
                                         "d_model": 0}))
        out = tmp_path / "t"
        rc = self.train(synth_dir, out, model_cfg, train_config_path)
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: model config {model_cfg}: d_model must be an integer >= 1, got 0\n")
        assert not out.exists()

    def test_non_integer_sidecar_size_exits_3(self, trained_dir, synth_dir, tmp_path, capsys):
        ckpt, sidecar = TestMalformedInputs.copy_checkpoint(trained_dir, tmp_path)
        cfg = json.loads(sidecar.read_text())
        for field in ("d_model", "max_len"):
            sidecar.write_text(json.dumps({**cfg, field: cfg[field] + 0.5}))
            rc = cli_main(TestMalformedInputs.eval_args(synth_dir, trained_dir, tmp_path / "o",
                                                        checkpoint=ckpt))
            err = capsys.readouterr().err
            assert rc == 3, f"{field}: exit {rc}"
            assert str(sidecar) in err and f"{field} must be an integer" in err, err
            sidecar.write_text(json.dumps({**cfg, field: float(cfg[field])}))
            rc = cli_main(TestMalformedInputs.eval_args(synth_dir, trained_dir, tmp_path / "o",
                                                        checkpoint=ckpt))
            assert rc == 3, f"{field} as float: exit {rc}"
            capsys.readouterr()


class TestConfigFileCorruption:
    """Plain loops over one key of a generator, model and train config file, each
    run through --print-config, so nothing trains. A value of the wrong type, an
    unknown key, or a model key derived from the data exits 2 with a message
    naming it and no Python text; a right-typed value out of range exits 2 with
    its range message; every other value exits 0. None leaves an output."""

    # The annotated type of each field a config file may set, as the README states it.
    FIELDS = {
        "generator": {
            "n_classes": int, "n_sentences": int, "keywords_per_class": int,
            "filler_vocab": int, "min_words": int, "max_words": int, "min_keywords": int,
            "max_keywords": int, "filler_fix_prob": float, "eeg_channels": int,
            "distractors": int, "keyword_eeg_mean": float, "filler_eeg_mean": float,
            "eeg_noise": float, "class_tilt": float,
        },
        "model": {"layers": int, "heads": int, "d_model": int, "d_ff": int, "max_len": int,
                  "dropout": float},
        "train": {"epochs": int, "batch_size": int, "lr": float, "seed": int, "repeats": int,
                  "weight_decay": float, "init_source": str},
    }
    DERIVED = {"vocab_size": 500, "n_classes": 8, "eeg_channels": 3, "mode": "cog_mask"}
    NOUNS = {int: "an integer", float: "a finite number", str: "a string"}
    HUGE = 10**30
    KEYWORD_RANGE = "keyword count range must satisfy 1 <= min <= max"
    TOO_SHORT = "sentences too short for keywords plus distractors"
    POSITIVE = "vocabulary and channel counts must be positive"
    MEMORY = "estimated memory of {} GiB exceeds the 4 GiB budget; it grows with {}"
    CORPUS = "n_sentences, max_words, eeg_channels"
    # (config, field, value): the range message of a right-typed value; others exit 0.
    RANGES = {
        ("generator", "n_classes", -1): "need at least 2 classes",
        ("generator", "n_classes", HUGE): "need at least one sentence per class",
        ("generator", "n_sentences", -1): "need at least one sentence per class",
        ("generator", "keywords_per_class", -1): POSITIVE,
        ("generator", "filler_vocab", -1): POSITIVE,
        ("generator", "eeg_channels", -1): POSITIVE,
        ("generator", "n_sentences", HUGE): MEMORY.format("3.05e+25", CORPUS),
        ("generator", "max_words", HUGE): MEMORY.format("8.58e+26", CORPUS),
        ("generator", "eeg_channels", HUGE): MEMORY.format("1.36e+27", CORPUS),
        ("generator", "keywords_per_class", HUGE): MEMORY.format("4.77e+23", "keywords_per_class"),
        ("generator", "filler_vocab", HUGE): f"filler_vocab must be at most {2**63 - 1}, got {HUGE}",
        ("generator", "min_words", -1): TOO_SHORT,
        ("generator", "min_words", HUGE): "min_words exceeds max_words",
        ("generator", "max_words", -1): "min_words exceeds max_words",
        ("generator", "min_keywords", -1): KEYWORD_RANGE,
        ("generator", "min_keywords", HUGE): KEYWORD_RANGE,
        ("generator", "max_keywords", -1): KEYWORD_RANGE,
        ("generator", "max_keywords", HUGE): TOO_SHORT,
        ("generator", "distractors", -1): "distractors must be an integer >= 0, got -1",
        ("generator", "distractors", HUGE): TOO_SHORT,
        ("generator", "eeg_noise", -1): "eeg_noise must be >= 0, got -1",
        **{("generator", "filler_fix_prob", v): "filler_fix_prob must lie in [0, 1]"
           for v in (2.5, -1, HUGE)},
        ("model", "layers", -1): "layers and heads must be >= 1",
        ("model", "heads", -1): "layers and heads must be >= 1",
        ("model", "heads", HUGE): f"d_model=32 not divisible by heads={HUGE}",
        ("model", "d_model", -1): "d_model must be an integer >= 1, got -1",
        ("model", "d_ff", -1): "d_ff, eeg_channels must be positive and n_classes >= 2",
        ("model", "max_len", -1): "max_len must be >= 3",
        ("model", "layers", HUGE): MEMORY.format("3.05e+26", "layers, d_model, d_ff"),
        ("model", "d_model", HUGE): MEMORY.format("2.38e+53", "layers, d_model, d_ff"),
        ("model", "d_ff", HUGE): MEMORY.format("3.81e+24", "layers, d_model, d_ff"),
        ("model", "max_len", HUGE): MEMORY.format("2.98e+52", "layers, heads, max_len"),
        **{("model", "dropout", v): "dropout must lie in [0, 1)" for v in (2.5, -1, HUGE)},
        **{("train", name, -1): f"{name} must be an integer >= 1, got -1"
           for name in ("epochs", "batch_size", "repeats")},
        ("train", "lr", -1): "lr must be a finite number > 0, got -1",
        ("train", "weight_decay", -1): "weight_decay must be a finite number >= 0, got -1",
    }

    @staticmethod
    def right_typed(kind, value):
        if kind is float:
            return type(value) in (int, float) and math.isfinite(value)
        return type(value) is kind

    def cases(self, what):
        """(label, config object, expected message or None for exit 0) of one config."""
        for field, kind in self.FIELDS[what].items():
            for value in RETYPES:
                if not self.right_typed(kind, value):
                    want = f"{field} must be {self.NOUNS[kind]}, got {value!r}"
                else:
                    want = self.RANGES.get((what, field, value))
                yield f"{field} = {value!r}", {field: value}, want and f"{{path}}: {want}"
        yield "unknown key", {"banana": 1}, "{path} has unknown key 'banana'"
        if what == "model":
            for key, value in self.DERIVED.items():
                yield (f"derived {key}", {key: value},
                       f"{{path}} sets {key!r}, which is derived from the data and flags")

    def test_every_config_corruption_exits_2_naming_the_key(self, synth_dir, tmp_path, capsys):
        features = str(synth_dir / "features.jsonl")
        path, out = tmp_path / "config.json", tmp_path / "o"
        argv = {
            "generator": ["synth", "--out", str(out), "--config", str(path), "--print-config"],
            "model": ["train", "--features", features, "--out", str(out), "--config", str(path),
                      "--print-config"],
            "train": ["train", "--features", features, "--out", str(out),
                      "--train-config", str(path), "--print-config"],
        }
        n_cases = 0
        for what in ("generator", "model", "train"):
            for label, obj, want in self.cases(what):
                path.write_text(json.dumps(obj))
                n_cases += 1
                rc = cli_main(argv[what])
                captured = capsys.readouterr()
                assert not out.exists(), f"{what} {label}"
                if want is None:
                    assert rc == 0, f"{what} {label}: exit {rc}: {captured.err}"
                    printed = json.loads(captured.out)
                    if what != "generator":
                        printed = printed[what]
                    assert printed == {**printed, **obj}, f"{what} {label}"
                    continue
                want = want.replace("{path}", f"{what} config {path}")
                assert rc == 2, f"{what} {label}: exit {rc}"
                assert captured.err == f"error: {want}\n", f"{what} {label}: {captured.err}"
                assert not any(text in captured.err for text in (
                    "Traceback", "__init__()", "unexpected keyword")), captured.err
        assert n_cases > 250
        # The loop covered every field: no config gained or lost one.
        for cls, what, derived in ((SynthConfig, "generator", {}),
                                   (ModelConfig, "model", self.DERIVED),
                                   (TrainConfig, "train", {})):
            assert set(cls.__dataclass_fields__) == {*self.FIELDS[what], *derived}, what

    def test_value_error_names_file_and_flags(self, synth_dir, tmp_path, capsys):
        """The file and the flags applied over it, or only the message without a file."""
        path, out = tmp_path / "config.json", tmp_path / "o"
        train = ["train", "--features", str(synth_dir / "features.jsonl"), "--out", str(out),
                 "--print-config"]
        synth = ["synth", "--out", str(out), "--print-config"]
        lr = "lr must be a finite number > 0, got -1"
        cases = [
            ({"lr": -1}, train + ["--train-config", str(path)], f"train config {path}: {lr}"),
            ({"lr": -1}, train + ["--train-config", str(path), "--epochs", "2"],
             f"train config {path} with --epochs: {lr}"),
            ({"lr": -1}, train + ["--train-config", str(path), "--seed", "1", "--repeats", "2"],
             f"train config {path} with --repeats, --seed: {lr}"),
            ({"lr": -1}, train + ["--train-config", str(path), "--robustness", "--epochs", "2"],
             f"train config {path} with --robustness, --epochs: {lr}"),
            ({}, train + ["--epochs", "0"], "epochs must be an integer >= 1, got 0"),
            ({"d_model": 0}, train + ["--config", str(path)],
             f"model config {path}: d_model must be an integer >= 1, got 0"),
            ({"n_classes": 9}, synth + ["--config", str(path), "--n-sentences", "4"],
             f"generator config {path} with --n-sentences: need at least one sentence per class"),
            ({}, synth + ["--distractors", "-1"], "distractors must be an integer >= 0, got -1"),
        ]
        for obj, argv, want in cases:
            path.write_text(json.dumps(obj))
            rc = cli_main(argv)
            err = capsys.readouterr().err
            assert rc == 2 and err == f"error: {want}\n", (argv, err)
            assert not out.exists()

    def test_huge_integer_in_float_field_synthesizes_as_float_spelling(self, tmp_path, capsys):
        """10**30 in a generator float field gives the outputs of 1e30, not a traceback."""
        path = tmp_path / "config.json"
        for field, kind in self.FIELDS["generator"].items():
            if kind is not float:
                continue
            results = []
            for value in (self.HUGE, float(self.HUGE)):
                path.write_text(json.dumps({field: value, "n_sentences": 8}))
                out = tmp_path / f"{field}-{type(value).__name__}"
                rc = cli_main(["synth", "--out", str(out), "--config", str(path)])
                captured = capsys.readouterr()
                assert "Traceback" not in captured.err, captured.err
                files = {f.name: f.read_bytes() for f in sorted(out.glob("*"))}
                results.append((rc, captured.out.replace(str(out), "OUT"), captured.err, files))
            assert results[0] == results[1], field


class TestGradcheckCommand:
    def test_single_mode_passes(self, tmp_path, capsys):
        rc = cli_main(["gradcheck", "--mode", "none", "--out", str(tmp_path)])
        assert rc == 0
        assert "ok" in capsys.readouterr().out
        report = json.loads((tmp_path / "gradcheck.json").read_text())
        assert report["worst_error_per_mode"]["none"] < 1e-4

    def test_oversized_config_exits_2(self):
        assert cli_main(["gradcheck", "--d-model", "64"]) == 2


class TestReport:
    def test_mode_comparison_rows(self, trained_dir, synth_dir, model_config_path,
                                  train_config_path, tmp_path):
        """Vanilla vs eeg_embed on the same seed aggregate into comparable rows."""
        eeg_out = tmp_path / "eeg"
        rc = cli_main([
            "train", "--features", str(synth_dir / "features.jsonl"),
            "--out", str(eeg_out), "--config", str(model_config_path),
            "--train-config", str(train_config_path),
            "--mode", "eeg_embed", "--repeats", "1", "--epochs", "4", "--seed", "3",
        ])
        assert rc == 0
        combined = tmp_path / "combined.csv"
        rc = cli_main(["report", "--inputs", str(trained_dir / "report.json"),
                       str(eeg_out / "report.json"), "--out", str(combined)])
        assert rc == 0
        with open(combined) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["mode"] for r in rows] == ["none", "eeg_embed"]
        assert all(r["seed"] == "3" for r in rows)

    def test_aggregates_runs(self, trained_dir, tmp_path):
        out = tmp_path / "combined.csv"
        rc = cli_main(["report", "--inputs", str(trained_dir / "report.json"),
                       str(trained_dir / "report.json"), "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["mode"] == "none"
        assert set(rows[0]) == {"mode", "repeats", "epochs", "seed",
                                "precision", "recall", "f1", "f1_std", "accuracy"}

    def test_non_report_input_exits_3(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text("{}")
        rc = cli_main(["report", "--inputs", str(bogus), "--out", str(tmp_path / "c.csv")])
        assert rc == 3

    def test_unreadable_report_exits_3(self, trained_dir, tmp_path, capsys):
        good = trained_dir / "report.json"
        bogus = tmp_path / "x.json"
        for content in (b"not json {", b"[1, 2]", b'{"model_config": [1]}',
                        b"\xff\xfe" + good.read_bytes()):
            bogus.write_bytes(content)
            rc = cli_main(["report", "--inputs", str(good), str(bogus),
                           "--out", str(tmp_path / "c.csv")])
            err = capsys.readouterr().err
            assert rc == 3, f"{content[:12]!r}: exit {rc}"
            assert f"{bogus} is not a run report" in err, err
        assert not (tmp_path / "c.csv").exists()
