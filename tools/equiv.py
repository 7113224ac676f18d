"""Equivalence check: run one canonical CLI script at a base revision and on the
working tree, then compare every output file.

  python3 tools/equiv.py --base HEAD
  python3 tools/equiv.py --base main --expect-change 'explain*/*' --expect-change '*.ckpt'

The base revision is exported with `git archive` into a temporary directory
(no worktree is registered, so an interrupted run leaves nothing behind in
.git); the working tree is run as it is on disk, uncommitted edits included.
Both run the same script, each command in a fresh `python -m cogbert.cli`
process with one BLAS thread:

  synth (60 sentences); at max_len 24 and at a truncating max_len 10: train
  all 9 modes (2 repeats x 2 epochs, dropout 0.1, batch 7, so every epoch
  ends with a short batch) and eval each checkpoint, explain two sentences
  in eeg_embed, both_embed, cog_mask and pool_add_nn (per-word EEG tokens,
  both token tables, the fixation mask, the fusion NN: what each perturbation
  carries), and once more in eeg_embed at max_len 10 with --k 12, past the
  word count, and at max_len 24 with --kernel-width 1.0, which leaves both
  sentences an effective sample size below 2 (a LIME warning on stderr for
  each); lexicon build and apply, train pool_add_nn
  on the lexicon features; report over every run; gradcheck --mode all;
  synth with a generator config that plants unfixated distractor keywords,
  and lexicon build over that corpus. Training on a long-sentence synth corpus
  (48-62 words) at max_len 64, batch 8, d_model 32 and d_ff 64, in eeg_embed
  for 1 repeat x 1 epoch: each full batch has B*T = 512 rows, where the BLAS
  blocks the feed-forward weight gradients' sums over rows; then explain two
  of those sentences with that checkpoint (200 samples), whose perturbations
  fill widths 24-48, so the LIME position budget splits a width's
  perturbations over several forwards; and eval that checkpoint on all 40
  of its sentences, whose batch of 32 runs at widths 56-64, the size of the
  benchmark's inference forwards.
  Then synth of 30 sentences with 3 classes, 3 EEG channels, one keyword
  per class, every filler word fixated and one distractor, and lexicon build
  over that corpus. Last, synth of 20 sentences with 2 classes, one keyword
  per class and 2 filler words, a lexicon build over that corpus, and its
  apply to the first corpus's features: most of those sentences hold none of
  its 4 words, so the apply warns for each on stderr.
  The config paths: synth --print-config with a generator config file, train
  --print-config with --robustness and with --epochs and --seed over a train
  config, and a fine-tuning train whose train config's init_source is an
  earlier run's checkpoint.

Each command's stdout, stderr and exit code are kept as files too, minus the
"wall clock" line. The script prints every file whose sha256 differs, with
the largest |delta| over its numbers (checkpoint tensors, or every number in
a text file), and exits 1 if any difference matches no --expect-change glob
(matched against the path relative to the output root), or if any command
exits non-zero on either side. Needs git and numpy
only, and works offline. The outputs are kept for inspection when the check
fails; set TMPDIR to choose where they go.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import io
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MODES = ("none", "eeg_embed", "eye_embed", "both_embed", "cog_mask",
         "pool_concat", "pool_concat_nn", "pool_multiply", "pool_add_nn")
MAX_LENS = (24, 10)  # 10 truncates the longer synthetic sentences
EXPLAIN_MODES = ("eeg_embed", "both_embed", "cog_mask", "pool_add_nn")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def script() -> list[tuple[str, list[str]]]:
    """(name, cogbert arguments) of every command, in order. Paths are relative
    to the output directory, so both runs print the same text."""
    feats = "data/features.jsonl"
    cmds = [("synth", ["synth", "--out", "data", "--seed", "11", "--n-sentences", "60"])]
    train_args = ["--train-config", "train.json", "--repeats", "2", "--epochs", "2", "--seed", "3"]
    reports = []
    for max_len in MAX_LENS:
        for mode in MODES:
            run = f"train{max_len}/{mode}"
            reports.append(f"{run}/report.json")
            cmds.append((f"train{max_len}-{mode}", [
                "train", "--features", feats, "--config", f"model{max_len}.json", "--mode", mode,
                *train_args, "--out", run]))
            cmds.append((f"eval{max_len}-{mode}", [
                "eval", "--features", feats, "--checkpoint", f"{run}/model.ckpt",
                "--vocab", f"{run}/vocab.tsv", "--split-ratio", "0.8", "--seed", "3",
                "--out", f"eval{max_len}/{mode}"]))
        for mode in EXPLAIN_MODES:
            run = f"train{max_len}/{mode}"
            cmds.append((f"explain{max_len}-{mode}", [
                "explain", "--features", feats, "--checkpoint", f"{run}/model.ckpt",
                "--vocab", f"{run}/vocab.tsv", "--ids", "s0000,s0007", "--n-samples", "100",
                "--seed", "5", "--out", f"explain{max_len}/{mode}"]))
    # At max_len 10 the sentences keep 8 words, fewer than k: top-k past the word count.
    cmds.append(("explain10-k12", [
        "explain", "--features", feats, "--checkpoint", "train10/eeg_embed/model.ckpt",
        "--vocab", "train10/eeg_embed/vocab.tsv", "--ids", "s0000,s0007", "--n-samples", "100",
        "--k", "12", "--seed", "5", "--out", "explain10/eeg_embed-k12"]))
    # At kernel width 1.0 one perturbation outweighs the rest: LIME warns for each sentence.
    cmds.append(("explain24-narrow", [
        "explain", "--features", feats, "--checkpoint", "train24/eeg_embed/model.ckpt",
        "--vocab", "train24/eeg_embed/vocab.tsv", "--ids", "s0000,s0007", "--n-samples", "100",
        "--kernel-width", "1.0", "--seed", "5", "--out", "explain24/eeg_embed-narrow"]))
    cmds += [
        ("lexicon-build", ["lexicon", "build", "--corpus", "data/corpus.jsonl",
                           "--out", "lexicon/lexicon.jsonl"]),
        ("lexicon-apply", ["lexicon", "apply", "--lexicon", "lexicon/lexicon.jsonl",
                           "--features", feats, "--out", "lexicon/features-lex.jsonl"]),
        ("train-lexicon", ["train", "--features", "lexicon/features-lex.jsonl",
                           "--config", "model24.json", "--mode", "pool_add_nn", *train_args,
                           "--out", "lexicon/train"]),
        ("report", ["report", "--inputs", *reports, "--out", "report.csv"]),
        ("gradcheck", ["gradcheck", "--mode", "all", "--out", "gradcheck"]),
        ("synth-distractors", ["synth", "--out", "data-dis", "--config", "synth.json",
                               "--seed", "13"]),
        ("lexicon-build-distractors", ["lexicon", "build", "--corpus", "data-dis/corpus.jsonl",
                                       "--out", "lexicon-dis/lexicon.jsonl"]),
        ("synth-print-config", ["synth", "--out", "unused", "--config", "synth.json",
                                "--n-sentences", "30", "--print-config"]),
        ("train-print-robustness", ["train", "--features", feats, "--out", "unused",
                                    "--robustness", "--epochs", "3", "--print-config"]),
        ("train-print-overrides", ["train", "--features", feats, "--config", "model24.json",
                                   "--train-config", "finetune.json", "--epochs", "3",
                                   "--seed", "9", "--out", "unused", "--print-config"]),
        ("finetune", ["train", "--features", feats, "--config", "model24.json", "--mode",
                      "eeg_embed", "--train-config", "finetune.json", "--out", "finetune"]),
        ("synth-long", ["synth", "--out", "data-long", "--config", "synth-long.json",
                        "--seed", "17", "--n-sentences", "40"]),
        ("train-long", ["train", "--features", "data-long/features.jsonl", "--config",
                        "model64.json", "--mode", "eeg_embed", "--train-config", "train-long.json",
                        "--repeats", "1", "--epochs", "1", "--seed", "3", "--out", "train-long"]),
        ("explain-long", ["explain", "--features", "data-long/features.jsonl", "--checkpoint",
                          "train-long/model.ckpt", "--vocab", "train-long/vocab.tsv", "--ids",
                          "s0000,s0001", "--seed", "5", "--out", "explain-long"]),
        # Every sentence, no split: batches of 32 and 8 at widths 56-64, the
        # benchmark's inference size.
        ("eval-long", ["eval", "--features", "data-long/features.jsonl", "--checkpoint",
                       "train-long/model.ckpt", "--vocab", "train-long/vocab.tsv",
                       "--out", "eval-long"]),
        ("synth-small", ["synth", "--out", "data-small", "--config", "synth-small.json",
                         "--seed", "19"]),
        ("lexicon-build-small", ["lexicon", "build", "--corpus", "data-small/corpus.jsonl",
                                 "--out", "lexicon-small/lexicon.jsonl"]),
        # Two classes, one keyword each and two filler words: most sentences of
        # data/ hold none of the lexicon's words, and lexicon apply warns for each.
        ("synth-sparse", ["synth", "--out", "data-sparse", "--config", "synth-sparse.json",
                          "--seed", "23"]),
        ("lexicon-build-sparse", ["lexicon", "build", "--corpus", "data-sparse/corpus.jsonl",
                                  "--out", "lexicon-sparse/lexicon.jsonl"]),
        ("lexicon-apply-sparse", ["lexicon", "apply", "--lexicon", "lexicon-sparse/lexicon.jsonl",
                                  "--features", feats, "--out", "lexicon-sparse/features-lex.jsonl"]),
    ]
    return cmds


def write_configs(out: Path) -> None:
    """The model configs at each max_len and the generator and train configs the script reads."""
    for max_len in MAX_LENS:
        (out / f"model{max_len}.json").write_text(
            f'{{"layers": 2, "heads": 2, "d_model": 16, "d_ff": 32, '
            f'"max_len": {max_len}, "dropout": 0.1}}\n')
    (out / "train.json").write_text('{"lr": 0.001, "batch_size": 7}\n')
    (out / "finetune.json").write_text(
        '{"init_source": "train24/eeg_embed/model.ckpt", "lr": 0.0005, "batch_size": 5, '
        '"epochs": 1, "repeats": 1, "seed": 4, "weight_decay": 0}\n')
    (out / "synth.json").write_text(
        '{"n_classes": 4, "distractors": 2, "eeg_noise": 0.5, "filler_fix_prob": 0.5}\n')
    (out / "synth-long.json").write_text('{"min_words": 48, "max_words": 62}\n')
    (out / "synth-small.json").write_text(
        '{"n_sentences": 30, "n_classes": 3, "eeg_channels": 3, "keywords_per_class": 1, '
        '"filler_fix_prob": 1.0, "distractors": 1}\n')
    (out / "synth-sparse.json").write_text(
        '{"n_sentences": 20, "n_classes": 2, "keywords_per_class": 1, "filler_vocab": 2}\n')
    (out / "model64.json").write_text(
        '{"layers": 2, "heads": 2, "d_model": 32, "d_ff": 64, "max_len": 64, "dropout": 0.1}\n')
    (out / "train-long.json").write_text('{"lr": 0.001, "batch_size": 8}\n')


def run_script(tree: Path, out: Path) -> list[str]:
    """Run every command against tree/src, keeping its stdout, stderr and exit code.

    Returns the names of the commands that exited non-zero.
    """
    out.mkdir(parents=True)
    write_configs(out)
    logs = out / "logs"
    logs.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    failed = []
    for i, (name, args) in enumerate(script()):
        proc = subprocess.run([sys.executable, "-m", "cogbert.cli", *args], cwd=out, env=env,
                              capture_output=True, text=True, check=False)
        stdout = "".join(line for line in proc.stdout.splitlines(keepends=True)
                         if not line.startswith("wall clock:"))
        (logs / f"{i:02d}-{name}.txt").write_text(
            f"exit {proc.returncode}\n--- stdout\n{stdout}--- stderr\n{proc.stderr}")
        if proc.returncode:
            failed.append(f"{name} (exit {proc.returncode})")
    return failed


def export(rev: str, dest: Path) -> str:
    """Write the committed tree of rev into dest; returns the full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **kwargs)
    return commit


def numbers(path: Path) -> np.ndarray:
    """The float data of a checkpoint, or every number written in a text file."""
    blob = path.read_bytes()
    if path.suffix == ".ckpt":
        n_tensors = int(blob[:blob.index(b"\n")].split()[-1])
        header = blob.split(b"\n", n_tensors + 1)
        offset = sum(len(line) + 1 for line in header[:n_tensors + 1])
        return np.frombuffer(blob[offset:], dtype="<f8")
    return np.array([float(tok) for tok in NUMBER.findall(blob.decode("utf-8", "replace"))])


def describe(a: Path, b: Path) -> str:
    try:
        x, y = numbers(a), numbers(b)
    except (ValueError, IndexError):
        return "unreadable numbers"
    if x.shape != y.shape:
        return f"number layout differs ({x.size} vs {y.size} numbers)"
    delta = np.abs(x - y).max(initial=0.0)
    return f"largest |delta| {delta:.3g}" if delta else "numbers equal, other text differs"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compare(base: Path, work: Path, expected: list[str]) -> tuple[int, list[str], list[str]]:
    """(files compared, unexpected differences, expected differences), each difference described."""
    files = sorted({p.relative_to(root).as_posix() for root in (base, work)
                    for p in root.rglob("*") if p.is_file()})
    unexpected, allowed = [], []
    for rel in files:
        a, b = base / rel, work / rel
        if not (a.is_file() and b.is_file()):
            detail = f"{rel}: only in {'work' if b.is_file() else 'base'}"
        elif sha256(a) == sha256(b):
            continue
        else:
            detail = f"{rel}: {describe(a, b)}"
        hit = any(fnmatch.fnmatch(rel, pattern) for pattern in expected)
        (allowed if hit else unexpected).append(detail)
    return len(files), unexpected, allowed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--expect-change", action="append", default=[], metavar="GLOB",
                        help="output path glob that may differ (repeatable)")
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="cogbert-equiv-"))
    commit = export(args.base, tmp / "tree")
    print(f"base {commit}; outputs under {tmp}", flush=True)
    failed = {"base": run_script(tmp / "tree", tmp / "base"), "work": run_script(ROOT, tmp / "work")}
    n_files, unexpected, allowed = compare(tmp / "base", tmp / "work", args.expect_change)

    for detail in allowed:
        print(f"expected change  {detail}")
    for detail in unexpected:
        print(f"DIFFERS          {detail}")
    print(f"{n_files} files compared: {len(unexpected)} differ unexpectedly, "
          f"{len(allowed)} differ as expected")
    for side, names in failed.items():
        if names:
            print(f"FAILED on {side}: {', '.join(names)} (see logs/)")
    if unexpected or any(failed.values()):
        print(f"outputs kept in {tmp}")
        return 1
    shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
