"""tools/equiv.py's comparison: which files differ, by how much, and which are expected."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from cogbert.model import random_params, save_checkpoint
from test_model import tiny_cfg

EQUIV = Path(__file__).resolve().parents[1] / "tools" / "equiv.py"


def load_equiv():
    spec = importlib.util.spec_from_file_location("tools_equiv", EQUIV)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_compare_reports_each_difference_with_its_largest_delta(tmp_path):
    equiv = load_equiv()
    base, work = tmp_path / "base", tmp_path / "work"
    params = random_params(tiny_cfg(), seed=1)
    for root in (base, work):
        (root / "run").mkdir(parents=True)
        (root / "same.json").write_text('{"f1": 0.5}\n')
        save_checkpoint(params, root / "run" / "model.ckpt")
    params["embed.word"].value[3, 2] += 1e-9
    save_checkpoint(params, work / "run" / "model.ckpt")
    (base / "scores.csv").write_text("w,1.0,2.5e-3\n")
    (work / "scores.csv").write_text("w,1.0,2.75e-3\n")
    (base / "log.txt").write_text("a b 1\n")
    (work / "log.txt").write_text("a c 1\n")
    (work / "extra.json").write_text("{}\n")

    n_files, unexpected, allowed = equiv.compare(base, work, ["*.ckpt"])
    assert n_files == 6  # the checkpoint sidecars are equal
    assert allowed == ["run/model.ckpt: largest |delta| 1e-09"]
    assert unexpected == ["extra.json: only in work",
                          "log.txt: numbers equal, other text differs",
                          "scores.csv: largest |delta| 0.00025"]
    assert equiv.compare(base, base, []) == (5, [], [])


def test_checkpoint_numbers_are_its_tensor_data(tmp_path):
    equiv = load_equiv()
    params = random_params(tiny_cfg(mode="pool_add_nn"), seed=2)
    save_checkpoint(params, tmp_path / "model.ckpt")
    want = np.concatenate([params[n].value.reshape(-1) for n in params.names()])
    np.testing.assert_array_equal(equiv.numbers(tmp_path / "model.ckpt"), want)


def test_script_covers_every_mode_and_command(tmp_path):
    equiv = load_equiv()
    script = [args for _, args in equiv.script()]
    commands = [args[0] for args in script]
    assert {"synth", "train", "eval", "explain", "lexicon", "report", "gradcheck"} <= set(commands)
    from cogbert.model import MODES
    assert equiv.MODES == MODES
    # The config paths: a generator config file, the robustness preset, flags over
    # a train config, and a fine-tuning run from a checkpoint trained before it.
    printed = [args for args in script if "--print-config" in args]
    assert any(args[0] == "synth" and "--config" in args for args in printed)
    assert any("--robustness" in args for args in printed)
    assert any({"--train-config", "--epochs", "--seed"} <= set(args) for args in printed)
    outs = [args[args.index("--out") + 1] for args in script
            if args[0] == "train" and "--print-config" not in args]
    equiv.write_configs(tmp_path)
    init_source = json.loads((tmp_path / "finetune.json").read_text())["init_source"]
    assert init_source.removesuffix("/model.ckpt") in outs[:outs.index("finetune")]
    # A synth run plants unfixated distractor keywords, and a lexicon is built over its corpus.
    planted = [args for args in script if args[0] == "synth" and "--config" in args
               and "--print-config" not in args]
    assert planted and json.loads((tmp_path / "synth.json").read_text())["distractors"] > 0
    corpus = f"{planted[0][planted[0].index('--out') + 1]}/corpus.jsonl"
    assert any(args[:2] == ["lexicon", "build"] and corpus in args for args in script)
    # Another has one keyword per class, every filler fixated and a non-default channel
    # count, and a lexicon is built over its corpus too.
    small = [args for args in planted if json.loads((tmp_path / args[args.index("--config") + 1])
                                                    .read_text()).get("keywords_per_class") == 1]
    generator = json.loads((tmp_path / small[0][small[0].index("--config") + 1]).read_text())
    assert generator["filler_fix_prob"] == 1.0 and generator["eeg_channels"] != 8
    corpus = f"{small[0][small[0].index('--out') + 1]}/corpus.jsonl"
    assert any(args[:2] == ["lexicon", "build"] and corpus in args for args in script)
    # An explain asks for more keywords than a max_len 10 sentence keeps (8 words).
    assert any(args[args.index("--checkpoint") + 1].startswith("train10/")
               and int(args[args.index("--k") + 1]) > 8
               for args in script if args[0] == "explain" and "--k" in args)
    # An explain of two sentences at a kernel narrow enough for LIME to warn about each.
    assert any(float(args[args.index("--kernel-width") + 1]) <= 1.0
               and len(args[args.index("--ids") + 1].split(",")) == 2
               for args in script if args[0] == "explain" and "--kernel-width" in args)
    # A training run whose batches can reach 8 sentences of 64 positions (B*T = 512).
    long_runs = [args for args in script if args[0] == "train" and "model64.json" in args]
    assert long_runs
    features = long_runs[0][long_runs[0].index("--features") + 1]
    synth = next(args for args in script if args[0] == "synth"
                 and features == f"{args[args.index('--out') + 1]}/features.jsonl")
    generator = json.loads((tmp_path / synth[synth.index("--config") + 1]).read_text())
    model = json.loads((tmp_path / "model64.json").read_text())
    train_cfg = json.loads((tmp_path / long_runs[0][long_runs[0].index("--train-config") + 1])
                           .read_text())
    assert generator["max_words"] + 2 == model["max_len"] == 64
    assert train_cfg["batch_size"] * model["max_len"] == 512
    # Its checkpoint explains sentences of that corpus, under the LIME position budget.
    out = long_runs[0][long_runs[0].index("--out") + 1]
    assert any(args[0] == "explain" and args[args.index("--checkpoint") + 1].startswith(out + "/")
               and args[args.index("--features") + 1] == features for args in script)
    # And it evaluates that whole corpus: a full eval batch of 32 at widths 56-64.
    assert any(args[0] == "eval" and args[args.index("--checkpoint") + 1].startswith(out + "/")
               and args[args.index("--features") + 1] == features and "--split-ratio" not in args
               for args in script)
    assert int(synth[synth.index("--n-sentences") + 1]) >= 32
