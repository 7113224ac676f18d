"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Oracles here are written independently of the
library paths they check (explicit loops, closed forms, exhaustive
enumeration) and tolerances are the criteria's stated ones.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from cogbert.cli import main as cli_main
from cogbert.explain import accumulate_attention, explain_sentence, lime_explain
from cogbert.features import (
    FeatureDb,
    SynthConfig,
    build_lexicon,
    eeg_token_raw,
    eye_token_raw,
    lexicon_sentence_eeg,
    scale_eeg_tokens,
    scale_eye_tokens,
    sentence_eeg,
    synth_generate,
    CognitiveRecord,
    N_EEG_VECTORS,
)
from cogbert.model import (
    MODES,
    Example,
    ModelConfig,
    build_batch,
    embed,
    encoder_forward,
    fuse_pooled,
    gradcheck_mode,
    random_params,
)
from cogbert.numerics import autodiff as ad
from cogbert.numerics.rng import SeededRng
from cogbert.tokenizer import build_vocab, encode
from cogbert.training import Metrics, TrainConfig, evaluate, make_examples, split, train


def passed(criterion: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {criterion:02d}] {name}: PASS{suffix}")


def test_c01_gradient_integrity():
    """All 9 augmentation modes pass grad_check < 1e-4 on the tiny config."""
    started = time.perf_counter()
    worst_by_mode = {}
    for mode in MODES:
        report = gradcheck_mode(mode, seed=0, layers=2, heads=2,
                                d_model=16, d_ff=32, max_len=16)
        worst_by_mode[mode] = max(report.values())
    elapsed = time.perf_counter() - started
    assert len(worst_by_mode) == 9
    for mode, worst in worst_by_mode.items():
        assert worst < 1e-4, f"{mode} worst error {worst:.3e}"
    assert elapsed < 60.0
    passed(1, "gradient integrity",
           f"worst {max(worst_by_mode.values()):.2e}, {elapsed:.1f}s for 9 modes")


def _random_sentences(rng, n, cfg):
    vocab = build_vocab([[f"w{i}" for i in range(40)]])
    examples, records = [], []
    for i in range(n):
        length = int(rng.integers(1, cfg.max_len - 2))
        words = [f"w{int(rng.integers(40))}" for _ in range(length)]
        n_fix = rng.integers(0, 4, size=length)
        records.append(CognitiveRecord(
            sentence_id=f"r{i}", tokens=words, label=0,
            n_fixations=n_fix,
            eye_tokens=np.where(n_fix > 0, rng.integers(1, 101, length), 0),
            eeg_tokens=np.where(n_fix > 0, rng.integers(1, 101, length), 0),
            sentence_eeg=rng.normal(size=cfg.eeg_channels),
        ))
        examples.append(Example(f"r{i}", encode(words, vocab, cfg.max_len), 0))
    return examples, FeatureDb(records)


def test_c02_mask_semantics():
    """PAD columns, and under cog_mask all n_fix <= 1 tokens, get < 1e-4."""
    rng = SeededRng(202).derive("mask-check")
    for mode in ("none", "cog_mask"):
        cfg = ModelConfig(vocab_size=120, n_classes=4, layers=2, heads=2,
                          d_model=16, d_ff=32, max_len=12, eeg_channels=4,
                          dropout=0.0, mode=mode)
        params = random_params(cfg, seed=1)
        examples, db = _random_sentences(rng, 100, cfg)
        for start in range(0, 100, 20):
            chunk = examples[start:start + 20]
            result = encoder_forward(params, build_batch(chunk, cfg, db))
            for ex, attention in zip(chunk, result.attention, strict=True):
                pad = np.ones(attention.shape[-1], dtype=bool)
                pad[: len(ex.ids)] = False
                assert attention[:, :, :, pad].max(initial=0.0) < 1e-4
                if mode == "cog_mask":
                    rec = db.get(ex.sentence_id)
                    for pos in range(1, len(ex.ids) - 1):
                        if rec.n_fixations[pos - 1] <= 1:
                            assert attention[:, :, :, pos].max() < 1e-4
    passed(2, "mask semantics", "100 sentences x {none, cog_mask}")


def test_c03_formula_oracles():
    """Feature formulas match independent brute-force implementations."""
    rng = SeededRng(303).derive("formulas")

    # eye_token_raw on 1000 random fixation records
    for _ in range(1000):
        n = int(rng.integers(0, 6))
        d = rng.uniform(0, 500, size=4) if n else np.zeros(4)
        assert eye_token_raw([n], [[*d, 0.0]])[0] == pytest.approx(
            n * (d[0] + d[1] + d[2] + d[3]), abs=1e-9)

    # eeg_token_raw on 1000 random words
    for _ in range(1000):
        channels = rng.normal(size=(N_EEG_VECTORS, 6))
        total = 0.0
        for row in channels:
            for v in row:
                total += v
        assert eeg_token_raw([channels])[0] == pytest.approx(
            total / channels.size, abs=1e-9)

    # sentence_eeg on 1000 random band stacks
    for _ in range(1000):
        bands = rng.normal(size=(8, 5))
        expected = [sum(bands[b][c] for b in range(8)) / 8 for c in range(5)]
        np.testing.assert_allclose(sentence_eeg(bands), expected, atol=1e-9)

    # scale_eye_tokens on 1000 random sentences (integer-exact)
    for _ in range(1000):
        raw = rng.uniform(0, 2000, size=int(rng.integers(1, 15)))
        if rng.random() < 0.1:
            raw = np.zeros_like(raw)
        got = scale_eye_tokens(raw)
        peak = raw.max()
        expected = [0 if peak == 0 else math.floor(100 * v / peak + 0.5) for v in raw]
        assert got.tolist() == expected

    # scale_eeg_tokens over corpora totalling >= 1000 values (integer-exact)
    for _ in range(50):
        n = int(rng.integers(20, 60))
        fixated = rng.random(n) < 0.7
        raw = np.where(fixated, rng.normal(1.0, 2.0, n), 0.0)
        got = scale_eeg_tokens(raw, fixated)
        vals = raw[fixated]
        expected = np.zeros(n, dtype=int)
        if vals.size:
            shifted = vals - min(vals.min(), 0.0)
            if shifted.max() > 0:
                scaled = [math.floor(100 * v / shifted.max() + 0.5) for v in shifted]
                expected[fixated] = scaled
        assert got.tolist() == expected.tolist()

    # build_lexicon vs collect-then-average on ~1200 word occurrences
    measurements, _, _ = synth_generate(SynthConfig(n_sentences=120), seed=71)
    lex = build_lexicon(measurements)
    collected = {}
    n_occurrences = 0
    for m in measurements:
        eeg = iter(m.word_eeg)
        for w, n in zip(m.words, m.n_fixations):
            n_occurrences += 1
            if n > 0:
                collected.setdefault(w, []).append(next(eeg).mean(axis=0))
    assert n_occurrences >= 1000
    assert set(lex.vectors) == set(collected)
    for w, vecs in collected.items():
        np.testing.assert_allclose(lex.vectors[w], np.mean(vecs, axis=0), atol=1e-9)
        assert lex.counts[w] == len(vecs)

    # lexicon_sentence_eeg on 1000 random sentences
    lex_words = sorted(lex.vectors)
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        words = [lex_words[int(rng.integers(len(lex_words)))] if rng.random() < 0.8
                 else f"oov{int(rng.integers(5))}" for _ in range(n)]
        vec, coverage = lexicon_sentence_eeg(words, lex, 8)
        hits = [lex.vectors[w] for w in words if w in lex.vectors]
        if hits:
            np.testing.assert_allclose(vec, np.mean(hits, axis=0), atol=1e-9)
            assert coverage == pytest.approx(len(hits) / n)
        else:
            assert not vec.any() and coverage == 0.0

    # fuse_pooled(pool_multiply) closed form on 1000 random pairs
    cfg = ModelConfig(vocab_size=120, n_classes=4, d_model=16, heads=2,
                      eeg_channels=6, dropout=0.0, mode="pool_multiply")
    params = random_params(cfg, seed=0)
    for _ in range(1000):
        pooled = rng.normal(size=(1, 16))
        eeg = rng.normal(size=(1, 6))
        out = fuse_pooled(ad.const(pooled), eeg, params)
        np.testing.assert_allclose(out.value, pooled * eeg.sum() / 16, atol=1e-9)

    passed(3, "formula oracles", ">= 1000 random inputs per op")


def test_c04_structural_contracts():
    """Fusion output widths (desk and paper scale) and embed's table-sum."""
    paper = dict(vocab_size=110, n_classes=8, layers=1, heads=2, d_ff=8,
                 max_len=8, dropout=0.0, d_model=768, eeg_channels=105)
    cfg = ModelConfig(**{**paper, "mode": "pool_concat"})
    out = fuse_pooled(ad.const(np.zeros((1, 768))), np.zeros((1, 105)), random_params(cfg, 0))
    assert out.value.shape == (1, 873)

    cfg = ModelConfig(**{**paper, "mode": "pool_concat_nn"})
    out = fuse_pooled(ad.const(np.zeros((1, 768))), np.zeros((1, 105)), random_params(cfg, 0))
    assert out.value.shape == (1, 1536)

    desk = ModelConfig(vocab_size=120, n_classes=4, d_model=16, heads=2,
                       eeg_channels=4, dropout=0.0, mode="pool_concat")
    out = fuse_pooled(ad.const(np.zeros((1, 16))), np.zeros((1, 4)), random_params(desk, 0))
    assert out.value.shape == (1, 20)

    # embed's layer-norm node sums its two summands: every table's rows, per table set.
    for mode in ("none", "eeg_embed", "eye_embed", "both_embed"):
        cfg = ModelConfig(vocab_size=120, n_classes=4, d_model=16, heads=2, max_len=10,
                          eeg_channels=4, dropout=0.0, mode=mode)
        params = random_params(cfg, seed=3)
        rng = SeededRng(44).derive("embed")
        ids = rng.integers(0, cfg.vocab_size, size=(1, 10))
        tokens = {table: rng.integers(0, 101, size=(1, 10)) for table in cfg.token_tables}
        node = embed(params, ids, tokens)
        got = node.parents[0].value + node.parents[1].value
        for pos in range(10):
            expected = (params["embed.word"].value[ids[0, pos]]
                        + params["embed.position"].value[pos])
            for table, values in tokens.items():
                expected = expected + params[f"embed.{table}"].value[values[0, pos]]
            np.testing.assert_allclose(got[pos], expected, atol=1e-12, err_msg=mode)

    passed(4, "structural contracts", "873/1536 at paper scale; embed sum <= 1e-12")


def test_c05_attention_accumulation():
    """Accumulation equals the triple loop (1e-12) and conserves mass (1e-6)."""
    rng = np.random.default_rng(505)
    vocab = build_vocab([["a", "b", "c", "d", "e", "f", "g", "h"]])
    words_pool = ["a", "b", "c", "d", "e", "f", "g", "h"]
    layers, heads, max_len = 2, 2, 12
    for _ in range(50):
        n_words = int(rng.integers(1, 9))
        ids = encode(words_pool[:n_words], vocab, max_len)
        scores = rng.normal(size=(layers, heads, max_len, max_len))
        scores[..., len(ids):] = -np.inf
        e = np.exp(scores - scores.max(axis=3, keepdims=True))
        attention = e / e.sum(axis=3, keepdims=True)

        got = accumulate_attention(attention, len(ids))
        real = range(len(ids))
        oracle = {j: 0.0 for j in real}
        for layer in range(layers):
            for head in range(heads):
                for i in real:
                    for j in real:
                        oracle[j] += attention[layer, head, i, j]
        assert got.shape == (len(real),)
        for j in real:
            assert abs(got[j] - oracle[j]) < 1e-12
        total = got.sum()
        assert abs(total - layers * heads * len(real)) < 1e-6
    passed(5, "attention accumulation", "50 random attention arrays")


def test_c06_metrics_oracle():
    """evaluate's metric math matches a loop-based confusion count exactly."""
    m = Metrics.from_predictions([0, 0, 1], [0, 1, 1], 2)
    assert m.accuracy == pytest.approx(2 / 3)
    assert m.precision == pytest.approx(0.75)
    assert m.recall == pytest.approx(0.75)

    rng = SeededRng(606).derive("metrics")
    for _ in range(100):
        k = int(rng.integers(2, 10))
        n = int(rng.integers(1, 80))
        truth = rng.integers(0, k, size=n)
        pred = rng.integers(0, k, size=n)
        m = Metrics.from_predictions(truth, pred, k)
        precisions, recalls, f1s = [], [], []
        correct = 0
        for c in range(k):
            tp = fp = fn = 0
            for t, p in zip(truth, pred):
                if p == c and t == c:
                    tp += 1
                elif p == c:
                    fp += 1
                elif t == c:
                    fn += 1
            correct += tp
            assert (m.tp[c], m.fp[c], m.fn[c]) == (tp, fp, fn)
            assert m.tn[c] == n - tp - fp - fn
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            # Per-class values are single IEEE divisions: bit-equal.
            assert m.per_class_precision[c] == prec
            assert m.per_class_recall[c] == rec
            precisions.append(prec)
            recalls.append(rec)
            f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        # Macro means are equal up to summation order (pairwise vs sequential).
        assert m.precision == pytest.approx(sum(precisions) / k, abs=1e-12)
        assert m.recall == pytest.approx(sum(recalls) / k, abs=1e-12)
        assert m.f1 == pytest.approx(sum(f1s) / k, abs=1e-12)
        assert m.accuracy == correct / n
    passed(6, "metrics oracle", "counts exact on 100 random sets + hand example")


def _standard_corpus(seed=7):
    cfg = SynthConfig(n_sentences=500)
    _, db, _ = synth_generate(cfg, seed=seed)
    vocab = build_vocab([db.get(s).tokens for s in db.ids()])
    return cfg, db, vocab


def _mini_model(vocab, mode="none"):
    return ModelConfig(vocab_size=vocab.size, n_classes=8, layers=2, heads=2,
                       d_model=32, d_ff=64, max_len=32, eeg_channels=8,
                       dropout=0.0, mode=mode)


def test_c07_end_to_end_learnability():
    """Vanilla mini-model reaches >= 0.95 test accuracy, 3/3 seeds, in budget."""
    synth_cfg, db, vocab = _standard_corpus()
    assert len(vocab.word_to_id) - 4 == 200  # planted vocabulary size
    cfg = _mini_model(vocab)
    examples = make_examples(db, vocab, cfg.max_len)
    train_ex, test_ex = split(examples, 0.8, seed=1)
    assert (len(train_ex), len(test_ex)) == (400, 100)

    accuracies = []
    for seed in (1, 2, 3):
        tcfg = TrainConfig(epochs=12, batch_size=8, lr=5e-4, seed=seed, repeats=1)
        started = time.perf_counter()
        params, _ = train(tcfg, cfg, train_ex, db)
        metrics = evaluate(params, test_ex, db)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"seed {seed} took {elapsed:.0f}s"
        accuracies.append(metrics.accuracy)
    assert all(a >= 0.95 for a in accuracies), accuracies
    passed(7, "end-to-end learnability",
           "accuracies " + ", ".join(f"{a:.3f}" for a in accuracies) + " (12 epochs)")


def test_c08_cognitive_benefit_trend():
    """On the distractor corpus, cog_mask and eeg_embed means >= vanilla mean."""
    cfg_synth = SynthConfig(n_sentences=400, distractors=2, max_keywords=2)
    _, db, _ = synth_generate(cfg_synth, seed=11)
    vocab = build_vocab([db.get(s).tokens for s in db.ids()])
    examples = make_examples(db, vocab, 32)
    train_ex, test_ex = split(examples, 0.8, seed=2)

    means = {}
    for mode in ("none", "cog_mask", "eeg_embed"):
        cfg = _mini_model(vocab, mode)
        accs = []
        for seed in (1, 2, 3, 4, 5):
            tcfg = TrainConfig(epochs=8, batch_size=8, lr=5e-4, seed=seed, repeats=1)
            params, _ = train(tcfg, cfg, train_ex, db)
            accs.append(evaluate(params, test_ex, db).accuracy)
        means[mode] = float(np.mean(accs))
        print(f"\n  {mode:10s} per-seed: " + " ".join(f"{a:.3f}" for a in accs)
              + f"  mean {means[mode]:.3f}")
    assert means["cog_mask"] >= means["none"]
    assert means["eeg_embed"] >= means["none"]
    passed(8, "cognitive benefit trend",
           f"vanilla {means['none']:.3f} vs cog_mask {means['cog_mask']:.3f}, "
           f"eeg_embed {means['eeg_embed']:.3f}")


def test_c09_lime_fidelity():
    """Top-1 surrogate word = teacher's max-weight present word >= 90% of 50."""
    rng = SeededRng(909).derive("teacher")
    pool = [f"word{i}" for i in range(30)]
    hits = 0
    oracle_hits = 0
    for s in range(50):
        n = int(rng.integers(4, 11))  # n <= 10 keeps enumeration exact
        idx = rng.choice(len(pool), size=n, replace=False)
        words = [pool[i] for i in idx]
        weights = rng.uniform(0.1, 1.5, size=n)

        def teacher(masks):
            return 1.0 / (1.0 + np.exp(-(np.asarray(masks) @ weights - weights.sum() / 2)))

        scores = lime_explain(lambda masks: teacher(masks.astype(float)),
                              len(words), n_samples=300, seed=s)
        if int(np.argmax(scores)) == int(np.argmax(weights)):
            hits += 1

        # Exhaustive-enumeration oracle over all 2^n - 1 nonzero masks.
        masks = np.array([[(bits >> i) & 1 for i in range(n)]
                          for bits in range(1, 2**n)], dtype=float)
        y = np.array([teacher(mask) for mask in masks])
        d = 1.0 - np.sqrt(masks.sum(axis=1) / n)
        w = np.exp(-((100.0 * d) ** 2) / 25.0**2)
        w = w / w.sum()
        design = np.hstack([np.ones((len(masks), 1)), masks])
        gram = design.T @ (design * w[:, None])
        penalty = np.eye(n + 1) * 1e-3
        penalty[0, 0] = 0.0
        coefs = np.linalg.solve(gram + penalty, (design * w[:, None]).T @ y)[1:]
        if int(np.argmax(coefs)) == int(np.argmax(weights)):
            oracle_hits += 1

    assert oracle_hits >= 45, f"oracle surrogate only matched {oracle_hits}/50"
    assert hits >= 45, f"sampled surrogate only matched {hits}/50"
    passed(9, "LIME fidelity", f"top-1 match {hits}/50 (oracle {oracle_hits}/50)")


def test_c10_explainer_correlation():
    """Planted keyword in both top-5 lists >= 70% of correct test sentences."""
    synth_cfg, db, vocab = _standard_corpus()
    examples = make_examples(db, vocab, 32)
    train_ex, test_ex = split(examples, 0.8, seed=1)

    for mode in ("none", "eeg_embed"):
        cfg = _mini_model(vocab, mode)
        tcfg = TrainConfig(epochs=10, batch_size=8, lr=5e-4, seed=4, repeats=1)
        params, _ = train(tcfg, cfg, train_ex, db)

        both_contain = 0
        checked = 0
        overlaps = []
        for ex in test_ex:
            if checked >= 25:
                break
            report = explain_sentence(params, db, vocab, ex.sentence_id,
                                      k=5, n_samples=200, seed=10)
            if report.predicted_class != ex.label:
                continue
            checked += 1
            overlaps.append(report.overlap)
            planted = set(synth_cfg.keywords(ex.label))
            if planted & set(report.attention_top) and planted & set(report.lime_top):
                both_contain += 1

        assert checked >= 10, "too few correctly classified sentences to assess"
        fraction = both_contain / checked
        print(f"\n  {mode:10s} keyword-in-both-top5 {both_contain}/{checked}"
              f"  mean overlap@5 {np.mean(overlaps):.3f}")
        assert fraction >= 0.70, f"{mode}: only {fraction:.2f}"
    passed(10, "explainer correlation", ">= 70% in both top-5 lists per mode")


def test_c11_reproducibility(tmp_path):
    """Identical seeds reproduce byte-identical report files for every command."""
    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    digests = []
    for round_name in ("first", "second"):
        root = tmp_path / round_name
        data = root / "data"
        assert cli_main(["synth", "--out", str(data), "--seed", "21",
                         "--n-sentences", "32"]) == 0
        run = root / "run"
        assert cli_main(["train", "--features", str(data / "features.jsonl"),
                         "--out", str(run), "--mode", "pool_add_nn",
                         "--repeats", "1", "--epochs", "1", "--seed", "13"]) == 0
        lex = root / "lexicon.jsonl"
        assert cli_main(["lexicon", "build", "--corpus", str(data / "corpus.jsonl"),
                         "--out", str(lex)]) == 0
        applied = root / "applied.jsonl"
        assert cli_main(["lexicon", "apply", "--lexicon", str(lex),
                         "--features", str(data / "features.jsonl"),
                         "--out", str(applied)]) == 0
        exp = root / "explain"
        assert cli_main(["explain", "--features", str(data / "features.jsonl"),
                         "--checkpoint", str(run / "model.ckpt"),
                         "--vocab", str(run / "vocab.tsv"),
                         "--ids", "s0000,s0001", "--out", str(exp),
                         "--n-samples", "40", "--seed", "17"]) == 0
        combined = root / "combined.csv"
        assert cli_main(["report", "--inputs", str(run / "report.json"),
                         "--out", str(combined)]) == 0

        files = [data / "corpus.jsonl", data / "features.jsonl",
                 run / "report.json", run / "report.csv", run / "model.ckpt",
                 run / "vocab.tsv", lex, applied,
                 applied.with_name("applied.jsonl.coverage.json"),
                 exp / "explain_s0000.json", exp / "heatmap_s0001.csv",
                 exp / "explain_summary.json", combined]
        digests.append([sha(f) for f in files])

    assert digests[0] == digests[1]
    passed(11, "reproducibility", f"{len(digests[0])} files checksummed twice")
