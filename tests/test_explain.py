"""Explanation pipelines: accumulation against a triple-loop oracle, keyword
ranking rules, surrogate fidelity against exhaustive enumeration, LIME
perturbation batches against a per-sample record oracle, LIME forwards under
the position budget against one-at-a-time forwards, agreement, the explain
file formats."""

import json
import math

import numpy as np
import pytest

from cogbert import explain
from cogbert.errors import NumericError, ValidationError
from cogbert.explain import (
    DISTANCE_SCALE,
    ExplanationReport,
    accumulate_attention,
    explain_sentence,
    lime_explain,
    top_k,
    weighted_ridge,
)
from cogbert.features import CognitiveRecord, FeatureDb
from cogbert.model import (MODES, Example, ModelConfig, batch_width, build_batch,
                           random_params, word_selections)
from cogbert.numerics.rng import SeededRng
from cogbert.tokenizer import build_vocab, encode

WORDS10 = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "jj", "kk"]
VOCAB = build_vocab([WORDS10])


def random_attention(layers, heads, n, t, rng):
    """Row-stochastic (layers, heads, t, t) attention with zero mass past the n real columns."""
    scores = rng.normal(size=(layers, heads, t, t))
    scores[..., n:] = -np.inf
    e = np.exp(scores - scores.max(axis=3, keepdims=True))
    return e / e.sum(axis=3, keepdims=True)


def accumulate_oracle(attention, n):
    """Triple loop over (layer, head, row), summing the n real columns."""
    scores = {j: 0.0 for j in range(n)}
    layers, heads = attention.shape[:2]
    for layer in range(layers):
        for head in range(heads):
            for i in range(n):
                for j in range(n):
                    scores[j] += attention[layer, head, i, j]
    return scores


class TestAccumulateAttention:
    def test_hand_column_sums(self):
        # One layer, one head, two real tokens (CLS and SEP): columns sum to 0.7 and 1.3.
        probs = np.zeros((1, 1, 4, 4))
        probs[0, 0, :2, :2] = [[0.5, 0.5], [0.2, 0.8]]
        assert accumulate_attention(probs, 2).tolist() == pytest.approx([0.7, 1.3])

    def test_identity_matrices_score_layers_times_heads(self):
        probs = np.tile(np.eye(6), (2, 2, 1, 1))
        assert accumulate_attention(probs, 5).tolist() == pytest.approx([4.0] * 5)

    def test_uniform_attention_arithmetic(self):
        # 4 real tokens, uniform rows: every token collects L*H*n*(1/n) = 4.
        probs = np.full((2, 2, 4, 4), 0.25)
        assert accumulate_attention(probs, 4).tolist() == pytest.approx([4.0] * 4)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n = int(rng.integers(1, 9)) + 2
            attention = random_attention(2, 2, n, 12, rng)
            scores = accumulate_attention(attention, n)
            oracle = accumulate_oracle(attention, n)
            assert scores.shape == (n,)
            assert scores.tolist() == pytest.approx([oracle[j] for j in range(len(scores))], abs=1e-12)

    def test_strided_view_sums_like_contiguous_array(self):
        """encoder_forward returns a (B, L, ...) view of a layer-major array; the
        fancy index copies it, so the sums run in the same order."""
        rng = np.random.default_rng(107)
        layer_major = np.stack([np.stack([random_attention(1, 2, 9, 16, rng)[0]
                                          for _ in range(3)]) for _ in range(2)])
        view = layer_major.transpose(1, 0, 2, 3, 4)  # (B=3, L=2, H=2, T, T)
        for b in range(3):
            got = accumulate_attention(view[b], 9)
            want = accumulate_attention(np.ascontiguousarray(view[b]), 9)
            assert got.tolist() == want.tolist()

    def test_total_mass_equals_layers_heads_rows(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            n = int(rng.integers(1, 9)) + 2
            attention = random_attention(3, 2, n, 12, rng)
            total = accumulate_attention(attention, n).sum()
            assert total == pytest.approx(3 * 2 * n, abs=1e-6)



class TestTopK:
    def test_ordering(self):
        assert top_k(np.array([3.0, 1.0, 2.0]), 2).tolist() == [0, 2]

    def test_tie_prefers_earlier_position(self):
        assert top_k(np.array([2.0, 2.0, 1.0]), 1).tolist() == [0]
        assert top_k(np.array([1.0, 0.0, -0.0, 1.0]), 4).tolist() == [0, 3, 1, 2]

    def test_k_larger_than_sentence_returns_all(self):
        assert top_k(np.array([3.0, 1.0, 2.0]), 5).tolist() == [0, 2, 1]
        with pytest.raises(ValidationError, match="k must be >= 1"):
            top_k(np.array([3.0]), 0)

    def test_special_tokens_never_ranked(self):
        report = ExplanationReport("s", 0, ["aa", "bb"], np.array([99.0, 1.0, 0.5, 98.0]),
                                   np.array([0.1, 0.2]), k=2)
        assert report.attention_top == ["aa", "bb"]

    def test_deterministic(self):
        scores = np.random.default_rng(5).normal(size=4)
        assert top_k(scores, 3).tolist() == top_k(scores.copy(), 3).tolist()


def exhaustive_surrogate(teacher, words, kernel_width, lam):
    """Independent fit over every nonzero mask via weighted lstsq."""
    n = len(words)
    masks = []
    for bits in range(1, 2**n):
        masks.append([(bits >> i) & 1 for i in range(n)])
    masks = np.array(masks, dtype=float)
    y = np.array([teacher(mask) for mask in masks])
    d = 1.0 - np.sqrt(masks.sum(axis=1) / n)
    w = np.exp(-((DISTANCE_SCALE * d) ** 2) / kernel_width**2)
    w = w / w.sum()
    design = np.hstack([np.ones((len(masks), 1)), masks])
    sq = np.sqrt(w)
    a = design * sq[:, None]
    a_pen = np.vstack([a, np.sqrt(lam) * np.eye(n + 1)[1:]])
    b_pen = np.concatenate([y * sq, np.zeros(n)])
    coefs, *_ = np.linalg.lstsq(a_pen, b_pen, rcond=None)
    return coefs[1:]


class TestLime:
    def test_constant_model_gives_zero_coefficients(self):
        scores = lime_explain(lambda masks: np.full(len(masks), 0.42), 6, n_samples=300, seed=1)
        assert scores.shape == (6,) and (abs(scores) < 1e-6).all()

    def test_dominant_word_wins_and_matches_exhaustive_fit(self):
        rng = SeededRng(7).derive("teacher")
        words = WORDS10[:8]
        weights = rng.uniform(0.0, 0.3, size=len(words))
        weights[3] = 2.0  # dominant word "dd"

        def teacher_on_mask(mask):
            return float(1.0 / (1.0 + math.exp(-(mask @ weights - 1.0))))

        def predict(masks):
            return [teacher_on_mask(mask) for mask in masks.astype(float)]

        scores = lime_explain(predict, len(words), n_samples=400, seed=3)
        assert int(np.argmax(scores)) == 3  # "dd"

        oracle = exhaustive_surrogate(teacher_on_mask, words, 25.0, 1e-3)
        assert int(np.argmax(oracle)) == 3

    def test_kernel_too_narrow_for_every_sample_is_a_numeric_error(self, recwarn):
        """No sample keeps all 9 words at seed 2, so at width 1e-3 every weight
        underflows to 0. At 1e-200 the width's square is 0, and the 2-word
        samples that keep both words get NaN. The error comes before any
        prediction, with no numpy warning."""
        calls = []
        for n_words, width in ((9, 1e-3), (2, 1e-200)):
            with pytest.raises(NumericError, match=rf"^kernel width {width!r} leaves none of the "
                                                   r"30 perturbations a positive weight; use a "
                                                   r"wider kernel$"):
                lime_explain(lambda masks: calls.append(masks) or np.zeros(len(masks)), n_words,
                             n_samples=30, kernel_width=width, seed=2)
        assert calls == [] and len(recwarn) == 0
        # A sample that keeps every word has weight 1 at any width whose square is > 0.
        scores = lime_explain(lambda masks: masks.mean(axis=1), 2, n_samples=30,
                              kernel_width=1e-3, seed=2)
        assert np.isfinite(scores).all()

    def test_kernel_that_weighs_about_one_sample_warns(self, caplog):
        """At width 0.25 only the samples that keep all 9 words, or all but one
        (weight ~1e-227), keep a weight: the effective sample size is 1.00, the
        fit sees one mask and every coefficient is ~0."""
        teacher = np.linspace(0.0, 0.9, 9)
        with caplog.at_level("WARNING", logger="cogbert.explain"):
            scores = lime_explain(lambda m: m @ teacher / 3, 9, n_samples=200, kernel_width=0.25,
                                  seed=0)
        assert np.abs(scores).max() < 1e-6
        assert [r.getMessage() for r in caplog.records] == [
            "lime: kernel width 0.25 leaves an effective sample size of 1.00 of 200 "
            "perturbations; the surrogate fits about one, so its scores say little"]
        caplog.clear()
        with caplog.at_level("WARNING", logger="cogbert.explain"):
            scores = lime_explain(lambda m: m @ teacher / 3, 9, n_samples=200, seed=0)
        assert caplog.records == [] and (np.diff(scores) > 0.03).all()  # the teacher's order

    def test_default_kernel_does_not_warn(self, caplog):
        with caplog.at_level("WARNING", logger="cogbert.explain"):
            for n_words in range(1, 65):
                for n_samples in (10, 200):
                    lime_explain(lambda m: m.mean(axis=1), n_words, n_samples=n_samples, seed=0)
        assert caplog.records == []

    def test_same_seed_identical_coefficients(self):
        def predict(masks):
            return masks.mean(axis=1)

        a = lime_explain(predict, 5, n_samples=100, seed=9)
        b = lime_explain(predict, 5, n_samples=100, seed=9)
        assert a.tolist() == b.tolist()

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValidationError):
            lime_explain(lambda mask: 0.0, 1, n_samples=5)

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValidationError):
            lime_explain(lambda mask: 0.0, 0, n_samples=50)

    def test_predict_fn_must_return_one_finite_value_per_mask(self):
        seen = []

        def record_masks(masks):
            seen.append(masks)
            return masks.mean(axis=1)

        lime_explain(record_masks, 4, n_samples=30, seed=2)
        assert seen[0].shape == (30, 4) and seen[0].dtype == bool
        for bad in (lambda m: m.mean(axis=1)[:-1], lambda m: m.mean(axis=1)[:, None],
                    lambda m: np.where(m[:, 0], np.nan, 0.5), lambda m: np.full(len(m), np.inf),
                    lambda m: 0.5):
            with pytest.raises(ValidationError, match="30 finite"):
                lime_explain(bad, 4, n_samples=30, seed=2)

    def test_fit_invariant_under_sample_replication(self):
        rng = np.random.default_rng(11)
        masks = (rng.random((40, 6)) < 0.5).astype(float)
        masks[masks.sum(axis=1) == 0, 0] = 1.0
        targets = rng.random(40)
        weights = rng.uniform(0.1, 1.0, size=40)
        once = weighted_ridge(masks, targets, weights, 1e-3)
        twice = weighted_ridge(np.vstack([masks, masks]),
                               np.concatenate([targets, targets]),
                               np.concatenate([weights, weights]), 1e-3)
        np.testing.assert_allclose(once, twice, atol=1e-12)


class TestPerturbationBatch:
    """word_selections of a sentence's batch row, against a per-sample record oracle."""

    BATCH_FIELDS = ("ids", "masks", "sent_eeg", "labels")

    @staticmethod
    def record(rng, words, sentence_id="s"):
        n_fix = rng.integers(0, 4, size=len(words))
        return CognitiveRecord(
            sentence_id=sentence_id, tokens=words, label=2, n_fixations=n_fix,
            eye_tokens=np.where(n_fix > 0, rng.integers(1, 101, size=len(words)), 0),
            eeg_tokens=np.where(n_fix > 0, rng.integers(1, 101, size=len(words)), 0),
            sentence_eeg=rng.normal(size=4),
        )

    @staticmethod
    def per_sample_batch(rec, keep_masks, cfg):
        """Oracle: per row, a sub-record of the kept words, encoded afresh, all in one batch."""
        subs = []
        for r, keep in enumerate(keep_masks):
            idx = np.flatnonzero(keep)
            subs.append(CognitiveRecord(
                sentence_id=f"{rec.sentence_id}/{r}", tokens=[rec.tokens[i] for i in idx],
                label=rec.label, n_fixations=rec.n_fixations[idx], eye_tokens=rec.eye_tokens[idx],
                eeg_tokens=rec.eeg_tokens[idx], sentence_eeg=rec.sentence_eeg,
            ))
        examples = [Example(sub.sentence_id, encode(sub.tokens, VOCAB, cfg.max_len), sub.label)
                    for sub in subs]
        return build_batch(examples, cfg, FeatureDb(subs))

    def assert_batches_equal(self, got, want, context):
        for name in self.BATCH_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), (context, name)
            if a is not None:
                assert a.dtype == b.dtype and np.array_equal(a, b), (context, name)
        assert got.tokens.keys() == want.tokens.keys(), context
        for table, a in got.tokens.items():
            b = want.tokens[table]
            assert a.dtype == b.dtype and np.array_equal(a, b), (context, table)

    def test_matches_per_sample_record_path(self):
        rng = np.random.default_rng(21)
        records = {
            "9 words": self.record(rng, WORDS10[:8] + ["zz"]),  # "zz" is out of vocabulary
            "11 words": self.record(rng, WORDS10 + ["zz"]),
            "1 word": self.record(rng, ["cc"]),
        }
        # At max_len 12, 9 words fit and 11 are truncated to 10 = max_len - 2, so
        # the selections keeping 7 or more words are capped at width 12; at 8 the
        # sentences keep their first 6 words.
        for name, rec in records.items():
            db = FeatureDb([rec])
            for max_len in (12, 8):
                ids = encode(rec.tokens, VOCAB, max_len)
                n_words = len(ids) - 2
                for mode in MODES:
                    cfg = ModelConfig(vocab_size=120, n_classes=4, max_len=max_len,
                                      eeg_channels=4, mode=mode)
                    row = build_batch([Example("s", ids, rec.label)], cfg, db)
                    keep = rng.random((40, n_words)) < 0.5
                    keep = np.vstack([keep[keep.any(axis=1)], np.ones(n_words, bool)])
                    context = (name, max_len, mode)
                    got = word_selections(row, keep, cfg)
                    self.assert_batches_equal(got, self.per_sample_batch(rec, keep, cfg), context)
                    assert got.ids.shape[1] == batch_width(len(ids), max_len)
                    for r in range(0, len(keep), 7):  # one row at a time: its own width
                        self.assert_batches_equal(word_selections(row, keep[r:r + 1], cfg),
                                                  self.per_sample_batch(rec, keep[r:r + 1], cfg),
                                                  (*context, r))

    def test_selection_keeps_record_indices(self):
        rng = np.random.default_rng(5)
        rec = self.record(rng, WORDS10[:5])
        cfg = ModelConfig(vocab_size=120, n_classes=4, max_len=12, eeg_channels=4,
                          mode="both_embed")
        ids = encode(rec.tokens, VOCAB, cfg.max_len)
        row = build_batch([Example("s", ids, rec.label)], cfg, FeatureDb([rec]))
        keep = np.array([[False, True, False, True, True], [True] * 5])
        got = word_selections(row, keep, cfg)
        assert got.ids.shape == (2, 8)
        assert got.ids[0].tolist() == [*ids[[0, 2, 4, 5, 6]], 0, 0, 0]
        assert got.ids[1, :7].tolist() == ids.tolist()
        for table in ("eeg", "eye"):
            values = getattr(rec, f"{table}_tokens")
            assert got.tokens[table][0].tolist() == [0, *values[[1, 3, 4]], 0, 0, 0, 0]
            assert got.tokens[table][1].tolist() == [0, *values, 0, 0]

    def test_row_must_be_the_sentence_alone(self):
        cfg = ModelConfig(vocab_size=120, n_classes=4, max_len=12, eeg_channels=4)
        ids = encode(WORDS10[:5], VOCAB, cfg.max_len)
        row = build_batch([Example("s", ids, 0)], cfg)
        with pytest.raises(ValidationError, match="with 4 words"):
            word_selections(row, np.ones((2, 4), dtype=bool), cfg)
        two = build_batch([Example("s", ids, 0)] * 2, cfg)
        with pytest.raises(ValidationError, match=r"shape \(2, 8\)"):
            word_selections(two, np.ones((2, 5), dtype=bool), cfg)


class TestChunkedLime:
    """LIME runs its perturbations under the LIME_POSITIONS budget, with one-at-a-time results."""

    WORDS = WORDS10[:8] + ["zz"]  # "zz" is out of vocabulary

    def model_and_db(self, mode, max_len, seed=31, words=WORDS):
        rng = np.random.default_rng(seed)
        rec = TestPerturbationBatch.record(rng, words)
        cfg = ModelConfig(vocab_size=120, n_classes=4, layers=2, heads=2, d_model=16, d_ff=32,
                          max_len=max_len, eeg_channels=4, dropout=0.0, mode=mode)
        params = random_params(cfg, seed)
        for p in params.all():  # O(0.3) weights, so probabilities vary across perturbations
            p.value[:] = rng.normal(1.0 if p.name.endswith(".gamma") else 0.0, 0.3, p.value.shape)
        return params, FeatureDb([rec])

    def test_reports_equal_at_chunk_one_and_default(self, monkeypatch):
        default = explain.LIME_POSITIONS
        for max_len in (64, 8):  # 9 words fit at 64; at 8 the sentence keeps the first 6
            for mode in MODES:
                params, db = self.model_and_db(mode, max_len)
                reports = []
                for budget in (1, default):  # 1: one perturbation per forward
                    monkeypatch.setattr(explain, "LIME_POSITIONS", budget)
                    reports.append(explain_sentence(params, db, VOCAB, "s", k=3, n_samples=50,
                                                    seed=4).to_dict())
                assert reports[0] == reports[1], (mode, max_len)
                assert len({s["score"] for s in reports[0]["lime_scores"]}) > 1, (mode, max_len)

    def count_forwards(self, monkeypatch, params, db, n_samples):
        calls = []
        forward = explain.encoder_forward

        def counting_forward(params, batch, *args, **kwargs):
            calls.append(batch.ids.shape)
            return forward(params, batch, *args, **kwargs)

        monkeypatch.setattr(explain, "encoder_forward", counting_forward)
        explain_sentence(params, db, VOCAB, "s", n_samples=n_samples)
        return calls

    def test_forward_count(self, monkeypatch):
        long_words = [WORDS10[i % 10] for i in range(40)]
        for words, max_len, budget in ((self.WORDS, 64, explain.LIME_POSITIONS),
                                       (long_words, 64, explain.LIME_POSITIONS),
                                       (long_words, 64, 100), (long_words, 24, 100),
                                       (long_words, 24, 20)):  # 20: one row per forward
            monkeypatch.setattr(explain, "LIME_POSITIONS", budget)
            params, db = self.model_and_db("eeg_embed", max_len, words=words)
            calls = self.count_forwards(monkeypatch, params, db, n_samples=200)
            monkeypatch.undo()
            sizes, widths = [b for b, _ in calls], [t for _, t in calls]
            n_words = min(len(words), max_len - 2)
            assert sizes[0] == 1 and widths[0] == batch_width(n_words + 2, max_len)
            assert sum(sizes[1:]) == 200
            assert widths[1:] == sorted(widths[1:])  # shortest first
            for b, t in calls[1:]:
                assert b * t <= budget or b == 1, (len(words), budget, b, t)
            # A width is split into forwards only where the budget runs out.
            for (b, t), (_, t_next) in zip(calls[1:], calls[2:]):
                assert t != t_next or (b + 1) * t > budget, (len(words), budget, b, t)
        # The whole 9-word sentence runs at width 16, its perturbations at widths
        # 8 (80 rows a forward) and 16 (40 rows): 5 forwards instead of 1 + 200.
        params, db = self.model_and_db("eeg_embed", 64)
        calls = self.count_forwards(monkeypatch, params, db, n_samples=200)
        assert [t for _, t in calls] == [16, 8, 8, 8, 16]
        assert [b for b, _ in calls[1:3]] == [80, 80]

    def test_masks_match_a_row_by_row_draw(self):
        """One draw of all rows, redrawing the all-removed ones, gives the masks
        (in order) of drawing row by row until a row keeps a word."""
        for n_words, seed in ((1, 3), (2, 8), (9, 0)):  # 1 and 2 words redraw often
            rng = SeededRng(seed).derive("lime")
            want = []
            for _ in range(60):
                mask = rng.random(n_words) < 0.5
                while not mask.any():
                    mask = rng.random(n_words) < 0.5
                want.append(mask)
            seen = []
            lime_explain(lambda masks: seen.append(masks.copy()) or np.zeros(len(masks)),
                         n_words, n_samples=60, seed=seed)
            assert seen[0].dtype == bool and np.array_equal(seen[0], np.array(want)), n_words


def report(words, attention, lime, k):
    """The report of a sentence whose CLS and SEP score 0."""
    return ExplanationReport("s", 0, words, np.array([0.0, *attention, 0.0]), np.array(lime), k)


class TestExplainSentenceWarnings:
    """explain_sentence names its sentence in every warning, and warns once for each cause."""

    def test_one_k_line_and_one_lime_line_per_sentence(self, caplog):
        rng = np.random.default_rng(31)
        db = FeatureDb([TestPerturbationBatch.record(rng, WORDS10[:8] + ["zz"], "a"),
                        TestPerturbationBatch.record(rng, WORDS10[3:], "b")])
        cfg = ModelConfig(vocab_size=120, n_classes=4, layers=2, heads=2, d_model=16, d_ff=32,
                          max_len=12, eeg_channels=4, dropout=0.0, mode="eeg_embed")
        params = random_params(cfg, 31)
        with caplog.at_level("WARNING", logger="cogbert"):
            for sid in ("a", "b"):  # at seed 1 one sample outweighs the rest in both
                explain_sentence(params, db, VOCAB, sid, k=12, n_samples=50, kernel_width=1.0,
                                 seed=1)
        lime_line = ("lime: kernel width 1.0 leaves an effective sample size of 1.00 of 50 "
                     "perturbations; the surrogate fits about one, so its scores say little")
        assert [r.getMessage() for r in caplog.records] == [
            f"sentence a: {lime_line}",
            "sentence a: asked for 12 keywords but only 9 content tokens",
            f"sentence b: {lime_line}",
            "sentence b: asked for 12 keywords but only 7 content tokens"]
        assert explain.log.filters == []
        with pytest.raises(NumericError, match="^sentence a: kernel width 0.01 leaves none of"):
            explain_sentence(params, db, VOCAB, "a", n_samples=50, kernel_width=0.01, seed=1)
        assert explain.log.filters == []

    def test_truncation_line_names_the_sentence_once(self, caplog):
        rng = np.random.default_rng(32)
        db = FeatureDb([TestPerturbationBatch.record(rng, WORDS10[:9], "a")])
        cfg = ModelConfig(vocab_size=120, n_classes=4, layers=1, heads=2, d_model=16, d_ff=32,
                          max_len=8, eeg_channels=4, dropout=0.0, mode="eeg_embed")
        with caplog.at_level("WARNING", logger="cogbert"):
            got = explain_sentence(random_params(cfg, 32), db, VOCAB, "a", k=3, n_samples=20, seed=1)
        assert got.words == WORDS10[:6]
        assert [r.getMessage() for r in caplog.records] == ["a: truncating 3 word(s) to fit max_len=8"]


class TestCorrelate:
    """overlap: the top-k positions the two explainers share, out of min(k, words)."""

    def test_identical_lists(self):
        assert report(["a", "b", "c"], [3.0, 2.0, 1.0], [1.0, 3.0, 2.0], 3).overlap == 1.0

    def test_disjoint_lists(self):
        assert report(["a", "b", "c", "d"], [2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0], 2).overlap == 0.0

    def test_partial_overlap(self):
        words = ["a", "x", "b", "y", "c", "z", "d", "e"]
        got = report(words, [8, 0, 7, 0, 6, 0, 5, 4], [8, 7, 0, 6, 5, 0, 0, 4], 5)
        assert got.attention_top == ["a", "b", "c", "d", "e"]
        assert got.lime_top == ["a", "x", "y", "c", "e"]
        assert got.overlap == 0.6

    def test_repeated_word_counts_once_per_position(self):
        words = ["the", "cat", "the", "mat", "sat", "on"]
        scores = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        got = report(words, scores, scores, 5)
        assert got.attention_top == got.lime_top == ["the", "cat", "the", "mat", "sat"]
        assert got.overlap == 1.0
        # the same words at other positions are not shared positions
        swapped = report(words, scores, [4.0, 5.0, 6.0, 3.0, 2.0, 1.0], 1)
        assert swapped.attention_top == swapped.lime_top == ["the"] and swapped.overlap == 0.0

    def test_sentence_shorter_than_k_can_agree_fully(self):
        got = report(["a", "b", "c"], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0], 5)
        assert got.attention_top == ["c", "b", "a"] and got.lime_top == ["a", "c", "b"]
        assert got.overlap == 1.0


class TestBuildReport:
    def test_wiring_and_heatmap(self):
        attn = np.array([5.0, 3.0, 1.0, 2.0, 4.0])  # CLS, aa, bb, cc, SEP
        got = ExplanationReport("s1", 2, ["aa", "bb", "cc"], attn, np.array([0.5, 0.4, -0.1]), k=2)
        assert got.attention_top == ["aa", "cc"]
        assert got.lime_top == ["aa", "bb"]
        assert got.overlap == 0.5
        rows = got.heatmap_rows()
        assert [r[0] for r in rows] == ["aa", "bb", "cc"]
        assert rows[0] == ("aa", 3.0, 0.5) and type(rows[0][1]) is float

    def test_round_trips_to_dict(self):
        got = ExplanationReport("s2", 0, ["aa"], np.array([1.0, 2.0, 1.0]), np.array([0.3]), k=1)
        obj = got.to_dict()
        assert obj["sentence_id"] == "s2"
        assert obj["overlap"] == 1.0
        assert obj["attention_top"] == obj["lime_top"] == ["aa"]
        assert json.loads(json.dumps(obj)) == obj


class TestFileFormats:
    """The explain command's JSON text and heatmap rows for fixed scores, pinned
    to the text these scores gave before the scores became arrays."""

    WORDS = ["the", "cat", "sat", "on", "a", "mat"]
    ATTENTION = [0.1 + 0.2, 1 / 3, 2.5, 1e-17, 2.5, 7.000000000000001, 0.75, 12.0]
    LIME = [0.5, 0.3, -0.0, 0.3, 4.440892098500626e-16, -2.0]

    def report(self):
        return ExplanationReport("s0042", 3, self.WORDS, np.array(self.ATTENTION),
                                 np.array(self.LIME), k=3)

    def test_json_text(self):
        def score(position, word, value):
            return (f'    {{\n      "position": {position},\n      "score": {value},\n'
                    f'      "word": "{word}"\n    }}')

        def words(*items):
            return "[\n" + ",\n".join(f'    "{w}"' for w in items) + "\n  ]"

        attention = [score(0, "[CLS]", "0.30000000000000004"), score(1, "the", "0.3333333333333333"),
                     score(2, "cat", "2.5"), score(3, "sat", "1e-17"), score(4, "on", "2.5"),
                     score(5, "a", "7.000000000000001"), score(6, "mat", "0.75"),
                     score(7, "[SEP]", "12.0")]
        lime = [score(1, "the", "0.5"), score(2, "cat", "0.3"), score(3, "sat", "-0.0"),
                score(4, "on", "0.3"), score(5, "a", "4.440892098500626e-16"),
                score(6, "mat", "-2.0")]
        want = ("{\n"
                '  "attention_scores": [\n' + ",\n".join(attention) + "\n  ],\n"
                f'  "attention_top": {words("a", "cat", "on")},\n'
                '  "k": 3,\n'
                '  "lime_scores": [\n' + ",\n".join(lime) + "\n  ],\n"
                f'  "lime_top": {words("the", "cat", "on")},\n'
                '  "overlap": 0.6666666666666666,\n'
                '  "predicted_class": 3,\n'
                '  "sentence_id": "s0042"\n'
                "}")
        assert json.dumps(self.report().to_dict(), sort_keys=True, indent=2) == want

    def test_heatmap_rows(self):
        rows = [[word, repr(attn), repr(lime)] for word, attn, lime in self.report().heatmap_rows()]
        assert rows == [["the", "0.3333333333333333", "0.5"], ["cat", "2.5", "0.3"],
                        ["sat", "1e-17", "-0.0"], ["on", "2.5", "0.3"],
                        ["a", "7.000000000000001", "4.440892098500626e-16"],
                        ["mat", "0.75", "-2.0"]]
