"""Feature formulas against brute-force oracles, mask semantics, lexicon math,
storage round trips, and the synthetic generator's contracts."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cogbert.cli import main as cli_main
from cogbert.errors import ConfigError, DataError, FeatureLookupError, ValidationError
from cogbert.features import (
    CognitiveRecord,
    EEGLexicon,
    FeatureDb,
    N_EEG_VECTORS,
    SentenceMeasurement,
    SynthConfig,
    apply_lexicon,
    build_lexicon,
    check_records,
    cognitive_mask,
    derive_records,
    eeg_token_raw,
    eye_token_raw,
    lexicon_sentence_eeg,
    load_measurements,
    save_measurements,
    scale_eeg_tokens,
    scale_eye_tokens,
    sentence_eeg,
    synth_generate,
)
from cogbert.model import ModelConfig, build_batch
from cogbert.tokenizer import MASK_KEEP, MASK_SUPPRESS, build_vocab
from cogbert.training import make_examples


def make_eeg(C=4, fill=1.0, rng=None):
    """One fixated word's (32, C) EEG."""
    if rng is None:
        return np.full((N_EEG_VECTORS, C), fill)
    return rng.normal(size=(N_EEG_VECTORS, C))


def one_word(n_fixations, ffd=0.0, trt=0.0, gd=0.0, gpt=0.0, sfd=0.0, word_eeg=None, C=4):
    """A one-word SentenceMeasurement; a fixated word gets all-ones EEG unless given."""
    if word_eeg is None:
        word_eeg = np.ones((int(n_fixations > 0), N_EEG_VECTORS, C))
    return SentenceMeasurement("w", ["word"], 0, [n_fixations], [[ffd, trt, gd, gpt, sfd]],
                               word_eeg, np.zeros((8, C)))


def eye_raw(n_fixations, ffd=0.0, trt=0.0, gd=0.0, gpt=0.0, sfd=0.0):
    """eye_token_raw of one word."""
    return eye_token_raw([n_fixations], [[ffd, trt, gd, gpt, sfd]])[0]


class TestEyeTokens:
    def test_unfixated_word_scores_zero(self):
        assert eye_raw(n_fixations=0) == 0.0

    def test_hand_evaluation(self):
        assert eye_raw(n_fixations=2, ffd=120, trt=300, gd=180, gpt=320) == 1840.0

    def test_single_fixation_uniform_durations(self):
        assert eye_raw(n_fixations=1, ffd=100, trt=100, gd=100, gpt=100) == 400.0

    def test_sfd_does_not_enter_the_formula(self):
        with_sfd = eye_raw(n_fixations=1, ffd=10, trt=10, gd=10, gpt=10, sfd=500)
        without = eye_raw(n_fixations=1, ffd=10, trt=10, gd=10, gpt=10, sfd=0)
        assert with_sfd == without

    def test_one_value_per_word(self):
        n, d = [0, 2, 1], [[0] * 5, [120, 300, 180, 320, 7], [100, 100, 100, 100, 100]]
        assert eye_token_raw(n, d).tolist() == [0.0, 1840.0, 400.0]

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError, match="word 0: fixation ffd must be >= 0, got -5$"):
            one_word(n_fixations=1, ffd=-5)

    def test_unfixated_with_durations_rejected(self):
        with pytest.raises(ValidationError,
                           match="word 0: fixation trt must be 0 on an unfixated word, got 10$"):
            one_word(n_fixations=0, trt=10)


class TestCheckMeasurements:
    """A SentenceMeasurement built in code runs check_measurements, whose messages
    name the word and the field; its arrays must have the documented shapes."""

    def test_each_value_rule_names_the_word(self):
        eeg = np.ones((1, N_EEG_VECTORS, 4))
        cases = [
            (dict(n_fixations=[0, -1], word_eeg=np.zeros((0, N_EEG_VECTORS, 4))),
             "word 1: fixation n must be >= 0, got -1"),
            (dict(durations=[[0] * 5, [1, 1, -2.5, 1, 0]]), "word 1: fixation gd must be >= 0, got -2.5"),
            (dict(durations=[[0, 0, 0, 0, 3], [1] * 5]),
             "word 0: fixation sfd must be 0 on an unfixated word, got 3"),
            (dict(word_eeg=np.ones((1, 31, 4))), "word 1: word_eeg entry has 31 rows, not 32"),
            (dict(sentence_bands=np.zeros((7, 4))), "sentence_bands has 7 rows, not 8"),
            (dict(word_eeg=np.ones((1, N_EEG_VECTORS, 3))),
             "s: word 1 ('b') EEG has 3 channels, sentence_bands has 4"),
            (dict(durations=[[0] * 5, [1, np.nan, 1, 1, 0]]),
             "word 1: fixation trt must be a finite number, got nan"),
            (dict(durations=[[np.inf, 0, 0, 0, 0], [1] * 5]),
             "word 0: fixation ffd must be a finite number, got inf"),
            (dict(n_fixations=[0, 10**18], durations=[[0] * 5, [1e300, 1, 1, 1, 0]]),
             "word 1: eye value n * (ffd + trt + gd + gpt) overflows float64"),
            (dict(word_eeg=np.where(np.arange(4) == 2, -np.inf, eeg)),
             "word 1: word_eeg entry holds non-finite values"),
            (dict(word_eeg=np.full((1, N_EEG_VECTORS, 4), 1e307)), "word 1: word_eeg mean overflows float64"),
            (dict(sentence_bands=np.where(np.arange(4) == 3, np.nan, np.zeros((8, 4)))),
             "sentence_bands holds non-finite values"),
        ]
        for changes, message in cases:
            fields = dict(sentence_id="s", words=["a", "b"], label=0, n_fixations=[0, 2],
                          durations=[[0] * 5, [1] * 5], word_eeg=eeg, sentence_bands=np.zeros((8, 4)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an overflow is a failed check, not a warning
                with pytest.raises(ValidationError) as exc:
                    SentenceMeasurement(**{**fields, **changes})
            assert str(exc.value) == message

    def test_arrays_of_the_wrong_shape_rejected(self):
        for changes in (dict(word_eeg=np.zeros((0, N_EEG_VECTORS, 4))),  # 1 fixated word, no EEG
                        dict(durations=[[1] * 4]), dict(n_fixations=[[2]]),
                        dict(sentence_bands=np.zeros(8))):
            fields = dict(n_fixations=[2], durations=[[1] * 5], word_eeg=np.ones((1, N_EEG_VECTORS, 4)),
                          sentence_bands=np.zeros((8, 4)))
            with pytest.raises(ValidationError, match="s: raw arrays of shapes"):
                SentenceMeasurement("s", ["a"], 0, **{**fields, **changes})

    def test_loaded_sentences_are_typed_views_of_flat_arrays(self, tmp_path):
        meas, _, _ = synth_generate(SynthConfig(n_sentences=16, distractors=2), seed=4)
        save_measurements(meas, tmp_path / "corpus.jsonl")
        loaded = load_measurements(tmp_path / "corpus.jsonl")
        for a, b in zip(meas, loaded):
            assert (b.n_fixations.dtype, b.durations.dtype, b.word_eeg.dtype) == (
                np.int64, np.float64, np.float64)
            assert b.word_eeg.shape == ((a.n_fixations > 0).sum(), N_EEG_VECTORS, 8)
            assert b.word_eeg.base is not None and b.durations.base is not None


class TestScaleEyeTokens:
    def test_hand_example(self):
        assert scale_eye_tokens([0, 400, 1840]).tolist() == [0, 22, 100]

    def test_all_zero_sentence(self):
        assert scale_eye_tokens([0.0, 0.0, 0.0]).tolist() == [0, 0, 0]

    def test_single_fixated_word_hits_max(self):
        assert scale_eye_tokens([5.0]).tolist() == [100]

    def test_negative_raw_rejected(self):
        with pytest.raises(ValidationError):
            scale_eye_tokens([-1.0, 2.0])

    def test_oracle_on_random_sentences(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            raw = rng.uniform(0, 1000, size=rng.integers(1, 12)) * rng.integers(0, 2, size=1)
            got = scale_eye_tokens(raw)
            peak = max(raw)
            expected = [0 if peak == 0 else int(np.floor(100 * v / peak + 0.5)) for v in raw]
            assert got.tolist() == expected
            assert ((got >= 0) & (got <= 100)).all()
            if peak > 0:
                assert got[np.argmax(raw)] == 100

    def test_segments_match_one_sentence_calls(self):
        """With offsets, each sentence, empty ones included, scales as it would alone."""
        rng = np.random.default_rng(19)
        for _ in range(50):
            sentences = [rng.uniform(0, 1000, size=rng.integers(0, 6)) * rng.integers(0, 2)
                         for _ in range(rng.integers(1, 8))]
            offsets = np.cumsum([0, *map(len, sentences)])
            want = [scale_eye_tokens(raw) for raw in sentences]
            got = scale_eye_tokens(np.concatenate(sentences), offsets)
            assert got.dtype == np.int64 and got.tolist() == np.concatenate(want).tolist()


class TestEEGTokens:
    def test_all_zero_vectors(self):
        assert eeg_token_raw([make_eeg(fill=0.0)]).tolist() == [0.0]

    def test_hand_arithmetic(self):
        # Four distinct vectors repeated to the full 32: column mean [2, 4] -> 3.
        block = np.array([[1.0, 3.0], [2.0, 4.0], [3.0, 5.0], [2.0, 4.0]])
        assert eeg_token_raw([np.tile(block, (8, 1))]).tolist() == [3.0]

    def test_unfixated_word(self):
        # An unfixated word holds no EEG, so it adds no value; derive_records gives it 0.
        assert eeg_token_raw(np.zeros((0, N_EEG_VECTORS, 4))).shape == (0,)
        db = derive_records([one_word(n_fixations=0)])
        assert db.get("w").eeg_tokens.tolist() == [0]

    def test_inconsistent_vector_lengths_rejected(self):
        ragged = [[1.0, 2.0]] * (N_EEG_VECTORS - 1) + [[1.0]]
        with pytest.raises(ValidationError):
            one_word(n_fixations=1, ffd=1, word_eeg=[ragged])

    def test_oracle_on_random_words(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            channels = rng.normal(size=(N_EEG_VECTORS, 7))
            expected = float(np.mean([np.mean(col) for col in channels.T]))
            assert eeg_token_raw([channels])[0] == pytest.approx(expected, abs=1e-12)

    def test_equals_two_means_bit_for_bit_on_synth_corpora(self):
        for channels in (1, 3, 8):
            meas, _, _ = synth_generate(SynthConfig(n_sentences=24, eeg_channels=channels), 6)
            for m in meas:
                want = np.asarray(m.word_eeg, dtype=np.float64).mean(axis=1).mean(axis=1)
                np.testing.assert_array_equal(eeg_token_raw(m.word_eeg), want,
                                              err_msg=f"{channels} {m.sentence_id}")


class TestScaleEEGTokens:
    def test_min_max_example(self):
        assert scale_eeg_tokens([0.0, 3.0, 6.0]).tolist() == [0, 50, 100]

    def test_all_equal_nonzero_maps_to_max(self):
        assert scale_eeg_tokens([5.0, 5.0]).tolist() == [100, 100]

    def test_single_zero(self):
        assert scale_eeg_tokens([0.0]).tolist() == [0]

    def test_unfixated_words_stay_zero_after_shift(self):
        raw = np.array([-2.0, 0.0, 0.0, 2.0])
        fixated = np.array([True, False, False, True])
        got = scale_eeg_tokens(raw, fixated)
        assert got[1] == got[2] == 0
        assert got[0] == 0 and got[3] == 100  # shifted to [0, 4]

    def test_oracle_on_random_corpora(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            fixated = rng.random(n) < 0.7
            raw = np.where(fixated, rng.normal(2.0, 1.5, n), 0.0)
            got = scale_eeg_tokens(raw, fixated)
            vals = raw[fixated]
            if vals.size:
                shifted = vals - min(vals.min(), 0.0)
                hi = shifted.max()
                expected = np.zeros(n, dtype=int)
                if hi > 0:
                    expected[fixated] = np.floor(100 * shifted / hi + 0.5).astype(int)
                assert got.tolist() == expected.tolist()
            assert (got[~fixated] == 0).all()
            assert ((got >= 0) & (got <= 100)).all()


class TestSentenceEEG:
    def test_equal_vectors_pass_through(self):
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(sentence_eeg(np.tile(v, (8, 1))), v)

    def test_two_value_average(self):
        bands = np.array([[0.0, 2.0]] * 4 + [[2.0, 4.0]] * 4)
        np.testing.assert_array_equal(sentence_eeg(bands), [1.0, 3.0])

    def test_zeros(self):
        np.testing.assert_array_equal(sentence_eeg(np.zeros((8, 5))), np.zeros(5))

    def test_wrong_band_count_rejected(self):
        with pytest.raises(ValidationError):
            sentence_eeg(np.zeros((7, 5)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        bands = rng.normal(size=(8, 6))
        shuffled = bands[rng.permutation(8)]
        np.testing.assert_allclose(sentence_eeg(bands), sentence_eeg(shuffled), atol=1e-12)


class TestCognitiveMask:
    def test_paper_layout(self):
        mask = cognitive_mask([0, 2, 1, 3, 2])
        expected = [MASK_KEEP, MASK_SUPPRESS, MASK_KEEP, MASK_SUPPRESS,
                    MASK_KEEP, MASK_KEEP, MASK_KEEP]
        assert mask.tolist() == expected

    def test_zero_fixations_suppressed(self):
        assert cognitive_mask([0])[1] == MASK_SUPPRESS

    def test_single_fixation_suppressed(self):
        assert cognitive_mask([1])[1] == MASK_SUPPRESS

    def test_no_words_keeps_cls_and_sep(self):
        assert cognitive_mask([]).tolist() == [MASK_KEEP, MASK_KEEP]

    def test_all_multiply_fixated_equals_base_mask(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            mask = cognitive_mask(rng.integers(2, 9, size=n))
            np.testing.assert_array_equal(mask, np.full(n + 2, MASK_KEEP))

    def test_build_batch_keeps_cls_sep_and_only_multiply_fixated_words(self):
        """Random fixation counts and lengths through build_batch, truncated rows included."""
        rng = np.random.default_rng(43)
        for max_len in (5, 10, 24):
            cfg = ModelConfig(vocab_size=200, n_classes=2, max_len=max_len, eeg_channels=2,
                              mode="cog_mask")
            for _ in range(20):
                records = []
                for i, n in enumerate(rng.integers(1, 30, size=int(rng.integers(1, 6)))):
                    records.append(CognitiveRecord(
                        sentence_id=f"r{i}", tokens=[f"w{j}" for j in range(n)], label=0,
                        n_fixations=rng.integers(0, 5, size=n), eye_tokens=np.zeros(n),
                        eeg_tokens=np.zeros(n), sentence_eeg=np.zeros(2)))
                db = FeatureDb(records)
                examples = make_examples(db, build_vocab([r.tokens for r in records]), max_len)
                batch = build_batch(examples, cfg, db)
                for ex, row in zip(examples, batch.masks):
                    n_fixations = db.get(ex.sentence_id).n_fixations
                    n_words = min(len(n_fixations), max_len - 2)
                    assert row[0] == MASK_KEEP and row[n_words + 1] == MASK_KEEP
                    np.testing.assert_array_equal(row[1:n_words + 1] == MASK_KEEP,
                                                  n_fixations[:n_words] > 1)


def toy_measurement(sid, words, fixations, rng, C=4, label=0):
    """fixations: one (n, ffd, trt, gd, gpt) tuple per word, (0,) for an unfixated one."""
    word_eeg = [make_eeg(C=C, rng=rng) for f in fixations if f[0]]
    return SentenceMeasurement(
        sentence_id=sid,
        words=words,
        label=label,
        n_fixations=[f[0] for f in fixations],
        durations=[[*f[1:], *[0.0] * (6 - len(f))] for f in fixations],
        word_eeg=np.reshape(word_eeg, (-1, N_EEG_VECTORS, C)),
        sentence_bands=rng.normal(size=(8, C)),
    )


class TestLexicon:
    def test_sum_beyond_float64_rejected(self):
        rng = np.random.default_rng(43)
        meas = [toy_measurement(f"m{i}", ["w"], [(2, 1, 1, 1, 1)], rng) for i in range(40)]
        for m in meas:
            m.word_eeg[:] = 5e306  # each mean is finite, the sum of 40 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="word 'w': the sum of its 40 occurrences' EEG overflows"):
                build_lexicon(meas)

    def test_two_occurrence_mean(self):
        rng = np.random.default_rng(41)
        m1 = toy_measurement("a", ["word"], [(2, 1, 1, 1, 1)], rng, C=2)
        m2 = toy_measurement("b", ["word"], [(3, 2, 2, 2, 2)], rng, C=2)
        m1.word_eeg[0] = np.tile([[1.0, 3.0]], (N_EEG_VECTORS, 1))
        m2.word_eeg[0] = np.tile([[3.0, 5.0]], (N_EEG_VECTORS, 1))
        lex = build_lexicon([m1, m2])
        np.testing.assert_allclose(lex.vectors["word"], [2.0, 4.0])
        assert lex.counts["word"] == 2

    def test_single_occurrence_is_its_own_vector(self):
        rng = np.random.default_rng(43)
        m = toy_measurement("a", ["once"], [(2, 1, 1, 1, 1)], rng)
        lex = build_lexicon([m])
        np.testing.assert_allclose(lex.vectors["once"], m.word_eeg[0].mean(axis=0))

    def test_unfixated_everywhere_word_excluded(self):
        rng = np.random.default_rng(47)
        m = toy_measurement("a", ["ghost", "real"],
                            [(0,), (2, 1, 1, 1, 1)], rng)
        lex = build_lexicon([m])
        assert "ghost" not in lex
        assert "real" in lex

    def test_matches_collect_then_average_oracle(self):
        rng = np.random.default_rng(53)
        measurements = []
        for i in range(30):
            n = int(rng.integers(1, 8))
            words = [f"w{int(rng.integers(10))}" for _ in range(n)]
            fixations = [(int(rng.integers(0, 4)) or 0,) for _ in range(n)]
            fixations = [(f[0], 1, 1, 1, 1) if f[0] else f for f in fixations]
            measurements.append(toy_measurement(f"s{i}", words, fixations, rng))
        lex = build_lexicon(measurements)

        collected: dict[str, list[np.ndarray]] = {}
        for m in measurements:
            eeg = iter(m.word_eeg)
            for w, n in zip(m.words, m.n_fixations):
                if n > 0:
                    collected.setdefault(w, []).append(next(eeg).mean(axis=0))
        assert set(lex.vectors) == set(collected)
        for w, vecs in collected.items():
            np.testing.assert_allclose(lex.vectors[w], np.mean(vecs, axis=0), atol=1e-12)
            assert lex.counts[w] == len(vecs)

    def test_sentence_average_and_coverage(self):
        lex = EEGLexicon(
            vectors={"a": np.array([0.0, 2.0]), "b": np.array([2.0, 4.0])},
            counts={"a": 1, "b": 1},
        )
        vec, coverage = lexicon_sentence_eeg(["a", "b"], lex, 2)
        np.testing.assert_array_equal(vec, [1.0, 3.0])
        assert coverage == 1.0

        vec, coverage = lexicon_sentence_eeg(["zzz"], lex, 2)
        np.testing.assert_array_equal(vec, [0.0, 0.0])
        assert coverage == 0.0

        vec, coverage = lexicon_sentence_eeg(["a", "zzz"], lex, 2)
        np.testing.assert_array_equal(vec, [0.0, 2.0])
        assert coverage == 0.5

    def test_word_order_invariance(self):
        rng = np.random.default_rng(59)
        lex = EEGLexicon(
            vectors={f"w{i}": rng.normal(size=3) for i in range(6)},
            counts={f"w{i}": 1 for i in range(6)},
        )
        words = ["w0", "w3", "w5", "w1"]
        a, _ = lexicon_sentence_eeg(words, lex, 3)
        b, _ = lexicon_sentence_eeg(list(reversed(words)), lex, 3)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_jsonl_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        lex = EEGLexicon(
            vectors={"x": rng.normal(size=4), "y": rng.normal(size=4)},
            counts={"x": 3, "y": 1},
        )
        path = tmp_path / "lexicon.jsonl"
        lex.save_jsonl(path)
        loaded = EEGLexicon.load_jsonl(path)
        assert loaded.counts == lex.counts
        for w in lex.vectors:
            np.testing.assert_array_equal(loaded.vectors[w], lex.vectors[w])

    def test_load_rejects_changed_vector_length(self, tmp_path):
        rng = np.random.default_rng(62)
        words = ["a", "b", "c", "d"]
        lex = EEGLexicon(vectors={w: rng.normal(size=8) for w in words},
                         counts={w: 1 for w in words})
        path = tmp_path / "lexicon.jsonl"
        lex.save_jsonl(path)
        lines = path.read_text().splitlines()
        bad = json.loads(lines[2])
        bad["vector"] = bad["vector"][:5]
        path.write_text("\n".join(lines[:2] + [json.dumps(bad)] + lines[3:]) + "\n")
        with pytest.raises(DataError, match=rf"{path}:3 \(word 'c'\): "
                                            r"vector has 5 channels, the first entry has 8"):
            EEGLexicon.load_jsonl(path)

    def test_line_with_bad_word_and_bad_vector_reports_the_word(self, tmp_path):
        path = tmp_path / "lexicon.jsonl"
        path.write_text('{"word": "a", "count": 1, "vector": [1.0]}\n'
                        '{"word": 5, "count": 1, "vector": "x"}\n')
        with pytest.raises(DataError, match=rf"^{path}:2 \(word 5\): word must be a string, got 5$"):
            EEGLexicon.load_jsonl(path)

    def test_save_jsonl_bytes(self, tmp_path):
        lex = EEGLexicon(vectors={"é": np.array([0.5, -1.25]), "b": np.array([3.0, 1e-300])},
                         counts={"é": 10**30, "b": 1})
        path = tmp_path / "lexicon.jsonl"
        lex.save_jsonl(path)
        assert path.read_bytes() == (b'{"count": 1, "vector": [3.0, 1e-300], "word": "b"}\n'
                                     b'{"count": 1000000000000000000000000000000, '
                                     b'"vector": [0.5, -1.25], "word": "\\u00e9"}\n')
        assert EEGLexicon.load_jsonl(path).counts == lex.counts

    def test_apply_lexicon_equals_per_sentence_eeg(self, tmp_path, caplog):
        """apply_lexicon gives each record lexicon_sentence_eeg's vector, bit for bit,
        returns each coverage in db order, warns once per uncovered sentence naming
        it, and leaves the db it reads unchanged."""
        rng = np.random.default_rng(67)
        lex = EEGLexicon(vectors={w: rng.normal(size=3) for w in ("a", "b", "c")},
                         counts={"a": 2, "b": 1, "c": 5})
        sentences = {"covered": ["a", "b", "c", "a"], "partly": ["zz", "b", "yy"],
                     "uncovered": ["zz"], "wordless": []}
        db = FeatureDb([CognitiveRecord(sid, words, label, [2] * len(words), [50] * len(words),
                                        [7] * len(words), rng.normal(size=4))
                        for label, (sid, words) in enumerate(sentences.items())])
        path = tmp_path / "features.jsonl"
        db.save_jsonl(path)
        before = path.read_bytes()
        with caplog.at_level("WARNING", logger="cogbert.features"):
            applied, coverages = apply_lexicon(db, lex)
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("cogbert.features", f"no lexicon coverage for {sid}; zero vector substituted")
            for sid in ("uncovered", "wordless")]
        want = {sid: lexicon_sentence_eeg(words, lex, 3) for sid, words in sentences.items()}
        assert list(coverages.items()) == [(sid, coverage) for sid, (_, coverage) in want.items()]
        assert coverages == {"covered": 1.0, "partly": 1 / 3, "uncovered": 0.0, "wordless": 0.0}
        assert applied.ids() == db.ids()
        for sid, (vector, _) in want.items():
            got, rec = applied.get(sid), db.get(sid)
            assert got.sentence_eeg.dtype == np.float64
            assert got.sentence_eeg.tobytes() == vector.tobytes(), sid
            assert (got.tokens, got.label) == (rec.tokens, rec.label)
            for name in ("n_fixations", "eye_tokens", "eeg_tokens"):
                np.testing.assert_array_equal(getattr(got, name), getattr(rec, name))
        db.save_jsonl(path)
        assert path.read_bytes() == before
        with pytest.raises(ValidationError, match="empty lexicon"):
            apply_lexicon(db, EEGLexicon({}, {}))


def derive_one_by_one(measurements):
    """Reference: derive_records building and checking one CognitiveRecord per sentence."""
    raw_eeg = []
    for m in measurements:
        eeg = iter(m.word_eeg)
        raw_eeg += [eeg_token_raw([next(eeg)])[0] if n > 0 else 0.0 for n in m.n_fixations]
    all_eeg_tokens = scale_eeg_tokens(raw_eeg, [n > 0 for m in measurements for n in m.n_fixations])
    records, offset = [], 0
    for m in measurements:
        n = len(m.words)
        records.append(CognitiveRecord(
            sentence_id=m.sentence_id, tokens=list(m.words), label=m.label,
            n_fixations=m.n_fixations.tolist(),
            eye_tokens=scale_eye_tokens([eye_token_raw([n], [d])[0]
                                         for n, d in zip(m.n_fixations, m.durations)]),
            eeg_tokens=all_eeg_tokens[offset:offset + n],
            sentence_eeg=sentence_eeg(m.sentence_bands)))
        offset += n
    return records


def per_sentence_fields(measurements):
    """Reference: each derived field per sentence from the one-sentence helpers."""
    fixated = np.concatenate([m.n_fixations for m in measurements]) > 0
    raw_eeg = np.zeros(len(fixated))
    raw_eeg[fixated] = np.concatenate([eeg_token_raw(m.word_eeg) for m in measurements])
    eeg_tokens = scale_eeg_tokens(raw_eeg, fixated)
    cuts = np.cumsum([len(m.words) for m in measurements])[:-1]
    return {
        "n_fixations": [m.n_fixations for m in measurements],
        "eye_tokens": [scale_eye_tokens(eye_token_raw(m.n_fixations, m.durations))
                       for m in measurements],
        "eeg_tokens": np.split(eeg_tokens, cuts),
        "sentence_eeg": [sentence_eeg(m.sentence_bands) for m in measurements],
    }


class TestDeriveRecords:
    FIELDS = ("n_fixations", "eye_tokens", "eeg_tokens", "sentence_eeg")

    def test_records_equal_per_record_construction(self):
        for cfg, seed in ((SynthConfig(n_sentences=40, distractors=2), 2),
                          (SynthConfig(n_sentences=24, min_words=48, max_words=62), 7),
                          (SynthConfig(n_sentences=16, filler_fix_prob=0.0, eeg_channels=1), 13)):
            meas, _, _ = synth_generate(cfg, seed)
            db = derive_records(meas)
            want = derive_one_by_one(meas)
            assert db.ids() == [rec.sentence_id for rec in want]
            for w in want:
                got = db.get(w.sentence_id)
                assert got.tokens == w.tokens and type(got.label) is int and got.label == w.label
                for f in self.FIELDS:
                    a, b = getattr(got, f), getattr(w, f)
                    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), f
        assert len(derive_records([])) == 0

    def test_bad_record_raises_the_per_record_message(self):
        rng = np.random.default_rng(5)
        fixations = [(2, 100, 200, 100, 100), (0,)]
        for bad_index in (0, 2):
            meas = [toy_measurement(f"m{i}", ["a", "b"], fixations, rng) for i in range(3)]
            meas[bad_index].sentence_bands[3, 1] = float("nan")
            with pytest.raises(ValidationError) as want:
                derive_one_by_one(meas)
            with pytest.raises(ValidationError) as got:
                derive_records(meas)
            assert str(got.value) == str(want.value) == f"m{bad_index}: sentence_eeg holds non-finite values"

    def test_values_beyond_float64_when_scaled_rejected(self):
        """Each raw value is finite, but 100 x the largest is not."""
        rng = np.random.default_rng(8)
        eye = [toy_measurement("m0", ["a", "b"], [(2, 5e306, 0, 0, 0), (1, 1, 0, 0, 0)], rng)]
        eeg = [toy_measurement(f"m{i}", ["a"], [(2, 100, 200, 100, 100)], rng) for i in range(2)]
        eeg[0].word_eeg[:], eeg[1].word_eeg[:] = -5e306, 5e306  # scaled from 0 to 1e307
        for meas in (eye, eeg):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match="token values overflow float64 when scaled"):
                    derive_records(meas)

    def test_matches_per_sentence_helpers(self):
        """derive_records array for array against the per-sentence helpers: scale_eye_tokens
        per sentence, eeg_token_raw per measurement, sentence_eeg per sentence and
        scale_eeg_tokens over the corpus."""
        for cfg, seed in ((SynthConfig(), 1), (SynthConfig(n_sentences=60, distractors=2), 4),
                          (SynthConfig(n_sentences=60, eeg_channels=3), 5)):
            meas, _, _ = synth_generate(cfg, seed)
            db = derive_records(meas)
            want = per_sentence_fields(meas)
            for f, arrays in want.items():
                got = [getattr(db.get(m.sentence_id), f) for m in meas]
                assert all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                           for a, b in zip(got, arrays)), (cfg, f)

    def test_unfixated_and_empty_sentences(self):
        """A sentence with no fixated word gets eye and EEG tokens 0 and no EEG rows; one
        with no words gets empty token fields; the sentences around them are unaffected."""
        rng = np.random.default_rng(9)
        fixed = [(2, 100, 200, 100, 100), (0,), (1, 50, 60, 70, 80)]

        def empty(sid):
            return SentenceMeasurement(sid, [], 0, [], np.zeros((0, 5)), np.zeros((0, N_EEG_VECTORS, 4)),
                                       rng.normal(size=(8, 4)))

        meas = [toy_measurement("m0", ["a", "b", "c"], fixed, rng),
                toy_measurement("m1", ["a", "b"], [(0,), (0,)], rng), empty("m2"),
                toy_measurement("m3", ["a", "b", "c"], fixed, rng), empty("m4")]
        assert meas[1].word_eeg.shape == (0, N_EEG_VECTORS, 4)
        db = derive_records(meas)
        want = per_sentence_fields(meas)
        for i, m in enumerate(meas):
            rec = db.get(m.sentence_id)
            for f, arrays in want.items():
                assert getattr(rec, f).tobytes() == arrays[i].tobytes(), (m.sentence_id, f)
        assert db.get("m1").eye_tokens.tolist() == db.get("m1").eeg_tokens.tolist() == [0, 0]
        assert db.get("m2").eye_tokens.size == db.get("m4").eeg_tokens.size == 0
        assert db.get("m0").eye_tokens.tolist() == db.get("m3").eye_tokens.tolist() == [100, 0, 26]

    def test_first_failing_sentence_names_the_eye_error(self):
        """An overflowing eye value before a negative one raises the overflow error, and
        the other way round, as scaling each sentence in turn does."""
        rng = np.random.default_rng(10)
        for bad, message in (((1, 2), "token values overflow float64 when scaled"),
                             ((2, 1), "raw eye token values must be non-negative")):
            meas = [toy_measurement(f"m{i}", ["a", "b"], [(2, 10, 20, 10, 10), (1, 1, 0, 0, 0)], rng)
                    for i in range(4)]
            overflow, negative = bad
            meas[overflow].durations[0, 0] = 5e306  # 2 x (5e306 + 40) is finite, 100 x that is not
            meas[negative].durations[1, 0] = -5.0  # after construction, which rejects it
            with pytest.raises(ValidationError, match=message) as want:
                per_sentence_fields(meas)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError) as got:
                    derive_records(meas)
            assert str(got.value) == str(want.value)

    def test_changed_channel_count_rejected(self):
        rng = np.random.default_rng(6)
        fixations = [(2, 100, 200, 100, 100)]
        meas = [toy_measurement("m0", ["a"], fixations, rng, C=4),
                toy_measurement("m1", ["a"], fixations, rng, C=3)]
        with pytest.raises(ValidationError, match="sentence_eeg has 3 channels, the first record has 4"):
            derive_records(meas)

    def test_token_zeroing_follows_fixations(self):
        _, db, _ = synth_generate(SynthConfig(n_sentences=40), seed=3)
        for sid in db.ids():
            rec = db.get(sid)
            unfixated = rec.n_fixations == 0
            assert (rec.eye_tokens[unfixated] == 0).all()
            assert (rec.eeg_tokens[unfixated] == 0).all()

    def test_per_sentence_eye_max_is_100(self):
        _, db, _ = synth_generate(SynthConfig(n_sentences=40), seed=3)
        for sid in db.ids():
            rec = db.get(sid)
            if (rec.n_fixations > 0).any():
                assert rec.eye_tokens.max() == 100

    def test_tokens_within_range(self):
        _, db, _ = synth_generate(SynthConfig(n_sentences=40), seed=3)
        for sid in db.ids():
            rec = db.get(sid)
            assert ((rec.eye_tokens >= 0) & (rec.eye_tokens <= 100)).all()
            assert ((rec.eeg_tokens >= 0) & (rec.eeg_tokens <= 100)).all()


def eager_split(objs):
    """Reference: every record of parsed feature lines cut at once from flat arrays,
    as (tokens, label, n_fixations, eye_tokens, eeg_tokens, sentence_eeg) by id."""
    token_fields = ("n_fixations", "eye_tokens", "eeg_tokens")
    bounds = np.cumsum([0, *(len(obj["tokens"]) for obj in objs)]).tolist()
    flat = [np.array([v for obj in objs for v in obj[f]], dtype=np.int64) for f in token_fields]
    eeg = np.array([obj["sentence_eeg"] for obj in objs], dtype=np.float64)  # (N, C)
    return {obj["id"]: (obj["tokens"], obj["label"], *(vals[a:b] for vals in flat), eeg[i])
            for i, (obj, a, b) in enumerate(zip(objs, bounds, bounds[1:]))}


class TestFeatureDb:
    def test_records_cut_on_lookup_equal_the_eager_split(self, tmp_path):
        """A loaded or derived db cuts each record on its first lookup, in any order,
        into views with the values, dtypes and shapes of the eager split; a second
        lookup returns the same record."""
        fields = ("tokens", "label", "n_fixations", "eye_tokens", "eeg_tokens", "sentence_eeg")
        for cfg, seed in ((SynthConfig(n_sentences=40, distractors=2), 2),
                          (SynthConfig(n_sentences=16, filler_fix_prob=0.0, eeg_channels=1), 13)):
            meas, _, _ = synth_generate(cfg, seed)
            path = tmp_path / f"features{seed}.jsonl"
            derive_records(meas).save_jsonl(path)
            want = eager_split([json.loads(line) for line in path.read_text().splitlines()])
            for db in (FeatureDb.load_jsonl(path), derive_records(meas)):
                assert db.ids() == list(want) and len(db) == len(want)
                for sid in reversed(db.ids()):
                    got = db.get(sid)
                    assert got.sentence_id == sid and db.get(sid) is got
                    for f, w in zip(fields, want[sid]):
                        a = getattr(got, f)
                        if isinstance(w, np.ndarray):
                            assert a.dtype == w.dtype and a.shape == w.shape, (sid, f)
                            assert np.array_equal(a, w) and a.base is not None, (sid, f)
                        else:
                            assert type(a) is type(w) and a == w, (sid, f)

    def test_save_jsonl_bytes(self, tmp_path):
        db = FeatureDb([CognitiveRecord("s1", ["a", "é"], 1, [0, 2], [0, 100], [0, 37], [0.5, -1.25]),
                        CognitiveRecord("s0", [], 0, [], [], [], [3.0])])
        path = tmp_path / "features.jsonl"
        db.save_jsonl(path)
        assert path.read_bytes() == (
            b'{"eeg_tokens": [0, 37], "eye_tokens": [0, 100], "id": "s1", "label": 1, '
            b'"n_fixations": [0, 2], "sentence_eeg": [0.5, -1.25], "tokens": ["a", "\\u00e9"]}\n'
            b'{"eeg_tokens": [], "eye_tokens": [], "id": "s0", "label": 0, "n_fixations": [], '
            b'"sentence_eeg": [3.0], "tokens": []}\n')

    def test_missing_id_names_the_sentence(self):
        _, db, _ = synth_generate(SynthConfig(n_sentences=16), seed=5)
        with pytest.raises(FeatureLookupError, match="nope"):
            db.get("nope")

    def test_jsonl_round_trip_exact(self, tmp_path):
        _, db, _ = synth_generate(SynthConfig(n_sentences=16), seed=5)
        path = tmp_path / "features.jsonl"
        db.save_jsonl(path)
        loaded = FeatureDb.load_jsonl(path)
        assert loaded.ids() == db.ids()
        for sid in db.ids():
            a, b = db.get(sid), loaded.get(sid)
            assert a.tokens == b.tokens and a.label == b.label
            np.testing.assert_array_equal(a.n_fixations, b.n_fixations)
            np.testing.assert_array_equal(a.eye_tokens, b.eye_tokens)
            np.testing.assert_array_equal(a.eeg_tokens, b.eeg_tokens)
            np.testing.assert_array_equal(a.sentence_eeg, b.sentence_eeg)

    def test_loaded_records_equal_per_record_constructor(self, tmp_path):
        fields = ("n_fixations", "eye_tokens", "eeg_tokens", "sentence_eeg")
        for seed in (2, 7, 13):
            _, db, _ = synth_generate(SynthConfig(n_sentences=40, distractors=2), seed=seed)
            path = tmp_path / f"features{seed}.jsonl"
            db.save_jsonl(path)
            objs = [json.loads(line) for line in path.read_text().splitlines()]
            loaded = FeatureDb.load_jsonl(path)
            assert loaded.ids() == [obj["id"] for obj in objs]
            for obj in objs:
                want = CognitiveRecord(sentence_id=obj["id"], tokens=obj["tokens"],
                                       label=obj["label"], **{f: obj[f] for f in fields})
                got = loaded.get(obj["id"])
                assert got.tokens == want.tokens
                assert type(got.label) is int and got.label == want.label
                for f in fields:
                    a, b = getattr(got, f), getattr(want, f)
                    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), f

    def test_load_rejects_changed_channel_count(self, tmp_path):
        _, db, _ = synth_generate(SynthConfig(n_sentences=16), seed=5)
        path = tmp_path / "features.jsonl"
        db.save_jsonl(path)
        lines = path.read_text().splitlines()
        bad = json.loads(lines[6])
        bad["sentence_eeg"] = bad["sentence_eeg"][:5]
        path.write_text("\n".join(lines[:6] + [json.dumps(bad)] + lines[7:]) + "\n")
        with pytest.raises(DataError, match=rf"{path}:7 \(id '{bad['id']}'\): "
                                            r"sentence_eeg has 5 channels, the first record has 8"):
            FeatureDb.load_jsonl(path)

    def test_save_leaves_no_temp_file_and_keeps_old_file_on_failure(self, tmp_path):
        _, db, _ = synth_generate(SynthConfig(n_sentences=16), seed=5)
        path = tmp_path / "features.jsonl"
        db.save_jsonl(path)
        before = path.read_bytes()
        last = db.get(db.ids()[-1])
        unencodable = replace(last, sentence_id="x", tokens=[b"x"] * len(last.tokens))
        broken = FeatureDb([db.get(sid) for sid in db.ids()] + [unencodable])
        with pytest.raises(TypeError, match="bytes is not JSON serializable"):
            broken.save_jsonl(path)  # fails after writing 16 records
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["features.jsonl"]


class TestFirstBadLine:
    """A feature file's error names its first bad line, whether that line is not
    JSON, has a value of the wrong JSON type or fails a value check."""

    LABEL = f"label must be an integer in 0..{2**63 - 1}, got 'x'"

    @staticmethod
    def load_error(tmp_path, edits):
        """The DataError message of a 16-record feature file with lines[i] edited to edits[i]."""
        _, db, _ = synth_generate(SynthConfig(n_sentences=16), seed=5)
        path = tmp_path / "features.jsonl"
        db.save_jsonl(path)
        lines = path.read_text().splitlines()
        for index, edit in edits.items():
            lines[index] = edit(json.loads(lines[index]))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            FeatureDb.load_jsonl(path)
        return str(err.value).replace(f"{path}:", "")

    @staticmethod
    def non_finite(obj):
        return json.dumps({**obj, "sentence_eeg": [float("nan"), *obj["sentence_eeg"][1:]]})

    @staticmethod
    def retyped(obj):
        return json.dumps({**obj, "label": "x"})

    def test_value_error_before_type_error(self, tmp_path):
        assert self.load_error(tmp_path, {2: self.non_finite, 6: self.retyped}) == (
            "3 (id 's0002'): s0002: sentence_eeg holds non-finite values")

    def test_type_error_before_value_error(self, tmp_path):
        assert self.load_error(tmp_path, {2: self.retyped, 6: self.non_finite}) == (
            f"3 (id 's0002'): {self.LABEL}")

    def test_type_error_before_value_error_on_one_line(self, tmp_path):
        assert self.load_error(tmp_path, {2: lambda obj: self.retyped(json.loads(
            self.non_finite(obj)))}) == f"3 (id 's0002'): {self.LABEL}"

    def test_value_error_before_line_that_is_not_json(self, tmp_path):
        assert self.load_error(tmp_path, {2: self.non_finite, 6: lambda obj: "{"}) == (
            "3 (id 's0002'): s0002: sentence_eeg holds non-finite values")

    # Line 2 of an 8-record file, made from the file's lines, and its DataError after
    # path:, as the parent's json.loads and checks gave it (whitespace around a line
    # is JSON whitespace).
    BAD_LINES = [
        ("truncated", lambda lines: '{"id": "a", "tokens": ["x"',
         "2: Expecting ',' delimiter: line 1 column 27 (char 26)"),
        ("array", lambda lines: "[1, 2]", "2: expected a JSON object, got an array"),
        ("nan_literal", lambda lines: "NaN", "2: expected a JSON object, got a number"),
        ("bom", lambda lines: '\ufeff{"id": "a"}',
         "2: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ("space_bom", lambda lines: ' \ufeff{"id": "a"}',
         "2: Expecting value: line 1 column 2 (char 1)"),
        ("blank", lambda lines: "   ", "2: Expecting value: line 1 column 4 (char 3)"),
        ("leading_space", lambda lines: '  {"id": "a"}', "2 (id 'a'): missing key 'tokens'"),
        ("trailing_tab", lambda lines: '{"id": "a"}\t', "2 (id 'a'): missing key 'tokens'"),
        ("extra_object", lambda lines: '{"id": "a"} {"id": "b"}',
         "2: Extra data: line 1 column 13 (char 12)"),
        ("extra_text", lambda lines: '{"id": "a"}x', "2: Extra data: line 1 column 12 (char 11)"),
        ("spaced_extra", lambda lines: ' {"id": "a"} 1',
         "2: Extra data: line 1 column 14 (char 13)"),
        ("nan_value", lambda lines: TestFirstBadLine.non_finite(json.loads(lines[1])),
         "2 (id 's0001'): s0001: sentence_eeg holds non-finite values"),
        ("spaced_duplicate", lambda lines: f" {lines[0]} ",
         "2 (id 's0000'): duplicate id, first on line 1"),
    ]

    @pytest.mark.parametrize("line, message",
                             [pytest.param(line, message, id=name) for name, line, message in BAD_LINES])
    def test_bad_line_message(self, tmp_path, line, message):
        _, db, _ = synth_generate(SynthConfig(n_sentences=8), seed=5)
        path = tmp_path / "features.jsonl"
        db.save_jsonl(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], line(lines), *lines[2:]]) + "\n")
        with pytest.raises(DataError) as err:
            FeatureDb.load_jsonl(path)
        assert str(err.value) == f"{path}:{message}"

    def test_whitespace_around_lines_is_json_whitespace(self, tmp_path):
        _, db, _ = synth_generate(SynthConfig(n_sentences=8), seed=5)
        path = tmp_path / "features.jsonl"
        db.save_jsonl(path)
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n".join(f" \t{line}  " if i % 2 else f"{line}\t"
                                    for i, line in enumerate(path.read_text().splitlines())) + "\n")
        FeatureDb.load_jsonl(padded).save_jsonl(padded)
        assert padded.read_bytes() == path.read_bytes()

    def test_json_strings_keep_unicode_line_separators(self, tmp_path):
        """U+0085, U+2028 and U+2029 are valid raw inside a JSON string; a line holding
        one is one record, and its token keeps the character."""
        _, db, _ = synth_generate(SynthConfig(n_sentences=8), seed=5)
        path = tmp_path / "features.jsonl"
        db.save_jsonl(path)
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        for obj, char in zip(objs, "\x85\u2028\u2029"):
            obj["tokens"][0] += char + "x"
        path.write_text("".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs),
                        encoding="utf-8")
        assert "\u2028" in path.read_text(encoding="utf-8")
        loaded = FeatureDb.load_jsonl(path)
        assert [loaded.get(obj["id"]).tokens for obj in objs] == [obj["tokens"] for obj in objs]

    def test_crlf_file_and_its_blank_lines_read_as_lf(self, tmp_path):
        """CRLF line ends, blank CRLF lines among them, read as the LF file does, and a
        bad line keeps its line number."""
        _, db, _ = synth_generate(SynthConfig(n_sentences=8), seed=5)
        path = tmp_path / "features.jsonl"
        db.save_jsonl(path)
        lines = path.read_text().splitlines()
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes("\r\n".join([lines[0], "", *lines[1:], ""]).encode())
        FeatureDb.load_jsonl(crlf).save_jsonl(crlf)
        assert crlf.read_bytes() == path.read_bytes()
        crlf.write_bytes("\r\n".join([lines[0], "", "[1]", *lines[1:]]).encode())
        with pytest.raises(DataError, match=rf"^{crlf}:3: expected a JSON object, got an array$"):
            FeatureDb.load_jsonl(crlf)

    def test_line_that_is_not_an_object_exits_3(self, synth_dir, tmp_path, capsys):
        lexicon = tmp_path / "lexicon.jsonl"
        assert cli_main(["lexicon", "build", "--corpus", str(synth_dir / "corpus.jsonl"),
                         "--out", str(lexicon)]) == 0
        capsys.readouterr()
        kinds = {  # file -> (command line given it, the line put on line 2, what the error says)
            synth_dir / "features.jsonl": (
                lambda path: ["train", "--features", str(path), "--print-config",
                              "--out", str(tmp_path / "o")],
                "[1, 2]", "an array"),
            lexicon: (
                lambda path: ["lexicon", "apply", "--lexicon", str(path), "--features",
                              str(synth_dir / "features.jsonl"), "--out", str(tmp_path / "o")],
                "5", "a number"),
            synth_dir / "corpus.jsonl": (
                lambda path: ["lexicon", "build", "--corpus", str(path),
                              "--out", str(tmp_path / "o")],
                "null", "null"),
        }
        for source, (argv, line, what) in kinds.items():
            lines = source.read_text().splitlines()
            path = tmp_path / f"bad_{source.name}"
            path.write_text("\n".join([lines[0], line, *lines[2:]]) + "\n")
            assert cli_main(argv(path)) == 3, source.name
            assert capsys.readouterr().err == (
                f"error: {path}:2: expected a JSON object, got {what}\n"), source.name
            assert not (tmp_path / "o").exists()


class TestCognitiveRecord:
    @staticmethod
    def record(**overrides):
        fields = dict(sentence_id="r0", tokens=["a", "b"], label=0, n_fixations=[0, 2],
                      eye_tokens=[0, 100], eeg_tokens=[0, 57], sentence_eeg=[0.5, -1.0])
        fields.update(overrides)
        return CognitiveRecord(**fields)

    def test_token_range_bounds_accepted(self):
        rec = self.record(eye_tokens=[0, 100], eeg_tokens=[100, 0])
        assert rec.eye_tokens.tolist() == [0, 100]

    def test_tokens_outside_range_rejected(self):
        for field, bad in (("eye_tokens", [0, 101]), ("eeg_tokens", [-1, 3])):
            with pytest.raises(ValidationError, match=f"r0: {field} outside 0..100"):
                self.record(**{field: bad})

    def test_non_finite_sentence_eeg_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="r0: sentence_eeg"):
                self.record(sentence_eeg=[0.5, bad])

    def test_negative_fixation_count_rejected(self):
        with pytest.raises(ValidationError, match="r0: n_fixations below 0: -1"):
            self.record(n_fixations=[-1, 2])


class TestCheckRecords:
    """check_records over flat arrays names the first failing record, its first failing check."""

    @staticmethod
    def flat(records):
        """(ids, n_words, fields) of records given as (id, n_fixations, eye, eeg, sentence_eeg)."""
        fields = {}
        for k, name in enumerate(("n_fixations", "eye_tokens", "eeg_tokens", "sentence_eeg")):
            segments = [np.asarray(r[k + 1], dtype=np.float64 if k == 3 else np.int64)
                        for r in records]
            fields[name] = (np.concatenate(segments), np.cumsum([0, *map(len, segments)]))
        return [r[0] for r in records], np.array([len(r[1]) for r in records]), fields

    def test_valid_records_pass(self):
        assert check_records(*self.flat([("a", [2], [9], [5], [0.5]), ("b", [], [], [], [1.0])])) is None

    def test_first_record_and_first_check_win(self):
        records = [
            ("a", [2, 0], [100, 0], [0, 3], [0.5]),
            ("e", [], [], [], [1.0]),              # an empty segment before the bad one
            ("b", [-1, 1], [101, 0], [0, 0], [np.nan]),
            ("c", [1], [0, 0], [0], [0.0]),
        ]
        assert check_records(*self.flat(records)) == (2, "b: eye_tokens outside 0..100: [0, 101]")
        records[2] = ("b", [-1, 1], [1, 0], [0, 0], [np.nan])
        assert check_records(*self.flat(records)) == (2, "b: sentence_eeg holds non-finite values")
        records[2] = ("b", [-1, 1], [1, 0], [0, 0], [0.0])
        assert check_records(*self.flat(records)) == (2, "b: n_fixations below 0: -1")
        records[2] = ("b", [1, 1], [1, 0], [0, 0], [0.0, 1.0])
        assert check_records(*self.flat(records)) == (
            2, "sentence_eeg has 2 channels, the first record has 1")
        records[2] = ("b", [1, 1], [1, 0], [0, 0], [0.0])
        assert check_records(*self.flat(records)) == (3, "c: eye_tokens not aligned with tokens")


class TestSynthGenerate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = SynthConfig(n_sentences=24)
        for name in ("one", "two"):
            meas, db, _ = synth_generate(cfg, seed=9)
            save_measurements(meas, tmp_path / f"{name}.corpus")
            db.save_jsonl(tmp_path / f"{name}.features")
        assert (tmp_path / "one.corpus").read_bytes() == (tmp_path / "two.corpus").read_bytes()
        assert (tmp_path / "one.features").read_bytes() == (tmp_path / "two.features").read_bytes()

    def test_keywords_fixated_more_than_fillers(self):
        cfg = SynthConfig(n_sentences=200)
        meas, _, _ = synth_generate(cfg, seed=13)
        kw_fix, filler_fix = [], []
        n_words = 0
        for m in meas:
            for w, n in zip(m.words, m.n_fixations):
                n_words += 1
                (kw_fix if w.startswith("kw") else filler_fix).append(n)
        assert n_words >= 1000
        assert np.mean(kw_fix) > np.mean(filler_fix)

    def test_every_sentence_contains_own_class_keyword(self):
        for distractors in (0, 2):
            cfg = SynthConfig(n_sentences=80, distractors=distractors, max_keywords=2)
            meas, _, labels = synth_generate(cfg, seed=15)
            for m, label in zip(meas, labels):
                own = set(cfg.keywords(label))
                assert own & set(m.words)

    def test_distractors_are_unfixated_wrong_class_keywords(self):
        cfg = SynthConfig(n_sentences=80, distractors=2, max_keywords=2)
        meas, _, _ = synth_generate(cfg, seed=15)
        saw_distractor = False
        for m in meas:
            own = set(cfg.keywords(m.label))
            for w, n in zip(m.words, m.n_fixations):
                if w.startswith("kw") and w not in own:
                    saw_distractor = True
                    assert n == 0
                if w in own:
                    assert n >= 2
        assert saw_distractor

    def test_numpy_draw_identities(self):
        """The generator draws a list item as seq[rng.integers(len(seq))] and an EEG block as
        loc + s * rng.standard_normal(shape); both must give rng.choice's and rng.normal's
        values bit for bit and leave the stream where they leave it, or corpora change."""
        loc = np.array([1.0, 3.0, -2.5])
        for seed in range(6):
            for seq in (["kw0x0"], [f"kw1x{i}" for i in range(5)]):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                assert [seq[a.integers(len(seq))] for _ in range(20)] == [
                    str(b.choice(seq)) for _ in range(20)]
                assert a.random() == b.random()
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = loc + 0.3 * a.standard_normal((32, 3)), b.normal(loc, 0.3, size=(32, 3))
            assert got.tobytes() == want.tobytes()
            assert a.random() == b.random()

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_classes=1)
        with pytest.raises(ConfigError):
            SynthConfig(min_words=2, max_keywords=3)

    def test_measurement_round_trip(self, tmp_path):
        meas, _, _ = synth_generate(SynthConfig(n_sentences=8), seed=21)
        path = tmp_path / "corpus.jsonl"
        save_measurements(meas, path)
        loaded = load_measurements(path)
        assert len(loaded) == len(meas)
        for a, b in zip(meas, loaded):
            assert a.words == b.words and a.label == b.label
            assert a.n_fixations.tolist() == b.n_fixations.tolist()
            np.testing.assert_array_equal(a.durations, b.durations)
            np.testing.assert_array_equal(a.sentence_bands, b.sentence_bands)
            assert a.word_eeg.shape == b.word_eeg.shape
            np.testing.assert_array_equal(a.word_eeg, b.word_eeg)
