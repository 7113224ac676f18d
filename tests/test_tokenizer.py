"""Tokenizer contracts: id assignment, layout, round trips."""

import numpy as np
import pytest

from cogbert.errors import DataError, ValidationError
from cogbert.features import CognitiveRecord, FeatureDb
from cogbert.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Vocab,
    build_vocab,
    check_vocab_words,
    encode,
)
from cogbert.training import make_examples


class TestBuildVocab:
    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab([["a", "b"], ["a"]])
        assert "a" in vocab and "b" in vocab
        assert vocab.id_of("a") < vocab.id_of("b")

    def test_empty_corpus_keeps_reserved_only(self):
        vocab = build_vocab([[], []])
        assert set(vocab.word_to_id) == {"[PAD]", "[UNK]", "[CLS]", "[SEP]"}

    def test_reserved_ids_never_reassigned(self):
        words = [f"w{i:03d}" for i in range(150)]
        vocab = build_vocab([words])
        corpus_ids = {vocab.id_of(f"w{i:03d}") for i in range(150)}
        assert corpus_ids.isdisjoint({PAD_ID, UNK_ID, CLS_ID, SEP_ID})
        assert max(corpus_ids) < vocab.size

    def test_deterministic_assignment(self):
        corpus = [["c", "a", "b"], ["b", "a"], ["a"]]
        v1 = build_vocab(corpus)
        v2 = build_vocab(corpus)
        assert v1.word_to_id == v2.word_to_id
        # a (3 occurrences) before b (2) before c (1)
        assert v1.id_of("a") < v1.id_of("b") < v1.id_of("c")

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab([["the", "quick", "brown", "fox"], ["the", "lazy", "dog"]])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.word_to_id == vocab.word_to_id

    def test_words_with_line_separators_round_trip(self, tmp_path):
        """Only a line feed ends a vocab line: a word keeps every other character that
        str.splitlines splits at, and a carriage return."""
        words = [f"a{char}b" for char in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]
        vocab = build_vocab([words + ["c\r", "\u2028"]])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert Vocab.load(path).word_to_id == vocab.word_to_id

    def test_crlf_file_reads_as_lf(self, tmp_path):
        vocab = build_vocab([["the", "fox"]])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n\r\n"))
        assert Vocab.load(path).word_to_id == vocab.word_to_id

    def test_word_with_line_feed_names_its_sentence(self):
        check_vocab_words({"s1": ["a", "b\rc"], "s2": ["\u2028"]}, "f.jsonl")
        with pytest.raises(DataError,
                           match=r"^f.jsonl: sentence 's2': word 'b\\nc' holds a line feed"):
            check_vocab_words({"s1": ["a"], "s2": ["x", "b\nc"], "s3": ["d\ne"]}, "f.jsonl")

    def test_load_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        for text, message in (
            ("[PAD]\t0\nfox 7\n", r"vocab.tsv:2: not a 'word<TAB>id'"),
            ("[PAD]\t0\nfox\t7\n", r"vocab.tsv: .*missing reserved token"),
            ("a\t1\n\na\t2\n", r"vocab.tsv:3: word 'a' is already assigned on line 1$"),
            ("a\t1\nb\t1\n", r"vocab.tsv:2: id 1 is already assigned on line 1$"),
            ("[PAD]\t0\nb\t0\n", r"vocab.tsv:2: id 0 is already assigned on line 1$"),
        ):
            path.write_text(text)
            with pytest.raises(DataError, match=message):
                Vocab.load(path)


class TestEncode:
    def setup_method(self):
        self.vocab = build_vocab([["he", "won", "the", "nobel", "prize"]])

    def test_empty_sentence_layout(self):
        ids = encode([], self.vocab, max_len=6)
        assert ids.tolist() == [CLS_ID, SEP_ID] and ids.dtype == np.int64

    def test_two_word_layout(self):
        ids = encode(["he", "won"], self.vocab, max_len=6)
        expected = [CLS_ID, self.vocab.id_of("he"), self.vocab.id_of("won"), SEP_ID]
        assert ids.tolist() == expected

    def test_oov_maps_to_unk(self):
        ids = encode(["zebra"], self.vocab, max_len=5)
        assert ids[1] == UNK_ID

    def test_truncation_recorded(self, caplog):
        """encode keeps the first words; make_examples, which knows the id, warns once per cut sentence."""
        words = ["he", "won", "the", "nobel", "prize"]
        ids = encode(words, self.vocab, max_len=4)
        assert ids.tolist() == [CLS_ID, self.vocab.id_of("he"), self.vocab.id_of("won"), SEP_ID]
        assert caplog.records == []
        db = FeatureDb([CognitiveRecord(sid, words[:n], 0, [0] * n, [0] * n, [0] * n, [0.0])
                        for sid, n in (("s1", 5), ("s2", 2), ("s3", 4))])
        with caplog.at_level("WARNING", logger="cogbert"):
            examples = make_examples(db, self.vocab, max_len=4)
        assert [ex.ids.tolist() for ex in examples] == [ids.tolist()] * 3
        assert [r.getMessage() for r in caplog.records] == [
            "s1: truncating 3 word(s) to fit max_len=4", "s3: truncating 2 word(s) to fit max_len=4"]

    def test_max_len_floor(self):
        with pytest.raises(ValidationError):
            encode(["he"], self.vocab, max_len=2)

    def test_never_emits_pad(self):
        rng = np.random.default_rng(4)
        words = ["he", "won", "the", "nobel", "prize", "zebra"]
        for _ in range(50):
            n = int(rng.integers(0, 7))
            max_len = int(rng.integers(3, 10))
            ids = encode(words[:n], self.vocab, max_len=max_len)
            assert len(ids) == min(n, max_len - 2) + 2
            assert PAD_ID not in ids.tolist()

    def test_round_trip_for_in_vocab_sentences(self):
        words = ["the", "nobel", "prize"]
        ids = encode(words, self.vocab, max_len=10)
        assert ids[1:-1].tolist() == [self.vocab.word_to_id[w] for w in words]

    def test_deterministic(self):
        a = encode(["he", "won"], self.vocab, max_len=8)
        b = encode(["he", "won"], self.vocab, max_len=8)
        np.testing.assert_array_equal(a, b)
