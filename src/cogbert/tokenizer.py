"""Word-level tokenization with BERT-style special tokens.

Whole words are the token unit (no subword pieces) so that each token stays
aligned one-to-one with its cognitive feature record. A sentence is its id
array [CLS] words... [SEP] (encode): position j + 1 holds record word j, so
the array's length alone says which words a batch reads, the first
len(ids) - 2. Reserved ids follow the BERT convention: PAD=0, UNK=100,
CLS=101, SEP=102.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError
from .files import read_lines, write_text_atomic

PAD_ID = 0
UNK_ID = 100
CLS_ID = 101
SEP_ID = 102
RESERVED = {"[PAD]": PAD_ID, "[UNK]": UNK_ID, "[CLS]": CLS_ID, "[SEP]": SEP_ID}
_RESERVED_IDS = frozenset(RESERVED.values())

MASK_KEEP = 0.0        # "-0" in additive-mask terms
MASK_SUPPRESS = -10000.0


@dataclass
class Vocab:
    """Distinct words with distinct ids, the reserved tokens included."""

    word_to_id: dict[str, int]

    @property
    def size(self) -> int:
        """One past the largest assigned id (embedding table row count)."""
        return max(self.word_to_id.values()) + 1

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id

    def id_of(self, word: str) -> int:
        return self.word_to_id.get(word, UNK_ID)

    def save(self, path: str | Path) -> None:
        lines = [f"{w}\t{i}" for w, i in sorted(self.word_to_id.items(), key=lambda kv: kv[1])]
        write_text_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        try:
            lines = read_lines(path)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not a UTF-8 vocab file: {exc}") from None
        word_to_id: dict[str, int] = {}
        seen: dict[str | int, int] = {}  # word or id -> the line that assigned it
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            word, tab, ident = line.rpartition("\t")
            if not tab or not ident.isdecimal():
                raise DataError(f"{path}:{lineno}: not a 'word<TAB>id' vocab line: {line[:60]!r}")
            ident = int(ident)
            for key, what in ((word, f"word {word!r}"), (ident, f"id {ident}")):
                if key in seen:  # a word is a str and an id an int, so the two never collide
                    raise DataError(f"{path}:{lineno}: {what} is already assigned "
                                    f"on line {seen[key]}")
            word_to_id[word] = ident
            seen[word] = seen[ident] = lineno
        for name, ident in RESERVED.items():
            if word_to_id.get(name) != ident:
                raise DataError(f"{path}: vocab file missing reserved token {name}={ident}")
        return cls(word_to_id)


def check_vocab_words(sentences: dict[str, list[str]], source: str | Path) -> None:
    """Raise a DataError naming the first sentence of source (id -> words) that
    holds a word with a line feed: vocab.tsv stores one word per line, so
    `Vocab.load` could not read that word back."""
    for sentence_id, words in sentences.items():
        for word in words:
            if "\n" in word:
                raise DataError(f"{source}: sentence {sentence_id!r}: word {word!r} holds a "
                                f"line feed, which a vocab file cannot store")


def build_vocab(corpus: list[list[str]]) -> Vocab:
    """Assign ids to the words of the tokenized sentences by descending
    frequency, ties broken lexicographically.

    Ids count up from 1 and skip the reserved range 100-102.
    """
    counts: Counter[str] = Counter()
    for words in corpus:
        counts.update(words)

    word_to_id = dict(RESERVED)
    next_id = 1
    for word, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        while next_id in _RESERVED_IDS:
            next_id += 1
        word_to_id[word] = next_id
        next_id += 1
    return Vocab(word_to_id)


def encode(words: list[str], vocab: Vocab, max_len: int = 64) -> np.ndarray:
    """The (n + 2,) int64 ids [CLS] words... [SEP] of the first n words that
    fit max_len positions, unpadded; build_batch pads them to the batch width.
    training.make_example, which knows the sentence's id, warns when words are cut."""
    if max_len < 3:
        raise ValidationError(f"max_len must be >= 3, got {max_len}")
    return np.array([CLS_ID, *(vocab.id_of(w) for w in words[:max_len - 2]), SEP_ID], dtype=np.int64)
