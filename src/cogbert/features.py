"""Cognitive feature derivation, storage, and synthesis.

Per-word eye-tracking measurements become "eye tokens" (0-100 integers,
scaled per sentence) and per-word EEG band power becomes "EEG tokens"
(0-100 integers, scaled over the corpus). Per-sentence EEG band vectors
collapse to a single channel vector. Unfixated words always map to token 0
and are the words a cognitive attention mask suppresses.

A FeatureDb keyed by sentence id is the model's lookup table at train and
eval time; its JSON-lines form is the canonical interchange format. All
three JSON-lines loaders (feature db, lexicon, raw corpus) read through
_read_jsonl, which rejects a line that is not a JSON object or repeats an
id. Loading a feature db type-checks every record and concatenates each
per-word field over all records into a flat array with record offsets in
one pass (_record_columns), checks every record's values at once
(check_records, which each CognitiveRecord built in code also runs on its
own fields) and gives each record views into those arrays. The word-EEG
lexicon approximates sentence EEG for corpora without recordings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .checks import check_field_types, is_integer
from .errors import ConfigError, DataError, FeatureLookupError, ValidationError
from .files import atomic_open
from .numerics.rng import SeededRng
from .tokenizer import MASK_KEEP, MASK_SUPPRESS, TokenizedSentence

FRPS = ("ffd", "trt", "gd", "gpt")
BANDS = ("t1", "t2", "a1", "a2", "b1", "b2", "g1", "g2")
N_EEG_VECTORS = len(FRPS) * len(BANDS)  # 32 channel vectors per fixated word
TOKEN_SCALE = 100  # tokens index an embedding table with rows 0..100


@dataclass
class WordFixation:
    """Raw per-word eye-tracking measures, durations in milliseconds.

    sfd is carried for completeness but feeds no downstream formula.
    """

    n_fixations: int
    ffd: float = 0.0
    trt: float = 0.0
    gd: float = 0.0
    gpt: float = 0.0
    sfd: float = 0.0

    def __post_init__(self):
        durations = (self.ffd, self.trt, self.gd, self.gpt, self.sfd)
        if self.n_fixations < 0 or any(d < 0 for d in durations):
            raise ValidationError(f"negative fixation measurement: {self}")
        if self.n_fixations == 0 and any(d != 0 for d in durations):
            raise ValidationError("unfixated word must have zero durations")


@dataclass
class WordEEG:
    """Per-word EEG: one channel vector per (fixation event, frequency band).

    channels has shape (32, C): 4 fixation events x 8 bands, event-major.
    """

    channels: np.ndarray

    def __post_init__(self):
        try:
            self.channels = np.asarray(self.channels, dtype=np.float64)
        except ValueError as exc:
            raise ValidationError(f"inconsistent word EEG vector lengths: {exc}") from exc
        if self.channels.ndim != 2 or self.channels.shape[0] != N_EEG_VECTORS:
            raise ValidationError(
                f"word EEG must be ({N_EEG_VECTORS}, C), got {self.channels.shape}"
            )

    @property
    def n_channels(self) -> int:
        return self.channels.shape[1]

    def occurrence_vector(self) -> np.ndarray:
        """Column-wise mean over the 32 event/band vectors -> one C-vector."""
        return self.channels.mean(axis=0)


@dataclass
class SentenceMeasurement:
    """One sentence's raw recordings: the input side of feature derivation."""

    sentence_id: str
    words: list[str]
    label: int
    fixations: list[WordFixation]
    word_eeg: list[WordEEG | None]
    sentence_bands: np.ndarray  # (8, C), one vector per frequency band

    def __post_init__(self):
        n = len(self.words)
        if len(self.fixations) != n or len(self.word_eeg) != n:
            raise ValidationError(
                f"{self.sentence_id}: words/fixations/eeg lengths differ "
                f"({n}/{len(self.fixations)}/{len(self.word_eeg)})"
            )
        self.sentence_bands = np.asarray(self.sentence_bands, dtype=np.float64)
        if self.sentence_bands.ndim != 2 or self.sentence_bands.shape[0] != len(BANDS):
            raise ValidationError(f"sentence bands must be (8, C), got {self.sentence_bands.shape}")
        channels = self.sentence_bands.shape[1]
        for i, (fix, eeg) in enumerate(zip(self.fixations, self.word_eeg)):
            if (fix.n_fixations == 0) != (eeg is None):
                raise ValidationError(
                    f"{self.sentence_id}: word EEG present iff the word was fixated"
                )
            if eeg is not None and eeg.channels.shape[1] != channels:
                raise ValidationError(
                    f"{self.sentence_id}: word {i} ({self.words[i]!r}) EEG has "
                    f"{eeg.channels.shape[1]} channels, sentence_bands has {channels}"
                )


@dataclass
class CognitiveRecord:
    """Derived per-sentence features, aligned 1:1 with the sentence's words."""

    sentence_id: str
    tokens: list[str]
    label: int
    n_fixations: np.ndarray
    eye_tokens: np.ndarray
    eeg_tokens: np.ndarray
    sentence_eeg: np.ndarray

    def __post_init__(self):
        self.n_fixations = np.asarray(self.n_fixations, dtype=np.int64)
        self.eye_tokens = np.asarray(self.eye_tokens, dtype=np.int64)
        self.eeg_tokens = np.asarray(self.eeg_tokens, dtype=np.int64)
        self.sentence_eeg = np.asarray(self.sentence_eeg, dtype=np.float64)
        n_words = np.array([len(self.tokens)])
        fields = {}
        for name in _TOKEN_FIELDS:  # len() rejects a scalar field
            arr = getattr(self, name)
            fields[name] = (arr.ravel(), np.array([0, len(arr)]))
        fields["sentence_eeg"] = (self.sentence_eeg.ravel(), np.array([0, self.sentence_eeg.size]))
        failure = check_records([self.sentence_id], n_words, fields)
        if failure is not None:
            raise ValidationError(failure[1])

    @classmethod
    def _checked(cls, sentence_id: str, tokens: list[str], label: int, n_fixations: np.ndarray,
                 eye_tokens: np.ndarray, eeg_tokens: np.ndarray,
                 sentence_eeg: np.ndarray) -> "CognitiveRecord":
        """A record of arrays that check_records has passed; skips __post_init__."""
        rec = cls.__new__(cls)
        rec.__dict__.update(sentence_id=sentence_id, tokens=tokens, label=label,
                            n_fixations=n_fixations, eye_tokens=eye_tokens,
                            eeg_tokens=eeg_tokens, sentence_eeg=sentence_eeg)
        return rec


_TOKEN_FIELDS = ("n_fixations", "eye_tokens", "eeg_tokens")
_INT64_MAX = int(np.iinfo(np.int64).max)


def check_records(
    ids: list[str], n_words: np.ndarray, fields: dict[str, tuple[np.ndarray, np.ndarray]],
) -> tuple[int, str] | None:
    """The first of N records that fails a check, with its message; None if all pass.

    fields maps n_fixations, eye_tokens, eeg_tokens (int64) and sentence_eeg
    (float64) to (values, offsets): the records' values concatenated, and the
    N + 1 offsets where each record's segment starts and the last one ends.
    n_words holds each record's token count. A record is checked in this
    order and reports its first failure: each token field aligned with the
    tokens, eye and EEG tokens within 0..TOKEN_SCALE, sentence EEG finite,
    as long as the first record's and not empty, fixation counts >= 0.
    """
    n = len(ids)
    values = {name: vals for name, (vals, _) in fields.items()}
    offsets = {name: offs for name, (_, offs) in fields.items()}
    lengths = {name: offs[1:] - offs[:-1] for name, offs in offsets.items()}
    channels = lengths["sentence_eeg"]
    if (all((lengths[name] == n_words).all() for name in _TOKEN_FIELDS)
            and all(0 <= values[name].min(initial=0) and values[name].max(initial=0) <= TOKEN_SCALE
                    for name in ("eye_tokens", "eeg_tokens"))
            and np.isfinite(values["sentence_eeg"]).all() and (channels == channels[:1]).all()
            and channels.all()
            and values["n_fixations"].min(initial=0) >= 0):
        return None

    def records(element_mask: np.ndarray, name: str) -> np.ndarray:
        bad = np.zeros(n, dtype=bool)
        bad[np.searchsorted(offsets[name], np.flatnonzero(element_mask), side="right") - 1] = True
        return bad

    def segment(name: str, i: int) -> np.ndarray:
        return values[name][offsets[name][i]:offsets[name][i + 1]]

    checks = [
        *((lengths[name] != n_words, lambda i, name=name: f"{ids[i]}: {name} not aligned with tokens")
          for name in _TOKEN_FIELDS),
        *((records((values[name] < 0) | (values[name] > TOKEN_SCALE), name),
           lambda i, name=name: (f"{ids[i]}: {name} outside 0..{TOKEN_SCALE}: "
                                 f"[{segment(name, i).min()}, {segment(name, i).max()}]"))
          for name in ("eye_tokens", "eeg_tokens")),
        (records(~np.isfinite(values["sentence_eeg"]), "sentence_eeg"),
         lambda i: f"{ids[i]}: sentence_eeg holds non-finite values"),
        (channels != channels[0],
         lambda i: f"sentence_eeg has {channels[i]} channels, the first record has {channels[0]}"),
        (channels == 0, lambda i: f"{ids[i]}: sentence_eeg is empty"),
        (records(values["n_fixations"] < 0, "n_fixations"),
         lambda i: f"{ids[i]}: n_fixations below 0: {segment('n_fixations', i).min()}"),
    ]
    first = int(np.logical_or.reduce([bad for bad, _ in checks]).argmax())
    return next((first, message(first)) for bad, message in checks if bad[first])


# dtype -> (the JSON types of the values it holds, what a message calls them)
_NUMBERS = {np.int64: ({int}, "int64 integers"), np.float64: ({int, float}, "float64 numbers")}


def _fits(value, dtype) -> bool:
    """value is a JSON number that converts to dtype: an int within int64, or
    for float64 a float or an int that is not too large for a float."""
    if dtype is np.int64:
        return type(value) is int and -_INT64_MAX - 1 <= value <= _INT64_MAX
    try:
        return type(value) is float or type(value) is int and math.isfinite(value)
    except OverflowError:
        return False


def _check_labels(labels: list) -> None:
    """Raise a ValidationError naming the first label that is not an integer in 0..int64 max."""
    if not (set(map(type, labels)) <= {int} and 0 <= min(labels, default=0)
            and max(labels, default=0) <= _INT64_MAX):
        bad = next(v for v in labels if not (_fits(v, np.int64) and v >= 0))
        raise ValidationError(f"label must be an integer in 0..{_INT64_MAX}, got {bad!r}")


def _concat(name: str, lists: list, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(values, offsets) of JSON lists of numbers joined into one dtype array.

    A ValidationError names the first item of lists that is not a list, or
    else the first value that _fits rejects.
    """
    if set(map(type, lists)) <= {list}:
        flat = list(chain.from_iterable(lists))
        types, noun = _NUMBERS[dtype]
        try:
            if set(map(type, flat)) <= types:
                return np.array(flat, dtype=dtype), np.cumsum([0, *map(len, lists)])
        except OverflowError:
            pass
        bad = next(v for v in flat if not _fits(v, dtype))
        raise ValidationError(f"{name} must hold {noun}, got {bad!r}")
    bad = next(v for v in lists if type(v) is not list)
    raise ValidationError(f"{name} must be a list, got {bad!r}")


def _line_error(path: str | Path, lineno: int, obj, id_key: str, exc: Exception) -> DataError:
    """The DataError for a rejected line: path:line, the record id when the line
    parsed to an object holding one, and what went wrong."""
    where = f"{path}:{lineno}"
    if isinstance(obj, dict) and id_key in obj:
        where += f" ({id_key} {obj[id_key]!r})"
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return DataError(f"{where}: {detail}")


# What a line's parse or checks may raise; a DataError naming the line replaces it.
_LINE_ERRORS = (ValueError, KeyError, TypeError, OverflowError)
_JSON_NAMES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _read_jsonl(path: str | Path, id_key: str, parse: Callable[[dict], object],
                ) -> tuple[list[tuple[int, dict, object]], DataError | None]:
    """Read the non-empty lines of a JSON-lines file up to the first bad one.

    Each line must parse to a JSON object; then parse(obj) runs, and
    obj[id_key] must be a string no earlier line holds. Returns the
    (line number, object, parse result) of each line before the first that
    fails, and that line's DataError (None if no line fails), which names
    path:line and, when the line is an object holding one, its id.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 JSON-lines file: {exc}") from None
    items = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        obj = None
        try:
            obj = json.loads(line)
            if type(obj) is not dict:
                raise ValidationError(f"expected a JSON object, got {_JSON_NAMES[type(obj)]}")
            parsed = parse(obj)
            key = obj[id_key]
            if not isinstance(key, str):
                raise ValidationError(f"{id_key} must be a string, got {key!r}")
            if key in first_line:
                raise ValidationError(f"duplicate {id_key}, first on line {first_line[key]}")
        except _LINE_ERRORS as exc:
            return items, _line_error(path, lineno, obj, id_key, exc)
        first_line[key] = lineno
        items.append((lineno, obj, parsed))
    return items, None


_RECORD_KEYS = ("tokens", "label", *_TOKEN_FIELDS, "sentence_eeg")


def _record_columns(objs: list[dict]) -> tuple[list, list, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """The tokens, labels and flat fields (as check_records takes them) of
    feature-file records, read and type-checked in one pass over all of them.

    Raises a ValidationError for the first of _RECORD_KEYS that some record
    lacks, or else that some record holds with a wrong JSON type: tokens a
    list of strings, label an integer in 0..int64 max, the token fields lists
    of int64 integers, sentence_eeg a list of float64 numbers. A record
    passes or fails regardless of the others, so on one record the error is
    that record's.
    """
    columns = {}
    for name in _RECORD_KEYS:
        try:
            columns[name] = [obj[name] for obj in objs]
        except KeyError:
            raise ValidationError(f"missing key {name!r}") from None
    tokens, labels = columns["tokens"], columns["label"]
    if not (set(map(type, tokens)) <= {list} and set(map(type, chain.from_iterable(tokens))) <= {str}):
        raise ValidationError("tokens must be a list of strings")
    _check_labels(labels)
    fields = {name: _concat(name, columns[name], np.int64 if name in _TOKEN_FIELDS else np.float64)
              for name in (*_TOKEN_FIELDS, "sentence_eeg")}
    return tokens, labels, fields


def _split_records(ids: list[str], tokens: list[list[str]], labels: list[int],
                   fields: dict[str, tuple[np.ndarray, np.ndarray]]) -> list[CognitiveRecord]:
    """The CognitiveRecords of flat fields that check_records has passed (at
    least one record), each holding views into the flat arrays."""
    bounds = fields["n_fixations"][1].tolist()
    segments = [[vals[a:b] for a, b in zip(bounds, bounds[1:])]
                for vals in (fields[name][0] for name in _TOKEN_FIELDS)]
    sentence_eeg, sentence_offsets = fields["sentence_eeg"]
    rows = sentence_eeg.reshape(len(ids), int(sentence_offsets[1]))
    return list(map(CognitiveRecord._checked, ids, tokens, labels, *segments, rows))


class FeatureDb:
    """Immutable sentence-id -> CognitiveRecord map."""

    def __init__(self, records: list[CognitiveRecord] | dict[str, CognitiveRecord]):
        if isinstance(records, dict):
            self._records = dict(records)
        else:
            self._records = {r.sentence_id: r for r in records}

    def __len__(self) -> int:
        return len(self._records)

    def ids(self) -> list[str]:
        return list(self._records)

    def get(self, sentence_id: str) -> CognitiveRecord:
        try:
            return self._records[sentence_id]
        except KeyError:
            raise FeatureLookupError(f"no cognitive record for sentence id {sentence_id!r}") from None

    def save_jsonl(self, path: str | Path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            for rec in self._records.values():
                fh.write(json.dumps({
                    "id": rec.sentence_id,
                    "tokens": rec.tokens,
                    "label": int(rec.label),
                    "n_fixations": rec.n_fixations.tolist(),
                    "eye_tokens": rec.eye_tokens.tolist(),
                    "eeg_tokens": rec.eeg_tokens.tolist(),
                    "sentence_eeg": rec.sentence_eeg.tolist(),
                }, sort_keys=True) + "\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "FeatureDb":
        """Read a feature db, one record per line; the first bad line is a DataError.

        _read_jsonl reads the lines up to the first that is not a JSON object
        with a new string id. _record_columns checks the JSON types of those
        records and makes flat arrays of them in one pass; only if it fails
        does it run on one record at a time, to find the first with a wrong
        type. check_records then checks the records before that one at once,
        and the error names whichever failing line comes first. Records hold
        views into the flat arrays.
        """
        items, error = _read_jsonl(path, "id", lambda obj: None)
        try:
            tokens, labels, fields = _record_columns([obj for _, obj, _ in items])
        except ValidationError:
            for n, (lineno, obj, _) in enumerate(items):
                try:
                    _record_columns([obj])
                except ValidationError as exc:
                    error = _line_error(path, lineno, obj, "id", exc)
                    break
            items = items[:n]
            tokens, labels, fields = _record_columns([obj for _, obj, _ in items])
        ids = [obj["id"] for _, obj, _ in items]
        failure = check_records(ids, np.fromiter(map(len, tokens), np.int64, len(tokens)), fields)
        if failure is not None:
            lineno, obj, _ = items[failure[0]]
            raise _line_error(path, lineno, obj, "id", ValidationError(failure[1]))
        if error is not None:
            raise error
        return cls(_split_records(ids, tokens, labels, fields) if ids else [])


# ---------------------------------------------------------------------------
# Feature formulas
# ---------------------------------------------------------------------------

def eye_token_raw(fix: WordFixation) -> float:
    """nFixations * (FFD + TRT + GD + GPT); zero for unfixated words."""
    return fix.n_fixations * (fix.ffd + fix.trt + fix.gd + fix.gpt)


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5).astype(np.int64)


def scale_eye_tokens(raw) -> np.ndarray:
    """Per-sentence scaling of raw eye values to integers 0..100.

    The sentence maximum maps to 100; an all-zero sentence stays all zero.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if (raw < 0).any():
        raise ValidationError("raw eye token values must be non-negative")
    peak = raw.max(initial=0.0)
    if peak == 0.0:
        return np.zeros(raw.shape, dtype=np.int64)
    return _round_half_up(TOKEN_SCALE * raw / peak)


def eeg_token_raw(eeg: WordEEG | None) -> float:
    """Grand mean of the word's averaged channel vector; zero when unfixated."""
    if eeg is None:
        return 0.0
    return float(eeg.occurrence_vector().mean())


def scale_eeg_tokens(raw, fixated=None) -> np.ndarray:
    """Corpus-level min-max scaling of raw EEG means to integers 0..100.

    Unfixated words keep token 0 regardless of scaling. If any fixated raw
    value is negative the fixated values are first shifted so their minimum
    is zero, then divided by their maximum (so the corpus maximum maps to
    100 and an all-equal corpus maps to all 100).
    """
    raw = np.asarray(raw, dtype=np.float64)
    if fixated is None:
        fixated = np.ones(raw.shape, dtype=bool)
    else:
        fixated = np.asarray(fixated, dtype=bool)
    out = np.zeros(raw.shape, dtype=np.int64)
    if not fixated.any():
        return out
    vals = raw[fixated]
    lo = vals.min()
    if lo < 0:
        vals = vals - lo
    hi = vals.max()
    if hi > 0:
        out[fixated] = _round_half_up(TOKEN_SCALE * vals / hi)
    return out


def sentence_eeg(bands) -> np.ndarray:
    """Element-wise mean of the eight per-band channel vectors."""
    bands = np.asarray(bands, dtype=np.float64)
    if bands.ndim != 2 or bands.shape[0] != len(BANDS):
        raise ValidationError(f"expected 8 equal-length band vectors, got shape {bands.shape}")
    return bands.mean(axis=0)


def cognitive_mask(n_fixations, layout: TokenizedSentence) -> np.ndarray:
    """Additive attention mask over the layout's positions from fixation counts.

    Keeps (-0) tokens fixated more than once plus CLS and SEP; suppresses
    (-10000) words fixated at most once. build_batch pads the mask.
    """
    n_fixations = np.asarray(n_fixations, dtype=np.int64)
    if len(n_fixations) != layout.word_count:
        raise ValidationError(
            f"fixation counts ({len(n_fixations)}) not aligned with "
            f"{layout.word_count} content tokens"
        )
    # CLS carries the classification signal; SEP stays attended, as without cog_mask.
    mask = np.full(len(layout.ids), MASK_KEEP, dtype=np.float64)
    mask[1:-1] = np.where(n_fixations > 1, MASK_KEEP, MASK_SUPPRESS)
    return mask


def derive_records(measurements: list[SentenceMeasurement]) -> FeatureDb:
    """Full feature derivation: eye tokens (per-sentence scale), EEG tokens
    (corpus-level scale), and sentence EEG vectors.

    All records are checked at once (check_records), so a bad one raises the
    ValidationError its CognitiveRecord would, and sentence EEG vectors of
    different lengths are rejected.
    """
    if not measurements:
        return FeatureDb([])
    fixations = [f for m in measurements for f in m.fixations]
    raw_eeg = [eeg_token_raw(eeg) for m in measurements for eeg in m.word_eeg]
    word_offsets = np.cumsum([0, *(len(m.words) for m in measurements)])
    sentence = [sentence_eeg(m.sentence_bands) for m in measurements]
    fields = {
        "n_fixations": (np.array([f.n_fixations for f in fixations], dtype=np.int64), word_offsets),
        "eye_tokens": (np.concatenate([scale_eye_tokens([eye_token_raw(f) for f in m.fixations])
                                       for m in measurements]), word_offsets),
        "eeg_tokens": (scale_eeg_tokens(raw_eeg, [f.n_fixations > 0 for f in fixations]), word_offsets),
        "sentence_eeg": (np.concatenate(sentence), np.cumsum([0, *map(len, sentence)])),
    }
    ids = [m.sentence_id for m in measurements]
    failure = check_records(ids, np.diff(word_offsets), fields)
    if failure is not None:
        raise ValidationError(failure[1])
    return FeatureDb(_split_records(ids, [list(m.words) for m in measurements],
                                    [m.label for m in measurements], fields))


# ---------------------------------------------------------------------------
# Word-EEG lexicon
# ---------------------------------------------------------------------------

@dataclass
class EEGLexicon:
    """Per-word mean EEG vector over all fixated occurrences in a corpus."""

    vectors: dict[str, np.ndarray]
    counts: dict[str, int]

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def save_jsonl(self, path: str | Path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            for word in sorted(self.vectors):
                fh.write(json.dumps({
                    "word": word,
                    "count": int(self.counts[word]),
                    "vector": self.vectors[word].tolist(),
                }, sort_keys=True) + "\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "EEGLexicon":
        """Read a lexicon: distinct string words, counts integers >= 0, and
        non-empty vectors of the first entry's length."""
        lengths: list[int] = []

        def entry(obj: dict) -> tuple[str, np.ndarray, int]:
            vector, _ = _concat("vector", [obj["vector"]], np.float64)
            if not vector.size or not np.isfinite(vector).all():
                raise ValidationError("vector must be a non-empty flat list of finite numbers")
            count = obj["count"]
            if not (is_integer(count) and count >= 0):
                raise ValidationError(f"count must be an integer >= 0, got {count!r}")
            if not lengths:
                lengths.append(len(vector))
            elif len(vector) != lengths[0]:
                raise ValidationError(
                    f"vector has {len(vector)} channels, the first entry has {lengths[0]}"
                )
            return obj["word"], vector, count

        items, error = _read_jsonl(path, "word", entry)
        if error is not None:
            raise error
        return cls({w: v for _, _, (w, v, _) in items}, {w: c for _, _, (w, _, c) in items})


def build_lexicon(measurements: list[SentenceMeasurement]) -> EEGLexicon:
    """Average each word's per-occurrence EEG vectors; unfixated occurrences
    contribute nothing and never-fixated words are excluded."""
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for m in measurements:
        for word, eeg in zip(m.words, m.word_eeg):
            if eeg is None:
                continue
            vec = eeg.occurrence_vector()
            if word in sums:
                sums[word] = sums[word] + vec
                counts[word] += 1
            else:
                sums[word] = vec.copy()
                counts[word] = 1
    vectors = {w: sums[w] / counts[w] for w in sums}
    return EEGLexicon(vectors, counts)


def lexicon_sentence_eeg(words: list[str], lexicon: EEGLexicon, n_channels: int) -> tuple[np.ndarray, float]:
    """Mean lexicon vector over covered words, plus the coverage fraction.

    Returns a zero vector with coverage 0.0 when no word is in the lexicon,
    so benchmarking an external corpus never aborts.
    """
    hits = [lexicon.vectors[w] for w in words if w in lexicon]
    if not hits:
        return np.zeros(n_channels, dtype=np.float64), 0.0
    coverage = len(hits) / len(words) if words else 0.0
    return np.mean(hits, axis=0), coverage


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig:
    """Planted-keyword corpus generator settings.

    Each sentence's label is decidable from its planted keywords, keywords
    are fixated (n_fixations >= 2) with long durations, and fillers are
    mostly unfixated. With distractors > 0, every sentence additionally
    contains unfixated keywords of one wrong class, so word identity alone
    becomes misleading while fixation-aware signals stay clean.
    """

    n_classes: int = 8
    n_sentences: int = 400
    keywords_per_class: int = 5
    filler_vocab: int = 160
    min_words: int = 8
    max_words: int = 14
    min_keywords: int = 1
    max_keywords: int = 3
    filler_fix_prob: float = 0.35
    eeg_channels: int = 8
    distractors: int = 0
    keyword_eeg_mean: float = 3.0
    filler_eeg_mean: float = 1.0
    eeg_noise: float = 0.3
    class_tilt: float = 2.0

    def __post_init__(self):
        check_field_types(self)
        # The relations below bound every other size from below by 1.
        if self.distractors < 0:
            raise ConfigError(f"distractors must be an integer >= 0, got {self.distractors!r}")
        if self.eeg_noise < 0:
            raise ConfigError(f"eeg_noise must be >= 0, got {self.eeg_noise!r}")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.n_sentences < self.n_classes:
            raise ConfigError("need at least one sentence per class")
        if not 1 <= self.min_keywords <= self.max_keywords:
            raise ConfigError("keyword count range must satisfy 1 <= min <= max")
        if self.min_words < self.max_keywords + self.distractors:
            raise ConfigError("sentences too short for keywords plus distractors")
        if self.min_words > self.max_words:
            raise ConfigError("min_words exceeds max_words")
        if not 0.0 <= self.filler_fix_prob <= 1.0:
            raise ConfigError("filler_fix_prob must lie in [0, 1]")
        if self.eeg_channels < 1 or self.keywords_per_class < 1 or self.filler_vocab < 1:
            raise ConfigError("vocabulary and channel counts must be positive")

    def keywords(self, label: int) -> list[str]:
        return [f"kw{label}x{i}" for i in range(self.keywords_per_class)]

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _class_profile(cfg: SynthConfig, label: int, base: float) -> np.ndarray:
    profile = np.full(cfg.eeg_channels, base, dtype=np.float64)
    profile[label % cfg.eeg_channels] += cfg.class_tilt
    return profile


def _word_eeg(cfg: SynthConfig, rng: SeededRng, profile: np.ndarray) -> WordEEG:
    return WordEEG(rng.normal(profile, cfg.eeg_noise, size=(N_EEG_VECTORS, cfg.eeg_channels)))


def synth_generate(cfg: SynthConfig, seed: int) -> tuple[list[SentenceMeasurement], FeatureDb, list[int]]:
    """Deterministic corpus + derived feature database + per-sentence labels."""
    master = SeededRng(seed).derive("synth")
    measurements: list[SentenceMeasurement] = []
    labels: list[int] = []

    for i in range(cfg.n_sentences):
        label = i % cfg.n_classes
        rng = master.derive(f"sentence{i}")
        n_words = int(rng.integers(cfg.min_words, cfg.max_words + 1))
        n_kw = min(int(rng.integers(cfg.min_keywords, cfg.max_keywords + 1)), n_words)
        n_dis = min(cfg.distractors, n_words - n_kw)

        order = rng.permutation(n_words)
        kw_pos = set(order[:n_kw].tolist())
        dis_pos = set(order[n_kw:n_kw + n_dis].tolist())
        wrong = int((label + 1 + rng.integers(cfg.n_classes - 1)) % cfg.n_classes)

        words: list[str] = []
        fixations: list[WordFixation] = []
        word_eeg: list[WordEEG | None] = []
        kw_profile = _class_profile(cfg, label, cfg.keyword_eeg_mean)
        filler_profile = np.full(cfg.eeg_channels, cfg.filler_eeg_mean)

        for pos in range(n_words):
            if pos in kw_pos:
                words.append(str(rng.choice(cfg.keywords(label))))
                n_fix = int(rng.integers(2, 6))
                fixations.append(WordFixation(
                    n_fixations=n_fix,
                    ffd=float(rng.uniform(80, 200)),
                    trt=float(rng.uniform(200, 600)),
                    gd=float(rng.uniform(80, 300)),
                    gpt=float(rng.uniform(100, 400)),
                ))
                word_eeg.append(_word_eeg(cfg, rng, kw_profile))
            elif pos in dis_pos:
                words.append(str(rng.choice(cfg.keywords(wrong))))
                fixations.append(WordFixation(n_fixations=0))
                word_eeg.append(None)
            else:
                words.append(f"f{int(rng.integers(cfg.filler_vocab))}")
                if rng.random() < cfg.filler_fix_prob:
                    n_fix = int(rng.integers(1, 3))
                    ffd = float(rng.uniform(50, 150))
                    fixations.append(WordFixation(
                        n_fixations=n_fix,
                        ffd=ffd,
                        trt=float(rng.uniform(50, 200)),
                        gd=float(rng.uniform(50, 150)),
                        gpt=float(rng.uniform(50, 200)),
                        sfd=ffd if n_fix == 1 else 0.0,
                    ))
                    word_eeg.append(_word_eeg(cfg, rng, filler_profile))
                else:
                    fixations.append(WordFixation(n_fixations=0))
                    word_eeg.append(None)

        measurements.append(SentenceMeasurement(
            sentence_id=f"s{i:04d}",
            words=words,
            label=label,
            fixations=fixations,
            word_eeg=word_eeg,
            sentence_bands=rng.normal(
                _class_profile(cfg, label, cfg.filler_eeg_mean),
                cfg.eeg_noise,
                size=(len(BANDS), cfg.eeg_channels),
            ),
        ))
        labels.append(label)

    return measurements, derive_records(measurements), labels


# ---------------------------------------------------------------------------
# Raw-corpus serialization (input side of the pipeline)
# ---------------------------------------------------------------------------

def save_measurements(measurements: list[SentenceMeasurement], path: str | Path) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for m in measurements:
            fh.write(json.dumps({
                "id": m.sentence_id,
                "words": m.words,
                "label": int(m.label),
                "fixations": [
                    {"n": f.n_fixations, "ffd": f.ffd, "trt": f.trt,
                     "gd": f.gd, "gpt": f.gpt, "sfd": f.sfd}
                    for f in m.fixations
                ],
                "word_eeg": [None if e is None else e.channels.tolist() for e in m.word_eeg],
                "sentence_bands": m.sentence_bands.tolist(),
            }, sort_keys=True) + "\n")


_DURATIONS = ("ffd", "trt", "gd", "gpt", "sfd")


def _fixation(f) -> WordFixation:
    """A raw-corpus fixation object: n an int64 integer, durations finite numbers."""
    if type(f) is not dict:
        raise ValidationError(f"fixations must hold objects, got {f!r}")
    if not _fits(f["n"], np.int64):
        raise ValidationError(f"fixation n must be an int64 integer, got {f['n']!r}")
    for key in _DURATIONS:
        if not (_fits(f[key], np.float64) and math.isfinite(f[key])):
            raise ValidationError(f"fixation {key} must be a finite number, got {f[key]!r}")
    return WordFixation(f["n"], *(f[key] for key in _DURATIONS))


def _finite_rows(name: str, rows) -> np.ndarray:
    """A JSON list of non-empty, equal-length lists of finite numbers as a float64 matrix."""
    if type(rows) is not list:
        raise ValidationError(f"{name} must be a list of lists, got {rows!r}")
    values, offsets = _concat(f"{name} row", rows, np.float64)
    widths = np.diff(offsets)
    if not (widths.all() and (widths == widths[:1]).all()):
        raise ValidationError(f"{name} rows must be non-empty and of equal length")
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} holds non-finite values")
    return values.reshape(len(rows), -1 if rows else 0)


def load_measurements(path: str | Path) -> list[SentenceMeasurement]:
    """Read a raw corpus: distinct string ids, words strings, labels integers
    in 0..int64 max, fixations objects (n an int64 integer, durations finite
    numbers), and word and sentence EEG lists of non-empty, equal-length
    lists of finite numbers, each with the first line's channel count."""
    channels: list[int] = []

    def measurement(obj: dict) -> SentenceMeasurement:
        if not (isinstance(obj["words"], list) and all(isinstance(w, str) for w in obj["words"])):
            raise ValidationError("words must be a list of strings")
        _check_labels([obj["label"]])
        for name in ("fixations", "word_eeg"):
            if type(obj[name]) is not list:
                raise ValidationError(f"{name} must be a list, got {obj[name]!r}")
        m = SentenceMeasurement(
            sentence_id=obj["id"],
            words=obj["words"],
            label=obj["label"],
            fixations=[_fixation(f) for f in obj["fixations"]],
            word_eeg=[None if e is None else WordEEG(_finite_rows("word_eeg entry", e))
                      for e in obj["word_eeg"]],
            sentence_bands=_finite_rows("sentence_bands", obj["sentence_bands"]),
        )
        if not channels:
            channels.append(m.sentence_bands.shape[1])
        elif m.sentence_bands.shape[1] != channels[0]:
            raise ValidationError(f"sentence_bands has {m.sentence_bands.shape[1]} channels, "
                                  f"the first line has {channels[0]}")
        return m

    items, error = _read_jsonl(path, "id", measurement)
    if error is not None:
        raise error
    return [m for _, _, m in items]
