"""Cognitive feature derivation, storage, and synthesis.

Per-word eye-tracking measurements become "eye tokens" (0-100 integers,
scaled per sentence) and per-word EEG band power becomes "EEG tokens"
(0-100 integers, scaled over the corpus), and per-sentence EEG band
vectors collapse to a single channel vector. derive_records does all three
in one pass over the flat columns of a raw corpus of per-sentence arrays
(SentenceMeasurement): one segment max per sentence for the eye scale and
one band mean over the stacked bands. Unfixated words always map to token 0
and are the words a cognitive attention mask suppresses.

A FeatureDb keyed by sentence id is the model's lookup table at train and
eval time; its JSON-lines form is the canonical interchange format. The
feature db, raw corpus and lexicon have one writer (files.write_jsonl) and
one loader (_load_columns): it decodes each line as json.loads does
(_read_jsonl), type-checks all lines into flat arrays in one pass and checks
their values at once (check_records, check_measurements, _check_lexicon). A
raw corpus gives each sentence views into those arrays; a loaded or derived
FeatureDb cuts a record's views from them on its first lookup. The word-EEG
lexicon (build_lexicon, apply_lexicon) stands in for unrecorded sentence EEG.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .checks import check_field_types
from .errors import ConfigError, DataError, FeatureLookupError, ValidationError
from .files import read_lines, write_jsonl
from .numerics.rng import SeededRng
from .tokenizer import MASK_KEEP, MASK_SUPPRESS

log = logging.getLogger(__name__)

FRPS = ("ffd", "trt", "gd", "gpt")
BANDS = ("t1", "t2", "a1", "a2", "b1", "b2", "g1", "g2")
N_EEG_VECTORS = len(FRPS) * len(BANDS)  # 32 channel vectors per fixated word
TOKEN_SCALE = 100  # tokens index an embedding table with rows 0..100
DURATIONS = (*FRPS, "sfd")  # the columns of SentenceMeasurement.durations


@dataclass
class SentenceMeasurement:
    """One sentence's raw recordings as arrays: each word's fixation count (n,)
    and DURATIONS in ms (n, 5) (sfd feeds no formula), the EEG of its k fixated
    words in word order (k, 32, C), one channel vector per (fixation event,
    band), event-major, and one vector per frequency band (8, C)."""

    sentence_id: str
    words: list[str]
    label: int
    n_fixations: np.ndarray
    durations: np.ndarray
    word_eeg: np.ndarray
    sentence_bands: np.ndarray

    def __post_init__(self):
        try:
            self.n_fixations = np.asarray(self.n_fixations, dtype=np.int64)
            self.durations, self.word_eeg, self.sentence_bands = (
                np.asarray(a, dtype=np.float64) for a in (self.durations, self.word_eeg, self.sentence_bands))
        except (ValueError, TypeError) as exc:  # a ragged list, or not numbers
            raise ValidationError(f"{self.sentence_id}: raw measurements are not arrays: {exc}") from None
        n, fixated = self.n_fixations.size, self.n_fixations > 0
        shapes = [a.shape for a in (self.n_fixations, self.durations, self.word_eeg, self.sentence_bands)]
        if ([len(shape) for shape in shapes] != [1, 2, 3, 2] or shapes[1] != (n, len(DURATIONS))
                or shapes[2][0] != fixated.sum()):
            raise ValidationError(f"{self.sentence_id}: raw arrays of shapes {shapes}, not (n,), "
                                  f"(n, 5), (k, 32, C) for k fixated words and (8, C)")
        offsets, eeg_shapes = np.array([0, n]), [self.word_eeg.shape[1:]] * len(self.word_eeg)
        failure = check_measurements([self.sentence_id], [self.words],
                                     (self.n_fixations, self.durations, offsets),
                                     (fixated, eeg_shapes, offsets, self.word_eeg.ravel()),
                                     ([self.sentence_bands.shape], self.sentence_bands.ravel()))
        if failure is not None:
            raise ValidationError(failure[1])


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


def _unchecked(cls, rows) -> list:
    """A cls dataclass per row of its field values, which its check has
    passed, built without running __post_init__."""
    objs = []
    for values in rows:
        obj = cls.__new__(cls)
        obj.__dict__.update(zip(cls.__dataclass_fields__, values))
        objs.append(obj)
    return objs


_TOKEN_FIELDS = ("n_fixations", "eye_tokens", "eeg_tokens")
_INT64_MAX = int(np.iinfo(np.int64).max)
_LABEL_RULE = f"label must be an integer in 0..{_INT64_MAX}"


def _segments(n: int, offsets: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Which of n segments, the last ending at offsets[n], hold a flagged element of mask."""
    bad = np.zeros(n, dtype=bool)
    bad[np.searchsorted(offsets, np.flatnonzero(mask), side="right") - 1] = True
    return bad


def _first_failure(checks: list[tuple[np.ndarray, Callable]]) -> tuple[int, str] | None:
    """The first record that a (flags, message) check flags, with the message of its first such check."""
    first = np.flatnonzero(np.logical_or.reduce([flags for flags, _ in checks]))[:1].tolist()
    return next(((i, message(i)) for flags, message in checks for i in first if flags[i]), None)


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

    def segment(name: str, i: int) -> np.ndarray:
        return values[name][offsets[name][i]:offsets[name][i + 1]]

    checks = [
        *((lengths[name] != n_words, lambda i, name=name: f"{ids[i]}: {name} not aligned with tokens")
          for name in _TOKEN_FIELDS),
        *((_segments(n, offsets[name], (values[name] < 0) | (values[name] > TOKEN_SCALE)),
           lambda i, name=name: (f"{ids[i]}: {name} outside 0..{TOKEN_SCALE}: "
                                 f"[{segment(name, i).min()}, {segment(name, i).max()}]"))
          for name in ("eye_tokens", "eeg_tokens")),
        (_segments(n, offsets["sentence_eeg"], ~np.isfinite(values["sentence_eeg"])),
         lambda i: f"{ids[i]}: sentence_eeg holds non-finite values"),
        (channels != channels[:1],
         lambda i: f"sentence_eeg has {channels[i]} channels, the first record has {channels[0]}"),
        (channels == 0, lambda i: f"{ids[i]}: sentence_eeg is empty"),
        (_segments(n, offsets["n_fixations"], values["n_fixations"] < 0),
         lambda i: f"{ids[i]}: n_fixations below 0: {segment('n_fixations', i).min()}"),
    ]
    return _first_failure(checks)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # overflow is a failed check
def check_measurements(ids: list[str], words: list[list[str]], fixations: tuple, eeg: tuple,
                       bands: tuple) -> tuple[int, str] | None:
    """The first of N sentences that fails a check, with its message; None if all
    pass. fixations: the fixation entries' counts (F,), durations (F, 5) and
    N + 1 offsets; eeg: the word_eeg entries' EEG flags (E,), the (rows,
    channels) of each EEG, offsets, and the EEGs' values one after the other
    (row-major); bands: each sentence_bands' shape, and their values.
    In order: as many fixation and word_eeg entries as words; durations
    finite; counts and durations >= 0, durations 0 on an unfixated word; eye
    value n * (ffd + trt + gd + gpt) within float64; EEG on exactly the
    fixated words; 32 rows per word EEG; word EEG finite, and its mean
    (eeg_token_raw) within float64; 8 rows per sentence_bands, finite; word
    EEG of the channels of sentence_bands, and those of the first sentence."""
    (counts, durations, fo), (has_eeg, eeg_shapes, eo, eeg_values) = fixations, eeg
    shapes = np.zeros((len(has_eeg), 2), dtype=np.int64)  # one per word_eeg entry
    shapes[has_eeg] = np.reshape(eeg_shapes, (-1, 2))
    band_rows, channels = np.asarray(bands[0], dtype=np.int64).reshape(-1, 2).T
    bad_bands = _segments(len(ids), np.cumsum([0, *(band_rows * channels)]), ~np.isfinite(bands[1]))
    bad_eeg, eeg_overflow = np.zeros((2, len(has_eeg)), dtype=bool)  # one per word_eeg entry
    bad_eeg[has_eeg], eeg_overflow[has_eeg] = _eeg_flags(shapes[has_eeg], eeg_values)
    n_words = np.fromiter(map(len, words), np.int64, len(ids))
    table, fixated = np.column_stack([counts, durations]), counts > 0  # a row per fixation entry
    aligned = (np.diff(fo) == n_words) & (np.diff(eo) == n_words)
    end = fo[-1] if aligned.all() else fo[aligned.argmin()]  # where the two lists stop lining up
    wrong_eeg = np.zeros(len(counts), dtype=bool)
    wrong_eeg[:end] = fixated[:end] != has_eeg[:end]

    def per_word(mask: np.ndarray, offsets: np.ndarray, message: Callable) -> tuple:
        """A check of one flag per word: message(i, w) names sentence i's first flagged word."""
        return _segments(len(ids), offsets, mask), lambda i: message(
            i, int(np.flatnonzero(mask[offsets[i]:offsets[i + 1]])[0]))

    def per_value(mask: np.ndarray, rule: str) -> tuple:  # a check of n and the durations
        def message(i, w):
            entry, key = fo[i] + w, int(mask[fo[i] + w].argmax())
            value = counts[entry] if key == 0 else repr(float(table[entry, key])).removesuffix(".0")
            return f"word {w}: fixation {('n', *DURATIONS)[key]} must be {rule}, got {value}"
        return per_word(mask.any(axis=1), fo, message)

    return _first_failure([
        (np.diff(fo) != n_words,
         lambda i: f"fixations has {fo[i + 1] - fo[i]} entries for {n_words[i]} words"),
        (np.diff(eo) != n_words,
         lambda i: f"word_eeg has {eo[i + 1] - eo[i]} entries for {n_words[i]} words"),
        per_value(~np.isfinite(table), "a finite number"),
        per_value(table < 0, ">= 0"),
        per_value(~fixated[:, None] & (table != 0), "0 on an unfixated word"),
        per_word(~np.isfinite(eye_token_raw(counts, durations)), fo, lambda i, w: (
            f"word {w}: eye value n * (ffd + trt + gd + gpt) overflows float64")),
        per_word(wrong_eeg, fo, lambda i, w: f"word {w}: " + (
            "no word_eeg entry on a fixated word" if fixated[fo[i] + w]
            else "word_eeg entry on an unfixated word")),
        per_word(has_eeg & (shapes[:, 0] != N_EEG_VECTORS), eo, lambda i, w: (
            f"word {w}: word_eeg entry has {shapes[eo[i] + w, 0]} rows, not {N_EEG_VECTORS}")),
        per_word(bad_eeg, eo, lambda i, w: f"word {w}: word_eeg entry holds non-finite values"),
        per_word(eeg_overflow, eo, lambda i, w: f"word {w}: word_eeg mean overflows float64"),
        (band_rows != len(BANDS),
         lambda i: f"sentence_bands has {band_rows[i]} rows, not {len(BANDS)}"),
        (bad_bands, lambda i: "sentence_bands holds non-finite values"),
        per_word(has_eeg & (shapes[:, 1] != np.repeat(channels, np.diff(eo))), eo, lambda i, w: (
            f"{ids[i]}: word {w} ({words[i][w]!r}) EEG has {shapes[eo[i] + w, 1]} channels, "
            f"sentence_bands has {channels[i]}")),
        (channels != channels[:1], lambda i: f"sentence_bands has {channels[i]} channels, "
                                             f"the first line has {channels[0]}"),
    ])


def _eeg_flags(shapes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For (rows, channels) matrices stored one after the other in values: which
    hold a non-finite value, and which have an eeg_token_raw (the mean over
    channels of the mean over rows) that is not finite; the rows are summed
    in eeg_token_raw's order."""
    rows, cols = shapes.T
    sizes = rows * cols
    starts = np.cumsum(sizes) - sizes
    bad = _segments(len(sizes), np.append(starts, sizes.sum()), ~np.isfinite(values))
    within = np.arange(len(values)) - np.repeat(starts, sizes)  # a value's index in its matrix
    column = np.repeat(np.cumsum(cols) - cols, sizes) + within % np.repeat(np.maximum(cols, 1), sizes)
    column_means = np.bincount(column, values, cols.sum()) / np.repeat(rows, cols)
    means = np.bincount(np.repeat(np.arange(len(cols)), cols), column_means, len(cols)) / cols
    return bad, ~np.isfinite(means)


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


def _check_naturals(values: list, rule: str, high: float = math.inf) -> None:
    """Raise a ValidationError, the rule and the first of values that is not a JSON integer in 0..high."""
    if not (set(map(type, values)) <= {int} and 0 <= min(values, default=0)
            and max(values, default=0) <= high):
        bad = next(v for v in values if not (type(v) is int and 0 <= v <= high))
        raise ValidationError(f"{rule}, got {bad!r}")


def _array(values: list, dtype, rule: str) -> np.ndarray:
    """JSON numbers as one dtype array; a ValidationError, the rule and the first
    value that _fits rejects, if there is one."""
    try:
        if set(map(type, values)) <= _NUMBERS[dtype][0]:
            return np.array(values, dtype=dtype)
    except OverflowError:
        pass
    bad = next(v for v in values if not _fits(v, dtype))
    raise ValidationError(f"{rule}, got {bad!r}")


def _lists(name: str, values: list, kind: type = list, noun: str = "be a list") -> None:
    """Raise a ValidationError naming the first of values whose type is not kind."""
    if not set(map(type, values)) <= {kind}:
        bad = next(v for v in values if type(v) is not kind)
        raise ValidationError(f"{name} must {noun}, got {bad!r}")


def _concat(name: str, lists: list, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(values, offsets) of JSON lists of numbers joined into one dtype array; a
    ValidationError names the first item that is not a list, or else the first value _fits rejects."""
    _lists(name, lists)
    return (_array(list(chain.from_iterable(lists)), dtype, f"{name} must hold {_NUMBERS[dtype][1]}"),
            np.cumsum([0, *map(len, lists)]))


def _key_columns(objs: list[dict], keys: tuple[str, ...]) -> dict[str, list]:
    """Each key's values over the objects; a ValidationError names the first key some object lacks."""
    missing = next((key for key in keys for obj in objs if key not in obj), None)
    if missing is not None:
        raise ValidationError(f"missing key {missing!r}")
    return {key: [obj[key] for obj in objs] for key in keys}


def _check_strings(name: str, lists: list) -> None:
    if not (set(map(type, lists)) <= {list} and set(map(type, chain.from_iterable(lists))) <= {str}):
        raise ValidationError(f"{name} must be a list of strings")


def _line_error(path: str | Path, lineno: int, obj, id_key: str, exc: Exception) -> DataError:
    """The DataError for a rejected line: path:line, the record id when the line
    parsed to an object holding one, and what went wrong."""
    where = f"{path}:{lineno}"
    if isinstance(obj, dict) and id_key in obj:
        where += f" ({id_key} {obj[id_key]!r})"
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return DataError(f"{where}: {detail}")


_JSON_NAMES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}
_DECODER = json.JSONDecoder()


def _decode(line: str):
    """json.loads(line), by one raw_decode call when that consumes the whole
    line; any other line (whitespace, a BOM, extra data, bad JSON) goes to
    json.loads, which parses or rejects it with its own message."""
    try:
        obj, end = _DECODER.raw_decode(line)
        if end == len(line):
            return obj
    except ValueError:
        pass
    return json.loads(line)


def _read_jsonl(path: str | Path, id_key: str) -> tuple[list[tuple[int, dict]], DataError | None]:
    """Read the non-empty lines of a JSON-lines file up to the first bad one.

    Each line must parse to a JSON object whose obj[id_key] is a string no
    earlier line holds. Returns the (line number, object) of each line before
    the first that fails, and that line's DataError (None if no line fails),
    which names path:line and, when the line is an object holding one, its id.
    """
    try:
        lines = read_lines(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 JSON-lines file: {exc}") from None
    items = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        obj = None
        try:
            obj = _decode(line)
            if type(obj) is not dict:
                raise ValidationError(f"expected a JSON object, got {_JSON_NAMES[type(obj)]}")
            key = obj[id_key]
            if not isinstance(key, str):
                raise ValidationError(f"{id_key} must be a string, got {key!r}")
            if key in first_line:
                raise ValidationError(f"duplicate {id_key}, first on line {first_line[key]}")
        except (ValueError, KeyError) as exc:  # a DataError naming the line replaces it
            return items, _line_error(path, lineno, obj, id_key, exc)
        first_line[key] = lineno
        items.append((lineno, obj))
    return items, None


def _load_columns(path: str | Path, id_key: str, columns: Callable[[list[dict]], tuple],
                  check: Callable[..., tuple[int, str] | None]) -> tuple[list[str], tuple]:
    """The ids (each line's id_key) and columns(objects) of a JSON-lines file's
    lines, which check(ids, *columns) has passed; the first bad line is a DataError.

    _read_jsonl reads the lines up to the first that is not an object with a
    new string id. columns type-checks them in one pass, and only if that
    fails runs line by line (a line passes or fails regardless of the others)
    to find the first bad one. check then checks the lines before it at once;
    the error names the first failing line.
    """
    items, error = _read_jsonl(path, id_key)
    try:
        cols = columns([obj for _, obj in items])
    except ValidationError:
        for n, (lineno, obj) in enumerate(items):
            try:
                columns([obj])
            except ValidationError as exc:
                error = _line_error(path, lineno, obj, id_key, exc)
                break
        items = items[:n]
        cols = columns([obj for _, obj in items])
    ids = [obj[id_key] for _, obj in items]
    failure = check(ids, *cols)
    if failure is not None:
        lineno, obj = items[failure[0]]
        raise _line_error(path, lineno, obj, id_key, ValidationError(failure[1]))
    if error is not None:
        raise error
    return ids, cols


def _record_columns(objs: list[dict]) -> tuple[list, list, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """The tokens, labels and flat fields (as check_records takes them) of
    feature-file records, type-checked in one pass: a ValidationError names
    the first key that a record lacks or holds with a wrong JSON
    type (tokens strings, label in 0..int64 max, token fields int64, EEG float64)."""
    columns = _key_columns(objs, ("tokens", "label", *_TOKEN_FIELDS, "sentence_eeg"))
    tokens, labels = columns["tokens"], columns["label"]
    _check_strings("tokens", tokens)
    _check_naturals(labels, _LABEL_RULE, _INT64_MAX)
    fields = {name: _concat(name, columns[name], np.int64 if name in _TOKEN_FIELDS else np.float64)
              for name in (*_TOKEN_FIELDS, "sentence_eeg")}
    return tokens, labels, fields


class FeatureDb:
    """Immutable sentence-id -> CognitiveRecord map.

    A db read from a file (load_jsonl) or derived from measurements
    (derive_records) keeps the flat columns that check_records has passed,
    and cuts a record's views into them on its first lookup; later lookups
    return the same record.
    """

    def __init__(self, records: list[CognitiveRecord]):
        self._records = {r.sentence_id: r for r in records}  # the records cut so far
        self._rows = dict.fromkeys(self._records)  # every id, in order: its row of _columns
        self._columns: tuple = ()

    @classmethod
    def _of_columns(cls, ids: list[str], tokens: list[list[str]], labels: list[int],
                    fields: dict[str, tuple[np.ndarray, np.ndarray]]) -> "FeatureDb":
        """The db of flat fields that check_records has passed; no record is cut yet."""
        db = cls([])
        db._rows = {sid: row for row, sid in enumerate(ids)}
        db._columns = (tokens, labels, *((fields[name][0], fields[name][1].tolist())
                                         for name in (*_TOKEN_FIELDS, "sentence_eeg")))
        return db

    def __len__(self) -> int:
        return len(self._rows)

    def ids(self) -> list[str]:
        return list(self._rows)

    def get(self, sentence_id: str) -> CognitiveRecord:
        record = self._records.get(sentence_id)
        return self._cut(sentence_id) if record is None else record

    def _cut(self, sentence_id: str) -> CognitiveRecord:
        """The record of sentence_id as views of the flat columns, kept for later lookups."""
        try:
            row = self._rows[sentence_id]
        except KeyError:
            raise FeatureLookupError(f"no cognitive record for sentence id {sentence_id!r}") from None
        tokens, labels, *fields = self._columns
        record, = _unchecked(CognitiveRecord, [(
            sentence_id, tokens[row], labels[row],
            *(values[offsets[row]:offsets[row + 1]] for values, offsets in fields))])
        self._records[sentence_id] = record
        return record

    def save_jsonl(self, path: str | Path) -> None:
        write_jsonl(path, ({
            "id": rec.sentence_id,
            "tokens": rec.tokens,
            "label": int(rec.label),
            "n_fixations": rec.n_fixations.tolist(),
            "eye_tokens": rec.eye_tokens.tolist(),
            "eeg_tokens": rec.eeg_tokens.tolist(),
            "sentence_eeg": rec.sentence_eeg.tolist(),
        } for rec in map(self.get, self._rows)))

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "FeatureDb":
        """Read a feature db, one record per line, into views of flat arrays; the first
        bad line is a DataError (_load_columns, _record_columns, check_records)."""
        ids, (tokens, labels, fields) = _load_columns(
            path, "id", _record_columns,
            lambda ids, tokens, labels, fields: check_records(
                ids, np.fromiter(map(len, tokens), np.int64, len(tokens)), fields))
        return cls._of_columns(ids, tokens, labels, fields)


# ---------------------------------------------------------------------------
# Feature formulas
# ---------------------------------------------------------------------------

def eye_token_raw(n_fixations, durations) -> np.ndarray:
    """nFixations * (FFD + TRT + GD + GPT) per word, from (n,) counts and (n, 5)
    durations; zero for unfixated words."""
    n_fixations, d = np.asarray(n_fixations), np.asarray(durations, dtype=np.float64)
    return n_fixations * (d[:, 0] + d[:, 1] + d[:, 2] + d[:, 3])


def _round_half_up(x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise ValidationError("token values overflow float64 when scaled to 0..100")
    return np.floor(x + 0.5).astype(np.int64)


@np.errstate(over="ignore", invalid="ignore")  # a value beyond float64 is a ValidationError
def scale_eye_tokens(raw, offsets=None) -> np.ndarray:
    """Per-sentence scaling of raw eye values to integers 0..100.

    raw is one sentence's values, or with offsets the N sentences
    raw[offsets[i]:offsets[i + 1]] one after the other. Each sentence's
    maximum maps to 100; an all-zero sentence stays all zero. The first
    sentence holding a negative value, or a value beyond float64 once scaled,
    raises its ValidationError.
    """
    raw = np.asarray(raw, dtype=np.float64)
    offsets = np.array([0, raw.size]) if offsets is None else np.asarray(offsets)
    lengths = np.diff(offsets)
    peaks = np.zeros(len(lengths))
    filled = lengths > 0  # reduceat gives an empty segment the next value, not the identity
    peaks[filled] = np.maximum.reduceat(raw, offsets[:-1][filled])
    scaled = TOKEN_SCALE * raw / np.repeat(np.where(peaks == 0.0, 1.0, peaks), lengths)
    negative = _segments(len(lengths), offsets, raw < 0)
    first = np.flatnonzero(negative | _segments(len(lengths), offsets, ~np.isfinite(scaled)))[:1]
    if negative[first].any():
        raise ValidationError("raw eye token values must be non-negative")
    return _round_half_up(scaled)


def eeg_token_raw(word_eeg) -> np.ndarray:
    """Grand mean of each fixated word's (32, C) EEG, (k, 32, C) -> (k,): the mean
    of its occurrence vector (the mean over the 32 event/band vectors).

    Each mean is the sum's reduction divided by the count, the steps np.mean
    takes, so the result is bit-equal to `.mean(axis=1).mean(axis=1)` at a
    fraction of its call overhead."""
    x = np.asarray(word_eeg, dtype=np.float64)
    n_vectors, channels = x.shape[1:]
    return np.add.reduce(np.add.reduce(x, axis=1) / n_vectors, axis=1) / channels


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
    """Element-wise mean of the eight per-band channel vectors, (8, C) -> (C,)."""
    bands = np.asarray(bands, dtype=np.float64)
    if bands.ndim != 2 or bands.shape[0] != len(BANDS):
        raise ValidationError(f"expected 8 equal-length band vectors, got shape {bands.shape}")
    return bands.mean(axis=0)


def cognitive_mask(n_fixations) -> np.ndarray:
    """Additive attention mask over CLS, the words and SEP from the words' fixation counts.

    One count per word, in order: the mask has len(n_fixations) + 2
    entries. Keeps (-0) tokens fixated more than once plus CLS and SEP;
    suppresses (-10000) words fixated at most once. build_batch passes the
    counts of the sentence's words and pads the mask.
    """
    n_fixations = np.asarray(n_fixations, dtype=np.int64)
    # CLS carries the classification signal; SEP stays attended, as without cog_mask.
    mask = np.full(len(n_fixations) + 2, MASK_KEEP, dtype=np.float64)
    mask[1:-1] = np.where(n_fixations > 1, MASK_KEEP, MASK_SUPPRESS)
    return mask


@np.errstate(over="ignore", invalid="ignore")  # a value beyond float64 is a ValidationError
def derive_records(measurements: list[SentenceMeasurement]) -> FeatureDb:
    """Full feature derivation in one pass over the corpus's flat columns: eye
    tokens (per-sentence scale, one segment max per sentence), EEG tokens
    (corpus-level scale), and sentence EEG vectors (one band mean over the
    stacked bands when every sentence has the same channel count). All
    records are checked at once (check_records): a bad one raises the
    ValidationError its CognitiveRecord would, and sentence EEG of different
    lengths is rejected. Values that overflow float64 while being scaled
    raise a ValidationError."""
    if not measurements:
        return FeatureDb([])
    n_fixations = np.concatenate([m.n_fixations for m in measurements])
    word_offsets = np.cumsum([0, *(len(m.words) for m in measurements)])
    raw_eye = eye_token_raw(n_fixations, np.concatenate([m.durations for m in measurements]))
    fixated = n_fixations > 0
    raw_eeg = np.zeros(len(n_fixations))
    raw_eeg[fixated] = np.concatenate([eeg_token_raw(m.word_eeg) for m in measurements])
    bands = [m.sentence_bands for m in measurements]
    if len({b.shape for b in bands}) == 1 and bands[0].ndim == 2 and len(bands[0]) == len(BANDS):
        sentence = np.stack(bands).mean(axis=1)  # each row bit for bit its sentence_eeg
    else:  # the first shape that is not (8, C) fails here, differing channel counts in check_records
        sentence = [sentence_eeg(b) for b in bands]
    fields = {
        "n_fixations": (n_fixations, word_offsets),
        "eye_tokens": (scale_eye_tokens(raw_eye, word_offsets), word_offsets),
        "eeg_tokens": (scale_eeg_tokens(raw_eeg, fixated), word_offsets),
        "sentence_eeg": (np.concatenate(sentence), np.cumsum([0, *map(len, sentence)])),
    }
    ids = [m.sentence_id for m in measurements]
    failure = check_records(ids, np.diff(word_offsets), fields)
    if failure is not None:
        raise ValidationError(failure[1])
    return FeatureDb._of_columns(ids, [list(m.words) for m in measurements],
                                 [m.label for m in measurements], fields)


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
        write_jsonl(path, ({"word": word, "count": int(self.counts[word]),
                            "vector": self.vectors[word].tolist()} for word in sorted(self.vectors)))

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "EEGLexicon":
        """Read a lexicon, one word per line; the first bad line is a DataError
        (_load_columns, _lexicon_columns, _check_lexicon)."""
        words, ((values, offsets), counts) = _load_columns(path, "word", _lexicon_columns, _check_lexicon)
        return cls(dict(zip(words, np.split(values, offsets[1:-1]))), dict(zip(words, counts)))


def _lexicon_columns(objs: list[dict]) -> tuple[tuple[np.ndarray, np.ndarray], list]:
    """The vectors (values, offsets) and counts of lexicon lines, type-checked in one pass: a
    ValidationError names the first key that a line lacks or holds with a wrong value (vector
    a non-empty flat list of finite numbers, count an integer >= 0, kept a Python int)."""
    columns = _key_columns(objs, ("vector", "count"))
    values, offsets = _concat("vector", columns["vector"], np.float64)
    if not (np.diff(offsets).all() and np.isfinite(values).all()):
        raise ValidationError("vector must be a non-empty flat list of finite numbers")
    _check_naturals(columns["count"], "count must be an integer >= 0")
    return (values, offsets), columns["count"]


def _check_lexicon(words: list[str], vectors: tuple, counts: list) -> tuple[int, str] | None:
    """The first of N lexicon entries whose vector is not as long as the first
    entry's, with its message; None if all are. vectors: (values, offsets)."""
    lengths = np.diff(vectors[1])
    return _first_failure([(lengths != lengths[:1], lambda i: (
        f"vector has {lengths[i]} channels, the first entry has {lengths[0]}"))])


@np.errstate(over="ignore", invalid="ignore")  # a sum beyond float64 is a DataError
def build_lexicon(measurements: list[SentenceMeasurement]) -> EEGLexicon:
    """Average each word's per-occurrence EEG vectors (the mean over its 32
    event/band vectors); unfixated occurrences contribute nothing and
    never-fixated words are excluded. Occurrences are summed in corpus order;
    a word whose sum overflows float64 is a DataError."""
    if not measurements:
        return EEGLexicon({}, {})
    fixated = np.concatenate([m.n_fixations for m in measurements]) > 0
    words = np.array(list(chain.from_iterable(m.words for m in measurements)), dtype=object)
    # object dtype compares the words as Python strings; a str dtype would drop trailing NULs
    unique, inverse = np.unique(words[fixated], return_inverse=True)
    occurrences = np.concatenate([m.word_eeg.mean(axis=1) for m in measurements])
    # -0.0 + v == v for every v, -0.0 included: the first occurrence is summed exactly
    sums = np.full((len(unique), occurrences.shape[1]), -0.0)
    np.add.at(sums, inverse, occurrences)
    counts = np.bincount(inverse, minlength=len(unique))
    bad = np.flatnonzero(~np.isfinite(sums).all(axis=1))
    if bad.size:
        raise DataError(f"word {unique[bad[0]]!r}: the sum of its {counts[bad[0]]} occurrences' "
                        f"EEG overflows float64")
    return EEGLexicon(dict(zip(unique.tolist(), sums / counts[:, None])),
                      dict(zip(unique.tolist(), counts.tolist())))


def lexicon_sentence_eeg(words: list[str], lexicon: EEGLexicon, n_channels: int) -> tuple[np.ndarray, float]:
    """Mean lexicon vector over covered words, plus the coverage fraction.

    Returns a zero vector with coverage 0.0 when no word is in the lexicon,
    so benchmarking an external corpus never aborts.
    """
    hits = [lexicon.vectors[w] for w in words if w in lexicon]
    if not hits:
        return np.zeros(n_channels, dtype=np.float64), 0.0
    coverage = len(hits) / len(words)
    return np.mean(hits, axis=0), coverage


def apply_lexicon(db: FeatureDb, lexicon: EEGLexicon) -> tuple[FeatureDb, dict[str, float]]:
    """A new db whose sentence EEG is each record's lexicon_sentence_eeg, with the
    lexicon's channel count, and each sentence's coverage, in db order. A
    sentence with no word in the lexicon also gets one warning naming it."""
    if not lexicon:
        raise ValidationError("an empty lexicon gives no sentence EEG")
    n_channels = len(next(iter(lexicon.vectors.values())))
    records, coverages = [], {}
    for rec in map(db.get, db.ids()):
        vector, coverage = lexicon_sentence_eeg(rec.tokens, lexicon, n_channels)
        coverages[rec.sentence_id] = coverage
        if coverage == 0.0:
            log.warning("no lexicon coverage for %s; zero vector substituted", rec.sentence_id)
        records.append(replace(rec, sentence_eeg=vector))
    return FeatureDb(records), coverages


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
        if self.filler_vocab > _INT64_MAX:  # filler ids are drawn as int64
            raise ConfigError(f"filler_vocab must be at most {_INT64_MAX}, got {self.filler_vocab!r}")

    def memory_terms(self) -> dict[str, int]:
        """Estimated bytes of the corpus (check_memory): its EEG as float64, and 256
        bytes of Python objects per word and per keyword of a sentence's two lists."""
        words = self.n_sentences * self.max_words
        eeg = (words * N_EEG_VECTORS + self.n_sentences * len(BANDS)) * self.eeg_channels * 8
        return {"n_sentences, max_words, eeg_channels": eeg, "n_sentences, max_words": words * 256,
                "keywords_per_class": 2 * self.keywords_per_class * 256}

    def keywords(self, label: int) -> list[str]:
        return [f"kw{label}x{i}" for i in range(self.keywords_per_class)]

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _class_profile(cfg: SynthConfig, label: int, base: float) -> np.ndarray:
    profile = np.full(cfg.eeg_channels, base, dtype=np.float64)
    profile[label % cfg.eeg_channels] += cfg.class_tilt
    return profile


@np.errstate(over="ignore", invalid="ignore")  # a value beyond float64 is a ConfigError
def synth_generate(cfg: SynthConfig, seed: int) -> tuple[list[SentenceMeasurement], FeatureDb, list[int]]:
    """Deterministic corpus + derived feature database + per-sentence labels.

    Each word draws from its sentence's stream in word order. A pick from a
    keyword list is seq[rng.integers(len(seq))], the draw rng.choice(seq)
    makes, and an EEG block is profile + eeg_noise * rng.standard_normal(shape),
    the sum rng.normal(profile, eeg_noise, shape) computes (both pinned by
    tests). The sentences' arrays pass check_measurements by construction,
    unless the EEG fields are so large that a value overflows float64: then
    deriving the features fails, and that is a ConfigError naming those fields.
    """
    master = SeededRng(seed).derive("synth")
    rows = []  # each sentence's SentenceMeasurement fields
    eeg_shape, bands_shape = (N_EEG_VECTORS, cfg.eeg_channels), (len(BANDS), cfg.eeg_channels)
    filler_profile = np.full(cfg.eeg_channels, cfg.filler_eeg_mean, dtype=np.float64)
    kw_profiles, band_profiles = ([_class_profile(cfg, label, base) for label in range(cfg.n_classes)]
                                  for base in (cfg.keyword_eeg_mean, cfg.filler_eeg_mean))

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
        keywords, distractors = cfg.keywords(label), cfg.keywords(wrong)

        words, fixations, word_eeg = [], [], []
        for pos in range(n_words):
            fixation = None  # (n, *DURATIONS) of a fixated word
            if pos in kw_pos:
                words.append(keywords[rng.integers(len(keywords))])
                fixation = (int(rng.integers(2, 6)), rng.uniform(80, 200), rng.uniform(200, 600),
                            rng.uniform(80, 300), rng.uniform(100, 400), 0.0)
                profile = kw_profiles[label]
            elif pos in dis_pos:
                words.append(distractors[rng.integers(len(distractors))])
            else:
                words.append(f"f{int(rng.integers(cfg.filler_vocab))}")
                if rng.random() < cfg.filler_fix_prob:
                    n_fix, ffd = int(rng.integers(1, 3)), rng.uniform(50, 150)
                    fixation = (n_fix, ffd, rng.uniform(50, 200), rng.uniform(50, 150),
                                rng.uniform(50, 200), ffd if n_fix == 1 else 0.0)
                    profile = filler_profile
            fixations.append(fixation or (0,) * (1 + len(DURATIONS)))
            if fixation:
                word_eeg.append(profile + cfg.eeg_noise * rng.standard_normal(eeg_shape))

        table = np.array(fixations, dtype=np.float64)
        rows.append((f"s{i:04d}", words, label, table[:, 0].astype(np.int64), table[:, 1:],
                     np.array(word_eeg).reshape(-1, *eeg_shape),
                     band_profiles[label] + cfg.eeg_noise * rng.standard_normal(bands_shape)))

    measurements = _unchecked(SentenceMeasurement, rows)
    try:
        db = derive_records(measurements)
    except ValidationError as exc:
        raise ConfigError("generator fields keyword_eeg_mean, filler_eeg_mean, class_tilt, "
                          f"eeg_noise give EEG values beyond float64 ({exc})") from None
    return measurements, db, [m.label for m in measurements]


# ---------------------------------------------------------------------------
# Raw-corpus serialization (input side of the pipeline)
# ---------------------------------------------------------------------------

def save_measurements(measurements: list[SentenceMeasurement], path: str | Path) -> None:
    def line(m: SentenceMeasurement) -> dict:
        counts, eeg = m.n_fixations.tolist(), iter(m.word_eeg.tolist())
        return {
            "id": m.sentence_id,
            "words": m.words,
            "label": int(m.label),
            "fixations": [{"n": n, **dict(zip(DURATIONS, d))}
                          for n, d in zip(counts, m.durations.tolist())],
            "word_eeg": [next(eeg) if n > 0 else None for n in counts],
            "sentence_bands": m.sentence_bands.tolist(),
        }
    write_jsonl(path, map(line, measurements))


def _matrices(name: str, matrices: list) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, channels) of JSON lists of non-empty, equal-length lists of
    numbers, and all their values one after the other, checked in one pass."""
    _lists(name, matrices, noun="be a list of lists")
    values, offsets = _concat(f"{name} row", list(chain.from_iterable(matrices)), np.float64)
    counts, widths = np.fromiter(map(len, matrices), np.int64, len(matrices)), np.diff(offsets)
    firsts = np.zeros_like(counts)  # each matrix's first row width
    firsts[counts > 0] = widths[(np.cumsum(counts) - counts)[counts > 0]]
    if not (widths.all() and (widths == np.repeat(firsts, counts)).all()):
        raise ValidationError(f"{name} rows must be non-empty and of equal length")
    return np.column_stack([counts, firsts]), values


def _measurement_columns(objs: list[dict]) -> tuple:
    """Raw-corpus lines' words, labels, and fixations, eeg and bands as check_measurements
    takes them (with their values), type-checked in one pass; see README "raw corpus"."""
    columns = _key_columns(objs, ("words", "label", "fixations", "word_eeg", "sentence_bands"))
    _check_strings("words", columns["words"])
    _check_naturals(columns["label"], _LABEL_RULE, _INT64_MAX)
    for name in ("fixations", "word_eeg"):
        _lists(name, columns[name])
    fixations = list(chain.from_iterable(columns["fixations"]))
    _lists("fixations", fixations, dict, "hold objects")
    fixations = _key_columns(fixations, ("n", *DURATIONS))
    counts = _array(fixations["n"], np.int64, "fixation n must be an int64 integer")
    durations = np.stack([_array(fixations[key], np.float64, f"fixation {key} must be a finite number")
                          for key in DURATIONS], axis=1)
    entries = list(chain.from_iterable(columns["word_eeg"]))
    has_eeg = np.array([e is not None for e in entries], dtype=bool)
    eeg_shapes, eeg_values = _matrices("word_eeg entry", [e for e in entries if e is not None])
    offsets = [np.cumsum([0, *map(len, columns[name])]) for name in ("fixations", "word_eeg")]
    return (columns["words"], columns["label"], (counts, durations, offsets[0]),
            (has_eeg, eeg_shapes, offsets[1], eeg_values),
            _matrices("sentence_bands", columns["sentence_bands"]))


def load_measurements(path: str | Path) -> list[SentenceMeasurement]:
    """Read a raw corpus, one sentence per line, into views of flat arrays; the first
    bad line is a DataError (_load_columns, _measurement_columns, check_measurements)."""
    ids, (words, labels, (counts, durations, offsets), eeg, (band_shapes, bands)) = _load_columns(
        path, "id", _measurement_columns,
        lambda ids, words, labels, *arrays: check_measurements(ids, words, *arrays))
    if not ids:
        return []
    channels, cuts = band_shapes[0, 1], offsets[1:-1]  # every line's channels, as checked
    entries = np.concatenate([[0], np.cumsum(counts > 0)])[cuts]
    return _unchecked(SentenceMeasurement, zip(
        ids, words, labels, np.split(counts, cuts), np.split(durations, cuts),
        np.split(eeg[3].reshape(-1, N_EEG_VECTORS, channels), entries),
        bands.reshape(-1, len(BANDS), channels)))
