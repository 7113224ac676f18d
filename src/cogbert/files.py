"""Atomic file writes: every output file appears whole or not at all; and the
one line reader of the text files the program reads line by line."""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """Open a temp file next to path; on a clean exit, rename it over path.

    The temp file lives in the same directory, so os.replace is atomic: an
    interrupted write leaves the previous file (or none) and no temp file.
    kwargs go to open(), e.g. encoding or newline.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_lines(path: str | Path) -> list[str]:
    r"""The lines of a UTF-8 text file, split at "\n" alone, each less one trailing "\r".

    So a CRLF file reads as an LF one, and a line keeps every other character
    a JSON string or a word may hold: str.splitlines would also split at
    U+2028, U+2029, U+0085 and \x0b, \x0c, \x1c-\x1e, and text mode at a
    lone "\r". Raises UnicodeDecodeError for a file that is not UTF-8.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        return [line.removesuffix("\r") for line in fh.read().split("\n")]


def write_text_atomic(path: str | Path, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(path: str | Path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_jsonl(path: str | Path, objects) -> None:
    """Write each of objects as one line of JSON with sorted keys, atomically."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
