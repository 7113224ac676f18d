"""Atomic file writes: every output file appears whole or not at all."""

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
