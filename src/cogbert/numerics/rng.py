"""Seeded randomness with labeled, independent substreams.

Substream mixing is keyed BLAKE2b: child_seed = blake2b(label, key=parent_seed).
That keeps every stream a pure function of (master seed, label path), so a
repeated run with the same seed replays the exact same draws regardless of
call order elsewhere in the program.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix(seed: int, label: str) -> int:
    digest = hashlib.blake2b(
        label.encode("utf-8"),
        key=(seed & _MASK64).to_bytes(8, "little"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little")


class SeededRng(np.random.Generator):
    """A numpy Generator on PCG64(seed), the stream np.random.default_rng(seed)
    gives, plus the seed arithmetic for derived streams."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        super().__init__(np.random.PCG64(self.seed))

    def derive(self, label: str) -> "SeededRng":
        """Independent stream for a named subsystem (e.g. "synth", "run3")."""
        return SeededRng(_mix(self.seed, label))

    def random_blocks(self, shape: tuple[int, int, int], rows: int) -> np.ndarray:
        """random(shape)[:, :rows] for shape (n, W, d), drawing only the kept rows.

        A float64 uniform takes one 64-bit output of the bit generator, so
        after each block's first rows the generator advances past the other
        (W - rows) * d outputs: the values and the stream position after the
        call equal those of the full draw. advance also drops a buffered
        32-bit half, so this holds for a stream that makes no 32-bit integer
        draws, as a dropout stream does.
        """
        n, width, d = shape
        out = np.empty((n, rows, d))
        skip = (width - rows) * d
        for block in out:
            self.random(out=block)
            self.bit_generator.advance(skip)
        return out
