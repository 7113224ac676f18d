"""Desk-scale BERT-style encoder with cognitive-feature augmentations.

Subpackages and modules:
  numerics   seeded RNG, reverse-mode autodiff, grad checking
  tokenizer  word-level vocab, special tokens, fixed-length encoding
  features   eye/EEG token derivation, feature database, word-EEG lexicon,
             synthetic planted-keyword corpora
  model      the encoder, augmentation modes, checkpoints, the per-forward
             attention array, the per-mode gradient check
  training   Adam + linear LR decay loop, metrics, repeated-run protocol
  explain    incoming-attention accumulation, a LIME-style surrogate and the
             per-sentence pipeline that runs both
  cli        command-line entry point (`cogbert`)

Importing the package keeps freed heap memory in the process (see
_keep_freed_memory), so every entry point, the library calls included, gets it.
"""

import ctypes

__version__ = "0.1.0"


def _keep_freed_memory() -> None:
    """Make glibc malloc keep freed memory for reuse instead of returning it to the kernel.

    By default glibc serves every array of 128 KiB or more (a forward's
    attention, q/k/v, context and feed-forward arrays) with its own mmap and
    unmaps it on free, and trims the heap top once 128 KiB of it is free. Each
    forward or train step then faults its pages in afresh, at one minor fault
    per 4 KiB page. Raising the mmap threshold puts those arrays on the heap,
    and raising the trim threshold keeps the heap's free pages, so repeated
    forwards reuse pages already mapped. Both are needed: a large trim
    threshold alone freezes the mmap threshold at 128 KiB.

    It changes where memory comes from, never a result. Where the C library
    has no mallopt (musl, macOS, Windows) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle (TypeError: Windows), or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: glibc's 64-bit maximum; also stops the dynamic threshold
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_keep_freed_memory()
