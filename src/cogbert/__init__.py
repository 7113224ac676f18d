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
"""

__version__ = "0.1.0"
