"""Two explanation pipelines and their agreement measure, as score vectors.

Incoming-attention accumulation sums every head's attention probabilities
over all layers and source rows, yielding one score per token (an array over
CLS, the words and SEP); PAD rows and columns are excluded, CLS/SEP
participate in accumulation but never in keyword ranking. The LIME-style
explainer perturbs a sentence by randomly removing words, weights each
perturbation by an exponential kernel over the cosine distance from the full
sentence, and fits a weighted ridge surrogate whose coefficients (an array
over the words) score the words. `top_k` ranks word positions, so a repeated
word is told apart by its position. `explain_sentence` runs both on one
sentence of a feature database and reports their top-k agreement. Each
perturbation is a word selection of that sentence: `model.word_selections`
gathers its positions from the sentence's own batch row. The perturbations
run through the encoder shortest first, each forward taking consecutive
ones that share one batch width, up to LIME_POSITIONS positions.
A sentence's logits depend neither on its batch peers nor on the batch
width (a multiple of 8), so neither the grouping nor the order changes any
score at the default head width of 16 (see README, "Batch width": at a
head width of 32 or more the BLAS moves logits in the last bit between row
counts). Only the full sentence's forward returns attention maps, which
the attention explainer accumulates; the perturbation forwards need only
logits and run logits-only forwards (`encoder_forward(..., attention=False)`),
whose last layer attends from the CLS rows alone. Those one-row products
stack their row over a zero row (autodiff._rows_product), so the logits,
and the LIME scores, are bit-identical to a forward over every query row.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError, NumericError, ValidationError
from .features import FeatureDb
from .model import EncoderParams, batch_width, build_batch, encoder_forward, word_selections
from .numerics import autodiff as ad
from .numerics.rng import SeededRng
from .tokenizer import Vocab
from .training import make_example

log = logging.getLogger(__name__)

DEFAULT_SAMPLES = 200
DEFAULT_KERNEL_WIDTH = 25.0
DEFAULT_RIDGE_LAMBDA = 1e-3
DISTANCE_SCALE = 100.0  # cosine distances are scaled to percent before the kernel
# Below this effective sample size, (sum w)^2 / sum w^2, lime_explain warns.
MIN_EFFECTIVE_SAMPLES = 2.0
# Positions (rows x batch width) per perturbation forward, one row at least;
# a forward's memory grows with its positions x batch width.
LIME_POSITIONS = 640


def accumulate_attention(attention: np.ndarray, n: int) -> np.ndarray:
    """Incoming attention per token: sum over layers, heads, and source rows.

    attention is one sentence's (layers, heads, T, T) probabilities and n its
    number of real positions (len(ids)), n <= T. Returns the (n,) scores of
    CLS, the words and SEP. The sum is restricted to the first n rows and
    columns (PAD excluded); it includes CLS and SEP entries so the scores
    account for all real attention mass.
    """
    real = np.arange(n)
    return attention[:, :, real][:, :, :, real].sum(axis=(0, 1, 2))


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest of the words' scores, highest first; the earlier word wins ties."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    return np.argsort(-scores, kind="stable")[:k]


def lime_explain(
    predict_fn: Callable[[np.ndarray], np.ndarray],
    n_words: int,
    n_samples: int = DEFAULT_SAMPLES,
    kernel_width: float = DEFAULT_KERNEL_WIDTH,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
    seed: int = 0,
) -> np.ndarray:
    """The (n_words,) surrogate coefficients of predict_fn around a sentence.

    predict_fn receives the (n_samples, n_words) boolean keep-masks of all
    perturbations in draw order (callers holding word-aligned features need
    the indices, not just the kept words; `model.word_selections` turns rows
    into a batch) and returns n_samples finite probabilities of the class
    being explained, one per row; anything else raises ValidationError.
    Each word is kept independently with p=0.5; all-removed draws are
    redrawn, so the rows are the first n_samples draws that keep a word.
    Sample weight = exp(-(100 * D)^2 / width^2) with D the cosine distance
    between the keep-mask and the full sentence. The kernel width must be
    finite and > 0, the ridge lambda finite and >= 0 (ValidationError). A
    width so narrow that no sample weight is positive (each underflows to 0
    when no sample keeps every word; a width whose square underflows gives
    NaN) is a NumericError, raised before predict_fn runs. A width that
    leaves an effective sample size, (sum w)^2 / sum w^2, below
    MIN_EFFECTIVE_SAMPLES logs a warning: the fit then rests on about one
    perturbation.
    """
    if n_words < 1:
        raise ValidationError("cannot explain an empty sentence")
    if n_samples < 10:
        raise ValidationError("need at least 10 perturbation samples")
    if not 0 < kernel_width < np.inf:
        raise ValidationError(f"kernel width must be a finite number > 0, got {kernel_width!r}")
    if not 0 <= ridge_lambda < np.inf:
        raise ValidationError(f"ridge lambda must be a finite number >= 0, got {ridge_lambda!r}")
    rng = SeededRng(seed).derive("lime")

    # Each row is the next draw of n uniforms with a kept word: redrawing only
    # the all-removed rows, at the end, keeps the rows and the stream in order.
    kept = np.empty((0, n_words), dtype=bool)
    while len(kept) < n_samples:
        draws = rng.random((n_samples - len(kept), n_words)) < 0.5
        kept = np.concatenate([kept, draws[draws.any(axis=1)]])
    masks = kept.astype(np.float64)
    # Cosine distance to the all-ones mask; no mask is all zeros.
    distances = 1.0 - np.sqrt(masks.sum(axis=1) / n_words)
    with np.errstate(divide="ignore", invalid="ignore"):  # a width whose square is 0 gives NaN
        weights = np.exp(-((DISTANCE_SCALE * distances) ** 2) / kernel_width**2)
    if not (weights > 0).any():
        raise NumericError(f"kernel width {kernel_width!r} leaves none of the {n_samples} "
                           f"perturbations a positive weight; use a wider kernel")
    relative = weights / weights.max()
    effective = relative.sum() ** 2 / (relative * relative).sum()
    if effective < MIN_EFFECTIVE_SAMPLES:
        log.warning("lime: kernel width %r leaves an effective sample size of %.2f of %d "
                    "perturbations; the surrogate fits about one, so its scores say little",
                    kernel_width, effective, n_samples)

    targets = np.asarray(predict_fn(kept), dtype=np.float64)
    if targets.shape != (n_samples,) or not np.isfinite(targets).all():
        raise ValidationError(
            f"predict_fn must return {n_samples} finite probabilities, got shape "
            f"{targets.shape} with {int((~np.isfinite(targets)).sum())} non-finite")
    return weighted_ridge(masks, targets, weights, ridge_lambda)


def weighted_ridge(masks: np.ndarray, targets: np.ndarray, weights: np.ndarray,
                   ridge_lambda: float) -> np.ndarray:
    """Weight-normalized ridge fit of targets on presence indicators.

    Weights are normalized to sum to 1 so the fit is invariant under sample
    replication; the intercept column is unpenalized. Returns the per-word
    coefficients (intercept dropped).
    """
    n_samples, n = masks.shape
    norm = weights / weights.sum()
    design = np.hstack([np.ones((n_samples, 1)), masks])
    wx = design * norm[:, None]
    gram = design.T @ wx
    penalty = np.eye(n + 1) * ridge_lambda
    penalty[0, 0] = 0.0
    rhs = wx.T @ targets
    try:
        return np.linalg.solve(gram + penalty, rhs)[1:]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular surrogate system: {exc}") from exc


@dataclass
class ExplanationReport:
    """Both explainers' scores for one sentence of n words plus their top-k agreement.

    attention holds the (n + 2,) scores of CLS, the words and SEP, lime the
    (n,) word coefficients. The top lists name each explainer's top min(k, n)
    words (a k above n logs one warning naming the sentence); overlap is the
    share of those positions the two have in common, out of min(k, n), so a
    repeated word counts once per position.
    """

    sentence_id: str
    predicted_class: int
    words: list[str]
    attention: np.ndarray
    lime: np.ndarray
    k: int
    attention_top: list[str] = field(init=False)
    lime_top: list[str] = field(init=False)
    overlap: float = field(init=False)

    def __post_init__(self):
        k = min(self.k, len(self.words))
        attention_top, lime_top = top_k(self.attention[1:-1], k), top_k(self.lime, k)
        if k < self.k:
            log.warning("sentence %s: asked for %d keywords but only %d content tokens",
                        self.sentence_id, self.k, k)
        self.attention_top = [self.words[i] for i in attention_top]
        self.lime_top = [self.words[i] for i in lime_top]
        self.overlap = int(np.isin(attention_top, lime_top).sum()) / k

    def to_dict(self) -> dict:
        labels = ["[CLS]", *self.words, "[SEP]"]
        return {
            "sentence_id": self.sentence_id,
            "predicted_class": self.predicted_class,
            "attention_scores": [{"position": p, "word": w, "score": s}
                                 for p, (w, s) in enumerate(zip(labels, self.attention.tolist()))],
            "lime_scores": [{"position": p, "word": w, "score": s}
                            for p, (w, s) in enumerate(zip(self.words, self.lime.tolist()), start=1)],
            "attention_top": self.attention_top,
            "lime_top": self.lime_top,
            "k": self.k,
            "overlap": self.overlap,
        }

    def heatmap_rows(self) -> list[tuple[str, float, float]]:
        """(word, attention score, lime weight) per content word, in order."""
        return list(zip(self.words, self.attention[1:-1].tolist(), self.lime.tolist()))


def class_probability(logits: np.ndarray, class_idx: int) -> np.ndarray:
    """Softmax probability of class_idx in every row of the (S, C) logits."""
    if np.isnan(logits).any():
        raise NumericError("class probability received NaN logits")
    return ad.softmax(logits)[:, class_idx]


def explain_sentence(
    params: EncoderParams,
    db: FeatureDb,
    vocab: Vocab,
    sentence_id: str,
    k: int = 5,
    n_samples: int = DEFAULT_SAMPLES,
    kernel_width: float = DEFAULT_KERNEL_WIDTH,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
    seed: int = 0,
) -> ExplanationReport:
    """Attention and LIME explanations of the model's predicted class for one sentence.

    The sentence is encoded once and its one-row batch built once. A LIME
    perturbation is a word selection of that row (`model.word_selections`),
    so it drops words together with their aligned eye/EEG features; the
    sentence EEG vector is kept whole. The full sentence runs alone. The
    perturbations are sorted by kept-word count (a stable sort), and each
    forward takes the next ones that share one batch width, up to
    LIME_POSITIONS positions (rows x width) and one row at least; their
    probabilities are returned in draw order. A record with no words is a
    DataError; a LIME NumericError (a kernel too narrow for every sample)
    is raised again naming the sentence; each warning LIME logs names it too.
    """
    cfg = params.cfg
    rec = db.get(sentence_id)
    if not rec.tokens:
        raise DataError(f"feature record {sentence_id} has no words to explain")
    example = make_example(rec, vocab, cfg.max_len)
    words = rec.tokens[: len(example.ids) - 2]
    row = build_batch([example], cfg, db)
    result = encoder_forward(params, row, attention=True)
    predicted = int(result.predictions()[0])
    attention = accumulate_attention(result.attention[0], len(example.ids))

    def predict_fn(keep_masks: np.ndarray) -> np.ndarray:
        kept = keep_masks.sum(axis=1)
        order = np.argsort(kept, kind="stable")
        widths = batch_width(kept[order] + 2, cfg.max_len)  # non-decreasing
        probs = np.empty(len(keep_masks))
        start = 0
        while start < len(order):
            width = widths[start]
            stop = min(int(np.searchsorted(widths, width, side="right")),
                       start + max(1, LIME_POSITIONS // int(width)))
            rows = order[start:stop]
            batch = word_selections(row, keep_masks[rows], cfg)
            logits = encoder_forward(params, batch, attention=False).logits.value
            probs[rows] = class_probability(logits, predicted)
            start = stop
        return probs

    prefix = f"sentence {sentence_id}: "

    def name_sentence(record: logging.LogRecord) -> bool:
        record.msg, record.args = prefix + record.getMessage(), ()
        return True

    log.addFilter(name_sentence)
    try:
        lime = lime_explain(predict_fn, len(words), n_samples=n_samples,
                            kernel_width=kernel_width, ridge_lambda=ridge_lambda, seed=seed)
    except NumericError as exc:
        raise NumericError(prefix + str(exc)) from exc
    finally:
        log.removeFilter(name_sentence)
    return ExplanationReport(sentence_id, predicted, words, attention, lime, k)
