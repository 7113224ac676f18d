"""Fine-tuning loop with Adam, linear learning-rate decay, repeated runs,
and macro precision/recall/F1 metrics.

Every run is bit-reproducible from its seed: parameter init, batch order,
and dropout each draw from independently derived streams, so repeated runs
with the same master seed replay exactly.

The run protocol's results live here: SCORES names the four scores, Metrics
derives them from one confusion matrix, RunReport holds their means, the F1
spread and the best run, and repeat_runs keeps only the best run's parameters.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .checks import check_field_types
from .errors import ConfigError, NumericError, ValidationError
from .features import CognitiveRecord, FeatureDb
from .model import EncoderParams, Example, ModelConfig, build_batch, encoder_forward, init_params
from .numerics import autodiff as ad
from .numerics.rng import SeededRng
from .tokenizer import Vocab, encode

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Robustness protocol: random init, fewer repeats, shorter training.
ROBUSTNESS_REPEATS = 5
ROBUSTNESS_EPOCHS = 10

# The scores of one evaluation, in report order.
SCORES = ("precision", "recall", "f1", "accuracy")


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 8
    lr: float = 5e-5
    seed: int = 0
    repeats: int = 10
    weight_decay: float = 0.01
    init_source: str = "random"  # "random" or a checkpoint path

    def __post_init__(self):
        check_field_types(self)
        for name in ("epochs", "batch_size", "repeats"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be a finite number > 0, got {self.lr!r}")
        if self.weight_decay < 0:
            raise ConfigError(
                f"weight_decay must be a finite number >= 0, got {self.weight_decay!r}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def make_example(rec: CognitiveRecord, vocab: Vocab, max_len: int) -> Example:
    """The Example of a feature record. A record with more words than
    max_len - 2 keeps its first ones, and one warning names it."""
    ids = encode(rec.tokens, vocab, max_len)
    if len(ids) - 2 < len(rec.tokens):
        log.warning("%s: truncating %d word(s) to fit max_len=%d",
                    rec.sentence_id, len(rec.tokens) - len(ids) + 2, max_len)
    return Example(rec.sentence_id, ids, rec.label)


def make_examples(db: FeatureDb, vocab: Vocab, max_len: int) -> list[Example]:
    """Every record in the feature database as its Example (make_example)."""
    return [make_example(rec, vocab, max_len) for rec in map(db.get, db.ids())]


def split(items: Sequence, ratio: float = 0.8, seed: int = 0) -> tuple[list, list]:
    """Deterministic shuffled split; floor(ratio * n) items go to train."""
    if len(items) < 2:
        raise ValidationError("need at least 2 items to split")
    if not 0.0 < ratio < 1.0:
        raise ValidationError("split ratio must lie strictly in (0, 1)")
    perm = SeededRng(seed).derive("split").permutation(len(items))
    n_train = math.floor(ratio * len(items))
    train_items = [items[i] for i in perm[:n_train]]
    test_items = [items[i] for i in perm[n_train:]]
    return train_items, test_items


def lr_at(step: int, total_steps: int, lr0: float) -> float:
    """Linear decay from lr0 at step 0 to exactly 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValidationError(f"step {step} outside [0, {total_steps}]")
    return lr0 * (1.0 - step / total_steps)


class Adam:
    """Adam with decoupled weight decay (decay-flagged only) over the params it is built for.

    The moments `m` and `v` are flat buffers laid out like
    `EncoderParams.values` (`params.views(opt.m)` splits them per tensor).
    `step(lr)` runs the per-tensor update

        m += (1 - beta1) * (g - m);  v += (1 - beta2) * (g * g - v)
        w -= lr * ((m / bc1) / (sqrt(v / bc2) + eps));  w -= lr * wd * w  (decay only)

    with the same operations in the same order for every element, once over
    the whole buffer and into two preallocated scratch buffers, so it
    allocates nothing and its results are bit-identical to the per-tensor
    form. Slot padding holds zeros and stays zero.
    """

    def __init__(self, params: EncoderParams, weight_decay: float = 0.01):
        self.params = params
        self.weight_decay = weight_decay
        self.t = 0
        n = params.values.size
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._scratch = (np.empty(n), np.empty(n))

    @np.errstate(invalid="ignore", over="ignore")  # a non-finite weight fails the next loss check
    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        g, m, v, w = self.params.grads, self.m, self.v, self.params.values
        s, r = self._scratch
        np.subtract(g, m, out=s)
        s *= 1.0 - ADAM_BETA1
        m += s
        np.multiply(g, g, out=s)
        s -= v
        s *= 1.0 - ADAM_BETA2
        v += s
        np.divide(m, bc1, out=s)
        np.divide(v, bc2, out=r)
        np.sqrt(r, out=r)
        r += ADAM_EPS
        s /= r
        s *= lr
        w -= s
        if self.weight_decay:
            k = self.params.n_decay
            np.multiply(w[:k], lr * self.weight_decay, out=s[:k])
            w[:k] -= s[:k]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class Metrics:
    """One-vs-rest confusion counts per class plus the macro-averaged scores."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray

    @classmethod
    def from_predictions(cls, truth, predicted, n_classes: int) -> "Metrics":
        """Counts from the (truth, predicted) confusion matrix: tp is its diagonal, fp and
        fn its column and row sums less the diagonal, so every sample is counted once. A
        label or a prediction outside 0..n_classes-1 is a ValidationError."""
        truth = np.asarray(truth, dtype=np.int64)
        predicted = np.asarray(predicted, dtype=np.int64)
        if truth.shape != predicted.shape:
            raise ValidationError("truth and predictions must have equal length")
        for what, values in (("label", truth), ("prediction", predicted)):
            outside = (values < 0) | (values >= n_classes)
            if outside.any():
                i = int(np.argmax(outside))
                raise ValidationError(
                    f"{what} {values[i]} at index {i} lies outside 0..{n_classes - 1}")
        confusion = np.bincount(truth * n_classes + predicted,
                                minlength=n_classes * n_classes).reshape(n_classes, n_classes)
        tp = confusion.diagonal().copy()
        fp = confusion.sum(axis=0) - tp
        fn = confusion.sum(axis=1) - tp
        tn = len(truth) - tp - fp - fn
        return cls(tp, fp, fn, tn)

    @staticmethod
    def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        out = np.zeros(len(num), dtype=np.float64)
        nz = den > 0
        out[nz] = num[nz] / den[nz]
        return out

    @property
    def per_class_precision(self) -> np.ndarray:
        return self._safe_div(self.tp, self.tp + self.fp)

    @property
    def per_class_recall(self) -> np.ndarray:
        return self._safe_div(self.tp, self.tp + self.fn)

    @property
    def per_class_f1(self) -> np.ndarray:
        p = self.per_class_precision
        r = self.per_class_recall
        return self._safe_div(2.0 * p * r, p + r)

    @property
    def precision(self) -> float:
        return float(self.per_class_precision.mean())

    @property
    def recall(self) -> float:
        return float(self.per_class_recall.mean())

    @property
    def f1(self) -> float:
        return float(self.per_class_f1.mean())

    @property
    def accuracy(self) -> float:
        total = int(self.tp.sum() + self.fn.sum())  # the confusion matrix's total
        return float(self.tp.sum() / total) if total else 0.0

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in SCORES},
            "tp": self.tp.tolist(),
            "fp": self.fp.tolist(),
            "fn": self.fn.tolist(),
            "tn": self.tn.tolist(),
        }


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------

def _batches(examples: list[Example], order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield [examples[i] for i in order[start:start + size]]


def train(
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    examples: list[Example],
    db: FeatureDb | None,
    seed: int | None = None,
) -> tuple[EncoderParams, list[float]]:
    """One fine-tuning run. Returns trained parameters and per-epoch mean loss.

    A non-finite loss raises NumericError naming the epoch and the step
    (both counted from 0) and the sentence ids of the batch, in batch order.
    """
    if not examples:
        raise ValidationError("cannot train on an empty dataset")
    run_seed = train_cfg.seed if seed is None else seed
    master = SeededRng(run_seed)
    params = init_params(model_cfg, train_cfg.init_source, seed=master.derive("init").seed)
    order_rng = master.derive("batch-order")
    dropout_rng = master.derive("dropout")
    optimizer = Adam(params, train_cfg.weight_decay)

    n_batches = math.ceil(len(examples) / train_cfg.batch_size)
    total_steps = train_cfg.epochs * n_batches
    step = 0
    epoch_losses: list[float] = []
    for epoch in range(train_cfg.epochs):
        order = order_rng.permutation(len(examples))
        losses = []
        for chunk in _batches(examples, order, train_cfg.batch_size):
            batch = build_batch(chunk, model_cfg, db)
            params.zero_grads()
            result = encoder_forward(params, batch, train=True, rng=dropout_rng, attention=False)
            loss = ad.cross_entropy_mean(result.logits, batch.labels)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(
                    f"training diverged: non-finite loss at epoch {epoch}, step {step}, on the "
                    f"batch of sentences {', '.join(ex.sentence_id for ex in chunk)}")
            ad.backward(loss)
            optimizer.step(lr_at(step, total_steps, train_cfg.lr))
            step += 1
            losses.append(value)
        epoch_losses.append(float(np.mean(losses)))
    return params, epoch_losses


def evaluate(
    params: EncoderParams,
    examples: list[Example],
    db: FeatureDb | None,
    batch_size: int = 32,
) -> Metrics:
    """Macro metrics of argmax predictions over a test set."""
    if not examples:
        raise ValidationError("cannot evaluate on an empty test set")
    cfg = params.cfg
    predictions = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start:start + batch_size]
        result = encoder_forward(params, build_batch(chunk, cfg, db), attention=False)
        predictions.extend(result.predictions().tolist())
    truth = [ex.label for ex in examples]
    return Metrics.from_predictions(truth, predictions, cfg.n_classes)


@dataclass
class RunResult:
    seed: int
    metrics: Metrics
    loss_history: list[float]


@dataclass
class RunReport:
    """Aggregation of n independent train+evaluate cycles.

    `mean` (the mean of each of SCORES), `f1_std` (the sample standard
    deviation of per-run F1, 0 for a single run) and `best` (the index of the
    run with the highest accuracy, ties to the earliest) are computed once,
    at construction. It holds no timings, so reports stay byte-reproducible
    across reruns.
    """

    model_config: dict
    train_config: dict
    runs: list[RunResult]
    mean: dict = field(init=False)
    f1_std: float = field(init=False)
    best: int = field(init=False)

    def __post_init__(self):
        self.mean = {name: float(np.mean([getattr(r.metrics, name) for r in self.runs]))
                     for name in SCORES}
        f1s = [r.metrics.f1 for r in self.runs]
        self.f1_std = float(np.std(f1s, ddof=1)) if len(f1s) > 1 else 0.0
        self.best = int(np.argmax([r.metrics.accuracy for r in self.runs]))

    def to_dict(self) -> dict:
        return {
            "model_config": self.model_config,
            "train_config": self.train_config,
            "runs": [
                {
                    "seed": r.seed,
                    "metrics": r.metrics.to_dict(),
                    "loss_history": r.loss_history,
                }
                for r in self.runs
            ],
            "mean": self.mean,
            "f1_std": self.f1_std,
        }


def repeat_runs(
    n: int,
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    train_examples: list[Example],
    test_examples: list[Example],
    db: FeatureDb | None,
) -> tuple[RunReport, EncoderParams]:
    """n independent train+evaluate cycles with seeds derived from the master.

    Returns the report and the trained parameters of its best run (callers
    keep that checkpoint for the explanation pipeline). After each run the
    report of the runs so far picks the best one, so the kept parameters are
    those of `report.best`, and only they are held while the next run
    trains: memory does not grow with n.
    """
    if n < 1:
        raise ValidationError("need at least one run")
    master = SeededRng(train_cfg.seed)
    runs: list[RunResult] = []
    for i in range(n):
        run_seed = master.derive(f"run{i}").seed
        params, losses = train(train_cfg, model_cfg, train_examples, db, seed=run_seed)
        runs.append(RunResult(run_seed, evaluate(params, test_examples, db), losses))
        report = RunReport(model_cfg.to_dict(), train_cfg.to_dict(), runs)  # of the runs so far
        if report.best == i:
            best_params = params
        del params  # only the best run so far is held while the next one trains
    return report, best_params
