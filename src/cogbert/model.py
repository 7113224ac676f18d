"""Compact BERT-style encoder with pluggable cognitive augmentations.

Augmentation modes:
  none         plain encoder (word + position embeddings, base PAD mask)
  eeg_embed    adds a 101-row EEG-token embedding table to the input sum
  eye_embed    adds a 101-row eye-token embedding table
  both_embed   adds both tables
  cog_mask     replaces the base PAD mask with the fixation-derived mask
  pool_concat  classifier input = [CLS hidden | sentence EEG vector]
  pool_concat_nn  classifier input = [CLS hidden | NN(sentence EEG)]
  pool_multiply   CLS hidden scaled by sum(sentence EEG)/d_model
  pool_add_nn     CLS hidden + NN(sentence EEG)

The fusion NN maps C -> d_model -> d_model -> d_model with GELU after the
first two layers. The pooled output is the raw CLS hidden state of the last
layer (no extra pooler). Every forward pass returns the per-layer, per-head
attention probabilities of the whole batch as one (B, layers, heads, T, T)
array for the explanation pipeline. The tape ops take the `Parameter`s
directly as graph leaves, and backward accumulates into their `grad`.
`gradcheck_mode` checks one mode's full backward pass against central
differences.

Sentences carry only their real tokens (CLS + words + SEP); `build_batch`
alone pads. A batch runs at its own width T, not at max_len: the longest
real row rounded up to a multiple of WIDTH_MULTIPLE. Padding keys carry a
-10000 additive mask, so their attention weights are exactly zero in
float64 and a wider batch could not change any real row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checks import check_field_types
from .errors import CheckpointError, ConfigError, ValidationError
from .features import CognitiveRecord, FeatureDb, cognitive_mask
from .files import atomic_open, write_text_atomic
from .numerics import autodiff as ad
from .numerics.autodiff import Node, Parameter
from .numerics.gradcheck import grad_check_report
from .numerics.rng import SeededRng
from .tokenizer import (MASK_KEEP, MASK_SUPPRESS, PAD_ID, SEP_ID, TokenizedSentence,
                        build_vocab, encode)

MODES = (
    "none", "eeg_embed", "eye_embed", "both_embed", "cog_mask",
    "pool_concat", "pool_concat_nn", "pool_multiply", "pool_add_nn",
)
COG_TABLE_ROWS = 101  # cognitive tokens range over 0..100
LN_EPS = 1e-5
INIT_STD = 0.02
GRADCHECK_MAX_ENTRIES = 48
SLOT_MULTIPLE = 8  # EncoderParams pads slots to 8 entries (64 bytes), so all share one alignment
# numpy's pairwise sum keeps 8 partial sums: at a width that is a multiple of 8
# the softmax reductions see the same partial sums as at max_len (bit-identical).
WIDTH_MULTIPLE = 8


@dataclass
class ModelConfig:
    vocab_size: int
    n_classes: int
    layers: int = 2
    heads: int = 2
    d_model: int = 32
    d_ff: int = 64
    max_len: int = 64
    eeg_channels: int = 8
    dropout: float = 0.1
    mode: str = "none"

    def __post_init__(self):
        check_field_types(self)
        if self.mode not in MODES:
            raise ConfigError(f"unknown augmentation mode {self.mode!r}; choose from {MODES}")
        if self.layers < 1 or self.heads < 1:
            raise ConfigError("layers and heads must be >= 1")
        if self.d_model < 1:
            raise ConfigError(f"d_model must be an integer >= 1, got {self.d_model!r}")
        if self.d_model % self.heads:
            raise ConfigError(f"d_model={self.d_model} not divisible by heads={self.heads}")
        if self.vocab_size <= SEP_ID:
            raise ConfigError(f"vocab_size must exceed the reserved id range (> {SEP_ID})")
        if self.max_len < 3:
            raise ConfigError("max_len must be >= 3")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.d_ff < 1 or self.eeg_channels < 1 or self.n_classes < 2:
            raise ConfigError("d_ff, eeg_channels must be positive and n_classes >= 2")

    @property
    def uses_eeg_tokens(self) -> bool:
        return self.mode in ("eeg_embed", "both_embed")

    @property
    def uses_eye_tokens(self) -> bool:
        return self.mode in ("eye_embed", "both_embed")

    @property
    def uses_fusion_nn(self) -> bool:
        return self.mode in ("pool_concat_nn", "pool_add_nn")

    @property
    def uses_sentence_eeg(self) -> bool:
        return self.mode.startswith("pool_")

    @property
    def needs_features(self) -> bool:
        return self.mode != "none"

    @property
    def classifier_in_dim(self) -> int:
        if self.mode == "pool_concat":
            return self.d_model + self.eeg_channels
        if self.mode == "pool_concat_nn":
            return 2 * self.d_model
        return self.d_model

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _param_spec(cfg: ModelConfig) -> list[tuple[str, int, int, bool]]:
    """(name, rows, cols, decay) for every tensor the config requires."""
    d, ff = cfg.d_model, cfg.d_ff
    spec = [
        ("embed.word", cfg.vocab_size, d, True),
        ("embed.position", cfg.max_len, d, True),
    ]
    if cfg.uses_eeg_tokens:
        spec.append(("embed.eeg", COG_TABLE_ROWS, d, True))
    if cfg.uses_eye_tokens:
        spec.append(("embed.eye", COG_TABLE_ROWS, d, True))
    spec += [("embed.ln.gamma", 1, d, False), ("embed.ln.beta", 1, d, False)]
    for i in range(cfg.layers):
        p = f"layer{i}."
        for proj in ("q", "k", "v", "o"):
            spec += [(p + f"attn.w{proj}", d, d, True), (p + f"attn.b{proj}", 1, d, False)]
        spec += [
            (p + "ln1.gamma", 1, d, False), (p + "ln1.beta", 1, d, False),
            (p + "ff.w1", d, ff, True), (p + "ff.b1", 1, ff, False),
            (p + "ff.w2", ff, d, True), (p + "ff.b2", 1, d, False),
            (p + "ln2.gamma", 1, d, False), (p + "ln2.beta", 1, d, False),
        ]
    if cfg.uses_fusion_nn:
        spec += [
            ("fusion.w1", cfg.eeg_channels, d, True), ("fusion.b1", 1, d, False),
            ("fusion.w2", d, d, True), ("fusion.b2", 1, d, False),
            ("fusion.w3", d, d, True), ("fusion.b3", 1, d, False),
        ]
    spec += [
        ("classifier.w", cfg.classifier_in_dim, cfg.n_classes, True),
        ("classifier.b", 1, cfg.n_classes, False),
    ]
    return spec


def _tensor_count(cfg: ModelConfig) -> int:
    """len(_param_spec(cfg)), counted without listing every layer's tensors."""
    one, two = (len(_param_spec(replace(cfg, layers=n))) for n in (1, 2))
    return one + (cfg.layers - 1) * (two - one)


class EncoderParams:
    """All trainable tensors for one configuration, addressable by name.

    It owns two flat float64 buffers, `values` and `grads`, and every
    Parameter's `value` and `grad` is a reshaped view of its slot in them:
    `zero_grads` is one fill and Adam updates all tensors in one pass.
    Decay-flagged tensors come first, so weight decay applies to exactly
    `values[:n_decay]`. Each slot is padded with zeros to a multiple of
    SLOT_MULTIPLE entries, which no tensor reads. Write through a
    parameter's value and grad; never rebind them.
    """

    def __init__(self, cfg: ModelConfig, values: dict[str, np.ndarray]):
        """values maps each tensor of the config's spec to its initial value, in
        the order of names() and of the checkpoint; every grad starts at zero."""
        self.cfg = cfg
        decay = {name: flag for name, _, _, flag in _param_spec(cfg)}
        self._slots: dict[str, tuple[int, tuple[int, int]]] = {}
        offset = self.n_decay = 0
        for name in sorted(values, key=lambda n: not decay[n]):  # stable: decay first
            self._slots[name] = (offset, values[name].shape)
            offset += -(-values[name].size // SLOT_MULTIPLE) * SLOT_MULTIPLE
            if decay[name]:
                self.n_decay = offset
        self.values = np.zeros(offset)
        self.grads = np.zeros(offset)
        value_views, grad_views = self.views(self.values), self.views(self.grads)
        self._params: dict[str, Parameter] = {}
        for name, value in values.items():
            value_views[name][...] = value
            p = self._params[name] = Parameter(name, value_views[name], decay=decay[name])
            p.grad = grad_views[name]  # in place of the zeros Parameter made

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor's slot of a buffer laid out like `values`, shaped as the tensor."""
        return {name: flat[start:start + rows * cols].reshape(rows, cols)
                for name, (start, (rows, cols)) in self._slots.items()}

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def all(self) -> list[Parameter]:
        return list(self._params.values())

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grads(self) -> None:
        self.grads.fill(0.0)


def _init_value(name: str, rows: int, cols: int, rng: SeededRng) -> np.ndarray:
    if name.endswith(".gamma"):
        return np.ones((rows, cols))
    tail = name.rsplit(".", 1)[-1]
    if tail.startswith("b") or tail == "beta":
        return np.zeros((rows, cols))
    return rng.normal(0.0, INIT_STD, size=(rows, cols))


def random_params(cfg: ModelConfig, seed: int) -> EncoderParams:
    """N(0, 0.02) weights and embeddings, zero biases/betas, unit gammas."""
    rng = SeededRng(seed).derive("init")
    return EncoderParams(cfg, {name: _init_value(name, rows, cols, rng)
                               for name, rows, cols, _ in _param_spec(cfg)})


# ---------------------------------------------------------------------------
# Checkpoint container: UTF-8 header + row-major float64 little-endian data,
# with a JSON sidecar holding the ModelConfig.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "cogbert-checkpoint v1"


def _sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".config.json")


def save_checkpoint(params: EncoderParams, path: str | Path) -> None:
    names = params.names()
    header = [f"{_CKPT_MAGIC} {len(names)}"]
    header += [f"{n} {params[n].shape[0]} {params[n].shape[1]}" for n in names]
    with atomic_open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        for n in names:
            fh.write(params[n].value.astype("<f8").tobytes(order="C"))
    write_text_atomic(_sidecar_path(path),
                      json.dumps(params.cfg.to_dict(), sort_keys=True, indent=2) + "\n")


def _load_sidecar(sidecar: Path) -> ModelConfig:
    if not sidecar.is_file():
        raise CheckpointError(f"missing config sidecar {sidecar}")
    try:
        obj = json.loads(sidecar.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{sidecar}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise CheckpointError(f"{sidecar}: must hold a JSON object, got {type(obj).__name__}")
    fields = set(ModelConfig.__dataclass_fields__)
    missing, extra = sorted(fields - set(obj)), sorted(set(obj) - fields)
    if missing or extra:
        raise CheckpointError(
            f"{sidecar}: model config keys do not match"
            + (f"; missing: {', '.join(missing)}" if missing else "")
            + (f"; unexpected: {', '.join(extra)}" if extra else "")
        )
    try:
        return ModelConfig(**obj)
    except ConfigError as exc:
        raise CheckpointError(f"{sidecar}: invalid model config: {exc}") from None


def load_checkpoint(path: str | Path) -> EncoderParams:
    sidecar = _sidecar_path(path)
    cfg = _load_sidecar(sidecar)

    try:
        blob = Path(path).read_bytes()
    except IsADirectoryError:
        raise CheckpointError(f"checkpoint {path} is not a regular file") from None
    try:
        first_nl = blob.index(b"\n")
        magic, count_s = blob[:first_nl].decode("utf-8").rsplit(" ", 1)
        n_tensors = int(count_s)
        if magic != _CKPT_MAGIC:
            raise ValueError
    except ValueError:
        raise CheckpointError(f"{path}: not a checkpoint file") from None
    # before any per-tensor work, which a sidecar naming 10**30 layers would make endless
    want = _tensor_count(cfg)
    if n_tensors != want:
        raise CheckpointError(f"{path}: header lists {n_tensors} tensors, "
                              f"the config in {sidecar} needs {want}")

    offset = first_nl + 1
    entries: list[tuple[str, int, int]] = []
    for i in range(n_tensors):
        try:
            nl = blob.index(b"\n", offset)
            name, rows, cols = blob[offset:nl].decode("utf-8").split(" ")
            entries.append((name, int(rows), int(cols)))
        except ValueError:
            raise CheckpointError(
                f"{path}: header truncated or malformed at tensor entry {i + 1} of {n_tensors}"
            ) from None
        offset = nl + 1

    expected = {name: (rows, cols) for name, rows, cols, _ in _param_spec(cfg)}
    bad = [f"{n} {r}x{c} (want {expected[n][0]}x{expected[n][1]})"
           for n, r, c in entries if n in expected and (r, c) != expected[n]]
    missing = sorted(set(expected) - {n for n, _, _ in entries})
    unknown = sorted({n for n, _, _ in entries} - set(expected))
    if bad or missing or unknown:
        raise CheckpointError(
            f"{path}: tensors do not match config"
            + (f"; wrong shape: {', '.join(bad)}" if bad else "")
            + (f"; missing: {', '.join(missing)}" if missing else "")
            + (f"; unexpected: {', '.join(unknown)}" if unknown else "")
        )

    values: dict[str, np.ndarray] = {}
    for name, rows, cols in entries:
        nbytes = rows * cols * 8
        if offset + nbytes > len(blob):
            raise CheckpointError(
                f"{path}: data truncated in tensor {name}: needs {nbytes} bytes, "
                f"{len(blob) - offset} left"
            )
        value = np.frombuffer(blob[offset:offset + nbytes], dtype="<f8").reshape(rows, cols)
        if not np.isfinite(value).all():
            raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
        offset += nbytes
        values[name] = value
    if offset != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after tensor data")
    return EncoderParams(cfg, values)


def init_params(cfg: ModelConfig, source: str = "random", seed: int = 0) -> EncoderParams:
    """source is either "random" (uses seed) or a checkpoint path."""
    if source == "random":
        return random_params(cfg, seed)
    loaded = load_checkpoint(source)
    if loaded.cfg != cfg:
        raise CheckpointError(
            f"checkpoint {source}: config {loaded.cfg.to_dict()} does not match requested "
            f"{cfg.to_dict()}"
        )
    return loaded


# ---------------------------------------------------------------------------
# Batch preparation
# ---------------------------------------------------------------------------

@dataclass
class Example:
    """A tokenized sentence with the id of its feature record and its label.

    The id names the record whose features build_batch reads at
    sentence.words; the sentence may keep any subset of the record's words.
    """

    sentence_id: str
    sentence: TokenizedSentence
    label: int


@dataclass
class Batch:
    """Model-ready arrays for a batch of tokenized sentences.

    T is the batch width chosen by build_batch (at most max_len); every
    position array has it as its second axis. Positions beyond a sentence's
    real row hold PAD_ID, a MASK_SUPPRESS mask and cognitive token 0.
    """

    ids: np.ndarray              # (B, T) int token ids
    masks: np.ndarray            # (B, T) additive attention masks
    eeg_tokens: np.ndarray | None  # (B, T) EEG tokens, eeg modes only
    eye_tokens: np.ndarray | None  # (B, T) eye tokens, eye modes only
    sent_eeg: np.ndarray | None  # (B, C)
    labels: np.ndarray           # (B,) int class labels


def build_batch(examples: list[Example], cfg: ModelConfig, db: FeatureDb | None = None) -> Batch:
    """Pad the examples' sentences into ids, masks, per-mode feature arrays and labels.

    Every array is as wide as the batch width T: the longest sentence
    (len(ids) = word_count + 2) rounded up to a multiple of WIDTH_MULTIPLE,
    capped at max_len. Each sentence fills the first len(ids) positions of
    its row; the rest is PAD_ID with a MASK_SUPPRESS mask. CLS, SEP, and PAD
    positions carry cognitive token 0 (no measurement exists for them);
    content position j + 1 takes the values of record word sentence.words[j].
    """
    if cfg.needs_features and db is None:
        raise ValidationError(f"mode {cfg.mode!r} requires a feature database")

    for ex in examples:
        if ex.sentence.max_len != cfg.max_len:
            raise ValidationError(
                f"sentence max_len {ex.sentence.max_len} != model max_len {cfg.max_len}")
    longest = max((len(ex.sentence.ids) for ex in examples), default=0)
    n, t = len(examples), min(cfg.max_len, -(-longest // WIDTH_MULTIPLE) * WIDTH_MULTIPLE)
    ids = np.full((n, t), PAD_ID, dtype=np.int64)
    masks = np.full((n, t), MASK_SUPPRESS, dtype=np.float64)
    eeg = np.zeros((n, t), dtype=np.int64) if cfg.uses_eeg_tokens else None
    eye = np.zeros((n, t), dtype=np.int64) if cfg.uses_eye_tokens else None
    sent = np.zeros((n, cfg.eeg_channels)) if cfg.uses_sentence_eeg else None

    for i, ex in enumerate(examples):
        ts = ex.sentence
        real = slice(0, len(ts.ids))
        ids[i, real] = ts.ids
        masks[i, real] = MASK_KEEP
        if cfg.needs_features:
            rec = db.get(ex.sentence_id)
            last = int(ts.words.max(initial=-1))
            if last >= len(rec.tokens):
                raise ValidationError(
                    f"{rec.sentence_id}: record covers {len(rec.tokens)} words, "
                    f"sentence reads word {last}"
                )
            content = slice(1, 1 + ts.word_count)
            if cfg.mode == "cog_mask":
                masks[i, real] = cognitive_mask(rec.n_fixations[ts.words], ts)
            if eeg is not None:
                eeg[i, content] = rec.eeg_tokens[ts.words]
            if eye is not None:
                eye[i, content] = rec.eye_tokens[ts.words]
            if sent is not None:
                if rec.sentence_eeg.shape != (cfg.eeg_channels,):
                    raise ValidationError(
                        f"{rec.sentence_id}: sentence EEG has {rec.sentence_eeg.shape[0]} "
                        f"channels, model expects {cfg.eeg_channels}"
                    )
                sent[i] = rec.sentence_eeg

    return Batch(
        ids=ids,
        masks=masks,
        eeg_tokens=eeg,
        eye_tokens=eye,
        sent_eeg=sent,
        labels=np.array([ex.label for ex in examples], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def embedding_sum(
    params: EncoderParams,
    ids: np.ndarray,
    eeg_tokens: np.ndarray | None = None,
    eye_tokens: np.ndarray | None = None,
) -> Node:
    """Pre-norm sum of word + position (+ EEG token)(+ eye token) table rows.

    The token arrays are (B, T); row b*T + j of the result is sentence b at
    position j.
    """
    cfg = params.cfg
    if cfg.uses_eeg_tokens != (eeg_tokens is not None):
        raise ValidationError(f"mode {cfg.mode!r}: EEG tokens required iff mode uses them")
    if cfg.uses_eye_tokens != (eye_tokens is not None):
        raise ValidationError(f"mode {cfg.mode!r}: eye tokens required iff mode uses them")

    n, t = ids.shape
    x = ad.add(
        ad.gather_rows(params["embed.word"], ids.reshape(-1)),
        ad.gather_rows(params["embed.position"], np.tile(np.arange(t), n)),
    )
    if eeg_tokens is not None:
        x = ad.add(x, ad.gather_rows(params["embed.eeg"], eeg_tokens.reshape(-1)))
    if eye_tokens is not None:
        x = ad.add(x, ad.gather_rows(params["embed.eye"], eye_tokens.reshape(-1)))
    return x


def embed(
    params: EncoderParams,
    ids: np.ndarray,
    eeg_tokens: np.ndarray | None = None,
    eye_tokens: np.ndarray | None = None,
) -> Node:
    """Embedding sum, then layer norm (encoder_forward applies the dropout)."""
    x = embedding_sum(params, ids, eeg_tokens, eye_tokens)
    return ad.layer_norm_rows(x, params["embed.ln.gamma"], params["embed.ln.beta"], LN_EPS)


def _dropout(x: Node, n: int, cfg: ModelConfig, train: bool, rng: SeededRng | None) -> Node:
    """Training-only dropout of n stacked sentences, masks drawn at max_len.

    Drawing (n, max_len, d) and keeping each sentence's first T positions
    leaves the dropout stream, and the mask of every kept element, the same
    at any batch width T.
    """
    if not train or cfg.dropout == 0.0:
        return x
    return ad.dropout(x, cfg.dropout, rng, draw_shape=(n, cfg.max_len, x.value.shape[1]))


def self_attention(
    x: Node,
    masks: np.ndarray,
    params: EncoderParams,
    layer: int,
    probs_out: np.ndarray,
    train: bool = False,
    rng: SeededRng | None = None,
    rows: np.ndarray | None = None,
) -> Node:
    """One multi-head self-attention block with residual and layer norm.

    masks is (batch, T); the detached attention probabilities of every query
    row are written into probs_out (batch, heads, T, T). With `rows`, only
    those rows of the context and of the residual input go on through the
    output projection and the layer norm, so the result has len(rows) rows.
    """
    cfg = params.cfg
    p = f"layer{layer}."
    q = ad.linear(x, params[p + "attn.wq"], params[p + "attn.bq"])
    k = ad.linear(x, params[p + "attn.wk"], params[p + "attn.bk"])
    v = ad.linear(x, params[p + "attn.wv"], params[p + "attn.bv"])
    ctx, _ = ad.multi_head_attention(q, k, v, masks, cfg.heads, probs_out)
    if rows is not None:
        ctx, x = ad.select_rows(ctx, rows), ad.select_rows(x, rows)
    ctx = ad.linear(ctx, params[p + "attn.wo"], params[p + "attn.bo"])
    ctx = _dropout(ctx, masks.shape[0], cfg, train, rng)
    return ad.layer_norm_rows(ad.add(x, ctx), params[p + "ln1.gamma"], params[p + "ln1.beta"],
                              LN_EPS)


def _feed_forward(x: Node, n: int, params: EncoderParams, layer: int,
                  train: bool, rng: SeededRng | None) -> Node:
    p = f"layer{layer}."
    h = ad.gelu(ad.linear(x, params[p + "ff.w1"], params[p + "ff.b1"]))
    h = ad.linear(h, params[p + "ff.w2"], params[p + "ff.b2"])
    h = _dropout(h, n, params.cfg, train, rng)
    return ad.layer_norm_rows(ad.add(x, h), params[p + "ln2.gamma"], params[p + "ln2.beta"],
                              LN_EPS)


def _fusion_nn(params: EncoderParams, sent_eeg: np.ndarray) -> Node:
    h = ad.linear(ad.const(sent_eeg), params["fusion.w1"], params["fusion.b1"])
    h = ad.gelu(h)
    h = ad.gelu(ad.linear(h, params["fusion.w2"], params["fusion.b2"]))
    return ad.linear(h, params["fusion.w3"], params["fusion.b3"])


def fuse_pooled(pooled: Node, sent_eeg: np.ndarray | None, params: EncoderParams) -> Node:
    """Combine the pooled CLS vector with the sentence EEG vector per mode."""
    cfg = params.cfg
    if not cfg.uses_sentence_eeg:
        return pooled
    if sent_eeg is None:
        raise ValidationError(f"mode {cfg.mode!r} requires sentence EEG vectors")
    sent_eeg = np.asarray(sent_eeg, dtype=np.float64)
    if sent_eeg.shape != (pooled.value.shape[0], cfg.eeg_channels):
        raise ValidationError(
            f"sentence EEG shape {sent_eeg.shape} does not match "
            f"(batch={pooled.value.shape[0]}, C={cfg.eeg_channels})"
        )
    if cfg.mode == "pool_concat":
        return ad.concat_cols(pooled, ad.const(sent_eeg))
    if cfg.mode == "pool_concat_nn":
        return ad.concat_cols(pooled, _fusion_nn(params, sent_eeg))
    if cfg.mode == "pool_multiply":
        factor = sent_eeg.sum(axis=1, keepdims=True) / cfg.d_model
        return ad.mul_const(pooled, factor)
    return ad.add(pooled, _fusion_nn(params, sent_eeg))  # pool_add_nn


def classify(fused: Node, params: EncoderParams) -> Node:
    cfg = params.cfg
    if fused.value.shape[1] != cfg.classifier_in_dim:
        raise ValidationError(
            f"classifier expects {cfg.classifier_in_dim} inputs, got {fused.value.shape[1]}"
        )
    return ad.linear(fused, params["classifier.w"], params["classifier.b"])


@dataclass
class ForwardResult:
    """Outputs of one forward pass; T is the batch width (batch.ids.shape[1]).

    `attention[b]` holds sentence b's per-layer, per-head attention
    probabilities; they are exactly zero on its PAD columns. A training
    forward's backward reads them, so they must not be written before it.
    """

    # (B, T, d_model) hidden states entering the last layer, detached. Only
    # perfbench/tracing.py (its computed-position count) and tests read it; it
    # goes when perfbench takes that count from the batch shape (ROADMAP item 3).
    hidden: np.ndarray
    logits: Node                # (B, n_classes)
    attention: np.ndarray       # (B, layers, heads, T, T) view of a layer-major array, detached

    def predictions(self) -> np.ndarray:
        """Argmax per row; ties resolve to the lowest class index."""
        return self.logits.value.argmax(axis=1)


def _cut(x: Node, train: bool) -> Node:
    """An inference forward's block boundary: start a new tape at x's value.

    Nothing then holds the finished block's nodes and backward closures, so
    its intermediates are freed while the next block runs. A training
    forward keeps the whole tape for backward.
    """
    return x if train else ad.const(x.value)


def encoder_forward(
    params: EncoderParams,
    batch: Batch,
    train: bool = False,
    rng: SeededRng | None = None,
) -> ForwardResult:
    """Run the stacked encoder and classification head over a batch.

    Only a `train=True` forward can be backpropagated through the encoder:
    an inference forward (the default) cuts its tape after the embedding and
    after every attention and feed-forward block, so it holds one block's
    intermediates at a time, and the parameters below the last cut get no
    gradient. The head reads only the last layer's CLS rows, so after the
    last attention an inference forward keeps only those rows: the output
    projection, both layer norms and the feed-forward block of the last
    layer run on B rows instead of B*T. A training forward runs them on
    every position. Dropout applies only when train is True; at dropout 0
    both kinds give bit-identical results.
    """
    cfg = params.cfg
    if train and cfg.dropout > 0.0 and rng is None:
        raise ValidationError("training forward with dropout needs an rng")
    n, t = batch.ids.shape

    x = embed(params, batch.ids, batch.eeg_tokens, batch.eye_tokens)
    x = _dropout(x, n, cfg, train, rng)
    cls = np.arange(n) * t  # CLS position of each sentence
    # Layer-major, so each layer's in-place softmax runs on a contiguous block.
    attention = np.empty((cfg.layers, n, cfg.heads, t, t))
    for layer in range(cfg.layers):  # rebinding x at each cut lets the block before it go
        x = _cut(x, train)
        hidden = x.value
        rows = None if train or layer < cfg.layers - 1 else cls
        x = self_attention(x, batch.masks, params, layer, attention[layer], train, rng, rows)
        x = _cut(x, train)
        x = _feed_forward(x, n, params, layer, train, rng)
    x = _cut(x, train)

    pooled = ad.select_rows(x, cls) if train else x  # an inference forward kept only CLS rows
    fused = fuse_pooled(pooled, batch.sent_eeg, params)
    logits = classify(fused, params)

    return ForwardResult(
        hidden=hidden.reshape(n, t, cfg.d_model),
        logits=logits,
        attention=attention.transpose(1, 0, 2, 3, 4),
    )


# ---------------------------------------------------------------------------
# Finite-difference check of a whole mode
# ---------------------------------------------------------------------------

def _gradcheck_batch(cfg: ModelConfig, seed: int) -> Batch:
    """Two short sentences exercising every feature path, deterministic."""
    rng = SeededRng(seed).derive("gradcheck-data")
    word_ids = [f"w{i}" for i in range(6)]
    vocab = build_vocab([word_ids])
    sentences = [word_ids[:5], word_ids[2:6]]
    records = []
    for i, words in enumerate(sentences):
        n = len(words)
        records.append(CognitiveRecord(
            sentence_id=f"g{i}",
            tokens=words,
            label=i % cfg.n_classes,
            n_fixations=[0, 1, 2, 3, 2][:n],
            eye_tokens=rng.integers(0, 101, size=n),
            eeg_tokens=rng.integers(0, 101, size=n),
            sentence_eeg=rng.normal(0.0, 1.0, size=cfg.eeg_channels),
        ))
    examples = [Example(r.sentence_id, encode(r.tokens, vocab, cfg.max_len), r.label)
                for r in records]
    return build_batch(examples, cfg, FeatureDb(records))


def gradcheck_mode(mode: str, seed: int = 0, layers: int = 2, heads: int = 2,
                   d_model: int = 16, d_ff: int = 32, max_len: int = 16,
                   max_entries: int | None = GRADCHECK_MAX_ENTRIES) -> dict[str, float]:
    """Finite-difference report for one augmentation mode (dropout forced 0).

    Parameters are redrawn at O(0.3) magnitude: at the tiny training init
    the attention is near-uniform and true gradients shrink toward the
    central-difference noise floor, which would measure the probe rather
    than the backward pass.
    """
    cfg = ModelConfig(
        vocab_size=110, n_classes=4, layers=layers, heads=heads, d_model=d_model,
        d_ff=d_ff, max_len=max_len, eeg_channels=4, dropout=0.0, mode=mode,
    )
    batch = _gradcheck_batch(cfg, seed)
    params = random_params(cfg, seed)
    prng = SeededRng(seed).derive("gradcheck-point")
    for p in params.all():
        if p.name.endswith(".gamma"):
            p.value[:] = prng.normal(1.0, 0.2, p.value.shape)
        else:
            p.value[:] = prng.normal(0.0, 0.3, p.value.shape)

    def loss_fn():
        result = encoder_forward(params, batch, train=True)
        return ad.cross_entropy_mean(result.logits, batch.labels)

    return grad_check_report(loss_fn, params.all(), eps=1e-5,
                             max_entries_per_param=max_entries)
