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
layer (no extra pooler). A forward pass returns the per-layer, per-head
attention probabilities of the whole batch as one (B, layers, heads, T, T)
array for the explanation pipeline, unless its caller asks for the logits
only. The tape ops take the `Parameter`s directly as graph leaves, and
backward accumulates into their `grad`. `gradcheck_mode` checks one mode's
full backward pass against central differences.

Sentences carry only their real tokens (CLS + words + SEP); batches pad.
A batch runs at its own width T, not at max_len: the longest real row
rounded up to a multiple of WIDTH_MULTIPLE (`batch_width`). `build_batch`
builds a batch of sentences; `word_selections` builds the batch of a
sentence's LIME perturbations by gathering positions from that sentence's
own batch row, under the same width rule and padding. Padding keys carry a
-10000 additive mask, so their attention weights are exactly zero in
float64 and a wider batch could not change any real row.

`_param_spec(cfg)` alone lists a model's tensors: names, shapes, order,
weight decay and init. EncoderParams lays out its flat buffers from it,
random_params fills them from it, and a checkpoint is `_header(cfg)`
followed by every tensor in spec order; load_checkpoint accepts exactly
that header for its sidecar's config and nothing else.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .checks import check_field_types
from .errors import CheckpointError, ConfigError, ValidationError
from .features import CognitiveRecord, FeatureDb, cognitive_mask
from .files import atomic_open, write_json
from .numerics import autodiff as ad
from .numerics.autodiff import Node, Parameter
from .numerics.gradcheck import grad_check_report
from .numerics.rng import SeededRng
from .tokenizer import MASK_KEEP, MASK_SUPPRESS, PAD_ID, SEP_ID, build_vocab, encode

MODES = (
    "none", "eeg_embed", "eye_embed", "both_embed", "cog_mask",
    "pool_concat", "pool_concat_nn", "pool_multiply", "pool_add_nn",
)
COG_TABLE_ROWS = 101  # cognitive tokens range over 0..100
# The cognitive token tables each embed mode adds to the input embedding sum,
# in the order they are summed; every other mode adds none. Table x is the
# parameter `embed.x` (COG_TABLE_ROWS x d_model), indexed by the record field
# `x_tokens`.
TOKEN_TABLES = {"eeg_embed": ("eeg",), "eye_embed": ("eye",), "both_embed": ("eeg", "eye")}
LN_EPS = 1e-5
INIT_STD = 0.02
GRADCHECK_MAX_ENTRIES = 48
_PARAM_BYTES = 4 * 8  # a parameter's float64 value, gradient and two Adam moments
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

    def memory_terms(self) -> dict[str, int]:
        """Estimated bytes of training on one sentence (see check_memory): the
        weight matrices with their gradients and Adam moments, the classifier
        among them, and the sentence's attention probabilities (layers, heads,
        max_len, max_len)."""
        d = self.d_model
        return {
            "vocab_size, max_len, d_model": (self.vocab_size + self.max_len) * d * _PARAM_BYTES,
            "layers, d_model, d_ff": self.layers * (4 * d + 2 * self.d_ff) * d * _PARAM_BYTES,
            "n_classes, d_model": (self.classifier_in_dim + 1) * self.n_classes * _PARAM_BYTES,
            "layers, heads, max_len": self.layers * self.heads * self.max_len ** 2 * 8,
        }

    @property
    def token_tables(self) -> tuple[str, ...]:
        return TOKEN_TABLES.get(self.mode, ())

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
    """(name, rows, cols, decay) for every tensor the config requires, in the
    order of EncoderParams.names() and of the checkpoint."""
    d, ff = cfg.d_model, cfg.d_ff
    spec = [
        ("embed.word", cfg.vocab_size, d, True),
        ("embed.position", cfg.max_len, d, True),
        *((f"embed.{table}", COG_TABLE_ROWS, d, True) for table in cfg.token_tables),
        ("embed.ln.gamma", 1, d, False), ("embed.ln.beta", 1, d, False),
    ]
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

    `_param_spec(cfg)` alone decides the tensors: their names, shapes and
    order (of names() and of the checkpoint) and which take weight decay.
    It owns two flat float64 buffers, `values` and `grads`, both zero at
    construction, and every Parameter's `value` and `grad` is a reshaped
    view of its slot in them: `zero_grads` is one fill and Adam updates all
    tensors in one pass. Decay-flagged tensors come first, so weight decay
    applies to exactly `values[:n_decay]`. Each slot is padded with zeros to
    a multiple of SLOT_MULTIPLE entries, which no tensor reads. Write
    through a parameter's value and grad; never rebind them.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        spec = _param_spec(cfg)
        self._slots: dict[str, tuple[int, tuple[int, int]]] = {}
        offset = self.n_decay = 0
        for name, rows, cols, decay in sorted(spec, key=lambda s: not s[3]):  # stable: decay first
            self._slots[name] = (offset, (rows, cols))
            offset += -(-rows * cols // SLOT_MULTIPLE) * SLOT_MULTIPLE
            if decay:
                self.n_decay = offset
        self.values = np.zeros(offset)
        self.grads = np.zeros(offset)
        value_views, grad_views = self.views(self.values), self.views(self.grads)
        self._params: dict[str, Parameter] = {}
        for name, _, _, _ in spec:
            self._params[name] = Parameter(name, value_views[name], grad_views[name])

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


def random_params(cfg: ModelConfig, seed: int) -> EncoderParams:
    """N(0, 0.02) decay tensors (weights and embeddings), drawn in spec order;
    unit gammas; every other tensor (biases, betas) zero."""
    rng = SeededRng(seed).derive("init")
    params = EncoderParams(cfg)
    for name, rows, cols, decay in _param_spec(cfg):
        if decay:
            params[name].value[...] = rng.normal(0.0, INIT_STD, size=(rows, cols))
        elif name.endswith(".gamma"):
            params[name].value[...] = 1.0
    return params


# ---------------------------------------------------------------------------
# Checkpoint container: the header _header(cfg) writes, then each tensor of
# the spec in order as row-major float64 little-endian data, with a JSON
# sidecar holding the ModelConfig.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "cogbert-checkpoint v1"
_MIN_LINE = len("n 1 1\n")


def _header(cfg: ModelConfig) -> bytes:
    """The magic and tensor count line, then one `name rows cols` line per
    tensor of the spec: the only checkpoint header a config has."""
    spec = _param_spec(cfg)
    lines = [f"{_CKPT_MAGIC} {len(spec)}", *(f"{n} {r} {c}" for n, r, c, _ in spec)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".config.json")


def save_checkpoint(params: EncoderParams, path: str | Path) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(_header(params.cfg))
        for p in params.all():  # spec order
            fh.write(p.value.astype("<f8").tobytes(order="C"))
    write_json(_sidecar_path(path), params.cfg.to_dict())


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
    """The parameters of a checkpoint whose header is exactly _header of its
    sidecar's config and whose data holds exactly the spec's tensors."""
    sidecar = _sidecar_path(path)
    cfg = _load_sidecar(sidecar)

    try:
        blob = Path(path).read_bytes()
    except IsADirectoryError:
        raise CheckpointError(f"checkpoint {path} is not a regular file") from None
    try:
        magic, count_s = blob[:blob.index(b"\n")].decode("utf-8").rsplit(" ", 1)
        n_tensors = int(count_s)
        if magic != _CKPT_MAGIC:
            raise ValueError
    except ValueError:
        raise CheckpointError(f"{path}: not a checkpoint file") from None
    # Both checks run before _header(cfg), which a sidecar naming 10**30 layers
    # would make endless: the first compares counts, and the second, for a header
    # count edited to match, bounds the header by the file's length (a line holds
    # a name, rows and cols, so at least _MIN_LINE bytes).
    want = _tensor_count(cfg)
    if n_tensors != want:
        raise CheckpointError(f"{path}: header lists {n_tensors} tensors, "
                              f"the config in {sidecar} needs {want}")
    if n_tensors * _MIN_LINE > len(blob):
        raise CheckpointError(f"{path}: header lists {n_tensors} tensors, "
                              f"more than its {len(blob)} bytes can hold")

    header = _header(cfg)
    if not blob.startswith(header):
        # A file cut at a line end holds a prefix of the header's lines: its
        # first missing line reads as ''.
        i, have, need = next((i, a, b) for i, (a, b) in enumerate(zip_longest(
            blob[:len(header)].splitlines(keepends=True), header.splitlines(keepends=True),
            fillvalue=b"")) if a != b)
        raise CheckpointError(
            f"{path}: header line {i + 1} is {have.decode('utf-8', 'backslashreplace')!r}, "
            f"the config in {sidecar} needs {need.decode('utf-8')!r}")
    spec = _param_spec(cfg)
    ends = np.cumsum([rows * cols for _, rows, cols, _ in spec])  # where each tensor's data ends
    if len(blob) - len(header) != 8 * ends[-1]:
        raise CheckpointError(f"{path}: tensor data is {len(blob) - len(header)} bytes, "
                              f"the config in {sidecar} needs {8 * ends[-1]}")

    values = np.frombuffer(blob, "<f8", offset=len(header))  # every tensor, in spec order
    if not np.isfinite(values).all():
        first = np.searchsorted(ends, np.argmin(np.isfinite(values)), side="right")
        raise CheckpointError(f"{path}: tensor {spec[first][0]} holds non-finite values")
    params = EncoderParams(cfg)
    for p, end in zip(params.all(), ends.tolist()):
        p.value[...] = values[end - p.value.size:end].reshape(p.shape)
    return params


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
    """A sentence's ids (tokenizer.encode) with the id of its feature record and its label.

    The ids are [CLS] words... [SEP], unpadded; build_batch reads the
    features of the record's first len(ids) - 2 words.
    """

    sentence_id: str
    ids: np.ndarray
    label: int


@dataclass
class Batch:
    """Model-ready arrays for a batch of tokenized sentences.

    T is the batch width (batch_width, at most max_len); every position
    array has it as its second axis. `tokens` maps each of the mode's token
    tables (ModelConfig.token_tables) to its (B, T) int cognitive tokens and
    holds no other key. Positions beyond a sentence's real row hold PAD_ID,
    a MASK_SUPPRESS mask and cognitive token 0.
    """

    ids: np.ndarray              # (B, T) int token ids
    masks: np.ndarray            # (B, T) additive attention masks
    tokens: dict[str, np.ndarray]  # table -> (B, T) cognitive tokens
    sent_eeg: np.ndarray | None  # (B, C)
    labels: np.ndarray           # (B,) int class labels


def batch_width(longest, max_len: int):
    """The width T of a batch whose longest real row has `longest` positions:
    rounded up to a multiple of WIDTH_MULTIPLE, capped at max_len. longest may
    be an int array, giving one width per entry."""
    return np.minimum(max_len, -(-longest // WIDTH_MULTIPLE) * WIDTH_MULTIPLE)


def _fill(n: int, t: int, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """(n, t) ids, masks and mode token arrays holding only padding: PAD_ID,
    MASK_SUPPRESS and cognitive token 0."""
    return (np.full((n, t), PAD_ID, dtype=np.int64),
            np.full((n, t), MASK_SUPPRESS, dtype=np.float64),
            {table: np.zeros((n, t), dtype=np.int64) for table in cfg.token_tables})


def build_batch(examples: list[Example], cfg: ModelConfig, db: FeatureDb | None = None) -> Batch:
    """Pad the examples' sentences into ids, masks, per-mode feature arrays and labels.

    Every array is batch_width of the longest len(ids) wide; ids longer than
    cfg.max_len are a ValidationError naming their sentence. Each sentence
    fills the first len(ids) positions of its row; the rest is PAD_ID with a
    MASK_SUPPRESS mask. Each of the mode's token tables x gets a (B, T) array
    from the record field `x_tokens`: CLS, SEP, and PAD positions carry
    cognitive token 0 (no measurement exists for them); content position
    j + 1 takes the value of record word j, for j < len(ids) - 2.
    """
    if cfg.needs_features and db is None:
        raise ValidationError(f"mode {cfg.mode!r} requires a feature database")

    for ex in examples:
        if len(ex.ids) > cfg.max_len:
            raise ValidationError(f"{ex.sentence_id}: sentence has {len(ex.ids)} positions, "
                                  f"model max_len is {cfg.max_len}")
    longest = max((len(ex.ids) for ex in examples), default=0)
    n, t = len(examples), batch_width(longest, cfg.max_len)
    ids, masks, tokens = _fill(n, t, cfg)
    sent = np.zeros((n, cfg.eeg_channels)) if cfg.uses_sentence_eeg else None

    for i, ex in enumerate(examples):
        real = slice(0, len(ex.ids))
        ids[i, real] = ex.ids
        masks[i, real] = MASK_KEEP
        if cfg.needs_features:
            rec = db.get(ex.sentence_id)
            words = len(ex.ids) - 2
            if words > len(rec.tokens):
                raise ValidationError(
                    f"{rec.sentence_id}: record covers {len(rec.tokens)} words, "
                    f"sentence reads word {words - 1}"
                )
            content = slice(1, 1 + words)
            if cfg.mode == "cog_mask":
                masks[i, real] = cognitive_mask(rec.n_fixations[:words])
            for table, values in tokens.items():
                values[i, content] = getattr(rec, f"{table}_tokens")[:words]
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
        tokens=tokens,
        sent_eeg=sent,
        labels=np.array([ex.label for ex in examples], dtype=np.int64),
    )


def word_selections(row: Batch, keep: np.ndarray, cfg: ModelConfig) -> Batch:
    """A batch of word selections of the one sentence in `row`.

    row is build_batch of that sentence alone; keep is (R, n) bool over its n words.
    Row r holds CLS, the words keep[r] marks, in order, and SEP, padded to
    batch_width of the longest selection. Every position array is gathered
    from row's columns, which hold per-position values (ids, the cog_mask
    fixation mask, the cognitive tokens), and the sentence EEG vector and
    label are repeated, so the result equals build_batch of the selections
    as sentences with records of their own.
    """
    n_rows, n_words = keep.shape
    if row.ids.shape[0] != 1 or n_words != int((row.ids[0] != PAD_ID).sum()) - 2:
        raise ValidationError(f"word selections need one sentence's batch row with {n_words} "
                              f"words, got a batch of shape {row.ids.shape}")
    picked = np.ones((n_rows, n_words + 2), dtype=bool)  # CLS and SEP stay
    picked[:, 1:-1] = keep
    lengths = picked.sum(axis=1)
    ids, masks, tokens = _fill(n_rows, batch_width(lengths.max(), cfg.max_len), cfg)
    real = np.arange(ids.shape[1]) < lengths[:, None]
    cols = np.nonzero(picked)[1]  # row-major, as real's positions are
    ids[real] = row.ids[0, cols]
    masks[real] = row.masks[0, cols]
    for table, values in tokens.items():
        values[real] = row.tokens[table][0, cols]
    return Batch(
        ids=ids,
        masks=masks,
        tokens=tokens,
        sent_eeg=None if row.sent_eeg is None else np.repeat(row.sent_eeg, n_rows, axis=0),
        labels=np.repeat(row.labels, n_rows),
    )


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def embedding_sum(params: EncoderParams, ids: np.ndarray,
                  tokens: dict[str, np.ndarray]) -> Node:
    """Pre-norm sum of word + position table rows, then the rows of each of
    the mode's token tables in ModelConfig.token_tables order.

    ids and every array of tokens are (B, T); tokens must hold exactly the
    mode's tables. Row b*T + j of the result is sentence b at position j.
    """
    cfg = params.cfg
    if set(tokens) != set(cfg.token_tables):
        raise ValidationError(f"mode {cfg.mode!r} needs cognitive tokens for exactly "
                              f"{list(cfg.token_tables)}, got {sorted(tokens)}")

    n, t = ids.shape
    x = ad.add(
        ad.gather_rows(params["embed.word"], ids.reshape(-1)),
        ad.gather_rows(params["embed.position"], np.tile(np.arange(t), n)),
    )
    for table in cfg.token_tables:
        x = ad.add(x, ad.gather_rows(params[f"embed.{table}"], tokens[table].reshape(-1)))
    return x


def embed(params: EncoderParams, ids: np.ndarray, tokens: dict[str, np.ndarray]) -> Node:
    """Embedding sum, then layer norm (encoder_forward applies the dropout)."""
    x = embedding_sum(params, ids, tokens)
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
    probs_out: np.ndarray | None = None,
    train: bool = False,
    rng: SeededRng | None = None,
    rows: np.ndarray | None = None,
) -> Node:
    """One multi-head self-attention block with residual and layer norm.

    masks is (batch, T). With probs_out (batch, heads, T, T), the detached
    attention probabilities of every query row are written into it. With
    `rows`, one row of each sentence in batch order (its CLS row), only
    those rows of the context and of the residual input go on through the
    output projection and the layer norm, so the result has len(rows) rows.
    If no probs_out is given either, no caller reads the other rows'
    probabilities, so only those rows' queries are projected and attend.
    The projections of the selected rows take x's layout for their
    backward (see autodiff.matmul).
    """
    cfg = params.cfg
    p = f"layer{layer}."
    layout = None if rows is None else (x.value.shape[0], rows)
    queries = x if rows is None or probs_out is not None else ad.select_rows(x, rows)
    q = ad.linear(queries, params[p + "attn.wq"], params[p + "attn.bq"],
                  None if queries is x else layout)
    k = ad.linear(x, params[p + "attn.wk"], params[p + "attn.bk"])
    v = ad.linear(x, params[p + "attn.wv"], params[p + "attn.bv"])
    ctx = ad.multi_head_attention(q, k, v, masks, cfg.heads, probs_out)[0]
    if rows is not None and queries is x:
        ctx, queries = ad.select_rows(ctx, rows), ad.select_rows(x, rows)
    ctx = ad.linear(ctx, params[p + "attn.wo"], params[p + "attn.bo"], layout)
    ctx = _dropout(ctx, masks.shape[0], cfg, train, rng)
    return ad.layer_norm_rows(ad.add(queries, ctx), params[p + "ln1.gamma"],
                              params[p + "ln1.beta"], LN_EPS)


def _feed_forward(x: Node, n: int, params: EncoderParams, layer: int,
                  train: bool, rng: SeededRng | None,
                  layout: tuple[int, np.ndarray] | None = None) -> Node:
    """The feed-forward block of n stacked sentences, residual and layer norm;
    layout as in autodiff.matmul, when x holds rows selected from a larger array."""
    p = f"layer{layer}."
    h = ad.gelu(ad.linear(x, params[p + "ff.w1"], params[p + "ff.b1"], layout))
    h = ad.linear(h, params[p + "ff.w2"], params[p + "ff.b2"], layout)
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
    A logits-only forward (`attention=False`) has None here. An inference
    forward's `logits` node has no backward rule and links only to its
    direct inputs (see autodiff.no_tape).
    """

    # (B, T, d_model) hidden states entering the last layer, detached. Only
    # perfbench/tracing.py (its computed-position count) and tests read it; it
    # goes when perfbench takes that count from the batch shape.
    hidden: np.ndarray
    logits: Node                # (B, n_classes)
    attention: np.ndarray | None  # (B, layers, heads, T, T) view of a layer-major array, detached

    def predictions(self) -> np.ndarray:
        """Argmax per row; ties resolve to the lowest class index."""
        return self.logits.value.argmax(axis=1)


def encoder_forward(
    params: EncoderParams,
    batch: Batch,
    train: bool = False,
    rng: SeededRng | None = None,
    attention: bool = True,
) -> ForwardResult:
    """Run the stacked encoder and classification head over a batch.

    Only a `train=True` forward can be backpropagated: an inference forward
    (the default) runs under `autodiff.no_tape()`, so it records no backward
    rule, each intermediate is freed once the op after its consumer has run,
    and a backward from its logits gives no parameter a gradient. The head
    reads only the last layer's CLS rows, so after the last attention every
    forward keeps only those rows: the output projection, both layer norms
    and the feed-forward block of the last layer run on B rows instead of
    B*T. Their backward runs on the B*T layout (see autodiff.matmul), so the
    gradients are bit-equal to those of a forward that runs them on every
    position. Dropout applies only when train is True; at dropout 0 both
    kinds give bit-identical results.

    attention=False asks for the logits only, as training, `gradcheck_mode`,
    `training.evaluate` and the LIME perturbation forwards do;
    `explain_sentence`'s full-sentence forward asks for the attention maps
    it accumulates. The result's `attention` is then None, and each layer
    writes its probabilities into an array of its own instead of a slice of
    one (layers, B, heads, T, T) array. The last layer also projects queries
    for the CLS rows alone, so that attention computes (B, heads, 1, T)
    probabilities. Its one-row products take the matrix-matrix path (see
    autodiff._rows_product), so the logits and the gradients stay
    bit-identical to those of a forward that computes every query row.
    """
    cfg = params.cfg
    if train and cfg.dropout > 0.0 and rng is None:
        raise ValidationError("training forward with dropout needs an rng")
    n, t = batch.ids.shape

    with contextlib.nullcontext() if train else ad.no_tape():
        x = embed(params, batch.ids, batch.tokens)
        x = _dropout(x, n, cfg, train, rng)
        cls = np.arange(n) * t  # CLS position of each sentence
        # Layer-major, so each layer's in-place softmax runs on a contiguous block.
        maps = np.empty((cfg.layers, n, cfg.heads, t, t)) if attention else None
        for layer in range(cfg.layers):
            hidden = x.value
            rows = cls if layer == cfg.layers - 1 else None
            probs_out = None if maps is None else maps[layer]
            x = self_attention(x, batch.masks, params, layer, probs_out, train, rng, rows)
            x = _feed_forward(x, n, params, layer, train, rng,
                              None if rows is None else (n * t, rows))
        # The last layer kept only the CLS rows: x is the pooled output.
        logits = classify(fuse_pooled(x, batch.sent_eeg, params), params)

    return ForwardResult(
        hidden=hidden.reshape(n, t, cfg.d_model),
        logits=logits,
        attention=None if maps is None else maps.transpose(1, 0, 2, 3, 4),
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
        result = encoder_forward(params, batch, train=True, attention=False)
        return ad.cross_entropy_mean(result.logits, batch.labels)

    return grad_check_report(loss_fn, params.all(), eps=1e-5,
                             max_entries_per_param=max_entries)
