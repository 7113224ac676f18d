"""Minimal reverse-mode autodiff over 2-D float64 arrays.

A forward pass builds a small graph of `Node`s whose leaves are the
`Parameter`s themselves. Every backward rule `out.bwd` is a pure function of
the output's gradient g: it returns one gradient per entry of `out.parents`,
in the same order, and writes no `grad`. `backward` runs the tape in reverse
topological order and alone adds those gradients up, so a parameter's
`grad` holds the sum over all its uses until `zero_grad`. Every backward rule
here is hand-derived and covered by finite-difference checks in the test
suite (see gradcheck.grad_check_report).

Every op below returns one `Node` with one layout of `parents`; `const`,
`softmax`, `linear` and `no_tape` are helpers, not ops.

Constant inputs (sentence EEG vectors) enter the graph as `const` leaves,
which take no gradient: `backward` stores none on them, and `matmul`
returns None for a const left operand instead of computing its `g @ b.T`
product.

Inside `no_tape()` the ops compute the same values but record no tape: a
node keeps no backward rule and links only to its direct inputs, so each
intermediate is freed as soon as the op after its consumer has run. An
inference forward runs so. Where no backward will read an array, the ops
then also save memory, bit-identically: attention without `probs_out`
runs in blocks of sentences whose probabilities are no bigger than its
keys, and GELU adds its 1 into its `tanh` array in place. `layer_norm_rows`
normalises a sum `x + residual` as one node, taped or not.

`add`, `add_bias`, `mul_const`, `layer_norm_rows` and `gelu` take
`overwrite=False`. With `overwrite=True` the caller hands over one operand's
array (add's a, add_bias's and mul_const's x, layer_norm_rows' residual,
gelu's x) and promises that nothing reads it again: the op writes its result
into that array, bit for bit the value it would allocate. `gelu` overwrites
only without a tape, because its taped backward reads x. Once a node is
consumed so, its `value` holds its consumer's result (a layer norm's: the
normalised sum xhat its backward reads), and only the node's own backward
rule remains, which never reads that value: no rule reads its own node's
value (matmul's reads its inputs; add's, add_bias', mul_const's and
gather_rows' read g, a constant or ids).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from ..errors import ShapeError

# GELU tanh-approximation constants.
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


# False inside no_tape(): ops then record no backward rule and no links past one op.
_taping = True


@contextlib.contextmanager
def no_tape():
    """Build nodes without a tape while the block runs; restores the previous
    state on exit, also on an exception, so it nests.

    Each node built meanwhile keeps no backward rule (`bwd` is None) and
    empties its inputs' own `parents`, so a live node holds its direct inputs
    only. That one hop stays because perfbench/tracing.py reads a matmul's
    left operand shape from `out.parents[0]` to count its flops. A backward
    from such a node reaches no parameter.
    """
    global _taping
    previous, _taping = _taping, False
    try:
        yield
    finally:
        _taping = previous


class Node:
    """One value in the computation graph; bwd is its backward rule, if any."""

    __slots__ = ("value", "grad", "parents", "bwd")

    def __init__(self, value, parents=(), bwd=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.bwd = bwd
        if not _taping:
            self.bwd = None
            for parent in parents:
                parent.parents = ()

    def item(self) -> float:
        return float(self.value.reshape(-1)[0])


class Parameter(Node):
    """A named trainable 2-D tensor: a graph leaf with a persistent gradient.

    `grad` starts zeroed (a new array, or the given zeroed buffer) and
    `backward` adds every use's gradient into it in place, so it stays the
    same array until `zero_grad` clears it.

    Inside a model's `EncoderParams`, `value` and `grad` are views into its
    flat buffers: write through them (`p.value[:] = ...`), never rebind them.
    Which parameters take weight decay is set by the model's parameter spec.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, value, grad: np.ndarray | None = None):
        value = np.ascontiguousarray(value, dtype=np.float64)
        if value.ndim != 2:
            raise ShapeError(f"parameter {name!r} must be 2-D, got {value.shape}")
        super().__init__(value)
        self.name = name
        self.grad = np.zeros_like(value) if grad is None else grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def const(value) -> Node:
    return Node(np.asarray(value, dtype=np.float64))


def _is_const(node: Node) -> bool:
    """A leaf that is not a Parameter: nothing reads its gradient."""
    return node.bwd is None and not isinstance(node, Parameter)


def backward(root: Node) -> None:
    """Seed root with ones and run the tape, summing each node's gradients in its grad.

    A Parameter's grad is added to in place. Any other node's grad is the
    first gradient it gets, replaced by grad + g for each later one: a rule
    may hand the same array to several parents, so none is written to. A
    const leaf takes no gradient: what a rule returns for it (None from
    matmul) is dropped.
    """
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    def accumulate(node: Node, g: np.ndarray | None) -> None:
        if isinstance(node, Parameter):
            node.grad += g
        elif not _is_const(node):
            node.grad = g if node.grad is None else node.grad + g

    accumulate(root, np.ones_like(root.value))
    for node in reversed(order):
        if node.grad is not None and node.bwd is not None:
            for parent, g in zip(node.parents, node.bwd(node.grad), strict=True):
                accumulate(parent, g)


# ---------------------------------------------------------------------------
# Differentiable ops
# ---------------------------------------------------------------------------

def add(a: Node, b: Node, overwrite: bool = False) -> Node:
    """a + b; with overwrite, written into a's array (see the module docstring)."""
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    value = np.add(a.value, b.value, out=a.value if overwrite else None)
    return Node(value, (a, b), lambda g: (g, g))


def add_bias(x: Node, b: Node, overwrite: bool = False) -> Node:
    """x (n, d) + b (1, d), broadcasting the bias row over all rows; with
    overwrite, written into x's array."""
    if b.value.shape != (1, x.value.shape[1]):
        raise ShapeError(f"bias {b.value.shape} does not broadcast over {x.value.shape}")
    value = np.add(x.value, b.value, out=x.value if overwrite else None)
    return Node(value, (x, b), lambda g: (g, g.sum(axis=0, keepdims=True)))


def mul_const(x: Node, c: np.ndarray, overwrite: bool = False) -> Node:
    """Elementwise multiply by a constant (broadcastable) array; with overwrite,
    written into x's array."""
    value = np.multiply(x.value, c, out=x.value if overwrite else None)
    return Node(value, (x,), lambda g: (g * c,))


def _rows_product(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ y by the matrix-matrix path, also where x's matrices have one row.

    x and y are matrices or stacks of them, as np.matmul takes them; out,
    when given, receives the product. numpy multiplies a one-row matrix by
    its matrix-vector path, which sums in another order; the first row of
    [x; 0] @ y takes the matrix-matrix path, so it is bit-equal to x's row
    of a product with more rows (a batch of sentences, or every query row of
    an attention) where the BLAS runs both sizes with one kernel (see
    README). One home for that rule: matmul and attention both use it, in
    the forward and in the backward.

    Fewer rows can still take another kernel, or another blocking of a
    weight gradient's sum over rows, than the product they were cut from.
    So a matmul whose rows were selected from a larger array (the CLS rows
    of a model's last layer) is given that array's layout: see `_full_rows`.
    """
    if x.shape[-2] != 1:
        return np.matmul(x, y, out=out)
    product = (np.concatenate([x, np.zeros_like(x)], axis=-2) @ y)[..., :1, :]
    if out is None:
        return product
    out[...] = product
    return out


def _full_rows(layout: tuple[int, np.ndarray], m: np.ndarray) -> np.ndarray:
    """m's rows at their positions `rows` of an otherwise zero (n, cols) array.

    layout is (n, rows). A matmul given this layout runs its backward on the
    full array: with g and a placed so, dx is the `rows` rows of
    g_full @ W.T and dW is a_full.T @ g_full. Those are the products of the
    full-row computation whose other rows get zero gradient, and the BLAS
    picks the same kernel and blocking for them, so the gradients are
    bit-equal to it; the zero rows add exact zeros to every sum.
    """
    n, rows = layout
    full = np.zeros((n, m.shape[1]))
    full[rows] = m
    return full


def matmul(a: Node, b: Node, layout: tuple[int, np.ndarray] | None = None) -> Node:
    """a @ b; every row's result is the same at any row count of a.

    The backward gives a const leaf `a` no gradient (None). With layout
    (n, rows), a's rows are the rows `rows` of an n-row array that the
    caller cut them from, and the backward runs on that full layout (see
    `_full_rows`). The forward is the same either way.
    """
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"cannot multiply {a.value.shape} by {b.value.shape}: inner dimensions differ")
    value = _rows_product(a.value, b.value)
    if layout is None:
        return Node(value, (a, b), lambda g: (
            None if _is_const(a) else _rows_product(g, b.value.T), a.value.T @ g))
    rows = layout[1]

    def bwd(g):
        g_full = _full_rows(layout, g)
        da = None if _is_const(a) else _rows_product(g_full, b.value.T)[rows]
        return da, _full_rows(layout, a.value).T @ g_full

    return Node(value, (a, b), bwd)


def linear(x: Node, w: Node, b: Node, layout: tuple[int, np.ndarray] | None = None) -> Node:
    """x @ w + b; layout as in `matmul`. The bias is added into the product's
    own array, which only the `add_bias` node reads: the matmul node keeps
    its backward rule, which reads x and w alone."""
    return add_bias(matmul(x, w, layout), b, overwrite=True)


def _gelu(x: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU via the tanh approximation 0.5*x*(1 + tanh(c*(x + a*x^3))), and that tanh.

    The steps of `0.5 * x * (1.0 + np.tanh(c * (x + a * x * x * x)))`, in
    Python's evaluation order, run in place (bit-equal); the tanh array is
    returned too, for the backward. Without a tape no backward reads it: the
    1 is added into it in place, and None is returned in its stead. Without
    a tape, overwrite also writes the result into x's array; a taped
    backward reads x, so with a tape x is kept.
    """
    t = _GELU_A * x
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    if not _taping:
        out = np.multiply(x, 0.5, out=x if overwrite else None)
        t += 1.0
        out *= t
        return out, None
    out = 0.5 * x
    out *= 1.0 + t
    return out, t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Analytic derivative of the tanh-approximated GELU at x, where t is
    the forward's tanh(c*(x + a*x^3))."""
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


def gelu(x: Node, overwrite: bool = False) -> Node:
    """GELU of x; overwrite as in `_gelu`."""
    value, t = _gelu(x.value, overwrite)
    return Node(value, (x,), lambda g: (g * _gelu_grad(x.value, t),))


def softmax(scores: np.ndarray) -> np.ndarray:
    """Plain-numpy softmax over the last axis, with max subtraction.

    Not a tape op: it serves detached class probabilities, and attention
    runs the same steps in place (`_softmax_in_place`). Entries as negative
    as -10000 (additive attention masks) underflow to exact zero.
    """
    return _softmax_in_place(np.array(scores, dtype=np.float64))


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True) of a non-empty last axis: the same maxima,
    by a reduction with an initial value, which numpy runs about twice as
    fast. Where a row's maximum is a zero, its sign may differ."""
    return np.maximum.reduce(x, axis=-1, keepdims=True, initial=-np.inf)


def _softmax_in_place(x: np.ndarray) -> np.ndarray:
    """Overwrite x with its softmax over the last axis and return it."""
    x -= _row_max(x)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def layer_norm_rows(x: Node, residual: Node, gamma: Node, beta: Node,
                    eps: float = 1e-5, overwrite: bool = False) -> Node:
    """Row-wise layer norm of x + residual ("Add & Norm"); gamma and beta are (1, d) rows.

    The sum is centred in place into xhat, and the mean and biased variance
    are `sum / d`, bit-equal to np.mean and np.var: each step is the
    textbook form's after `add`. Both summands get the same gradient array,
    as `add` hands its two, so the graph walk and every gradient sum are
    those of the layer norm of `add(x, residual)`, one node fewer. With
    overwrite, xhat is the residual's array: residual + x is bit-equal to
    x + residual, and the backward reads xhat, not the residual.
    """
    xv = x.value
    d = xv.shape[1]
    if residual.value.shape != xv.shape:
        raise ShapeError(f"residual shape mismatch: {xv.shape} vs {residual.value.shape}")
    xhat = np.add(residual.value, xv, out=residual.value if overwrite else None)
    xhat -= xhat.sum(axis=1, keepdims=True) / d
    y = xhat * xhat
    inv_std = 1.0 / np.sqrt(y.sum(axis=1, keepdims=True) / d + eps)
    xhat *= inv_std
    np.multiply(xhat, gamma.value, out=y)
    y += beta.value

    def bwd(g):
        # dx = inv_std * (dxhat - mean(dxhat) - xhat * sum(dxhat * xhat) / d)
        dx = g * gamma.value
        proj = xhat * (dx * xhat).sum(axis=1, keepdims=True)
        proj /= d
        dx -= dx.sum(axis=1, keepdims=True) / d
        dx -= proj
        dx *= inv_std
        return dx, dx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return Node(y, (x, residual, gamma, beta), bwd)


def _scatter_rows(shape: tuple[int, int], rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a row gather: zeros of `shape` with g's rows summed in at `rows`.

    bincount adds each entry's weights in input order from 0.0, as np.add.at
    would, so repeated rows sum bit-identically.
    """
    n, d = shape
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n * d).reshape(shape)


def gather_rows(table: Node, ids: np.ndarray) -> Node:
    """Select table rows by integer index (embedding lookup)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min(initial=0) < 0 or ids.max(initial=-1) >= table.value.shape[0]:
        raise IndexError(
            f"row index out of range for table with {table.value.shape[0]} rows: "
            f"[{ids.min()}, {ids.max()}]"
        )
    return Node(table.value[ids], (table,),
                lambda g: (_scatter_rows(table.value.shape, ids, g),))


def select_rows(x: Node, idx: np.ndarray) -> Node:
    """Pick a subset of rows (e.g. the CLS position of each sentence)."""
    idx = np.asarray(idx, dtype=np.int64)
    return Node(x.value[idx], (x,), lambda g: (_scatter_rows(x.value.shape, idx, g),))


def concat_cols(a: Node, b: Node) -> Node:
    if a.value.shape[0] != b.value.shape[0]:
        raise ShapeError(f"cannot concat {a.value.shape} with {b.value.shape}: row counts differ")
    na = a.value.shape[1]
    return Node(np.concatenate([a.value, b.value], axis=1), (a, b),
                lambda g: (g[:, :na], g[:, na:]))


def multi_head_attention(
    q: Node, k: Node, v: Node, mask: np.ndarray, n_heads: int,
    probs_out: np.ndarray | None = None,
) -> Node:
    """Scaled dot-product attention over a batch of stacked sentences.

    k and v are (batch*seq, d) with sentences stacked row-wise; mask is a
    (batch, seq) additive mask (0 or -10000) applied to every query row of
    its sentence. q holds the same number r of query rows for every
    sentence, stacked the same way as (batch*r, d): all seq rows, or fewer,
    such as each sentence's CLS row alone (the last layer of a logits-only
    forward, which reads no attention maps). Returns the re-stacked context
    (batch*r, d) alone. The scores are scaled, masked and turned into per-head
    probabilities in place, in probs_out when given, where a caller reads
    them (a float64 (batch, n_heads, r, seq) array, such as one layer's slice
    of a whole forward's attention), else in a new array. The backward reads
    them, so they must not change before it runs. Each sentence's context is
    written straight into its rows of the result, through a
    (batch, heads, r, head width) view of it.

    When neither a tape nor probs_out keeps the probabilities (inside
    no_tape()), the sentences run in blocks whose probabilities hold no
    more entries than k, each block's overwriting the last's. Every step
    works per sentence, so the context is the same, bit for bit, at any
    block size.

    Both products, and the backward's two products with one row per query
    (dctx @ vh^T and dscores @ kh), go through _rows_product, so with one
    query row they take the matrix-matrix path: the probabilities, the
    context and every gradient are bit-equal to those of the attention of
    all seq query rows where only that row's context gets a gradient.
    """
    n_batch, seq = mask.shape
    d = k.value.shape[1]
    if d % n_heads:
        raise ShapeError(f"model dim {d} not divisible by {n_heads} heads")
    if q.value.shape[0] % n_batch or q.value.shape[1] != d:
        raise ShapeError(f"queries {q.value.shape} do not stack evenly over {n_batch} "
                         f"sentences of width {d}")
    n_q, hd = q.value.shape[0] // n_batch, d // n_heads
    inv_scale = 1.0 / math.sqrt(hd)

    def split(m: np.ndarray, rows: int) -> np.ndarray:
        return m.reshape(n_batch, rows, n_heads, hd).transpose(0, 2, 1, 3)

    def unsplit(m: np.ndarray) -> np.ndarray:
        return m.transpose(0, 2, 1, 3).reshape(-1, d)

    kept = _taping or probs_out is not None
    step = n_batch if kept else min(n_batch, max(1, k.value.size // (n_heads * n_q * seq)))
    probs = np.empty((step, n_heads, n_q, seq)) if probs_out is None else probs_out
    context = np.empty((n_batch * n_q, d))
    qh, kh, vh, ctx_h = (split(q.value, n_q), split(k.value, seq), split(v.value, seq),
                         split(context, n_q))
    for start in range(0, n_batch, step):
        b = slice(start, start + step)
        block = _rows_product(qh[b], kh[b].transpose(0, 1, 3, 2), probs[:len(qh[b])])
        block *= inv_scale
        block += mask[b, None, None, :]
        _softmax_in_place(block)
        _rows_product(block, vh[b], ctx_h[b])

    def bwd(g):
        dctx = split(g, n_q)
        dprobs = _rows_product(dctx, vh.transpose(0, 1, 3, 2))
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        dscores = (dprobs - (dprobs * probs).sum(axis=3, keepdims=True)) * probs
        dq = _rows_product(dscores, kh) * inv_scale
        dk = dscores.transpose(0, 1, 3, 2) @ qh * inv_scale
        return unsplit(dq), unsplit(dk), unsplit(dv)

    return Node(context, (q, k, v), bwd)


def cross_entropy_mean(logits: Node, labels: np.ndarray) -> Node:
    """Mean of -log softmax(logits_i)[labels_i] over the batch."""
    labels = np.asarray(labels, dtype=np.int64)
    lv = logits.value
    if labels.min() < 0 or labels.max() >= lv.shape[1]:
        raise IndexError(f"label out of range for {lv.shape[1]} classes")
    shifted = lv - _row_max(lv)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    n = lv.shape[0]
    loss = -logp[np.arange(n), labels].mean()

    def bwd(g):
        dl = np.exp(logp)
        dl[np.arange(n), labels] -= 1.0
        return (dl * (g[0, 0] / n),)

    return Node(np.array([[loss]]), (logits,), bwd)
