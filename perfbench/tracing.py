"""Outside-in tracing: wrap the program's public functions from the benchmark.

Nothing inside the program changes. `Tracer.installed()` replaces each
traced function in every `cogbert` module namespace that binds it (so
`from .model import build_batch` call sites are caught too) with a wrapper
that records a span, and restores the originals on exit.

A span's inclusive time is its duration; its self time is the duration
minus the inclusive time of the traced spans it directly encloses. Autodiff
op forward spans are leaves, and backward is timed by wrapping the `bwd`
closure of each node an op returns, so every backward rule shows up as a
child span of `autodiff.backward`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from cogbert import explain, features, model, tokenizer, training
from cogbert.numerics import autodiff

AUTODIFF_OPS = (
    "gather_rows", "add", "add_bias", "matmul", "mul_const", "gelu", "layer_norm_rows",
    "multi_head_attention", "select_rows", "concat_cols", "cross_entropy_mean",
)

# (owner, attribute, span name); owners are modules or classes.
FUNCTIONS = (
    (model, "build_batch", "model.build_batch"),
    (model, "embed", "model.embed"),
    (model, "self_attention", "model.self_attention"),
    (model, "fuse_pooled", "model.fuse_pooled"),
    (model, "classify", "model.classify"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (training.Adam, "step", "training.Adam.step"),
    (explain, "lime_explain", "explain.lime_explain"),
    (explain, "weighted_ridge", "explain.weighted_ridge"),
    (explain, "accumulate_attention", "explain.accumulate_attention"),
    (tokenizer, "encode", "tokenizer.encode"),
    (features, "synth_generate", "features.synth_generate"),
    (features, "cognitive_mask", "features.cognitive_mask"),
)

# Layers that run only while a workload sets up; reported per set-up, not per unit.
SETUP_SPANS = ("features.synth_generate", "features.FeatureDb.load_jsonl")


def count_nodes(root) -> int:
    """Distinct nodes reachable from root through parent links (the tape size)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Span totals (inclusive s, self s, calls) plus named counters."""

    def __init__(self):
        self.spans: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: Counter = Counter()
        self._open: list[list[float]] = []  # per open span: inclusive time of its children

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def span(self, name: str, fn, *args, **kwargs):
        children = [0.0]
        self._open.append(children)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._open.pop()
            total = self.spans[name]
            total[0] += duration
            total[1] += duration - children[0]
            total[2] += 1
            if self._open:
                self._open[-1][0] += duration

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _wrap_op(self, op: str, fn):
        fwd_name, bwd_name = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(fwd_name, fn, *args, **kwargs)
            out = result[0] if isinstance(result, tuple) else result
            if op == "matmul":
                (m, k), n = out.parents[0].value.shape, out.value.shape[1]
                self.counts["matmul_flops"] += 2 * m * k * n
            bwd = out.bwd
            if bwd is not None:
                def timed_bwd(g):
                    if op == "matmul":
                        self.counts["matmul_flops"] += 4 * m * k * n
                    return self.span(bwd_name, bwd, g)
                out.bwd = timed_bwd
            return result
        return traced

    def _wrap_backward(self, fn):
        @functools.wraps(fn)
        def traced(root):
            self.counts["backward_nodes"] += self.span("trace.count_nodes", count_nodes, root)
            return self.span("autodiff.backward", fn, root)
        return traced

    def _wrap_forward(self, fn):
        @functools.wraps(fn)
        def traced(params, batch, *args, **kwargs):
            result = self.span("model.encoder_forward", fn, params, batch, *args, **kwargs)
            self.counts["forward_nodes"] += self.span("trace.count_nodes", count_nodes, result.logits)
            self.counts["real_positions"] += int((np.asarray(batch.ids) != tokenizer.PAD_ID).sum())
            self.counts["computed_positions"] += result.hidden.shape[0] * result.hidden.shape[1]
            return result
        return traced

    def _replacements(self):
        """(owner, attribute, original, replacement) for every traced function."""
        out = [(autodiff, op, getattr(autodiff, op), self._wrap_op(op, getattr(autodiff, op)))
               for op in AUTODIFF_OPS]
        out.append((autodiff, "backward", autodiff.backward, self._wrap_backward(autodiff.backward)))
        out.append((model, "encoder_forward", model.encoder_forward,
                    self._wrap_forward(model.encoder_forward)))
        out += [(owner, attr, getattr(owner, attr), self._wrap(name, getattr(owner, attr)))
                for owner, attr, name in FUNCTIONS]
        load = features.FeatureDb.__dict__["load_jsonl"]
        out.append((features.FeatureDb, "load_jsonl", load,
                    classmethod(self._wrap("features.FeatureDb.load_jsonl", load.__func__))))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Trace every call into the program while the block runs."""
        patches = []
        namespaces = [m for name, m in sys.modules.items()
                      if name == "cogbert" or name.startswith("cogbert.")]
        for owner, attr, original, wrapper in self._replacements():
            if isinstance(owner, type):
                patches.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- per-layer metrics ---------------------------------------------------

    def _ms(self, name: str, units: int, self_time: bool = False) -> float:
        total = self.spans.get(name)
        if total is None:
            return 0.0
        return 1000.0 * total[1 if self_time else 0] / units

    def calls(self, name: str) -> int:
        total = self.spans.get(name)
        return 0 if total is None else total[2]

    def per_unit_metrics(self, units: int) -> dict[str, float]:
        """Per-layer metrics of the traced units (every value is per unit)."""
        m: dict[str, float] = {}
        for op in AUTODIFF_OPS:
            m[f"autodiff.{op}.fwd_ms"] = self._ms(f"autodiff.{op}.fwd", units)
            m[f"autodiff.{op}.bwd_ms"] = self._ms(f"autodiff.{op}.bwd", units)
        m["autodiff.backward.self_ms"] = self._ms("autodiff.backward", units, self_time=True)
        # Tape size: walked from the loss where a backward ran, else from each forward's logits.
        nodes = self.counts["backward_nodes"] or self.counts["forward_nodes"]
        m["autodiff.nodes"] = nodes / units
        m["autodiff.matmul_flops"] = self.counts["matmul_flops"] / units
        for layer in ("build_batch", "embed", "self_attention", "fuse_pooled", "classify",
                      "load_checkpoint"):
            m[f"model.{layer}.ms"] = self._ms(f"model.{layer}", units)
        m["model.encoder_forward.self_ms"] = self._ms("model.encoder_forward", units, self_time=True)
        computed = self.counts["computed_positions"]
        m["model.real_token_frac"] = self.counts["real_positions"] / computed if computed else 0.0
        m["training.Adam.step.ms"] = self._ms("training.Adam.step", units)
        m["explain.lime_explain.self_ms"] = self._ms("explain.lime_explain", units, self_time=True)
        m["explain.weighted_ridge.ms"] = self._ms("explain.weighted_ridge", units)
        m["explain.accumulate_attention.ms"] = self._ms("explain.accumulate_attention", units)
        explained = self.calls("explain.lime_explain")
        m["explain.forwards_per_sentence"] = (
            self.calls("model.encoder_forward") / explained if explained else 0.0)
        m["tokenizer.encode.ms"] = self._ms("tokenizer.encode", units)
        m["tokenizer.encode.calls"] = self.calls("tokenizer.encode") / units
        m["features.cognitive_mask.ms"] = self._ms("features.cognitive_mask", units)
        return m

    def setup_metrics(self) -> dict[str, float]:
        """Milliseconds per set-up for the layers that only set-up calls."""
        return {f"{name}.ms": self._ms(name, 1) for name in SETUP_SPANS}

    def call_counts(self) -> dict[str, int]:
        return {name: total[2] for name, total in sorted(self.spans.items())}
