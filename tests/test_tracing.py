"""The benchmark's outside-in tracer still finds and wraps every traced name.

`perfbench/tracing.py` replaces program functions by name; a deleted or
renamed one would only fail a traced benchmark run. This test installs the
tracer and runs a tiny forward and backward under it. The tracer also wraps
every node's backward rule, so the logits and every parameter gradient must
come out bit-equal with and without it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from cogbert import model
from cogbert.features import FeatureDb
from cogbert.numerics import autodiff as ad
from cogbert.tokenizer import build_vocab
from cogbert.training import make_examples
from test_model import make_records, tiny_cfg

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODES = ("cog_mask", "both_embed", "pool_concat", "pool_multiply")


def load_tracing():
    """Import perfbench/tracing.py without writing a bytecode cache beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def forward_and_backward(mode):
    cfg = tiny_cfg(mode=mode, layers=1)
    corpus = [["alpha", "beta", "gamma"], ["beta", "delta"]]
    vocab = build_vocab(corpus)
    db = FeatureDb(make_records(cfg, corpus, seed=1))
    batch = model.build_batch(make_examples(db, vocab, cfg.max_len), cfg, db)
    params = model.random_params(cfg, seed=2)
    result = model.encoder_forward(params, batch, train=True)
    ad.backward(ad.cross_entropy_mean(result.logits, batch.labels))
    return result.logits.value, {p.name: p.grad for p in params.all()}


def test_tracer_wraps_every_traced_name():
    tracing = load_tracing()
    originals = (model.build_batch, model.encoder_forward, ad.matmul)
    untraced = [forward_and_backward(mode) for mode in MODES]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = [forward_and_backward(mode) for mode in MODES]
    assert (model.build_batch, model.encoder_forward, ad.matmul) == originals

    for (logits, grads), (traced_logits, traced_grads) in zip(untraced, traced):
        np.testing.assert_array_equal(logits, traced_logits)
        assert grads.keys() == traced_grads.keys()
        for name in grads:
            np.testing.assert_array_equal(grads[name], traced_grads[name], err_msg=name)
    for op in tracing.AUTODIFF_OPS:
        assert tracer.calls(f"autodiff.{op}.fwd") > 0, op
        assert tracer.calls(f"autodiff.{op}.bwd") > 0, op
    for name in ("model.build_batch", "model.embed", "model.self_attention", "model.fuse_pooled",
                 "model.classify", "model.encoder_forward", "autodiff.backward",
                 "tokenizer.encode", "features.cognitive_mask"):
        assert tracer.calls(name) > 0, name
    metrics = tracer.per_unit_metrics(len(MODES))
    assert 0.0 < metrics["model.real_token_frac"] < 1.0
    assert metrics["autodiff.nodes"] > 0 and metrics["autodiff.matmul_flops"] > 0
