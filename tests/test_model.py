"""Encoder contracts: config validation, init and checkpoints, embedding sums,
attention mask semantics, pooled fusion math, and full-forward gradients."""

import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cogbert.errors import CheckpointError, ConfigError, FeatureLookupError, ValidationError
from cogbert.features import CognitiveRecord, FeatureDb
from cogbert.model import (
    MODES,
    WIDTH_MULTIPLE,
    Example,
    ModelConfig,
    _dropout,
    _feed_forward,
    _header,
    _param_spec,
    build_batch,
    classify,
    embed,
    embedding_sum,
    encoder_forward,
    fuse_pooled,
    init_params,
    load_checkpoint,
    random_params,
    save_checkpoint,
    self_attention,
)
from cogbert.numerics import autodiff as ad
from cogbert.numerics.gradcheck import grad_check_report
from cogbert.numerics.rng import SeededRng
from cogbert.training import make_examples
from cogbert.tokenizer import MASK_KEEP, MASK_SUPPRESS, PAD_ID, build_vocab, encode


def tiny_cfg(**overrides):
    base = dict(vocab_size=120, n_classes=4, layers=2, heads=2, d_model=16,
                d_ff=32, max_len=12, eeg_channels=4, dropout=0.0, mode="none")
    base.update(overrides)
    return ModelConfig(**base)


def make_records(cfg, words_per_sentence, seed=0):
    rng = SeededRng(seed).derive("records")
    records = []
    for i, words in enumerate(words_per_sentence):
        n = len(words)
        n_fix = rng.integers(0, 4, size=n)
        records.append(CognitiveRecord(
            sentence_id=f"t{i}",
            tokens=list(words),
            label=int(i % cfg.n_classes),
            n_fixations=n_fix,
            eye_tokens=np.where(n_fix > 0, rng.integers(1, 101, size=n), 0),
            eeg_tokens=np.where(n_fix > 0, rng.integers(1, 101, size=n), 0),
            sentence_eeg=rng.normal(size=cfg.eeg_channels),
        ))
    return records


def make_batch(cfg, seed=0, n_sentences=3):
    corpus = [["alpha", "beta", "gamma", "delta"],
              ["beta", "delta", "epsilon"],
              ["zeta", "alpha"]][:n_sentences]
    vocab = build_vocab(corpus)
    records = make_records(cfg, corpus, seed)
    db = FeatureDb(records)
    return build_batch(make_examples(db, vocab, cfg.max_len), cfg, db), db


class TestModelConfig:
    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(layers=0)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(d_model=10, heads=4)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(mode="telepathy")

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            tiny_cfg(dropout=1.0)

    def test_vocab_must_cover_reserved_ids(self):
        with pytest.raises(ConfigError):
            tiny_cfg(vocab_size=50)

    def test_classifier_width_per_mode(self):
        assert tiny_cfg(mode="pool_concat").classifier_in_dim == 16 + 4
        assert tiny_cfg(mode="pool_concat_nn").classifier_in_dim == 32
        assert tiny_cfg(mode="pool_multiply").classifier_in_dim == 16
        assert tiny_cfg(mode="none").classifier_in_dim == 16

    def test_round_trips_through_dict(self):
        cfg = tiny_cfg(mode="cog_mask")
        assert ModelConfig(**cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field, value", [
        ("d_model", 16.0), ("max_len", 10.5), ("layers", True), ("vocab_size", "120"),
        ("d_ff", None), ("n_classes", 4.0), ("heads", 2.0), ("eeg_channels", False),
    ])
    def test_non_integer_size_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_cfg(**{field: value})

    def test_non_number_dropout_rejected(self):
        for value in ("0.1", True, None):
            with pytest.raises(ConfigError, match="dropout"):
                tiny_cfg(dropout=value)

    def test_numpy_integer_sizes_accepted(self):
        assert tiny_cfg(d_model=np.int64(16)).d_model == 16


class TestInitAndCheckpoints:
    def test_same_seed_identical_parameters(self):
        a = random_params(tiny_cfg(), seed=7)
        b = random_params(tiny_cfg(), seed=7)
        for pa, pb in zip(a.all(), b.all()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_init_statistics(self):
        params = random_params(tiny_cfg(), seed=7)
        np.testing.assert_array_equal(params["embed.ln.gamma"].value, 1.0)
        np.testing.assert_array_equal(params["layer0.attn.bq"].value, 0.0)
        word = params["embed.word"].value
        assert abs(word.std() - 0.02) < 0.005

    def test_checkpoint_round_trip_bit_identical(self, tmp_path):
        params = random_params(tiny_cfg(mode="pool_add_nn"), seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        assert path.read_bytes().startswith(_header(params.cfg))
        loaded = load_checkpoint(path)
        assert loaded.cfg == params.cfg
        for name in params.names():
            np.testing.assert_array_equal(loaded[name].value, params[name].value)
        assert loaded.n_decay == params.n_decay
        np.testing.assert_array_equal(loaded.values, params.values)  # same slots and padding

    def test_wrong_shape_checkpoint_names_tensor(self, tmp_path):
        params = random_params(tiny_cfg(), seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        # Corrupt the sidecar so expected shapes change.
        sidecar = tmp_path / "model.ckpt.config.json"
        import json
        cfg_dict = json.loads(sidecar.read_text())
        cfg_dict["d_ff"] = 64
        sidecar.write_text(json.dumps(cfg_dict))
        with pytest.raises(CheckpointError, match="ff.w1"):
            load_checkpoint(path)

    def test_data_one_tensor_short_or_long_rejected(self, tmp_path):
        params = random_params(tiny_cfg(), seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        blob, header = path.read_bytes(), len(_header(params.cfg))
        last = params.all()[-1].value.nbytes
        for edited in (blob[:-last], blob + blob[-last:]):
            path.write_bytes(edited)
            message = (f"{path}: tensor data is {len(edited) - header} bytes, "
                       f"the config in {path}.config.json needs {len(blob) - header}")
            with pytest.raises(CheckpointError, match=re.escape(message)):
                load_checkpoint(path)

    def test_first_non_finite_tensor_named(self, tmp_path):
        """Two tensors hold a non-finite value: the error names the first in the
        checkpoint's order, also when its bad value is its last or first entry."""
        params = random_params(tiny_cfg(mode="both_embed"), seed=3)
        names = params.names()
        path = tmp_path / "model.ckpt"
        cases = ((3, 9, (-1, -1)), (0, 1, (0, 0)), (4, len(names) - 1, (0, -1)))
        for first, second, (row, col) in cases:  # tensor indices, and where first's bad value sits
            bad = random_params(params.cfg, seed=3)
            bad[names[first]].value[row, col] = np.nan
            bad[names[second]].value[0, 0] = -np.inf
            save_checkpoint(bad, path)
            with pytest.raises(CheckpointError) as err:
                load_checkpoint(path)
            assert str(err.value) == f"{path}: tensor {names[first]} holds non-finite values"

    def test_init_params_dispatches_to_checkpoint(self, tmp_path):
        cfg = tiny_cfg()
        params = random_params(cfg, seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = init_params(cfg, str(path))
        np.testing.assert_array_equal(loaded["embed.word"].value, params["embed.word"].value)
        fresh = init_params(cfg, "random", seed=11)
        np.testing.assert_array_equal(fresh["embed.word"].value, params["embed.word"].value)


def assert_flat_storage(params):
    """Every value and grad is its slot's view of the flat buffers, decay tensors first."""
    decay = {name: flag for name, _, _, flag in _param_spec(params.cfg)}
    assert params.names() == list(decay)  # spec order
    values, grads = params.views(params.values), params.views(params.grads)
    assert list(values) == sorted(params.names(), key=lambda n: not decay[n])
    for p in params.all():
        for tensor, slot, flat in ((p.value, values[p.name], params.values),
                                   (p.grad, grads[p.name], params.grads)):
            assert tensor.shape == slot.shape and np.shares_memory(tensor, flat), p.name
            assert tensor.__array_interface__["data"] == slot.__array_interface__["data"], p.name
        assert np.shares_memory(p.value, params.values[:params.n_decay]) == decay[p.name], p.name


class TestFlatStorage:
    def test_random_params_are_views(self):
        for mode in MODES:
            assert_flat_storage(random_params(tiny_cfg(mode=mode), seed=2))

    def test_loaded_params_are_views(self, tmp_path):
        params = random_params(tiny_cfg(mode="pool_concat_nn"), seed=2)
        save_checkpoint(params, tmp_path / "model.ckpt")
        assert_flat_storage(load_checkpoint(tmp_path / "model.ckpt"))

    def test_gradcheck_params_are_views(self, monkeypatch):
        import cogbert.model as model_module
        made = []

        def recording_random_params(cfg, seed):
            made.append(random_params(cfg, seed))
            return made[-1]

        monkeypatch.setattr(model_module, "random_params", recording_random_params)
        report = model_module.gradcheck_mode("pool_add_nn", layers=1, max_entries=2)
        assert len(made) == 1 and report.keys() == set(made[0].names())
        assert_flat_storage(made[0])
        assert np.abs(made[0].grads).max() > 0.0  # backward wrote through the views

    def test_zero_grads_clears_every_grad(self):
        cfg = tiny_cfg(mode="both_embed")
        params = random_params(cfg, seed=3)
        batch, _ = make_batch(cfg, seed=3)
        result = encoder_forward(params, batch, train=True)
        ad.backward(ad.cross_entropy_mean(result.logits, batch.labels))
        assert all(np.abs(p.grad).max() > 0.0 for p in params.all())
        params.zero_grads()
        for p in params.all():
            np.testing.assert_array_equal(p.grad, 0.0, err_msg=p.name)
        assert_flat_storage(params)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        for mode in ("eeg_embed", "pool_concat"):
            params = random_params(tiny_cfg(mode=mode), seed=6)
            first, second = tmp_path / f"{mode}-1.ckpt", tmp_path / f"{mode}-2.ckpt"
            save_checkpoint(params, first)
            save_checkpoint(load_checkpoint(first), second)
            assert first.read_bytes() == second.read_bytes()
            assert (Path(str(first) + ".config.json").read_bytes()
                    == Path(str(second) + ".config.json").read_bytes())


class TestEmbedding:
    def test_matches_brute_force_table_sum(self):
        cfg = tiny_cfg(mode="both_embed")
        params = random_params(cfg, seed=5)
        rng = SeededRng(9).derive("ids")
        b, t = 3, cfg.max_len - 2
        ids = rng.integers(0, cfg.vocab_size, size=(b, t))
        eeg = rng.integers(0, 101, size=(b, t))
        eye = rng.integers(0, 101, size=(b, t))
        out = embedding_sum(params, ids, {"eeg": eeg, "eye": eye}).value

        expected = np.zeros((b * t, cfg.d_model))
        for i in range(b):
            for pos in range(t):
                expected[i * t + pos] = (
                    params["embed.word"].value[ids[i, pos]]
                    + params["embed.position"].value[pos]
                    + params["embed.eeg"].value[eeg[i, pos]]
                    + params["embed.eye"].value[eye[i, pos]]
                )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zeroed_position_table_leaves_normalized_word_rows(self):
        cfg = tiny_cfg(mode="none")
        params = random_params(cfg, seed=5)
        params["embed.position"].value[:] = 0.0
        ids = np.arange(cfg.max_len)[None, :] % 10
        out = embed(params, ids, {}).value
        rows = params["embed.word"].value[ids[0]]
        mean = rows.mean(axis=1, keepdims=True)
        var = ((rows - mean) ** 2).mean(axis=1, keepdims=True)
        expected = ((rows - mean) / np.sqrt(var + 1e-5) * params["embed.ln.gamma"].value
                    + params["embed.ln.beta"].value)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zero_tokens_share_table_row(self):
        cfg = tiny_cfg(mode="eeg_embed")
        params = random_params(cfg, seed=5)
        ids = np.zeros((4, 1), dtype=int)  # four sentences, all at position 0
        eeg = np.zeros((4, 1), dtype=int)
        out = embedding_sum(params, ids, {"eeg": eeg}).value
        assert np.ptp(out, axis=0).max() == 0.0  # identical rows

    def test_token_out_of_range_is_index_error(self):
        cfg = tiny_cfg(mode="eeg_embed")
        params = random_params(cfg, seed=5)
        with pytest.raises(IndexError):
            embedding_sum(params, np.zeros((1, 2), dtype=int), {"eeg": np.array([[0, 101]])})

    def test_token_tables_per_mode(self):
        """The embed modes add their tables, in summing and spec order; the others none."""
        want = {"eeg_embed": ["eeg"], "eye_embed": ["eye"], "both_embed": ["eeg", "eye"]}
        for mode in MODES:
            cfg = tiny_cfg(mode=mode)
            assert list(cfg.token_tables) == want.get(mode, []), mode
            names = random_params(cfg, seed=1).names()
            assert names[2:names.index("embed.ln.gamma")] == [
                f"embed.{table}" for table in want.get(mode, [])], mode

    def test_token_arrays_present_iff_mode_requires(self):
        ids = np.zeros((1, 2), dtype=int)
        for mode in MODES:
            params = random_params(tiny_cfg(mode=mode), seed=1)
            tables = params.cfg.token_tables
            embedding_sum(params, ids, dict.fromkeys(tables, ids))
            wrong = [tables[:i] + tables[i + 1:] for i in range(len(tables))]  # one dropped
            wrong += [tables + (extra,) for extra in ("eeg", "eye") if extra not in tables]
            for keys in wrong:
                with pytest.raises(ValidationError, match="needs cognitive tokens"):
                    embedding_sum(params, ids, dict.fromkeys(keys, ids))


class TestForward:
    def test_deterministic_without_dropout(self):
        cfg = tiny_cfg()
        params = random_params(cfg, seed=2)
        batch, _ = make_batch(cfg)
        a = encoder_forward(params, batch)
        b = encoder_forward(params, batch)
        np.testing.assert_array_equal(a.logits.value, b.logits.value)

    def test_trace_shape_and_row_sums(self):
        cfg = tiny_cfg()
        params = random_params(cfg, seed=2)
        batch, _ = make_batch(cfg)
        result = encoder_forward(params, batch)
        t = batch.ids.shape[1]
        assert result.attention.shape == (batch.ids.shape[0], cfg.layers, cfg.heads, t, t)
        np.testing.assert_allclose(result.attention.sum(axis=4), 1.0, atol=1e-6)

    def test_pad_columns_get_no_attention(self):
        cfg = tiny_cfg()
        params = random_params(cfg, seed=2)
        batch, _ = make_batch(cfg)
        result = encoder_forward(params, batch)
        for i, attention in enumerate(result.attention):
            pad = batch.masks[i] < 0
            assert attention[:, :, :, pad].max() < 1e-4

    def test_cog_mask_suppresses_scarcely_fixated_tokens(self):
        cfg = tiny_cfg(mode="cog_mask")
        params = random_params(cfg, seed=2)
        batch, db = make_batch(cfg)
        result = encoder_forward(params, batch)
        # make_batch builds the db in batch order
        for attention, sentence_id in zip(result.attention, db.ids(), strict=True):
            rec = db.get(sentence_id)
            for pos, n_fix in enumerate(rec.n_fixations, start=1):
                if n_fix <= 1:
                    assert attention[:, :, :, pos].max() < 1e-4

    def test_missing_record_names_sentence(self):
        cfg = tiny_cfg(mode="eeg_embed")
        vocab = build_vocab([["alpha", "beta"]])
        ids = encode(["alpha", "beta"], vocab, cfg.max_len)
        db = FeatureDb([])
        with pytest.raises(FeatureLookupError, match="ghost"):
            build_batch([Example("ghost", ids, 0)], cfg, db)

    def test_truncated_sentence_keeps_feature_alignment(self):
        cfg = tiny_cfg(mode="eeg_embed", max_len=5)  # room for 3 content words
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        vocab = build_vocab([words])
        records = make_records(cfg, [words], seed=6)
        ids = encode(words, vocab, cfg.max_len)
        assert len(ids) == 5
        batch = build_batch([Example("t0", ids, 0)], cfg, FeatureDb(records))
        np.testing.assert_array_equal(batch.tokens["eeg"][0, 1:4], records[0].eeg_tokens[:3])
        assert batch.tokens["eeg"][0, 0] == 0 and batch.tokens["eeg"][0, 4] == 0

    def test_word_index_beyond_record_rejected(self):
        cfg = tiny_cfg(mode="eeg_embed")
        words = ["alpha", "beta", "gamma"]
        vocab = build_vocab([words])
        db = FeatureDb(make_records(cfg, [words[:2]], seed=6))  # t0 covers 2 words
        ids = encode(words, vocab, cfg.max_len)
        with pytest.raises(ValidationError,
                           match="t0: record covers 2 words, sentence reads word 2"):
            build_batch([Example("t0", ids, 0)], cfg, db)
        batch = build_batch([Example("t0", ids, 0)], tiny_cfg(), db)  # mode none reads no features
        np.testing.assert_array_equal(batch.ids[0, :5], ids)

    def test_sentence_longer_than_max_len_named(self):
        words = ["alpha", "beta", "gamma", "delta"]
        vocab = build_vocab([words])
        cfg = tiny_cfg(max_len=5)
        db = FeatureDb(make_records(cfg, [words[:2], words], seed=6))
        examples = [Example("t0", encode(words[:2], vocab, cfg.max_len), 0),
                    Example("t1", encode(words, vocab, 8), 0)]  # 6 positions
        for mode in ("none", "eeg_embed", "cog_mask"):
            with pytest.raises(ValidationError,
                               match="^t1: sentence has 6 positions, model max_len is 5$"):
                build_batch(examples, tiny_cfg(mode=mode, max_len=5), db)

    def test_sentence_encoded_at_smaller_max_len_batches_by_its_length(self):
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        vocab = build_vocab([words])
        for mode in MODES:
            cfg = tiny_cfg(mode=mode)
            db = FeatureDb(make_records(cfg, [words], seed=6))
            short = encode(words, vocab, max_len=5)  # keeps the first 3 words
            got = build_batch([Example("t0", short, 0)], cfg, db)
            want = build_batch([Example("t0", encode(words[:3], vocab, cfg.max_len), 0)], cfg, db)
            for name in ("ids", "masks", "sent_eeg", "labels"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                              err_msg=f"{mode} {name}")
            assert got.tokens.keys() == want.tokens.keys()
            for table, values in got.tokens.items():
                np.testing.assert_array_equal(values, want.tokens[table], err_msg=f"{mode} {table}")

    def test_full_forward_gradcheck_two_modes(self):
        for mode in ("none", "pool_add_nn"):
            cfg = tiny_cfg(mode=mode, layers=1)
            params = random_params(cfg, seed=4)
            for p in params.all():  # move off the degenerate tiny-init point
                if p.name.endswith(".gamma"):
                    continue
                p.value += SeededRng(8).derive(p.name).normal(0, 0.2, p.value.shape)
            batch, _ = make_batch(cfg)

            def loss():
                result = encoder_forward(params, batch, train=True)
                return ad.cross_entropy_mean(result.logits, batch.labels)

            report = grad_check_report(loss, params.all(), eps=1e-5, max_entries_per_param=12)
            assert max(report.values()) < 1e-4


WIDTH_WORDS = [f"w{i}" for i in range(30)]


def width_batch(cfg, lengths, seed=0):
    """A labelled batch whose sentences have the given word counts."""
    corpus = [[WIDTH_WORDS[(i + j) % len(WIDTH_WORDS)] for j in range(n)]
              for i, n in enumerate(lengths)]
    vocab = build_vocab([WIDTH_WORDS])
    db = FeatureDb(make_records(cfg, corpus, seed))
    return build_batch(make_examples(db, vocab, cfg.max_len), cfg, db)


def pad_to_max_len(batch, max_len):
    """The full-width reference: ids 0, mask -10000, cognitive tokens 0 beyond T."""
    n, t = batch.ids.shape

    def widen(arr, fill):
        out = np.full((n, max_len), fill, dtype=arr.dtype)
        out[:, :t] = arr
        return out

    return dataclasses.replace(batch, ids=widen(batch.ids, PAD_ID),
                               masks=widen(batch.masks, MASK_SUPPRESS),
                               tokens={k: widen(v, 0) for k, v in batch.tokens.items()})


def spread_params(cfg, seed):
    """O(0.3) parameters: sharp attention, so a leak of PAD mass would show."""
    params = random_params(cfg, seed)
    rng = SeededRng(seed).derive("spread")
    for p in params.all():
        p.value[:] = rng.normal(1.0 if p.name.endswith(".gamma") else 0.0, 0.3, p.value.shape)
    return params


class TestBatchWidth:
    """A batch runs at its longest real row rounded up to 8, with max_len's results."""

    def test_width_is_rounded_longest_row(self):
        rng = SeededRng(21).derive("widths")
        for max_len in (64, 12):
            cfg = tiny_cfg(max_len=max_len)
            for _ in range(30):
                lengths = rng.integers(0, max_len - 1, size=int(rng.integers(1, 6)))
                batch = width_batch(cfg, lengths.tolist())
                t, longest = batch.ids.shape[1], int(lengths.max()) + 2
                assert longest <= t <= max_len
                assert t % WIDTH_MULTIPLE == 0 or t == max_len
                assert t == min(max_len, -(-longest // WIDTH_MULTIPLE) * WIDTH_MULTIPLE)
                assert batch.masks.shape == (len(lengths), t)

    def test_base_mask_marks_exactly_pad(self):
        """Ids are PAD and the mask -10000 exactly beyond each sentence's real row."""
        rng = np.random.default_rng(4)
        for mode in ("none", "cog_mask"):
            cfg = tiny_cfg(mode=mode)
            for _ in range(50):
                lengths = rng.integers(0, cfg.max_len - 1, size=int(rng.integers(1, 5)))
                batch = width_batch(cfg, lengths.tolist(), seed=int(rng.integers(100)))
                for i, n in enumerate(lengths):
                    real = int(n) + 2
                    assert (batch.ids[i, real:] == PAD_ID).all()
                    assert (batch.masks[i, real:] == MASK_SUPPRESS).all()
                    assert PAD_ID not in batch.ids[i, :real].tolist()
                    if mode == "none":
                        assert (batch.masks[i, :real] == MASK_KEEP).all()
                    else:  # CLS and SEP always kept, words by fixation count
                        assert batch.masks[i, 0] == batch.masks[i, real - 1] == MASK_KEEP

    def test_all_modes_match_full_width_reference(self):
        for mode in MODES:
            cfg = tiny_cfg(mode=mode, max_len=64)
            params = spread_params(cfg, seed=3)
            batch = width_batch(cfg, [3, 13, 7, 0])
            t = batch.ids.shape[1]
            assert t == 16
            trimmed = encoder_forward(params, batch)
            full = encoder_forward(params, pad_to_max_len(batch, cfg.max_len))
            np.testing.assert_array_equal(trimmed.logits.value, full.logits.value, err_msg=mode)
            np.testing.assert_array_equal(trimmed.attention, full.attention[..., :t, :t],
                                          err_msg=mode)

    def test_sentence_does_not_depend_on_batch_peers(self):
        """Hidden states and logits match alone and beside longer peers."""
        for mode in MODES:
            cfg = tiny_cfg(mode=mode, max_len=64)
            params = spread_params(cfg, seed=5)
            alone = encoder_forward(params, width_batch(cfg, [4]))
            t = alone.hidden.shape[1]
            for peers in ([2], [25], [25, 9], [60, 1, 1]):
                result = encoder_forward(params, width_batch(cfg, [4, *peers]))
                np.testing.assert_array_equal(result.hidden[0, :t], alone.hidden[0], err_msg=mode)
                np.testing.assert_array_equal(result.logits.value[0], alone.logits.value[0],
                                              err_msg=mode)

    def test_training_step_matches_full_width_reference(self):
        for mode in ("eeg_embed", "cog_mask", "pool_add_nn"):
            cfg = tiny_cfg(mode=mode, max_len=64, dropout=0.1)
            params = spread_params(cfg, seed=7)
            batch = width_batch(cfg, [3, 13, 7, 0])
            grads, losses = [], []
            for b in (batch, pad_to_max_len(batch, cfg.max_len)):
                params.zero_grads()
                result = encoder_forward(params, b, train=True, rng=SeededRng(11))
                loss = ad.cross_entropy_mean(result.logits, b.labels)
                ad.backward(loss)
                losses.append(loss.item())
                grads.append({p.name: p.grad.copy() for p in params.all()})
            assert losses[0] == losses[1], mode
            # Relative to the largest gradient entry: the key biases' true gradient
            # is zero (softmax ignores a shift shared by all keys), so theirs is noise.
            scale = max(np.abs(g).max() for g in grads[1].values())
            for name, full in grads[1].items():
                np.testing.assert_allclose(grads[0][name], full, rtol=1e-12, atol=1e-12 * scale,
                                           err_msg=f"{mode} {name}")


class TestInferenceForward:
    """train=False records no tape; every forward finishes only the CLS rows
    after the last attention, and a logits-only forward attends from the CLS
    rows alone in the last layer; the outputs stay the same."""

    def test_matches_training_forward_bit_for_bit(self):
        """At every batch size up to 21 and at the eval batch of 32, so a BLAS
        kernel chosen by row count would show."""
        rng = np.random.default_rng(15)
        for mode in MODES:
            cfg = tiny_cfg(mode=mode, d_model=32, d_ff=64, max_len=64)
            params = spread_params(cfg, seed=5)
            for size in [*range(1, 22), 32]:
                batch = width_batch(cfg, rng.integers(0, 62, size=size).tolist())
                infer, trained = (encoder_forward(params, batch, train=t) for t in (False, True))
                logits_only = encoder_forward(params, batch, attention=False)
                for field in ("hidden", "attention"):
                    np.testing.assert_array_equal(getattr(infer, field), getattr(trained, field),
                                                  err_msg=f"{mode} {size} {field}")
                np.testing.assert_array_equal(logits_only.hidden, trained.hidden,
                                              err_msg=f"{mode} {size} logits-only hidden")
                assert logits_only.attention is None
                for result in (infer, logits_only):
                    np.testing.assert_array_equal(result.logits.value, trained.logits.value,
                                                  err_msg=f"{mode} {size}")

    def test_last_feed_forward_runs_on_cls_rows_only(self, monkeypatch):
        cfg = tiny_cfg(layers=3)
        params = spread_params(cfg, seed=5)
        batch = width_batch(cfg, [9, 3, 6])
        n, t = batch.ids.shape
        gelu, shapes = ad.gelu, []

        def recording_gelu(x):
            shapes.append(x.value.shape)
            return gelu(x)

        monkeypatch.setattr(ad, "gelu", recording_gelu)  # the module model.py calls as ad
        for train in (False, True):
            for maps in (False, True):
                shapes.clear()
                encoder_forward(params, batch, train=train, attention=maps)
                last = (n, cfg.d_ff)
                assert shapes == [(n * t, cfg.d_ff)] * (cfg.layers - 1) + [last], (train, maps)

    def test_logits_only_last_attention_gets_cls_queries_only(self, monkeypatch):
        """A logits-only forward, training or not, attends from (B, d) queries in
        its last layer; an attention forward from all B*T rows."""
        cfg = tiny_cfg(layers=3)
        params = spread_params(cfg, seed=5)
        batch = width_batch(cfg, [9, 3, 6])
        n, t = batch.ids.shape
        attention, shapes = ad.multi_head_attention, []

        def recording_attention(q, k, v, *args):
            shapes.append((q.value.shape, k.value.shape, v.value.shape))
            return attention(q, k, v, *args)

        monkeypatch.setattr(ad, "multi_head_attention", recording_attention)
        full = ((n * t, cfg.d_model),) * 3
        cls_queries = ((n, cfg.d_model), *full[1:])
        for train, maps, last in ((False, False, cls_queries), (False, True, full),
                                  (True, False, cls_queries), (True, True, full)):
            shapes.clear()
            result = encoder_forward(params, batch, train=train, attention=maps)
            assert shapes == [full] * (cfg.layers - 1) + [last], (train, maps)
            assert (result.attention is None) is not maps

    def test_peak_memory_at_most_half_of_training_forward(self):
        cfg = tiny_cfg(d_model=32, d_ff=64, max_len=48)
        params = random_params(cfg, seed=1)
        batch = width_batch(cfg, [46] * 16)
        assert batch.ids.shape == (16, 48)
        peaks = {}
        for train in (False, True):
            tracemalloc.start()
            try:
                encoder_forward(params, batch, train=train)
                peaks[train] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] <= 0.5 * peaks[True], peaks

    def test_logits_only_peak_memory_at_most_035_of_training_forward(self):
        """No tape: each intermediate goes once the op after its consumer has run."""
        cfg = tiny_cfg(d_model=32, d_ff=64, max_len=48)
        params = random_params(cfg, seed=1)
        batch = width_batch(cfg, [46] * 16)
        peaks = {}
        for train in (False, True):
            tracemalloc.start()
            try:
                encoder_forward(params, batch, train=train, attention=False)
                peaks[train] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] <= 0.35 * peaks[True], peaks

    def test_backward_from_logits_reaches_no_parameter(self):
        for mode in MODES:
            cfg = tiny_cfg(mode=mode)
            params = spread_params(cfg, seed=5)
            batch = width_batch(cfg, [9, 3, 6])
            params.zero_grads()
            for maps in (False, True):
                logits = encoder_forward(params, batch, attention=maps).logits
                assert logits.bwd is None, mode
                ad.backward(ad.cross_entropy_mean(logits, batch.labels))
            assert not any(p.grad.any() for p in params.all()), mode


def full_rows_training_logits(params, batch, rng):
    """The training forward that runs every layer on all B*T rows and selects the
    CLS rows at the end, built from the model's blocks."""
    cfg = params.cfg
    n, t = batch.ids.shape
    x = _dropout(embed(params, batch.ids, batch.tokens), n, cfg, True, rng)
    for layer in range(cfg.layers):
        x = self_attention(x, batch.masks, params, layer, None, True, rng)
        x = _feed_forward(x, n, params, layer, True, rng)
    pooled = ad.select_rows(x, np.arange(n) * t)
    return classify(fuse_pooled(pooled, batch.sent_eeg, params), params)


class TestTrainingLastLayer:
    """A training forward runs its last layer on the CLS rows alone, and its
    backward runs the row-restricted products on the B*T layout: the loss and
    every gradient equal those of the full-row forward, bit for bit."""

    @staticmethod
    def loss_and_grads(params, batch, logits_fn):
        params.zero_grads()
        logits = logits_fn(SeededRng(11))
        ad.backward(ad.cross_entropy_mean(logits, batch.labels))
        return logits.value.copy(), {p.name: p.grad.copy() for p in params.all()}

    def test_matches_full_rows_bit_for_bit(self):
        """Batch widths 8, 16 and 64 (B*T >= 512 blocks the weight gradients' sums
        over rows), head widths 8 and 16, batch sizes 1 to 32, with dropout."""
        rng = np.random.default_rng(23)
        for mode in MODES:
            for d_model in (16, 32):  # head width 8, 16
                cfg = tiny_cfg(mode=mode, d_model=d_model, d_ff=2 * d_model, max_len=64,
                               dropout=0.1)
                params = spread_params(cfg, seed=9)
                for width in (8, 16, 64):
                    for size in (1, 3, 8, 32):
                        lengths = rng.integers(0, width - 1, size=size)
                        lengths[0] = width - 2
                        batch = width_batch(cfg, lengths.tolist())
                        assert batch.ids.shape == (size, width)
                        case = f"{mode} d={d_model} T={width} B={size}"
                        fast = self.loss_and_grads(params, batch, lambda r: encoder_forward(
                            params, batch, train=True, rng=r, attention=False).logits)
                        slow = self.loss_and_grads(
                            params, batch, lambda r: full_rows_training_logits(params, batch, r))
                        np.testing.assert_array_equal(fast[0], slow[0], err_msg=case)
                        for name, grad in slow[1].items():
                            np.testing.assert_array_equal(fast[1][name], grad,
                                                          err_msg=f"{case} {name}")


class TestFusion:
    def test_multiply_closed_form_example(self):
        cfg = tiny_cfg(mode="pool_multiply", d_model=2, heads=1, eeg_channels=3)
        params = random_params(cfg, seed=1)
        pooled = ad.const(np.array([[1.0, 2.0]]))
        out = fuse_pooled(pooled, np.array([[0.5, 0.5, 1.0]]), params)
        np.testing.assert_allclose(out.value, [[1.0, 2.0]], atol=1e-12)

    def test_multiply_zero_vector_annihilates(self):
        cfg = tiny_cfg(mode="pool_multiply")
        params = random_params(cfg, seed=1)
        pooled = ad.const(np.ones((1, cfg.d_model)))
        out = fuse_pooled(pooled, np.zeros((1, cfg.eeg_channels)), params)
        np.testing.assert_array_equal(out.value, 0.0)

    def test_multiply_matches_closed_form_on_random_vectors(self):
        cfg = tiny_cfg(mode="pool_multiply")
        params = random_params(cfg, seed=1)
        rng = SeededRng(14).derive("fusion")
        for _ in range(200):
            pooled = rng.normal(size=(1, cfg.d_model))
            eeg = rng.normal(size=(1, cfg.eeg_channels))
            out = fuse_pooled(ad.const(pooled), eeg, params)
            expected = pooled * eeg.sum() / cfg.d_model
            np.testing.assert_allclose(out.value, expected, atol=1e-12)

    def test_concat_lengths_at_paper_scale(self):
        cfg = ModelConfig(vocab_size=110, n_classes=8, layers=1, heads=2,
                          d_model=768, d_ff=8, max_len=8, eeg_channels=105,
                          dropout=0.0, mode="pool_concat")
        params = random_params(cfg, seed=0)
        pooled = ad.const(np.zeros((1, 768)))
        out = fuse_pooled(pooled, np.zeros((1, 105)), params)
        assert out.value.shape == (1, 873)
        assert cfg.classifier_in_dim == 873

        cfg_nn = ModelConfig(vocab_size=110, n_classes=8, layers=1, heads=2,
                             d_model=768, d_ff=8, max_len=8, eeg_channels=105,
                             dropout=0.0, mode="pool_concat_nn")
        params_nn = random_params(cfg_nn, seed=0)
        out_nn = fuse_pooled(ad.const(np.zeros((1, 768))), np.zeros((1, 105)), params_nn)
        assert out_nn.value.shape == (1, 1536)
        assert cfg_nn.classifier_in_dim == 1536

    def test_pool_add_nn_keeps_width(self):
        cfg = tiny_cfg(mode="pool_add_nn")
        params = random_params(cfg, seed=1)
        out = fuse_pooled(ad.const(np.zeros((1, cfg.d_model))),
                          np.ones((1, cfg.eeg_channels)), params)
        assert out.value.shape == (1, cfg.d_model)

    def test_channel_mismatch_rejected(self):
        cfg = tiny_cfg(mode="pool_concat")
        params = random_params(cfg, seed=1)
        pooled = ad.const(np.zeros((1, cfg.d_model)))
        # wrong channel count; a 1-D vector instead of (B, C)
        for bad in (np.zeros((1, 7)), np.zeros(cfg.eeg_channels)):
            with pytest.raises(ValidationError, match="does not match"):
                fuse_pooled(pooled, bad, params)

    def test_passthrough_modes_leave_pooled_untouched(self):
        cfg = tiny_cfg(mode="cog_mask")
        params = random_params(cfg, seed=1)
        pooled = ad.const(np.array([[1.0, 2.0] * 8]))
        assert fuse_pooled(pooled, None, params) is pooled


class TestClassifier:
    def test_zero_weights_return_bias(self):
        cfg = tiny_cfg()
        params = random_params(cfg, seed=1)
        params["classifier.w"].value[:] = 0.0
        params["classifier.b"].value[:] = np.arange(cfg.n_classes)
        out = classify(ad.const(np.ones((2, cfg.d_model))), params)
        np.testing.assert_array_equal(out.value, np.tile(np.arange(cfg.n_classes), (2, 1)))

    def test_hand_checkable_logits(self):
        cfg = tiny_cfg(d_model=2, heads=1, n_classes=2)
        params = random_params(cfg, seed=1)
        params["classifier.w"].value[:] = np.eye(2)
        params["classifier.b"].value[:] = 0.0
        out = classify(ad.const(np.array([[3.0, -1.0]])), params)
        np.testing.assert_array_equal(out.value, [[3.0, -1.0]])

    def test_tie_breaks_to_lowest_index(self):
        logits = np.array([[1.0, 1.0, 0.0]])
        assert logits.argmax(axis=1)[0] == 0

    def test_argmax_invariant_to_constant_shift(self):
        rng = SeededRng(15).derive("logits")
        for _ in range(100):
            logits = rng.normal(size=(4, 6))
            shifted = logits + rng.normal()
            np.testing.assert_array_equal(logits.argmax(axis=1), shifted.argmax(axis=1))

    def test_dimension_mismatch_rejected(self):
        cfg = tiny_cfg(mode="pool_concat")
        params = random_params(cfg, seed=1)
        with pytest.raises(ValidationError):
            classify(ad.const(np.zeros((1, cfg.d_model))), params)
