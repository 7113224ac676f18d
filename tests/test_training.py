"""Training-loop contracts: splits, LR schedule, optimizer behavior,
metric math against a brute-force confusion oracle, and reproducibility."""

import tracemalloc
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from cogbert import training
from cogbert.errors import ConfigError, NumericError, ValidationError
from cogbert.features import SynthConfig, synth_generate
from cogbert.model import (MODES, ModelConfig, _param_spec, build_batch, encoder_forward,
                           random_params)
from cogbert.numerics import autodiff as ad
from cogbert.numerics.rng import SeededRng
from cogbert.tokenizer import build_vocab
from cogbert.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    Metrics,
    RunReport,
    RunResult,
    TrainConfig,
    evaluate,
    lr_at,
    make_examples,
    repeat_runs,
    split,
    train,
)


def brute_force_metrics(truth, pred, n_classes):
    """Independent confusion-matrix computation with explicit loops."""
    per_class = []
    tp_total = 0
    for k in range(n_classes):
        tp = fp = fn = 0
        for t, p in zip(truth, pred):
            if p == k and t == k:
                tp += 1
            elif p == k:
                fp += 1
            elif t == k:
                fn += 1
        tp_total += tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
    macro = tuple(sum(vals) / n_classes for vals in zip(*per_class))
    return macro[0], macro[1], macro[2], tp_total / len(truth)


def tiny_setup(mode="none", n_sentences=48, seed=3):
    _, db, _ = synth_generate(SynthConfig(n_sentences=n_sentences, max_words=10), seed=seed)
    vocab = build_vocab([db.get(s).tokens for s in db.ids()])
    cfg = ModelConfig(vocab_size=vocab.size, n_classes=8, layers=1, heads=2,
                      d_model=16, d_ff=32, max_len=16, eeg_channels=8,
                      dropout=0.0, mode=mode)
    examples = make_examples(db, vocab, cfg.max_len)
    return cfg, examples, db


class TestTrainConfig:
    def test_defaults_follow_protocol(self):
        cfg = TrainConfig()
        assert cfg.epochs == 15 and cfg.batch_size == 8
        assert cfg.lr == 5e-5 and cfg.repeats == 10

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", True), ("lr", "0.1"),
        ("weight_decay", -5), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
        ("epochs", 2.5), ("epochs", True), ("batch_size", True), ("batch_size", 8.0),
        ("repeats", "3"),
    ])
    def test_bad_field_named(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_numpy_integers_and_zero_decay_accepted(self):
        cfg = TrainConfig(epochs=np.int64(2), batch_size=4, lr=1, weight_decay=0)
        assert cfg.epochs == 2 and cfg.weight_decay == 0


class TestSplit:
    def test_floor_rule_on_302(self):
        train_set, test_set = split(list(range(302)), 0.8, seed=0)
        assert len(train_set) == 241 and len(test_set) == 61

    def test_ten_items(self):
        train_set, test_set = split(list(range(10)), 0.8, seed=0)
        assert len(train_set) == 8 and len(test_set) == 2

    def test_same_seed_same_split(self):
        a = split(list(range(50)), 0.8, seed=9)
        b = split(list(range(50)), 0.8, seed=9)
        assert a == b

    def test_disjoint_and_exhaustive(self):
        items = list(range(37))
        train_set, test_set = split(items, 0.8, seed=2)
        assert sorted(train_set + test_set) == items
        assert not set(train_set) & set(test_set)

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            split([1], 0.8, seed=0)


class TestLrSchedule:
    def test_endpoints_and_midpoint(self):
        assert lr_at(0, 100, 5e-5) == 5e-5
        assert lr_at(100, 100, 5e-5) == 0.0
        assert lr_at(50, 100, 5e-5) == pytest.approx(2.5e-5)

    def test_monotone_non_increasing(self):
        values = [lr_at(s, 500, 1e-3) for s in range(501)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            lr_at(11, 10, 1e-3)


class TestMetrics:
    def test_all_correct(self):
        m = Metrics.from_predictions([0, 1, 2], [0, 1, 2], 3)
        assert m.precision == m.recall == m.f1 == m.accuracy == 1.0

    def test_hand_counted_example(self):
        # truth [A, A, B], predicted [A, B, B]
        m = Metrics.from_predictions([0, 0, 1], [0, 1, 1], 2)
        assert m.accuracy == pytest.approx(2 / 3)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.75)

    def test_absent_class_contributes_zero(self):
        m = Metrics.from_predictions([0, 0], [0, 0], 3)
        assert m.per_class_precision[2] == 0.0
        assert m.per_class_recall[2] == 0.0
        assert m.per_class_f1[2] == 0.0

    def test_matches_brute_force_oracle_on_random_sets(self):
        rng = SeededRng(77).derive("metrics")
        for _ in range(100):
            k = int(rng.integers(2, 9))
            n = int(rng.integers(1, 60))
            truth = rng.integers(0, k, size=n)
            pred = rng.integers(0, k, size=n)
            m = Metrics.from_predictions(truth, pred, k)
            p, r, f1, acc = brute_force_metrics(truth.tolist(), pred.tolist(), k)
            assert m.precision == pytest.approx(p, abs=1e-12)
            assert m.recall == pytest.approx(r, abs=1e-12)
            assert m.f1 == pytest.approx(f1, abs=1e-12)
            assert m.accuracy == pytest.approx(acc, abs=1e-12)

    def test_uniform_random_baseline_accuracy(self):
        rng = SeededRng(88).derive("baseline")
        k, n = 4, 2000
        truth = rng.integers(0, k, size=n)
        pred = rng.integers(0, k, size=n)
        m = Metrics.from_predictions(truth, pred, k)
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(m.accuracy - 1 / k) < 3 * sigma

    def test_labels_and_predictions_outside_classes_rejected(self):
        for truth, pred, message in (([0, 3, 1], [0, 1, 1], "label 3 at index 1"),
                                     ([0, -1], [0, 1], "label -1 at index 1"),
                                     ([0, 1], [3, 1], "prediction 3 at index 0"),
                                     ([0, 1], [0, -2], "prediction -2 at index 1")):
            with pytest.raises(ValidationError, match=f"{message} lies outside 0..2"):
                Metrics.from_predictions(truth, pred, 3)

    def test_confusion_counts_partition_the_samples(self):
        m = Metrics.from_predictions([0, 1, 2, 1], [0, 2, 2, 1], 3)
        for k in range(3):
            assert m.tp[k] + m.fp[k] + m.fn[k] + m.tn[k] == 4


class TestOptimizer:
    def test_single_step_decreases_frozen_batch_loss(self):
        cfg, examples, db = tiny_setup()
        params = random_params(cfg, seed=1)
        batch = build_batch(examples[:8], cfg, db)

        def batch_loss():
            result = encoder_forward(params, batch, train=True)
            return ad.cross_entropy_mean(result.logits, batch.labels)

        before = batch_loss().item()
        params.zero_grads()
        loss = batch_loss()
        ad.backward(loss)
        Adam(params, weight_decay=0.01).step(lr=1e-6)
        after = batch_loss().item()
        assert after < before


def reference_adam_step(values, m, v, grads, t, lr, weight_decay, decay):
    """The per-tensor Adam update that Adam.step's flat, in-place form replaces."""
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name in values:
        m[name] += (1.0 - ADAM_BETA1) * (grads[name] - m[name])
        v[name] += (1.0 - ADAM_BETA2) * (grads[name] * grads[name] - v[name])
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)
        values[name] -= lr * update
        if decay[name] and weight_decay:
            values[name] -= lr * weight_decay * values[name]


class TestFlatAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_per_tensor_reference_bit_for_bit(self, mode, weight_decay):
        cfg = ModelConfig(vocab_size=110, n_classes=3, layers=2, heads=2, d_model=12, d_ff=20,
                          max_len=10, eeg_channels=5, dropout=0.0, mode=mode)
        params = random_params(cfg, seed=4)
        values = {p.name: p.value.copy() for p in params.all()}
        m = {name: np.zeros_like(val) for name, val in values.items()}
        v = {name: np.zeros_like(val) for name, val in values.items()}
        decay = {name: flag for name, _, _, flag in _param_spec(cfg)}
        opt = Adam(params, weight_decay=weight_decay)
        rng = SeededRng(7).derive("grads")
        for t in range(1, 6):
            grads = {name: rng.normal(0.0, 10.0 ** -t, size=val.shape)
                     for name, val in values.items()}
            params.zero_grads()
            for p in params.all():
                p.grad[...] = grads[p.name]
            lr = lr_at(t - 1, 5, 1e-2)
            opt.step(lr)
            reference_adam_step(values, m, v, grads, t, lr, weight_decay, decay)
            opt_m, opt_v = params.views(opt.m), params.views(opt.v)
            for p in params.all():
                np.testing.assert_array_equal(p.value, values[p.name], err_msg=f"{p.name} t={t}")
                np.testing.assert_array_equal(opt_m[p.name], m[p.name], err_msg=p.name)
                np.testing.assert_array_equal(opt_v[p.name], v[p.name], err_msg=p.name)
        slots = np.zeros(params.values.size, dtype=bool)
        for view in params.views(slots).values():
            view[...] = True
        for flat in (params.values, params.grads, opt.m, opt.v):
            np.testing.assert_array_equal(flat[~slots], 0.0)  # slot padding stays zero

    def test_non_finite_weight_steps_without_a_warning(self):
        """An inf weight, and an inf gradient, leave non-finite values that the next
        loss check reports; the step itself prints no numpy warning."""
        params = random_params(ModelConfig(vocab_size=110, n_classes=3, layers=1, heads=2,
                                           d_model=12, d_ff=20, max_len=10, eeg_channels=5), seed=4)
        params["embed.word"].value[7] = np.inf
        params["embed.word"].grad[7] = 1.0
        params["classifier.w"].grad[0] = np.inf
        params["classifier.w"].grad[1] = 1e300  # its square overflows
        opt = Adam(params, weight_decay=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                opt.step(lr=1e-3)
        assert not np.isfinite(params["embed.word"].value[7]).any()
        assert not np.isfinite(params["classifier.w"].value[0]).any()


class TestTrain:
    def test_bit_reproducible(self):
        cfg, examples, db = tiny_setup()
        tcfg = TrainConfig(epochs=2, batch_size=8, lr=5e-4, seed=5, repeats=1)
        p1, h1 = train(tcfg, cfg, examples, db)
        p2, h2 = train(tcfg, cfg, examples, db)
        assert h1 == h2
        for a, b in zip(p1.all(), p2.all()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_reproducible_with_dropout(self):
        cfg, examples, db = tiny_setup()
        cfg = ModelConfig(**{**cfg.to_dict(), "dropout": 0.1})
        tcfg = TrainConfig(epochs=1, batch_size=8, lr=5e-4, seed=5, repeats=1)
        _, h1 = train(tcfg, cfg, examples, db)
        _, h2 = train(tcfg, cfg, examples, db)
        assert h1 == h2

    def test_loss_decreases_on_synthetic_corpus(self):
        cfg, examples, db = tiny_setup()
        tcfg = TrainConfig(epochs=3, batch_size=8, lr=5e-4, seed=5, repeats=1)
        _, history = train(tcfg, cfg, examples, db)
        assert history[-1] < history[0]

    def test_empty_dataset_rejected(self):
        cfg, _, db = tiny_setup()
        with pytest.raises(ValidationError):
            train(TrainConfig(), cfg, [], db)

    def test_non_finite_loss_names_epoch_step_and_batch(self, monkeypatch):
        """An inf embedding row of a word that one sentence alone uses diverges
        the batch that holds that sentence, and no batch before it."""
        cfg, examples, db = tiny_setup()
        uses = Counter(i for ex in examples for i in set(ex.ids.tolist()))
        word, index = next((i, k) for k, ex in enumerate(examples)
                           for i in ex.ids.tolist() if uses[i] == 1)
        init_params = training.init_params

        def planted(*args, **kwargs):
            params = init_params(*args, **kwargs)
            params["embed.word"].value[word] = np.inf
            return params

        monkeypatch.setattr(training, "init_params", planted)
        tcfg = TrainConfig(epochs=2, batch_size=4, lr=5e-4, seed=5, repeats=1)
        order = SeededRng(tcfg.seed).derive("batch-order").permutation(len(examples))
        step = int(np.flatnonzero(order == index)[0]) // tcfg.batch_size
        start = step * tcfg.batch_size
        batch_ids = [examples[i].sentence_id for i in order[start:start + tcfg.batch_size]]
        with pytest.raises(NumericError) as err, warnings.catch_warnings():
            warnings.simplefilter("error")  # the diverging run prints nothing before the error
            train(tcfg, cfg, examples, db)
        assert str(err.value) == (f"training diverged: non-finite loss at epoch 0, step {step}, "
                                  f"on the batch of sentences {', '.join(batch_ids)}")
        assert examples[index].sentence_id in batch_ids

    def test_evaluate_runs_against_oracle(self):
        cfg, examples, db = tiny_setup()
        tcfg = TrainConfig(epochs=1, batch_size=8, lr=5e-4, seed=5, repeats=1)
        params, _ = train(tcfg, cfg, examples, db)
        metrics = evaluate(params, examples, db)
        # Re-derive predictions and compare against the loop oracle.
        preds = []
        for ex in examples:
            batch = build_batch([ex], cfg, db)
            preds.append(int(encoder_forward(params, batch).predictions()[0]))
        truth = [ex.label for ex in examples]
        p, r, f1, acc = brute_force_metrics(truth, preds, cfg.n_classes)
        assert metrics.precision == pytest.approx(p, abs=1e-12)
        assert metrics.accuracy == pytest.approx(acc, abs=1e-12)


class TestRepeatRuns:
    def test_single_run_has_zero_std(self):
        report = RunReport(
            model_config={}, train_config={},
            runs=[RunResult(0, SimpleNamespace(precision=0.5, recall=0.5,
                                               f1=0.5, accuracy=0.5), [])],
        )
        assert report.f1_std == 0.0

    def test_mean_and_sample_std_arithmetic(self):
        runs = [
            RunResult(0, SimpleNamespace(precision=0.6, recall=0.6, f1=0.6, accuracy=0.6), []),
            RunResult(1, SimpleNamespace(precision=0.7, recall=0.7, f1=0.7, accuracy=0.7), []),
        ]
        report = RunReport(model_config={}, train_config={}, runs=runs)
        assert report.mean["f1"] == pytest.approx(0.65)
        assert report.f1_std == pytest.approx(0.0707, abs=1e-4)

    def test_four_decimal_presentation(self):
        runs = [
            RunResult(0, SimpleNamespace(precision=0.65021, recall=0.6, f1=0.6, accuracy=0.6), []),
        ]
        report = RunReport(model_config={}, train_config={}, runs=runs)
        assert f"{report.mean['precision']:.4f}" == "0.6502"

    def test_best_is_highest_accuracy_ties_to_earliest(self):
        runs = [RunResult(i, SimpleNamespace(precision=0.5, recall=0.5, f1=0.5, accuracy=acc), [])
                for i, acc in enumerate([0.5, 0.7, 0.7])]
        assert RunReport(model_config={}, train_config={}, runs=runs).best == 1

    def test_keeps_only_the_best_runs_parameters(self):
        cfg, examples, db = tiny_setup()
        train_ex, test_ex = split(examples, 0.8, seed=1)
        tcfg = TrainConfig(epochs=1, batch_size=8, lr=5e-4, seed=1, repeats=4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report, params = repeat_runs(4, tcfg, cfg, train_ex, test_ex, db)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        one_model = params.values.nbytes + params.grads.nbytes
        assert retained < 2 * one_model, f"{retained} bytes retained, one model is {one_model}"
        best, _ = train(tcfg, cfg, train_ex, db, seed=report.runs[report.best].seed)
        np.testing.assert_array_equal(params.values, best.values)

    def test_deterministic_and_seeds_derived(self):
        cfg, examples, db = tiny_setup()
        train_ex, test_ex = split(examples, 0.8, seed=1)
        tcfg = TrainConfig(epochs=1, batch_size=8, lr=5e-4, seed=42, repeats=2)
        r1, _ = repeat_runs(2, tcfg, cfg, train_ex, test_ex, db)
        r2, _ = repeat_runs(2, tcfg, cfg, train_ex, test_ex, db)
        assert r1.to_dict() == r2.to_dict()
        assert r1.runs[0].seed != r1.runs[1].seed

    def test_report_dict_excludes_wall_clock(self):
        cfg, examples, db = tiny_setup()
        train_ex, test_ex = split(examples, 0.8, seed=1)
        tcfg = TrainConfig(epochs=1, batch_size=8, lr=5e-4, seed=42, repeats=1)
        report, _ = repeat_runs(1, tcfg, cfg, train_ex, test_ex, db)
        keys = set(report.to_dict())
        keys |= {k for run in report.to_dict()["runs"] for k in run}
        assert not {k for k in keys if "clock" in k or "time" in k or k.endswith("_s")}
