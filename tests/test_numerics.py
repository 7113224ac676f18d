"""Numeric kernel contracts: frozen examples, hostile-range properties,
and the finite-difference verifier's own examples.

The kernels live in the autodiff tape; the small adapters below run one tape
op on plain arrays so each check reads as a formula."""

import math

import numpy as np
import pytest

from cogbert.errors import NumericError, ShapeError, ValidationError
from cogbert.explain import class_probability
from cogbert.numerics import autodiff as ad
from cogbert.numerics.autodiff import Parameter
from cogbert.numerics.gradcheck import grad_check_report
from cogbert.numerics.rng import SeededRng


def matmul(a, b):
    return ad.matmul(ad.const(a), ad.const(b)).value


def gelu(x):
    return ad.gelu(ad.const(np.atleast_2d(x))).value


def gelu_grad(x):
    """The gradient ad.gelu's backward rule pushes into its input."""
    p = Parameter("x", np.atleast_2d(x))
    ad.backward(ad.gelu(p))
    return p.grad


def layer_norm(x, residual, gamma, beta, eps=1e-5):
    """ad.layer_norm_rows of x + residual on a single row."""
    return ad.layer_norm_rows(*(ad.const(np.atleast_2d(a)) for a in (x, residual, gamma, beta)),
                              eps).value[0]


def cross_entropy(logits, label):
    """ad.cross_entropy_mean over a one-row batch."""
    return ad.cross_entropy_mean(ad.const(np.atleast_2d(logits)), np.array([label])).item()


def grad_check(loss_fn, params, eps):
    return max(grad_check_report(loss_fn, params, eps).values())


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), m), m)

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_associativity_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(size=(4, 5))
            b = rng.normal(size=(5, 3))
            c = rng.normal(size=(3, 6))
            np.testing.assert_allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)),
                                       rtol=0, atol=1e-9)


class TestSoftmaxRows:
    def test_symmetric_row(self):
        np.testing.assert_allclose(ad.softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_closed_form(self):
        out = ad.softmax(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_mask_magnitude_underflows_cleanly(self):
        out = ad.softmax(np.array([[5.0, 5.0 - 10000.0]]))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out[0, 1] < 1e-100
        assert np.isfinite(out).all()

    def test_nan_input_rejected(self):
        # The guard sits on the explainer's class-probability path.
        with pytest.raises(NumericError):
            class_probability(np.array([[0.0, float("nan")]]), 0)

    def test_rows_sum_to_one_over_hostile_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.uniform(-10000.0, 10000.0, size=(8, 16))
            out = ad.softmax(m)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-9)
            assert ((out >= 0) & (out <= 1)).all()

    def test_matches_expression_bit_for_bit(self):
        """softmax works in place on a copy; it equals the expression it replaced."""
        m = np.random.default_rng(5).normal(0.0, 30.0, size=(2, 3, 7, 16))
        m[..., 11:] -= 10000.0
        shifted = m - m.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        before = m.copy()
        np.testing.assert_array_equal(ad.softmax(m), e / e.sum(axis=-1, keepdims=True))
        np.testing.assert_array_equal(m, before)

    def test_row_max_equals_max_on_masked_scores(self):
        """The reduction with an initial value takes the same maxima as .max, so the
        softmax and the loss stay bit-identical, also on rows whose max is +0 or -0."""
        rng = np.random.default_rng(9)
        scores = rng.normal(0.0, 3.0, size=(6, 2, 9, 12))
        scores[..., 8:] -= 10000.0  # masked keys, as attention adds them
        scores[0, 0, :3] = -np.abs(scores[0, 0, :3])
        scores[0, 0, 0, 5], scores[0, 0, 1, 2], scores[0, 0, 2, [1, 4]] = 0.0, -0.0, [0.0, -0.0]
        scores[1, 1, 0, :8] = -0.0  # a row of -0 keys alone
        scores[1, 1, 1] = -np.inf  # every key at -inf
        want = scores.max(axis=-1, keepdims=True)
        got = ad._row_max(scores)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert (got[0, 0, :3] == 0).all()
        for rows in (scores[:, :, 2:], scores[0, 0, :2], scores[1, 1, 0]):  # rows with a finite key
            e = np.exp(rows - rows.max(axis=-1, keepdims=True))
            np.testing.assert_array_equal(ad.softmax(rows), e / e.sum(axis=-1, keepdims=True))
        logits = np.array([[0.0, -3.0, -1.0], [-0.0, -2.0, -0.0], [1.5, 0.2, -4.0]])
        labels = np.array([1, 2, 0])
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = ad.cross_entropy_mean(ad.const(logits), labels)
        assert loss.value[0, 0] == -logp[np.arange(3), labels].mean()


class TestGelu:
    def test_zero(self):
        assert gelu(0.0)[0, 0] == 0.0

    def test_positive_asymptote(self):
        assert abs(gelu(10.0)[0, 0] - 10.0) < 1e-6

    def test_negative_asymptote(self):
        assert abs(gelu(-10.0)[0, 0]) < 1e-6

    def test_derivative_matches_central_difference(self):
        xs = np.linspace(-4.0, 4.0, 41)
        eps = 1e-6
        fd = (gelu(xs + eps) - gelu(xs - eps)) / (2 * eps)
        np.testing.assert_allclose(gelu_grad(xs), fd, atol=1e-8)

    def test_matches_expression_bit_for_bit(self):
        """The in-place GELU equals the expression it replaced, and leaves its input
        alone; its backward, which reuses the forward's tanh, equals the derivative
        expression that recomputed it."""
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.normal(0.0, 3.0, size=(64, 16)),
                            rng.uniform(-40.0, 40.0, size=(64, 16))])
        before = x.copy()
        c, a = math.sqrt(2.0 / math.pi), 0.044715
        np.testing.assert_array_equal(gelu(x), 0.5 * x * (1.0 + np.tanh(c * (x + a * x * x * x))))
        np.testing.assert_array_equal(x, before)
        t = np.tanh(c * (x + a * x * x * x))
        du = c * (1.0 + 3.0 * a * x * x)
        np.testing.assert_array_equal(gelu_grad(x), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


class TestLayerNorm:
    def test_constant_input_returns_beta(self):
        # The summands vary; their sum is exactly the constant 3.75.
        x = np.linspace(-2.0, 1.5, 8)
        out = layer_norm(x, 3.75 - x, np.ones(8), np.full(8, 1.5))
        np.testing.assert_allclose(out, 1.5)

    def test_unit_variance_input_passthrough(self):
        out = layer_norm(np.array([-3.0, 0.5]), np.array([2.0, 0.5]), np.ones(2), np.zeros(2),
                         eps=1e-12)
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-6)

    def test_zero_gamma_annihilates(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=16)
        beta = rng.normal(size=16)
        np.testing.assert_array_equal(layer_norm(x, rng.normal(size=16), np.zeros(16), beta), beta)

    def test_normalized_moments(self):
        rng = np.random.default_rng(9)
        x = rng.normal(2.0, 5.0, size=64)
        out = layer_norm(x, rng.normal(-1.0, 3.0, size=64), np.ones(64), np.zeros(64))
        assert abs(out.mean()) < 1e-12
        assert abs(out.var() - 1.0) < 1e-4  # eps-induced shrinkage only


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert abs(cross_entropy(np.zeros(8), 3) - math.log(8)) < 1e-12

    def test_confident_correct(self):
        assert cross_entropy(np.array([100.0, 0.0]), 0) < 1e-12

    def test_confident_wrong(self):
        assert abs(cross_entropy(np.array([0.0, 100.0]), 0) - 100.0) < 1e-9

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            logits = rng.normal(size=5)
            assert cross_entropy(logits, int(rng.integers(5))) >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.zeros(3), 3)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(123).normal(size=100)
        b = SeededRng(123).normal(size=100)
        np.testing.assert_array_equal(a, b)

    def test_derived_streams_differ_by_label(self):
        root = SeededRng(123)
        a = root.derive("alpha").normal(size=100)
        b = root.derive("beta").normal(size=100)
        assert not np.array_equal(a, b)

    def test_derivation_is_pure(self):
        assert SeededRng(5).derive("x").seed == SeededRng(5).derive("x").seed
        assert SeededRng(5).derive("x").seed != SeededRng(6).derive("x").seed


class TestGradCheck:
    def test_quadratic(self):
        w = Parameter("w", np.array([[3.0]]))

        def loss():
            return ad.matmul(w, w)  # w^2

        assert grad_check(loss, [w], eps=1e-5) < 1e-9
        assert w.grad[0, 0] == pytest.approx(6.0, abs=1e-12)

    def test_gelu_point(self):
        w = Parameter("w", np.array([[0.5]]))

        def loss():
            return ad.gelu(w)

        assert grad_check(loss, [w], eps=1e-5) < 1e-6

    def test_eps_window_enforced(self):
        w = Parameter("w", np.array([[1.0]]))
        with pytest.raises(ValidationError):
            grad_check(lambda: w, [w], eps=1e-2)

    def test_nonfinite_loss_raises(self):
        w = Parameter("w", np.array([[0.0]]))

        def loss():
            return ad.const(np.array([[float("inf")]]))

        with pytest.raises(NumericError):
            grad_check(loss, [w], eps=1e-5)
