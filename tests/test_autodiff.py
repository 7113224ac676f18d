"""Every autodiff op's backward is checked against central differences at
unit scale, plus graph-level behaviors (fan-out accumulation, masking)."""

import math

import numpy as np
import pytest

from cogbert.errors import ShapeError
from cogbert.numerics import autodiff as ad
from cogbert.numerics.gradcheck import grad_check_report

RNG = np.random.default_rng(20240902)


def check(loss_fn, params, tol=1e-6):
    assert max(grad_check_report(loss_fn, params, eps=1e-5).values()) < tol


def reducer(shape):
    """Scalar reduction through a frozen random projection, so the loss is
    deterministic across the repeated evaluations grad_check_report makes.
    Built from production ops only: ones(1, r) @ (node * w) @ ones(c, 1)."""
    w = RNG.normal(size=shape)
    rows, cols = np.ones((1, shape[0])), np.ones((shape[1], 1))
    return lambda node: ad.matmul(ad.matmul(ad.const(rows), ad.mul_const(node, w)), ad.const(cols))


class TestElementwiseOps:
    def test_add(self):
        a = ad.Parameter("a", RNG.normal(size=(3, 4)))
        b = ad.Parameter("b", RNG.normal(size=(3, 4)))
        red = reducer((3, 4))
        check(lambda: red(ad.add(a, b)), [a, b])

    def test_add_bias(self):
        x = ad.Parameter("x", RNG.normal(size=(5, 4)))
        b = ad.Parameter("b", RNG.normal(size=(1, 4)))
        red = reducer((5, 4))
        check(lambda: red(ad.add_bias(x, b)), [x, b])

    def test_mul_const_and_scale(self):
        # A scalar constant is how mul_const scales (e.g. inverted dropout).
        x = ad.Parameter("x", RNG.normal(size=(3, 3)))
        c = RNG.normal(size=(3, 3))
        red = reducer((3, 3))
        check(lambda: red(ad.mul_const(ad.mul_const(x, c), 2.5)), [x])

    def test_gelu(self):
        x = ad.Parameter("x", RNG.normal(size=(4, 4)))
        red = reducer((4, 4))
        check(lambda: red(ad.gelu(x)), [x])


class TestMatrixOps:
    def test_matmul(self):
        a = ad.Parameter("a", RNG.normal(size=(3, 5)))
        b = ad.Parameter("b", RNG.normal(size=(5, 2)))
        red = reducer((3, 2))
        check(lambda: red(ad.matmul(a, b)), [a, b])

    def test_one_row_matches_its_row_of_a_two_row_product(self):
        """Forward, a.grad and b.grad of a 1-row product equal row 0's, bit for bit."""
        rng = np.random.default_rng(7)
        for k, n in ((16, 4), (32, 16), (7, 3), (64, 33)):
            row, b_value, w = rng.normal(size=(1, k)), rng.normal(size=(k, n)), rng.normal(size=(1, n))
            one = [ad.Parameter("a", row), ad.Parameter("b", b_value)]
            two = [ad.Parameter("a", np.vstack([row, rng.normal(size=(1, k))])),
                   ad.Parameter("b", b_value.copy())]
            out_one, out_two = ad.matmul(*one), ad.matmul(*two)
            ad.backward(ad.mul_const(out_one, w))
            ad.backward(ad.mul_const(ad.select_rows(out_two, [0]), w))
            np.testing.assert_array_equal(out_one.value[0], out_two.value[0])
            np.testing.assert_array_equal(one[0].grad[0], two[0].grad[0])
            np.testing.assert_array_equal(one[1].grad, two[1].grad)
            ones = np.ones((n, 1))
            check(lambda: ad.matmul(ad.mul_const(ad.matmul(*one), w), ad.const(ones)), one)

    def test_full_layout_backward_gradcheck(self):
        """matmul and linear on rows cut from a 7-row array, given its layout; a
        const left operand gets no gradient (None)."""
        layout = (7, np.array([0, 3, 5]))
        x = ad.Parameter("x", RNG.normal(size=(3, 4)))
        w = ad.Parameter("w", RNG.normal(size=(4, 2)))
        b = ad.Parameter("b", RNG.normal(size=(1, 2)))
        c = ad.const(RNG.normal(size=(3, 4)))
        red = reducer((3, 2))
        check(lambda: red(ad.matmul(x, w, layout)), [x, w])
        check(lambda: red(ad.linear(x, w, b, layout)), [x, w, b])
        check(lambda: red(ad.matmul(c, w, layout)), [w])
        check(lambda: red(ad.linear(c, w, b, layout)), [w, b])
        g = RNG.normal(size=(3, 2))
        da, dw = ad.matmul(c, w, layout).bwd(g)
        assert da is None
        np.testing.assert_allclose(dw, c.value.T @ g, rtol=1e-13)

    def test_full_layout_matches_selecting_after_the_product_bit_for_bit(self):
        """Selecting rows and then multiplying with the layout gives the value and
        gradients of multiplying all rows and then selecting, at row counts that
        take the BLAS's small-matrix kernel and that block the sum over rows."""
        rng = np.random.default_rng(31)
        for n_rows, d in ((16, 32), (512, 32), (2048, 64), (512, 16)):
            rows = np.sort(rng.choice(n_rows, size=max(1, n_rows // 64), replace=False))
            x_value, w_value = rng.normal(size=(n_rows, d)), rng.normal(size=(d, d))
            weight = rng.normal(size=(len(rows), d))
            grads = []
            for cut_first in (True, False):
                x, w = ad.Parameter("x", x_value), ad.Parameter("w", w_value)
                if cut_first:
                    out = ad.matmul(ad.select_rows(x, rows), w, (n_rows, rows))
                else:
                    out = ad.select_rows(ad.matmul(x, w), rows)
                ad.backward(ad.mul_const(out, weight))
                grads.append((out.value, x.grad, w.grad))
            for got, want in zip(*grads, strict=True):
                np.testing.assert_array_equal(got, want, err_msg=f"{n_rows} rows, width {d}")

    def test_concat_cols(self):
        a = ad.Parameter("a", RNG.normal(size=(3, 2)))
        b = ad.Parameter("b", RNG.normal(size=(3, 3)))
        red = reducer((3, 5))
        check(lambda: red(ad.concat_cols(a, b)), [a, b])

    def test_gather_rows_with_repeats(self):
        table = ad.Parameter("t", RNG.normal(size=(6, 3)))
        ids = np.array([0, 2, 2, 5, 0])
        red = reducer((5, 3))
        check(lambda: red(ad.gather_rows(table, ids)), [table])

    @pytest.mark.parametrize("n, d, m", [(6, 3, 5), (101, 16, 128), (2048, 32, 2048), (4, 2, 0)])
    def test_scatter_matches_add_at_bit_for_bit(self, n, d, m):
        rng = np.random.default_rng(n + m)
        rows = rng.integers(0, max(n // 8, 1), size=m)  # many repeats
        g = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-8, 8, size=(m, 1))
        g[::3, 0] = -0.0
        want = np.zeros((n, d))
        np.add.at(want, rows, g)
        got = ad._scatter_rows((n, d), rows, g)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_gather_rows_rejects_out_of_range(self):
        table = ad.Parameter("t", np.zeros((4, 2)))
        with pytest.raises(IndexError):
            ad.gather_rows(table, np.array([0, 4]))

    def test_select_rows(self):
        x = ad.Parameter("x", RNG.normal(size=(6, 3)))
        idx = np.array([0, 3])
        red = reducer((2, 3))
        check(lambda: red(ad.select_rows(x, idx)), [x])


class TestNormalizers:
    def test_layer_norm_rows(self):
        x = ad.Parameter("x", RNG.normal(size=(5, 8)))
        g = ad.Parameter("g", RNG.normal(1.0, 0.3, size=(1, 8)))
        b = ad.Parameter("b", RNG.normal(size=(1, 8)))
        red = reducer((5, 8))
        check(lambda: red(ad.layer_norm_rows(x, g, b)), [x, g, b])

    @pytest.mark.parametrize("rows", [1, 2, 128, 2048])
    @pytest.mark.parametrize("d", [32, 13])
    def test_layer_norm_matches_mean_var_reference_bit_for_bit(self, rows, d):
        """The sum/d form equals the np.mean/np.var form it replaces, forward and backward."""
        rng = np.random.default_rng(rows * 100 + d)
        xv = rng.normal(0.5, 2.0, size=(rows, d))
        gv, bv = rng.normal(1.0, 0.3, size=(1, d)), rng.normal(size=(1, d))
        g = rng.normal(size=(rows, d))

        mean = xv.mean(axis=1, keepdims=True)
        var = xv.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        xhat = (xv - mean) * inv_std
        dxhat = g * gv
        want = [
            xhat * gv + bv,
            inv_std * (dxhat - dxhat.mean(axis=1, keepdims=True)
                       - xhat * (dxhat * xhat).sum(axis=1, keepdims=True) / d),
            (g * xhat).sum(axis=0, keepdims=True),
            g.sum(axis=0, keepdims=True),
        ]

        out = ad.layer_norm_rows(ad.const(xv), ad.const(gv), ad.const(bv), 1e-5)
        for got, ref in zip([out.value, *out.bwd(g)], want, strict=True):
            np.testing.assert_array_equal(got, ref)

    def test_cross_entropy_mean(self):
        logits = ad.Parameter("l", RNG.normal(size=(6, 4)))
        labels = np.array([0, 3, 1, 1, 2, 0])
        check(lambda: ad.cross_entropy_mean(logits, labels), [logits])


class TestAttention:
    def test_multi_head_attention(self):
        batch, seq, heads, d = 2, 5, 2, 8
        q = ad.Parameter("q", RNG.normal(size=(batch * seq, d)))
        k = ad.Parameter("k", RNG.normal(size=(batch * seq, d)))
        v = ad.Parameter("v", RNG.normal(size=(batch * seq, d)))
        mask = np.zeros((batch, seq))
        mask[:, -1] = -10000.0

        red = reducer((batch * seq, d))

        def loss():
            ctx, _ = ad.multi_head_attention(q, k, v, mask, heads)
            return red(ctx)

        check(loss, [q, k, v])

    def test_in_place_scores_match_reference_bit_for_bit(self):
        """Probabilities, context and gradients equal the out-of-place form they replaced,
        also when the probabilities go into a layer's slice of a 5-D array."""
        batch, seq, heads, d = 3, 16, 2, 12  # head width 6: 1/sqrt(6) is inexact
        q, k, v = (ad.Parameter(name, RNG.normal(0.0, 2.0, size=(batch * seq, d)))
                   for name in "qkv")
        mask = np.zeros((batch, seq))
        mask[0, 9:] = mask[2, 13:] = -10000.0

        def split(m):
            return m.reshape(batch, seq, heads, d // heads).transpose(0, 2, 1, 3)

        qh, kh, vh = split(q.value), split(k.value), split(v.value)
        scores = qh @ kh.transpose(0, 1, 3, 2) * (1.0 / math.sqrt(d // heads)) + mask[:, None, None, :]
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        want = e / e.sum(axis=-1, keepdims=True)
        want_ctx = (want @ vh).transpose(0, 2, 1, 3).reshape(batch * seq, d)

        g = RNG.normal(size=(batch * seq, d))
        grads = []
        for layer, attention in ((None, None), (1, np.full((batch, 3, heads, seq, seq), np.nan))):
            probs_out = None if attention is None else attention[:, layer]
            ctx, probs = ad.multi_head_attention(q, k, v, mask, heads, probs_out)
            np.testing.assert_array_equal(probs, want)
            np.testing.assert_array_equal(ctx.value, want_ctx)
            grads.append(ctx.bwd(g))
            if attention is not None:
                assert probs is probs_out
                np.testing.assert_array_equal(attention[:, layer], want)
                assert np.isnan(np.delete(attention, layer, axis=1)).all()
        for got, ref in zip(*grads, strict=True):
            np.testing.assert_array_equal(got, ref)

    @staticmethod
    def first_rows(m, batch, n_q):
        """The first n_q rows of each of batch stacked sentences of m."""
        return m.reshape(batch, -1, m.shape[1])[:, :n_q].reshape(batch * n_q, m.shape[1])

    def test_fewer_query_rows_gradcheck(self):
        """1 or 2 query rows per sentence attend over all keys; k and v keep every row."""
        batch, seq, heads, d = 2, 5, 2, 8
        k = ad.Parameter("k", RNG.normal(size=(batch * seq, d)))
        v = ad.Parameter("v", RNG.normal(size=(batch * seq, d)))
        mask = np.zeros((batch, seq))
        mask[0, -2:] = -10000.0
        for n_q in (1, 2):
            q = ad.Parameter("q", RNG.normal(size=(batch * n_q, d)))
            red = reducer((batch * n_q, d))

            def loss():
                ctx, probs = ad.multi_head_attention(q, k, v, mask, heads)
                assert probs.shape == (batch, heads, n_q, seq)
                return red(ctx)

            check(loss, [q, k, v])

    def test_fewer_query_rows_match_full_query_rows_bit_for_bit(self):
        """Probabilities and context of the first 1 or 2 query rows equal those rows of
        the attention of every query row, at the model's head width of 16."""
        seq, heads, d = 64, 2, 32
        for batch in (1, 3, 32):
            q, k, v = (ad.const(RNG.normal(0.0, 2.0, size=(batch * seq, d))) for _ in "qkv")
            mask = np.zeros((batch, seq))
            for b in range(batch):
                mask[b, RNG.integers(3, seq + 1):] = -10000.0
            full_ctx, full_probs = ad.multi_head_attention(q, k, v, mask, heads)
            for n_q in (1, 2):
                rows = ad.const(self.first_rows(q.value, batch, n_q))
                ctx, probs = ad.multi_head_attention(rows, k, v, mask, heads)
                np.testing.assert_array_equal(probs, full_probs[:, :, :n_q],
                                              err_msg=f"batch {batch}, {n_q} rows")
                np.testing.assert_array_equal(ctx.value, self.first_rows(full_ctx.value, batch, n_q),
                                              err_msg=f"batch {batch}, {n_q} rows")

    def test_query_rows_must_stack_evenly(self):
        mask = np.zeros((2, 4))
        k = v = ad.const(RNG.normal(size=(8, 4)))
        for q in (ad.const(np.ones((3, 4))), ad.const(np.ones((2, 6)))):
            with pytest.raises(ShapeError, match="do not stack evenly over 2 sentences"):
                ad.multi_head_attention(q, k, v, mask, 2)

    def test_probabilities_are_row_stochastic_and_masked(self):
        batch, seq, heads, d = 3, 6, 2, 8
        q = ad.const(RNG.normal(size=(batch * seq, d)))
        k = ad.const(RNG.normal(size=(batch * seq, d)))
        v = ad.const(RNG.normal(size=(batch * seq, d)))
        mask = np.zeros((batch, seq))
        mask[:, 4:] = -10000.0
        _, probs = ad.multi_head_attention(q, k, v, mask, heads)
        np.testing.assert_allclose(probs.sum(axis=3), 1.0, atol=1e-9)
        assert probs[:, :, :, 4:].max() < 1e-4

    def test_single_unmasked_column_takes_all_mass(self):
        batch, seq, heads, d = 1, 4, 2, 4
        q = ad.const(RNG.normal(size=(seq, d)))
        k = ad.const(RNG.normal(size=(seq, d)))
        v = ad.const(RNG.normal(size=(seq, d)))
        mask = np.full((batch, seq), -10000.0)
        mask[0, 2] = 0.0
        _, probs = ad.multi_head_attention(q, k, v, mask, heads)
        np.testing.assert_allclose(probs[0, :, :, 2], 1.0, atol=1e-9)

    def test_uniform_queries_give_uniform_probabilities(self):
        batch, seq, heads, d = 1, 5, 1, 4
        q = ad.const(np.ones((seq, d)))
        k = ad.const(np.ones((seq, d)))
        v = ad.const(RNG.normal(size=(seq, d)))
        mask = np.zeros((batch, seq))
        _, probs = ad.multi_head_attention(q, k, v, mask, heads)
        np.testing.assert_allclose(probs, 1.0 / seq, atol=1e-12)


def one_run_of_every_op(intermediate_inputs=False):
    """(op name, output node) for one call of every differentiable op; its
    inputs are Parameters, or with intermediate_inputs, ops' outputs."""
    def p(*shape):
        param = ad.Parameter("p", RNG.normal(size=shape))
        return ad.mul_const(param, 1.0) if intermediate_inputs else param
    return [
        ("add", ad.add(p(3, 4), p(3, 4))),
        ("add_bias", ad.add_bias(p(3, 4), p(1, 4))),
        ("mul_const", ad.mul_const(p(3, 4), RNG.normal(size=(3, 4)))),
        ("matmul", ad.matmul(p(3, 5), p(5, 2))),
        ("matmul", ad.matmul(p(3, 5), p(5, 2), (7, np.array([0, 2, 6])))),  # full layout
        ("gelu", ad.gelu(p(3, 4))),
        ("layer_norm_rows", ad.layer_norm_rows(p(3, 4), p(1, 4), p(1, 4))),
        ("gather_rows", ad.gather_rows(p(6, 3), np.array([0, 2, 2, 5]))),
        ("select_rows", ad.select_rows(p(6, 3), np.array([1, 4]))),
        ("concat_cols", ad.concat_cols(p(3, 2), p(3, 5))),
        ("multi_head_attention", ad.multi_head_attention(
            p(2 * 3, 4), p(2 * 3, 4), p(2 * 3, 4), np.zeros((2, 3)), 2)[0]),
        ("multi_head_attention", ad.multi_head_attention(  # one query row per sentence
            p(2, 4), p(2 * 3, 4), p(2 * 3, 4), np.zeros((2, 3)), 2)[0]),
        ("cross_entropy_mean", ad.cross_entropy_mean(p(3, 4), np.array([0, 3, 1]))),
    ]


class TestTapeContract:
    """A backward rule returns one gradient per parent, shaped like it, and
    `backward` alone adds gradients up."""

    def test_every_op_is_covered(self):
        not_ops = {"const", "backward", "softmax", "linear", "dropout", "no_tape", "Node",
                   "Parameter"}
        ops = {name for name, value in vars(ad).items()
               if callable(value) and not name.startswith("_")
               and getattr(value, "__module__", None) == ad.__name__} - not_ops
        assert ops == {name for name, _ in one_run_of_every_op()}

    def test_rule_returns_one_gradient_per_parent_with_its_shape(self):
        for name, out in one_run_of_every_op():
            grads = out.bwd(RNG.normal(size=out.value.shape))
            assert isinstance(grads, tuple), name
            assert [g.shape for g in grads] == [p.value.shape for p in out.parents], name

    def test_rule_writes_no_grad(self):
        for name, out in one_run_of_every_op():
            before = [p.grad.copy() for p in out.parents]
            out.bwd(RNG.normal(size=out.value.shape))
            for parent, grad in zip(out.parents, before):
                np.testing.assert_array_equal(parent.grad, grad, err_msg=name)

    def test_const_leaf_gets_no_gradient(self):
        # matmul skips the g @ b.T product for a const left operand; backward
        # stores nothing on a const leaf, and the parameters' gradients are as before.
        x, c = ad.const(RNG.normal(size=(3, 4))), ad.const(RNG.normal(size=(3, 5)))
        w = ad.Parameter("w", RNG.normal(size=(4, 2)))
        g = RNG.normal(size=(3, 7))
        out = ad.matmul(x, w)
        assert out.bwd(g[:, :2])[0] is None
        ad.backward(ad.mul_const(ad.concat_cols(out, c), g))
        assert x.grad is None and c.grad is None
        np.testing.assert_array_equal(w.grad, x.value.T @ g[:, :2])

    def test_intermediate_node_feeding_two_ops(self):
        # u reaches the loss twice and add hands both its inputs the same array:
        # summing into that array in place would double-count u's gradient.
        w = ad.Parameter("w", RNG.normal(size=(3, 4)))
        red = reducer((3, 4))

        def loss():
            u = ad.gelu(w)
            s = ad.add(u, ad.mul_const(w, 3.0))
            return red(ad.add(s, u))

        check(loss, [w])


class TestNoTape:
    """Inside no_tape() an op records no backward rule, and a node links only
    to its direct inputs."""

    def test_op_keeps_no_rule_and_empties_its_inputs_parents(self):
        with ad.no_tape():
            runs = one_run_of_every_op(intermediate_inputs=True)
        for name, out in runs:
            assert out.bwd is None, name
            assert out.parents and all(p.parents == () for p in out.parents), name
        taped = one_run_of_every_op(intermediate_inputs=True)
        for name, out in taped:
            assert out.bwd is not None and all(p.parents for p in out.parents), name

    def test_restores_recording_after_an_exception_and_when_nested(self):
        w = ad.Parameter("w", RNG.normal(size=(2, 3)))

        def taping():
            return ad.gelu(w).bwd is not None

        with ad.no_tape():
            with ad.no_tape():
                assert not taping()
            assert not taping()
        assert taping()
        with pytest.raises(RuntimeError), ad.no_tape():
            raise RuntimeError("inside no_tape")
        assert taping()


class TestGraphBehavior:
    def test_fanout_accumulates(self):
        # y = w + w: dy/dw must be 2, not 1.
        w = ad.Parameter("w", np.array([[1.5]]))
        ad.backward(ad.add(w, w))
        assert w.grad[0, 0] == pytest.approx(2.0)

    def test_diamond_graph(self):
        w = ad.Parameter("w", RNG.normal(size=(2, 2)))
        red = reducer((2, 2))

        def loss():
            left = ad.gelu(w)
            right = ad.mul_const(w, 3.0)
            return red(ad.add(left, right))

        check(loss, [w])

    def test_parameter_feeding_two_ops_gets_summed_gradient(self):
        # w is the bias of add_bias and the gamma of layer_norm_rows in one graph.
        x = ad.Parameter("x", RNG.normal(size=(5, 4)))
        beta = ad.Parameter("beta", RNG.normal(size=(1, 4)))
        w = ad.Parameter("w", RNG.normal(1.0, 0.3, size=(1, 4)))
        red = reducer((5, 4))

        def loss(bias, gamma):
            return red(ad.layer_norm_rows(ad.add_bias(x, bias), gamma, beta))

        check(lambda: loss(w, w), [x, beta, w])
        # The same graph with two separate copies of w: their sum is w's gradient.
        w_bias = ad.Parameter("w_bias", w.value.copy())
        w_gamma = ad.Parameter("w_gamma", w.value.copy())
        check(lambda: loss(w_bias, w_gamma), [w_bias, w_gamma])
        assert np.abs(w_bias.grad).min() > 0 and np.abs(w_gamma.grad).min() > 0
        np.testing.assert_allclose(w.grad, w_bias.grad + w_gamma.grad, rtol=1e-12, atol=1e-15)

    def test_parameter_grad_accumulates_until_zero_grad(self):
        w = ad.Parameter("w", RNG.normal(size=(3, 2)))
        red = reducer((3, 2))

        def loss():
            return red(ad.gelu(ad.mul_const(w, 2.0)))

        check(loss, [w])  # leaves the FD-checked gradient of one backward in w.grad
        once = w.grad.copy()
        buffer = w.grad
        ad.backward(loss())
        assert w.grad is buffer  # backward adds into the buffer, never replaces it
        np.testing.assert_array_equal(w.grad, once + once)
        ad.backward(loss())
        np.testing.assert_allclose(w.grad, 3.0 * once, rtol=1e-15)
        w.zero_grad()
        np.testing.assert_array_equal(w.grad, 0.0)
        ad.backward(loss())
        np.testing.assert_array_equal(w.grad, once)

    def test_dropout_zero_rate_is_identity(self):
        x = ad.const(RNG.normal(size=(3, 3)))
        assert ad.dropout(x, 0.0, None, (1, 3, 3)) is x

    @pytest.mark.parametrize("n, width, rows", [(3, 16, 5), (2, 8, 8), (1, 24, 1)])
    def test_dropout_masks_and_stream_match_full_width_draw(self, n, width, rows):
        """Drawing only the kept rows gives the full-width draw's masks and next draw."""
        from cogbert.numerics.rng import SeededRng
        d, rate = 6, 0.3
        rng, ref = SeededRng(11), SeededRng(11)
        out = ad.dropout(ad.const(np.ones((n * rows, d))), rate, rng, (n, width, d))
        u = ref.random((n, width, d))[:, :rows].reshape(n * rows, d)
        np.testing.assert_array_equal(out.value, (u >= rate).astype(np.float64) / (1.0 - rate))
        np.testing.assert_array_equal(rng.random((2, 5)), ref.random((2, 5)))

        blocks = SeededRng(12).random_blocks((n, width, d), rows)
        np.testing.assert_array_equal(blocks, SeededRng(12).random((n, width, d))[:, :rows])

    def test_dropout_scales_kept_entries(self):
        from cogbert.numerics.rng import SeededRng
        x = ad.const(np.ones((100, 10)))
        out = ad.dropout(x, 0.5, SeededRng(0), (1, 100, 10))
        values = np.unique(out.value)
        assert set(values.tolist()) <= {0.0, 2.0}
