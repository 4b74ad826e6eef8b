import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptdistil import nn
from conceptdistil.errors import DataError, NumericError

import nn_reference as ref
from oracles import fd_check_blocks, relu_kink_clearance, straight_line_mlp

# overflow and underflow edges of exp, signed zeros, subnormals and the largest magnitudes
EDGES = [745.0, -745.0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
         1e308, -1e308]


def identity_layer(dim):
    spec = nn.LayerSpec(dim, dim, "identity")
    layer = nn.LayerParams(np.eye(dim), np.zeros(dim))
    return nn.MLPParams([layer], [spec])


class TestForward:
    def test_identity_layer_passes_input_through(self):
        params = identity_layer(2)
        out, _ = nn.forward(params, [[3.5, -1.0]])
        np.testing.assert_array_equal(out, [[3.5, -1.0]])

    def test_zero_sigmoid_layer_outputs_half(self):
        spec = nn.LayerSpec(3, 2, "sigmoid")
        params = nn.MLPParams([nn.LayerParams(np.zeros((2, 3)), np.zeros(2))], [spec])
        out, _ = nn.forward(params, np.random.default_rng(0).normal(size=(4, 3)))
        np.testing.assert_array_equal(out, np.full((4, 2), 0.5))

    def test_two_layer_net_matches_straight_line_oracle(self):
        specs = [nn.LayerSpec(3, 5, "relu"), nn.LayerSpec(5, 2, "sigmoid")]
        params = nn.init_mlp(specs, seed=7)
        x = np.random.default_rng(1).normal(size=(4, 3))
        out, _ = nn.forward(params, x)
        expected = straight_line_mlp(
            x, [(l.weights, l.bias, s.activation) for l, s in zip(params.layers, specs)]
        )
        np.testing.assert_allclose(out, expected, atol=1e-12, rtol=0)

    def test_dimension_mismatch_rejected(self):
        params = identity_layer(2)
        with pytest.raises(DataError):
            nn.forward(params, np.zeros((1, 3)))

    def test_non_finite_output_rejected(self):
        spec = nn.LayerSpec(1, 1, "identity")
        params = nn.MLPParams([nn.LayerParams(np.array([[1e308]]), np.zeros(1))], [spec])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            nn.forward(params, [[1e308]])

    def test_deterministic_given_seed(self):
        specs = [nn.LayerSpec(4, 6, "relu", dropout_p=0.3), nn.LayerSpec(6, 1, "sigmoid")]
        params = nn.init_mlp(specs, seed=0)
        x = np.random.default_rng(5).normal(size=(8, 4))
        a, _ = nn.forward(params, x, nn.TRAIN, rng_seed=42)
        b, _ = nn.forward(params, x, nn.TRAIN, rng_seed=42)
        assert np.array_equal(a, b)
        c, _ = nn.forward(params, x, nn.TRAIN, rng_seed=43)
        assert not np.array_equal(a, c)

    def test_eval_mode_stochastic_layers_are_pure(self):
        specs = [nn.LayerSpec(4, 6, "relu", dropout_p=0.3, use_batchnorm=True), nn.LayerSpec(6, 1, "sigmoid")]
        params = nn.init_mlp(specs, seed=0)
        x = np.random.default_rng(5).normal(size=(8, 4))
        a, tr = nn.forward(params, x, nn.EVAL, rng_seed=1)
        b, _ = nn.forward(params, x, nn.EVAL, rng_seed=999)
        assert np.array_equal(a, b)
        assert all(t.mask is None for t in tr.layers)


class TestBackward:
    def test_identity_layer_weight_grad_is_outer_product_sum(self):
        params = identity_layer(3)
        x = np.random.default_rng(3).normal(size=(5, 3))
        out, trace = nn.forward(params, x)
        ones = np.ones_like(out)
        grads, _ = nn.backward(params, trace, ones)
        np.testing.assert_allclose(grads.layers[0].weights, ones.T @ x, atol=1e-12)

    def test_zero_upstream_gives_zero_grads(self):
        specs = [nn.LayerSpec(3, 4, "relu"), nn.LayerSpec(4, 2, "sigmoid")]
        params = nn.init_mlp(specs, seed=2)
        x = np.random.default_rng(4).normal(size=(6, 3))
        out, trace = nn.forward(params, x)
        grads, din = nn.backward(params, trace, np.zeros_like(out))
        for g in grads.layers:
            assert not g.weights.any() and not g.bias.any()
        assert not din.any()

    def test_identity_grad_matches_finite_differences(self):
        params = identity_layer(2)
        x = np.random.default_rng(8).normal(size=(4, 2))
        up = np.ones((4, 2))

        def run():
            out, _ = nn.forward(params, x)
            return float((out * up).sum())

        out, trace = nn.forward(params, x)
        grads, _ = nn.backward(params, trace, up)
        layer = params.layers[0]
        worst = fd_check_blocks(run, [layer.weights, layer.bias], [grads.layers[0].weights, grads.layers[0].bias])
        assert worst < 1e-4

    def test_dropout_net_grad_matches_fd_with_frozen_mask(self):
        specs = [
            nn.LayerSpec(3, 6, "relu", dropout_p=0.2),
            nn.LayerSpec(6, 5, "relu", dropout_p=0.2),
            nn.LayerSpec(5, 2, "sigmoid"),
        ]
        params = nn.init_mlp(specs, seed=3)
        # jitter the zero biases: a fully-masked row would otherwise put the
        # next pre-activation exactly on the relu kink, where FD is invalid
        rng = np.random.default_rng(99)
        for layer in params.layers:
            layer.bias += rng.normal(scale=0.05, size=layer.bias.shape)
        x = np.random.default_rng(6).normal(size=(5, 3))
        up = np.random.default_rng(7).normal(size=(5, 2))
        seed = 11

        def run():
            out, _ = nn.forward(params, x, nn.TRAIN, rng_seed=seed)
            return float((out * up).sum())

        out, trace = nn.forward(params, x, nn.TRAIN, rng_seed=seed)
        assert relu_kink_clearance(params, trace) > 1e-3
        grads, _ = nn.backward(params, trace, up)
        blocks, gblocks = [], []
        for layer, g in zip(params.layers, grads.layers):
            blocks += [layer.weights, layer.bias]
            gblocks += [g.weights, g.bias]
        assert fd_check_blocks(run, blocks, gblocks) < 1e-4

    def test_batchnorm_train_mode_grad_matches_fd(self):
        specs = [nn.LayerSpec(3, 5, "relu", use_batchnorm=True), nn.LayerSpec(5, 2, "sigmoid")]
        params = nn.init_mlp(specs, seed=9)
        x = np.random.default_rng(10).normal(size=(7, 3))
        up = np.random.default_rng(11).normal(size=(7, 2))

        def run():
            out, _ = nn.forward(params, x, nn.TRAIN, rng_seed=0)
            return float((out * up).sum())

        out, trace = nn.forward(params, x, nn.TRAIN, rng_seed=0)
        grads, _ = nn.backward(params, trace, up)
        layer, g = params.layers[0], grads.layers[0]
        blocks = [layer.weights, layer.bias, layer.gamma, layer.beta]
        gblocks = [g.weights, g.bias, g.gamma, g.beta]
        assert fd_check_blocks(run, blocks, gblocks) < 1e-4

    def test_batchnorm_eval_mode_grad_matches_fd(self):
        # eval mode normalizes with the stored running stats, which are
        # constants under parameter perturbation; separate backward path
        specs = [nn.LayerSpec(3, 5, "relu", use_batchnorm=True), nn.LayerSpec(5, 2, "sigmoid")]
        params = nn.init_mlp(specs, seed=14)
        layer = params.layers[0]
        rng = np.random.default_rng(15)
        layer.running_mean = rng.normal(size=5)
        layer.running_var = rng.uniform(0.5, 2.0, size=5)
        x = rng.normal(size=(6, 3))
        up = rng.normal(size=(6, 2))

        def run():
            out, _ = nn.forward(params, x, nn.EVAL)
            return float((out * up).sum())

        out, trace = nn.forward(params, x, nn.EVAL)
        grads, _ = nn.backward(params, trace, up)
        g = grads.layers[0]
        blocks = [layer.weights, layer.bias, layer.gamma, layer.beta]
        gblocks = [g.weights, g.bias, g.gamma, g.beta]
        assert fd_check_blocks(run, blocks, gblocks) < 1e-4

    def test_trace_params_mismatch_rejected(self):
        a = nn.init_mlp([nn.LayerSpec(3, 4, "relu"), nn.LayerSpec(4, 1, "sigmoid")], seed=0)
        b = nn.init_mlp([nn.LayerSpec(2, 4, "relu"), nn.LayerSpec(4, 1, "sigmoid")], seed=0)
        out, trace = nn.forward(a, np.zeros((2, 3)))
        with pytest.raises(DataError):
            nn.backward(b, trace, np.ones_like(out))


@st.composite
def traced_mlps(draw):
    """A plain, dropout or batchnorm MLP, stacked or not, traced in train or eval mode, and two upstreams."""
    kind = draw(st.sampled_from(["plain", "dropout", "batchnorm"]))
    mode = draw(st.sampled_from([nn.TRAIN, nn.EVAL]))
    k = draw(st.sampled_from([None, 1, 3]))  # None: unstacked
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    acts = draw(st.lists(st.sampled_from(nn.ACTIVATIONS), min_size=len(dims) - 1, max_size=len(dims) - 1))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    specs = [nn.LayerSpec(a, b, act, 0.3 if kind == "dropout" else 0.0, kind == "batchnorm")
             for a, b, act in zip(dims, dims[1:], acts)]
    rng = np.random.default_rng(seed)
    members = [nn.init_mlp(specs, seed + i) for i in range(k or 1)]
    for layer in (l for m in members for l in m.layers):
        layer.bias += rng.normal(scale=0.1, size=layer.bias.shape)
        if layer.gamma is not None:  # eval mode scales by gamma / sqrt(running_var + eps)
            layer.gamma[:] = rng.uniform(0.5, 1.5, size=layer.gamma.shape)
            layer.running_mean[:] = rng.normal(size=layer.running_mean.shape)
            layer.running_var[:] = rng.uniform(0.5, 2.0, size=layer.running_var.shape)
    params = nn.stack(members) if k else members[0]
    seeds = [seed + 100 + i for i in range(k)] if k else seed + 100
    out, trace = nn.forward(params, rng.normal(size=(n, dims[0])), mode, seeds)
    return params, trace, rng.normal(size=out.shape), rng.normal(size=out.shape)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestInPlaceBackward:
    @given(traced_mlps(), st.booleans())
    def test_reused_dirty_buffer_gives_the_reference_bits(self, case, input_grad):
        params, trace, first, up = case
        flat, (grads,) = nn.new_grads([params])
        flat[:] = np.nan  # any slot backward left unwritten would keep a NaN
        for upstream in (first, up):  # the second call reuses a buffer holding the first one's gradients
            kept = upstream.copy()
            got, d_in = nn.backward(params, trace, upstream, grads, input_grad=input_grad)
            want, want_d_in = ref.backward(params, trace, upstream)
            assert got is grads
            assert_same_bits(grads.flat, want.flat)
            if input_grad:
                assert_same_bits(d_in, want_d_in)
            else:
                assert d_in is None
            assert_same_bits(upstream, kept)

    @pytest.mark.parametrize("mode", [nn.TRAIN, nn.EVAL])
    def test_transposed_upstream_gives_the_bits_of_its_contiguous_copy(self, mode):
        # the shape and layout of the stacked heads' upstream, (n, K) transposed to (K, n, 1)
        specs = [nn.LayerSpec(5, 4, "relu", 0.2, True), nn.LayerSpec(4, 1, "sigmoid")]
        params = nn.stack([nn.init_mlp(specs, seed) for seed in range(3)])
        rng = np.random.default_rng(4)
        _, trace = nn.forward(params, rng.normal(size=(20, 5)), mode, [1, 2, 3])
        up = rng.normal(size=(20, 3)).T[:, :, None]
        assert not up.flags.c_contiguous
        got, d_in = nn.backward(params, trace, up)
        copy, copy_d_in = nn.backward(params, trace, np.ascontiguousarray(up))
        want, want_d_in = ref.backward(params, trace, up)
        for a, b in ((got.flat, copy.flat), (d_in, copy_d_in), (got.flat, want.flat), (d_in, want_d_in)):
            assert_same_bits(a, b)


class TestKernelsMatchReferences:
    def test_sigmoid(self):
        z = np.array(EDGES + [709.8, -709.8, 746.0, -746.0, 36.7, -36.7, 1e-300, -1e-300])
        z = np.concatenate([z, np.random.default_rng(0).normal(scale=40.0, size=62)])
        for shaped in (z, z.reshape(2, 4, -1)):
            assert_same_bits(nn._sigmoid(shaped), ref.sigmoid(shaped))

    @given(st.lists(st.lists(st.sampled_from(EDGES) | st.floats(-1e3, 1e3), min_size=1, max_size=5),
                    min_size=1, max_size=6).filter(lambda rows: len({len(r) for r in rows}) == 1))
    def test_softmax(self, rows):
        with np.errstate(over="ignore"):  # 1e308 - (-1e308) overflows to inf in both, and exp(-inf) is 0
            assert_same_bits(nn.softmax_rowwise(rows), ref.softmax_rowwise(rows))

    def test_bce_loss(self):
        lo, hi = nn.BCE_EPS, 1.0 - nn.BCE_EPS
        preds = EDGES + [lo, hi, np.nextafter(lo, 0), np.nextafter(lo, 1), np.nextafter(hi, 0),
                         np.nextafter(hi, 1), 0.5, 1.0]
        targets = [0.0, -0.0, 1.0, 0.5, 5e-324, 1.0 - 2**-53]
        pred, target = (a.copy() for a in np.meshgrid(preds, targets))
        cases = [(pred, target), (pred[:, :1], target[:, :1])]
        cases += [(pred[i : i + 1, j : j + 1], target[i : i + 1, j : j + 1])
                  for i in range(len(targets)) for j in range(len(preds))]
        for p, t in cases:
            kept = p.copy()
            loss, grad = nn.bce_loss(p, t)
            want_loss, want_grad = ref.bce_loss(p, t)
            assert_same_bits(np.float64(loss), np.float64(want_loss))
            assert_same_bits(grad, want_grad)
            assert_same_bits(p, kept)


class TestBceLoss:
    def test_half_vs_one_is_ln2(self):
        loss, _ = nn.bce_loss([[0.5]], [[1.0]])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_prediction_is_near_zero(self):
        loss, _ = nn.bce_loss([[1.0 - 1e-7]], [[1.0]])
        assert loss < 1e-6

    def test_hand_evaluated_example(self):
        expected = (-math.log(0.8) - math.log(0.7)) / 2.0
        loss, _ = nn.bce_loss([[0.8, 0.3]], [[1.0, 0.0]])
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_fd(self):
        pred = np.array([[0.3, 0.6], [0.8, 0.2]])
        target = np.array([[1.0, 0.2], [0.4, 0.9]])
        _, grad = nn.bce_loss(pred, target)

        def run():
            return nn.bce_loss(pred, target)[0]

        assert fd_check_blocks(run, [pred], [grad]) < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            nn.bce_loss([[0.5]], [[1.0, 0.0]])


class TestSoftmax:
    def test_zeros_give_uniform(self):
        np.testing.assert_allclose(nn.softmax_rowwise([[0.0, 0.0, 0.0]]), [[1 / 3] * 3], atol=1e-15)

    def test_ln2_closed_form(self):
        out = nn.softmax_rowwise([[math.log(2), 0.0, 0.0]])
        np.testing.assert_allclose(out, [[0.5, 0.25, 0.25]], atol=1e-12)

    def test_large_inputs_do_not_overflow(self):
        out = nn.softmax_rowwise([[1000.0, 0.0]])
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            nn.softmax_rowwise([[np.inf, 0.0]])

    @given(
        st.lists(
            st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=6),
            min_size=1,
            max_size=8,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_rows_sum_to_one(self, rows):
        out = nn.softmax_rowwise(rows)
        # entries can round to exactly 0/1 once gaps exceed ~37 in float64
        assert np.all(out >= 0) and np.all(out <= 1)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @given(
        st.lists(
            st.lists(st.floats(min_value=-15, max_value=15), min_size=2, max_size=6),
            min_size=1,
            max_size=8,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_moderate_inputs_stay_strictly_inside_unit_interval(self, rows):
        out = nn.softmax_rowwise(rows)
        assert np.all(out > 0) and np.all(out < 1)

    def test_backward_matches_fd(self):
        e = np.random.default_rng(12).normal(size=(3, 4))
        up = np.random.default_rng(13).normal(size=(3, 4))
        alpha = nn.softmax_rowwise(e)
        grad = nn.softmax_backward(alpha, up)

        def run():
            return float((nn.softmax_rowwise(e) * up).sum())

        assert fd_check_blocks(run, [e], [grad]) < 1e-5


class TestOptimizer:
    def scalar_params(self, value):
        spec = nn.LayerSpec(1, 1, "identity")
        params = nn.MLPParams([nn.LayerParams(np.array([[value]]), np.zeros(1))], [spec])
        nn.pack([params])
        return params

    def scalar_grads(self, value):
        return np.array([value, 0.0])  # packed layout: the weight, then the bias

    def test_sgd_single_step(self):
        params = self.scalar_params(1.0)
        cfg = nn.OptimizerConfig(algorithm="sgd", lr=0.1)
        nn.optimizer_step(params.flat, self.scalar_grads(0.5), cfg)
        assert params.layers[0].weights[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_sgd_pure_decay(self):
        params = self.scalar_params(1.0)
        cfg = nn.OptimizerConfig(algorithm="sgd", lr=0.1, l2_penalty=0.1)
        nn.optimizer_step(params.flat, self.scalar_grads(0.0), cfg)
        assert params.layers[0].weights[0, 0] == pytest.approx(0.99, abs=1e-15)

    def test_adam_first_step_matches_scalar_recursion(self):
        g, lr, b1, b2, eps = 0.5, 0.001, 0.9, 0.999, 1e-8
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        m_hat = m / (1 - b1)
        v_hat = v / (1 - b2)
        expected = 1.0 - lr * m_hat / (math.sqrt(v_hat) + eps)
        params = self.scalar_params(1.0)
        cfg = nn.OptimizerConfig(algorithm="adam", lr=lr, adam_beta1=b1, adam_beta2=b2, adam_eps=eps)
        nn.optimizer_step(params.flat, self.scalar_grads(g), cfg)
        assert params.layers[0].weights[0, 0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(1.0 - 0.001, abs=1e-5)

    def test_adam_three_steps_match_scalar_recursion(self):
        gs = [0.5, -0.2, 0.1]
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        theta, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(gs, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        params = self.scalar_params(1.0)
        cfg = nn.OptimizerConfig(algorithm="adam", lr=lr, adam_beta1=b1, adam_beta2=b2, adam_eps=eps)
        state = None
        for g in gs:
            state = nn.optimizer_step(params.flat, self.scalar_grads(g), cfg, state)
        assert params.layers[0].weights[0, 0] == pytest.approx(theta, abs=1e-14)

    def test_negative_lr_rejected(self):
        with pytest.raises(DataError):
            nn.OptimizerConfig(lr=-0.1)

    @pytest.mark.parametrize("option", ["lr", "l2_penalty"])
    def test_nan_rate_rejected(self, option):
        with pytest.raises(DataError):
            nn.OptimizerConfig(**{option: float("nan")})

    @pytest.mark.parametrize("option, value", [
        ("adam_beta1", 1.0), ("adam_beta1", -0.1), ("adam_beta1", float("nan")),
        ("adam_beta2", 1.0), ("adam_beta2", -1e-9), ("adam_beta2", float("nan")),
        ("adam_eps", 0.0), ("adam_eps", -1e-8), ("adam_eps", float("nan")),
    ])
    def test_out_of_range_adam_option_rejected_naming_it(self, option, value):
        with pytest.raises(DataError, match=option):
            nn.OptimizerConfig(**{option: value})

    def test_zero_betas_accepted(self):
        nn.OptimizerConfig(adam_beta1=0.0, adam_beta2=0.0)

    def test_zero_grad_zero_l2_leaves_params_bit_identical(self):
        specs = [nn.LayerSpec(3, 4, "relu"), nn.LayerSpec(4, 1, "sigmoid")]
        for algorithm in ("sgd", "adam"):
            params = nn.init_mlp(specs, seed=1)
            before = nn.params_digest(params)
            cfg = nn.OptimizerConfig(algorithm=algorithm, lr=0.01)
            state = None
            for _ in range(3):
                state = nn.optimizer_step(params.flat, np.zeros_like(params.flat), cfg, state)
            assert nn.params_digest(params) == before

    @staticmethod
    def block_by_block_step(params, grads, cfg, state):
        """Reference update: each block on its own, Adam moments keyed by (layer, block)."""
        state["t"] = t = state.get("t", 0) + 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        for i, (layer, g) in enumerate(zip(params.layers, grads.layers)):
            for name in ("weights", "bias", "gamma", "beta"):
                theta, grad = getattr(layer, name), getattr(g, name)
                if theta is None:
                    continue
                gg = grad + cfg.l2_penalty * theta
                if cfg.algorithm == "sgd":
                    theta -= cfg.lr * gg
                    continue
                m = b1 * state.get(("m", i, name), 0.0) + (1.0 - b1) * gg
                v = b2 * state.get(("v", i, name), 0.0) + (1.0 - b2) * (gg * gg)
                state["m", i, name], state["v", i, name] = m, v
                theta -= cfg.lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + cfg.adam_eps)

    @pytest.mark.parametrize("algorithm", ["sgd", "adam"])
    def test_flat_update_equals_block_by_block_reference(self, algorithm):
        specs = [nn.LayerSpec(3, 5, "relu", use_batchnorm=True), nn.LayerSpec(5, 1, "sigmoid")]
        params = nn.init_mlp(specs, seed=2)
        reference = params.copy()
        cfg = nn.OptimizerConfig(algorithm=algorithm, lr=0.05, l2_penalty=0.1)
        rng = np.random.default_rng(3)
        state, ref_state = None, {}
        for _ in range(4):
            out, trace = nn.forward(params, rng.normal(size=(8, 3)), nn.TRAIN)
            grads, _ = nn.backward(params, trace, rng.normal(size=out.shape))
            assert grads.layers[0].gamma.any() and grads.layers[0].beta.any()
            state = nn.optimizer_step(params.flat, grads.flat, cfg, state)
            self.block_by_block_step(reference, grads, cfg, ref_state)
            assert nn.params_digest(params) == nn.params_digest(reference)


class TestBatchnormRunningStats:
    def test_eval_uses_running_stats_train_uses_batch(self):
        specs = [nn.LayerSpec(2, 3, "identity", use_batchnorm=True)]
        params = nn.init_mlp(specs, seed=0)
        x = np.random.default_rng(0).normal(loc=5.0, size=(16, 2))
        out_train, trace = nn.forward(params, x, nn.TRAIN, rng_seed=0)
        # batch statistics normalize the activations in train mode
        assert abs(out_train.mean()) < 1e-9
        out_eval, _ = nn.forward(params, x, nn.EVAL)
        assert abs(out_eval.mean()) > 0.1  # running stats still at init
        nn.update_running_stats(params, trace)
        layer = params.layers[0]
        assert not np.allclose(layer.running_mean, 0.0)

    def test_running_var_must_stay_positive(self):
        specs = [nn.LayerSpec(2, 2, "identity", use_batchnorm=True)]
        params = nn.init_mlp(specs, seed=0)
        params.layers[0].running_var[:] = 0.0
        with pytest.raises(DataError):
            params.validate()


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        import json

        specs = [
            nn.LayerSpec(3, 5, "relu", dropout_p=0.1, use_batchnorm=True),
            nn.LayerSpec(5, 1, "sigmoid"),
        ]
        params = nn.init_mlp(specs, seed=13)
        x = np.random.default_rng(3).normal(size=(6, 3))
        out, trace = nn.forward(params, x, nn.TRAIN, rng_seed=0)
        nn.update_running_stats(params, trace)
        doc = json.loads(json.dumps(nn.mlp_to_doc(params)))
        restored = nn.mlp_from_doc(doc)
        assert nn.params_digest(restored) == nn.params_digest(params)
        a, _ = nn.forward(params, x, nn.EVAL)
        b, _ = nn.forward(restored, x, nn.EVAL)
        assert np.array_equal(a, b)


class TestLayerSpecValidation:
    def test_bad_dims_rejected(self):
        with pytest.raises(DataError):
            nn.LayerSpec(0, 3)

    def test_bad_dropout_rejected(self):
        with pytest.raises(DataError):
            nn.LayerSpec(2, 3, dropout_p=1.0)

    def test_unknown_activation_rejected(self):
        with pytest.raises(DataError):
            nn.LayerSpec(2, 3, activation="tanh")

    def test_chained_dims_checked(self):
        specs = [nn.LayerSpec(2, 3), nn.LayerSpec(4, 1, "sigmoid")]
        layers = [
            nn.LayerParams(np.zeros((3, 2)), np.zeros(3)),
            nn.LayerParams(np.zeros((1, 4)), np.zeros(1)),
        ]
        with pytest.raises(DataError):
            nn.MLPParams(layers, specs)
