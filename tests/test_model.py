import json

import numpy as np
import pytest

from conceptdistil import model, nn
from conceptdistil.errors import DataError


def tiny_arch(n_features=4, k=3, dropout=0.0, batchnorm=False):
    return model.build_architecture(
        n_features, k,
        trunk_widths=(6, 5),
        head_widths=(4,),
        attention_widths=(4,),
        dropout_p=dropout,
        use_batchnorm=batchnorm,
    )


class TestConceptForward:
    def test_identity_trunk_zero_heads_give_half(self):
        trunk = (nn.LayerSpec(3, 3, "identity"),)
        heads = (nn.LayerSpec(3, 1, "sigmoid"),)
        attention = (nn.LayerSpec(3, 2, "identity"),)
        config = model.ArchitectureConfig(2, trunk, heads, attention)
        params = model.init_model(config, ("a", "b"), seed=0)
        params.theta_c.layers[0].weights = np.eye(3)
        for head in params.theta_m:
            head.layers[0].weights[:] = 0.0
        y_e, _ = model.concept_forward(params, np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_array_equal(y_e, np.full((5, 2), 0.5))

    def test_k1_equals_concatenated_mlp(self):
        config = tiny_arch(4, 1)
        params = model.init_model(config, ("only",), seed=3)
        stacked = nn.MLPParams(
            params.theta_c.layers + params.theta_m[0].layers,
            list(config.trunk) + list(config.head_template),
        )
        x = np.random.default_rng(4).normal(size=(7, 4))
        y_e, _ = model.concept_forward(params, x)
        expected, _ = nn.forward(stacked, x)
        np.testing.assert_allclose(y_e, expected, atol=1e-12, rtol=0)

    def test_head_columns_are_independent(self):
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=1)
        x = np.random.default_rng(5).normal(size=(6, 4))
        before, _ = model.concept_forward(params, x)
        params.theta_m[1].layers[0].weights += 0.5  # perturb head j=1 only
        after, _ = model.concept_forward(params, x)
        np.testing.assert_array_equal(before[:, 0], after[:, 0])
        np.testing.assert_array_equal(before[:, 2], after[:, 2])
        assert not np.array_equal(before[:, 1], after[:, 1])

    def test_all_outputs_in_unit_interval(self):
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=2)
        y_e, _ = model.concept_forward(params, np.random.default_rng(6).normal(size=(20, 4)))
        assert np.all(y_e > 0) and np.all(y_e < 1)


class TestAttentionForward:
    def test_zero_attention_gives_uniform(self):
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=0)
        for layer in params.theta_a.layers:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        alpha, _ = model.attention_forward(params, np.random.default_rng(1).normal(size=(4, 4)))
        np.testing.assert_allclose(alpha, np.full((4, 3), 1 / 3), atol=1e-15)

    def test_saturated_logit_gives_one_hot(self):
        trunk = (nn.LayerSpec(3, 3, "identity"),)
        heads = (nn.LayerSpec(3, 1, "sigmoid"),)
        attention = (nn.LayerSpec(3, 3, "identity"),)
        config = model.ArchitectureConfig(3, trunk, heads, attention)
        params = model.init_model(config, ("a", "b", "c"), seed=0)
        w = np.zeros((3, 3))
        w[2, 0] = 1000.0  # slot 2 driven by feature 0
        params.theta_a.layers[0].weights = w
        params.theta_a.layers[0].bias = np.zeros(3)
        alpha, _ = model.attention_forward(params, [[2.0, 0.0, 0.0]])
        assert alpha[0, 2] == pytest.approx(1.0)

    def test_composition_equals_softmax_of_mlp(self):
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=9)
        x = np.random.default_rng(2).normal(size=(5, 4))
        alpha, _ = model.attention_forward(params, x)
        logits, _ = nn.forward(params.theta_a, x)
        np.testing.assert_array_equal(alpha, nn.softmax_rowwise(logits))


class TestExplainForward:
    def test_combination_arithmetic(self):
        ex = model.Explanation(
            ("a", "b"),
            np.array([0.2, 0.8]),
            np.array([0.5, 0.5]),
            0.5,
            np.array([0.1, 0.4]),
        )
        assert ex.kd_score == 0.5
        assert list(ex.contributions) == [0.1, 0.4]

    def test_one_hot_attention_selects_concept(self):
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=0)
        x = np.random.default_rng(3).normal(size=(4, 4))
        out = model.forward_full(params, x)
        one_hot = np.zeros_like(out.alpha)
        one_hot[:, 1] = 1.0
        kd = (out.y_e * one_hot).sum(axis=1)
        np.testing.assert_array_equal(kd, out.y_e[:, 1])

    def test_score_stays_in_concept_hull_k6_batch32(self):
        config = model.build_architecture(5, 6, trunk_widths=(8, 6), head_widths=(4,), attention_widths=(5,))
        params = model.init_model(config, tuple("abcdef"), seed=7)
        x = np.random.default_rng(8).normal(size=(32, 5))
        out = model.forward_full(params, x)
        for row in range(32):
            assert out.y_e[row].min() - 1e-9 <= out.y_kd[row] <= out.y_e[row].max() + 1e-9

    def test_explanation_invariants_enforced(self):
        with pytest.raises(DataError):
            model.Explanation(("a", "b"), np.array([0.2, 0.4]), np.array([0.5, 0.5]), 0.9, np.array([0.45, 0.45]))

    def test_explain_returns_ids_and_sums(self):
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=4)
        x = np.random.default_rng(9).normal(size=(3, 4))
        exps = model.explain(params, x, ids=["r1", "r2", "r3"])
        assert [e.instance_id for e in exps] == ["r1", "r2", "r3"]
        for e in exps:
            assert e.kd_score == pytest.approx(float(e.contributions.sum()), abs=1e-9)

    def test_jsonl_export_is_ordered_by_concept_names(self, tmp_path):
        params = model.init_model(tiny_arch(), ("zeta", "alpha", "mid"), seed=4)
        x = np.random.default_rng(10).normal(size=(2, 4))
        path = tmp_path / "explanations.jsonl"
        model.explanations_to_jsonl(model.explain(params, x, ids=["a", "b"]), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        doc = json.loads(lines[0])
        assert list(doc["concept_probs"]) == ["zeta", "alpha", "mid"]
        assert set(doc) == {"id", "kd_score", "concept_probs", "attention", "contributions"}


class TestValidation:
    def test_head_must_end_in_single_sigmoid(self):
        trunk = (nn.LayerSpec(3, 4),)
        heads = (nn.LayerSpec(4, 2, "sigmoid"),)
        attention = (nn.LayerSpec(3, 2, "identity"),)
        with pytest.raises(DataError):
            model.ArchitectureConfig(2, trunk, heads, attention)

    def test_attention_consumes_raw_features(self):
        trunk = (nn.LayerSpec(3, 4),)
        heads = (nn.LayerSpec(4, 1, "sigmoid"),)
        attention = (nn.LayerSpec(4, 2, "identity"),)  # wrong input dim
        with pytest.raises(DataError):
            model.ArchitectureConfig(2, trunk, heads, attention)

    def test_attention_output_counts_concepts(self):
        trunk = (nn.LayerSpec(3, 4),)
        heads = (nn.LayerSpec(4, 1, "sigmoid"),)
        attention = (nn.LayerSpec(3, 5, "identity"),)
        with pytest.raises(DataError):
            model.ArchitectureConfig(2, trunk, heads, attention)

    def test_validated_params_run_on_correct_input(self):
        params = model.init_model(tiny_arch(6, 2), ("a", "b"), seed=0)
        out = model.forward_full(params, np.zeros((3, 6)))
        assert out.y_kd.shape == (3,)

    def test_concept_names_must_be_unique(self):
        with pytest.raises(DataError):
            model.init_model(tiny_arch(4, 3), ("a", "a", "b"), seed=0)


class TestSerialization:
    def test_round_trip_forward_is_bit_identical(self, tmp_path):
        config = tiny_arch(4, 3, dropout=0.1, batchnorm=True)
        params = model.init_model(config, ("a", "b", "c"), seed=5)
        x = np.random.default_rng(11).normal(size=(9, 4))
        # push some training noise into the batchnorm running stats first
        out = model.forward_full(params, x, nn.TRAIN, rng_seed=1)
        nn.update_running_stats(params.theta_c, out.concept_traces.trunk)
        path = tmp_path / "model.json"
        model.save_model(params, path)
        restored = model.load_model(path)
        assert restored.digest() == params.digest()
        a = model.forward_full(params, x, nn.EVAL)
        b = model.forward_full(restored, x, nn.EVAL)
        assert np.array_equal(a.y_e, b.y_e)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.y_kd, b.y_kd)
        assert restored.concept_names == params.concept_names

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "other"}))
        with pytest.raises(DataError):
            model.load_model(path)


class TestStackedHeads:
    @staticmethod
    def per_head_reference(params, x, mode, rng_seed, d_ye):
        """Concept forward and backward with one nn.forward/nn.backward per head view."""
        trunk_out, trace_c = nn.forward(params.theta_c, x, mode, nn.derive_seed(rng_seed, model._SEED_TRUNK))
        cols, head_grads, d_trunk = [], [], 0.0
        for i, head in enumerate(params.theta_m):
            out, trace = nn.forward(head, trunk_out, mode, nn.derive_seed(rng_seed, model._SEED_HEAD, i))
            grads, d_in = nn.backward(head, trace, d_ye[:, i : i + 1])
            cols.append(out[:, 0])
            head_grads.append(grads)
            d_trunk = d_trunk + d_in
        trunk_grads, _ = nn.backward(params.theta_c, trace_c, d_trunk)
        return np.column_stack(cols), head_grads, trunk_grads

    @pytest.mark.parametrize("mode", [nn.TRAIN, nn.EVAL])
    @pytest.mark.parametrize("regularised", [False, True], ids=["default", "dropout-batchnorm"])
    def test_stacked_pass_equals_per_head_loop_bitwise(self, mode, regularised):
        arch = model.build_architecture(5, 4, **(dict(dropout_p=0.1, use_batchnorm=True) if regularised else {}))
        params = model.init_model(arch, tuple("abcd"), seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 5))
        if regularised:  # move the running statistics off their init values
            out = model.forward_full(params, x, nn.TRAIN, rng_seed=3)
            nn.update_running_stats(params.heads, out.concept_traces.stack)
        d_ye = rng.normal(size=(40, 4))
        y_e, head_grads, trunk_grads = self.per_head_reference(params, x, mode, 5, d_ye)
        out = model.forward_full(params, x, mode, rng_seed=5)
        grads = model.backward_full(params, out, np.zeros(40), d_ye, stop_concept_grad=True)
        assert np.array_equal(out.y_e, y_e)
        pairs = list(zip(grads.theta_m, head_grads)) + [(grads.theta_c, trunk_grads)]
        for got, want in pairs:
            for g, w in zip(got.layers, want.layers):
                for name in ("weights", "bias", "gamma", "beta"):
                    a, b = getattr(g, name), getattr(w, name)
                    assert (a is None and b is None) or np.array_equal(a, b), name

    def test_head_views_write_through_and_copy_is_deep(self):
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=3)
        clone = params.copy()
        params.theta_m[2].layers[0].bias += 1.0
        assert params.heads.layers[0].bias[2].tolist() == [1.0] * 4
        assert np.shares_memory(params.heads.layers[0].bias, params.flat)
        assert clone.digest() != params.digest()
        assert not np.shares_memory(clone.buffer, params.buffer)


class TestBackwardFull:
    def test_stop_concept_grad_blocks_kd_path_exactly(self):
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=6)
        x = np.random.default_rng(12).normal(size=(8, 4))
        out = model.forward_full(params, x, nn.TRAIN, rng_seed=3)
        d_kd = np.random.default_rng(13).normal(size=8)
        grads = model.backward_full(params, out, d_kd, np.zeros_like(out.y_e), stop_concept_grad=True)
        for g in grads.theta_c.layers:
            assert not g.weights.any() and not g.bias.any()
        for head in grads.theta_m:
            for g in head.layers:
                assert not g.weights.any() and not g.bias.any()
        assert any(g.weights.any() for g in grads.theta_a.layers)

    def test_kd_gradient_flows_everywhere_by_default(self):
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=6)
        x = np.random.default_rng(12).normal(size=(8, 4))
        out = model.forward_full(params, x, nn.TRAIN, rng_seed=3)
        d_kd = np.random.default_rng(13).normal(size=8)
        grads = model.backward_full(params, out, d_kd, np.zeros_like(out.y_e))
        assert any(g.weights.any() for g in grads.theta_c.layers)
        assert any(g.weights.any() for g in grads.theta_a.layers)
