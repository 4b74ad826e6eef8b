import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistil import model, nn
from conceptdistil.errors import DataError

import nn_reference as ref


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
        (ex,) = model.Explanations(
            ("a", "b"),
            None,
            np.array([[0.2, 0.8]]),
            np.array([[0.5, 0.5]]),
            np.array([[0.1, 0.4]]),
            np.array([0.5]),
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
            model.Explanations(("a", "b"), None, np.array([[0.2, 0.4]]), np.array([[0.5, 0.5]]),
                               np.array([[0.45, 0.45]]), np.array([0.9]))

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


def ref_explain(params, x, ids=None) -> list[dict]:
    """The per-row explanation objects the columnar record replaced."""
    out = model.forward_full(params, x)
    contributions = out.y_e * out.alpha
    return [
        dict(concept_names=params.concept_names, concept_probs=out.y_e[i].copy(), attention=out.alpha[i].copy(),
             kd_score=float(out.y_kd[i]), contributions=contributions[i].copy(),
             instance_id=None if ids is None else str(ids[i]))
        for i in range(out.y_e.shape[0])
    ]


def ref_explanations_to_jsonl(rows, path) -> None:
    """One ``json.dumps`` per row, as the explanation writer did before it worked on arrays."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            doc = {"id": r["instance_id"], "kd_score": r["kd_score"]}
            for key, values in (("concept_probs", r["concept_probs"]), ("attention", r["attention"]),
                                ("contributions", r["contributions"])):
                doc[key] = {n: float(v) for n, v in zip(r["concept_names"], values)}
            fh.write(json.dumps(doc, allow_nan=False) + "\n")


ADVERSARIAL_TEXT = st.lists(st.sampled_from(["a", "%", "%s", "%%r", '"', "{", "}", "\\", ",", "\r\n", "\u00e9", "\u65e5",
                                             "\U0001f600", "\ud800", "1", ".", "e", " "]), max_size=4).map("".join)


class TestColumnarExplanations:
    @settings(max_examples=40)
    @given(names=st.lists(ADVERSARIAL_TEXT, min_size=1, max_size=4, unique=True),
           n=st.integers(0, 9), with_ids=st.booleans(), block=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_jsonl_bytes_equal_the_per_row_writer(self, tmp_path_factory, names, n, with_ids, block, seed):
        params = model.init_model(tiny_arch(k=len(names)), names, seed=seed)
        x = np.random.default_rng(seed).normal(size=(n, 4))
        ids = [f"{i}{''.join(names)}" for i in range(n)] if with_ids else None
        d = tmp_path_factory.mktemp("jsonl")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "ROW_BLOCK", block)  # row counts on both sides of a block boundary
            model.explanations_to_jsonl(model.explain(params, x, ids), d / "new.jsonl")
        ref_explanations_to_jsonl(ref_explain(params, x, ids), d / "ref.jsonl")
        assert (d / "new.jsonl").read_bytes() == (d / "ref.jsonl").read_bytes()

    def test_iteration_yields_the_per_row_values(self):
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=6)
        x = np.random.default_rng(11).normal(size=(5, 4))
        ids = np.array(["r0", "r1", "r2", "r3", "r4"])
        rows = list(model.explain(params, x, ids))
        assert len(rows) == 5
        for row, ref in zip(rows, ref_explain(params, x, ids)):
            assert row.concept_names == ref["concept_names"]
            assert type(row.kd_score) is float and row.kd_score == ref["kd_score"]
            assert type(row.instance_id) is str and row.instance_id == ref["instance_id"]
            for key in ("concept_probs", "attention", "contributions"):
                np.testing.assert_array_equal(getattr(row, key), ref[key])
        assert [r.instance_id for r in model.explain(params, x)] == [None] * 5

    def test_invariants_are_checked_on_every_row(self):
        probs, attention = np.array([[0.2, 0.8], [0.2, 0.4]]), np.full((2, 2), 0.5)
        contributions = probs * attention
        kd = contributions.sum(axis=1)
        model.Explanations(("a", "b"), None, probs, attention, contributions, kd)
        with pytest.raises(DataError, match="sum of contributions"):
            model.Explanations(("a", "b"), None, probs, attention, contributions, kd + [0.0, 1e-8])
        with pytest.raises(DataError, match="ids length"):
            model.Explanations(("a", "b"), ("only",), probs, attention, contributions, kd)

    def test_non_finite_value_is_not_written_as_json(self, tmp_path):
        probs, attention = np.array([[0.2, 0.8]]), np.array([[0.5, np.nan]])  # attention itself is not checked
        ex = model.Explanations(("a", "b"), None, probs, attention, probs * [[0.5, 0.5]], np.array([0.5]))
        with pytest.raises(ValueError, match="not JSON compliant"):
            model.explanations_to_jsonl(ex, tmp_path / "x.jsonl")


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

    def test_config_is_read_from_the_stacks(self):
        config = tiny_arch(4, 3, dropout=0.1, batchnorm=True)
        params = model.init_model(config, ("a", "b", "c"), seed=0)
        assert params.config == config
        assert params.copy().config == config and nn.zero_grads(params).config == config
        with pytest.raises(TypeError):
            model.ConceptDistilParams(params.theta_c, params.heads, params.theta_a, ("a", "b", "c"), config=config)


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

    @staticmethod
    def edited(tmp_path, edit):
        path = tmp_path / "model.json"
        model.save_model(model.init_model(tiny_arch(4, 3), ("a", "b", "c"), seed=2), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_concept_name_count_must_match_the_heads(self, tmp_path):
        path = self.edited(tmp_path, lambda doc: doc["concept_names"].pop())
        with pytest.raises(DataError, match=r"model\.json: expected 2 stacked heads, one per concept name"):
            model.load_model(path)

    def test_attention_output_width_must_match_the_heads(self, tmp_path):
        def drop_attention_unit(doc):  # a consistent 2-unit attention output layer for 3 heads
            last, spec = doc["attention"]["layers"][-1], doc["attention"]["specs"][-1]
            spec["out_dim"] -= 1
            last["weights"] = last["weights"][: spec["out_dim"] * spec["in_dim"]]
            last["bias"] = last["bias"][:-1]

        with pytest.raises(DataError, match=r"model\.json: attention must end in k_concepts units"):
            model.load_model(self.edited(tmp_path, drop_attention_unit))


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
    @pytest.mark.parametrize("mode", [nn.TRAIN, nn.EVAL])
    @pytest.mark.parametrize("arch, n", [
        (tiny_arch(), 8),
        (tiny_arch(dropout=0.2, batchnorm=True), 8),
        # eight heads summed into a one-wide trunk output on a one-row batch: the one shape where a single
        # numpy reduction over the head axis would add in a different order than head by head
        (model.build_architecture(4, 8, trunk_widths=(3, 1), head_widths=(), attention_widths=(3,)), 1),
    ], ids=["plain", "dropout-batchnorm", "eight-heads-one-row"])
    def test_reused_buffer_gives_the_reference_bits(self, mode, arch, n):
        params = model.init_model(arch, tuple(f"c{i}" for i in range(arch.k_concepts)), seed=6)
        params.theta_c.layers[-1].bias += 2.0  # live trunk relus, so the heads' summed gradient reaches the trunk
        rng = np.random.default_rng(12)
        grads = nn.zero_grads(params)
        grads.flat[:] = np.nan  # any slot backward_full left unwritten would keep a NaN
        for step in range(2):  # the second step overwrites the first one's gradients
            out = model.forward_full(params, rng.normal(size=(n, 4)), mode, rng_seed=step)
            d_kd, d_ye = rng.normal(size=n), rng.normal(size=(n, arch.k_concepts))
            for stop in (False, True):
                got = model.backward_full(params, out, d_kd, d_ye, stop_concept_grad=stop, grads=grads)
                want = ref.backward_full(params, out, d_kd, d_ye, stop_concept_grad=stop)
                assert got is grads and got.flat.tobytes() == want.flat.tobytes()

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
