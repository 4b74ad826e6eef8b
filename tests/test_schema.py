import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistil import cli, data, model, nn, schema, teachers, training
from conceptdistil.errors import DataError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
unit = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(0, 2**32 - 1)
counts = st.integers(1, 10_000)

layer_specs = st.builds(
    nn.LayerSpec, counts, counts, st.sampled_from(nn.ACTIVATIONS),
    st.floats(min_value=0.0, max_value=0.99), st.booleans(),
)
forest_params = st.builds(
    teachers.ForestParams, counts, counts, counts, st.none() | counts, st.booleans(), seeds,
)
optimizer_configs = st.builds(
    nn.OptimizerConfig, st.sampled_from(("sgd", "adam")), unit, unit, unit, unit, unit,
)
train_configs = st.builds(
    training.TrainConfig, unit, st.floats(min_value=1e-9, max_value=10.0), counts, counts, counts, seeds,
    st.sampled_from(training.VARIANTS), optimizer_configs, st.sampled_from(training.VALIDATION_METRICS),
)


@st.composite
def generator_configs(draw):
    d = draw(st.integers(1, 20))
    rules = []
    for i in range(draw(st.integers(1, 4))):
        idx = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=5))
        weights = draw(st.lists(finite, min_size=len(idx), max_size=len(idx)))
        prevalence = draw(st.floats(min_value=0.01, max_value=0.99))
        rules.append(data.ConceptRule(f"c{i}", tuple(idx), tuple(weights), prevalence))
    return data.GeneratorConfig(
        n_instances=draw(counts), d_features=d, concepts=tuple(rules),
        fraud_weights=tuple(draw(st.lists(finite, min_size=len(rules), max_size=len(rules)))),
        fraud_intercept=draw(finite), noise_level=draw(st.floats(min_value=0.0, max_value=1e6)),
        teacher_feature_count=draw(st.integers(0, 20)),
        teacher_flip_p=draw(st.floats(min_value=0.0, max_value=0.49)), seed=draw(seeds),
    )


class TestRoundTrip:
    @settings(max_examples=60)
    @given(st.one_of(generator_configs(), forest_params, layer_specs, train_configs))
    def test_read_inverts_write_through_json(self, cfg):
        doc = json.loads(json.dumps(schema.write(cfg)))
        assert schema.read(type(cfg), doc, "doc") == cfg

    def test_missing_keys_keep_defaults(self):
        assert schema.read(training.TrainConfig, {"epochs": 3}, "doc") == training.TrainConfig(epochs=3)
        assert schema.read(teachers.ForestParams, {}, "doc") == teachers.ForestParams()

    def test_integers_widen_to_float_fields(self):
        assert schema.read(training.TrainConfig, {"lam": 1}, "doc").lam == 1.0


class TestRejections:
    @pytest.mark.parametrize("cls, doc, path", [
        (teachers.ForestParams, {"n_tree": 8}, "'n_tree'"),
        (teachers.ForestParams, {"bootstrap": "false"}, "'bootstrap'"),
        (teachers.ForestParams, {"bootstrap": 0}, "'bootstrap'"),
        (teachers.ForestParams, {"n_trees": True}, "'n_trees'"),
        (teachers.ForestParams, {"n_trees": 8.5}, "'n_trees'"),
        (teachers.ForestParams, {"feature_subsample": "3"}, "'feature_subsample'"),
        (training.TrainConfig, {"optimizer": {"adam_beta": 0.9}}, "'optimizer.adam_beta'"),
        (training.TrainConfig, {"optimizer": []}, "optimizer must be a JSON object"),
        (data.GeneratorConfig, {"concepts": [{"name": "x"}]}, "'concepts[0].feature_indices'"),
        (data.GeneratorConfig, {"fraud_weights": [1.0, "2"]}, "'fraud_weights[1]'"),
        (nn.LayerSpec, {"in_dim": 2}, "'out_dim'"),
        (nn.LayerSpec, [2, 3], "document must be a JSON object"),
    ])
    def test_bad_document_names_the_key_path(self, cls, doc, path):
        with pytest.raises(DataError, match="^where: .*" + re.escape(path)):
            schema.read(cls, doc, "where")

    def test_range_checks_name_the_document(self):
        with pytest.raises(DataError, match="^where: lam must be in"):
            schema.read(training.TrainConfig, {"lam": 2.0}, "where")

    def test_rejected_path_gives_the_reason(self):
        with pytest.raises(DataError, match="'optimizer.lr' is set elsewhere"):
            schema.read(training.TrainConfig, {"optimizer": {"lr": 0.1}}, "where",
                        reject={"optimizer.lr": "is set elsewhere"})


class TestConfigFiles:
    READERS = {
        "generator_default.json": (data.GeneratorConfig, None),
        "distill_default.json": (cli.TrainingFile, cli.TRAIN_NAMES),
    }

    def test_every_config_file_has_a_reader(self):
        assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(self.READERS)

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_config_file_loads_unchanged(self, name):
        cls, names = self.READERS[name]
        doc = schema.load_json(CONFIGS / name)
        cfg = schema.read(cls, doc, name, names)
        assert cfg == cls()  # the shipped files spell out the defaults
        written = schema.write(cfg, names)
        assert _restrict(written, doc) == doc

    def test_training_file_keys(self):
        written = schema.write(cli.TrainingFile(), cli.TRAIN_NAMES, omit=cli.TRAIN_REJECT)
        assert {"lambda", "patience", "architecture"} <= set(written)
        assert {"dropout", "batchnorm"} <= set(written["architecture"])
        assert "lr" not in written["optimizer"]
        arch = model.build_architecture(5, 2, **vars(cli.TrainingFile().architecture))
        assert arch == model.build_architecture(5, 2)


def _restrict(written, doc):
    """``written`` cut down to the keys present in ``doc``, recursively."""
    if isinstance(doc, dict):
        return {k: _restrict(written[k], v) for k, v in doc.items()}
    return written
