import json
import math
import re
import sys
import types
import typing
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistil import blackbox, cli, data, hpo, model, nn, schema, teachers, training
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
betas = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
optimizer_configs = st.builds(
    nn.OptimizerConfig, st.sampled_from(("sgd", "adam")), unit, betas, betas,
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
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
        assert schema.read(training.TrainConfig, {"lambda": 1}, "doc").lam == 1.0


class TestRejections:
    @pytest.mark.parametrize("cls, doc, message", [
        (teachers.ForestParams, {"n_tree": 8}, "key n_tree is unknown"),
        (teachers.ForestParams, {"bootstrap": "false"}, "bootstrap is a str, not a boolean"),
        (teachers.ForestParams, {"bootstrap": 0}, "bootstrap is an int, not a boolean"),
        (teachers.ForestParams, {"n_trees": True}, "n_trees is a bool, not an integer"),
        (teachers.ForestParams, {"n_trees": 8.5}, "n_trees is a float, not an integer"),
        (teachers.ForestParams, {"feature_subsample": "3"}, "feature_subsample is a str, not an integer or null"),
        (training.TrainConfig, {"optimizer": {"adam_beta": 0.9}}, "key optimizer.adam_beta is unknown"),
        (training.TrainConfig, {"optimizer": []}, "optimizer is a list, not an object"),
        (data.GeneratorConfig, {"concepts": [{"name": "x"}]}, "key concepts[0].feature_indices is missing"),
        (data.GeneratorConfig, {"fraud_weights": [1.0, "2"]}, "fraud_weights[1] is a str, not a number"),
        (nn.LayerSpec, {"in_dim": 2}, "key out_dim is missing"),
        (nn.LayerSpec, [2, 3], "document is a list, not an object"),
        (nn.LayerSpec, {"in_dim": 2, "out_dim": 2, "dropout_p": 10**399}, "dropout_p is out of range for a float"),
        (hpo.SearchSpace, {"batchnorm": [True, 1]}, "batchnorm[1] is an int, not a boolean"),
    ])
    def test_bad_document_names_the_key_path(self, cls, doc, message):
        with pytest.raises(DataError, match="^" + re.escape(f"where: {message}")):
            schema.read(cls, doc, "where")

    def test_range_checks_name_the_document(self):
        with pytest.raises(DataError, match="^where: lambda must be in"):
            schema.read(training.TrainConfig, {"lambda": 2.0}, "where")

    def test_rejected_path_gives_the_reason(self):
        with pytest.raises(DataError, match="^where: key optimizer.l2_penalty is set elsewhere"):
            schema.read(training.TrainConfig, {"optimizer": {"l2_penalty": 0.1}}, "where",
                        reject={"optimizer.l2_penalty": "is set elsewhere"})


class TestConfigFiles:
    READERS = {"generator_default.json": data.GeneratorConfig, "distill_default.json": cli.TrainingFile}

    def test_every_config_file_has_a_reader(self):
        assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(self.READERS)

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_config_file_loads_unchanged(self, name):
        cls = self.READERS[name]
        doc = schema.load_json(CONFIGS / name)
        cfg = schema.read(cls, doc, name)
        assert cfg == cls()  # the shipped files spell out the defaults
        written = schema.write(cfg)
        assert _restrict(written, doc) == doc

    def test_training_file_keys(self):
        written = schema.write(cli.TrainingFile())
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


# -- field rules ---------------------------------------------------------------

# every dataclass whose fields carry rules; the first four are what --config files and flags fill
RULED = (data.GeneratorConfig, teachers.ForestParams, blackbox.BlackBoxConfig, cli.TrainingFile,
         hpo.SearchSpace, model.ArchitectureConfig)
# numeric fields deliberately left without a range (schema.check still requires their floats to be finite)
UNBOUNDED = {"GeneratorConfig.fraud_intercept", "GeneratorConfig.fraud_weights", "ConceptRule.weights"}


def _element_type(tp):
    """``int`` for ``int``, ``int | None`` and ``tuple[int, ...]``; likewise for every other type."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType, tuple):
        return typing.get_args(tp)[0]
    return tp


def _reachable(cls):
    """``cls`` and every dataclass its fields hold, as (class, field, element type) triples."""
    for f in fields(cls):
        tp = _element_type(typing.get_type_hints(cls)[f.name])
        yield cls, f, tp
        if is_dataclass(tp):
            yield from _reachable(tp)


FIELDS = {f"{cls.__name__}.{f.name}": (cls, f, tp) for root in RULED for cls, f, tp in _reachable(root)}
BOUNDED = sorted(key for key, (_, f, _) in FIELDS.items() if f.metadata.get(schema.RULES))


def _valid(cls):
    """A valid instance of ``cls``."""
    if cls is model.ArchitectureConfig:
        return model.build_architecture(3, 2)
    return {data.ConceptRule: data.GeneratorConfig().concepts[0], nn.LayerSpec: nn.LayerSpec(3, 2)}.get(cls) or cls()


def _bounds(text):
    """(lo, hi, lo_open, hi_open) read back from a range rule's text, e.g. ``>= 1`` or ``in [0, 1)``."""
    if m := re.fullmatch(r"(>=?) (\S+)", text):
        return float(m[2]), math.inf, m[1] == ">", False
    m = re.fullmatch(r"in ([\[(])(\S+), (\S+)([\])])", text)
    return float(m[2]), float(m[3]), m[1] == "(", m[4] == ")"


def _outside(rule, tp):
    """(the values just outside ``rule``, a strategy for any value outside it) for a value of type ``tp``."""
    if rule is schema.nonempty:
        return [()], st.just(())
    if rule.text.startswith("one of "):
        return [""], st.text().filter(lambda s: not rule.test(s))
    edges, wider = [], []
    lo, hi, lo_open, hi_open = _bounds(rule.text)
    for bound, is_open, sign in ((lo, lo_open, -1), (hi, hi_open, 1)):
        if math.isinf(bound):
            continue
        assert is_open != rule.test(int(bound) if tp is int else bound)  # the text says where the bound lies
        edge = bound if is_open else bound + sign if tp is int else math.nextafter(bound, sign * math.inf)
        edges.append(int(edge) if tp is int else edge)
        limit = {"max_value" if sign < 0 else "min_value": edges[-1]}
        wider.append(st.integers(**limit) if tp is int else st.floats(**limit, allow_nan=False))
    return edges + ([math.nan] if tp is float else []), st.one_of(wider)


def _rejects(cls, valid, f, bad):
    """Both ways in, built in Python and read from a document, ``bad`` is a DataError naming field ``f`` by its
    key. A list's item that is out of range or not finite is refused as it is read."""
    key = f.metadata.get(schema.KEY) or f.name
    with pytest.raises(DataError, match="^" + re.escape(f"{key} must be ")):
        replace(valid, **{f.name: bad})
    doc = {**schema.write(valid), key: schema.write(bad)}
    with pytest.raises(DataError, match="^" + re.escape(f"where: {key} ") + "(must be |holds )"):
        schema.read(cls, doc, "where")


class TestFieldRules:
    @pytest.mark.parametrize("key", BOUNDED)
    @settings(max_examples=20)
    @given(draw=st.data())
    def test_a_value_outside_a_bound_is_rejected_naming_the_field(self, key, draw):
        cls, f, tp = FIELDS[key]
        valid = _valid(cls)
        rule = draw.draw(st.sampled_from(f.metadata[schema.RULES]))
        if rule.text.startswith("all "):  # each(inner): one element out of bounds
            edges, wider = _outside(schema.within(*_bounds(rule.text[4:])), tp)
            old = getattr(valid, f.name)
            i = draw.draw(st.integers(0, len(old) - 1))
            put = lambda v: (*old[:i], v, *old[i + 1:])
        else:
            edges, wider = _outside(rule, tp)
            put = lambda v: v
        for bad in [*edges, draw.draw(wider)]:
            _rejects(cls, valid, f, put(bad))

    def test_every_numeric_field_is_bounded_or_named_unbounded(self):
        unbounded = {key for key, (_, f, tp) in FIELDS.items() if tp in (int, float) and not f.metadata.get(schema.RULES)}
        assert unbounded == UNBOUNDED

    @pytest.mark.parametrize("key", sorted(UNBOUNDED))
    def test_unbounded_floats_must_still_be_finite(self, key):
        cls, f, _ = FIELDS[key]
        valid = _valid(cls)
        value = getattr(valid, f.name)
        for bad in (math.nan, math.inf, -math.inf):
            _rejects(cls, valid, f, (*value[:-1], bad) if isinstance(value, tuple) else bad)

    @pytest.mark.parametrize("rule, text", [
        (schema.ge(1), ">= 1"), (schema.gt(0), "> 0"), (schema.within(0, 1), "in [0, 1]"),
        (schema.within(0, 1, lo_open=True, hi_open=True), "in (0, 1)"), (schema.one_of(("a", "b")), "one of 'a', 'b'"),
        (schema.nonempty, "non-empty"), (schema.each(schema.ge(0)), "all >= 0"),
    ])
    def test_rule_text(self, rule, text):
        assert rule.text == text

    def test_none_passes_the_rules_of_an_optional_field(self):
        assert teachers.ForestParams(feature_subsample=None).feature_subsample is None


# -- artifact files ------------------------------------------------------------

def _saved_artifact(kind, path):
    """A real ``kind`` file saved at ``path``, and the reader that loads it."""
    if kind == "concept_distil":
        model.save_model(model.init_model(model.build_architecture(3, 2), ("a", "b"), seed=0), path)
        return model.load_model
    if kind == "concept_teachers":
        full = data.generate_synthetic(data.GeneratorConfig(n_instances=200, seed=1))
        teachers.save_teachers(teachers.fit_teachers(full, teachers.ForestParams(n_trees=2, seed=1)), path)
        return teachers.load_teachers
    blackbox.save_blackbox(blackbox.FFNNBlackBox(nn.init_mlp(blackbox.default_blackbox_specs(3, (4,)))), path)
    return blackbox.load_blackbox


VERSIONS = {"concept_distil": 1, "concept_teachers": 2, "ffnn_blackbox": 1}
KINDS = tuple(VERSIONS)


# per kind, two values of the wrong kind: one that a reader without type checks would meet as a ValueError and
# one it would meet as a TypeError; schema.array refuses both
SPOILERS = {
    "concept_distil": (lambda doc: doc["trunk"]["layers"][0].update(weights="abc"), lambda doc: doc.update(heads=7)),
    "concept_teachers": (lambda doc: doc["forests"][0]["trees"][0]["threshold"].__setitem__(0, "abc"),
                         lambda doc: doc["forests"][0].update(trees=7)),
    "ffnn_blackbox": (lambda doc: doc["network"]["layers"][0]["bias"].__setitem__(0, "abc"),
                      lambda doc: doc["network"].update(layers=7)),
}


class TestArtifactEnvelope:
    @pytest.mark.parametrize("kind", KINDS)
    def test_saved_file_leads_with_version_and_kind_and_loads_back(self, tmp_path, kind):
        path = tmp_path / "artifact.json"
        load = _saved_artifact(kind, path)
        assert list(json.loads(path.read_text()).items())[:2] == [("format_version", VERSIONS[kind]), ("kind", kind)]
        load(path)

    @pytest.mark.parametrize("version", [99, "1", None, True, 1.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_rejects_another_format_version_naming_the_file(self, tmp_path, kind, version):
        path = tmp_path / "artifact.json"
        load = _saved_artifact(kind, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(f"{path}: unsupported {kind} format_version {version!r}")):
            load(path)

    def test_version_99_exits_2_at_the_command_line(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        _saved_artifact("concept_distil", path)
        path.write_text(path.read_text().replace('"format_version": 1', '"format_version": 99', 1))
        rows = tmp_path / "rows.csv"
        rows.write_text("id,f_0,f_1,f_2\nr0,0.1,0.2,0.3\n")
        assert cli.main(["explain", "--model", str(path), "--input", str(rows), "--out", str(tmp_path / "x")]) == 2
        assert f"{path}: unsupported concept_distil format_version 99" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [0, 1], ids=["ValueError", "TypeError"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_value_of_the_wrong_kind_is_a_data_error_naming_the_file(self, tmp_path, kind, error):
        path = tmp_path / "artifact.json"
        load = _saved_artifact(kind, path)
        doc = json.loads(path.read_text())
        SPOILERS[kind][error](doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(f"{path}: ")):
            load(path)

    @pytest.mark.parametrize("kind, damage", [
        ("concept_distil", lambda doc: doc["trunk"]["layers"][0]["bias"].__setitem__(0, 10**400)),
        ("concept_teachers", lambda doc: doc["forests"][0]["trees"][0]["threshold"].__setitem__(0, 10**400)),
        ("ffnn_blackbox", lambda doc: doc["network"]["layers"][0]["bias"].__setitem__(0, 10**400)),
    ])
    def test_integer_too_large_for_a_float_is_a_data_error_naming_the_file(self, tmp_path, kind, damage):
        path = tmp_path / "artifact.json"
        load = _saved_artifact(kind, path)
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(f"{path}: ")):
            load(path)

    @pytest.mark.parametrize("kind", KINDS)
    def test_integer_over_the_digit_limit_is_a_data_error_naming_the_file(self, tmp_path, kind):
        path = tmp_path / "artifact.json"
        load = _saved_artifact(kind, path)
        path.write_text(path.read_text()[:-1] + ', "extra": ' + "9" * 5000 + "}")
        with pytest.raises(DataError, match=re.escape(f"{path}: holds an integer too long to read")):
            load(path)

    @pytest.mark.parametrize("name", nn.BATCHNORM)
    def test_wrong_length_batchnorm_array_exits_2_naming_file_layer_and_array(self, tmp_path, capsys, name):
        path = tmp_path / "model.json"
        arch = model.build_architecture(3, 2, trunk_widths=(4,), use_batchnorm=True)
        model.save_model(model.init_model(arch, ("a", "b"), seed=0), path)
        doc = json.loads(path.read_text())
        bn = doc["trunk"]["layers"][0]["batchnorm"]
        bn[name] = bn[name][:-1]
        path.write_text(json.dumps(doc))
        rows = tmp_path / "rows.csv"
        rows.write_text("id,f_0,f_1,f_2\nr0,0.1,0.2,0.3\n")
        assert cli.main(["explain", "--model", str(path), "--input", str(rows), "--out", str(tmp_path / "x")]) == 2
        assert f"{path}: trunk.layers[0].{name} has length 3, not 4" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        (lambda doc: doc["trunk"]["layers"][0]["bias"].__setitem__(0, math.nan),
         "trunk.layers[0].bias holds non-finite values"),
        (lambda doc: doc["trunk"]["layers"][0]["bias"].__setitem__(0, 1e300 * 1e300),
         "trunk.layers[0].bias holds non-finite values"),
        (lambda doc: doc["heads"][2]["layers"][0].pop("weights"), "heads[2].layers[0].weights is missing"),
        (lambda doc: doc["attention"]["layers"][0]["bias"].pop(), "attention.layers[0].bias has length 3, not 4"),
        (lambda doc: doc["trunk"]["layers"][0]["bias"].__setitem__(0, 10**400),
         "trunk.layers[0].bias holds a number out of range"),
        (lambda doc: doc.update(heads="abc"), "heads is a str, not a list"),
        (lambda doc: doc.update(heads=7), "heads is an int, not a list"),
        (lambda doc: doc["trunk"].update(specs={}), "trunk.specs is a dict, not a list"),
        (lambda doc: doc["attention"].update(layers=3), "attention.layers is an int, not a list"),
        (lambda doc: doc.update(trunk=[doc["trunk"]]), "trunk is a list, not an object"),
        (lambda doc: doc["heads"].__setitem__(1, [doc["heads"][1]]), "heads[1] is a list, not an object"),
        (lambda doc: doc["trunk"]["layers"][0].update(batchnorm={"x": 1}),
         "trunk.layers[0].batchnorm is set without use_batchnorm"),
        (lambda doc: doc["attention"]["layers"][1].update(batchnorm={}),
         "attention.layers[1].batchnorm is set without use_batchnorm"),
        (lambda doc: doc["trunk"]["layers"][0].update(x=1), "key trunk.layers[0].x is unknown"),
        (lambda doc: doc["heads"][1].update(x=1), "key heads[1].x is unknown"),
        (lambda doc: doc.update(x=1), "key x is unknown"),
        (lambda doc: doc.pop("attention"), "attention is missing"),
    ], ids=["nan", "inf", "missing-weights", "short-bias", "int-overflow", "text-heads", "number-heads", "object-specs",
            "number-layers", "list-trunk", "list-head", "plain-layer-batchnorm", "plain-layer-empty-batchnorm",
            "layer-key", "network-key", "document-key", "missing-network"])
    def test_damaged_model_exits_2_naming_file_network_layer_and_array(self, tmp_path, capsys, damage, message):
        path = tmp_path / "model.json"
        arch = model.build_architecture(3, 3, trunk_widths=(4,), head_widths=(4,), attention_widths=(4,))
        model.save_model(model.init_model(arch, ("a", "b", "c"), seed=0), path)
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        rows = tmp_path / "rows.csv"
        rows.write_text("id,f_0,f_1,f_2\nr0,0.1,0.2,0.3\n")
        assert cli.main(["explain", "--model", str(path), "--input", str(rows), "--out", str(tmp_path / "x")]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        (lambda doc: doc["network"]["layers"][0].pop("weights"), "network.layers[0].weights is missing"),
        (lambda doc: doc["network"].update(x=1), "key network.x is unknown"),
        (lambda doc: doc.update(x=1), "key x is unknown"),
        (lambda doc: doc.pop("descriptor"), "descriptor is missing"),
    ])
    def test_damaged_black_box_names_its_network(self, tmp_path, damage, message):
        path = tmp_path / "blackbox.json"
        load = _saved_artifact("ffnn_blackbox", path)
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load(path)

    @pytest.mark.parametrize("key", ["threshold", "value"])
    def test_non_finite_tree_value_is_rejected_naming_it(self, tmp_path, key):
        path = tmp_path / "teachers.json"
        _saved_artifact("concept_teachers", path)
        doc = json.loads(path.read_text())
        tree = doc["forests"][0]["trees"][0]
        node = tree["feature"].index(-1) if key == "value" else 0  # a leaf's value, the root split's threshold
        tree[key][node] = math.inf
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(f"{path}: forests[0].trees[0]: node {node}: {key} inf is not")):
            teachers.load_teachers(path)

    @pytest.mark.parametrize("damage, message", [  # a tree's damage is to its root, a split node
        (lambda doc: doc["forests"][4]["trees"][1]["threshold"].__setitem__(0, math.inf),
         "forests[4].trees[1]: node 0: threshold inf is not finite at a split, null at a leaf"),
        (lambda doc: doc["forests"][4]["trees"][1]["feature"].__setitem__(0, 22),
         "forests[4].trees[1]: node 0: feature 22 is outside [-1, 22)"),
        (lambda doc: doc["forests"][4]["trees"][1]["threshold"].__setitem__(0, "abc"),
         "forests[4].trees[1].threshold[0] is a str, not a number or null"),
        (lambda doc: doc["forests"][4]["trees"][1].pop("left"), "forests[4].trees[1].left is missing"),
        (lambda doc: doc["forests"].pop(), "forests has length 5, not 6"),
        (lambda doc: doc["forests"][4].update(n_features=21), "forests[4].n_features: is 21, feature_names has 22"),
        (lambda doc: doc["forests"][4]["trees"][1]["count"].__setitem__(0, 10**400),
         "forests[4].trees[1].count holds a number out of range"),
        (lambda doc: doc.update(forests="abc"), "forests is a str, not a list"),
        (lambda doc: doc["forests"][4].update(trees=7), "forests[4].trees is an int, not a list"),
        (lambda doc: doc["forests"].__setitem__(4, [doc["forests"][4]]), "forests[4] is a list, not an object"),
        (lambda doc: doc["forests"][4]["trees"].__setitem__(1, []), "forests[4].trees[1] is a list, not an object"),
        (lambda doc: doc["forests"][4].update(x=1), "key forests[4].x is unknown"),
        (lambda doc: doc.update(x=1), "key x is unknown"),
        (lambda doc: doc["forests"][4].pop("params"), "forests[4].params is missing"),
    ], ids=["inf", "feature", "text", "missing-left", "forest-count", "n-features", "int-overflow", "text-forests",
            "number-trees", "list-forest", "list-tree", "forest-key", "document-key", "missing-params"])
    def test_damaged_tree_names_its_forest_and_tree(self, tmp_path, damage, message):
        path = tmp_path / "teachers.json"
        _saved_artifact("concept_teachers", path)
        doc = json.loads(path.read_text())
        assert (len(doc["concept_names"]), len(doc["feature_names"]), doc["forests"][4]["n_features"]) == (6, 22, 22)
        damage(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            teachers.load_teachers(path)

    @pytest.mark.parametrize("kind, key, value, message", [
        ("concept_distil", "concept_names", [1, 2, 3], "concept_names[0] is an int, not a string"),
        ("concept_distil", "concept_names", "xyz", "concept_names is a str, not a list"),
        ("concept_distil", "concept_names", ["a", "a"], "concept_names[1] repeats 'a'"),
        ("concept_teachers", "concept_names", "abcdef", "concept_names is a str, not a list"),
        ("concept_teachers", "concept_names", list("abcaef"), "concept_names[3] repeats 'a'"),
        ("concept_teachers", "feature_names", None, "feature_names is a NoneType, not a list"),
        ("concept_teachers", "n_features", 22.9, "forests[0].n_features is a float, not an integer"),
        ("concept_teachers", "n_features", 22.0, "forests[0].n_features is a float, not an integer"),
        ("concept_teachers", "n_features", True, "forests[0].n_features is a bool, not an integer"),
        ("ffnn_blackbox", "descriptor", None, "descriptor is a NoneType, not a string"),
        ("ffnn_blackbox", "descriptor", [1, {"a": None}], "descriptor is a list, not a string"),
    ])
    def test_header_of_the_wrong_type_exits_2_naming_the_key(self, tmp_path, capsys, kind, key, value, message):
        path = tmp_path / "artifact.json"
        load = _saved_artifact(kind, path)
        doc = json.loads(path.read_text())
        (doc["forests"][0] if key == "n_features" else doc)[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load(path)
        rows = tmp_path / "rows.csv"
        rows.write_text("id,f_0,f_1,f_2\nr0,0.1,0.2,0.3\n")
        command, flag = {"concept_distil": ("explain", "--model"), "concept_teachers": ("label", "--teachers"),
                         "ffnn_blackbox": ("label", "--blackbox")}[kind]
        assert cli.main([command, flag, str(path), "--input", str(rows), "--out", str(tmp_path / "x")]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    def test_save_file_refuses_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError, match="not JSON compliant"):
            schema.save_file(tmp_path / "x.json", "concept_distil", {"value": math.nan})


# any JSON value, a 400-digit integer among them
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.integers(-3, 3) | st.sampled_from([10**399, -(10**399)])
    | st.floats(-2.0, 2.0),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _paths(value, path=()):
    """Every key path into the JSON ``value``, the root's ``()`` first."""
    yield path
    if isinstance(value, dict | list):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(item, (*path, key))


SAVERS = {"concept_distil": model.save_model, "concept_teachers": teachers.save_teachers,
          "ffnn_blackbox": blackbox.save_blackbox}


class TestCorruption:
    """One value of a saved artifact, at any depth, replaced by another JSON value: its reader raises a DataError
    that starts with the file's path, and never anything else, or the file loads and saving what it loaded writes
    the corrupted document back."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        """Per kind, a saved document's text, its key paths by depth, and its reader."""
        out = {}
        for kind in KINDS:
            path = tmp_path_factory.mktemp("saved") / "artifact.json"
            load = _saved_artifact(kind, path)
            if kind == "concept_distil":  # with batchnorm layers, whose arrays sit one object deeper
                arch = model.build_architecture(3, 2, trunk_widths=(4, 3), head_widths=(2,), use_batchnorm=True)
                model.save_model(model.init_model(arch, ("a", "b"), seed=0), path)
            by_depth = {}
            for at in _paths(json.loads(path.read_text())):
                by_depth.setdefault(len(at), []).append(at)
            out[kind] = path.read_text(), by_depth, load
        return out

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=150)
    @given(draw=st.data())
    def test_one_replaced_value_is_a_data_error_naming_the_file_or_saves_back_unchanged(self, saved, tmp_path_factory,
                                                                                         kind, draw):
        text, by_depth, load = saved[kind]
        at = draw.draw(st.sampled_from(by_depth[draw.draw(st.sampled_from(sorted(by_depth)))]), "path")
        new = draw.draw(ANY_JSON, "value")
        doc = json.loads(text)
        if at:
            parent = doc
            for key in at[:-1]:
                parent = parent[key]
            parent[at[-1]] = new
        else:
            doc = new
        path = tmp_path_factory.getbasetemp() / f"corrupt_{kind}.json"
        path.write_text(json.dumps(doc))
        try:
            loaded = load(path)
        except DataError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            SAVERS[kind](loaded, path)
            assert json.loads(path.read_text()) == doc


class TestDeeplyNested:
    """A document nested deeper than Python recurses is a DataError naming the file (exit 2). Up to 3.11 the
    json decoder meets the recursion limit; from 3.12 on its nesting limit is its own, so a 3,000-deep
    document may decode, and then its reader refuses the value. No reader recurses on a document's nesting."""

    DEPTH = 3000

    def test_label_with_a_3000_deep_teachers_file_exits_2_naming_it(self, tmp_path, capsys):
        tree = ('{"feature": [' + "[" * self.DEPTH + "]" * self.DEPTH + '], "threshold": [null], "left": [0], '
                '"right": [0], "value": [0.5], "count": [1]}')
        path = tmp_path / "teachers.json"
        path.write_text('{"format_version": 2, "kind": "concept_teachers", "concept_names": ["a"], '
                        '"feature_names": ["f_0"], "forests": [{"params": {"n_trees": 1}, "n_features": 1, '
                        f'"trees": [{tree}]}}]}}')
        rows = tmp_path / "rows.csv"
        rows.write_text("id,f_0\nr0,0.1\n")
        assert cli.main(["label", "--input", str(rows), "--teachers", str(path), "--out", str(tmp_path / "l.csv")]) == 2
        expected = ("nested too deeply to read" if sys.version_info < (3, 12)
                    else "forests[0].trees[0].feature[0] is a list, not an integer")
        assert f"{path}: {expected}" in capsys.readouterr().err

    def test_a_3000_deep_config_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "forest.json"
        path.write_text('{"n_trees": ' + "[" * self.DEPTH + "]" * self.DEPTH + "}")
        rows = tmp_path / "golden.csv"
        rows.write_text("id,f_0\nr0,0.1\n")
        argv = ["teach", "--golden-train", str(rows), "--config", str(path), "--out", str(tmp_path / "t")]
        assert cli.main(argv) == 2
        assert str(path) in capsys.readouterr().err

    def test_recursion_in_the_reader_names_the_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        schema.save_file(path, "concept_distil", {})

        def endless(doc):
            return endless(doc)

        with pytest.raises(DataError, match=re.escape(f"{path}: nested too deeply to read")):
            schema.load_file(path, "concept_distil", endless)
