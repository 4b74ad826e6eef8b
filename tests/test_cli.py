import json
import os
from dataclasses import replace

import numpy as np
import pytest

from conceptdistil import blackbox, cli, data, model, schema


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Micro-scale run of the whole command suite, shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    d = root / "data"
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps({"n_instances": 1600, "seed": 5}))
    assert run("gen-data", "--config", str(gen_cfg), "--out", str(d),
               "--golden", "300,60,150", "--seed", "5") == 0
    bb_dir = root / "bb"
    assert run("train-blackbox", "--train", str(d / "train.csv"), "--valid", str(d / "valid.csv"),
               "--out", str(bb_dir), "--epochs", "10", "--seed", "5") == 0
    teach_dir = root / "teachers"
    assert run("teach", "--golden-train", str(d / "golden_train.csv"),
               "--golden-valid", str(d / "golden_valid.csv"),
               "--out", str(teach_dir), "--config", str(_forest_cfg(root)),
               "--seed", "5") == 0
    for name in ("train", "valid", "test"):
        assert run("label", "--input", str(d / f"{name}.csv"), "--out", str(d / f"{name}_labeled.csv"),
                   "--teachers", str(teach_dir / "teachers.json"),
                   "--blackbox", str(bb_dir / "blackbox.json"), "--seed", "5") == 0
    model_dir = root / "model"
    assert run("distill", "--variant", "default", "--train", str(d / "train_labeled.csv"),
               "--valid", str(d / "valid_labeled.csv"), "--out", str(model_dir),
               "--epochs", "4", "--seed", "5") == 0
    return root


def _forest_cfg(root):
    path = root / "forest.json"
    path.write_text(json.dumps({"n_trees": 8, "max_depth": 6}))
    return path


class TestPipeline:
    def test_gen_data_writes_all_splits_and_manifest(self, pipeline):
        d = pipeline / "data"
        for name in ("full", "train", "valid", "test", "golden_train", "golden_valid", "golden_test"):
            assert (d / f"{name}.csv").exists()
        manifest = json.loads((d / "manifest_gen-data.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 5
        assert "outputs" in manifest and "wall_clock_s" in manifest

    def test_golden_rows_are_excluded_from_corpus(self, pipeline):
        d = pipeline / "data"
        corpus_ids = set()
        for name in ("train", "valid", "test"):
            corpus_ids |= set(data.load_csv(d / f"{name}.csv").ids)
        golden_ids = set(data.load_csv(d / "golden_train.csv").ids)
        assert not (corpus_ids & golden_ids)

    def test_labeled_files_carry_soft_and_scores(self, pipeline):
        ds = data.load_csv(pipeline / "data" / "train_labeled.csv")
        assert ds.soft is not None and ds.bb_scores is not None

    def test_evaluate_model_report(self, pipeline):
        out = pipeline / "report.json"
        code = run("evaluate", "--model", str(pipeline / "model" / "model.json"),
                   "--test", str(pipeline / "data" / "test_labeled.csv"),
                   "--golden", str(pipeline / "data" / "golden_test.csv"),
                   "--out", str(out), "--seed", "5")
        assert code == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["fidelity"] <= 1.0
        assert 0.0 <= doc["mean_auc"] <= 1.0
        assert len(doc["per_concept_auc"]) == 6

    def test_evaluate_prevalence_report(self, pipeline):
        out = pipeline / "prevalences.json"
        assert run("evaluate", "--data", str(pipeline / "data" / "full.csv"), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        for rule in data.GeneratorConfig().concepts:
            assert doc["concept_prevalences"][rule.name] == pytest.approx(rule.prevalence, abs=0.015)

    def test_explain_emits_jsonl_per_row(self, pipeline):
        out = pipeline / "explanations.jsonl"
        golden_test = pipeline / "data" / "golden_test.csv"
        assert run("explain", "--model", str(pipeline / "model" / "model.json"),
                   "--input", str(golden_test), "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 150
        doc = json.loads(lines[0])
        assert set(doc) == {"id", "kd_score", "concept_probs", "attention", "contributions"}
        assert sum(doc["attention"].values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(doc["contributions"].values()) == pytest.approx(doc["kd_score"], abs=1e-9)

    def test_zeroed_attention_model_explains_uniformly(self, pipeline, tmp_path):
        params = model.load_model(pipeline / "model" / "model.json")
        for layer in params.theta_a.layers:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        zeroed = tmp_path / "zeroed.json"
        model.save_model(params, zeroed)
        out = tmp_path / "explanations.jsonl"
        assert run("explain", "--model", str(zeroed),
                   "--input", str(pipeline / "data" / "golden_test.csv"), "--out", str(out)) == 0
        for line in out.read_text().strip().splitlines():
            attention = list(json.loads(line)["attention"].values())
            np.testing.assert_allclose(attention, [1 / 6] * 6, atol=1e-12)

    def test_sweep_lambda_mode(self, pipeline, tmp_path):
        out = tmp_path / "sweep"
        code = run("sweep", "--mode", "lambda", "--lambda-grid", "0,1",
                   "--repeats", "1", "--epochs", "2",
                   "--train", str(pipeline / "data" / "train_labeled.csv"),
                   "--valid", str(pipeline / "data" / "valid_labeled.csv"),
                   "--test", str(pipeline / "data" / "test_labeled.csv"),
                   "--golden-test", str(pipeline / "data" / "golden_test.csv"),
                   "--out", str(out), "--seed", "3")
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + grid x repeats
        assert (out / "sweep_summary.json").exists()

    def test_rerun_reproduces_byte_identical_outputs(self, pipeline, tmp_path):
        d2 = tmp_path / "data2"
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({"n_instances": 1600, "seed": 5}))
        assert run("gen-data", "--config", str(gen_cfg), "--out", str(d2),
                   "--golden", "300,60,150", "--seed", "5") == 0
        for name in ("full", "train", "golden_test"):
            a = (pipeline / "data" / f"{name}.csv").read_bytes()
            b = (d2 / f"{name}.csv").read_bytes()
            assert a == b


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("gen-data", "--nope") == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert run("train-blackbox", "--train", str(tmp_path / "none.csv"),
                   "--valid", str(tmp_path / "none.csv"), "--out", str(tmp_path)) == 2
        assert "no such file" in capsys.readouterr().err

    def test_schema_violation_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,f_0\n0,1.0\n1,oops\n")
        assert run("evaluate", "--data", str(bad), "--out", str(tmp_path / "r.json")) == 2

    def test_label_without_sources_is_usage_error(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("id,f_0\n0,1.0\n")
        assert run("label", "--input", str(f), "--out", str(tmp_path / "y.csv")) == 1

    def test_non_finite_model_is_numeric_error(self, pipeline, tmp_path, capsys):
        # 1e999 parses to infinity, which the forward pass must reject
        text = (pipeline / "model" / "model.json").read_text()
        broken = tmp_path / "model.json"
        first_weight = text.index('"weights": [') + len('"weights": [')
        end = text.index(",", first_weight)
        broken.write_text(text[:first_weight] + "1e999" + text[end:])
        code = run("explain", "--model", str(broken),
                   "--input", str(pipeline / "data" / "golden_test.csv"),
                   "--out", str(tmp_path / "o.jsonl"))
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_corrupt_model_file_is_data_error(self, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text("{not json")
        assert run("explain", "--model", str(bad), "--input", str(bad),
                   "--out", str(tmp_path / "o.jsonl")) == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
        out = tmp_path / "data"
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({"n_instances": 400, "seed": 0}))
        assert run("gen-data", "--config", str(gen_cfg), "--out", str(out), "--golden", "0,0,0") == 0
        manifest = json.loads((out / "manifest_gen-data.json").read_text())
        assert manifest["seed"] == 7

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        assert run("gen-data", "--out", str(tmp_path / "d"), "--golden", "0,0,0") == 1

    def test_negative_seed_is_usage_error(self, tmp_path):
        assert run("gen-data", "--out", str(tmp_path / "d"), "--golden", "0,0,0", "--seed", "-3") == 1


class TestInputPreservation:
    def test_label_does_not_mutate_its_input(self, pipeline):
        d = pipeline / "data"
        before = (d / "test.csv").read_bytes()
        bb = pipeline / "bb" / "blackbox.json"
        assert run("label", "--input", str(d / "test.csv"), "--out", str(d / "test_again.csv"),
                   "--blackbox", str(bb)) == 0
        assert (d / "test.csv").read_bytes() == before


class TestOptionalFlags:
    def test_evaluate_with_recall_fpr(self, pipeline, tmp_path):
        out = tmp_path / "report.json"
        code = run("evaluate", "--model", str(pipeline / "model" / "model.json"),
                   "--test", str(pipeline / "data" / "test_labeled.csv"),
                   "--recall-fpr", "0.05", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["recall_at_fpr"]["fpr_level"] == 0.05
        assert 0.0 <= doc["recall_at_fpr"]["recall"] <= 1.0

    def test_label_uncertainty_fraction_subsets_rows(self, pipeline, tmp_path):
        d = pipeline / "data"
        out = tmp_path / "uncertain.csv"
        assert run("label", "--input", str(d / "test.csv"), "--out", str(out),
                   "--blackbox", str(pipeline / "bb" / "blackbox.json"),
                   "--uncertainty-fraction", "0.2") == 0
        full = data.load_csv(d / "test.csv")
        subset = data.load_csv(out)
        assert subset.n == int(np.ceil(0.2 * full.n))
        assert subset.bb_scores is not None

    def test_teach_with_tuning(self, pipeline, tmp_path):
        d = pipeline / "data"
        out = tmp_path / "tuned"
        code = run("teach", "--golden-train", str(d / "golden_train.csv"),
                   "--golden-valid", str(d / "golden_valid.csv"),
                   "--out", str(out), "--tune", "2", "--seed", "3")
        assert code == 0
        report = json.loads((out / "teach_report.json").read_text())
        assert 0.0 <= report["tuned_valid_mean_auc"] <= 1.0
        manifest = json.loads((out / "manifest_teach.json").read_text())
        assert manifest["seed"] == 3 and manifest["result"] == {"tune": 2}

    def test_label_with_score_file(self, pipeline, tmp_path):
        from conceptdistil import blackbox

        d = pipeline / "data"
        ds = data.load_csv(d / "test.csv")
        score_path = tmp_path / "scores.csv"
        scores = np.linspace(0.0, 1.0, ds.n)
        blackbox.save_score_file(score_path, ds.ids, scores)
        out = tmp_path / "scored.csv"
        assert run("label", "--input", str(d / "test.csv"), "--out", str(out),
                   "--score-file", str(score_path)) == 0
        np.testing.assert_array_equal(data.load_csv(out).bb_scores, scores)


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _feed_back(manifest_path, command, out, *argv):
    """Rerun ``command`` with the first run's manifest config as --config; both resolve alike."""
    first = json.loads(manifest_path.read_text())
    cfg = _write_json(out.parent / f"{out.name}_config.json", first["config"])
    assert run(command, "--config", str(cfg), "--out", str(out), *argv) == 0
    second = json.loads((out / f"manifest_{command}.json").read_text())
    assert (second["config"], second["seed"]) == (first["config"], first["seed"])
    return first


TINY_ARCH = {"trunk_widths": [8], "head_widths": [4], "attention_widths": [4]}


class TestConfigFiles:
    @pytest.fixture(autouse=True)
    def no_env_seed(self, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)

    def test_gen_data_manifest_config_feeds_back(self, tmp_path):
        cfg = _write_json(tmp_path / "gen.json", {"n_instances": 400, "noise_level": 0.3})
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "a"),
                   "--golden", "0,0,0", "--n", "300", "--seed", "4") == 0
        first = _feed_back(tmp_path / "a" / "manifest_gen-data.json", "gen-data", tmp_path / "b", "--golden", "0,0,0")
        assert (first["config"]["n_instances"], first["config"]["noise_level"], first["seed"]) == (300, 0.3, 4)

    def test_teach_manifest_config_feeds_back(self, pipeline, tmp_path):
        golden = str(pipeline / "data" / "golden_train.csv")
        cfg = _write_json(tmp_path / "forest.json", {"n_trees": 3, "max_depth": 4, "bootstrap": False})
        assert run("teach", "--golden-train", golden, "--config", str(cfg), "--out", str(tmp_path / "a"),
                   "--seed", "9") == 0
        first = _feed_back(tmp_path / "a" / "manifest_teach.json", "teach", tmp_path / "b", "--golden-train", golden)
        assert first["config"]["seed"] == 9 and first["config"]["bootstrap"] is False
        assert (tmp_path / "a" / "teachers.json").read_bytes() == (tmp_path / "b" / "teachers.json").read_bytes()

    def test_distill_manifest_config_feeds_back(self, pipeline, tmp_path):
        d = pipeline / "data"
        sets = ("--train", str(d / "train_labeled.csv"), "--valid", str(d / "valid_labeled.csv"))
        cfg = _write_json(tmp_path / "train.json", {"learning_rate": 0.01, "architecture": {**TINY_ARCH, "dropout": 0.1}})
        assert run("distill", *sets, "--config", str(cfg), "--out", str(tmp_path / "a"), "--epochs", "1",
                   "--lambda", "0.3", "--batch-size", "128", "--variant", "no-gradient", "--seed", "9") == 0
        first = _feed_back(tmp_path / "a" / "manifest_distill.json", "distill", tmp_path / "b", *sets)
        resolved = first["config"]
        assert (resolved["lambda"], resolved["epochs"], resolved["learning_rate"], resolved["seed"]) == (0.3, 1, 0.01, 9)
        assert resolved["architecture"]["dropout"] == 0.1 and "lr" not in resolved["optimizer"]
        assert set(first["result"]) == {"best_epoch", "stopped_early"}
        assert (tmp_path / "a" / "model.json").read_bytes() == (tmp_path / "b" / "model.json").read_bytes()

    def test_seed_precedence_flag_env_config(self, pipeline, tmp_path, monkeypatch):
        golden = str(pipeline / "data" / "golden_train.csv")
        cfg = _write_json(tmp_path / "forest.json", {"n_trees": 1, "seed": 11})

        def seed_of(out, *flags):
            assert run("teach", "--golden-train", golden, "--config", str(cfg), "--out", str(tmp_path / out), *flags) == 0
            return json.loads((tmp_path / out / "manifest_teach.json").read_text())["seed"]

        assert seed_of("file") == 11
        monkeypatch.setenv(cli.SEED_ENV_VAR, "12")
        assert seed_of("env") == 12
        assert seed_of("flag", "--seed", "13") == 13

    @pytest.mark.parametrize("command, doc, needle", [
        ("distill", {"lamda": 0.5}, "'lamda'"),
        ("distill", {"architecture": {"dropuot": 0.1}}, "'architecture.dropuot'"),
        ("distill", {"optimizer": {"lr": 0.1}}, "'optimizer.lr'"),
        ("distill", [0.5], "expected a JSON object"),
        ("teach", {"bootstrap": "false"}, "'bootstrap'"),
        ("teach", "n_trees", "expected a JSON object"),
        ("gen-data", {"n_instance": 10}, "'n_instance'"),
        ("sweep", {"lambda": 0.5}, "'lambda'"),
        ("sweep", {"learning_rate": 0.01}, "'learning_rate'"),
        ("sweep", {"optimizer": {"l2_penalty": 0.01}}, "'optimizer.l2_penalty'"),
        ("sweep", {"architecture": TINY_ARCH}, "'architecture'"),
        ("sweep --mode lambda", {"lambda": 0.5}, "'lambda'"),
        ("teach", {"feature_subsample": 0}, "feature_subsample"),
        ("gen-data", {"noise_level": float("nan")}, "'noise_level' must be finite"),
        ("distill", {"learning_rate": float("inf")}, "'learning_rate' must be finite"),
        ("gen-data", {"concepts": [{"name": "empty", "feature_indices": [], "weights": [], "prevalence": 0.2}],
                      "fraud_weights": [1.0]}, "rule 'empty'"),
        ("gen-data", {"concepts": [{"name": "neg", "feature_indices": [-1], "weights": [1.0], "prevalence": 0.2}],
                      "fraud_weights": [1.0]}, "rule 'neg'"),
        ("gen-data", {"noise_level": -1.0}, "noise_level must be finite and >= 0"),
        ("distill", {"optimizer": {"adam_beta1": 1.0}}, "adam_beta1 must be in [0, 1)"),
    ])
    def test_bad_config_exits_2_naming_the_key(self, tmp_path, capsys, command, doc, needle):
        cfg = _write_json(tmp_path / "cfg.json", doc)
        none = str(tmp_path / "none.csv")  # the config is read before any data
        data_flags = {
            "gen-data": (), "teach": ("--golden-train", none), "distill": ("--train", none, "--valid", none),
            "sweep": ("--train", none, "--valid", none, "--test", none, "--golden-test", none),
        }
        words = command.split()
        assert run(*words, *data_flags[words[0]], "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert needle in err and str(cfg) in err

    def test_nan_learning_rate_flag_exits_2_naming_it(self, tmp_path, capsys):
        none = str(tmp_path / "none.csv")  # the flags are checked before any data is read
        assert run("distill", "--train", none, "--valid", none, "--learning-rate", "nan",
                   "--out", str(tmp_path / "o")) == 2
        assert "learning_rate must be > 0" in capsys.readouterr().err

    def test_sweep_lambda_mode_honours_learning_rate_l2_and_architecture(self, pipeline, tmp_path):
        d = pipeline / "data"
        cfg = _write_json(tmp_path / "train.json", {"learning_rate": 0.02, "optimizer": {"l2_penalty": 0.001},
                                                    "architecture": TINY_ARCH})
        assert run("sweep", "--mode", "lambda", "--lambda-grid", "0.5", "--repeats", "1", "--epochs", "1",
                   "--train", str(d / "train_labeled.csv"), "--valid", str(d / "valid_labeled.csv"),
                   "--test", str(d / "test_labeled.csv"), "--golden-test", str(d / "golden_test.csv"),
                   "--config", str(cfg), "--out", str(tmp_path / "s")) == 0
        header, row = (tmp_path / "s" / "sweep.csv").read_text().strip().splitlines()
        trial = dict(zip(header.split(","), row.split(",")))
        assert (trial["learning_rate"], trial["l2"], trial["trunk_widths"]) == ("0.02", "0.001", "8")

    def test_sweep_search_mode_lays_the_config_over_its_defaults(self, pipeline, tmp_path, monkeypatch):
        seen = {}

        def fake_search(space, n_trials, bundle, *, base, master_seed, jobs):
            seen.update(base=base, master_seed=master_seed)
            raise RuntimeError("stop")

        monkeypatch.setattr(cli.hpo, "run_search", fake_search)
        d = pipeline / "data"
        cfg = _write_json(tmp_path / "train.json", {"batch_size": 64, "validation_metric": "fidelity", "seed": 8,
                                                    "optimizer": {"algorithm": "sgd"}})
        with pytest.raises(RuntimeError, match="stop"):
            run("sweep", "--train", str(d / "train_labeled.csv"), "--valid", str(d / "valid_labeled.csv"),
                "--test", str(d / "test_labeled.csv"), "--golden-test", str(d / "golden_test.csv"),
                "--config", str(cfg), "--out", str(tmp_path / "s"))
        base = seen["base"]
        assert (base.epochs, base.early_stop_patience, base.batch_size) == (40, 6, 64)
        assert (base.validation_metric, base.optimizer.algorithm, seen["master_seed"]) == ("fidelity", "sgd", 8)

    def test_teach_tune_with_config_is_usage_error(self, pipeline, tmp_path, capsys):
        d = pipeline / "data"
        cfg = _write_json(tmp_path / "forest.json", {"n_trees": 3})
        assert run("teach", "--golden-train", str(d / "golden_train.csv"), "--golden-valid", str(d / "golden_valid.csv"),
                   "--tune", "2", "--config", str(cfg), "--out", str(tmp_path / "t")) == 1
        assert "--config" in capsys.readouterr().err


class TestTrainBlackbox:
    @pytest.fixture(autouse=True)
    def no_env_seed(self, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)

    def test_flag_defaults_are_the_config_defaults(self, pipeline, tmp_path):
        d = pipeline / "data"
        assert run("train-blackbox", "--train", str(d / "train.csv"), "--valid", str(d / "valid.csv"),
                   "--out", str(tmp_path / "bb")) == 0
        manifest = json.loads((tmp_path / "bb" / "manifest_train-blackbox.json").read_text())
        assert manifest["config"] == schema.write(blackbox.BlackBoxConfig())
        library = blackbox.train_ffnn_blackbox(data.load_csv(d / "train.csv"), data.load_csv(d / "valid.csv"))
        blackbox.save_blackbox(library, tmp_path / "library.json")
        assert (tmp_path / "bb" / "blackbox.json").read_bytes() == (tmp_path / "library.json").read_bytes()

    def test_manifest_records_the_resolved_options(self, pipeline, tmp_path):
        d = pipeline / "data"
        assert run("train-blackbox", "--train", str(d / "train.csv"), "--valid", str(d / "valid.csv"),
                   "--out", str(tmp_path / "bb"), "--hidden", "8", "--epochs", "2", "--batch-size", "64",
                   "--learning-rate", "0.01", "--patience", "3", "--seed", "4") == 0
        manifest = json.loads((tmp_path / "bb" / "manifest_train-blackbox.json").read_text())
        assert manifest["config"] == {"hidden": [8], "learning_rate": 0.01, "epochs": 2, "batch_size": 64,
                                      "patience": 3, "seed": 4}

    @pytest.mark.parametrize("flag, field", [
        ("--batch-size", "batch_size"), ("--epochs", "epochs"), ("--learning-rate", "learning_rate"),
    ])
    def test_zero_option_exits_2_naming_the_field(self, pipeline, tmp_path, capsys, flag, field):
        d = pipeline / "data"
        assert run("train-blackbox", "--train", str(d / "train.csv"), "--valid", str(d / "valid.csv"),
                   "--out", str(tmp_path / "bb"), flag, "0") == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "bb" / "blackbox.json").exists()


class TestLoadErrors:
    def test_label_rejects_a_forest_without_trees(self, pipeline, tmp_path, capsys):
        doc = json.loads((pipeline / "teachers" / "teachers.json").read_text())
        doc["forests"][0]["trees"] = []
        broken = _write_json(tmp_path / "teachers.json", doc)
        assert run("label", "--input", str(pipeline / "data" / "test.csv"), "--out", str(tmp_path / "l.csv"),
                   "--teachers", str(broken)) == 2
        assert "forests[0].trees" in capsys.readouterr().err
        assert not (tmp_path / "l.csv").exists()

    def test_model_without_attention_is_data_error_naming_the_key(self, pipeline, tmp_path, capsys):
        doc = json.loads((pipeline / "model" / "model.json").read_text())
        del doc["attention"]
        broken = _write_json(tmp_path / "model.json", doc)
        assert run("explain", "--model", str(broken), "--input", str(pipeline / "data" / "golden_test.csv"),
                   "--out", str(tmp_path / "o.jsonl")) == 2
        assert "'attention'" in capsys.readouterr().err

    def test_key_error_inside_a_command_propagates(self, monkeypatch):
        def broken(args):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "cmd_explain", broken)
        with pytest.raises(KeyError, match="bug"):
            run("explain", "--model", "m.json", "--input", "x.csv", "--out", "o.jsonl")

    def test_evaluate_rejects_reordered_golden_concepts(self, pipeline, tmp_path, capsys):
        golden = data.load_csv(pipeline / "data" / "golden_test.csv")
        names = golden.concept_names
        swapped = replace(golden, concept_names=names[::-1], golden=golden.golden[:, ::-1])
        data.save_csv(swapped, tmp_path / "golden.csv")
        assert run("evaluate", "--model", str(pipeline / "model" / "model.json"), "--golden", str(tmp_path / "golden.csv"),
                   "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert str(names) in err and str(names[::-1]) in err
