import csv
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from conceptdistil import blackbox, cli, data, hpo, metrics, model, schema, teachers, training
from conceptdistil.errors import DataError, NumericError, UsageError


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


SWEEP_INPUTS = ("--train", "train_labeled.csv", "--valid", "valid_labeled.csv", "--test", "test_labeled.csv",
                "--golden-test", "golden_test.csv")


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
        d, model_path, out = pipeline / "data", pipeline / "model" / "model.json", pipeline / "report.json"
        code = run("evaluate", "--model", str(model_path), "--test", str(d / "test_labeled.csv"),
                   "--golden", str(d / "golden_test.csv"), "--recall-fpr", "0.05", "--out", str(out), "--seed", "5")
        assert code == 0
        doc = json.loads(out.read_text())
        assert list(doc) == ["n_eval", "fidelity", "mean_auc", "per_concept_auc", "recall_at_fpr"]
        assert out.read_text() == json.dumps(doc, indent=2) + "\n"
        params = model.load_model(model_path)
        test_set, golden_set = data.load_csv(d / "test_labeled.csv"), data.load_csv(d / "golden_test.csv")
        scores = model.predict_scores(params, test_set.x)
        per, mean = metrics.mean_concept_auc(model.predict_concepts(params, golden_set.x), golden_set.golden)
        assert doc["n_eval"] == max(test_set.n, golden_set.n)
        assert doc["fidelity"] == metrics.fidelity(scores, test_set.bb_scores)
        assert doc["mean_auc"] == mean
        assert list(doc["per_concept_auc"]) == list(params.concept_names) and len(per) == 6
        assert doc["per_concept_auc"] == dict(zip(params.concept_names, per.tolist()))
        assert doc["recall_at_fpr"] == {"fpr_level": 0.05, "recall": metrics.recall_at_fpr(scores, test_set.y, 0.05)}

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

    def test_non_finite_model_is_data_error_naming_the_array(self, pipeline, tmp_path, capsys):
        # 1e999 parses to infinity, which reading the model rejects
        text = (pipeline / "model" / "model.json").read_text()
        broken = tmp_path / "model.json"
        first_weight = text.index('"weights": [') + len('"weights": [')
        end = text.index(",", first_weight)
        broken.write_text(text[:first_weight] + "1e999" + text[end:])
        code = run("explain", "--model", str(broken),
                   "--input", str(pipeline / "data" / "golden_test.csv"),
                   "--out", str(tmp_path / "o.jsonl"))
        assert code == 2
        assert f"{broken}: trunk.layers[0].weights holds non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize("broken_item, message", [
        ("layer", "trunk.layers[0] is an int, not an object"),
        ("weight", "trunk.layers[0].weights[1] is a str, not a number"),
    ])
    def test_malformed_model_layer_is_data_error_naming_it(self, pipeline, tmp_path, capsys, broken_item, message):
        doc = json.loads((pipeline / "model" / "model.json").read_text())
        if broken_item == "layer":
            doc["trunk"]["layers"][0] = 5
        else:
            doc["trunk"]["layers"][0]["weights"][1] = "0.5"
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(doc))
        code = run("explain", "--model", str(broken),
                   "--input", str(pipeline / "data" / "golden_test.csv"),
                   "--out", str(tmp_path / "o.jsonl"))
        assert code == 2
        assert f"{broken}: {message}" in capsys.readouterr().err

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

    def test_golden_sets_taking_every_row_exit_2(self, tmp_path, capsys):
        assert run("gen-data", "--out", str(tmp_path / "d"), "--n", "30", "--golden", "10,10,10") == 2
        assert "split produces an empty subset" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("target, command, argv", [
        ("in_the_way", "gen-data", ("--n", "400", "--golden", "0,0,0")),
        ("in_the_way/r.json", "evaluate", ("--data", "d.csv")),
        ("a_directory", "evaluate", ("--data", "d.csv")),
    ], ids=["directory-output", "file-output", "file-output-is-a-directory"])
    def test_out_blocked_by_a_file_or_directory_is_a_usage_error_naming_it(self, tmp_path, capsys, target, command,
                                                                           argv):
        (tmp_path / "in_the_way").write_text("")
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "d.csv").write_text("id,f_0,c_a\n0,1.0,0\n1,2.0,1\n")
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        assert run(command, *argv, "--out", str(tmp_path / target)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {tmp_path / target}") and "Traceback" not in err

    @pytest.mark.parametrize("argv, code", [
        (("--golden", "60,30,30", "--split", "0.8,0.2"), 1),
        (("--golden", "60,30"), 1),
        (("--golden", "60,30,30", "--split", "0.5,0.4,0.4"), 2),
        (("--golden", "600,30,30"), 2),
    ])
    def test_gen_data_writes_nothing_when_a_subset_fails(self, tmp_path, argv, code):
        assert run("gen-data", "--out", str(tmp_path / "d"), "--n", "400", *argv) == code
        assert not list(tmp_path.rglob("*.csv"))

    def test_evaluate_model_without_an_eval_set_fails_before_reading(self, tmp_path, capsys):
        assert run("evaluate", "--model", str(tmp_path / "none.json"), "--out", str(tmp_path / "r.json")) == 1
        assert "needs --test and/or --golden" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("--model", "m.json", "--test", "t.csv", "--data", "d.csv"), "--model and --data are mutually exclusive"),
        (("--data", "d.csv", "--golden", "g.csv"), "--test and --golden require --model"),
        (("--model", "m.json", "--golden", "g.csv", "--recall-fpr", "0.05"), "--recall-fpr requires --test"),
        (("--data", "d.csv", "--recall-fpr", "0.05"), "--recall-fpr requires --test"),
    ])
    def test_evaluate_rejects_a_flag_it_would_ignore_before_reading(self, tmp_path, capsys, argv, message):
        out = tmp_path / "report" / "r.json"  # none of the files exists: reading one would exit 2
        argv = [a if a.startswith("-") or a[0].isdigit() else str(tmp_path / a) for a in argv]
        assert run("evaluate", *argv, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("change, message", [
        ("no_concepts", "has no hard concept labels"),
        ("no_rows", "has no rows"),
    ])
    def test_failed_evaluate_data_names_the_file_and_leaves_no_directory(self, pipeline, tmp_path, capsys, change,
                                                                         message):
        ds = data.load_csv(pipeline / "data" / "valid.csv")
        ds = replace(ds, concept_names=(), golden=None) if change == "no_concepts" else ds.take(np.arange(0))
        data.save_csv(ds, tmp_path / "d.csv")
        out = tmp_path / "report" / "p.json"
        assert run("evaluate", "--data", str(tmp_path / "d.csv"), "--out", str(out)) == 2
        assert f"error: --data file {tmp_path / 'd.csv'} {message}" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_failed_model_evaluation_leaves_no_directory(self, pipeline, tmp_path, capsys):
        d = pipeline / "data"
        data.save_csv(replace(data.load_csv(d / "test_labeled.csv"), y=None), tmp_path / "t.csv")
        out = tmp_path / "report" / "r.json"
        assert run("evaluate", "--model", str(pipeline / "model" / "model.json"), "--test", str(tmp_path / "t.csv"),
                   "--golden", str(d / "golden_test.csv"), "--recall-fpr", "0.05", "--out", str(out)) == 2
        assert "--recall-fpr needs task labels on the --test file" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_gen_data_rejects_a_concept_its_file_would_rename(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "gen.json", {
            "d_features": 2, "teacher_feature_count": 0, "fraud_weights": [1.0, 1.0],
            "concepts": [{"name": n, "feature_indices": [i], "weights": [1.0], "prevalence": 0.3}
                         for i, n in enumerate(("x", "x_soft"))],
        })
        assert run("gen-data", "--config", str(cfg), "--n", "400", "--golden", "0,0,0", "--out", str(tmp_path / "d")) == 2
        assert "concept_names entry 'x_soft': its column 'c_x_soft' does not read back" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("error, code, message", [
        (UsageError("bad flag"), 1, "error: bad flag"),
        (DataError("bad file"), 2, "error: bad file"),
        (NumericError("diverged"), 3, "error: diverged"),
        (FileNotFoundError("gone"), 2, "error: gone"),
        (FloatingPointError("overflow"), 3, "error: numeric failure: overflow"),
    ])
    def test_exit_status_prints_the_error_and_returns_its_code(self, capsys, error, code, message):
        def body():
            raise error

        assert cli.exit_status(body) == code
        assert capsys.readouterr().err == message + "\n"
        assert cli.exit_status(lambda: None) == 0

    def test_teach_tune_without_golden_valid_fails_before_reading(self, tmp_path, capsys):
        out = tmp_path / "t"  # golden-train does not exist: reading it would exit 2
        assert run("teach", "--golden-train", str(tmp_path / "none.csv"), "--tune", "2", "--out", str(out)) == 1
        assert "--tune requires --golden-valid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, argv", [
        ("distill", ("--variant", "baseline-concept")),
        ("train-blackbox", ("--epochs", "2")),
    ])
    @pytest.mark.parametrize("empty, name", [("--train", "training"), ("--valid", "validation")])
    def test_zero_row_set_exits_2_naming_it(self, pipeline, tmp_path, capsys, command, argv, empty, name):
        d = pipeline / "data"
        suffix = "_labeled" if command == "distill" else ""
        header_only = tmp_path / "empty.csv"
        header_only.write_text((d / f"train{suffix}.csv").read_text().splitlines(keepends=True)[0])
        sets = {"--train": d / f"train{suffix}.csv", "--valid": d / f"valid{suffix}.csv", empty: header_only}
        out = tmp_path / "out"
        assert run(command, *argv, *(str(a) for kv in sets.items() for a in kv), "--out", str(out)) == 2
        assert f"{name} set has no rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--lambda-grid", ""], "error: the lambda grid is empty"),
        (["--repeats", "0"], "error: n_repeats must be >= 1"),
        (["--lambda-grid", "0.5,1.5"], "error: lambda must be in [0, 1], got 1.5"),
    ], ids=["empty-grid", "repeats", "lambda-grid"])
    def test_sweep_lambda_grid_and_repeats_are_checked_before_any_data(self, tmp_path, capsys, argv, message):
        none = str(tmp_path / "none.csv")  # never read
        assert run("sweep", "--mode", "lambda", *argv, "--train", none, "--valid", none, "--test", none,
                   "--golden-test", none, "--out", str(tmp_path / "s")) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_sweep_with_every_trial_failing_names_the_first_cause(self, pipeline, tmp_path, capsys):
        d = pipeline / "data"
        header_only = tmp_path / "test_labeled.csv"
        header_only.write_text((d / "test_labeled.csv").read_text().splitlines(keepends=True)[0])
        argv = [str(header_only) if a == "test_labeled.csv" else str(d / a) if a.endswith(".csv") else a
                for a in SWEEP_INPUTS]
        assert run("sweep", "--mode", "lambda", "--lambda-grid", "0.5", "--repeats", "1", "--epochs", "1",
                   *argv, "--out", str(tmp_path / "s")) == 2
        assert "all trials failed; trial 0: predictions must not be empty" in capsys.readouterr().err

    def test_sweep_parses_the_lambda_grid_before_reading_data(self, tmp_path, capsys):
        none = str(tmp_path / "none.csv")  # reading it would exit 2
        assert run("sweep", "--mode", "lambda", "--lambda-grid", "0,x", "--train", none, "--valid", none,
                   "--test", none, "--golden-test", none, "--out", str(tmp_path / "s")) == 1
        assert "--lambda-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["gen-data", "--golden", "1,x,3"], "--golden expects comma-separated integers, got '1,x,3'"),
        (["sweep", "--mode", "lambda", "--lambda-grid", "0.1,y", "--train", "none.csv", "--valid", "none.csv",
          "--test", "none.csv", "--golden-test", "none.csv"], "--lambda-grid expects comma-separated numbers, got '0.1,y'"),
        (["train-blackbox", "--hidden", "8,x", "--train", "none.csv", "--valid", "none.csv"],
         "--hidden expects comma-separated integers, got '8,x'"),
        (["gen-data", "--split", "0.8,x"], "--split expects comma-separated numbers, got '0.8,x'"),
        (["sweep", "--lambda-grid", "0.1,y", "--train", "none.csv", "--valid", "none.csv", "--test", "none.csv",
          "--golden-test", "none.csv"], "--lambda-grid expects comma-separated numbers, got '0.1,y'"),  # search mode
        (["gen-data", "--golden", "10,,10,10"], "--golden expects comma-separated integers, got '10,,10,10'"),
        (["train-blackbox", "--hidden", "32,,16,", "--train", "none.csv", "--valid", "none.csv"],
         "--hidden expects comma-separated integers, got '32,,16,'"),
        (["gen-data", "--split", "0.8,0.1,"], "--split expects comma-separated numbers, got '0.8,0.1,'"),
        (["sweep", "--mode", "lambda", "--lambda-grid", ",", "--train", "none.csv", "--valid", "none.csv",
          "--test", "none.csv", "--golden-test", "none.csv"], "--lambda-grid expects comma-separated numbers, got ','"),
    ])
    def test_unreadable_list_flag_exits_1_naming_it(self, tmp_path, capsys, argv, message):
        assert run(*argv, "--out", str(tmp_path / "o")) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("command, required", [
        ("gen-data", ()),
        ("train-blackbox", ("--train", "--valid")),
        ("teach", ("--golden-train",)),
        ("label", ("--input", "--teachers")),
        ("distill", ("--train", "--valid")),
        ("evaluate", ("--data",)),
        ("explain", ("--model", "--input")),
        ("sweep", ("--train", "--valid", "--test", "--golden-test")),
    ])
    def test_negative_seed_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, command, required, source):
        argv = [command, "--out", str(tmp_path / "out"), *(a for flag in required for a in (flag, str(tmp_path / "none")))]
        if source == "flag":
            argv += ["--seed", "-3"]
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, "-3")
        assert run(*argv) == 2
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any work

    @pytest.mark.parametrize("argv, needle", [
        (("teach", "--golden-train", "golden_train.csv", "--tune", "-2"), "tune must be >= 0, got -2"),
        (("sweep", *SWEEP_INPUTS, "--jobs", "-4"), "jobs must be >= 1, got -4"),
        (("sweep", *SWEEP_INPUTS, "--mode", "lambda", "--jobs", "0"), "jobs must be >= 1, got 0"),
    ])
    def test_out_of_range_count_flag_exits_2_naming_it(self, pipeline, tmp_path, capsys, argv, needle):
        d = pipeline / "data"  # file names are in pipeline's data directory
        argv = [str(d / a) if a.endswith(".csv") else a for a in argv]
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDisjointInputs:
    """Two datasets given to one command may not share an instance id."""

    SWEEP = ("sweep", ("--mode", "lambda", "--lambda-grid", "0.5", "--repeats", "1"),
             {"--train": "train_labeled", "--valid": "valid_labeled", "--test": "test_labeled",
              "--golden-test": "golden_test"})
    # the command, its other flags, its dataset flags and files in the parser's order, and the two that overlap
    CASES = {
        "train-blackbox": ("train-blackbox", ("--epochs", "1"), {"--train": "train", "--valid": "valid"},
                           ("--train", "--valid")),
        "distill": ("distill", ("--epochs", "1"), {"--train": "train_labeled", "--valid": "valid_labeled"},
                    ("--train", "--valid")),
        "teach": ("teach", (), {"--golden-train": "golden_train", "--golden-valid": "golden_valid"},
                  ("--golden-train", "--golden-valid")),
        "sweep-train-test": (*SWEEP, ("--train", "--test")),
        "sweep-valid-golden-test": (*SWEEP, ("--valid", "--golden-test")),
    }

    @pytest.mark.parametrize("command, flags, files, overlap", CASES.values(), ids=CASES)
    def test_a_shared_id_exits_2_naming_both_flags_the_count_and_a_first_id(self, pipeline, tmp_path, capsys,
                                                                             command, flags, files, overlap):
        first, second = overlap
        paths = {flag: pipeline / "data" / f"{name}.csv" for flag, name in files.items()}
        source = data.load_csv(paths[first])
        data.save_csv(source.take(np.array([7, 3])), tmp_path / "overlap.csv")
        paths[second] = tmp_path / "overlap.csv"
        out = tmp_path / "out"
        assert run(command, *flags, *(str(a) for kv in paths.items() for a in kv), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {first} and {second} share 2 instance ids, first {source.ids[3]!r}" in err
        assert not out.exists()


class TestManifestInputs:
    """A manifest's ``inputs`` are the input-file flags given, under their dests, in the parser's order."""

    @pytest.fixture(scope="class")
    def files(self, pipeline):
        d = pipeline / "data"
        return {
            "gen": _write_json(pipeline / "inputs_gen.json", {"n_instances": 300}),
            "forest": _write_json(pipeline / "inputs_forest.json", {"n_trees": 1}),
            "train_cfg": _write_json(pipeline / "inputs_train.json", {"epochs": 1, "architecture": TINY_ARCH}),
            "teachers": pipeline / "teachers" / "teachers.json", "blackbox": pipeline / "bb" / "blackbox.json",
            "model": pipeline / "model" / "model.json",
            **{name: d / f"{name}.csv" for name in ("train", "valid", "test", "golden_train", "golden_valid",
                                                    "golden_test", "train_labeled", "valid_labeled", "test_labeled")},
        }

    # the command, its other flags, its input flags in an order unlike the parser's, and the inputs in the parser's
    CASES = {
        "gen-data": ("gen-data", ("--golden", "0,0,0"), ("--config", "gen"), {"config": "gen"}),
        "gen-data-builtin": ("gen-data", ("--golden", "0,0,0", "--n", "300"), (), {}),
        "train-blackbox": ("train-blackbox", ("--epochs", "1"), ("--valid", "valid", "--train", "train"),
                           {"train": "train", "valid": "valid"}),
        "teach": ("teach", (), ("--config", "forest", "--golden-valid", "golden_valid", "--golden-train", "golden_train"),
                  {"golden_train": "golden_train", "golden_valid": "golden_valid", "config": "forest"}),
        "label": ("label", (), ("--blackbox", "blackbox", "--teachers", "teachers", "--input", "test"),
                  {"input": "test", "teachers": "teachers", "blackbox": "blackbox"}),
        "distill": ("distill", (), ("--config", "train_cfg", "--valid", "valid_labeled", "--train", "train_labeled"),
                    {"train": "train_labeled", "valid": "valid_labeled", "config": "train_cfg"}),
        "evaluate": ("evaluate", (), ("--golden", "golden_test", "--test", "test_labeled", "--model", "model"),
                     {"model": "model", "test": "test_labeled", "golden": "golden_test"}),
        "evaluate-data": ("evaluate", (), ("--data", "golden_test"), {"data": "golden_test"}),
        "explain": ("explain", (), ("--input", "golden_test", "--model", "model"),
                    {"model": "model", "input": "golden_test"}),
        "sweep": ("sweep", ("--mode", "lambda", "--lambda-grid", "0.5", "--repeats", "1"),
                  ("--config", "train_cfg", "--golden-test", "golden_test", "--test", "test_labeled",
                   "--valid", "valid_labeled", "--train", "train_labeled"),
                  {"train": "train_labeled", "valid": "valid_labeled", "test": "test_labeled",
                   "golden_test": "golden_test", "config": "train_cfg"}),
    }

    @pytest.mark.parametrize("command, flags, given, expected", CASES.values(), ids=CASES)
    def test_inputs_are_exactly_the_input_flags_given(self, files, tmp_path, command, flags, given, expected):
        given = [a if a.startswith("--") else str(files[a]) for a in given]
        target = tmp_path / "out.file" if command in ("label", "evaluate", "explain") else tmp_path
        assert run(command, *flags, *given, "--out", str(target)) == 0
        manifest = json.loads((tmp_path / f"manifest_{command}.json").read_text())
        assert list(manifest["inputs"].items()) == [(k, str(files[v])) for k, v in expected.items()]


# every flag of each command, in the order the parser declares them
FLAGS = {
    "gen-data": ("--seed", "--out", "--config", "--n", "--split", "--split-mode", "--golden"),
    "train-blackbox": ("--seed", "--out", "--train", "--valid", "--hidden", "--learning-rate", "--epochs",
                       "--batch-size", "--patience"),
    "teach": ("--seed", "--out", "--golden-train", "--golden-valid", "--config", "--tune"),
    "label": ("--seed", "--out", "--input", "--teachers", "--blackbox", "--score-file", "--uncertainty-fraction"),
    "distill": ("--seed", "--out", "--variant", "--train", "--valid", "--config", "--lambda", "--epochs",
                "--learning-rate", "--batch-size"),
    "evaluate": ("--seed", "--out", "--model", "--test", "--golden", "--data", "--recall-fpr"),
    "explain": ("--seed", "--out", "--model", "--input"),
    "sweep": ("--seed", "--out", "--mode", "--train", "--valid", "--test", "--golden-test", "--trials",
              "--lambda-grid", "--repeats", "--epochs", "--jobs", "--config"),
    "desk": ("--seed", "--out", "--n", "--epochs", "--lambda"),
    "desk-sweep": ("--seed", "--out", "--n", "--lambda-grid", "--repeats", "--epochs", "--jobs"),
}


class TestHelp:
    @pytest.mark.parametrize("command", FLAGS)
    def test_help_exits_0_naming_every_flag(self, capsys, command):
        with pytest.raises(SystemExit) as done:
            run(command, "--help")
        assert done.value.code == 0
        named = re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)
        assert set(named) == {"--help", *FLAGS[command]}

    def test_the_commands_are_the_ten(self, capsys):
        with pytest.raises(SystemExit) as done:
            run("--help")
        assert done.value.code == 0
        assert "{" + ",".join(FLAGS) + "}" in capsys.readouterr().out


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

    def test_teach_manifest_records_every_input_file(self, pipeline):
        manifest = json.loads((pipeline / "teachers" / "manifest_teach.json").read_text())
        d = pipeline / "data"
        assert manifest["inputs"] == {
            "golden_train": str(d / "golden_train.csv"), "golden_valid": str(d / "golden_valid.csv"),
            "config": str(pipeline / "forest.json"),
        }

    def test_teach_tunes_on_a_one_feature_golden_set(self, tmp_path):
        cfg = _write_json(tmp_path / "gen.json", {
            "d_features": 1, "teacher_feature_count": 0, "fraud_weights": [1.0],
            "concepts": [{"name": "c", "feature_indices": [0], "weights": [1.0], "prevalence": 0.3}],
        })
        d = tmp_path / "data"
        assert run("gen-data", "--config", str(cfg), "--n", "400", "--golden", "100,60,10", "--out", str(d)) == 0
        out = tmp_path / "tuned"
        assert run("teach", "--golden-train", str(d / "golden_train.csv"), "--golden-valid", str(d / "golden_valid.csv"),
                   "--out", str(out), "--tune", "1") == 0
        assert json.loads((out / "manifest_teach.json").read_text())["config"]["feature_subsample"] == 1

    def test_label_with_score_file(self, pipeline, tmp_path):
        d = pipeline / "data"
        ds = data.load_csv(d / "test.csv")
        score_path = tmp_path / "scores.csv"
        scores = np.linspace(0.0, 1.0, ds.n)
        data.save_csv(ds.with_scores(scores), score_path)
        out = tmp_path / "scored.csv"
        assert run("label", "--input", str(d / "test.csv"), "--out", str(out),
                   "--score-file", str(score_path)) == 0
        np.testing.assert_array_equal(data.load_csv(out).bb_scores, scores)

    def test_label_with_score_file_and_uncertainty_fraction(self, pipeline, tmp_path):
        d = pipeline / "data"
        ds = data.load_csv(d / "test.csv")
        score_path = tmp_path / "scores.csv"
        scores = np.linspace(0.0, 1.0, ds.n)
        data.save_csv(ds.with_scores(scores), score_path)
        out = tmp_path / "uncertain.csv"
        assert run("label", "--input", str(d / "test.csv"), "--out", str(out),
                   "--score-file", str(score_path), "--uncertainty-fraction", "0.2") == 0
        n_sel = int(np.ceil(0.2 * ds.n))
        keep = np.sort(np.lexsort((ds.ids, np.abs(scores - 0.5)))[:n_sel])
        subset = data.load_csv(out)
        assert subset.ids.tolist() == ds.ids[keep].tolist()
        np.testing.assert_array_equal(subset.bb_scores, scores[keep])

    def test_an_id_score_file_exits_2_naming_the_file_and_the_column(self, pipeline, tmp_path, capsys):
        score_path = tmp_path / "scores.csv"
        score_path.write_text("id,score\n000000,0.5\n")
        assert run("label", "--input", str(pipeline / "data" / "test.csv"), "--out", str(tmp_path / "o.csv"),
                   "--score-file", str(score_path)) == 2
        assert capsys.readouterr().err == f"error: {score_path}: unrecognized column 'score'\n"

    def test_a_blackbox_labelled_csv_is_a_score_file(self, pipeline, tmp_path):
        d = pipeline / "data"
        scored, replayed = tmp_path / "scored.csv", tmp_path / "replayed.csv"
        assert run("label", "--input", str(d / "test.csv"), "--out", str(scored),
                   "--blackbox", str(pipeline / "bb" / "blackbox.json")) == 0
        assert run("label", "--input", str(d / "test.csv"), "--out", str(replayed), "--score-file", str(scored)) == 0
        assert replayed.read_bytes() == scored.read_bytes()  # the same scores, bit for bit

    def test_uncertainty_fraction_without_a_score_source_is_usage_error(self, pipeline, tmp_path, capsys):
        d = pipeline / "data"
        assert run("label", "--input", str(d / "test_labeled.csv"), "--out", str(tmp_path / "u.csv"),
                   "--teachers", str(pipeline / "teachers" / "teachers.json"), "--uncertainty-fraction", "0.2") == 1
        assert "--uncertainty-fraction requires a score source" in capsys.readouterr().err


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
        assert first["inputs"] == {"train": sets[1], "valid": sets[3], "config": str(cfg)}
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
        ("distill", {"lamda": 0.5}, "key lamda is unknown"),
        ("distill", {"architecture": {"dropuot": 0.1}}, "key architecture.dropuot is unknown"),
        ("distill", {"optimizer": {"lr": 0.1}}, "key optimizer.lr is unknown"),
        ("distill", [0.5], "expected a JSON object"),
        ("teach", {"bootstrap": "false"}, "bootstrap is a str, not a boolean"),
        ("teach", "n_trees", "expected a JSON object"),
        ("gen-data", {"n_instance": 10}, "key n_instance is unknown"),
        ("sweep", {"lambda": 0.5}, "key lambda is drawn by sweep --mode search"),
        ("sweep", {"learning_rate": 0.01}, "key learning_rate is drawn"),
        ("sweep", {"optimizer": {"l2_penalty": 0.01}}, "key optimizer.l2_penalty is drawn"),
        ("sweep", {"architecture": TINY_ARCH}, "key architecture is drawn"),
        ("sweep --mode lambda", {"lambda": 0.5}, "key lambda is set by sweep --lambda-grid"),
        ("teach", {"feature_subsample": 0}, "feature_subsample"),
        ("gen-data", {"noise_level": float("nan")}, "noise_level must be finite"),
        ("distill", {"learning_rate": float("inf")}, "learning_rate must be finite"),
        ("gen-data", {"concepts": [{"name": "empty", "feature_indices": [], "weights": [], "prevalence": 0.2}],
                      "fraud_weights": [1.0]}, "concepts[0].feature_indices must be non-empty"),
        ("gen-data", {"concepts": [{"name": "neg", "feature_indices": [-1], "weights": [1.0], "prevalence": 0.2}],
                      "fraud_weights": [1.0]}, "concepts[0].feature_indices must be all >= 0"),
        ("gen-data", {"noise_level": -1.0}, "noise_level must be >= 0"),
        ("distill", {"optimizer": {"adam_beta1": 1.0}}, "optimizer.adam_beta1 must be in [0, 1)"),
        ("distill", {"lambda": 2}, "lambda must be in [0, 1]"),
        ("distill", {"patience": 0}, "patience must be >= 1"),
        ("teach", {"seed": -1}, "seed must be >= 0"),
        ("distill", {"architecture": {"dropout": 1.0}}, "architecture.dropout must be in [0, 1)"),
        ("distill", {"architecture": {"trunk_widths": [0]}}, "architecture.trunk_widths must be all >= 1"),
        ("gen-data", {"concepts": [{"name": "p", "feature_indices": [0], "weights": [1.0], "prevalence": 1.5}],
                      "fraud_weights": [1.0]}, "concepts[0].prevalence must be in (0, 1)"),
        ("gen-data", {"concepts": [], "fraud_weights": []}, "concepts must be non-empty"),
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
        assert f"{cfg}: {needle}" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--learning-rate", "nan", "error: learning_rate must be finite, got nan"),
        ("--lambda", "2", "error: lambda must be in [0, 1], got 2.0"),  # the file key, not the field lam
    ], ids=["learning-rate-nan", "lambda-2"])
    def test_bad_training_flag_exits_2_naming_the_key(self, tmp_path, capsys, flag, value, message):
        none = str(tmp_path / "none.csv")  # the flags are checked before any data is read
        assert run("distill", "--train", none, "--valid", none, flag, value, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(message)

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
    # the command line reading the file ``{path}`` names, through each of the three readers
    READERS = {
        "load_csv": (("evaluate", "--data", "{path}"), b"id,f_0\n0,\xff\n"),
        "load_json": (("teach", "--golden-train", "{csv}", "--config", "{path}"), b'{"n_trees": "\xff"}'),
        "load_score_file": (("label", "--input", "{csv}", "--score-file", "{path}"), b"id,bb_score\n0,\xff\n"),
    }

    @pytest.mark.parametrize("form", ["not-utf8", "directory"])
    @pytest.mark.parametrize("argv, content", READERS.values(), ids=READERS)
    def test_unreadable_input_exits_2_naming_the_file(self, tmp_path, capsys, argv, content, form):
        path, csv_path = tmp_path / "input", tmp_path / "x.csv"
        csv_path.write_text("id,f_0\n0,1.0\n")
        if form == "directory":
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = [a.format(path=path, csv=csv_path) for a in argv]
        assert run(*argv, "--out", str(tmp_path / "out" / "o.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_config_integer_over_the_digit_limit_exits_2_naming_the_file(self, tmp_path, capsys):
        path, csv_path = tmp_path / "big.json", tmp_path / "x.csv"
        csv_path.write_text("id,f_0\n0,1.0\n")
        path.write_text('{"n_trees": ' + "9" * 5000 + "}")
        assert run("teach", "--golden-train", str(csv_path), "--config", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: holds an integer too long to read") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

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
        assert f"{broken}: attention is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("explain", "--model", "{model}"), "--input"),
        (("label", "--blackbox", "{blackbox}"), "--input"),
        (("evaluate", "--model", "{model}"), "--test"),
        (("evaluate", "--model", "{model}"), "--golden"),
    ], ids=["explain", "label", "evaluate-test", "evaluate-golden"])
    def test_csv_of_the_wrong_width_exits_2_naming_its_flag_and_file(self, pipeline, tmp_path, capsys, argv, flag):
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("id,f_0,f_1\nr0,0.1,0.2\n")
        paths = {"model": pipeline / "model" / "model.json", "blackbox": pipeline / "bb" / "blackbox.json"}
        out = tmp_path / "out" / "o.txt"
        assert run(*(a.format(**paths) for a in argv), flag, str(narrow), "--out", str(out)) == 2
        assert f"error: {flag} {narrow}: input has 2 columns, network expects 16" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_key_error_inside_a_command_propagates(self, monkeypatch):
        def broken(args):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "cmd_explain", broken)
        with pytest.raises(KeyError, match="bug"):
            run("explain", "--model", "m.json", "--input", "x.csv", "--out", "o.jsonl")

    def test_model_without_heads_is_data_error_naming_the_file(self, pipeline, tmp_path, capsys):
        doc = json.loads((pipeline / "model" / "model.json").read_text())
        doc["heads"], doc["concept_names"] = [], []
        broken = _write_json(tmp_path / "model.json", doc)
        assert run("explain", "--model", str(broken), "--input", str(pipeline / "data" / "golden_test.csv"),
                   "--out", str(tmp_path / "o.jsonl")) == 2
        assert f"{broken}: no networks to stack" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()


def _reversed_concepts(src, dst):
    """``src`` saved to ``dst`` with its hard concept columns, and their names, in reverse order."""
    ds = data.load_csv(src)
    data.save_csv(replace(ds, concept_names=ds.concept_names[::-1], golden=ds.golden[:, ::-1]), dst)
    return ds.concept_names


class TestConceptOrder:
    """A set whose concept columns name other concepts, or the same in another order, exits 2 naming both."""

    @staticmethod
    def assert_names_both(capsys, names):
        err = capsys.readouterr().err
        assert f"{names[::-1]} do not match {names}" in err

    def test_evaluate_rejects_reordered_golden_concepts(self, pipeline, tmp_path, capsys):
        names = _reversed_concepts(pipeline / "data" / "golden_test.csv", tmp_path / "golden.csv")
        assert run("evaluate", "--model", str(pipeline / "model" / "model.json"), "--golden", str(tmp_path / "golden.csv"),
                   "--out", str(tmp_path / "r.json")) == 2
        self.assert_names_both(capsys, names)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("tune", ["0", "1"])
    def test_teach_rejects_reordered_golden_valid_before_fitting(self, pipeline, tmp_path, capsys, monkeypatch, tune):
        def no_fit(*args):
            raise AssertionError("fitted before checking --golden-valid")

        monkeypatch.setattr(teachers, "fit_teachers", no_fit)
        monkeypatch.setattr(teachers, "tune_teachers", no_fit)
        d = pipeline / "data"
        names = _reversed_concepts(d / "golden_valid.csv", tmp_path / "golden_valid.csv")
        assert run("teach", "--golden-train", str(d / "golden_train.csv"), "--golden-valid",
                   str(tmp_path / "golden_valid.csv"), "--tune", tune, "--out", str(tmp_path / "t")) == 2
        self.assert_names_both(capsys, names)
        assert not (tmp_path / "t" / "teachers.json").exists()
        ds = data.load_csv(d / "golden_valid.csv")
        data.save_csv(replace(ds, concept_names=(), golden=None), tmp_path / "no_concepts.csv")
        assert run("teach", "--golden-train", str(d / "golden_train.csv"), "--golden-valid",
                   str(tmp_path / "no_concepts.csv"), "--tune", tune, "--out", str(tmp_path / "t")) == 2
        assert f"--golden-valid {tmp_path / 'no_concepts.csv'}: golden set must carry hard concept labels" in \
            capsys.readouterr().err
        assert not (tmp_path / "t" / "teachers.json").exists()

    def test_label_rejects_reordered_hard_columns(self, pipeline, tmp_path, capsys):
        names = _reversed_concepts(pipeline / "data" / "golden_test.csv", tmp_path / "golden.csv")
        assert run("label", "--input", str(tmp_path / "golden.csv"), "--out", str(tmp_path / "l.csv"),
                   "--teachers", str(pipeline / "teachers" / "teachers.json")) == 2
        self.assert_names_both(capsys, names)
        assert not (tmp_path / "l.csv").exists()


class TestTeacherInputNamed:
    """A DataError from labelling or evaluating with the teachers names the input flag and its file."""

    @staticmethod
    def without_teacher_columns(src, dst):
        ds = data.load_csv(src)
        data.save_csv(replace(ds, teacher_feature_names=(), teacher_x=None), dst)
        return dst

    def test_label_names_the_input_whose_columns_do_not_match(self, pipeline, tmp_path, capsys):
        path = self.without_teacher_columns(pipeline / "data" / "test.csv", tmp_path / "test.csv")
        assert run("label", "--input", str(path), "--out", str(tmp_path / "l.csv"),
                   "--teachers", str(pipeline / "teachers" / "teachers.json")) == 2
        assert f"--input {path}: dataset feature schema does not match the teachers: " in capsys.readouterr().err
        assert not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize("tune", ["0", "1"])
    def test_teach_names_a_golden_valid_whose_columns_do_not_match_before_fitting(self, pipeline, tmp_path, capsys,
                                                                                   monkeypatch, tune):
        def no_fit(*args):
            raise AssertionError("fitted before checking --golden-valid")

        monkeypatch.setattr(teachers, "fit_teachers", no_fit)
        monkeypatch.setattr(teachers, "tune_teachers", no_fit)
        d = pipeline / "data"
        path = self.without_teacher_columns(d / "golden_valid.csv", tmp_path / "golden_valid.csv")
        assert run("teach", "--golden-train", str(d / "golden_train.csv"), "--golden-valid", str(path),
                   "--tune", tune, "--out", str(tmp_path / "t")) == 2
        assert f"--golden-valid {path}: dataset feature schema does not match the teachers: " in capsys.readouterr().err

    @pytest.mark.parametrize("tune", [[], ["--tune", "1"]], ids=["fit", "tune"])
    def test_teach_names_the_golden_valid_it_cannot_evaluate_on_before_fitting(self, pipeline, tmp_path, capsys,
                                                                               monkeypatch, tune):
        def no_fit(*args):
            raise AssertionError("fitted before checking --golden-valid")

        monkeypatch.setattr(teachers, "fit_forest", no_fit)
        d = pipeline / "data"
        ds = data.load_csv(d / "golden_valid.csv")
        golden = ds.golden.copy()
        golden[:, 0] = 0
        path = tmp_path / "golden_valid.csv"
        data.save_csv(replace(ds, golden=golden), path)
        assert run("teach", "--golden-train", str(d / "golden_train.csv"), "--golden-valid", str(path),
                   *tune, "--out", str(tmp_path / "t")) == 2
        assert f"--golden-valid {path}: AUC undefined for concept {ds.concept_names[0]!r}: " in capsys.readouterr().err
        assert not (tmp_path / "t" / "teachers.json").exists()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestDesk:
    """The desk experiments at toy size: the tables of the library pipeline, the seed rule and the exit rule."""

    @pytest.fixture(autouse=True)
    def no_env_seed(self, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)

    def test_desk_writes_the_run_desk_table(self, tmp_path):
        assert run("desk", "--out", str(tmp_path), "--n", "3000", "--seed", "1", "--epochs", "1") == 0
        rows = _read_csv(tmp_path / "variant_table.csv")
        assert rows[0] == ["seed", "variant", "fidelity", "mean_golden_auc"]
        expected = [["1", variant, "" if fid is None else f"{fid:.6f}", f"{auc:.6f}"]
                    for variant, (fid, auc) in cli.pipeline.run_desk(1, 3000, 1, 0.5).items()]
        assert rows[1:] == expected
        assert [r[1] for r in rows[1:]] == ["teachers", *training.VARIANTS]

    def test_desk_sweep_writes_the_desk_data_sweep(self, tmp_path):
        assert run("desk-sweep", "--out", str(tmp_path / "cli"), "--n", "3000", "--lambda-grid", "0,1",
                   "--repeats", "1", "--epochs", "1") == 0
        bundle, _ = cli.pipeline.desk_data(7, 3000, (1500, 150, 400), (0.7, 0.1, 0.2))
        base = training.TrainConfig(epochs=1, early_stop_patience=6)
        hpo.lambda_sweep([0.0, 1.0], 1, bundle, base=base, master_seed=7).to_csv(tmp_path / "library.csv")
        rows = _read_csv(tmp_path / "cli" / "sweep.csv")
        assert rows[0] == ["trial_id", "lambda", "trunk_widths", "head_widths", "attention_widths", "learning_rate",
                           "dropout", "l2", "batchnorm", "fidelity", "mean_auc", "on_frontier", "status"]
        assert rows == _read_csv(tmp_path / "library.csv")
        assert [(r[1], r[-1]) for r in rows[1:]] == [("0.0", "completed"), ("1.0", "completed")]
        assert (tmp_path / "cli" / "sweep_summary.json").exists()

    @pytest.mark.parametrize("command, argv, message", [
        ("desk", ["--n", "3000", "--seed", "101", "--epochs", "5"],
         "error: golden-test set of 51 rows: AUC undefined for concept 'high_speed_ordering'"),
        ("desk-sweep", ["--n", "100"], "error: requested 2050 golden rows but only 100 are available"),
    ])
    def test_data_error_exits_2_with_its_message_and_no_output(self, tmp_path, capsys, command, argv, message):
        out = tmp_path / "out"
        assert run(command, "--out", str(out), *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert not out.exists()  # no table, and no directory, of a run that did not finish

    @pytest.mark.parametrize("command, argv, message", [
        ("desk", ["--epochs", "0"], "error: epochs must be >= 1, got 0"),
        ("desk", ["--lambda", "2"], "error: lambda must be in [0, 1], got 2.0"),
        ("desk-sweep", ["--epochs", "0"], "error: epochs must be >= 1, got 0"),
        ("desk-sweep", ["--repeats", "0"], "error: n_repeats must be >= 1"),
        ("desk-sweep", ["--lambda-grid", "0.5,1.5"], "error: lambda must be in [0, 1], got 1.5"),
        ("desk-sweep", ["--lambda-grid", ""], "error: the lambda grid is empty"),
    ], ids=["desk-epochs", "desk-lambda", "desk-sweep-epochs", "desk-sweep-repeats", "desk-sweep-lambda-grid",
            "desk-sweep-empty-grid"])
    def test_bad_training_value_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch, command, argv, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("desk_data called")

        monkeypatch.setattr(cli.pipeline, "desk_data", no_fit)
        out = tmp_path / "out"
        assert run(command, "--out", str(out), *argv) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "env", "default"])
    @pytest.mark.parametrize("command, argv, default, config", [
        ("desk", ("--n", "4000", "--epochs", "1"), 101, {"n": 4000, "epochs": 1, "lambda": 0.5}),
        ("desk-sweep", ("--n", "3000", "--lambda-grid", "0", "--repeats", "1", "--epochs", "1"), 7,
         {"n": 3000, "lambda_grid": [0.0], "repeats": 1, "epochs": 1, "jobs": 1}),
    ])
    def test_manifest_seed_is_the_flag_then_the_variable_then_the_default(self, tmp_path, monkeypatch, command,
                                                                          argv, default, config, source):
        if source != "default":
            monkeypatch.setenv(cli.SEED_ENV_VAR, "5")
        flag = ["--seed", "4"] if source == "flag" else []
        assert run(command, "--out", str(tmp_path), *argv, *flag) == 0
        manifest = json.loads((tmp_path / f"manifest_{command}.json").read_text())
        assert manifest["seed"] == {"flag": 4, "env": 5, "default": default}[source]
        assert manifest["config"] == config
        if command == "desk":  # the table's seed column is the seed the run used
            assert {r[0] for r in _read_csv(tmp_path / "variant_table.csv")[1:]} == {str(manifest["seed"])}
