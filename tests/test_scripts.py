"""The experiment scripts run end to end at toy size and write the tables of the library pipeline."""

import csv
import subprocess
import sys
from pathlib import Path

import pytest

from conceptdistil import hpo, pipeline, training

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, out, *argv):
    subprocess.run([sys.executable, str(SCRIPTS / name), "--out", str(out), *argv],
                   check=True, capture_output=True, text=True, timeout=600)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_run_pipeline_writes_the_run_desk_table(tmp_path):
    run_script("run_pipeline.py", tmp_path, "--n", "3000", "--seeds", "1", "--epochs", "1")
    rows = read_csv(tmp_path / "variant_table.csv")
    assert rows[0] == ["seed", "variant", "fidelity", "mean_golden_auc"]
    expected = [["1", variant, "" if fid is None else f"{fid:.6f}", f"{auc:.6f}"]
                for variant, (fid, auc) in pipeline.run_desk(1, 3000, 1, 0.5).items()]
    assert rows[1:] == expected
    assert [r[1] for r in rows[1:]] == ["teachers", *training.VARIANTS]


def test_run_lambda_sweep_writes_the_desk_data_sweep(tmp_path):
    run_script("run_lambda_sweep.py", tmp_path / "script", "--n", "3000", "--grid", "0", "1", "--repeats", "1",
               "--epochs", "1")
    bundle, _ = pipeline.desk_data(7, 3000, (1500, 150, 400), (0.7, 0.1, 0.2))
    base = training.TrainConfig(epochs=1, early_stop_patience=6)
    hpo.lambda_sweep([0.0, 1.0], 1, bundle, base=base, master_seed=7).to_csv(tmp_path / "library.csv")
    rows = read_csv(tmp_path / "script" / "sweep.csv")
    assert rows[0] == ["trial_id", "lambda", "trunk_widths", "head_widths", "attention_widths", "learning_rate",
                       "dropout", "l2", "batchnorm", "fidelity", "mean_auc", "on_frontier", "status"]
    assert rows == read_csv(tmp_path / "library.csv")
    assert [(r[1], r[-1]) for r in rows[1:]] == [("0.0", "completed"), ("1.0", "completed")]


@pytest.mark.parametrize("name, argv, message", [
    ("run_pipeline.py", ["--n", "3000", "--seeds", "101", "--epochs", "5"],
     "error: golden-test set of 51 rows: AUC undefined for concept 'high_speed_ordering'"),
    ("run_lambda_sweep.py", ["--n", "100"], "error: requested 2050 golden rows but only 100 are available"),
])
def test_data_error_exits_2_with_its_message_and_no_traceback(tmp_path, name, argv, message):
    done = subprocess.run([sys.executable, str(SCRIPTS / name), "--out", str(tmp_path), *argv],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 2
    assert done.stderr.startswith(message) and "Traceback" not in done.stderr
    assert not list(tmp_path.rglob("*.csv"))  # no table of a run that did not finish
