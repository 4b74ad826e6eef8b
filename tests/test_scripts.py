"""The experiment scripts run end to end at toy size and write their CSVs."""

import csv
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, out, *argv):
    subprocess.run([sys.executable, str(SCRIPTS / name), "--out", str(out), *argv],
                   check=True, capture_output=True, text=True, timeout=600)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("script, argv, csv_name, header, n_rows", [
    ("run_pipeline.py", ("--n", "3000", "--seeds", "1", "--epochs", "1"), "variant_table.csv",
     ["seed", "variant", "fidelity", "mean_golden_auc"], 6),  # teachers + five variants
    ("run_lambda_sweep.py", ("--n", "3000", "--grid", "0", "1", "--repeats", "1", "--epochs", "1"), "sweep.csv",
     ["trial_id", "lambda", "trunk_widths", "head_widths", "attention_widths", "learning_rate", "dropout", "l2",
      "batchnorm", "fidelity", "mean_auc", "on_frontier", "status"], 2),
])
def test_script_writes_its_table(tmp_path, script, argv, csv_name, header, n_rows):
    run_script(script, tmp_path, *argv)
    rows = read_csv(tmp_path / csv_name)
    assert rows[0] == header
    assert len(rows) == 1 + n_rows
