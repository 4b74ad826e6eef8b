#!/usr/bin/env python3
"""Full experiment: synthetic data -> black box -> teachers -> soft labels ->
five surrogate variants -> evaluation table.

Prints one row per variant and seed (fidelity on the scored test split,
mean concept AUC on the golden test set) plus the teachers' own AUC, and
writes everything to a CSV next to the run outputs.
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conceptdistil import cli, pipeline


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default="runs/pipeline")
    p.add_argument("--n", type=int, default=pipeline.REFERENCE_N,
                   help=f"total rows incl. {sum(pipeline.REFERENCE_GOLDEN)} golden")
    p.add_argument("--seeds", type=int, nargs="+", default=[101, 202, 303])
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    return p.parse_args()


def main():
    args = parse_args()
    rows = []  # the table is written once every seed's fits have returned, so a failed run leaves none
    for seed in args.seeds:
        for variant, (fid, auc) in pipeline.run_desk(seed, args.n, args.epochs, args.lam).items():
            rows.append([seed, variant, "" if fid is None else f"{fid:.6f}", f"{auc:.6f}"])
            print(f"seed {seed} {variant:18s} fidelity {rows[-1][2] or '-':8s}  mean AUC {rows[-1][3]}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "variant_table.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["seed", "variant", "fidelity", "mean_golden_auc"], *rows])
    print(f"\nwrote {path}")


if __name__ == "__main__":
    sys.exit(cli.exit_status(main))
