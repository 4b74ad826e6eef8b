#!/usr/bin/env python3
"""Trade-off study: sweep the loss-blend weight over a grid, several seeds
per point, and report (fidelity, mean concept AUC) with Pareto flags.

The sweep CSV is plot-ready: scatter fidelity vs mean AUC, size points by
on_frontier, colour by lambda.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conceptdistil import cli, hpo, pipeline, training


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default="runs/lambda_sweep")
    p.add_argument("--n", type=int, default=12_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--grid", type=float, nargs="+", default=[round(0.1 * i, 1) for i in range(11)])
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--jobs", type=int, default=1)
    return p.parse_args()


def main():
    args = parse_args()
    bundle, _ = pipeline.desk_data(args.seed, args.n, (1500, 150, 400), (0.7, 0.1, 0.2))
    base = training.TrainConfig(epochs=args.epochs, early_stop_patience=6)
    report = hpo.lambda_sweep(args.grid, args.repeats, bundle, base=base,
                              master_seed=args.seed, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "sweep.csv")
    report.save_summary(out / "sweep_summary.json")
    for t, flag in zip(report.trials, report.on_frontier):
        marker = "*" if flag else " "
        print(f"{marker} lambda {t.lam:.1f} seed {t.seed} fidelity {t.fidelity:.4f} mean AUC {t.mean_auc:.4f}")
    print(f"\nwrote {out / 'sweep.csv'}")


if __name__ == "__main__":
    sys.exit(cli.exit_status(main))
