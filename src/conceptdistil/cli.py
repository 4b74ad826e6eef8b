"""Command-line pipeline: generate data, train the built-in black box,
teach and apply concept labels, distill, evaluate, explain, sweep; and
the desk experiments: the five-variant table and the lambda sweep.

Every command validates its inputs, writes its outputs only to the
declared paths and drops a manifest (resolved configuration, input and
output paths, seed, wall clock) next to them. Exit codes: 0 success,
1 usage error, 2 data/contract error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, blackbox, data, hpo, metrics, model, pipeline, schema, teachers, training
from .errors import ConceptDistilError, DataError, UsageError

SEED_ENV_VAR = "CONCEPTDISTIL_SEED"


@dataclass(frozen=True)
class TrainingFile(training.TrainConfig):
    """A ``distill``/``sweep`` config file: TrainConfig plus the build_architecture options."""

    architecture: model.ArchitectureOptions = field(default_factory=model.ArchitectureOptions)


# training-file keys that differ from the field names
TRAIN_NAMES = {"lam": "lambda", "early_stop_patience": "patience", "dropout_p": "dropout", "use_batchnorm": "batchnorm"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunSeed(schema.Checked):
    """The seed of a command that reads no config, held to the rule of every config's ``seed``."""

    seed: int = schema.bounded(0, schema.ge(0))


class InputFile(str):
    """The argparse type of a flag naming a file the command reads; main lists each one given in the manifest."""


def _comma_list(flag: str, cast=float, three: str = ""):
    """The argparse type of ``flag``'s comma-separated values, each read by ``cast`` (int or float). A flag that
    takes exactly three values gives ``three``: what they are, with an example."""
    def parse(raw: str) -> tuple:
        try:  # an empty value is the empty list; an empty item is unreadable
            values = tuple(map(cast, raw.split(","))) if raw.strip() else ()
        except ValueError:
            kind = "integers" if cast is int else "numbers"
            raise UsageError(f"{flag} expects comma-separated {kind}, got {raw!r}") from None
        if three and len(values) != 3:
            raise UsageError(f"{flag} expects three {three}")
        return values
    return parse


def _config(cls, args, defaults=None, names=None, reject=None):
    """``--config`` laid over ``defaults`` (file keys) and read as ``cls``, then every given flag whose dest
    is a field of ``cls`` laid over that."""
    path = getattr(args, "config", None)
    doc = {**(defaults or {}), **(schema.load_json(path) if path else {})}
    cfg = schema.read(cls, doc, path or "defaults", names, reject)
    return replace(cfg, **{f.name: v for f in fields(cls) if (v := getattr(args, f.name, None)) is not None})


def _write_manifest(command: str, started: float, inputs: dict, out_dir: Path, config: dict, outputs: dict,
                    seed: int, result: dict | None = None):
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        **({"result": result} if result else {}),
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "wall_clock_s": round(time.time() - started, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    path = out_dir / f"manifest_{command}.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _load_disjoint(args, *dests) -> list:
    """The datasets of the input-file flags ``dests`` (None for one not given); two that share an instance id
    are a data error naming both flags, the overlap count and the first shared id."""
    sets = {f"--{dest.replace('_', '-')}": data.load_csv(path) if (path := getattr(args, dest)) else None
            for dest in dests}
    given = [(flag, ds) for flag, ds in sets.items() if ds is not None]
    for i, (flag_a, a) in enumerate(given):
        for flag_b, b in given[i + 1:]:
            shared = a.ids[np.isin(a.ids, b.ids)]
            if shared.size:
                raise DataError(f"{flag_a} and {flag_b} share {shared.size} instance ids, first {shared[0]!r}")
    return list(sets.values())


@contextmanager
def _naming(flag, path):
    """A DataError raised inside, prefixed with the input-file flag and its path."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{flag} {path}: {exc}") from None


def _out(raw, file: bool = False) -> Path:
    """``--out`` ready to write: the directory it names made, or for a ``file`` the directory holding it. A file
    in the way of either, or a directory where the file goes, is a usage error naming ``--out``."""
    out = Path(raw)
    if file and out.is_dir():
        raise UsageError(f"--out {raw} is a directory, not a file")
    directory = out.parent if file else out
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        blocker = next(p for p in (directory, *directory.parents) if p.exists())
        raise UsageError(f"--out {raw}: {blocker} is a file, not a directory") from None
    return out


# -- commands -----------------------------------------------------------------
# Each returns (out_dir, config, outputs, seed[, result]): the manifest that main writes once it succeeds, with
# the input files given.

def cmd_gen_data(args):
    cfg = _config(data.GeneratorConfig, args)
    full = data.generate_synthetic(cfg)
    golden, splits = data.carve(full, args.golden, args.split, mode=args.split_mode, seed=cfg.seed)
    sets = {"full": full, **dict(zip(("golden_train", "golden_valid", "golden_test"), golden or ())),
            **dict(zip(("train", "valid", "test"), splits))}
    out = _out(args.out)
    outputs = {name: out / f"{name}.csv" for name in sets}
    for name, ds in sets.items():
        data.save_csv(ds, outputs[name])
    return out, schema.write(cfg), outputs, cfg.seed


def cmd_train_blackbox(args):
    cfg = _config(blackbox.BlackBoxConfig, args)
    train_set, valid_set = _load_disjoint(args, "train", "valid")
    adapter = blackbox.train_ffnn_blackbox(train_set, valid_set, **asdict(cfg))
    out = _out(args.out)
    outputs = {"model": out / "blackbox.json"}
    blackbox.save_blackbox(adapter, outputs["model"])
    return out, schema.write(cfg), outputs, cfg.seed


def cmd_teach(args):
    if args.tune < 0:
        raise DataError(f"tune must be >= 0, got {args.tune}")
    if args.tune > 0 and args.config:
        raise UsageError("--tune draws the forest params; it cannot be combined with --config")
    if args.tune > 0 and not args.golden_valid:
        raise UsageError("--tune requires --golden-valid")
    params = _config(teachers.ForestParams, args)
    seed = params.seed  # tuning replaces params, seed included
    golden_train, golden_valid = _load_disjoint(args, "golden_train", "golden_valid")
    if golden_valid is not None:
        with _naming("--golden-valid", args.golden_valid):
            # the evaluation's checks before any fit, the labels as scores: hard labels, the concepts, both classes
            metrics.golden_auc(golden_valid.golden, golden_valid, golden_train.concept_names, "golden set")
            teachers.check_features(golden_valid, golden_train.feature_names + golden_train.teacher_feature_names)
    if args.tune > 0:
        teacher_set, params, best_auc = teachers.tune_teachers(golden_train, golden_valid, args.tune, seed)
        report = {"tuned_valid_mean_auc": best_auc}
    else:
        teacher_set = teachers.fit_teachers(golden_train, params)
        report = {}
        if golden_valid is not None:
            report["valid_mean_auc"] = teachers.evaluate_teachers(teacher_set, golden_valid)[1]
    out = _out(args.out)
    outputs = {"teachers": out / "teachers.json"}
    teachers.save_teachers(teacher_set, outputs["teachers"])
    if report:
        outputs["report"] = out / "teach_report.json"
        Path(outputs["report"]).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return out, schema.write(params), outputs, seed, {"tune": args.tune}


def cmd_label(args):
    seed = _config(RunSeed, args).seed
    if not (args.teachers or args.blackbox or args.score_file):
        raise UsageError("label needs at least one of --teachers, --blackbox, --score-file")
    if args.blackbox and args.score_file:
        raise UsageError("--blackbox and --score-file are mutually exclusive")
    if args.uncertainty_fraction is not None and not (args.blackbox or args.score_file):
        raise UsageError("--uncertainty-fraction requires a score source")
    dataset = data.load_csv(args.input)
    if args.teachers:
        teacher_set = teachers.load_teachers(args.teachers)
        with _naming("--input", args.input):
            soft = teachers.teach_labels(teacher_set, dataset)
        dataset = dataset.with_soft(soft, teacher_set.concept_names)
    if args.blackbox:
        dataset = dataset.with_scores(blackbox.load_blackbox(args.blackbox).score_batch(dataset.x))
    elif args.score_file:
        dataset = dataset.with_scores(blackbox.load_score_file(args.score_file, dataset))
    if args.uncertainty_fraction is not None:
        dataset = blackbox.uncertainty_sample(dataset, args.uncertainty_fraction)
    out_path = _out(args.out, file=True)
    data.save_csv(dataset, out_path)
    return out_path.parent, {"uncertainty_fraction": args.uncertainty_fraction}, {"labeled": out_path}, seed


def cmd_distill(args):
    cfg = _config(TrainingFile, args, names=TRAIN_NAMES)
    train_set, valid_set = _load_disjoint(args, "train", "valid")
    arch = model.build_architecture(train_set.d, train_set.k, **asdict(cfg.architecture))
    params = model.init_model(arch, train_set.concept_names, cfg.seed)
    result = training.train(params, train_set, valid_set, cfg)
    out = _out(args.out)
    outputs = {"model": out / "model.json", "history": out / "history.csv"}
    model.save_model(result.params, outputs["model"])
    training.history_to_csv(result.history, outputs["history"])
    return (out, schema.write(cfg, TRAIN_NAMES), outputs, cfg.seed,
            {"best_epoch": result.best_epoch, "stopped_early": result.stopped_early})


def cmd_evaluate(args):
    seed = _config(RunSeed, args).seed
    if args.model is None and args.data is None:
        raise UsageError("evaluate needs --model (with --test/--golden) or --data")
    if args.model is not None and args.data is not None:
        raise UsageError("--model and --data are mutually exclusive")
    if args.model is None and (args.test or args.golden):
        raise UsageError("--test and --golden require --model")
    if args.model is not None and not (args.test or args.golden):
        raise UsageError("evaluate with --model needs --test and/or --golden")
    if args.recall_fpr is not None and not args.test:
        raise UsageError("--recall-fpr requires --test")
    report = _prevalence_report(args.data) if args.model is None else _model_report(args)
    out_path = _out(args.out, file=True)
    out_path.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return out_path.parent, {} if args.model is None else {"recall_fpr": args.recall_fpr}, {"report": out_path}, seed


def _prevalence_report(path) -> dict:
    dataset = data.load_csv(path)
    if dataset.n == 0 or dataset.golden is None:
        raise DataError(f"--data file {path} has " + ("no rows" if dataset.n == 0 else "no hard concept labels"))
    report = {"n": dataset.n, "concept_prevalences": data.concept_prevalences(dataset)}
    if dataset.y is not None:
        report["positive_rate"] = float(dataset.y.mean())
    return report


def _model_report(args) -> dict:
    params = model.load_model(args.model)
    report = {"n_eval": 0, "fidelity": None, "mean_auc": None}
    recall = None
    if args.test:
        test_set = data.load_csv(args.test)
        pred = model.predict_scores(params, test_set.x)
        report["fidelity"] = metrics.score_fidelity(pred, test_set, "--test file")
        report["n_eval"] = test_set.n
        if args.recall_fpr is not None:
            if test_set.y is None:
                raise DataError("--recall-fpr needs task labels on the --test file")
            recall = {"fpr_level": args.recall_fpr, "recall": metrics.recall_at_fpr(pred, test_set.y, args.recall_fpr)}
    if args.golden:
        golden_set = data.load_csv(args.golden)
        probs = model.predict_concepts(params, golden_set.x)
        per, report["mean_auc"] = metrics.golden_auc(probs, golden_set, params.concept_names, "--golden file")
        report["n_eval"] = max(report["n_eval"], golden_set.n)
        report["per_concept_auc"] = dict(zip(params.concept_names, per.tolist()))
    if recall is not None:
        report["recall_at_fpr"] = recall
    return report


def cmd_explain(args):
    seed = _config(RunSeed, args).seed
    params = model.load_model(args.model)
    dataset = data.load_csv(args.input)
    explanations = model.explain(params, dataset.x, ids=dataset.ids)
    out_path = _out(args.out, file=True)
    model.explanations_to_jsonl(explanations, out_path)
    return out_path.parent, {}, {"explanations": out_path}, seed


SWEEP_DEFAULTS = {"epochs": 40, "patience": 6}  # sweep's own, under the config file
LAMBDA_GRID = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"
SWEEP_SETS = {  # training-file keys each mode draws or sets itself
    "search": {k: "is drawn by sweep --mode search" for k in ("lambda", "learning_rate", "optimizer.l2_penalty", "architecture")},
    "lambda": {"lambda": "is set by sweep --lambda-grid"},
}


def cmd_sweep(args):
    reject = SWEEP_SETS[args.mode]
    base = _config(TrainingFile, args, SWEEP_DEFAULTS, TRAIN_NAMES, reject)
    bundle = hpo.SweepData(*_load_disjoint(args, "train", "valid", "test", "golden_test"))
    if args.mode == "search":
        report = hpo.run_search(hpo.SearchSpace(), args.trials, bundle, base=base, master_seed=base.seed, jobs=args.jobs)
        cfg = {"mode": "search", "trials": args.trials}
    else:
        arch = model.build_architecture(bundle.train.d, bundle.train.k, **asdict(base.architecture))
        report = hpo.lambda_sweep(args.lambda_grid, args.repeats, bundle, arch=arch, base=base,
                                  master_seed=base.seed, jobs=args.jobs)
        cfg = {"mode": "lambda", "lambda_grid": args.lambda_grid, "repeats": args.repeats}
    cfg.update(jobs=args.jobs, **schema.write(base, TRAIN_NAMES, omit=reject))
    out, outputs = _write_sweep(report, args.out)
    return out, cfg, outputs, base.seed


def _write_sweep(report: hpo.SweepReport, raw_out) -> tuple[Path, dict]:
    out = _out(raw_out)
    outputs = {"csv": out / "sweep.csv", "summary": out / "sweep_summary.json"}
    report.to_csv(outputs["csv"])
    report.save_summary(outputs["summary"])
    return out, outputs


DESK_SEED, DESK_SWEEP_SEED = 101, 7  # the experiments' default seeds, under $CONCEPTDISTIL_SEED


def cmd_desk(args):
    seed = _config(RunSeed, args, {"seed": DESK_SEED}).seed
    table = pipeline.run_desk(seed, args.n, args.epochs, args.lam)  # before --out: a failed run leaves no table
    out = _out(args.out)
    path = out / "variant_table.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["seed", "variant", "fidelity", "mean_golden_auc"],
                                  *([seed, variant, "" if fid is None else f"{fid:.6f}", f"{auc:.6f}"]
                                    for variant, (fid, auc) in table.items())])
    return out, {"n": args.n, "epochs": args.epochs, "lambda": args.lam}, {"table": path}, seed


def cmd_desk_sweep(args):
    seed = _config(RunSeed, args, {"seed": DESK_SWEEP_SEED}).seed
    base = training.TrainConfig(epochs=args.epochs, early_stop_patience=6)  # checked before any fit
    bundle, _ = pipeline.desk_data(seed, args.n, (1500, 150, 400), (0.7, 0.1, 0.2))
    report = hpo.lambda_sweep(args.lambda_grid, args.repeats, bundle, base=base, master_seed=seed, jobs=args.jobs)
    cfg = {"n": args.n, "lambda_grid": args.lambda_grid, "repeats": args.repeats, "epochs": args.epochs,
           "jobs": args.jobs}
    out, outputs = _write_sweep(report, args.out)
    return out, cfg, outputs, seed


# -- parser -------------------------------------------------------------------
# A flag that sets a config field has the field's name as its dest; a flag naming a file the command reads has
# type InputFile.

def build_parser() -> _Parser:
    parser = _Parser(prog="conceptdistil", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, seed_default="the config file's seed, then 0"):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, help=f"run seed (falls back to ${SEED_ENV_VAR}, then {seed_default})")
        p.add_argument("--out", required=True)
        return p

    def add_list(p, flag, cast=float, three="", **kw):
        p.add_argument(flag, type=_comma_list(flag, cast, three), **kw)

    p = add("gen-data", cmd_gen_data, "generate a synthetic dataset with latent concepts")
    p.add_argument("--config", type=InputFile, help="generator config JSON")
    p.add_argument("--n", dest="n_instances", metavar="N", type=int, help="override n_instances")
    add_list(p, "--split", float, "fractions, e.g. 0.8,0.1,0.1", default="0.8,0.1,0.1",
             help="train,valid,test fractions")
    p.add_argument("--split-mode", choices=(data.SEQUENTIAL, data.RANDOM), default=data.SEQUENTIAL)
    add_list(p, "--golden", int, "sizes, e.g. 1934,203,506",
             default=f"{data.GOLDEN_TRAIN_DEFAULT},{data.GOLDEN_VALID_DEFAULT},{data.GOLDEN_TEST_DEFAULT}",
             help="golden train,valid,test sizes; 0,0,0 disables")

    p = add("train-blackbox", cmd_train_blackbox, "train the built-in feedforward classifier")
    p.add_argument("--train", type=InputFile, required=True)
    p.add_argument("--valid", type=InputFile, required=True)
    add_list(p, "--hidden", int, help="comma-separated hidden widths")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--patience", type=int)

    p = add("teach", cmd_teach, "fit per-concept random-forest teachers on golden labels")
    p.add_argument("--golden-train", type=InputFile, required=True)
    p.add_argument("--golden-valid", type=InputFile)
    p.add_argument("--config", type=InputFile, help="forest params JSON")
    p.add_argument("--tune", type=int, default=0, help="random-search trials (0 = defaults)")

    p = add("label", cmd_label, "attach soft concept labels and/or black-box scores")
    p.add_argument("--input", type=InputFile, required=True)
    p.add_argument("--teachers", type=InputFile)
    p.add_argument("--blackbox", type=InputFile)
    p.add_argument("--score-file", type=InputFile)
    p.add_argument("--uncertainty-fraction", type=float, help="keep only the most score-uncertain fraction of rows")

    p = add("distill", cmd_distill, "train the concept surrogate")
    p.add_argument("--variant", choices=training.VARIANTS)
    p.add_argument("--train", type=InputFile, required=True)
    p.add_argument("--valid", type=InputFile, required=True)
    p.add_argument("--config", type=InputFile, help="training config JSON")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)

    p = add("evaluate", cmd_evaluate, "evaluate a model or report dataset prevalences")
    p.add_argument("--model", type=InputFile)
    p.add_argument("--test", type=InputFile, help="scored set for fidelity")
    p.add_argument("--golden", type=InputFile, help="golden set for concept AUC")
    p.add_argument("--data", type=InputFile, help="prevalence report for a dataset")
    p.add_argument("--recall-fpr", type=float)

    p = add("explain", cmd_explain, "emit one explanation JSON object per input row")
    p.add_argument("--model", type=InputFile, required=True)
    p.add_argument("--input", type=InputFile, required=True)

    p = add("sweep", cmd_sweep, "random search or lambda sweep with trade-off report")
    p.add_argument("--mode", choices=("search", "lambda"), default="search")
    p.add_argument("--train", type=InputFile, required=True)
    p.add_argument("--valid", type=InputFile, required=True)
    p.add_argument("--test", type=InputFile, required=True)
    p.add_argument("--golden-test", type=InputFile, required=True)
    p.add_argument("--trials", type=int, default=20)
    add_list(p, "--lambda-grid", default=LAMBDA_GRID)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--epochs", type=int, help="default: the config's epochs, else 40")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--config", type=InputFile, help="training config JSON; keys the mode draws are rejected")

    p = add("desk", cmd_desk, "the five variants' fidelity and concept AUC on synthetic desk data",
            seed_default=DESK_SEED)
    p.add_argument("--n", type=int, default=pipeline.REFERENCE_N,
                   help=f"total rows incl. {sum(pipeline.REFERENCE_GOLDEN)} golden, scaled down below the default")
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)

    p = add("desk-sweep", cmd_desk_sweep, "lambda sweep with trade-off report on synthetic desk data",
            seed_default=DESK_SWEEP_SEED)
    p.add_argument("--n", type=int, default=12_000)
    add_list(p, "--lambda-grid", default=LAMBDA_GRID)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--jobs", type=int, default=1)

    return parser


def _run(args) -> None:
    """Resolve the seed once, run the command and write its manifest, whose inputs are the input files given."""
    started = time.time()
    if args.seed is None and (env := os.environ.get(SEED_ENV_VAR)) is not None:
        try:
            args.seed = int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    inputs = {k: v for k, v in vars(args).items() if isinstance(v, InputFile)}  # argparse sets dests in parser order
    _write_manifest(args.command, started, inputs, *args.func(args))


def exit_status(body) -> int:
    """Run ``body``: 0 when it returns; otherwise its error printed as ``error: <message>`` and the error's exit
    code (a library error's own, 2 for a missing or unreadable file, 3 for a numeric failure)."""
    try:
        body()
        return 0
    except ConceptDistilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return exit_status(lambda: _run(build_parser().parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
