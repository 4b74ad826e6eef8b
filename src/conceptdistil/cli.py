"""Command-line pipeline: generate data, train the built-in black box,
teach and apply concept labels, distill, evaluate, explain, sweep.

Every command validates its inputs, writes its outputs only to the
declared paths and drops a manifest (resolved configuration, input and
output paths, seed, wall clock) next to them. Exit codes: 0 success,
1 usage error, 2 data/contract error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import __version__, blackbox, data, hpo, metrics, model, schema, teachers, training
from .errors import ConceptDistilError, DataError, UsageError

SEED_ENV_VAR = "CONCEPTDISTIL_SEED"


@dataclass(frozen=True)
class TrainingFile(training.TrainConfig):
    """A ``distill``/``sweep`` config file: TrainConfig plus the build_architecture options."""

    architecture: model.ArchitectureOptions = field(default_factory=model.ArchitectureOptions)


# training-file keys that differ from the field names, and keys a training file may not set
TRAIN_NAMES = {"lam": "lambda", "early_stop_patience": "patience", "dropout_p": "dropout", "use_batchnorm": "batchnorm"}
TRAIN_REJECT = {"optimizer.lr": "is not read: 'learning_rate' sets the rate"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunSeed(schema.Checked):
    """The seed of a command that reads no config, held to the rule of every config's ``seed``."""

    seed: int = schema.bounded(0, schema.ge(0))


def _resolve_seed(args, default: int = 0) -> int:
    """--seed, then $CONCEPTDISTIL_SEED, then ``default`` (a config file's seed), unchecked: the
    config dataclass it goes into, or :class:`RunSeed`, applies the bound."""
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return default if seed is None else seed


def _read_config(cls, args, defaults=None, names=None, reject=None):
    """``--config`` laid over ``defaults`` (file keys) and read as ``cls``, then the seed resolved."""
    doc = {**(defaults or {}), **(schema.load_json(args.config) if args.config else {})}
    cfg = schema.read(cls, doc, args.config or "defaults", names, reject)
    return replace(cfg, seed=_resolve_seed(args, cfg.seed))


def _overlay(cfg, **flags):
    """``cfg`` with every field whose flag was given replaced by the flag's value."""
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _write_manifest(command: str, started: float, out_dir: Path, config: dict, inputs: dict, outputs: dict, seed: int,
                    result: dict | None = None):
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


def _given(**paths) -> dict:
    """The manifest inputs: every file among ``paths`` that was given."""
    return {k: v for k, v in paths.items() if v}


def _out_dir(raw) -> Path:
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_list(raw: str, flag: str, cast=float) -> list:
    """The comma-separated values of ``flag``, each read by ``cast`` (int or float)."""
    try:
        return [cast(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError:
        kind = "integers" if cast is int else "numbers"
        raise UsageError(f"{flag} expects comma-separated {kind}, got {raw!r}") from None


# -- commands -----------------------------------------------------------------
# Each returns (out_dir, config, inputs, outputs, seed[, result]): the manifest that main writes once it succeeds.

def cmd_gen_data(args):
    cfg = _overlay(_read_config(data.GeneratorConfig, args), n_instances=args.n)
    golden_sizes = _parse_list(args.golden, "--golden", int)
    if len(golden_sizes) != 3:
        raise UsageError("--golden expects three sizes, e.g. 1934,203,506")
    fracs = _parse_list(args.split, "--split")
    if len(fracs) != 3:
        raise UsageError("--split expects three fractions, e.g. 0.8,0.1,0.1")
    full = data.generate_synthetic(cfg)
    golden, splits = data.carve(full, golden_sizes, fracs, mode=args.split_mode, seed=cfg.seed)
    sets = {"full": full, **dict(zip(("golden_train", "golden_valid", "golden_test"), golden or ())),
            **dict(zip(("train", "valid", "test"), splits))}
    out = _out_dir(args.out)
    outputs = {name: out / f"{name}.csv" for name in sets}
    for name, ds in sets.items():
        data.save_csv(ds, outputs[name])
    return out, schema.write(cfg), {"config": args.config or "<builtin>"}, outputs, cfg.seed


def cmd_train_blackbox(args):
    hidden = None if args.hidden is None else tuple(_parse_list(args.hidden, "--hidden", int))
    cfg = blackbox.BlackBoxConfig()
    cfg = _overlay(cfg, seed=_resolve_seed(args, cfg.seed), hidden=hidden, learning_rate=args.learning_rate,
                   epochs=args.epochs, batch_size=args.batch_size, patience=args.patience)
    train_set = data.load_csv(args.train)
    valid_set = data.load_csv(args.valid)
    adapter = blackbox.train_ffnn_blackbox(train_set, valid_set, **asdict(cfg))
    out = _out_dir(args.out)
    outputs = {"model": out / "blackbox.json"}
    blackbox.save_blackbox(adapter, outputs["model"])
    return out, schema.write(cfg), {"train": args.train, "valid": args.valid}, outputs, cfg.seed


def cmd_teach(args):
    if args.tune < 0:
        raise DataError(f"tune must be >= 0, got {args.tune}")
    if args.tune > 0 and args.config:
        raise UsageError("--tune draws the forest params; it cannot be combined with --config")
    if args.tune > 0 and not args.golden_valid:
        raise UsageError("--tune requires --golden-valid")
    params = _read_config(teachers.ForestParams, args)
    seed = params.seed  # tuning replaces params, seed included
    golden_train = data.load_csv(args.golden_train)
    golden_valid = data.load_csv(args.golden_valid) if args.golden_valid else None
    if golden_valid is not None:
        if golden_valid.golden is None:
            raise DataError("--golden-valid must carry hard concept labels")
        data.check_concepts(golden_valid, golden_train.concept_names, "--golden-valid")
    if args.tune > 0:
        teacher_set, params, best_auc = teachers.tune_teachers(golden_train, golden_valid, args.tune, seed)
        report = {"tuned_valid_mean_auc": best_auc}
    else:
        teacher_set = teachers.fit_teachers(golden_train, params)
        report = {} if golden_valid is None else {
            "valid_mean_auc": teachers.evaluate_teachers(teacher_set, golden_valid)[1]}
    out = _out_dir(args.out)
    outputs = {"teachers": out / "teachers.json"}
    teachers.save_teachers(teacher_set, outputs["teachers"])
    if report:
        outputs["report"] = out / "teach_report.json"
        Path(outputs["report"]).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    inputs = _given(golden_train=args.golden_train, golden_valid=args.golden_valid, config=args.config)
    return out, schema.write(params), inputs, outputs, seed, {"tune": args.tune}


def cmd_label(args):
    seed = RunSeed(_resolve_seed(args)).seed
    if not (args.teachers or args.blackbox or args.score_file):
        raise UsageError("label needs at least one of --teachers, --blackbox, --score-file")
    if args.blackbox and args.score_file:
        raise UsageError("--blackbox and --score-file are mutually exclusive")
    if args.uncertainty_fraction is not None and not (args.blackbox or args.score_file):
        raise UsageError("--uncertainty-fraction requires a score source")
    dataset = data.load_csv(args.input)
    inputs = {"input": args.input}
    if args.teachers:
        teacher_set = teachers.load_teachers(args.teachers)
        soft = teachers.teach_labels(teacher_set, dataset)
        dataset = dataset.with_soft(soft, teacher_set.concept_names)
        inputs["teachers"] = args.teachers
    if args.blackbox:
        dataset = dataset.with_scores(blackbox.load_blackbox(args.blackbox).score_batch(dataset.x))
        inputs["blackbox"] = args.blackbox
    elif args.score_file:
        dataset = dataset.with_scores(blackbox.load_score_file(args.score_file, dataset))
        inputs["score_file"] = args.score_file
    if args.uncertainty_fraction is not None:
        dataset = blackbox.uncertainty_sample(dataset, args.uncertainty_fraction)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    data.save_csv(dataset, out_path)
    return out_path.parent, {"uncertainty_fraction": args.uncertainty_fraction}, inputs, {"labeled": out_path}, seed


def cmd_distill(args):
    cfg = _read_config(TrainingFile, args, names=TRAIN_NAMES, reject=TRAIN_REJECT)
    cfg = _overlay(cfg, lam=args.lam, epochs=args.epochs, learning_rate=args.learning_rate,
                   batch_size=args.batch_size, variant=args.variant)
    train_set = data.load_csv(args.train)
    valid_set = data.load_csv(args.valid)
    arch = model.build_architecture(train_set.d, train_set.k, **asdict(cfg.architecture))
    params = model.init_model(arch, train_set.concept_names, cfg.seed)
    result = training.train(params, train_set, valid_set, cfg)
    out = _out_dir(args.out)
    outputs = {"model": out / "model.json", "history": out / "history.csv"}
    model.save_model(result.params, outputs["model"])
    training.history_to_csv(result.history, outputs["history"])
    inputs = _given(train=args.train, valid=args.valid, config=args.config)
    return (out, schema.write(cfg, TRAIN_NAMES, omit=TRAIN_REJECT), inputs, outputs, cfg.seed,
            {"best_epoch": result.best_epoch, "stopped_early": result.stopped_early})


def cmd_evaluate(args):
    seed = RunSeed(_resolve_seed(args)).seed
    if args.model is None and args.data is None:
        raise UsageError("evaluate needs --model (with --test/--golden) or --data")
    if args.model is not None and not (args.test or args.golden):
        raise UsageError("evaluate with --model needs --test and/or --golden")
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if args.model is None:
        dataset = data.load_csv(args.data)
        report = {"n": dataset.n, "concept_prevalences": data.concept_prevalences(dataset)}
        if dataset.y is not None:
            report["positive_rate"] = float(dataset.y.mean())
        out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        return out_path.parent, {}, {"data": args.data}, {"report": out_path}, seed
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
    out_path.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    inputs = _given(model=args.model, test=args.test, golden=args.golden)
    return out_path.parent, {"recall_fpr": args.recall_fpr}, inputs, {"report": out_path}, seed


def cmd_explain(args):
    seed = RunSeed(_resolve_seed(args)).seed
    params = model.load_model(args.model)
    dataset = data.load_csv(args.input)
    explanations = model.explain(params, dataset.x, ids=dataset.ids)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    model.explanations_to_jsonl(explanations, out_path)
    return out_path.parent, {}, {"model": args.model, "input": args.input}, {"explanations": out_path}, seed


SWEEP_DEFAULTS = {"epochs": 40, "patience": 6}  # sweep's own, under the config file
SWEEP_SETS = {  # training-file keys each mode draws or sets itself
    "search": {k: "is drawn by sweep --mode search" for k in ("lambda", "learning_rate", "optimizer.l2_penalty", "architecture")},
    "lambda": {"lambda": "is set by sweep --lambda-grid"},
}


def cmd_sweep(args):
    reject = {**TRAIN_REJECT, **SWEEP_SETS[args.mode]}
    base = _overlay(_read_config(TrainingFile, args, SWEEP_DEFAULTS, TRAIN_NAMES, reject), epochs=args.epochs)
    lambdas = _parse_list(args.lambda_grid, "--lambda-grid") if args.mode == "lambda" else None
    bundle = hpo.SweepData(
        train=data.load_csv(args.train),
        valid=data.load_csv(args.valid),
        test=data.load_csv(args.test),
        golden_test=data.load_csv(args.golden_test),
    )
    if args.mode == "search":
        report = hpo.run_search(hpo.SearchSpace(), args.trials, bundle, base=base, master_seed=base.seed, jobs=args.jobs)
        cfg = {"mode": "search", "trials": args.trials}
    else:
        arch = model.build_architecture(bundle.train.d, bundle.train.k, **asdict(base.architecture))
        report = hpo.lambda_sweep(lambdas, args.repeats, bundle, arch=arch, base=base,
                                  master_seed=base.seed, jobs=args.jobs)
        cfg = {"mode": "lambda", "lambda_grid": lambdas, "repeats": args.repeats}
    out = _out_dir(args.out)
    outputs = {"csv": out / "sweep.csv", "summary": out / "sweep_summary.json"}
    report.to_csv(outputs["csv"])
    report.save_summary(outputs["summary"])
    inputs = _given(train=args.train, valid=args.valid, test=args.test, golden_test=args.golden_test,
                    config=args.config)
    cfg.update(jobs=args.jobs, **schema.write(base, TRAIN_NAMES, omit=reject))
    return out, cfg, inputs, outputs, base.seed


# -- parser -------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="conceptdistil", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=None,
                       help=f"run seed (falls back to ${SEED_ENV_VAR}, then the config file's seed, then 0)")
        return p

    p = add("gen-data", cmd_gen_data, "generate a synthetic dataset with latent concepts")
    p.add_argument("--config", default=None, help="generator config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=None, help="override n_instances")
    p.add_argument("--split", default="0.8,0.1,0.1", help="train,valid,test fractions")
    p.add_argument("--split-mode", choices=(data.SEQUENTIAL, data.RANDOM), default=data.SEQUENTIAL)
    p.add_argument("--golden", default=f"{data.GOLDEN_TRAIN_DEFAULT},{data.GOLDEN_VALID_DEFAULT},{data.GOLDEN_TEST_DEFAULT}",
                   help="golden train,valid,test sizes; 0,0,0 disables")

    p = add("train-blackbox", cmd_train_blackbox, "train the built-in feedforward classifier")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", default=None, help="comma-separated hidden widths")
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)

    p = add("teach", cmd_teach, "fit per-concept random-forest teachers on golden labels")
    p.add_argument("--golden-train", required=True)
    p.add_argument("--golden-valid", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="forest params JSON")
    p.add_argument("--tune", type=int, default=0, help="random-search trials (0 = defaults)")

    p = add("label", cmd_label, "attach soft concept labels and/or black-box scores")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--teachers", default=None)
    p.add_argument("--blackbox", default=None)
    p.add_argument("--score-file", default=None)
    p.add_argument("--uncertainty-fraction", type=float, default=None,
                   help="keep only the most score-uncertain fraction of rows")

    p = add("distill", cmd_distill, "train the concept surrogate")
    p.add_argument("--variant", choices=training.VARIANTS, default=None)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="training config JSON")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)

    p = add("evaluate", cmd_evaluate, "evaluate a model or report dataset prevalences")
    p.add_argument("--model", default=None)
    p.add_argument("--test", default=None, help="scored set for fidelity")
    p.add_argument("--golden", default=None, help="golden set for concept AUC")
    p.add_argument("--data", default=None, help="prevalence report for a dataset")
    p.add_argument("--recall-fpr", type=float, default=None)
    p.add_argument("--out", required=True)

    p = add("explain", cmd_explain, "emit one explanation JSON object per input row")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = add("sweep", cmd_sweep, "random search or lambda sweep with trade-off report")
    p.add_argument("--mode", choices=("search", "lambda"), default="search")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--golden-test", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--lambda-grid", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--epochs", type=int, default=None, help="default: the config's epochs, else 40")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--config", default=None, help="training config JSON; keys the mode draws are rejected")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.time()
        _write_manifest(args.command, started, *args.func(args))
        return 0
    except ConceptDistilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
