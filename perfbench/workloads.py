"""The four benchmark workloads and their correctness checks.

Each workload builds its inputs from the seed in ``setup`` and runs one
pass of its timed section in ``run_pass``. Every pass repeats the same
work on the same inputs, so its digests must match the first pass bit
for bit. Why each workload exists:

* ``distill``: black box, then all five surrogate variants from one init;
  the surrogate training loop (``nn``, ``model``, ``training``). Early
  stopping cannot fire, so every pass does the same number of steps.
* ``teach``: per-concept forests fitted on golden-train, then labelling
  train+valid; only ``teachers`` works, tree building next to tree walking.
* ``serve``: eval-mode use of a surrogate trained in set-up: bulk explain
  with JSONL, evaluation, a single-client stream of one-row explains and
  a CSV round trip; per-call overhead, no backward pass.
* ``sweep``: ``hpo.lambda_sweep`` over a process pool, with dropout and
  batchnorm switched on; the only workload that ships work to processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from conceptdistil import blackbox, data, hpo, metrics, model, nn, teachers, training
from spans import TRAIN_FORWARD


@dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is the desk scale, ``SMOKE`` a quick check."""

    rows: int = 29_643  # synthetic rows, golden subsets included
    golden: tuple[int, int, int] = (1934, 203, 506)
    label_trees: int = 5  # forests that make the soft labels in set-up
    bb_epochs: int = 10
    # per surrogate fit (2-staged runs this many per stage); after one
    # epoch the concept heads are far from trained and their AUC swings
    # with the seed
    epochs: int = 2
    teach_trees: int = 10
    stream_calls: int = 500
    sweep_rows: int = 6000
    sweep_grid: tuple[float, ...] = (0.25, 0.5, 0.75)
    sweep_repeats: int = 2
    sweep_epochs: int = 2


FULL = Size()
SMOKE = Size(rows=3000, golden=(400, 60, 200), label_trees=2, bb_epochs=1, epochs=1, teach_trees=2,
             stream_calls=20, sweep_rows=600, sweep_grid=(0.5,), sweep_epochs=1)

FPR_LEVEL = 0.05
TOL = 1e-9  # explanation invariants, as in model.Explanation


@dataclass
class PassResult:
    ops: int = 0  # operations attempted
    failures: list[str] = field(default_factory=list)  # one entry per failed operation
    rows: int = 0  # rows through the workload's main stage
    main_s: float = 0.0  # time of the main stage
    fidelity: float = math.nan
    concept_auc: float = math.nan
    digests: dict[str, str] = field(default_factory=dict)
    figures: dict[str, float] = field(default_factory=dict)  # workload-specific timings
    layer: dict[str, float] = field(default_factory=dict)  # derived per-layer counts
    latencies_ms: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    pace: float = 1.0  # reference speed over the machine's speed during the pass

    def check(self, ok: bool, message: str) -> None:
        self.ops += 1
        if not ok:
            self.failures.append(message)

    def check_quality(self, fid: float, auc: float) -> None:
        self.fidelity, self.concept_auc = fid, auc
        self.check(math.isfinite(fid) and 0.0 <= fid <= 1.0, f"fidelity {fid} outside [0, 1]")
        self.check(math.isfinite(auc) and 0.0 <= auc <= 1.0, f"concept AUC {auc} outside [0, 1]")


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def history_digest(history) -> str:
    return hashlib.sha256(repr(history).encode()).hexdigest()


# -- inputs -------------------------------------------------------------------

@dataclass
class Splits:
    train: data.Dataset
    valid: data.Dataset
    test: data.Dataset
    golden_train: data.Dataset
    golden_test: data.Dataset


def make_splits(seed: int, size: Size) -> Splits:
    """Desk-scale synthetic corpus: golden subsets, then 20/2/5 splits."""
    full = data.generate_synthetic(data.GeneratorConfig(n_instances=size.rows, seed=seed))
    g_train, g_valid, g_test = data.golden_subset(full, *size.golden, seed=seed)
    corpus = full.exclude_ids(np.concatenate([g_train.ids, g_valid.ids, g_test.ids]))
    train, valid, test = data.split(corpus, 20 / 27, 2 / 27, 5 / 27)
    return Splits(train, valid, test, g_train, g_test)


def with_soft_labels(s: Splits, seed: int, size: Size) -> Splits:
    """Attach teacher soft labels to train and valid (small forests)."""
    ts = teachers.fit_teachers(s.golden_train, teachers.ForestParams(n_trees=size.label_trees, seed=seed))
    return dataclasses.replace(
        s, train=s.train.with_soft(teachers.teach_labels(ts, s.train)),
        valid=s.valid.with_soft(teachers.teach_labels(ts, s.valid)))


def fit_blackbox(s: Splits, seed: int, size: Size):
    return blackbox.train_ffnn_blackbox(s.train, s.valid, seed=seed, epochs=size.bb_epochs,
                                        patience=size.bb_epochs)


def with_scores(s: Splits, bb) -> Splits:
    return dataclasses.replace(
        s, train=s.train.with_scores(bb.score_batch(s.train.x)),
        valid=s.valid.with_scores(bb.score_batch(s.valid.x)),
        test=s.test.with_scores(bb.score_batch(s.test.x)))


def train_config(seed: int, epochs: int, variant: str = training.DEFAULT) -> training.TrainConfig:
    # patience >= epochs: early stopping cannot fire, so the work is fixed
    return training.TrainConfig(epochs=epochs, early_stop_patience=epochs, seed=seed, variant=variant)


# -- distill ------------------------------------------------------------------

class Distill:
    @staticmethod
    def setup(seed, size, workdir):
        s = with_soft_labels(make_splits(seed, size), seed, size)
        arch = model.build_architecture(s.train.d, s.train.k)
        return dict(s=s, seed=seed, size=size, init=model.init_model(arch, s.train.concept_names, seed))

    @staticmethod
    def run_pass(st, rec) -> PassResult:
        s, seed, size, init = st["s"], st["seed"], st["size"], st["init"]
        r = PassResult()
        t0 = time.perf_counter()
        bb = fit_blackbox(s, seed, size)
        r.figures["blackbox_fit_s"] = time.perf_counter() - t0
        r.digests["blackbox"] = nn.params_digest(bb.params)
        s = with_scores(s, bb)
        r.check(bool(np.isfinite(s.train.bb_scores).all()), "black-box scores are not finite")
        results = {}
        steps = 0
        for variant in training.VARIANTS:
            cfg = train_config(seed, size.epochs, variant)
            mark = rec.mark() if rec else 0
            t0 = time.perf_counter()
            res = training.train(init, s.train, s.valid, cfg)
            r.main_s += time.perf_counter() - t0
            r.rows += len(res.history) * s.train.n
            v_steps = len(res.history) * math.ceil(s.train.n / cfg.batch_size)
            steps += v_steps
            results[variant] = res
            r.digests[f"{variant}.params"] = res.params.digest()
            r.digests[f"{variant}.history"] = history_digest(res.history)
            r.check(len(res.history) == cfg.epochs * (2 if variant == training.TWO_STAGED else 1),
                    f"{variant}: {len(res.history)} epochs, early stopping fired")
            if rec and variant == training.DEFAULT:
                end = rec.mark()
                r.layer["nn.forward.train_calls_per_step"] = rec.count(mark, end, "nn.forward", TRAIN_FORWARD) / v_steps
                r.layer["nn.backward.calls_per_step"] = rec.count(mark, end, "nn.backward") / v_steps
                r.layer["nn.optimizer_step.calls_per_step"] = rec.count(mark, end, "nn.optimizer_step") / v_steps
        r.layer["training.steps"] = steps
        # 2-staged stage 1 is a baseline-concept run from the same init and
        # config, so a frozen stage 2 leaves exactly its concept blocks
        r.check(results[training.TWO_STAGED].params.concept_digest()
                == results[training.BASELINE_CONCEPT].params.concept_digest(),
                "2-staged changed its concept blocks in stage 2")
        fid, auc = hpo.evaluate_params(results[training.DEFAULT].params, s.test, s.golden_test)
        r.check_quality(fid, auc)
        r.figures["train_rows_per_s"] = r.rows / r.main_s
        return r


# -- teach --------------------------------------------------------------------

def tree_nodes(tree) -> int:
    """Node count of a fitted tree: linked nodes or a flat node array.

    Both layouts are counted because a change of tree layout must not
    need a change of the benchmark that measures it.
    """
    if hasattr(tree, "feature") and np.ndim(tree.feature) == 1:
        return len(tree.feature)
    if tree.left is None:
        return 1
    return 1 + tree_nodes(tree.left) + tree_nodes(tree.right)


class Teach:
    @staticmethod
    def setup(seed, size, workdir):
        return dict(s=make_splits(seed, size), seed=seed, size=size)

    @staticmethod
    def run_pass(st, rec) -> PassResult:
        s, seed, size = st["s"], st["seed"], st["size"]
        r = PassResult()
        t0 = time.perf_counter()
        ts = teachers.fit_teachers(s.golden_train, teachers.ForestParams(n_trees=size.teach_trees, seed=seed))
        r.figures["teacher_fit_s"] = time.perf_counter() - t0
        for forest in ts.forests:
            r.check(len(forest.trees) == size.teach_trees, "forest has the wrong number of trees")
        r.layer["teachers.tree_nodes"] = sum(tree_nodes(t) for f in ts.forests for t in f.trees)
        t0 = time.perf_counter()
        labels = [teachers.teach_labels(ts, s.train), teachers.teach_labels(ts, s.valid)]
        r.main_s = time.perf_counter() - t0
        r.rows = s.train.n + s.valid.n
        soft = np.vstack(labels)
        r.check(soft.shape == (r.rows, s.train.k) and bool(np.all((soft >= 0) & (soft <= 1))),
                "teacher labels are not probabilities of the right shape")
        r.digests["teacher_labels"] = sha256(soft)
        g = s.golden_test
        soft_test = teachers.teach_labels(ts, g)
        _, auc = metrics.mean_concept_auc(soft_test, g.golden, g.concept_names)
        # fidelity of the soft labels to the expert labels: 1 - MAE
        r.check_quality(metrics.fidelity(soft_test, g.golden), auc)
        r.figures["label_rows_per_s"] = r.rows / r.main_s
        return r


# -- serve --------------------------------------------------------------------

def check_explanations(r: PassResult, explanations) -> np.ndarray:
    """One operation per explained row; returns the rows as one array."""
    kd = np.array([e.kd_score for e in explanations])
    contrib = np.array([e.contributions for e in explanations])
    probs = np.array([e.concept_probs for e in explanations])
    bad = ((np.abs(kd - contrib.sum(axis=1)) > TOL)
           | (kd < probs.min(axis=1) - TOL) | (kd > probs.max(axis=1) + TOL))
    r.ops += len(kd)
    r.failures += [f"explanation row {i} breaks the kd-sum or range invariant" for i in np.flatnonzero(bad)]
    return np.column_stack([kd, contrib, probs])


def same_dataset(a: data.Dataset, b: data.Dataset) -> bool:
    for f in dataclasses.fields(data.Dataset):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if x is None or y is None or x.shape != y.shape or not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


class Serve:
    @staticmethod
    def setup(seed, size, workdir):
        s = with_soft_labels(make_splits(seed, size), seed, size)
        s = with_scores(s, fit_blackbox(s, seed, size))
        init = model.init_model(model.build_architecture(s.train.d, s.train.k), s.train.concept_names, seed)
        params = training.train(init, s.train, s.valid, train_config(seed, size.epochs)).params
        return dict(s=s, size=size, params=params, workdir=workdir)

    @staticmethod
    def run_pass(st, rec) -> PassResult:
        s, size, params, workdir = st["s"], st["size"], st["params"], st["workdir"]
        r = PassResult()
        test = s.test
        jsonl = os.path.join(workdir, "explanations.jsonl")
        t0 = time.perf_counter()
        explanations = model.explain(params, test.x, test.ids)
        model.explanations_to_jsonl(explanations, jsonl)
        r.main_s = time.perf_counter() - t0
        r.rows = test.n
        check_explanations(r, explanations)
        with open(jsonl, "rb") as fh:
            r.digests["explanations.jsonl"] = hashlib.sha256(fh.read()).hexdigest()

        scores = model.predict_scores(params, test.x)
        fid, auc = hpo.evaluate_params(params, test, s.golden_test)
        recall = metrics.recall_at_fpr(scores, test.y, FPR_LEVEL)
        r.check_quality(fid, auc)
        r.check(0.0 <= recall <= 1.0, f"recall at FPR {recall} outside [0, 1]")
        r.digests["scores"] = sha256(scores)

        stream = []
        for i in range(size.stream_calls):
            j = i % test.n
            t0 = time.perf_counter()
            one = model.explain(params, test.x[j : j + 1], test.ids[j : j + 1])
            r.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            stream.append(check_explanations(r, one))
        r.digests["stream"] = sha256(*stream)

        csv_path = os.path.join(workdir, "train.csv")
        t0 = time.perf_counter()
        data.save_csv(s.train, csv_path)
        loaded = data.load_csv(csv_path)
        csv_s = time.perf_counter() - t0
        r.check(same_dataset(s.train, loaded), "load_csv(save_csv(train)) differs from train")
        r.layer["data.csv_bytes"] = os.path.getsize(csv_path)
        r.figures["explain_rows_per_s"] = r.rows / r.main_s
        r.figures["csv_rows_per_s"] = s.train.n / csv_s
        return r


# -- sweep --------------------------------------------------------------------

class Sweep:
    @staticmethod
    def setup(seed, size, workdir):
        s = with_soft_labels(make_splits(seed, size), seed, size)
        s = with_scores(s, fit_blackbox(s, seed, size))
        bundle = hpo.SweepData(train=s.train.take(np.arange(size.sweep_rows)), valid=s.valid,
                               test=s.test, golden_test=s.golden_test)
        arch = model.build_architecture(s.train.d, s.train.k, dropout_p=0.1, use_batchnorm=True)
        return dict(bundle=bundle, arch=arch, seed=seed, size=size, jobs=len(os.sched_getaffinity(0)))

    @staticmethod
    def run_pass(st, rec) -> PassResult:
        bundle, size = st["bundle"], st["size"]
        r = PassResult()
        t0 = time.perf_counter()
        report = hpo.lambda_sweep(size.sweep_grid, size.sweep_repeats, bundle, arch=st["arch"],
                                  base=train_config(0, size.sweep_epochs), master_seed=st["seed"],
                                  jobs=st["jobs"])
        r.main_s = time.perf_counter() - t0
        done = report.completed()
        for t in report.trials:
            r.check(t.status == "completed", f"trial {t.index} {t.status}: {t.error}")
        r.layer["hpo.trials_failed"] = len(report.trials) - len(done)
        r.rows = len(done) * bundle.train.n * size.sweep_epochs
        fid = float(np.mean([t.fidelity for t in done])) if done else math.nan
        auc = float(np.mean([t.mean_auc for t in done])) if done else math.nan
        r.check_quality(fid, auc)
        r.digests["trials"] = hashlib.sha256(
            repr([(t.index, t.status, t.history_digest) for t in report.trials]).encode()).hexdigest()
        r.figures["sweep_trials_per_min"] = len(report.trials) * 60.0 / r.main_s
        r.figures["train_rows_per_s"] = r.rows / r.main_s
        return r


WORKLOADS = {"distill": Distill, "teach": Teach, "serve": Serve, "sweep": Sweep}
