"""Span recording around the public functions of each conceptdistil module.

The recorder measures layers from outside: it replaces module attributes
(for example ``conceptdistil.nn.forward``) with timing wrappers, so calls
made from inside the package pass through them. A function imported by
name (``from .nn import derive_seed``) is replaced in every module that
binds it. Private helpers are not wrapped; their time shows up in the
self time of the public function that calls them.

Spans carry a name, start, end and parent index and stay in memory until
the recorder is discarded. Spans recorded in forked pool workers stay in
those workers, so pool-based workloads report parent-side numbers only.
"""

from __future__ import annotations

import functools
import pickle
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

PACKAGE = "conceptdistil"

# (metric prefix, module, attribute path) for every wrapped function
TARGETS = (
    ("nn.forward", "nn", "forward"),
    ("nn.backward", "nn", "backward"),
    ("nn.optimizer_step", "nn", "optimizer_step"),
    ("nn.bce_loss", "nn", "bce_loss"),
    ("nn.softmax_rowwise", "nn", "softmax_rowwise"),
    ("nn.softmax_backward", "nn", "softmax_backward"),
    ("nn.update_running_stats", "nn", "update_running_stats"),
    ("nn.derive_seed", "nn", "derive_seed"),
    ("model.forward_full", "model", "forward_full"),
    ("model.backward_full", "model", "backward_full"),
    ("model.concept_forward", "model", "concept_forward"),
    ("model.attention_forward", "model", "attention_forward"),
    ("model.explain", "model", "explain"),
    ("model.explanations_to_jsonl", "model", "explanations_to_jsonl"),
    ("model.ConceptDistilParams.copy", "model", "ConceptDistilParams.copy"),
    ("training.train", "training", "train"),
    ("training.total_loss", "training", "total_loss"),
    ("teachers.fit_forest", "teachers", "fit_forest"),
    ("teachers.fit_tree", "teachers", "fit_tree"),
    ("teachers.predict_proba", "teachers", "Forest.predict_proba"),
    ("teachers.teach_labels", "teachers", "teach_labels"),
    ("blackbox.train_ffnn_blackbox", "blackbox", "train_ffnn_blackbox"),
    ("blackbox.score_batch", "blackbox", "FFNNBlackBox.score_batch"),
    ("data.save_csv", "data", "save_csv"),
    ("data.load_csv", "data", "load_csv"),
    ("metrics.fidelity", "metrics", "fidelity"),
    ("metrics.roc_auc", "metrics", "roc_auc"),
    ("metrics.mean_concept_auc", "metrics", "mean_concept_auc"),
    ("metrics.recall_at_fpr", "metrics", "recall_at_fpr"),
    ("hpo.lambda_sweep", "hpo", "lambda_sweep"),
    ("hpo.evaluate_params", "hpo", "evaluate_params"),
)

SPAN_FIELDS = ("calls", "self_s", "total_s")

TRAIN_FORWARD = "nn.forward.train"  # tag of train-mode nn.forward spans


class Span:
    __slots__ = ("name", "start", "end", "parent", "outermost", "tag")

    def __init__(self, name, start, parent, outermost, tag):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.outermost = outermost  # no enclosing span of the same name
        self.tag = tag


def _forward_tag(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return TRAIN_FORWARD if mode == "train" else None


class Recorder:
    """Installs span wrappers on the package and keeps every span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item_bytes: list[int] = []  # pickled size of each pool work item
        self._stack: list[int] = []
        self._open = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, tag_fn=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            tag = tag_fn(args, kwargs) if tag_fn else None
            span = Span(name, time.perf_counter(), parent, rec._open[name] == 0, tag)
            rec.spans.append(span)
            rec._stack.append(idx)
            rec._open[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._open[name] -= 1
                rec._stack.pop()

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, module_name, path in TARGETS:
            # a target the package no longer has is skipped and reads 0
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            tag_fn = _forward_tag if name == "nn.forward" else None
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and hasattr(cls, attr):
                    self._set(cls, attr, self._wrap(name, getattr(cls, attr), tag_fn))
                continue
            original = getattr(module, path, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, tag_fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)
        hpo = sys.modules[f"{PACKAGE}.hpo"]
        if isinstance(getattr(hpo, "ProcessPoolExecutor", None), type):
            self._set(hpo, "ProcessPoolExecutor", _measuring_pool(self.item_bytes))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def mark(self) -> int:
        """Index of the next span; spans in [mark_a, mark_b) ran in between."""
        return len(self.spans)

    def count(self, start: int, end: int, name: str, tag: str | None = None) -> int:
        return sum(1 for s in self.spans[start:end] if s.name == name and (tag is None or s.tag == tag))

    def summary(self, start: int = 0, end: int | None = None) -> dict[str, float]:
        """``<name>.{calls,self_s,total_s}`` over spans[start:end].

        Self time is a span's duration minus the time its child spans
        cover; total time sums only outermost spans of a name, so a
        recursive call is not counted twice.
        """
        spans = self.spans[start:end]
        child = defaultdict(float)
        for s in spans:
            if s.parent >= start:
                child[s.parent] += s.end - s.start
        out = {f"{name}.{field}": 0.0 for name, _, _ in TARGETS for field in SPAN_FIELDS}
        for i, s in enumerate(spans, start=start):
            dur = s.end - s.start
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += dur - child[i]
            if s.outermost:
                out[f"{s.name}.total_s"] += dur
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = int(out[f"{name}.calls"])
        return out


def _measuring_pool(sink: list[int]) -> type:
    """A ProcessPoolExecutor that records the pickled size of every item."""

    class MeasuringPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            sink.append(len(pickle.dumps((fn, args, kwargs))))
            return super().submit(fn, *args, **kwargs)

    return MeasuringPool
