"""Surrogate architecture: shared trunk, per-concept heads, attention combiner.

The network predicts K concept probabilities through a shared trunk plus
one small sigmoid head per concept. A separate attention stack maps the
raw feature vector to K logits whose row-wise softmax weights combine the
concept probabilities into a single mimicry score. Because the score is a
convex combination, it always lies inside the interval spanned by the
instance's concept probabilities and decomposes into per-concept
contributions, which is what the explanation output exposes.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import nn, schema
from .data import ROW_BLOCK
from .errors import DataError
from .nn import EVAL, LayerSpec, MLPParams, derive_seed

FORMAT_VERSION = 1

# seed-stream tags for the three sub-networks
_SEED_TRUNK = 0
_SEED_HEAD = 1
_SEED_ATTENTION = 2


@dataclass(frozen=True)
class ArchitectureConfig:
    """Layer stacks for the three sub-networks.

    ``head_template`` is replicated once per concept (each head gets its
    own parameters); it must end in a single sigmoid unit. The attention
    stack consumes the raw features and must end in ``k_concepts``
    identity units.
    """

    k_concepts: int
    trunk: tuple[LayerSpec, ...]
    head_template: tuple[LayerSpec, ...]
    attention: tuple[LayerSpec, ...]

    def __post_init__(self):
        if self.k_concepts < 1:
            raise DataError("k_concepts must be >= 1")
        for name, stack in (("trunk", self.trunk), ("head", self.head_template), ("attention", self.attention)):
            if not stack:
                raise DataError(f"{name} stack must have at least one layer")
            for i in range(len(stack) - 1):
                if stack[i].out_dim != stack[i + 1].in_dim:
                    raise DataError(f"{name} stack dims do not chain at layer {i}")
        if self.head_template[0].in_dim != self.trunk[-1].out_dim:
            raise DataError("head input dim must equal trunk output dim")
        if self.head_template[-1].out_dim != 1 or self.head_template[-1].activation != "sigmoid":
            raise DataError("head must end in a single sigmoid unit")
        if self.attention[0].in_dim != self.trunk[0].in_dim:
            raise DataError("attention input dim must equal the raw feature dim")
        if self.attention[-1].out_dim != self.k_concepts:
            raise DataError("attention must end in k_concepts units")
        if self.attention[-1].activation != "identity":
            raise DataError("attention output layer must be identity (logits)")

    @property
    def n_features(self) -> int:
        return self.trunk[0].in_dim


@dataclass(frozen=True)
class ArchitectureOptions:
    """The keyword options of :func:`build_architecture` and their defaults."""

    trunk_widths: tuple[int, ...] = (64, 48, 32)
    head_widths: tuple[int, ...] = (16, 8)
    attention_widths: tuple[int, ...] = (16,)
    dropout_p: float = 0.0
    use_batchnorm: bool = False


def build_architecture(n_features: int, k_concepts: int, **options) -> ArchitectureConfig:
    """Assemble a standard relu architecture from :class:`ArchitectureOptions` ``options``.

    Dropout and batchnorm apply to hidden layers only; head and attention
    output layers stay plain.
    """
    o = ArchitectureOptions(**options)
    if not o.trunk_widths:
        raise DataError("trunk needs at least one width")

    def chain(in_dim, widths, last=()):  # relu hidden layers, then the plain output layer ``last``
        dims = [in_dim, *widths]
        hidden = [LayerSpec(a, b, "relu", o.dropout_p, o.use_batchnorm) for a, b in zip(dims, dims[1:])]
        return tuple(hidden + [LayerSpec(dims[-1], *last)] if last else hidden)

    trunk = chain(n_features, o.trunk_widths)
    heads = chain(o.trunk_widths[-1], o.head_widths, (1, "sigmoid"))
    attention = chain(n_features, o.attention_widths, (k_concepts, "identity"))
    return ArchitectureConfig(k_concepts, trunk, heads, attention)


@dataclass
class ConceptDistilParams:
    """All learnable state: trunk, K concept heads, attention stack.

    The heads are one stacked MLP with per-head views in ``theta_m``. All
    arrays are views of one ``buffer`` (see :func:`nn.pack`); ``flat`` is
    its learnable prefix: trunk, heads, attention.
    """

    config: ArchitectureConfig
    theta_c: MLPParams
    heads: MLPParams
    theta_a: MLPParams
    concept_names: tuple[str, ...]
    buffer: np.ndarray | None = field(default=None, repr=False)
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = self.config.k_concepts
        if self.heads.layers[0].weights.shape[:-2] != (k,):
            raise DataError(f"expected {k} stacked heads, got shape {self.heads.layers[0].weights.shape}")
        if len(self.concept_names) != k or len(set(self.concept_names)) != k:
            raise DataError("concept_names must be unique and match k_concepts")
        if tuple(self.theta_c.specs) != self.config.trunk:
            raise DataError("trunk params do not match architecture")
        if tuple(self.heads.specs) != self.config.head_template:
            raise DataError("head params do not match architecture")
        if tuple(self.theta_a.specs) != self.config.attention:
            raise DataError("attention params do not match architecture")
        parts = [self.theta_c, self.heads, self.theta_a]
        self.buffer = nn.pack(parts, self.buffer)
        self.flat = self.buffer[: sum(p.flat.size for p in parts)]

    @property
    def theta_m(self) -> list[MLPParams]:
        """Per-head views of the stacked heads."""
        return nn.unstack(self.heads)

    def copy(self) -> "ConceptDistilParams":
        """Deep copy: one copy of the buffer, viewed through the same layout."""
        shallow = lambda m: replace(m, layers=[replace(l) for l in m.layers])
        return ConceptDistilParams(
            self.config, shallow(self.theta_c), shallow(self.heads), shallow(self.theta_a),
            tuple(self.concept_names), self.buffer.copy(),
        )

    def digest(self, include_running_stats: bool = True) -> str:
        return nn.params_digest(
            self.theta_c, *self.theta_m, self.theta_a, include_running_stats=include_running_stats
        )

    def concept_digest(self, include_running_stats: bool = True) -> str:
        """Digest over the concept blocks only (trunk + heads)."""
        return nn.params_digest(
            self.theta_c, *self.theta_m, include_running_stats=include_running_stats
        )


def init_model(config: ArchitectureConfig, concept_names, seed: int = 0) -> ConceptDistilParams:
    names = tuple(concept_names)
    theta_c = nn.init_mlp(config.trunk, derive_seed(seed, _SEED_TRUNK))
    theta_m = [
        nn.init_mlp(config.head_template, derive_seed(seed, _SEED_HEAD, i))
        for i in range(config.k_concepts)
    ]
    theta_a = nn.init_mlp(config.attention, derive_seed(seed, _SEED_ATTENTION))
    return ConceptDistilParams(config, theta_c, nn.stack(theta_m), theta_a, names)


@dataclass
class ConceptTraces:
    trunk: nn.ForwardTrace
    stack: nn.ForwardTrace  # all heads, leading K axis

    @property
    def heads(self) -> list[nn.ForwardTrace]:
        """Per-head views of the stacked trace."""
        return nn.unstack(self.stack)


def concept_forward(params: ConceptDistilParams, x, mode: str = EVAL, rng_seed: int = 0):
    """Concept probabilities, column i from head i on the shared trunk.

    Head i draws its dropout masks from ``derive_seed(rng_seed, _SEED_HEAD, i)``;
    seeds are derived only for a sub-network that draws masks.
    """
    cfg = params.config
    seed_c = derive_seed(rng_seed, _SEED_TRUNK) if nn.draws_masks(cfg.trunk, mode) else 0
    trunk_out, trace_c = nn.forward(params.theta_c, x, mode, seed_c)
    seeds = None
    if nn.draws_masks(cfg.head_template, mode):
        seeds = [derive_seed(rng_seed, _SEED_HEAD, i) for i in range(cfg.k_concepts)]
    out, trace_m = nn.forward(params.heads, trunk_out, mode, seeds)
    return np.ascontiguousarray(out[:, :, 0].T), ConceptTraces(trace_c, trace_m)


def attention_forward(params: ConceptDistilParams, x, mode: str = EVAL, rng_seed: int = 0):
    """Attention weights: row-wise softmax over the attention stack's logits."""
    seed = derive_seed(rng_seed, _SEED_ATTENTION) if nn.draws_masks(params.config.attention, mode) else 0
    e, trace = nn.forward(params.theta_a, x, mode, seed)
    return nn.softmax_rowwise(e), trace


@dataclass
class ModelOutputs:
    y_e: np.ndarray  # (n, K) concept probabilities
    alpha: np.ndarray  # (n, K) attention weights, rows sum to 1
    y_kd: np.ndarray  # (n,) mimicry score, rows of y_e * alpha summed
    concept_traces: ConceptTraces
    attention_trace: nn.ForwardTrace
    mode: str


def forward_full(params: ConceptDistilParams, x, mode: str = EVAL, rng_seed: int = 0) -> ModelOutputs:
    y_e, ct = concept_forward(params, x, mode, rng_seed)
    alpha, at = attention_forward(params, x, mode, rng_seed)
    y_kd = (y_e * alpha).sum(axis=1)
    return ModelOutputs(y_e, alpha, y_kd, ct, at, mode)


@dataclass
class ModelGrads:
    """Gradients packed like ``ConceptDistilParams.flat``."""

    theta_c: nn.GradientSet
    heads: nn.GradientSet  # stacked, leading K axis
    theta_a: nn.GradientSet
    flat: np.ndarray

    @property
    def theta_m(self) -> list[nn.GradientSet]:
        """Per-head views of the stacked head gradients."""
        return nn.unstack(self.heads)


def new_grads(params: ConceptDistilParams) -> ModelGrads:
    """A gradient buffer for ``params``, for :func:`backward_full` to overwrite step after step."""
    flat, sets = nn.new_grads([params.theta_c, params.heads, params.theta_a])
    return ModelGrads(*sets, flat)


def backward_full(
    params: ConceptDistilParams,
    outputs: ModelOutputs,
    d_y_kd: np.ndarray,
    d_y_e: np.ndarray,
    stop_concept_grad: bool = False,
    grads: ModelGrads | None = None,
) -> ModelGrads:
    """Backpropagate loss gradients through the combiner and all stacks.

    ``d_y_kd`` is the loss gradient w.r.t. the mimicry score, ``d_y_e``
    the direct gradient w.r.t. the concept probabilities. With
    ``stop_concept_grad`` the mimicry path is cut at the concept outputs:
    its gradient still reaches the attention stack but contributes
    nothing to trunk or heads. Every slot of ``grads`` (new when omitted,
    see :func:`new_grads`) is overwritten and returned.
    """
    if grads is None:
        grads = new_grads(params)
    y_e, alpha = outputs.y_e, outputs.alpha
    dk = np.asarray(d_y_kd, dtype=np.float64).reshape(-1, 1)
    d_alpha = dk * y_e
    d_e = nn.softmax_backward(alpha, d_alpha)
    nn.backward(params.theta_a, outputs.attention_trace, d_e, grads.theta_a, input_grad=False)

    d_ye_total = np.asarray(d_y_e, dtype=np.float64)
    if not stop_concept_grad:
        d_ye_total = d_ye_total + dk * alpha

    _, d_in = nn.backward(params.heads, outputs.concept_traces.stack, d_ye_total.T[:, :, None], grads.heads)
    d_trunk_out = d_in[0]  # d_in is backward's own array: summed into in place, head by head, in order
    for part in d_in[1:]:
        d_trunk_out += part
    nn.backward(params.theta_c, outputs.concept_traces.trunk, d_trunk_out, grads.theta_c, input_grad=False)
    return grads


ExplanationRow = namedtuple("ExplanationRow",
                            "concept_names concept_probs attention kd_score contributions instance_id")


@dataclass(frozen=True, eq=False)
class Explanations:
    """What the surrogate saw and why it scored so, per instance; iterating yields an ``ExplanationRow`` of views."""

    concept_names: tuple[str, ...]
    ids: tuple[str, ...] | None
    concept_probs: np.ndarray  # (n, K)
    attention: np.ndarray  # (n, K), rows sum to 1
    contributions: np.ndarray  # (n, K), concept_probs * attention
    kd_score: np.ndarray  # (n,), rows of contributions summed

    def __post_init__(self):
        if self.ids is not None and len(self.ids) != len(self.kd_score):
            raise DataError("ids length does not match the number of rows")
        if (np.abs(self.kd_score - self.contributions.sum(axis=1)) > 1e-9).any():
            raise DataError("kd_score must equal the sum of contributions")
        lo, hi = self.concept_probs.min(axis=1), self.concept_probs.max(axis=1)
        if not ((lo - 1e-9 <= self.kd_score) & (self.kd_score <= hi + 1e-9)).all():
            raise DataError("kd_score must lie within the concept probability range")

    def __iter__(self):
        ids = repeat(None) if self.ids is None else self.ids
        return map(ExplanationRow, repeat(self.concept_names), self.concept_probs, self.attention,
                   self.kd_score.tolist(), self.contributions, ids)


def explain(params: ConceptDistilParams, x, ids=None) -> Explanations:
    """Eval-mode forward explaining every row of ``x``; ``ids`` name the rows."""
    out = forward_full(params, x, EVAL)
    ids = None if ids is None else tuple(map(str, ids))
    return Explanations(params.concept_names, ids, out.y_e, out.alpha, out.y_e * out.alpha, out.y_kd)


def explanations_to_jsonl(explanations: Explanations, path) -> None:
    """One JSON object per row, byte for byte as ``json.dumps(..., allow_nan=False)`` writes it."""
    e = explanations
    group = "{" + ", ".join(json.dumps(name).replace("%", "%%") + ": %r" for name in e.concept_names) + "}"
    line = f'{{"id": %s, "kd_score": %r, "concept_probs": {group}, "attention": {group}, "contributions": {group}}}\n'
    values = np.column_stack([e.kd_score, e.concept_probs, e.attention, e.contributions])
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    with open(path, "w", encoding="utf-8") as fh:
        for a in range(0, len(values), ROW_BLOCK):
            ids = repeat("null") if e.ids is None else map(json.dumps, e.ids[a : a + ROW_BLOCK])
            fh.writelines(line % (i, *v) for v, i in zip(values[a : a + ROW_BLOCK].tolist(), ids))


def check_concepts(params: ConceptDistilParams, dataset, what: str) -> None:
    """A dataset with concept columns must name the model's concepts in the model's order."""
    if dataset.k and dataset.concept_names != params.concept_names:
        raise DataError(f"{what} concepts {dataset.concept_names} do not match the model's {params.concept_names}")


def predict_concepts(params: ConceptDistilParams, x) -> np.ndarray:
    return concept_forward(params, x, EVAL)[0]


def predict_scores(params: ConceptDistilParams, x) -> np.ndarray:
    return forward_full(params, x, EVAL).y_kd


# -- serialization ----------------------------------------------------------

def model_to_doc(params: ConceptDistilParams) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "concept_distil",
        "concept_names": list(params.concept_names),
        "trunk": nn.mlp_to_doc(params.theta_c),
        "heads": [nn.mlp_to_doc(h) for h in params.theta_m],
        "attention": nn.mlp_to_doc(params.theta_a),
    }


def model_from_doc(doc: dict) -> ConceptDistilParams:
    if doc.get("format_version") != FORMAT_VERSION:
        raise DataError(f"unsupported model format_version {doc.get('format_version')!r}")
    theta_c = nn.mlp_from_doc(doc["trunk"])
    heads = nn.stack([nn.mlp_from_doc(h) for h in doc["heads"]])
    theta_a = nn.mlp_from_doc(doc["attention"])
    config = ArchitectureConfig(
        k_concepts=len(doc["heads"]),
        trunk=tuple(theta_c.specs),
        head_template=tuple(heads.specs),
        attention=tuple(theta_a.specs),
    )
    return ConceptDistilParams(config, theta_c, heads, theta_a, tuple(doc["concept_names"]))


def save_model(params: ConceptDistilParams, path) -> None:
    Path(path).write_text(json.dumps(model_to_doc(params), allow_nan=False), encoding="utf-8")


def load_model(path) -> ConceptDistilParams:
    return schema.load_file(path, "concept_distil", model_from_doc)
