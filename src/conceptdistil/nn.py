"""Minimal float64 feedforward engine with exact backpropagation.

All tensors are dense row-major 2-D numpy arrays (rows are instances).
A layer applies a linear map, optional batch normalization, an elementwise
activation (relu / sigmoid / identity) and optional inverted dropout.

A stacked MLP (:func:`stack`) runs K same-shaped networks in one call,
slice by slice with the arithmetic of K separate calls. :func:`pack`
lays MLPs end to end in one buffer for a single flat optimizer update.

Forward passes are pure functions: train-mode randomness is fully
determined by the ``rng_seed`` argument, and batchnorm running statistics
are folded in explicitly via :func:`update_running_stats`, never as a
side effect of :func:`forward`. This keeps (params, input, mode, seed)
-> output bit-reproducible, which the rest of the toolkit relies on.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, field, replace

import numpy as np

from . import schema
from .errors import DataError, NumericError
from .schema import Checked, bounded, ge, gt, one_of, within

TRAIN = "train"
EVAL = "eval"
ACTIVATIONS = ("relu", "sigmoid", "identity")

BCE_EPS = 1e-7  # prediction clamp keeping the loss finite at saturation
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

# a layer's arrays, in the order of the packed buffer's blocks, of a file's keys and of the digest's bytes
LEARNABLE = ("weights", "bias", "gamma", "beta")
RUNNING = ("running_mean", "running_var")
ARRAYS = LEARNABLE + RUNNING
BATCHNORM = ARRAYS[2:]  # held exactly when the layer's spec sets use_batchnorm


def derive_seed(*parts: int) -> int:
    """Deterministic, platform-stable child seed from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint32)[0])


def as_matrix(a, name: str = "input") -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DataError(f"{name} must be a 2-D array, got shape {out.shape}")
    return out


def ensure_finite(a: np.ndarray, context: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericError(f"non-finite values in {context}")
    return a


@dataclass(frozen=True)
class LayerSpec(Checked):
    """Shape and behaviour of one layer.

    Dropout and batch normalization, when enabled, act on this layer's
    pre-activation / output respectively (linear -> batchnorm ->
    activation -> dropout).
    """

    in_dim: int = bounded(MISSING, ge(1))
    out_dim: int = bounded(MISSING, ge(1))
    activation: str = bounded("relu", one_of(ACTIVATIONS))
    dropout_p: float = bounded(0.0, within(0, 1, hi_open=True))
    use_batchnorm: bool = False

    def arrays(self) -> tuple[str, ...]:
        """The names of the arrays a layer of this spec holds, in declared order."""
        return ARRAYS if self.use_batchnorm else ARRAYS[:2]

    def shape(self, name: str, lead=()) -> tuple[int, ...]:
        """The shape of this layer's array ``name``, behind the stacked axes ``lead``."""
        return (*lead, self.out_dim, self.in_dim) if name == "weights" else (*lead, self.out_dim)


@dataclass
class LayerParams:
    weights: np.ndarray  # (out_dim, in_dim); (K, out_dim, in_dim) when stacked
    bias: np.ndarray  # (out_dim,); every other array gains the same leading K axis
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None


@dataclass
class MLPParams:
    layers: list[LayerParams]
    specs: list[LayerSpec]
    # learnable blocks as one vector, set by pack(); None for unpacked params
    flat: np.ndarray | None = field(default=None, init=False, repr=False)

    def validate(self) -> None:
        if len(self.layers) != len(self.specs) or not self.specs:
            raise DataError("params and specs must pair one layer each, at least one layer")
        lead = self.layers[0].weights.shape[:-2]
        for i, (layer, spec) in enumerate(zip(self.layers, self.specs)):
            for name in ARRAYS:
                a = getattr(layer, name)
                if (a is None) == (name in spec.arrays()):
                    raise DataError(f"layer {i}: {name} is {'missing' if a is None else 'set without use_batchnorm'}")
                if a is not None and a.shape != spec.shape(name, lead):
                    raise DataError(f"layer {i}: {name} shape {a.shape} does not match spec")
            if i + 1 < len(self.specs) and spec.out_dim != self.specs[i + 1].in_dim:
                raise DataError(f"layer {i}->{i + 1}: dims do not chain")
            if spec.use_batchnorm and np.any(layer.running_var <= 0):
                raise DataError(f"layer {i}: running_var must be strictly positive")

    __post_init__ = validate

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim

    def copy(self) -> "MLPParams":
        """Deep, packed copy."""
        out = MLPParams([replace(l) for l in self.layers], list(self.specs))
        pack([out])
        return out


def pack(parts, buffer: np.ndarray | None = None) -> np.ndarray:
    """Rebind every array of the MLPParams ``parts`` to a view of one buffer.

    Learnable blocks come first, part by part and layer by layer (weights,
    bias, gamma, beta), then all running statistics; each part's ``flat``
    is its learnable slice. Without ``buffer`` the current values are
    copied into a new one; a given ``buffer`` has this layout and is kept.
    """
    slots = [(l, name) for names in (LEARNABLE, RUNNING) for p in parts for l in p.layers
             for name in names if getattr(l, name) is not None]
    arrays = [getattr(l, name) for l, name in slots]
    if buffer is None:
        buffer = np.concatenate([a.ravel() for a in arrays])
    at = 0
    for (layer, name), a in zip(slots, arrays):
        setattr(layer, name, buffer[at : at + a.size].reshape(a.shape))
        at += a.size
    at = 0
    for p in parts:
        size = sum(getattr(l, name).size for l in p.layers for name in LEARNABLE if getattr(l, name) is not None)
        p.flat = buffer[at : at + size]
        at += size
    return buffer


def stack(mlps) -> MLPParams:
    """One stacked MLP from MLPs of equal specs: each array gains a leading axis."""
    if not mlps:
        raise DataError("no networks to stack")
    if any(list(m.specs) != list(mlps[0].specs) for m in mlps):
        raise DataError("stacked networks must share their layer specs")
    layers = [
        LayerParams(**{name: np.stack([getattr(l, name) for l in group])
                       for name, a in vars(group[0]).items() if a is not None})
        for group in zip(*(m.layers for m in mlps))
    ]
    return MLPParams(layers, list(mlps[0].specs))


def unstack(obj) -> list:
    """Member views of a stacked MLPParams or ForwardTrace; writes go through."""
    def member(layer, i):
        return replace(layer, **{name: a[i] for name, a in vars(layer).items() if a is not None})

    k = len(next(iter(vars(obj.layers[0]).values())))
    return [replace(obj, layers=[member(l, i) for l in obj.layers]) for i in range(k)]


def init_mlp(specs, seed: int = 0) -> MLPParams:
    """Fan-based uniform init: W ~ U(+-sqrt(6/(fan_in+fan_out))); gamma and running_var one, the rest zero."""
    rng = np.random.default_rng(seed)
    layers = []
    for spec in specs:
        arrays = {name: np.full(spec.shape(name), float(name in ("gamma", "running_var"))) for name in spec.arrays()}
        bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        arrays["weights"] = rng.uniform(-bound, bound, size=arrays["weights"].shape)
        layers.append(LayerParams(**arrays))
    params = MLPParams(layers, list(specs))
    pack([params])
    return params


@dataclass
class LayerTrace:
    x_in: np.ndarray
    z_hat: np.ndarray | None  # normalized pre-activation (batchnorm layers)
    bn_mean: np.ndarray | None
    bn_var: np.ndarray | None
    act_out: np.ndarray  # post-activation, pre-dropout
    mask: np.ndarray | None  # scaled inverted-dropout mask


@dataclass
class ForwardTrace:
    mode: str
    layers: list[LayerTrace]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # branch-free, with the bits of 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below
    ez = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, ez)
    ez += 1.0
    out /= ez
    return out


def draws_masks(specs, mode: str) -> bool:
    """Whether a forward pass over ``specs`` draws dropout masks, i.e. reads its seed."""
    return mode == TRAIN and any(s.dropout_p > 0.0 for s in specs)


def forward(params: MLPParams, x, mode: str = EVAL, rng_seed=0):
    """Run the network, returning ``(output, trace)``.

    Train-mode dropout masks are drawn from ``rng_seed`` alone, so
    identical arguments give bit-identical outputs. In eval mode dropout
    is a no-op and batchnorm uses the running statistics. A stacked
    network feeds the same ``x`` to all K members, takes one seed per
    member in ``rng_seed`` and returns a (K, n, out) output.
    """
    if mode not in (TRAIN, EVAL):
        raise DataError(f"mode must be {TRAIN!r} or {EVAL!r}, got {mode!r}")
    x = as_matrix(x)
    if x.shape[1] != params.in_dim:
        raise DataError(f"input has {x.shape[1]} columns, network expects {params.in_dim}")
    lead = params.layers[0].weights.shape[:-2]
    rngs = None
    traces = []
    h = np.broadcast_to(x, (*lead, *x.shape)) if lead else x
    for i, (spec, layer) in enumerate(zip(params.specs, params.layers)):
        x_in = h
        z = h @ layer.weights.swapaxes(-1, -2)
        z += layer.bias[..., None, :]  # in place, like the relu below: z is a fresh array
        # checked per layer: relu and sigmoid would silently absorb an
        # overflowed infinity before it could reach the output check
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite values in layer {i} pre-activation")
        z_hat = bn_mean = bn_var = None
        if spec.use_batchnorm:
            if mode == TRAIN:
                bn_mean = z.mean(axis=-2)
                bn_var = z.var(axis=-2)
            else:
                bn_mean = layer.running_mean
                bn_var = layer.running_var
            z_hat = (z - bn_mean[..., None, :]) / np.sqrt(bn_var + BN_EPS)[..., None, :]
            z = layer.gamma[..., None, :] * z_hat + layer.beta[..., None, :]
        if spec.activation == "relu":
            a = np.maximum(z, 0.0, out=z)
        elif spec.activation == "sigmoid":
            a = _sigmoid(z)
        else:
            a = z
        mask = None
        if mode == TRAIN and spec.dropout_p > 0.0:
            if rngs is None:  # made only when a mask is drawn
                rngs = [np.random.default_rng(s) for s in (rng_seed if lead else [rng_seed])]
            keep = np.stack([r.random(a.shape[-2:]) for r in rngs]).reshape(a.shape) >= spec.dropout_p
            mask = keep / (1.0 - spec.dropout_p)
            h = a * mask
        else:
            h = a
        traces.append(LayerTrace(x_in=x_in, z_hat=z_hat, bn_mean=bn_mean, bn_var=bn_var, act_out=a, mask=mask))
    ensure_finite(h, "forward output")
    return h, ForwardTrace(mode, traces)


def zero_grads(params):
    """A gradient buffer for ``params`` (MLPParams or ConceptDistilParams): a packed copy, ``flat`` zeroed,
    so ``grads.flat`` lines up with ``params.flat``."""
    grads = params.copy()
    grads.flat[:] = 0.0
    return grads


def backward(params: MLPParams, trace: ForwardTrace, upstream_grad, grads: MLPParams | None = None,
             input_grad: bool = True):
    """Exact reverse-mode gradients of the traced computation.

    Differentiates through the dropout masks and, in train mode, through
    the batch statistics. Overwrites every learnable slot of ``grads``
    (a :func:`zero_grads` buffer, new when omitted), so a buffer reused
    from step to step needs no zeroing, and returns ``(grads, gradient
    w.r.t. the input)``; the input gradient is None when ``input_grad``
    is False, which skips the first layer's ``d @ W``. ``upstream_grad``
    is not modified.
    """
    if len(trace.layers) != len(params.specs):
        raise DataError("trace does not match params (layer counts differ)")
    # a private C-ordered copy, worked on in place; C order keeps the matmuls' bits
    d = np.array(upstream_grad, dtype=np.float64, order="C")
    last = trace.layers[-1].act_out
    if d.shape != last.shape:
        raise DataError(f"upstream_grad shape {d.shape} does not match output {last.shape}")
    if grads is None:
        grads = zero_grads(params)
    steps = list(enumerate(zip(params.specs, params.layers, trace.layers, grads.layers)))
    for i, (spec, layer, lt, g) in reversed(steps):
        if lt.x_in.shape[-1] != spec.in_dim:
            raise DataError("trace does not match params (layer input width differs)")
        if lt.mask is not None:
            d *= lt.mask
        if spec.activation == "relu":
            d *= lt.act_out > 0.0
        elif spec.activation == "sigmoid":
            d *= lt.act_out * (1.0 - lt.act_out)
        if spec.use_batchnorm:
            np.sum(d * lt.z_hat, axis=-2, out=g.gamma)
            np.sum(d, axis=-2, out=g.beta)
            if trace.mode == TRAIN:
                n = d.shape[-2]
                dzh = d * layer.gamma[..., None, :]
                inv = (1.0 / np.sqrt(lt.bn_var + BN_EPS))[..., None, :]
                d = (inv / n) * (n * dzh - dzh.sum(axis=-2, keepdims=True)
                                 - lt.z_hat * (dzh * lt.z_hat).sum(axis=-2, keepdims=True))
            else:
                d *= (layer.gamma / np.sqrt(lt.bn_var + BN_EPS))[..., None, :]
        np.matmul(d.swapaxes(-1, -2), lt.x_in, out=g.weights)
        np.sum(d, axis=-2, out=g.bias)
        if i == 0 and not input_grad:
            return grads, None
        d = d @ layer.weights
    return grads, d


def bce_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy; targets may be soft probabilities.

    Predictions are clamped to [BCE_EPS, 1 - BCE_EPS] before the logs so
    saturated probabilities keep the loss finite; the gradient is taken
    at the clamped value.
    """
    pred = as_matrix(pred, "pred")
    target = as_matrix(target, "target")
    if pred.shape != target.shape:
        raise DataError(f"pred shape {pred.shape} != target shape {target.shape}")
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    # in place, each operation rounding as in
    # mean(-(target * log(p) + (1 - target) * log1p(-p))) and (p - target) / (p * (1 - p)) / p.size
    terms = np.log(p)
    terms *= target
    rest = np.negative(p)
    np.log1p(rest, out=rest)
    rest *= 1.0 - target
    terms += rest
    np.negative(terms, out=terms)
    loss = float(np.mean(terms))
    den = 1.0 - p
    den *= p
    grad = np.subtract(p, target, out=p)
    grad /= den
    grad /= grad.size
    return loss, grad


def softmax_rowwise(e) -> np.ndarray:
    """Row-wise softmax with max subtraction; every row sums to 1."""
    e = as_matrix(e, "softmax input")
    ensure_finite(e, "softmax input")
    ex = e - e.max(axis=1, keepdims=True)
    np.exp(ex, out=ex)
    ex /= ex.sum(axis=1, keepdims=True)
    return ex


def softmax_backward(alpha: np.ndarray, d_alpha: np.ndarray) -> np.ndarray:
    """Gradient through a row-wise softmax, given its output ``alpha``."""
    inner = (d_alpha * alpha).sum(axis=1, keepdims=True)
    return alpha * (d_alpha - inner)


@dataclass(frozen=True)
class OptimizerConfig(Checked):
    algorithm: str = bounded("adam", one_of(("sgd", "adam")))
    l2_penalty: float = bounded(0.0, ge(0))
    # a beta of 1 turns every parameter NaN
    adam_beta1: float = bounded(0.9, within(0, 1, hi_open=True))
    adam_beta2: float = bounded(0.999, within(0, 1, hi_open=True))
    adam_eps: float = bounded(1e-8, gt(0))


@dataclass
class OptimizerState:
    step: int = 0
    m: np.ndarray | None = None  # Adam moments, shaped like the flat parameters
    v: np.ndarray | None = None


def optimizer_step(theta: np.ndarray, grad: np.ndarray, lr: float, config: OptimizerConfig,
                   state: OptimizerState | None = None) -> OptimizerState:
    """One SGD or Adam update of the flat parameters ``theta`` at rate ``lr``, in place.

    ``theta`` and ``grad`` are packed learnable vectors (``.flat``), so
    every block (weights, bias, batchnorm gamma/beta) moves in one
    elementwise update, bit-identical to updating block by block; running
    statistics lie outside them. The l2 penalty enters through the
    gradient, theta <- theta - lr * (g + l2 * theta). Returns the state.
    """
    if state is None:
        state = OptimizerState()
    state.step += 1
    t = state.step
    gg = grad + config.l2_penalty * theta if config.l2_penalty else grad
    if config.algorithm == "sgd":
        theta -= lr * gg
        return state
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
    # in place, each operation rounding as in the textbook expression
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * gg
    v *= b2
    v += (1.0 - b2) * (gg * gg)
    den = v / (1.0 - b2**t)
    np.sqrt(den, out=den)
    den += eps
    step = m / (1.0 - b1**t)
    step *= lr
    step /= den
    theta -= step
    return state


def update_running_stats(params: MLPParams, trace: ForwardTrace) -> None:
    """Fold a train-mode trace's batch statistics into the running ones."""
    if trace.mode != TRAIN:
        return
    for spec, layer, lt in zip(params.specs, params.layers, trace.layers):
        if spec.use_batchnorm:  # in place: the statistics live in the packed buffer
            layer.running_mean[...] = (1.0 - BN_MOMENTUM) * layer.running_mean + BN_MOMENTUM * lt.bn_mean
            layer.running_var[...] = (1.0 - BN_MOMENTUM) * layer.running_var + BN_MOMENTUM * lt.bn_var


# -- serialization ----------------------------------------------------------

def mlp_to_doc(params: MLPParams) -> dict:
    """Each layer's arrays as flat lists: weights and bias, then the batchnorm ones (or null) under ``batchnorm``."""
    def lists(layer, names):
        return {name: schema.as_list(getattr(layer, name)) for name in names}

    layers = [{**lists(layer, ARRAYS[:2]), "batchnorm": lists(layer, BATCHNORM) if spec.use_batchnorm else None}
              for spec, layer in zip(params.specs, params.layers)]
    return {"specs": [schema.write(s) for s in params.specs], "layers": layers}


def mlp_from_doc(doc, where: str) -> MLPParams:
    """The MLPParams :func:`mlp_to_doc` wrote; every error names ``where`` (the network in its file), and a
    missing, misshapen or non-finite array, or an item of one that is not a JSON number, its layer and name, as
    in ``heads[2].layers[0].weights``."""
    if not isinstance(doc, dict):
        raise DataError(f"{where} is {schema.a_type(doc)}, not an object")
    specs = [schema.read(LayerSpec, s, f"{where}.specs[{i}]")
             for i, s in enumerate(schema.array(doc, "specs", dict, None, where))]
    layers = []
    for i, (spec, blob) in enumerate(zip(specs, schema.array(doc, "layers", dict, len(specs), where))):
        if not isinstance(bn := blob.get("batchnorm"), dict | None):
            raise DataError(f"{where}.layers[{i}].batchnorm is {schema.a_type(bn)}, not an object or null")
        arrays = {}
        for name in ARRAYS:
            at, owner = f"{where}.layers[{i}]", (bn or {}) if name in BATCHNORM else blob
            if (held := owner.get(name) is not None) != (name in spec.arrays()):
                raise DataError(f"{at}.{name} is {'set without use_batchnorm' if held else 'missing'}")
            if held:  # checked flat, then given its matrix shape
                shape = spec.shape(name)
                arrays[name] = schema.array(owner, name, float, math.prod(shape), at).reshape(shape)
        layers.append(LayerParams(**arrays))
    try:
        params = MLPParams(layers, specs)
    except DataError as exc:  # dims that do not chain, a running_var not positive
        raise DataError(f"{where}: {exc}") from None
    pack([params])
    return params


def params_digest(*mlps: MLPParams, include_running_stats: bool = True) -> str:
    """SHA-256 over the raw parameter bytes, for exact-equality checks; a zero byte stands for an array not held."""
    h = hashlib.sha256()
    for params in mlps:
        for layer in params.layers:
            for name in ARRAYS if include_running_stats else LEARNABLE:
                a = getattr(layer, name)
                if a is None:
                    h.update(b"\x00")
                else:
                    h.update(np.asarray(a.shape, dtype=np.int64).tobytes())
                    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
