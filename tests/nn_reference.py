"""Reference kernels: nn and model as they were before backward worked in place.

Every operation here allocates its result, every backward call gets a
fresh zeroed gradient buffer and always computes the input gradient. The
tests require the in-place kernels of ``conceptdistil.nn`` and
``conceptdistil.model`` to give these functions' bits exactly.
"""

import numpy as np

from conceptdistil import nn
from conceptdistil.nn import BCE_EPS, BN_EPS, TRAIN


def sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def backward(params, trace, upstream_grad, grads=None):
    d = np.ascontiguousarray(upstream_grad, dtype=np.float64)
    if grads is None:
        grads = nn.zero_grads(params)
    for spec, layer, lt, g in reversed(list(zip(params.specs, params.layers, trace.layers, grads.layers))):
        if lt.mask is not None:
            d = d * lt.mask
        if spec.activation == "relu":
            d = d * (lt.act_out > 0.0)
        elif spec.activation == "sigmoid":
            d = d * (lt.act_out * (1.0 - lt.act_out))
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
                d = d * (layer.gamma / np.sqrt(lt.bn_var + BN_EPS))[..., None, :]
        np.matmul(d.swapaxes(-1, -2), lt.x_in, out=g.weights)
        np.sum(d, axis=-2, out=g.bias)
        d = d @ layer.weights
    return grads, d


def bce_loss(pred, target):
    pred = nn.as_matrix(pred, "pred")
    target = nn.as_matrix(target, "target")
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    loss = float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log1p(-p))))
    grad = (p - target) / (p * (1.0 - p)) / p.size
    return loss, grad


def softmax_rowwise(e):
    e = nn.as_matrix(e, "softmax input")
    shifted = e - e.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def backward_full(params, outputs, d_y_kd, d_y_e, stop_concept_grad=False):
    """model.backward_full with fresh gradients and :func:`backward`."""
    grads = nn.zero_grads(params)
    y_e, alpha = outputs.y_e, outputs.alpha
    dk = np.asarray(d_y_kd, dtype=np.float64).reshape(-1, 1)
    d_e = nn.softmax_backward(alpha, dk * y_e)
    backward(params.theta_a, outputs.attention_trace, d_e, grads.theta_a)
    d_ye_total = np.asarray(d_y_e, dtype=np.float64)
    if not stop_concept_grad:
        d_ye_total = d_ye_total + dk * alpha
    _, d_in = backward(params.heads, outputs.concept_traces.stack, d_ye_total.T[:, :, None], grads.heads)
    d_trunk_out = d_in[0]
    for part in d_in[1:]:  # summed head by head, in order
        d_trunk_out = d_trunk_out + part
    backward(params.theta_c, outputs.concept_traces.trunk, d_trunk_out, grads.theta_c)
    return grads
