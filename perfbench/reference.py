"""A fixed reference kernel that measures how fast the machine runs.

The CPUs of a shared virtual machine change speed, by up to 2x for
minutes at a time, with the load of other tenants. The benchmark runs
this kernel before every set-up and every pass and once after the last,
and scales each set-up and pass by ``REF_S`` over the mean of the two
kernel runs around it, so a change of machine speed cancels. The kernel
imports nothing from conceptdistil, so a change to the package cannot
move it: a faster package gives proportionally smaller scaled timings.

The work mixes what the workloads do: small dense matrix products and
elementwise maths (``nn``), sorting and cumulative sums over a column
(tree splits in ``teachers``) and Python-level loops that format numbers
into text (``explain``, JSONL and CSV).
"""

from __future__ import annotations

import time

import numpy as np

# About the median kernel duration on the 2-vCPU virtual machine the
# benchmark was tuned on (Xeon, Python 3.11, numpy 2.4 with OpenBLAS);
# scaled timings read as seconds at that machine's usual speed.
REF_S = 0.33

_rng = np.random.default_rng(20220508)
_X = _rng.standard_normal((256, 16))
_W1 = _rng.standard_normal((16, 32))
_W2 = _rng.standard_normal((32, 1))
_COL = _rng.standard_normal(2048)


def _work() -> float:
    acc = 0.0
    for _ in range(3600):  # small matrix products, as in a training step
        h = np.maximum(_X @ _W1, 0.0)
        out = 1.0 / (1.0 + np.exp(-(h @ _W2)))
        acc += float(((out - 0.5).T @ h).sum())
    for i in range(1080):  # sort a column and scan it, as a tree split does
        order = np.argsort(_COL + i)
        acc += float(np.cumsum(_COL[order])[-1])
    parts = []
    for i in range(180000):  # Python-level formatting, as explain and CSV do
        parts.append(f"{i * 0.37:.6f}")
        if len(parts) == 64:
            acc += len(",".join(parts))
            parts.clear()
    return acc


def kernel_s() -> float:
    """Duration of one run of the reference kernel, in seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
