"""A fixed reference loop that measures how fast the host runs right now.

The host's speed drifts: interpreter-bound work such as a `paper-grid`
trial can run a third slower or more for tens of seconds at a time, with
no change in the work done.  Timing this loop on each side of an op and
scaling the op's time by ``REFERENCE_S / loop time`` gives the time the
op would have taken at a fixed speed, so most of the drift cancels.
README.md says which workloads are scaled and why.

The loop mimics the minibatch steps of an SGD classifier on small numpy
arrays (Python dispatch plus tiny kernels), like the `classify` and
`deep` loops it stands for, but runs no coralign code: a change to the
package cannot change it.
"""

import time

import numpy as np

# A nominal loop time: scaled times are seconds at the speed where the
# loop takes this long.  On the host of the README's figures its median
# over a run ranged from 0.09 s to 0.17 s.
REFERENCE_S = 0.125
STEPS = 5000
BATCH = 64

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((1024, 21))
_Y = np.where(_rng.random((1024, 3)) < 0.5, 1.0, -1.0)


def loop_seconds() -> float:
    """Time one run of the reference loop."""
    W = np.zeros((3, 21))
    start = time.perf_counter()
    for k in range(STEPS):
        lo = (k * BATCH) % len(_X)
        Xb, Yb = _X[lo : lo + BATCH], _Y[lo : lo + BATCH]
        violated = (Yb * (Xb @ W.T)) < 1.0
        W = W + 0.01 * (violated * Yb).T @ Xb / BATCH
        norms = np.linalg.norm(W, axis=1)
        W *= np.minimum(1.0, 10.0 / np.maximum(norms, 1e-300))[:, None]
    return time.perf_counter() - start


def scale(seconds: float, loop_times) -> float:
    """`seconds` at the reference speed, given loop times taken around it."""
    return seconds * REFERENCE_S / (sum(loop_times) / len(loop_times))
