"""A fixed reference computation that measures the host's current speed.

On a shared host the same operation can take twice as long a minute later,
with processor time rising as much as wall time: the processor itself runs
slower while other tenants load it.  The benchmark therefore times this
yardstick between every two operations and set-ups, and scales each
measured time by REFERENCE_S over the mean of the yardstick times just
before and just after it.  A scaled time reads in seconds at the speed the
yardstick had when REFERENCE_S was measured.

The yardstick mixes the kinds of work the flow does: an interpreted loop
of small array operations (the simplex of `fit`), small Cholesky
factorizations and solves (the Kriging likelihood), a streaming pass over a
large array (the KDE of `forward`), and one-row Gaussian-process
predictions for 13 outputs through scipy's `cho_solve` (the model calls of
`inverse`).  It uses none of the program's code, so a change to the program
moves the scaled times as much as it moves the wall times.

On a 2-vCPU VM, the same four parts at other sizes, timed next to each
operation, correlated with the operation's time at 0.79 (`inverse`) and
0.67 (`fit`).  Over 25 s windows of a 4.5-minute stretch, the median
operation time spread (interquartile range over median) by 10.7%
(`inverse`) and 12.9% (`fit`), and the median scaled time by 4.2% and 4.9%.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# About the median yardstick time on a 2-vCPU VM (Python 3.11.7, numpy
# 2.4.6, OpenBLAS 0.3.31, one BLAS thread): 0.41 s over 394 measurements.
REFERENCE_S = 0.42

_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal((100, 4))
_QUERIES = _rng.standard_normal((200, 4))
_ROWS = _rng.standard_normal((12, 401))
_SPD = _POINTS @ _POINTS.T + 100.0 * np.eye(100)
_STREAM = _rng.standard_normal((64, 20000))
_DESIGN = _rng.random((100, 4))
_KERNEL = cho_factor(
    np.exp(-3.0 * ((_DESIGN[:, None, :] - _DESIGN[None, :, :]) ** 2).sum(axis=2))
    + 1e-6 * np.eye(100),
    lower=True,
)
_WEIGHTS = cho_solve(_KERNEL, _rng.standard_normal(100))
_LOADINGS = _rng.standard_normal((401, 13))


def _interpreted(n: int = 7000) -> None:
    total = 0.0
    for i in range(n):
        d = np.exp(-((_POINTS - _QUERIES[i % 200]) ** 2).sum(axis=1))
        total += float((d @ _POINTS)[0] * _ROWS[:4].sum(axis=0)[0])
        total += sum(j * 0.5 for j in range(20))


def _linalg(n: int = 500) -> None:
    for i in range(n):
        chol = np.linalg.cholesky(_SPD + i * 1e-3 * np.eye(100))
        np.linalg.solve(chol, _POINTS)


def _stream(n: int = 10) -> None:
    for _ in range(n):
        np.exp(-0.5 * _STREAM * _STREAM).sum(axis=1)


def _predict(n: int = 150) -> None:
    means, variances = np.empty(13), np.empty(13)
    for i in range(n):
        x = _QUERIES[i % 200, None, :] % 1.0
        for j in range(13):
            k = np.exp(-3.0 * ((_DESIGN - x) ** 2).sum(axis=1))[:, None]
            means[j] = (k.T @ _WEIGHTS)[0]
            variances[j] = 1.0 - np.einsum("ij,ij->j", k, cho_solve(_KERNEL, k))[0]
        _LOADINGS @ means + (_LOADINGS**2) @ np.clip(variances, 0.0, None)


def measure() -> float:
    """Wall seconds of one pass of the yardstick."""
    t0 = time.perf_counter()
    _interpreted()
    _linalg()
    _stream()
    _predict()
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between yardstick times `before` and `after`,
    at the reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
