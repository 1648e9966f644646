"""Fixed reference blocks that track how fast the machine runs right now.

A shared VM's speed moves by up to 1.6x in phases of seconds to minutes,
and the benchmark's work moves with it.  The benchmark times a reference
block before the first folflow call of a pass and after each call, and
rescales the pass's wall time by NOMINAL_S / (mean block time).  That
cancels most of the drift, so its timings read as seconds on a machine
that runs the block in NOMINAL_S.  The blocks use no folflow code, so a
change to the program never changes them.

Each kind of block mimics the work of the workloads it serves, since the
drift hits kinds of work unequally:

- `mixed`: interpreter loops, small numpy ops, sparse tridiagonal solves and
  float formatting -- the stepping, recording and CSV writing of every
  workload that steps, and the imports of set-up.
- `eigen`: a small dense eigensolve and sparse tridiagonal solves -- the
  dense `eigh` and the inverse iteration that `spectral_report` spends its
  time in.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Block times on the 2-vCPU Xeon VM (2.1 GHz nominal) the benchmark was
# tuned on, in a fast phase.  Any fixed values would do: they only set the
# scale of the rescaled timings.
NOMINAL_S = {"mixed": 0.040, "eigen": 0.040}

_N = 4096
_rng = np.random.default_rng(12345)
_x = _rng.random(_N)
_lu = splu(sp.diags([-np.ones(_N - 1), 2.5 * np.ones(_N), -np.ones(_N - 1)], [-1, 0, 1],
                    format="csc"))
_values = _rng.random(4800).tolist()
_matrix = _rng.random((200, 200))
_symmetric = _matrix + _matrix.T


def _interpreter():
    acc, rows = 0.0, {}
    for i in range(48000):
        acc += (i % 7) * 0.5
        rows[i & 63] = acc
    return acc


def _arrays():
    u = _x
    for _ in range(180):
        u = 0.5 * (np.roll(u, 1) + np.roll(u, -1)) - 0.01 * u
    return u


def _solves():
    for _ in range(60):
        b = _lu.solve(_x)
    return b


def _formatting():
    return "\n".join(",".join(repr(v) for v in _values[k:k + 5]) for k in range(0, 4800, 5))


def _eigh():
    return np.linalg.eigh(_symmetric)


KINDS = {
    "mixed": (_interpreter, _arrays, _solves, _formatting),
    "eigen": (_eigh, _solves),
}
_REPEATS = {"mixed": 2, "eigen": 4}


def block(kind: str = "mixed") -> float:
    """Wall seconds of one reference block of `kind`."""
    start = perf_counter()
    for _ in range(_REPEATS[kind]):
        for part in KINDS[kind]:
            part()
    return perf_counter() - start


def rescale(seconds: float, blocks: list[float], kind: str = "mixed") -> float:
    """`seconds` of wall time, rescaled by the mean of the blocks timed around it."""
    return seconds * NOMINAL_S[kind] * len(blocks) / sum(blocks)
