"""Fixed reference kernels, timed next to every op.

On a shared host the speed of the process moves by up to 1.7x in phases
of seconds to minutes, and CPU time moves with wall time, so an op time
alone says as much about the neighbours as about the program.  The two
kernels below do a fixed amount of the two kinds of work riskfields does
and never call riskfields:

- `sweeps`: red-black relaxation on a lattice in numpy, the work of the
  elliptic solves that dominate a build;
- `points`: a point walked round a circle, sampled and steered one small
  numpy call at a time, the work of a rollout step.

The two slow down by different amounts when the host does, and each kind
of op slows like its own kind of kernel.  A workload names the kernels
that match its ops; an op time divided by their time measured around it
is the op's cost in host-independent units: a faster program lowers it, a
slower host does not raise it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

N = 96              # lattice side
SWEEPS = 32         # red-black sweeps per `sweeps` call
POINT_STEPS = 600   # sampled points per `points` call
REPEATS = 3         # calls per kernel and measurement; the median is kept


def sweeps():
    """Red-black relaxation on an N x N lattice with one warm wall."""
    w = np.zeros((N + 2, N + 2))
    w[0] = 1.0
    core = w[1:-1, 1:-1]
    i, j = np.indices(core.shape)
    red = (i + j) % 2 == 0
    black = ~red
    for _ in range(SWEEPS):
        for m in (red, black):
            nb = w[2:, 1:-1] + w[:-2, 1:-1] + w[1:-1, 2:] + w[1:-1, :-2]
            core[m] = 0.25 * nb[m]
    return float(core.sum())


def _bilinear(a, x, y):
    i, j = int(x), int(y)
    fx, fy = x - i, y - j
    return ((1.0 - fx) * ((1.0 - fy) * a[i, j] + fy * a[i, j + 1])
            + fx * ((1.0 - fy) * a[i + 1, j] + fy * a[i + 1, j + 1]))


def points():
    """A point walked round a circle in a smooth N x N field, its gradient
    sampled bilinearly and projected at every step."""
    s = np.linspace(0.0, 1.0, N + 2)
    w = np.add.outer(s * s, np.sin(3.0 * s))
    c, r = 0.5 * (N + 1), 0.3 * N
    acc = 0.0
    for k in range(POINT_STEPS):
        t = 1e-3 * k
        p = np.asarray([c + r * math.cos(t), c + r * math.sin(t)])
        x, y = p[0], p[1]
        g = np.array([_bilinear(w, x + 0.5, y) - _bilinear(w, x - 0.5, y),
                      _bilinear(w, x, y + 0.5) - _bilinear(w, x, y - 0.5)])
        acc += float(np.dot(g, p - c)) / (1.0 + float(np.hypot(*g)))
    return acc


KERNELS = {"sweeps": sweeps, "points": points}


def measure_ms(names):
    """Sum over the named kernels of the median wall time of REPEATS
    calls, in ms."""
    total = 0.0
    for name in names:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            KERNELS[name]()
            times.append(1e3 * (time.perf_counter() - t0))
        total += statistics.median(times)
    return total
