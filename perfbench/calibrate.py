"""A fixed calibration kernel that tracks the speed of the machine.

The shared host this benchmark was defined on changes speed by up to a
quarter over tens of seconds. Its CPU time tracks wall time, so the cause
is the cores slowing down, not preemption. Raw medians of runs 20 s long
spread by 15-35% between runs.

The worker therefore runs a calibration between ops, outside the timed
region. For in-process ops it is ``kernel``: small numpy calls and Python
work of the kind the ops do. For `cli` it is a bare interpreter start. It
never touches ``twomode``, so no change to the package can move it. Each op
time is reported scaled to a calibration time of ``REFERENCE_NS`` (or
``PROCESS_REFERENCE_NS``):

    scaled = raw * REFERENCE_NS / (median of the 5 calibrations nearest the op)

This is the time the op would take on a machine whose calibration time is
the reference. The run prints the raw values and the calibration median
next to the scaled ones.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter_ns

import numpy as np

# About the medians of the kernel and of a bare interpreter start on the
# machine the benchmark was defined on (2-core x86-64, Python 3.11, numpy
# 2.4), so that scaled and raw values are close there.
REFERENCE_NS = 1_000_000
PROCESS_REFERENCE_NS = 12_500_000

_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_MATS = [
    [[2.5 + k, 0.3, 1.1, -0.2], [0.3, 1.7, 0.4, -0.9],
     [1.1, 0.4, 2.2 + k / 2, 0.1], [-0.2, -0.9, 0.1, 1.9]]
    for k in range(12)
]


def kernel() -> float:
    acc = 0.0
    for m in _MATS:
        a = np.array(m, dtype=float, copy=True)
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite calibration matrix")
        acc += float(np.max(np.abs(a - a.T)))
        acc += float(np.linalg.eigvalsh(a)[0])
        acc += float(np.linalg.eigvalsh(a + 1j * _OMEGA)[0])
        acc += float(np.linalg.det(a))
        evals, q = np.linalg.eigh(a)
        acc += float(np.trace(q @ np.diag(evals) @ q.T @ _OMEGA @ a[:, ::-1]))
        acc += sum(abs(x) for row in m for x in row)
    return acc


def time_kernel() -> int:
    """Wall time of one kernel call, in ns."""
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


def time_process_start() -> int:
    """Wall time of a bare ``python -I -S -c pass``, in ns: the calibration
    for `cli`, whose ops are process starts and imports in other processes."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True, timeout=60)
    return perf_counter_ns() - t0
