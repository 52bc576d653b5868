"""Machine-speed calibration for the benchmark's timings.

On a shared host the same code runs up to twice as slow for seconds at a
time while neighbours are busy, and a 30 s run can fall mostly into fast
or mostly into slow stretches; its medians then move by far more than any
change to the program would.  So the benchmark runs ``calibrate()``, a
short fixed workload of its own made of the kinds of work the program
does (interpreted Python, small complex numpy products and ``eigvalsh``),
right before every timed call, and reports the call's wall time scaled by
``REFERENCE_S`` over that calibration time: milliseconds at the speed at
which the calibration takes exactly ``REFERENCE_S``.  On a 2-vCPU Xeon
(Sapphire Rapids, KVM) the calibration takes about 1.9 ms when the host
is quiet, so there the scaled times read close to quiet wall times.

The calibration must stay fixed: a change to it changes every scaled
time, so it is part of the benchmark, never of a program change.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.002

_RNG = np.random.default_rng(20070501)
_A = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_H = _A + _A.conj().T


def _interpreted() -> int:
    table = {}
    acc = 0
    for i in range(3000):
        table[i & 63] = acc
        acc += i * 3 % 7
        acc ^= i << 1
    return acc


def _kernels() -> float:
    total = 0.0
    for _ in range(20):
        total += float(np.linalg.eigvalsh(_H)[0])
    m = _H
    for _ in range(100):
        m = (m @ _H) * 0.01 + _H
        total += float(np.real(np.trace(m)))
    return total


def calibrate() -> float:
    """Seconds one pass of the fixed calibration workload takes now."""
    start = perf_counter()
    _interpreted()
    _kernels()
    return perf_counter() - start


def scale() -> float:
    """Factor that turns wall seconds measured now into reference seconds."""
    return REFERENCE_S / calibrate()
